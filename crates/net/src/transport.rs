//! Byte-frame transports between the orchestrator and its workers.
//!
//! A [`Transport`] moves whole codec frames (the 24-byte
//! `mlstar-codec` envelope plus payload) in both directions. Two
//! implementations share the trait:
//!
//! * [`ChannelTransport`] — `std::sync::mpsc` channels between threads of
//!   one process; frames arrive intact by construction.
//! * [`TcpTransport`] — a loopback TCP stream; frames are self-delimiting
//!   because the codec header carries the payload length at a fixed
//!   offset, so the receiver reads the header, then exactly the declared
//!   payload.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, Sender};

use mlstar_codec::HEADER_LEN;

use crate::error::NetError;

/// Upper bound on a single frame's payload (64 MiB). A header declaring
/// more is treated as corruption rather than an allocation request.
const MAX_PAYLOAD: u64 = 64 << 20;

/// A bidirectional, ordered, reliable frame pipe.
pub trait Transport: Send {
    /// Sends one complete frame.
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError>;
    /// Receives the next complete frame, blocking until it arrives.
    /// `Err` means the peer is gone — there is no partial read to retry.
    fn recv(&mut self) -> Result<Vec<u8>, NetError>;
}

/// In-process transport over a pair of mpsc channels.
pub struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// Builds a connected orchestrator/worker endpoint pair.
pub fn channel_pair() -> (ChannelTransport, ChannelTransport) {
    let (to_worker, from_orch) = std::sync::mpsc::channel();
    let (to_orch, from_worker) = std::sync::mpsc::channel();
    (
        ChannelTransport {
            tx: to_worker,
            rx: from_worker,
        },
        ChannelTransport {
            tx: to_orch,
            rx: from_orch,
        },
    )
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.tx
            .send(frame.to_vec())
            .map_err(|_| NetError::Io("channel peer disconnected".into()))
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        self.rx
            .recv()
            .map_err(|_| NetError::Io("channel peer disconnected".into()))
    }
}

/// Loopback-TCP transport carrying the same frames as
/// [`ChannelTransport`].
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wraps a connected stream. `NODELAY` is set so the small command
    /// frames of the protocol are not Nagle-delayed — per-message latency
    /// is one of the calibrated quantities.
    pub fn new(stream: TcpStream) -> Result<Self, NetError> {
        stream
            .set_nodelay(true)
            .map_err(|e| NetError::Io(format!("set_nodelay: {e}")))?;
        Ok(TcpTransport { stream })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.stream
            .write_all(frame)
            .map_err(|e| NetError::Io(format!("tcp write: {e}")))
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        let mut frame = vec![0u8; HEADER_LEN];
        self.stream
            .read_exact(&mut frame)
            .map_err(|e| NetError::Io(format!("tcp read header: {e}")))?;
        // The codec envelope is `magic u32 | version u32 | payload_len
        // u64 | checksum u64`, little-endian; the length lives at bytes
        // 8..16.
        #[expect(
            clippy::expect_used,
            reason = "an 8-byte slice always converts to [u8; 8]"
        )]
        let payload_len = u64::from_le_bytes(
            frame[8..16]
                .try_into()
                .expect("8-byte slice converts to [u8; 8]"),
        );
        if payload_len > MAX_PAYLOAD {
            return Err(NetError::Protocol(format!(
                "frame declares {payload_len} payload bytes (cap {MAX_PAYLOAD})"
            )));
        }
        let total = HEADER_LEN + payload_len as usize;
        frame.resize(total, 0);
        self.stream
            .read_exact(&mut frame[HEADER_LEN..])
            .map_err(|e| NetError::Io(format!("tcp read payload: {e}")))?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_codec::encode_frame;

    #[test]
    fn channel_round_trips_frames() {
        let (mut orch, mut worker) = channel_pair();
        let frame = encode_frame(0x1234_5678, 1, b"hello");
        orch.send(&frame).unwrap();
        assert_eq!(worker.recv().unwrap(), frame);
        worker.send(&frame).unwrap();
        assert_eq!(orch.recv().unwrap(), frame);
    }

    #[test]
    fn channel_disconnect_is_an_error() {
        let (mut orch, worker) = channel_pair();
        drop(worker);
        assert!(orch.send(b"x").is_err());
        assert!(orch.recv().is_err());
    }
}
