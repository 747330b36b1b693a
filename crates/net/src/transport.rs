//! Byte-frame transports between the orchestrator and its workers.
//!
//! A [`Transport`] moves whole codec frames (the 24-byte
//! `mlstar-codec` envelope plus payload) in both directions. Its
//! primitive is [`Transport::recv_into`], which receives a frame into a
//! buffer the caller keeps for the session; [`Transport::recv`] wraps it
//! with a fresh buffer. Two implementations share the trait:
//!
//! * [`ChannelTransport`] — bounded `std::sync::mpsc` channels between
//!   threads of one process; frames arrive intact by construction, and a
//!   sender blocks while two frames wait unread, as a TCP sender does on
//!   full socket buffers. `send` copies the frame into the channel, and
//!   `recv_into` moves that copy into the caller's buffer.
//! * [`TcpTransport`] — a loopback TCP stream; frames are self-delimiting
//!   because the codec header carries the payload length at a fixed
//!   offset, so the receiver reads the header, then exactly the declared
//!   payload, into the caller's buffer, which grows only when it is
//!   smaller than the frame.
//!
//! Only linked workers have a transport: the last worker of a run runs in
//! process on the orchestrating thread and exchanges no frames.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, SyncSender};

use mlstar_codec::HEADER_LEN;

use crate::error::NetError;

/// Upper bound on a single frame's payload (64 MiB). A header declaring
/// more is treated as corruption rather than an allocation request, and
/// such a frame is refused before it is sent.
const MAX_PAYLOAD: u64 = 64 << 20;

/// Refuses a payload length over [`MAX_PAYLOAD`]. Both ends of a TCP link
/// apply it, so a frame one side would refuse is never written.
fn check_payload_len(payload_len: u64) -> Result<(), NetError> {
    if payload_len > MAX_PAYLOAD {
        return Err(NetError::Protocol(format!(
            "frame declares {payload_len} payload bytes (cap {MAX_PAYLOAD})"
        )));
    }
    Ok(())
}

/// A bidirectional, ordered, reliable frame pipe.
pub trait Transport: Send {
    /// Sends one complete frame.
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError>;
    /// Receives the next complete frame into `frame`, replacing what it
    /// held, blocking until it arrives. `Err` means the peer is gone or
    /// sent a frame over the cap — there is no partial read to retry, and
    /// `frame` holds nothing to use.
    fn recv_into(&mut self, frame: &mut Vec<u8>) -> Result<(), NetError>;
    /// [`Transport::recv_into`] into a buffer of its own.
    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        let mut frame = Vec::new();
        self.recv_into(&mut frame)?;
        Ok(frame)
    }
}

/// Frames one direction of a [`ChannelTransport`] holds unread. Two let
/// the sender encode a frame while the receiver decodes the one before.
const CHANNEL_FRAMES: usize = 2;

/// In-process transport over a pair of bounded mpsc channels.
pub struct ChannelTransport {
    tx: SyncSender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// Builds a connected orchestrator/worker endpoint pair. Each direction
/// holds at most two unread frames; a third `send` blocks until the peer
/// takes one.
pub fn channel_pair() -> (ChannelTransport, ChannelTransport) {
    let (to_worker, from_orch) = std::sync::mpsc::sync_channel(CHANNEL_FRAMES);
    let (to_orch, from_worker) = std::sync::mpsc::sync_channel(CHANNEL_FRAMES);
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

    /// The frame arrives as the sender's copy, which is moved into
    /// `frame`: receiving copies nothing. `frame`'s old allocation is
    /// dropped before the wait, since the frame replaces it.
    fn recv_into(&mut self, frame: &mut Vec<u8>) -> Result<(), NetError> {
        drop(std::mem::take(frame));
        *frame = self
            .rx
            .recv()
            .map_err(|_| NetError::Io("channel peer disconnected".into()))?;
        Ok(())
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
        check_payload_len(frame.len().saturating_sub(HEADER_LEN) as u64)?;
        self.stream
            .write_all(frame)
            .map_err(|e| NetError::Io(format!("tcp write: {e}")))
    }

    /// The payload is read into `frame`'s allocation, which grows, to
    /// exactly the frame, only when it is too small.
    fn recv_into(&mut self, frame: &mut Vec<u8>) -> Result<(), NetError> {
        let mut header = [0u8; HEADER_LEN];
        self.stream
            .read_exact(&mut header)
            .map_err(|e| NetError::Io(format!("tcp read header: {e}")))?;
        // The codec envelope is `magic u32 | version u32 | payload_len
        // u64 | checksum u64`, little-endian; the length lives at bytes
        // 8..16.
        let payload_len = u64::from_le_bytes(std::array::from_fn(|i| header[8 + i]));
        check_payload_len(payload_len)?;
        // The header is copied in and the payload read into the unfilled
        // capacity behind it, not over zeros.
        let len = HEADER_LEN + payload_len as usize;
        frame.clear();
        frame.reserve_exact(len);
        frame.extend_from_slice(&header);
        (&mut self.stream)
            .take(payload_len)
            .read_to_end(frame)
            .map_err(|e| NetError::Io(format!("tcp read payload: {e}")))?;
        if frame.len() < len {
            return Err(NetError::Io(format!(
                "tcp read payload: peer closed after {} of {payload_len} bytes",
                frame.len() - HEADER_LEN
            )));
        }
        Ok(())
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
    fn channel_recv_into_takes_the_frames_recv_takes() {
        let (mut orch, mut worker) = channel_pair();
        let frames = [
            encode_frame(0x1234_5678, 1, &[7; 1000]),
            encode_frame(0x1234_5678, 1, b"hi"),
        ];
        let mut kept = b"stale".to_vec();
        for frame in &frames {
            orch.send(frame).unwrap();
            orch.send(frame).unwrap();
            assert_eq!(&worker.recv().unwrap(), frame);
            worker.recv_into(&mut kept).unwrap();
            assert_eq!(&kept, frame);
        }
        drop(orch);
        assert!(matches!(worker.recv_into(&mut kept), Err(NetError::Io(_))));
    }

    #[test]
    fn channel_disconnect_is_an_error() {
        let (mut orch, worker) = channel_pair();
        drop(worker);
        assert!(orch.send(b"x").is_err());
        assert!(orch.recv().is_err());
    }

    #[test]
    fn tcp_reads_whole_frames_and_types_bad_ones() {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut rx = TcpTransport::new(listener.accept().unwrap().0).unwrap();
        let frame = encode_frame(0x1234_5678, 1, &[7; 1000]);
        tx.write_all(&frame).unwrap();
        tx.write_all(&frame).unwrap();
        assert_eq!(rx.recv().unwrap(), frame);
        assert_eq!(rx.recv().unwrap(), frame);
        // A header declaring more than the cap is refused, not allocated.
        let mut huge = frame[..HEADER_LEN].to_vec();
        huge[8..16].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        tx.write_all(&huge).unwrap();
        assert!(matches!(rx.recv(), Err(NetError::Protocol(_))));
        // A frame cut short by a closed peer, then a missing header, are
        // I/O errors.
        tx.write_all(&frame[..frame.len() - 1]).unwrap();
        drop(tx);
        assert!(matches!(rx.recv(), Err(NetError::Io(_))));
        assert!(matches!(rx.recv(), Err(NetError::Io(_))));
    }

    #[test]
    fn tcp_recv_into_reuses_its_buffer_and_types_bad_frames_as_recv_does() {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut rx = TcpTransport::new(listener.accept().unwrap().0).unwrap();
        let big = encode_frame(0x1234_5678, 1, &[7; 1000]);
        let small = encode_frame(0x1234_5678, 1, b"hello");
        for frame in [&small, &big, &small, &big, &big] {
            tx.write_all(frame).unwrap();
        }
        let mut kept = Vec::new();
        rx.recv_into(&mut kept).unwrap();
        assert_eq!((&kept, kept.capacity()), (&small, small.len()));
        // It grows to exactly a larger frame, then keeps that allocation.
        rx.recv_into(&mut kept).unwrap();
        assert_eq!((&kept, kept.capacity()), (&big, big.len()));
        let at = kept.as_ptr();
        rx.recv_into(&mut kept).unwrap();
        assert_eq!(kept, small);
        rx.recv_into(&mut kept).unwrap();
        assert_eq!(kept, big);
        assert_eq!((kept.as_ptr(), kept.capacity()), (at, big.len()));
        assert_eq!(rx.recv().unwrap(), big);
        // Over the cap, then cut short by a closed peer, then no header:
        // the errors `recv` gives.
        let mut huge = big[..HEADER_LEN].to_vec();
        huge[8..16].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        tx.write_all(&huge).unwrap();
        assert!(matches!(
            rx.recv_into(&mut kept),
            Err(NetError::Protocol(_))
        ));
        tx.write_all(&big[..big.len() - 1]).unwrap();
        drop(tx);
        assert!(matches!(rx.recv_into(&mut kept), Err(NetError::Io(_))));
        assert!(matches!(rx.recv_into(&mut kept), Err(NetError::Io(_))));
    }

    #[test]
    fn the_payload_cap_is_inclusive() {
        assert!(check_payload_len(MAX_PAYLOAD).is_ok());
        let over = check_payload_len(MAX_PAYLOAD + 1);
        let why = format!(
            "frame declares {} payload bytes (cap {MAX_PAYLOAD})",
            MAX_PAYLOAD + 1
        );
        assert!(
            matches!(&over, Err(NetError::Protocol(m)) if *m == why),
            "{over:?}"
        );
    }

    #[test]
    fn tcp_refuses_to_send_an_over_cap_frame_and_writes_nothing() {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut tx =
            TcpTransport::new(TcpStream::connect(listener.local_addr().unwrap()).unwrap()).unwrap();
        let mut rx = TcpTransport::new(listener.accept().unwrap().0).unwrap();
        let huge = vec![0u8; HEADER_LEN + MAX_PAYLOAD as usize + 1];
        assert!(matches!(tx.send(&huge), Err(NetError::Protocol(_))));
        // Nothing of it reached the peer: the next frame arrives whole.
        let frame = encode_frame(0x1234_5678, 1, b"after");
        tx.send(&frame).unwrap();
        assert_eq!(rx.recv().unwrap(), frame);
    }
}
