//! Real-thread execution backend for the MLlib\* trainers.
//!
//! Every trainer in `mlstar-core` describes its per-worker math as
//! `WorkerOp`s for a `ComputeBackend`; a simulated run executes them in
//! process. This crate is the other backend: it runs the same ops (via
//! the same `mlstar_exec::OpExecutor`) on real OS threads behind an
//! orchestrator/worker command protocol (framed on `mlstar-codec`, vector
//! payloads via `collectives::wire`), over either in-process channels or
//! loopback TCP — while leaving the trainer itself, its RNG streams, and
//! the simulated timing machinery untouched. The result: [`train_net`]
//! produces a `TrainOutput` that is
//! **bit-for-bit identical** to the simulated run (traces, Gantt,
//! weights, telemetry), plus real measured wall-clock per worker per
//! round that `mlstar_sim`'s cost model can be calibrated against.
//!
//! `k` workers take `k` threads: workers `0..k − 1` run on spawned
//! threads, one link each, and the last worker runs on the orchestrating
//! thread itself. The orchestrator sends the linked workers their ops,
//! then runs the last worker's ops in process, against the dataset it
//! already holds, so it computes while they do instead of blocking until
//! they answer. That worker gets no frame and no copy of its rows; byte
//! and message counts are those of the linked workers' transports.
//!
//! A session over one link runs `Hello`, then the worker's assignment,
//! then `Ops`/`OpDone` exchanges until `Shutdown`. The assignment is an
//! `Assign` header — the objective, the frame switch, the row count —
//! followed by the partition's rows in `Rows` frames of at most
//! [`ROW_FRAME_BUDGET`] payload bytes, encoded from rows borrowed from the
//! dataset one frame at a time. The linked worker ([`serve_worker`]) moves
//! each frame's rows into the rows it keeps, so neither side ever holds a
//! whole partition as a frame or as a list, and the worker's copy is the
//! only one the session makes. A channel link holds two unread frames, so
//! the orchestrator encodes the next frame while the worker decodes the
//! last.
//!
//! Each link end keeps one frame buffer for the session. The orchestrator
//! encodes each `Ops` frame into its link's buffer ([`encode_msg_into`],
//! reserved at the frame's exact length) and receives the `OpDone` reply
//! into it ([`Transport::recv_into`]); the linked worker receives each
//! `Ops` frame into its buffer and encodes the reply there. So a round
//! touches each frame byte once per step — encode, checksum, transport,
//! check, decode — and a buffer holds its largest frame, not twice it.
//!
//! # Determinism contract
//!
//! * All randomness stays on the orchestrating thread; workers receive
//!   explicit row-index lists.
//! * Workers execute ops with the one executor every backend shares (see
//!   `mlstar_exec`), over the same rows in the same order.
//! * `f64` survives the wire exactly (little-endian byte round-trip).
//! * Wall-clock is measured but never consulted: no timeout, retry, or
//!   scheduling decision depends on it.
//!
//! # Failure contract
//!
//! A worker that dies mid-run surfaces as
//! [`NetError::WorkerLost`] from [`train_net`] — the trainer stops
//! mid-round, no partial `TrainOutput` is produced, and the remaining
//! workers are shut down before the call returns.
//!
//! # Example
//!
//! ```
//! use mlstar_core::{System, TrainConfig};
//! use mlstar_data::SyntheticConfig;
//! use mlstar_net::{train_net, NetConfig};
//! use mlstar_sim::ClusterSpec;
//!
//! let ds = SyntheticConfig::small("net-demo", 120, 16).generate();
//! let cluster = ClusterSpec::uniform(
//!     3,
//!     mlstar_sim::NodeSpec::standard(),
//!     mlstar_sim::NetworkSpec::gbps1(),
//! );
//! let cfg = TrainConfig { max_rounds: 3, ..TrainConfig::default() };
//! let run = train_net(
//!     System::MllibStar,
//!     &ds,
//!     &cluster,
//!     &cfg,
//!     &Default::default(),
//!     &Default::default(),
//!     &NetConfig::default(),
//! )
//! .unwrap();
//! assert_eq!(run.output.rounds_run, 3);
//! assert!(run.wall_s > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod error;
mod measure;
mod orchestrator;
mod pool;
mod protocol;
mod transport;
mod worker;

use std::net::{TcpListener, TcpStream};

use mlstar_core::{
    system_partitions, AngelConfig, PsSystemConfig, System, TrainConfig, TrainOutput,
};
use mlstar_data::SparseDataset;
use mlstar_exec::{OpExecutor, Shard};
use mlstar_sim::ClusterSpec;

pub use error::NetError;
pub use orchestrator::{NetBatchStats, WorkerBatchStats};
pub use protocol::{
    decode_msg, encode_msg, encode_msg_into, row_frames, AssignedRow, Msg, NET_MAGIC, NET_VERSION,
    ROW_FRAME_BUDGET,
};
pub use transport::{channel_pair, ChannelTransport, TcpTransport, Transport};
pub use worker::serve_worker;

use measure::Stopwatch;
use orchestrator::{Link, Orchestrator};
use worker::Runtime;

/// Which transport carries the command protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// `std::sync::mpsc` channels between threads (default).
    Channel,
    /// Loopback TCP (`127.0.0.1`), one connection per worker.
    Tcp,
}

/// Fault injection: kill one worker right before it would answer a given
/// dispatch batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// The dispatch batch at which the worker dies.
    pub batch: u64,
    /// The worker to kill.
    pub worker: usize,
}

/// Configuration of a net-backed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Transport selection.
    pub transport: TransportKind,
    /// Optional fault injection (tests).
    pub kill: Option<KillSpec>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            transport: TransportKind::Channel,
            kill: None,
        }
    }
}

/// A completed net-backed training run: the (bit-identical) simulated
/// output plus real measurements.
#[derive(Debug, Clone)]
pub struct NetTrainOutput {
    /// The trainer's output — identical to the simulated path's.
    pub output: TrainOutput,
    /// Per-dispatch-batch measurements, in dispatch order.
    pub batches: Vec<NetBatchStats>,
    /// Wall-clock seconds for the whole run (handshake to shutdown).
    pub wall_s: f64,
}

impl NetTrainOutput {
    /// Measured dispatch batches per second over the whole run.
    pub fn batches_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.batches.len() as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Trains `system` on real worker threads — `k − 1` spawned behind
/// links, plus the calling thread for the last worker — returning the
/// bit-identical trainer output plus per-round wall-clock measurements.
///
/// `ps` and `angel` configure the parameter-server trainers exactly as in
/// [`System::train`]; BSP trainers ignore them.
///
/// # Errors
///
/// Returns a typed [`NetError`] if a worker dies mid-run, the handshake
/// fails, or a peer violates the protocol. No partial output escapes: the
/// error path shuts down surviving workers before returning.
#[allow(
    clippy::too_many_arguments,
    reason = "mirrors System::train's inputs plus the net config"
)]
pub fn train_net(
    system: System,
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &TrainConfig,
    ps: &PsSystemConfig,
    angel: &AngelConfig,
    net: &NetConfig,
) -> Result<NetTrainOutput, NetError> {
    let k = cluster.num_executors();
    if k == 0 {
        return Err(NetError::Handshake(
            "a run needs at least one worker".into(),
        ));
    }
    let dim = ds.num_features();
    let parts = system_partitions(system, ds, cluster, cfg);
    let part_nnz: Vec<usize> = parts
        .iter()
        .map(|p| p.iter().map(|&i| ds.rows()[i].nnz()).sum())
        .collect();

    let sw = Stopwatch::start();

    // Workers `0..local` run on spawned threads, one link each; the last
    // worker runs on this thread, in process. For channels the links exist
    // up front; for TCP the orchestrator accepts connections once the
    // workers are running.
    let kill_for = |w: usize| net.kill.filter(|ks| ks.worker == w).map(|ks| ks.batch);
    let local = k - 1;
    let mut raw_links: Vec<Box<dyn Transport>> = Vec::with_capacity(local);
    let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(local);
    let listener = match net.transport {
        TransportKind::Channel => {
            for w in 0..local {
                let (orch_end, worker_end) = channel_pair();
                raw_links.push(Box::new(orch_end));
                let kill = kill_for(w);
                bodies.push(Box::new(move || {
                    worker::run_worker(Box::new(worker_end), w, kill)
                }));
            }
            None
        }
        TransportKind::Tcp => {
            let listener = TcpListener::bind(("127.0.0.1", 0))
                .map_err(|e| NetError::Io(format!("tcp bind: {e}")))?;
            let addr = listener
                .local_addr()
                .map_err(|e| NetError::Io(format!("tcp local_addr: {e}")))?;
            for w in 0..local {
                let kill = kill_for(w);
                bodies.push(Box::new(move || {
                    let Ok(stream) = TcpStream::connect(addr) else {
                        return;
                    };
                    let Ok(link) = TcpTransport::new(stream) else {
                        return;
                    };
                    worker::run_worker(Box::new(link), w, kill)
                }));
            }
            Some(listener)
        }
    };

    let result = pool::run_scoped(bodies, move || {
        if let Some(listener) = listener {
            for _ in 0..local {
                let (stream, _peer) = listener
                    .accept()
                    .map_err(|e| NetError::Io(format!("tcp accept: {e}")))?;
                raw_links.push(Box::new(TcpTransport::new(stream)?));
            }
        }

        // Handshake: every link leads with Hello; order the links by the
        // announced worker id (TCP connections arrive in any order).
        let mut slots: Vec<Option<Link>> = (0..local).map(|_| None).collect();
        for transport in raw_links {
            let mut link = Link::new(transport);
            link.recv()?;
            let Msg::Hello { worker } = link.decode()? else {
                return Err(NetError::Handshake("first message was not Hello".into()));
            };
            let w = worker as usize;
            if w >= local {
                return Err(NetError::Handshake(format!(
                    "worker id {w} out of range ({local} linked workers)"
                )));
            }
            if slots[w].is_some() {
                return Err(NetError::Handshake(format!("duplicate worker id {w}")));
            }
            slots[w] = Some(link);
        }
        #[expect(
            clippy::expect_used,
            reason = "the duplicate/range checks above guarantee distinct in-range ids fill every slot"
        )]
        let mut links: Vec<Link> = slots
            .into_iter()
            .map(|s| s.expect("one link per linked worker fills every slot"))
            .collect();

        // Partition assignment of the linked workers: an `Assign` header,
        // then the rows in `Rows` frames. The frame switch for all model
        // payloads of the session comes from the training config's
        // compression settings and is announced to every linked worker
        // here. The rows are borrowed from the dataset and encoded one
        // bounded frame at a time, each sent before the next is encoded,
        // so no copy of a whole partition exists on this side.
        let switch = cfg.compression.switch;
        for (w, link) in links.iter_mut().enumerate() {
            let header = Msg::Assign {
                worker: w as u32,
                dim: wire_index(dim),
                loss: cfg.loss,
                reg: cfg.reg,
                lr: cfg.lr,
                switch,
                rows: wire_index(parts[w].len()),
            };
            link.send(&header, switch)?;
            let rows = parts[w].iter().map(|&i| AssignedRow {
                global: wire_index(i),
                label: ds.labels()[i],
                row: &ds.rows()[i],
            });
            for frame in row_frames(rows) {
                link.send_frame(&frame)?;
            }
        }

        // The local worker's rows stay in the dataset: its runtime borrows
        // them, and its table resolves each of its rows' global index to
        // itself, so a row outside its partition is refused as a linked
        // worker refuses it.
        let table = worker::row_table(
            parts[local]
                .iter()
                .map(|&i| (wire_index(i), wire_index(i)))
                .collect(),
        )?;
        let shard = Shard {
            rows: ds.rows(),
            labels: ds.labels(),
            partition: &parts[local],
        };
        let exec = OpExecutor::new(dim, cfg.loss, cfg.reg, cfg.lr);
        let runtime = Runtime::new(exec, shard, &table);

        // Train with the orchestrator as the compute backend. A failed
        // batch comes back as the rendered ExecAbort; the typed error is
        // parked in the orchestrator.
        let mut backend = Orchestrator::new(
            links,
            runtime,
            kill_for(local),
            ds.rows(),
            part_nnz,
            dim,
            switch,
        );
        let trained = system.train_on(ds, cluster, cfg, ps, angel, &parts, &mut backend);

        // Orderly shutdown of the linked workers, dead links ignored
        // (their workers are gone).
        for link in &mut backend.links {
            let _ = link.send(&Msg::Shutdown, switch);
        }

        match trained {
            Ok(output) => Ok((output, backend.stats)),
            Err(abort) => Err(backend
                .failure
                .take()
                .unwrap_or(NetError::Protocol(abort.0))),
        }
    });

    let (output, batches) = result?;
    Ok(NetTrainOutput {
        output,
        batches,
        wall_s: sw.elapsed_s(),
    })
}

/// A row index or dimension as the protocol's `u32` carries it.
#[expect(
    clippy::expect_used,
    reason = "dataset row counts and dimensions are bounded far below u32::MAX by construction"
)]
fn wire_index(i: usize) -> u32 {
    u32::try_from(i).expect("index exceeds wire width")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_data::SyntheticConfig;
    use mlstar_sim::{NetworkSpec, NodeSpec};

    fn small_setup() -> (SparseDataset, ClusterSpec, TrainConfig) {
        let ds = SyntheticConfig::small("net-lib", 96, 12).generate();
        let cluster = ClusterSpec::uniform(3, NodeSpec::standard(), NetworkSpec::gbps1());
        let cfg = TrainConfig {
            max_rounds: 2,
            ..TrainConfig::default()
        };
        (ds, cluster, cfg)
    }

    #[test]
    fn channel_run_matches_simulated_weights() {
        let (ds, cluster, cfg) = small_setup();
        let sim = System::MllibStar.train(
            &ds,
            &cluster,
            &cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
        );
        let net = train_net(
            System::MllibStar,
            &ds,
            &cluster,
            &cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
            &NetConfig::default(),
        )
        .unwrap();
        assert_eq!(
            sim.model.weights().as_slice(),
            net.output.model.weights().as_slice()
        );
        assert_eq!(sim.trace, net.output.trace);
        assert!(!net.batches.is_empty());
        assert!(net.batches_per_sec() > 0.0);
    }

    #[test]
    fn last_worker_runs_locally_and_its_reply_is_taken_first() {
        let (ds, cluster, cfg) = small_setup();
        for transport in [TransportKind::Channel, TransportKind::Tcp] {
            let net = train_net(
                System::Mllib,
                &ds,
                &cluster,
                &cfg,
                &PsSystemConfig::default(),
                &AngelConfig::default(),
                &NetConfig {
                    transport,
                    ..NetConfig::default()
                },
            )
            .unwrap();
            for b in &net.batches {
                let locals: Vec<usize> = b
                    .workers
                    .iter()
                    .filter(|w| w.local)
                    .map(|w| w.worker)
                    .collect();
                assert_eq!(locals, [2], "batch {}", b.batch);
                let local = &b.workers[2];
                // The local worker moves no frames; the linked ones do.
                assert_eq!((local.bytes_out, local.bytes_in, local.messages), (0, 0, 0));
                for w in &b.workers[..2] {
                    assert!(w.bytes_out > 0 && w.bytes_in > 0, "{b:?}");
                    assert_eq!(w.messages, 2, "{b:?}");
                }
                for w in &b.workers {
                    assert!(w.turnaround_s >= local.turnaround_s, "{b:?}");
                    assert!(w.turnaround_s <= b.wall_s, "{b:?}");
                }
            }
        }
    }

    #[test]
    fn killed_worker_is_a_typed_error() {
        let (ds, cluster, cfg) = small_setup();
        let net_cfg = NetConfig {
            kill: Some(KillSpec {
                batch: 1,
                worker: 1,
            }),
            ..NetConfig::default()
        };
        let err = train_net(
            System::MllibStar,
            &ds,
            &cluster,
            &cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
            &net_cfg,
        )
        .unwrap_err();
        assert!(matches!(err, NetError::WorkerLost { worker: 1 }));
    }
}
