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
use mlstar_sim::ClusterSpec;

pub use error::NetError;
pub use orchestrator::{NetBatchStats, WorkerBatchStats};
pub use protocol::{decode_msg, encode_msg, AssignedRow, Msg, NET_MAGIC, NET_VERSION};
pub use transport::{channel_pair, ChannelTransport, TcpTransport, Transport};

use measure::Stopwatch;
use orchestrator::Orchestrator;

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

/// Trains `system` on real worker threads, returning the bit-identical
/// trainer output plus per-round wall-clock measurements.
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
    let dim = ds.num_features();
    let parts = system_partitions(system, ds, cluster, cfg);
    let row_nnz: Vec<usize> = ds.rows().iter().map(|r| r.nnz()).collect();
    let part_nnz: Vec<usize> = parts
        .iter()
        .map(|p| p.iter().map(|&i| row_nnz[i]).sum())
        .collect();

    let sw = Stopwatch::start();

    // Build worker bodies and a way for the orchestrator to reach them.
    // For channels the links exist up front; for TCP the orchestrator
    // accepts connections once the workers are running.
    enum Endpoints {
        Ready(Vec<Box<dyn Transport>>),
        Accept(TcpListener, usize),
    }
    let kill_for = |w: usize| net.kill.filter(|ks| ks.worker == w).map(|ks| ks.batch);
    let mut bodies: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(k);
    let endpoints = match net.transport {
        TransportKind::Channel => {
            let mut links: Vec<Box<dyn Transport>> = Vec::with_capacity(k);
            for w in 0..k {
                let (orch_end, worker_end) = channel_pair();
                links.push(Box::new(orch_end));
                let kill = kill_for(w);
                bodies.push(Box::new(move || {
                    worker::run_worker(Box::new(worker_end), w, kill)
                }));
            }
            Endpoints::Ready(links)
        }
        TransportKind::Tcp => {
            let listener = TcpListener::bind(("127.0.0.1", 0))
                .map_err(|e| NetError::Io(format!("tcp bind: {e}")))?;
            let addr = listener
                .local_addr()
                .map_err(|e| NetError::Io(format!("tcp local_addr: {e}")))?;
            for w in 0..k {
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
            Endpoints::Accept(listener, k)
        }
    };

    let result = pool::run_scoped(bodies, move || {
        let raw_links: Vec<Box<dyn Transport>> = match endpoints {
            Endpoints::Ready(links) => links,
            Endpoints::Accept(listener, n) => {
                let mut links: Vec<Box<dyn Transport>> = Vec::with_capacity(n);
                for _ in 0..n {
                    let (stream, _peer) = listener
                        .accept()
                        .map_err(|e| NetError::Io(format!("tcp accept: {e}")))?;
                    links.push(Box::new(TcpTransport::new(stream)?));
                }
                links
            }
        };

        // Handshake: every link leads with Hello; order the links by the
        // announced worker id (TCP connections arrive in any order).
        let mut slots: Vec<Option<Box<dyn Transport>>> = (0..k).map(|_| None).collect();
        for mut link in raw_links {
            let Msg::Hello { worker } = decode_msg(&link.recv()?)? else {
                return Err(NetError::Handshake("first message was not Hello".into()));
            };
            let w = worker as usize;
            if w >= k {
                return Err(NetError::Handshake(format!(
                    "worker id {w} out of range (k = {k})"
                )));
            }
            if slots[w].is_some() {
                return Err(NetError::Handshake(format!("duplicate worker id {w}")));
            }
            slots[w] = Some(link);
        }
        #[expect(
            clippy::expect_used,
            reason = "the duplicate/range checks above guarantee k distinct in-range ids fill every slot"
        )]
        let mut links: Vec<Box<dyn Transport>> = slots
            .into_iter()
            .map(|s| s.expect("k links with k distinct in-range ids fill every slot"))
            .collect();

        // Partition assignment. The frame switch for all model payloads
        // of the session comes from the training config's compression
        // settings and is announced to every worker here.
        let switch = cfg.compression.switch;
        for (w, link) in links.iter_mut().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "dataset row counts are bounded far below u32::MAX by construction"
            )]
            let rows = parts[w]
                .iter()
                .map(|&i| AssignedRow {
                    global: u32::try_from(i).expect("row index exceeds wire width"),
                    label: ds.labels()[i],
                    row: ds.rows()[i].clone(),
                })
                .collect();
            #[expect(
                clippy::expect_used,
                reason = "feature dimensions are bounded far below u32::MAX by construction"
            )]
            link.send(&encode_msg(
                &Msg::Assign {
                    worker: w as u32,
                    dim: u32::try_from(dim).expect("dimension exceeds wire width"),
                    loss: cfg.loss,
                    reg: cfg.reg,
                    lr: cfg.lr,
                    switch,
                    rows,
                },
                switch,
            ))?;
        }

        // Train with the orchestrator as the compute backend. A failed
        // batch comes back as the rendered ExecAbort; the typed error is
        // parked in the orchestrator.
        let mut backend = Orchestrator::new(links, row_nnz, part_nnz, dim, switch);
        let trained = system.train_on(ds, cluster, cfg, ps, angel, &mut backend);

        // Orderly shutdown, dead links ignored (their workers are gone).
        for link in &mut backend.links {
            let _ = link.send(&encode_msg(&Msg::Shutdown, switch));
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
