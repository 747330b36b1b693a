//! The orchestrator side: a [`ComputeBackend`] that ships op batches to
//! the linked workers and runs the last worker's ops itself, in process
//! (`worker::Runtime`), while the linked workers compute.
//!
//! Per dispatch batch, the orchestrator records for every participating
//! worker the transport bytes in each direction, the worker-reported
//! pure compute time, and the orchestrator-observed turnaround — the
//! samples `cluster::calibrate` fits the cost-model rates from. All
//! timing flows through [`crate::measure`]; none of it feeds back into
//! the math.

use std::collections::BTreeMap;

use mlstar_collectives::FrameSwitch;
use mlstar_core::ComputeBackend;
use mlstar_exec::{OpResult, WorkerOp};
use mlstar_linalg::SparseVector;
use mlstar_sim::{dense_op_flops, pass_flops};

use crate::error::NetError;
use crate::measure::Stopwatch;
use crate::protocol::{decode_msg, encode_msg_into, Msg};
use crate::transport::Transport;
use crate::worker::Runtime;

/// One worker's share of one dispatch batch.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerBatchStats {
    /// Worker index.
    pub worker: usize,
    /// Ops executed by this worker in the batch.
    pub ops: usize,
    /// Modeled floating-point work of those ops (same formulas the
    /// simulator charges).
    pub flops: f64,
    /// Transport frame bytes orchestrator → worker (0 for the local
    /// worker, which gets no frames).
    pub bytes_out: u64,
    /// Transport frame bytes worker → orchestrator (0 for the local
    /// worker).
    pub bytes_in: u64,
    /// Transport frames exchanged (request + reply; 0 for the local
    /// worker).
    pub messages: u64,
    /// Worker-reported pure compute seconds.
    pub compute_s: f64,
    /// Orchestrator-observed seconds from batch start to the orchestrator
    /// taking this worker's reply. The orchestrating thread runs the local
    /// worker's ops before it takes any linked worker's reply, so a linked
    /// worker's turnaround is never less than the local worker's, however
    /// early its reply arrived.
    pub turnaround_s: f64,
    /// Whether this worker ran on the orchestrating thread (the last
    /// worker does). Its ops run in process, so its turnaround is the
    /// linked workers' sends plus its own compute, with no codec or
    /// transport in it.
    pub local: bool,
}

impl WorkerBatchStats {
    /// Turnaround minus compute — time spent serializing, in flight, and
    /// queued (clamped at zero against clock skew).
    pub fn comm_s(&self) -> f64 {
        (self.turnaround_s - self.compute_s).max(0.0)
    }
}

/// Measurements for one dispatch batch (one `Ops`/`OpDone` exchange with
/// every participating worker).
#[derive(Debug, Clone, PartialEq)]
pub struct NetBatchStats {
    /// Monotone batch id.
    pub batch: u64,
    /// Wall-clock seconds for the whole batch (send-first to
    /// last-reply).
    pub wall_s: f64,
    /// Per-worker breakdown, in worker order.
    pub workers: Vec<WorkerBatchStats>,
}

impl NetBatchStats {
    /// A worker's idle share of this batch: wall time minus its own
    /// turnaround (it had answered and sat waiting for the barrier).
    pub fn idle_s(&self, worker_stats: &WorkerBatchStats) -> f64 {
        (self.wall_s - worker_stats.turnaround_s).max(0.0)
    }
}

/// The orchestrator's end of one link, with the one frame buffer it keeps
/// for the session: every message it sends is encoded into the buffer,
/// and every frame it receives is read into it, so once the buffer has
/// grown to the session's largest frame an exchange allocates no frame on
/// this side (a channel still moves its own copy of each frame in; see
/// [`Transport::recv_into`]).
pub(crate) struct Link {
    transport: Box<dyn Transport>,
    frame: Vec<u8>,
}

impl Link {
    pub(crate) fn new(transport: Box<dyn Transport>) -> Self {
        Link {
            transport,
            frame: Vec::new(),
        }
    }

    /// Encodes `msg` into the buffer and sends it; returns the frame's
    /// length.
    pub(crate) fn send(&mut self, msg: &Msg, switch: FrameSwitch) -> Result<usize, NetError> {
        encode_msg_into(msg, switch, &mut self.frame);
        self.transport.send(&self.frame)?;
        Ok(self.frame.len())
    }

    /// Sends a frame encoded elsewhere (a partition's `Rows` frames).
    pub(crate) fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.transport.send(frame)
    }

    /// Receives the next frame into the buffer; returns its length.
    pub(crate) fn recv(&mut self) -> Result<usize, NetError> {
        self.transport.recv_into(&mut self.frame)?;
        Ok(self.frame.len())
    }

    /// Decodes the frame last received.
    pub(crate) fn decode(&self) -> Result<Msg, NetError> {
        decode_msg(&self.frame)
    }
}

/// The backend a net-backed training run dispatches to. `train_net`
/// lends it to the trainer for the duration of the run and reads the
/// links, measurements and any parked failure back afterwards.
pub(crate) struct Orchestrator<'a> {
    /// One link per linked worker, in worker order (workers `0..k − 1`).
    pub links: Vec<Link>,
    /// The last worker (`k − 1`), whose ops run on this thread.
    local: Runtime<'a>,
    /// Fault injection: the batch at which the local worker is lost.
    local_kill: Option<u64>,
    /// Per-dispatch-batch measurements, in dispatch order.
    pub stats: Vec<NetBatchStats>,
    /// The typed error behind a failed `run_ops`, whose own error channel
    /// carries only its rendering.
    pub failure: Option<NetError>,
    /// The dataset's rows, whose nnz the per-op flop accounting sums.
    rows: &'a [SparseVector],
    /// Total nnz per worker partition.
    part_nnz: Vec<usize>,
    dim: usize,
    /// Model-payload encoding for outgoing `Ops` frames (the same switch
    /// the workers were told in `Assign`).
    switch: FrameSwitch,
    next_batch: u64,
}

impl<'a> Orchestrator<'a> {
    pub(crate) fn new(
        links: Vec<Link>,
        local: Runtime<'a>,
        local_kill: Option<u64>,
        rows: &'a [SparseVector],
        part_nnz: Vec<usize>,
        dim: usize,
        switch: FrameSwitch,
    ) -> Self {
        Orchestrator {
            links,
            local,
            local_kill,
            stats: Vec::new(),
            failure: None,
            rows,
            part_nnz,
            dim,
            switch,
            next_batch: 0,
        }
    }

    /// Records the typed error and returns its rendering for the
    /// `ComputeBackend` contract.
    fn fail(&mut self, e: NetError) -> String {
        let msg = e.to_string();
        self.failure = Some(e);
        msg
    }

    fn indices_nnz(&self, idx: &[u32]) -> usize {
        idx.iter().map(|&i| self.rows[i as usize].nnz()).sum()
    }

    /// The modeled flops of one op — the same formulas the trainers charge
    /// to simulated time for it.
    fn op_flops(&self, worker: usize, op: &WorkerOp) -> f64 {
        match op {
            WorkerOp::SgdPass { order, .. } => pass_flops(self.indices_nnz(order)),
            WorkerOp::SgdBatch { batch, .. } => pass_flops(self.indices_nnz(batch)),
            WorkerOp::PartitionGrad { .. } => pass_flops(self.part_nnz[worker]),
            WorkerOp::BatchGrad { batch, .. } => pass_flops(self.indices_nnz(batch)),
            WorkerOp::MgdStep { batch, .. } => {
                pass_flops(self.indices_nnz(batch)) + 2.0 * dense_op_flops(self.dim)
            }
            WorkerOp::MgdEpoch {
                order, batch_size, ..
            } => {
                let n_batches = order.len().div_ceil((*batch_size).max(1) as usize);
                pass_flops(self.indices_nnz(order))
                    + 2.0 * dense_op_flops(self.dim) * n_batches as f64
            }
            WorkerOp::PartitionObjective { .. } => pass_flops(self.part_nnz[worker]) / 2.0,
        }
    }
}

impl ComputeBackend for Orchestrator<'_> {
    #[expect(
        clippy::expect_used,
        reason = "the reply loop returns an error unless every dispatched op produced a result"
    )]
    fn run_ops(&mut self, ops: Vec<(usize, WorkerOp)>) -> Result<Vec<OpResult>, String> {
        let batch = self.next_batch;
        self.next_batch += 1;
        let n_ops = ops.len();

        // Group ops per worker, remembering each op's submission slot.
        let mut per_worker: BTreeMap<usize, (Vec<usize>, Vec<WorkerOp>, f64)> = BTreeMap::new();
        for (pos, (worker, op)) in ops.into_iter().enumerate() {
            let flops = self.op_flops(worker, &op);
            let entry = per_worker.entry(worker).or_default();
            entry.0.push(pos);
            entry.1.push(op);
            entry.2 += flops;
        }

        let sw = Stopwatch::start();
        // Per participating worker, in worker order: its stats and its ops'
        // submission slots.
        let mut worker_stats: Vec<WorkerBatchStats> = Vec::with_capacity(per_worker.len());
        let mut positions: Vec<Vec<usize>> = Vec::with_capacity(per_worker.len());
        let mut slots: Vec<Option<OpResult>> = (0..n_ops).map(|_| None).collect();

        // Send phase: every linked worker gets its ops before any reply is
        // awaited, so they genuinely compute concurrently. The local
        // worker, last in worker order, then computes here while they do.
        let local = self.links.len();
        for (worker, (pos, ops, flops)) in per_worker {
            let mut ws = WorkerBatchStats {
                worker,
                ops: pos.len(),
                flops,
                bytes_out: 0,
                bytes_in: 0,
                messages: 0,
                compute_s: 0.0,
                turnaround_s: 0.0,
                local: worker == local,
            };
            if worker == local {
                if self.local_kill == Some(batch) {
                    return Err(self.fail(NetError::WorkerLost { worker }));
                }
                let (results, compute_nanos) = match self.local.run(ops) {
                    Ok(done) => done,
                    Err(e) => return Err(self.fail(e)),
                };
                ws.compute_s = compute_nanos as f64 * 1e-9;
                ws.turnaround_s = sw.elapsed_s();
                for (&slot, res) in pos.iter().zip(results) {
                    slots[slot] = Some(res);
                }
            } else {
                // A dead link is a lost worker; a frame the transport
                // refuses (over its cap) is reported as itself.
                match self.links[worker].send(&Msg::Ops { batch, ops }, self.switch) {
                    Ok(bytes) => ws.bytes_out = bytes as u64,
                    Err(NetError::Io(_)) => return Err(self.fail(NetError::WorkerLost { worker })),
                    Err(e) => return Err(self.fail(e)),
                }
                ws.messages = 2;
            }
            worker_stats.push(ws);
            positions.push(pos);
        }

        // Receive phase (the barrier): the linked workers' replies, in
        // worker order. The local worker's results are already in place.
        for (ws, pos) in worker_stats.iter_mut().zip(&positions) {
            if ws.local {
                continue;
            }
            let worker = ws.worker;
            let bytes = match self.links[worker].recv() {
                Ok(bytes) => bytes,
                Err(_) => return Err(self.fail(NetError::WorkerLost { worker })),
            };
            ws.bytes_in = bytes as u64;
            ws.turnaround_s = sw.elapsed_s();
            let msg = match self.links[worker].decode() {
                Ok(m) => m,
                Err(e) => return Err(self.fail(e)),
            };
            let Msg::OpDone {
                batch: echoed,
                compute_nanos,
                results,
            } = msg
            else {
                return Err(self.fail(NetError::Protocol(format!(
                    "worker {worker} sent a non-OpDone reply"
                ))));
            };
            if echoed != batch {
                return Err(self.fail(NetError::Protocol(format!(
                    "worker {worker} answered batch {echoed}, expected {batch}"
                ))));
            }
            if results.len() != pos.len() {
                return Err(self.fail(NetError::Protocol(format!(
                    "worker {worker} returned {} results for {} ops",
                    results.len(),
                    pos.len()
                ))));
            }
            ws.compute_s = compute_nanos as f64 * 1e-9;
            for (&slot, res) in pos.iter().zip(results) {
                slots[slot] = Some(res);
            }
        }

        let wall_s = sw.elapsed_s();
        self.stats.push(NetBatchStats {
            batch,
            wall_s,
            workers: worker_stats,
        });

        Ok(slots
            .into_iter()
            .map(|s| s.expect("every op slot filled by its worker's reply"))
            .collect())
    }
}
