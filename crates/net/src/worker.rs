//! The worker loop: execute compute ops against the assigned partition.
//!
//! A worker holds only its own rows. Ops address rows by *global* dataset
//! index; the worker maps them to local storage and hands the op to
//! `mlstar_exec::OpExecutor` — the same executor a simulated run uses
//! over the whole dataset — so the returned floats are bit-identical to
//! what the orchestrator would have computed itself.

use std::collections::BTreeMap;

use mlstar_collectives::FrameSwitch;
use mlstar_exec::{OpExecutor, OpResult, Shard, WorkerOp};
use mlstar_linalg::SparseVector;

use crate::error::NetError;
use crate::measure::Stopwatch;
use crate::protocol::{decode_msg, encode_msg, AssignedRow, Msg};
use crate::transport::Transport;

/// Entry point for a worker thread. Any error (protocol violation, dead
/// orchestrator) ends the loop and drops the transport — the orchestrator
/// observes the disconnect and surfaces [`NetError::WorkerLost`].
pub(crate) fn run_worker(mut link: Box<dyn Transport>, worker: usize, kill_at_batch: Option<u64>) {
    let _ = worker_loop(&mut *link, worker, kill_at_batch);
}

fn worker_loop(
    link: &mut dyn Transport,
    worker: usize,
    kill_at_batch: Option<u64>,
) -> Result<(), NetError> {
    // Hello precedes the assignment, so it is always encoded dense (it
    // carries no model payloads either way).
    link.send(&encode_msg(
        &Msg::Hello {
            worker: worker as u32,
        },
        FrameSwitch::Dense,
    ))?;
    let Msg::Assign {
        worker: echoed,
        dim,
        loss,
        reg,
        lr,
        switch,
        rows,
    } = decode_msg(&link.recv()?)?
    else {
        return Err(NetError::Protocol("expected Assign after Hello".into()));
    };
    if echoed as usize != worker {
        return Err(NetError::Protocol(format!(
            "assignment for worker {echoed} delivered to worker {worker}"
        )));
    }
    let mut rt = Runtime::new(OpExecutor::new(dim as usize, loss, reg, lr), rows);
    loop {
        match decode_msg(&link.recv()?)? {
            Msg::Ops { batch, ops } => {
                if kill_at_batch == Some(batch) {
                    // Fault injection: die without answering. The dropped
                    // transport is the crash signal.
                    return Ok(());
                }
                let sw = Stopwatch::start();
                let mut results = Vec::with_capacity(ops.len());
                for op in ops {
                    results.push(rt.execute(op)?);
                }
                let compute_nanos = sw.elapsed_nanos();
                // Replies use the switch announced in Assign, so both
                // directions of the link move the same frame kinds.
                link.send(&encode_msg(
                    &Msg::OpDone {
                        batch,
                        compute_nanos,
                        results,
                    },
                    switch,
                ))?;
            }
            Msg::Shutdown => return Ok(()),
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected message in op loop: {other:?}"
                )))
            }
        }
    }
}

/// A worker's standing state between op batches.
struct Runtime {
    exec: OpExecutor,
    /// Partition rows, in assignment (= partition) order.
    rows: Vec<SparseVector>,
    labels: Vec<f64>,
    /// Global row index → position in `rows`.
    index: BTreeMap<u32, usize>,
    /// `0..rows.len()` — the whole partition, in partition order.
    all: Vec<usize>,
}

impl Runtime {
    fn new(exec: OpExecutor, assigned: Vec<AssignedRow>) -> Self {
        let mut rows = Vec::with_capacity(assigned.len());
        let mut labels = Vec::with_capacity(assigned.len());
        let mut index = BTreeMap::new();
        for (local, r) in assigned.into_iter().enumerate() {
            index.insert(r.global, local);
            rows.push(r.row);
            labels.push(r.label);
        }
        let all = (0..rows.len()).collect();
        Runtime {
            exec,
            rows,
            labels,
            index,
            all,
        }
    }

    /// Runs one op over this worker's rows; an op that does not fit the
    /// assignment (wrong dimension, foreign row, zero batch size) is a
    /// protocol violation.
    fn execute(&mut self, op: WorkerOp) -> Result<OpResult, NetError> {
        let shard = Shard {
            rows: &self.rows,
            labels: &self.labels,
            partition: &self.all,
        };
        let index = &self.index;
        self.exec
            .execute(&shard, |g| index.get(&g).copied(), op)
            .map_err(|e| NetError::Protocol(e.to_string()))
    }
}
