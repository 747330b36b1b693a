//! The worker side: execute compute ops against the assigned partition.
//!
//! A worker holds only its own rows. Ops address rows by *global* dataset
//! index; the worker maps them to local positions through a sorted
//! `(global, position)` table and hands the op to
//! `mlstar_exec::OpExecutor` — the same executor a simulated run uses
//! over the whole dataset — so the returned floats are bit-identical to
//! what the orchestrator would have computed itself.
//!
//! [`Worker`] is the protocol state machine, advanced one received frame
//! at a time. It runs in one of two places: on a spawned thread behind a
//! real transport ([`run_worker`]), or on the orchestrating thread behind
//! a [`LocalLink`], which handles each frame inside `send`. `train_net`
//! gives the last worker a `LocalLink`, so `k` workers need `k − 1`
//! spawned threads.

use std::collections::VecDeque;
use std::ops::ControlFlow;

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
    let _ = serve(&mut *link, Worker::new(worker, kill_at_batch));
}

fn serve(link: &mut dyn Transport, mut worker: Worker) -> Result<(), NetError> {
    link.send(&worker.hello())?;
    loop {
        match worker.handle(&link.recv()?)? {
            ControlFlow::Continue(Some(reply)) => link.send(&reply)?,
            ControlFlow::Continue(None) => {}
            ControlFlow::Break(()) => return Ok(()),
        }
    }
}

/// What a worker does after one received frame: send a reply, wait for
/// the next frame, or exit.
type Step = ControlFlow<(), Option<Vec<u8>>>;

/// One worker's side of the protocol: `Hello` out, then `Assign` in, then
/// `Ops` answered by `OpDone` until `Shutdown`.
struct Worker {
    id: usize,
    /// Fault injection: exit without answering this batch.
    kill_at_batch: Option<u64>,
    /// The standing state `Assign` delivered; `None` until it arrives.
    runtime: Option<Runtime>,
}

impl Worker {
    fn new(id: usize, kill_at_batch: Option<u64>) -> Self {
        Worker {
            id,
            kill_at_batch,
            runtime: None,
        }
    }

    /// The frame that opens the link. Hello precedes the assignment, so it
    /// is always encoded dense (it carries no model payloads either way).
    fn hello(&self) -> Vec<u8> {
        encode_msg(
            &Msg::Hello {
                worker: self.id as u32,
            },
            FrameSwitch::Dense,
        )
    }

    /// Handles one frame from the orchestrator. An error is a protocol
    /// violation; the worker exits on it as it does on `Shutdown`.
    fn handle(&mut self, frame: &[u8]) -> Result<Step, NetError> {
        let msg = decode_msg(frame)?;
        let Some(rt) = self.runtime.as_mut() else {
            return self.assign(msg);
        };
        match msg {
            Msg::Ops { batch, ops } => {
                if self.kill_at_batch == Some(batch) {
                    // Fault injection: die without answering. The dropped
                    // transport is the crash signal.
                    return Ok(ControlFlow::Break(()));
                }
                let sw = Stopwatch::start();
                let mut results = Vec::with_capacity(ops.len());
                for op in ops {
                    results.push(rt.execute(op)?);
                }
                let compute_nanos = sw.elapsed_nanos();
                // Replies use the switch announced in Assign, so both
                // directions of the link move the same frame kinds.
                let reply = encode_msg(
                    &Msg::OpDone {
                        batch,
                        compute_nanos,
                        results,
                    },
                    rt.switch,
                );
                Ok(ControlFlow::Continue(Some(reply)))
            }
            Msg::Shutdown => Ok(ControlFlow::Break(())),
            other => Err(NetError::Protocol(format!(
                "unexpected message in op loop: {other:?}"
            ))),
        }
    }

    /// Takes the first frame after `Hello`, which must be this worker's
    /// `Assign`.
    fn assign(&mut self, msg: Msg) -> Result<Step, NetError> {
        let Msg::Assign {
            worker: echoed,
            dim,
            loss,
            reg,
            lr,
            switch,
            rows,
        } = msg
        else {
            return Err(NetError::Protocol("expected Assign after Hello".into()));
        };
        if echoed as usize != self.id {
            return Err(NetError::Protocol(format!(
                "assignment for worker {echoed} delivered to worker {}",
                self.id
            )));
        }
        let exec = OpExecutor::new(dim as usize, loss, reg, lr);
        self.runtime = Some(Runtime::new(exec, switch, rows)?);
        Ok(ControlFlow::Continue(None))
    }
}

/// The link to a worker that runs on the orchestrating thread. A frame
/// sent on it is handled at once, inside `send`, and any reply waits here
/// for `recv`. The orchestrator sends this worker its ops after every
/// linked worker has its own, so they compute meanwhile.
///
/// The frames are the ones a thread's link would carry, so byte and
/// message counts, and every decode check, are the same for every worker.
pub(crate) struct LocalLink {
    /// `None` once the worker has exited, as a thread drops its link end.
    worker: Option<Worker>,
    replies: VecDeque<Vec<u8>>,
}

impl LocalLink {
    /// A link whose worker has already sent its `Hello`.
    pub(crate) fn new(worker: usize, kill_at_batch: Option<u64>) -> Self {
        let worker = Worker::new(worker, kill_at_batch);
        LocalLink {
            replies: VecDeque::from([worker.hello()]),
            worker: Some(worker),
        }
    }
}

impl Transport for LocalLink {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let worker = self.worker.as_mut().ok_or_else(local_exited)?;
        match worker.handle(frame) {
            Ok(ControlFlow::Continue(reply)) => self.replies.extend(reply),
            Ok(ControlFlow::Break(())) | Err(_) => self.worker = None,
        }
        Ok(())
    }

    /// Replies the worker made before it exited are still delivered, as a
    /// channel delivers what a dead thread sent.
    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        match (self.replies.pop_front(), &self.worker) {
            (Some(reply), _) => Ok(reply),
            (None, None) => Err(local_exited()),
            (None, Some(_)) => Err(NetError::Protocol(
                "recv on the local link with no reply pending".into(),
            )),
        }
    }
}

fn local_exited() -> NetError {
    NetError::Io("local worker exited".into())
}

/// A worker's standing state between op batches: its partition, as
/// `Assign` delivered it, and the table that resolves the global row
/// indices ops name.
struct Runtime {
    exec: OpExecutor,
    /// The session's model-payload encoding, announced in `Assign`.
    switch: FrameSwitch,
    /// Partition rows, in assignment (= partition) order.
    rows: Vec<SparseVector>,
    labels: Vec<f64>,
    /// `(global row index, position in rows)`, sorted by global index and
    /// searched by bisection. One entry per assigned row, so its size is
    /// set by the rows the frame carried, never by an index value.
    index: Vec<(u32, u32)>,
    /// `0..rows.len()` — the whole partition, in partition order.
    all: Vec<usize>,
}

impl Runtime {
    /// Takes over the assigned rows. An assignment that names one global
    /// row twice is a protocol violation: ops could not tell the copies
    /// apart.
    fn new(
        exec: OpExecutor,
        switch: FrameSwitch,
        assigned: Vec<AssignedRow>,
    ) -> Result<Self, NetError> {
        let mut rows = Vec::with_capacity(assigned.len());
        let mut labels = Vec::with_capacity(assigned.len());
        let mut index = Vec::with_capacity(assigned.len());
        for (local, r) in assigned.into_iter().enumerate() {
            // Past u32::MAX rows some global index repeats anyway.
            let local = u32::try_from(local)
                .map_err(|_| NetError::Protocol("more rows than global indices".into()))?;
            index.push((r.global, local));
            rows.push(r.row);
            labels.push(r.label);
        }
        index.sort_unstable();
        if let Some(pair) = index.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(NetError::Protocol(format!(
                "row {} assigned twice",
                pair[0].0
            )));
        }
        let all = (0..rows.len()).collect();
        Ok(Runtime {
            exec,
            switch,
            rows,
            labels,
            index,
            all,
        })
    }

    /// Runs one op over this worker's rows; an op that does not fit the
    /// assignment (wrong dimension, foreign row, zero batch size, no rows)
    /// is a protocol violation.
    fn execute(&mut self, op: WorkerOp) -> Result<OpResult, NetError> {
        let shard = Shard {
            rows: &self.rows,
            labels: &self.labels,
            partition: &self.all,
        };
        let index = &self.index;
        let resolve = |g: u32| {
            let at = index.partition_point(|&(global, _)| global < g);
            match index.get(at) {
                Some(&(global, local)) if global == g => Some(local as usize),
                _ => None,
            }
        };
        self.exec
            .execute(&shard, resolve, op)
            .map_err(|e| NetError::Protocol(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::channel_pair;
    use mlstar_exec::ExecError;
    use mlstar_glm::{LearningRate, Loss, Regularizer};
    use mlstar_linalg::DenseVector;

    fn assign(worker: u32) -> Vec<u8> {
        assign_rows(worker, [4, 9, 11])
    }

    /// An assignment of three rows under the given global indices.
    fn assign_rows(worker: u32, globals: [u32; 3]) -> Vec<u8> {
        let row = |at: usize, label: f64, pairs: &[(u32, f64)]| AssignedRow {
            global: globals[at],
            label,
            row: SparseVector::from_pairs(3, pairs).unwrap(),
        };
        encode_msg(
            &Msg::Assign {
                worker,
                dim: 3,
                loss: Loss::Hinge,
                reg: Regularizer::L2 { lambda: 0.1 },
                lr: LearningRate::InvSqrt(0.5),
                switch: FrameSwitch::Adaptive,
                rows: vec![
                    row(0, 1.0, &[(0, 1.0), (2, -0.5)]),
                    row(1, -1.0, &[(1, 2.0)]),
                    row(2, 1.0, &[(0, -1.0), (1, 0.25), (2, 3.0)]),
                ],
            },
            FrameSwitch::Adaptive,
        )
    }

    fn ops(batch: u64) -> Vec<u8> {
        let w = DenseVector::from_vec(vec![0.5, -0.25, batch as f64]);
        encode_msg(
            &Msg::Ops {
                batch,
                ops: vec![
                    WorkerOp::SgdPass {
                        w: w.clone(),
                        order: vec![11, 4, 9],
                        t0: batch,
                    },
                    WorkerOp::BatchGrad {
                        w: w.clone(),
                        batch: vec![9, 11],
                    },
                    WorkerOp::PartitionObjective { w },
                ],
            },
            FrameSwitch::Adaptive,
        )
    }

    /// The reply without its measured compute time.
    fn results(frame: &[u8]) -> (u64, Vec<OpResult>) {
        match decode_msg(frame).unwrap() {
            Msg::OpDone { batch, results, .. } => (batch, results),
            other => panic!("expected OpDone, got {other:?}"),
        }
    }

    #[test]
    fn local_link_answers_as_a_worker_thread_does() {
        // Hello, then the replies to two op batches, over any link.
        let session = |link: &mut dyn Transport| {
            let hello = link.recv().unwrap();
            link.send(&assign(2)).unwrap();
            let mut replies = Vec::new();
            for batch in 0..2 {
                link.send(&ops(batch)).unwrap();
                replies.push(results(&link.recv().unwrap()));
            }
            link.send(&encode_msg(&Msg::Shutdown, FrameSwitch::Dense))
                .unwrap();
            (hello, replies)
        };
        let (mut orch, worker_end) = channel_pair();
        let thread: Box<dyn FnOnce() + Send> =
            Box::new(move || run_worker(Box::new(worker_end), 2, None));
        let threaded = crate::pool::run_scoped(vec![thread], || session(&mut orch));

        let mut local = LocalLink::new(2, None);
        let inline = session(&mut local);
        assert_eq!(inline, threaded);
        assert_eq!(inline.1[1].0, 1);
        assert_eq!(inline.1[1].1.len(), 3);
        // After Shutdown the worker is gone, as a thread's would be.
        assert!(matches!(local.recv(), Err(NetError::Io(_))));
        assert!(matches!(local.send(&ops(2)), Err(NetError::Io(_))));
    }

    #[test]
    fn local_worker_exits_as_a_thread_would() {
        // An injected kill: batch 0 is answered, batch 1 is not, and the
        // link is dead from then on.
        let mut link = LocalLink::new(0, Some(1));
        link.recv().unwrap();
        link.send(&assign(0)).unwrap();
        assert!(
            matches!(link.recv(), Err(NetError::Protocol(_))),
            "no reply to Assign"
        );
        link.send(&ops(0)).unwrap();
        assert_eq!(results(&link.recv().unwrap()).0, 0);
        link.send(&ops(1)).unwrap();
        assert!(matches!(link.recv(), Err(NetError::Io(_))));
        assert!(link.send(&ops(2)).is_err());

        // A protocol violation ends the worker too: ops before Assign, and
        // an assignment meant for another worker.
        for first in [ops(0), assign(1)] {
            let mut link = LocalLink::new(0, None);
            link.recv().unwrap();
            link.send(&first).unwrap();
            assert!(matches!(link.recv(), Err(NetError::Io(_))));
            assert!(link.send(&assign(0)).is_err());
        }
    }

    #[test]
    fn an_op_over_no_rows_ends_the_worker_with_a_protocol_error() {
        let empty_step = encode_msg(
            &Msg::Ops {
                batch: 0,
                ops: vec![WorkerOp::MgdStep {
                    w: DenseVector::zeros(3),
                    batch: vec![],
                    eta: 0.1,
                }],
            },
            FrameSwitch::Adaptive,
        );
        let (mut orch, mut worker_end) = channel_pair();
        orch.send(&assign(0)).unwrap();
        orch.send(&empty_step).unwrap();
        let ended = serve(&mut worker_end, Worker::new(0, None));
        assert!(
            matches!(&ended, Err(NetError::Protocol(m)) if m.contains("empty batch")),
            "{ended:?}"
        );
        // Hello went out; no reply to the refused batch did.
        drop(worker_end);
        orch.recv().unwrap();
        assert!(matches!(orch.recv(), Err(NetError::Io(_))));
    }

    #[test]
    fn an_assignment_naming_a_row_twice_is_refused() {
        // Accepted, Partition* ops would run over both copies and batch
        // ops would reach one of them.
        for globals in [[4, 9, 4], [7, 7, 2]] {
            let mut worker = Worker::new(0, None);
            let refused = worker.handle(&assign_rows(0, globals));
            let twice = format!("row {} assigned twice", globals[0]);
            assert!(
                matches!(&refused, Err(NetError::Protocol(m)) if *m == twice),
                "{globals:?}: {refused:?}"
            );
        }
        // The same rows under distinct indices are taken.
        let mut worker = Worker::new(0, None);
        assert!(worker.handle(&assign_rows(0, [4, 9, 2])).is_ok());
    }

    #[test]
    fn an_op_naming_an_unassigned_row_is_a_protocol_error() {
        // Rows 4, 9 and 11 are assigned. Probe below, between and above
        // them, and the largest index.
        for g in [0, 5, 10, 12, u32::MAX] {
            let mut worker = Worker::new(0, None);
            assert!(worker.handle(&assign(0)).is_ok());
            let op = encode_msg(
                &Msg::Ops {
                    batch: 0,
                    ops: vec![WorkerOp::BatchGrad {
                        w: DenseVector::zeros(3),
                        batch: vec![9, g],
                    }],
                },
                FrameSwitch::Dense,
            );
            let refused = worker.handle(&op);
            let expected = ExecError::RowNotInPartition(g).to_string();
            assert!(
                matches!(&refused, Err(NetError::Protocol(m)) if *m == expected),
                "row {g}: {refused:?}"
            );
        }
    }
}
