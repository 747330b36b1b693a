//! The worker side: execute compute ops against a partition.
//!
//! Ops address rows by *global* dataset index; a worker maps them to
//! positions in its row storage through a sorted `(global, position)`
//! table ([`row_table`]) and hands the op to `mlstar_exec::OpExecutor` —
//! the same executor a simulated run uses over the whole dataset — so the
//! returned floats are bit-identical to what the orchestrator would have
//! computed itself.
//!
//! A worker runs in one of two places. A linked worker runs on a spawned
//! thread behind a transport ([`serve_worker`]): it sends `Hello`, takes
//! its `Assign` header and then its `Rows` frames, moving each frame's
//! decoded rows into the rows, labels and table it owns, and answers
//! `Ops` with `OpDone` until `Shutdown`. The last worker of a run is
//! local: the orchestrator runs its ops in process, on its own thread,
//! through a [`Runtime`] that borrows the dataset's rows and labels, so
//! that worker has no frame and no copy of a row. Both kinds execute ops
//! through [`Runtime::run`].

use mlstar_collectives::FrameSwitch;
use mlstar_exec::{OpExecutor, OpResult, Shard, WorkerOp};
use mlstar_linalg::SparseVector;

use crate::error::NetError;
use crate::measure::Stopwatch;
use crate::protocol::{decode_msg, encode_msg_into, AssignedRow, Msg};
use crate::transport::Transport;

/// Entry point for a worker thread. Any error (protocol violation, dead
/// orchestrator) ends the loop and drops the transport — the orchestrator
/// observes the disconnect and surfaces [`NetError::WorkerLost`].
pub(crate) fn run_worker(mut link: Box<dyn Transport>, worker: usize, kill_at_batch: Option<u64>) {
    let _ = serve(&mut *link, worker, kill_at_batch);
}

/// One linked worker's side of a session over `link`: `Hello` out, then
/// its assignment in (the `Assign` header and the `Rows` frames it
/// announces), then `Ops` answered by `OpDone` until `Shutdown`.
///
/// # Errors
///
/// Returns why the session ended early: a dead link, an undecodable
/// frame, or a [`NetError::Protocol`] for a sequence no orchestrator
/// sends — a message other than this worker's `Assign` after `Hello`,
/// anything but `Rows` before every announced row has come, more rows
/// than announced, a row whose dimension is not the assigned one, a
/// global row named twice, or an op that does not fit the partition.
pub fn serve_worker(link: &mut dyn Transport, worker: u32) -> Result<(), NetError> {
    serve(link, worker as usize, None)
}

/// [`serve_worker`] with a fault: at `kill_at_batch` the worker exits
/// without answering, and its dropped link is the crash signal.
///
/// The worker keeps one frame buffer for the session: `Hello` is encoded
/// into it, and in the op loop every `Ops` frame is received into it and
/// every reply encoded into it.
fn serve(link: &mut dyn Transport, id: usize, kill_at_batch: Option<u64>) -> Result<(), NetError> {
    let mut frame = Vec::new();
    // Hello precedes the assignment, so it is always encoded dense (it
    // carries no model payloads either way).
    let hello = Msg::Hello { worker: id as u32 };
    encode_msg_into(&hello, FrameSwitch::Dense, &mut frame);
    link.send(&frame)?;
    let (exec, switch, part) = receive_assignment(link, id)?;
    let mut rt = Runtime::new(exec, part.shard(), &part.table);
    loop {
        link.recv_into(&mut frame)?;
        match decode_msg(&frame)? {
            Msg::Ops { batch, ops } => {
                if kill_at_batch == Some(batch) {
                    return Ok(());
                }
                let (results, compute_nanos) = rt.run(ops)?;
                // Replies use the switch announced in Assign, so both
                // directions of the link move the same frame kinds.
                let reply = Msg::OpDone {
                    batch,
                    compute_nanos,
                    results,
                };
                encode_msg_into(&reply, switch, &mut frame);
                link.send(&frame)?;
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

/// Takes the frames after `Hello`: this worker's `Assign` header, then
/// `Rows` frames until the rows it announced have all come. Returns the
/// executor, the session's frame switch and the partition. Each frame is
/// dropped once decoded, so the rows never sit beside the frame they came
/// in.
fn receive_assignment(
    link: &mut dyn Transport,
    id: usize,
) -> Result<(OpExecutor, FrameSwitch, Partition), NetError> {
    let Msg::Assign {
        worker: echoed,
        dim,
        loss,
        reg,
        lr,
        switch,
        rows: count,
    } = decode_msg(&link.recv()?)?
    else {
        return Err(NetError::Protocol("expected Assign after Hello".into()));
    };
    if echoed as usize != id {
        return Err(NetError::Protocol(format!(
            "assignment for worker {echoed} delivered to worker {id}"
        )));
    }
    let mut part = Partition::default();
    while part.rows.len() < count as usize {
        let Msg::Rows { rows } = decode_msg(&link.recv()?)? else {
            return Err(NetError::Protocol(format!(
                "expected Rows: {} of {count} assigned rows have come",
                part.rows.len()
            )));
        };
        part.extend(rows, dim, count)?;
    }
    let exec = OpExecutor::new(dim as usize, loss, reg, lr);
    Ok((exec, switch, part.finish()?))
}

/// A linked worker's partition, as its `Rows` frames delivered it.
#[derive(Default)]
struct Partition {
    /// Partition rows, in assignment (= partition) order.
    rows: Vec<SparseVector>,
    labels: Vec<f64>,
    /// Resolves a global row index to its position in `rows`; sorted
    /// once every row has come.
    table: Vec<(u32, u32)>,
    /// `0..rows.len()` — the whole partition, in partition order.
    all: Vec<usize>,
}

impl Partition {
    /// Moves one `Rows` frame's rows in behind those already held. Each
    /// buffer grows by exactly the frame's rows: its size follows the rows
    /// that came, never the count an `Assign` declared.
    fn extend(&mut self, rows: Vec<AssignedRow>, dim: u32, count: u32) -> Result<(), NetError> {
        let held = self.rows.len();
        if held + rows.len() > count as usize {
            return Err(NetError::Protocol(format!(
                "{} rows past the {count} assigned",
                held + rows.len() - count as usize
            )));
        }
        self.rows.reserve_exact(rows.len());
        self.labels.reserve_exact(rows.len());
        self.table.reserve_exact(rows.len());
        // Every position is below `count`, a `u32`, so it fits one.
        for (local, r) in (held as u32..).zip(rows) {
            if r.row.dim() != dim as usize {
                return Err(NetError::Protocol(format!(
                    "row {} has dimension {}, the assignment {dim}",
                    r.global,
                    r.row.dim()
                )));
            }
            self.table.push((r.global, local));
            self.rows.push(r.row);
            self.labels.push(r.label);
        }
        Ok(())
    }

    /// The partition once every row has come: its table sorted for
    /// lookup (a global row named twice is refused here), and its
    /// whole-partition order.
    fn finish(self) -> Result<Self, NetError> {
        let Partition {
            rows,
            labels,
            table,
            ..
        } = self;
        Ok(Partition {
            table: row_table(table)?,
            all: (0..rows.len()).collect(),
            rows,
            labels,
        })
    }

    fn shard(&self) -> Shard<'_> {
        Shard {
            rows: &self.rows,
            labels: &self.labels,
            partition: &self.all,
        }
    }
}

/// Sorts `(global row index, position in the row storage)` pairs into the
/// table a [`Runtime`] resolves ops' rows through. One entry per held
/// row, so its size is set by the rows, never by an index value. A
/// partition that names one global row twice is a protocol violation: ops
/// could not tell the copies apart.
pub(crate) fn row_table(mut pairs: Vec<(u32, u32)>) -> Result<Vec<(u32, u32)>, NetError> {
    pairs.sort_unstable();
    if let Some(pair) = pairs.windows(2).find(|pair| pair[0].0 == pair[1].0) {
        return Err(NetError::Protocol(format!(
            "row {} assigned twice",
            pair[0].0
        )));
    }
    Ok(pairs)
}

/// A worker's standing state between op batches: its executor, and the
/// rows, labels and resolve table its ops run over. It borrows all three:
/// a linked worker's from the partition its `Assign` delivered, the local
/// worker's from the dataset, with a table that maps each of its rows'
/// global index to itself.
pub(crate) struct Runtime<'a> {
    exec: OpExecutor,
    shard: Shard<'a>,
    /// `(global row index, position in shard.rows)`, sorted by global
    /// index and searched by bisection (see [`row_table`]).
    table: &'a [(u32, u32)],
}

impl<'a> Runtime<'a> {
    pub(crate) fn new(exec: OpExecutor, shard: Shard<'a>, table: &'a [(u32, u32)]) -> Self {
        Runtime { exec, shard, table }
    }

    /// Runs one batch of ops in order, returning their results and the
    /// pure compute time in nanoseconds. An op that does not fit the
    /// partition (wrong dimension, foreign row, zero batch size, no rows)
    /// is a protocol violation.
    pub(crate) fn run(&mut self, ops: Vec<WorkerOp>) -> Result<(Vec<OpResult>, u64), NetError> {
        let sw = Stopwatch::start();
        let table = self.table;
        let resolve = |g: u32| {
            let at = table.partition_point(|&(global, _)| global < g);
            match table.get(at) {
                Some(&(global, local)) if global == g => Some(local as usize),
                _ => None,
            }
        };
        let mut results = Vec::with_capacity(ops.len());
        for op in ops {
            let result = self
                .exec
                .execute(&self.shard, resolve, op)
                .map_err(|e| NetError::Protocol(e.to_string()))?;
            results.push(result);
        }
        Ok((results, sw.elapsed_nanos()))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::protocol::encode_msg;
    use crate::transport::channel_pair;
    use mlstar_exec::ExecError;
    use mlstar_glm::{LearningRate, Loss, Regularizer};
    use mlstar_linalg::DenseVector;

    const DIM: usize = 16;
    const LOSS: Loss = Loss::Hinge;
    const REG: Regularizer = Regularizer::L2 { lambda: 0.1 };
    const LR: LearningRate = LearningRate::InvSqrt(0.5);
    /// The rows of the dataset that form the partition under test.
    const PART: [u32; 3] = [4, 9, 11];

    /// Twelve rows of two nonzeros each, with alternating labels.
    fn data() -> (Vec<SparseVector>, Vec<f64>) {
        (0..12u32)
            .map(|i| {
                let x = f64::from(i);
                let row = SparseVector::from_pairs(DIM, &[(i, 1.0 + x), (i + 3, -0.5 * x)]);
                (row.unwrap(), if i % 2 == 0 { 1.0 } else { -1.0 })
            })
            .unzip()
    }

    /// An assignment of the dataset's rows under the given global
    /// indices: the `Assign` header, then one `Rows` frame per row.
    fn assign_rows(worker: u32, globals: [u32; 3], switch: FrameSwitch) -> Vec<Vec<u8>> {
        let (rows, labels) = data();
        let header = Msg::Assign {
            worker,
            dim: DIM as u32,
            loss: LOSS,
            reg: REG,
            lr: LR,
            switch,
            rows: globals.len() as u32,
        };
        let rows = globals.iter().map(|&g| {
            let row = AssignedRow {
                global: g,
                label: labels[g as usize],
                row: rows[g as usize].clone(),
            };
            encode_msg(&Msg::Rows { rows: vec![row] }, switch)
        });
        std::iter::once(encode_msg(&header, switch))
            .chain(rows)
            .collect()
    }

    fn assign(worker: u32) -> Vec<Vec<u8>> {
        assign_rows(worker, PART, FrameSwitch::Adaptive)
    }

    /// One op of every kind over the partition, on a mostly-zero model
    /// (which the adaptive switch ships sparse).
    fn ops() -> Vec<WorkerOp> {
        let mut w = DenseVector::zeros(DIM);
        w.set(2, 0.5);
        w.set(7, -0.25);
        vec![
            WorkerOp::SgdPass {
                w: w.clone(),
                order: vec![11, 4, 9],
                t0: 3,
            },
            WorkerOp::SgdBatch {
                w: w.clone(),
                batch: vec![9],
                t0: 0,
            },
            WorkerOp::PartitionGrad { w: w.clone() },
            WorkerOp::BatchGrad {
                w: w.clone(),
                batch: vec![9, 11],
            },
            WorkerOp::MgdStep {
                w: w.clone(),
                batch: vec![4, 11],
                eta: 0.1,
            },
            WorkerOp::MgdEpoch {
                w: w.clone(),
                order: vec![9, 4, 11],
                batch_size: 2,
                t0: 1,
            },
            WorkerOp::PartitionObjective { w },
        ]
    }

    fn ops_frame(batch: u64, switch: FrameSwitch) -> Vec<u8> {
        encode_msg(&Msg::Ops { batch, ops: ops() }, switch)
    }

    /// A link whose orchestrator end has already sent `frames`: `recv`
    /// takes them in order and then fails, as a hung-up peer does; `send`
    /// keeps what the worker sent.
    struct Script {
        frames: VecDeque<Vec<u8>>,
        sent: Vec<Vec<u8>>,
    }

    impl Transport for Script {
        fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
            self.sent.push(frame.to_vec());
            Ok(())
        }

        fn recv_into(&mut self, frame: &mut Vec<u8>) -> Result<(), NetError> {
            *frame = self
                .frames
                .pop_front()
                .ok_or_else(|| NetError::Io("peer hung up".into()))?;
            Ok(())
        }
    }

    /// Runs worker 0 over a link whose orchestrator end has already sent
    /// `frames`; returns how the worker ended and what it sent.
    fn serve_frames(
        frames: Vec<Vec<u8>>,
        kill_at_batch: Option<u64>,
    ) -> (Result<(), NetError>, Vec<Msg>) {
        let mut link = Script {
            frames: frames.into(),
            sent: Vec::new(),
        };
        let ended = serve(&mut link, 0, kill_at_batch);
        let sent = link.sent.iter().map(|f| decode_msg(f).unwrap()).collect();
        (ended, sent)
    }

    /// The local worker's runtime: the dataset borrowed whole, each
    /// partition row resolving to its own global index.
    fn local_run(ops: Vec<WorkerOp>) -> Result<Vec<OpResult>, NetError> {
        let (rows, labels) = data();
        let table = row_table(PART.iter().map(|&g| (g, g)).collect()).unwrap();
        let partition: Vec<usize> = PART.iter().map(|&g| g as usize).collect();
        let shard = Shard {
            rows: &rows,
            labels: &labels,
            partition: &partition,
        };
        let mut rt = Runtime::new(OpExecutor::new(DIM, LOSS, REG, LR), shard, &table);
        rt.run(ops).map(|(results, _)| results)
    }

    fn bits(results: &[OpResult]) -> Vec<(Vec<u64>, Option<u64>)> {
        let of = |v: &DenseVector| v.as_slice().iter().map(|x| x.to_bits()).collect();
        results
            .iter()
            .map(|r| match r {
                OpResult::Model { w, t } => (of(w), Some(*t)),
                OpResult::Grad(g) => (of(g), None),
                OpResult::Value(v) => (vec![v.to_bits()], None),
            })
            .collect()
    }

    #[test]
    fn linked_and_local_workers_answer_an_ops_batch_bit_identically() {
        for switch in [FrameSwitch::Dense, FrameSwitch::Adaptive] {
            let (mut orch, worker_end) = channel_pair();
            let thread: Box<dyn FnOnce() + Send> =
                Box::new(move || run_worker(Box::new(worker_end), 2, None));
            let reply = crate::pool::run_scoped(vec![thread], || {
                assert_eq!(
                    decode_msg(&orch.recv().unwrap()).unwrap(),
                    Msg::Hello { worker: 2 }
                );
                for frame in assign_rows(2, PART, switch) {
                    orch.send(&frame).unwrap();
                }
                orch.send(&ops_frame(5, switch)).unwrap();
                let reply = decode_msg(&orch.recv().unwrap()).unwrap();
                orch.send(&encode_msg(&Msg::Shutdown, switch)).unwrap();
                reply
            });
            let Msg::OpDone { batch, results, .. } = reply else {
                panic!("expected OpDone, got {reply:?}");
            };
            assert_eq!(batch, 5);
            let local = local_run(ops()).unwrap();
            assert_eq!(local.len(), ops().len());
            assert_eq!(bits(&local), bits(&results), "{switch:?}");
            assert_eq!(local, results, "{switch:?}");
        }
    }

    #[test]
    fn a_linked_worker_answers_until_its_kill_or_shutdown() {
        let (a, b) = (
            ops_frame(0, FrameSwitch::Adaptive),
            ops_frame(1, FrameSwitch::Adaptive),
        );
        let shutdown = encode_msg(&Msg::Shutdown, FrameSwitch::Dense);
        // Batch 0 is answered; at batch 1 the worker exits unanswered.
        let (ended, sent) = serve_frames([assign(0), vec![a.clone(), b.clone()]].concat(), Some(1));
        assert!(ended.is_ok(), "{ended:?}");
        assert_eq!(sent.len(), 2);
        assert!(matches!(sent[1], Msg::OpDone { batch: 0, .. }), "{sent:?}");
        // Without the kill both are answered, then Shutdown ends it.
        let (ended, sent) = serve_frames([assign(0), vec![a, b, shutdown]].concat(), None);
        assert!(ended.is_ok(), "{ended:?}");
        assert_eq!(sent.len(), 3);
        assert!(matches!(sent[2], Msg::OpDone { batch: 1, .. }), "{sent:?}");
    }

    #[test]
    fn a_linked_worker_refuses_ops_before_its_own_assignment() {
        let early = ops_frame(0, FrameSwitch::Dense);
        for (first, why) in [
            (vec![early], "expected Assign after Hello"),
            (assign(1), "assignment for worker 1 delivered to worker 0"),
        ] {
            let (ended, sent) = serve_frames(first, None);
            assert!(
                matches!(&ended, Err(NetError::Protocol(m)) if m == why),
                "{ended:?}"
            );
            assert_eq!(sent, [Msg::Hello { worker: 0 }]);
        }
    }

    #[test]
    fn an_op_over_no_rows_ends_the_worker_with_a_protocol_error() {
        let empty_step = encode_msg(
            &Msg::Ops {
                batch: 0,
                ops: vec![WorkerOp::MgdStep {
                    w: DenseVector::zeros(DIM),
                    batch: vec![],
                    eta: 0.1,
                }],
            },
            FrameSwitch::Adaptive,
        );
        let (ended, sent) = serve_frames([assign(0), vec![empty_step]].concat(), None);
        assert!(
            matches!(&ended, Err(NetError::Protocol(m)) if m.contains("empty batch")),
            "{ended:?}"
        );
        // Hello went out; no reply to the refused batch did.
        assert_eq!(sent, [Msg::Hello { worker: 0 }]);
    }

    #[test]
    fn an_assignment_naming_a_row_twice_is_refused() {
        // Accepted, Partition* ops would run over both copies and batch
        // ops would reach one of them.
        let shutdown = encode_msg(&Msg::Shutdown, FrameSwitch::Dense);
        for globals in [[4, 9, 4], [7, 7, 2]] {
            let frames = assign_rows(0, globals, FrameSwitch::Dense);
            let (refused, _) = serve_frames([frames, vec![shutdown.clone()]].concat(), None);
            let twice = format!("row {} assigned twice", globals[0]);
            assert!(
                matches!(&refused, Err(NetError::Protocol(m)) if *m == twice),
                "{globals:?}: {refused:?}"
            );
        }
        // The same rows under distinct indices are taken.
        let frames = assign_rows(0, [4, 9, 2], FrameSwitch::Dense);
        assert!(serve_frames([frames, vec![shutdown]].concat(), None)
            .0
            .is_ok());
    }

    #[test]
    fn an_op_naming_an_unassigned_row_is_a_protocol_error() {
        // Rows 4, 9 and 11 are assigned. Probe below, between and above
        // them, and the largest index; the first three are dataset rows
        // the local worker could reach, and must not.
        for g in [0, 5, 10, 12, u32::MAX] {
            let op = || {
                vec![WorkerOp::BatchGrad {
                    w: DenseVector::zeros(DIM),
                    batch: vec![9, g],
                }]
            };
            let frame = encode_msg(
                &Msg::Ops {
                    batch: 0,
                    ops: op(),
                },
                FrameSwitch::Dense,
            );
            let expected = ExecError::RowNotInPartition(g).to_string();
            let (linked, _) = serve_frames([assign(0), vec![frame]].concat(), None);
            let local = local_run(op());
            for refused in [linked, local.map(drop)] {
                assert!(
                    matches!(&refused, Err(NetError::Protocol(m)) if *m == expected),
                    "row {g}: {refused:?}"
                );
            }
        }
    }
}
