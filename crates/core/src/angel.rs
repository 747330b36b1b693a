//! Angel: SendModel over parameter servers with **per-epoch**
//! communication and per-batch gradient descent.
//!
//! The paper (Section III-B2): "Workers in Angel communicate with the
//! parameter servers per epoch... Angel always performs gradient descent
//! on each batch." And (Section V-B2): "Angel stores the accumulated
//! gradients for each batch in a separate vector. For each batch, we need
//! to allocate memory for the vector and collect it back. When the batch
//! size is small... there will be significant overhead on memory
//! allocation and garbage collection." Both behaviours are modeled here:
//! one clock tick = one local epoch of per-batch GD steps, plus a fixed
//! allocation/GC overhead *per batch*.

use std::cell::Cell;
use std::rc::Rc;

use mlstar_data::{EpochOrder, SparseDataset};
use mlstar_glm::Regularizer;
use mlstar_linalg::DenseVector;
use mlstar_ps::{Aggregation, Consistency, PsConfig, PsEngine, WorkerLogic, WorkerStep};
use mlstar_sim::{dense_op_flops, pass_flops, ClusterSpec, CostModel, SeedStream, SimDuration};

use crate::checkpoint::{CheckpointError, PsCkptHook, PsCkptRun};
use crate::common::{partition_active_coords, partition_nnz};
use crate::engine::{assemble_output, ps_round_stats, ClockTracer};
use crate::exec::{dispatch_one, expect_model, to_wire_indices, ComputeBackend, WorkerOp};
use crate::{AngelConfig, PsSystemConfig, System, TrainConfig, TrainOutput};

/// The Angel worker-local computation: one epoch of per-batch GD.
struct AngelWorker<'a> {
    backend: &'a mut dyn ComputeBackend,
    parts: &'a [Vec<usize>],
    part_nnz: Vec<usize>,
    /// Distinct features per partition (sparse pull/push volume).
    part_active: Vec<usize>,
    sparse_messages: bool,
    orders: Vec<EpochOrder>,
    counters: Vec<u64>,
    reg: Regularizer,
    batch_frac: f64,
    alloc_per_batch: SimDuration,
    updates: Rc<Cell<u64>>,
}

impl WorkerLogic for AngelWorker<'_> {
    fn compute(&mut self, worker: usize, _clock: u64, model: &DenseVector) -> WorkerStep {
        let dim = model.dim();
        let part = &self.parts[worker];
        if part.is_empty() {
            return WorkerStep {
                payload_bytes: None,
                payload: DenseVector::zeros(dim),
                flops: 0.0,
                extra_overhead: SimDuration::ZERO,
                local_updates: 0,
            };
        }
        let batch_size =
            ((part.len() as f64 * self.batch_frac).round() as usize).clamp(1, part.len());
        let order = self.orders[worker].next_order(part);

        // One epoch of chunked `mgd_step`s; the worker holds the
        // learning-rate schedule and advances the counter once per chunk.
        let n_batches = order.chunks(batch_size).count() as u64;
        let op = WorkerOp::MgdEpoch {
            w: model.clone(),
            order: to_wire_indices(&order),
            batch_size: batch_size as u32,
            t0: self.counters[worker],
        };
        let (w, t) = expect_model(dispatch_one(self.backend, worker, op));
        debug_assert_eq!(t, self.counters[worker] + n_batches);
        self.counters[worker] = t;

        // Push the accumulated delta; Angel's servers sum worker updates.
        // Without a regularizer the epoch's delta touches only the
        // partition's active coordinates, and the push is sized from the
        // *actual* delta's encoded sparse frame rather than that guess.
        let payload_bytes = if self.sparse_messages && self.reg.is_none() {
            mlstar_glm::sparse_delta(&w, model)
                .ok()
                .map(|d| mlstar_collectives::wire::encoded_sparse_len(d.nnz()))
        } else {
            None
        };
        let mut delta = w;
        delta.axpy(-1.0, model);
        self.updates.set(self.updates.get() + n_batches);
        WorkerStep {
            payload_bytes,
            payload: delta,
            // Sparse gradient work for the whole pass plus a dense
            // gradient-apply per batch.
            flops: pass_flops(self.part_nnz[worker]) + 2.0 * dense_op_flops(dim) * n_batches as f64,
            // The modeled allocation/GC cost: one fresh gradient vector
            // per batch.
            extra_overhead: self.alloc_per_batch.mul_f64(n_batches as f64),
            local_updates: n_batches,
        }
    }

    fn pull_bytes(&self, worker: usize) -> Option<usize> {
        if self.sparse_messages {
            // A pull of only the partition's active coordinates travels as
            // a sparse frame; the engine clamps it to the dense model size.
            Some(mlstar_collectives::wire::encoded_sparse_len(
                self.part_active[worker],
            ))
        } else {
            None
        }
    }
}

/// Trains with Angel (per-epoch PS communication, per-batch GD, summation).
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn train_angel(
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &TrainConfig,
    angel: &AngelConfig,
) -> TrainOutput {
    System::Angel.train(ds, cluster, cfg, &PsSystemConfig::default(), angel)
}

/// The Angel run over `parts`, with optional anchor checkpointing and
/// replay verification (see [`PsCkptHook`](crate::checkpoint::PsCkptHook)).
pub(crate) fn train_angel_ckpt(
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &TrainConfig,
    angel: &AngelConfig,
    ckpt: Option<PsCkptRun<'_>>,
    parts: &[Vec<usize>],
    backend: &mut dyn ComputeBackend,
) -> Result<TrainOutput, CheckpointError> {
    let validation = cfg.validate();
    assert!(validation.is_ok(), "invalid TrainConfig: {validation:?}");
    let k = cluster.num_executors();
    let dim = ds.num_features();
    let seeds = SeedStream::new(cfg.seed);
    let updates = Rc::new(Cell::new(0u64));
    let alloc_per_batch = SimDuration::from_secs_f64((dim * 8) as f64 / angel.alloc_bandwidth_bps);
    let mut logic = AngelWorker {
        backend,
        parts,
        part_nnz: partition_nnz(ds, parts),
        part_active: partition_active_coords(ds, parts),
        sparse_messages: angel.sparse_messages,
        orders: (0..k)
            .map(|r| EpochOrder::new(seeds.child("epoch").child_idx(r as u64).seed()))
            .collect(),
        counters: vec![0; k],
        reg: cfg.reg,
        batch_frac: cfg.batch_frac,
        alloc_per_batch,
        updates: Rc::clone(&updates),
    };

    let cost = CostModel::new(cluster.clone());
    let mut engine = PsEngine::new(
        &cost,
        PsConfig {
            num_servers: angel.num_servers,
            consistency: if angel.staleness == 0 {
                Consistency::Bsp
            } else {
                Consistency::Ssp {
                    staleness: angel.staleness,
                }
            },
            aggregation: Aggregation::Sum,
            max_clocks: cfg.max_rounds,
            tick_overhead: SimDuration::from_millis(2),
            seed: seeds.child("ps").seed(),
        },
    );

    let mut tracer = ClockTracer::new(ds, cfg, "Angel", Rc::clone(&updates));
    let mut hook = PsCkptHook::new(ds, cfg, ckpt);
    let (final_model, stats) = engine.run(DenseVector::zeros(dim), &mut logic, |clock, time, m| {
        hook.on_clock(&mut tracer, clock, time, m, updates.get())
    });
    hook.finish()?;

    // A PS worker dispatches one op per tick, so no batch ever spreads
    // over host threads.
    Ok(assemble_output(
        tracer.trace,
        engine.gantt().clone(),
        final_model,
        updates.get(),
        stats.clock_times.len() as u64,
        tracer.converged,
        ps_round_stats(&stats, k),
        1,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_data::SyntheticConfig;
    use mlstar_glm::LearningRate;

    fn tiny_ds() -> SparseDataset {
        let mut cfg = SyntheticConfig::small("angel-test", 240, 30);
        cfg.margin_noise = 0.05;
        cfg.flip_prob = 0.0;
        cfg.generate()
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            // Angel's servers SUM k workers' deltas, so the stable
            // per-worker rate is ~1/k of the averaging systems'.
            lr: LearningRate::Constant(0.05 / 8.0),
            batch_frac: 0.2,
            max_rounds: 15,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn converges() {
        let ds = tiny_ds();
        let out = train_angel(
            &ds,
            &ClusterSpec::cluster1(),
            &quick_cfg(),
            &AngelConfig::default(),
        );
        let first = out.trace.points.first().unwrap().objective;
        let best = out.trace.best_objective().unwrap();
        assert!(best < first * 0.7, "{first} → {best}");
    }

    #[test]
    fn one_clock_is_one_epoch_of_batches() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 4,
            ..quick_cfg()
        };
        let out = train_angel(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &AngelConfig {
                staleness: 0,
                ..AngelConfig::default()
            },
        );
        // 240 rows / 8 workers = 30 rows per worker; batch 20% of 30 = 6
        // rows → 5 batches per epoch per worker.
        assert_eq!(out.total_updates, 8 * 5 * 4);
    }

    #[test]
    fn small_batches_cost_allocation_overhead() {
        // The paper's explanation for Angel's small-batch weakness: the
        // per-batch allocation overhead should make a small-batch epoch
        // slower in simulated time even though the math work is the same.
        let ds = tiny_ds();
        let run = |frac: f64, alloc_bps: f64| {
            let cfg = TrainConfig {
                batch_frac: frac,
                max_rounds: 3,
                ..quick_cfg()
            };
            let angel = AngelConfig {
                alloc_bandwidth_bps: alloc_bps,
                ..AngelConfig::default()
            };
            let out = train_angel(&ds, &ClusterSpec::cluster1(), &cfg, &angel);
            out.trace.points.last().unwrap().time.as_secs_f64()
        };
        // Tiny batches → many allocations; slow allocator amplifies it.
        let small_batches = run(0.02, 1e6);
        let large_batches = run(0.5, 1e6);
        assert!(
            small_batches > large_batches,
            "per-batch alloc overhead: small {small_batches}s vs large {large_batches}s"
        );
    }

    #[test]
    fn trace_time_advances() {
        let ds = tiny_ds();
        let out = train_angel(
            &ds,
            &ClusterSpec::cluster1(),
            &quick_cfg(),
            &AngelConfig::default(),
        );
        let times: Vec<f64> = out
            .trace
            .points
            .iter()
            .map(|p| p.time.as_secs_f64())
            .collect();
        for pair in times.windows(2) {
            assert!(pair[1] > pair[0], "time must advance: {times:?}");
        }
    }

    #[test]
    fn deterministic() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 3,
            ..quick_cfg()
        };
        let a = train_angel(&ds, &ClusterSpec::cluster1(), &cfg, &AngelConfig::default());
        let b = train_angel(&ds, &ClusterSpec::cluster1(), &cfg, &AngelConfig::default());
        assert_eq!(a.trace, b.trace);
    }
}
