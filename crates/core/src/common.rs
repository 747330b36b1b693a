//! Shared harness for the BSP (MLlib-family) trainers.

use mlstar_codec::{schema, CodecError};
use mlstar_data::{EpochOrder, SparseDataset};
use mlstar_exec::WorkerOp;
use mlstar_glm::{objective_value, Loss, Regularizer};
use mlstar_linalg::DenseVector;
use mlstar_sim::{pass_flops, Activity, ClusterSpec, CostModel, NodeId, SeedStream};

use crate::checkpoint::check_workers;
use crate::engine::BspRound;
use crate::exec::{dispatch, expect_model, to_wire_indices, ComputeBackend};
use crate::{MaWeighting, TrainConfig};

/// Partitioned dataset + cost model + node lists for one BSP run.
pub(crate) struct BspHarness<'a> {
    /// The cost model over the cluster.
    pub cost: CostModel,
    /// Driver plus all executors (round participants for driver-centric
    /// patterns).
    pub all_nodes: Vec<NodeId>,
    /// Executors only (round participants for AllReduce).
    pub exec_nodes: Vec<NodeId>,
    /// Row indices owned by each executor (see
    /// [`system_partitions`](crate::system_partitions)).
    pub parts: &'a [Vec<usize>],
    /// Total stored nonzeros per partition (drives compute cost).
    pub part_nnz: Vec<usize>,
}

impl<'a> BspHarness<'a> {
    /// Builds the harness over `parts`, one partition per executor.
    pub fn new(ds: &SparseDataset, cluster: &ClusterSpec, parts: &'a [Vec<usize>]) -> Self {
        assert_eq!(
            parts.len(),
            cluster.num_executors(),
            "one partition per executor"
        );
        let exec_nodes: Vec<NodeId> = (0..parts.len()).map(NodeId::Executor).collect();
        let mut all_nodes = vec![NodeId::Driver];
        all_nodes.extend(exec_nodes.iter().copied());
        BspHarness {
            cost: CostModel::new(cluster.clone()),
            all_nodes,
            exec_nodes,
            parts,
            part_nnz: partition_nnz(ds, parts),
        }
    }

    /// Number of executors.
    pub fn k(&self) -> usize {
        self.parts.len()
    }
}

/// Total stored nonzeros of each partition's rows.
pub(crate) fn partition_nnz(ds: &SparseDataset, parts: &[Vec<usize>]) -> Vec<usize> {
    parts
        .iter()
        .map(|p| p.iter().map(|&i| ds.rows()[i].nnz()).sum())
        .collect()
}

/// The SendModel local-pass phase shared by MLlib+MA and MLlib\*: the
/// per-worker epoch-order streams, lazy-regularization update counters
/// and local-model buffers.
pub(crate) struct LocalPasses {
    orders: Vec<EpochOrder>,
    counters: Vec<u64>,
    /// Each worker's model after the latest pass. Scratch across rounds —
    /// every pass seeds them from the global model — so not checkpointed.
    pub locals: Vec<DenseVector>,
}

impl LocalPasses {
    pub fn new(k: usize, dim: usize, seed: u64) -> Self {
        let seeds = SeedStream::new(seed).child("epoch");
        LocalPasses {
            orders: (0..k)
                .map(|r| EpochOrder::new(seeds.child_idx(r as u64).seed()))
                .collect(),
            counters: vec![0; k],
            locals: vec![DenseVector::zeros(dim); k],
        }
    }

    /// Runs one local SGD pass per worker from the global model `w`,
    /// charging each to simulated time, and leaves the (optionally
    /// reweighted) local models in `locals` — workers with empty
    /// partitions keep a copy of `w`. Epoch orders are drawn here (the RNG
    /// streams never leave the orchestrating thread) and `locals[r]`
    /// itself travels as the op's model buffer, so nothing model-sized is
    /// allocated per round. Returns the number of updates performed.
    pub fn run(
        &mut self,
        rd: &mut BspRound<'_, '_>,
        backend: &mut dyn ComputeBackend,
        h: &BspHarness<'_>,
        ds: &SparseDataset,
        cfg: &TrainConfig,
        w: &DenseVector,
    ) -> u64 {
        let k = h.k();
        let mut updates = 0u64;
        let mut ops = Vec::with_capacity(k);
        for (r, part) in h.parts.iter().enumerate() {
            self.locals[r].copy_from(w);
            if part.is_empty() {
                continue;
            }
            let order = self.orders[r].next_order(part);
            updates += order.len() as u64;
            ops.push((
                r,
                WorkerOp::SgdPass {
                    w: std::mem::take(&mut self.locals[r]),
                    order: to_wire_indices(&order),
                    t0: self.counters[r],
                },
            ));
            rd.charge_flops(pass_flops(h.part_nnz[r]));
            rd.rb.work(
                NodeId::Executor(r),
                Activity::Compute,
                h.cost
                    .executor_waves(r, pass_flops(h.part_nnz[r]), cfg.waves, rd.straggler_rng),
            );
        }
        for (r, res) in dispatch(backend, ops) {
            (self.locals[r], self.counters[r]) = expect_model(res);
        }
        // Optional Zhang & Jordan reweighting: scale each local model by
        // k·n_r/n so the uniform average that follows becomes the
        // partition-size-weighted average.
        if cfg.ma_weighting == MaWeighting::PartitionSize {
            for (local, part) in self.locals.iter_mut().zip(h.parts) {
                local.scale(k as f64 * part.len() as f64 / ds.len() as f64);
            }
        }
        updates
    }

    /// The epoch streams mid-stride and the update counters.
    pub fn state(&self) -> PassState {
        PassState {
            orders: self.orders.clone(),
            counters: self.counters.clone(),
        }
    }

    /// Resumes from what [`LocalPasses::state`] returned.
    pub fn restore(&mut self, state: PassState) -> Result<(), CodecError> {
        check_workers(state.orders.len(), self.orders.len())?;
        self.orders = state.orders;
        self.counters = state.counters;
        Ok(())
    }
}

/// The part of [`LocalPasses`] a checkpoint carries: every worker's epoch
/// stream, then every worker's update counter.
pub(crate) struct PassState {
    orders: Vec<EpochOrder>,
    counters: Vec<u64>,
}

schema! {
    pub(crate) record pass_state: PassState {
        orders: list(epoch_order),
        counters: counted(u64, orders.len()),
    }
}
schema! {
    map epoch_order: EpochOrder {
        [u8; 41],
        |o| o.export_state(),
        |s| EpochOrder::restore_state(&s)
            .ok_or_else(|| CodecError::Corrupt("invalid epoch order state".into())),
    }
}

/// Spark-style failure injection: with probability `prob`, one executor's
/// task fails this round and lineage re-runs it (same flops, fresh
/// straggler draw, full task overhead). Returns the victim, if any.
/// Deterministic given the failure RNG stream; affects simulated time
/// only.
#[allow(
    clippy::too_many_arguments,
    reason = "the round, the harness, the failure model and both RNG streams it draws from"
)]
pub(crate) fn maybe_inject_failure<R: rand::Rng>(
    rb: &mut mlstar_sim::RoundBuilder<'_>,
    h: &BspHarness<'_>,
    prob: f64,
    waves: usize,
    flops_of: impl Fn(usize) -> f64,
    failure_rng: &mut R,
    straggler_rng: &mut R,
) -> Option<usize> {
    if prob <= 0.0 || !failure_rng.gen_bool(prob.min(1.0)) {
        return None;
    }
    let k = h.k();
    let victim = failure_rng.gen_range(0..k);
    rb.work(
        mlstar_sim::NodeId::Executor(victim),
        mlstar_sim::Activity::Compute,
        h.cost
            .executor_waves(victim, flops_of(victim), waves, straggler_rng),
    );
    rb.barrier();
    Some(victim)
}

/// Human-readable workload label for traces, e.g. `"n=74820 d=27343 L2=0.1"`
/// (comma-free so CSV rows stay parseable).
pub(crate) fn workload_label(ds: &SparseDataset, reg: Regularizer) -> String {
    format!("n={} d={} {}", ds.len(), ds.num_features(), reg.label())
}

/// Number of *distinct* feature coordinates appearing in each partition —
/// the volume of an Angel-style sparse pull.
pub(crate) fn partition_active_coords(ds: &SparseDataset, parts: &[Vec<usize>]) -> Vec<usize> {
    let mut seen = vec![false; ds.num_features()];
    let mut out = Vec::with_capacity(parts.len());
    for part in parts {
        let mut count = 0usize;
        for &row in part {
            for (j, _) in ds.rows()[row].iter() {
                if !seen[j] {
                    seen[j] = true;
                    count += 1;
                }
            }
        }
        out.push(count);
        // Clear only the marks we set (cheaper than refilling for sparse
        // partitions).
        for &row in part {
            for (j, _) in ds.rows()[row].iter() {
                seen[j] = false;
            }
        }
    }
    out
}

/// Objective on the full dataset (measurement only — never charged to
/// simulated time, matching the paper's offline evaluation of `f(w, X)`).
pub(crate) fn eval_objective(
    ds: &SparseDataset,
    loss: Loss,
    reg: Regularizer,
    w: &DenseVector,
) -> f64 {
    objective_value(loss, reg, w, ds.rows(), ds.labels())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{system_partitions, InProcessBackend};
    use crate::System;
    use mlstar_data::SyntheticConfig;

    #[test]
    fn harness_accounts_for_every_row() {
        let ds = SyntheticConfig::small("h", 103, 20).generate();
        let cluster = ClusterSpec::cluster1();
        let parts = system_partitions(System::Mllib, &ds, &cluster, &TrainConfig::default());
        let h = BspHarness::new(&ds, &cluster, &parts);
        assert_eq!(h.k(), 8);
        assert_eq!(h.all_nodes.len(), 9);
        assert_eq!(h.exec_nodes.len(), 8);
        let total_nnz: usize = h.part_nnz.iter().sum();
        assert_eq!(total_nnz, ds.total_nnz());
    }

    #[test]
    fn active_coords_counts_distinct_features() {
        use mlstar_linalg::SparseVector;
        let mut ds = SparseDataset::empty(6);
        ds.push(
            SparseVector::from_pairs(6, &[(0, 1.0), (2, 1.0)]).unwrap(),
            1.0,
        );
        ds.push(
            SparseVector::from_pairs(6, &[(2, 1.0), (3, 1.0)]).unwrap(),
            -1.0,
        );
        ds.push(SparseVector::from_pairs(6, &[(5, 1.0)]).unwrap(), 1.0);
        let parts = vec![vec![0, 1], vec![2], vec![]];
        let active = partition_active_coords(&ds, &parts);
        assert_eq!(active, vec![3, 1, 0]);
    }

    #[test]
    fn empty_partitions_keep_the_global_model() {
        let ds = SyntheticConfig::small("local-pass", 160, 24).generate();
        let cluster = ClusterSpec::uniform(
            3,
            mlstar_sim::NodeSpec::standard(),
            mlstar_sim::NetworkSpec::gbps1(),
        );
        let cfg = TrainConfig::default();
        let mut parts = system_partitions(System::MllibStar, &ds, &cluster, &cfg);
        parts[2].clear();
        let h = BspHarness::new(&ds, &cluster, &parts);
        let mut backend = InProcessBackend::new(&ds, &parts, &cfg);
        let w = DenseVector::filled(ds.num_features(), 0.5);
        let mut passes = LocalPasses::new(3, ds.num_features(), cfg.seed);
        let updates = crate::engine::StepCtx::new(cfg.seed).round(&h.exec_nodes, |rd| {
            passes.run(rd, &mut backend, &h, &ds, &cfg, &w)
        });
        assert_eq!(updates as usize, parts[0].len() + parts[1].len());
        assert_ne!(passes.locals[0], w);
        assert_eq!(passes.locals[2], w);
        assert_eq!(passes.counters[2], 0);
    }
}
