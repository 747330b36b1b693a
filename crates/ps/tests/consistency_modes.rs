//! Integration tests of the PS engine across consistency protocols,
//! including fully asynchronous (ASP) execution.

use mlstar_linalg::DenseVector;
use mlstar_ps::{Aggregation, PsConfig, PsEngine, WorkerLogic, WorkerStep};
use mlstar_sim::{ClusterSpec, CostModel, NetworkSpec, NodeSpec, SimDuration, StragglerModel};

/// Logic that pushes +1 on coordinate `worker` and records the model
/// versions it observed (for staleness measurements).
struct Recorder {
    dim: usize,
    observed_sums: Vec<f64>,
}

impl WorkerLogic for Recorder {
    fn compute(&mut self, worker: usize, _clock: u64, model: &DenseVector) -> WorkerStep {
        self.observed_sums
            .push((0..self.dim).map(|i| model.get(i)).sum());
        let mut payload = DenseVector::zeros(self.dim);
        payload.set(worker % self.dim, 1.0);
        WorkerStep {
            payload_bytes: None,
            payload,
            flops: 5e5,
            extra_overhead: SimDuration::ZERO,
            local_updates: 1,
        }
    }
}

fn heterogeneous_cost(k: usize) -> CostModel {
    let mut spec = ClusterSpec::uniform(k, NodeSpec::standard(), NetworkSpec::gbps1());
    spec.straggler = StragglerModel::LogNormal { sigma: 0.7 };
    CostModel::new(spec)
}

/// Bulk Synchronous Parallel: no worker may lead.
const BSP: u64 = 0;
/// Fully asynchronous: the bound never binds.
const ASP: u64 = u64::MAX;

fn run(staleness: u64, clocks: u64, k: usize) -> (DenseVector, f64, u64) {
    let cost = heterogeneous_cost(k);
    let mut engine = PsEngine::new(
        &cost,
        PsConfig {
            num_servers: 2,
            staleness,
            aggregation: Aggregation::Sum,
            max_clocks: clocks,
            tick_overhead: SimDuration::from_millis(1),
            seed: 9,
        },
    );
    let mut logic = Recorder {
        dim: 8,
        observed_sums: Vec::new(),
    };
    let (model, stats) = engine.run(DenseVector::zeros(8), &mut logic, |_, _, _, _| false);
    (model, stats.end_time.as_secs_f64(), stats.total_pushes)
}

#[test]
fn all_modes_apply_every_push() {
    for staleness in [BSP, 2, ASP] {
        let (model, _, pushes) = run(staleness, 6, 4);
        assert_eq!(pushes, 24, "staleness {staleness}");
        let total: f64 = (0..8).map(|i| model.get(i)).sum();
        assert!(
            (total - 24.0).abs() < 1e-9,
            "staleness {staleness}: mass {total}"
        );
    }
}

#[test]
fn asp_is_no_slower_than_ssp_is_no_slower_than_bsp() {
    let (_, t_bsp, _) = run(BSP, 12, 6);
    let (_, t_ssp, _) = run(2, 12, 6);
    let (_, t_asp, _) = run(ASP, 12, 6);
    assert!(t_ssp <= t_bsp * 1.01, "SSP {t_ssp}s vs BSP {t_bsp}s");
    assert!(t_asp <= t_ssp * 1.01, "ASP {t_asp}s vs SSP {t_ssp}s");
    // Under heavy stragglers ASP should be strictly faster than BSP.
    assert!(t_asp < t_bsp, "ASP {t_asp}s vs BSP {t_bsp}s");
}

#[test]
fn asp_observes_fresher_models_on_average_than_its_clock_suggests() {
    // Sanity on the event semantics: observed model mass is nondecreasing
    // in event order for a single worker... globally it must never exceed
    // the total pushed so far; we check the final invariant.
    let cost = heterogeneous_cost(3);
    let mut engine = PsEngine::new(
        &cost,
        PsConfig {
            num_servers: 1,
            staleness: ASP,
            aggregation: Aggregation::Sum,
            max_clocks: 10,
            tick_overhead: SimDuration::from_millis(1),
            seed: 4,
        },
    );
    let mut logic = Recorder {
        dim: 8,
        observed_sums: Vec::new(),
    };
    let (model, stats) = engine.run(DenseVector::zeros(8), &mut logic, |_, _, _, _| false);
    // Every observation is between 0 and the final total mass.
    let final_mass: f64 = (0..8).map(|i| model.get(i)).sum();
    assert_eq!(final_mass as u64, stats.total_pushes);
    for &obs in &logic.observed_sums {
        assert!(obs >= 0.0 && obs <= final_mass);
    }
    // Observations are globally nondecreasing because pushes only add
    // positive mass and events process in time order.
    for w in logic.observed_sums.windows(2) {
        assert!(w[1] >= w[0] - 1e-9);
    }
}

#[test]
fn ssp_bounds_worker_lead() {
    // Track per-worker clock gaps actually realized during an SSP run.
    struct GapTracker {
        dim: usize,
        completed: Vec<u64>,
        max_gap: u64,
    }
    impl WorkerLogic for GapTracker {
        fn compute(&mut self, worker: usize, clock: u64, _m: &DenseVector) -> WorkerStep {
            self.completed[worker] = clock;
            let min = *self.completed.iter().min().expect("nonempty");
            self.max_gap = self.max_gap.max(clock - min);
            WorkerStep {
                payload_bytes: None,
                payload: DenseVector::zeros(self.dim),
                flops: 5e5,
                extra_overhead: SimDuration::ZERO,
                local_updates: 1,
            }
        }
    }
    let staleness = 2;
    let cost = heterogeneous_cost(5);
    let mut engine = PsEngine::new(
        &cost,
        PsConfig {
            num_servers: 2,
            staleness,
            aggregation: Aggregation::Sum,
            max_clocks: 15,
            tick_overhead: SimDuration::from_millis(1),
            seed: 11,
        },
    );
    let mut logic = GapTracker {
        dim: 4,
        completed: vec![0; 5],
        max_gap: 0,
    };
    engine.run(DenseVector::zeros(4), &mut logic, |_, _, _, _| false);
    // The observed gap may exceed the staleness bound by at most the
    // in-flight tick (a worker admitted at gap ≤ s can finish at gap s+1).
    assert!(
        logic.max_gap <= staleness + 1,
        "observed gap {} exceeds staleness {}",
        logic.max_gap,
        staleness
    );
    assert!(logic.max_gap >= 1, "heterogeneity should create some gap");
}
