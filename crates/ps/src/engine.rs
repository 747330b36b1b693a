//! The deterministic event-driven parameter-server training engine.

use mlstar_linalg::DenseVector;
use mlstar_sim::{
    dense_op_flops, Activity, CostModel, EventQueue, GanttRecorder, NodeId, SeedStream,
    SimDuration, SimTime,
};
use rand::rngs::StdRng;

/// How servers fold a worker's push into the global model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// *Model summation* (original Petuum): the push payload is a **delta**
    /// (`w_local − w_pulled`, or `−η·g` accumulated) that servers add to
    /// the global model. The paper notes this "can lead to potential
    /// divergence".
    Sum,
    /// *Model averaging* (Petuum\*): the push payload is the worker's
    /// **local model**; servers move the global model toward it by `1/k`
    /// (the online form of averaging k workers' models, well-defined under
    /// asynchrony).
    Average {
        /// Number of workers `k`.
        num_workers: usize,
    },
}

impl Aggregation {
    /// Folds one worker's push into `model`.
    pub fn apply(self, model: &mut DenseVector, payload: &DenseVector) {
        match self {
            Aggregation::Sum => model.axpy(1.0, payload),
            Aggregation::Average { num_workers } => {
                let alpha = 1.0 / num_workers as f64;
                // model ← (1 − 1/k)·model + (1/k)·payload
                model.scale(1.0 - alpha);
                model.axpy(alpha, payload);
            }
        }
    }
}

/// The result of one worker-local computation tick.
pub struct WorkerStep {
    /// The payload pushed to the servers: a delta under
    /// [`Aggregation::Sum`], the local model under
    /// [`Aggregation::Average`].
    pub payload: DenseVector,
    /// If set, the push is transmitted compressed and this is the
    /// *actual encoded size* of its wire frame (callers compute it with
    /// `mlstar_collectives::wire::encoded_sparse_len` over the real
    /// sparse delta — never a guess); `None` sends the dense payload.
    pub payload_bytes: Option<usize>,
    /// Estimated floating-point work of the tick (drives simulated time).
    pub flops: f64,
    /// Additional fixed overhead for the tick (e.g. Angel's per-batch
    /// vector allocation and garbage collection).
    pub extra_overhead: SimDuration,
    /// Number of model updates performed locally during the tick (for the
    /// updates-per-communication-step accounting of the paper).
    pub local_updates: u64,
}

/// Worker-local computation: what a worker does with a freshly pulled
/// model during one clock tick (one batch for Petuum, one epoch for
/// Angel).
pub trait WorkerLogic {
    /// Computes one tick for `worker` at `clock`, given the pulled model.
    fn compute(&mut self, worker: usize, clock: u64, model: &DenseVector) -> WorkerStep;

    /// Encoded wire size of this worker's pull, if it pulls sparsely
    /// (Angel-style sparse pull of the partition's active features —
    /// callers compute the actual frame length of that index set);
    /// `None` pulls the full dense model.
    fn pull_bytes(&self, _worker: usize) -> Option<usize> {
        None
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct PsConfig {
    /// Number of server shards. Shards own contiguous coordinate ranges
    /// and apply a push in parallel, so a push costs the largest shard's
    /// apply time.
    pub num_servers: usize,
    /// How many ticks a worker may run ahead of the slowest one before it
    /// must wait: the paper's consistency controller (Section III-B).
    /// `0` is Bulk Synchronous Parallel, a positive bound is Stale
    /// Synchronous Parallel (Petuum's protocol), and `u64::MAX` never
    /// binds, which is fully asynchronous (ASP).
    pub staleness: u64,
    /// Server-side aggregation scheme.
    pub aggregation: Aggregation,
    /// Ticks each worker executes (unless stopped early).
    pub max_clocks: u64,
    /// Per-tick scheduling overhead. Parameter-server systems run
    /// persistent worker processes (C++/Java), so this is far smaller than
    /// Spark's per-task launch cost.
    pub tick_overhead: SimDuration,
    /// Seed for straggler draws.
    pub seed: u64,
}

/// Per-clock telemetry summed over all workers: bytes moved through the
/// parameter server, flops charged, and how worker wall-clock time split
/// between computing, communicating, and waiting on consistency.
///
/// Server-side apply time is *not* included — servers run in parallel with
/// the workers and their spans are visible in the Gantt chart instead.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PsClockStats {
    /// Bytes pulled from the servers by all workers during this tick.
    pub pull_bytes: u64,
    /// Bytes pushed to the servers by all workers during this tick.
    pub push_bytes: u64,
    /// Floating-point work charged across all workers.
    pub flops: f64,
    /// Summed worker compute time (including tick overheads), seconds.
    pub compute_s: f64,
    /// Summed worker pull + push transfer time, seconds.
    pub comm_s: f64,
    /// Summed worker time parked on the consistency constraint, seconds.
    pub idle_s: f64,
    /// Local model updates performed across all workers.
    pub updates: u64,
}

/// Statistics of a completed run.
#[derive(Debug, Clone)]
pub struct PsRunStats {
    /// Total pushes applied at the servers.
    pub total_pushes: u64,
    /// Total local model updates across all workers.
    pub total_updates: u64,
    /// Simulated time when the run ended.
    pub end_time: SimTime,
    /// Simulated time at which each global clock (min over workers)
    /// completed.
    pub clock_times: Vec<SimTime>,
    /// Per-clock telemetry, indexed by 0-based tick. Entries past the last
    /// globally completed clock hold partial data from workers running
    /// ahead under SSP; consumers should truncate to
    /// [`PsRunStats::clock_times`]`.len()`.
    pub per_clock: Vec<PsClockStats>,
    /// Whether the run stopped early via the `on_clock` callback.
    pub stopped_early: bool,
}

/// The accumulation slot for `clock`, growing the vector on demand.
fn clock_slot(per_clock: &mut Vec<PsClockStats>, clock: u64) -> &mut PsClockStats {
    let idx = clock as usize;
    if per_clock.len() <= idx {
        per_clock.resize(idx + 1, PsClockStats::default());
    }
    &mut per_clock[idx]
}

/// A deterministic event-driven parameter-server run.
///
/// Workers cycle through pull → compute → push; pushes apply to the
/// sharded global model in global timestamp order, so a pull observes
/// exactly the pushes that arrived before it — asynchronous semantics
/// without threads or nondeterminism.
pub struct PsEngine<'a> {
    cost: &'a CostModel,
    cfg: PsConfig,
    gantt: GanttRecorder,
}

enum Ev {
    /// Worker begins its pull for tick `clock`.
    PullStart { worker: usize },
    /// Worker's push (for the tick it just computed) arrives at servers.
    PushArrive { worker: usize, payload: DenseVector },
}

impl<'a> PsEngine<'a> {
    /// Creates an engine over the given cluster cost model. The number of
    /// workers equals the number of executors in the cluster.
    pub fn new(cost: &'a CostModel, cfg: PsConfig) -> Self {
        assert!(cfg.num_servers > 0, "need at least one server shard");
        PsEngine {
            cost,
            cfg,
            gantt: GanttRecorder::new(),
        }
    }

    /// The recorded Gantt spans (valid after [`PsEngine::run`]).
    pub fn gantt(&self) -> &GanttRecorder {
        &self.gantt
    }

    /// Runs the engine from initial model `w0`. With `max_clocks == 0` no
    /// worker starts and `w0` comes back unchanged.
    ///
    /// `on_clock(clock, time, model, total_updates)` is invoked each time
    /// the *global* clock (the minimum over workers' completed ticks)
    /// advances, with the local updates of every tick computed so far;
    /// returning `true` stops the run after the current event.
    pub fn run<L, F>(
        &mut self,
        w0: DenseVector,
        logic: &mut L,
        mut on_clock: F,
    ) -> (DenseVector, PsRunStats)
    where
        L: WorkerLogic,
        F: FnMut(u64, SimTime, &DenseVector, u64) -> bool,
    {
        let k = self.cost.num_executors();
        let dim = w0.dim();
        let model_bytes = mlstar_collectives::wire::encoded_dense_len(dim);
        let shard_len = dim.div_ceil(self.cfg.num_servers);
        let mut model = w0;

        let mut rng: StdRng = SeedStream::new(self.cfg.seed).child("ps-straggler").rng();
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut completed = vec![0u64; k];
        let mut parked: Vec<Option<SimTime>> = vec![None; k]; // wait start per worker
        let mut min_clock = 0u64;
        let mut stats = PsRunStats {
            total_pushes: 0,
            total_updates: 0,
            end_time: SimTime::ZERO,
            clock_times: Vec::new(),
            per_clock: Vec::new(),
            stopped_early: false,
        };

        if self.cfg.max_clocks > 0 {
            for w in 0..k {
                queue.push(SimTime::ZERO, Ev::PullStart { worker: w });
            }
        }

        'sim: while let Some((now, ev)) = queue.pop() {
            stats.end_time = stats.end_time.max(now);
            match ev {
                Ev::PullStart { worker } => {
                    let clock = completed[worker];
                    // Pull: the worker receives the model (or only its
                    // active coordinates) through its NIC; shards serve in
                    // parallel.
                    let pull_bytes = match logic.pull_bytes(worker) {
                        Some(bytes) => bytes.min(model_bytes),
                        None => model_bytes,
                    };
                    let pull_dur = self.cost.transfer(pull_bytes);
                    // No later event mutates the servers while this event
                    // is being processed, so the worker can read the model
                    // in place — semantically the pull's snapshot.
                    let step = logic.compute(worker, clock, &model);
                    assert_eq!(step.payload.dim(), dim, "payload dimension mismatch");
                    let compute_dur = self.cost.executor_compute_with_overhead(
                        worker,
                        step.flops,
                        &mut rng,
                        self.cfg.tick_overhead,
                    ) + step.extra_overhead;
                    let push_bytes = match step.payload_bytes {
                        Some(bytes) => bytes.min(model_bytes),
                        None => model_bytes,
                    };
                    let push_dur = self.cost.transfer(push_bytes);

                    let pull_end = now + pull_dur;
                    let compute_end = pull_end + compute_dur;
                    let push_end = compute_end + push_dur;
                    let node = NodeId::Executor(worker);
                    self.gantt
                        .record(node, Activity::PsPull, now, pull_end, clock);
                    self.gantt
                        .record(node, Activity::Compute, pull_end, compute_end, clock);
                    self.gantt
                        .record(node, Activity::PsPush, compute_end, push_end, clock);

                    let slot = clock_slot(&mut stats.per_clock, clock);
                    slot.pull_bytes += pull_bytes as u64;
                    slot.push_bytes += push_bytes as u64;
                    slot.flops += step.flops;
                    slot.compute_s += compute_dur.as_secs_f64();
                    slot.comm_s += (pull_dur + push_dur).as_secs_f64();
                    slot.updates += step.local_updates;

                    queue.push(
                        push_end,
                        Ev::PushArrive {
                            worker,
                            payload: step.payload,
                        },
                    );
                    stats.total_updates += step.local_updates;
                }
                Ev::PushArrive { worker, payload } => {
                    // Servers fold the push in; each shard applies its range.
                    self.cfg.aggregation.apply(&mut model, &payload);
                    stats.total_pushes += 1;
                    let apply = self.cost.driver_compute(dense_op_flops(shard_len));
                    for s in 0..self.cfg.num_servers {
                        self.gantt.record(
                            NodeId::Server(s),
                            Activity::ServerUpdate,
                            now,
                            now + apply,
                            completed[worker],
                        );
                    }

                    completed[worker] += 1;
                    #[expect(clippy::expect_used, reason = "one slot per worker, k ≥ 1")]
                    let new_min = *completed.iter().min().expect("nonempty");
                    if new_min > min_clock {
                        stats.clock_times.resize(new_min as usize, now);
                        min_clock = new_min;
                        if on_clock(min_clock, now, &model, stats.total_updates) {
                            stats.stopped_early = true;
                            break 'sim;
                        }
                        // Release parked workers whose constraint now holds.
                        for w in 0..k {
                            if let Some(wait_start) = parked[w] {
                                if completed[w] < self.cfg.max_clocks
                                    && completed[w] - min_clock <= self.cfg.staleness
                                {
                                    if now > wait_start {
                                        self.gantt.record(
                                            NodeId::Executor(w),
                                            Activity::Wait,
                                            wait_start,
                                            now,
                                            completed[w],
                                        );
                                        clock_slot(&mut stats.per_clock, completed[w]).idle_s +=
                                            now.since(wait_start).as_secs_f64();
                                    }
                                    parked[w] = None;
                                    queue.push(now, Ev::PullStart { worker: w });
                                }
                            }
                        }
                    }

                    // Schedule this worker's next tick.
                    if completed[worker] < self.cfg.max_clocks {
                        if completed[worker] - min_clock <= self.cfg.staleness {
                            queue.push(now, Ev::PullStart { worker });
                        } else {
                            parked[worker] = Some(now);
                        }
                    }
                }
            }
        }

        (model, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_sim::{ClusterSpec, NetworkSpec, NodeSpec, StragglerModel};

    /// Logic that pushes a constant delta and counts invocations.
    struct ConstDelta {
        dim: usize,
        calls: Vec<(usize, u64)>,
    }

    impl WorkerLogic for ConstDelta {
        fn compute(&mut self, worker: usize, clock: u64, _model: &DenseVector) -> WorkerStep {
            self.calls.push((worker, clock));
            let mut payload = DenseVector::zeros(self.dim);
            payload.set(0, 1.0);
            WorkerStep {
                payload,
                payload_bytes: None,
                flops: 1e6,
                extra_overhead: SimDuration::ZERO,
                local_updates: 1,
            }
        }
    }

    fn cost(k: usize) -> CostModel {
        CostModel::new(ClusterSpec::uniform(
            k,
            NodeSpec::standard(),
            NetworkSpec::gbps1(),
        ))
    }

    fn cfg(staleness: u64, max_clocks: u64) -> PsConfig {
        PsConfig {
            num_servers: 2,
            staleness,
            aggregation: Aggregation::Sum,
            max_clocks,
            tick_overhead: SimDuration::from_millis(2),
            seed: 1,
        }
    }

    #[test]
    fn bsp_run_applies_all_pushes() {
        let cost = cost(4);
        let mut engine = PsEngine::new(&cost, cfg(0, 3));
        let mut logic = ConstDelta {
            dim: 8,
            calls: Vec::new(),
        };
        let (model, stats) = engine.run(DenseVector::zeros(8), &mut logic, |_, _, _, _| false);
        // 4 workers × 3 clocks, each adding 1.0 at coordinate 0.
        assert_eq!(stats.total_pushes, 12);
        assert_eq!(stats.total_updates, 12);
        assert!((model.get(0) - 12.0).abs() < 1e-12);
        assert_eq!(stats.clock_times.len(), 3);
        assert!(!stats.stopped_early);
        assert_eq!(logic.calls.len(), 12);
    }

    #[test]
    fn bsp_workers_never_lead_by_more_than_one() {
        let cost = cost(4);
        let mut engine = PsEngine::new(&cost, cfg(0, 5));
        struct TrackLead {
            dim: usize,
            clocks_seen: Vec<u64>,
        }
        impl WorkerLogic for TrackLead {
            fn compute(&mut self, _w: usize, clock: u64, _m: &DenseVector) -> WorkerStep {
                self.clocks_seen.push(clock);
                WorkerStep {
                    payload: DenseVector::zeros(self.dim),
                    payload_bytes: None,
                    flops: 1e6,
                    extra_overhead: SimDuration::ZERO,
                    local_updates: 1,
                }
            }
        }
        let mut logic = TrackLead {
            dim: 4,
            clocks_seen: Vec::new(),
        };
        engine.run(DenseVector::zeros(4), &mut logic, |_, _, _, _| false);
        // Under BSP, tick c+1 computations never start before every tick-c
        // compute has happened: the sequence of observed clocks is sorted.
        let mut sorted = logic.clocks_seen.clone();
        sorted.sort_unstable();
        assert_eq!(logic.clocks_seen, sorted);
    }

    #[test]
    fn straggler_makes_ssp_useful() {
        // With a heterogeneous cluster, SSP should finish no later than
        // BSP (fast workers are not barriered every tick).
        let mut spec = ClusterSpec::uniform(4, NodeSpec::standard(), NetworkSpec::gbps1());
        spec.straggler = StragglerModel::LogNormal { sigma: 0.8 };
        let cost = CostModel::new(spec);

        let run = |staleness| {
            let mut engine = PsEngine::new(&cost, cfg(staleness, 10));
            let mut logic = ConstDelta {
                dim: 8,
                calls: Vec::new(),
            };
            let (_, stats) = engine.run(DenseVector::zeros(8), &mut logic, |_, _, _, _| false);
            stats.end_time.as_secs_f64()
        };
        let bsp = run(0);
        let ssp = run(3);
        assert!(ssp <= bsp * 1.01, "SSP {ssp}s should not exceed BSP {bsp}s");
    }

    #[test]
    fn early_stop_halts_run() {
        let cost = cost(2);
        let mut engine = PsEngine::new(&cost, cfg(0, 100));
        let mut logic = ConstDelta {
            dim: 4,
            calls: Vec::new(),
        };
        let (_, stats) = engine.run(DenseVector::zeros(4), &mut logic, |clock, _, _, _| {
            clock >= 3
        });
        assert!(stats.stopped_early);
        assert!(stats.total_pushes < 200, "stopped long before 100 clocks");
    }

    #[test]
    fn averaging_aggregation_is_applied() {
        let cost = cost(2);
        let cfg = PsConfig {
            num_servers: 1,
            staleness: 0,
            aggregation: Aggregation::Average { num_workers: 2 },
            max_clocks: 1,
            tick_overhead: SimDuration::from_millis(2),
            seed: 1,
        };
        struct PushOnes;
        impl WorkerLogic for PushOnes {
            fn compute(&mut self, _w: usize, _c: u64, m: &DenseVector) -> WorkerStep {
                WorkerStep {
                    payload: DenseVector::filled(m.dim(), 1.0),
                    payload_bytes: None,
                    flops: 1e6,
                    extra_overhead: SimDuration::ZERO,
                    local_updates: 1,
                }
            }
        }
        let mut engine = PsEngine::new(&cost, cfg);
        let (model, _) = engine.run(DenseVector::zeros(3), &mut PushOnes, |_, _, _, _| false);
        // Two averaging pushes of all-ones from w=0: 1 − (1/2)² = 0.75.
        assert!((model.get(0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn gantt_records_pull_compute_push() {
        let cost = cost(2);
        let mut engine = PsEngine::new(&cost, cfg(0, 2));
        let mut logic = ConstDelta {
            dim: 4,
            calls: Vec::new(),
        };
        engine.run(DenseVector::zeros(4), &mut logic, |_, _, _, _| false);
        let g = engine.gantt();
        for a in [
            Activity::PsPull,
            Activity::Compute,
            Activity::PsPush,
            Activity::ServerUpdate,
        ] {
            assert!(
                g.spans().iter().any(|s| s.activity == a),
                "missing {a:?} span"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cost = cost(3);
        let run = || {
            let mut engine = PsEngine::new(&cost, cfg(1, 4));
            let mut logic = ConstDelta {
                dim: 4,
                calls: Vec::new(),
            };
            let (m, s) = engine.run(DenseVector::zeros(4), &mut logic, |_, _, _, _| false);
            (m, s.end_time, logic.calls)
        };
        let (m1, t1, c1) = run();
        let (m2, t2, c2) = run();
        assert_eq!(m1.as_slice(), m2.as_slice());
        assert_eq!(t1, t2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn per_clock_stats_cover_every_tick() {
        let cost = cost(4);
        let mut engine = PsEngine::new(&cost, cfg(0, 3));
        let mut logic = ConstDelta {
            dim: 8,
            calls: Vec::new(),
        };
        let (_, stats) = engine.run(DenseVector::zeros(8), &mut logic, |_, _, _, _| false);
        assert_eq!(stats.per_clock.len(), 3);
        for (c, s) in stats.per_clock.iter().enumerate() {
            assert_eq!(s.updates, 4, "clock {c}: one update per worker");
            assert!(s.flops > 0.0 && s.compute_s > 0.0 && s.comm_s > 0.0);
            assert!(s.pull_bytes > 0 && s.push_bytes > 0);
        }
        // Summed per-clock updates equal the run total.
        let total: u64 = stats.per_clock.iter().map(|s| s.updates).sum();
        assert_eq!(total, stats.total_updates);
    }

    #[test]
    fn per_clock_idle_matches_wait_spans() {
        // A heterogeneous cluster under BSP parks fast workers; their
        // recorded Wait spans and the per-clock idle totals must agree.
        let mut spec = ClusterSpec::uniform(4, NodeSpec::standard(), NetworkSpec::gbps1());
        spec.straggler = StragglerModel::LogNormal { sigma: 0.8 };
        let cost = CostModel::new(spec);
        let mut engine = PsEngine::new(&cost, cfg(0, 4));
        let mut logic = ConstDelta {
            dim: 8,
            calls: Vec::new(),
        };
        let (_, stats) = engine.run(DenseVector::zeros(8), &mut logic, |_, _, _, _| false);
        let wait_total: f64 = engine
            .gantt()
            .spans()
            .iter()
            .filter(|s| s.activity == Activity::Wait)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum();
        let idle_total: f64 = stats.per_clock.iter().map(|s| s.idle_s).sum();
        assert!(
            (wait_total - idle_total).abs() < 1e-9,
            "waits {wait_total} vs idle {idle_total}"
        );
        assert!(idle_total > 0.0, "BSP on a straggly cluster must park");
    }

    #[test]
    fn on_clock_sees_the_run_total_of_updates() {
        let cost = cost(3);
        let mut engine = PsEngine::new(&cost, cfg(1, 4));
        let mut logic = ConstDelta {
            dim: 4,
            calls: Vec::new(),
        };
        let mut seen = Vec::new();
        let (_, stats) = engine.run(DenseVector::zeros(4), &mut logic, |clock, _, _, updates| {
            seen.push((clock, updates));
            false
        });
        assert_eq!(seen.len(), 4);
        // Every tick computed so far, including those of workers ahead.
        for w in seen.windows(2) {
            assert!(w[1].1 >= w[0].1 && w[1].1 >= 3 * w[1].0);
        }
        assert!(seen[3].1 <= stats.total_updates);
    }

    #[test]
    fn zero_clocks_return_the_initial_model() {
        let cost = cost(2);
        let mut engine = PsEngine::new(&cost, cfg(0, 0));
        let mut logic = ConstDelta {
            dim: 3,
            calls: Vec::new(),
        };
        let w0 = DenseVector::filled(3, 0.5);
        let (model, stats) = engine.run(w0.clone(), &mut logic, |_, _, _, _| true);
        assert_eq!(model, w0);
        assert!(logic.calls.is_empty());
        assert_eq!((stats.total_pushes, stats.total_updates), (0, 0));
        assert!(stats.clock_times.is_empty() && stats.per_clock.is_empty());
        assert!(engine.gantt().spans().is_empty());
    }

    fn dv(v: &[f64]) -> DenseVector {
        DenseVector::from_vec(v.to_vec())
    }

    #[test]
    fn sum_applies_deltas() {
        let mut m = dv(&[0.0, 0.0, 0.0]);
        Aggregation::Sum.apply(&mut m, &dv(&[1.0, 0.0, -1.0]));
        Aggregation::Sum.apply(&mut m, &dv(&[1.0, 2.0, 0.0]));
        assert_eq!(m.as_slice(), &[2.0, 2.0, -1.0]);
    }

    #[test]
    fn average_moves_toward_pushed_model() {
        let mut m = dv(&[4.0, 0.0]);
        Aggregation::Average { num_workers: 4 }.apply(&mut m, &dv(&[0.0, 4.0]));
        // (1 − 1/4)·[4,0] + 1/4·[0,4] = [3, 1]
        assert_eq!(m.as_slice(), &[3.0, 1.0]);
        let mut m = dv(&[0.0]);
        for _ in 0..20 {
            Aggregation::Average { num_workers: 2 }.apply(&mut m, &dv(&[1.0]));
        }
        assert!((m.get(0) - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let cost = cost(1);
        let bad = PsConfig {
            num_servers: 0,
            ..cfg(0, 1)
        };
        let _ = PsEngine::new(&cost, bad);
    }
}
