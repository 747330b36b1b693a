//! Ablation studies for the design choices called out in `DESIGN.md`:
//! twelve sweeps, each isolating one technique or knob (see the doc
//! comment of each function).

use mlstar_core::{
    reference_optimum, AngelConfig, PsSystemConfig, System, TrainConfig, TrainOutput,
};
use mlstar_data::{catalog, SparseDataset};
use mlstar_glm::{LearningRate, Loss, Regularizer};
use mlstar_sim::ClusterSpec;

use crate::cli::{Args, Failure};
use crate::figures::tuning::{best_objective, fixed_rounds, quick_mode, tune_system, winner};
use crate::report::{
    banner, fmt_opt, fmt_split, round_stats_json, summarize_rounds, write_json, Sheet,
};

/// What the ablations share: the kdd12-like workload on Cluster 1,
/// unregularized, and its reference optimum.
struct Ctx {
    ds: SparseDataset,
    cluster: ClusterSpec,
    reg: Regularizer,
    seed: u64,
    opt: f64,
}

/// Runs every ablation.
pub fn run(args: &Args) -> Result<(), Failure> {
    let ds = super::scale_for_quick(catalog::kdd12_like()).generate();
    let (reg, seed) = (Regularizer::None, 42);
    let ref_epochs = if quick_mode() { 5 } else { 25 };
    let opt = reference_optimum(&ds, Loss::Hinge, reg, ref_epochs, seed);
    let cluster = ClusterSpec::cluster1();
    let c = Ctx {
        ds,
        cluster,
        reg,
        seed,
        opt,
    };

    technique_isolation(&c, args.json);
    fanin_sweep(&c);
    staleness_sweep(&c);
    aggregation_schemes(&c);
    grid_search_demo(&c);
    angel_batch_sweep(&c);
    weighted_averaging(&c);
    second_order(&c);
    allreduce_algorithms();
    waves_sweep(&c);
    sparse_messaging(c.seed);
    failure_overhead(&c);
    Ok(())
}

fn final_f(out: &TrainOutput) -> f64 {
    out.trace.final_objective().unwrap_or(f64::NAN)
}

/// Sim time of the last trace point.
fn end_time(out: &TrainOutput) -> f64 {
    let last = out.trace.points.last();
    last.map_or(f64::NAN, |p| p.time.as_secs_f64())
}

/// Ablation 1 — MLlib → +model averaging → +AllReduce (the Figure 3
/// progression, quantified).
fn technique_isolation(c: &Ctx, json: bool) {
    banner("Ablation 1 — technique isolation (kdd12-like, L2=0)");
    let runs = [System::Mllib, System::MllibMa, System::MllibStar]
        .map(|system| tune_system(system, &c.ds, &c.cluster, c.reg, c.seed, 1.0));
    let target = best_objective(&runs, c.opt) + 0.01;
    let mut sheet = Sheet::new(
        "system | steps to target | time to target | updates/step | comp/comm/idle",
        "system,steps,time_s,updates_per_step,compute_s,comm_s,idle_s,recovery_s",
    );
    for o in &runs {
        let steps = o.trace.steps_to_reach(target);
        let time = o.trace.time_to_reach(target);
        let ups = o.total_updates as f64 / o.rounds_run.max(1) as f64;
        let phases = summarize_rounds(&o.round_stats);
        sheet.row(
            &[
                o.trace.system.clone(),
                steps.map_or("—".into(), |s| s.to_string()),
                fmt_opt(time, "s"),
                format!("{ups:.0}"),
                fmt_split(&phases),
            ],
            format!(
                "{},{},{},{ups:.1},{:.4},{:.4},{:.4},{:.4}",
                o.trace.system,
                steps.map_or(-1i64, |s| s as i64),
                time.unwrap_or(-1.0),
                phases.compute_s,
                phases.comm_s,
                phases.idle_s,
                phases.recovery_s,
            ),
        );
    }
    sheet.finish("ablation_techniques.csv");
    println!("(model averaging cuts steps; AllReduce additionally cuts per-step latency)");
    if json {
        let labeled: Vec<(String, &[mlstar_core::RoundStats])> = runs
            .iter()
            .map(|o| (o.trace.system.clone(), o.round_stats.as_slice()))
            .collect();
        let json = round_stats_json("ablation_technique_isolation", &labeled);
        let path = write_json("ablation_techniques.json", &json);
        println!("wrote {}", path.display());
    }
}

/// Ablation 2 — `treeAggregate` fan-in: how much the hierarchical scheme
/// relieves the driver.
fn fanin_sweep(c: &Ctx) {
    banner("Ablation 2 — treeAggregate fan-in sweep (MLlib, fixed 20 rounds)");
    let mut sheet = Sheet::new(
        "fan-in | total time (20 rounds) | driver busy time",
        "fanin,total_time_s,driver_busy_s",
    );
    for fanin in [2usize, 3, 4, 8, 32] {
        let cfg = TrainConfig {
            tree_fanin: fanin,
            ..fixed_rounds(c.reg, c.seed, 4.0, 0.01, 20)
        };
        let out = System::Mllib.train_default(&c.ds, &c.cluster, &cfg);
        let total = out.gantt.makespan().as_secs_f64();
        let driver = out.gantt.busy_time(mlstar_sim::NodeId::Driver);
        let label = if fanin >= c.cluster.num_executors() {
            format!("{fanin} (no tree: direct)")
        } else {
            fanin.to_string()
        };
        sheet.row(
            &[label, format!("{total:.2}s"), format!("{driver:.2}s")],
            format!("{fanin},{total:.4},{driver:.4}"),
        );
    }
    sheet.finish("ablation_fanin.csv");
    println!("(larger fan-in pushes aggregation back onto the driver)");
}

/// Ablation 3 — SSP staleness, Petuum\* on the heterogeneous cluster.
fn staleness_sweep(c: &Ctx) {
    banner("Ablation 3 — SSP staleness sweep (Petuum*, heterogeneous cluster)");
    let cluster = ClusterSpec::cluster2(8, c.seed);
    let base_cfg = petuum_base(c);
    let run = |staleness: u64| {
        let ps = PsSystemConfig {
            staleness,
            num_servers: 2,
            ..PsSystemConfig::default()
        };
        System::PetuumStar.train(&c.ds, &cluster, &base_cfg, &ps, &AngelConfig::default())
    };
    // Establish a common target from a BSP probe run.
    let target = run(0).trace.best_objective().unwrap_or(c.opt).min(c.opt) + 0.01;
    let mut sheet = Sheet::new(
        "staleness | time to target | final objective",
        "staleness,time_s,final_objective",
    );
    // u64::MAX staleness is effectively ASP (the bound never binds).
    for staleness in [0u64, 1, 2, 4, 8, u64::MAX] {
        let out = run(staleness);
        let t = out.trace.time_to_reach(target);
        let f = final_f(&out);
        let label = if staleness == u64::MAX {
            "ASP".to_owned()
        } else {
            staleness.to_string()
        };
        sheet.row(
            &[label, fmt_opt(t, "s"), format!("{f:.4}")],
            format!("{staleness},{},{f:.6}", t.unwrap_or(-1.0)),
        );
    }
    sheet.finish("ablation_staleness.csv");
    println!("(staleness hides stragglers; too much staleness hurts convergence)");
}

/// Ablation 4 — model summation vs model averaging across learning rates
/// (the Zhang & Jordan remark).
fn aggregation_schemes(c: &Ctx) {
    banner("Ablation 4 — model summation (Petuum) vs model averaging (Petuum*)");
    let mut sheet = Sheet::new(
        "learning rate | summation final f | averaging final f",
        "eta,summation_final,averaging_final",
    );
    let ps = PsSystemConfig {
        num_servers: 2,
        staleness: 2,
        ..PsSystemConfig::default()
    };
    let rounds = if quick_mode() { 20 } else { 200 };
    for eta in [0.002, 0.01, 0.05, 0.25] {
        let cfg = TrainConfig {
            lr: LearningRate::Constant(eta),
            max_rounds: rounds,
            eval_every: rounds,
            ..petuum_base(c)
        };
        let [fs, fa] = [System::Petuum, System::PetuumStar]
            .map(|s| final_f(&s.train(&c.ds, &c.cluster, &cfg, &ps, &AngelConfig::default())));
        sheet.row(
            &[format!("{eta}"), format!("{fs:.4}"), format!("{fa:.4}")],
            format!("{eta},{fs:.6},{fa:.6}"),
        );
    }
    sheet.finish("ablation_aggregation.csv");
    println!("(summation can win at small rates but destabilizes as η grows — Zhang & Jordan)");
}

/// Ablation 5 — the paper's tuning protocol, run live: MLlib\* at three
/// rates, the winner picked by the figures' own rule ([`winner`]).
fn grid_search_demo(c: &Ctx) {
    banner("Ablation 5 — the paper's grid-search protocol, live (MLlib*)");
    let etas = [0.002, 0.02, 0.2];
    let runs: Vec<TrainOutput> = etas
        .iter()
        .map(|&eta| {
            let cfg = TrainConfig {
                reg: c.reg,
                lr: LearningRate::Constant(eta),
                batch_frac: 1.0,
                max_rounds: if quick_mode() { 5 } else { 20 },
                seed: c.seed,
                ..TrainConfig::default()
            };
            System::MllibStar.train_default(&c.ds, &c.cluster, &cfg)
        })
        .collect();
    let best = winner(runs.iter().map(|o| &o.trace), c.opt + 0.01).expect("three rates");
    println!(
        "evaluated {} rates; winner: η={} → final f = {:.4}",
        runs.len(),
        etas[best],
        final_f(&runs[best]),
    );
}

/// The Petuum-family base schedule used by the staleness/aggregation
/// ablations.
fn petuum_base(c: &Ctx) -> TrainConfig {
    TrainConfig {
        reg: c.reg,
        lr: LearningRate::Constant(0.2),
        batch_frac: 0.05,
        max_rounds: if quick_mode() { 60 } else { 800 },
        eval_every: 20,
        seed: c.seed,
        ..TrainConfig::default()
    }
}

/// Ablation 6 — Angel's small-batch weakness (Section V-B2 of the paper):
/// per-batch allocation/GC overhead makes small batches disproportionately
/// expensive per epoch.
fn angel_batch_sweep(c: &Ctx) {
    banner("Ablation 6 — Angel batch-size sweep (per-batch alloc/GC overhead)");
    let epochs = if quick_mode() { 5 } else { 30 };
    let mut sheet = Sheet::new(
        "batch fraction | sim time for fixed epochs | final f",
        "batch_frac,time_s,final_objective",
    );
    for frac in [0.002, 0.01, 0.05, 0.25] {
        let cfg = fixed_rounds(c.reg, c.seed, 0.01, frac, epochs);
        let angel = mlstar_core::AngelConfig {
            num_servers: 2,
            staleness: 1,
            alloc_bandwidth_bps: 2e8,
            ..Default::default()
        };
        let out = System::Angel.train(&c.ds, &c.cluster, &cfg, &PsSystemConfig::default(), &angel);
        let (t, f) = (end_time(&out), final_f(&out));
        sheet.row(
            &[format!("{frac}"), format!("{t:.2}s"), format!("{f:.4}")],
            format!("{frac},{t:.4},{f:.6}"),
        );
    }
    sheet.finish("ablation_angel_batch.csv");
    println!("(smaller batches → more per-batch allocations → slower epochs)");
}

/// Ablation 7 — uniform vs partition-size-weighted model averaging on
/// skewed partitions (the Zhang & Jordan refinement of the paper's
/// Remark).
fn weighted_averaging(c: &Ctx) {
    banner("Ablation 7 — model-averaging weighting under partition skew");
    let rounds = if quick_mode() { 4 } else { 15 };
    let mut sheet = Sheet::new(
        "worker-0 share | uniform final f | weighted final f",
        "hot_fraction,uniform_final,weighted_final",
    );
    for skew in [0.125, 0.3, 0.6] {
        let uniform = TrainConfig {
            partition_skew: Some(skew),
            ..fixed_rounds(c.reg, c.seed, 0.02, 1.0, rounds)
        };
        let weighted = TrainConfig {
            ma_weighting: mlstar_core::MaWeighting::PartitionSize,
            ..uniform.clone()
        };
        let fu = final_f(&System::MllibStar.train_default(&c.ds, &c.cluster, &uniform));
        let fw = final_f(&System::MllibStar.train_default(&c.ds, &c.cluster, &weighted));
        sheet.row(
            &[format!("{skew}"), format!("{fu:.4}"), format!("{fw:.4}")],
            format!("{skew},{fu:.6},{fw:.6}"),
        );
    }
    sheet.finish("ablation_weighted_ma.csv");
    println!("(size-weighting matters as partitions become unequal)");
}

/// Ablation 8 — first-order MLlib* vs the `spark.ml` L-BFGS plan (the
/// paper's future-work question, quantified).
fn second_order(c: &Ctx) {
    banner("Ablation 8 — MLlib* (parallel SGD + AllReduce) vs spark.ml (L-BFGS)");
    let reg = Regularizer::L2 { lambda: 0.01 };
    let star = tune_system(System::MllibStar, &c.ds, &c.cluster, reg, c.seed, 1.0);
    let lbfgs_cfg = TrainConfig {
        loss: Loss::Hinge,
        reg,
        max_rounds: if quick_mode() { 5 } else { 25 },
        seed: c.seed,
        ..TrainConfig::default()
    };
    let lbfgs = System::SparkMl.train_default(&c.ds, &c.cluster, &lbfgs_cfg);
    let best = |o: &TrainOutput| o.trace.best_objective().unwrap_or(f64::INFINITY);
    let target = best(&star).min(best(&lbfgs)) + 0.01;
    let mut sheet = Sheet::new(
        "system | outer steps to target | time to target | final f",
        "system,steps,time_s,final_objective",
    );
    for o in [&star, &lbfgs] {
        let steps = o.trace.steps_to_reach(target);
        let time = o.trace.time_to_reach(target);
        let f = final_f(o);
        sheet.row(
            &[
                o.trace.system.clone(),
                steps.map_or("—".into(), |s| s.to_string()),
                fmt_opt(time, "s"),
                format!("{f:.4}"),
            ],
            format!(
                "{},{},{},{f:.6}",
                o.trace.system,
                steps.map_or(-1i64, |s| s as i64),
                time.unwrap_or(-1.0),
            ),
        );
    }
    sheet.finish("ablation_second_order.csv");
    println!("(L-BFGS needs few outer iterations but pays full passes + line-search");
    println!(" rounds through the driver — the spark.ml question the paper leaves open)");
}

/// Ablation 9 — direct-shuffle AllReduce (MLlib*'s implementation on
/// Spark's shuffle) vs ring AllReduce (Thakur et al., the paper's [16]):
/// identical traffic, different latency/fan-out trade-off.
fn allreduce_algorithms() {
    banner("Ablation 9 — AllReduce algorithm: direct shuffle vs ring");
    use mlstar_collectives::{all_reduce_average, ring_all_reduce_average};
    use mlstar_linalg::DenseVector;
    use mlstar_sim::{
        CostModel, GanttRecorder, NetworkSpec, NodeId, NodeSpec, RoundBuilder, SimDuration, SimTime,
    };
    let mut sheet = Sheet::new(
        "k | dim | latency | direct | ring",
        "k,dim,latency_ms,direct_s,ring_s",
    );
    for (k, dim, latency_ms) in [
        (8usize, 1_000_000usize, 1u64),
        (8, 1_000_000, 20),
        (32, 1_000_000, 1),
        (32, 10_000, 20),
    ] {
        let mut spec = ClusterSpec::uniform(k, NodeSpec::standard(), NetworkSpec::gbps1());
        spec.network.latency = SimDuration::from_millis(latency_ms);
        let cost = CostModel::new(spec);
        let nodes: Vec<NodeId> = (0..k).map(NodeId::Executor).collect();
        let vs: Vec<DenseVector> = (0..k).map(|_| DenseVector::zeros(dim)).collect();
        let run = |ring: bool| {
            let mut g = GanttRecorder::new();
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
            if ring {
                ring_all_reduce_average(&mut rb, &cost, &vs);
            } else {
                all_reduce_average(&mut rb, &cost, &vs);
            }
            rb.finish().as_secs_f64()
        };
        let (direct, ring) = (run(false), run(true));
        sheet.row(
            &[
                k.to_string(),
                dim.to_string(),
                format!("{latency_ms}ms"),
                format!("{direct:.3}s"),
                format!("{ring:.3}s"),
            ],
            format!("{k},{dim},{latency_ms},{direct:.6},{ring:.6}"),
        );
    }
    sheet.finish("ablation_allreduce_algo.csv");
    println!("(same 2(k−1)m traffic; the ring pays 2(k−1) latency terms)");
}

/// Ablation 10 — tasks per executor ("waves"). The paper (Section V-C):
/// "We tuned the number of tasks per executor, and the result turns out
/// that one task per executor is the optimal solution, due to heavy
/// communication overhead."
fn waves_sweep(c: &Ctx) {
    banner("Ablation 10 — tasks per executor (waves) on the heterogeneous cluster");
    let cluster = ClusterSpec::cluster2(8, c.seed);
    let rounds = if quick_mode() { 3 } else { 10 };
    let mut sheet = Sheet::new(
        "waves | total time (fixed rounds) | final f",
        "waves,total_time_s,final_objective",
    );
    for waves in [1usize, 2, 4, 8] {
        let cfg = TrainConfig {
            waves,
            ..fixed_rounds(c.reg, c.seed, 0.2, 1.0, rounds)
        };
        let out = System::MllibStar.train_default(&c.ds, &cluster, &cfg);
        let (t, f) = (out.gantt.makespan().as_secs_f64(), final_f(&out));
        sheet.row(
            &[waves.to_string(), format!("{t:.2}s"), format!("{f:.4}")],
            format!("{waves},{t:.4},{f:.6}"),
        );
    }
    sheet.finish("ablation_waves.csv");
    println!("(extra waves pay extra task overheads; one wave is optimal, as the paper found)");
}

/// Ablation 11 — sparse PS messaging: pulls fetch only the partition's
/// active coordinates, pushes ship only touched coordinates (what real
/// Petuum/Angel do for high-dimensional sparse models). Measured on the
/// kddb-like preset, whose 30k-dimensional model dwarfs each worker's
/// active feature set.
fn sparse_messaging(seed: u64) {
    banner("Ablation 11 — dense vs sparse PS messages (kddb-like, Petuum)");
    let ds = super::scale_for_quick(catalog::kddb_like()).generate();
    let cluster = ClusterSpec::cluster1();
    let rounds = if quick_mode() { 20 } else { 400 };
    let cfg = TrainConfig {
        lr: LearningRate::Constant(0.02),
        batch_frac: 0.05,
        max_rounds: rounds,
        eval_every: rounds / 4,
        seed,
        ..TrainConfig::default()
    };
    let mut sheet = Sheet::new(
        "messages | end-to-end sim time | final f",
        "sparse,end_time_s,final_objective",
    );
    for (sparse, label) in [(false, "dense"), (true, "sparse")] {
        let ps = PsSystemConfig {
            num_servers: 2,
            staleness: 2,
            sparse_messages: sparse,
        };
        let out = System::Petuum.train(&ds, &cluster, &cfg, &ps, &AngelConfig::default());
        let (t, f) = (end_time(&out), final_f(&out));
        sheet.row(
            &[label.into(), format!("{t:.2}s"), format!("{f:.4}")],
            format!("{sparse},{t:.4},{f:.6}"),
        );
    }
    sheet.finish("ablation_sparse_messages.csv");
    println!("(identical math — only the wire volume changes)");
}

/// Ablation 12 — the simulated cost of Spark's fault tolerance: per-round
/// task failures recovered via lineage re-execution (the feature the
/// paper's introduction credits Spark with). Results are bit-identical;
/// only the clock pays.
fn failure_overhead(c: &Ctx) {
    banner("Ablation 12 — lineage-recovery overhead under task failures (MLlib*)");
    let rounds = if quick_mode() { 4 } else { 20 };
    let mut sheet = Sheet::new(
        "failure prob/round | makespan | overhead",
        "failure_prob,makespan_s,overhead_pct",
    );
    let mut base_time = None;
    for prob in [0.0, 0.05, 0.2, 1.0] {
        let cfg = TrainConfig {
            failure_prob: prob,
            ..fixed_rounds(c.reg, c.seed, 0.2, 1.0, rounds)
        };
        let out = System::MllibStar.train_default(&c.ds, &c.cluster, &cfg);
        let t = out.gantt.makespan().as_secs_f64();
        let overhead = (t / *base_time.get_or_insert(t) - 1.0) * 100.0;
        sheet.row(
            &[
                format!("{prob}"),
                format!("{t:.2}s"),
                format!("{overhead:+.0}%"),
            ],
            format!("{prob},{t:.4},{overhead:.2}"),
        );
    }
    sheet.finish("ablation_failures.csv");
    println!("(lineage re-runs only the lost task; results are unchanged)");
}
