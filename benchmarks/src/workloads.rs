//! The eight workloads: inputs built from the seed, the one end-to-end
//! call each of them times, and the checks on what the call returned.
//!
//! The program under test sees only generated inputs: `--seed` is mixed
//! into `SyntheticConfig.seed`, `TrainConfig.seed` and
//! `QueryWorkload.seed` here and goes nowhere else.

use mlstar_core::{
    reference_optimum, system_partitions, AngelConfig, CompressionConfig, FrameSwitch,
    PsSystemConfig, System, TrainConfig, TrainOutput,
};
use mlstar_data::catalog::{avazu_like, kddb_like};
use mlstar_data::{SparseDataset, SyntheticConfig};
use mlstar_glm::{fit_path, LearningRate, Loss, PathConfig, PathResult, Regularizer};
use mlstar_linalg::CscMatrix;
use mlstar_net::{train_net, NetBatchStats, NetConfig, TransportKind};
use mlstar_serve::{
    BatchPolicy, ModelArtifact, ModelRegistry, QueryWorkload, ScoreRequest, ScoringEngine, ServeRun,
};
use mlstar_sim::{ClusterSpec, NetworkSpec, NodeSpec};

use crate::spec::WORKLOADS;
use crate::trace::Tracer;

/// The paper's convergence threshold: optimum + 0.01.
pub const TARGET_GAP: f64 = 0.01;
/// Epoch cap of the reference solver that defines the optimum. Left to
/// itself (cap 100) the solver stops after 10 to 40 epochs depending on the
/// seed, which makes `setup_s` a function of the seed (15-36 ms, 145-270
/// ms); at 12 every seed pays the same, and the optimum it reports is
/// within 0.002 of the 100-epoch one, a fifth of the 0.01 gap.
const REFERENCE_EPOCHS: u64 = 12;

/// Work per call. The shapes of the data never change; `--smoke` divides
/// the round counts (and the serve replays per call) by 20.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    fn rounds(self, full: u64) -> u64 {
        if self.smoke {
            (full / 20).max(2)
        } else {
            full
        }
    }
}

/// A training workload: one `System::train` or `train_net` call.
pub struct TrainInputs {
    pub ds: SparseDataset,
    pub system: System,
    pub cluster: ClusterSpec,
    pub cfg: TrainConfig,
    /// `Some` runs the call on real threads through `train_net`.
    pub transport: Option<TransportKind>,
    /// Optimum + 0.01, for the simulated workloads.
    pub target: Option<f64>,
    /// Rows a round visits: the sum of the workers' batch sizes.
    pub rows_per_round: u64,
}

/// The coordinate-descent workload: one `fit_path` call.
pub struct PathInputs {
    pub ds: SparseDataset,
    pub cols: CscMatrix,
    pub cfg: PathConfig,
}

/// A serving workload: `runs_per_call` replays of the request stream.
pub struct ServeInputs {
    pub ds: SparseDataset,
    pub artifact: ModelArtifact,
    pub requests: Vec<ScoreRequest>,
    pub engine: ScoringEngine,
    /// The other phase's engine, for the sharded = inline check.
    pub twin: ScoringEngine,
    pub runs_per_call: usize,
}

pub enum Inputs {
    Train(TrainInputs),
    Path(PathInputs),
    Serve(ServeInputs),
}

/// What one end-to-end call returned.
pub enum Output {
    Train {
        out: Box<TrainOutput>,
        /// Per-batch measurements and wall seconds of a `train_net` call.
        net: Option<(Vec<NetBatchStats>, f64)>,
    },
    Path(PathResult),
    /// The last replay of the call.
    Serve(ServeRun),
}

pub struct Call {
    pub output: Output,
    /// Units of work the call did (see `WorkloadSpec::unit_of_work`).
    pub units: f64,
}

/// Mixes the benchmark seed into a preset's own seed.
fn mixed(preset_seed: u64, seed: u64) -> u64 {
    preset_seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn generate(preset: SyntheticConfig, seed: u64, tracer: &mut Tracer) -> SparseDataset {
    let cfg = SyntheticConfig {
        seed: mixed(preset.seed, seed),
        ..preset
    };
    tracer.span("data.generate", |_| cfg.generate())
}

/// The 2-worker cluster of the net workloads: two worker threads, the
/// orchestrator blocked while they run, on this 2-core host.
fn two_workers() -> ClusterSpec {
    ClusterSpec::uniform(2, NodeSpec::standard(), NetworkSpec::gbps1())
}

fn hinge(
    reg: Regularizer,
    eta: f64,
    batch_frac: f64,
    eval_every: u64,
    rounds: u64,
    seed: u64,
) -> TrainConfig {
    TrainConfig {
        loss: Loss::Hinge,
        reg,
        lr: LearningRate::Constant(eta),
        batch_frac,
        eval_every,
        max_rounds: rounds,
        seed,
        ..TrainConfig::default()
    }
}

impl Inputs {
    /// Builds workload `index`'s inputs from `seed`, under set-up spans.
    /// Everything here is what `setup_s` times.
    pub fn build(index: usize, seed: u64, scale: Scale, tracer: &mut Tracer) -> Inputs {
        let l2 = Regularizer::L2 { lambda: 0.1 };
        match WORKLOADS[index].name {
            "sim-avazu-sendmodel" => {
                let preset = SyntheticConfig {
                    num_instances: 8_000,
                    ..avazu_like()
                };
                let ds = generate(preset, seed, tracer);
                let cfg = hinge(l2, 0.02, 1.0, 1, scale.rounds(400), seed);
                train_inputs(
                    ds,
                    System::MllibStar,
                    ClusterSpec::cluster1(),
                    cfg,
                    None,
                    true,
                    tracer,
                )
            }
            "sim-kddb-ps" => {
                let ds = generate(kddb_like(), seed, tracer);
                // L2 makes the workers run the dense `MgdStep` path.
                let cfg = hinge(l2, 0.02, 0.05, 20, scale.rounds(480), seed);
                train_inputs(
                    ds,
                    System::Petuum,
                    ClusterSpec::cluster1(),
                    cfg,
                    None,
                    true,
                    tracer,
                )
            }
            "net-avazu-sendgradient" => {
                let ds = generate(avazu_like(), seed, tracer);
                let cfg = hinge(l2, 0.5, 0.01, 25, scale.rounds(1_000), seed);
                let transport = Some(TransportKind::Channel);
                train_inputs(
                    ds,
                    System::Mllib,
                    two_workers(),
                    cfg,
                    transport,
                    false,
                    tracer,
                )
            }
            "net-kddb-sendgradient" => {
                let ds = generate(kddb_like(), seed, tracer);
                let cfg = hinge(l2, 0.5, 0.01, 25, scale.rounds(120), seed);
                let transport = Some(TransportKind::Tcp);
                train_inputs(
                    ds,
                    System::Mllib,
                    two_workers(),
                    cfg,
                    transport,
                    false,
                    tracer,
                )
            }
            "net-kddb-sendmodel-adaptive" => {
                let ds = generate(kddb_like(), seed, tracer);
                let cfg = TrainConfig {
                    // Lossless: exact sparsifier, no quantization.
                    compression: CompressionConfig {
                        switch: FrameSwitch::Adaptive,
                        ..CompressionConfig::default()
                    },
                    ..hinge(
                        Regularizer::L1 { lambda: 0.01 },
                        0.05,
                        1.0,
                        1,
                        scale.rounds(80),
                        seed,
                    )
                };
                let transport = Some(TransportKind::Tcp);
                train_inputs(
                    ds,
                    System::MllibStar,
                    two_workers(),
                    cfg,
                    transport,
                    false,
                    tracer,
                )
            }
            "cd-kddb-path" => {
                let ds = generate(kddb_like(), seed, tracer);
                let cols = tracer.span("linalg.csc_build", |_| {
                    CscMatrix::from_rows(ds.rows(), ds.num_features())
                });
                // The smallest lambda costs most of a path; a floor of
                // lambda_max / 10 keeps one call near 0.6 s. Smoke stops
                // at lambda_max / 2.
                let cfg = PathConfig {
                    n_lambdas: if scale.smoke { 2 } else { 4 },
                    eps: if scale.smoke { 0.5 } else { 0.05 },
                    l1_ratio: 0.9,
                    ..PathConfig::default()
                };
                Inputs::Path(PathInputs { ds, cols, cfg })
            }
            "serve-avazu-sharded" => serve_inputs(seed, true, scale, tracer),
            "serve-avazu-inline" => serve_inputs(seed, false, scale, tracer),
            other => unreachable!("workload table and builder disagree on {other}"),
        }
    }

    pub fn dataset(&self) -> &SparseDataset {
        match self {
            Inputs::Train(t) => &t.ds,
            Inputs::Path(p) => &p.ds,
            Inputs::Serve(s) => &s.ds,
        }
    }

    /// The one end-to-end call the workload times.
    pub fn call(&self) -> Result<Call, String> {
        match self {
            Inputs::Train(t) => t.call(),
            Inputs::Path(p) => {
                let result = fit_path(&Loss::Logistic, &p.cols, p.ds.labels(), &p.cfg)
                    .map_err(|e| format!("fit_path: {e}"))?;
                let units: u64 = result.points.iter().map(|pt| pt.stats.nnz_visited).sum();
                Ok(Call {
                    units: units as f64,
                    output: Output::Path(result),
                })
            }
            Inputs::Serve(s) => {
                let mut last = None;
                for _ in 0..s.runs_per_call {
                    let run = s
                        .engine
                        .run(&s.requests)
                        .map_err(|e| format!("serve run: {e}"))?;
                    if run.predictions.len() != s.requests.len() {
                        return Err(format!(
                            "{} predictions for {} requests",
                            run.predictions.len(),
                            s.requests.len()
                        ));
                    }
                    last = Some(run);
                }
                let run = last.ok_or("runs_per_call is 0")?;
                Ok(Call {
                    units: (s.runs_per_call * s.requests.len()) as f64,
                    output: Output::Serve(run),
                })
            }
        }
    }

    /// The checks made once per run on the first call's output (every
    /// later call must equal it bit for bit, see [`Output::same_bits`]).
    /// Returns what failed.
    pub fn check(&self, output: &Output, scale: Scale) -> Vec<String> {
        let mut failures = Vec::new();
        match (self, output) {
            (Inputs::Train(t), Output::Train { out, .. }) => t.check(out, scale, &mut failures),
            (Inputs::Path(_), Output::Path(result)) => {
                for p in &result.points {
                    if !p.stats.converged {
                        failures.push(format!("cd did not converge at lambda {}", p.lambda));
                    }
                    if !(p.objective.is_finite() && p.objective < 1.0) {
                        failures.push(format!("objective {} at lambda {}", p.objective, p.lambda));
                    }
                }
            }
            (Inputs::Serve(s), Output::Serve(run)) => match s.twin.run(&s.requests) {
                Ok(twin) => {
                    if !same_predictions(&twin, run) {
                        failures.push("sharded and inline predictions differ".to_string());
                    }
                }
                Err(e) => failures.push(format!("twin engine: {e}")),
            },
            _ => failures.push("output kind does not match the workload".to_string()),
        }
        failures
    }
}

#[allow(clippy::too_many_arguments)]
fn train_inputs(
    ds: SparseDataset,
    system: System,
    cluster: ClusterSpec,
    cfg: TrainConfig,
    transport: Option<TransportKind>,
    with_target: bool,
    tracer: &mut Tracer,
) -> Inputs {
    let target = with_target.then(|| {
        tracer.span("core.reference_optimum", |_| {
            reference_optimum(&ds, cfg.loss, cfg.reg, REFERENCE_EPOCHS, cfg.seed) + TARGET_GAP
        })
    });
    let rows_per_round = tracer.span("data.partition", |_| {
        system_partitions(system, &ds, &cluster, &cfg)
            .iter()
            .filter(|part| !part.is_empty())
            .map(|part| cfg.batch_size(part.len()) as u64)
            .sum()
    });
    Inputs::Train(TrainInputs {
        ds,
        system,
        cluster,
        cfg,
        transport,
        target,
        rows_per_round,
    })
}

fn serve_inputs(seed: u64, sharded: bool, scale: Scale, tracer: &mut Tracer) -> Inputs {
    let ds = generate(avazu_like(), seed, tracer);
    let artifact = tracer.span("serve.artifact_build", |_| {
        let cfg = TrainConfig {
            max_rounds: 5,
            seed,
            ..TrainConfig::default()
        };
        let system = System::MllibStar;
        let out = system.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        ModelArtifact::from_run(system, &cfg, &out, &ds)
            .expect("a 1,000-dimensional model is not empty")
    });
    // The engine is handed the artifact the way a deployment would get
    // it: published to a registry and promoted to active.
    let artifact = tracer.span("serve.registry_publish", |_| {
        let mut registry = ModelRegistry::new();
        registry
            .publish("avazu", artifact)
            .expect("first publish of a name cannot conflict");
        registry.active("avazu").expect("just published").clone()
    });
    let requests = tracer.span("serve.workload_generate", |_| {
        QueryWorkload {
            num_requests: 20_000,
            seed,
            ..QueryWorkload::default()
        }
        .generate(&ds)
    });
    let sharded_engine = ScoringEngine::for_artifact(&artifact, BatchPolicy::default(), 2);
    let inline_engine = ScoringEngine::for_artifact(
        &artifact,
        BatchPolicy {
            max_batch: 256,
            ..BatchPolicy::default()
        },
        1,
    );
    // One inline replay is ~45x cheaper than a sharded one.
    let (engine, twin, runs) = if sharded {
        (sharded_engine, inline_engine, 5)
    } else {
        (inline_engine, sharded_engine, 200)
    };
    Inputs::Serve(ServeInputs {
        ds,
        artifact,
        requests,
        engine,
        twin,
        runs_per_call: if scale.smoke {
            (runs / 20).max(1)
        } else {
            runs
        },
    })
}

impl TrainInputs {
    /// The same configuration on the simulator alone.
    pub fn train_sim(&self) -> TrainOutput {
        self.system.train(
            &self.ds,
            &self.cluster,
            &self.cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
        )
    }

    fn call(&self) -> Result<Call, String> {
        let (out, net) = match self.transport {
            None => (self.train_sim(), None),
            Some(transport) => {
                let run = train_net(
                    self.system,
                    &self.ds,
                    &self.cluster,
                    &self.cfg,
                    &PsSystemConfig::default(),
                    &AngelConfig::default(),
                    &NetConfig {
                        transport,
                        kill: None,
                    },
                )
                .map_err(|e| format!("train_net: {e}"))?;
                (run.output, Some((run.batches, run.wall_s)))
            }
        };
        if out.host_threads != 1 {
            return Err(format!(
                "host_threads is {}, the benchmark measures 1 (unset MLSTAR_HOST_THREADS)",
                out.host_threads
            ));
        }
        Ok(Call {
            units: (out.rounds_run * self.rows_per_round) as f64,
            output: Output::Train {
                out: Box::new(out),
                net,
            },
        })
    }

    fn check(&self, out: &TrainOutput, scale: Scale, failures: &mut Vec<String>) {
        let Some(objective) = out.trace.final_objective() else {
            failures.push("empty convergence trace".to_string());
            return;
        };
        match self.target {
            // Smoke runs 1/20 of the rounds, too few to get there.
            Some(target) if !scale.smoke => {
                if out.trace.time_to_reach(target).is_none() {
                    failures.push(format!("never reached optimum + {TARGET_GAP} = {target}"));
                }
                if objective.is_nan() || objective > target {
                    failures.push(format!("final objective {objective} above target {target}"));
                }
            }
            _ => {
                if !(objective.is_finite() && objective < 1.0) {
                    failures.push(format!("final objective {objective} is not below 1.0"));
                }
            }
        }
        if self.transport.is_some() && !same_training(&self.train_sim(), out) {
            failures.push("train_net differs from System::train on the same config".to_string());
        }
    }
}

fn bits(values: &[f64]) -> impl Iterator<Item = u64> + '_ {
    values.iter().map(|v| v.to_bits())
}

/// Weights, counters and the objective curve, bit for bit.
fn same_training(a: &TrainOutput, b: &TrainOutput) -> bool {
    let curve = |out: &TrainOutput| -> Vec<(u64, u64, u64)> {
        out.trace
            .points
            .iter()
            .map(|p| {
                (
                    p.step,
                    p.objective.to_bits(),
                    p.time.as_secs_f64().to_bits(),
                )
            })
            .collect()
    };
    bits(a.model.weights().as_slice()).eq(bits(b.model.weights().as_slice()))
        && (a.rounds_run, a.total_updates) == (b.rounds_run, b.total_updates)
        && curve(a) == curve(b)
}

fn same_predictions(a: &ServeRun, b: &ServeRun) -> bool {
    let key = |run: &'_ ServeRun| -> Vec<[u64; 4]> {
        run.predictions
            .iter()
            .map(|p| {
                [
                    p.id,
                    p.margin.to_bits(),
                    p.probability.to_bits(),
                    p.label.to_bits(),
                ]
            })
            .collect()
    };
    key(a) == key(b)
}

impl Output {
    /// True when `other` agrees with `self` on every bit of the result a
    /// caller would use: weights and objective curve, the whole path, or
    /// every prediction. (`==` on floats would let `-0.0` pass for `0.0`
    /// and fail `NaN` against itself.) Two calls on the same inputs must
    /// agree.
    pub fn same_bits(&self, other: &Output) -> bool {
        match (self, other) {
            (Output::Train { out: a, .. }, Output::Train { out: b, .. }) => same_training(a, b),
            (Output::Path(a), Output::Path(b)) => {
                a.lambda_max.to_bits() == b.lambda_max.to_bits()
                    && a.points.len() == b.points.len()
                    && a.points.iter().zip(&b.points).all(|(p, q)| {
                        p.lambda.to_bits() == q.lambda.to_bits()
                            && p.objective.to_bits() == q.objective.to_bits()
                            && p.stats == q.stats
                            && bits(p.weights.as_slice()).eq(bits(q.weights.as_slice()))
                    })
            }
            (Output::Serve(a), Output::Serve(b)) => same_predictions(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Stopwatch;
    use mlstar_data::DatasetFingerprint;

    fn smoke_inputs(name: &str, seed: u64) -> Inputs {
        let index = crate::spec::workload_index(name).unwrap();
        Inputs::build(
            index,
            seed,
            Scale { smoke: true },
            &mut Tracer::new(index, Stopwatch::start()),
        )
    }

    #[test]
    fn same_seed_same_dataset_different_seed_different_dataset() {
        let a = DatasetFingerprint::of(smoke_inputs("sim-avazu-sendmodel", 1).dataset());
        let b = DatasetFingerprint::of(smoke_inputs("sim-avazu-sendmodel", 1).dataset());
        let c = DatasetFingerprint::of(smoke_inputs("sim-avazu-sendmodel", 2).dataset());
        assert_eq!(a, b);
        assert_ne!(a.content_hash, c.content_hash);
        // Shapes never depend on the seed.
        assert_eq!((a.instances, a.features), (8_000, 1_000));
        assert_eq!((c.instances, c.features), (8_000, 1_000));
    }

    #[test]
    fn seed_reaches_the_train_config_and_the_request_stream() {
        let Inputs::Train(t) = smoke_inputs("sim-avazu-sendmodel", 9) else {
            panic!("a training workload");
        };
        assert_eq!(t.cfg.seed, 9);
        assert!(t.target.is_some());
        let (Inputs::Serve(a), Inputs::Serve(b)) = (
            smoke_inputs("serve-avazu-inline", 3),
            smoke_inputs("serve-avazu-inline", 4),
        ) else {
            panic!("serving workloads");
        };
        assert_eq!(a.requests.len(), 20_000);
        let arrivals =
            |s: &ServeInputs| -> Vec<_> { s.requests.iter().take(50).map(|r| r.arrival).collect() };
        assert_ne!(arrivals(&a), arrivals(&b));
    }

    #[test]
    fn repeated_calls_agree_bit_for_bit_and_pass_their_checks() {
        for name in ["sim-avazu-sendmodel", "serve-avazu-sharded"] {
            let inputs = smoke_inputs(name, 5);
            let first = inputs.call().unwrap();
            let second = inputs.call().unwrap();
            assert!(first.units > 0.0);
            assert!(first.output.same_bits(&second.output), "{name}");
            assert_eq!(
                inputs.check(&first.output, Scale { smoke: true }),
                Vec::<String>::new()
            );
        }
    }

    #[test]
    fn same_bits_sees_a_single_flipped_bit() {
        let inputs = smoke_inputs("sim-avazu-sendmodel", 5);
        let first = inputs.call().unwrap();
        let mut second = inputs.call().unwrap();
        assert!(first.output.same_bits(&second.output));
        if let Output::Train { out, .. } = &mut second.output {
            let w = out.model.weights_mut().as_mut_slice();
            w[17] = f64::from_bits(w[17].to_bits() ^ 1);
        }
        assert!(!first.output.same_bits(&second.output));
    }
}
