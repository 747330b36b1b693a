//! The traced pass: one more end-to-end call under a root span, then a
//! replay of the call's constituent public layer calls, on the same
//! inputs, under child spans named after the per-layer metrics.
//!
//! This is a replay from outside, not instrumentation. The replay does
//! the kind and amount of work the call does (same partitions, round
//! counts, batch sizes, frame kinds), not the identical arithmetic: its
//! RNG streams are its own, so the program stays free to change how it
//! derives its. A layer's self time is its span minus its children; for
//! the root that is everything the replay does not cover (the engines,
//! partition bookkeeping, simulated-clock accounting, thread hand-offs).
//!
//! In a `train_net` call the k workers run in parallel, so only worker
//! 0's side of each round is recorded under the root (the blocking path:
//! serial orchestrator work plus one worker's share). The other workers'
//! spans hang under a `replay.parallel_workers` span and still feed the
//! kernel rates.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};

use mlstar_collectives::{all_reduce_average, compressed_all_reduce_average, tree_aggregate, wire};
use mlstar_core::{
    system_partitions, FrameSwitch, OpResult, RoundStats, System, TrainOutput, WorkerOp,
};
use mlstar_data::catalog::avazu_like;
use mlstar_data::{BatchSampler, EpochOrder, SparseDataset, SyntheticConfig};
use mlstar_glm::{
    batch_gradient_into, cd_fit, cd_objective, lambda_grid, lambda_max, mgd_step, objective_value,
    sgd_epoch_lazy, ElasticNet, Loss,
};
use mlstar_linalg::{average, DenseVector, ScaledVector};
use mlstar_net::{
    channel_pair, decode_msg, encode_msg, Msg, NetBatchStats, TcpTransport, Transport,
    TransportKind,
};
use mlstar_serve::ModelArtifact;
use mlstar_sim::{Activity, CostModel, GanttRecorder, NodeId, RoundBuilder, SimTime};

use crate::alloc;
use crate::host::Stopwatch;
use crate::spec;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workloads::{Inputs, Output, PathInputs, Scale, ServeInputs, TrainInputs};

/// Per-layer metric values of one workload; every name is in
/// `spec::PER_LAYER`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// The value measured for `name`; `None` when its layer is not on the
    /// workload's path.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// One "this workload stresses what it claims" check of the traced pass.
/// Informational: a missed claim is printed, it does not fail the run,
/// because it depends on this host's timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    pub text: String,
    pub ok: bool,
}

pub struct Traced {
    pub layers: Layers,
    pub claims: Vec<Claim>,
    /// Errors of the traced call or the replay: these do fail the run.
    pub failures: Vec<String>,
}

/// Calls made under a root span; the median one is the root.
pub const ROOT_CALLS: usize = 3;

/// Shortest timed region of one kernel microbenchmark, in seconds.
fn micro_min_s(scale: Scale) -> f64 {
    if scale.smoke {
        0.002
    } else {
        0.03
    }
}

/// Where the kernel microbenchmarks record.
struct Bench<'a> {
    tracer: &'a mut Tracer,
    layers: &'a mut Layers,
    /// Shortest timed region of one kernel.
    min_s: f64,
}

impl Bench<'_> {
    /// Repeats `f` for at least `min_s` under a top-level span named after
    /// `metric`, and sets the metric to the units of work `f` reports per
    /// second, divided by `per` (1e6 for M…/s, 1e9 for GB/s).
    fn rate(&mut self, metric: &'static str, per: f64, f: impl FnMut() -> f64) {
        self.rate_for(metric, per, self.min_s, f);
    }

    fn rate_for(&mut self, metric: &'static str, per: f64, min_s: f64, mut f: impl FnMut() -> f64) {
        let (id, units) = self.tracer.span_id(metric, |_| {
            let start = Stopwatch::start();
            let mut units = 0.0;
            loop {
                units += f();
                if start.elapsed_s() >= min_s {
                    return units;
                }
            }
        });
        self.layers
            .set(metric, rate(units, self.tracer.duration_s(id)) / per);
    }

    /// Encoder and decoder of one wire-frame kind, in GB/s of frame bytes.
    /// False if a frame did not decode.
    fn frame_pair<F: AsRef<[u8]>>(
        &mut self,
        encode_metric: &'static str,
        decode_metric: &'static str,
        encode: impl Fn() -> F,
        decode: impl Fn(&F) -> bool,
    ) -> bool {
        let frame = encode();
        let bytes = frame.as_ref().len() as f64;
        self.rate(encode_metric, 1e9, || {
            black_box(encode());
            bytes
        });
        let mut ok = true;
        self.rate(decode_metric, 1e9, || {
            ok &= decode(&frame);
            bytes
        });
        ok
    }
}

fn rate(units: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        units / secs
    } else {
        0.0
    }
}

/// Runs the traced pass of workload `index`. `tracer` already holds the
/// set-up spans of the `Inputs::build` that made `inputs`;
/// `untraced_call_s` is the median wall time of the untimed-by-spans
/// calls, for the overhead figure.
pub fn traced_pass(
    inputs: &Inputs,
    tracer: &mut Tracer,
    untraced_call_s: Option<f64>,
    scale: Scale,
) -> Traced {
    let mut layers = Layers::default();
    let mut claims = Vec::new();
    let mut failures = Vec::new();
    let min_s = micro_min_s(scale);

    // What `Inputs::build` recorded of the set-up.
    for (metric, span) in [
        ("data.generate_s", "data.generate"),
        ("linalg.csc_build_s", "linalg.csc_build"),
        ("serve.workload_generate_s", "serve.workload_generate"),
        ("serve.artifact_build_s", "serve.artifact_build"),
        ("serve.registry_publish_s", "serve.registry_publish"),
    ] {
        if let (secs, 1..) = tracer.total(span) {
            layers.set(metric, secs);
        }
    }
    let ds = inputs.dataset();
    layers.set("data.rows", ds.len() as f64);
    layers.set("data.nnz", ds.total_nnz() as f64);
    layers.set("data.dim", ds.num_features() as f64);

    // 1. The call again under a root span, tracing otherwise off. A single
    //    call on a shared host can land 10 % off, which would drown the
    //    overhead figure and skew every self time, so it is made
    //    `ROOT_CALLS` times and the median one becomes the root.
    let root_name = match inputs {
        Inputs::Train(_) => "core.train",
        Inputs::Path(_) => "glm.fit_path",
        Inputs::Serve(_) => "serve.engine_run",
    };
    let mut roots = Vec::with_capacity(ROOT_CALLS);
    for _ in 0..ROOT_CALLS {
        match tracer.span_id(root_name, |_| inputs.call()) {
            (id, Ok(call)) => roots.push((id, call)),
            (_, Err(e)) => {
                failures.push(format!("traced call: {e}"));
                return Traced {
                    layers,
                    claims,
                    failures,
                };
            }
        }
    }
    roots.sort_by_key(|(id, _)| tracer.spans()[*id].duration_ns());
    let (root, call) = roots.swap_remove(ROOT_CALLS / 2);
    drop(roots);
    let root_s = tracer.duration_s(root);
    if let Some(untraced) = untraced_call_s.filter(|s| *s > 0.0) {
        let pct = 100.0 * (root_s - untraced) / untraced;
        layers.set("trace_overhead_pct", pct);
        claims.push(Claim {
            text: format!("trace overhead {pct:.2} % < 2 %"),
            ok: pct < 2.0,
        });
    }

    // 2. And once more with the counting allocator on.
    let session = alloc::Session::open();
    let counted = inputs.call();
    let usage = session.close();
    match counted {
        Ok(counted) => {
            layers.set("mem.peak_alloc_mib", usage.peak_mib());
            layers.set("mem.allocs", usage.allocations as f64);
            layers.set(
                "mem.allocs_per_unit",
                rate(usage.allocations as f64, counted.units),
            );
        }
        Err(e) => failures.push(format!("counted call: {e}")),
    }

    // 3. The replay, recorded as caused by the root, then the kernels.
    let replayed = match (inputs, &call.output) {
        (Inputs::Train(t), Output::Train { out, net }) => {
            layers.set("core.train_s", root_s);
            train_counts(t, out, &mut layers);
            if let Some((batches, wall_s)) = net {
                net_counts(batches, *wall_s, &mut layers);
            }
            let replayed = replay_train(t, tracer, root, &mut layers);
            let mut bench = Bench {
                tracer: &mut *tracer,
                layers: &mut layers,
                min_s,
            };
            train_kernels(t, out, &mut bench, scale, &mut failures);
            replayed
        }
        (Inputs::Path(p), Output::Path(_)) => {
            layers.set("glm.fit_path_s", root_s);
            let replayed = replay_path(p, tracer, root, &mut layers);
            let mut bench = Bench {
                tracer: &mut *tracer,
                layers: &mut layers,
                min_s,
            };
            path_kernels(p, &mut bench);
            replayed
        }
        (Inputs::Serve(s), Output::Serve(run)) => {
            // The root is the call as timed: `runs_per_call` replays of
            // the stream. Per-run figures divide by that.
            let runs = s.runs_per_call as f64;
            layers.set("serve.engine_run_s", root_s / runs);
            let telemetry = &run.telemetry;
            layers.set("serve.batches", telemetry.num_batches() as f64);
            layers.set("serve.mean_fill", telemetry.mean_fill());
            layers.set("serve.mean_queue_depth", telemetry.mean_queue_depth());
            layers.set("serve.virtual_p99_queue_s", telemetry.queue.p99());
            layers.set(
                "serve.us_per_batch",
                1e6 * rate(root_s / runs, telemetry.num_batches() as f64),
            );
            replay_serve(s, tracer, root, &mut layers);
            let mut bench = Bench {
                tracer: &mut *tracer,
                layers: &mut layers,
                min_s,
            };
            serve_kernels(s, &mut bench, &mut failures);
            Ok(())
        }
        _ => Err("output kind does not match the workload".to_string()),
    };
    if let Err(e) = replayed {
        failures.push(format!("replay: {e}"));
    }

    // 4. Self times and the claims.
    let children_s = tracer.children_s(root);
    let self_s = tracer.self_s(root);
    let share = rate(children_s, root_s);
    layers.set("trace.children_share", share);
    // The replay and the root are separate runs of the same work, so this
    // host's run-to-run noise (several percent) sits on top of the ratio.
    claims.push(Claim {
        text: format!(
            "replayed children cover {:.0} % of the root, not more than 100 % (+ 5 % noise)",
            100.0 * share
        ),
        ok: share <= 1.05,
    });
    match inputs {
        Inputs::Train(t) => {
            layers.set("core.self_s", self_s);
            if t.system.is_parameter_server() {
                layers.set("ps.self_s", self_s);
            }
            train_claims(t, tracer, root, root_s, &layers, &mut claims);
        }
        Inputs::Path(_) => {}
        Inputs::Serve(s) => {
            layers.set("serve.batching_self_s", self_s / s.runs_per_call as f64);
            if s.engine.shards() > 1 {
                let batching = rate(self_s, root_s);
                claims.push(Claim {
                    text: format!(
                        "batching self time is {:.0} % of the engine run, at least 80 %",
                        100.0 * batching
                    ),
                    ok: batching >= 0.8,
                });
            }
        }
    }

    Traced {
        layers,
        claims,
        failures,
    }
}

// ---------------------------------------------------------------- training

/// Counts and simulated-time shares the run itself reports.
fn train_counts(t: &TrainInputs, out: &TrainOutput, layers: &mut Layers) {
    layers.set("core.rounds_run", out.rounds_run as f64);
    layers.set("core.total_updates", out.total_updates as f64);
    layers.set("cluster.gantt_spans", out.gantt.spans().len() as f64);
    let stats: &[RoundStats] = &out.round_stats;
    let elapsed: f64 = stats.iter().map(|r| r.elapsed_s).sum();
    let rounds = stats.len().max(1) as f64;
    layers.set(
        "cluster.sim_compute_share",
        rate(stats.iter().map(|r| r.compute_s).sum(), elapsed),
    );
    layers.set(
        "cluster.sim_comm_share",
        rate(stats.iter().map(|r| r.comm_s).sum(), elapsed),
    );
    layers.set(
        "cluster.sim_idle_share",
        rate(stats.iter().map(|r| r.idle_s).sum(), elapsed),
    );
    layers.set("cluster.sim_s_per_round", elapsed / rounds);
    let bytes: u64 = stats.iter().map(|r| r.bytes.total()).sum();
    layers.set("collectives.bytes_per_round", bytes as f64 / rounds);
    if t.system.is_parameter_server() {
        let ps: u64 = stats
            .iter()
            .map(|r| r.bytes.ps_pull + r.bytes.ps_push)
            .sum();
        layers.set("ps.bytes_per_clock", ps as f64 / rounds);
    }
    if let Some(target) = t.target {
        if let (Some(secs), Some(steps)) = (
            out.trace.time_to_reach(target),
            out.trace.steps_to_reach(target),
        ) {
            layers.set("cluster.sim_time_to_target_s", secs);
            layers.set("core.rounds_to_target", steps as f64);
        }
    }
}

/// What `train_net` measured about itself.
fn net_counts(batches: &[NetBatchStats], wall_s: f64, layers: &mut Layers) {
    let turnaround: f64 = batches.iter().map(|b| b.wall_s).sum();
    let compute: f64 = batches
        .iter()
        .map(|b| b.workers.iter().map(|w| w.compute_s).fold(0.0, f64::max))
        .sum();
    let workers = || batches.iter().flat_map(|b| b.workers.iter());
    layers.set("net.batches", batches.len() as f64);
    layers.set("net.turnaround_s", turnaround);
    layers.set("net.worker_compute_s", compute);
    layers.set(
        "net.dispatch_overhead_us_per_batch",
        1e6 * rate(turnaround - compute, batches.len() as f64),
    );
    layers.set("net.session_overhead_s", wall_s - turnaround);
    layers.set(
        "net.messages",
        workers().map(|w| w.messages).sum::<u64>() as f64,
    );
    layers.set(
        "net.bytes_out",
        workers().map(|w| w.bytes_out).sum::<u64>() as f64,
    );
    layers.set(
        "net.bytes_in",
        workers().map(|w| w.bytes_in).sum::<u64>() as f64,
    );
}

/// Work the replay of a training call did, for the span-derived rates.
#[derive(Default)]
struct Work {
    sgd_rows: u64,
    grad_rows: u64,
    objective_rows: u64,
    encoded_bytes: u64,
    decoded_bytes: u64,
}

fn replay_train(
    t: &TrainInputs,
    tracer: &mut Tracer,
    root: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let (parallel, ()) = tracer.span_id("replay.parallel_workers", |_| ());
    let work = tracer.under(root, |tracer| {
        match (t.system.is_parameter_server(), t.cfg.batch_frac < 1.0) {
            (true, _) => replay_ps(t, tracer),
            (false, true) => replay_sendgradient(t, tracer, parallel),
            (false, false) => replay_sendmodel(t, tracer, parallel),
        }
    })?;

    layers.set("data.partition_s", tracer.total_s("data.partition"));
    let per_s = |units: u64, name: &str| rate(units as f64, tracer.total_s(name));
    let mean_us = |name: &str| {
        let (secs, count) = tracer.total(name);
        1e6 * rate(secs, count as f64)
    };
    if work.sgd_rows > 0 {
        layers.set(
            "glm.sgd_epoch_mrows_per_s",
            per_s(work.sgd_rows, "glm.sgd_epoch") / 1e6,
        );
    }
    if work.grad_rows > 0 {
        layers.set(
            "glm.batch_grad_mrows_per_s",
            per_s(work.grad_rows, "glm.batch_grad") / 1e6,
        );
    }
    if work.objective_rows > 0 {
        layers.set(
            "glm.objective_mrows_per_s",
            per_s(work.objective_rows, "glm.objective") / 1e6,
        );
    }
    if work.encoded_bytes > 0 {
        layers.set(
            "codec.msg_encode_mb_per_s",
            per_s(work.encoded_bytes, "codec.msg_encode") / 1e6,
        );
        layers.set(
            "codec.msg_decode_mb_per_s",
            per_s(work.decoded_bytes, "codec.msg_decode") / 1e6,
        );
    }
    for (metric, span) in [
        ("glm.mgd_step_us", "glm.mgd_step"),
        ("collectives.all_reduce_us", "collectives.all_reduce"),
        (
            "collectives.compressed_all_reduce_us",
            "collectives.compressed_all_reduce",
        ),
        (
            "collectives.tree_aggregate_us",
            "collectives.tree_aggregate",
        ),
    ] {
        if tracer.total(span).1 > 0 {
            layers.set(metric, mean_us(span));
        }
    }
    Ok(())
}

fn to_wire(rows: &[usize]) -> Vec<u32> {
    rows.iter()
        .map(|&i| u32::try_from(i).unwrap_or(u32::MAX))
        .collect()
}

/// Encodes `msg` under a span and decodes the frame under another, as
/// the sender and the receiver of a `train_net` message would.
fn ship(
    tracer: &mut Tracer,
    msg: &Msg,
    switch: FrameSwitch,
    work: &mut Work,
) -> Result<(), String> {
    let frame = tracer.span("codec.msg_encode", |_| encode_msg(msg, switch));
    work.encoded_bytes += frame.len() as u64;
    work.decoded_bytes += frame.len() as u64;
    let decoded = tracer.span("codec.msg_decode", |_| decode_msg(&frame));
    black_box(decoded.map_err(|e| format!("decode_msg: {e}"))?);
    Ok(())
}

/// MLlib\* (SendModel): per round, k local `sgd_epoch_lazy` passes, the
/// (compressed) all-reduce of the k local models, an objective evaluation.
fn replay_sendmodel(t: &TrainInputs, tracer: &mut Tracer, parallel: usize) -> Result<Work, String> {
    let (ds, cfg) = (&t.ds, &t.cfg);
    let dim = ds.num_features();
    let parts = tracer.span("data.partition", |_| {
        system_partitions(t.system, ds, &t.cluster, cfg)
    });
    let k = parts.len();
    let net = t.transport.is_some();
    let switch = cfg.compression.switch;
    let cost = CostModel::new(t.cluster.clone());
    let nodes: Vec<NodeId> = (0..k).map(NodeId::Executor).collect();
    let mut gantt = GanttRecorder::new();
    let mut now = SimTime::ZERO;
    let mut orders: Vec<EpochOrder> = (0..k)
        .map(|r| EpochOrder::new(cfg.seed.wrapping_add(r as u64)))
        .collect();
    let mut counters = vec![0u64; k];
    let mut w = DenseVector::zeros(dim);
    let mut locals: Vec<DenseVector> = (0..k).map(|_| DenseVector::zeros(dim)).collect();
    let mut residuals = Vec::new();
    let mut scratch = ScaledVector::zeros(dim);
    let mut work = Work::default();

    for round in 0..cfg.max_rounds {
        for r in 0..k {
            if parts[r].is_empty() {
                locals[r].copy_from(&w);
                continue;
            }
            let order = orders[r].next_order(&parts[r]);
            work.sgd_rows += order.len() as u64;
            let request = net.then(|| Msg::Ops {
                batch: round,
                ops: vec![WorkerOp::SgdPass {
                    w: w.clone(),
                    order: to_wire(&order),
                    t0: counters[r],
                }],
            });
            let mut worker_side = |tracer: &mut Tracer| -> Result<(), String> {
                if let Some(msg) = &request {
                    ship(tracer, msg, switch, &mut work)?;
                }
                scratch.assign_dense(&w);
                counters[r] = tracer.span("glm.sgd_epoch", |_| {
                    sgd_epoch_lazy(
                        cfg.loss,
                        cfg.reg,
                        &mut scratch,
                        ds.rows(),
                        ds.labels(),
                        &order,
                        cfg.lr,
                        counters[r],
                    )
                });
                scratch.copy_into(&mut locals[r]);
                if net {
                    let reply = Msg::OpDone {
                        batch: round,
                        compute_nanos: 0,
                        results: vec![OpResult::Model {
                            w: locals[r].clone(),
                            t: counters[r],
                        }],
                    };
                    ship(tracer, &reply, switch, &mut work)?;
                }
                Ok(())
            };
            if net && r > 0 {
                tracer.under(parallel, &mut worker_side)?;
            } else {
                worker_side(tracer)?;
            }
        }
        let mut rb = RoundBuilder::new(&mut gantt, round, now, &nodes);
        w = if cfg.compression.enabled() {
            tracer
                .span("collectives.compressed_all_reduce", |_| {
                    compressed_all_reduce_average(
                        &mut rb,
                        &cost,
                        &locals,
                        &cfg.compression,
                        &mut residuals,
                    )
                })
                .0
        } else {
            tracer
                .span("collectives.all_reduce", |_| {
                    all_reduce_average(&mut rb, &cost, &locals)
                })
                .0
        };
        now = rb.finish();
        if round % cfg.eval_every == 0 {
            work.objective_rows += ds.len() as u64;
            black_box(tracer.span("glm.objective", |_| {
                objective_value(cfg.loss, cfg.reg, &w, ds.rows(), ds.labels())
            }));
        }
    }
    Ok(work)
}

/// MLlib (SendGradient): per round, k batch gradients, `tree_aggregate`,
/// one driver update, an objective evaluation every `eval_every` rounds.
fn replay_sendgradient(
    t: &TrainInputs,
    tracer: &mut Tracer,
    parallel: usize,
) -> Result<Work, String> {
    let (ds, cfg) = (&t.ds, &t.cfg);
    let dim = ds.num_features();
    let parts = tracer.span("data.partition", |_| {
        system_partitions(t.system, ds, &t.cluster, cfg)
    });
    let k = parts.len();
    let net = t.transport.is_some();
    let switch = cfg.compression.switch;
    let cost = CostModel::new(t.cluster.clone());
    let mut nodes = vec![NodeId::Driver];
    nodes.extend((0..k).map(NodeId::Executor));
    let mut gantt = GanttRecorder::new();
    let mut now = SimTime::ZERO;
    let mut samplers: Vec<BatchSampler> = (0..k)
        .map(|r| BatchSampler::new(cfg.seed.wrapping_add(r as u64)))
        .collect();
    let mut w = DenseVector::zeros(dim);
    let mut grads: Vec<DenseVector> = (0..k).map(|_| DenseVector::zeros(dim)).collect();
    let mut work = Work::default();

    for round in 0..cfg.max_rounds {
        for r in 0..k {
            if parts[r].is_empty() {
                grads[r].clear();
                continue;
            }
            let batch = samplers[r].sample(&parts[r], cfg.batch_size(parts[r].len()));
            work.grad_rows += batch.len() as u64;
            let request = net.then(|| Msg::Ops {
                batch: round,
                ops: vec![WorkerOp::BatchGrad {
                    w: w.clone(),
                    batch: to_wire(&batch),
                }],
            });
            let mut worker_side = |tracer: &mut Tracer| -> Result<(), String> {
                if let Some(msg) = &request {
                    ship(tracer, msg, switch, &mut work)?;
                }
                tracer.span("glm.batch_grad", |_| {
                    batch_gradient_into(
                        cfg.loss,
                        &w,
                        ds.rows(),
                        ds.labels(),
                        &batch,
                        &mut grads[r],
                    );
                });
                if net {
                    let reply = Msg::OpDone {
                        batch: round,
                        compute_nanos: 0,
                        results: vec![OpResult::Grad(grads[r].clone())],
                    };
                    ship(tracer, &reply, switch, &mut work)?;
                }
                Ok(())
            };
            if net && r > 0 {
                tracer.under(parallel, &mut worker_side)?;
            } else {
                worker_side(tracer)?;
            }
        }
        let mut rb = RoundBuilder::new(&mut gantt, round, now, &nodes);
        let mut grad = tracer
            .span("collectives.tree_aggregate", |_| {
                tree_aggregate(
                    &mut rb,
                    &cost,
                    &grads,
                    cfg.tree_fanin,
                    Activity::SendGradient,
                )
            })
            .0;
        now = rb.finish();
        grad.scale(1.0 / k as f64);
        cfg.reg.add_gradient(&w, &mut grad);
        w.axpy(-cfg.lr.eta(round), &grad);
        if round % cfg.eval_every == 0 {
            work.objective_rows += ds.len() as u64;
            black_box(tracer.span("glm.objective", |_| {
                objective_value(cfg.loss, cfg.reg, &w, ds.rows(), ds.labels())
            }));
        }
    }
    Ok(work)
}

/// Petuum with a regularizer: per clock each worker pulls the model, takes
/// one dense `mgd_step` on a batch and pushes its delta, which the server
/// adds into the model. The replay applies each push as soon as it is
/// computed; the SSP scheduling itself is part of `ps.self_s`.
fn replay_ps(t: &TrainInputs, tracer: &mut Tracer) -> Result<Work, String> {
    let (ds, cfg) = (&t.ds, &t.cfg);
    let dim = ds.num_features();
    let parts = tracer.span("data.partition", |_| {
        system_partitions(t.system, ds, &t.cluster, cfg)
    });
    let k = parts.len();
    let mut samplers: Vec<BatchSampler> = (0..k)
        .map(|r| BatchSampler::new(cfg.seed.wrapping_add(r as u64)))
        .collect();
    let mut model = DenseVector::zeros(dim);
    let mut grad_buf = DenseVector::zeros(dim);
    let mut work = Work::default();

    for clock in 0..cfg.max_rounds {
        for r in 0..k {
            if parts[r].is_empty() {
                continue;
            }
            let batch = samplers[r].sample(&parts[r], cfg.batch_size(parts[r].len()));
            let mut local = model.clone();
            let eta = cfg.lr.eta(clock);
            black_box(tracer.span("glm.mgd_step", |_| {
                mgd_step(
                    cfg.loss,
                    cfg.reg,
                    &mut local,
                    ds.rows(),
                    ds.labels(),
                    &batch,
                    eta,
                    &mut grad_buf,
                )
            }));
            tracer.span("linalg.dense_axpy", |_| local.axpy(-1.0, &model));
            tracer.span("linalg.dense_axpy", |_| model.axpy(1.0, &local));
        }
        if clock % cfg.eval_every == 0 {
            work.objective_rows += ds.len() as u64;
            black_box(tracer.span("glm.objective", |_| {
                objective_value(cfg.loss, cfg.reg, &model, ds.rows(), ds.labels())
            }));
        }
    }
    Ok(work)
}

/// The kernels a training workload's path runs, at its data and model
/// shapes.
fn train_kernels(
    t: &TrainInputs,
    out: &TrainOutput,
    bench: &mut Bench<'_>,
    scale: Scale,
    failures: &mut Vec<String>,
) {
    let model = out.model.weights();
    row_kernels(&t.ds, model, bench);

    let dim = model.dim();
    let mut acc = model.clone();
    bench.rate("linalg.dense_axpy_gb_per_s", 1e9, || {
        acc.axpy(1e-9, model);
        // Two vectors read, one written.
        (3 * 8 * dim) as f64
    });
    let k = t.cluster.num_executors();
    let copies: Vec<DenseVector> = (0..k).map(|_| model.clone()).collect();
    bench.rate("linalg.average_gb_per_s", 1e9, || {
        black_box(average(&copies));
        (k * 8 * dim) as f64
    });

    if t.system == System::MllibStar && t.transport.is_none() && !scale.smoke {
        stream_kernel(t, bench);
    }

    let Some(transport) = t.transport else {
        return;
    };
    let sim_start = Stopwatch::start();
    black_box(t.train_sim());
    let sim_s = sim_start.elapsed_s();
    let net_s = bench.layers.get("core.train_s").unwrap_or(0.0);
    bench.layers.set("net.vs_sim_ratio", rate(net_s, sim_s));

    if !wire_kernels(model, t.cfg.compression.enabled(), bench) {
        failures.push("a wire frame did not decode".to_string());
    }

    // Ping-pong at the size of the message that carries this model.
    let frame = encode_msg(
        &Msg::Ops {
            batch: 0,
            ops: vec![WorkerOp::PartitionGrad { w: model.clone() }],
        },
        t.cfg.compression.switch,
    );
    let trips = if scale.smoke { 50 } else { 1_000 };
    let (metric, rtt) = match transport {
        TransportKind::Channel => (
            "net.channel_rtt_us",
            bench
                .tracer
                .span("net.channel_rtt", |_| channel_rtt(&frame, trips)),
        ),
        TransportKind::Tcp => (
            "net.tcp_rtt_us",
            bench.tracer.span("net.tcp_rtt", |_| tcp_rtt(&frame, trips)),
        ),
    };
    match rtt {
        Ok(us) => bench.layers.set(metric, us),
        Err(e) => failures.push(format!("{metric}: {e}")),
    }
}

/// Sparse row kernels over the whole dataset against a dense model.
fn row_kernels(ds: &SparseDataset, model: &DenseVector, bench: &mut Bench<'_>) {
    let nnz = ds.total_nnz() as f64;
    bench.rate("linalg.dot_sparse_mnnz_per_s", 1e6, || {
        let mut acc = 0.0;
        for row in ds.rows() {
            acc += model.dot_sparse(row);
        }
        black_box(acc);
        nnz
    });
    let mut acc = model.clone();
    bench.rate("linalg.axpy_sparse_mnnz_per_s", 1e6, || {
        for row in ds.rows() {
            acc.axpy_sparse(1e-9, row);
        }
        nnz
    });
    let mut scaled = ScaledVector::from_dense(model.clone());
    bench.rate("linalg.scaled_step_mnnz_per_s", 1e6, || {
        for row in ds.rows() {
            let margin = scaled.dot_sparse(row);
            scaled.scale_by(0.999_999);
            scaled.axpy_sparse(1e-9 * margin, row);
        }
        nnz
    });
}

/// `sgd_epoch_lazy` on avazu-like × 8 (≈ 70 MB): the DRAM-streaming
/// variant of sim-avazu-sendmodel's working set. It moved 40 % between
/// back-to-back runs of identical code on a shared 2-core host, so it is
/// a per-layer number only.
fn stream_kernel(t: &TrainInputs, bench: &mut Bench<'_>) {
    let preset = avazu_like();
    let big = SyntheticConfig {
        num_instances: preset.num_instances * 8,
        seed: preset.seed ^ t.cfg.seed,
        ..preset
    }
    .generate();
    let order: Vec<usize> = (0..big.len()).collect();
    let mut w = ScaledVector::zeros(big.num_features());
    let mut counter = 0u64;
    // One pass takes ~15 ms; five of them at least.
    bench.rate_for("glm.sgd_epoch_stream_mrows_per_s", 1e6, 0.15, || {
        counter = sgd_epoch_lazy(
            t.cfg.loss,
            t.cfg.reg,
            &mut w,
            big.rows(),
            big.labels(),
            &order,
            t.cfg.lr,
            counter,
        );
        order.len() as f64
    });
}

/// Wire-frame encoders and decoders on the trained model. Rates are per
/// frame byte, so a sparse frame that is 20x smaller is not 20x "faster".
/// False if any frame did not decode.
fn wire_kernels(model: &DenseVector, adaptive: bool, bench: &mut Bench<'_>) -> bool {
    let mut ok = bench.frame_pair(
        "collectives.encode_dense_gb_per_s",
        "collectives.decode_dense_gb_per_s",
        || wire::encode_dense(model),
        |frame| black_box(wire::decode_dense(frame)).is_ok(),
    );
    if !adaptive {
        return ok;
    }
    if let Ok(sparse) = model.to_sparse() {
        ok &= bench.frame_pair(
            "collectives.encode_sparse_gb_per_s",
            "collectives.decode_sparse_gb_per_s",
            || wire::encode_sparse(&sparse),
            |frame| black_box(wire::decode_sparse(frame)).is_ok(),
        );
    }
    ok &= bench.frame_pair(
        "collectives.encode_adaptive_gb_per_s",
        "collectives.decode_adaptive_gb_per_s",
        || wire::encode_adaptive(model, FrameSwitch::Adaptive),
        |frame| black_box(wire::decode_adaptive(frame)).is_ok(),
    );
    // No workload ships quantized frames yet: trajectory only.
    ok &= bench.frame_pair(
        "collectives.encode_qdense_gb_per_s",
        "collectives.decode_qdense_gb_per_s",
        || wire::encode_qdense(model),
        |frame| black_box(wire::decode_qdense(frame)).is_ok(),
    );
    ok
}

/// Median round trip, in microseconds, of `frame` sent over `near` and
/// echoed back by a peer thread that owns `far`.
fn ping_pong(
    mut near: impl Transport,
    mut far: impl Transport + 'static,
    frame: &[u8],
    trips: usize,
) -> Result<f64, String> {
    const WARM_UP: usize = 10;
    // lint:allow(thread_spawn): the echo peer of a transport ping-pong has to be another thread; it is joined below and its result checked
    let peer = std::thread::spawn(move || -> Result<(), String> {
        for _ in 0..WARM_UP + trips {
            let got = far.recv().map_err(|e| format!("peer recv: {e}"))?;
            far.send(&got).map_err(|e| format!("peer send: {e}"))?;
        }
        Ok(())
    });
    let mut samples = Vec::with_capacity(trips);
    let mut result = Ok(());
    for i in 0..WARM_UP + trips {
        let start = Stopwatch::start();
        let trip = near
            .send(frame)
            .and_then(|()| near.recv())
            .map_err(|e| format!("round trip {i}: {e}"));
        match trip {
            Ok(echo) if echo.len() == frame.len() => {}
            Ok(echo) => {
                result = Err(format!(
                    "echo of {} bytes for {} sent",
                    echo.len(),
                    frame.len()
                ))
            }
            Err(e) => result = Err(e),
        }
        if result.is_err() {
            break;
        }
        if i >= WARM_UP {
            samples.push(start.elapsed_s() * 1e6);
        }
    }
    // Dropping our end first unblocks a peer still waiting in `recv`.
    drop(near);
    let joined = peer.join().map_err(|_| "echo peer panicked".to_string());
    result?;
    joined??;
    Summary::of(&samples)
        .map(|s| s.median)
        .ok_or_else(|| "no round trips".to_string())
}

fn channel_rtt(frame: &[u8], trips: usize) -> Result<f64, String> {
    let (near, far) = channel_pair();
    ping_pong(near, far, frame, trips)
}

fn tcp_rtt(frame: &[u8], trips: usize) -> Result<f64, String> {
    let io = |what: &str, e: std::io::Error| format!("tcp {what}: {e}");
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| io("bind", e))?;
    let addr = listener.local_addr().map_err(|e| io("local_addr", e))?;
    // The listen backlog completes the connection before `accept` runs.
    let far = TcpStream::connect(addr).map_err(|e| io("connect", e))?;
    let (near, _) = listener.accept().map_err(|e| io("accept", e))?;
    let near = TcpTransport::new(near).map_err(|e| e.to_string())?;
    let far = TcpTransport::new(far).map_err(|e| e.to_string())?;
    ping_pong(near, far, frame, trips)
}

fn train_claims(
    t: &TrainInputs,
    tracer: &Tracer,
    root: usize,
    root_s: f64,
    layers: &Layers,
    claims: &mut Vec<Claim>,
) {
    let get = |name: &str| layers.get(name).unwrap_or(0.0);
    match (
        t.transport,
        t.system.is_parameter_server(),
        t.cfg.batch_frac < 1.0,
    ) {
        (None, false, _) => {
            let kernels: u64 = tracer
                .spans()
                .iter()
                .filter(|s| {
                    s.parent == Some(root)
                        && (s.name.starts_with("glm.") || s.name.starts_with("linalg."))
                })
                .map(|s| s.duration_ns())
                .sum();
            let share = rate(kernels as f64 * 1e-9, root_s);
            claims.push(Claim {
                text: format!(
                    "glm + linalg spans are {:.0} % of the root, at least 50 %",
                    100.0 * share
                ),
                ok: share >= 0.5,
            });
        }
        (Some(TransportKind::Channel), _, _) => {
            let overhead = rate(
                get("net.turnaround_s") - get("net.worker_compute_s"),
                get("net.turnaround_s"),
            );
            claims.push(Claim {
                text: format!(
                    "dispatch overhead is {:.0} % of turnaround, at least 50 %",
                    100.0 * overhead
                ),
                ok: overhead >= 0.5,
            });
        }
        (Some(TransportKind::Tcp), _, true) => {
            let compute = rate(get("net.worker_compute_s"), root_s);
            claims.push(Claim {
                text: format!(
                    "worker compute is {:.0} % of wall, at most 10 %",
                    100.0 * compute
                ),
                ok: compute <= 0.10,
            });
        }
        (Some(TransportKind::Tcp), _, false) => {
            let compute = rate(get("net.worker_compute_s"), root_s);
            claims.push(Claim {
                text: format!(
                    "worker compute is {:.0} % of wall, at least 60 %",
                    100.0 * compute
                ),
                ok: compute >= 0.60,
            });
        }
        (None, true, _) => {}
    }
}

// -------------------------------------------------------------------- path

/// `fit_path` is `lambda_max`, the grid, then one warm-started `cd_fit`
/// and one `cd_objective` per lambda.
fn replay_path(
    p: &PathInputs,
    tracer: &mut Tracer,
    root: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let datafit = Loss::Logistic;
    let labels = p.ds.labels();
    let (mut sweeps, mut updates, mut visited) = (0u64, 0u64, 0u64);
    tracer.under(root, |tracer| -> Result<(), String> {
        let lmax = tracer.span("glm.lambda_max", |_| {
            lambda_max(&datafit, &p.cols, labels, p.cfg.l1_ratio)
        });
        let mut w = DenseVector::zeros(p.cols.n_cols());
        let mut margins = Vec::with_capacity(p.cols.n_rows());
        for lambda in lambda_grid(lmax, p.cfg.n_lambdas, p.cfg.eps) {
            let penalty = ElasticNet::new(lambda, p.cfg.l1_ratio);
            let stats = tracer
                .span("glm.cd_fit", |_| {
                    cd_fit(
                        &datafit,
                        &penalty,
                        &p.cols,
                        labels,
                        &mut w,
                        &mut margins,
                        &p.cfg.cd,
                    )
                })
                .map_err(|e| format!("cd_fit: {e}"))?;
            black_box(cd_objective(&datafit, &penalty, &margins, labels, &w));
            sweeps += stats.sweeps as u64;
            updates += stats.coord_updates;
            visited += stats.nnz_visited;
        }
        Ok(())
    })?;
    layers.set("glm.lambda_max_s", tracer.total_s("glm.lambda_max"));
    layers.set("glm.cd_fit_s", tracer.total_s("glm.cd_fit"));
    layers.set("glm.cd_sweeps", sweeps as f64);
    layers.set("glm.cd_coord_updates", updates as f64);
    layers.set("glm.cd_nnz_visited", visited as f64);
    Ok(())
}

fn path_kernels(p: &PathInputs, bench: &mut Bench<'_>) {
    let margins = vec![0.5f64; p.cols.n_rows()];
    let nnz = p.cols.nnz() as f64;
    bench.rate("linalg.csc_col_mnnz_per_s", 1e6, || {
        let mut acc = 0.0;
        for j in 0..p.cols.n_cols() {
            for (i, x) in p.cols.col(j).iter() {
                acc += x * margins[i];
            }
        }
        black_box(acc);
        nnz
    });
}

// ------------------------------------------------------------------- serve

/// What the engine does per request once a batch is formed, once per
/// replay of the stream.
fn replay_serve(s: &ServeInputs, tracer: &mut Tracer, root: usize, layers: &mut Layers) {
    let model = s.artifact.model();
    tracer.under(root, |tracer| {
        for _ in 0..s.runs_per_call {
            tracer.span("glm.margin", |_| {
                let mut acc = 0.0;
                for r in &s.requests {
                    acc += model.margin(&r.row) + model.predict_probability(&r.row);
                }
                black_box(acc);
            });
        }
    });
    layers.set(
        "glm.margin_mpreds_per_s",
        rate(
            (s.runs_per_call * s.requests.len()) as f64,
            tracer.total_s("glm.margin"),
        ) / 1e6,
    );
}

fn serve_kernels(s: &ServeInputs, bench: &mut Bench<'_>, failures: &mut Vec<String>) {
    let weights = s.artifact.weights();
    let nnz: usize = s.requests.iter().map(|r| r.row.nnz()).sum();
    bench.rate("linalg.dot_sparse_mnnz_per_s", 1e6, || {
        let mut acc = 0.0;
        for r in &s.requests {
            acc += weights.dot_sparse(&r.row);
        }
        black_box(acc);
        nnz as f64
    });

    let mut ok = true;
    bench.rate("codec.artifact_roundtrip_mb_per_s", 1e6, || {
        let bytes = s.artifact.encode();
        ok &= black_box(ModelArtifact::decode(&bytes)).is_ok();
        bytes.len() as f64
    });
    if !ok {
        failures.push("the model artifact did not decode".to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_accept_only_declared_names() {
        let mut layers = Layers::default();
        layers.set("glm.cd_sweeps", 3.0);
        assert_eq!(layers.get("glm.cd_sweeps"), Some(3.0));
        assert_eq!(layers.get("glm.cd_fit_s"), None);
        let undeclared = std::panic::catch_unwind(|| Layers::default().set("glm.typo", 1.0));
        assert!(undeclared.is_err());
    }

    #[test]
    fn ping_pong_measures_both_transports() {
        let frame = encode_msg(&Msg::Hello { worker: 0 }, FrameSwitch::Dense);
        assert!(channel_rtt(&frame, 20).unwrap() > 0.0);
        assert!(tcp_rtt(&frame, 20).unwrap() > 0.0);
    }

    #[test]
    fn bench_sets_the_metric_from_the_work_it_did() {
        let mut tracer = Tracer::new(0, Stopwatch::start());
        let mut layers = Layers::default();
        let mut bench = Bench {
            tracer: &mut tracer,
            layers: &mut layers,
            min_s: 0.001,
        };
        let mut calls = 0u32;
        bench.rate("linalg.average_gb_per_s", 1e9, || {
            calls += 1;
            2e9
        });
        let secs = tracer.total_s("linalg.average_gb_per_s");
        assert!(secs >= 0.001);
        let expected = 2.0 * f64::from(calls) / secs;
        let got = layers.get("linalg.average_gb_per_s").unwrap();
        assert!(
            (got - expected).abs() <= 1e-9 * expected,
            "{got} vs {expected}"
        );
        assert_eq!(rate(1.0, 0.0), 0.0);
    }
}
