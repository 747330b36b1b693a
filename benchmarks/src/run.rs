//! The harness: set-up, warm-up, interleaved timed repeats, output
//! checks, then the traced pass.

use crate::alloc;
use crate::host::{self, Stopwatch};
use crate::replay::{self, Claim, Layers};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workloads::{Inputs, Output, Scale};

/// Timed builds of a workload's inputs per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Untimed calls before the timed repeats, each with the counting
/// allocator on; `peak_heap_mib` is the median of their peaks (thread
/// timing moves the peak of a `train_net` call by a few frames).
const WARM_UP_CALLS: usize = 3;
/// Fewest timed repeats per workload, whatever `--seconds` says.
const MIN_REPEATS: usize = 3;

pub struct Options {
    /// Indices into `spec::WORKLOADS`, in table order.
    pub workloads: Vec<usize>,
    pub seed: u64,
    /// Timed-region budget per workload.
    pub seconds: f64,
    pub smoke: bool,
    /// Spend the whole budget on timed repeats and report the end-to-end
    /// metrics (otherwise a third of it, just enough for the overhead
    /// figure of the traced pass).
    pub timed: bool,
    pub traced: bool,
}

pub struct WorkloadResult {
    pub index: usize,
    /// End-to-end calls made and judged: the warm-up call and every timed
    /// repeat (and the traced calls, when that pass ran).
    pub attempted: u64,
    /// Calls that returned an error or failed an output check.
    pub failed: u64,
    pub failures: Vec<String>,
    pub units_per_call: f64,
    /// (metric, summary over its samples), in `spec::END_TO_END` order.
    pub end_to_end: Vec<(&'static str, Summary)>,
    pub per_layer: Option<Layers>,
    pub claims: Vec<Claim>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

struct State {
    index: usize,
    inputs: Inputs,
    tracer: Tracer,
    setup_s: Vec<f64>,
    first: Option<Output>,
    peak_heap_mib: f64,
    units_per_call: f64,
    wall_s: Vec<f64>,
    work_per_s: Vec<f64>,
    cpu_ns_per_unit: Vec<f64>,
    spent_s: f64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl State {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        // One line per kind of failure is enough to act on.
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Runs the selected workloads; returns their results and, per workload,
/// the tracer that holds its spans.
pub fn run(opts: &Options) -> (Vec<WorkloadResult>, Vec<Tracer>) {
    let scale = Scale { smoke: opts.smoke };
    let epoch = Stopwatch::start();
    // Smoke makes its two repeats and stops.
    let (budget_s, min_repeats) = match (opts.smoke, opts.timed) {
        (true, _) => (0.0, 2),
        (false, true) => (opts.seconds, MIN_REPEATS),
        (false, false) => (opts.seconds / 3.0, MIN_REPEATS),
    };

    // Set-up, several times over; the last build is the one that is used,
    // and the only one whose spans are kept.
    let mut states: Vec<State> = opts
        .workloads
        .iter()
        .map(|&index| {
            let repeats = if opts.smoke { 1 } else { SETUP_REPEATS };
            let mut setup_s = Vec::with_capacity(repeats);
            let mut built = None;
            for _ in 0..repeats {
                drop(built.take());
                let mut tracer = Tracer::new(index, epoch);
                let start = Stopwatch::start();
                let inputs = Inputs::build(index, opts.seed, scale, &mut tracer);
                setup_s.push(start.elapsed_s());
                built = Some((inputs, tracer));
            }
            let (inputs, tracer) = built.expect("at least one set-up repeat");
            State {
                index,
                inputs,
                tracer,
                setup_s,
                first: None,
                peak_heap_mib: 0.0,
                units_per_call: 0.0,
                wall_s: Vec::new(),
                work_per_s: Vec::new(),
                cpu_ns_per_unit: Vec::new(),
                spent_s: 0.0,
                attempted: 0,
                failed: 0,
                failures: Vec::new(),
            }
        })
        .collect();

    // Warm-up: untimed calls with the counting allocator on. The first
    // one's output is the reference every later call must equal.
    for st in &mut states {
        let mut peaks = Vec::with_capacity(WARM_UP_CALLS);
        for _ in 0..if opts.smoke { 1 } else { WARM_UP_CALLS } {
            st.attempted += 1;
            let session = alloc::Session::open();
            let call = st.inputs.call();
            let usage = session.close();
            match call {
                Ok(call) => {
                    peaks.push(usage.peak_mib());
                    match &st.first {
                        None => {
                            st.units_per_call = call.units;
                            st.first = Some(call.output);
                        }
                        Some(first) if !first.same_bits(&call.output) => {
                            st.fail(
                                "a warm-up call's output differs from the first call's".to_string(),
                            );
                        }
                        Some(_) => {}
                    }
                }
                Err(e) => st.fail(format!("warm-up call: {e}")),
            }
        }
        st.peak_heap_mib = Summary::of(&peaks).map_or(0.0, |s| s.median);
    }

    // Timed repeats, interleaved round-robin: repeat r of every workload
    // before repeat r + 1 of any, so that a slow minute on a shared host
    // lands on all of them.
    loop {
        let mut ran = false;
        for st in &mut states {
            let repeats = st.wall_s.len();
            let wanted = repeats < min_repeats || st.spent_s < budget_s;
            let Some(first) = st.first.as_ref().filter(|_| wanted) else {
                continue;
            };
            ran = true;
            st.attempted += 1;
            let cpu_before = host::process_cpu_ns();
            let start = Stopwatch::start();
            let call = st.inputs.call();
            let wall = start.elapsed_s();
            let cpu_after = host::process_cpu_ns();
            st.spent_s += wall;
            let mut differs = false;
            match call {
                Ok(call) => {
                    st.wall_s.push(wall);
                    st.work_per_s.push(call.units / wall);
                    if let (Some(before), Some(after)) = (cpu_before, cpu_after) {
                        st.cpu_ns_per_unit.push((after - before) / call.units);
                    }
                    if !first.same_bits(&call.output) {
                        differs = true;
                    }
                }
                Err(e) => st.fail(format!("timed call: {e}")),
            }
            if differs {
                st.fail("a repeat's output differs from the first call's".to_string());
            }
        }
        if !ran {
            break;
        }
    }

    // The once-per-run checks on the reference output. Every call that
    // matched it shares its verdict.
    for st in &mut states {
        if let Some(first) = &st.first {
            let missed = st.inputs.check(first, scale);
            if !missed.is_empty() {
                st.failed = st.attempted;
                st.failures.extend(missed);
            }
        }
    }

    let mut results = Vec::with_capacity(states.len());
    let mut tracers = Vec::with_capacity(states.len());
    for mut st in states {
        let mut per_layer = None;
        let mut claims = Vec::new();
        if opts.traced && st.first.is_some() {
            let untraced = Summary::of(&st.wall_s).map(|s| s.median);
            let traced = replay::traced_pass(&st.inputs, &mut st.tracer, untraced, scale);
            // The root calls and the allocation-counted call.
            st.attempted += replay::ROOT_CALLS as u64 + 1;
            for failure in traced.failures {
                st.fail(failure);
            }
            per_layer = Some(traced.layers);
            claims = traced.claims;
        }
        let mut end_to_end = Vec::new();
        if opts.timed {
            let samples: [(&'static str, Option<Summary>); 4] = [
                ("work_per_s", Summary::of(&st.work_per_s)),
                ("cpu_ns_per_unit", Summary::of(&st.cpu_ns_per_unit)),
                ("peak_heap_mib", Some(Summary::single(st.peak_heap_mib))),
                ("setup_s", Summary::of(&st.setup_s)),
            ];
            for (name, summary) in samples {
                match summary {
                    Some(summary) => end_to_end.push((name, summary)),
                    None => st.failures.push(format!("no sample of {name}")),
                }
            }
        }
        results.push(WorkloadResult {
            index: st.index,
            attempted: st.attempted,
            failed: st.failed,
            failures: st.failures,
            units_per_call: st.units_per_call,
            end_to_end,
            per_layer,
            claims,
        });
        tracers.push(st.tracer);
    }
    (results, tracers)
}
