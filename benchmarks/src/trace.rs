//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer: name, start, end, the span that caused it, and the
//! workload it belongs to. They stay in memory and are written (as Chrome
//! trace-event JSON) only when the benchmark ends. Spans *inside* the
//! program are a later change (ROADMAP direction 3).

use crate::host::Stopwatch;
use crate::json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// A per-layer metric stem such as `glm.sgd_epoch`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Index into the workload table: the identifier every span of one
    /// workload's pass shares.
    pub workload: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one monotonic clock.
pub struct Tracer {
    epoch: Stopwatch,
    spans: Vec<Span>,
    stack: Vec<usize>,
    workload: usize,
}

impl Tracer {
    /// `epoch` is the zero of the time axis; tracers that share it can be
    /// exported onto one timeline.
    pub fn new(workload: usize, epoch: Stopwatch) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            workload,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed_ns()
    }

    /// Runs `f` under a new span whose parent is the innermost open span,
    /// and returns the span's index with `f`'s result.
    pub fn span_id<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (usize, R) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            workload: self.workload,
        });
        self.stack.push(id);
        let result = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        (id, result)
    }

    /// [`Tracer::span_id`] without the index.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span_id(name, f).1
    }

    /// Runs `f` with `parent` as the innermost open span, so that a
    /// replay made after the root call has ended is still recorded as
    /// caused by it.
    pub fn under<R>(&mut self, parent: usize, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.stack.push(parent);
        let result = f(self);
        self.stack.pop();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration_s(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 * 1e-9
    }

    /// Seconds and span count recorded under `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        let mut ns = 0u64;
        let mut count = 0usize;
        for s in self.spans.iter().filter(|s| s.name == name) {
            ns += s.duration_ns();
            count += 1;
        }
        (ns as f64 * 1e-9, count)
    }

    /// Seconds under `name`, 0 when nothing was recorded.
    pub fn total_s(&self, name: &str) -> f64 {
        self.total(name).0
    }

    /// Time covered by the direct children of span `id`.
    pub fn children_s(&self, id: usize) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// A span's self time: its duration minus what its children cover,
    /// never negative. A replayed child runs after its root has ended, so
    /// "covers" means the child's own duration.
    pub fn self_s(&self, id: usize) -> f64 {
        (self.duration_s(id) - self.children_s(id)).max(0.0)
    }
}

/// The spans of `tracers` as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): one complete (`X`) event per span, one row (`tid`) per
/// workload, timestamps in microseconds. Span ids are per workload.
pub fn chrome_json(tracers: &[&Tracer], workload_names: &[&str]) -> String {
    let mut events = Vec::new();
    for (tid, name) in workload_names.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
            json::string(name)
        ));
    }
    for t in tracers {
        for (id, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                s.workload,
                json::string(s.name),
                json::number(s.start_ns as f64 / 1e3),
                json::number(s.duration_ns() as f64 / 1e3),
            ));
        }
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set times: (name, start, end, parent).
    fn fixture(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new(3, Stopwatch::start());
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                workload: 3,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = fixture(&[
            ("root", 0, 1_000_000_000, None),
            ("a", 0, 300_000_000, Some(0)),
            ("a", 400_000_000, 600_000_000, Some(0)),
            ("grandchild", 0, 100_000_000, Some(1)),
        ]);
        assert!((t.children_s(0) - 0.5).abs() < 1e-12);
        assert!((t.self_s(0) - 0.5).abs() < 1e-12);
        assert!((t.self_s(1) - 0.2).abs() < 1e-12);
        assert_eq!(t.total("a"), (0.5, 2));
        assert_eq!(t.total("missing"), (0.0, 0));
    }

    #[test]
    fn self_time_never_goes_negative() {
        // A replayed child that took longer than its root.
        let t = fixture(&[("root", 0, 100, None), ("child", 200, 500, Some(0))]);
        assert_eq!(t.self_s(0), 0.0);
        assert!(t.children_s(0) > t.duration_s(0));
    }

    #[test]
    fn nesting_and_adoption_set_parents() {
        let mut t = Tracer::new(0, Stopwatch::start());
        let (root, inner) = t.span_id("root", |t| t.span_id("inner", |_| ()).0);
        t.under(root, |t| t.span("replayed", |_| ()));
        t.span("sibling", |_| ());
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("root", None),
                ("inner", Some(root)),
                ("replayed", Some(root)),
                ("sibling", None),
            ]
        );
        assert_eq!(inner, 1);
        for s in t.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let t = fixture(&[("root", 0, 2_000, None), ("kid \"q\"", 500, 1_500, Some(0))]);
        let doc = json::parse(&chrome_json(&[&t], &["w0", "w1", "w2", "w3"])).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(events.len(), 4 + 2);
        let kid = &events[5];
        assert_eq!(
            kid.get("name").and_then(json::Value::as_str),
            Some("kid \"q\"")
        );
        assert_eq!(kid.get("ts").and_then(json::Value::as_f64), Some(0.5));
        assert_eq!(kid.get("dur").and_then(json::Value::as_f64), Some(1.0));
        assert_eq!(kid.get("tid").and_then(json::Value::as_f64), Some(3.0));
    }
}
