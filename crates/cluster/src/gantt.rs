//! Gantt-chart recording: the instrumentation behind Figure 3.

use std::fmt;

use crate::time::SimTime;

/// A node in the simulated cluster, for span labeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// The Spark driver.
    Driver,
    /// Executor `r` (0-based).
    Executor(usize),
    /// Parameter-server shard `s` (0-based).
    Server(usize),
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Driver => write!(f, "Driver"),
            NodeId::Executor(r) => write!(f, "Executor {}", r + 1),
            NodeId::Server(s) => write!(f, "Server {}", s + 1),
        }
    }
}

/// The activity occupying a node during a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Local gradient/model computation.
    Compute,
    /// Sending gradients toward the driver (SendGradient paradigm).
    SendGradient,
    /// Sending a local model toward the aggregator (SendModel paradigm).
    SendModel,
    /// Driver broadcasting the model to executors.
    Broadcast,
    /// Hierarchical (treeAggregate) intermediate aggregation.
    TreeAggregate,
    /// Driver-side model update / aggregation.
    DriverUpdate,
    /// First shuffle phase of AllReduce.
    ReduceScatter,
    /// Second shuffle phase of AllReduce.
    AllGather,
    /// Pushing updates to a parameter server.
    PsPush,
    /// Pulling the model from a parameter server.
    PsPull,
    /// Parameter-server-side update application.
    ServerUpdate,
    /// Blocked at a barrier / waiting on another node.
    Wait,
}

/// The coarse phase an [`Activity`] is charged to when building per-round
/// time breakdowns (compute vs. communication vs. idle).
///
/// Aggregation activities ([`Activity::TreeAggregate`],
/// [`Activity::ReduceScatter`]) bundle a small combine computation with
/// the transfer they model; they are charged to
/// [`ActivityKind::Communication`] because the transfer dominates and the
/// span exists only because data moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivityKind {
    /// Local gradient/model/server computation.
    Compute,
    /// Moving bytes between nodes (including bundled combine work).
    Communication,
    /// Blocked at a barrier or waiting on a straggler.
    Idle,
}

impl Activity {
    /// Every activity, in a fixed order (for serialization and legends).
    pub const ALL: [Activity; 12] = [
        Activity::Compute,
        Activity::SendGradient,
        Activity::SendModel,
        Activity::Broadcast,
        Activity::TreeAggregate,
        Activity::DriverUpdate,
        Activity::ReduceScatter,
        Activity::AllGather,
        Activity::PsPush,
        Activity::PsPull,
        Activity::ServerUpdate,
        Activity::Wait,
    ];

    /// The coarse phase this activity is charged to.
    pub fn kind(self) -> ActivityKind {
        match self {
            Activity::Compute | Activity::DriverUpdate | Activity::ServerUpdate => {
                ActivityKind::Compute
            }
            Activity::Wait => ActivityKind::Idle,
            Activity::SendGradient
            | Activity::SendModel
            | Activity::Broadcast
            | Activity::TreeAggregate
            | Activity::ReduceScatter
            | Activity::AllGather
            | Activity::PsPush
            | Activity::PsPull => ActivityKind::Communication,
        }
    }

    /// One-character code used by the text renderer.
    pub fn code(self) -> char {
        match self {
            Activity::Compute => 'C',
            Activity::SendGradient => 'g',
            Activity::SendModel => 'm',
            Activity::Broadcast => 'B',
            Activity::TreeAggregate => 'T',
            Activity::DriverUpdate => 'U',
            Activity::ReduceScatter => 'R',
            Activity::AllGather => 'A',
            Activity::PsPush => 'p',
            Activity::PsPull => 'q',
            Activity::ServerUpdate => 'S',
            Activity::Wait => '.',
        }
    }

    /// The inverse of [`Activity::code`]: `None` for characters that are
    /// not an activity code. Round-tripping through `code` lets durable
    /// formats (checkpoints) store a span's activity in one byte.
    pub fn from_code(code: char) -> Option<Activity> {
        Activity::ALL.into_iter().find(|a| a.code() == code)
    }

    /// Short name for the CSV export / legend.
    pub fn name(self) -> &'static str {
        match self {
            Activity::Compute => "compute",
            Activity::SendGradient => "send_gradient",
            Activity::SendModel => "send_model",
            Activity::Broadcast => "broadcast",
            Activity::TreeAggregate => "tree_aggregate",
            Activity::DriverUpdate => "driver_update",
            Activity::ReduceScatter => "reduce_scatter",
            Activity::AllGather => "all_gather",
            Activity::PsPush => "ps_push",
            Activity::PsPull => "ps_pull",
            Activity::ServerUpdate => "server_update",
            Activity::Wait => "wait",
        }
    }
}

/// One recorded activity span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The node performing the activity.
    pub node: NodeId,
    /// What the node was doing.
    pub activity: Activity,
    /// Span start.
    pub start: SimTime,
    /// Span end (≥ start).
    pub end: SimTime,
    /// The communication round / superstep this span belongs to.
    pub round: u64,
}

/// Records per-node activity spans during a simulated run and renders them
/// as the text analogue of the paper's Figure 3 Gantt charts.
#[derive(Debug, Clone, Default)]
pub struct GanttRecorder {
    spans: Vec<Span>,
}

impl GanttRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        GanttRecorder::default()
    }

    /// Rebuilds a recorder from previously recorded spans (checkpoint
    /// restore). Recording order is preserved.
    ///
    /// # Panics
    ///
    /// Panics if any span ends before it starts — such a span can only
    /// come from a corrupted source, never from [`GanttRecorder::record`].
    pub fn from_spans(spans: Vec<Span>) -> Self {
        for s in &spans {
            assert!(s.end >= s.start, "span ends before it starts");
        }
        GanttRecorder { spans }
    }

    /// Records a span. Zero-length spans are kept (they mark instantaneous
    /// events in CSV) but skipped by the text renderer.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn record(
        &mut self,
        node: NodeId,
        activity: Activity,
        start: SimTime,
        end: SimTime,
        round: u64,
    ) {
        assert!(end >= start, "span ends before it starts");
        self.spans.push(Span {
            node,
            activity,
            start,
            end,
            round,
        });
    }

    /// All recorded spans in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Latest span end, i.e. the simulated makespan.
    pub fn makespan(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total busy (non-Wait) time of a node.
    pub fn busy_time(&self, node: NodeId) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.node == node && s.activity != Activity::Wait)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Utilization of a node in `[0, 1]` relative to the makespan.
    pub fn utilization(&self, node: NodeId) -> f64 {
        let total = self.makespan().as_secs_f64();
        // exact-zero guard against dividing by an empty makespan
        if total == 0.0 {
            0.0
        } else {
            self.busy_time(node) / total
        }
    }

    /// The distinct nodes that appear, sorted (Driver, then executors,
    /// then servers).
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.spans.iter().map(|s| s.node).collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Renders an ASCII Gantt chart: one row per node, `width` columns
    /// spanning `[0, until]`, each cell showing the activity code that
    /// occupies most of that cell's time slice (`' '` if idle).
    pub fn render_text(&self, width: usize, until: SimTime) -> String {
        let width = width.max(10);
        let horizon = until.as_secs_f64().max(1e-9);
        let nodes = self.nodes();
        let label_width = nodes.iter().map(|n| n.to_string().len()).max().unwrap_or(6);
        let mut out = String::new();
        for node in &nodes {
            let mut row = vec![' '; width];
            for s in self.spans.iter().filter(|s| s.node == *node) {
                if s.start >= until || s.end == s.start {
                    continue;
                }
                let a = ((s.start.as_secs_f64() / horizon) * width as f64).floor() as usize;
                let b =
                    ((s.end.as_secs_f64().min(horizon) / horizon) * width as f64).ceil() as usize;
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = s.activity.code();
                }
            }
            let line: String = row.into_iter().collect();
            out.push_str(&format!("{:<label_width$} |{}|\n", node.to_string(), line));
        }
        out.push_str(&format!(
            "{:<label_width$}  0s{:>pad$}\n",
            "",
            format!("{:.1}s", horizon),
            pad = width - 1
        ));
        out
    }

    /// CSV export: `node,activity,start_s,end_s,round`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("node,activity,start_s,end_s,round\n");
        for s in &self.spans {
            out.push_str(&format!(
                "{},{},{:.6},{:.6},{}\n",
                s.node,
                s.activity.name(),
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                s.round
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn records_and_measures() {
        let mut g = GanttRecorder::new();
        g.record(NodeId::Driver, Activity::Broadcast, t(0.0), t(1.0), 0);
        g.record(NodeId::Executor(0), Activity::Compute, t(1.0), t(3.0), 0);
        g.record(NodeId::Executor(0), Activity::Wait, t(3.0), t(4.0), 0);
        assert_eq!(g.spans().len(), 3);
        assert!((g.makespan().as_secs_f64() - 4.0).abs() < 1e-9);
        assert!((g.busy_time(NodeId::Executor(0)) - 2.0).abs() < 1e-9);
        assert!((g.utilization(NodeId::Executor(0)) - 0.5).abs() < 1e-9);
        assert!((g.utilization(NodeId::Driver) - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ends before")]
    fn rejects_backwards_span() {
        let mut g = GanttRecorder::new();
        g.record(NodeId::Driver, Activity::Compute, t(2.0), t(1.0), 0);
    }

    #[test]
    fn nodes_sorted_driver_first() {
        let mut g = GanttRecorder::new();
        g.record(NodeId::Executor(1), Activity::Compute, t(0.0), t(1.0), 0);
        g.record(NodeId::Driver, Activity::Broadcast, t(0.0), t(1.0), 0);
        g.record(NodeId::Executor(0), Activity::Compute, t(0.0), t(1.0), 0);
        assert_eq!(
            g.nodes(),
            vec![NodeId::Driver, NodeId::Executor(0), NodeId::Executor(1)]
        );
    }

    #[test]
    fn text_render_shows_codes() {
        let mut g = GanttRecorder::new();
        g.record(NodeId::Driver, Activity::Broadcast, t(0.0), t(5.0), 0);
        g.record(NodeId::Executor(0), Activity::Compute, t(5.0), t(10.0), 0);
        let text = g.render_text(20, t(10.0));
        assert!(text.contains("Driver"));
        assert!(text.contains("Executor 1"));
        assert!(text.contains('B'));
        assert!(text.contains('C'));
        // Driver's row shows B only in the first half.
        let driver_line = text.lines().next().unwrap();
        let cells: String = driver_line.chars().skip_while(|c| *c != '|').collect();
        assert!(cells.starts_with("|BB"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut g = GanttRecorder::new();
        g.record(NodeId::Server(2), Activity::ServerUpdate, t(0.5), t(1.0), 3);
        let csv = g.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "node,activity,start_s,end_s,round");
        let row = lines.next().unwrap();
        assert!(row.contains("Server 3"));
        assert!(row.contains("server_update"));
        assert!(row.contains("0.500000"));
        assert!(row.ends_with(",3"));
    }

    #[test]
    fn empty_recorder_is_sane() {
        let g = GanttRecorder::new();
        assert_eq!(g.makespan(), SimTime::ZERO);
        assert_eq!(g.nodes(), Vec::<NodeId>::new());
        assert_eq!(g.utilization(NodeId::Driver), 0.0);
        assert!(g.to_csv().starts_with("node,"));
    }

    #[test]
    fn activity_codes_are_unique_and_roundtrip() {
        let mut codes: Vec<char> = Activity::ALL.iter().map(|a| a.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Activity::ALL.len());
        for a in Activity::ALL {
            assert!(!a.name().is_empty());
            assert_eq!(Activity::from_code(a.code()), Some(a));
        }
        assert_eq!(Activity::from_code('Z'), None);
    }

    #[test]
    fn from_spans_restores_recording_order() {
        let mut g = GanttRecorder::new();
        g.record(NodeId::Driver, Activity::Broadcast, t(0.0), t(1.0), 0);
        g.record(NodeId::Executor(3), Activity::Compute, t(1.0), t(2.0), 1);
        let restored = GanttRecorder::from_spans(g.spans().to_vec());
        assert_eq!(restored.spans(), g.spans());
        assert_eq!(restored.makespan(), g.makespan());
    }

    #[test]
    #[should_panic(expected = "ends before")]
    fn from_spans_rejects_backwards_span() {
        let span = Span {
            node: NodeId::Driver,
            activity: Activity::Compute,
            start: t(2.0),
            end: t(1.0),
            round: 0,
        };
        let _ = GanttRecorder::from_spans(vec![span]);
    }

    #[test]
    fn activity_kinds_partition_the_phases() {
        assert_eq!(Activity::Compute.kind(), ActivityKind::Compute);
        assert_eq!(Activity::DriverUpdate.kind(), ActivityKind::Compute);
        assert_eq!(Activity::ServerUpdate.kind(), ActivityKind::Compute);
        assert_eq!(Activity::Wait.kind(), ActivityKind::Idle);
        for comm in [
            Activity::SendGradient,
            Activity::SendModel,
            Activity::Broadcast,
            Activity::TreeAggregate,
            Activity::ReduceScatter,
            Activity::AllGather,
            Activity::PsPush,
            Activity::PsPull,
        ] {
            assert_eq!(comm.kind(), ActivityKind::Communication, "{}", comm.name());
        }
    }
}
