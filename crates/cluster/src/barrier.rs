//! BSP superstep composition.

use std::collections::BTreeMap;

use crate::gantt::{Activity, ActivityKind, GanttRecorder, NodeId};
use crate::time::{SimDuration, SimTime};

/// Per-phase wall-clock totals of one BSP round, in seconds, averaged over
/// the participating nodes so that the four phases sum to the round's
/// elapsed simulated time (every node's spans tile the round exactly:
/// `work` advances a clock by the span it records, and barriers fill the
/// gaps with [`Activity::Wait`] spans).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    /// Time in [`ActivityKind::Compute`] activities.
    pub compute_s: f64,
    /// Time in [`ActivityKind::Communication`] activities.
    pub comm_s: f64,
    /// Time in [`ActivityKind::Idle`] (barrier/straggler waits).
    pub idle_s: f64,
    /// Time inside a failure-recovery window (see
    /// [`RoundBuilder::set_recovery`]), regardless of activity kind.
    pub recovery_s: f64,
}

impl PhaseTotals {
    /// Sum of the four phases — equals the round's elapsed seconds up to
    /// floating-point rounding.
    pub fn sum(&self) -> f64 {
        self.compute_s + self.comm_s + self.idle_s + self.recovery_s
    }

    fn charge(&mut self, kind: ActivityKind, secs: f64, in_recovery: bool) {
        if in_recovery {
            self.recovery_s += secs;
        } else {
            match kind {
                ActivityKind::Compute => self.compute_s += secs,
                ActivityKind::Communication => self.comm_s += secs,
                ActivityKind::Idle => self.idle_s += secs,
            }
        }
    }

    fn averaged(mut self, nodes: usize) -> PhaseTotals {
        let inv = 1.0 / nodes as f64;
        self.compute_s *= inv;
        self.comm_s *= inv;
        self.idle_s *= inv;
        self.recovery_s *= inv;
        self
    }
}

/// Builds one BSP communication round as a sequence of per-node work
/// phases separated by barriers, recording Gantt spans as it goes.
///
/// Each participating node carries a local clock; `work` advances one
/// node's clock, `barrier` aligns every clock to the maximum (recording
/// [`Activity::Wait`] spans for early finishers — the visible idle bars of
/// Figure 3(a)).
#[derive(Debug)]
pub struct RoundBuilder<'a> {
    gantt: &'a mut GanttRecorder,
    round: u64,
    clocks: BTreeMap<NodeId, SimTime>,
    phases: PhaseTotals,
    in_recovery: bool,
}

impl<'a> RoundBuilder<'a> {
    /// Starts a round at `start` for the given nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(gantt: &'a mut GanttRecorder, round: u64, start: SimTime, nodes: &[NodeId]) -> Self {
        assert!(!nodes.is_empty(), "a round needs at least one node");
        let clocks = nodes.iter().map(|&n| (n, start)).collect();
        RoundBuilder {
            gantt,
            round,
            clocks,
            phases: PhaseTotals::default(),
            in_recovery: false,
        }
    }

    /// The local clock of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of this round.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: membership is the API contract"
    )]
    pub fn clock(&self, node: NodeId) -> SimTime {
        *self.clocks.get(&node).expect("node participates in round")
    }

    /// Performs `duration` of `activity` on `node`, recording the span and
    /// advancing the node's clock. Zero-duration work records nothing.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of this round.
    pub fn work(&mut self, node: NodeId, activity: Activity, duration: SimDuration) {
        #[expect(
            clippy::expect_used,
            reason = "documented panic: membership is the API contract"
        )]
        let clock = self
            .clocks
            .get_mut(&node)
            .expect("node participates in round");
        if duration > SimDuration::ZERO {
            self.gantt
                .record(node, activity, *clock, *clock + duration, self.round);
        }
        self.phases
            .charge(activity.kind(), duration.as_secs_f64(), self.in_recovery);
        *clock += duration;
    }

    /// Aligns every node to the latest clock, recording `Wait` spans for
    /// the nodes that arrive early. Returns the barrier time.
    pub fn barrier(&mut self) -> SimTime {
        #[expect(
            clippy::expect_used,
            reason = "rounds are built from a nonempty node set"
        )]
        let latest = self.clocks.values().copied().max().expect("nonempty");
        for (&node, clock) in self.clocks.iter_mut() {
            if *clock < latest {
                self.gantt
                    .record(node, Activity::Wait, *clock, latest, self.round);
                self.phases.charge(
                    ActivityKind::Idle,
                    latest.since(*clock).as_secs_f64(),
                    self.in_recovery,
                );
                *clock = latest;
            }
        }
        latest
    }

    /// Marks subsequent work and waits as failure recovery: their time is
    /// charged to [`PhaseTotals::recovery_s`] instead of the activity's
    /// normal phase until recovery is switched off again.
    pub fn set_recovery(&mut self, on: bool) {
        self.in_recovery = on;
    }

    /// Finishes the round: implicit final barrier, returning the round end
    /// time.
    pub fn finish(self) -> SimTime {
        self.finish_with_phases().0
    }

    /// Like [`RoundBuilder::finish`], also returning the per-phase time
    /// breakdown averaged over the participating nodes (so the phases sum
    /// to the round's elapsed time).
    pub fn finish_with_phases(mut self) -> (SimTime, PhaseTotals) {
        let end = self.barrier();
        let n = self.clocks.len();
        (end, self.phases.averaged(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn work_advances_only_that_node() {
        let mut g = GanttRecorder::new();
        let nodes = [NodeId::Executor(0), NodeId::Executor(1)];
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        rb.work(NodeId::Executor(0), Activity::Compute, secs(2.0));
        assert!((rb.clock(NodeId::Executor(0)).as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(rb.clock(NodeId::Executor(1)), SimTime::ZERO);
    }

    #[test]
    fn barrier_aligns_and_records_wait() {
        let mut g = GanttRecorder::new();
        let nodes = [NodeId::Executor(0), NodeId::Executor(1)];
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        rb.work(NodeId::Executor(0), Activity::Compute, secs(3.0));
        rb.work(NodeId::Executor(1), Activity::Compute, secs(1.0));
        let t = rb.barrier();
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-9);
        assert_eq!(rb.clock(NodeId::Executor(1)), t);
        // Executor 2 waited 1→3.
        let wait = g
            .spans()
            .iter()
            .find(|s| s.activity == Activity::Wait)
            .expect("wait span recorded");
        assert_eq!(wait.node, NodeId::Executor(1));
        assert!((wait.start.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((wait.end.as_secs_f64() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn chained_phases_accumulate() {
        let mut g = GanttRecorder::new();
        let nodes = [NodeId::Driver, NodeId::Executor(0)];
        let mut rb = RoundBuilder::new(&mut g, 5, SimTime::ZERO, &nodes);
        rb.work(NodeId::Driver, Activity::Broadcast, secs(1.0));
        rb.barrier();
        rb.work(NodeId::Executor(0), Activity::Compute, secs(2.0));
        rb.barrier();
        rb.work(NodeId::Driver, Activity::DriverUpdate, secs(0.5));
        let end = rb.finish();
        assert!((end.as_secs_f64() - 3.5).abs() < 1e-9);
        // All spans carry the round number.
        assert!(g.spans().iter().all(|s| s.round == 5));
    }

    #[test]
    fn zero_duration_work_records_no_span() {
        let mut g = GanttRecorder::new();
        let nodes = [NodeId::Executor(0)];
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        rb.work(NodeId::Executor(0), Activity::Compute, SimDuration::ZERO);
        assert!(g.spans().is_empty());
    }

    #[test]
    fn rounds_can_start_at_nonzero_time() {
        let mut g = GanttRecorder::new();
        let start = SimTime::ZERO + secs(10.0);
        let nodes = [NodeId::Executor(0)];
        let mut rb = RoundBuilder::new(&mut g, 1, start, &nodes);
        rb.work(NodeId::Executor(0), Activity::Compute, secs(1.0));
        let end = rb.finish();
        assert!((end.as_secs_f64() - 11.0).abs() < 1e-9);
        assert!((g.spans()[0].start.as_secs_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_round_rejected() {
        let mut g = GanttRecorder::new();
        let _ = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &[]);
    }

    #[test]
    fn phases_sum_to_elapsed() {
        let mut g = GanttRecorder::new();
        let nodes = [NodeId::Driver, NodeId::Executor(0), NodeId::Executor(1)];
        let start = SimTime::ZERO + secs(5.0);
        let mut rb = RoundBuilder::new(&mut g, 0, start, &nodes);
        rb.work(NodeId::Driver, Activity::Broadcast, secs(1.0));
        rb.barrier();
        rb.work(NodeId::Executor(0), Activity::Compute, secs(3.0));
        rb.work(NodeId::Executor(1), Activity::Compute, secs(1.0));
        rb.barrier();
        rb.work(NodeId::Driver, Activity::DriverUpdate, secs(0.5));
        let (end, phases) = rb.finish_with_phases();
        let elapsed = end.since(start).as_secs_f64();
        assert!(
            (phases.sum() - elapsed).abs() < 1e-9,
            "{phases:?} vs {elapsed}"
        );
        // Per-node averages: compute (3+1+0.5)/3, comm 1/3, idle the rest.
        assert!((phases.compute_s - 4.5 / 3.0).abs() < 1e-9);
        assert!((phases.comm_s - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(phases.recovery_s, 0.0);
        assert!(phases.idle_s > 0.0);
    }

    #[test]
    fn recovery_window_charges_to_recovery() {
        let mut g = GanttRecorder::new();
        let nodes = [NodeId::Executor(0), NodeId::Executor(1)];
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        rb.work(NodeId::Executor(0), Activity::Compute, secs(1.0));
        rb.set_recovery(true);
        rb.work(NodeId::Executor(1), Activity::Compute, secs(2.0));
        rb.barrier();
        rb.set_recovery(false);
        let (end, phases) = rb.finish_with_phases();
        // Recovery holds executor 1's redo (2 s) plus executor 0's wait
        // (1 s), averaged over 2 nodes.
        assert!((phases.recovery_s - 1.5).abs() < 1e-9, "{phases:?}");
        assert!((phases.compute_s - 0.5).abs() < 1e-9);
        assert!((phases.sum() - end.as_secs_f64()).abs() < 1e-9);
    }
}
