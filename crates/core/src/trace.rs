//! Convergence traces: the data behind every figure in the evaluation.

use mlstar_sim::SimTime;

/// One evaluation point along a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Communication step (MLlib-family round or PS global clock).
    pub step: u64,
    /// Simulated time of the evaluation.
    pub time: SimTime,
    /// Objective `f(w, X)` on the full dataset.
    pub objective: f64,
    /// Cumulative model updates across the cluster up to this point.
    pub total_updates: u64,
}

/// The convergence curve of one system on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTrace {
    /// System name (e.g. `"MLlib*"`).
    pub system: String,
    /// Workload name (e.g. `"kdd12-like, L2=0"`).
    pub workload: String,
    /// Evaluation points in step order.
    pub points: Vec<TracePoint>,
}

impl ConvergenceTrace {
    /// An empty trace.
    pub fn new(system: impl Into<String>, workload: impl Into<String>) -> Self {
        ConvergenceTrace {
            system: system.into(),
            workload: workload.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if steps are not nondecreasing.
    pub fn push(&mut self, point: TracePoint) {
        if let Some(last) = self.points.last() {
            assert!(point.step >= last.step, "trace steps must be nondecreasing");
        }
        self.points.push(point);
    }

    /// The final objective (the last point's), if any.
    pub fn final_objective(&self) -> Option<f64> {
        self.points.last().map(|p| p.objective)
    }

    /// The minimum objective along the trace, skipping NaN points (a
    /// diverged run ends on one); `None` if no other point is left.
    pub fn best_objective(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.objective)
            .filter(|f| !f.is_nan())
            .min_by(|a, b| a.total_cmp(b))
    }

    /// The first step at which the objective is `≤ target`.
    pub fn steps_to_reach(&self, target: f64) -> Option<u64> {
        self.points
            .iter()
            .find(|p| p.objective <= target)
            .map(|p| p.step)
    }

    /// The first simulated time (seconds) at which the objective is
    /// `≤ target`.
    pub fn time_to_reach(&self, target: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.objective <= target)
            .map(|p| p.time.as_secs_f64())
    }

    /// The paper's speedup metric: how many times faster `self` reaches
    /// `target` than `other`, in simulated time. `None` if `self` never
    /// reaches it; `f64::INFINITY` if only `other` never does.
    pub fn speedup_over(&self, other: &ConvergenceTrace, target: f64) -> Option<f64> {
        let mine = self.time_to_reach(target)?;
        match other.time_to_reach(target) {
            Some(theirs) => Some(theirs / mine.max(1e-12)),
            None => Some(f64::INFINITY),
        }
    }

    /// Like [`ConvergenceTrace::speedup_over`] but counting communication
    /// steps (the left plots of Figure 4).
    pub fn step_speedup_over(&self, other: &ConvergenceTrace, target: f64) -> Option<f64> {
        let mine = self.steps_to_reach(target)? as f64;
        match other.steps_to_reach(target) {
            Some(theirs) => Some(theirs as f64 / mine.max(1.0)),
            None => Some(f64::INFINITY),
        }
    }

    /// CSV export: `system,workload,step,time_s,objective,total_updates`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("system,workload,step,time_s,objective,total_updates\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{},{:.6},{:.6},{}\n",
                self.system,
                self.workload,
                p.step,
                p.time.as_secs_f64(),
                p.objective,
                p.total_updates
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_sim::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    fn sample() -> ConvergenceTrace {
        let mut tr = ConvergenceTrace::new("MLlib*", "test");
        for (step, secs, obj) in [
            (0u64, 0.0, 1.0),
            (1, 2.0, 0.5),
            (2, 4.0, 0.2),
            (3, 6.0, 0.25),
        ] {
            tr.push(TracePoint {
                step,
                time: t(secs),
                objective: obj,
                total_updates: step * 10,
            });
        }
        tr
    }

    #[test]
    fn accessors() {
        let tr = sample();
        assert_eq!(tr.final_objective(), Some(0.25));
        assert_eq!(tr.best_objective(), Some(0.2));
        assert_eq!(tr.steps_to_reach(0.5), Some(1));
        assert_eq!(tr.steps_to_reach(0.21), Some(2));
        assert_eq!(tr.steps_to_reach(0.1), None);
        assert_eq!(tr.time_to_reach(0.5), Some(2.0));
    }

    #[test]
    fn speedups() {
        let fast = sample();
        let mut slow = ConvergenceTrace::new("MLlib", "test");
        slow.push(TracePoint {
            step: 0,
            time: t(0.0),
            objective: 1.0,
            total_updates: 0,
        });
        slow.push(TracePoint {
            step: 100,
            time: t(200.0),
            objective: 0.5,
            total_updates: 100,
        });
        assert_eq!(fast.speedup_over(&slow, 0.5), Some(100.0));
        assert_eq!(fast.step_speedup_over(&slow, 0.5), Some(100.0));
        // Target the slow system never reaches.
        assert_eq!(fast.speedup_over(&slow, 0.3), Some(f64::INFINITY));
        // Target the fast system never reaches.
        assert_eq!(fast.speedup_over(&slow, 0.01), None);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn rejects_decreasing_steps() {
        let mut tr = sample();
        tr.push(TracePoint {
            step: 1,
            time: t(9.0),
            objective: 0.1,
            total_updates: 0,
        });
    }

    #[test]
    fn csv_export() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("system,workload,step,time_s,objective,total_updates\n"));
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.contains("MLlib*,test,1,2.000000,0.5"));
    }

    #[test]
    fn best_objective_skips_nan_points() {
        // A NaN made by arithmetic (x86 sets its sign bit, which
        // `total_cmp` orders below every number) and both literal signs.
        let inf = std::hint::black_box(f64::INFINITY);
        for nan in [inf - inf, f64::NAN, -f64::NAN] {
            let mut tr = ConvergenceTrace::new("x", "y");
            for (step, objective) in [(0, 0.7), (1, 0.5), (2, nan)] {
                tr.push(TracePoint {
                    step,
                    time: t(step as f64),
                    objective,
                    total_updates: step,
                });
            }
            assert_eq!(tr.best_objective(), Some(0.5));
            tr.points.clear();
            tr.push(TracePoint {
                step: 0,
                time: t(0.0),
                objective: nan,
                total_updates: 0,
            });
            assert_eq!(tr.best_objective(), None);
        }
    }

    #[test]
    fn empty_trace() {
        let tr = ConvergenceTrace::new("x", "y");
        assert_eq!(tr.final_objective(), None);
        assert_eq!(tr.best_objective(), None);
        assert_eq!(tr.steps_to_reach(0.0), None);
    }
}
