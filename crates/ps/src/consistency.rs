//! Consistency protocols: BSP, SSP and ASP admission control.

/// The consistency controller deciding when a worker may start its next
/// clock tick, given the slowest worker's progress.
///
/// The paper (Section III-B): "Parameter servers can leverage different
/// consistency controllers to implement different communication schemes
/// such as BSP, SSP, and ASP, by enabling or disabling requests from
/// workers."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consistency {
    /// Bulk Synchronous Parallel: a worker may start tick `c` only after
    /// every worker has completed tick `c − 1` (equivalent to SSP with
    /// staleness 0).
    Bsp,
    /// Stale Synchronous Parallel: a worker may run at most `staleness`
    /// ticks ahead of the slowest worker (Petuum's protocol).
    Ssp {
        /// Maximum allowed clock gap.
        staleness: u64,
    },
    /// Fully asynchronous: no gating.
    Asp,
}

impl Consistency {
    /// May a worker that has completed `worker_clock` ticks start its next
    /// tick, when the slowest worker has completed `min_clock` ticks?
    ///
    /// `worker_clock >= min_clock` always holds by definition of the
    /// minimum.
    #[inline]
    pub fn may_proceed(&self, worker_clock: u64, min_clock: u64) -> bool {
        debug_assert!(worker_clock >= min_clock);
        match self {
            Consistency::Bsp => worker_clock == min_clock,
            Consistency::Ssp { staleness } => worker_clock - min_clock <= *staleness,
            Consistency::Asp => true,
        }
    }

    /// Short label for benchmark output.
    pub fn label(&self) -> String {
        match self {
            Consistency::Bsp => "BSP".to_owned(),
            Consistency::Ssp { staleness } => format!("SSP(s={staleness})"),
            Consistency::Asp => "ASP".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsp_requires_lockstep() {
        let c = Consistency::Bsp;
        assert!(c.may_proceed(0, 0));
        assert!(!c.may_proceed(1, 0));
        assert!(c.may_proceed(5, 5));
        assert!(!c.may_proceed(6, 5));
    }

    #[test]
    fn ssp_allows_bounded_lead() {
        let c = Consistency::Ssp { staleness: 2 };
        assert!(c.may_proceed(0, 0));
        assert!(c.may_proceed(2, 0));
        assert!(!c.may_proceed(3, 0));
        assert!(c.may_proceed(7, 5));
        assert!(!c.may_proceed(8, 5));
    }

    #[test]
    fn ssp_zero_equals_bsp() {
        let ssp0 = Consistency::Ssp { staleness: 0 };
        for (wc, mc) in [(0u64, 0u64), (1, 0), (3, 3), (4, 3)] {
            assert_eq!(
                ssp0.may_proceed(wc, mc),
                Consistency::Bsp.may_proceed(wc, mc)
            );
        }
    }

    #[test]
    fn asp_never_blocks() {
        let c = Consistency::Asp;
        assert!(c.may_proceed(1000, 0));
    }

    #[test]
    fn labels() {
        assert_eq!(Consistency::Bsp.label(), "BSP");
        assert_eq!(Consistency::Ssp { staleness: 3 }.label(), "SSP(s=3)");
        assert_eq!(Consistency::Asp.label(), "ASP");
    }
}
