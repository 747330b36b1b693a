//! Median and quartile arithmetic for repeated measurements.

/// Median, quartiles and sample count of one metric's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A value measured once: no dispersion to report.
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Summarizes `values`; `None` when there are none.
    ///
    /// The cut points are those of Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method), so a
    /// spread computed from a result file equals the one the acceptance
    /// procedure computes from the same numbers.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        match sorted.len() {
            0 => None,
            1 => Some(Summary::single(sorted[0])),
            n => Some(Summary {
                median: cut_point(&sorted, 2),
                q1: cut_point(&sorted, 1),
                q3: cut_point(&sorted, 3),
                n,
            }),
        }
    }

    /// Inter-quartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        // lint:allow(float_eq): guards the division; an exactly-zero median has no relative spread
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th of the three quartile cut points of `sorted` (len ≥ 2).
fn cut_point(sorted: &[f64], i: usize) -> f64 {
    let m = sorted.len();
    let j = (i * (m + 1) / 4).clamp(1, m - 1);
    let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[20.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn degenerate_sample_sizes() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::single(0.0).spread(), 0.0);
    }
}
