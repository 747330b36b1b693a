//! Lazy L1 regularization via the cumulative-penalty method.
//!
//! Eager L1-regularized SGD would soft-threshold every coordinate on every
//! step (`O(d)`). The cumulative-penalty method (Tsuruoka et al., the L1
//! analogue of the lazy L2 trick the paper adopts from Bottou) tracks the
//! *total* penalty `u` every coordinate should have absorbed so far, and a
//! per-coordinate record `q[i]` of the penalty actually applied; a
//! coordinate settles its debt only when an example touches it.

use mlstar_linalg::DenseVector;

use crate::penalty::soft_threshold;

/// State for lazy (cumulative-penalty) L1 updates.
#[derive(Debug, Clone)]
pub struct LazyL1 {
    /// Total penalty per coordinate accumulated so far: `u = λ·Σ η_t`.
    u: f64,
    /// Penalty actually applied to each coordinate so far.
    q: Vec<f64>,
}

impl LazyL1 {
    /// Fresh state for a model of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        LazyL1 {
            u: 0.0,
            q: vec![0.0; dim],
        }
    }

    /// Returns the state to [`LazyL1::new`]'s for a model of dimension
    /// `dim`, reusing the per-coordinate buffer (it allocates only to grow
    /// past the largest `dim` it has held).
    pub fn reset(&mut self, dim: usize) {
        self.u = 0.0;
        self.q.clear();
        self.q.resize(dim, 0.0);
    }

    /// Records that one SGD step with effective penalty `eta * lambda` has
    /// occurred (to be applied lazily).
    #[inline]
    pub fn accumulate(&mut self, eta_lambda: f64) {
        self.u += eta_lambda;
    }

    /// Settles coordinate `i`'s penalty debt against the weight vector by
    /// soft-thresholding it with the outstanding debt `u − q[i]` (which is
    /// always ≥ 0, so the threshold clips at zero exactly like the shared
    /// kernel's dead zone), and returns the settled weight, so a caller
    /// can read each coordinate as it settles it.
    #[inline]
    pub fn apply_at(&mut self, w: &mut DenseVector, i: usize) -> f64 {
        let z = w[i];
        let settled = soft_threshold(z, self.u - self.q[i]);
        // exactly-zero coordinates owe nothing and keep their bits, so a
        // `-0.0` weight keeps its sign (`soft_threshold` would give `0.0`).
        // The settled value is computed either way and this fast path is a
        // select rather than a branch: an L1 model mixes zero and nonzero
        // coordinates too evenly for a branch to predict.
        let nw = if z == 0.0 { z } else { settled };
        w[i] = nw;
        // A zero coordinate owes nothing further until it becomes nonzero,
        // so its debt is marked settled; otherwise the settlement consumed
        // `|nw − z|` of it.
        // truncation clamps to exactly 0.0, so the check is exact
        self.q[i] = if nw == 0.0 {
            self.u
        } else {
            self.q[i] + (nw - z).abs()
        };
        nw
    }

    /// Settles every coordinate (an `O(d)` pass). Called at epoch
    /// boundaries before a model is shipped to aggregation, so that the
    /// communicated model reflects all regularization applied locally.
    pub fn finalize(&mut self, w: &mut DenseVector) {
        for i in 0..w.dim() {
            self.apply_at(w, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settles_debt_like_eager_soft_threshold() {
        let mut w = DenseVector::from_vec(vec![1.0, -1.0, 0.2]);
        let mut l1 = LazyL1::new(3);
        // Three steps of eta*lambda = 0.1 without touching any coordinate…
        for _ in 0..3 {
            l1.accumulate(0.1);
        }
        // …then settle everything.
        l1.finalize(&mut w);
        assert!((w.get(0) - 0.7).abs() < 1e-12);
        assert!((w.get(1) + 0.7).abs() < 1e-12);
        // 0.2 is clipped at zero rather than crossing sign.
        assert_eq!(w.get(2), 0.0);
    }

    #[test]
    fn incremental_settlement_matches_batch_settlement() {
        let mut w_inc = DenseVector::from_vec(vec![2.0]);
        let mut l1_inc = LazyL1::new(1);
        l1_inc.accumulate(0.3);
        l1_inc.apply_at(&mut w_inc, 0); // settle now…
        l1_inc.accumulate(0.2);
        l1_inc.apply_at(&mut w_inc, 0); // …and again

        let mut w_batch = DenseVector::from_vec(vec![2.0]);
        let mut l1_batch = LazyL1::new(1);
        l1_batch.accumulate(0.3);
        l1_batch.accumulate(0.2);
        l1_batch.apply_at(&mut w_batch, 0);

        assert!((w_inc.get(0) - w_batch.get(0)).abs() < 1e-12);
        assert!((w_inc.get(0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zeroed_coordinate_does_not_go_negative() {
        let mut w = DenseVector::from_vec(vec![0.1]);
        let mut l1 = LazyL1::new(1);
        l1.accumulate(0.5);
        l1.apply_at(&mut w, 0);
        assert_eq!(w.get(0), 0.0);
        // Further settlements leave it at zero.
        l1.accumulate(0.5);
        l1.apply_at(&mut w, 0);
        assert_eq!(w.get(0), 0.0);
    }

    #[test]
    fn reactivated_coordinate_only_owes_new_penalty() {
        let mut w = DenseVector::from_vec(vec![0.05]);
        let mut l1 = LazyL1::new(1);
        l1.accumulate(1.0);
        l1.apply_at(&mut w, 0);
        assert_eq!(w.get(0), 0.0);
        // A gradient step reactivates the coordinate.
        w.set(0, 0.5);
        // Only penalty accumulated *after* the settlement applies.
        l1.accumulate(0.1);
        l1.apply_at(&mut w, 0);
        assert!((w.get(0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut w = DenseVector::from_vec(vec![1.0, -0.3]);
        let mut l1 = LazyL1::new(2);
        l1.accumulate(0.2);
        l1.finalize(&mut w);
        let snapshot = w.clone();
        l1.finalize(&mut w);
        assert_eq!(w, snapshot);
    }
}
