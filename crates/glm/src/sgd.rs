//! Worker-side update kernels: per-example SGD epochs (lazy and eager) and
//! single mini-batch GD steps.
//!
//! These three functions are the local computations performed by every
//! system in the paper:
//!
//! | System | Local computation per communication step |
//! |---|---|
//! | MLlib | [`crate::batch_gradient`] only (driver applies the update) |
//! | MLlib+MA / MLlib\* | [`sgd_epoch_lazy`] over the local partition |
//! | Petuum (reg = 0) | [`sgd_epoch_lazy`] over one batch |
//! | Petuum (reg ≠ 0) | [`mgd_step`] on one batch |
//! | Angel | [`mgd_step`] per batch, communicated per epoch |

use mlstar_linalg::{DenseVector, ScaledVector, SparseVector};

use crate::{soft_threshold, LazyL1, LearningRate, Loss, Regularizer};

/// Runs one pass of per-example SGD over `order`, using lazy regularization
/// updates so each step costs `O(nnz(x))`.
///
/// * `L2`: the shrink `(1 - ηλ)` is folded into the [`ScaledVector`] scale
///   factor (Bottou's trick, as in MLlib\*'s "threshold-based, lazy method").
/// * `L1`: cumulative-penalty soft-thresholding on touched coordinates,
///   finalized at the end of the pass.
/// * `None`: plain sparse SGD.
///
/// `t0` is the global update counter at entry (drives the learning-rate
/// schedule); the new counter is returned.
///
/// # Panics
///
/// Panics if `order` contains out-of-bounds indices or `rows`/`labels`
/// lengths differ.
#[allow(
    clippy::too_many_arguments,
    reason = "a worker kernel takes the objective, the model, the rows and the visit order as separate borrows"
)]
pub fn sgd_epoch_lazy(
    loss: Loss,
    reg: Regularizer,
    w: &mut ScaledVector,
    rows: &[SparseVector],
    labels: &[f64],
    order: &[usize],
    lr: LearningRate,
    t0: u64,
) -> u64 {
    assert_eq!(rows.len(), labels.len(), "one label per row required");
    let mut t = t0;
    match reg {
        Regularizer::None => {
            for &i in order {
                let eta = lr.eta(t);
                let d = loss.dloss(w.dot_sparse(&rows[i]), labels[i]);
                // exact-zero subgradient means no update — a sparsity fast path
                if d != 0.0 {
                    w.axpy_sparse(-eta * d, &rows[i]);
                }
                t += 1;
            }
        }
        Regularizer::L2 { lambda } => {
            for &i in order {
                let eta = lr.eta(t);
                let d = loss.dloss(w.dot_sparse(&rows[i]), labels[i]);
                // Shrink first (acts on w_{t-1}), then take the loss step,
                // matching w ← (1-ηλ)·w − η·d·x.
                w.scale_by((1.0 - eta * lambda).max(0.0));
                // exact-zero subgradient means no update — a sparsity fast path
                if d != 0.0 {
                    w.axpy_sparse(-eta * d, &rows[i]);
                }
                t += 1;
            }
        }
        Regularizer::L1 { lambda } => {
            let dense = w.dense_mut();
            let mut l1 = LazyL1::new(dense.dim());
            for &i in order {
                let eta = lr.eta(t);
                // Settle the touched coordinates' debt before reading them.
                for (j, _) in rows[i].iter() {
                    l1.apply_at(dense, j);
                }
                let d = loss.dloss(dense.dot_sparse(&rows[i]), labels[i]);
                // exact-zero subgradient means no update — a sparsity fast path
                if d != 0.0 {
                    dense.axpy_sparse(-eta * d, &rows[i]);
                }
                l1.accumulate(eta * lambda);
                t += 1;
            }
            l1.finalize(dense);
        }
    }
    t
}

/// Runs one pass of per-example SGD with *eager* (dense) regularization
/// updates. Semantically equivalent to [`sgd_epoch_lazy`] but `O(d)` per
/// step under L2/L1; kept as the correctness oracle and for the
/// lazy-vs-eager ablation benchmark.
#[allow(
    clippy::too_many_arguments,
    reason = "a worker kernel takes the objective, the model, the rows and the visit order as separate borrows"
)]
pub fn sgd_epoch_eager(
    loss: Loss,
    reg: Regularizer,
    w: &mut DenseVector,
    rows: &[SparseVector],
    labels: &[f64],
    order: &[usize],
    lr: LearningRate,
    t0: u64,
) -> u64 {
    assert_eq!(rows.len(), labels.len(), "one label per row required");
    let mut t = t0;
    for &i in order {
        let eta = lr.eta(t);
        let d = loss.dloss(w.dot_sparse(&rows[i]), labels[i]);
        match reg {
            Regularizer::None => {}
            Regularizer::L2 { lambda } => w.scale((1.0 - eta * lambda).max(0.0)),
            Regularizer::L1 { lambda } => {
                // Eager soft-threshold of every coordinate by η·λ, through
                // the same kernel the lazy form and the penalties use.
                let tau = eta * lambda;
                for j in 0..w.dim() {
                    w.set(j, soft_threshold(w.get(j), tau));
                }
            }
        }
        // exact-zero subgradient means no update — a sparsity fast path
        if d != 0.0 {
            w.axpy_sparse(-eta * d, &rows[i]);
        }
        t += 1;
    }
    t
}

/// One mini-batch gradient-descent step (the body of Algorithm 1):
///
/// ```text
/// w ← w − η·g_B − η·∇Ω(w)
/// ```
///
/// where `g_B` is the average loss gradient over `batch`. Returns the batch
/// gradient's squared norm (used by convergence diagnostics).
///
/// # Panics
///
/// Panics if `batch` is empty.
#[allow(
    clippy::too_many_arguments,
    reason = "a worker kernel takes the objective, the model, the rows and the visit order as separate borrows"
)]
pub fn mgd_step(
    loss: Loss,
    reg: Regularizer,
    w: &mut DenseVector,
    rows: &[SparseVector],
    labels: &[f64],
    batch: &[usize],
    eta: f64,
    grad_buf: &mut DenseVector,
) -> f64 {
    crate::batch_gradient_into(loss, w, rows, labels, batch, grad_buf);
    match reg {
        Regularizer::None => {}
        Regularizer::L2 { lambda } => grad_buf.axpy(lambda, w),
        Regularizer::L1 { lambda } => {
            for j in 0..w.dim() {
                let z = w.get(j);
                // the L1 subgradient is exactly zero at exactly-zero weights
                if z != 0.0 {
                    grad_buf[j] += lambda * z.signum();
                }
            }
        }
    }
    w.axpy(-eta, grad_buf);
    grad_buf.norm2_sq()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective_value;

    /// A tiny linearly separable problem: y = sign(x₀ - x₁).
    fn toy() -> (Vec<SparseVector>, Vec<f64>) {
        let rows = vec![
            SparseVector::from_pairs(3, &[(0, 2.0), (2, 1.0)]).unwrap(),
            SparseVector::from_pairs(3, &[(1, 2.0), (2, 1.0)]).unwrap(),
            SparseVector::from_pairs(3, &[(0, 1.5)]).unwrap(),
            SparseVector::from_pairs(3, &[(1, 1.5)]).unwrap(),
        ];
        let labels = vec![1.0, -1.0, 1.0, -1.0];
        (rows, labels)
    }

    #[test]
    fn lazy_and_eager_agree_under_l2() {
        let (rows, labels) = toy();
        let order: Vec<usize> = (0..rows.len()).cycle().take(40).collect();
        let lr = LearningRate::Constant(0.1);
        let reg = Regularizer::L2 { lambda: 0.05 };

        let mut lazy = ScaledVector::zeros(3);
        sgd_epoch_lazy(Loss::Hinge, reg, &mut lazy, &rows, &labels, &order, lr, 0);

        let mut eager = DenseVector::zeros(3);
        sgd_epoch_eager(Loss::Hinge, reg, &mut eager, &rows, &labels, &order, lr, 0);

        let lazy_dense = lazy.to_dense();
        for i in 0..3 {
            assert!(
                (lazy_dense.get(i) - eager.get(i)).abs() < 1e-9,
                "coord {i}: {} vs {}",
                lazy_dense.get(i),
                eager.get(i)
            );
        }
    }

    #[test]
    fn lazy_and_eager_agree_without_reg() {
        let (rows, labels) = toy();
        let order: Vec<usize> = (0..rows.len()).cycle().take(24).collect();
        let lr = LearningRate::InvSqrt(0.2);

        let mut lazy = ScaledVector::zeros(3);
        sgd_epoch_lazy(
            Loss::Logistic,
            Regularizer::None,
            &mut lazy,
            &rows,
            &labels,
            &order,
            lr,
            0,
        );
        let mut eager = DenseVector::zeros(3);
        sgd_epoch_eager(
            Loss::Logistic,
            Regularizer::None,
            &mut eager,
            &rows,
            &labels,
            &order,
            lr,
            0,
        );

        let lazy_dense = lazy.to_dense();
        for i in 0..3 {
            assert!((lazy_dense.get(i) - eager.get(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn sgd_epoch_reduces_hinge_objective() {
        let (rows, labels) = toy();
        let order: Vec<usize> = (0..rows.len()).collect();
        let mut w = ScaledVector::zeros(3);
        let before = objective_value(
            Loss::Hinge,
            Regularizer::None,
            &w.to_dense(),
            &rows,
            &labels,
        );
        for _ in 0..10 {
            sgd_epoch_lazy(
                Loss::Hinge,
                Regularizer::None,
                &mut w,
                &rows,
                &labels,
                &order,
                LearningRate::Constant(0.1),
                0,
            );
        }
        let after = objective_value(
            Loss::Hinge,
            Regularizer::None,
            &w.to_dense(),
            &rows,
            &labels,
        );
        assert!(after < before * 0.5, "objective {before} → {after}");
    }

    #[test]
    fn lazy_l1_drives_useless_coordinates_to_zero() {
        let (rows, labels) = toy();
        // Feature 2 appears with the same value for both classes — useless.
        let order: Vec<usize> = (0..rows.len()).cycle().take(400).collect();
        let mut w = ScaledVector::zeros(3);
        sgd_epoch_lazy(
            Loss::Hinge,
            Regularizer::L1 { lambda: 0.05 },
            &mut w,
            &rows,
            &labels,
            &order,
            LearningRate::Constant(0.05),
            0,
        );
        let d = w.to_dense();
        assert!(d.get(0) > 0.1, "useful positive weight kept: {}", d.get(0));
        assert!(d.get(1) < -0.1, "useful negative weight kept: {}", d.get(1));
        assert!(d.get(2).abs() < 0.05, "useless weight shrunk: {}", d.get(2));
    }

    #[test]
    fn update_counter_advances_by_order_len() {
        let (rows, labels) = toy();
        let order = [0usize, 1, 2];
        let mut w = ScaledVector::zeros(3);
        let t = sgd_epoch_lazy(
            Loss::Hinge,
            Regularizer::None,
            &mut w,
            &rows,
            &labels,
            &order,
            LearningRate::Constant(0.1),
            7,
        );
        assert_eq!(t, 10);
    }

    #[test]
    fn mgd_step_moves_against_gradient() {
        let (rows, labels) = toy();
        let mut w = DenseVector::zeros(3);
        let mut buf = DenseVector::zeros(3);
        let before = objective_value(Loss::Hinge, Regularizer::None, &w, &rows, &labels);
        let gnorm = mgd_step(
            Loss::Hinge,
            Regularizer::None,
            &mut w,
            &rows,
            &labels,
            &[0, 1, 2, 3],
            0.1,
            &mut buf,
        );
        let after = objective_value(Loss::Hinge, Regularizer::None, &w, &rows, &labels);
        assert!(gnorm > 0.0);
        assert!(after < before);
    }

    #[test]
    fn mgd_step_applies_l2_gradient() {
        let (rows, labels) = toy();
        // Start from a model where all hinge losses are satisfied, so the
        // only gradient is the regularizer's.
        let mut w = DenseVector::from_vec(vec![10.0, -10.0, 0.0]);
        let mut buf = DenseVector::zeros(3);
        mgd_step(
            Loss::Hinge,
            Regularizer::L2 { lambda: 0.1 },
            &mut w,
            &rows,
            &labels,
            &[0, 1],
            0.5,
            &mut buf,
        );
        // w ← w − η·λ·w = 0.95·w
        assert!((w.get(0) - 9.5).abs() < 1e-12);
        assert!((w.get(1) + 9.5).abs() < 1e-12);
    }

    #[test]
    fn mgd_step_l1_subgradient() {
        let (rows, labels) = toy();
        let mut w = DenseVector::from_vec(vec![10.0, -10.0, 0.0]);
        let mut buf = DenseVector::zeros(3);
        mgd_step(
            Loss::Hinge,
            Regularizer::L1 { lambda: 0.2 },
            &mut w,
            &rows,
            &labels,
            &[0, 1],
            0.5,
            &mut buf,
        );
        assert!((w.get(0) - 9.9).abs() < 1e-12);
        assert!((w.get(1) + 9.9).abs() < 1e-12);
        assert_eq!(w.get(2), 0.0);
    }
}
