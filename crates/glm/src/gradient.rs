//! Batch gradient computation — the worker kernel of *SendGradient*.
//!
//! The batch is a sampled, so scattered, set of rows. Each row of the loop
//! first loads a few words of the next one ([`load_ahead`]), so that
//! row's cache misses overlap this row's dot and axpy. The loads are plain
//! reads kept alive by [`std::hint::black_box`] rather than a prefetch
//! intrinsic, which would need `unsafe` and one path per architecture;
//! nothing reads their values, so the gradient's bits do not move.

use mlstar_linalg::{DenseVector, SparseVector};

use crate::Loss;

/// Computes the average loss gradient over the examples selected by
/// `batch`, *excluding* the regularization gradient, into a
/// caller-provided buffer (cleared first, so hot loops reuse it):
///
/// ```text
/// g = (1/|B|) · Σ_{i∈B} ∂l(w·xᵢ, yᵢ)/∂m · xᵢ
/// ```
///
/// This is exactly what an MLlib executor sends to the driver per
/// communication step; the driver adds `∇Ω(w)` when it applies the update
/// (see Algorithm 2, *SendGradient* branch in the paper).
///
/// # Panics
///
/// Panics if `batch` is empty, contains an out-of-bounds index, or `grad`
/// has the wrong dimension.
pub fn batch_gradient_into(
    loss: Loss,
    w: &DenseVector,
    rows: &[SparseVector],
    labels: &[f64],
    batch: &[usize],
    grad: &mut DenseVector,
) {
    assert!(
        !batch.is_empty(),
        "gradient over an empty batch is undefined"
    );
    assert_eq!(grad.dim(), w.dim(), "gradient buffer dimension mismatch");
    grad.clear();
    let inv = 1.0 / batch.len() as f64;
    for (k, &i) in batch.iter().enumerate() {
        load_ahead(rows, batch.get(k + 1));
        let x = &rows[i];
        let d = loss.dloss(w.dot_sparse(x), labels[i]);
        // exact-zero subgradient means no update — a sparsity fast path
        if d != 0.0 {
            grad.axpy_sparse(d * inv, x);
        }
    }
}

/// Loads a few words of the row `next` names, if it is one: the header,
/// the first and last index, and the first, middle and last value. The
/// loads feed nothing but [`std::hint::black_box`], so they change no
/// result; they start the next row's cache misses while the current
/// row's dot and axpy run.
#[inline(always)]
pub(crate) fn load_ahead(rows: &[SparseVector], next: Option<&usize>) {
    if let Some(x) = next.and_then(|&n| rows.get(n)) {
        let (idx, val) = (x.indices(), x.values());
        std::hint::black_box((
            idx.first().copied(),
            idx.last().copied(),
            val.first().copied(),
            val.get(val.len() / 2).copied(),
            val.last().copied(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_gradient(
        loss: Loss,
        w: &DenseVector,
        rows: &[SparseVector],
        labels: &[f64],
        batch: &[usize],
    ) -> DenseVector {
        let mut grad = DenseVector::zeros(w.dim());
        batch_gradient_into(loss, w, rows, labels, batch, &mut grad);
        grad
    }

    fn rows_labels() -> (Vec<SparseVector>, Vec<f64>) {
        (
            vec![
                SparseVector::from_pairs(3, &[(0, 1.0), (2, 2.0)]).unwrap(),
                SparseVector::from_pairs(3, &[(1, 1.0)]).unwrap(),
                SparseVector::from_pairs(3, &[(0, -1.0)]).unwrap(),
            ],
            vec![1.0, -1.0, 1.0],
        )
    }

    #[test]
    fn hinge_gradient_at_zero_model() {
        let (rows, labels) = rows_labels();
        let w = DenseVector::zeros(3);
        // At w=0 every example violates the margin: dloss = -y.
        let g = batch_gradient(Loss::Hinge, &w, &rows, &labels, &[0, 1, 2]);
        // g = 1/3 * [(-1)(x0) + (1)(x1) + (-1)(x2)]
        let expected = [
            (-1.0 + 0.0 + -1.0 * -1.0) / 3.0,
            (1.0 * 1.0) / 3.0,
            -2.0 / 3.0,
        ];
        for (i, want) in expected.iter().enumerate() {
            assert!((g.get(i) - want).abs() < 1e-12, "coord {i}");
        }
    }

    #[test]
    fn gradient_of_satisfied_examples_is_zero() {
        let (rows, labels) = rows_labels();
        // Model classifying everything with margin > 1.
        let w = DenseVector::from_vec(vec![5.0, -5.0, 5.0]);
        let g = batch_gradient(Loss::Hinge, &w, &rows, &labels, &[0, 1]);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn single_example_batch_selects_that_example() {
        let (rows, labels) = rows_labels();
        let w = DenseVector::zeros(3);
        let g = batch_gradient(Loss::Hinge, &w, &rows, &labels, &[1]);
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn gradient_matches_objective_finite_difference() {
        let (rows, labels) = rows_labels();
        let w = DenseVector::from_vec(vec![0.3, -0.2, 0.1]);
        let batch = [0usize, 1, 2];
        let g = batch_gradient(Loss::Logistic, &w, &rows, &labels, &batch);
        let h = 1e-6;
        for i in 0..3 {
            let mut wp = w.clone();
            wp[i] += h;
            let mut wm = w.clone();
            wm[i] -= h;
            let fp = crate::training_loss(Loss::Logistic, &wp, &rows, &labels);
            let fm = crate::training_loss(Loss::Logistic, &wm, &rows, &labels);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (g.get(i) - fd).abs() < 1e-5,
                "coord {i}: {} vs {}",
                g.get(i),
                fd
            );
        }
    }

    #[test]
    fn into_variant_reuses_buffer() {
        let (rows, labels) = rows_labels();
        let w = DenseVector::zeros(3);
        let mut buf = DenseVector::filled(3, 99.0);
        batch_gradient_into(Loss::Hinge, &w, &rows, &labels, &[1], &mut buf);
        assert_eq!(buf.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let (rows, labels) = rows_labels();
        let w = DenseVector::zeros(3);
        let _ = batch_gradient(Loss::Hinge, &w, &rows, &labels, &[]);
    }
}
