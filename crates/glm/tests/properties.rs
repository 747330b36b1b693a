//! Property-based tests for the GLM kernels.

use mlstar_glm::{
    batch_gradient_into, mgd_step, objective_value, sgd_epoch_eager, sgd_epoch_lazy,
    soft_threshold, ElasticNet, LazyL1, LearningRate, Loss, Regularizer,
};
use mlstar_linalg::{DenseVector, ScaledVector, SparseVector};
use proptest::prelude::*;

const DIM: usize = 12;

/// A random sparse update sequence: each step bumps one coordinate by a
/// gradient delta and accrues one step's worth of L1 penalty `η·λ`.
fn update_sequence() -> impl Strategy<Value = Vec<(usize, f64, f64)>> {
    proptest::collection::vec((0usize..DIM, -1.5f64..1.5, 0.0f64..0.2), 1..60)
}

fn sparse_row() -> impl Strategy<Value = SparseVector> {
    proptest::collection::vec((0u32..DIM as u32, -2.0f64..2.0), 1..6)
        .prop_map(|pairs| SparseVector::from_pairs(DIM, &pairs).expect("valid"))
}

fn dataset() -> impl Strategy<Value = (Vec<SparseVector>, Vec<f64>)> {
    proptest::collection::vec((sparse_row(), prop_oneof![Just(1.0f64), Just(-1.0)]), 4..20)
        .prop_map(|pairs| pairs.into_iter().unzip())
}

fn dense_w() -> impl Strategy<Value = DenseVector> {
    proptest::collection::vec(-2.0f64..2.0, DIM).prop_map(DenseVector::from_vec)
}

fn any_loss() -> impl Strategy<Value = Loss> {
    prop_oneof![Just(Loss::Hinge), Just(Loss::Logistic), Just(Loss::Squared)]
}

proptest! {
    /// ∂l/∂m matches a central finite difference wherever the loss is
    /// differentiable (hinge is skipped near its kink).
    #[test]
    fn loss_derivative_matches_finite_difference(
        loss in any_loss(),
        m in -4.0f64..4.0,
        y in prop_oneof![Just(1.0f64), Just(-1.0)],
    ) {
        if loss == Loss::Hinge && (y * m - 1.0).abs() < 1e-3 {
            return Ok(()); // kink
        }
        let h = 1e-6;
        let fd = (loss.value(m + h, y) - loss.value(m - h, y)) / (2.0 * h);
        prop_assert!((loss.dloss(m, y) - fd).abs() < 1e-5, "{loss:?} m={m} y={y}");
    }

    /// Losses are nonnegative and finite on a wide input range.
    #[test]
    fn losses_are_nonnegative(
        loss in any_loss(),
        m in -50.0f64..50.0,
        y in prop_oneof![Just(1.0f64), Just(-1.0)],
    ) {
        let v = loss.value(m, y);
        prop_assert!(v.is_finite());
        prop_assert!(v >= 0.0);
    }

    /// Lazy (scaled-vector) and eager epochs agree exactly for None/L2,
    /// on random data and schedules.
    #[test]
    fn lazy_epoch_equals_eager_epoch(
        (rows, labels) in dataset(),
        loss in any_loss(),
        lambda in 0.0f64..0.3,
        use_l2 in any::<bool>(),
        eta0 in 0.01f64..0.3,
    ) {
        let reg = if use_l2 { Regularizer::l2(lambda) } else { Regularizer::None };
        let order: Vec<usize> = (0..rows.len()).collect();
        let lr = LearningRate::InvSqrt(eta0);

        let mut lazy = ScaledVector::zeros(DIM);
        sgd_epoch_lazy(loss, reg, &mut lazy, &rows, &labels, &order, lr, 0);
        let mut eager = DenseVector::zeros(DIM);
        sgd_epoch_eager(loss, reg, &mut eager, &rows, &labels, &order, lr, 0);

        let lazy_dense = lazy.to_dense();
        let tol = 1e-7 * (1.0 + eager.norm_inf());
        for i in 0..DIM {
            prop_assert!(
                (lazy_dense.get(i) - eager.get(i)).abs() <= tol,
                "reg {reg:?} coord {i}: {} vs {}", lazy_dense.get(i), eager.get(i)
            );
        }
    }

    /// The cumulative-penalty lazy L1 (Tsuruoka et al.) is an
    /// *approximation* of eager per-step soft-thresholding — their
    /// trajectories legitimately diverge once gradient feedback kicks in
    /// (the exact settlement semantics are pinned down by the unit tests
    /// in `lazy_l1.rs`). What must hold for both: they are descent-ish
    /// methods on the same L1-regularized objective — finite weights, no
    /// increase over the zero model's objective, and genuine shrinkage
    /// pressure (the lazy result's L1 norm never exceeds the
    /// regularization-free run's).
    #[test]
    fn lazy_l1_is_a_sound_optimizer(
        (rows, labels) in dataset(),
        loss in any_loss(),
        lambda in 0.001f64..0.3,
        eta0 in 0.01f64..0.2,
    ) {
        let reg = Regularizer::L1 { lambda };
        let order: Vec<usize> = (0..rows.len()).collect();
        let lr = LearningRate::InvSqrt(eta0);

        let mut lazy = ScaledVector::zeros(DIM);
        sgd_epoch_lazy(loss, reg, &mut lazy, &rows, &labels, &order, lr, 0);
        let lazy_dense = lazy.to_dense();
        prop_assert!(lazy_dense.is_finite());

        let f0 = objective_value(loss, reg, &DenseVector::zeros(DIM), &rows, &labels);
        let f_lazy = objective_value(loss, reg, &lazy_dense, &rows, &labels);
        prop_assert!(
            f_lazy <= f0 + 2.0 * eta0,
            "lazy L1 should not blow past the zero model: {f_lazy} vs {f0}"
        );

        // Shrinkage: the L1-regularized run is no larger (in ‖·‖₁) than
        // the unregularized run over the identical example sequence.
        let mut free = ScaledVector::zeros(DIM);
        sgd_epoch_lazy(loss, Regularizer::None, &mut free, &rows, &labels, &order, lr, 0);
        // Loose multiplicative slack: thresholding perturbs margins, which
        // can locally grow individual coordinates.
        prop_assert!(
            lazy_dense.norm1() <= free.to_dense().norm1() * 1.25 + 0.25,
            "L1 must shrink overall: {} vs {}",
            lazy_dense.norm1(),
            free.to_dense().norm1()
        );
    }

    /// The elastic net's prox at α = 1 is the shared kernel, bit for bit
    /// (unit step and α = 1 make the internal `step·λ·α` products exact,
    /// so any divergence is a real fork in the kernel, not rounding).
    #[test]
    fn prox_1d_routes_through_the_shared_kernel(
        z in -3.0f64..3.0,
        tau in 0.0f64..2.0,
    ) {
        let direct = soft_threshold(z, tau);
        let via_enet = ElasticNet::new(tau, 1.0).prox_1d(z, 1.0);
        prop_assert_eq!(direct.to_bits(), via_enet.to_bits(), "elastic-net prox forked");
    }

    /// `LazyL1`'s deferred debt settlement is bit-identical to an eager
    /// simulator that soft-thresholds each touched coordinate immediately
    /// with its outstanding debt, going through the lasso's `prox_1d`
    /// (unit step, λ = debt, α = 1, so the threshold is the debt
    /// exactly). Guards the shared kernel: both sides must shrink, clip at
    /// zero, and track consumed penalty identically over arbitrary sparse
    /// update sequences.
    #[test]
    fn lazy_l1_settlement_is_bit_identical_to_eager_prox(steps in update_sequence()) {
        let mut w_lazy = DenseVector::zeros(DIM);
        let mut lazy = LazyL1::new(DIM);

        let mut w_eager = DenseVector::zeros(DIM);
        let mut u = 0.0f64;
        let mut q = vec![0.0f64; DIM];
        let settle = |w: &mut DenseVector, u: f64, q: &mut [f64], i: usize| {
            let z = w.get(i);
            if z != 0.0 {
                // A struct literal, not `ElasticNet::new`: rounding in the
                // debt bookkeeping may leave `u − q[i]` an ulp below zero,
                // which `LazyL1` passes to the kernel as it is.
                let lasso = ElasticNet { lambda: u - q[i], l1_ratio: 1.0 };
                let nw = lasso.prox_1d(z, 1.0);
                w.set(i, nw);
                q[i] += (nw - z).abs();
            }
            if w.get(i) == 0.0 {
                q[i] = u;
            }
        };

        for &(i, delta, eta_lambda) in &steps {
            lazy.accumulate(eta_lambda);
            w_lazy.set(i, w_lazy.get(i) + delta);
            let settled = lazy.apply_at(&mut w_lazy, i);
            prop_assert_eq!(settled.to_bits(), w_lazy.get(i).to_bits());

            u += eta_lambda;
            w_eager.set(i, w_eager.get(i) + delta);
            settle(&mut w_eager, u, &mut q, i);
        }
        // Epoch-boundary pass: both sides settle every coordinate.
        lazy.finalize(&mut w_lazy);
        for i in 0..DIM {
            settle(&mut w_eager, u, &mut q, i);
        }
        for i in 0..DIM {
            prop_assert_eq!(
                w_lazy.get(i).to_bits(),
                w_eager.get(i).to_bits(),
                "coord {}: lazy {} vs eager {}", i, w_lazy.get(i), w_eager.get(i)
            );
        }
    }

    /// `apply_at` returns exactly the weight it leaves at the coordinate,
    /// whether that coordinate shrinks, clips to zero or starts at a signed
    /// zero, which it keeps bit for bit (`-0.0` included).
    #[test]
    fn apply_at_returns_the_coordinate_it_leaves(
        start in proptest::collection::vec(
            prop_oneof![Just(0.0f64), Just(-0.0f64), -1.5f64..1.5],
            DIM,
        ),
        steps in update_sequence(),
    ) {
        let mut w = DenseVector::from_vec(start);
        let mut lazy = LazyL1::new(DIM);
        for &(i, delta, eta_lambda) in &steps {
            lazy.accumulate(eta_lambda);
            let before = w.get(i);
            let settled = lazy.apply_at(&mut w, i);
            prop_assert_eq!(settled.to_bits(), w.get(i).to_bits());
            if before == 0.0 {
                prop_assert_eq!(settled.to_bits(), before.to_bits());
            }
            w.set(i, w.get(i) + delta);
        }
    }

    /// A full-batch MGD step with a small learning rate never increases a
    /// convex objective.
    #[test]
    fn small_full_batch_step_descends(
        (rows, labels) in dataset(),
        loss in prop_oneof![Just(Loss::Hinge), Just(Loss::Logistic)],
        w in dense_w(),
    ) {
        let reg = Regularizer::None;
        let before = objective_value(loss, reg, &w, &rows, &labels);
        let batch: Vec<usize> = (0..rows.len()).collect();
        let mut w2 = w.clone();
        let mut buf = DenseVector::zeros(DIM);
        // Small enough step relative to the data's Lipschitz constant.
        mgd_step(loss, reg, &mut w2, &rows, &labels, &batch, 1e-3, &mut buf);
        let after = objective_value(loss, reg, &w2, &rows, &labels);
        prop_assert!(after <= before + 1e-9, "{before} → {after}");
    }

    /// The objective is convex along segments: f(midpoint) ≤ max(f(a), f(b)).
    #[test]
    fn objective_is_convex_along_segments(
        (rows, labels) in dataset(),
        loss in any_loss(),
        a in dense_w(),
        b in dense_w(),
        lambda in 0.0f64..0.2,
    ) {
        let reg = Regularizer::l2(lambda);
        let mut mid = a.clone();
        mid.axpy(1.0, &b);
        mid.scale(0.5);
        let fa = objective_value(loss, reg, &a, &rows, &labels);
        let fb = objective_value(loss, reg, &b, &rows, &labels);
        let fm = objective_value(loss, reg, &mid, &rows, &labels);
        prop_assert!(fm <= 0.5 * fa + 0.5 * fb + 1e-9);
    }

    /// Gradient linearity: the gradient over a union batch equals the
    /// size-weighted mean of per-part gradients.
    #[test]
    fn batch_gradient_is_linear_in_the_batch(
        (rows, labels) in dataset(),
        w in dense_w(),
        loss in any_loss(),
    ) {
        let n = rows.len();
        if n < 2 {
            return Ok(());
        }
        let split = n / 2;
        let left: Vec<usize> = (0..split).collect();
        let right: Vec<usize> = (split..n).collect();
        let all: Vec<usize> = (0..n).collect();
        let grad = |batch: &[usize]| {
            let mut g = DenseVector::zeros(DIM);
            batch_gradient_into(loss, &w, &rows, &labels, batch, &mut g);
            g
        };
        let (g_all, g_l, g_r) = (grad(&all), grad(&left), grad(&right));
        for i in 0..DIM {
            let combined =
                (g_l.get(i) * left.len() as f64 + g_r.get(i) * right.len() as f64) / n as f64;
            prop_assert!((g_all.get(i) - combined).abs() < 1e-9);
        }
    }

    /// Learning-rate schedules are positive and nonincreasing.
    #[test]
    fn schedules_behave(eta0 in 0.001f64..10.0, t in 0u64..10_000) {
        for s in [
            LearningRate::Constant(eta0),
            LearningRate::InvSqrt(eta0),
            LearningRate::InvT { eta0, decay: 0.01 },
            LearningRate::Exponential { eta0, factor: 0.95, period: 10 },
        ] {
            let now = s.eta(t);
            let later = s.eta(t + 1);
            prop_assert!(now > 0.0 && now.is_finite());
            prop_assert!(later <= now + 1e-15);
        }
    }
}
