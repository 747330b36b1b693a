//! The sharded global model and its update schemes.

use mlstar_linalg::DenseVector;

use crate::KeyRouter;

/// How servers fold a worker's push into the global model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// *Model summation* (original Petuum): the push payload is a **delta**
    /// (`w_local − w_pulled`, or `−η·g` accumulated) that servers add to
    /// the global model. The paper notes this "can lead to potential
    /// divergence".
    Sum,
    /// *Model averaging* (Petuum\*): the push payload is the worker's
    /// **local model**; servers move the global model toward it by `1/k`
    /// (the online form of averaging k workers' models, well-defined under
    /// asynchrony).
    Average {
        /// Number of workers `k`.
        num_workers: usize,
    },
}

/// The global model, sharded across parameter servers by a [`KeyRouter`].
///
/// The shards are stored as one dense vector plus the router (shards are
/// contiguous ranges); per-shard views are exposed for size accounting and
/// tests.
#[derive(Debug, Clone)]
pub struct ServerGroup {
    model: DenseVector,
    router: KeyRouter,
    aggregation: Aggregation,
    version: u64,
}

impl ServerGroup {
    /// A server group holding a zero model of dimension `dim` across
    /// `num_shards` shards.
    pub fn new(dim: usize, num_shards: usize, aggregation: Aggregation) -> Self {
        ServerGroup {
            model: DenseVector::zeros(dim),
            router: KeyRouter::new(dim, num_shards),
            aggregation,
            version: 0,
        }
    }

    /// Replaces the global model (initialization, `w₀`).
    pub fn initialize(&mut self, w0: DenseVector) {
        assert_eq!(w0.dim(), self.model.dim(), "w0 dimension mismatch");
        self.model = w0;
        self.version += 1;
    }

    /// The current global model (what a worker's pull observes).
    pub fn pull(&self) -> DenseVector {
        self.model.clone()
    }

    /// A read-only view without cloning (for objective evaluation).
    pub fn model(&self) -> &DenseVector {
        &self.model
    }

    /// Applies one worker's push under the configured aggregation scheme.
    ///
    /// # Panics
    ///
    /// Panics if the payload dimension disagrees with the model.
    pub fn push(&mut self, payload: &DenseVector) {
        assert_eq!(payload.dim(), self.model.dim(), "push dimension mismatch");
        match self.aggregation {
            Aggregation::Sum => self.model.axpy(1.0, payload),
            Aggregation::Average { num_workers } => {
                let alpha = 1.0 / num_workers as f64;
                // model ← (1 − 1/k)·model + (1/k)·payload
                self.model.scale(1.0 - alpha);
                self.model.axpy(alpha, payload);
            }
        }
        self.version += 1;
    }

    /// Number of pushes/initializations applied so far.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The router (for shard size accounting).
    pub fn router(&self) -> &KeyRouter {
        &self.router
    }

    /// The aggregation scheme.
    pub fn aggregation(&self) -> Aggregation {
        self.aggregation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dv(v: &[f64]) -> DenseVector {
        DenseVector::from_vec(v.to_vec())
    }

    #[test]
    fn sum_applies_deltas() {
        let mut s = ServerGroup::new(3, 2, Aggregation::Sum);
        s.push(&dv(&[1.0, 0.0, -1.0]));
        s.push(&dv(&[1.0, 2.0, 0.0]));
        assert_eq!(s.pull().as_slice(), &[2.0, 2.0, -1.0]);
        assert_eq!(s.version(), 2);
    }

    #[test]
    fn average_moves_toward_pushed_model() {
        let mut s = ServerGroup::new(2, 1, Aggregation::Average { num_workers: 4 });
        s.initialize(dv(&[4.0, 0.0]));
        s.push(&dv(&[0.0, 4.0]));
        // (1 − 1/4)·[4,0] + 1/4·[0,4] = [3, 1]
        assert_eq!(s.pull().as_slice(), &[3.0, 1.0]);
    }

    #[test]
    fn k_pushes_of_same_model_converge_toward_it() {
        let mut s = ServerGroup::new(1, 1, Aggregation::Average { num_workers: 2 });
        s.initialize(dv(&[0.0]));
        for _ in 0..20 {
            s.push(&dv(&[1.0]));
        }
        assert!((s.pull().get(0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn pull_is_a_snapshot() {
        let mut s = ServerGroup::new(1, 1, Aggregation::Sum);
        let snap = s.pull();
        s.push(&dv(&[5.0]));
        assert_eq!(snap.get(0), 0.0);
        assert_eq!(s.model().get(0), 5.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_checks_dimension() {
        let mut s = ServerGroup::new(3, 1, Aggregation::Sum);
        s.push(&dv(&[1.0]));
    }

    #[test]
    fn sharding_covers_model() {
        let s = ServerGroup::new(100, 8, Aggregation::Sum);
        let total: usize = s.router().ranges().iter().map(|r| r.len()).sum();
        assert_eq!(total, 100);
        assert_eq!(s.router().num_shards(), 8);
    }
}
