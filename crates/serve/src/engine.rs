//! The micro-batched scoring engine.
//!
//! Requests carry virtual arrival times (from the workload generator).
//! Batch formation is a pure function of arrivals and the
//! [`BatchPolicy`] — a batch closes when it reaches `max_batch` requests
//! or when `max_delay` has elapsed since its first request arrived,
//! whichever comes first — so batch boundaries, fill ratios, and queue
//! depths are identical no matter how many worker shards score them.
//!
//! Scoring itself runs on real [`std::thread`] workers. A run spawns
//! `shards − 1` of them once, in one `std::thread::scope`, and the calling
//! thread is the remaining shard; every batch after that costs one job
//! message and one result message per busy worker, not a thread spawn,
//! and a waiting side yields its core for a while before it blocks, so
//! back-to-back batches rarely pay a thread wake-up either.
//! Each batch is split into contiguous shards, every shard accumulates its
//! predictions privately, and shard outputs are concatenated in shard
//! order and then merged by request id. Per-row margins are row-local dot
//! products, so the merged predictions are **bit-identical** for any shard
//! count and any thread interleaving — the same discipline `run_rounds`
//! applies to per-worker seed streams during training. A worker that
//! panics takes the run down with it (the scope re-raises the panic); it
//! never shortens the result.
//!
//! Latency telemetry uses a deterministic cost model (virtual clock), not
//! wall-clock reads: queue time is `service_start − arrival`, score time
//! is the slowest shard's modeled share, merge time is linear in batch
//! size. Wall-clock measurement belongs to the bench crate.

use std::ops::Range;
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender, TryRecvError};
use std::thread::Scope;

use mlstar_glm::{logistic, GlmModel};
use mlstar_linalg::SparseVector;
use mlstar_sim::{SimDuration, SimTime};

use crate::{BatchRecord, ModelArtifact, ServeError, ServeTelemetry};

/// One scoring request: a query row with a virtual arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRequest {
    /// Caller-assigned request id; results are merged into id order.
    pub id: u64,
    /// Virtual arrival time (open-loop workload clock).
    pub arrival: SimTime,
    /// The query row.
    pub row: SparseVector,
}

/// One scored result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// The request id this result answers.
    pub id: u64,
    /// Raw margin `w·x`.
    pub margin: f64,
    /// Logistic probability `σ(w·x)`.
    pub probability: f64,
    /// Predicted `±1` label (ties → `+1`).
    pub label: f64,
}

/// Micro-batch formation policy: close a batch at `max_batch` requests or
/// `max_delay` after its oldest request arrived, whichever is first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Maximum requests per batch.
    pub max_batch: usize,
    /// Maximum time a request may wait for its batch to fill.
    pub max_delay: SimDuration,
}

impl Default for BatchPolicy {
    /// 32-request batches with a 2 ms fill deadline.
    fn default() -> Self {
        BatchPolicy {
            max_batch: 32,
            max_delay: SimDuration::from_millis(2),
        }
    }
}

/// The deterministic cost model behind the virtual-latency telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreCostModel {
    /// Modeled shard arithmetic throughput (flops/s); a margin costs
    /// `2·nnz + 1` flops.
    pub flops_per_sec: f64,
    /// Fixed per-row overhead (dispatch, cache misses).
    pub row_overhead: SimDuration,
    /// Per-result cost of the id-ordered merge.
    pub merge_per_result: SimDuration,
}

impl Default for ScoreCostModel {
    fn default() -> Self {
        ScoreCostModel {
            flops_per_sec: 5e9,
            row_overhead: SimDuration::from_nanos(2_000),
            merge_per_result: SimDuration::from_nanos(150),
        }
    }
}

impl ScoreCostModel {
    /// Modeled seconds to score one row of `nnz` nonzeros.
    fn row_secs(&self, nnz: usize) -> f64 {
        self.row_overhead.as_secs_f64() + (2.0 * nnz as f64 + 1.0) / self.flops_per_sec
    }
}

/// A complete serving run: predictions in request-id order plus telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRun {
    /// One prediction per request, sorted by request id.
    pub predictions: Vec<Prediction>,
    /// Batch/latency/throughput telemetry (virtual clock).
    pub telemetry: ServeTelemetry,
}

/// The scoring engine: a model, a batch policy, and a worker-shard count.
#[derive(Debug, Clone)]
pub struct ScoringEngine {
    model: GlmModel,
    policy: BatchPolicy,
    cost: ScoreCostModel,
    shards: usize,
}

impl ScoringEngine {
    /// An engine scoring with `model` under `policy` across `shards`
    /// shards: each [`run`](Self::run) spawns `shards − 1` worker threads
    /// for its whole duration and scores the remaining shard on the
    /// calling thread (`shards == 1` spawns nothing).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, `policy.max_batch == 0`, or the model has
    /// dimension zero.
    pub fn new(model: GlmModel, policy: BatchPolicy, shards: usize) -> Self {
        assert!(shards > 0, "the engine needs at least one worker shard");
        assert!(
            policy.max_batch > 0,
            "batches must hold at least one request"
        );
        assert!(model.dim() > 0, "cannot serve a zero-dimensional model");
        ScoringEngine {
            model,
            policy,
            cost: ScoreCostModel::default(),
            shards,
        }
    }

    /// An engine serving a registry artifact.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `policy.max_batch == 0` (artifacts
    /// cannot be zero-dimensional).
    pub fn for_artifact(artifact: &ModelArtifact, policy: BatchPolicy, shards: usize) -> Self {
        ScoringEngine::new(artifact.model(), policy, shards)
    }

    /// Overrides the latency cost model.
    pub fn with_cost_model(mut self, cost: ScoreCostModel) -> Self {
        self.cost = cost;
        self
    }

    /// The number of shards: the calling thread plus `shards − 1` workers
    /// per run.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Scores a request stream. Requests may arrive in any order in the
    /// slice; the engine processes them in `(arrival, id)` order. Returns
    /// predictions sorted by request id plus the run's telemetry.
    ///
    /// Fails with [`ServeError::DimensionMismatch`] if any query row
    /// disagrees with the model dimension.
    pub fn run(&self, requests: &[ScoreRequest]) -> Result<ServeRun, ServeError> {
        for r in requests {
            if r.row.dim() != self.model.dim() {
                return Err(ServeError::DimensionMismatch {
                    expected: self.model.dim(),
                    found: r.row.dim(),
                });
            }
        }
        Ok(self.serve(requests))
    }

    /// [`run`](Self::run) on requests whose dimensions were checked.
    fn serve(&self, requests: &[ScoreRequest]) -> ServeRun {
        let mut telemetry = ServeTelemetry {
            requests: requests.len() as u64,
            ..ServeTelemetry::default()
        };
        if requests.is_empty() {
            return ServeRun {
                predictions: Vec::new(),
                telemetry,
            };
        }

        // Arrival order, ties broken by id: the queue discipline.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| (requests[i].arrival, requests[i].id));
        telemetry.first_arrival = requests[order[0]].arrival;

        let mut predictions: Vec<Prediction> = Vec::with_capacity(requests.len());
        // The largest shard any batch can have, so no buffer grows mid-run.
        let shard_capacity = self
            .policy
            .max_batch
            .min(requests.len())
            .div_ceil(self.shards);
        #[expect(
            clippy::disallowed_methods,
            reason = "shard outputs are concatenated in shard order and merged by request id, so no output depends on thread interleaving"
        )]
        std::thread::scope(|scope| {
            let mut links: Vec<ShardLink> = (1..self.shards)
                .map(|_| ShardLink::open(scope, &self.model, requests, &order, shard_capacity))
                .collect();
            let mut workers_free_at = SimTime::ZERO;
            let mut batch_index = 0u64;
            let mut start = 0usize;
            while start < order.len() {
                // Form the next batch: grow while under max_batch and the
                // next request arrives before the deadline of the batch
                // opener.
                let opened = requests[order[start]].arrival;
                let deadline = opened + self.policy.max_delay;
                let mut end = start + 1;
                while end < order.len()
                    && end - start < self.policy.max_batch
                    && requests[order[end]].arrival <= deadline
                {
                    end += 1;
                }
                let size = end - start;
                let close = if size == self.policy.max_batch {
                    requests[order[end - 1]].arrival
                } else {
                    deadline
                };
                // Requests already arrived but not yet dispatched when the
                // batch closed (the batch itself has just left the queue).
                let queue_depth_at_close = order[end..]
                    .iter()
                    .take_while(|&&i| requests[i].arrival <= close)
                    .count();

                let scored_from = predictions.len();
                let Some(score_s) =
                    self.score_batch(requests, &order, start..end, &mut links, &mut predictions)
                else {
                    // A worker panicked. Leaving the scope joins the others
                    // and re-raises that panic, so no short run is returned.
                    return;
                };
                // Merge by request id: shard outputs were appended in shard
                // order; id order makes the result independent of the
                // sharding entirely.
                predictions[scored_from..].sort_by_key(|p| p.id);
                let merge_s = self.cost.merge_per_result.as_secs_f64() * size as f64;

                let service_start = close.max(workers_free_at);
                let done = service_start
                    + SimDuration::from_secs_f64(score_s)
                    + SimDuration::from_secs_f64(merge_s);
                workers_free_at = done;

                for &i in &order[start..end] {
                    telemetry
                        .queue
                        .record(service_start.since(requests[i].arrival).as_secs_f64());
                }
                telemetry.score.record(score_s);
                telemetry.merge.record(merge_s);
                telemetry.batches.push(BatchRecord {
                    index: batch_index,
                    size,
                    fill: size as f64 / self.policy.max_batch as f64,
                    queue_depth_at_close,
                    close,
                    service_start,
                    done,
                    score_s,
                    merge_s,
                });
                telemetry.last_done = telemetry.last_done.max(done);
                batch_index += 1;
                start = end;
            }
        });

        predictions.sort_by_key(|p| p.id);
        ServeRun {
            predictions,
            telemetry,
        }
    }

    /// Scores the requests `order[batch]` across the shards: contiguous
    /// chunks of `batch.len().div_ceil(shards)`, chunk 0 on this thread and
    /// chunk `k` on `links[k − 1]`. Appends the predictions to `out` in
    /// shard order and returns the modeled score time (the slowest shard's
    /// share), or `None` if a worker died.
    fn score_batch(
        &self,
        requests: &[ScoreRequest],
        order: &[usize],
        batch: Range<usize>,
        links: &mut [ShardLink],
        out: &mut Vec<Prediction>,
    ) -> Option<f64> {
        let chunk = batch.len().div_ceil(self.shards);
        let count = batch.len().div_ceil(chunk);
        let shard = |k: usize| {
            let lo = batch.start + k * chunk;
            lo..batch.end.min(lo + chunk)
        };
        let mut score_s: f64 = 0.0;
        for k in 0..count {
            let shard_secs: f64 = order[shard(k)]
                .iter()
                .map(|&i| self.cost.row_secs(requests[i].row.nnz()))
                .sum();
            score_s = score_s.max(shard_secs);
        }
        // Hand out shards 1.. first so the workers score while this thread
        // does shard 0; a batch smaller than `shards` leaves links idle.
        let busy = &mut links[..count - 1];
        for (k, link) in busy.iter_mut().enumerate() {
            let job = (shard(k + 1), std::mem::take(&mut link.spare));
            link.jobs.send(job).ok()?;
        }
        out.extend(
            order[shard(0)]
                .iter()
                .map(|&i| score_one(&self.model, &requests[i])),
        );
        for link in busy {
            link.spare = recv_yielding(&link.results).ok()?;
            out.extend_from_slice(&link.spare);
        }
        Some(score_s)
    }
}

/// One scoring job: a range of the run's arrival order, and the buffer the
/// worker writes its predictions into.
type Job = (Range<usize>, Vec<Prediction>);

/// The orchestrating thread's end of one shard worker, which lives for a
/// whole [`ScoringEngine::run`]. The output buffer ping-pongs: it travels
/// to the worker with each job and comes back full with the result.
struct ShardLink {
    jobs: SyncSender<Job>,
    results: Receiver<Vec<Prediction>>,
    /// The buffer while the worker is idle.
    spare: Vec<Prediction>,
}

impl ShardLink {
    /// Spawns a worker on `scope` that scores `order[range]` for each job
    /// until its link is dropped.
    fn open<'scope>(
        scope: &'scope Scope<'scope, '_>,
        model: &'scope GlmModel,
        requests: &'scope [ScoreRequest],
        order: &'scope [usize],
        capacity: usize,
    ) -> ShardLink {
        // One job and one result are in flight per batch at most, so
        // neither side ever blocks on a send.
        let (jobs, job_rx) = sync_channel::<Job>(1);
        let (result_tx, results) = sync_channel(1);
        scope.spawn(move || {
            while let Ok((range, mut out)) = recv_yielding(&job_rx) {
                out.clear();
                out.extend(order[range].iter().map(|&i| score_one(model, &requests[i])));
                if result_tx.send(out).is_err() {
                    break;
                }
            }
        });
        ShardLink {
            jobs,
            results,
            spare: Vec::with_capacity(capacity),
        }
    }
}

/// How often a waiting shard polls its channel, yielding its core in
/// between, before it blocks.
const YIELDS_BEFORE_BLOCKING: usize = 100;

/// Receives from `rx`, polling and yielding for a while before blocking.
/// Either side of a link waits only about as long as the other takes to
/// form a batch or score a shard, around a microsecond, while a blocked
/// receive pays a thread wake-up that costs several times that. Yielding
/// rather than spinning hands the core to runnable threads when there are
/// more shards than cores.
fn recv_yielding<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    for _ in 0..YIELDS_BEFORE_BLOCKING {
        match rx.try_recv() {
            Ok(value) => return Ok(value),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
        }
    }
    rx.recv()
}

/// Scores a single request.
fn score_one(model: &GlmModel, r: &ScoreRequest) -> Prediction {
    let margin = model.margin(&r.row);
    Prediction {
        id: r.id,
        margin,
        probability: logistic(margin),
        label: if margin >= 0.0 { 1.0 } else { -1.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_linalg::DenseVector;

    fn model() -> GlmModel {
        GlmModel::from_weights(DenseVector::from_vec(vec![1.0, -2.0, 0.5, 0.25]))
    }

    fn req(id: u64, arrival_us: u64, pairs: &[(u32, f64)]) -> ScoreRequest {
        ScoreRequest {
            id,
            arrival: SimTime::from_nanos(arrival_us * 1_000),
            row: SparseVector::from_pairs(4, pairs).unwrap(),
        }
    }

    #[test]
    fn batches_close_on_size_or_deadline() {
        let policy = BatchPolicy {
            max_batch: 2,
            max_delay: SimDuration::from_millis(1),
        };
        let engine = ScoringEngine::new(model(), policy, 1);
        // Two quick arrivals (size close), one straggler (deadline close).
        let reqs = vec![
            req(0, 0, &[(0, 1.0)]),
            req(1, 10, &[(1, 1.0)]),
            req(2, 5_000, &[(2, 1.0)]),
        ];
        let run = engine.run(&reqs).unwrap();
        let t = &run.telemetry;
        assert_eq!(t.num_batches(), 2);
        assert_eq!(t.batches[0].size, 2);
        // Size-triggered close happens at the filling request's arrival.
        assert_eq!(t.batches[0].close, SimTime::from_nanos(10_000));
        assert_eq!(t.batches[1].size, 1);
        // Deadline-triggered close happens max_delay after the opener.
        assert_eq!(
            t.batches[1].close,
            SimTime::from_nanos(5_000_000 + 1_000_000)
        );
        assert!((t.batches[0].fill - 1.0).abs() < 1e-12);
        assert!((t.batches[1].fill - 0.5).abs() < 1e-12);
    }

    #[test]
    fn predictions_are_id_ordered_and_correct() {
        let engine = ScoringEngine::new(model(), BatchPolicy::default(), 2);
        // Arrivals deliberately out of id order.
        let reqs = vec![
            req(2, 30, &[(0, 2.0)]),
            req(0, 10, &[(1, 1.0)]),
            req(1, 20, &[(2, 2.0)]),
        ];
        let run = engine.run(&reqs).unwrap();
        let ids: Vec<u64> = run.predictions.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(run.predictions[0].margin, -2.0);
        assert_eq!(run.predictions[0].label, -1.0);
        assert_eq!(run.predictions[1].margin, 1.0);
        assert_eq!(run.predictions[2].margin, 2.0);
        let m = model();
        for (p, r) in run.predictions.iter().zip([&reqs[1], &reqs[2], &reqs[0]]) {
            assert_eq!(p.margin.to_bits(), m.margin(&r.row).to_bits());
            assert_eq!(
                p.probability.to_bits(),
                m.predict_probability(&r.row).to_bits()
            );
        }
    }

    #[test]
    fn shard_count_does_not_change_predictions_or_batching() {
        let reqs: Vec<ScoreRequest> = (0..257)
            .map(|i| {
                req(
                    i,
                    (i * 37) % 4_000,
                    &[(0, i as f64 * 0.1), ((i % 4) as u32, 1.5)],
                )
            })
            .collect();
        let runs: Vec<ServeRun> = [1usize, 3, 8]
            .iter()
            .map(|&s| {
                ScoringEngine::new(model(), BatchPolicy::default(), s)
                    .run(&reqs)
                    .unwrap()
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(runs[0].predictions, other.predictions);
            // Formation telemetry is shard-independent.
            assert_eq!(
                runs[0].telemetry.num_batches(),
                other.telemetry.num_batches()
            );
            for (a, b) in runs[0]
                .telemetry
                .batches
                .iter()
                .zip(other.telemetry.batches.iter())
            {
                assert_eq!(a.size, b.size);
                assert_eq!(a.close, b.close);
                assert_eq!(a.queue_depth_at_close, b.queue_depth_at_close);
                assert_eq!(a.fill.to_bits(), b.fill.to_bits());
            }
        }
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let reqs: Vec<ScoreRequest> = (0..100)
            .map(|i| req(i, i * 100, &[(0, 1.0), (3, -0.5)]))
            .collect();
        let engine = ScoringEngine::new(model(), BatchPolicy::default(), 4);
        let a = engine.run(&reqs).unwrap();
        let b = engine.run(&reqs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn a_panicking_shard_fails_the_run_instead_of_shortening_it() {
        // Four batches of four on two shards. A row indexed past the
        // model's dimension panics whoever scores it: request 8 is the
        // calling thread's, request 11 the worker's, both in batch 2, after
        // two batches went through cleanly.
        let policy = BatchPolicy {
            max_batch: 4,
            ..BatchPolicy::default()
        };
        let engine = ScoringEngine::new(model(), policy, 2);
        let good: Vec<ScoreRequest> = (0..16).map(|i| req(i, i, &[(0, 1.0)])).collect();
        for bad in [8, 11] {
            let mut reqs = good.clone();
            reqs[bad].row = SparseVector::from_pairs(9, &[(8, 1.0)]).unwrap();
            let outcome = std::panic::catch_unwind(|| engine.serve(&reqs));
            assert!(outcome.is_err(), "request {bad}");
        }
        // Nothing outlives a run: the next one is whole.
        assert_eq!(engine.run(&good).unwrap().predictions.len(), 16);
    }

    #[test]
    fn queue_latency_includes_worker_backlog() {
        // One-shard engine with a huge per-row cost: the second batch must
        // wait for the first to finish.
        let policy = BatchPolicy {
            max_batch: 1,
            max_delay: SimDuration::from_nanos(1),
        };
        let slow = ScoreCostModel {
            flops_per_sec: 1e3,
            row_overhead: SimDuration::from_millis(10),
            merge_per_result: SimDuration::ZERO,
        };
        let engine = ScoringEngine::new(model(), policy, 1).with_cost_model(slow);
        let reqs = vec![req(0, 0, &[(0, 1.0)]), req(1, 1, &[(0, 1.0)])];
        let run = engine.run(&reqs).unwrap();
        let b = &run.telemetry.batches;
        assert_eq!(b.len(), 2);
        assert_eq!(b[1].service_start, b[0].done, "backlog serializes batches");
        assert!(run.telemetry.queue.max() >= 0.01);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let engine = ScoringEngine::new(model(), BatchPolicy::default(), 1);
        let bad = ScoreRequest {
            id: 0,
            arrival: SimTime::ZERO,
            row: SparseVector::from_pairs(7, &[(0, 1.0)]).unwrap(),
        };
        assert!(matches!(
            engine.run(&[bad]),
            Err(ServeError::DimensionMismatch {
                expected: 4,
                found: 7
            })
        ));
    }

    #[test]
    fn empty_run_is_empty() {
        let engine = ScoringEngine::new(model(), BatchPolicy::default(), 2);
        let run = engine.run(&[]).unwrap();
        assert!(run.predictions.is_empty());
        assert_eq!(run.telemetry.num_batches(), 0);
        assert_eq!(run.telemetry.throughput_rps(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker shard")]
    fn zero_shards_panics() {
        let _ = ScoringEngine::new(model(), BatchPolicy::default(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_batch_panics() {
        let policy = BatchPolicy {
            max_batch: 0,
            max_delay: SimDuration::ZERO,
        };
        let _ = ScoringEngine::new(model(), policy, 1);
    }
}
