//! The crate's only thread-spawning module.
//!
//! Workers are real OS threads, but they live inside one
//! `std::thread::scope`: the orchestrator body runs on the calling
//! thread, and the scope cannot be exited until every worker has
//! returned. That makes worker lifetime a *structural* guarantee — no
//! detached threads, no join handles to forget — which is why this is the
//! crate's one `thread::scope` site.

/// Runs `body` on the current thread while `workers` run on scoped
/// threads; returns `body`'s result after every worker has exited.
///
/// Workers are expected to exit when their transport disconnects or a
/// shutdown message arrives — `body` is responsible for triggering one of
/// the two before returning, otherwise the scope (correctly) blocks.
#[expect(
    clippy::disallowed_methods,
    reason = "workers only execute ops; every result is consumed in rank order on the calling thread"
)]
pub(crate) fn run_scoped<'env, T>(
    workers: Vec<Box<dyn FnOnce() + Send + 'env>>,
    body: impl FnOnce() -> T,
) -> T {
    std::thread::scope(|scope| {
        for worker in workers {
            scope.spawn(worker);
        }
        body()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn body_runs_with_workers_alive() {
        let (tx, rx) = channel::<u32>();
        let (done_tx, done_rx) = channel::<()>();
        let worker: Box<dyn FnOnce() + Send> = Box::new(move || {
            tx.send(41).unwrap();
            // Exit when the body says so (models transport shutdown).
            done_rx.recv().unwrap();
        });
        let got = run_scoped(vec![worker], move || {
            let v = rx.recv().unwrap() + 1;
            done_tx.send(()).unwrap();
            v
        });
        assert_eq!(got, 42);
    }
}
