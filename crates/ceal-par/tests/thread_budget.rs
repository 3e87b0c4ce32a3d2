//! `CEAL_THREADS` sets the budget of top-level `parallel_map` calls, and
//! calls nested inside one get a share of it. `CEAL_THREADS` is
//! process-global, so everything lives in one `#[test]` to avoid races.

use ceal_par::{parallel_map, ThreadPool};
use std::sync::mpsc::channel;
use std::thread::{self, ThreadId};

/// Runs a 2-item outer map whose items each run a 2-item inner map,
/// returning the caller's thread and, per outer item, its worker's thread
/// and the threads of its inner items.
fn nested() -> (ThreadId, Vec<(ThreadId, Vec<ThreadId>)>) {
    let outer = parallel_map(&[0, 1], |_| {
        let inner = parallel_map(&[0, 1], |_| thread::current().id());
        (thread::current().id(), inner)
    });
    (thread::current().id(), outer)
}

#[test]
fn ceal_threads_budgets_top_level_calls_only() {
    // One thread: everything runs on the caller, as before nesting budgets.
    std::env::set_var("CEAL_THREADS", "1");
    let (caller, outer) = nested();
    for (worker, inner) in &outer {
        assert_eq!(*worker, caller);
        assert!(inner.iter().all(|t| *t == caller));
    }

    // Two threads: the top-level call fans out, each nested call stays on
    // the worker that made it.
    std::env::set_var("CEAL_THREADS", "2");
    let (caller, outer) = nested();
    assert_ne!(outer[0].0, outer[1].0);
    for (worker, inner) in &outer {
        assert_ne!(*worker, caller);
        assert!(inner.iter().all(|t| t == worker));
    }

    // A pool worker's call is top level too: it fans out.
    let pool = ThreadPool::new(1);
    let (tx, rx) = channel();
    pool.execute(move || {
        let _ = tx.send(nested());
    });
    let (pool_worker, outer) = rx.recv().expect("pool job ran");
    assert_ne!(outer[0].0, outer[1].0);
    assert!(outer.iter().all(|(w, _)| *w != pool_worker));
    std::env::remove_var("CEAL_THREADS");
}
