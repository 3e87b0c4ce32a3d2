//! Scoped fork-join parallelism over slices.
//!
//! Built directly on `std::thread::scope`, so closures may borrow from the
//! caller's stack (no `'static` bound). Work is split into contiguous chunks
//! — one per thread by default — which keeps spawn overhead negligible for
//! the coarse-grained tasks this workspace runs (simulating a workflow
//! configuration, training a model, one repetition of a tuning algorithm).
//!
//! Results are written into pre-sized output slots, so `parallel_map`
//! returns outputs in input order regardless of thread scheduling.
//!
//! # Nested calls share one budget
//!
//! A call made on a thread that no `parallel_map` spawned (the main thread,
//! a [`ThreadPool`](crate::ThreadPool) worker) may use
//! [`available_threads`]. Each chunk worker it spawns inherits a share of
//! that: `threads / chunks` threads, at least one. A `parallel_map` called
//! from inside a chunk uses at most its worker's share, and with a share of
//! one it runs inline on that worker. So a campaign-per-core fan-out whose
//! campaigns call `parallel_map` again keeps one thread per core instead of
//! spawning threads inside threads. Results do not depend on the thread
//! count, so nesting changes where work runs, never what it returns.

use std::cell::Cell;

thread_local! {
    /// Threads a `parallel_map` on this thread may use; `None` on threads
    /// that no chunk spawn made, which use [`available_threads`].
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads to use by default.
///
/// Honors the `CEAL_THREADS` environment variable when set (useful to make
/// benchmarks and tests deterministic in CI), otherwise the machine's
/// available parallelism. This is the budget of a top-level call; calls
/// nested inside a `parallel_map` get a share of it (see the module docs).
pub fn available_threads() -> usize {
    if let Ok(v) = std::env::var("CEAL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Splits `len` items into at most `threads` contiguous chunks.
pub fn chunk_count(len: usize, threads: usize) -> usize {
    len.min(threads.max(1)).max(1)
}

/// Applies `f` to every element of `items` in parallel, returning results in
/// input order. Falls back to a sequential loop for small inputs or a
/// thread budget of one (see the module docs on nested calls).
pub fn parallel_map<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(items: &[T], f: F) -> Vec<R> {
    parallel_map_indexed(items, |_, item| f(item))
}

/// Like [`parallel_map`] but the closure also receives the element index.
pub fn parallel_map_indexed<T: Sync, R: Send, F: Fn(usize, &T) -> R + Sync>(
    items: &[T],
    f: F,
) -> Vec<R> {
    let threads = BUDGET.with(Cell::get).unwrap_or_else(available_threads);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if threads == 1 || n == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let chunks = chunk_count(n, threads);
    let chunk_size = n.div_ceil(chunks);
    let share = (threads / chunks).max(1);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);

    std::thread::scope(|s| {
        // Pair each input chunk with its output chunk; both are disjoint,
        // so each spawned thread owns its slice exclusively.
        let mut rest: &mut [Option<R>] = &mut out;
        let mut offset = 0usize;
        let f = &f;
        while offset < n {
            let take = chunk_size.min(n - offset);
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let input = &items[offset..offset + take];
            let base = offset;
            s.spawn(move || {
                BUDGET.with(|b| b.set(Some(share)));
                for (k, (slot, item)) in head.iter_mut().zip(input).enumerate() {
                    *slot = Some(f(base + k, item));
                }
            });
            offset += take;
        }
    });

    out.into_iter()
        .map(|r| r.expect("every slot filled by its chunk"))
        .collect()
}

/// Runs `f` on every element in parallel for its side effects.
pub fn parallel_for_each<T: Sync, F: Fn(&T) + Sync>(items: &[T], f: F) {
    let _ = parallel_map(items, |t| f(t));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn map_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&input, |x| x * 2);
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |x| x + 1).is_empty());
        assert_eq!(parallel_map(&[41], |x| x + 1), vec![42]);
    }

    #[test]
    fn indexed_map_sees_correct_indices() {
        let input = vec!["a"; 257];
        let out = parallel_map_indexed(&input, |i, _| i);
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_visits_everything_once() {
        let input: Vec<usize> = (0..500).collect();
        let count = AtomicUsize::new(0);
        parallel_for_each(&input, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn closures_may_borrow_locals() {
        let factor = 3u64;
        let input: Vec<u64> = (0..64).collect();
        let out = parallel_map(&input, |x| x * factor);
        assert_eq!(out[10], 30);
    }

    /// Runs `f` on a fresh thread whose `parallel_map` budget is `threads`,
    /// as if it were a chunk worker given that share.
    fn on_budget<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| {
            s.spawn(|| {
                BUDGET.with(|b| b.set(Some(threads)));
                f()
            })
            .join()
            .expect("budget thread panicked")
        })
    }

    #[test]
    fn nested_map_runs_inline_on_its_worker() {
        let inner: Vec<u64> = (0..100).collect();
        let (caller, outer) = on_budget(2, || {
            let outer = parallel_map(&[0u64, 1], |&o| {
                let worker = thread::current().id();
                let res = parallel_map(&inner, |&x| (thread::current().id(), x * 3 + o));
                (worker, res)
            });
            (thread::current().id(), outer)
        });
        // The outer call fans out to two workers, neither of them the caller.
        assert_ne!(outer[0].0, outer[1].0);
        assert!(outer.iter().all(|(w, _)| *w != caller));
        for (o, (worker, res)) in outer.iter().enumerate() {
            assert!(
                res.iter().all(|(t, _)| t == worker),
                "inner call {o} left its worker"
            );
            let values: Vec<u64> = res.iter().map(|&(_, v)| v).collect();
            let sequential: Vec<u64> = inner.iter().map(|x| x * 3 + o as u64).collect();
            assert_eq!(values, sequential);
        }
    }

    #[test]
    fn workers_split_the_budget() {
        // 4 threads over 2 chunks leave each worker 2, so its nested call
        // still fans out to two threads of its own.
        let fanned = on_budget(4, || {
            parallel_map(&[0, 1], |_| {
                let worker = thread::current().id();
                let ids = parallel_map(&[0, 1], |_| thread::current().id());
                ids[0] != ids[1] && !ids.contains(&worker)
            })
        });
        assert_eq!(fanned, vec![true, true]);
    }

    #[test]
    fn chunk_count_bounds() {
        assert_eq!(chunk_count(0, 8), 1);
        assert_eq!(chunk_count(3, 8), 3);
        assert_eq!(chunk_count(100, 8), 8);
        assert_eq!(chunk_count(100, 0), 1);
    }
}
