//! A fixed-size work-sharing thread pool.
//!
//! Jobs are boxed closures pushed onto a `std::sync::mpsc` channel whose
//! receiver the worker threads share behind a mutex; each worker takes one
//! job under the lock and runs it after releasing it. Dropping the pool
//! closes the channel and joins all workers, so no job submitted before the
//! drop is lost. A [`WaitGroup`] lets callers block until a batch of
//! submitted jobs has completed without tearing the pool down.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads executing submitted jobs FIFO.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl ThreadPool {
    /// Creates a pool with `size` worker threads (at least one).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let rx = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("ceal-pool-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
            size,
        }
    }

    /// Creates a pool sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        Self::new(crate::available_threads())
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Submits a job for execution.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.sender
            .as_ref()
            .expect("pool sender present until drop")
            .send(Box::new(job))
            .expect("pool workers alive until drop");
    }

    /// Submits a job tracked by `wg`; `wg.wait()` blocks until all tracked
    /// jobs (across any number of `execute_tracked` calls) have finished.
    pub fn execute_tracked<F: FnOnce() + Send + 'static>(&self, wg: &WaitGroup, job: F) {
        let token = wg.add();
        self.execute(move || {
            job();
            drop(token);
        });
    }
}

/// Runs jobs until every sender is dropped. The job is taken in its own
/// statement so the receiver guard drops before the job runs; holding it
/// across `job()` would serialize the whole pool.
fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        match job {
            Ok(job) => job(),
            Err(_) => return,
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel lets workers drain remaining jobs and exit.
        self.sender.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[derive(Default)]
struct WgState {
    count: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Counts outstanding jobs; `wait` blocks until the count returns to zero.
#[derive(Clone, Default)]
pub struct WaitGroup {
    state: Arc<WgState>,
}

/// Token representing one outstanding job; dropping it decrements the count.
pub struct WgToken {
    state: Arc<WgState>,
}

impl WaitGroup {
    /// Creates an empty wait group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one outstanding job.
    pub fn add(&self) -> WgToken {
        self.state.count.fetch_add(1, Ordering::AcqRel);
        WgToken {
            state: Arc::clone(&self.state),
        }
    }

    /// Blocks until every registered job's token has been dropped.
    pub fn wait(&self) {
        let mut guard = self.state.lock.lock().expect("wait-group mutex poisoned");
        while self.state.count.load(Ordering::Acquire) != 0 {
            guard = self
                .state
                .cv
                .wait(guard)
                .expect("wait-group mutex poisoned");
        }
    }
}

impl Drop for WgToken {
    fn drop(&mut self) {
        if self.state.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.state.lock.lock().expect("wait-group mutex poisoned");
            self.state.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_all_jobs_before_drop() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(4);
            for _ in 0..100 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop joins workers after draining
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn wait_group_blocks_until_batch_done() {
        let pool = ThreadPool::new(3);
        let wg = WaitGroup::new();
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.execute_tracked(&wg, move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        wg.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn empty_wait_group_returns_immediately() {
        WaitGroup::new().wait();
    }

    #[test]
    fn pool_size_is_at_least_one() {
        assert_eq!(ThreadPool::new(0).size(), 1);
    }

    #[test]
    fn jobs_run_concurrently() {
        // Two jobs that can only finish together: a pool that held the
        // receiver lock while running a job would leave the second queued
        // and the first stuck at the barrier.
        let pool = ThreadPool::new(2);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (done_tx, done_rx) = channel();
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            let done_tx = done_tx.clone();
            pool.execute(move || {
                barrier.wait();
                let _ = done_tx.send(());
            });
        }
        let both = (0..2).all(|_| {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .is_ok()
        });
        if !both {
            // The job stuck at the barrier would hang the pool's joining drop.
            std::mem::forget(pool);
        }
        assert!(both, "both jobs must run at once");
    }

    #[test]
    fn wait_group_reusable_across_batches() {
        let pool = ThreadPool::new(2);
        let wg = WaitGroup::new();
        let counter = Arc::new(AtomicU64::new(0));
        for batch in 0..3 {
            for _ in 0..10 {
                let c = Arc::clone(&counter);
                pool.execute_tracked(&wg, move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            wg.wait();
            assert_eq!(counter.load(Ordering::Relaxed), (batch + 1) * 10);
        }
    }
}
