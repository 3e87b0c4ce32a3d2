//! Bounded step streams with back-pressure.
//!
//! A stream carries *steps* — batches of [`Variable`]s published
//! atomically. Capacity is bounded both in steps and in bytes; a writer
//! publishing into a full stream blocks until the reader consumes (the
//! producer-side synchronization the simulator's engine models). Closing
//! the writer lets the reader drain remaining steps and then observe
//! end-of-stream; dropping the reader unblocks the writer with an error.

use crate::var::Variable;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One published step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepData {
    /// Step sequence number (0-based).
    pub step: u64,
    /// The variables published in this step.
    pub variables: Vec<Variable>,
}

impl StepData {
    /// Total payload bytes.
    pub fn nbytes(&self) -> usize {
        self.variables.iter().map(Variable::nbytes).sum()
    }

    /// Finds a variable by name.
    pub fn get(&self, name: &str) -> Option<&Variable> {
        self.variables.iter().find(|v| v.name == name)
    }
}

/// Why a receive ended without data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// Writer closed and all steps have been drained.
    Closed,
}

/// Cumulative transfer statistics of one stream.
#[derive(Debug, Default)]
pub struct StreamStats {
    /// Steps published.
    pub steps_written: AtomicU64,
    /// Steps consumed.
    pub steps_read: AtomicU64,
    /// Payload bytes moved.
    pub bytes_moved: AtomicU64,
    /// Nanoseconds the writer spent blocked on capacity.
    pub writer_blocked_ns: AtomicU64,
    /// Nanoseconds the reader spent blocked waiting for data.
    pub reader_blocked_ns: AtomicU64,
}

impl StreamStats {
    /// Writer blocked time.
    pub fn writer_blocked(&self) -> Duration {
        Duration::from_nanos(self.writer_blocked_ns.load(Ordering::Relaxed))
    }

    /// Reader blocked time.
    pub fn reader_blocked(&self) -> Duration {
        Duration::from_nanos(self.reader_blocked_ns.load(Ordering::Relaxed))
    }
}

struct Inner {
    queue: VecDeque<StepData>,
    queued_bytes: usize,
    capacity_steps: usize,
    capacity_bytes: usize,
    writer_closed: bool,
    reader_closed: bool,
}

struct Shared {
    inner: Mutex<Inner>,
    space: Condvar,
    data: Condvar,
    stats: StreamStats,
    name: String,
}

impl Shared {
    /// The queue lock, ignoring poison: a panicking peer cannot leave the
    /// queue half-updated, and the survivor must still see close flags.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Producer endpoint of a stream.
pub struct Writer {
    shared: Arc<Shared>,
    next_step: u64,
}

/// Consumer endpoint of a stream.
pub struct Reader {
    shared: Arc<Shared>,
}

/// Creates a bounded step stream.
///
/// A step always fits: a single step larger than `capacity_bytes` is
/// admitted alone (mirroring ADIOS, which never rejects the current step).
///
/// ```
/// use ceal_staging::{channel, Variable};
///
/// let (mut writer, reader) = channel("sim->viz", 2, 1 << 20);
/// std::thread::scope(|s| {
///     s.spawn(move || {
///         for step in 0..5 {
///             let field = vec![step as f64; 100];
///             writer.put(vec![Variable::from_f64("u", vec![100], &field)]).unwrap();
///         }
///     });
///     let mut seen = 0;
///     while let Ok(step) = reader.next_step() {
///         assert_eq!(step.get("u").unwrap().as_f64()[0], step.step as f64);
///         seen += 1;
///     }
///     assert_eq!(seen, 5);
/// });
/// ```
pub fn channel(
    name: impl Into<String>,
    capacity_steps: usize,
    capacity_bytes: usize,
) -> (Writer, Reader) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            queued_bytes: 0,
            capacity_steps: capacity_steps.max(1),
            capacity_bytes: capacity_bytes.max(1),
            writer_closed: false,
            reader_closed: false,
        }),
        space: Condvar::new(),
        data: Condvar::new(),
        stats: StreamStats::default(),
        name: name.into(),
    });
    (
        Writer {
            shared: Arc::clone(&shared),
            next_step: 0,
        },
        Reader { shared },
    )
}

impl Writer {
    /// Publishes one step, blocking while the stream is at capacity.
    ///
    /// Returns `Err` with the step back if the reader is gone.
    pub fn put(&mut self, variables: Vec<Variable>) -> Result<u64, Vec<Variable>> {
        let step = StepData {
            step: self.next_step,
            variables,
        };
        let bytes = step.nbytes();
        let start = Instant::now();
        let mut inner = self.shared.lock();
        loop {
            if inner.reader_closed {
                return Err(step.variables);
            }
            let fits_steps = inner.queue.len() < inner.capacity_steps;
            let fits_bytes =
                inner.queued_bytes + bytes <= inner.capacity_bytes || inner.queue.is_empty();
            if fits_steps && fits_bytes {
                break;
            }
            inner = self
                .shared
                .space
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let blocked = start.elapsed();
        inner.queued_bytes += bytes;
        inner.queue.push_back(step);
        drop(inner);

        self.shared
            .stats
            .writer_blocked_ns
            .fetch_add(blocked.as_nanos() as u64, Ordering::Relaxed);
        self.shared
            .stats
            .steps_written
            .fetch_add(1, Ordering::Relaxed);
        self.shared
            .stats
            .bytes_moved
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.shared.data.notify_one();
        let s = self.next_step;
        self.next_step += 1;
        Ok(s)
    }

    /// Stream name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> &StreamStats {
        &self.shared.stats
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.writer_closed = true;
        drop(inner);
        self.shared.data.notify_all();
    }
}

impl Reader {
    /// Receives the next step, blocking until one is available. Returns
    /// `Err(Closed)` when the writer has closed and the queue is drained.
    pub fn next_step(&self) -> Result<StepData, RecvError> {
        let start = Instant::now();
        let mut inner = self.shared.lock();
        loop {
            if let Some(step) = inner.queue.pop_front() {
                inner.queued_bytes -= step.nbytes();
                drop(inner);
                self.shared
                    .stats
                    .reader_blocked_ns
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                self.shared.stats.steps_read.fetch_add(1, Ordering::Relaxed);
                self.shared.space.notify_one();
                return Ok(step);
            }
            if inner.writer_closed {
                return Err(RecvError::Closed);
            }
            inner = self
                .shared
                .data
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Iterates over remaining steps until the stream closes.
    pub fn iter(&self) -> impl Iterator<Item = StepData> + '_ {
        std::iter::from_fn(move || self.next_step().ok())
    }

    /// Stream name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> &StreamStats {
        &self.shared.stats
    }
}

impl Drop for Reader {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.reader_closed = true;
        drop(inner);
        self.shared.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn var(n: usize) -> Variable {
        Variable::from_f64("x", vec![n], &vec![1.0; n])
    }

    #[test]
    fn steps_arrive_in_order() {
        let (mut w, r) = channel("t", 4, 1 << 20);
        thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..10 {
                    w.put(vec![var(8)]).unwrap();
                }
            });
            for expect in 0..10 {
                assert_eq!(r.next_step().unwrap().step, expect);
            }
            assert_eq!(r.next_step(), Err(RecvError::Closed));
        });
    }

    #[test]
    fn writer_blocks_on_step_capacity() {
        let (mut w, r) = channel("t", 2, 1 << 30);
        thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..6 {
                    w.put(vec![var(4)]).unwrap();
                }
            });
            // Give the writer a chance to fill the buffer and block.
            thread::sleep(Duration::from_millis(30));
            let mut got = 0;
            while r.next_step().is_ok() {
                got += 1;
            }
            assert_eq!(got, 6);
            assert!(r.stats().writer_blocked() > Duration::from_millis(10));
        });
    }

    #[test]
    fn byte_capacity_backpressures() {
        // 100-byte budget, 64-byte steps: only one queued step fits.
        let (mut w, r) = channel("t", 100, 100);
        thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..4 {
                    w.put(vec![var(8)]).unwrap();
                }
            });
            thread::sleep(Duration::from_millis(20));
            let mut got = 0;
            while r.next_step().is_ok() {
                got += 1;
            }
            assert_eq!(got, 4);
        });
    }

    #[test]
    fn oversized_step_is_admitted_alone() {
        let (mut w, r) = channel("t", 4, 16);
        w.put(vec![var(1000)]).unwrap(); // 8000 bytes > 16-byte budget
        assert_eq!(r.next_step().unwrap().nbytes(), 8000);
    }

    #[test]
    fn reader_blocks_until_data() {
        let (mut w, r) = channel("t", 4, 1 << 20);
        thread::scope(|s| {
            s.spawn(move || {
                thread::sleep(Duration::from_millis(30));
                w.put(vec![var(2)]).unwrap();
            });
            let step = r.next_step().unwrap();
            assert_eq!(step.step, 0);
            assert!(r.stats().reader_blocked() > Duration::from_millis(10));
        });
    }

    #[test]
    fn dropping_reader_unblocks_writer_with_error() {
        let (mut w, r) = channel("t", 1, 1 << 20);
        w.put(vec![var(1)]).unwrap();
        drop(r);
        assert!(w.put(vec![var(1)]).is_err());
    }

    #[test]
    fn stats_count_traffic() {
        let (mut w, r) = channel("t", 8, 1 << 20);
        for _ in 0..3 {
            w.put(vec![var(4)]).unwrap();
        }
        let _ = r.next_step().unwrap();
        assert_eq!(r.stats().steps_written.load(Ordering::Relaxed), 3);
        assert_eq!(r.stats().steps_read.load(Ordering::Relaxed), 1);
        assert_eq!(r.stats().bytes_moved.load(Ordering::Relaxed), 3 * 32);
    }

    #[test]
    fn get_finds_variables_by_name() {
        let (mut w, r) = channel("t", 2, 1 << 20);
        w.put(vec![
            Variable::from_f64("u", vec![1], &[1.0]),
            Variable::from_f64("v", vec![1], &[2.0]),
        ])
        .unwrap();
        let step = r.next_step().unwrap();
        assert_eq!(step.get("v").unwrap().as_f64(), vec![2.0]);
        assert!(step.get("w").is_none());
    }
}
