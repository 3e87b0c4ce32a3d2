//! A minimal spin lock with a guard-based safe interface.
//!
//! Modeled on *Rust Atomics and Locks* chapter 4: `swap`-based acquire with
//! acquire ordering, release store on unlock, and `spin_loop` hints while
//! contended. Intended only for critical sections of a few instructions
//! (e.g. the simulator's shared statistics counters); anything longer should
//! use `std::sync::Mutex`.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

/// A test-and-set spin lock protecting a value of type `T`.
pub struct SpinLock<T> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: the lock guarantees exclusive access to `value`; `T: Send` is
// required because the value may be dropped/accessed from another thread.
unsafe impl<T: Send> Sync for SpinLock<T> {}
unsafe impl<T: Send> Send for SpinLock<T> {}

/// RAII guard; the lock is released when the guard drops.
pub struct SpinGuard<'a, T> {
    lock: &'a SpinLock<T>,
}

impl<T> SpinLock<T> {
    /// Creates an unlocked spin lock holding `value`.
    pub const fn new(value: T) -> Self {
        Self {
            locked: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, spinning until it is available.
    pub fn lock(&self) -> SpinGuard<'_, T> {
        while self.locked.swap(true, Ordering::Acquire) {
            // Spin read-only until the lock looks free to avoid cache-line
            // ping-pong from repeated atomic swaps.
            while self.locked.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        }
        SpinGuard { lock: self }
    }

    /// Attempts to acquire the lock without spinning.
    pub fn try_lock(&self) -> Option<SpinGuard<'_, T>> {
        if self.locked.swap(true, Ordering::Acquire) {
            None
        } else {
            Some(SpinGuard { lock: self })
        }
    }

    /// Consumes the lock and returns the inner value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }

    /// Returns a mutable reference to the inner value.
    ///
    /// Requires `&mut self`, so no locking is necessary.
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T> Deref for SpinGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: holding the guard means we hold the lock.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: holding the guard means we hold the lock exclusively.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

impl<T: Default> Default for SpinLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn guards_exclusive_access() {
        let lock = SpinLock::new(0u64);
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        *lock.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*lock.lock(), 80_000);
    }

    #[test]
    fn try_lock_fails_when_held() {
        let lock = SpinLock::new(5);
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(g);
        assert_eq!(*lock.try_lock().expect("free after drop"), 5);
    }

    #[test]
    fn into_inner_returns_value() {
        let lock = SpinLock::new(vec![1, 2, 3]);
        assert_eq!(lock.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn get_mut_bypasses_lock() {
        let mut lock = SpinLock::new(7);
        *lock.get_mut() = 9;
        assert_eq!(*lock.lock(), 9);
    }
}
