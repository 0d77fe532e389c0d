//! An atomic counter with `fetch_and_increment` and decrease-to-target semantics.
//!
//! The Block-STM scheduler (Algorithm 4) drives task selection with two indices,
//! `execution_idx` and `validation_idx`. Threads claim work by `fetch_and_increment`
//! (Lines 123 and 130 of the paper) and the scheduler *lowers* an index when new work
//! appears for an already-passed transaction (`decrease_execution_idx` /
//! `decrease_validation_idx`, Lines 99 and 104, which set the index to
//! `min(index, target)`).
//!
//! [`AtomicMinCounter`] packages exactly those two operations. The paper also counts
//! decreases for its double-collect completion check; this scheduler derives
//! completion from its commit ladder instead and needs no such counter.

use crate::padded::CachePadded;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A cache-padded atomic counter used as an ordered-set cursor.
///
/// Supports the three operations the collaborative scheduler needs:
/// [`load`](Self::load), [`fetch_and_increment`](Self::fetch_and_increment) and
/// [`decrease`](Self::decrease) (atomic `min`).
#[derive(Debug, Default)]
pub struct AtomicMinCounter {
    value: CachePadded<AtomicUsize>,
}

impl AtomicMinCounter {
    /// Creates a new counter starting at `initial`.
    pub const fn new(initial: usize) -> Self {
        Self {
            value: CachePadded::new(AtomicUsize::new(initial)),
        }
    }

    /// Returns the current value.
    pub fn load(&self) -> usize {
        self.value.load(Ordering::SeqCst)
    }

    /// Atomically increments the counter and returns the value it held before the
    /// increment (the claimed index).
    pub fn fetch_and_increment(&self) -> usize {
        self.value.fetch_add(1, Ordering::SeqCst)
    }

    /// Atomically lowers the counter to `min(current, target)`.
    ///
    /// Returns `true` if the counter was actually lowered (i.e. `target` was strictly
    /// smaller than the previously stored value), `false` if it already was at or
    /// below `target`.
    pub fn decrease(&self, target: usize) -> bool {
        let prev = self.value.fetch_min(target, Ordering::SeqCst);
        prev > target
    }

    /// Stores an exact value. Only used by tests and by executors that reuse a
    /// scheduler across blocks.
    pub fn store(&self, value: usize) {
        self.value.store(value, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fetch_and_increment_returns_previous() {
        let counter = AtomicMinCounter::new(0);
        assert_eq!(counter.fetch_and_increment(), 0);
        assert_eq!(counter.fetch_and_increment(), 1);
        assert_eq!(counter.load(), 2);
    }

    #[test]
    fn decrease_reports_whether_it_lowered() {
        let counter = AtomicMinCounter::new(10);
        assert!(counter.decrease(4));
        assert_eq!(counter.load(), 4);
        assert!(!counter.decrease(4));
        assert!(!counter.decrease(7));
        assert_eq!(counter.load(), 4);
    }

    #[test]
    fn store_overwrites() {
        let counter = AtomicMinCounter::new(3);
        counter.store(99);
        assert_eq!(counter.load(), 99);
    }

    #[test]
    fn concurrent_claims_are_unique() {
        let counter = Arc::new(AtomicMinCounter::new(0));
        let per_thread = 5_000usize;
        let threads = 8usize;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let mut claimed = Vec::with_capacity(per_thread);
                    for _ in 0..per_thread {
                        claimed.push(counter.fetch_and_increment());
                    }
                    claimed
                })
            })
            .collect();
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), per_thread * threads, "claims must never repeat");
        assert_eq!(counter.load(), per_thread * threads);
    }

    #[test]
    fn concurrent_decrease_never_raises() {
        let counter = Arc::new(AtomicMinCounter::new(1_000));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for i in (0..500).rev() {
                        counter.decrease(i * 2 + t);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert!(
            counter.load() <= 3,
            "final value {} too high",
            counter.load()
        );
    }

    #[test]
    fn decrease_is_monotone_over_any_interleaving() {
        // The counter must always equal the running minimum of its history:
        // a decrease to a higher target is a no-op and reports `false`.
        let counter = AtomicMinCounter::new(100);
        let targets = [70usize, 90, 40, 40, 65, 12, 99, 12];
        let mut running_min = 100usize;
        for target in targets {
            let lowered = counter.decrease(target);
            assert_eq!(
                lowered,
                target < running_min,
                "decrease({target}) from {running_min} misreported"
            );
            running_min = running_min.min(target);
            assert_eq!(counter.load(), running_min);
        }
        // Claims resume from the lowered value.
        assert_eq!(counter.fetch_and_increment(), 12);
        assert_eq!(counter.load(), 13);
    }

    #[test]
    fn mixed_claims_and_decreases_stay_above_lowest_target() {
        // 4 claimer threads race 4 decreasing threads; whatever the
        // interleaving, the counter can never end below the lowest decrease
        // target (decrease is min, never subtraction).
        let counter = Arc::new(AtomicMinCounter::new(10_000));
        let lowest_target = 100usize;
        let mut handles = Vec::new();
        for _ in 0..4 {
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    counter.fetch_and_increment();
                }
            }));
        }
        for t in 0..4usize {
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    counter.decrease(lowest_target + t * 97 + i);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert!(
            counter.load() >= lowest_target,
            "counter {} fell below the lowest decrease target",
            counter.load()
        );
    }
}
