//! # astral-exec — deterministic parallel execution
//!
//! A dependency-free parallel map for embarrassingly parallel simulation
//! fan-outs: bench sweep points, `FaultCampaign` batteries, Seer testbed
//! grids. The design goal is **bit-for-bit determinism at any thread
//! count**, so parallelism is purely a wall-clock lever:
//!
//! * Work items are claimed from an atomic work-index queue by a fixed set
//!   of scoped worker threads (`std::thread::scope` — no detached threads,
//!   no global pool, no external crate).
//! * Every item's result is written to its **submission-order slot**, so
//!   the returned `Vec` is identical to what a serial loop would produce,
//!   regardless of which worker ran which item or in what order they
//!   finished. Associative accumulators (e.g. `SolverCounters`) folded over
//!   the returned vector therefore aggregate identically too.
//! * A thread count of 1 runs the items inline on the caller's thread —
//!   the exact pre-existing serial code path, with no threads spawned.
//! * A panic in any worker stops the pool from claiming further items and
//!   is re-raised on the caller with the payload of the **lowest-index**
//!   panicked item, so even failure is deterministic.
//!
//! The default thread count comes from `ASTRAL_THREADS` (falling back to
//! [`std::thread::available_parallelism`]), read per [`Pool::from_env`]
//! call so tests and harnesses can pin explicit counts via
//! [`Pool::with_threads`] without touching the environment.

#![warn(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable selecting the fan-out thread count.
pub const THREADS_ENV: &str = "ASTRAL_THREADS";

/// The thread count the environment requests: `ASTRAL_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism
/// (falling back to 1 when even that is unknown).
pub fn configured_threads() -> usize {
    if let Some(n) = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A fixed-width scoped-thread pool. Cheap to construct: threads are
/// spawned per [`Pool::run`] call inside a `std::thread::scope`, so a
/// `Pool` is nothing but a thread-count policy.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool sized by [`configured_threads`] (`ASTRAL_THREADS` or the
    /// machine's available parallelism).
    pub fn from_env() -> Self {
        Pool::with_threads(configured_threads())
    }

    /// A pool with an explicit thread count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The thread count this pool runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(0), f(1), …, f(n-1)` and return the results **in index
    /// order**. With 1 thread (or ≤ 1 items) the items run inline on the
    /// caller's thread — the exact serial code path.
    pub fn run<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }

        // Submission-order result slots; each is written exactly once by
        // whichever worker claims its index, so the per-slot mutexes are
        // uncontended.
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        // (item index, panic payload) per panicked item.
        let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());

        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    if poisoned.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(i))) {
                        Ok(r) => *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(r),
                        Err(payload) => {
                            poisoned.store(true, Ordering::Relaxed);
                            panics
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .push((i, payload));
                            break;
                        }
                    }
                });
            }
        });

        let mut panics = panics.into_inner().unwrap_or_else(|p| p.into_inner());
        if !panics.is_empty() {
            // Deterministic failure: re-raise the lowest-index panic, the
            // same one a serial loop would have hit first.
            panics.sort_by_key(|(i, _)| *i);
            resume_unwind(panics.remove(0).1);
        }

        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("every non-panicked slot is filled")
            })
            .collect()
    }

    /// Parallel map over a slice, results in submission order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run(items.len(), |i| f(&items[i]))
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

/// Convenience: [`Pool::from_env`]`.map(items, f)`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    Pool::from_env().map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        for threads in [1, 2, 8] {
            let out: Vec<u32> = Pool::with_threads(threads).run(0, |_| unreachable!());
            assert!(out.is_empty());
        }
    }

    #[test]
    fn results_merge_in_submission_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let got = Pool::with_threads(threads).map(&items, |&x| x * x + 1);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn uneven_work_still_merges_in_order() {
        // Early items are the slowest, so late items finish first on a
        // multi-thread pool; order must still be submission order.
        let got = Pool::with_threads(4).run(16, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20 - 4 * i as u64));
            }
            i
        });
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn counters_aggregate_associatively_at_any_width() {
        // Stand-in for SolverCounters: fold the returned vector in
        // submission order and compare against the serial fold.
        #[derive(Default, PartialEq, Debug)]
        struct Counters {
            events: u64,
            scans: u64,
        }
        let fold = |results: Vec<(u64, u64)>| {
            results.into_iter().fold(Counters::default(), |mut acc, r| {
                acc.events += r.0;
                acc.scans += r.1;
                acc
            })
        };
        let work = |i: usize| (i as u64 + 1, (i as u64) * 3);
        let serial = fold(Pool::with_threads(1).run(100, work));
        for threads in [2, 8] {
            assert_eq!(fold(Pool::with_threads(threads).run(100, work)), serial);
        }
    }

    #[test]
    fn worker_panic_propagates_lowest_index_payload() {
        let result = std::panic::catch_unwind(|| {
            Pool::with_threads(4).run(32, |i| {
                if i % 7 == 3 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        let payload = result.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom at 3", "lowest panicked index wins");
    }

    #[test]
    fn single_thread_runs_inline() {
        let caller = std::thread::current().id();
        let ids = Pool::with_threads(1).run(4, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
    }
}
