//! A parallel map over plain `std` threads.
//!
//! Campaign points vary wildly in cost — a saturated 64-node point simulates
//! an order of magnitude slower than an idle 16-node one — so a static split
//! leaves workers idle. Instead each worker claims the next unclaimed item
//! from one shared atomic cursor (one `fetch_add`, no lock) until none are
//! left, so no worker idles while an item is unclaimed. Each task runs to
//! completion in one call; nothing re-enters the pool.
//!
//! Determinism: the task receives the item and its index and must be a pure
//! function of them; results are stored by index, so the output is
//! independent of worker count, claim order and timing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Per-worker execution accounting from one pool run. Pure telemetry —
/// results never depend on it, and the cost is two `Instant` reads per task
/// (point execution dominates by orders of magnitude).
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub steps: u64,
    /// Tasks this worker ran beyond an even split, `steps − ⌈items /
    /// workers⌉` floored at 0: the work dynamic claiming moved onto it. The
    /// name predates the shared cursor, when that work was stolen from
    /// other workers' queues.
    pub steals: u64,
    /// Wall time spent inside task calls.
    pub busy: Duration,
    /// The worker thread's total lifetime.
    pub wall: Duration,
}

impl WorkerStats {
    /// Fraction of the worker's lifetime spent executing tasks (the rest is
    /// thread start-up, claims and the final hand-off).
    pub fn busy_fraction(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / wall).min(1.0)
        }
    }
}

/// Run `task(idx, item)` over every item on `workers` threads; results in
/// item order, plus per-worker [`WorkerStats`] (one entry per pool thread
/// actually spawned).
///
/// A panicking task ends its worker; the others go on claiming until every
/// item is taken, and the scope join rethrows the panic.
pub fn run_parallel<T, R, F>(items: &[T], workers: usize, task: F) -> (Vec<R>, Vec<WorkerStats>)
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    assert!(workers >= 1, "need at least one worker");
    let workers = workers.min(items.len()).max(1);
    let even_share = items.len().div_ceil(workers) as u64;
    let cursor = AtomicUsize::new(0);
    // Each slot is written once, by the worker that claimed its index.
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    let stats: Vec<OnceLock<WorkerStats>> = (0..workers).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (cursor, slots, stats, task) = (&cursor, &slots, &stats, &task);
            scope.spawn(move || {
                let born = Instant::now();
                let mut local = WorkerStats::default();
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(idx) else { break };
                    let t0 = Instant::now();
                    let _ = slots[idx].set(task(idx, item));
                    local.busy += t0.elapsed();
                    local.steps += 1;
                }
                local.steals = local.steps.saturating_sub(even_share);
                local.wall = born.elapsed();
                let _ = stats[w].set(local);
            });
        }
    });
    // A panicking task re-raises at the scope join, so once it returns
    // every item has run and every worker has exited.
    let results = slots.into_iter().map(|s| s.into_inner().expect("every item ran")).collect();
    let stats = stats.into_iter().map(|s| s.into_inner().expect("every worker exited")).collect();
    (results, stats)
}

/// The default worker count: the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<usize> = (0..97).collect();
        let (results, _) = run_parallel(&items, 8, |idx, &item| {
            assert_eq!(idx, item);
            item * 3
        });
        assert_eq!(results, (0..97).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let (_, stats) = run_parallel(&(0..50).collect::<Vec<_>>(), 4, |idx, _| {
            counts[idx].fetch_add(1, Ordering::SeqCst)
        });
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        assert_eq!(stats.iter().map(|s| s.steps).sum::<u64>(), 50, "one step per item");
        // A lone worker runs everything, which is exactly its even share.
        let (_, stats) = run_parallel(&(0..50).collect::<Vec<_>>(), 1, |idx, _| idx);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].steps, 50);
        assert_eq!(stats[0].steals, 0);
    }

    #[test]
    fn uneven_work_is_stolen() {
        // One pathological item 100× the cost of the rest: with 4 workers
        // the other three must claim the remaining items long before it
        // finishes.
        let items: Vec<u64> = (0..40).map(|i| if i == 0 { 2_000_000 } else { 20_000 }).collect();
        let (results, _) = run_parallel(&items, 4, |_, &spins| {
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_add(i).rotate_left(7);
            }
            std::hint::black_box(acc);
            spins
        });
        assert_eq!(results, items);
    }

    #[test]
    fn a_blocked_item_strands_no_other_item() {
        // Item 0 waits until every other item has run. A static split
        // would queue some of them behind it on its own worker and never
        // finish; with a shared cursor the other worker claims them all.
        let n = 20;
        let ran = AtomicUsize::new(0);
        let (results, stats) = run_parallel(&(0..n).collect::<Vec<_>>(), 2, |idx, _| {
            if idx == 0 {
                let give_up = Instant::now() + Duration::from_secs(30);
                while ran.load(Ordering::SeqCst) < n - 1 {
                    assert!(Instant::now() < give_up, "items behind the blocked one never ran");
                    std::thread::sleep(Duration::from_millis(1));
                }
            } else {
                ran.fetch_add(1, Ordering::SeqCst);
            }
            idx
        });
        assert_eq!(results, (0..n).collect::<Vec<_>>());
        // The blocked worker ran item 0 alone; the other ran its even share
        // of 10 and the 9 beyond it.
        let mut split: Vec<(u64, u64)> = stats.iter().map(|s| (s.steps, s.steals)).collect();
        split.sort_unstable();
        assert_eq!(split, [(1, 0), (19, 9)]);
    }

    #[test]
    fn single_worker_and_oversubscription_work() {
        let items = vec![1, 2, 3];
        for workers in [1, 64] {
            let (results, _) = run_parallel(&items, workers, |_, &x| x);
            assert_eq!(results, items);
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let (results, _) = run_parallel(&[] as &[u32], 4, |_, &x| x);
        assert!(results.is_empty());
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn panicking_task_propagates_instead_of_deadlocking() {
        // The panicking worker dies with task 3; the others claim every
        // remaining item, and the scope join rethrows the panic.
        let items: Vec<u32> = (0..8).collect();
        run_parallel(&items, 4, |idx, _| {
            if idx == 3 {
                panic!("task 3 exploded");
            }
            idx
        });
    }
}
