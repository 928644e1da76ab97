//! A work-stealing thread-pool executor over plain `std` threads.
//!
//! Campaign points vary wildly in cost — a saturated 64-node point simulates
//! an order of magnitude slower than an idle 16-node one — so static
//! sharding alone leaves workers idle. Each worker owns a deque seeded
//! round-robin; it pops its own work from the front and, when empty, steals
//! from the *back* of the longest victim deque (classic Arora-Blumofe-Plaxton
//! shape, coarse Mutex deques instead of lock-free CAS — point execution
//! dominates by orders of magnitude, so queue contention is irrelevant).
//!
//! Each task runs to completion in one call. Nothing re-enters a queue, so a
//! worker exits as soon as no deque holds work.
//!
//! Determinism: the task receives the item and its index and must be a pure
//! function of them; results land in a slot vector by index, so the output
//! is independent of worker count, stealing order and timing.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-worker execution accounting from one pool run. Pure telemetry —
/// results never depend on it, and the cost is two `Instant` reads per task
/// (point execution dominates by orders of magnitude).
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub steps: u64,
    /// Tasks that came off another worker's deque.
    pub steals: u64,
    /// Wall time spent inside task calls.
    pub busy: Duration,
    /// The worker thread's total lifetime.
    pub wall: Duration,
}

impl WorkerStats {
    /// Fraction of the worker's lifetime spent executing tasks (the rest is
    /// queue checks and steal scans).
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
/// A panicking task ends its worker; the scope join rethrows the panic once
/// the other workers have drained the deques.
pub fn run_work_stealing<T, R, F>(
    items: &[T],
    workers: usize,
    task: F,
) -> (Vec<R>, Vec<WorkerStats>)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    assert!(workers >= 1, "need at least one worker");
    let workers = workers.min(items.len()).max(1);

    // Round-robin initial shards: worker w owns items w, w+W, w+2W, …
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|w| Mutex::new((w..items.len()).step_by(workers).collect())).collect();
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let stats: Vec<Mutex<WorkerStats>> =
        (0..workers).map(|_| Mutex::new(WorkerStats::default())).collect();

    // NO-POISON: the `expect`s in this function cannot fire. Each lock
    // guards one pop, store or length read, none of which panics, and `task`
    // runs with no lock held. A panicking task re-raises at the scope join
    // before any slot is read, so every slot is filled when it is.
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (deques, slots, stats, task) = (&deques, &slots, &stats, &task);
            scope.spawn(move || {
                let born = Instant::now();
                let mut local = WorkerStats::default();
                loop {
                    // Own work first (front: preserves shard locality) …
                    let next = deques[w].lock().expect("deque poisoned").pop_front();
                    let idx = match next {
                        Some(idx) => idx,
                        // … then steal from the back of the fullest victim.
                        None => match steal(deques, w) {
                            Some(idx) => {
                                local.steals += 1;
                                idx
                            }
                            None => break,
                        },
                    };
                    let t0 = Instant::now();
                    let result = task(idx, &items[idx]);
                    local.busy += t0.elapsed();
                    local.steps += 1;
                    *slots[idx].lock().expect("slot poisoned") = Some(result);
                }
                local.wall = born.elapsed();
                *stats[w].lock().expect("stats poisoned") = local;
            });
        }
    });

    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot poisoned").expect("every item was executed"))
        .collect();
    let stats = stats.into_iter().map(|s| s.into_inner().expect("stats poisoned")).collect();
    (results, stats)
}

fn steal(deques: &[Mutex<VecDeque<usize>>], thief: usize) -> Option<usize> {
    // Pick the victim with the most queued work (snapshot; racy, so a
    // victim drained between the scan and the pop sends the thief back to
    // scan again). `None` only once every other deque is empty.
    loop {
        let mut best: Option<(usize, usize)> = None;
        for (v, deque) in deques.iter().enumerate() {
            if v == thief {
                continue;
            }
            let len = deque.lock().expect("deque poisoned").len();
            if len > 0 && best.is_none_or(|(_, blen)| len > blen) {
                best = Some((v, len));
            }
        }
        let (victim, _) = best?;
        if let Some(idx) = deques[victim].lock().expect("deque poisoned").pop_back() {
            return Some(idx);
        }
    }
}

/// The default worker count: the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<usize> = (0..97).collect();
        let (results, _) = run_work_stealing(&items, 8, |idx, &item| {
            assert_eq!(idx, item);
            item * 3
        });
        assert_eq!(results, (0..97).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let (_, stats) = run_work_stealing(&(0..50).collect::<Vec<_>>(), 4, |idx, _| {
            counts[idx].fetch_add(1, Ordering::SeqCst)
        });
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        assert_eq!(stats.iter().map(|s| s.steps).sum::<u64>(), 50, "one step per item");
    }

    #[test]
    fn uneven_work_is_stolen() {
        // One pathological item 100× the cost of the rest: with 4 workers
        // the other shards must drain via stealing long before it finishes.
        let items: Vec<u64> = (0..40).map(|i| if i == 0 { 2_000_000 } else { 20_000 }).collect();
        let (results, _) = run_work_stealing(&items, 4, |_, &spins| {
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
    fn single_worker_and_oversubscription_work() {
        let items = vec![1, 2, 3];
        for workers in [1, 64] {
            let (results, _) = run_work_stealing(&items, workers, |_, &x| x);
            assert_eq!(results, items);
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let (results, _) = run_work_stealing(&[] as &[u32], 4, |_, &x| x);
        assert!(results.is_empty());
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn panicking_task_propagates_instead_of_deadlocking() {
        // The panicking worker dies with task 3; the others drain every
        // deque, its own included, and the scope join rethrows the panic.
        let items: Vec<u32> = (0..8).collect();
        run_work_stealing(&items, 4, |idx, _| {
            if idx == 3 {
                panic!("task 3 exploded");
            }
            idx
        });
    }
}
