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
//! Tasks are **re-enqueueable**: [`run_work_stealing`] lets a task
//! return [`Step::Yield`] to park its state and go back on the queue instead
//! of running to completion. Convergence-controlled campaign points use this
//! to execute one replication batch at a time, so a point that needs 40
//! replications interleaves with the rest of the grid instead of pinning a
//! worker; idle workers wait for re-enqueued work rather than exiting while
//! any task is unfinished.
//!
//! Determinism: the step function receives the item, its index and its own
//! state, and must be a pure function of them; results land in a slot vector
//! by index, so the output is independent of worker count, stealing order
//! and timing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one execution step of a re-enqueueable task produced.
#[derive(Debug)]
pub enum Step<S, R> {
    /// Not finished: park this state and re-enqueue the task.
    Yield(S),
    /// Finished with this result.
    Done(R),
}

/// Per-worker execution accounting from one pool run. Pure telemetry —
/// results never depend on it, and the cost is two `Instant` reads per task
/// step (point execution dominates by orders of magnitude).
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Task steps this worker executed.
    pub steps: u64,
    /// Steps whose task came off another worker's deque.
    pub steals: u64,
    /// Wall time spent inside `step` calls.
    pub busy: Duration,
    /// The worker thread's total lifetime.
    pub wall: Duration,
}

impl WorkerStats {
    /// Fraction of the worker's lifetime spent executing task steps (the
    /// rest is queue checks and idle waits).
    pub fn busy_fraction(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / wall).min(1.0)
        }
    }
}

/// Run re-enqueueable tasks over every item on `workers` threads; results in
/// item order, plus per-worker [`WorkerStats`] (one entry per pool thread
/// actually spawned).
///
/// Each task starts from `init(idx, item)`; `step(idx, item, state)` is then
/// called — possibly repeatedly, possibly on different workers — until it
/// returns [`Step::Done`]. A yielded task goes to the back of the executing
/// worker's own deque, so its next batch queues behind work the worker
/// already owns and behind anything a thief grabs first.
///
/// Panics in `init`/`step` are propagated: a panicking worker raises a
/// poison flag on its way out so the idle-wait loops exit instead of
/// waiting forever for a task that will never finish, and the scope join
/// then rethrows the panic.
pub fn run_work_stealing<T, S, R, I, F>(
    items: &[T],
    workers: usize,
    init: I,
    step: F,
) -> (Vec<R>, Vec<WorkerStats>)
where
    T: Sync,
    S: Send,
    R: Send,
    I: Fn(usize, &T) -> S + Sync,
    F: Fn(usize, &T, S) -> Step<S, R> + Sync,
{
    assert!(workers >= 1, "need at least one worker");
    let workers = workers.min(items.len()).max(1);

    // Round-robin initial shards: worker w owns items w, w+W, w+2W, …
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|w| Mutex::new((w..items.len()).step_by(workers).collect())).collect();
    let states: Vec<Mutex<Option<S>>> =
        items.iter().enumerate().map(|(i, item)| Mutex::new(Some(init(i, item)))).collect();
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let stats: Vec<Mutex<WorkerStats>> =
        (0..workers).map(|_| Mutex::new(WorkerStats::default())).collect();
    // Tasks not yet Done. Workers must outlive every *yielding* task, not
    // just the initial queue — an idle worker waits on this counter instead
    // of exiting, so a re-enqueued batch can still be stolen.
    let remaining = AtomicUsize::new(items.len());
    // Raised when any worker panics: its task will never reach Done, so
    // idle workers must stop waiting on `remaining` or the scope join (and
    // therefore the panic propagation) would deadlock.
    let poisoned = AtomicBool::new(false);

    /// Sets the poison flag if the owning worker unwinds.
    struct PoisonOnPanic<'a>(&'a AtomicBool);
    impl Drop for PoisonOnPanic<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::Release);
            }
        }
    }

    std::thread::scope(|scope| {
        for w in 0..workers {
            let deques = &deques;
            let states = &states;
            let slots = &slots;
            let stats = &stats;
            let remaining = &remaining;
            let poisoned = &poisoned;
            let step = &step;
            scope.spawn(move || {
                let _guard = PoisonOnPanic(poisoned);
                let born = Instant::now();
                let mut local = WorkerStats::default();
                loop {
                    if remaining.load(Ordering::Acquire) == 0 || poisoned.load(Ordering::Acquire) {
                        break;
                    }
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
                            None => {
                                // Nothing queued, but unfinished tasks may
                                // yield more batches: wait instead of
                                // exiting. Point execution runs milliseconds
                                // to minutes, so a sub-millisecond nap costs
                                // nothing.
                                std::thread::sleep(Duration::from_micros(200));
                                continue;
                            }
                        },
                    };
                    let state = states[idx]
                        .lock()
                        .expect("state poisoned")
                        .take()
                        .expect("a queued task always has parked state");
                    let t0 = Instant::now();
                    let outcome = step(idx, &items[idx], state);
                    local.busy += t0.elapsed();
                    local.steps += 1;
                    match outcome {
                        Step::Yield(state) => {
                            *states[idx].lock().expect("state poisoned") = Some(state);
                            deques[w].lock().expect("deque poisoned").push_back(idx);
                        }
                        Step::Done(result) => {
                            *slots[idx].lock().expect("slot poisoned") = Some(result);
                            remaining.fetch_sub(1, Ordering::Release);
                        }
                    }
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
    // Pick the victim with the most queued work (snapshot; racy but only
    // affects efficiency, never correctness).
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
    deques[victim].lock().expect("deque poisoned").pop_back()
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
        let (results, _) = run_work_stealing(
            &items,
            8,
            |_, _| (),
            |idx, &item, ()| {
                assert_eq!(idx, item);
                Step::Done(item * 3)
            },
        );
        assert_eq!(results, (0..97).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        run_work_stealing(
            &(0..50).collect::<Vec<_>>(),
            4,
            |_, _| (),
            |idx, _, ()| Step::Done(counts[idx].fetch_add(1, Ordering::SeqCst)),
        );
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn uneven_work_is_stolen() {
        // One pathological item 100× the cost of the rest: with 4 workers
        // the other shards must drain via stealing long before it finishes.
        let items: Vec<u64> = (0..40).map(|i| if i == 0 { 2_000_000 } else { 20_000 }).collect();
        let (results, _) = run_work_stealing(
            &items,
            4,
            |_, _| (),
            |_, &spins, ()| {
                let mut acc = 0u64;
                for i in 0..spins {
                    acc = acc.wrapping_add(i).rotate_left(7);
                }
                std::hint::black_box(acc);
                Step::Done(spins)
            },
        );
        assert_eq!(results, items);
    }

    #[test]
    fn single_worker_and_oversubscription_work() {
        let items = vec![1, 2, 3];
        for workers in [1, 64] {
            let (results, _) =
                run_work_stealing(&items, workers, |_, _| (), |_, &x, ()| Step::Done(x));
            assert_eq!(results, items);
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let (results, _) =
            run_work_stealing(&[] as &[u32], 4, |_, _| (), |_, &x, ()| Step::Done(x));
        assert!(results.is_empty());
    }

    #[test]
    fn yielding_tasks_run_to_completion() {
        // Item k yields k times before finishing; the result counts the
        // steps actually executed. Every worker count must agree.
        let items: Vec<u32> = (0..23).collect();
        for workers in [1, 4, 16] {
            let (results, _) = run_work_stealing(
                &items,
                workers,
                |_, &k| k, // state: yields left
                |_, &k, left| {
                    if left == 0 {
                        Step::Done(k + 1) // k yields + 1 finishing step
                    } else {
                        Step::Yield(left - 1)
                    }
                },
            );
            assert_eq!(results, (0..23).map(|k| k + 1).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn panicking_task_propagates_instead_of_deadlocking() {
        // A panicked task never reaches Done, so `remaining` never hits
        // zero — without the poison flag the other workers would wait for
        // it forever and the panic would never surface.
        let items: Vec<u32> = (0..8).collect();
        run_work_stealing(
            &items,
            4,
            |_, _| (),
            |idx, _, ()| {
                if idx == 3 {
                    panic!("task 3 exploded");
                }
                Step::Done(idx)
            },
        );
    }

    #[test]
    fn workers_outlive_late_yields() {
        // One long-running multi-step task and many trivial ones: the
        // trivial ones drain instantly, then the long task keeps yielding.
        // Idle workers must wait (not exit) so the tail batches can still be
        // picked up — the run completing at all under a 4-worker pool with
        // sleeps between yields exercises exactly that window.
        let items: Vec<u64> = (0..12).map(|i| u64::from(i == 0) * 6).collect();
        let (results, _) = run_work_stealing(
            &items,
            4,
            |_, _| 0u64,
            |_, &yields, done| {
                if done >= yields {
                    Step::Done(done)
                } else {
                    std::thread::sleep(Duration::from_millis(2));
                    Step::Yield(done + 1)
                }
            },
        );
        assert_eq!(results[0], 6);
        assert!(results[1..].iter().all(|&r| r == 0));
    }
}
