//! The priority run queue: tasks of varying thread width scheduled so
//! the total width of *concurrently running* tasks never exceeds one
//! global core budget.

use crate::cancel::CancelToken;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// One schedulable unit of work.
#[derive(Debug, Clone)]
pub struct Task<T> {
    /// The task payload handed to the runner.
    pub item: T,
    /// Cores the task occupies while running (a sharded-parallel run
    /// occupies its shard count). Clamped to `[1, budget]` at schedule
    /// time, so a run wider than the machine still gets exactly the
    /// whole budget instead of starving forever.
    pub width: usize,
    /// Scheduling priority, compared lexicographically (higher runs
    /// first; ties broken by submission order). Two lanes so callers can
    /// express "jobs in file order, and within a job the expensive
    /// high-load points first" without packing tricks.
    pub priority: [f64; 2],
}

/// Scheduler state shared by the worker threads.
struct Sched<T> {
    /// Unclaimed task indices, highest priority first.
    ready: Vec<usize>,
    /// Task storage, taken on claim.
    tasks: Vec<Option<Task<T>>>,
    /// Cores not currently occupied by a running task.
    free: usize,
}

/// Runs `tasks` on a scoped worker pool under a global budget of
/// `cores`, returning each task's result in submission order.
///
/// Scheduling: tasks are ordered by priority (descending, ties by
/// submission order); a worker claims the highest-priority task whose
/// (clamped) width fits the currently free cores, so narrow low-priority
/// tasks may backfill around a wide one that is waiting for the machine.
/// The *results* are independent of that schedule — each task runs in
/// isolation — so the returned vector is deterministic for any
/// deterministic runner; only the order of `on_result` callbacks varies.
///
/// Cancellation: once `cancel` is poisoned no further task is claimed;
/// tasks already running observe the same token through the runner's
/// second argument and wind down at their own granularity. Slots of
/// never-started tasks stay `None`.
///
/// `on_result` fires as each task completes (serialized — `&mut` state
/// is fine), which is what makes incremental sinks possible: a batch
/// interrupted halfway has already persisted every finished point.
pub fn run_tasks<T, R, F, S>(
    tasks: Vec<Task<T>>,
    cores: usize,
    cancel: &CancelToken,
    runner: F,
    on_result: S,
) -> Vec<Option<R>>
where
    T: Send,
    R: Send,
    F: Fn(T, &CancelToken) -> R + Sync,
    S: FnMut(usize, &R) + Send,
{
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let cores = cores.max(1);
    let mut ready: Vec<usize> = (0..n).collect();
    ready.sort_by(|&a, &b| {
        let (pa, pb) = (tasks[a].priority, tasks[b].priority);
        pb[0]
            .total_cmp(&pa[0])
            .then(pb[1].total_cmp(&pa[1]))
            .then(a.cmp(&b))
    });
    let width = |t: &Task<T>| t.width.clamp(1, cores);
    let sched = Mutex::new(Sched {
        ready,
        tasks: tasks.into_iter().map(Some).collect(),
        free: cores,
    });
    let idle = Condvar::new();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    // The sink and the result slots live behind one lock: `on_result`
    // must see the completion before the result becomes visible.
    let out = Mutex::new((on_result, &mut slots));

    let workers = cores.min(n);
    std::thread::scope(|scope| {
        let (sched, idle, out, runner) = (&sched, &idle, &out, &runner);
        for _ in 0..workers {
            scope.spawn(move || loop {
                let (idx, task, w) = {
                    let mut s = sched.lock().expect("scheduler poisoned");
                    loop {
                        if cancel.is_cancelled() || s.ready.is_empty() {
                            return;
                        }
                        let fit = s.ready.iter().position(|&i| {
                            width(s.tasks[i].as_ref().expect("unclaimed")) <= s.free
                        });
                        if let Some(pos) = fit {
                            let idx = s.ready.remove(pos);
                            let task = s.tasks[idx].take().expect("claimed twice");
                            let w = width(&task);
                            s.free -= w;
                            break (idx, task, w);
                        }
                        // Nothing fits: some wider-than-free task is at
                        // the head and cores are busy. A completion (or
                        // cancellation racing one) will notify; the
                        // timeout is belt and braces, not a spin loop.
                        s = idle
                            .wait_timeout(s, Duration::from_millis(50))
                            .expect("scheduler poisoned")
                            .0;
                    }
                };
                let result = runner(task.item, cancel);
                {
                    let mut o = out.lock().expect("result sink poisoned");
                    (o.0)(idx, &result);
                    o.1[idx] = Some(result);
                }
                let mut s = sched.lock().expect("scheduler poisoned");
                s.free += w;
                drop(s);
                idle.notify_all();
            });
        }
    });
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn unit_tasks(n: usize) -> Vec<Task<usize>> {
        (0..n)
            .map(|i| Task {
                item: i,
                width: 1,
                priority: [0.0, 0.0],
            })
            .collect()
    }

    #[test]
    fn empty_queue_returns_empty() {
        let r: Vec<Option<usize>> = run_tasks(
            Vec::<Task<usize>>::new(),
            4,
            &CancelToken::new(),
            |i, _| i,
            |_, _| {},
        );
        assert!(r.is_empty());
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let tasks: Vec<Task<usize>> = (0..20)
            .map(|i| Task {
                item: i,
                width: 1,
                priority: [(i % 3) as f64, 0.0],
            })
            .collect();
        let r = run_tasks(tasks, 4, &CancelToken::new(), |i, _| i * 10, |_, _| {});
        for (i, slot) in r.iter().enumerate() {
            assert_eq!(*slot, Some(i * 10));
        }
    }

    #[test]
    fn single_core_executes_in_priority_order() {
        // With one core the queue is serial, so the on_result order is
        // exactly the priority order: primary descending, secondary
        // descending, then submission order.
        let tasks = vec![
            Task {
                item: 0usize,
                width: 1,
                priority: [1.0, 0.0],
            },
            Task {
                item: 1,
                width: 1,
                priority: [2.0, 0.5],
            },
            Task {
                item: 2,
                width: 1,
                priority: [2.0, 0.9],
            },
            Task {
                item: 3,
                width: 1,
                priority: [2.0, 0.5],
            },
        ];
        let mut order = Vec::new();
        run_tasks(
            tasks,
            1,
            &CancelToken::new(),
            |i, _| i,
            |idx, _| order.push(idx),
        );
        assert_eq!(order, vec![2, 1, 3, 0]);
    }

    #[test]
    fn wide_tasks_never_oversubscribe_the_budget() {
        // Track the peak sum of widths running concurrently.
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let cores = 4;
        let tasks: Vec<Task<usize>> = (0..12)
            .map(|i| Task {
                item: 1 + i % 3, // widths 1, 2, 3
                width: 1 + i % 3,
                priority: [0.0, 0.0],
            })
            .collect();
        run_tasks(
            tasks,
            cores,
            &CancelToken::new(),
            |w, _| {
                let now = in_flight.fetch_add(w, Ordering::SeqCst) + w;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                in_flight.fetch_sub(w, Ordering::SeqCst);
                w
            },
            |_, _| {},
        );
        assert!(
            peak.load(Ordering::SeqCst) <= cores,
            "width sum exceeded the core budget: {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn a_task_wider_than_the_machine_still_runs() {
        let tasks = vec![
            Task {
                item: 7usize,
                width: 64,
                priority: [0.0, 0.0],
            },
            Task {
                item: 8,
                width: 1,
                priority: [0.0, 0.0],
            },
        ];
        let r = run_tasks(tasks, 2, &CancelToken::new(), |i, _| i, |_, _| {});
        assert_eq!(r, vec![Some(7), Some(8)]);
    }

    #[test]
    fn cancellation_stops_further_handout() {
        // One core: cancel from inside the second task; of the five
        // tasks, exactly the first two (priority order = submission
        // order here) complete.
        let cancel = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let r = run_tasks(
            unit_tasks(5),
            1,
            &cancel,
            |i, tok| {
                if ran.fetch_add(1, Ordering::SeqCst) == 1 {
                    tok.cancel();
                }
                i
            },
            |_, _| {},
        );
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        assert_eq!(r.iter().filter(|s| s.is_some()).count(), 2);
        assert_eq!(r[0], Some(0));
        assert_eq!(r[1], Some(1));
        assert_eq!(r[2], None);
    }

    #[test]
    fn on_result_sees_every_completion_exactly_once() {
        let mut seen = [0usize; 16];
        run_tasks(
            unit_tasks(16),
            3,
            &CancelToken::new(),
            |i, _| i,
            |idx, &r| {
                assert_eq!(idx, r);
                seen[idx] += 1;
            },
        );
        assert!(seen.iter().all(|&c| c == 1));
    }
}
