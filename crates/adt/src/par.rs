//! std-only parallel execution primitives.
//!
//! Everything here is built from `std::thread::scope`, mutex-sharded
//! queues, and atomic counters — no external crates. The design goal is
//! *deterministic* parallelism: callers arrange for worker output to be
//! keyed by task index, so the merged result is a pure function of the input regardless of thread
//! count or scheduling. The solvers build on three pieces:
//!
//! * [`ParConfig`] — a thread-count knob (`--jobs N`; `0` = all cores);
//! * [`ShardedWorklist`] — a work-stealing queue of task indices, sharded
//!   over per-worker mutexes to keep contention off the hot path;
//! * [`try_run_tasks_with`] — the scoped-thread driver: executes `n`
//!   independent tasks, seeds shards by a caller-provided cost estimate
//!   (longest processing time first), and returns results *in task
//!   order* plus [`ParStats`] counters for the stats layer.
//!
//! # Panic isolation
//!
//! Every task body runs under `catch_unwind`: a panicking task is
//! reported as a structured [`WorkerFault`] (task index + payload text)
//! while the surviving workers drain the queue. Historically a worker
//! panic unwound through `thread::scope` — and with *two* panicking
//! workers the scope's implicit joins panicked during unwinding, taking
//! the whole process down with an abort. The locks in
//! [`ShardedWorklist`] are additionally poison-tolerant, so no fault can
//! wedge the queue.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::govern::{panic_message, Governor, ParInterrupt, WorkerFault};

/// Locks a shard mutex, shrugging off poison: the queue holds plain
/// task data whose invariants cannot be broken mid-`push`/`pop`, and
/// task panics are caught before they can unwind through a held lock
/// anyway.
fn lock_shard<T>(m: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Thread-count configuration for the parallel phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Requested worker count; `0` means "use all available cores".
    pub jobs: usize,
}

impl ParConfig {
    /// A configuration running `jobs` workers (`0` = all cores).
    pub fn new(jobs: usize) -> Self {
        ParConfig { jobs }
    }

    /// The concrete worker count: `jobs`, or the machine's available
    /// parallelism when `jobs` is `0`.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.jobs
        }
    }
}

/// Execution counters from one parallel phase, fed into
/// [`crate::stats::PhaseTimer`] by the solvers.
#[derive(Debug, Default, Clone, Copy)]
pub struct ParStats {
    /// Number of tasks executed.
    pub tasks: usize,
    /// Tasks a worker popped from another worker's shard.
    pub steals: usize,
    /// Workers actually spawned.
    pub workers: usize,
    /// Wall-clock time of the parallel region.
    pub wall: Duration,
}

/// A work-stealing FIFO of homogeneous tasks, sharded over per-worker
/// mutexes.
///
/// Pops try the worker's home shard first and then scan the other
/// shards round-robin; an atomic count of outstanding items lets idle
/// workers terminate without a separate condition variable (the queue
/// is used for fixed task sets, not producer/consumer streams).
#[derive(Debug)]
pub struct ShardedWorklist<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    remaining: AtomicUsize,
    steals: AtomicUsize,
}

impl<T> ShardedWorklist<T> {
    /// An empty worklist with `shards` shards (at least 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedWorklist {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            remaining: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
        }
    }

    /// Pushes `item` onto shard `shard % shard_count`.
    pub fn push(&self, shard: usize, item: T) {
        self.remaining.fetch_add(1, Ordering::SeqCst);
        lock_shard(&self.shards[shard % self.shards.len()]).push_back(item);
    }

    /// Pops a task, preferring shard `home`, stealing from the others
    /// otherwise. Returns `None` once the worklist is globally empty.
    pub fn pop(&self, home: usize) -> Option<T> {
        let n = self.shards.len();
        loop {
            if self.remaining.load(Ordering::SeqCst) == 0 {
                return None;
            }
            for k in 0..n {
                let s = (home + k) % n;
                if let Some(item) = lock_shard(&self.shards[s]).pop_front() {
                    self.remaining.fetch_sub(1, Ordering::SeqCst);
                    if k != 0 {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    return Some(item);
                }
            }
            // All shards looked empty but `remaining` was non-zero: a
            // push raced ahead of its enqueue. Spin; the fixed task sets
            // used here make this window a few instructions wide.
            std::hint::spin_loop();
        }
    }

    /// Total cross-shard steals so far.
    pub fn steal_count(&self) -> usize {
        self.steals.load(Ordering::Relaxed)
    }
}

/// Runs `tasks` independent tasks on `config.effective_jobs()` scoped
/// threads and returns the results **in task order**, plus execution
/// counters. Each worker first builds private scratch state with `init`
/// and threads it through its tasks — the pattern the per-object
/// versioning phase uses to reuse one dense work area per worker
/// instead of reallocating per task.
///
/// `cost` estimates task weight (heavier tasks are distributed first,
/// longest-processing-time greedy) purely to balance the initial shard
/// assignment; the work-stealing pops make the estimate non-critical.
/// Output order — and therefore every downstream consumer — is
/// independent of the worker count.
///
/// * every task body runs under `catch_unwind`; panics become
///   [`WorkerFault`]s while the remaining tasks keep running;
/// * when a [`Governor`] is supplied, workers poll
///   [`Governor::is_cancelled`] between pops (stopping early once the
///   governor trips) and the governor's panic fault, if any, is
///   injected into the matching task index — in the sequential path
///   too, so injection behaves identically for every job count.
///
/// Returns `Err` if any task panicked or the region was cancelled; the
/// partial results are discarded (callers degrade instead).
pub fn try_run_tasks_with<S, R: Send>(
    config: ParConfig,
    tasks: usize,
    cost: impl Fn(usize) -> u64,
    governor: Option<&Governor>,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize) -> R + Sync,
) -> Result<(Vec<R>, ParStats), ParInterrupt> {
    let start = Instant::now();
    let jobs = config.effective_jobs().max(1).min(tasks.max(1));
    let exec = |state: &mut S, i: usize| -> Result<R, WorkerFault> {
        catch_unwind(AssertUnwindSafe(|| {
            if let Some(g) = governor {
                g.maybe_inject_panic(i);
            }
            run(state, i)
        }))
        .map_err(|payload| WorkerFault { task: i, message: panic_message(&*payload) })
    };

    if jobs <= 1 {
        let mut state = init();
        let mut out = Vec::with_capacity(tasks);
        let mut faults = Vec::new();
        let mut cancelled = false;
        for i in 0..tasks {
            if governor.is_some_and(|g| g.is_cancelled()) {
                cancelled = true;
                break;
            }
            match exec(&mut state, i) {
                Ok(r) => out.push(r),
                Err(f) => faults.push(f),
            }
        }
        if !faults.is_empty() || cancelled {
            return Err(ParInterrupt { faults, cancelled });
        }
        return Ok((out, ParStats { tasks, steals: 0, workers: 1, wall: start.elapsed() }));
    }

    // Seed shards LPT-style: heaviest tasks first, each onto the
    // currently lightest shard (ties to the lowest shard id).
    let wl = ShardedWorklist::new(jobs);
    let mut load = vec![0u64; jobs];
    let mut order: Vec<usize> = (0..tasks).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(cost(i)), i));
    for i in order {
        let shard = (0..jobs).min_by_key(|&s| (load[s], s)).unwrap();
        load[shard] += cost(i).max(1);
        wl.push(shard, i);
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(tasks);
    slots.resize_with(tasks, || None);
    let exec = &exec;
    let init = &init;
    let wl = &wl;
    type WorkerYield<R> = (Vec<(usize, R)>, Vec<WorkerFault>, bool);
    let collected: Vec<WorkerYield<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                scope.spawn(move || {
                    let mut state = init();
                    let mut mine = Vec::new();
                    let mut my_faults = Vec::new();
                    let mut stopped = false;
                    loop {
                        if governor.is_some_and(|g| g.is_cancelled()) {
                            stopped = true;
                            break;
                        }
                        let Some(i) = wl.pop(w) else { break };
                        match exec(&mut state, i) {
                            Ok(r) => mine.push((i, r)),
                            Err(f) => my_faults.push(f),
                        }
                    }
                    (mine, my_faults, stopped)
                })
            })
            .collect();
        // Worker closures catch task panics themselves, so join can
        // only fail on a harness-level bug; report it as a fault
        // rather than unwinding through the scope.
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|payload| {
                    let fault = WorkerFault { task: usize::MAX, message: panic_message(&*payload) };
                    (Vec::new(), vec![fault], false)
                })
            })
            .collect()
    });

    let mut faults = Vec::new();
    let mut cancelled = false;
    for (mine, my_faults, stopped) in collected {
        for (i, r) in mine {
            debug_assert!(slots[i].is_none());
            slots[i] = Some(r);
        }
        faults.extend(my_faults);
        cancelled |= stopped;
    }
    if !faults.is_empty() || cancelled {
        faults.sort_by_key(|f| f.task);
        return Err(ParInterrupt { faults, cancelled });
    }
    let out: Vec<R> = slots.into_iter().map(|s| s.expect("task not executed")).collect();
    let stats = ParStats { tasks, steals: wl.steal_count(), workers: jobs, wall: start.elapsed() };
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An ungoverned run whose tasks must not panic.
    fn run_tasks<R: Send>(
        config: ParConfig,
        tasks: usize,
        cost: impl Fn(usize) -> u64,
        run: impl Fn(usize) -> R + Sync,
    ) -> (Vec<R>, ParStats) {
        try_run_tasks_with(config, tasks, cost, None, || (), |(), i| run(i)).expect("no faults")
    }

    #[test]
    fn effective_jobs_resolves_zero() {
        assert!(ParConfig::new(0).effective_jobs() >= 1);
        assert_eq!(ParConfig::new(3).effective_jobs(), 3);
    }

    #[test]
    fn sharded_worklist_drains_fully() {
        let wl = ShardedWorklist::new(4);
        for i in 0..100 {
            wl.push(i, i);
        }
        let mut seen: Vec<usize> = std::iter::from_fn(|| wl.pop(2)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        assert!(wl.pop(0).is_none());
    }

    #[test]
    fn run_tasks_returns_in_task_order_for_any_job_count() {
        let expect: Vec<usize> = (0..257).map(|i| i * 3).collect();
        for jobs in [1usize, 2, 3, 8] {
            let (got, stats) = run_tasks(ParConfig::new(jobs), 257, |i| (i % 5) as u64, |i| i * 3);
            assert_eq!(got, expect, "jobs = {jobs}");
            assert_eq!(stats.tasks, 257);
            assert!(stats.workers <= jobs.max(1));
        }
    }

    #[test]
    fn run_tasks_handles_empty_and_tiny_sets() {
        let (got, _) = run_tasks(ParConfig::new(8), 0, |_| 1, |i| i);
        assert!(got.is_empty());
        let (got, _) = run_tasks(ParConfig::new(8), 1, |_| 1, |i| i + 10);
        assert_eq!(got, vec![10]);
    }

    /// Regression test for the pre-fix abort: two panicking workers used
    /// to unwind through `thread::scope` simultaneously — the scope's
    /// implicit joins then panicked *during unwinding*, aborting the
    /// process. Now every task panic is caught, reported as a sorted
    /// [`WorkerFault`] list, and the surviving workers drain the queue.
    #[test]
    fn multiple_worker_panics_report_faults_instead_of_aborting() {
        crate::govern::silence_injected_panics();
        for jobs in [1usize, 4] {
            let result = try_run_tasks_with(
                ParConfig::new(jobs),
                64,
                |_| 1,
                None,
                || (),
                |(), i| {
                    if i == 3 || i == 40 {
                        std::panic::panic_any(crate::govern::InjectedPanic { task: i });
                    }
                    i * 2
                },
            );
            let interrupt = result.expect_err("panicking tasks must interrupt");
            assert!(!interrupt.cancelled);
            assert_eq!(
                interrupt.faults.iter().map(|f| f.task).collect::<Vec<_>>(),
                vec![3, 40],
                "jobs = {jobs}"
            );
            for f in &interrupt.faults {
                assert!(f.message.contains("injected panic"), "message: {}", f.message);
            }
        }
        // The shared machinery stays healthy after faults: a fresh run
        // on the same thread completes normally (no poisoned state).
        let (got, _) = run_tasks(ParConfig::new(4), 16, |_| 1, |i| i + 1);
        assert_eq!(got, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn real_panic_payloads_are_reported_with_their_message() {
        crate::govern::silence_injected_panics();
        // A plain panic! payload (not an InjectedPanic) flows through
        // catch_unwind into the fault message. The hook above only
        // silences injected payloads, so this one line of stderr noise
        // is expected and harmless.
        let result = try_run_tasks_with(
            ParConfig::new(2),
            8,
            |_| 1,
            None,
            || (),
            |(), i| {
                assert!(i != 5, "task five exploded");
                i
            },
        );
        let interrupt = result.expect_err("panicking task must interrupt");
        assert_eq!(interrupt.faults.len(), 1);
        assert_eq!(interrupt.faults[0].task, 5);
        assert!(interrupt.faults[0].message.contains("task five exploded"));
    }

    #[test]
    fn governed_run_injects_panic_identically_for_any_job_count() {
        use crate::govern::{Budget, FaultKind, FaultSpec, Governor};
        for jobs in [1usize, 2, 8] {
            let g = Governor::new(Budget::unlimited())
                .with_fault(Some(FaultSpec { kind: FaultKind::PanicAtTask, at: 11 }));
            let result =
                try_run_tasks_with(ParConfig::new(jobs), 32, |_| 1, Some(&g), || (), |(), i| i);
            let interrupt = result.expect_err("injected panic must interrupt");
            assert_eq!(interrupt.faults.len(), 1, "jobs = {jobs}");
            assert_eq!(interrupt.faults[0].task, 11);
            g.note_interrupt(&interrupt);
            assert!(!g.completion().is_complete());
        }
    }

    #[test]
    fn governed_run_stops_when_cancelled() {
        use crate::govern::{Budget, Governor};
        let g = Governor::new(Budget::unlimited());
        g.cancel_token().cancel();
        let result = try_run_tasks_with(ParConfig::new(4), 1000, |_| 1, Some(&g), || (), |(), i| i);
        let interrupt = result.expect_err("cancelled run must interrupt");
        assert!(interrupt.cancelled);
        assert!(interrupt.faults.is_empty());
    }
}
