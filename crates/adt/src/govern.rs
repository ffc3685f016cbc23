//! Resource governance: budgets, cooperative cancellation, and typed
//! degradation outcomes for the long-running solver phases.
//!
//! The staged pipeline computes a sound Andersen over-approximation
//! before any flow-sensitive work, so resource exhaustion mid-VSFS has a
//! principled recovery: stop, and fall back to the auxiliary result.
//! This module provides the machinery that makes every solver entry
//! point *bounded* and *cancellable* without giving up determinism:
//!
//! * [`Budget`] — optional wall-clock, step-count, and live-heap-bytes
//!   limits (heap bytes come from the counting allocator in
//!   [`crate::mem`], so the memory cap only observes real usage in
//!   binaries that install [`crate::mem::CountingAlloc`]).
//! * [`CancelToken`] — a shared `AtomicBool` plus an optional absolute
//!   deadline; cloning shares the flag, so one `cancel()` stops every
//!   governor holding the token.
//! * [`Governor`] — the per-run monitor the solvers call at iteration
//!   boundaries ([`Governor::check`]). The first exhausted limit *trips*
//!   the governor: the reason is recorded once, the token is cancelled
//!   so parallel workers drain, and every later check fails fast.
//! * [`Outcome`]/[`Completion`] — the typed result of a governed phase:
//!   either `Complete` or `Degraded(reason)`, never a panic or an
//!   unbounded loop.
//! * [`FaultSpec`] — deterministic fault injection (panic at the Nth
//!   task, virtual deadline/allocation-cap trips at the Nth checkpoint)
//!   used by `vsfs-testkit` to exercise degradation paths identically at
//!   every `--jobs` count.
//!
//! # Determinism
//!
//! Checkpoints (and therefore step counts and injected trips) advance
//! only at *sequential* points of the solvers — worklist pops, the
//! ordered versioning reduce — never inside parallel workers, so a
//! step-budget or injected trip fires at the same logical point for any
//! job count. Real wall-clock and memory trips are inherently
//! scheduling-dependent; tests that need bit-identical degradation use
//! injected trips instead.

use std::any::Any;
use std::fmt;
use std::panic;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

use crate::mem;

/// How often (in checkpoints) the governor polls the clock and the
/// allocator. Budget arithmetic and fault injection run every
/// checkpoint; only the `Instant::now()` / allocator reads are
/// amortised.
const POLL_INTERVAL: u64 = 64;

/// Optional resource limits for one governed run. `None` fields are
/// unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit, measured from [`Governor`] creation.
    pub time: Option<Duration>,
    /// Maximum solver steps (worklist pops / propagations) counted via
    /// [`Governor::check`].
    pub steps: Option<u64>,
    /// Maximum live heap bytes *above the baseline at governor
    /// creation*, as reported by [`mem::live_bytes`].
    pub mem_bytes: Option<usize>,
}

impl Budget {
    /// A budget with no limits.
    pub const fn unlimited() -> Self {
        Budget { time: None, steps: None, mem_bytes: None }
    }

    /// Sets the wall-clock limit.
    pub fn with_time(mut self, limit: Duration) -> Self {
        self.time = Some(limit);
        self
    }

    /// Sets the step limit.
    pub fn with_steps(mut self, limit: u64) -> Self {
        self.steps = Some(limit);
        self
    }

    /// Sets the live-heap limit in bytes.
    pub fn with_mem_bytes(mut self, limit: usize) -> Self {
        self.mem_bytes = Some(limit);
        self
    }

    /// Returns `true` if no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.time.is_none() && self.steps.is_none() && self.mem_bytes.is_none()
    }
}

/// Why a [`CancelToken`] reports cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The token's absolute deadline has passed.
    DeadlineExceeded,
}

/// A shared cancellation flag with an optional absolute deadline.
///
/// Clones share the underlying flag: cancelling any clone cancels them
/// all. The deadline is per-token state copied by `clone`, so tokens
/// derived from one [`CancelToken::with_deadline`] call agree on it.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token with no deadline.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A fresh token that reports cancellation once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken { flag: Arc::new(AtomicBool::new(false)), deadline: Some(deadline) }
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Why the token is cancelled, or `None` if it is not. An explicit
    /// `cancel()` takes precedence over the deadline.
    pub fn cause(&self) -> Option<CancelCause> {
        if self.flag.load(Ordering::SeqCst) {
            return Some(CancelCause::Cancelled);
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Some(CancelCause::DeadlineExceeded),
            _ => None,
        }
    }

    /// Returns `true` once cancelled or past the deadline.
    pub fn is_cancelled(&self) -> bool {
        self.cause().is_some()
    }

    /// The deadline this token enforces, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Wall-clock time left before the deadline: `None` for no deadline,
    /// `Some(ZERO)` once it has passed. Lets request handlers derive
    /// their own timeouts (e.g. socket read timeouts) from the same
    /// budget that governs the solve.
    pub fn time_left(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// A worker task that panicked, caught and reported instead of aborting
/// the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFault {
    /// Task index (deterministic: the caller keys tasks by input order).
    pub task: usize,
    /// The panic payload rendered as text.
    pub message: String,
}

impl fmt::Display for WorkerFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {} panicked: {}", self.task, self.message)
    }
}

/// Why a governed phase stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// The wall-clock budget (or token deadline) was exhausted.
    Deadline,
    /// The step budget was exhausted.
    StepBudget,
    /// The live-heap budget was exhausted.
    MemBudget,
    /// The cancel token was triggered externally.
    Cancelled,
    /// A parallel worker task panicked.
    WorkerPanic(WorkerFault),
    /// A fixed-capacity structure (e.g. a `u32`-id interner) ran out of
    /// ids; the named resource cannot grow further.
    CapacityExhausted {
        /// Which structure overflowed (e.g. `"version interner"`).
        resource: &'static str,
    },
}

impl DegradeReason {
    /// A stable machine-readable code for stats output.
    pub fn code(&self) -> &'static str {
        match self {
            DegradeReason::Deadline => "deadline",
            DegradeReason::StepBudget => "step-budget",
            DegradeReason::MemBudget => "mem-budget",
            DegradeReason::Cancelled => "cancelled",
            DegradeReason::WorkerPanic(_) => "worker-panic",
            DegradeReason::CapacityExhausted { .. } => "capacity",
        }
    }
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::Deadline => write!(f, "wall-clock budget exhausted"),
            DegradeReason::StepBudget => write!(f, "step budget exhausted"),
            DegradeReason::MemBudget => write!(f, "memory budget exhausted"),
            DegradeReason::Cancelled => write!(f, "cancelled"),
            DegradeReason::WorkerPanic(w) => write!(f, "worker fault: {w}"),
            DegradeReason::CapacityExhausted { resource } => {
                write!(f, "capacity exhausted: {resource}")
            }
        }
    }
}

/// How a governed phase finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completion {
    /// The phase ran to its natural fixpoint.
    Complete,
    /// The phase stopped early; the result is partial (or a fallback).
    Degraded(DegradeReason),
}

impl Completion {
    /// Returns `true` for [`Completion::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }

    /// `"complete"` or `"degraded"`.
    pub fn code(&self) -> &'static str {
        match self {
            Completion::Complete => "complete",
            Completion::Degraded(_) => "degraded",
        }
    }
}

/// The typed result of a governed phase: a value plus how it finished.
#[derive(Debug)]
pub struct Outcome<T> {
    /// The phase result. On degradation this is whatever partial or
    /// fallback value the phase documents — callers must consult
    /// [`Outcome::completion`] before trusting it.
    pub result: T,
    /// Whether the phase completed or degraded.
    pub completion: Completion,
}

/// The kind of deterministic fault a [`FaultSpec`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the task whose index equals `at` (caught by the
    /// parallel driver and reported as a [`WorkerFault`]).
    PanicAtTask,
    /// Trip the governor with [`DegradeReason::Deadline`] at checkpoint
    /// number `at` — a virtual clock-skew fault, deterministic where a
    /// real deadline is not.
    DeadlineAtCheckpoint,
    /// Trip the governor with [`DegradeReason::MemBudget`] at checkpoint
    /// number `at` — a virtual allocation-cap fault.
    MemCapAtCheckpoint,
}

impl FaultKind {
    /// A stable machine-readable name (`panic`, `deadline`, `mem-cap`).
    pub fn code(&self) -> &'static str {
        match self {
            FaultKind::PanicAtTask => "panic",
            FaultKind::DeadlineAtCheckpoint => "deadline",
            FaultKind::MemCapAtCheckpoint => "mem-cap",
        }
    }
}

/// One deterministic injected fault. Built by hand or from a seed via
/// `vsfs_testkit::fault::FaultPlan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Task index (for [`FaultKind::PanicAtTask`]) or 1-based checkpoint
    /// number (for the virtual trips).
    pub at: u64,
}

/// Payload type for injected panics, so the panic hook can stay silent
/// about faults the test harness injected on purpose.
#[derive(Debug)]
pub struct InjectedPanic {
    /// The task index the fault was injected into.
    pub task: usize,
}

/// Interruption report from a governed parallel region: the tasks that
/// panicked (sorted by task index) and/or a cancellation notice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParInterrupt {
    /// Worker faults caught via `catch_unwind`, sorted by task index.
    pub faults: Vec<WorkerFault>,
    /// `true` if the region stopped because the governor was cancelled.
    pub cancelled: bool,
}

/// The per-run resource monitor. Shared by reference across threads
/// (all state is atomic or mutex-guarded); solvers call
/// [`Governor::check`] at sequential iteration boundaries and parallel
/// workers poll [`Governor::is_cancelled`].
#[derive(Debug)]
pub struct Governor {
    budget: Budget,
    cancel: CancelToken,
    fault: Option<FaultSpec>,
    deadline: Option<Instant>,
    mem_baseline: usize,
    steps: AtomicU64,
    checkpoints: AtomicU64,
    tripped: AtomicBool,
    reason: Mutex<Option<DegradeReason>>,
}

impl Governor {
    /// A governor over `budget` with a private cancel token.
    pub fn new(budget: Budget) -> Self {
        Governor::with_cancel(budget, CancelToken::new())
    }

    /// A governor with no limits (useful as a default argument).
    pub fn unlimited() -> Self {
        Governor::new(Budget::unlimited())
    }

    /// A governor over `budget` sharing an external cancel token, so one
    /// token can bound several pipeline stages under a common deadline.
    pub fn with_cancel(budget: Budget, cancel: CancelToken) -> Self {
        let now = Instant::now();
        Governor {
            deadline: budget.time.map(|d| now + d),
            mem_baseline: mem::live_bytes(),
            budget,
            cancel,
            fault: None,
            steps: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            reason: Mutex::new(None),
        }
    }

    /// Attaches an injected fault. Installing a panic fault also arms
    /// the silencing panic hook so deliberate injections do not spam
    /// stderr.
    pub fn with_fault(mut self, fault: Option<FaultSpec>) -> Self {
        if matches!(fault, Some(FaultSpec { kind: FaultKind::PanicAtTask, .. })) {
            silence_injected_panics();
        }
        self.fault = fault;
        self
    }

    /// A clone of the governor's cancel token.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Steps accounted so far.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Checkpoints passed so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Returns `true` once any limit has tripped.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// The first recorded degradation reason, if any.
    pub fn reason(&self) -> Option<DegradeReason> {
        self.reason.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The completion state implied by the governor's trip state.
    pub fn completion(&self) -> Completion {
        match self.reason() {
            Some(r) => Completion::Degraded(r),
            None => Completion::Complete,
        }
    }

    /// Records `reason` as the degradation cause (first writer wins) and
    /// cancels the token so every cooperating phase stops.
    pub fn trip(&self, reason: DegradeReason) {
        {
            let mut slot = self.reason.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(reason);
            }
        }
        self.tripped.store(true, Ordering::Release);
        self.cancel.cancel();
    }

    /// Records the outcome of an interrupted parallel region: a caught
    /// worker fault if there was one, otherwise the cancellation cause.
    pub fn note_interrupt(&self, interrupt: &ParInterrupt) {
        if let Some(f) = interrupt.faults.first() {
            self.trip(DegradeReason::WorkerPanic(f.clone()));
        } else {
            self.trip(match self.cancel.cause() {
                Some(CancelCause::DeadlineExceeded) => DegradeReason::Deadline,
                _ => DegradeReason::Cancelled,
            });
        }
    }

    /// Cheap cancellation poll for parallel workers: `true` once the
    /// governor tripped or the token cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.tripped.load(Ordering::Relaxed) || self.cancel.is_cancelled()
    }

    /// The cooperative checkpoint. Solvers call this at each iteration
    /// boundary with the number of steps since the last call; the
    /// governor accounts them, runs injected faults, and polls the
    /// clock/allocator every `POLL_INTERVAL` checkpoints. Returns
    /// `Err(reason)` once tripped — sticky, so callers can simply break
    /// their loop.
    pub fn check(&self, new_steps: u64) -> Result<(), DegradeReason> {
        if self.tripped.load(Ordering::Acquire) {
            return Err(self.reason().expect("tripped governor has a reason"));
        }
        let steps = self.steps.fetch_add(new_steps, Ordering::Relaxed) + new_steps;
        if let Some(max) = self.budget.steps {
            if steps > max {
                self.trip(DegradeReason::StepBudget);
                return Err(self.reason().expect("just tripped"));
            }
        }
        let cp = self.checkpoints.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(f) = self.fault {
            if f.at == cp {
                match f.kind {
                    FaultKind::DeadlineAtCheckpoint => self.trip(DegradeReason::Deadline),
                    FaultKind::MemCapAtCheckpoint => self.trip(DegradeReason::MemBudget),
                    // Panic injection happens inside the task driver.
                    FaultKind::PanicAtTask => {}
                }
                if self.is_tripped() {
                    return Err(self.reason().expect("just tripped"));
                }
            }
        }
        if let Some(cause) = self.cancel.cause() {
            self.trip(match cause {
                CancelCause::DeadlineExceeded => DegradeReason::Deadline,
                CancelCause::Cancelled => DegradeReason::Cancelled,
            });
            return Err(self.reason().expect("just tripped"));
        }
        if cp == 1 || cp.is_multiple_of(POLL_INTERVAL) {
            if let Some(dl) = self.deadline {
                if Instant::now() >= dl {
                    self.trip(DegradeReason::Deadline);
                    return Err(self.reason().expect("just tripped"));
                }
            }
            if let Some(cap) = self.budget.mem_bytes {
                if mem::live_bytes().saturating_sub(self.mem_baseline) > cap {
                    self.trip(DegradeReason::MemBudget);
                    return Err(self.reason().expect("just tripped"));
                }
            }
        }
        Ok(())
    }

    /// Fault-injection hook called by the task driver with each task
    /// index before running it; panics (with an [`InjectedPanic`]
    /// payload) when this governor carries a matching panic fault.
    pub fn maybe_inject_panic(&self, task: usize) {
        if let Some(FaultSpec { kind: FaultKind::PanicAtTask, at }) = self.fault {
            if task as u64 == at {
                panic::panic_any(InjectedPanic { task });
            }
        }
    }
}

/// Renders a caught panic payload as text for [`WorkerFault::message`].
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(inj) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected panic at task {}", inj.task)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

static SILENCE: Once = Once::new();

/// Installs (once, process-wide) a panic hook that suppresses output for
/// [`InjectedPanic`] payloads and forwards everything else to the
/// previous hook. Armed automatically when a panic fault is attached.
pub fn silence_injected_panics() {
    SILENCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_trips() {
        let g = Governor::unlimited();
        for _ in 0..10_000 {
            assert!(g.check(3).is_ok());
        }
        assert!(g.completion().is_complete());
        assert_eq!(g.steps(), 30_000);
    }

    #[test]
    fn step_budget_trips_exactly_and_sticks() {
        let g = Governor::new(Budget::unlimited().with_steps(5));
        assert!(g.check(3).is_ok());
        assert!(g.check(2).is_ok()); // 5 <= 5: still inside the budget
        assert_eq!(g.check(1), Err(DegradeReason::StepBudget));
        // Sticky: later checks keep failing with the first reason.
        assert_eq!(g.check(0), Err(DegradeReason::StepBudget));
        assert_eq!(g.completion(), Completion::Degraded(DegradeReason::StepBudget));
        assert!(g.is_cancelled());
    }

    #[test]
    fn zero_step_budget_trips_on_first_step() {
        let g = Governor::new(Budget::unlimited().with_steps(0));
        assert_eq!(g.check(1), Err(DegradeReason::StepBudget));
    }

    #[test]
    fn cancel_token_is_shared_and_reported() {
        let token = CancelToken::new();
        let g = Governor::with_cancel(Budget::unlimited(), token.clone());
        assert!(g.check(1).is_ok());
        token.cancel();
        assert_eq!(g.check(1), Err(DegradeReason::Cancelled));
    }

    #[test]
    fn expired_deadline_token_reports_deadline() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let g = Governor::with_cancel(Budget::unlimited(), token);
        assert_eq!(g.check(1), Err(DegradeReason::Deadline));
    }

    #[test]
    fn time_budget_trips_at_poll_boundary() {
        let g = Governor::new(Budget::unlimited().with_time(Duration::ZERO));
        // cp 1 polls the clock immediately.
        assert_eq!(g.check(1), Err(DegradeReason::Deadline));
    }

    #[test]
    fn injected_virtual_trips_fire_at_exact_checkpoint() {
        let g = Governor::new(Budget::unlimited())
            .with_fault(Some(FaultSpec { kind: FaultKind::DeadlineAtCheckpoint, at: 3 }));
        assert!(g.check(1).is_ok());
        assert!(g.check(1).is_ok());
        assert_eq!(g.check(1), Err(DegradeReason::Deadline));

        let g = Governor::new(Budget::unlimited())
            .with_fault(Some(FaultSpec { kind: FaultKind::MemCapAtCheckpoint, at: 2 }));
        assert!(g.check(1).is_ok());
        assert_eq!(g.check(1), Err(DegradeReason::MemBudget));
    }

    #[test]
    fn trip_is_first_writer_wins() {
        let g = Governor::unlimited();
        g.trip(DegradeReason::MemBudget);
        g.trip(DegradeReason::Deadline);
        assert_eq!(g.reason(), Some(DegradeReason::MemBudget));
    }

    #[test]
    fn panic_message_renders_known_payloads() {
        assert_eq!(panic_message(&"boom"), "boom");
        assert_eq!(panic_message(&"boom".to_string()), "boom");
        assert_eq!(panic_message(&InjectedPanic { task: 7 }), "injected panic at task 7");
        assert_eq!(panic_message(&42u32), "worker panicked");
    }
}
