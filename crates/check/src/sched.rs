//! The deterministic scheduler and its DFS schedule explorer.
//!
//! One *execution* (schedule) runs the model program on real OS threads,
//! but with exactly one thread unblocked at a time: every visible
//! operation first parks its thread in `ExecState::request`, and the
//! scheduler — running on the thread that called [`crate::model`] —
//! grants one parked request per step. Which request it grants is the
//! only source of nondeterminism, so recording the sequence of choices
//! makes the execution replayable, and depth-first search over those
//! choice points enumerates the whole (preemption-bounded) schedule
//! space.

use crate::{Failure, FailureKind, MAX_MODEL_THREADS};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock,
};

pub(crate) type Tid = usize;

/// A visible operation a model thread asks the scheduler to grant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// First yield of every model thread, before it runs user code.
    Start,
    /// Acquire model mutex `m`. Granted only while the mutex is free.
    Lock(usize),
    /// Atomically release `mutex` and sleep on `cv` (the release is the
    /// granted step; the wakeup arrives via [`Op::Notify`]).
    CondWait { cv: usize, mutex: usize },
    /// Wake one (FIFO) or all waiters of `cv`; woken threads move to
    /// [`Op::Lock`] on their released mutex.
    Notify { cv: usize, all: bool },
    /// One sequentially-consistent atomic access (op name, object id).
    Atomic(&'static str, usize),
    /// Join model thread `t`. Granted only once `t` finished.
    Join(Tid),
}

impl Op {
    fn describe(&self) -> String {
        match self {
            Op::Start => "start".to_string(),
            Op::Lock(m) => format!("lock(m{m})"),
            Op::CondWait { cv, mutex } => format!("wait(cv{cv}) releasing m{mutex}"),
            Op::Notify { cv, all: true } => format!("notify_all(cv{cv})"),
            Op::Notify { cv, all: false } => format!("notify_one(cv{cv})"),
            Op::Atomic(name, id) => format!("{name}(a{id})"),
            Op::Join(t) => format!("join(t{t})"),
        }
    }
}

#[derive(Debug)]
enum Status {
    /// OS thread spawned but not yet parked at its first yield.
    Starting,
    /// Parked at a yield point, waiting for the scheduler to grant `Op`.
    Requesting(Op),
    /// Granted: executing user code up to its next yield point.
    Running,
    /// Released its mutex inside a condvar wait; wakes via Notify.
    CondWaiting {
        cv: usize,
        mutex: usize,
        seq: u64,
    },
    Finished,
}

/// Kinds of model objects (ids are per-kind and per-execution).
#[derive(Clone, Copy, Debug)]
pub(crate) enum ObjKind {
    Mutex,
    Condvar,
    Atomic,
}

/// Panic payload used to unwind model threads when a failing schedule
/// aborts the execution; recognized (and swallowed) by the thread
/// wrappers.
pub(crate) struct Abort;

#[derive(Default)]
struct Sched {
    threads: Vec<Status>,
    mutex_owner: Vec<Option<Tid>>,
    n_cvs: usize,
    n_atomics: usize,
    wait_seq: u64,
    abort: bool,
    failure: Option<Failure>,
    trace: Vec<String>,
    steps: usize,
    last_chosen: Option<Tid>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

/// Shared state of one execution: the scheduler and every model thread
/// rendezvous through this lock + condvar pair.
pub(crate) struct ExecState {
    /// Distinguishes executions so model objects created in one cannot
    /// silently route a different one (they fall back to std behaviour).
    pub(crate) id: u64,
    m: StdMutex<Sched>,
    cv: StdCondvar,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    static MODEL_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// A model thread's identity: which execution it belongs to and its tid.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) exec: Arc<ExecState>,
    pub(crate) tid: Tid,
}

pub(crate) fn current_ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

pub(crate) fn set_ctx(exec: &Arc<ExecState>, tid: Tid) {
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            exec: Arc::clone(exec),
            tid,
        })
    });
    MODEL_THREAD.with(|f| f.set(true));
}

pub(crate) fn clear_ctx() {
    CTX.with(|c| *c.borrow_mut() = None);
    MODEL_THREAD.with(|f| f.set(false));
}

/// Model-thread panics are reported through [`Failure`] traces; the
/// default hook's stderr backtrace for every *explored* failing schedule
/// (mutation tests explore thousands) would drown test output, so a
/// process-wide filter silences the hook on model threads only.
pub(crate) fn install_quiet_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !MODEL_THREAD.with(|f| f.get()) {
                prev(info)
            }
        }));
    });
}

pub(crate) fn panic_msg(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl ExecState {
    /// The scheduler lock. Internal poison is impossible by construction
    /// (no user code runs under it), but shrug it off anyway: a poisoned
    /// scheduler must still be able to abort and drain its threads.
    fn locked(&self) -> StdMutexGuard<'_, Sched> {
        self.m.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub(crate) fn register_object(&self, kind: ObjKind) -> usize {
        let mut s = self.locked();
        match kind {
            ObjKind::Mutex => {
                s.mutex_owner.push(None);
                s.mutex_owner.len() - 1
            }
            ObjKind::Condvar => {
                s.n_cvs += 1;
                s.n_cvs - 1
            }
            ObjKind::Atomic => {
                s.n_atomics += 1;
                s.n_atomics - 1
            }
        }
    }

    pub(crate) fn register_thread(&self) -> Tid {
        let mut s = self.locked();
        let tid = s.threads.len();
        if tid >= MAX_MODEL_THREADS {
            drop(s);
            panic!("model exceeds MAX_MODEL_THREADS ({MAX_MODEL_THREADS}) live threads");
        }
        s.threads.push(Status::Starting);
        tid
    }

    pub(crate) fn add_os_handle(&self, handle: std::thread::JoinHandle<()>) {
        self.locked().os_handles.push(handle);
    }

    /// Park at a yield point until the scheduler grants `op`. Panics with
    /// [`Abort`] when the execution is being torn down.
    pub(crate) fn request(&self, tid: Tid, op: Op) {
        let mut s = self.locked();
        if s.abort {
            drop(s);
            std::panic::panic_any(Abort);
        }
        s.threads[tid] = Status::Requesting(op);
        self.cv.notify_all();
        loop {
            if s.abort {
                drop(s);
                std::panic::panic_any(Abort);
            }
            if matches!(s.threads[tid], Status::Running) {
                return;
            }
            s = self
                .cv
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Release model mutex `mid`. Not a yield point: the thread keeps its
    /// grant and runs on to its next visible operation (any interleaving
    /// lost by not switching here is reachable at that next yield, since
    /// the code in between touches no model-visible state).
    pub(crate) fn unlock(&self, tid: Tid, mid: usize) {
        let mut s = self.locked();
        debug_assert_eq!(s.mutex_owner[mid], Some(tid), "unlock by non-owner");
        s.mutex_owner[mid] = None;
        s.trace.push(format!("t{tid} unlock(m{mid})"));
        self.cv.notify_all();
    }

    pub(crate) fn finish_ok(&self, tid: Tid) {
        let mut s = self.locked();
        s.trace.push(format!("t{tid} finished"));
        s.threads[tid] = Status::Finished;
        self.cv.notify_all();
    }

    pub(crate) fn finish_abort(&self, tid: Tid) {
        let mut s = self.locked();
        s.threads[tid] = Status::Finished;
        self.cv.notify_all();
    }

    pub(crate) fn finish_panicked(&self, tid: Tid, msg: String) {
        let mut s = self.locked();
        if s.failure.is_none() {
            s.trace.push(format!("t{tid} panicked: {msg}"));
            s.failure = Some(Failure {
                kind: FailureKind::Panic(msg),
                trace: s.trace.clone(),
            });
        }
        s.abort = true;
        s.threads[tid] = Status::Finished;
        self.cv.notify_all();
    }
}

/// One scheduling decision on the DFS stack.
struct Decision {
    /// Grantable tids, default-first ([0] extends the current thread when
    /// it can continue — the preemption-free choice).
    candidates: Vec<Tid>,
    /// Which candidate the current branch takes.
    idx: usize,
    /// Preemptions consumed by the stack prefix before this decision.
    preemptions_before: usize,
    /// Whether the previously-running thread was grantable here — if so,
    /// every non-default candidate costs one preemption.
    prev_enabled: bool,
}

/// Depth-first enumerator over scheduling decisions, with a preemption
/// bound à la CHESS: the default branch always extends the running
/// thread when possible (zero preemptions), and alternatives that switch
/// away from a runnable thread are explored only while the budget lasts.
pub(crate) struct Explorer {
    bound: usize,
    stack: Vec<Decision>,
    depth: usize,
    preemptions: usize,
}

impl Explorer {
    pub(crate) fn new(bound: usize) -> Explorer {
        Explorer {
            bound,
            stack: Vec::new(),
            depth: 0,
            preemptions: 0,
        }
    }

    fn begin_execution(&mut self) {
        self.depth = 0;
        self.preemptions = 0;
    }

    /// Choose among `enabled` (ascending tids): replay the recorded
    /// branch below the stack frontier, extend with the default choice
    /// beyond it.
    fn pick(&mut self, enabled: Vec<Tid>, last: Option<Tid>) -> Result<Tid, String> {
        let mut ordered = enabled;
        let prev_enabled = last.is_some_and(|l| ordered.contains(&l));
        if let Some(l) = last {
            if let Some(pos) = ordered.iter().position(|&t| t == l) {
                ordered.remove(pos);
                ordered.insert(0, l);
            }
        }
        let chosen = if self.depth < self.stack.len() {
            let d = &self.stack[self.depth];
            if d.candidates != ordered {
                return Err(format!(
                    "decision {}: recorded candidates {:?}, replay saw {:?}",
                    self.depth, d.candidates, ordered
                ));
            }
            if d.idx > 0 && d.prev_enabled {
                self.preemptions += 1;
            }
            d.candidates[d.idx]
        } else {
            self.stack.push(Decision {
                candidates: ordered.clone(),
                idx: 0,
                preemptions_before: self.preemptions,
                prev_enabled,
            });
            ordered[0]
        };
        self.depth += 1;
        Ok(chosen)
    }

    /// Move to the next unexplored branch; false when the space is
    /// exhausted.
    pub(crate) fn advance(&mut self) -> bool {
        // Decisions beyond the depth actually reached belong to a longer
        // sibling branch that no longer exists.
        self.stack.truncate(self.depth);
        loop {
            let Some(d) = self.stack.last_mut() else {
                return false;
            };
            let next = d.idx + 1;
            // A non-default candidate is a preemption exactly when the
            // default extended a still-runnable thread.
            if next < d.candidates.len() && (!d.prev_enabled || d.preemptions_before < self.bound) {
                d.idx = next;
                self.begin_execution();
                return true;
            }
            self.stack.pop();
        }
    }
}

/// Run one execution of `f` under the explorer's current branch.
/// Returns the failure if this schedule failed.
pub(crate) fn run_one<F>(f: Arc<F>, explorer: &mut Explorer, max_steps: usize) -> Option<Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    explorer.begin_execution();
    static EXEC_IDS: AtomicU64 = AtomicU64::new(1);
    let exec = Arc::new(ExecState {
        id: EXEC_IDS.fetch_add(1, Ordering::Relaxed),
        m: StdMutex::new(Sched::default()),
        cv: StdCondvar::new(),
    });
    let tid0 = exec.register_thread();
    let exec_thread = Arc::clone(&exec);
    let h0 = std::thread::Builder::new()
        .name("model-t0".to_string())
        .spawn(move || {
            set_ctx(&exec_thread, tid0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                exec_thread.request(tid0, Op::Start);
                f();
            }));
            clear_ctx();
            match result {
                Ok(()) => exec_thread.finish_ok(tid0),
                Err(p) if p.is::<Abort>() => exec_thread.finish_abort(tid0),
                Err(p) => exec_thread.finish_panicked(tid0, panic_msg(&*p)),
            }
        })
        .expect("spawn model main thread");
    exec.add_os_handle(h0);

    let failure = scheduler(&exec, explorer, max_steps);

    // Every model OS thread must be gone before the next execution
    // starts, or a straggler could observe freshly-registered state.
    let handles = std::mem::take(&mut exec.locked().os_handles);
    for h in handles {
        let _ = h.join();
    }
    failure
}

/// The per-execution scheduler loop. Returns the failure recorded for
/// this schedule, if any.
fn scheduler(exec: &Arc<ExecState>, explorer: &mut Explorer, max_steps: usize) -> Option<Failure> {
    let mut s = exec.locked();
    loop {
        // Wait for quiescence: nobody running, nobody mid-startup.
        if s.threads
            .iter()
            .any(|t| matches!(t, Status::Starting | Status::Running))
        {
            s = exec
                .cv
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            continue;
        }
        if s.abort {
            // Tear down: every wake-up of a parked thread turns into an
            // Abort unwind; loop until they have all finished.
            exec.cv.notify_all();
            while s.threads.iter().any(|t| !matches!(t, Status::Finished)) {
                s = exec
                    .cv
                    .wait(s)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                exec.cv.notify_all();
            }
            return s.failure.clone();
        }
        if s.threads.iter().all(|t| matches!(t, Status::Finished)) {
            return s.failure.clone();
        }

        let enabled: Vec<Tid> = s
            .threads
            .iter()
            .enumerate()
            .filter_map(|(i, st)| match st {
                Status::Requesting(op) => match op {
                    Op::Lock(m) => s.mutex_owner[*m].is_none().then_some(i),
                    Op::Join(t) => matches!(s.threads[*t], Status::Finished).then_some(i),
                    _ => Some(i),
                },
                _ => None,
            })
            .collect();

        if enabled.is_empty() {
            // Quiescent, unfinished, nothing grantable: deadlock (or a
            // lost wakeup, which is the same thing observably).
            let stuck: Vec<String> = s
                .threads
                .iter()
                .enumerate()
                .filter_map(|(i, st)| match st {
                    Status::Requesting(op) => Some(format!("t{i} blocked on {}", op.describe())),
                    Status::CondWaiting { cv, .. } => {
                        Some(format!("t{i} waiting on cv{cv} (never notified)"))
                    }
                    _ => None,
                })
                .collect();
            s.failure = Some(Failure {
                kind: FailureKind::Deadlock(stuck.join("; ")),
                trace: s.trace.clone(),
            });
            s.abort = true;
            continue;
        }
        if s.steps >= max_steps {
            s.failure = Some(Failure {
                kind: FailureKind::StepBudget,
                trace: s.trace.clone(),
            });
            s.abort = true;
            continue;
        }

        let chosen = match explorer.pick(enabled, s.last_chosen) {
            Ok(t) => t,
            Err(msg) => {
                s.failure = Some(Failure {
                    kind: FailureKind::Nondeterminism(msg),
                    trace: s.trace.clone(),
                });
                s.abort = true;
                continue;
            }
        };
        s.steps += 1;
        s.last_chosen = Some(chosen);
        let Status::Requesting(op) = &s.threads[chosen] else {
            unreachable!("picked thread must be requesting");
        };
        let op = op.clone();
        s.trace.push(format!("t{chosen} {}", op.describe()));
        match op {
            Op::Lock(m) => {
                s.mutex_owner[m] = Some(chosen);
                s.threads[chosen] = Status::Running;
            }
            Op::CondWait { cv, mutex } => {
                debug_assert_eq!(s.mutex_owner[mutex], Some(chosen));
                s.mutex_owner[mutex] = None;
                let seq = s.wait_seq;
                s.wait_seq += 1;
                s.threads[chosen] = Status::CondWaiting { cv, mutex, seq };
                // Not Running: the release was the granted step; the
                // thread stays parked until a Notify re-arms it.
            }
            Op::Notify { cv, all } => {
                let mut waiters: Vec<(u64, Tid, usize)> = s
                    .threads
                    .iter()
                    .enumerate()
                    .filter_map(|(i, st)| match st {
                        Status::CondWaiting { cv: c, mutex, seq } if *c == cv => {
                            Some((*seq, i, *mutex))
                        }
                        _ => None,
                    })
                    .collect();
                waiters.sort_unstable();
                let take = if all {
                    waiters.len()
                } else {
                    waiters.len().min(1)
                };
                for &(_, t, mutex) in waiters.iter().take(take) {
                    s.threads[t] = Status::Requesting(Op::Lock(mutex));
                    s.trace.push(format!("t{t} woken, reacquiring m{mutex}"));
                }
                s.threads[chosen] = Status::Running;
            }
            Op::Start | Op::Atomic(..) | Op::Join(_) => {
                s.threads[chosen] = Status::Running;
            }
        }
        exec.cv.notify_all();
    }
}
