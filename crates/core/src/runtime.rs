//! Persistent work-stealing worker pool — the parallel runtime under the
//! sharded SteM fan-outs.
//!
//! PR 4 parallelized [`crate::sharded::ShardedStem`] envelopes with
//! [`std::thread::scope`], which spawns and joins OS threads *per
//! envelope* — tens of microseconds of syscall cost on every large batch,
//! and no thread reuse across the thousands of envelopes one query
//! routes. This module replaces that with a process-wide pool of
//! long-lived workers:
//!
//! * **Per-worker injector queues** — every worker owns a deque; tasks
//!   are submitted with an *affinity* (the shard index), so the same
//!   shard's envelopes keep landing on the same worker. That is a NUMA
//!   stand-in: the worker that last touched a shard's dictionary re-runs
//!   it with its caches warm.
//! * **Work stealing** — an idle worker scans the other queues (its own
//!   first, then round-robin) and steals whatever is waiting, so a skewed
//!   fan-out cannot strand idle workers behind one hot queue.
//! * **Caller participation** — the thread that opened a scope helps
//!   drain the queues while waiting, so a `workers = n` scope really has
//!   `n` active execution streams without over-subscribing the host.
//! * **Scoped, borrow-friendly tasks** — [`WorkerPool::scope`] mirrors
//!   `std::thread::scope`: tasks may borrow from the caller's stack
//!   (`&mut Stem` shard slices), and the scope does not return until
//!   every task it spawned has finished — even when a task or the scope
//!   body panics (the panic is re-raised after the barrier, never lost).
//!
//! The pool is deliberately *schedule-only*: which worker runs which
//! task, and in what order, is nondeterministic, but every caller writes
//! results into per-task output slots and merges them serially in a fixed
//! order — so results are bit-identical at every worker count, which
//! `tests/prop_batch_equivalence.rs` enforces across `STEMS_WORKERS`
//! {1, 2, 4, 8}.
//!
//! Workers are spawned lazily up to the largest budget any scope has
//! requested (capped at [`MAX_POOL_WORKERS`]) and parked on a condvar
//! when idle; the pool lives for the process (workers die with it).

use crate::sync::{lock_ok, wait_ok, Arc, Condvar, Mutex, OnceLock};
use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Hard cap on pool size. Scopes asking for more workers than this are
/// clamped; the cap only bounds the queue array, not correctness (tests
/// force worker counts above the host's core count and stay
/// bit-identical).
pub const MAX_POOL_WORKERS: usize = 32;

/// Default minimum routed rows per envelope before the shard fan-out
/// dispatches to the pool; see [`default_parallel_min_rows`]. PR 4's
/// scoped-thread fan-out needed 512 rows to amortize per-envelope thread
/// spawn/join (~tens of µs per thread); pool dispatch is a queue push +
/// condvar wake (measured ~1–2 µs per task on the bench host), so the
/// crossover where parallel dispatch beats the serial loop drops to
/// roughly half an envelope of dictionary work — 256 rows. `bench_workers`
/// (BENCH_6.json) sweeps worker counts at this threshold.
pub const DEFAULT_PARALLEL_MIN_ROWS: usize = 256;

/// Worker threads the host can actually run in parallel (affinity/cgroup
/// aware), cached once per process.
pub fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The default worker budget for sharded fan-outs: [`host_parallelism`]
/// unless overridden by the `STEMS_WORKERS` environment variable (the CI
/// matrix crosses it with batch size and shard count so worker-count
/// invariance is enforced on every push; tests force counts
/// programmatically through `ExecConfig::workers` / `StemOptions::workers`
/// instead). Like `STEMS_NUM_SHARDS`, a set-but-invalid value errors — a
/// misconfigured CI leg or server deployment must fail loudly rather than
/// silently re-test the default parallelism.
pub fn try_default_workers() -> Result<usize, crate::engine::ConfigError> {
    crate::engine::env_knob("STEMS_WORKERS", host_parallelism())
}

/// Panicking shim over [`try_default_workers`] for one-shot binaries.
pub fn default_workers() -> usize {
    try_default_workers().unwrap_or_else(|e| panic!("{e}"))
}

/// The default parallel-dispatch threshold:
/// [`DEFAULT_PARALLEL_MIN_ROWS`] unless overridden by the
/// `STEMS_PARALLEL_MIN_ROWS` environment variable (validated like the
/// other engine knobs: set-but-invalid errors).
pub fn try_default_parallel_min_rows() -> Result<usize, crate::engine::ConfigError> {
    crate::engine::env_knob("STEMS_PARALLEL_MIN_ROWS", DEFAULT_PARALLEL_MIN_ROWS)
}

/// Panicking shim over [`try_default_parallel_min_rows`].
pub fn default_parallel_min_rows() -> usize {
    try_default_parallel_min_rows().unwrap_or_else(|e| panic!("{e}"))
}

/// A queued task. Tasks are created with a scope-bound lifetime and
/// transmuted to `'static` for storage; [`PoolScope`]'s completion
/// barrier is what makes that sound (see `Scope::spawn` safety note).
///
/// `nested` marks a *composite* job: one that may itself open pool
/// scopes or take SteM cell locks (the query server's executor-stepping
/// jobs). Leaf jobs (`nested = false` — the sharded build/probe lanes)
/// never block and never lock cells. The distinction exists for the
/// help path: a thread that is *inside* a job and helping while it
/// waits on a nested scope may already hold a `StemCell` lock, so
/// running a sibling composite job there could re-enter the same cell's
/// mutex on the same thread — a self-deadlock `std::sync::Mutex` does
/// not detect. Helping threads therefore only ever pick up leaf jobs
/// ([`Shared::find_job`] with `include_nested = false`); top-level
/// workers, which hold no locks, run anything.
struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    nested: bool,
}

/// The pool's sleep/wake protocol, factored out so `tests/model.rs` can
/// drive the exact shipped type through the model checker.
///
/// The invariant it exists to uphold: a sleeper that observed "nothing
/// to do" cannot miss a wake-up for work submitted after its scan. The
/// scan result lives *outside* this gate (the queue mutexes), which is
/// precisely the lost-wakeup shape — so wakers notify **while holding
/// the gate**. Either the waker's notify happens before the sleeper
/// locks the gate (then the sleeper's scan, which happens after, sees
/// the submitted work and skips the wait), or after the sleeper is
/// already parked in `wait` (then the notify lands). The model checker
/// proves the window is closed within the preemption bound, and the
/// seeded mutant that notifies without the gate deadlocks.
pub struct SleepGate {
    gate: Mutex<()>,
    signal: Condvar,
}

impl SleepGate {
    pub fn new() -> SleepGate {
        SleepGate {
            gate: Mutex::new(()),
            signal: Condvar::new(),
        }
    }

    /// Wake one sleeper. Notifies under the gate — see the type docs.
    pub fn wake_one(&self) {
        let _gate = lock_ok(&self.gate);
        self.signal.notify_one();
    }

    /// Park the caller iff `idle()` still holds under the gate. `idle`
    /// must read its state through its own synchronization (the queue
    /// mutexes); the gate only orders the scan against wakers.
    pub fn sleep_if(&self, idle: impl FnOnce() -> bool) {
        let gate = lock_ok(&self.gate);
        if idle() {
            drop(wait_ok(&self.signal, gate));
        }
    }
}

impl Default for SleepGate {
    fn default() -> SleepGate {
        SleepGate::new()
    }
}

struct Shared {
    /// One injector queue per worker slot. Affinity picks the home queue;
    /// stealing scans the rest.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Sleep/wake for idle workers; see [`SleepGate`].
    gate: SleepGate,
}

impl Shared {
    /// Pop a task: own queue first, then round-robin steal. With
    /// `include_nested` off, composite jobs are skipped in place (never
    /// reordered past each other) — the helping-thread restriction the
    /// [`Job`] docs argue.
    fn find_job(&self, home: usize, include_nested: bool) -> Option<Job> {
        let n = self.queues.len();
        for i in 0..n {
            let q = (home + i) % n;
            let mut queue = lock_ok(&self.queues[q]);
            let pos = queue.iter().position(|j| include_nested || !j.nested);
            if let Some(pos) = pos {
                return queue.remove(pos);
            }
        }
        None
    }

    fn looks_empty(&self) -> bool {
        self.queues.iter().all(|q| lock_ok(q).is_empty())
    }
}

/// The process-wide worker pool. Obtain it with [`WorkerPool::global`];
/// per-query worker budgets are passed per scope, so one pool serves
/// every SteM of every concurrent query (the multi-query server the
/// ROADMAP points at shares this runtime).
pub struct WorkerPool {
    shared: Arc<Shared>,
    spawned: Mutex<usize>,
}

impl WorkerPool {
    /// The process-global pool (created on first use, workers spawned
    /// lazily as scopes request them).
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(WorkerPool::new)
    }

    fn new() -> WorkerPool {
        WorkerPool {
            shared: Arc::new(Shared {
                queues: (0..MAX_POOL_WORKERS)
                    .map(|_| Mutex::new(VecDeque::new()))
                    .collect(),
                gate: SleepGate::new(),
            }),
            spawned: Mutex::new(0),
        }
    }

    /// How many workers have been spawned so far (diagnostics).
    pub fn workers_spawned(&self) -> usize {
        *lock_ok(&self.spawned)
    }

    /// Make sure at least `n` (≤ [`MAX_POOL_WORKERS`]) workers exist.
    fn ensure_workers(&self, n: usize) {
        let n = n.min(MAX_POOL_WORKERS);
        let mut spawned = lock_ok(&self.spawned);
        while *spawned < n {
            let id = *spawned;
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name(format!("stems-worker-{id}"))
                .spawn(move || worker_loop(id, shared))
                .expect("spawn pool worker");
            *spawned += 1;
        }
    }

    fn push_job(&self, queue: usize, job: Job) {
        lock_ok(&self.shared.queues[queue]).push_back(job);
        // Gate-held notify: a worker that just scanned empty queues and
        // is about to park cannot miss this submission.
        self.shared.gate.wake_one();
    }

    /// Run `f` with a scope that can spawn borrow-carrying tasks onto the
    /// pool. `workers` is the parallelism budget: tasks are distributed
    /// over `min(workers, MAX_POOL_WORKERS)` home queues (affinity `a`
    /// maps to queue `a % workers`), and at least `workers` pool threads
    /// exist by the time tasks run. Does not return until every spawned
    /// task completed; a panicking task panics the caller here, after the
    /// barrier.
    pub fn scope<'env, R>(&self, workers: usize, f: impl FnOnce(&PoolScope<'_, 'env>) -> R) -> R {
        let workers = workers.clamp(1, MAX_POOL_WORKERS);
        self.ensure_workers(workers);
        let scope = PoolScope {
            pool: self,
            workers,
            latch: Arc::new(CompletionLatch::new()),
            _env: PhantomData,
        };
        let result = {
            // The guard waits for task completion even if `f` unwinds
            // mid-spawn — queued tasks borrow `'env` data that must
            // outlive them, so the barrier is unconditional.
            let _barrier = ScopeBarrier(&scope);
            f(&scope)
        };
        scope.check_panic();
        result
    }
}

/// The scope completion barrier, factored out so `tests/model.rs` can
/// drive the exact shipped type through the model checker.
///
/// The protocol: [`register`](CompletionLatch::register) before a task
/// is queued, [`complete`](CompletionLatch::complete) exactly once when
/// it finishes (recording the first panic payload *and* decrementing the
/// count in one critical section, so a waiter that observes zero also
/// observes every payload), [`wait`](CompletionLatch::wait) blocks —
/// helping with other work while it can — until the count is zero.
///
/// The invariant [`WorkerPool::scope`]'s `unsafe` transmute rests on:
/// **`wait` returns only after every registered task has completed**.
/// The count is incremented before a job is ever visible to a worker and
/// decremented only after the task body returned (or unwound), so
/// `remaining == 0` under the latch mutex means no task body can run
/// again. The model checker explores every bounded interleaving of
/// register/complete/wait; the seeded mutants (a `complete` that skips
/// `notify_all`, and one that decrements before the task's effects)
/// deadlock or fail an assertion under the checker.
#[derive(Default)]
pub struct CompletionLatch {
    sync: Mutex<LatchSync>,
    cv: Condvar,
}

#[derive(Default)]
struct LatchSync {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl CompletionLatch {
    pub fn new() -> CompletionLatch {
        CompletionLatch::default()
    }

    /// Account one more outstanding task. Must happen before the task
    /// can possibly run.
    pub fn register(&self) {
        lock_ok(&self.sync).remaining += 1;
    }

    /// Mark one task done, recording the first panic payload. Payload
    /// store and decrement share one critical section: a waiter that
    /// sees the count hit zero is guaranteed to also see the payload.
    pub fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut sync = lock_ok(&self.sync);
        if let Some(payload) = panic {
            sync.panic.get_or_insert(payload);
        }
        sync.remaining -= 1;
        if sync.remaining == 0 {
            self.cv.notify_all();
        }
    }

    /// Block until every registered task completed. While the count is
    /// nonzero, `help` is invited to make progress (run a queued job);
    /// it returns whether it did. Only when it cannot does the caller
    /// park — re-checking the count under the latch mutex first, so a
    /// completion between the check and the wait cannot be lost.
    pub fn wait(&self, mut help: impl FnMut() -> bool) {
        loop {
            if lock_ok(&self.sync).remaining == 0 {
                return;
            }
            if help() {
                continue;
            }
            let sync = lock_ok(&self.sync);
            if sync.remaining != 0 {
                // Every outstanding task is in flight on a worker; its
                // `complete` notifies this condvar.
                drop(wait_ok(&self.cv, sync));
            }
        }
    }

    /// Take the first recorded panic payload, if any. Meaningful after
    /// [`wait`](CompletionLatch::wait) returned.
    pub fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        lock_ok(&self.sync).panic.take()
    }
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`].
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    workers: usize,
    latch: Arc<CompletionLatch>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> PoolScope<'pool, 'env> {
    /// Queue `task` on the home queue of `affinity % workers`. The task
    /// may borrow anything outliving the scope (`'env`); it runs on a
    /// pool worker (or on the caller while it waits) before `scope`
    /// returns.
    pub fn spawn(&self, affinity: usize, task: impl FnOnce() + Send + 'env) {
        self.spawn_inner(affinity, task, false);
    }

    /// [`PoolScope::spawn`] for *composite* tasks: ones that may open
    /// nested pool scopes or take SteM cell locks (the query server's
    /// executor-stepping jobs). Composite jobs run only on top-level
    /// pool workers or the scope caller — never on a thread that is
    /// already inside another job — so a job holding a shared cell's
    /// mutex can never re-enter it on its own thread (see the private
    /// `Job` type).
    pub fn spawn_nested(&self, affinity: usize, task: impl FnOnce() + Send + 'env) {
        self.spawn_inner(affinity, task, true);
    }

    fn spawn_inner(&self, affinity: usize, task: impl FnOnce() + Send + 'env, nested: bool) {
        self.latch.register();
        let latch = Arc::clone(&self.latch);
        let wrapped = move || {
            let result = catch_unwind(AssertUnwindSafe(task));
            latch.complete(result.err());
        };
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(wrapped);
        // SAFETY: erasing 'env to 'static for queue storage is sound
        // because no erased job can run — or even be dropped by the
        // queues, which live on past the scope — after 'env ends. The
        // argument, step by step:
        //
        // 1. `task` only captures borrows outliving 'env (enforced by
        //    this signature), so the job is safe to run at any point
        //    *within* 'env; the hazard is exactly a run or drop after
        //    the borrowed frames are popped.
        // 2. `latch.register()` happens-before the job becomes visible
        //    to any worker (`push_job` below), so at every moment a job
        //    exists in a queue, the latch's `remaining` accounts for it.
        // 3. The job's only exit paths — normal return or unwind out of
        //    `task` — funnel through `catch_unwind` into
        //    `latch.complete(..)`, which decrements `remaining` strictly
        //    after the task body finished. Workers run jobs to
        //    completion and never drop one unexecuted; queues only pop.
        // 4. `ScopeBarrier` is constructed before the scope closure can
        //    spawn, and its `Drop` runs `latch.wait(..)` on every exit
        //    path from `WorkerPool::scope` — normal return *and* unwind
        //    of the scope body (a `Drop` guard, not ordinary code after
        //    the call, precisely so that panics cannot skip it).
        // 5. `CompletionLatch::wait` returns only upon observing
        //    `remaining == 0` under the latch mutex, which by (2)+(3)
        //    means every spawned job has fully finished and no queue
        //    holds one. That protocol — including the wait/notify
        //    handshake and its panic paths — is model-checked in
        //    `tests/model.rs` (`latch_barrier_is_sound_under_every_
        //    schedule`), and the seeded mutants that would break this
        //    step (skipped notify, early decrement) are caught there.
        //
        // Hence every job's run and destruction are sequenced before
        // `scope` returns or unwinds past the barrier — the
        // `std::thread::scope` argument, with the latch in the role of
        // the thread-join barrier.
        let run = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool
            .push_job(affinity % self.workers, Job { run, nested });
    }

    /// Block until every spawned task finished, executing queued *leaf*
    /// pool tasks while waiting (caller participation). Help is
    /// restricted to leaf jobs because this wait may be reached from
    /// inside a composite job that already holds a SteM cell lock —
    /// running a sibling composite job on the same stack could re-lock
    /// that cell and self-deadlock (see [`Job`]). Leaf jobs never block
    /// and never lock cells, so helping with them is always progress;
    /// composite jobs are drained by top-level workers, which
    /// [`WorkerPool::scope`] guarantees exist for the requested budget.
    fn wait(&self) {
        self.latch
            .wait(|| match self.pool.shared.find_job(0, false) {
                Some(job) => {
                    (job.run)();
                    true
                }
                None => false,
            });
    }

    fn check_panic(&self) {
        if let Some(payload) = self.latch.take_panic() {
            resume_unwind(payload);
        }
    }
}

/// Drop guard running the completion barrier even when the scope body
/// unwinds.
struct ScopeBarrier<'a, 'pool, 'env>(&'a PoolScope<'pool, 'env>);

impl Drop for ScopeBarrier<'_, '_, '_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

fn worker_loop(id: usize, shared: Arc<Shared>) {
    loop {
        // Top-level workers hold no locks, so they run any job —
        // composite stepping jobs included.
        if let Some(job) = shared.find_job(id, true) {
            // Task panics are captured by the scope wrapper; a raw panic
            // here would mean a bug in the pool itself.
            (job.run)();
            continue;
        }
        // Submissions notify under the gate, so nothing pushed between
        // our scan and the wait can be missed.
        shared.gate.sleep_if(|| shared.looks_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_runs_every_task_and_blocks_until_done() {
        let pool = WorkerPool::global();
        let mut outs = vec![0usize; 100];
        pool.scope(4, |scope| {
            for (i, out) in outs.iter_mut().enumerate() {
                scope.spawn(i, move || *out = i + 1);
            }
        });
        // The scope returned ⇒ every borrow ended and every slot is set.
        assert!(outs.iter().enumerate().all(|(i, v)| *v == i + 1));
    }

    #[test]
    fn tasks_can_borrow_disjoint_mutable_slices() {
        let pool = WorkerPool::global();
        let mut lanes: Vec<Vec<u64>> = (0..8).map(|i| vec![i as u64; 64]).collect();
        pool.scope(8, |scope| {
            for (i, lane) in lanes.iter_mut().enumerate() {
                scope.spawn(i, move || {
                    for v in lane.iter_mut() {
                        *v *= 2;
                    }
                });
            }
        });
        for (i, lane) in lanes.iter().enumerate() {
            assert!(lane.iter().all(|v| *v == 2 * i as u64), "lane {i}");
        }
    }

    #[test]
    fn worker_budget_one_still_completes() {
        let pool = WorkerPool::global();
        let counter = AtomicUsize::new(0);
        pool.scope(1, |scope| {
            for _ in 0..32 {
                scope.spawn(0, || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn nested_sequential_scopes_reuse_workers() {
        let pool = WorkerPool::global();
        let before = pool.workers_spawned();
        for round in 0..10usize {
            let mut outs = [0usize; 16];
            pool.scope(4, |scope| {
                for (i, out) in outs.iter_mut().enumerate() {
                    scope.spawn(i, move || *out = round);
                }
            });
            assert!(outs.iter().all(|v| *v == round));
        }
        // Persistent runtime: repeated scopes never spawn beyond the
        // requested budget (no per-envelope thread churn).
        assert!(pool.workers_spawned() >= before.max(4));
        assert!(pool.workers_spawned() <= MAX_POOL_WORKERS);
    }

    #[test]
    fn task_panic_propagates_after_barrier() {
        let pool = WorkerPool::global();
        let flag = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(2, |scope| {
                scope.spawn(0, || panic!("task boom"));
                scope.spawn(1, || {
                    flag.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err(), "task panic must reach the scope caller");
        // The barrier ran the healthy sibling to completion first.
        assert_eq!(flag.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn env_default_workers_validation() {
        // Not present: falls back to host parallelism (≥ 1).
        assert!(default_workers() >= 1);
        assert!(default_parallel_min_rows() >= 1);
    }
}
