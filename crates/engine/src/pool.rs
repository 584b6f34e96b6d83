//! The persistent worker pool every parallel execution runs on.
//!
//! The executor's only parallelism is the sharded clustered scan: one
//! scan's runs split into groups, each group a job. Those jobs run on a
//! **work-stealing-lite pool** instead of per-scan thread spawns: a
//! fixed set of worker threads created once (typically per [`BlasDb`],
//! see `blas::BlasDb::pool`), one shared injector queue, and scoped
//! job submission so jobs may borrow the store without `'static`
//! gymnastics. The serving layer runs admitted binary requests on the
//! same pool, as whole-request tasks ([`PoolHandle::spawn_task`]).
//!
//! Design points:
//!
//! * **Fixed threads, one injector, two lanes.** [`PoolHandle::new`]
//!   spawns `n` workers that loop on one `Mutex` + `Condvar` injector
//!   holding two FIFO lanes: scoped jobs (scan shards) and `'static`
//!   tasks (whole requests). Workers drain the job lane first, so a
//!   request already running finishes its shards before a new one
//!   starts. There are no per-worker deques — the "lite" in
//!   work-stealing-lite — but the *helping* rule below recovers the
//!   property that matters: a thread blocked on pool work executes
//!   pool work.
//! * **Helping joins (no idle waits, no starvation deadlocks).** Any
//!   wait against the pool — [`scope`] waiting for its jobs,
//!   [`JobHandle::join`] waiting for one result — pops and runs queued
//!   **jobs** while it waits, never tasks: a thread waiting on its own
//!   µs-scale shards must not pick up another connection's whole
//!   request. A pool with **zero** workers is therefore still correct
//!   (every job runs on the waiting thread, every task inline on the
//!   submitting one), which is what makes `PoolHandle::inline()` the
//!   sequential degenerate case, and a job that fans out sub-jobs and
//!   joins them can never deadlock the pool however few threads exist.
//! * **Scoped lifetimes.** [`scope`] erases job lifetimes to `'static`
//!   internally but does not return until every job spawned in the
//!   scope has completed (even when the scope body or a job panics),
//!   so jobs may safely borrow anything that outlives the `scope`
//!   call — the same contract as `std::thread::scope`, minus the
//!   per-call thread spawns.
//! * **Panic propagation without poisoning.** Every job body runs
//!   under `catch_unwind`. A [`Scope::spawn_job`] panic is delivered
//!   through [`JobHandle::join`] as `Err(payload)` for the caller to
//!   re-raise or turn into an error; a panic in the [`scope`] body
//!   itself is re-raised after the barrier. Either way the worker
//!   threads survive: the pool keeps serving queries after a panicked
//!   job (tested by the shared-pool stress suite).
//!
//! Sizing: one worker per available core (at least two) is the default
//! used by `blas::BlasDb` — [`PoolHandle::with_default_parallelism`] —
//! because that one pool runs both whole requests and their shards.
//! Oversubscribing buys no throughput (the cores are the budget);
//! undersubscribing only limits speedup, except on one core, where a
//! single worker would serialize every request behind the longest.
//!
//! [`BlasDb`]: ../../blas/struct.BlasDb.html

use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased, lifetime-erased unit of pool work.
type Task = Box<dyn FnOnce() + Send>;

/// The injector's two FIFO lanes.
#[derive(Default)]
struct Lanes {
    /// [`Scope::spawn_job`] work: what helpers may run.
    jobs: VecDeque<Task>,
    /// [`PoolHandle::spawn_task`] work: workers only.
    tasks: VecDeque<Task>,
}

/// Queue state shared between the handle, the workers and every scope.
struct Shared {
    /// The injector.
    queue: Mutex<Lanes>,
    /// Signalled on submission *and* — when helpers are blocked — on
    /// job completion (completions wake helpers parked in
    /// [`PoolHandle::wait_until`]).
    work: Condvar,
    /// Set once by the last handle's drop; workers exit at the next
    /// wakeup.
    shutdown: AtomicBool,
    /// Monotone count of jobs ever pushed — the observable job counter
    /// the scheduling tests use.
    submitted: AtomicU64,
    /// Helpers currently blocked in [`PoolHandle::wait_until`]. Job
    /// completions skip the lock + broadcast entirely while this is
    /// zero, so finishing a job does not stampede idle workers on the
    /// hot path (see the SeqCst pairing note on `wait_until`).
    waiters: AtomicUsize,
}

impl Shared {
    fn new() -> Self {
        Shared {
            queue: Mutex::new(Lanes::default()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
        }
    }
}

/// Owns the worker threads; dropped when the last [`PoolHandle`] clone
/// goes away, at which point the workers are shut down and joined.
/// Workers are spawned **lazily on the first job submission**, so
/// constructing a configuration that happens to carry a pool has no
/// side effects until a query actually runs on it.
struct Core {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Whether the workers have been spawned (double-checked under the
    /// `workers` lock).
    started: AtomicBool,
    threads: usize,
}

impl Drop for Core {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            // Lock-notify so no worker can sleep between our store and
            // our notify.
            let _guard = self.shared.queue.lock().unwrap();
            self.shared.work.notify_all();
        }
        for worker in self.workers.get_mut().unwrap().drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut queue = shared.queue.lock().unwrap();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match queue.jobs.pop_front().or_else(|| queue.tasks.pop_front()) {
            Some(task) => {
                drop(queue);
                task(); // never unwinds: every task wrapper catches
                queue = shared.queue.lock().unwrap();
            }
            None => queue = shared.work.wait(queue).unwrap(),
        }
    }
}

/// A cheaply clonable handle to a persistent worker pool.
///
/// All clones share the same workers and injector queue; the threads
/// shut down when the last clone is dropped. Create one per long-lived
/// execution context (`blas::BlasDb` keeps one for its whole lifetime
/// and reuses it across every query) rather than per query.
///
/// * [`PoolHandle::new(n)`](PoolHandle::new) — `n` worker threads.
///   `n == 0` is valid: jobs then run on whichever thread waits on
///   them (the helping rule), so execution degenerates to sequential
///   without any special-casing.
/// * [`PoolHandle::inline()`](PoolHandle::inline) — the zero-worker
///   pool, the `shards = 1` sequential fallback's companion.
/// * [`PoolHandle::with_default_parallelism()`] —
///   `available_parallelism()` workers, one per core (at least two).
pub struct PoolHandle {
    core: Arc<Core>,
}

impl Clone for PoolHandle {
    fn clone(&self) -> Self {
        PoolHandle { core: Arc::clone(&self.core) }
    }
}

impl fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolHandle")
            .field("threads", &self.core.threads)
            .field("jobs_submitted", &self.jobs_submitted())
            .finish()
    }
}

impl Default for PoolHandle {
    /// The zero-worker inline pool (see [`PoolHandle::inline`]).
    fn default() -> Self {
        Self::inline()
    }
}

impl PoolHandle {
    /// A pool with `threads` resident workers. The OS threads are
    /// spawned lazily on the first job submission, so this is a pure
    /// value constructor — holding (or cloning, or dropping) an unused
    /// pool costs nothing.
    pub fn new(threads: usize) -> Self {
        PoolHandle {
            core: Arc::new(Core {
                shared: Arc::new(Shared::new()),
                workers: Mutex::new(Vec::new()),
                started: AtomicBool::new(false),
                threads,
            }),
        }
    }

    /// Spawn the resident workers if they are not running yet (called
    /// on the first submission).
    fn ensure_workers(&self) {
        if self.core.started.load(Ordering::Acquire) || self.core.threads == 0 {
            return;
        }
        let mut workers = self.core.workers.lock().unwrap();
        if self.core.started.load(Ordering::Acquire) {
            return;
        }
        for i in 0..self.core.threads {
            let shared = Arc::clone(&self.core.shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("blas-pool-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker"),
            );
        }
        self.core.started.store(true, Ordering::Release);
    }

    /// The zero-worker pool: every job runs on the thread that waits
    /// for it. This is the degenerate case sequential configurations
    /// carry so that `ExecConfig` always has a pool to name.
    pub fn inline() -> Self {
        Self::new(0)
    }

    /// A pool sized for this host: one worker per core
    /// (`available_parallelism()`), and never fewer than two. The pool
    /// runs whole requests as well as shards, so every core gets a
    /// worker, and a one-core host still gets two so that one long
    /// request cannot hold every other back; a thread waiting on its
    /// own shards helps with them instead of idling.
    pub fn with_default_parallelism() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()).max(2))
    }

    /// Number of resident worker threads.
    pub fn threads(&self) -> usize {
        self.core.threads
    }

    /// Monotone count of jobs ever submitted to this pool (scan
    /// shards, serving tasks — everything). Test instrumentation:
    /// lets a test pin exactly how many shard jobs a plan fans out
    /// and that repeated queries reuse one pool.
    pub fn jobs_submitted(&self) -> u64 {
        self.core.shared.submitted.load(Ordering::Acquire)
    }

    /// Submit one `'static` task and get a [`TaskHandle`] to collect
    /// its result (or panic) later. This is the serving layer's
    /// whole-request primitive: there is no scope — the task owns
    /// everything it captures — but the completion is observable and
    /// joinable, which is what lets a connection *drain* its in-flight
    /// requests instead of abandoning them. Tasks run on workers only,
    /// never on a helping waiter. A panicking body is caught and
    /// delivered as `Err` at the join point; the worker survives. On
    /// the zero-worker inline pool the task runs synchronously on the
    /// calling thread and the returned handle is already complete.
    pub fn spawn_task<T: Send + 'static>(
        &self,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> TaskHandle<T> {
        let slot = JobSlot::new();
        let task_slot = Arc::clone(&slot);
        let shared = Arc::clone(&self.core.shared);
        let job = move || {
            task_slot.fill(body);
            drop(task_slot);
            // A joiner may be parked in `wait_until` on the queue
            // condvar; completions must wake it.
            notify_progress(&shared);
        };
        if self.core.threads == 0 {
            job();
        } else {
            self.push(Box::new(job), false);
        }
        TaskHandle { slot, pool: self.clone() }
    }

    /// Queue a scoped job (`is_job`) or a task.
    fn push(&self, task: Task, is_job: bool) {
        self.ensure_workers();
        let shared = &self.core.shared;
        shared.submitted.fetch_add(1, Ordering::AcqRel);
        let mut queue = shared.queue.lock().unwrap();
        let lane = if is_job { &mut queue.jobs } else { &mut queue.tasks };
        lane.push_back(task);
        // A parked helper takes jobs only, so a task's lone wakeup
        // could be swallowed by one: wake everyone while helpers park.
        if is_job || shared.waiters.load(Ordering::SeqCst) == 0 {
            shared.work.notify_one();
        } else {
            shared.work.notify_all();
        }
    }

    /// Run queued jobs (never tasks) until `done()` holds, blocking
    /// only while the job lane is empty.
    ///
    /// Wakeup protocol: before parking, a helper registers itself in
    /// `waiters` (SeqCst) and re-checks `done()` under the queue lock.
    /// A completion flips its done-state (SeqCst) *before* loading
    /// `waiters`; by the total order on SeqCst operations, either the
    /// completer sees our registration (and takes the lock to
    /// broadcast — lock-notify, so the wakeup cannot fall between our
    /// check and our wait), or we see its done-flip in the re-check
    /// and never park. A helper never parks while the job lane is
    /// non-empty (the pop and the wait take the same lock).
    fn wait_until(&self, done: &dyn Fn() -> bool) {
        let shared = &self.core.shared;
        loop {
            if done() {
                return;
            }
            let mut queue = shared.queue.lock().unwrap();
            match queue.jobs.pop_front() {
                Some(task) => {
                    drop(queue);
                    task();
                }
                None => {
                    shared.waiters.fetch_add(1, Ordering::SeqCst);
                    if done() {
                        shared.waiters.fetch_sub(1, Ordering::SeqCst);
                        return;
                    }
                    let guard = shared.work.wait(queue).unwrap();
                    drop(guard);
                    shared.waiters.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
    }
}

/// Wake pool waiters after a completion-state change — but only when
/// someone is actually parked: the common case (all threads busy,
/// nobody helping-and-waiting) skips the lock and the broadcast
/// entirely, so job completions do not stampede idle workers.
fn notify_progress(shared: &Shared) {
    if shared.waiters.load(Ordering::SeqCst) == 0 {
        return;
    }
    let _guard = shared.queue.lock().unwrap();
    shared.work.notify_all();
}

/// Mark one job complete and wake parked waiters, if any. The SeqCst
/// decrement is the done-flip half of the [`PoolHandle::wait_until`]
/// wakeup protocol.
///
/// Takes the queue state, **not** a `PoolHandle`: task wrappers must
/// never own a handle, because the wrapper is dropped by the worker
/// *after* the completion is published — if that drop released the
/// last `Arc<Core>`, `Core::drop` would run on a pool worker and
/// `join()` the worker's own thread (deadlock or panic). Workers and
/// tasks therefore only ever hold `Arc<Shared>`, which owns no
/// threads.
fn complete_one(pending: &AtomicUsize, shared: &Shared) {
    pending.fetch_sub(1, Ordering::SeqCst);
    notify_progress(shared);
}

/// A scope in which jobs borrowing non-`'static` data may be spawned;
/// created by [`scope`], which blocks until every spawned job has
/// completed.
///
/// The two lifetimes mirror `std::thread::Scope`: `'scope` is the
/// **brand** — the period during which new jobs can be spawned, chosen
/// fresh (higher-ranked) for every [`scope`] call so that neither the
/// scope nor anything carrying `'scope` can leak out of the closure —
/// and `'env` is the environment the jobs may borrow from, which
/// strictly outlives the barrier. A job that needs to fan out further
/// simply captures the `&'scope Scope` reference it was handed,
/// exactly as with `std::thread::scope`.
pub struct Scope<'scope, 'env: 'scope> {
    pool: PoolHandle,
    /// Jobs spawned in this scope but not yet completed.
    pending: Arc<AtomicUsize>,
    /// Invariant over `'scope` (the brand must not shrink or grow).
    _scope: PhantomData<fn(&'scope ()) -> &'scope ()>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: PhantomData<fn(&'env ()) -> &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Submit a job whose result (or panic) the caller collects via
    /// [`JobHandle::join`]. Used by sharded scans: the scanning thread
    /// fans its shard groups out as sub-jobs and joins them, helping
    /// the pool while it waits.
    pub fn spawn_job<T: Send + 'scope>(
        &'scope self,
        body: impl FnOnce() -> T + Send + 'scope,
    ) -> JobHandle<T> {
        let slot = JobSlot::new();
        self.pending.fetch_add(1, Ordering::AcqRel);
        let pending = Arc::clone(&self.pending);
        let shared = Arc::clone(&self.pool.core.shared);
        let task_slot = Arc::clone(&slot);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            task_slot.fill(body);
            // Drop the worker's slot reference BEFORE releasing the
            // barrier: if the caller discarded its JobHandle without
            // joining, this drop destroys the `'scope`-bounded result
            // while the scope's environment is still guaranteed alive.
            // Nothing `'scope`-bounded may outlive `complete_one`.
            drop(task_slot);
            complete_one(&pending, &shared);
        });
        // SAFETY: `scope` does not return until `pending` drops to
        // zero, i.e. until this task has run to completion, and the
        // `'scope` brand prevents any spawning capability from
        // escaping that barrier; everything the closure borrows
        // therefore outlives its execution. The transmute only erases
        // the `'scope` bound to fit the queue's `'static` task type.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task)
        };
        self.pool.push(task, true);
        JobHandle { slot, pool: self.pool.clone() }
    }
}

/// Handle to one [`Scope::spawn_job`] job.
pub struct JobHandle<T> {
    slot: Arc<JobSlot<T>>,
    pool: PoolHandle,
}

/// Where a job or task leaves its result (or panic) for the joiner.
struct JobSlot<T> {
    done: AtomicBool,
    result: Mutex<Option<std::thread::Result<T>>>,
}

impl<T> JobSlot<T> {
    fn new() -> Arc<Self> {
        Arc::new(JobSlot { done: AtomicBool::new(false), result: Mutex::new(None) })
    }

    /// Run `body`, catching a panic, and publish the outcome. The
    /// SeqCst store is the done-flip half of the
    /// [`PoolHandle::wait_until`] wakeup protocol.
    fn fill(&self, body: impl FnOnce() -> T) {
        *self.result.lock().unwrap() = Some(catch_unwind(AssertUnwindSafe(body)));
        self.done.store(true, Ordering::SeqCst);
    }

    /// Wait for the outcome, running `pool`'s queued jobs meanwhile.
    fn take(&self, pool: &PoolHandle) -> std::thread::Result<T> {
        pool.wait_until(&|| self.done.load(Ordering::SeqCst));
        self.result.lock().unwrap().take().expect("completed job left its result")
    }
}

impl<T> JobHandle<T> {
    /// Wait for the job, running other pool jobs while waiting.
    /// Returns `Err(payload)` if the job panicked — the panic is
    /// *delivered*, not re-raised, so a worker's panic surfaces as an
    /// error the caller chooses how to handle, and the pool keeps
    /// serving jobs.
    pub fn join(self) -> std::thread::Result<T> {
        self.slot.take(&self.pool)
    }
}

/// Handle to one [`PoolHandle::spawn_task`] job: a detached `'static`
/// job whose completion is observable. Holding (or leaking) the handle
/// never blocks the job; dropping it without joining simply discards
/// the result, exactly like a detached thread.
pub struct TaskHandle<T> {
    slot: Arc<JobSlot<T>>,
    pool: PoolHandle,
}

impl<T> TaskHandle<T> {
    /// Wait for the task, running scoped pool jobs while waiting; only
    /// a worker runs the task itself, so join from outside the pool.
    /// `Err(payload)` delivers the task's panic instead of re-raising
    /// it, so a dying request surfaces as a value the server chooses
    /// how to report.
    pub fn join(self) -> std::thread::Result<T> {
        self.slot.take(&self.pool)
    }

    /// Whether the task has finished (without blocking).
    pub fn is_done(&self) -> bool {
        self.slot.done.load(Ordering::Acquire)
    }
}

/// Run `f` with a [`Scope`] bound to `pool`, then block — helping the
/// pool — until every job spawned within the scope has completed. A
/// panic in `f` is re-raised here, after the barrier, so the pool is
/// never left with dangling borrows and its workers never die with
/// the job.
///
/// The closure is higher-ranked over the `'scope` brand, so no value
/// mentioning `'scope` — in particular no spawning capability — can be
/// smuggled out through the return value; this is what makes the
/// internal lifetime erasure sound.
pub fn scope<'env, R>(
    pool: &PoolHandle,
    f: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
) -> R {
    let scope = Scope {
        pool: pool.clone(),
        pending: Arc::new(AtomicUsize::new(0)),
        _scope: PhantomData,
        _env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
    pool.wait_until(&|| scope.pending.load(Ordering::SeqCst) == 0);
    result.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn jobs_run_and_results_return() {
        let pool = PoolHandle::new(2);
        let values: Vec<i64> = scope(&pool, |s| {
            let handles: Vec<_> = (0..32i64).map(|i| s.spawn_job(move || i * i)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(values, (0..32i64).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(pool.jobs_submitted(), 32);
    }

    #[test]
    fn zero_worker_pool_runs_everything_on_the_waiter() {
        let pool = PoolHandle::inline();
        assert_eq!(pool.threads(), 0);
        let counter = AtomicU32::new(0);
        scope(&pool, |s| {
            for _ in 0..10 {
                // Unjoined handles: the barrier alone must run them.
                s.spawn_job(|| counter.fetch_add(1, Ordering::Relaxed));
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn jobs_may_borrow_scope_locals() {
        let pool = PoolHandle::new(1);
        let data = [1u32, 2, 3, 4];
        let sum: u32 = scope(&pool, |s| {
            let h1 = s.spawn_job(|| data[..2].iter().sum::<u32>());
            let h2 = s.spawn_job(|| data[2..].iter().sum::<u32>());
            h1.join().unwrap() + h2.join().unwrap()
        });
        assert_eq!(sum, 10);
        assert_eq!(data.len(), 4);
    }

    #[test]
    fn jobs_can_spawn_dependent_jobs() {
        // A running job schedules a dependent by capturing the scope
        // reference, std::thread::scope-style; the barrier covers both.
        let pool = PoolHandle::new(2);
        let order = Mutex::new(Vec::new());
        scope(&pool, |s| {
            s.spawn_job(|| {
                order.lock().unwrap().push("producer");
                s.spawn_job(|| order.lock().unwrap().push("consumer"));
            });
        });
        assert_eq!(*order.lock().unwrap(), ["producer", "consumer"]);
    }

    #[test]
    fn nested_fan_out_joins_without_deadlock() {
        // A job that spawns sub-jobs and joins them while running *on*
        // the pool must help instead of deadlocking — even with a
        // single worker.
        let pool = PoolHandle::new(1);
        let inner_total = Mutex::new(0u64);
        let outer_total: u64 = scope(&pool, |s| {
            let outer: Vec<_> = (0..4u64).map(|i| s.spawn_job(move || i)).collect();
            s.spawn_job(|| {
                let inner: Vec<_> = (0..8u64).map(|i| s.spawn_job(move || i)).collect();
                let sum: u64 = inner.into_iter().map(|h| h.join().unwrap()).sum();
                *inner_total.lock().unwrap() = sum;
            });
            outer.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(outer_total, 6);
        assert_eq!(*inner_total.lock().unwrap(), 28);
    }

    #[test]
    fn spawn_job_panic_is_delivered_as_err_and_pool_survives() {
        let pool = PoolHandle::new(2);
        let joined = scope(&pool, |s| s.spawn_job(|| -> u32 { panic!("boom") }).join());
        let payload = joined.expect_err("panic must surface as Err");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom");
        // The pool is not poisoned: subsequent jobs run normally.
        let ok = scope(&pool, |s| s.spawn_job(|| 7u32).join()).unwrap();
        assert_eq!(ok, 7);
    }

    #[test]
    fn spawn_task_returns_results_without_a_scope() {
        let pool = PoolHandle::new(2);
        let handles: Vec<TaskHandle<u32>> =
            (0..8u32).map(|i| pool.spawn_task(move || i * i)).collect();
        let mut got: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..8u32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn spawn_task_panic_is_delivered_at_join_and_pool_survives() {
        let pool = PoolHandle::new(1);
        let bad = pool.spawn_task(|| -> u32 { panic!("task boom") });
        assert!(bad.join().is_err());
        // The worker that ran the panicking task still serves jobs.
        assert_eq!(pool.spawn_task(|| 7u32).join().unwrap(), 7);
    }

    #[test]
    fn spawn_task_runs_inline_on_the_zero_worker_pool() {
        let pool = PoolHandle::inline();
        let h = pool.spawn_task(|| 41 + 1);
        assert!(h.is_done(), "inline pool completes the task synchronously");
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn a_helping_waiter_never_runs_a_queued_task() {
        // The one worker is busy; a whole-request task queues behind it.
        let pool = PoolHandle::new(1);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let busy = pool.spawn_task(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        let queued = pool.spawn_task(|| std::thread::current().id());
        // This thread joins its own scoped job: it helps with the job,
        // and must leave the task to the worker.
        let me = std::thread::current().id();
        let job_ran_on =
            scope(&pool, |s| s.spawn_job(|| std::thread::current().id()).join().unwrap());
        assert_eq!(job_ran_on, me, "the waiter runs its own job");
        release_tx.send(()).unwrap();
        busy.join().unwrap();
        assert_ne!(queued.join().unwrap(), me, "the task ran on the waiting thread");
    }

    #[test]
    fn dropped_task_handle_does_not_block_or_leak_the_job() {
        let pool = PoolHandle::new(1);
        let ran = Arc::new(AtomicU32::new(0));
        let flag = Arc::clone(&ran);
        drop(pool.spawn_task(move || flag.fetch_add(1, Ordering::SeqCst)));
        // A joined sentinel task queued after it proves the dropped
        // task still ran (one FIFO injector queue).
        pool.spawn_task(|| ()).join().unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn spawned_panic_propagates_after_barrier_and_pool_survives() {
        // The sharded-scan shape: a joined job's panic is re-raised in
        // the scope body while a sibling job is still queued or running.
        let pool = PoolHandle::new(2);
        let done = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope(&pool, |s| {
                let bad = s.spawn_job(|| panic!("scope boom"));
                s.spawn_job(|| done.store(true, Ordering::Release));
                if let Err(payload) = bad.join() {
                    std::panic::resume_unwind(payload);
                }
            })
        }));
        assert!(caught.is_err(), "scope re-raises the body's panic");
        // The barrier ran every job before re-raising.
        assert!(done.load(Ordering::Acquire));
        let ok = scope(&pool, |s| s.spawn_job(|| 41u32).join()).unwrap();
        assert_eq!(ok, 41);
    }

    #[test]
    fn unjoined_job_results_drop_before_the_barrier_releases() {
        // A spawn_job result may borrow scope-local data and carry a
        // Drop impl. If its handle is discarded without joining, the
        // worker destroys the result — and must do so *before*
        // releasing the barrier, while the borrowed data is still
        // guaranteed alive.
        struct Observer<'a> {
            data: &'a [u8],
            dropped: &'a AtomicBool,
        }
        impl Drop for Observer<'_> {
            fn drop(&mut self) {
                assert_eq!(self.data, [1, 2, 3], "borrowed data must still be alive");
                self.dropped.store(true, Ordering::SeqCst);
            }
        }
        let pool = PoolHandle::new(2);
        let data = vec![1u8, 2, 3];
        let dropped = AtomicBool::new(false);
        scope(&pool, |s| {
            let _unjoined = s.spawn_job(|| Observer { data: &data, dropped: &dropped });
            // Handle dropped here, never joined.
        });
        assert!(
            dropped.load(Ordering::SeqCst),
            "the result must be destroyed by the time the barrier releases"
        );
    }

    #[test]
    fn rapid_pool_churn_shuts_down_cleanly() {
        // Create → run one batch → drop, repeatedly. The last
        // PoolHandle is dropped by this (caller) thread immediately
        // after the barrier, often while a worker is still between
        // publishing its completion and dropping the task wrapper —
        // task wrappers hold only Arc<Shared>, so the teardown
        // (Core::drop joining the workers) always runs off-pool and
        // can never self-join.
        for round in 0..64u32 {
            let pool = PoolHandle::new(2);
            let sum: u32 = scope(&pool, |s| {
                let handles: Vec<_> =
                    (0..4u32).map(|i| s.spawn_job(move || round + i)).collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(sum, 4 * round + 6);
            drop(pool);
        }
    }

    #[test]
    fn handles_are_shared_across_clones() {
        let pool = PoolHandle::new(1);
        let clone = pool.clone();
        scope(&clone, |s| {
            s.spawn_job(|| {});
        });
        assert_eq!(pool.jobs_submitted(), 1, "clones share the injector");
    }
}
