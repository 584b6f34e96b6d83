//! The persistent worker pool every parallel execution runs on.
//!
//! PR 2's executor spawned scoped threads *per sharded scan* —
//! `shards − 1` OS threads created and torn down every time a single
//! operator fanned out — and everything that was not a scan (joins,
//! unions, twig branches) serialized on the coordinating thread. This
//! module replaces that with a **work-stealing-lite pool**: a fixed
//! set of worker threads created once (typically per [`BlasDb`],
//! see `blas::BlasDb::pool`), one shared injector queue, and scoped
//! job submission so jobs may borrow the store and the plan without
//! `'static` gymnastics.
//!
//! Design points:
//!
//! * **Fixed threads, one injector.** [`PoolHandle::new`] spawns `n`
//!   workers that loop on a `Mutex<VecDeque>` + `Condvar` injector
//!   queue. There are no per-worker deques — the "lite" in
//!   work-stealing-lite — but the *helping* rule below recovers the
//!   property that matters: a thread blocked on pool work executes
//!   pool work.
//! * **Helping joins (no idle waits, no starvation deadlocks).** Any
//!   wait against the pool — [`scope`] waiting for its jobs,
//!   [`JobHandle::join`] waiting for one result — pops and runs queued
//!   jobs while it waits. A pool with **zero** workers is therefore
//!   still correct (everything runs on the waiting thread), which is
//!   what makes `PoolHandle::inline()` the sequential degenerate case,
//!   and a job that fans out sub-jobs and joins them can never
//!   deadlock the pool however few threads exist.
//! * **Scoped lifetimes.** [`scope`] erases job lifetimes to `'static`
//!   internally but does not return until every job spawned in the
//!   scope has completed (even when the scope body or a job panics),
//!   so jobs may safely borrow anything that outlives the `scope`
//!   call — the same contract as `std::thread::scope`, minus the
//!   per-call thread spawns.
//! * **Panic propagation without poisoning.** Every job body runs
//!   under `catch_unwind`. A fire-and-forget [`Scope::spawn`] job that
//!   panics parks its payload in the scope, and [`scope`] re-raises it
//!   after the barrier; a [`Scope::spawn_job`] panic is delivered
//!   through [`JobHandle::join`] as `Err(payload)` for the caller to
//!   turn into an error. Either way the worker threads survive: the
//!   pool keeps serving queries after a panicked job (tested by the
//!   shared-pool stress suite).
//!
//! * **Per-worker scratch caches.** Every OS thread that executes
//!   pool jobs — resident workers and helping submitters alike — owns
//!   a private, lock-free cache of recycled scratch values
//!   ([`take_scratch`]). A finishing job checks its scratch back in;
//!   the next job on the same thread checks it out again, so per-job
//!   scratch allocations amortize away once a worker has run more
//!   than one job. The cache is thread-local: no atomics, no locks,
//!   no cross-thread traffic on the checkout path.
//!
//! Sizing: one worker per available core minus one (the submitting
//! thread helps) is the default used by `blas::BlasDb` —
//! [`PoolHandle::with_default_parallelism`]. Oversubscribing is safe
//! (jobs queue), undersubscribing only limits speedup.
//!
//! [`BlasDb`]: ../../blas/struct.BlasDb.html

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased, lifetime-erased unit of pool work.
type Task = Box<dyn FnOnce() + Send>;

/// Queue state shared between the handle, the workers and every scope.
struct Shared {
    /// The injector: all submitted jobs, FIFO.
    queue: Mutex<VecDeque<Task>>,
    /// Signalled on job submission *and* — when helpers are blocked —
    /// on job completion (completions wake helpers parked in
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
            queue: Mutex::new(VecDeque::new()),
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
        match queue.pop_front() {
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
///   `available_parallelism() − 1` workers (at least one): the
///   submitting thread participates via helping, so one worker per
///   *remaining* core is the right default.
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

    /// A pool sized for this host: `available_parallelism() − 1`
    /// workers, at least 1 (the submitting thread is the missing
    /// worker — it helps while it waits).
    pub fn with_default_parallelism() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::new(cores.saturating_sub(1).max(1))
    }

    /// Number of resident worker threads.
    pub fn threads(&self) -> usize {
        self.core.threads
    }

    /// Monotone count of jobs ever submitted to this pool (scan
    /// shards, operator jobs — everything). Test instrumentation:
    /// lets a test assert that independent operators really were
    /// separate pool jobs and that repeated queries reuse one pool.
    pub fn jobs_submitted(&self) -> u64 {
        self.core.shared.submitted.load(Ordering::Acquire)
    }

    /// Submit one `'static` job and get a [`TaskHandle`] to collect
    /// its result (or panic) later. This is the serving layer's
    /// connection-task primitive: there is no scope — the job owns
    /// everything it captures — but the completion is observable and
    /// joinable, which is what lets a server *drain* in-flight
    /// connections on shutdown instead of abandoning them. A panicking body is caught and delivered as
    /// `Err` at the join point; the worker survives. On the
    /// zero-worker inline pool the job runs synchronously on the
    /// calling thread and the returned handle is already complete.
    pub fn spawn_task<T: Send + 'static>(
        &self,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> TaskHandle<T> {
        let slot: Arc<JobSlot<T>> = Arc::new(JobSlot {
            done: AtomicBool::new(false),
            result: Mutex::new(None),
        });
        let task_slot = Arc::clone(&slot);
        let shared = Arc::clone(&self.core.shared);
        let job = move || {
            let result = catch_unwind(AssertUnwindSafe(body));
            *task_slot.result.lock().unwrap() = Some(result);
            // SeqCst: the done-flip half of the wait_until protocol.
            task_slot.done.store(true, Ordering::SeqCst);
            drop(task_slot);
            // A joiner may be parked in `wait_until` on the queue
            // condvar; completions must wake it.
            notify_progress(&shared);
        };
        if self.core.threads == 0 {
            job();
        } else {
            self.push(Box::new(job), true);
        }
        TaskHandle { slot, pool: self.clone() }
    }

    fn push(&self, task: Task, notify: bool) {
        self.ensure_workers();
        let shared = &self.core.shared;
        shared.submitted.fetch_add(1, Ordering::AcqRel);
        let mut queue = shared.queue.lock().unwrap();
        queue.push_back(task);
        if notify {
            shared.work.notify_one();
        }
        drop(queue);
    }

    /// Run queued jobs until `done()` holds, blocking only while the
    /// queue is empty.
    ///
    /// Wakeup protocol: before parking, a helper registers itself in
    /// `waiters` (SeqCst) and re-checks `done()` under the queue lock.
    /// A completion flips its done-state (SeqCst) *before* loading
    /// `waiters`; by the total order on SeqCst operations, either the
    /// completer sees our registration (and takes the lock to
    /// broadcast — lock-notify, so the wakeup cannot fall between our
    /// check and our wait), or we see its done-flip in the re-check
    /// and never park. Notified pushes ([`Scope::spawn`],
    /// [`Scope::spawn_job`]) always notify; a **deferred** push
    /// ([`Scope::spawn_deferred`]) wakes nobody and stays live only
    /// because its pusher reaches the scope barrier and drains the
    /// queue here — a helper never parks while the queue is non-empty
    /// (the pop and the wait take the same lock).
    fn wait_until(&self, done: &dyn Fn() -> bool) {
        let shared = &self.core.shared;
        loop {
            if done() {
                return;
            }
            let mut queue = shared.queue.lock().unwrap();
            match queue.pop_front() {
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

/// Completion state of one [`scope`] invocation.
#[derive(Default)]
struct ScopeSync {
    /// Jobs spawned but not yet completed.
    pending: AtomicUsize,
    /// First panic payload from a fire-and-forget job.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
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
fn complete_one(sync: &ScopeSync, shared: &Shared) {
    sync.pending.fetch_sub(1, Ordering::SeqCst);
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
/// strictly outlives the barrier. Jobs that need to spawn dependents
/// (the executor's DAG walk) simply capture the `&'scope Scope`
/// reference they were handed, exactly as with `std::thread::scope`.
pub struct Scope<'scope, 'env: 'scope> {
    pool: PoolHandle,
    sync: Arc<ScopeSync>,
    /// Invariant over `'scope` (the brand must not shrink or grow).
    _scope: PhantomData<fn(&'scope ()) -> &'scope ()>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: PhantomData<fn(&'env ()) -> &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// The pool this scope submits to.
    pub fn pool(&self) -> &PoolHandle {
        &self.pool
    }

    /// Submit a fire-and-forget job. A job may capture the
    /// `&'scope Scope` it was spawned from and schedule further jobs —
    /// this is what the executor's dependency-counted DAG walk uses. A
    /// panicking body is caught, parked, and re-raised by [`scope`]
    /// after all jobs have finished (the pool itself is unaffected).
    pub fn spawn(&'scope self, body: impl FnOnce() + Send + 'scope) {
        self.spawn_inner(body, true);
    }

    /// Like [`Scope::spawn`], but **without waking a worker**: the job
    /// is queued and executed by whichever thread next drains the
    /// queue — typically the spawning thread itself, which helps the
    /// pool the moment it reaches the scope barrier. Liveness is
    /// guaranteed by that barrier (the scope cannot end while the job
    /// is queued, and a barrier-waiting thread pops jobs rather than
    /// sleeping on a non-empty queue), not by a notification.
    ///
    /// Use for a job the caller would otherwise execute inline anyway:
    /// on µs-scale executions the elided wakeup is the difference
    /// between a queue *round-trip* (park, futex wake, context switch)
    /// and a queue *push* (two uncontended mutex acquisitions). The
    /// executor submits the first root of every plan this way — a
    /// linear pipeline therefore runs entirely on the submitting
    /// thread while still being observable as one queued job.
    pub fn spawn_deferred(&'scope self, body: impl FnOnce() + Send + 'scope) {
        self.spawn_inner(body, false);
    }

    fn spawn_inner(&'scope self, body: impl FnOnce() + Send + 'scope, notify: bool) {
        self.sync.pending.fetch_add(1, Ordering::AcqRel);
        let sync = Arc::clone(&self.sync);
        let shared = Arc::clone(&self.pool.core.shared);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                sync.panic.lock().unwrap().get_or_insert(payload);
            }
            complete_one(&sync, &shared);
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
        self.pool.push(task, notify);
    }

    /// Submit a job whose result (or panic) the caller collects via
    /// [`JobHandle::join`]. Used by sharded scans: the operator job
    /// fans its shard groups out as sub-jobs and joins them, helping
    /// the pool while it waits.
    pub fn spawn_job<T: Send + 'scope>(
        &'scope self,
        body: impl FnOnce() -> T + Send + 'scope,
    ) -> JobHandle<T> {
        let slot: Arc<JobSlot<T>> = Arc::new(JobSlot {
            done: AtomicBool::new(false),
            result: Mutex::new(None),
        });
        self.sync.pending.fetch_add(1, Ordering::AcqRel);
        let sync = Arc::clone(&self.sync);
        let shared = Arc::clone(&self.pool.core.shared);
        let task_slot = Arc::clone(&slot);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(body));
            *task_slot.result.lock().unwrap() = Some(result);
            // SeqCst: the done-flip half of the wait_until protocol.
            task_slot.done.store(true, Ordering::SeqCst);
            // Drop the worker's slot reference BEFORE releasing the
            // barrier: if the caller discarded its JobHandle without
            // joining, this drop destroys the `'scope`-bounded result
            // while the scope's environment is still guaranteed alive.
            // Nothing `'scope`-bounded may outlive `complete_one`.
            drop(task_slot);
            complete_one(&sync, &shared);
        });
        // SAFETY: as in `spawn` — the scope barrier outlives the task.
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

struct JobSlot<T> {
    done: AtomicBool,
    result: Mutex<Option<std::thread::Result<T>>>,
}

impl<T> JobHandle<T> {
    /// Wait for the job, running other pool jobs while waiting.
    /// Returns `Err(payload)` if the job panicked — the panic is
    /// *delivered*, not re-raised, so a worker's panic surfaces as an
    /// error the caller chooses how to handle, and the pool keeps
    /// serving jobs.
    pub fn join(self) -> std::thread::Result<T> {
        let slot = Arc::clone(&self.slot);
        self.pool.wait_until(&|| slot.done.load(Ordering::SeqCst));
        self.slot
            .result
            .lock()
            .unwrap()
            .take()
            .expect("completed job left its result")
    }

    /// Whether the job has finished (without blocking).
    pub fn is_done(&self) -> bool {
        self.slot.done.load(Ordering::Acquire)
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
    /// Wait for the task, running other pool jobs while waiting.
    /// `Err(payload)` delivers the task's panic instead of re-raising
    /// it, so a dying connection task surfaces as a value the server
    /// chooses how to report.
    pub fn join(self) -> std::thread::Result<T> {
        let slot = Arc::clone(&self.slot);
        self.pool.wait_until(&|| slot.done.load(Ordering::SeqCst));
        self.slot
            .result
            .lock()
            .unwrap()
            .take()
            .expect("completed task left its result")
    }

    /// Whether the task has finished (without blocking).
    pub fn is_done(&self) -> bool {
        self.slot.done.load(Ordering::Acquire)
    }
}

/// Run `f` with a [`Scope`] bound to `pool`, then block — helping the
/// pool — until every job spawned within the scope has completed.
/// Panics from fire-and-forget jobs are re-raised here (after the
/// barrier, so the pool is never left with dangling borrows and its
/// workers never die with the job).
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
        sync: Arc::new(ScopeSync::default()),
        _scope: PhantomData,
        _env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
    let sync = Arc::clone(&scope.sync);
    pool.wait_until(&|| sync.pending.load(Ordering::SeqCst) == 0);
    let job_panic = scope.sync.panic.lock().unwrap().take();
    match result {
        Err(payload) => std::panic::resume_unwind(payload),
        Ok(value) => {
            if let Some(payload) = job_panic {
                std::panic::resume_unwind(payload);
            }
            value
        }
    }
}

// ---------------------------------------------------------------------
// Per-worker scratch caches
// ---------------------------------------------------------------------

thread_local! {
    /// This thread's scratch cache: type-erased recycled values, one
    /// entry per checked-in scratch set. Per-thread ≡ per-worker for
    /// the resident pool threads (which live as long as the pool), and
    /// generalizes for free to helping submitter threads. Type-erased
    /// so the pool stays ignorant of what executors cache in it.
    static SCRATCH_CACHE: RefCell<Vec<Box<dyn Any + Send>>> =
        const { RefCell::new(Vec::new()) };
}

/// Spare scratch values one thread retains; beyond this, checked-in
/// values are dropped instead of cached. Depth > 1 only occurs when a
/// job helps the pool mid-job and the nested job checks out scratch of
/// the same type, so a small cap loses nothing.
const SCRATCH_CACHE_CAP: usize = 8;

/// Check a scratch value of type `T` out of the **current thread's**
/// cache, or default-construct one on a cache miss. The checkout is
/// lock-free — one thread-local vector scan, no atomics — and the
/// guard checks the value back into the same thread's cache on drop,
/// so a worker that runs several jobs in sequence reuses one scratch
/// set (with all its grown capacity) across all of them.
///
/// [`Scratch::reused`] reports whether the checkout was a cache hit;
/// the executor surfaces that through the `scratch_hits` counter of
/// `ExecStats` so tests can assert that recycling actually happens.
pub fn take_scratch<T: Default + Send + 'static>() -> Scratch<T> {
    let cached: Option<Box<T>> = SCRATCH_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let idx = cache.iter().position(|slot| slot.is::<T>())?;
        let boxed = cache.swap_remove(idx);
        Some(boxed.downcast::<T>().expect("slot matched T"))
    });
    match cached {
        Some(value) => Scratch { value: Some(value), reused: true },
        None => Scratch { value: Some(Box::new(T::default())), reused: false },
    }
}

/// A scratch value checked out of the current thread's cache by
/// [`take_scratch`]; dereferences to `T` and checks the value back in
/// on drop (on the dropping thread — check-out and check-in happen on
/// the same thread in normal use, since a job's scratch never outlives
/// the job).
///
/// The value stays in its box for its whole cache lifetime, so a hit →
/// use → check-in cycle moves one pointer and allocates nothing.
pub struct Scratch<T: Send + 'static> {
    value: Option<Box<T>>,
    reused: bool,
}

impl<T: Send + 'static> Scratch<T> {
    /// Whether this checkout recycled a cached value (`true`) or had
    /// to default-construct a fresh one (`false`).
    pub fn reused(&self) -> bool {
        self.reused
    }
}

impl<T: Send + 'static> Deref for Scratch<T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.value.as_ref().expect("present until drop")
    }
}

impl<T: Send + 'static> DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("present until drop")
    }
}

impl<T: Send + 'static> Drop for Scratch<T> {
    fn drop(&mut self) {
        let Some(value) = self.value.take() else { return };
        // try_with: during thread teardown the TLS may already be
        // destroyed; then the value is simply dropped. The existing
        // box is re-shelved as-is (an unsizing coercion, no
        // allocation).
        let _ = SCRATCH_CACHE.try_with(|cache| {
            let mut cache = cache.borrow_mut();
            if cache.len() < SCRATCH_CACHE_CAP {
                cache.push(value as Box<dyn Any + Send>);
            }
        });
    }
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
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
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
        // The DAG-walk shape: a completed job schedules its consumer
        // by capturing the scope reference, std::thread::scope-style.
        let pool = PoolHandle::new(2);
        let order = Mutex::new(Vec::new());
        scope(&pool, |s| {
            s.spawn(|| {
                order.lock().unwrap().push("producer");
                s.spawn(|| {
                    order.lock().unwrap().push("consumer");
                });
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
            s.spawn(|| {
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
        let pool = PoolHandle::new(2);
        let done = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope(&pool, |s| {
                s.spawn(|| panic!("scope boom"));
                s.spawn(|| {
                    done.store(true, Ordering::Release);
                });
            })
        }));
        assert!(caught.is_err(), "scope re-raises job panics");
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
    fn deferred_jobs_run_by_the_barrier_without_notification() {
        // Zero workers: nobody could be notified anyway — the barrier
        // itself must drain the deferred job.
        let inline = PoolHandle::inline();
        let ran = AtomicBool::new(false);
        scope(&inline, |s| {
            s.spawn_deferred(|| ran.store(true, Ordering::Release));
        });
        assert!(ran.load(Ordering::Acquire));
        assert_eq!(inline.jobs_submitted(), 1, "deferred jobs still count as queue jobs");

        // Resident workers: the deferred job completes by the barrier
        // regardless of who picks it up, and the pool stays usable.
        let pool = PoolHandle::new(2);
        let counter = AtomicU32::new(0);
        scope(&pool, |s| {
            s.spawn_deferred(|| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            s.spawn(|| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn scratch_misses_then_hits_on_one_thread() {
        // A dedicated thread guarantees a cold cache regardless of what
        // other tests ran on this thread before.
        std::thread::spawn(|| {
            let first = take_scratch::<Vec<u64>>();
            assert!(!first.reused(), "cold cache must miss");
            drop(first);
            let mut second = take_scratch::<Vec<u64>>();
            assert!(second.reused(), "checked-in scratch must be recycled");
            second.push(7);
            drop(second);
            let third = take_scratch::<Vec<u64>>();
            assert_eq!(*third, [7], "recycled value carries its state");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn scratch_caches_are_per_thread() {
        std::thread::spawn(|| {
            drop(take_scratch::<Vec<u8>>()); // warm this thread
            assert!(take_scratch::<Vec<u8>>().reused());
            std::thread::spawn(|| {
                assert!(
                    !take_scratch::<Vec<u8>>().reused(),
                    "another thread's cache must not be visible"
                );
            })
            .join()
            .unwrap();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn scratch_distinguishes_types_and_respects_the_cap() {
        std::thread::spawn(|| {
            drop(take_scratch::<Vec<u16>>());
            // A different type misses even though the cache is warm.
            assert!(!take_scratch::<Vec<u32>>().reused());
            // Concurrent checkouts beyond the cap are dropped, not
            // cached: hold CAP + 2 guards at once, release them all.
            let guards: Vec<Scratch<Vec<u16>>> =
                (0..SCRATCH_CACHE_CAP + 2).map(|_| take_scratch()).collect();
            drop(guards);
            let cached = SCRATCH_CACHE.with(|c| {
                c.borrow().iter().filter(|s| s.is::<Vec<u16>>()).count()
            });
            assert!(cached <= SCRATCH_CACHE_CAP, "cap bounds retained spares");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn handles_are_shared_across_clones() {
        let pool = PoolHandle::new(1);
        let clone = pool.clone();
        scope(&clone, |s| {
            s.spawn(|| {});
        });
        assert_eq!(pool.jobs_submitted(), 1, "clones share the injector");
    }
}
