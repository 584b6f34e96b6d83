//! The worker pool a server runs whole requests on.
//!
//! A query runs start to finish on the thread that asks for it: the
//! executor never hands part of a plan to another thread. The pool
//! exists for the serving layer, which runs each admitted binary
//! request as one task ([`PoolHandle::spawn_task`]) while the
//! connection thread keeps reading frames.
//!
//! Design points:
//!
//! * **Fixed workers, one FIFO.** [`PoolHandle::new`] sizes the pool;
//!   its workers are spawned on the first submission and loop on one
//!   `Mutex` + `Condvar` queue until the last handle is dropped. They
//!   drain the queue before they exit, so every submitted task runs.
//! * **Joins just wait.** [`TaskHandle::join`] blocks until a worker
//!   has run the task; the joining thread never runs pool work itself.
//! * **Panics are delivered, not spread.** Every task body runs under
//!   `catch_unwind`; a panic reaches the joiner as `Err(payload)` and
//!   the worker that ran it keeps serving.
//!
//! Sizing: one worker per available core, and at least two
//! ([`PoolHandle::with_default_parallelism`]), so one long request on a
//! one-core host cannot hold every other behind it.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A type-erased unit of pool work.
type Task = Box<dyn FnOnce() + Send>;

/// The queue the workers drain, and whether the pool is shutting down.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// State shared between the handles and the workers. Workers hold only
/// this, never a [`PoolHandle`]: a worker that dropped the last handle
/// would otherwise have to join its own thread.
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled on submission and on shutdown.
    work: Condvar,
    /// Monotone count of tasks ever submitted.
    submitted: AtomicU64,
}

impl Shared {
    /// The queue, even after a panic elsewhere: every critical section
    /// is one push, pop or flag store, so the state is whole at every
    /// step, and task bodies never run under the lock.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Owns the worker threads; dropped with the last [`PoolHandle`] clone,
/// which shuts the workers down and joins them.
struct Core {
    shared: Arc<Shared>,
    /// Spawned on the first submission.
    workers: OnceLock<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl Drop for Core {
    fn drop(&mut self) {
        self.shared.queue().shutdown = true;
        self.shared.work.notify_all();
        let me = std::thread::current().id();
        for worker in self.workers.take().into_iter().flatten() {
            // A task that drops the last handle runs this on a worker,
            // which exits its loop on its own once the queue is empty.
            if worker.thread().id() != me {
                let _ = worker.join();
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.queue();
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.work.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        task(); // never unwinds: `spawn_task` catches the body's panic
    }
}

/// A cheaply clonable handle to a fixed set of worker threads.
///
/// All clones share the same workers and queue; the threads shut down
/// when the last clone is dropped. `blas::BlasDb` keeps one for its
/// whole lifetime ([`blas::BlasDb::pool`]), and a server runs that
/// document's binary requests on it.
///
/// [`blas::BlasDb::pool`]: ../../blas/struct.BlasDb.html#method.pool
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

impl PoolHandle {
    /// A pool of `threads` workers (at least one). The OS threads are
    /// spawned on the first [`PoolHandle::spawn_task`], so holding,
    /// cloning or dropping an unused pool costs nothing.
    pub fn new(threads: usize) -> Self {
        PoolHandle {
            core: Arc::new(Core {
                shared: Arc::new(Shared {
                    queue: Mutex::new(Queue::default()),
                    work: Condvar::new(),
                    submitted: AtomicU64::new(0),
                }),
                workers: OnceLock::new(),
                threads: threads.max(1),
            }),
        }
    }

    /// A pool sized for this host: one worker per core
    /// (`available_parallelism()`), and never fewer than two.
    pub fn with_default_parallelism() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()).max(2))
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.core.threads
    }

    /// Monotone count of tasks ever submitted to this pool. A test pins
    /// with it which paths use the pool at all.
    pub fn jobs_submitted(&self) -> u64 {
        self.core.shared.submitted.load(Ordering::Acquire)
    }

    /// Queue one task and get a [`TaskHandle`] to collect its result,
    /// or its panic, later. The task owns everything it captures. A
    /// panicking body is caught and delivered as `Err` at the join; the
    /// worker survives.
    pub fn spawn_task<T: Send + 'static>(
        &self,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> TaskHandle<T> {
        let slot = Arc::new(Slot { result: Mutex::new(None), filled: Condvar::new() });
        let task_slot = Arc::clone(&slot);
        let task = move || {
            let result = catch_unwind(AssertUnwindSafe(body));
            *task_slot.result() = Some(result);
            task_slot.filled.notify_all();
        };
        let core = &self.core;
        core.workers.get_or_init(|| {
            (0..core.threads)
                .map(|i| {
                    let shared = Arc::clone(&core.shared);
                    std::thread::Builder::new()
                        .name(format!("blas-pool-{i}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn pool worker")
                })
                .collect()
        });
        core.shared.submitted.fetch_add(1, Ordering::AcqRel);
        core.shared.queue().tasks.push_back(Box::new(task));
        core.shared.work.notify_one();
        TaskHandle { slot }
    }
}

/// Where a task leaves its result (or panic) for the joiner.
struct Slot<T> {
    result: Mutex<Option<std::thread::Result<T>>>,
    filled: Condvar,
}

impl<T> Slot<T> {
    /// The result cell; it is only ever assigned or taken whole.
    fn result(&self) -> MutexGuard<'_, Option<std::thread::Result<T>>> {
        self.result.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Handle to one [`PoolHandle::spawn_task`] task. Dropping it without
/// joining discards the result; the task still runs.
pub struct TaskHandle<T> {
    slot: Arc<Slot<T>>,
}

impl<T> TaskHandle<T> {
    /// Wait for the task. `Err(payload)` delivers the task's panic
    /// instead of re-raising it, so a dying request surfaces as a value
    /// the server chooses how to report.
    pub fn join(self) -> std::thread::Result<T> {
        let mut result = self.slot.result();
        loop {
            if let Some(done) = result.take() {
                return done;
            }
            result = self.slot.filled.wait(result).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Whether the task has finished (without blocking).
    pub fn is_done(&self) -> bool {
        self.slot.result().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn jobs_run_and_results_return() {
        let pool = PoolHandle::new(2);
        let handles: Vec<_> = (0..32i64).map(|i| pool.spawn_task(move || i * i)).collect();
        let values: Vec<i64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(values, (0..32i64).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(pool.jobs_submitted(), 32);
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
        let payload = bad.join().expect_err("a panic must surface as Err");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("task boom"));
        // The worker that ran the panicking task still serves tasks.
        assert_eq!(pool.spawn_task(|| 7u32).join().unwrap(), 7);
    }

    #[test]
    fn dropped_task_handle_does_not_block_or_leak_the_job() {
        let pool = PoolHandle::new(1);
        let ran = Arc::new(AtomicU32::new(0));
        let flag = Arc::clone(&ran);
        drop(pool.spawn_task(move || flag.fetch_add(1, Ordering::SeqCst)));
        // A joined sentinel task queued after it proves the dropped
        // task still ran (one FIFO queue, one worker).
        pool.spawn_task(|| ()).join().unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn rapid_pool_churn_shuts_down_cleanly() {
        // Create → run one batch → drop, repeatedly. The last handle is
        // dropped by this thread right after the joins, often while a
        // worker is still between publishing a result and dropping the
        // task; workers hold only the shared queue state, so the
        // teardown joins them from here and never from a worker.
        for round in 0..64u32 {
            let pool = PoolHandle::new(2);
            let handles: Vec<_> = (0..4u32).map(|i| pool.spawn_task(move || round + i)).collect();
            let sum: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(sum, 4 * round + 6);
            drop(pool);
        }
        // Tasks still queued when the last handle goes are run, not lost.
        let pool = PoolHandle::new(1);
        let ran = Arc::new(AtomicU32::new(0));
        for _ in 0..16 {
            let ran = Arc::clone(&ran);
            drop(pool.spawn_task(move || ran.fetch_add(1, Ordering::SeqCst)));
        }
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn a_task_may_drop_the_last_handle() {
        // The task receives the only handle and drops it, so the
        // teardown runs on a worker and must not join that worker.
        let pool = PoolHandle::new(2);
        let (handle_tx, handle_rx) = std::sync::mpsc::channel::<PoolHandle>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        drop(pool.spawn_task(move || {
            drop(handle_rx.recv().unwrap());
            done_tx.send(()).unwrap();
        }));
        handle_tx.send(pool).unwrap();
        done_rx.recv_timeout(std::time::Duration::from_secs(10)).expect("the task ran to its end");
    }

    #[test]
    fn handles_are_shared_across_clones() {
        let pool = PoolHandle::new(1);
        let clone = pool.clone();
        clone.spawn_task(|| ()).join().unwrap();
        assert_eq!(pool.jobs_submitted(), 1, "clones share the queue");
    }
}
