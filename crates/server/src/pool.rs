//! The server's request workers: a fixed set of named threads draining
//! one FIFO of boxed tasks.
//!
//! [`Server::bind`](crate::Server::bind) starts one pool for the whole
//! server, sized once to the host's cores, and runs every admitted
//! binary request that is not a result-cache hit on it, whichever
//! document it names. [`Pool::join`] lets the workers empty the queue
//! and joins them. A task must not unwind: the server's stream wrapper
//! catches a request's panic and answers it.

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

#[derive(Default)]
struct Queue {
    tasks: VecDeque<Box<dyn FnOnce() + Send>>,
    closed: bool,
}

/// What the workers share with the submitting side.
#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled on submission and on close.
    work: Condvar,
}

impl Shared {
    /// The queue, even after a panic elsewhere: every critical section
    /// is one push, pop or flag store, and no task runs under the lock.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

pub(crate) struct Pool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// Start `threads` workers, named `blas-pool-0`, `blas-pool-1`, ….
    pub(crate) fn start(threads: usize) -> io::Result<Pool> {
        let pool = Pool { shared: Arc::default(), workers: Mutex::new(Vec::new()) };
        for i in 0..threads {
            let shared = Arc::clone(&pool.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("blas-pool-{i}"))
                .spawn(move || work(&shared));
            match spawned {
                Ok(worker) => pool.workers().push(worker),
                Err(e) => {
                    pool.join();
                    return Err(e);
                }
            }
        }
        Ok(pool)
    }

    /// Queue `task` behind every task submitted before it.
    pub(crate) fn submit(&self, task: impl FnOnce() + Send + 'static) {
        self.shared.queue().tasks.push_back(Box::new(task));
        self.shared.work.notify_one();
    }

    /// Let the workers run what is queued, then join them. A task
    /// submitted after this never runs.
    pub(crate) fn join(&self) {
        self.shared.queue().closed = true;
        self.shared.work.notify_all();
        let workers = std::mem::take(&mut *self.workers());
        for worker in workers {
            let _ = worker.join();
        }
    }

    fn workers(&self) -> MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.workers.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn work(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.queue();
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if queue.closed {
                    return;
                }
                queue = shared.work.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        task();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::mpsc;

    #[test]
    fn jobs_run_and_results_return() {
        let pool = Pool::start(2).unwrap();
        let (tx, rx) = mpsc::channel();
        for i in 0..32i64 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i * i).unwrap());
        }
        drop(tx);
        let mut values: Vec<i64> = rx.iter().take(32).collect();
        values.sort_unstable();
        assert_eq!(values, (0..32i64).map(|i| i * i).collect::<Vec<_>>());
        pool.join();
    }

    #[test]
    fn rapid_pool_churn_shuts_down_cleanly() {
        // Start → run one batch → join, repeatedly; the join often
        // lands while a worker is between tasks.
        for round in 0..64u32 {
            let pool = Pool::start(2).unwrap();
            let (tx, rx) = mpsc::channel();
            for i in 0..4u32 {
                let tx = tx.clone();
                pool.submit(move || tx.send(round + i).unwrap());
            }
            assert_eq!(rx.iter().take(4).sum::<u32>(), 4 * round + 6);
            pool.join();
        }
        // Tasks queued before the join are run, not lost, before it
        // returns: the one worker is held until all of them are queued.
        let pool = Pool::start(1).unwrap();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.submit(move || gate_rx.recv().unwrap());
        let ran = Arc::new(AtomicU32::new(0));
        for _ in 0..16 {
            let ran = Arc::clone(&ran);
            pool.submit(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        gate_tx.send(()).unwrap();
        pool.join();
        assert_eq!(ran.load(Ordering::SeqCst), 16);
    }
}
