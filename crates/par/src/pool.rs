//! A scoped-thread worker pool with an indexed task queue.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

/// The shared task queue: FIFO of `(index, payload)` plus a shutdown flag.
struct TaskQueue<T> {
    state: Mutex<(VecDeque<(usize, T)>, bool)>,
    ready: Condvar,
}

impl<T> TaskQueue<T> {
    fn new() -> Self {
        TaskQueue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, idx: usize, task: T) {
        self.state.lock().unwrap().0.push_back((idx, task));
        self.ready.notify_one();
    }

    /// Blocks until a task is available or shutdown; `None` on shutdown.
    fn pop(&self) -> Option<(usize, T)> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(t) = state.0.pop_front() {
                return Some(t);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).unwrap();
        }
    }

    fn shutdown(&self) {
        self.state.lock().unwrap().1 = true;
        self.ready.notify_all();
    }
}

/// Shuts the queue down even if the coordinator panics, so scoped workers
/// wake up and exit instead of deadlocking the joining scope.
struct ShutdownGuard<'a, T>(&'a TaskQueue<T>);

impl<T> Drop for ShutdownGuard<'_, T> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// The coordinator's handle: submit indexed tasks, receive
/// `(index, worker, result)` triples in completion order.
pub struct PoolHandle<'a, T, R> {
    queue: &'a TaskQueue<T>,
    rx: mpsc::Receiver<(usize, usize, R)>,
    in_flight: usize,
    /// Spawns the workers; taken by the first [`PoolHandle::submit`], so a
    /// coordinator that never submits never pays for a thread.
    spawn: Option<Box<dyn FnOnce() + 'a>>,
}

impl<T, R> PoolHandle<'_, T, R> {
    /// Enqueues a task for the workers, spawning them if this is the first.
    pub fn submit(&mut self, idx: usize, task: T) {
        if let Some(spawn) = self.spawn.take() {
            spawn();
        }
        self.in_flight += 1;
        self.queue.push(idx, task);
    }

    /// Number of submitted tasks whose results have not been received yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Blocks for the next completed task: `(index, worker, result)`.
    ///
    /// # Panics
    ///
    /// Panics when called with nothing in flight (the pool would never
    /// produce a result) or when a worker died mid-task (a worker panic
    /// poisons the whole check — there is no partial recovery).
    pub fn recv(&mut self) -> (usize, usize, R) {
        assert!(self.in_flight > 0, "recv with no task in flight");
        let triple = self.rx.recv().expect("worker thread died");
        self.in_flight -= 1;
        triple
    }
}

/// Runs `coordinator` alongside `jobs` scoped worker threads executing
/// `work` on submitted tasks; returns the coordinator's result once every
/// worker has exited. The threads are spawned by the first
/// [`PoolHandle::submit`], all `jobs` at once.
///
/// Workers borrow from the caller's stack (the e-graph rewrites, the
/// graphs), which is what makes a dependency-aware scheduler possible
/// without `unsafe` or `'static` bounds — everything rides on
/// [`std::thread::scope`].
///
/// # Examples
///
/// ```
/// let squares = entangle_par::with_pool(
///     4,
///     |_worker, x: u64| x * x,
///     |pool| {
///         for i in 0..10u64 {
///             pool.submit(i as usize, i);
///         }
///         let mut out = vec![0; 10];
///         while pool.in_flight() > 0 {
///             let (idx, _worker, sq) = pool.recv();
///             out[idx] = sq;
///         }
///         out
///     },
/// );
/// assert_eq!(squares[7], 49);
/// ```
pub fn with_pool<T, R, W, F, Out>(jobs: usize, work: W, coordinator: F) -> Out
where
    T: Send,
    R: Send,
    W: Fn(usize, T) -> R + Sync,
    F: FnOnce(&mut PoolHandle<'_, T, R>) -> Out,
{
    let jobs = jobs.max(1);
    let queue = TaskQueue::new();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let _guard = ShutdownGuard(&queue);
        let (queue, work) = (&queue, &work);
        let spawn = move || {
            for worker in 0..jobs {
                let tx = tx.clone();
                s.spawn(move || {
                    while let Some((idx, task)) = queue.pop() {
                        let result = work(idx, task);
                        if tx.send((idx, worker, result)).is_err() {
                            break; // coordinator gone; nothing left to report to
                        }
                    }
                });
            }
            // `tx` drops here: only workers hold senders, so a dead pool
            // surfaces in `recv` instead of blocking it.
        };
        let mut handle = PoolHandle {
            queue,
            rx,
            in_flight: 0,
            spawn: Some(Box::new(spawn)),
        };
        coordinator(&mut handle)
        // `_guard` drops here (also on panic), shutting the queue down so
        // the scope's implicit join cannot deadlock on sleeping workers.
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_tasks_complete_with_more_tasks_than_workers() {
        let sum = with_pool(
            2,
            |_w, x: usize| x + 1,
            |pool| {
                for i in 0..100 {
                    pool.submit(i, i);
                }
                let mut total = 0;
                while pool.in_flight() > 0 {
                    total += pool.recv().2;
                }
                total
            },
        );
        assert_eq!(sum, (1..=100).sum::<usize>());
    }

    #[test]
    fn workers_report_their_index() {
        let seen = with_pool(
            3,
            |_w, ()| std::thread::current().id(),
            |pool| {
                for i in 0..32 {
                    pool.submit(i, ());
                }
                let mut workers = Vec::new();
                while pool.in_flight() > 0 {
                    let (_, w, _) = pool.recv();
                    workers.push(w);
                }
                workers
            },
        );
        assert!(seen.iter().all(|&w| w < 3));
    }

    #[test]
    fn coordinator_can_submit_dependent_waves() {
        // Second wave depends on the first wave's results, like the
        // checker's dependency-aware dispatch.
        let counter = AtomicUsize::new(0);
        let out = with_pool(
            4,
            |_w, x: usize| {
                counter.fetch_add(1, Ordering::SeqCst);
                x * 2
            },
            |pool| {
                pool.submit(0, 21);
                let (_, _, first) = pool.recv();
                pool.submit(1, first);
                let (_, _, second) = pool.recv();
                second
            },
        );
        assert_eq!(out, 84);
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    /// A chain — each task posed by the previous result — is run by its
    /// coordinator and costs no thread; the first two-wide wave spawns the
    /// workers, and its two tasks run at the same time (each waits for the
    /// other at a barrier, so they cannot have run one after the other).
    #[test]
    fn chain_spawns_nothing_and_a_wide_wave_overlaps() {
        let coordinator = std::thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        let meet = std::sync::Barrier::new(2);
        let work = |_w: usize, wait: bool| {
            ran_on.lock().unwrap().push(std::thread::current().id());
            if wait {
                meet.wait();
            }
        };
        with_pool(2, work, |pool| {
            for link in 0..5 {
                work(link, false);
            }
            assert!(pool.spawn.is_some(), "nothing submitted, nothing spawned");
            assert_eq!(*ran_on.lock().unwrap(), vec![coordinator; 5]);
            pool.submit(5, true);
            pool.submit(6, true);
            assert!(pool.spawn.is_none());
            pool.recv();
            pool.recv();
        });
        let ran_on = ran_on.into_inner().unwrap();
        assert!(ran_on[5..].iter().all(|&t| t != coordinator));
        assert_ne!(ran_on[5], ran_on[6], "the wave's tasks ran on two workers");
    }

    #[test]
    fn borrows_caller_stack_without_static_bounds() {
        let data = [10usize, 20, 30];
        let doubled = with_pool(
            2,
            |_w, i: usize| data[i] * 2,
            |pool| {
                for i in 0..data.len() {
                    pool.submit(i, i);
                }
                let mut out = vec![0; data.len()];
                while pool.in_flight() > 0 {
                    let (idx, _, v) = pool.recv();
                    out[idx] = v;
                }
                out
            },
        );
        assert_eq!(doubled, vec![20, 40, 60]);
    }
}
