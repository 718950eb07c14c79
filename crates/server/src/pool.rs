//! Bounded execution queue and the server-owned flush pool.
//!
//! The exec queue is the server's single admission point: connection
//! readers push decoded frames, a fixed set of workers pop them. The
//! queue is bounded — a full queue is reported back to the reader as a
//! rejected push so it can answer BUSY instead of buffering unbounded
//! work, which is the whole point of a production front door.
//!
//! The flush pool decouples ingest latency from disk latency: workers
//! hand rotated memtables ([`FlushJob`]s) to the pool and return to the
//! wire immediately. Its backlog counter is the signal the BUSY policy
//! watches — when flushers fall behind, ingest is shed at admission
//! rather than queued into unbounded memory. It is also what a write
//! waits on when its shard cannot rotate ([`FlushPool::wait_while_stalled`]):
//! the pool's workers are the ones that end the stall, so they are the
//! ones that wake the waiter.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use backsort_engine::{FlushJob, StorageEngine};
use backsort_obs::Gauge;

/// A unit of admitted work: one decoded request frame plus the routing
/// the worker needs to answer it in order.
pub(crate) struct Task<C> {
    /// The connection the response goes back to.
    pub conn: Arc<C>,
    /// Per-connection response slot (arrival order).
    pub seq: u64,
    /// Client-chosen frame id, echoed on the response.
    pub id: u64,
    /// What to execute.
    pub body: crate::wire::RequestBody,
}

struct QueueState<C> {
    tasks: VecDeque<Task<C>>,
    closed: bool,
}

/// A bounded MPMC queue of [`Task`]s with blocking pop.
pub(crate) struct ExecQueue<C> {
    state: Mutex<QueueState<C>>,
    not_empty: Condvar,
    capacity: usize,
    depth: Arc<Gauge>,
}

impl<C> ExecQueue<C> {
    pub fn new(capacity: usize, depth: Arc<Gauge>) -> Self {
        Self {
            state: Mutex::new(QueueState {
                tasks: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            depth,
        }
    }

    /// Non-blocking push. Hands the task back when the queue is full or
    /// closed so the caller can answer BUSY.
    // The Err variant intentionally carries the whole task back to the
    // caller: rejection must not drop the request body or the frame id.
    #[allow(clippy::result_large_err)]
    pub fn try_push(&self, task: Task<C>) -> Result<(), Task<C>> {
        let mut state = self.state.lock().expect("exec queue poisoned");
        if state.closed || state.tasks.len() >= self.capacity {
            return Err(task);
        }
        state.tasks.push_back(task);
        self.depth.add(1);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once the queue is closed *and* drained, so
    /// every admitted request is answered before workers exit.
    pub fn pop(&self) -> Option<Task<C>> {
        let mut state = self.state.lock().expect("exec queue poisoned");
        loop {
            if let Some(task) = state.tasks.pop_front() {
                self.depth.add(-1);
                return Some(task);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("exec queue poisoned");
        }
    }

    /// Closes the queue; blocked poppers drain what remains, then exit.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("exec queue poisoned");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
    }
}

/// The server-owned flush pool. Jobs submitted here are completed by
/// dedicated threads; [`FlushPool::backlog`] is the admission signal.
pub(crate) struct FlushPool {
    sender: Mutex<Option<mpsc::Sender<FlushJob>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    backlog: Arc<AtomicI64>,
    backlog_gauge: Arc<Gauge>,
    installed: Arc<Installed>,
}

/// Signalled after every completed flush. The mutex guards no data: a
/// waiter checks its shard under it and a flush worker takes it between
/// installing a file and notifying, so an install either precedes the
/// check or wakes the wait that follows it.
#[derive(Default)]
struct Installed {
    gate: Mutex<()>,
    signal: Condvar,
}

impl Installed {
    fn notify(&self) {
        drop(self.gate.lock().expect("flush signal poisoned"));
        self.signal.notify_all();
    }
}

impl FlushPool {
    /// Spawns `workers` flush threads over `engine`. `throttle` is an
    /// artificial per-job delay simulating slow storage — zero in
    /// production, nonzero in benchmarks and backpressure tests.
    pub fn start(
        engine: Arc<StorageEngine>,
        workers: usize,
        throttle: Duration,
        backlog_gauge: Arc<Gauge>,
    ) -> Self {
        let backlog = Arc::new(AtomicI64::new(0));
        let installed = Arc::new(Installed::default());
        let (sender, receiver) = mpsc::channel::<FlushJob>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers.max(1))
            .map(|i| {
                let engine = Arc::clone(&engine);
                let receiver = Arc::clone(&receiver);
                let backlog = Arc::clone(&backlog);
                let gauge = Arc::clone(&backlog_gauge);
                let installed = Arc::clone(&installed);
                std::thread::Builder::new()
                    .name(format!("server-flush-{i}"))
                    .spawn(move || loop {
                        // Holding the receiver lock only for the recv
                        // keeps siblings runnable while we flush.
                        let job = {
                            let rx = receiver.lock().expect("flush receiver poisoned");
                            rx.recv()
                        };
                        let Ok(job) = job else { break };
                        if !throttle.is_zero() {
                            std::thread::sleep(throttle);
                        }
                        let _ = engine.complete_flush(job);
                        backlog.fetch_sub(1, Ordering::Release);
                        gauge.add(-1);
                        installed.notify();
                    })
                    .expect("spawn flush worker")
            })
            .collect();
        Self {
            sender: Mutex::new(Some(sender)),
            workers: Mutex::new(handles),
            backlog,
            backlog_gauge,
            installed,
        }
    }

    /// Current number of submitted-but-incomplete flush jobs.
    pub fn backlog(&self) -> i64 {
        self.backlog.load(Ordering::Acquire)
    }

    /// Submits a rotated memtable for completion. If the pool is
    /// already shut down, or its workers are gone, the job is completed
    /// inline so no acked data is ever dropped and no shard is left
    /// unable to rotate.
    pub fn submit(&self, engine: &StorageEngine, job: FlushJob) {
        let sender = self.sender.lock().expect("flush sender poisoned");
        let unsent = match sender.as_ref() {
            Some(tx) => {
                self.backlog.fetch_add(1, Ordering::Release);
                self.backlog_gauge.add(1);
                tx.send(job).err().map(|closed| {
                    // Worker side vanished; roll the accounting back.
                    self.backlog.fetch_sub(1, Ordering::Release);
                    self.backlog_gauge.add(-1);
                    closed.0
                })
            }
            None => Some(job),
        };
        drop(sender);
        if let Some(job) = unsent {
            let _ = engine.complete_flush(job);
            self.installed.notify();
        }
    }

    /// Blocks while `shard` of `engine` is stalled on its flush
    /// ([`StorageEngine::flush_stalled`]), for `limit` at most. Returns
    /// whether the stall ended. Woken by the flush workers, never by a
    /// timer: the check runs under the mutex a worker takes after its
    /// install and before it notifies, so no wake-up is lost.
    pub fn wait_while_stalled(
        &self,
        engine: &StorageEngine,
        shard: usize,
        limit: Duration,
    ) -> bool {
        let guard = self.installed.gate.lock().expect("flush signal poisoned");
        // analyzer:allow(blocking-in-worker): the one wait a worker takes — ended by the flush of one memtable on a pool that is joined only after the workers, and bounded by `limit` (a constant) past which the request is shed as BUSY
        let (_guard, timeout) = self
            .installed
            .signal
            .wait_timeout_while(guard, limit, |_| engine.flush_stalled(shard))
            .expect("flush signal poisoned");
        !timeout.timed_out()
    }

    /// Drops the sender and joins the workers. Jobs still in the
    /// channel are drained and completed first — shutdown loses nothing
    /// that was acknowledged to a client.
    pub fn stop(&self) {
        self.sender.lock().expect("flush sender poisoned").take();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("flush workers poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backsort_obs::Registry;

    fn gauge() -> Arc<Gauge> {
        Registry::new().gauge("test.depth")
    }

    #[derive(Debug)]
    struct NoConn;

    fn task(seq: u64) -> Task<NoConn> {
        Task {
            conn: Arc::new(NoConn),
            seq,
            id: seq,
            body: crate::wire::RequestBody::Sql(String::new()),
        }
    }

    #[test]
    fn try_push_rejects_when_full() {
        let queue: ExecQueue<NoConn> = ExecQueue::new(2, gauge());
        assert!(queue.try_push(task(0)).is_ok());
        assert!(queue.try_push(task(1)).is_ok());
        let rejected = queue.try_push(task(2));
        assert!(rejected.is_err());
        assert_eq!(rejected.err().map(|t| t.seq), Some(2));
    }

    #[test]
    fn close_drains_then_ends() {
        let queue: Arc<ExecQueue<NoConn>> = Arc::new(ExecQueue::new(8, gauge()));
        queue.try_push(task(0)).ok();
        queue.try_push(task(1)).ok();
        queue.close();
        assert!(queue.try_push(task(2)).is_err());
        assert_eq!(queue.pop().map(|t| t.seq), Some(0));
        assert_eq!(queue.pop().map(|t| t.seq), Some(1));
        assert!(queue.pop().is_none());
    }
}
