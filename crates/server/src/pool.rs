//! The server-owned flush pool.
//!
//! The pool decouples ingest latency from disk latency: a connection's
//! thread hands a rotated memtable ([`FlushJob`]) to the pool and goes
//! back to its socket. Its backlog counter is the signal the BUSY policy
//! watches — when flushers fall behind, ingest is shed at admission
//! rather than queued into unbounded memory. It is also what a write
//! waits on when its shard cannot rotate ([`FlushPool::wait_while_stalled`]):
//! the pool's workers are the ones that end the stall, so they are the
//! ones that wake the waiter.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use backsort_engine::{FlushJob, StorageEngine};
use backsort_obs::Gauge;

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
        // analyzer:allow(blocking-in-worker): the one wait a request takes — ended by the flush of one memtable, and bounded by `limit` (a constant) past which the request is shed as BUSY
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
