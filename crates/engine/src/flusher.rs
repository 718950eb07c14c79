//! The flush pool — IoTDB's asynchronous flushing (the paper's flush
//! time "is asynchronously awaited, including processes such as
//! sorting, encoding, and I/O", §VI-D2).
//!
//! A writer calls [`StorageEngine::write_batch_nonblocking`]; when its
//! shard rotates, it hands the returned [`FlushJob`] to
//! [`FlushPool::submit`] and goes back to its work while a pool thread
//! sorts, encodes and installs the file. Queries keep seeing the rotated
//! memtable's data throughout via the shard's flushing slot. Every shard
//! can have one rotation in flight, so the pool's workers drain one
//! shared channel of jobs from all shards.
//!
//! The pool is also what a write waits on when its shard cannot rotate
//! ([`FlushPool::wait_while_stalled`]): its workers are the ones that end
//! the stall, so they are the ones that wake the waiter.

use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::StorageEngine;
use crate::flush::FlushJob;

/// A pool of flush threads for one engine. Every job submitted is
/// installed: by a worker, or inline by [`submit`](Self::submit) once
/// the pool is stopped or has no worker left.
///
/// No panic can leave what a mutex here guards half-updated — a sender
/// taken whole, a list of handles, a receiver, `()` — so a poisoned lock
/// is recovered with [`PoisonError::into_inner`].
pub struct FlushPool {
    engine: Arc<StorageEngine>,
    sender: Mutex<Option<mpsc::Sender<FlushJob>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
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
        drop(self.gate.lock().unwrap_or_else(PoisonError::into_inner));
        self.signal.notify_all();
    }
}

impl FlushPool {
    /// Spawns `workers` flush threads (at least one) over `engine`.
    /// `throttle` is an artificial per-job delay simulating slow storage
    /// — zero in production, nonzero in benchmarks and backpressure
    /// tests. If no thread can be spawned the pool starts closed, and
    /// every job is completed inline.
    pub fn start(engine: Arc<StorageEngine>, workers: usize, throttle: Duration) -> Self {
        let installed = Arc::new(Installed::default());
        let (sender, receiver) = mpsc::channel::<FlushJob>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles: Vec<_> = (0..workers.max(1))
            .filter_map(|i| {
                let engine = Arc::clone(&engine);
                let receiver = Arc::clone(&receiver);
                let installed = Arc::clone(&installed);
                std::thread::Builder::new()
                    .name(format!("flush-{i}"))
                    .spawn(move || loop {
                        // The receiver lock is held for the recv alone,
                        // so siblings stay runnable while this one flushes.
                        let job = receiver
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .recv();
                        let Ok(job) = job else { break };
                        if !throttle.is_zero() {
                            std::thread::sleep(throttle);
                        }
                        engine.complete_flush(job);
                        installed.notify();
                    })
                    .ok()
            })
            .collect();
        Self {
            engine,
            sender: Mutex::new((!handles.is_empty()).then_some(sender)),
            workers: Mutex::new(handles),
            installed,
        }
    }

    /// Submits a rotated memtable for completion. If the pool is stopped,
    /// or its workers are gone, the job is completed inline, so no acked
    /// data is ever dropped and no shard is left unable to rotate.
    pub fn submit(&self, job: FlushJob) {
        let unsent = match self
            .sender
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            Some(tx) => tx.send(job).err().map(|closed| closed.0),
            None => Some(job),
        };
        if let Some(job) = unsent {
            self.engine.complete_flush(job);
            self.installed.notify();
        }
    }

    /// Blocks while `shard` is stalled on its flush
    /// ([`StorageEngine::flush_stalled`]), for `limit` at most. Returns
    /// whether the stall ended. Woken by the flush workers, never by a
    /// timer: the check runs under the mutex a worker takes after its
    /// install and before it notifies, so no wake-up is lost.
    pub fn wait_while_stalled(&self, shard: usize, limit: Duration) -> bool {
        let guard = self
            .installed
            .gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // analyzer:allow(blocking-in-worker): the one wait a request takes — ended by the flush of one memtable, and bounded by `limit` (a constant) past which the request is shed as BUSY
        let (_guard, timeout) = self
            .installed
            .signal
            .wait_timeout_while(guard, limit, |_| self.engine.flush_stalled(shard))
            .unwrap_or_else(PoisonError::into_inner);
        !timeout.timed_out()
    }

    /// Closes the channel and joins the workers. Jobs still in the
    /// channel are drained and completed first — stopping loses nothing
    /// that was acknowledged to a client — and a job submitted afterwards
    /// is completed inline. Dropping the pool stops it.
    pub fn stop(&self) {
        self.sender
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for FlushPool {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::PointBatch;
    use crate::engine::EngineConfig;
    use crate::types::{SeriesKey, TsValue};
    use backsort_obs::names;

    #[test]
    fn a_job_submitted_after_stop_is_installed_inline() {
        let engine = Arc::new(StorageEngine::new(EngineConfig {
            memtable_max_points: 10,
            ..EngineConfig::default()
        }));
        let pool = FlushPool::start(Arc::clone(&engine), 2, Duration::ZERO);
        let key = SeriesKey::new("root.sg.d1", "s1");
        let batch =
            PointBatch::from_rows((0..20i64).map(|t| (t, TsValue::Long(t)))).expect("typed points");
        let job = engine
            .write_batch_nonblocking(&key, &batch)
            .expect("matching type")
            .expect("rotated at capacity");
        assert!(engine.flush_stalled(job.shard()));
        pool.stop();
        pool.submit(job);
        assert!(!engine.flush_stalled(0), "the slot is free again");
        assert_eq!(engine.obs().gauge_value(names::ENGINE_FLUSH_QUEUE_DEPTH), 0);
        assert_eq!(engine.file_count(), 1);
        assert_eq!(engine.query(&key, 0, 100).len(), 20);
    }
}
