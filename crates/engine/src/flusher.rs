//! Background flush workers — IoTDB's asynchronous flushing (the paper's
//! flush time "is asynchronously awaited, including processes such as
//! sorting, encoding, and I/O", §VI-D2).
//!
//! Writers call [`crate::StorageEngine::write_batch_nonblocking`]; when a
//! rotation happens, the returned [`FlushJob`](crate::engine::FlushJob)
//! is handed to the [`AsyncFlusher`], whose worker threads sort and
//! encode off the write path. Queries keep seeing the rotating
//! memtable's data throughout via the owning shard's flushing slot.
//!
//! With a sharded engine every shard can have a rotation in flight at
//! once, so the flusher is a *pool*: `M` workers drain one shared
//! channel of [`FlushJob`]s from all shards
//! ([`AsyncFlusher::with_workers`]). The single-worker constructor
//! ([`AsyncFlusher::new`]) preserves the original one-thread behavior.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::engine::{FlushJob, StorageEngine};

/// Error returned by [`AsyncFlusher::submit`] when the worker pool is no
/// longer accepting jobs (all workers exited). The job is handed back so
/// the caller can complete it inline with
/// [`StorageEngine::complete_flush`] instead of losing the rotation.
#[derive(Debug)]
pub struct FlusherClosed(pub FlushJob);

impl std::fmt::Display for FlusherClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flusher closed; complete the returned job inline")
    }
}

impl std::error::Error for FlusherClosed {}

/// A pool of flush threads for one engine.
pub struct AsyncFlusher {
    sender: Option<Sender<FlushJob>>,
    workers: Vec<JoinHandle<usize>>,
}

impl AsyncFlusher {
    /// Spawns a single worker thread against `engine` (the original
    /// one-flusher configuration).
    pub fn new(engine: Arc<StorageEngine>) -> Self {
        Self::with_workers(engine, 1)
    }

    /// Spawns a pool of `workers` threads (clamped to at least one)
    /// draining a single shared job channel. Jobs from different shards
    /// flush concurrently; jobs from the same shard cannot coexist (the
    /// shard's flushing slot backpressures rotation), so no ordering
    /// hazard arises from the work-stealing.
    pub fn with_workers(engine: Arc<StorageEngine>, workers: usize) -> Self {
        let (sender, receiver) = channel::<FlushJob>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..workers.max(1))
            .map(|_| {
                let engine = Arc::clone(&engine);
                let receiver: Arc<Mutex<Receiver<FlushJob>>> = Arc::clone(&receiver);
                std::thread::spawn(move || {
                    let mut completed = 0usize;
                    loop {
                        // recv() holds the receiver mutex for the whole
                        // blocking wait, so exactly one idle worker
                        // parks here at a time (the rest queue on the
                        // mutex). Once a job is dequeued the temporary
                        // guard drops, the next worker moves into
                        // recv(), and the flush itself runs unlocked —
                        // workers overlap on the sort/encode work, not
                        // on the dequeue.
                        let job = receiver.lock().recv();
                        match job {
                            Ok(job) => {
                                engine.complete_flush(job);
                                completed += 1;
                            }
                            Err(_) => break, // channel closed: shutdown
                        }
                    }
                    completed
                })
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
        }
    }

    /// Queues a job for the pool.
    ///
    /// # Errors
    /// Returns [`FlusherClosed`] carrying the job back when the pool has
    /// shut down; the caller should finish it inline via
    /// [`StorageEngine::complete_flush`] so the shard's flushing slot is
    /// released and no data is lost.
    pub fn submit(&self, job: FlushJob) -> Result<(), FlusherClosed> {
        match self.sender.as_ref() {
            Some(sender) => sender.send(job).map_err(|e| FlusherClosed(e.0)),
            None => Err(FlusherClosed(job)),
        }
    }

    /// Drains the queue, stops all workers, and returns how many flushes
    /// the pool completed.
    pub fn shutdown(mut self) -> usize {
        drop(self.sender.take());
        self.workers
            .drain(..)
            .map(|w| {
                w.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .sum()
    }
}

impl Drop for AsyncFlusher {
    fn drop(&mut self) {
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::PointBatch;
    use crate::engine::EngineConfig;
    use crate::types::{SeriesKey, TsValue};
    use backsort_core::Algorithm;

    fn engine(max_points: usize) -> Arc<StorageEngine> {
        engine_sharded(max_points, 1)
    }

    fn engine_sharded(max_points: usize, shards: usize) -> Arc<StorageEngine> {
        Arc::new(StorageEngine::new(EngineConfig {
            memtable_max_points: max_points,
            array_size: 16,
            sorter: Algorithm::Backward(Default::default()),
            shards,
            ..EngineConfig::default()
        }))
    }

    fn key() -> SeriesKey {
        SeriesKey::new("root.sg.d1", "s1")
    }

    /// One point through the non-blocking batch entry point.
    fn write_nb(engine: &StorageEngine, k: &SeriesKey, t: i64) -> Option<FlushJob> {
        let batch = PointBatch::from_rows(vec![(t, TsValue::Long(t))]).expect("one typed point");
        engine
            .write_batch_nonblocking(k, &batch)
            .expect("matching type")
    }

    #[test]
    fn async_flush_pipeline_end_to_end() {
        let engine = engine(100);
        let flusher = AsyncFlusher::new(Arc::clone(&engine));
        for t in 0..450i64 {
            if let Some(job) = write_nb(&engine, &key(), t) {
                flusher.submit(job).expect("pool running");
            }
        }
        // How many rotations happen depends on how fast the worker keeps
        // up (backpressure is by design); at least the first must have
        // completed, and no data may be lost either way.
        let completed = flusher.shutdown();
        assert!(completed >= 1, "completed {completed}");
        engine.flush(); // drain whatever backpressure kept in memory
        let got = engine.query(&key(), 0, 1_000);
        assert_eq!(got.len(), 450);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn data_in_flushing_slot_stays_queryable() {
        let engine = engine(50);
        // Fill to rotation but do NOT complete the flush yet.
        let mut job = None;
        for t in 0..50i64 {
            if let Some(j) = write_nb(&engine, &key(), t) {
                job = Some(j);
            }
        }
        let job = job.expect("rotation happened");
        // The rotated data must still answer queries.
        let got = engine.query(&key(), 0, 100);
        assert_eq!(got.len(), 50, "flushing-slot data visible");
        // New writes land in the fresh working memtable meanwhile.
        write_nb(&engine, &key(), 100);
        assert_eq!(engine.query(&key(), 0, 200).len(), 51);
        // Completing the flush keeps results identical.
        engine.complete_flush(job);
        assert_eq!(engine.query(&key(), 0, 200).len(), 51);
        assert_eq!(engine.file_count(), 1);
    }

    #[test]
    fn no_second_rotation_while_flush_pending() {
        let engine = engine(20);
        let mut jobs = 0;
        for t in 0..100i64 {
            if write_nb(&engine, &key(), t).is_some() {
                jobs += 1;
            }
        }
        // Only the first fill rotates; the rest backpressures into the
        // growing working memtable.
        assert_eq!(jobs, 1);
        let (working, _) = engine.buffered_points();
        assert_eq!(working, 80);
    }

    #[test]
    fn concurrent_writers_with_async_flusher() {
        let engine = engine(500);
        let flusher = Arc::new(AsyncFlusher::new(Arc::clone(&engine)));
        std::thread::scope(|scope| {
            for w in 0..4 {
                let engine = Arc::clone(&engine);
                let flusher = Arc::clone(&flusher);
                scope.spawn(move || {
                    let k = SeriesKey::new("root.sg.d1", format!("s{w}"));
                    for t in 0..2_000i64 {
                        if let Some(job) = write_nb(&engine, &k, t) {
                            flusher.submit(job).expect("pool running");
                        }
                    }
                });
            }
        });
        let flusher = Arc::into_inner(flusher).expect("sole owner");
        flusher.shutdown();
        engine.flush(); // drain remainder synchronously
        for w in 0..4 {
            let k = SeriesKey::new("root.sg.d1", format!("s{w}"));
            assert_eq!(engine.query(&k, 0, 10_000).len(), 2_000, "s{w}");
        }
    }

    #[test]
    fn submit_after_close_hands_the_job_back() {
        let engine = engine(10);
        let flusher = AsyncFlusher::with_workers(Arc::clone(&engine), 2);
        let mut job = None;
        for t in 0..10i64 {
            if let Some(j) = write_nb(&engine, &key(), t) {
                job = Some(j);
            }
        }
        let job = job.expect("rotated at capacity");
        // Kill the pool out from under the submit.
        let dead = {
            let mut f = flusher;
            drop(f.sender.take());
            for w in f.workers.drain(..) {
                let _ = w.join();
            }
            f
        };
        let err = dead.submit(job).expect_err("pool is closed");
        // The handed-back job completes inline; nothing is lost.
        engine.complete_flush(err.0);
        assert_eq!(engine.query(&key(), 0, 100).len(), 10);
        assert_eq!(engine.file_count(), 1);
    }

    #[test]
    fn pool_drains_jobs_from_multiple_shards() {
        // d0 and d2 land on different shards (FNV-1a mod 4); both can
        // have rotations in flight, and a 2-worker pool drains them.
        let engine = engine_sharded(100, 4);
        let flusher = AsyncFlusher::with_workers(Arc::clone(&engine), 2);
        let ka = SeriesKey::new("root.sg.d0", "s");
        let kb = SeriesKey::new("root.sg.d2", "s");
        for t in 0..500i64 {
            for k in [&ka, &kb] {
                if let Some(job) = write_nb(&engine, k, t) {
                    flusher.submit(job).expect("pool running");
                }
            }
        }
        let completed = flusher.shutdown();
        assert!(
            completed >= 2,
            "both shards flushed (completed {completed})"
        );
        engine.flush();
        assert_eq!(engine.query(&ka, 0, 1_000).len(), 500);
        assert_eq!(engine.query(&kb, 0, 1_000).len(), 500);
    }
}
