//! lock-order bad paths: an acquisition-order cycle between the pool
//! and cache mutexes, a transitive I/O sink reached under a live shard
//! guard (taken directly, or carried out of a `loop` by `break`), and a
//! shard re-acquisition through a call chain.

pub struct Engine {
    pool: Mutex<u32>,
    cache: Mutex<u32>,
    shards: RwLock<u32>,
}

impl Engine {
    pub fn pool_then_cache(&self) {
        let p = self.pool.lock();
        let c = self.cache.lock(); //~ lock-order
        drop(c);
        drop(p);
    }

    pub fn cache_then_pool(&self) {
        let c = self.cache.lock();
        let p = self.pool.lock(); //~ lock-order
        drop(p);
        drop(c);
    }

    pub fn flush_under_guard(&self) {
        let st = self.shards.write();
        self.flush_locked(); //~ lock-order
        drop(st);
    }

    pub fn flush_under_a_guard_broken_out_of_a_loop(&self) {
        let st = loop {
            let st = self.shards.write();
            break st;
        };
        self.flush_locked(); //~ lock-order
        drop(st);
    }

    fn flush_locked(&self) {
        self.io.write_durable(&self.path, &self.bytes);
    }

    pub fn reenter(&self) {
        let st = self.shards.write();
        self.lock_again();
        drop(st);
    }

    fn lock_again(&self) {
        let st2 = self.shards.write(); //~ lock-order
        drop(st2);
    }
}
