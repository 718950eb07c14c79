//! Bad fixture: everything that must not happen while a shard guard is
//! live. Trailing tilde markers name the expected finding on that line.

impl Engine {
    pub fn io_under_guard(&self) {
        let st = self.shards[0].write();
        std::fs::read_to_string("x").ok(); //~ lock-scope
        drop(st);
    }

    pub fn second_lock(&self) {
        let a = self.shards[0].read();
        let b = self.shards[1].read(); //~ lock-scope
        drop(b);
        drop(a);
    }

    pub fn submit_under_guard(&self) {
        let mut st = self.shards[0].write();
        self.flusher.submit(job); //~ lock-scope
        drop(st);
    }

    pub fn failpoint_under_guard(&self) {
        let st = self.shards[0].read();
        self.faults.hit(SITE).ok(); //~ lock-scope
        drop(st);
    }

    /// A `&mut ShardState` parameter means the caller holds the lock.
    pub fn locked_param(&self, st: &mut ShardState) {
        self.io.write_durable(&path, &bytes).ok(); //~ lock-scope
    }

    /// A guard a `break` carries out of a `loop` stays live.
    pub fn guard_broken_out_of_a_loop(&self) {
        let mut st = loop {
            let st = self.shards[0].write();
            if st.ready {
                break st;
            }
        };
        std::fs::read_to_string("x").ok(); //~ lock-scope
        drop(st);
    }
}
