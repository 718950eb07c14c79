//! Good fixture: guard scopes end (drop, block exit, function exit)
//! before anything slow or fallible runs.

impl Engine {
    pub fn drop_then_io(&self) {
        let st = self.shards[0].write();
        st.working.push(point);
        drop(st);
        std::fs::read_to_string("x").ok();
    }

    pub fn block_scoped(&self) {
        {
            let st = self.shards[0].read();
            st.files.len();
        }
        self.flusher.submit(job);
    }

    pub fn sequential_locks(&self) {
        for shard in 0..self.shards.len() {
            let st = self.shards[shard].read();
            st.files.len();
            drop(st);
        }
        self.faults.hit(SITE).ok();
    }

    pub fn rebinding_replaces(&self) {
        let mut st = self.shards[0].write();
        drop(st);
        let mut st = self.shards[1].write();
        drop(st);
    }

    /// A loop that breaks out a value, not its guard, leaves none live.
    pub fn value_broken_out_of_a_loop(&self) {
        let n = loop {
            let st = self.shards[0].read();
            let n = st.files.len();
            drop(st);
            break n;
        };
        std::fs::read_to_string("x").ok();
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_are_exempt() {
        let st = engine.shards[0].write();
        std::fs::read_to_string("x").ok();
        drop(st);
    }
}
