//! blocking-in-worker bad paths: blocking facts one, two, and three
//! calls deep from the configured pool entry point.

impl ServerCore {
    pub fn serve(&self, task: Task) {
        self.respond(task);
        self.persist_trace();
    }

    fn respond(&self, task: Task) {
        task.stream.write_all(&task.frame); //~ blocking-in-worker
    }

    fn persist_trace(&self) {
        self.render_stats();
        std::fs::write("trace.json", b"{}"); //~ blocking-in-worker
        thread::sleep(self.backoff); //~ blocking-in-worker
        self.await_flush();
    }

    fn await_flush(&self) {
        let guard = self.lock.lock();
        let guard = self.flushed.wait(guard); //~ blocking-in-worker
        let _ = self.flushed.wait_timeout_while(guard, self.limit, |_| self.stalled()); //~ blocking-in-worker
    }

    fn render_stats(&self) {
        let snap = self.registry.snapshot(); //~ blocking-in-worker
        drop(snap);
    }
}
