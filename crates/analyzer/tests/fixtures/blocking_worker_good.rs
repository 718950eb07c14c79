//! blocking-in-worker good paths: the wire module owns the socket,
//! functions the pool never reaches may block, and a justified allow
//! excuses a bounded write.

impl ServerCore {
    pub fn serve(&self, task: Task) {
        self.respond(task);
    }

    fn respond(&self, task: Task) {
        Wire::send_frame(&mut task.stream, &task.frame);
        // analyzer:allow(blocking-in-worker): fixture — bounded by the connection write timeout
        task.stream.write_all(&task.frame);
    }

    /// Never called from `serve`: blocking is fine off the pool —
    /// an idle worker parks here between tasks.
    pub fn startup_load(&self) {
        let _ = std::fs::read("catalog.json");
        thread::sleep(self.backoff);
        let _ = self.not_empty.wait(self.state.lock());
    }
}
