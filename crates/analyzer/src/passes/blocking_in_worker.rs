//! blocking-in-worker: nothing reachable from a request-path entry
//! point may block.
//!
//! The server answers each request on its connection's thread, so the
//! time between reading a frame and writing its reply is a client's
//! round trip, and its connection reads nothing else meanwhile. One
//! blocking call anywhere down the call chain — file I/O, a socket
//! write to a wedged peer, a sleep, a contended render-path mutex —
//! is latency every request on that path pays. The lexical passes
//! cannot see this: the blocking call is typically two or three calls
//! deep.
//!
//! From the configured `entry_points` (qualified names like
//! `run_connection`, `ServerCore::serve`), the pass walks the call
//! graph forward and flags every **local blocking fact** in a reachable
//! function:
//!
//! - file I/O (`fs_patterns` — `std::fs::` and the engine's injectable
//!   `Io` sink methods);
//! - socket reads/writes (`socket_patterns`) *outside* the wire module
//!   (`socket_exempt_files`) — framing code owns the socket, nothing
//!   else on the request path should touch one;
//! - registry render-path calls (`registry_patterns`) — `snapshot()` /
//!   `render_*` take the registry segment mutexes;
//! - `thread::sleep` (`sleep_patterns`);
//! - condition-variable and barrier waits (`wait_patterns` — `.wait(`,
//!   `.wait_timeout(` and their `_while` forms): a request parked on a
//!   signal is as late as one asleep, for as long as whoever signals
//!   takes.
//!
//! Findings land on the blocking line itself with the call chain from
//! the entry point, so a justified `analyzer:allow(blocking-in-worker)`
//! sits next to the operation it excuses. Facts are only collected in
//! the configured `crates` and only on production lines.

use std::collections::BTreeMap;

use crate::{Analysis, Config, Finding, Lint, Severity, Workspace};

use super::{in_crates, or_default};

/// The pass.
pub struct BlockingInWorker;

const SECTION: &str = "lint.blocking-in-worker";

impl Lint for BlockingInWorker {
    fn id(&self) -> &'static str {
        "blocking-in-worker"
    }

    fn description(&self) -> &'static str {
        "no blocking call (file I/O, socket outside wire, registry render, sleep, condvar wait) reachable from a request-path entry point, i.e. between a frame read and its reply"
    }

    fn run(&self, ws: &Workspace, cfg: &Config, analysis: &Analysis, out: &mut Vec<Finding>) {
        let crates = cfg.list(SECTION, "crates");
        let entry_names = cfg.list(SECTION, "entry_points");
        if crates.is_empty() || entry_names.is_empty() {
            return;
        }
        let fs_patterns = or_default(cfg.list(SECTION, "fs_patterns"), &["std::fs::"]);
        let socket_patterns = or_default(
            cfg.list(SECTION, "socket_patterns"),
            &[".write_all(", ".read_exact("],
        );
        let socket_exempt = cfg.list(SECTION, "socket_exempt_files").to_vec();
        let registry_patterns = or_default(
            cfg.list(SECTION, "registry_patterns"),
            &[".snapshot()", ".render_prometheus()", ".render_json()"],
        );
        let sleep_patterns = or_default(cfg.list(SECTION, "sleep_patterns"), &["thread::sleep("]);
        let wait_patterns = or_default(
            cfg.list(SECTION, "wait_patterns"),
            &[
                ".wait(",
                ".wait_timeout(",
                ".wait_while(",
                ".wait_timeout_while(",
            ],
        );

        let table = &analysis.symbols;
        let graph = &analysis.graph;

        // Entry points: every function whose qualified name matches.
        let entries: Vec<usize> = table
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| entry_names.iter().any(|e| e == &f.qualified()))
            .map(|(i, _)| i)
            .collect();
        if entries.is_empty() {
            return;
        }

        // Forward closure: which entry (first by config order) reaches
        // each function. Entries themselves are on their own path.
        let mut reached_by: BTreeMap<usize, usize> = BTreeMap::new();
        for &e in &entries {
            let mut stack = vec![e];
            while let Some(cur) = stack.pop() {
                if reached_by.contains_key(&cur) {
                    continue;
                }
                reached_by.insert(cur, e);
                for &s in &graph.out[cur] {
                    stack.push(graph.sites[s].callee);
                }
            }
        }

        for (&fn_idx, &entry) in &reached_by {
            let sym = &table.fns[fn_idx];
            let file = &ws.files[sym.file_idx];
            if !in_crates(file, crates) {
                continue;
            }
            let Some((lo, hi)) = sym.body else { continue };
            let socket_here = !socket_exempt
                .iter()
                .any(|ex| file.rel.starts_with(ex.as_str()));
            let scan = &file.scan;
            for line in lo..=hi.min(scan.clean.len()) {
                if !file.is_prod_line(line) {
                    continue;
                }
                let text = &scan.clean[line - 1];
                let mut what: Option<&'static str> = None;
                if fs_patterns.iter().any(|p| text.contains(p.as_str())) {
                    what = Some("file I/O");
                } else if socket_here && socket_patterns.iter().any(|p| text.contains(p.as_str())) {
                    what = Some("socket I/O outside the wire module");
                } else if registry_patterns.iter().any(|p| text.contains(p.as_str())) {
                    what = Some("registry render-path lock");
                } else if sleep_patterns.iter().any(|p| text.contains(p.as_str())) {
                    what = Some("thread sleep");
                } else if wait_patterns.iter().any(|p| text.contains(p.as_str())) {
                    what = Some("condition wait");
                }
                let Some(what) = what else { continue };
                let chain = graph.chain_to(entry, |g| g == fn_idx).unwrap_or_default();
                out.push(Finding {
                    file: file.rel.clone(),
                    line,
                    lint: self.id(),
                    severity: Severity::Deny,
                    message: format!(
                        "{what} reachable from request-path entry point (chain: {})",
                        graph.render_chain(table, entry, &chain)
                    ),
                });
            }
        }
    }
}
