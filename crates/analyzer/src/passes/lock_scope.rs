//! lock-scope: the README's lock-order rule, machine-checked.
//!
//! The sharded engine's deadlock-freedom argument is "at most one shard
//! lock is held at a time, and nothing slow or fallible runs under one".
//! This pass tracks `read()` / `write()` / `upgradable_read()` guard
//! bindings per function body (plus functions that receive a locked
//! `&ShardState` directly) and flags, while a guard is live:
//!
//! - a second shard-lock acquisition (deadlock risk),
//! - a `std::fs` / `Io`-sink call (I/O under a hot lock),
//! - a `flusher.submit` (can block on a bounded queue),
//! - a failpoint fire (`hit` / `kill_point` / `io_fault` — fallible and
//!   test-controlled).
//!
//! A justified `// analyzer:allow(lock-scope): <why>` acknowledges the
//! rare deliberate exception (e.g. a kill point that models dying
//! *inside* the critical section).

use crate::{Config, Finding, Lint, Severity, Workspace};

use super::{binding_name, broken_name, find_word, in_crates, loop_binding, or_default};

/// The pass.
pub struct LockScope;

const SECTION: &str = "lint.lock-scope";

#[derive(Debug)]
struct Guard {
    name: String,
    depth: usize,
    line: usize,
}

impl Lint for LockScope {
    fn id(&self) -> &'static str {
        "lock-scope"
    }

    fn description(&self) -> &'static str {
        "no second shard lock, I/O, flusher submit, or failpoint fire while a shard guard is live"
    }

    fn run(
        &self,
        ws: &Workspace,
        cfg: &Config,
        _analysis: &crate::Analysis,
        out: &mut Vec<Finding>,
    ) {
        let crates = cfg.list(SECTION, "crates");
        let lock_methods = or_default(
            cfg.list(SECTION, "lock_methods"),
            &[".read()", ".write()", ".upgradable_read()"],
        );
        let guard_params = cfg.list(SECTION, "guard_params").to_vec();
        let io_patterns = or_default(cfg.list(SECTION, "io_patterns"), &["std::fs::"]);
        let flusher_patterns = or_default(cfg.list(SECTION, "flusher_patterns"), &[".submit("]);
        let failpoint_patterns = or_default(
            cfg.list(SECTION, "failpoint_patterns"),
            &[".hit(", ".kill_point(", ".io_fault("],
        );
        let (lock_methods, io_patterns) = (&lock_methods, &io_patterns);
        let (flusher_patterns, failpoint_patterns) = (&flusher_patterns, &failpoint_patterns);

        for file in ws.files.iter().filter(|f| in_crates(f, crates)) {
            let scan = &file.scan;
            let mut guards: Vec<Guard> = Vec::new();
            // Open `let NAME = loop {` bindings: (name, depth).
            let mut loop_lets: Vec<(String, usize)> = Vec::new();
            // A function signature being accumulated (seen `fn`, waiting
            // for its opening `{` or a `;`).
            let mut sig: Option<String> = None;
            // Depth of the innermost function body, to clear guards at
            // function end.
            let mut fn_depth: Option<usize> = None;

            for (i, text) in scan.clean.iter().enumerate() {
                let line = i + 1;
                let depth = scan.depth_at_start[i];
                if !file.is_prod_line(line) {
                    continue;
                }

                // Close scopes that ended on previous lines.
                guards.retain(|g| g.depth <= depth);
                loop_lets.retain(|(_, d)| *d < depth);
                if fn_depth.is_some_and(|d| depth < d) {
                    fn_depth = None;
                    guards.clear();
                }

                // Function signature tracking.
                if sig.is_none() && find_word(text, "fn ", 0).is_some() {
                    sig = Some(String::new());
                }
                if let Some(acc) = &mut sig {
                    acc.push_str(text);
                    acc.push(' ');
                    let opens = text.contains('{');
                    let declares_only = !opens && text.trim_end().ends_with(';');
                    if opens || declares_only {
                        let acc = sig.take().unwrap_or_default();
                        if opens {
                            let body_depth = depth + 1;
                            fn_depth = Some(body_depth);
                            guards.clear();
                            // A `&ShardState` parameter means the caller
                            // already holds the shard lock.
                            let sig_part = acc.split('{').next().unwrap_or("");
                            if guard_params.iter().any(|p| sig_part.contains(p.as_str())) {
                                guards.push(Guard {
                                    name: "<locked parameter>".to_string(),
                                    depth: body_depth,
                                    line,
                                });
                            }
                        }
                    }
                    // The signature line itself can't violate anything.
                    continue;
                }
                if fn_depth.is_none() {
                    continue;
                }

                // Explicit drops end a guard early.
                for g_idx in (0..guards.len()).rev() {
                    let pat = format!("drop({})", guards[g_idx].name);
                    if text.contains(&pat) {
                        guards.remove(g_idx);
                    }
                }

                let live = |guards: &[Guard]| -> Option<String> {
                    guards
                        .last()
                        .map(|g| format!("`{}` (line {})", g.name, g.line))
                };

                // Violations while a guard is live.
                if let Some(held) = live(&guards) {
                    for (pats, what) in [
                        (io_patterns, "I/O call"),
                        (flusher_patterns, "flusher submit"),
                        (failpoint_patterns, "failpoint fire"),
                    ] {
                        if pats.iter().any(|p| text.contains(p.as_str())) {
                            out.push(Finding {
                                file: file.rel.clone(),
                                line,
                                lint: self.id(),
                                severity: Severity::Deny,
                                message: format!("{what} while shard guard {held} is held"),
                            });
                        }
                    }
                }

                // Acquisitions (a binding pushes a guard; a temporary
                // only counts as a momentary second acquisition).
                if let Some(m) = lock_methods.iter().find(|m| text.contains(m.as_str())) {
                    if let Some(held) = live(&guards) {
                        out.push(Finding {
                            file: file.rel.clone(),
                            line,
                            lint: self.id(),
                            severity: Severity::Deny,
                            message: format!(
                                "shard lock acquired via `{}` while guard {held} is held",
                                m.trim_start_matches('.')
                            ),
                        });
                    }
                    if let Some(name) = binding_name(text) {
                        let at = text.find(m.as_str()).unwrap_or(0);
                        let inner: usize = text[..at]
                            .chars()
                            .map(|c| match c {
                                '{' => 1isize,
                                '}' => -1isize,
                                _ => 0,
                            })
                            .sum::<isize>()
                            .max(0) as usize;
                        guards.retain(|g| g.name != name);
                        guards.push(Guard {
                            name,
                            depth: depth + inner,
                            line,
                        });
                    }
                }
                // A guard broken out of a `loop` lives on in its binding.
                loop_lets.extend(loop_binding(text).map(|name| (name, depth)));
                if let (Some(broken), Some((name, d))) = (broken_name(text), loop_lets.last()) {
                    for g in guards.iter_mut().filter(|g| g.name == broken) {
                        (g.name, g.depth) = (name.clone(), *d);
                    }
                }
            }
        }
    }
}
