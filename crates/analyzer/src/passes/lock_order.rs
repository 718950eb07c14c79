//! lock-order: interprocedural lock-acquisition ordering and
//! guard-scope enforcement over the call graph.
//!
//! The lexical `lock-scope` pass sees one statement at a time; this
//! pass sees through calls. It computes, per function:
//!
//! - which lock **classes** the function may acquire (a class is the
//!   receiver field of a `read()` / `write()` / `lock()` call — the
//!   shard `RwLock` array, the flusher mutex, cache segment mutexes,
//!   the server pool/reorder locks);
//! - which classes may already be **held on entry** — propagated
//!   forward from every call site's lexically-held guard set, plus
//!   `&ShardState`-style guard parameters;
//! - whether the function (transitively) performs an I/O, flusher, or
//!   failpoint **sink**.
//!
//! It then flags (a) any cycle in the acquisition-order digraph —
//! class `B` acquired while `A` is held *and*, somewhere else, `A`
//! acquired while `B` is held (a self-loop is a re-acquisition through
//! a call chain); and (b) any call site under a live shard guard whose
//! callee transitively reaches a sink. Direct sinks under a guard stay
//! `lock-scope`'s report — this pass only flags what the lexical pass
//! cannot see, so a line never gets the same complaint twice.

use std::collections::BTreeMap;

use crate::symbols::SymbolTable;
use crate::{Analysis, Config, Finding, Lint, Severity, Workspace};

use super::{binding_name, broken_name, in_crates, loop_binding, or_default};

/// The pass.
pub struct LockOrder;

const SECTION: &str = "lint.lock-order";

/// Sink bits for [`CallGraph::propagate`].
const SINK_IO: u32 = 1;
const SINK_FLUSHER: u32 = 2;
const SINK_FAILPOINT: u32 = 4;

/// Lock classes are interned into a u64 bitmask; classes past the mask
/// width are ignored (the workspace has about a dozen).
const MAX_CLASSES: usize = 64;

#[derive(Default)]
struct Classes {
    names: Vec<String>,
    shard_like: Vec<bool>,
}

impl Classes {
    fn intern(&mut self, name: &str, shard_like: bool) -> Option<usize> {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            self.shard_like[i] |= shard_like;
            return Some(i);
        }
        if self.names.len() >= MAX_CLASSES {
            return None;
        }
        self.names.push(name.to_string());
        self.shard_like.push(shard_like);
        Some(self.names.len() - 1)
    }

    fn shard_mask(&self) -> u64 {
        self.shard_like
            .iter()
            .enumerate()
            .filter(|(_, s)| **s)
            .fold(0u64, |m, (i, _)| m | (1 << i))
    }
}

/// One lock acquisition inside a function body.
struct Acquire {
    class: usize,
    line: usize,
    /// Classes lexically held when this acquisition runs.
    held: u64,
}

#[derive(Default)]
struct FnLocal {
    acquires: Vec<Acquire>,
    /// All classes this function may acquire directly.
    acquire_mask: u64,
    /// Sink bits for lines in this body (I/O, flusher, failpoint).
    sinks: u32,
    /// First line (and kind) of a local sink, for chain messages.
    sink_at: Option<(usize, &'static str)>,
    /// Classes held on entry because of guard parameters.
    param_mask: u64,
}

impl Lint for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }

    fn description(&self) -> &'static str {
        "no lock-acquisition-order cycles, and no transitive I/O/flusher/failpoint under a shard guard"
    }

    fn run(&self, ws: &Workspace, cfg: &Config, analysis: &Analysis, out: &mut Vec<Finding>) {
        let crates = cfg.list(SECTION, "crates");
        if crates.is_empty() {
            return;
        }
        let lock_methods = or_default(
            cfg.list(SECTION, "lock_methods"),
            &[".read()", ".write()", ".upgradable_read()"],
        );
        let mutex_methods = or_default(cfg.list(SECTION, "mutex_methods"), &[".lock()"]);
        let guard_params = cfg.list(SECTION, "guard_params").to_vec();
        let io_patterns = or_default(cfg.list(SECTION, "io_patterns"), &["std::fs::"]);
        let flusher_patterns = or_default(cfg.list(SECTION, "flusher_patterns"), &[".submit("]);
        let failpoint_patterns = or_default(
            cfg.list(SECTION, "failpoint_patterns"),
            &[".hit(", ".kill_point(", ".io_fault("],
        );

        let table = &analysis.symbols;
        let graph = &analysis.graph;
        let mut classes = Classes::default();
        let mut locals: Vec<FnLocal> = Vec::with_capacity(table.fns.len());
        // Classes held at each call site (site index -> mask).
        let mut held_at_site: Vec<u64> = vec![0; graph.sites.len()];

        for (fn_idx, sym) in table.fns.iter().enumerate() {
            let mut local = FnLocal::default();
            let file = &ws.files[sym.file_idx];
            let Some((lo, hi)) = sym.body else {
                locals.push(local);
                continue;
            };
            // Sites in this body, by line.
            let mut sites_by_line: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &s in &graph.out[fn_idx] {
                sites_by_line
                    .entry(graph.sites[s].line)
                    .or_default()
                    .push(s);
            }
            // Guard parameters (`st: &ShardState`) mean the caller hands
            // this function an already-held shard lock.
            let mut guards: Vec<(usize, String, usize)> = Vec::new(); // (class, name, depth)
            let mut loop_lets: Vec<(String, usize)> = Vec::new(); // `let NAME = loop {`: (name, depth)
            for (pname, pty) in &sym.params {
                if guard_params.iter().any(|g| pty.contains(g.as_str())) {
                    if let Some(c) = classes.intern("shard", true) {
                        local.param_mask |= 1 << c;
                        guards.push((c, pname.clone(), 0));
                    }
                }
            }

            let scan = &file.scan;
            for line in lo..=hi.min(scan.clean.len()) {
                let i = line - 1;
                let text = &scan.clean[i];
                let depth = scan.depth_at_start[i];
                if !file.is_prod_line(line) {
                    continue;
                }
                guards.retain(|(_, _, d)| *d == 0 || *d <= depth);
                loop_lets.retain(|(_, d)| *d < depth);
                for g_idx in (0..guards.len()).rev() {
                    if !guards[g_idx].1.is_empty()
                        && text.contains(&format!("drop({})", guards[g_idx].1))
                    {
                        guards.remove(g_idx);
                    }
                }
                let held: u64 = guards.iter().fold(0, |m, (c, _, _)| m | (1 << c));
                for &s in sites_by_line.get(&line).into_iter().flatten() {
                    held_at_site[s] = held;
                }

                // Local sinks (lock-scope reports the guarded ones; we
                // only record the *fact* for propagation).
                for (pats, bit, what) in [
                    (&io_patterns, SINK_IO, "I/O call"),
                    (&flusher_patterns, SINK_FLUSHER, "flusher submit"),
                    (&failpoint_patterns, SINK_FAILPOINT, "failpoint fire"),
                ] {
                    if pats.iter().any(|p| text.contains(p.as_str())) {
                        local.sinks |= bit;
                        if local.sink_at.is_none() {
                            local.sink_at = Some((line, what));
                        }
                    }
                }

                // Acquisitions.
                for (methods, shard_like) in [(&lock_methods, true), (&mutex_methods, false)] {
                    for m in methods.iter() {
                        let Some(at) = text.find(m.as_str()) else {
                            continue;
                        };
                        let Some(recv) = receiver_field(text, at, table) else {
                            continue;
                        };
                        let Some(c) = classes.intern(&recv, shard_like) else {
                            continue;
                        };
                        local.acquires.push(Acquire {
                            class: c,
                            line,
                            held,
                        });
                        local.acquire_mask |= 1 << c;
                        if let Some(name) = binding_name(text) {
                            guards.retain(|(_, n, _)| n != &name);
                            guards.push((c, name, depth.max(1)));
                        }
                    }
                }
                // A guard broken out of a `loop` lives on in its binding.
                loop_lets.extend(loop_binding(text).map(|name| (name, depth)));
                if let (Some(broken), Some((name, d))) = (broken_name(text), loop_lets.last()) {
                    for g in guards.iter_mut().filter(|g| g.1 == broken) {
                        (g.1, g.2) = (name.clone(), (*d).max(1));
                    }
                }
            }
            locals.push(local);
        }

        let shard_mask = classes.shard_mask();

        // Backward: sinks a function transitively reaches.
        let sink_local: Vec<u32> = locals.iter().map(|l| l.sinks).collect();
        let sink_reach = graph.propagate(&sink_local);

        // Forward: classes possibly held when a function is entered.
        let mut entry: Vec<u64> = locals.iter().map(|l| l.param_mask).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for (s_idx, s) in graph.sites.iter().enumerate() {
                let add = entry[s.caller] | held_at_site[s_idx];
                let merged = entry[s.callee] | add;
                if merged != entry[s.callee] {
                    entry[s.callee] = merged;
                    changed = true;
                }
            }
        }

        // Acquisition-order edges: from every held class to the class
        // being acquired. Same-class local re-acquisition is lexical
        // lock-scope territory; the entry-set variant is ours.
        let mut edges: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new(); // -> (fn, line)
        for (fn_idx, local) in locals.iter().enumerate() {
            if !in_crates(&ws.files[table.fns[fn_idx].file_idx], crates) {
                continue;
            }
            for acq in &local.acquires {
                let held = acq.held | entry[fn_idx];
                for from in 0..classes.names.len() {
                    if held & (1 << from) == 0 {
                        continue;
                    }
                    if from == acq.class && acq.held & (1 << from) != 0 {
                        continue; // local re-acquisition: lock-scope's report
                    }
                    edges.entry((from, acq.class)).or_insert((fn_idx, acq.line));
                }
            }
        }

        // Flag every edge that participates in a cycle.
        for (&(from, to), &(fn_idx, line)) in &edges {
            let cyclic = if from == to {
                true
            } else {
                reaches(&edges, to, from)
            };
            if !cyclic {
                continue;
            }
            let file = &ws.files[table.fns[fn_idx].file_idx];
            let message = if from == to {
                format!(
                    "lock `{}` acquired while a `{}` guard may already be held through the call chain into `{}`",
                    classes.names[to], classes.names[from], table.fns[fn_idx].qualified()
                )
            } else {
                format!(
                    "lock acquisition order cycle: `{}` acquired while `{}` is held in `{}`, but elsewhere `{}` is acquired while `{}` is held",
                    classes.names[to],
                    classes.names[from],
                    table.fns[fn_idx].qualified(),
                    classes.names[from],
                    classes.names[to]
                )
            };
            out.push(Finding {
                file: file.rel.clone(),
                line,
                lint: self.id(),
                severity: Severity::Deny,
                message,
            });
        }

        // Call sites under a live shard guard whose callee transitively
        // sinks. Lines that lexically match a sink pattern are skipped —
        // lock-scope already reports those.
        for (s_idx, site) in graph.sites.iter().enumerate() {
            let caller = &table.fns[site.caller];
            let file = &ws.files[caller.file_idx];
            if !in_crates(file, crates) || !file.is_prod_line(site.line) {
                continue;
            }
            if held_at_site[s_idx] & shard_mask == 0 {
                continue;
            }
            let bits = sink_reach[site.callee];
            if bits == 0 {
                continue;
            }
            let text = &file.scan.clean[site.line - 1];
            let lexical = io_patterns
                .iter()
                .chain(flusher_patterns.iter())
                .chain(failpoint_patterns.iter())
                .any(|p| text.contains(p.as_str()));
            if lexical {
                continue;
            }
            let chain = graph
                .chain_to(site.callee, |g| locals[g].sinks != 0)
                .unwrap_or_default();
            let end = chain
                .last()
                .map(|&s| graph.sites[s].callee)
                .unwrap_or(site.callee);
            let what = locals[end].sink_at.map(|(_, w)| w).unwrap_or("sink");
            out.push(Finding {
                file: file.rel.clone(),
                line: site.line,
                lint: self.id(),
                severity: Severity::Deny,
                message: format!(
                    "call performs {what} while a shard guard is held (chain: {})",
                    graph.render_chain(table, site.callee, &chain)
                ),
            });
        }
    }
}

/// Whether `to` reaches `target` in the order-edge digraph.
fn reaches(edges: &BTreeMap<(usize, usize), (usize, usize)>, from: usize, target: usize) -> bool {
    let mut stack = vec![from];
    let mut seen = std::collections::BTreeSet::new();
    while let Some(cur) = stack.pop() {
        if cur == target {
            return true;
        }
        if !seen.insert(cur) {
            continue;
        }
        for &(u, v) in edges.keys() {
            if u == cur {
                stack.push(v);
            }
        }
    }
    false
}

/// The lock class of an acquisition: the receiver field right before
/// the method pattern, skipping one `[index]` group (`self.shards[i]
/// .write()` → `shards`). Only identifiers that are struct fields
/// somewhere in the workspace qualify — locals don't name shared locks.
fn receiver_field(text: &str, at: usize, table: &SymbolTable) -> Option<String> {
    let bytes = text.as_bytes();
    let mut i = at;
    if i > 0 && bytes[i - 1] == b']' {
        let mut depth = 0i32;
        while i > 0 {
            i -= 1;
            match bytes[i] {
                b']' => depth += 1,
                b'[' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let end = i;
    while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        i -= 1;
    }
    if i == end {
        return None;
    }
    let name = &text[i..end];
    if name == "self" {
        return None;
    }
    if table.field_types.contains_key(name) {
        Some(name.to_string())
    } else {
        None
    }
}
