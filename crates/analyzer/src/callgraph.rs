//! Intra-workspace call graph over the [`SymbolTable`].
//!
//! Call sites are extracted textually from each function body and
//! resolved with a small set of rules, ordered from most to least
//! precise:
//!
//! 1. `self.method(…)` — methods of the enclosing `impl` type, across
//!    all files (split impls like `StorageEngine` resolve correctly);
//! 2. `self.field.method(…)` / `local.method(…)` /
//!    `local.field.method(…)` — the receiver's type tokens come from the
//!    struct-field map or the caller's typed locals, and the method is
//!    looked up by owner. A typed local is a parameter, or a
//!    `let [mut] local = Type {` / `= Self {` struct-literal binding;
//! 3. `Type::func(…)` / `Self::func(…)` — owner lookup by path segment;
//! 4. `local.method(…)` with an untyped receiver — resolved only when
//!    exactly one method in the workspace has that name;
//! 5. `free_fn(…)` — same file, then same crate, then a unique
//!    workspace-wide free function.
//!
//! Anything else (std calls, trait objects, ambiguous names) gets **no
//! edge**. The passes built on this graph are therefore *may-miss*:
//! they never invent a call that cannot happen, but a call they cannot
//! resolve is invisible to propagation. DESIGN.md §13 lists the
//! resulting soundness limits.

use std::collections::BTreeMap;

use crate::symbols::{type_tokens, SymbolTable};
use crate::Workspace;

/// One resolved call site.
#[derive(Debug)]
pub struct Site {
    /// Calling function (index into `SymbolTable::fns`).
    pub caller: usize,
    /// Called function (index into `SymbolTable::fns`).
    pub callee: usize,
    /// 1-based line of the call in the caller's file.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every resolved call site.
    pub sites: Vec<Site>,
    /// Per function: indices into `sites` where it is the caller.
    pub out: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Extracts and resolves every call site in the workspace.
    pub fn build(ws: &Workspace, table: &SymbolTable) -> CallGraph {
        // owner -> name -> fn indices, and free functions by name.
        let mut methods: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in table.fns.iter().enumerate() {
            match &f.owner {
                Some(o) => methods
                    .entry((o.as_str(), f.name.as_str()))
                    .or_default()
                    .push(i),
                None => free.entry(f.name.as_str()).or_default().push(i),
            }
        }

        let mut graph = CallGraph {
            sites: Vec::new(),
            out: vec![Vec::new(); table.fns.len()],
        };
        for (caller, f) in table.fns.iter().enumerate() {
            let Some((lo, hi)) = f.body else { continue };
            let scan = &ws.files[f.file_idx].scan;
            let mut typed: BTreeMap<&str, &str> = f
                .params
                .iter()
                .map(|(n, t)| (n.as_str(), t.as_str()))
                .collect();
            typed.extend(
                (lo..=hi.min(scan.clean.len())).filter_map(|l| struct_binding(&scan.clean[l - 1])),
            );
            for line in lo..=hi.min(scan.clean.len()) {
                let text = &scan.clean[line - 1];
                for call in extract_calls(text) {
                    let callees = resolve(&call, caller, table, &methods, &free, &typed, ws);
                    for callee in callees {
                        if callee == caller {
                            continue; // direct recursion adds nothing
                        }
                        let idx = graph.sites.len();
                        graph.sites.push(Site {
                            caller,
                            callee,
                            line,
                        });
                        graph.out[caller].push(idx);
                    }
                }
            }
        }
        graph
    }

    /// Fixpoint propagation of per-function bit flags: the result for a
    /// function is its local flags OR-ed with every (transitive)
    /// callee's. Linear in `sites` per iteration; iterations are
    /// bounded by the flag-lattice height, so this stays far under the
    /// CI wall-clock gate even on pathological graphs.
    pub fn propagate(&self, local: &[u32]) -> Vec<u32> {
        let mut reach = local.to_vec();
        let mut changed = true;
        while changed {
            changed = false;
            for s in &self.sites {
                let merged = reach[s.caller] | reach[s.callee];
                if merged != reach[s.caller] {
                    reach[s.caller] = merged;
                    changed = true;
                }
            }
        }
        reach
    }

    /// Shortest call chain (as site indices) from `start` to any
    /// function where `hit` is true. Empty when `hit(start)`.
    pub fn chain_to(&self, start: usize, hit: impl Fn(usize) -> bool) -> Option<Vec<usize>> {
        if hit(start) {
            return Some(Vec::new());
        }
        let mut prev: BTreeMap<usize, usize> = BTreeMap::new(); // fn -> site that reached it
        let mut queue = std::collections::VecDeque::from([start]);
        let mut seen = vec![false; self.out.len()];
        seen[start] = true;
        while let Some(cur) = queue.pop_front() {
            for &site_idx in &self.out[cur] {
                let next = self.sites[site_idx].callee;
                if seen[next] {
                    continue;
                }
                seen[next] = true;
                prev.insert(next, site_idx);
                if hit(next) {
                    let mut path = Vec::new();
                    let mut at = next;
                    while at != start {
                        let s = prev[&at];
                        path.push(s);
                        at = self.sites[s].caller;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next);
            }
        }
        None
    }

    /// Renders a chain from [`chain_to`](Self::chain_to) as `a -> b -> c` using
    /// qualified names.
    pub fn render_chain(&self, table: &SymbolTable, start: usize, chain: &[usize]) -> String {
        let mut out = table.fns[start].qualified();
        for &site in chain {
            out.push_str(" -> ");
            out.push_str(&table.fns[self.sites[site].callee].qualified());
        }
        out
    }
}

/// A call expression found on one clean line.
#[derive(Debug, PartialEq)]
pub struct Call {
    /// The called name (method or function).
    pub name: String,
    /// How the call names its target.
    pub recv: Recv,
    /// Byte column of the name on the line.
    pub col: usize,
}

/// Receiver classification for a [`Call`].
#[derive(Debug, PartialEq)]
pub enum Recv {
    /// `self.name(…)`.
    SelfDot,
    /// `<ident>.<field>.name(…)` — `self`'s, a parameter's or a local's
    /// field.
    Field(String, String),
    /// `<ident>.name(…)` — a parameter or local.
    Ident(String),
    /// `<Path>::name(…)` — last path segment before `::`.
    Path(String),
    /// `<expr>.name(…)` where the receiver is not a simple ident.
    Unknown,
    /// Bare `name(…)`.
    Free,
}

const KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "move", "else", "let", "fn",
    "impl", "dyn", "where", "unsafe", "break", "continue", "await",
];

/// Extracts the call expressions on a clean line.
pub fn extract_calls(text: &str) -> Vec<Call> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' {
            continue;
        }
        // Identifier immediately before the `(` (turbofish and closing
        // brackets break the match, which is intended — those calls are
        // unresolvable anyway).
        let mut s = i;
        while s > 0 && is_ident(bytes[s - 1]) {
            s -= 1;
        }
        if s == i {
            continue;
        }
        let name = &text[s..i];
        if name.as_bytes()[0].is_ascii_digit() || KEYWORDS.contains(&name) {
            continue;
        }
        // Macros (`name!(…)`) never reach this point: the byte before
        // the `(` is `!`, not an identifier char, so the walk-back
        // finds no name. A `!` *before* the name (`!name(…)`) is a
        // negated call and classifies as Free below.
        match prefix(bytes, text, s) {
            Prefix::Dot(recv_end) => {
                out.push(Call {
                    name: name.to_string(),
                    recv: classify_dot(bytes, text, recv_end),
                    col: s,
                });
            }
            Prefix::PathSep(seg_end) => {
                let mut ps = seg_end;
                while ps > 0 && is_ident(bytes[ps - 1]) {
                    ps -= 1;
                }
                if ps == seg_end {
                    out.push(Call {
                        name: name.to_string(),
                        recv: Recv::Unknown,
                        col: s,
                    });
                } else {
                    out.push(Call {
                        name: name.to_string(),
                        recv: Recv::Path(text[ps..seg_end].to_string()),
                        col: s,
                    });
                }
            }
            Prefix::None => out.push(Call {
                name: name.to_string(),
                recv: Recv::Free,
                col: s,
            }),
            Prefix::NotACall => continue,
        }
    }
    out
}

enum Prefix {
    /// `.name(` — receiver ends at the contained index.
    Dot(usize),
    /// `::name(` — path segment ends at the contained index.
    PathSep(usize),
    /// `fn name(` — a declaration, not a call.
    NotACall,
    /// Plain `name(` (including negated `!name(`).
    None,
}

fn prefix(bytes: &[u8], text: &str, name_start: usize) -> Prefix {
    if name_start == 0 {
        return Prefix::None;
    }
    match bytes[name_start - 1] {
        b'.' => Prefix::Dot(name_start - 1),
        b':' if name_start >= 2 && bytes[name_start - 2] == b':' => Prefix::PathSep(name_start - 2),
        b'!' => Prefix::None,
        _ => {
            // `fn name(` is a declaration, not a call.
            let before = text[..name_start].trim_end();
            if before.ends_with("fn") {
                Prefix::NotACall
            } else {
                Prefix::None
            }
        }
    }
}

/// Classifies the receiver of `<recv>.name(` given the index of the `.`.
fn classify_dot(bytes: &[u8], text: &str, dot: usize) -> Recv {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut s = dot;
    while s > 0 && is_ident(bytes[s - 1]) {
        s -= 1;
    }
    if s == dot {
        return Recv::Unknown; // `).name(`, `].name(`, `".name(` …
    }
    let recv = &text[s..dot];
    if recv == "self" {
        return Recv::SelfDot;
    }
    if s == 0 || bytes[s - 1] != b'.' {
        return Recv::Ident(recv.to_string());
    }
    // `<base>.field.name(` — one more hop back. A longer chain
    // (`a.b.c.name(`) or a tuple index is unresolvable.
    let mut b = s - 1;
    while b > 0 && is_ident(bytes[b - 1]) {
        b -= 1;
    }
    let base = &text[b..s - 1];
    let not_a_name = |w: &str| w.is_empty() || w.starts_with(|c: char| c.is_ascii_digit());
    if (b > 0 && bytes[b - 1] == b'.') || not_a_name(base) || not_a_name(recv) {
        return Recv::Unknown;
    }
    Recv::Field(base.to_string(), recv.to_string())
}

/// `let [mut] <local> = <Type> {` — a local bound to a struct literal,
/// as `(local, Type)`; `Type` may be `Self`, which types the local's
/// fields (rule 2) but resolves none of its own methods.
fn struct_binding(text: &str) -> Option<(&str, &str)> {
    let rest = text.trim_start().strip_prefix("let ")?;
    let (local, rest) = rest
        .strip_prefix("mut ")
        .unwrap_or(rest)
        .split_once(" = ")?;
    let ty = rest.split_once('{')?.0.trim_end();
    let is_ident =
        |w: &str| !w.is_empty() && w.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
    (is_ident(local) && is_ident(ty) && ty.starts_with(|c: char| c.is_ascii_uppercase()))
        .then_some((local, ty))
}

/// Resolution rules 1–5 (see module docs). Returns every plausible
/// callee; an empty vector means "no edge".
fn resolve(
    call: &Call,
    caller: usize,
    table: &SymbolTable,
    methods: &BTreeMap<(&str, &str), Vec<usize>>,
    free: &BTreeMap<&str, Vec<usize>>,
    typed: &BTreeMap<&str, &str>,
    ws: &Workspace,
) -> Vec<usize> {
    let caller_sym = &table.fns[caller];
    let by_owner = |owner: &str| -> Vec<usize> {
        methods
            .get(&(owner, call.name.as_str()))
            .cloned()
            .unwrap_or_default()
    };
    match &call.recv {
        Recv::SelfDot => {
            let Some(owner) = &caller_sym.owner else {
                return Vec::new();
            };
            by_owner(owner)
        }
        Recv::Field(base, field) if base == "self" || typed.contains_key(base.as_str()) => {
            let Some(tokens) = table.field_types.get(field) else {
                return unique_method(table, &call.name);
            };
            let mut out = Vec::new();
            for tok in tokens {
                out.extend(by_owner(tok));
            }
            if out.is_empty() {
                unique_method(table, &call.name)
            } else {
                out
            }
        }
        Recv::Ident(ident) => {
            if let Some(ty) = typed.get(ident.as_str()) {
                let mut out = Vec::new();
                for tok in type_tokens(table.resolve_alias(ty)) {
                    out.extend(by_owner(&tok));
                }
                if !out.is_empty() {
                    return out;
                }
            }
            unique_method(table, &call.name)
        }
        Recv::Field(..) | Recv::Unknown => unique_method(table, &call.name),
        Recv::Path(seg) => {
            let seg = if seg == "Self" {
                caller_sym.owner.as_deref().unwrap_or(seg)
            } else {
                seg
            };
            let owned = by_owner(seg);
            if !owned.is_empty() {
                return owned;
            }
            // `module::func(` — free fns in a file whose stem matches.
            free.get(call.name.as_str())
                .map(|cands| {
                    cands
                        .iter()
                        .copied()
                        .filter(|&i| {
                            let rel = &ws.files[table.fns[i].file_idx].rel;
                            rel.ends_with(&format!("/{seg}.rs"))
                        })
                        .collect()
                })
                .unwrap_or_default()
        }
        Recv::Free => {
            let Some(cands) = free.get(call.name.as_str()) else {
                return Vec::new();
            };
            let same_file: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| table.fns[i].file_idx == caller_sym.file_idx)
                .collect();
            if !same_file.is_empty() {
                return same_file;
            }
            let caller_crate = &ws.files[caller_sym.file_idx].crate_name;
            let same_crate: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| &ws.files[table.fns[i].file_idx].crate_name == caller_crate)
                .collect();
            if same_crate.len() == 1 {
                return same_crate;
            }
            if same_crate.is_empty() && cands.len() == 1 {
                return cands.clone();
            }
            Vec::new()
        }
    }
}

/// Method names shared with std/core types (atomics, iterators,
/// collections, I/O traits). An untyped receiver calling one of these
/// is far more likely to be the std method than the single workspace
/// method that happens to reuse the name — resolving it would fabricate
/// edges like `.load(Ordering::Relaxed)` → `Workspace::load`.
const STD_METHOD_NAMES: &[&str] = &[
    "load", "store", "swap", "take", "get", "set", "push", "pop", "insert", "remove", "clear",
    "len", "max", "min", "sum", "count", "map", "filter", "fold", "iter", "next", "clone", "read",
    "write", "lock", "send", "recv", "join", "flush", "drain", "contains", "split", "find", "add",
    "sub", "new", "default", "from", "into", "parse", "extend", "append", "sort", "reverse",
];

/// Rule 4: an untyped `.name(` resolves only when exactly one method in
/// the workspace bears the name — and the name is not a ubiquitous
/// std method (see [`STD_METHOD_NAMES`]).
fn unique_method(table: &SymbolTable, name: &str) -> Vec<usize> {
    if STD_METHOD_NAMES.contains(&name) {
        return Vec::new();
    }
    let Some(cands) = table.by_name.get(name) else {
        return Vec::new();
    };
    let meths: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| table.fns[i].owner.is_some())
        .collect();
    if meths.len() == 1 {
        meths
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileKind, SourceFile};
    use std::path::PathBuf;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            root: PathBuf::from("."),
            files: files
                .iter()
                .map(|(rel, src)| {
                    let crate_name = rel.split('/').nth(1).unwrap_or("x");
                    SourceFile::from_source(rel, crate_name, FileKind::Lib, src)
                })
                .collect(),
            docs: vec![],
        }
    }

    #[test]
    fn extracts_and_classifies_calls() {
        let calls = extract_calls(
            "self.engine.write(key); helper(1); Wal::open(p); g.read(); this.io.remove(p);",
        );
        assert_eq!(calls.len(), 5);
        assert_eq!(calls[0].recv, Recv::Field("self".into(), "engine".into()));
        assert_eq!(calls[0].name, "write");
        assert_eq!(calls[1].recv, Recv::Free);
        assert_eq!(calls[2].recv, Recv::Path("Wal".into()));
        assert_eq!(calls[3].recv, Recv::Ident("g".into()));
        assert_eq!(calls[4].recv, Recv::Field("this".into(), "io".into()));
    }

    #[test]
    fn declarations_and_keywords_are_not_calls() {
        assert!(extract_calls("pub fn write(&self, k: u64) {").is_empty());
        assert!(extract_calls("if (a + b) > 0 {").is_empty());
        assert!(extract_calls("while (x) {").is_empty());
    }

    #[test]
    fn resolves_self_calls_across_split_impls() {
        let w = ws(&[
            (
                "crates/engine/src/engine.rs",
                "pub struct Engine { io: Arc<SimIo> }\n\
                 impl Engine {\n\
                     pub fn write(&self) { self.flush_inner(); }\n\
                 }\n",
            ),
            (
                "crates/engine/src/read.rs",
                "impl Engine {\n\
                     fn flush_inner(&self) { self.io.append(); }\n\
                 }\n\
                 impl SimIo {\n\
                     pub fn append(&self) {}\n\
                 }\n",
            ),
        ]);
        let table = SymbolTable::build(&w);
        let graph = CallGraph::build(&w, &table);
        let names: Vec<(String, String)> = graph
            .sites
            .iter()
            .map(|s| {
                (
                    table.fns[s.caller].qualified(),
                    table.fns[s.callee].qualified(),
                )
            })
            .collect();
        assert!(names.contains(&("Engine::write".into(), "Engine::flush_inner".into())));
        assert!(names.contains(&("Engine::flush_inner".into(), "SimIo::append".into())));
    }

    #[test]
    fn propagates_flags_transitively_and_finds_chains() {
        let w = ws(&[(
            "crates/x/src/lib.rs",
            "pub fn a() { b(); }\n\
             pub fn b() { c(); }\n\
             pub fn c() { std::fs::read(\"x\"); }\n",
        )]);
        let table = SymbolTable::build(&w);
        let graph = CallGraph::build(&w, &table);
        let c_idx = table.by_name["c"][0];
        let a_idx = table.by_name["a"][0];
        let mut local = vec![0u32; table.fns.len()];
        local[c_idx] = 1;
        let reach = graph.propagate(&local);
        assert_eq!(reach[a_idx], 1);
        let chain = graph.chain_to(a_idx, |f| local[f] != 0).expect("chain");
        assert_eq!(chain.len(), 2);
        assert_eq!(graph.render_chain(&table, a_idx, &chain), "a -> b -> c");
    }

    #[test]
    fn param_typed_receivers_resolve_by_owner() {
        let w = ws(&[(
            "crates/x/src/lib.rs",
            "pub struct Engine;\n\
             impl Engine {\n\
                 pub fn write(&self) {}\n\
                 pub fn read(&self) {}\n\
             }\n\
             pub struct Cache;\n\
             impl Cache {\n\
                 pub fn read(&self) {}\n\
             }\n\
             pub fn drive(engine: &Engine) { engine.read(); }\n",
        )]);
        let table = SymbolTable::build(&w);
        let graph = CallGraph::build(&w, &table);
        // `read` is ambiguous by name (Engine::read, Cache::read) but
        // the parameter type pins it to Engine.
        let pairs: Vec<(String, String)> = graph
            .sites
            .iter()
            .map(|s| {
                (
                    table.fns[s.caller].qualified(),
                    table.fns[s.callee].qualified(),
                )
            })
            .collect();
        assert_eq!(pairs, vec![("drive".into(), "Engine::read".into())]);
    }

    #[test]
    fn ambiguous_untyped_receivers_get_no_edge() {
        let w = ws(&[(
            "crates/x/src/lib.rs",
            "pub struct A;\n\
             impl A { pub fn go(&self) {} }\n\
             pub struct B;\n\
             impl B { pub fn go(&self) {} }\n\
             pub fn drive() { let x = make(); x.go(); }\n",
        )]);
        let table = SymbolTable::build(&w);
        let graph = CallGraph::build(&w, &table);
        assert!(graph.sites.iter().all(|s| table.fns[s.callee].name != "go"));
    }
}
