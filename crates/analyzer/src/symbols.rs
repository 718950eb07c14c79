//! A workspace symbol table built on the lexer's clean-line view.
//!
//! The interprocedural passes (lock-order, dropped-error,
//! blocking-in-worker) need to know *what functions exist* and *what
//! they return* before a call graph can be built over them. This module
//! extracts, per file:
//!
//! - every `fn` with its name, enclosing `impl`/`trait` type, signature
//!   text, parsed parameter types, return-type text, and body line span;
//! - struct fields (`name: Type`) so a call's receiver can be resolved
//!   by type (`self.engine.write(…)` → `StorageEngine::write`);
//! - `type X = …;` aliases so `StoreResult<T>` resolves to the
//!   `Result<T, StoreError>` it abbreviates.
//!
//! Everything is textual: there is no type inference, no generics
//! substitution, no trait solving. The resolution rules in
//! [`callgraph`](crate::callgraph) are written to stay *useful* under
//! that limit — the known soundness gaps are documented in DESIGN.md
//! §13.

use std::collections::{BTreeMap, BTreeSet};

use crate::passes::find_word;
use crate::Workspace;

/// One function (or trait-method declaration) in the workspace.
#[derive(Debug)]
pub struct FnSym {
    /// Index into [`Workspace::files`].
    pub file_idx: usize,
    /// The bare function name.
    pub name: String,
    /// Enclosing `impl` / `trait` type name, if any.
    pub owner: Option<String>,
    /// Whether the first parameter is some form of `self`.
    pub is_method: bool,
    /// Full signature text (joined lines, `fn` through `{` or `;`).
    pub sig: String,
    /// `(param name, param type text)` pairs, `self` excluded.
    pub params: Vec<(String, String)>,
    /// Return-type text after `->` (empty for `()`).
    pub ret: String,
    /// 1-based line of the `fn` keyword.
    pub decl_line: usize,
    /// 1-based body span (first line after `{` … line of closing `}`),
    /// or `None` for a body-less trait declaration.
    pub body: Option<(usize, usize)>,
}

impl FnSym {
    /// `Owner::name` when owned, else the bare name.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace-wide symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every function, in (file, line) order.
    pub fns: Vec<FnSym>,
    /// Struct/enum field name → set of type *tokens* its declared types
    /// mention (`engine: Arc<StorageEngine>` contributes
    /// `engine → {Arc, StorageEngine}`). Collated across all structs:
    /// a field name shared by two structs maps to the union.
    pub field_types: BTreeMap<String, BTreeSet<String>>,
    /// `type X = Rhs;` aliases, `X` → rhs text.
    pub type_aliases: BTreeMap<String, String>,
    /// fn name → indices into `fns` (all functions sharing the name).
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolTable {
    /// Builds the table over every scanned file.
    pub fn build(ws: &Workspace) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (file_idx, file) in ws.files.iter().enumerate() {
            collect_file(file_idx, &file.scan, &mut table);
        }
        for (i, f) in table.fns.iter().enumerate() {
            table.by_name.entry(f.name.clone()).or_default().push(i);
        }
        table
    }

    /// Resolves a type-alias chain (bounded, cycles tolerated): the
    /// final rhs text, or `name` itself when it is not an alias.
    pub fn resolve_alias<'a>(&'a self, name: &'a str) -> &'a str {
        let mut cur = name;
        for _ in 0..4 {
            match self.type_aliases.get(cur) {
                Some(rhs) => cur = rhs,
                None => break,
            }
        }
        cur
    }

    /// The function whose body contains `(file_idx, line)`, if any —
    /// innermost wins for nested fns.
    pub fn enclosing_fn(&self, file_idx: usize, line: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, f) in self.fns.iter().enumerate() {
            if f.file_idx != file_idx {
                continue;
            }
            let Some((lo, hi)) = f.body else { continue };
            if (lo..=hi).contains(&line)
                && best.is_none_or(|b| {
                    let (blo, _) = self.fns[b].body.unwrap_or((0, 0));
                    lo >= blo
                })
            {
                best = Some(i);
            }
        }
        best
    }
}

/// Context being accumulated while walking one file.
struct FileWalk {
    /// Open `impl`/`trait` blocks: (type name, depth of their body).
    owners: Vec<(String, usize)>,
    /// Open `struct` body depth (fields being collected).
    struct_depth: Option<usize>,
    /// A multi-line header being accumulated (starts with `impl`,
    /// `trait`, `struct`, or `fn`), plus its start line.
    header: Option<(String, usize)>,
    /// Open fn bodies: (index into `fns`, body depth).
    open_fns: Vec<(usize, usize)>,
}

fn collect_file(file_idx: usize, scan: &crate::lexer::Scanned, table: &mut SymbolTable) {
    let mut walk = FileWalk {
        owners: Vec::new(),
        struct_depth: None,
        header: None,
        open_fns: Vec::new(),
    };
    for (i, text) in scan.clean.iter().enumerate() {
        let line = i + 1;
        let depth = scan.depth_at_start[i];

        // Close scopes that ended before this line.
        walk.owners.retain(|(_, d)| depth >= *d);
        if walk.struct_depth.is_some_and(|d| depth < d) {
            walk.struct_depth = None;
        }
        while let Some(&(fn_idx, d)) = walk.open_fns.last() {
            if depth < d {
                // The body closed on the previous line (the line whose
                // `}` dropped the depth) — record it.
                if let Some((lo, _)) = table.fns[fn_idx].body {
                    table.fns[fn_idx].body = Some((lo, line.saturating_sub(1).max(lo)));
                }
                walk.open_fns.pop();
            } else {
                break;
            }
        }

        // Accumulating a header?
        if let Some((acc, _)) = &mut walk.header {
            acc.push(' ');
            acc.push_str(text);
            let opens = text.contains('{');
            let ends = !opens && text.trim_end().ends_with(';');
            if opens || ends {
                let (acc, start_line) = walk.header.take().expect("header present");
                finish_header(&acc, start_line, line, depth, &mut walk, table, file_idx);
            }
            continue;
        }

        // Struct fields.
        if walk.struct_depth.is_some_and(|d| depth >= d) {
            collect_field(text, table);
        }

        // Type aliases (single-line; the codebase never wraps them).
        if let Some(idx) = find_word(text, "type ", 0) {
            // Skip associated-type bounds in where clauses etc.: require
            // `=` and `;` on the line.
            let rest = &text[idx + 5..];
            if let Some((name_part, rhs)) = rest.split_once('=') {
                if rhs.contains(';') {
                    let name: String = name_part
                        .trim()
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    let rhs = rhs.split(';').next().unwrap_or("").trim().to_string();
                    if !name.is_empty() && !rhs.is_empty() {
                        table.type_aliases.insert(name, rhs);
                    }
                }
            }
        }

        // New header?
        if let Some(start) = header_start(text) {
            let acc = text[start..].to_string();
            let opens = acc.contains('{');
            let ends = !opens && acc.trim_end().ends_with(';');
            if opens || ends {
                finish_header(&acc, line, line, depth, &mut walk, table, file_idx);
            } else {
                walk.header = Some((acc, line));
            }
        }
    }
    // Close anything still open at EOF.
    let eof = scan.clean.len();
    while let Some((fn_idx, _)) = walk.open_fns.pop() {
        if let Some((lo, _)) = table.fns[fn_idx].body {
            table.fns[fn_idx].body = Some((lo, eof.max(lo)));
        }
    }
}

/// Whether a clean line begins a header we track, returning the offset
/// of the keyword. `fn` wins over `impl`/`trait`/`struct` appearing
/// later in the same line.
fn header_start(text: &str) -> Option<usize> {
    let mut best: Option<usize> = None;
    for kw in ["fn ", "impl ", "impl<", "trait ", "struct "] {
        if let Some(idx) = find_word(text, kw, 0) {
            // `struct` inside an expression (`Foo { struct … }`) does
            // not happen; `fn` inside a type (`fn(` pointer) does —
            // require a name char after `fn `.
            if kw == "fn " {
                let after = text[idx + 3..].trim_start();
                if !after.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
                    continue;
                }
            }
            best = Some(best.map_or(idx, |b: usize| b.min(idx)));
        }
    }
    best
}

/// Finishes an accumulated header: classify it and update the walk.
#[allow(clippy::too_many_arguments)]
fn finish_header(
    acc: &str,
    start_line: usize,
    cur_line: usize,
    cur_depth: usize,
    walk: &mut FileWalk,
    table: &mut SymbolTable,
    file_idx: usize,
) {
    let opens = acc.contains('{');
    // Depth of the body the header opens: the `{` is on `cur_line`, so
    // the body proper starts at cur_depth + 1 (plus any braces earlier
    // on the line, which headers don't have).
    let body_depth = cur_depth + 1;
    let head = acc.split('{').next().unwrap_or(acc);

    if let Some(idx) = find_word(head, "fn ", 0) {
        let name: String = head[idx + 3..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            return;
        }
        let owner = walk.owners.last().map(|(o, _)| o.clone());
        let (params, is_method) = parse_params(head);
        let ret = parse_ret(head);
        let fn_idx = table.fns.len();
        table.fns.push(FnSym {
            file_idx,
            name,
            owner,
            is_method,
            sig: head.trim().to_string(),
            params,
            ret,
            decl_line: start_line,
            body: opens.then_some((cur_line, cur_line)),
        });
        if opens {
            walk.open_fns.push((fn_idx, body_depth));
        }
        return;
    }

    if !opens {
        return;
    }
    if find_word(head, "struct ", 0).is_some() {
        // Inline body (`struct Engine { io: Arc<SimIo> }`): the whole
        // declaration sits on the header line, so its fields never show
        // up as subsequent lines — collect them here.
        match (acc.find('{'), acc.rfind('}')) {
            (Some(lo), Some(hi)) if lo < hi => {
                for field in split_params(&acc[lo + 1..hi]) {
                    collect_field(field, table);
                }
            }
            _ => walk.struct_depth = Some(body_depth),
        }
        return;
    }
    // impl / trait: extract the type name the block owns. For
    // `impl<T> Trait for Type<T>` the owner is `Type`; for
    // `impl Type` it is `Type`; for `trait Name` it is `Name`.
    let ty = impl_owner(head);
    if let Some(ty) = ty {
        walk.owners.push((ty, body_depth));
    }
}

/// The owning type of an `impl`/`trait` header.
fn impl_owner(head: &str) -> Option<String> {
    let after = if let Some(idx) = find_word(head, "trait ", 0) {
        &head[idx + 6..]
    } else {
        let idx = head.find("impl")?;
        let mut rest = &head[idx + 4..];
        // Skip the generics list, tracking nesting.
        if rest.trim_start().starts_with('<') {
            let mut depth = 0i32;
            let mut cut = rest.len();
            for (i, c) in rest.char_indices() {
                match c {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            cut = i + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            rest = &rest[cut..];
        }
        // `impl Trait for Type` → the part after `for `.
        if let Some(idx) = find_word(rest, "for ", 0) {
            rest = &rest[idx + 4..];
        }
        rest
    };
    let name: String = after
        .trim_start()
        .trim_start_matches("dyn ")
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Splits the parenthesized parameter list of a signature into
/// `(name, type)` pairs; reports whether the first param is `self`.
fn parse_params(head: &str) -> (Vec<(String, String)>, bool) {
    let Some(open) = head.find('(') else {
        return (Vec::new(), false);
    };
    let mut depth = 0i32;
    let mut close = head.len();
    for (i, c) in head[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    close = open + i;
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &head[open + 1..close.min(head.len())];
    let mut params = Vec::new();
    let mut is_method = false;
    for (i, part) in split_params(body).into_iter().enumerate() {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let bare = part.trim_start_matches('&');
        let bare = bare
            .trim_start_matches("'static ")
            .trim_start_matches("mut ");
        // A lifetime like `'a ` before `self`/a name.
        let bare = match bare.strip_prefix('\'') {
            Some(rest) => rest.split_once(' ').map_or("", |(_, r)| r).trim_start(),
            None => bare,
        };
        let bare = bare.trim_start_matches("mut ");
        if i == 0 && (bare == "self" || bare.starts_with("self:") || bare.starts_with("self ")) {
            is_method = true;
            continue;
        }
        if let Some((name, ty)) = part.split_once(':') {
            let name = name.trim().trim_start_matches("mut ").trim();
            if name.chars().all(|c| c.is_alphanumeric() || c == '_') && !name.is_empty() {
                params.push((name.to_string(), ty.trim().to_string()));
            }
        }
    }
    (params, is_method)
}

/// Splits a parameter list on commas outside `<…>`, `(…)`, `[…]`.
fn split_params(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in body.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth <= 0 => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&body[start..]);
    out
}

/// Return-type text after `->`, stopping at `where` or `{`.
fn parse_ret(head: &str) -> String {
    let Some(idx) = head.find("->") else {
        return String::new();
    };
    let rest = &head[idx + 2..];
    let rest = match find_word(rest, "where ", 0) {
        Some(w) => &rest[..w],
        None => rest,
    };
    rest.split('{')
        .next()
        .unwrap_or("")
        .trim()
        .trim_end_matches(';')
        .trim_end()
        .to_string()
}

/// Collects `name: Type,` struct fields into the field-type map.
fn collect_field(text: &str, table: &mut SymbolTable) {
    let t = text.trim();
    let t = t.strip_prefix("pub(crate) ").unwrap_or(t);
    let t = t.strip_prefix("pub ").unwrap_or(t);
    let Some((name, ty)) = t.split_once(':') else {
        return;
    };
    let name = name.trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return;
    }
    // Skip things that are clearly not field declarations (match arms,
    // struct literals in consts…): the type must start the rest.
    let ty = ty.trim().trim_end_matches(',');
    if ty.is_empty() || ty.contains('{') {
        return;
    }
    let entry = table.field_types.entry(name.to_string()).or_default();
    for tok in type_tokens(ty) {
        entry.insert(tok);
    }
}

/// Capitalized identifier tokens of a type string: the candidates a
/// receiver of that type may be an instance of.
/// `Arc<Mutex<StorageEngine>>` → `{Arc, Mutex, StorageEngine}`.
pub fn type_tokens(ty: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in ty.chars().chain([' ']) {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else if !cur.is_empty() {
            if cur.chars().next().is_some_and(|c| c.is_uppercase()) {
                out.push(std::mem::take(&mut cur));
            } else {
                cur.clear();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileKind, SourceFile};
    use std::path::PathBuf;

    fn ws(src: &str) -> Workspace {
        Workspace {
            root: PathBuf::from("."),
            files: vec![SourceFile::from_source(
                "crates/x/src/lib.rs",
                "x",
                FileKind::Lib,
                src,
            )],
            docs: vec![],
        }
    }

    #[test]
    fn collects_fns_with_owners_params_and_bodies() {
        let src = "\
pub struct Engine {
    pub io: Arc<SimIo>,
    flusher: FlushPool,
}

pub type StoreResult<T> = Result<T, StoreError>;

impl Engine {
    pub fn write(&self, key: &SeriesKey, t: i64) -> StoreResult<()> {
        self.append(key, t)
    }

    fn append(
        &self,
        key: &SeriesKey,
        t: i64,
    ) -> Result<(), StoreError> {
        Ok(())
    }
}

pub fn free_helper(engine: &Engine) {
    engine.write(&k, 0);
}
";
        let table = SymbolTable::build(&ws(src));
        assert_eq!(table.fns.len(), 3);
        let write = &table.fns[0];
        assert_eq!(write.qualified(), "Engine::write");
        assert!(write.is_method);
        assert_eq!(write.ret, "StoreResult<()>");
        assert_eq!(write.params[0].0, "key");
        assert_eq!(write.body, Some((9, 11)));
        let append = &table.fns[1];
        assert_eq!(append.owner.as_deref(), Some("Engine"));
        assert_eq!(append.ret, "Result<(), StoreError>");
        assert_eq!(append.params.len(), 2);
        let free = &table.fns[2];
        assert_eq!(free.owner, None);
        assert!(!free.is_method);
        assert_eq!(
            table.field_types.get("io").map(|s| s.contains("SimIo")),
            Some(true)
        );
        assert_eq!(table.resolve_alias("StoreResult"), "Result<T, StoreError>");
        assert_eq!(table.enclosing_fn(0, 10), Some(0));
        assert_eq!(table.enclosing_fn(0, 23), Some(2));
    }

    #[test]
    fn impl_trait_for_type_owns_by_type() {
        let src = "\
impl<T: Clone> Io for SimIo<T> {
    fn read(&self) -> io::Result<Vec<u8>> { Ok(vec![]) }
}
trait Io {
    fn read(&self) -> io::Result<Vec<u8>>;
}
";
        let table = SymbolTable::build(&ws(src));
        assert_eq!(table.fns.len(), 2);
        assert_eq!(table.fns[0].qualified(), "SimIo::read");
        assert_eq!(table.fns[1].qualified(), "Io::read");
        assert_eq!(table.fns[1].body, None);
        assert_eq!(table.by_name.get("read").map(|v| v.len()), Some(2));
    }
}
