//! The built-in lint passes.

pub mod atomic_ordering;
pub mod blocking_in_worker;
pub mod catalog_sync;
pub mod doc_drift;
pub mod dropped_error;
pub mod lock_order;
pub mod lock_scope;
pub mod panic_freedom;

use crate::SourceFile;

/// Whether `file` belongs to one of the crates named in `crates` (an
/// empty list means "no files" — every pass must be scoped explicitly).
pub(crate) fn in_crates(file: &SourceFile, crates: &[String]) -> bool {
    crates.iter().any(|c| c == &file.crate_name)
}

/// Finds `needle` in `hay` at a word boundary (the char before the
/// match, if any, is not an identifier char).
pub(crate) fn find_word(hay: &str, needle: &str, from: usize) -> Option<usize> {
    let mut start = from;
    while let Some(rel) = hay.get(start..).and_then(|h| h.find(needle)) {
        let idx = start + rel;
        let prev_ok = idx == 0
            || !hay[..idx]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if prev_ok {
            return Some(idx);
        }
        start = idx + needle.len();
    }
    None
}

/// A configured list, or the pass's built-in default when unset.
pub(crate) fn or_default(configured: &[String], default: &[&str]) -> Vec<String> {
    if configured.is_empty() {
        default.iter().map(|s| s.to_string()).collect()
    } else {
        configured.to_vec()
    }
}

/// `let mut st = ...` / `let st = ...` → `st`.
pub(crate) fn binding_name(text: &str) -> Option<String> {
    let idx = find_word(text, "let ", 0)?;
    let rest = text[idx + 4..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    let after = rest[name.len()..].trim_start();
    if name.is_empty() || !after.starts_with('=') {
        return None;
    }
    Some(name)
}

/// `let st = loop {` → `st`, which a `break g` in the loop hands the live
/// guard `g`: the guard-tracking passes keep it live under `st`.
pub(crate) fn loop_binding(text: &str) -> Option<String> {
    let rest = text.split_once('=')?.1.trim_start();
    binding_name(text).filter(|_| rest.starts_with("loop"))
}

/// `break g;` → `g`.
pub(crate) fn broken_name(text: &str) -> Option<&str> {
    let rest = text[find_word(text, "break ", 0)? + 6..].trim_start();
    rest.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .next()
}

/// Whether the identifier `ident` occurs as a full token in `hay`
/// (word-bounded on both sides).
pub(crate) fn contains_token(hay: &str, ident: &str) -> bool {
    let mut from = 0;
    while let Some(idx) = find_word(hay, ident, from) {
        let end = idx + ident.len();
        let next_ok = !hay[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if next_ok {
            return true;
        }
        from = end;
    }
    false
}
