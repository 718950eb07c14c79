//! dropped-error: no silently discarded `StoreError` / `WriteError` /
//! `io::Error`.
//!
//! A durability bug that never crashes: a WAL append fails, the error
//! is discarded, and the write is acked anyway. This pass flags the
//! three discard shapes —
//!
//! - `let _ = fallible();`
//! - a bare `fallible();` expression statement,
//! - a terminal `.ok();`
//!
//! — whenever the discarded call's return type (transitively, through
//! `type` aliases) wraps one of the configured error types. The call's
//! return type comes from the call graph: the pass looks up every
//! resolved call site inside the statement and checks the callee's
//! declared return type. Std-library sinks the symbol table cannot see
//! (`.write_all(…)` and friends return `io::Result`) are matched
//! textually via `std_error_methods`.
//!
//! Statements that visibly *handle* the result — `?`, `.expect(…)`,
//! `.unwrap…`, `.is_err()` / `.is_ok()`, a `match` — are never flagged.

use std::collections::BTreeMap;

use crate::{Analysis, Config, Finding, Lint, Severity, Workspace};

use super::{contains_token, in_crates, or_default};

/// The pass.
pub struct DroppedError;

const SECTION: &str = "lint.dropped-error";

impl Lint for DroppedError {
    fn id(&self) -> &'static str {
        "dropped-error"
    }

    fn description(&self) -> &'static str {
        "no `let _ =`, bare-statement, or `.ok()` discard of a StoreError/WriteError/io::Error result"
    }

    fn run(&self, ws: &Workspace, cfg: &Config, analysis: &Analysis, out: &mut Vec<Finding>) {
        let crates = cfg.list(SECTION, "crates");
        if crates.is_empty() {
            return;
        }
        let error_tokens = or_default(
            cfg.list(SECTION, "error_tokens"),
            &["StoreError", "WriteError"],
        );
        let error_paths = or_default(
            cfg.list(SECTION, "error_paths"),
            &["io::Result", "io::Error"],
        );
        let std_methods = cfg.list(SECTION, "std_error_methods").to_vec();

        let table = &analysis.symbols;
        // (file_idx, line) -> callee fn indices, from the call graph.
        let mut calls: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for site in &analysis.graph.sites {
            let file_idx = table.fns[site.caller].file_idx;
            calls
                .entry((file_idx, site.line))
                .or_default()
                .push(site.callee);
        }

        for (file_idx, file) in ws.files.iter().enumerate() {
            if !in_crates(file, crates) {
                continue;
            }
            let scan = &file.scan;
            let mut i = 0;
            while i < scan.clean.len() {
                // Skip blank lines (including stripped comments) so the
                // statement anchors on its first code line — that is the
                // line suppressions cover.
                if scan.clean[i].trim().is_empty() {
                    i += 1;
                    continue;
                }
                // Join one statement: lines up to the first that ends in
                // `;`, `{`, or `}` (matching the suppression-coverage
                // rule, so an allow on the statement covers all of it).
                let start = i;
                let mut stmt = String::new();
                let mut end = start;
                for (j, l) in scan.clean.iter().enumerate().skip(start) {
                    end = j;
                    stmt.push_str(l.trim());
                    stmt.push(' ');
                    let t = l.trim_end();
                    if t.ends_with(';') || t.ends_with('{') || t.ends_with('}') {
                        break;
                    }
                }
                i = end + 1;
                let line = start + 1;
                if !file.is_prod_line(line) {
                    continue;
                }
                let stmt = stmt.trim();
                if stmt.is_empty() {
                    continue;
                }
                let Some(kind) = discard_kind(stmt) else {
                    continue;
                };
                if handles_result(stmt) {
                    continue;
                }

                // Which discarded call carries an error type?
                let mut culprit: Option<String> = None;
                'lines: for l in start..=end {
                    for &callee in calls.get(&(file_idx, l + 1)).into_iter().flatten() {
                        let sym = &table.fns[callee];
                        if ret_carries_error(&sym.ret, table, &error_tokens, &error_paths) {
                            culprit = Some(format!("`{}` returns `{}`", sym.qualified(), sym.ret));
                            break 'lines;
                        }
                    }
                }
                if culprit.is_none() {
                    if let Some(m) = std_methods.iter().find(|m| stmt.contains(m.as_str())) {
                        culprit = Some(format!(
                            "`{}…)` returns `io::Result`",
                            m.trim_end_matches('(')
                        ));
                    }
                }
                let Some(culprit) = culprit else {
                    continue;
                };
                out.push(Finding {
                    file: file.rel.clone(),
                    line,
                    lint: self.id(),
                    severity: Severity::Deny,
                    message: format!("error-carrying result discarded via {kind} — {culprit}"),
                });
            }
        }
    }
}

/// Classifies a joined statement as one of the discard shapes.
fn discard_kind(stmt: &str) -> Option<&'static str> {
    if stmt.starts_with("let _ =") {
        return Some("`let _ =`");
    }
    // Everything below is an *expression statement* discard; a binding
    // (`let x = …`), an assignment, or control flow keeps the value.
    if !stmt.ends_with(';') || stmt.starts_with("let ") {
        return None;
    }
    let first: String = stmt
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    const NOT_A_DISCARD: &[&str] = &[
        "return",
        "break",
        "continue",
        "use",
        "pub",
        "mod",
        "const",
        "static",
        "type",
        "fn",
        "impl",
        "struct",
        "enum",
        "trait",
        "where",
        "else",
        "match",
        "if",
        "while",
        "for",
        "loop",
        "assert",
        "debug_assert",
        "panic",
        "unreachable",
        "macro_rules",
    ];
    if first.is_empty() || NOT_A_DISCARD.contains(&first.as_str()) {
        return None;
    }
    if has_top_level_assign(stmt) {
        return None;
    }
    if stmt.ends_with(".ok();") {
        return Some("a terminal `.ok()`");
    }
    Some("a bare `;` statement")
}

/// Whether the statement visibly consumes or checks the result.
fn handles_result(stmt: &str) -> bool {
    stmt.contains('?')
        || stmt.contains(".expect(")
        || stmt.contains(".unwrap")
        || stmt.contains(".is_err(")
        || stmt.contains(".is_ok(")
        || stmt.contains("match ")
}

/// Detects a top-level `=` assignment (not `==`, `!=`, `<=`, `>=`,
/// `=>`, and not inside parens/brackets where it would be a named
/// argument or a closure default).
fn has_top_level_assign(stmt: &str) -> bool {
    let bytes = stmt.as_bytes();
    let mut depth = 0i32;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'=' if depth == 0 => {
                let prev = if i > 0 { bytes[i - 1] } else { b' ' };
                let next = bytes.get(i + 1).copied().unwrap_or(b' ');
                if prev != b'='
                    && prev != b'!'
                    && prev != b'<'
                    && prev != b'>'
                    && next != b'='
                    && next != b'>'
                {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// Whether a declared return type wraps one of the error types, looking
/// through one level of `type` aliases.
fn ret_carries_error(
    ret: &str,
    table: &crate::symbols::SymbolTable,
    error_tokens: &[String],
    error_paths: &[String],
) -> bool {
    if text_carries_error(ret, error_tokens, error_paths) {
        return true;
    }
    for tok in crate::symbols::type_tokens(ret) {
        let resolved = table.resolve_alias(&tok);
        if resolved != tok && text_carries_error(resolved, error_tokens, error_paths) {
            return true;
        }
    }
    false
}

fn text_carries_error(ty: &str, error_tokens: &[String], error_paths: &[String]) -> bool {
    error_tokens.iter().any(|t| contains_token(ty, t))
        || error_paths.iter().any(|p| ty.contains(p.as_str()))
}
