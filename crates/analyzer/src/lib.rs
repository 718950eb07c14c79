//! backsort-analyzer: a workspace lint engine that statically enforces
//! the repo's concurrency, catalog, and panic-safety invariants.
//!
//! The invariants PRs 1–4 established — "at most one shard lock held at
//! a time", "every metric/failpoint name comes from its catalog",
//! "production crates don't panic", "atomics use acquire/release, never
//! SeqCst" — lived in prose and runtime checks. This crate turns them
//! into a compiler-adjacent gate: a hand-rolled lexer (`lexer`), a tiny
//! config format (`config`), and five pluggable passes (`passes`) that
//! run over the workspace source ahead of execution.
//!
//! Run it as `cargo run -p backsort-analyzer -- check [--json]
//! [--deny]`, or call [`check_workspace`] as a library (the crate's own
//! `tests/self_check.rs` runs it over this workspace).

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod passes;
pub mod symbols;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub use config::Config;
use lexer::Scanned;

/// How seriously a finding is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, does not fail the run (unless `--deny` promotes it).
    Warn,
    /// Fails the run.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// One lint finding: `file:line: [lint] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The lint pass id.
    pub lint: &'static str,
    /// Severity after config is applied.
    pub severity: Severity,
    /// Human message.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} ({})",
            self.file, self.line, self.lint, self.message, self.severity
        )
    }
}

/// What kind of source a file is — lint passes exempt tests, benches,
/// and bins from invariants that only bind library code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source under `src/`.
    Lib,
    /// `src/bin/*`, `src/main.rs`, `examples/`.
    Bin,
    /// Integration tests under `tests/`.
    Test,
    /// Benchmarks under `benches/`.
    Bench,
}

/// One scanned source file.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Owning crate's package name (e.g. `backsort-engine`).
    pub crate_name: String,
    /// Classification.
    pub kind: FileKind,
    /// Lexer output.
    pub scan: Scanned,
}

impl SourceFile {
    /// Builds a file from source text (the fixture harness uses this to
    /// lint snippets without touching disk).
    pub fn from_source(rel: &str, crate_name: &str, kind: FileKind, text: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            scan: lexer::scan(text),
        }
    }

    /// Whether `line` (1-based) is production library code: not a test
    /// region, not a test/bench/bin file.
    pub fn is_prod_line(&self, line: usize) -> bool {
        self.kind == FileKind::Lib && !self.scan.in_test.get(line - 1).copied().unwrap_or(false)
    }
}

/// A documentation file (DESIGN.md, README.md) for the doc-drift pass.
pub struct DocFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Raw text.
    pub text: String,
}

/// The analyzer's view of the workspace.
pub struct Workspace {
    /// Workspace root (where `analyzer.toml` lives).
    pub root: PathBuf,
    /// Every scanned `.rs` file.
    pub files: Vec<SourceFile>,
    /// Documentation files.
    pub docs: Vec<DocFile>,
}

impl Workspace {
    /// Loads the workspace under `root`: every crate under `crates/*`
    /// (package name read from its `Cargo.toml`), minus the directories
    /// excluded by `[workspace] exclude` in the config.
    pub fn load(root: &Path, cfg: &Config) -> Result<Workspace, String> {
        let mut files = Vec::new();
        let excludes: Vec<&String> = cfg.list("workspace", "exclude").iter().collect();
        let crates_dir = root.join("crates");
        let entries = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
        let mut crate_dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        // The workspace root is itself a package (the SQL/server layer).
        crate_dirs.insert(0, root.to_path_buf());
        for dir in crate_dirs {
            let manifest = dir.join("Cargo.toml");
            let Ok(text) = std::fs::read_to_string(&manifest) else {
                continue;
            };
            let crate_name = package_name(&text).unwrap_or_else(|| {
                dir.file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default()
            });
            for (sub, kind) in [
                ("src", FileKind::Lib),
                ("tests", FileKind::Test),
                ("benches", FileKind::Bench),
                ("examples", FileKind::Bin),
            ] {
                let base = dir.join(sub);
                if base.is_dir() {
                    walk_rs(&base, &mut |path| {
                        let rel = rel_path(root, path);
                        if excludes.iter().any(|ex| rel.starts_with(ex.as_str())) {
                            return Ok(());
                        }
                        let kind = match kind {
                            FileKind::Lib
                                if rel.contains("/src/bin/") || rel.ends_with("/src/main.rs") =>
                            {
                                FileKind::Bin
                            }
                            k => k,
                        };
                        let text = std::fs::read_to_string(path)
                            .map_err(|e| format!("reading {rel}: {e}"))?;
                        files.push(SourceFile::from_source(&rel, &crate_name, kind, &text));
                        Ok(())
                    })?;
                }
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));

        let mut docs = Vec::new();
        for name in cfg.list("workspace", "docs") {
            let path = root.join(name);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("reading doc {name}: {e}"))?;
            docs.push(DocFile {
                rel: name.clone(),
                text,
            });
        }
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            docs,
        })
    }

    /// The file at a workspace-relative path, if scanned.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn walk_rs(dir: &Path, f: &mut dyn FnMut(&Path) -> Result<(), String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_rs(&path, f)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            f(&path)?;
        }
    }
    Ok(())
}

/// Extracts `name = "..."` from a `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// The interprocedural view of the workspace: the symbol table and the
/// call graph built over it. Constructed once per [`check_workspace`]
/// run and shared by every pass — the lexical passes ignore it, the
/// interprocedural ones (lock-order, dropped-error, blocking-in-worker)
/// propagate facts over it.
pub struct Analysis {
    /// Every function, struct field, and type alias in the workspace.
    pub symbols: symbols::SymbolTable,
    /// Resolved call sites between those functions.
    pub graph: callgraph::CallGraph,
}

impl Analysis {
    /// Builds the symbol table and call graph for `ws`.
    pub fn build(ws: &Workspace) -> Analysis {
        let symbols = symbols::SymbolTable::build(ws);
        let graph = callgraph::CallGraph::build(ws, &symbols);
        Analysis { symbols, graph }
    }
}

/// A lint pass.
pub trait Lint {
    /// Stable id used in config sections, findings, and suppressions.
    fn id(&self) -> &'static str;
    /// One-line description of the enforced invariant.
    fn description(&self) -> &'static str;
    /// Runs the pass, pushing raw findings (severity is filled in by the
    /// driver from config).
    fn run(&self, ws: &Workspace, cfg: &Config, analysis: &Analysis, out: &mut Vec<Finding>);
}

/// All built-in passes, in reporting order.
pub fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(passes::lock_scope::LockScope),
        Box::new(passes::lock_order::LockOrder),
        Box::new(passes::dropped_error::DroppedError),
        Box::new(passes::blocking_in_worker::BlockingInWorker),
        Box::new(passes::catalog_sync::CatalogSync),
        Box::new(passes::panic_freedom::PanicFreedom),
        Box::new(passes::atomic_ordering::AtomicOrdering),
        Box::new(passes::doc_drift::DocDrift),
    ]
}

/// Lint id reserved for problems with suppression comments themselves.
pub const SUPPRESSION_LINT: &str = "suppression";

/// Options for a check run.
#[derive(Debug, Default, Clone)]
pub struct CheckOptions {
    /// Promote every finding to `Deny`.
    pub deny: bool,
    /// Lint ids disabled from the command line.
    pub allow: Vec<String>,
    /// Restrict the run to these lint ids (empty = all). Suppression
    /// hygiene is always checked.
    pub only: Vec<String>,
}

/// Runs the configured lint passes over an already-loaded workspace.
///
/// Whether a suppression at `sup_line` covers a finding at `f_line`. A
/// trailing comment covers its own line. A comment on its own line
/// covers the next statement: from the first following code line
/// through the line whose code ends in `;`, `{`, or `}` — so wrapped
/// statements stay covered regardless of formatting.
fn suppression_covers(scan: &lexer::Scanned, sup_line: usize, f_line: usize) -> bool {
    if sup_line == f_line {
        return true;
    }
    let idx = sup_line.saturating_sub(1);
    let has_code = |l: &String| !l.trim().is_empty();
    if scan.clean.get(idx).is_some_and(has_code) {
        return false; // trailing comment: own line only
    }
    let Some(start) = scan
        .clean
        .iter()
        .enumerate()
        .skip(idx + 1)
        .find(|(_, l)| has_code(l))
        .map(|(i, _)| i)
    else {
        return false;
    };
    let mut end = start;
    for (i, l) in scan.clean.iter().enumerate().skip(start) {
        end = i;
        let t = l.trim_end();
        if t.ends_with(';') || t.ends_with('{') || t.ends_with('}') {
            break;
        }
    }
    (start + 1..=end + 1).contains(&f_line)
}

/// Inline `// analyzer:allow(<id>): <why>` comments suppress findings of
/// that lint on the same line (trailing comment) or, for a comment on
/// its own line, on the next line that contains code; an allow with no
/// justification is itself reported under [`SUPPRESSION_LINT`].
pub fn check_workspace(ws: &Workspace, cfg: &Config, opts: &CheckOptions) -> Vec<Finding> {
    let analysis = Analysis::build(ws);
    let mut findings = Vec::new();
    for lint in all_lints() {
        let id = lint.id();
        let section = format!("lint.{id}");
        if !cfg.bool_or(&section, "enabled", true) {
            continue;
        }
        if opts.allow.iter().any(|a| a == id) {
            continue;
        }
        if !opts.only.is_empty() && !opts.only.iter().any(|o| o == id) {
            continue;
        }
        let severity = match cfg.str(&section, "severity") {
            Some("warn") => Severity::Warn,
            _ => Severity::Deny,
        };
        let mut raw = Vec::new();
        lint.run(ws, cfg, &analysis, &mut raw);
        for mut f in raw {
            f.severity = if opts.deny { Severity::Deny } else { severity };
            findings.push(f);
        }
    }

    // Apply inline suppressions, and report unjustified or unused ones.
    let mut used: Vec<(String, usize)> = Vec::new();
    findings.retain(|f| {
        let Some(file) = ws.file(&f.file) else {
            return true;
        };
        let hit = file.scan.suppressions.iter().find(|s| {
            s.lint == f.lint
                && !s.justification.is_empty()
                && suppression_covers(&file.scan, s.line, f.line)
        });
        if let Some(s) = hit {
            used.push((f.file.clone(), s.line));
            false
        } else {
            true
        }
    });
    // Suppression hygiene only makes sense when every pass ran — a
    // restricted run (`--allow`, library `only`) would see legitimate
    // allows as unused.
    let full_run = opts.only.is_empty() && opts.allow.is_empty();
    for file in ws.files.iter().filter(|_| full_run) {
        for s in &file.scan.suppressions {
            if s.justification.is_empty() {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: s.line,
                    lint: SUPPRESSION_LINT,
                    severity: Severity::Deny,
                    message: format!(
                        "analyzer:allow({}) without a justification — write `// analyzer:allow({}): <why>`",
                        s.lint, s.lint
                    ),
                });
            } else if !used.iter().any(|(f, l)| f == &file.rel && *l == s.line) {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: s.line,
                    lint: SUPPRESSION_LINT,
                    severity: Severity::Deny,
                    message: format!(
                        "unused analyzer:allow({}) — the suppressed finding no longer fires here",
                        s.lint
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    findings
}

/// Loads config + workspace from `root` and runs the passes.
pub fn check_root(root: &Path, opts: &CheckOptions) -> Result<Vec<Finding>, String> {
    let cfg_path = root.join("analyzer.toml");
    let text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("reading {}: {e}", cfg_path.display()))?;
    let cfg = Config::parse(&text)?;
    let ws = Workspace::load(root, &cfg)?;
    Ok(check_workspace(&ws, &cfg, opts))
}

/// Finds the workspace root by walking up from `start` looking for
/// `analyzer.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = if start.is_dir() {
        start.to_path_buf()
    } else {
        start.parent()?.to_path_buf()
    };
    loop {
        if dir.join("analyzer.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Renders findings as a stable JSON document (hand-rolled — the
/// analyzer has no serde).
pub fn render_json(findings: &[Finding]) -> String {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for f in findings {
        *counts.entry(f.lint).or_insert(0) += 1;
    }
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"file\": {}, \"line\": {}, \"lint\": {}, \"severity\": {}, \"message\": {}}}{}\n",
            json_str(&f.file),
            f.line,
            json_str(f.lint),
            json_str(&f.severity.to_string()),
            json_str(&f.message),
            if i + 1 == findings.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"counts\": {");
    let mut first = true;
    for (lint, n) in &counts {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("{}: {n}", json_str(lint)));
    }
    out.push_str(&format!(
        "}},\n  \"total\": {},\n  \"ok\": {}\n}}\n",
        findings.len(),
        findings.is_empty()
    ));
    out
}

/// Renders findings as a minimal SARIF 2.1.0 log — one run, one rule
/// per lint pass, one result per finding — so CI can publish the
/// report where code-scanning UIs pick it up. `Deny` maps to `error`,
/// `Warn` to `warning`.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::from(concat!(
        "{\n",
        "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n",
        "  \"version\": \"2.1.0\",\n",
        "  \"runs\": [\n",
        "    {\n",
        "      \"tool\": {\n",
        "        \"driver\": {\n",
        "          \"name\": \"backsort-analyzer\",\n",
        "          \"rules\": [\n"
    ));
    let lints = all_lints();
    let rules: Vec<(&str, String)> = lints
        .iter()
        .map(|l| (l.id(), l.description().to_string()))
        .chain([(
            SUPPRESSION_LINT,
            "problems with analyzer:allow comments themselves".to_string(),
        )])
        .collect();
    for (i, (id, desc)) in rules.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}{}\n",
            json_str(id),
            json_str(desc),
            if i + 1 == rules.len() { "" } else { "," }
        ));
    }
    out.push_str(concat!(
        "          ]\n",
        "        }\n",
        "      },\n",
        "      \"results\": [\n"
    ));
    for (i, f) in findings.iter().enumerate() {
        let level = match f.severity {
            Severity::Deny => "error",
            Severity::Warn => "warning",
        };
        out.push_str(&format!(
            concat!(
                "        {{\"ruleId\": {}, \"level\": {}, \"message\": {{\"text\": {}}}, ",
                "\"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": ",
                "{{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]}}{}\n"
            ),
            json_str(f.lint),
            json_str(level),
            json_str(&f.message),
            json_str(&f.file),
            f.line,
            if i + 1 == findings.len() { "" } else { "," }
        ));
    }
    out.push_str(concat!("      ]\n", "    }\n", "  ]\n", "}\n"));
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(sev: Severity) -> Finding {
        Finding {
            file: "crates/engine/src/lib.rs".to_string(),
            line: 7,
            lint: "lock-order",
            severity: sev,
            message: "a \"quoted\" message".to_string(),
        }
    }

    #[test]
    fn sarif_has_schema_rules_and_results() {
        let out = render_sarif(&[finding(Severity::Deny), finding(Severity::Warn)]);
        assert!(out.contains("\"version\": \"2.1.0\""));
        assert!(out.contains("sarif-2.1.0.json"));
        // One rule entry per pass plus the suppression pseudo-lint.
        for lint in all_lints() {
            assert!(out.contains(&format!("{{\"id\": \"{}\"", lint.id())));
        }
        assert!(out.contains(&format!("{{\"id\": \"{SUPPRESSION_LINT}\"")));
        assert!(out.contains("\"level\": \"error\""));
        assert!(out.contains("\"level\": \"warning\""));
        assert!(out.contains("\"startLine\": 7"));
        assert!(out.contains("a \\\"quoted\\\" message"));
    }

    #[test]
    fn sarif_empty_run_is_well_formed() {
        let out = render_sarif(&[]);
        assert!(out.contains("\"results\": [\n      ]"));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }
}
