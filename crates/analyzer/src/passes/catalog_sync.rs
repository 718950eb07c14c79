//! catalog-sync: the metric and failpoint catalogs stay in lockstep
//! with the code — statically.
//!
//! `obs/src/names.rs` and `faults/src/sites.rs` are the single sources
//! of truth for metric and failpoint names. This pass parses both
//! catalogs and cross-checks:
//!
//! 1. every declared constant is referenced somewhere outside its
//!    catalog file (a name nothing uses is drift: the site was removed
//!    but its declaration lingered);
//! 2. every string literal passed directly to a registry call
//!    (`.counter("…")`, `.hit("…")`, …) in production code is declared
//!    in the matching catalog (ad-hoc names bypass the pre-registered
//!    catalog and the crash explorer's unexercised-site detection).

use crate::{Config, FileKind, Finding, Lint, Severity, Workspace};

use super::contains_token;

/// The pass.
pub struct CatalogSync;

const SECTION: &str = "lint.catalog-sync";

struct Catalog {
    /// Catalog file, workspace-relative.
    rel: String,
    /// `(const ident, string value, line)`.
    decls: Vec<(String, String, usize)>,
}

impl Lint for CatalogSync {
    fn id(&self) -> &'static str {
        "catalog-sync"
    }

    fn description(&self) -> &'static str {
        "every declared metric/failpoint name is referenced, every literal name is declared"
    }

    fn run(
        &self,
        ws: &Workspace,
        cfg: &Config,
        _analysis: &crate::Analysis,
        out: &mut Vec<Finding>,
    ) {
        let metric_catalog = cfg.str(SECTION, "metric_catalog").unwrap_or_default();
        let failpoint_catalog = cfg.str(SECTION, "failpoint_catalog").unwrap_or_default();
        let metric_calls = cfg.list(SECTION, "metric_calls");
        let failpoint_calls = cfg.list(SECTION, "failpoint_calls");

        let catalogs: Vec<(Catalog, &[String])> = [
            (metric_catalog, metric_calls),
            (failpoint_catalog, failpoint_calls),
        ]
        .into_iter()
        .filter(|(rel, _)| !rel.is_empty())
        .filter_map(|(rel, calls)| parse_catalog(ws, rel).map(|c| (c, calls)))
        .collect();

        // 1. Declared but unreferenced constants. Any reference counts —
        // test-only exercise still ties the name to code.
        for (catalog, _) in &catalogs {
            for (ident, _value, line) in &catalog.decls {
                let referenced = ws
                    .files
                    .iter()
                    .filter(|f| f.rel != catalog.rel)
                    .any(|f| f.scan.clean.iter().any(|l| contains_token(l, ident)));
                if !referenced {
                    out.push(Finding {
                        file: catalog.rel.clone(),
                        line: *line,
                        lint: self.id(),
                        severity: Severity::Deny,
                        message: format!("catalog name `{ident}` is declared but never referenced"),
                    });
                }
            }
        }

        // 2. Literal names at call sites must be declared. Production
        // library code only — tests mint ad-hoc names freely.
        for file in &ws.files {
            if file.kind != FileKind::Lib || catalogs.iter().any(|(c, _)| c.rel == file.rel) {
                continue;
            }
            for (i, text) in file.scan.clean.iter().enumerate() {
                let line = i + 1;
                if !file.is_prod_line(line) {
                    continue;
                }
                for (catalog, calls) in &catalogs {
                    for call in calls.iter() {
                        let mut from = 0;
                        while let Some(rel_idx) =
                            text.get(from..).and_then(|t| t.find(call.as_str()))
                        {
                            let idx = from + rel_idx;
                            let arg_col = idx + call.len();
                            from = arg_col;
                            if text.as_bytes().get(arg_col) != Some(&b'"') {
                                continue;
                            }
                            let Some(lit) = file
                                .scan
                                .strings
                                .iter()
                                .find(|s| s.line == line && s.col == arg_col)
                            else {
                                continue;
                            };
                            if !catalog.decls.iter().any(|(_, v, _)| v == &lit.value) {
                                out.push(Finding {
                                    file: file.rel.clone(),
                                    line,
                                    lint: self.id(),
                                    severity: Severity::Deny,
                                    message: format!(
                                        "literal name \"{}\" at `{}\"…\")` is not declared in {}",
                                        lit.value,
                                        call.trim_start_matches('.'),
                                        catalog.rel
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Parses `pub const IDENT: &str = "value";` declarations.
fn parse_catalog(ws: &Workspace, rel: &str) -> Option<Catalog> {
    let file = ws.file(rel)?;
    let mut decls = Vec::new();
    for (i, text) in file.scan.clean.iter().enumerate() {
        let line = i + 1;
        let Some(rest) = text.trim_start().strip_prefix("pub const ") else {
            continue;
        };
        let ident: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if ident.is_empty() || !rest[ident.len()..].trim_start().starts_with(':') {
            continue;
        }
        if !rest.contains("&str") {
            continue;
        }
        let Some(lit) = file.scan.strings.iter().find(|s| s.line == line) else {
            continue;
        };
        decls.push((ident, lit.value.clone(), line));
    }
    Some(Catalog {
        rel: rel.to_string(),
        decls,
    })
}
