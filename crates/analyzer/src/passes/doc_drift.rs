//! doc-drift: DESIGN.md's references into the merge/sort API must
//! resolve.
//!
//! DESIGN.md anchors its arguments on concrete pub items
//! (`backsort_core::merge::merge_block_with_suffix`, the sorter roster in
//! `backsort_sorts`). When one of those is renamed or removed, the doc
//! silently rots. This pass collects the pub items of the configured
//! modules and checks two directions:
//!
//! 1. every backticked `path::Item` reference in the docs whose path
//!    points into a watched module still names an existing item;
//! 2. every configured anchor ident both exists as a pub item and is
//!    still mentioned in the docs (so the anchor list itself can't
//!    drift).

use std::collections::BTreeSet;

use crate::{Config, Finding, Lint, Severity, Workspace};

/// The pass.
pub struct DocDrift;

const SECTION: &str = "lint.doc-drift";

impl Lint for DocDrift {
    fn id(&self) -> &'static str {
        "doc-drift"
    }

    fn description(&self) -> &'static str {
        "doc references into backsort_core::merge / backsort_sorts must name existing pub items"
    }

    fn run(
        &self,
        ws: &Workspace,
        cfg: &Config,
        _analysis: &crate::Analysis,
        out: &mut Vec<Finding>,
    ) {
        let item_files = cfg.list(SECTION, "items_from");
        let prefixes = cfg.list(SECTION, "module_prefixes");
        let anchors = cfg.list(SECTION, "anchors");

        let mut items: BTreeSet<String> = BTreeSet::new();
        let mut module_names: BTreeSet<String> = BTreeSet::new();
        for rel in item_files {
            if let Some(file) = ws.file(rel) {
                collect_pub_items(file, &mut items);
                if let Some(stem) = rel.rsplit('/').next().and_then(|n| n.strip_suffix(".rs")) {
                    module_names.insert(stem.to_string());
                }
            } else {
                out.push(Finding {
                    file: "analyzer.toml".to_string(),
                    line: 0,
                    lint: self.id(),
                    severity: Severity::Deny,
                    message: format!("doc-drift items_from file `{rel}` does not exist"),
                });
            }
        }
        for p in prefixes {
            for seg in p.split("::") {
                if !seg.is_empty() {
                    module_names.insert(seg.to_string());
                }
            }
        }

        // 1. Qualified references in doc code spans.
        for doc in &ws.docs {
            for (i, line) in doc.text.lines().enumerate() {
                for span in code_spans(line) {
                    if !span.contains("::") {
                        continue;
                    }
                    if !prefixes.iter().any(|p| span.contains(p.as_str())) {
                        continue;
                    }
                    let Some(last) = span.rsplit("::").next() else {
                        continue;
                    };
                    let name: String = last
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if name.is_empty() {
                        continue;
                    }
                    if module_names.contains(&name) || items.contains(&name) {
                        continue;
                    }
                    out.push(Finding {
                        file: doc.rel.clone(),
                        line: i + 1,
                        lint: self.id(),
                        severity: Severity::Deny,
                        message: format!(
                            "doc reference `{span}` names `{name}`, which is not a pub item of the watched modules"
                        ),
                    });
                }
            }
        }

        // 2. Anchors: must exist as items, and must still be cited.
        for anchor in anchors {
            if !items.contains(anchor) {
                out.push(Finding {
                    file: "analyzer.toml".to_string(),
                    line: 0,
                    lint: self.id(),
                    severity: Severity::Deny,
                    message: format!(
                        "doc-drift anchor `{anchor}` is not a pub item of the watched modules"
                    ),
                });
                continue;
            }
            let cited = ws.docs.iter().any(|d| {
                d.text
                    .lines()
                    .any(|l| code_spans(l).iter().any(|s| span_mentions(s, anchor)))
            });
            if !cited {
                out.push(Finding {
                    file: "analyzer.toml".to_string(),
                    line: 0,
                    lint: self.id(),
                    severity: Severity::Deny,
                    message: format!(
                        "doc-drift anchor `{anchor}` is no longer mentioned in any doc"
                    ),
                });
            }
        }
    }
}

/// Inline code spans of a markdown line (text between single backticks).
fn code_spans(line: &str) -> Vec<&str> {
    line.split('`').skip(1).step_by(2).collect()
}

/// Whether a code span mentions `ident` as a whole path segment.
fn span_mentions(span: &str, ident: &str) -> bool {
    span.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|seg| seg == ident)
}

/// Collects pub item names: `pub fn|struct|enum|trait|type|const NAME`
/// plus `pub use …::{A, B as C}` re-export leaves.
fn collect_pub_items(file: &crate::SourceFile, items: &mut BTreeSet<String>) {
    for text in &file.scan.clean {
        let t = text.trim_start();
        let Some(rest) = t.strip_prefix("pub ") else {
            continue;
        };
        for kw in ["fn ", "struct ", "enum ", "trait ", "type ", "const "] {
            if let Some(after) = rest.strip_prefix(kw) {
                let name: String = after
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    items.insert(name);
                }
            }
        }
        if let Some(after) = rest.strip_prefix("use ") {
            let after = after.trim_end().trim_end_matches(';');
            let leaves: Vec<&str> = match after.split_once('{') {
                Some((_, body)) => body.trim_end_matches('}').split(',').collect(),
                None => vec![after.rsplit("::").next().unwrap_or(after)],
            };
            for leaf in leaves {
                let leaf = leaf.trim();
                let name = match leaf.rsplit_once(" as ") {
                    Some((_, alias)) => alias,
                    None => leaf.rsplit("::").next().unwrap_or(leaf),
                };
                let name: String = name
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() && name != "self" {
                    items.insert(name);
                }
            }
        }
    }
}
