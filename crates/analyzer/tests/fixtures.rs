//! Fixture-based tests: each pass runs over known-bad and known-good
//! snippets, and findings are asserted against `//~ <lint-id>` markers
//! embedded in the fixtures (exact file, line, and lint id).

use std::path::PathBuf;

use backsort_analyzer::{
    check_workspace, CheckOptions, Config, DocFile, FileKind, SourceFile, Workspace,
};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn workspace(files: Vec<SourceFile>, docs: Vec<(&str, &str)>) -> Workspace {
    Workspace {
        root: PathBuf::from("."),
        files,
        docs: docs
            .into_iter()
            .map(|(rel, text)| DocFile {
                rel: rel.to_string(),
                text: text.to_string(),
            })
            .collect(),
    }
}

/// `//~ <lint-id>` markers in a fixture, as `(rel, line, lint)` tuples.
fn markers(rel: &str, text: &str) -> Vec<(String, usize, String)> {
    text.lines()
        .enumerate()
        .filter_map(|(i, line)| {
            let (_, id) = line.split_once("//~ ")?;
            Some((rel.to_string(), i + 1, id.trim().to_string()))
        })
        .collect()
}

/// Runs `only` the given lint and asserts findings == the fixtures'
/// markers, exactly.
fn assert_findings(ws: &Workspace, cfg_text: &str, only: &str, fixtures: &[(&str, &str)]) {
    let cfg = Config::parse(cfg_text).expect("fixture config parses");
    let opts = CheckOptions {
        deny: true,
        only: vec![only.to_string()],
        ..Default::default()
    };
    let mut expected: Vec<(String, usize, String)> = fixtures
        .iter()
        .flat_map(|(rel, text)| markers(rel, text))
        .collect();
    expected.sort();
    let mut actual: Vec<(String, usize, String)> = check_workspace(ws, &cfg, &opts)
        .into_iter()
        .map(|f| (f.file, f.line, f.lint.to_string()))
        .collect();
    actual.sort();
    assert_eq!(
        actual, expected,
        "lint `{only}` findings vs fixture markers"
    );
}

const LOCK_SCOPE_CFG: &str = r#"
[lint.lock-scope]
crates = ["backsort-engine"]
guard_params = ["ShardState"]
io_patterns = ["std::fs::", ".write_durable("]
flusher_patterns = [".submit("]
"#;

#[test]
fn lock_scope_flags_everything_under_a_guard() {
    let bad = fixture("lock_scope_bad.rs");
    let ws = workspace(
        vec![SourceFile::from_source(
            "crates/engine/src/bad.rs",
            "backsort-engine",
            FileKind::Lib,
            &bad,
        )],
        vec![],
    );
    assert_findings(
        &ws,
        LOCK_SCOPE_CFG,
        "lock-scope",
        &[("crates/engine/src/bad.rs", &bad)],
    );
}

#[test]
fn lock_scope_accepts_scoped_guards() {
    let good = fixture("lock_scope_good.rs");
    let ws = workspace(
        vec![SourceFile::from_source(
            "crates/engine/src/good.rs",
            "backsort-engine",
            FileKind::Lib,
            &good,
        )],
        vec![],
    );
    assert_findings(
        &ws,
        LOCK_SCOPE_CFG,
        "lock-scope",
        &[("crates/engine/src/good.rs", &good)],
    );
}

const PANIC_CFG: &str = r#"
[lint.panic-freedom]
crates = ["backsort-engine"]
"#;

#[test]
fn panic_freedom_flags_every_panic_path() {
    let bad = fixture("panic_freedom_bad.rs");
    let ws = workspace(
        vec![SourceFile::from_source(
            "crates/engine/src/bad.rs",
            "backsort-engine",
            FileKind::Lib,
            &bad,
        )],
        vec![],
    );
    assert_findings(
        &ws,
        PANIC_CFG,
        "panic-freedom",
        &[("crates/engine/src/bad.rs", &bad)],
    );
}

#[test]
fn panic_freedom_exempts_tests_allows_and_other_kinds() {
    let good = fixture("panic_freedom_good.rs");
    let bad = fixture("panic_freedom_bad.rs");
    // The bad fixture is clean when it lives in a bench, a bin, or an
    // unconfigured crate.
    let ws = workspace(
        vec![
            SourceFile::from_source(
                "crates/engine/src/good.rs",
                "backsort-engine",
                FileKind::Lib,
                &good,
            ),
            SourceFile::from_source(
                "crates/engine/benches/bad.rs",
                "backsort-engine",
                FileKind::Bench,
                &bad,
            ),
            SourceFile::from_source(
                "crates/engine/src/bin/bad.rs",
                "backsort-engine",
                FileKind::Bin,
                &bad,
            ),
            SourceFile::from_source(
                "crates/other/src/bad.rs",
                "backsort-other",
                FileKind::Lib,
                &bad,
            ),
        ],
        vec![],
    );
    assert_findings(&ws, PANIC_CFG, "panic-freedom", &[]);
}

#[test]
fn suppression_hygiene_reports_unjustified_and_unused_allows() {
    let text = fixture("suppression_bad.rs");
    let ws = workspace(
        vec![SourceFile::from_source(
            "crates/engine/src/sup.rs",
            "backsort-engine",
            FileKind::Lib,
            &text,
        )],
        vec![],
    );
    // Hygiene only runs on a full (unrestricted) run, so disable the
    // other passes through config instead of `only`.
    let cfg = Config::parse(
        r#"
[lint.lock-scope]
enabled = false
[lint.catalog-sync]
enabled = false
[lint.atomic-ordering]
enabled = false
[lint.doc-drift]
enabled = false
[lint.panic-freedom]
crates = ["backsort-engine"]
"#,
    )
    .expect("config parses");
    let opts = CheckOptions {
        deny: true,
        ..Default::default()
    };
    let mut actual: Vec<(usize, &str)> = check_workspace(&ws, &cfg, &opts)
        .iter()
        .map(|f| (f.line, f.lint))
        .collect::<Vec<_>>();
    actual.sort();
    assert_eq!(
        actual,
        vec![
            (6, "suppression"),   // allow without justification
            (7, "panic-freedom"), // ...which therefore does not suppress
            (11, "suppression"),  // justified allow whose finding never fires
        ],
        "suppression hygiene findings"
    );
}

const LOCK_ORDER_CFG: &str = r#"
[lint.lock-order]
crates = ["backsort-engine"]
lock_methods = [".read()", ".write()"]
mutex_methods = [".lock()"]
io_patterns = [".write_durable("]
"#;

#[test]
fn lock_order_flags_cycles_and_transitive_sinks() {
    let bad = fixture("lock_order_bad.rs");
    let ws = workspace(
        vec![SourceFile::from_source(
            "crates/engine/src/lo_bad.rs",
            "backsort-engine",
            FileKind::Lib,
            &bad,
        )],
        vec![],
    );
    assert_findings(
        &ws,
        LOCK_ORDER_CFG,
        "lock-order",
        &[("crates/engine/src/lo_bad.rs", &bad)],
    );
}

#[test]
fn lock_order_accepts_consistent_order_and_released_guards() {
    let good = fixture("lock_order_good.rs");
    let ws = workspace(
        vec![SourceFile::from_source(
            "crates/engine/src/lo_good.rs",
            "backsort-engine",
            FileKind::Lib,
            &good,
        )],
        vec![],
    );
    assert_findings(
        &ws,
        LOCK_ORDER_CFG,
        "lock-order",
        &[("crates/engine/src/lo_good.rs", &good)],
    );
}

const DROPPED_ERROR_CFG: &str = r#"
[lint.dropped-error]
crates = ["backsort-engine"]
error_tokens = ["StoreError"]
error_paths = ["io::Result", "io::Error"]
std_error_methods = [".sync_all("]
"#;

#[test]
fn dropped_error_flags_every_discard_shape() {
    let bad = fixture("dropped_error_bad.rs");
    let ws = workspace(
        vec![SourceFile::from_source(
            "crates/engine/src/de_bad.rs",
            "backsort-engine",
            FileKind::Lib,
            &bad,
        )],
        vec![],
    );
    assert_findings(
        &ws,
        DROPPED_ERROR_CFG,
        "dropped-error",
        &[("crates/engine/src/de_bad.rs", &bad)],
    );
}

#[test]
fn dropped_error_accepts_handled_and_non_error_results() {
    let good = fixture("dropped_error_good.rs");
    let ws = workspace(
        vec![SourceFile::from_source(
            "crates/engine/src/de_good.rs",
            "backsort-engine",
            FileKind::Lib,
            &good,
        )],
        vec![],
    );
    assert_findings(
        &ws,
        DROPPED_ERROR_CFG,
        "dropped-error",
        &[("crates/engine/src/de_good.rs", &good)],
    );
}

const BLOCKING_CFG: &str = r#"
[lint.blocking-in-worker]
crates = ["backsort-server"]
entry_points = ["ServerCore::serve"]
socket_exempt_files = ["crates/server/src/wire.rs"]
"#;

#[test]
fn blocking_in_worker_flags_transitively_reachable_blocking() {
    let bad = fixture("blocking_worker_bad.rs");
    let ws = workspace(
        vec![SourceFile::from_source(
            "crates/server/src/bw_bad.rs",
            "backsort-server",
            FileKind::Lib,
            &bad,
        )],
        vec![],
    );
    assert_findings(
        &ws,
        BLOCKING_CFG,
        "blocking-in-worker",
        &[("crates/server/src/bw_bad.rs", &bad)],
    );
}

#[test]
fn blocking_in_worker_exempts_wire_and_unreached_code() {
    let good = fixture("blocking_worker_good.rs");
    let wire = fixture("blocking_worker_wire.rs");
    let ws = workspace(
        vec![
            SourceFile::from_source(
                "crates/server/src/bw_good.rs",
                "backsort-server",
                FileKind::Lib,
                &good,
            ),
            SourceFile::from_source(
                "crates/server/src/wire.rs",
                "backsort-server",
                FileKind::Lib,
                &wire,
            ),
        ],
        vec![],
    );
    assert_findings(
        &ws,
        BLOCKING_CFG,
        "blocking-in-worker",
        &[
            ("crates/server/src/bw_good.rs", &good),
            ("crates/server/src/wire.rs", &wire),
        ],
    );
}

#[test]
fn suppression_hygiene_covers_interprocedural_passes() {
    let text = fixture("suppression_interprocedural.rs");
    let ws = workspace(
        vec![SourceFile::from_source(
            "crates/engine/src/sup2.rs",
            "backsort-engine",
            FileKind::Lib,
            &text,
        )],
        vec![],
    );
    // Hygiene only runs on a full (unrestricted) run, so disable the
    // other passes through config instead of `only`.
    let cfg = Config::parse(
        r#"
[lint.lock-scope]
enabled = false
[lint.catalog-sync]
enabled = false
[lint.atomic-ordering]
enabled = false
[lint.doc-drift]
enabled = false
[lint.panic-freedom]
enabled = false
[lint.blocking-in-worker]
enabled = false
[lint.dropped-error]
crates = ["backsort-engine"]
error_tokens = ["StoreError"]
[lint.lock-order]
crates = ["backsort-engine"]
"#,
    )
    .expect("config parses");
    let opts = CheckOptions {
        deny: true,
        ..Default::default()
    };
    let mut actual: Vec<(usize, &str)> = check_workspace(&ws, &cfg, &opts)
        .iter()
        .map(|f| (f.line, f.lint))
        .collect::<Vec<_>>();
    actual.sort();
    assert_eq!(
        actual,
        vec![
            (15, "suppression"),   // allow without justification
            (16, "dropped-error"), // ...which therefore does not suppress
            (20, "suppression"),   // justified allow whose finding never fires
        ],
        "interprocedural suppression hygiene findings"
    );
}

const ATOMIC_CFG: &str = r#"
[lint.atomic-ordering]
crates = ["backsort-engine"]
"#;

#[test]
fn atomic_ordering_flags_seqcst_and_cross_file_relaxed() {
    let writer = fixture("atomic_writer.rs");
    let reader = fixture("atomic_reader_bad.rs");
    let ws = workspace(
        vec![
            SourceFile::from_source(
                "crates/engine/src/writer.rs",
                "backsort-engine",
                FileKind::Lib,
                &writer,
            ),
            SourceFile::from_source(
                "crates/engine/src/reader.rs",
                "backsort-engine",
                FileKind::Lib,
                &reader,
            ),
        ],
        vec![],
    );
    assert_findings(
        &ws,
        ATOMIC_CFG,
        "atomic-ordering",
        &[
            ("crates/engine/src/writer.rs", &writer),
            ("crates/engine/src/reader.rs", &reader),
        ],
    );
}

const CATALOG_CFG: &str = r#"
[lint.catalog-sync]
metric_catalog = "crates/obs/src/names.rs"
failpoint_catalog = "crates/faults/src/sites.rs"
metric_calls = [".counter("]
failpoint_calls = [".hit(", ".kill_point("]
"#;

#[test]
fn catalog_sync_flags_orphans_and_adhoc_literals() {
    let names = fixture("catalog_names.rs");
    let sites = fixture("catalog_sites.rs");
    let user = fixture("catalog_user.rs");
    let ws = workspace(
        vec![
            SourceFile::from_source(
                "crates/obs/src/names.rs",
                "backsort-obs",
                FileKind::Lib,
                &names,
            ),
            SourceFile::from_source(
                "crates/faults/src/sites.rs",
                "backsort-faults",
                FileKind::Lib,
                &sites,
            ),
            SourceFile::from_source(
                "crates/engine/src/user.rs",
                "backsort-engine",
                FileKind::Lib,
                &user,
            ),
        ],
        vec![],
    );
    assert_findings(
        &ws,
        CATALOG_CFG,
        "catalog-sync",
        &[
            ("crates/obs/src/names.rs", &names),
            ("crates/faults/src/sites.rs", &sites),
            ("crates/engine/src/user.rs", &user),
        ],
    );
}

#[test]
fn catalog_sync_does_not_count_the_registration_lists_as_a_use() {
    let names = fixture("catalog_listed.rs");
    let user = "use backsort_obs::names::ENGINE_WRITES;\n\
                fn observe(obs: &Registry) { obs.counter(ENGINE_WRITES).inc(); }\n";
    let ws = workspace(
        vec![
            SourceFile::from_source(
                "crates/obs/src/names.rs",
                "backsort-obs",
                FileKind::Lib,
                &names,
            ),
            SourceFile::from_source(
                "crates/engine/src/user.rs",
                "backsort-engine",
                FileKind::Lib,
                user,
            ),
        ],
        vec![],
    );
    assert_findings(
        &ws,
        r#"
[lint.catalog-sync]
metric_catalog = "crates/obs/src/names.rs"
metric_calls = [".counter("]
"#,
        "catalog-sync",
        &[("crates/obs/src/names.rs", &names)],
    );
}

const DOC_CFG: &str = r#"
[lint.doc-drift]
items_from = ["crates/core/src/merge.rs"]
module_prefixes = ["merge::"]
anchors = ["KWayMerge", "LastWins"]
"#;

const MERGE_ITEMS: &str = "
pub struct KWayMerge;
pub struct LastWins;
pub fn merge_pair() {}
";

#[test]
fn doc_drift_flags_dangling_references_and_uncited_anchors() {
    let ws = workspace(
        vec![SourceFile::from_source(
            "crates/core/src/merge.rs",
            "backsort-core",
            FileKind::Lib,
            MERGE_ITEMS,
        )],
        vec![(
            "DESIGN.md",
            "Merging uses `merge::KWayMerge` internally.\n\
             It once used `merge::Gone`, which no longer exists.\n",
        )],
    );
    let cfg = Config::parse(DOC_CFG).expect("config parses");
    let opts = CheckOptions {
        deny: true,
        only: vec!["doc-drift".to_string()],
        ..Default::default()
    };
    let mut actual: Vec<(String, usize)> = check_workspace(&ws, &cfg, &opts)
        .iter()
        .map(|f| (f.file.clone(), f.line))
        .collect();
    actual.sort();
    // `merge::Gone` dangles (DESIGN.md line 2); anchor `LastWins` exists
    // but is cited nowhere (reported against the config).
    assert_eq!(
        actual,
        vec![
            ("DESIGN.md".to_string(), 2),
            ("analyzer.toml".to_string(), 0)
        ]
    );
}

#[test]
fn doc_drift_accepts_resolving_docs() {
    let ws = workspace(
        vec![SourceFile::from_source(
            "crates/core/src/merge.rs",
            "backsort-core",
            FileKind::Lib,
            MERGE_ITEMS,
        )],
        vec![(
            "DESIGN.md",
            "`merge::KWayMerge` merges via `LastWins` and `merge::merge_pair`.\n",
        )],
    );
    let cfg = Config::parse(DOC_CFG).expect("config parses");
    let opts = CheckOptions {
        deny: true,
        only: vec!["doc-drift".to_string()],
        ..Default::default()
    };
    assert_eq!(check_workspace(&ws, &cfg, &opts), vec![]);
}
