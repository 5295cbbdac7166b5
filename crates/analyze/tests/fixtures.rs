//! Golden fixture tests: every registered lint must fire on its fixture
//! with exactly the `file:line:col` positions recorded in the paired
//! `.expected` file. Fixtures live in `../fixtures/` (a globally exempt
//! directory, so real-tree scans never see them) and are injected through
//! `analyze_sources`, the same entry point `analyze_root` funnels into.

use logcl_analyze::engine::analyze_sources;
use logcl_analyze::lints::registry;

struct Fixture {
    name: &'static str,
    source: &'static str,
    expected: &'static str,
}

const FIXTURES: &[Fixture] = &[
    Fixture {
        name: "l001_kernel_boundary",
        source: include_str!("../fixtures/l001_kernel_boundary.rs"),
        expected: include_str!("../fixtures/l001_kernel_boundary.expected"),
    },
    Fixture {
        name: "l004_fsync_discipline",
        source: include_str!("../fixtures/l004_fsync_discipline.rs"),
        expected: include_str!("../fixtures/l004_fsync_discipline.expected"),
    },
    Fixture {
        name: "l004_wal_append",
        source: include_str!("../fixtures/l004_wal_append.rs"),
        expected: include_str!("../fixtures/l004_wal_append.expected"),
    },
    Fixture {
        name: "l005_lock_hygiene",
        source: include_str!("../fixtures/l005_lock_hygiene.rs"),
        expected: include_str!("../fixtures/l005_lock_hygiene.expected"),
    },
    Fixture {
        name: "l006_error_context",
        source: include_str!("../fixtures/l006_error_context.rs"),
        expected: include_str!("../fixtures/l006_error_context.expected"),
    },
    Fixture {
        name: "l007_head_indexing",
        source: include_str!("../fixtures/l007_head_indexing.rs"),
        expected: include_str!("../fixtures/l007_head_indexing.expected"),
    },
    Fixture {
        name: "l009_lock_order",
        source: include_str!("../fixtures/l009_lock_order.rs"),
        expected: include_str!("../fixtures/l009_lock_order.expected"),
    },
    Fixture {
        name: "l010_blocking_under_lock",
        source: include_str!("../fixtures/l010_blocking_under_lock.rs"),
        expected: include_str!("../fixtures/l010_blocking_under_lock.expected"),
    },
    Fixture {
        name: "l011_atomic_ordering",
        source: include_str!("../fixtures/l011_atomic_ordering.rs"),
        expected: include_str!("../fixtures/l011_atomic_ordering.expected"),
    },
    Fixture {
        name: "l012_wire_boundary",
        source: include_str!("../fixtures/l012_wire_boundary.rs"),
        expected: include_str!("../fixtures/l012_wire_boundary.expected"),
    },
    // The same source as the listener module itself: the bind is at home
    // there, and nothing else is — being the inbound boundary does not make
    // a file a hole in the outbound rule.
    Fixture {
        name: "l012_listener_module",
        source: include_str!("../fixtures/l012_wire_boundary.rs"),
        expected: include_str!("../fixtures/l012_listener_module.expected"),
    },
    Fixture {
        name: "l000_allows",
        source: include_str!("../fixtures/l000_allows.rs"),
        expected: include_str!("../fixtures/l000_allows.expected"),
    },
];

/// Parses a `.expected` file: the `# path:` header, an optional
/// `# suppressed:` count, and the golden `LINT line:col` lines.
fn parse_expected(text: &str) -> (String, Option<usize>, Vec<String>) {
    let mut path = None;
    let mut suppressed = None;
    let mut lines = Vec::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# path:") {
            path = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("# suppressed:") {
            suppressed = rest.trim().parse().ok();
        } else if !line.starts_with('#') {
            lines.push(line.to_string());
        }
    }
    (
        path.expect("fixture .expected needs a `# path:` header"),
        suppressed,
        lines,
    )
}

#[test]
fn every_fixture_matches_its_golden_diagnostics() {
    for fx in FIXTURES {
        let (path, want_suppressed, want) = parse_expected(fx.expected);
        let files = [(path.clone(), fx.source.to_string())];
        let analysis = analyze_sources(&files);
        let got: Vec<String> = analysis
            .diagnostics
            .iter()
            .map(|d| {
                assert_eq!(d.path, path, "{}: diagnostic path mismatch", fx.name);
                format!("{} {}:{}", d.lint, d.line, d.col)
            })
            .collect();
        assert_eq!(
            got, want,
            "{}: diagnostics diverge from golden file\n  got:  {:?}\n  want: {:?}\n  full: {:#?}",
            fx.name, got, want, analysis.diagnostics
        );
        if let Some(s) = want_suppressed {
            assert_eq!(analysis.suppressed, s, "{}: suppression count", fx.name);
        }
    }
}

#[test]
fn every_registered_lint_has_a_firing_fixture() {
    let mut uncovered: Vec<&str> = registry().iter().map(|l| l.id).collect();
    uncovered.push("L000");
    for fx in FIXTURES {
        let (path, _, _) = parse_expected(fx.expected);
        let files = [(path, fx.source.to_string())];
        let analysis = analyze_sources(&files);
        uncovered.retain(|id| !analysis.diagnostics.iter().any(|d| &d.lint == id));
    }
    assert!(
        uncovered.is_empty(),
        "lints with no fixture proving they fire: {uncovered:?}"
    );
}

#[test]
fn fixtures_on_disk_are_globally_exempt_from_real_scans() {
    // The violating fixtures must never leak into `check` runs over the
    // real tree: their directory name is in GLOBAL_EXEMPT_DIRS.
    assert!(logcl_analyze::config::globally_exempt(
        "crates/analyze/fixtures/l001_kernel_boundary.rs"
    ));
}

#[test]
fn readme_lint_table_is_generated_from_the_registry() {
    // fixtures/README.md embeds the registry-generated lint table verbatim;
    // registering a lint without regenerating the table fails here.
    let readme = include_str!("../fixtures/README.md");
    let table = logcl_analyze::lints::lint_table_markdown();
    assert!(
        readme.contains(table.trim_end()),
        "fixtures/README.md lint table is stale — paste the output of \
         `lint_table_markdown()` into it:\n{table}"
    );
}

#[test]
fn one_allow_covers_all_same_lint_hits_on_its_line_only() {
    let src = "\
pub fn f(a: &mut Vec<f32>, b: &mut Vec<f32>) -> usize {
    // logcl-allow(L001): fixture — both splits on the next line are covered
    a.split_at_mut(1).0.len() + b.split_at_mut(1).0.len()
}
pub fn g(c: &mut Vec<f32>) -> usize {
    c.split_at_mut(1).0.len()
}
";
    let files = [("crates/core/src/x.rs".to_string(), src.to_string())];
    let analysis = analyze_sources(&files);
    assert_eq!(analysis.suppressed, 2, "{:#?}", analysis.diagnostics);
    assert_eq!(analysis.diagnostics.len(), 1);
    assert_eq!(analysis.diagnostics[0].lint, "L001");
    assert_eq!(analysis.diagnostics[0].line, 6);
}
