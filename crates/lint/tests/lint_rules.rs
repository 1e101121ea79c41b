//! Fixture-driven rule tests: every rule gets a positive fixture (the
//! violation is found) and a suppressed fixture (the pragma hides it,
//! and only it). Fixtures live under `tests/fixtures/` and are fed to
//! [`lint_files`] under synthetic workspace-relative paths — the path
//! chooses the scope, so one fixture can be tested as kernel code and
//! again as out-of-scope code.

use pcpm_lint::{classify, lint_files, Allowlist, Finding, SourceFile};

fn file(rel: &str, text: &str) -> SourceFile {
    SourceFile {
        rel: rel.to_string(),
        text: text.to_string(),
    }
}

fn run(files: &[SourceFile]) -> Vec<Finding> {
    lint_files(files, &Allowlist::empty())
}

fn rules(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

const KERNEL: &str = "crates/core/src/fixture.rs";
const SERVE: &str = "crates/serve/src/proto.rs";

// ---------------------------------------------------------------- scope

#[test]
fn scope_classification() {
    assert!(classify("crates/core/src/engine.rs").determinism);
    // A nested module directory stays in scope.
    assert!(classify("crates/core/src/backend/pcpm.rs").determinism);
    assert!(classify("shims/rayon/src/pool.rs").determinism);
    // The telemetry module owns wall-clock access.
    assert!(!classify("crates/core/src/telemetry.rs").determinism);
    assert!(classify("crates/core/src/telemetry.rs").telemetry);
    // Serve hot path: panic rule, not determinism.
    let serve = classify("crates/serve/src/server.rs");
    assert!(serve.serve_panic && !serve.determinism);
    // Non-product files have no scope at all.
    assert!(!classify("tests/serve_e2e.rs").any());
    assert!(!classify("crates/core/tests/repair.rs").any());
    assert!(!classify("crates/bench/benches/serve.rs").any());
    // The linter does not lint itself.
    assert!(!classify("crates/lint/src/lib.rs").any());
}

// ---------------------------------------------------------- determinism

#[test]
fn determinism_positive() {
    let f = run(&[file(KERNEL, include_str!("fixtures/determinism_pos.rs"))]);
    let det: Vec<&Finding> = f.iter().filter(|x| x.rule == "determinism").collect();
    // HashMap (use + body; the body's two same-line mentions dedup to
    // one finding), SystemTime ×2, Instant::now ×1, thread::spawn ×1.
    assert_eq!(det.len(), 6, "{f:#?}");
    // Nothing inside the #[cfg(test)] mod (lines 9..) is flagged.
    assert!(det.iter().all(|x| x.line < 9), "{det:#?}");
}

#[test]
fn determinism_out_of_scope_path_is_clean() {
    // The same source under a serve path has no determinism scope.
    let f = run(&[file(
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/determinism_pos.rs"),
    )]);
    assert!(
        f.iter().all(|x| x.rule != "determinism"),
        "determinism rule leaked outside kernel crates: {f:#?}"
    );
}

#[test]
fn determinism_suppressed_file_wide() {
    let f = run(&[file(
        KERNEL,
        include_str!("fixtures/determinism_suppressed.rs"),
    )]);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn determinism_line_pragmas() {
    let f = run(&[file(
        KERNEL,
        include_str!("fixtures/determinism_line_pragma.rs"),
    )]);
    // Line 3 (preceding-comment form) and line 5 (trailing form) are
    // suppressed; line 4 is the one survivor.
    assert_eq!(rules(&f), vec!["determinism"], "{f:#?}");
    assert_eq!(f[0].line, 4);
}

#[test]
fn deleting_a_pragma_resurfaces_the_finding() {
    let with = include_str!("fixtures/determinism_suppressed.rs");
    let without: String = with
        .lines()
        .filter(|l| !l.contains("pcpm-lint:"))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(run(&[file(KERNEL, with)]).is_empty());
    assert!(!run(&[file(KERNEL, &without)]).is_empty());
}

// -------------------------------------------------------- unsafe-budget

#[test]
fn unsafe_outside_allowlist_is_found() {
    let f = run(&[file(KERNEL, include_str!("fixtures/unsafe_pos.rs"))]);
    assert_eq!(rules(&f), vec!["unsafe-budget", "unsafe-budget"], "{f:#?}");
    assert_eq!((f[0].line, f[1].line), (1, 3), "test-mod unsafe exempt");
}

#[test]
fn unsafe_with_exact_allowlist_count_is_clean() {
    let mut pre = Vec::new();
    let al = Allowlist::parse(
        "crates/lint/unsafe-allowlist.txt",
        &format!("{KERNEL} 2 fixture has exactly two unsafe tokens\n"),
        &mut pre,
    );
    assert!(pre.is_empty());
    let f = lint_files(&[file(KERNEL, include_str!("fixtures/unsafe_pos.rs"))], &al);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn unsafe_count_drift_is_found() {
    let mut pre = Vec::new();
    let al = Allowlist::parse(
        "crates/lint/unsafe-allowlist.txt",
        &format!("{KERNEL} 1 count pinned too low\n"),
        &mut pre,
    );
    let f = lint_files(&[file(KERNEL, include_str!("fixtures/unsafe_pos.rs"))], &al);
    assert_eq!(rules(&f), vec!["unsafe-budget"], "{f:#?}");
    assert!(f[0].message.contains("pins exactly 1"), "{f:#?}");
}

#[test]
fn stale_allowlist_entry_is_found() {
    let mut pre = Vec::new();
    let al = Allowlist::parse(
        "crates/lint/unsafe-allowlist.txt",
        "crates/core/src/gone.rs 3 file no longer has unsafe\n",
        &mut pre,
    );
    let f = lint_files(&[file(KERNEL, "pub fn safe() {}\n")], &al);
    assert_eq!(rules(&f), vec!["unsafe-budget"], "{f:#?}");
    assert!(f[0].message.contains("stale"), "{f:#?}");
    assert_eq!(f[0].path, "crates/lint/unsafe-allowlist.txt");
}

#[test]
fn malformed_allowlist_line_is_found() {
    let mut pre = Vec::new();
    let _ = Allowlist::parse(
        "crates/lint/unsafe-allowlist.txt",
        "crates/core/src/x.rs not-a-number reason\ncrates/core/src/y.rs 2\n",
        &mut pre,
    );
    assert_eq!(pre.len(), 2, "bad count and missing reason: {pre:#?}");
}

#[test]
fn unsafe_suppressed_by_pragma() {
    let f = run(&[file(KERNEL, include_str!("fixtures/unsafe_suppressed.rs"))]);
    assert!(f.is_empty(), "{f:#?}");
}

// ---------------------------------------------------------- serve-panic

#[test]
fn serve_panic_positive() {
    let f = run(&[file(SERVE, include_str!("fixtures/serve_panic_pos.rs"))]);
    let sp: Vec<&Finding> = f.iter().filter(|x| x.rule == "serve-panic").collect();
    assert_eq!(sp.len(), 4, "unwrap, expect, panic!, todo!: {f:#?}");
    assert_eq!(
        sp.iter().map(|x| x.line).collect::<Vec<_>>(),
        vec![2, 3, 5, 7],
        "unwrap_or (line 10) and test-mod unwrap (line 16) are exempt"
    );
}

#[test]
fn serve_panic_only_on_serve_hot_path() {
    let f = run(&[file(KERNEL, include_str!("fixtures/serve_panic_pos.rs"))]);
    assert!(
        f.iter().all(|x| x.rule != "serve-panic"),
        "serve-panic leaked into kernel scope: {f:#?}"
    );
}

#[test]
fn serve_panic_suppressed() {
    let f = run(&[file(
        SERVE,
        include_str!("fixtures/serve_panic_suppressed.rs"),
    )]);
    assert!(f.is_empty(), "{f:#?}");
}

// --------------------------------------------------- telemetry-registry

#[test]
fn telemetry_registry_cross_file_checks() {
    let f = run(&[
        file(
            "crates/core/src/telemetry.rs",
            include_str!("fixtures/telemetry_registry.rs"),
        ),
        file(
            "crates/algos/src/fixture.rs",
            include_str!("fixtures/telemetry_usage.rs"),
        ),
        file(
            "crates/serve/src/metrics.rs",
            include_str!("fixtures/telemetry_metrics.rs"),
        ),
    ]);
    assert!(f.iter().all(|x| x.rule == "telemetry-registry"), "{f:#?}");
    let has = |s: &str| f.iter().any(|x| x.message.contains(s));
    // `delta` is opened but unregistered.
    assert!(has("span `delta` is not registered"), "{f:#?}");
    // `beta` is opened at two sites.
    assert!(has("span `beta` is also opened"), "{f:#?}");
    // `gamma` and omega are registered but never opened.
    assert!(has("span `gamma` is never opened"), "{f:#?}");
    assert!(has("span `omega` is never opened"), "{f:#?}");
    // omega is additionally undocumented (gamma is documented).
    assert!(has("span `omega` is not documented"), "{f:#?}");
    assert!(!has("span `gamma` is not documented"), "{f:#?}");
    // The rogue metric literal is not in METRIC_FAMILIES; the histogram
    // `_bucket` suffix on a registered family is fine.
    assert!(has("metric literal `pcpm_rogue_total`"), "{f:#?}");
    assert!(!has("pcpm_latency_seconds_bucket"), "{f:#?}");
    assert_eq!(f.len(), 6, "{f:#?}");
}

// --------------------------------------------------------------- pragma

#[test]
fn bad_and_unused_pragmas_are_findings() {
    let f = run(&[file(KERNEL, include_str!("fixtures/pragma_bad.rs"))]);
    assert!(f.iter().all(|x| x.rule == "pragma"), "{f:#?}");
    let has = |s: &str| f.iter().any(|x| x.message.contains(s));
    assert!(has("unknown rule `bogus-rule`"), "{f:#?}");
    assert!(has("missing mandatory `reason"), "{f:#?}");
    assert!(has("reason must not be empty"), "{f:#?}");
    assert!(has("unused pragma"), "{f:#?}");
    assert!(has("must be `//` line comments"), "{f:#?}");
    assert_eq!(f.len(), 5, "{f:#?}");
}

#[test]
fn pragma_findings_are_not_suppressible() {
    // A pragma cannot hide another pragma's hygiene finding: the
    // reserved rule id `pragma` is not a legal pragma rule.
    let src = "// pcpm-lint: allow(pragma, reason = \"nice try\")\npub fn f() {}\n";
    let f = run(&[file(KERNEL, src)]);
    assert_eq!(rules(&f), vec!["pragma"], "{f:#?}");
    assert!(f[0].message.contains("unknown rule `pragma`"), "{f:#?}");
}

// ---------------------------------------------------- workspace contract

/// The real workspace must lint clean — this is the same check CI runs,
/// wired into tier-1 so `cargo test` catches a regression first.
#[test]
fn workspace_is_clean() {
    let cwd = std::env::current_dir().unwrap();
    let root = pcpm_lint::find_workspace_root(&cwd).expect("workspace root");
    let findings = pcpm_lint::lint_workspace(&root).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "workspace lint findings:\n{}",
        pcpm_lint::render_human(&findings)
    );
}

/// The checked-in unsafe allowlist pins exactly the two known sites:
/// serve's signal(2) shim and the rayon shim's merge sort.
#[test]
fn allowlist_pins_exactly_the_known_sites() {
    let cwd = std::env::current_dir().unwrap();
    let root = pcpm_lint::find_workspace_root(&cwd).expect("workspace root");
    let text = std::fs::read_to_string(root.join(pcpm_lint::ALLOWLIST_REL)).unwrap();
    let mut pre = Vec::new();
    let al = Allowlist::parse(pcpm_lint::ALLOWLIST_REL, &text, &mut pre);
    assert!(pre.is_empty(), "{pre:#?}");
    let files: Vec<(&str, usize)> = al
        .entries
        .iter()
        .map(|e| (e.file.as_str(), e.count))
        .collect();
    assert_eq!(
        files,
        vec![
            ("crates/serve/src/server.rs", 1),
            ("shims/rayon/src/sort.rs", 7)
        ]
    );
}

// ------------------------------------------------------------ rendering

#[test]
fn json_rendering_escapes_and_shapes() {
    let f = vec![Finding::rule(
        "determinism",
        "crates/core/src/x.rs",
        7,
        "uses `HashMap` with \"quotes\"",
    )];
    let json = pcpm_lint::render_json(&f);
    assert!(json.starts_with('['), "{json}");
    assert!(json.contains("\\\"quotes\\\""), "{json}");
    assert!(json.contains("\"line\":7"), "{json}");
    assert_eq!(pcpm_lint::render_json(&[]), "[]\n");
}

#[test]
fn injected_violation_fails_like_the_ci_self_test() {
    // The CI self-test writes a violating file into the tree and
    // asserts non-zero exit; this is the same assertion in-process.
    let f = run(&[file(
        "crates/core/src/zz_lint_selftest.rs",
        "pub fn f() { let _t = std::time::Instant::now(); }\n",
    )]);
    assert_eq!(rules(&f), vec!["determinism"], "{f:#?}");
}
