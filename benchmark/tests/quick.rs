//! The `--quick` tier: toy scales, the same code paths and every
//! correctness check, driven the way a person drives the benchmark — the
//! built program, one process per run.

use std::path::Path;
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_pcpm-benchmark");

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("start the benchmark")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_owned()
}

#[test]
fn quick_tier_runs_every_workload_checks_it_and_compares_against_itself() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-all");
    let _ = std::fs::remove_dir_all(&out_dir);
    let dir = out_dir.to_str().expect("utf-8 path");

    // Every workload, two end-to-end runs and one traced run each.
    let all = run(&[
        "--quick",
        "--seconds",
        "0.3",
        "--runs",
        "2",
        "--seed",
        "7",
        "--out",
        dir,
    ]);
    let stdout = String::from_utf8_lossy(&all.stdout);
    assert!(
        all.status.success(),
        "a correctness check failed:\n{stdout}"
    );
    assert!(!stdout.contains("FAILED"));
    for name in ["pr-dram", "pr-cache", "ppr-batch", "serve-mixed"] {
        assert!(
            stdout.contains(&format!("== {name}  seed 7  end to end")),
            "{name} end to end"
        );
        assert!(
            stdout.contains(&format!("== {name}  seed 8  end to end")),
            "{name} second seed"
        );
        assert!(
            stdout.contains(&format!("== {name}  seed 7  traced phase")),
            "{name} traced"
        );
        assert!(
            out_dir
                .join(format!("{name}-seed7-trace1.spans.json"))
                .exists(),
            "{name} spans"
        );
    }
    // Every metric is printed by name: spot-check one of each kind.
    for row in [
        "op_ms",
        "alt_ms",
        "setup_s",
        "peak_rss_mib",
        "gather.ns_per_edge",
        "serve.update_visible_p50_ms",
    ] {
        assert!(stdout.contains(row), "{row} is not printed");
    }
    // The arrays of the quick triad are far below 4x the LLC.
    assert!(
        !stdout.contains("gather.pct_of_roof"),
        "pct_of_roof must be omitted without a DRAM roof"
    );

    // A result file compared with itself: one row per workload and metric,
    // nothing regressed or missing, every exact count identical. Toy-scale
    // timings beside a parallel test run are noisy, so a row may well be
    // `unresolved`; the exit code must say so exactly when one is.
    let file = out_dir.join("run-seed7.json");
    let file = file.to_str().expect("utf-8 path");
    let same = run(&["compare", file, file]);
    let table = String::from_utf8_lossy(&same.stdout);
    let verdicts = |v: &str| table.matches(&format!("  {v} (n=2/2")).count();
    assert_eq!(
        verdicts("ok") + verdicts("unresolved"),
        16,
        "4 workloads x 4 metrics:\n{table}"
    );
    assert!(!table.contains("exact count differs"), "{table}");
    assert_eq!(
        same.status.success(),
        verdicts("unresolved") == 0,
        "{table}"
    );

    // No scratch file is left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&out_dir)
        .expect("result directory")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn one_workload_ends_standard_output_with_the_result_line() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-one");
    let dir = out_dir.to_str().expect("utf-8 path");
    let args = [
        "--workload",
        "pr-cache",
        "--quick",
        "--seconds",
        "0.2",
        "--seed",
        "3",
        "--trace",
        "0",
        "--out",
        dir,
    ];
    // The counts and checksums a run records as exact, from its result file.
    let exact = || -> Vec<String> {
        let text = std::fs::read_to_string(out_dir.join("pr-cache-seed3-trace0.json"))
            .expect("result file");
        text.lines()
            .filter(|l| l.contains("\"exact\""))
            .map(str::to_owned)
            .collect()
    };
    let a = run(&args);
    let exact_a = exact();
    let b = run(&args);
    assert!(a.status.success() && b.status.success());
    let line = last_line(&a);
    assert!(
        line.starts_with(r#"{"correct": true, "attempted": "#),
        "{line}"
    );
    for key in [
        r#""failed": 0"#,
        r#""op_ms": {"value": "#,
        r#""unit": "MiB""#,
    ] {
        assert!(line.contains(key), "{key} in {line}");
    }
    // Same seed: same inputs, same answers — and never the same times.
    assert!(
        exact_a.len() == 1 && exact_a[0].contains("score.checksum64"),
        "{exact_a:?}"
    );
    assert_eq!(exact_a, exact());
    assert_ne!(line, last_line(&b));
}

#[test]
fn bad_invocations_fail_without_a_result_line() {
    for args in [
        &["--workload", "no-such"][..],
        &["--seconds", "0"],
        &["--trace", "2"],
        &["--frobnicate"],
        &["compare", "only-one.json"],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(!last_line(&out).starts_with('{'), "{args:?}");
    }
}
