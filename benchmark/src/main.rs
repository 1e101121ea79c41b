//! The repository's one benchmark.
//!
//! ```text
//! pcpm-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     One workload in this process (the form `BENCHMARK.json` records).
//!     --trace 0: end-to-end metrics, telemetry and spans off.
//!     --trace 1: the per-layer rows, from spans around public calls.
//!     The last line of standard output is the result as one JSON object.
//! pcpm-benchmark [--seed N] [--seconds S] [--runs R]
//!     Every workload, each run a process of its own (this program starts
//!     itself again), R end-to-end runs on seeds N, N+1, … and one traced
//!     run; writes `<out>/run-seed<N>.json`.
//! pcpm-benchmark compare OLD.json NEW.json
//!     The regression table; exits non-zero unless every row is `ok`.
//! pcpm-benchmark spec
//!     Prints `BENCHMARK.json` from the tables in `spec.rs`.
//! Common: --quick (toy scales, same code paths), --out DIR (default
//! `benchmark/results`).
//! ```

mod compare;
mod e2e;
mod host;
mod inputs;
mod json;
mod layers;
mod report;
mod serve_load;
mod spec;
mod stats;
mod trace;

use e2e::Opts;
use json::{obj, Json};
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// What `BENCHMARK.json` tells the driver about running this program.
const RUN_SECONDS: u64 = 10;
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: usize,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        runs: 3,
        out_dir: PathBuf::from("benchmark/results"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--runs" => {
                a.runs = value()?
                    .parse()
                    .map_err(|_| "--runs takes a whole number")?
            }
            "--out" => a.out_dir = PathBuf::from(value()?),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if a.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(a)
}

fn write_file(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, here, now. Prints the table, writes the result (and the
/// spans of a traced run), and ends standard output with the result line.
fn run_workload(w: &Workload, a: &Args) -> Result<bool, String> {
    let opts = Opts {
        seed: a.seed,
        seconds: a.seconds,
        quick: a.quick,
        out_dir: a.out_dir.clone(),
    };
    let (result, spans) = if a.trace {
        let (r, tracer) = layers::run(w, &opts)?;
        (r, Some(tracer.to_json()))
    } else {
        (e2e::run(w, &opts)?, None)
    };
    let mut result = result;
    check_rows_against_spec(&mut result, a.trace);
    print!("{}", result.table(w.name, a.seed, a.trace));
    let stem = format!("{}-seed{}-trace{}", w.name, a.seed, u8::from(a.trace));
    let doc = obj([
        ("host", host::capture(a.seed, a.quick)),
        ("runs", vec![result.to_json(w.name, a.seed, a.trace)].into()),
    ]);
    write_file(&a.out_dir.join(format!("{stem}.json")), &doc)?;
    if let Some(spans) = spans {
        write_file(&a.out_dir.join(format!("{stem}.spans.json")), &spans)?;
    }
    println!("{}", result.driver_line());
    Ok(result.correct())
}

/// The rows a phase prints are exactly the ones `spec.rs` (and so
/// `BENCHMARK.json`) lists for it, units included. A listed row may be
/// absent only when a note of the same name says why it was omitted.
fn check_rows_against_spec(result: &mut report::RunResult, trace: bool) {
    let listed: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut wrong = Vec::new();
    for &(name, unit) in &listed {
        match result.rows.iter().find(|r| r.name == name) {
            Some(r) if r.unit == unit => {}
            Some(_) => wrong.push(format!("{name} has the wrong unit")),
            None if result.notes.iter().any(|(k, _)| k == name) => {}
            None => wrong.push(format!("{name} is missing")),
        }
    }
    wrong.extend(
        result
            .rows
            .iter()
            .filter(|r| !listed.iter().any(|l| l.0 == r.name))
            .map(|r| format!("{} is not listed", r.name)),
    );
    for w in &wrong {
        result.check(w, false);
    }
    result.check("the rows printed are the rows listed", wrong.is_empty());
}

/// Every workload, each run in a process of its own so that `VmHWM` and
/// every cache start fresh; gathers the per-run files into one.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let plan = (0..a.runs as u64)
            .map(|i| (a.seed + i, false))
            .chain([(a.seed, true)]);
        for (seed, trace) in plan {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &a.seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .arg("--out")
                .arg(&a.out_dir)
                .stdin(Stdio::null());
            if a.quick {
                cmd.arg("--quick");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("starting {}: {e}", exe.display()))?;
            all_correct &= status.success();
            let file = a.out_dir.join(format!(
                "{}-seed{seed}-trace{}.json",
                w.name,
                u8::from(trace)
            ));
            let doc = std::fs::read_to_string(&file)
                .map_err(|e| format!("{}: {e}", file.display()))
                .and_then(|t| Json::parse(&t))?;
            runs.extend(
                doc.get("runs")
                    .and_then(Json::as_array)
                    .unwrap_or_default()
                    .iter()
                    .cloned(),
            );
        }
    }
    let out = a.out_dir.join(format!("run-seed{}.json", a.seed));
    write_file(
        &out,
        &obj([
            ("host", host::capture(a.seed, a.quick)),
            ("runs", runs.into()),
        ]),
    )?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}

fn benchmark_json() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
        .collect::<Vec<_>>();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            obj([
                ("name", m.name.into()),
                ("unit", m.unit.into()),
                ("better", m.better.name().into()),
                ("bound", m.bound.into()),
            ])
        })
        .collect::<Vec<_>>();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            obj([
                ("name", m.0.into()),
                ("unit", m.1.into()),
                ("better", m.2.name().into()),
            ])
        })
        .collect::<Vec<_>>();
    obj([
        (
            "command",
            COMMAND
                .iter()
                .map(|&s| Json::from(s))
                .collect::<Vec<_>>()
                .into(),
        ),
        ("paths", vec![Json::from("benchmark")].into()),
        ("run_seconds", RUN_SECONDS.into()),
        ("workloads", workloads.into()),
        ("end_to_end", e2e.into()),
        ("per_layer", layers.into()),
    ])
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [old, new] => compare::run(old, new),
            _ => Err("usage: compare OLD.json NEW.json".into()),
        },
        Some("spec") => {
            print!("{}", benchmark_json().pretty());
            Ok(true)
        }
        _ => {
            let a = parse_args(&args)?;
            match &a.workload {
                Some(name) => {
                    let known = || {
                        WORKLOADS
                            .iter()
                            .map(|w| w.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    };
                    let w = spec::workload(name)
                        .ok_or_else(|| format!("unknown workload {name} (known: {})", known()))?;
                    run_workload(w, &a)
                }
                None => run_all(&a),
            }
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pcpm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
