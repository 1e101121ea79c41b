//! `compare OLD.json NEW.json`: one row per workload × end-to-end metric —
//! old, new, ratio (its base is the old median), bound, verdict.
//!
//! `regressed`  the new median is worse than the old by more than the bound;
//! `unresolved` it is not, but the runs of either file spread (quartile
//!              distance over median) wider than the bound, so "no change"
//!              cannot be told from a change — unless every new run beats
//!              every old run;
//! `ok`         otherwise.
//! The process exits non-zero unless every row is `ok`: this is the check an
//! A/A pair of result files must pass.

use crate::json::Json;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    Missing,
}

impl Verdict {
    fn name(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Verdict for one metric from the runs of each side.
pub fn judge(old: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    if old.is_empty() || new.is_empty() {
        return Verdict::Missing;
    }
    let (m_old, m_new) = (median(old), median(new));
    let worse_by = match better {
        Better::Lower => m_new / m_old - 1.0,
        Better::Higher => m_old / m_new - 1.0,
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let noisy = [old, new]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > bound));
    let new_beats_old = |n: f64, o: f64| match better {
        Better::Lower => n < o,
        Better::Higher => n > o,
    };
    let clean_win = new
        .iter()
        .all(|&n| old.iter().all(|&o| new_beats_old(n, o)));
    if noisy && !clean_win {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The values of `metric` over the untraced, correct runs of `workload`.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_bool) == Some(false)
                && run.get("correct").and_then(Json::as_bool) == Some(true)
        })
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Counts and checksums that must repeat exactly for the same seed: every
/// `(workload, seed, trace, name)` present in both files must agree.
fn exact_mismatches(old: &Json, new: &Json) -> Vec<String> {
    let index = |doc: &Json| -> Vec<(String, Json)> {
        let mut out = Vec::new();
        for run in doc.get("runs").and_then(Json::as_array).unwrap_or_default() {
            let key = format!(
                "{} seed {} trace {}",
                run.get("workload").and_then(Json::as_str).unwrap_or("?"),
                run.get("seed").and_then(Json::as_f64).unwrap_or(-1.0),
                run.get("trace").and_then(Json::as_bool).unwrap_or(false),
            );
            for (name, v) in run
                .get("exact")
                .and_then(Json::as_object)
                .unwrap_or_default()
            {
                out.push((format!("{key}: {name}"), v.clone()));
            }
        }
        out
    };
    let old = index(old);
    index(new)
        .into_iter()
        .filter_map(|(key, v)| {
            let (_, was) = old.iter().find(|(k, _)| *k == key)?;
            (*was != v).then(|| format!("{key}: {} -> {}", was.compact(), v.compact()))
        })
        .collect()
}

/// Prints the table; `Ok(true)` when every row is `ok` and every exact
/// count both files share is identical.
pub fn run(old_path: &str, new_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = (load(old_path)?, load(new_path)?);
    println!(
        "{:<12} {:<13} {:>12} {:>12} {:>7} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "old", "new", "new/old", "bound", "sprd old", "sprd new"
    );
    let mut all_ok = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (a, b) = (values(&old, w.name, m.name), values(&new, w.name, m.name));
            let verdict = judge(&a, &b, m.better, m.bound);
            all_ok &= verdict == Verdict::Ok;
            let pct =
                |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<12} {:<13} {:>12.4} {:>12.4} {:>7.3} {:>6.0}% {:>8} {:>8}  {} (n={}/{}, {})",
                w.name,
                m.name,
                median(&a),
                median(&b),
                median(&b) / median(&a),
                m.bound * 100.0,
                pct(spread(&a)),
                pct(spread(&b)),
                verdict.name(),
                a.len(),
                b.len(),
                m.unit,
            );
        }
    }
    let mismatches = exact_mismatches(&old, &new);
    for m in &mismatches {
        println!("exact count differs — {m}");
    }
    Ok(all_ok && mismatches.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        assert_eq!(judge(&steady, &same, Better::Lower, 0.10), Verdict::Ok);
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Slower is better when higher is better, and the other way round.
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.10),
            Verdict::Regressed
        );
        // Spread wider than the bound: no verdict either way …
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(
            judge(&noisy, &same, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // … unless every new run beats every old run.
        let clear = [50.0, 51.0, 49.0];
        assert_eq!(judge(&noisy, &clear, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&[], &same, Better::Lower, 0.10), Verdict::Missing);
        // One run a side has no spread to speak of; the medians decide.
        assert_eq!(judge(&[100.0], &[105.0], Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&[100.0], &[111.0], Better::Lower, 0.10),
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_counts_are_compared_per_workload_seed_and_phase() {
        let doc = |edges: u64| {
            Json::parse(&format!(
                r#"{{"runs": [{{"workload": "pr-cache", "seed": 7, "trace": false, "exact": {{"graph.edges": {edges}, "sum": "ab"}}}}]}}"#
            ))
            .unwrap()
        };
        assert!(exact_mismatches(&doc(955532), &doc(955532)).is_empty());
        let diff = exact_mismatches(&doc(955532), &doc(955533));
        assert_eq!(diff.len(), 1);
        assert!(diff[0].contains("graph.edges") && diff[0].contains("pr-cache seed 7"));
    }
}
