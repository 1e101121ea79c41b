//! What one run of one workload produces, and how it is printed: a table
//! for people, one JSON line for the driver, one JSON document for files.

use crate::json::{obj, Json};

pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Timed repetitions (or requests) behind the value; 1 for a count.
    pub samples: usize,
}

#[derive(Default)]
pub struct RunResult {
    pub rows: Vec<Row>,
    /// Operations tried (solves, queries, requests, updates) and how many
    /// of them failed, were refused or gave a wrong answer.
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Counts and checksums that must repeat exactly for a given seed.
    pub exact: Vec<(String, Json)>,
    /// Free-form context for the result file (regime, what was omitted).
    pub notes: Vec<(String, Json)>,
}

impl RunResult {
    pub fn row(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.rows.push(Row {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    pub fn check(&mut self, what: &str, held: bool) {
        self.checks.push((what.to_owned(), held));
    }

    /// One operation tried; `ok` says whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn exact(&mut self, name: &str, value: impl Into<Json>) {
        self.exact.push((name.to_owned(), value.into()));
    }

    pub fn note(&mut self, name: &str, value: impl Into<Json>) {
        self.notes.push((name.to_owned(), value.into()));
    }

    /// Every operation succeeded, every check held, every value is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.checks.iter().all(|(_, held)| *held)
            && self.rows.iter().all(|r| r.value.is_finite())
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The last line of standard output, as the driver reads it.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .rows
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    obj([("value", r.value.into()), ("unit", r.unit.into())]),
                )
            })
            .collect();
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }

    /// The full record of the run for a result file.
    pub fn to_json(&self, workload: &str, seed: u64, trace: bool) -> Json {
        let metrics = self
            .rows
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    obj([
                        ("value", r.value.into()),
                        ("unit", r.unit.into()),
                        ("samples", r.samples.into()),
                    ]),
                )
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|(what, held)| (what.clone(), Json::Bool(*held)))
            .collect();
        obj([
            ("workload", workload.into()),
            ("seed", seed.into()),
            ("trace", trace.into()),
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("fail_frac", self.fail_frac().into()),
            ("metrics", Json::Obj(metrics)),
            ("checks", Json::Obj(checks)),
            ("exact", Json::Obj(self.exact.clone())),
            ("notes", Json::Obj(self.notes.clone())),
        ])
    }

    /// Every metric by name with its unit and sample count, then the checks.
    pub fn table(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut out = format!(
            "== {workload}  seed {seed}  {}  attempted {}  failed {} ==\n",
            if trace {
                "traced phase (per-layer rows)"
            } else {
                "end to end (telemetry and spans off)"
            },
            self.attempted,
            self.failed
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<42} {:>16.6} {:<8} n={}\n",
                r.name, r.value, r.unit, r.samples
            ));
        }
        for (what, held) in &self.checks {
            out.push_str(&format!(
                "  [{}] {what}\n",
                if *held { "ok" } else { "FAILED" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = RunResult::default();
        r.row("op_ms", 1.2034, "ms", 12);
        r.row("setup_s", 0.8127, "s", 5);
        r.op(true);
        r.check("bits", true);
        let line = r.driver_line();
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        let m = v.get("metrics").unwrap().get("op_ms").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn a_failed_check_a_failed_op_or_a_nan_makes_the_run_incorrect() {
        let ok = || {
            let mut r = RunResult::default();
            r.op(true);
            r.row("x", 1.0, "s", 1);
            r
        };
        assert!(ok().correct());
        let mut r = ok();
        r.check("bits", false);
        assert!(!r.correct());
        let mut r = ok();
        r.op(false);
        assert!(!r.correct() && r.fail_frac() == 0.5);
        let mut r = ok();
        r.row("y", f64::NAN, "s", 0);
        assert!(!r.correct());
        assert!(
            !RunResult::default().correct(),
            "nothing attempted is not a pass"
        );
    }
}
