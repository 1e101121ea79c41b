//! The benchmark's own spans. They are recorded around calls into the
//! program's public functions, from these files only; nothing inside the
//! program changes. Spans stay in memory and are written with the results.

use crate::json::{obj, Json};
use std::time::{Duration, Instant};

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Built from a duration the program reported (`PhaseTimings`), not
    /// from two clock reads here; laid end to end inside its parent.
    pub synthetic: bool,
}

pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_owned(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Spans recorded so far; also the id the next span will get.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            synthetic: false,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes `id` (and, defensively, anything opened inside it that was
    /// left open) and returns its duration.
    pub fn end(&mut self, id: SpanId) -> Duration {
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        self.duration(id)
    }

    /// Times one call as a leaf span.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, Duration) {
        let id = self.begin(name);
        let r = f();
        (r, self.end(id))
    }

    /// Records a span measured elsewhere (a client thread's request) under
    /// `parent`.
    pub fn add(&mut self, parent: SpanId, name: &str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_owned(),
            parent: Some(parent),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            synthetic: false,
        });
    }

    /// Splits `parent` into children from durations the program reported
    /// for that very call, laid end to end from the parent's start; what
    /// they leave uncovered is the parent's self time.
    pub fn add_phases(&mut self, parent: SpanId, phases: &[(&str, Duration)]) {
        let mut at = self.spans[parent].start_ns;
        for (name, d) in phases {
            let end = at + d.as_nanos() as u64;
            self.spans.push(Span {
                name: (*name).to_owned(),
                parent: Some(parent),
                start_ns: at,
                end_ns: end,
                synthetic: true,
            });
            at = end;
        }
    }

    pub fn duration(&self, id: SpanId) -> Duration {
        let s = &self.spans[id];
        Duration::from_nanos(s.end_ns.saturating_sub(s.start_ns))
    }

    /// A span's duration minus the part of it its children cover. Children
    /// on several threads may overlap, so the cover is the union of their
    /// intervals, clipped to the span.
    pub fn self_time(&self, id: SpanId) -> Duration {
        let s = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        Duration::from_nanos((s.end_ns - s.start_ns).saturating_sub(covered))
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("id", id.into()),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("name", s.name.as_str().into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("self_ns", (self.self_time(id).as_nanos() as u64).into()),
                    ("synthetic", s.synthetic.into()),
                ])
            })
            .collect::<Vec<_>>();
        obj([
            ("workload", self.workload.as_str().into()),
            ("spans", spans.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(Option<SpanId>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new("test");
        for &(parent, start_ns, end_ns) in spans {
            t.spans.push(Span {
                name: "s".into(),
                parent,
                start_ns,
                end_ns,
                synthetic: false,
            });
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = tracer_with(&[
            (None, 0, 100),
            (Some(0), 10, 30),
            (Some(0), 50, 90),
            (Some(1), 12, 20),
        ]);
        assert_eq!(t.self_time(0), Duration::from_nanos(40));
        assert_eq!(t.self_time(1), Duration::from_nanos(12));
        assert_eq!(t.self_time(3), Duration::from_nanos(8));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two client threads overlap on [20, 60); one child runs past the end.
        let t = tracer_with(&[
            (None, 0, 100),
            (Some(0), 10, 60),
            (Some(0), 20, 80),
            (Some(0), 90, 150),
        ]);
        assert_eq!(t.self_time(0), Duration::from_nanos(100 - 70 - 10));
    }

    #[test]
    fn begin_end_nest_and_phases_leave_the_overhead() {
        let mut t = Tracer::new("test");
        let outer = t.begin("solve");
        let ((), inner) = t.time("leaf", || std::thread::sleep(Duration::from_millis(2)));
        let total = t.end(outer);
        assert_eq!(t.spans[1].parent, Some(outer));
        assert!(inner >= Duration::from_millis(2) && total >= inner);
        assert_eq!(t.self_time(outer), total - inner);

        let mut t = tracer_with(&[(None, 1000, 2000)]);
        t.add_phases(
            0,
            &[
                ("scatter", Duration::from_nanos(200)),
                ("gather", Duration::from_nanos(700)),
            ],
        );
        assert_eq!(t.self_time(0), Duration::from_nanos(100));
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (1200, 1900));
        assert!(t.spans[2].synthetic);
    }
}
