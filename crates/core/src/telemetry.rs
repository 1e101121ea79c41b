//! Workspace-wide lightweight telemetry: relaxed atomic kernel counters
//! and span timers with a Chrome-trace exporter.
//!
//! The paper's whole argument is quantitative — PCPM wins because the
//! destID bin stream is DRAM-bandwidth-bound — so the reproduction must
//! be able to measure that from *inside* a run. This module provides the
//! two primitives every later perf PR reports against:
//!
//! 1. **Counters** ([`counters`]): a process-global registry of relaxed
//!    [`AtomicU64`]s with a stable taxonomy (see [`CounterSnapshot`]).
//!    Recording is gated on a single relaxed [`AtomicBool`] load — when
//!    telemetry is disabled (the default) every `add_*` call is one
//!    predictable never-taken branch and **no atomic write happens**, so
//!    the hot scatter/gather loops pay nothing measurable. Counters are
//!    recorded at *phase-call* granularity from analytically known
//!    quantities (bin-stream byte lengths, partition counts, edge
//!    counts), never per edge inside a kernel loop.
//! 2. **Spans** ([`span`]): RAII wall-clock timers that, while a trace
//!    collection is active ([`start_tracing`]), append complete events
//!    to a global buffer. [`write_chrome_trace`] serializes the buffer
//!    as Chrome-trace-format JSON (`chrome://tracing` / Perfetto); the
//!    `pcpm --trace-out FILE` flag is the CLI surface.
//!
//! Both primitives are `std`-only and safe (`pcpm-core` forbids
//! `unsafe`); neither allocates unless enabled.
//!
//! # Counter taxonomy
//!
//! | counter | meaning | recorded by |
//! | --- | --- | --- |
//! | `dest_stream_bytes_read` | bytes of the destID bin stream scanned by gather passes | one add per gather pass |
//! | `bins_decoded` | per-partition bin streams decoded by gather passes | one add per gather pass (`k`) |
//! | `varint_decodes` | delta values decoded, one per raw edge (delta format only) | one add per gather pass |
//! | `scatter_ns` / `gather_ns` | wall-clock of the two PCPM phases | one add per pass |
//! | `pool_jobs_dispatched` | rayon-shim jobs dispatched while inside `Engine::step` | one add per step |
//! | `batched_passes` | scans a multi-query batch ran: SpMM passes of at most 8 queries, or one per query where the backend has no batched kernel | one add per `Engine::step_many` (`Backend::scans`: `⌈Q / 8⌉`, or `Q`) |
//! | `batched_queries` | query vectors served by those passes | one add per `Engine::step_many` (`Q`) |
//! | `gather_scalar_ns` / `gather_unrolled_ns` | gather wall-clock split by the kernel variant that ran | one add per pass |
//! | `sparse_rounds` | fixed-point rounds pushed along the adjacency instead of gathered: they read no bin, so none of the counters above moves for them | one add per pushed round |
//! | `pushed_edges` | out-edges those rounds added along, summed over their queries | one add per pushed round |
//!
//! The batched pair is the amortization measurement: on the PCPM
//! dataplane a batch of `Q` runs as `⌈Q / 8⌉` passes, and each records `dest_stream_bytes_read`
//! **once** however many query vectors (at most eight) it carries, so
//! `dest_stream_bytes_read / batched_passes` staying flat as
//! `batched_queries / batched_passes` grows to 8 is the multi-query win
//! made observable.
//!
//! # Span taxonomy
//!
//! Every span name is a `'static` literal, opened at exactly one call
//! site, and registered in [`SPAN_NAMES`] — `pcpm-lint`'s
//! `telemetry-registry` rule enforces all three, so a trace viewer and
//! this table cannot drift apart.
//!
//! | span | covers | opened by |
//! | --- | --- | --- |
//! | `prepare` | PNG build + bin construction + kernel resolution | `PcpmBackend::build` |
//! | `build.count` | the count walk of a layout build: every `(s, p)` segment's compressed edges, raw edges and stream units (inside `prepare` on the engine path) | `png::build_layout` |
//! | `build.fill` | the fill walk of a layout build: PNG rows, destination stream and weights (inside `prepare` on the engine path) | `png::build_layout` |
//! | `scatter` | the PCPM scatter phase of one pass, whatever its width (the enclosing `step` / `step_many` span tells; a `step_many` wider than 8 holds one per pass) | `PcpmBackend::pass` |
//! | `gather` | the PCPM gather phase of one pass, the in-partition apply included | `PcpmBackend::pass` |
//! | `push` | one pushed fixed-point round: the push along the adjacency and the apply over every destination range (arg: batch width) | `Engine::push_many_with` |
//! | `step` | one backend-dispatched SpMV step (arg: step index) | `Engine::step` |
//! | `step_many` | one backend-dispatched SpMM pass (arg: batch width) | `Engine::step_many` |
//! | `update` | one update batch: the dataplane rebuilt over the post-update graph (arg: batch length) | `Engine::update` |
//! | `replay_batch` | one replayed update batch + its convergence loop (arg: batch index) | `stream::replay` |
//!
//! # Wall-clock discipline
//!
//! Kernel crates are forbidden (by the `determinism` lint rule) from
//! calling [`Instant::now`] directly: this module is the one sanctioned
//! owner of wall-clock access, and kernels time themselves through the
//! opaque [`stopwatch`] handle instead. That keeps every clock read in
//! one auditable place and makes "a kernel result depends on the
//! clock" impossible to write without tripping the lint.
//!
//! # Example
//!
//! ```
//! use pcpm_core::telemetry;
//!
//! telemetry::counters().set_enabled(true);
//! telemetry::counters().reset();
//! telemetry::counters().add_dest_stream_bytes_read(4096);
//! let snap = telemetry::counters().snapshot();
//! assert_eq!(snap.dest_stream_bytes_read, 4096);
//! telemetry::counters().set_enabled(false);
//! ```

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The process-global counter registry.
///
/// All reads and writes use [`Ordering::Relaxed`]: counters are
/// monotonic sums with no ordering relationship to each other, and a
/// [`snapshot`](Counters::snapshot) is only ever read for reporting
/// (between phases, or after a run), never to synchronize.
#[derive(Debug)]
pub struct Counters {
    enabled: AtomicBool,
    dest_stream_bytes_read: AtomicU64,
    bins_decoded: AtomicU64,
    varint_decodes: AtomicU64,
    scatter_ns: AtomicU64,
    gather_ns: AtomicU64,
    pool_jobs_dispatched: AtomicU64,
    batched_passes: AtomicU64,
    batched_queries: AtomicU64,
    gather_scalar_ns: AtomicU64,
    gather_unrolled_ns: AtomicU64,
    sparse_rounds: AtomicU64,
    pushed_edges: AtomicU64,
}

/// A point-in-time copy of every counter (see the module-level taxonomy
/// table for what each one means).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Bytes of the destID bin stream scanned by gather passes.
    pub dest_stream_bytes_read: u64,
    /// Per-partition bin streams decoded by gather passes.
    pub bins_decoded: u64,
    /// Delta values decoded, one per raw edge (delta format only).
    pub varint_decodes: u64,
    /// Cumulative wall-clock of scatter phases, nanoseconds.
    pub scatter_ns: u64,
    /// Cumulative wall-clock of gather phases, nanoseconds.
    pub gather_ns: u64,
    /// Rayon-shim jobs dispatched while inside `Engine::step`.
    pub pool_jobs_dispatched: u64,
    /// Multi-query (SpMM) passes executed through `Engine::step_many`.
    pub batched_passes: u64,
    /// Query vectors served by those batched passes.
    pub batched_queries: u64,
    /// Gather wall-clock spent in the scalar kernel, nanoseconds.
    pub gather_scalar_ns: u64,
    /// Gather wall-clock spent in the unrolled kernel, nanoseconds.
    pub gather_unrolled_ns: u64,
    /// Fixed-point rounds pushed along the adjacency instead of gathered.
    pub sparse_rounds: u64,
    /// Out-edges those pushed rounds added along.
    pub pushed_edges: u64,
}

impl CounterSnapshot {
    /// Total counter traffic — the sum of every counter. Zero iff
    /// nothing was recorded (the disabled-path invariant the tests
    /// assert).
    pub fn total(&self) -> u64 {
        self.dest_stream_bytes_read
            + self.bins_decoded
            + self.varint_decodes
            + self.scatter_ns
            + self.gather_ns
            + self.pool_jobs_dispatched
            + self.batched_passes
            + self.batched_queries
            + self.gather_scalar_ns
            + self.gather_unrolled_ns
            + self.sparse_rounds
            + self.pushed_edges
    }
}

macro_rules! counter_adders {
    ($($(#[$doc:meta])* $name:ident => $field:ident),+ $(,)?) => {
        $(
            $(#[$doc])*
            #[inline]
            pub fn $name(&self, v: u64) {
                if self.enabled.load(Ordering::Relaxed) {
                    self.$field.fetch_add(v, Ordering::Relaxed);
                }
            }
        )+
    };
}

impl Counters {
    const fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            dest_stream_bytes_read: AtomicU64::new(0),
            bins_decoded: AtomicU64::new(0),
            varint_decodes: AtomicU64::new(0),
            scatter_ns: AtomicU64::new(0),
            gather_ns: AtomicU64::new(0),
            pool_jobs_dispatched: AtomicU64::new(0),
            batched_passes: AtomicU64::new(0),
            batched_queries: AtomicU64::new(0),
            gather_scalar_ns: AtomicU64::new(0),
            gather_unrolled_ns: AtomicU64::new(0),
            sparse_rounds: AtomicU64::new(0),
            pushed_edges: AtomicU64::new(0),
        }
    }

    /// Turns counter recording on or off (process-wide). Off by
    /// default; while off, every `add_*` is a single relaxed load plus
    /// a never-taken branch.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether counter recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Zeroes every counter (the enabled flag is left alone).
    pub fn reset(&self) {
        self.dest_stream_bytes_read.store(0, Ordering::Relaxed);
        self.bins_decoded.store(0, Ordering::Relaxed);
        self.varint_decodes.store(0, Ordering::Relaxed);
        self.scatter_ns.store(0, Ordering::Relaxed);
        self.gather_ns.store(0, Ordering::Relaxed);
        self.pool_jobs_dispatched.store(0, Ordering::Relaxed);
        self.batched_passes.store(0, Ordering::Relaxed);
        self.batched_queries.store(0, Ordering::Relaxed);
        self.gather_scalar_ns.store(0, Ordering::Relaxed);
        self.gather_unrolled_ns.store(0, Ordering::Relaxed);
        self.sparse_rounds.store(0, Ordering::Relaxed);
        self.pushed_edges.store(0, Ordering::Relaxed);
    }

    /// Copies every counter out.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            dest_stream_bytes_read: self.dest_stream_bytes_read.load(Ordering::Relaxed),
            bins_decoded: self.bins_decoded.load(Ordering::Relaxed),
            varint_decodes: self.varint_decodes.load(Ordering::Relaxed),
            scatter_ns: self.scatter_ns.load(Ordering::Relaxed),
            gather_ns: self.gather_ns.load(Ordering::Relaxed),
            pool_jobs_dispatched: self.pool_jobs_dispatched.load(Ordering::Relaxed),
            batched_passes: self.batched_passes.load(Ordering::Relaxed),
            batched_queries: self.batched_queries.load(Ordering::Relaxed),
            gather_scalar_ns: self.gather_scalar_ns.load(Ordering::Relaxed),
            gather_unrolled_ns: self.gather_unrolled_ns.load(Ordering::Relaxed),
            sparse_rounds: self.sparse_rounds.load(Ordering::Relaxed),
            pushed_edges: self.pushed_edges.load(Ordering::Relaxed),
        }
    }

    counter_adders! {
        /// Adds gather-scanned destID-stream bytes.
        add_dest_stream_bytes_read => dest_stream_bytes_read,
        /// Adds decoded per-partition bin streams.
        add_bins_decoded => bins_decoded,
        /// Adds decoded delta values, one per raw edge (delta format).
        add_varint_decodes => varint_decodes,
        /// Adds scatter-phase wall-clock nanoseconds.
        add_scatter_ns => scatter_ns,
        /// Adds gather-phase wall-clock nanoseconds.
        add_gather_ns => gather_ns,
        /// Adds pool jobs dispatched during a step.
        add_pool_jobs_dispatched => pool_jobs_dispatched,
        /// Adds multi-query (SpMM) passes.
        add_batched_passes => batched_passes,
        /// Adds query vectors served by batched passes.
        add_batched_queries => batched_queries,
        /// Adds gather nanoseconds attributed to the scalar kernel.
        add_gather_scalar_ns => gather_scalar_ns,
        /// Adds gather nanoseconds attributed to the unrolled kernel.
        add_gather_unrolled_ns => gather_unrolled_ns,
        /// Adds pushed fixed-point rounds.
        add_sparse_rounds => sparse_rounds,
        /// Adds out-edges pushed along by those rounds.
        add_pushed_edges => pushed_edges,
    }
}

static COUNTERS: Counters = Counters::new();

/// The process-global counter registry.
pub fn counters() -> &'static Counters {
    &COUNTERS
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One completed span: a named wall-clock interval on one thread,
/// Chrome-trace "complete event" shaped (`ph: "X"`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (`prepare`, `step`, `scatter`, `gather`, …). Static
    /// and identifier-like by construction, so serialization never
    /// needs escaping.
    pub name: &'static str,
    /// Optional numeric argument (step index, batch index, …),
    /// serialized as `args: {"n": …}`.
    pub arg: Option<u64>,
    /// Start, microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Recording thread (small dense IDs handed out per thread).
    pub tid: u64,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The fixed time origin all span timestamps are relative to
/// (initialized on first use).
fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    trace_epoch().elapsed().as_micros() as u64
}

/// Starts collecting spans into the global trace buffer (the buffer is
/// cleared first, so one collection never mixes with another).
pub fn start_tracing() {
    if let Ok(mut ev) = EVENTS.lock() {
        ev.clear();
    }
    // Touch the epoch before enabling so every span shares one origin.
    let _ = trace_epoch();
    TRACING.store(true, Ordering::Relaxed);
}

/// Stops collecting and returns every span recorded since
/// [`start_tracing`].
pub fn stop_tracing() -> Vec<TraceEvent> {
    TRACING.store(false, Ordering::Relaxed);
    match EVENTS.lock() {
        Ok(mut ev) => std::mem::take(&mut *ev),
        Err(_) => Vec::new(),
    }
}

/// Whether a trace collection is currently active.
pub fn is_tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// RAII span timer: records a [`TraceEvent`] covering its lifetime when
/// dropped, if a collection was active when it was created. When
/// tracing is off, construction is one relaxed load and drop is a
/// no-op.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    arg: Option<u64>,
    /// `Some(start)` iff tracing was active at construction.
    start_us: Option<u64>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start_us {
            let end = now_us();
            let event = TraceEvent {
                name: self.name,
                arg: self.arg,
                ts_us: start,
                dur_us: end.saturating_sub(start),
                tid: TID.with(|t| *t),
            };
            if let Ok(mut ev) = EVENTS.lock() {
                ev.push(event);
            }
        }
    }
}

/// Every span name the workspace may open, each at exactly one call
/// site. See the module docs' span taxonomy table for what each one
/// covers. `pcpm-lint` checks call sites against this registry, so
/// adding a span means adding it here *and* to the table.
pub const SPAN_NAMES: [&str; 10] = [
    "prepare",
    "build.count",
    "build.fill",
    "scatter",
    "gather",
    "push",
    "step",
    "step_many",
    "update",
    "replay_batch",
];

/// An opaque wall-clock stopwatch, started by [`stopwatch`].
///
/// This is the only clock handle kernel crates may hold: it exposes
/// elapsed time for phase-timing reports but no absolute timestamp, so
/// no kernel decision can branch on "what time is it".
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Wall-clock time since [`stopwatch`] created this handle.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Starts a [`Stopwatch`]. The telemetry module owns wall-clock access
/// for the kernel crates (see module docs); this is the sanctioned
/// replacement for `Instant::now()` in phase-timing code.
pub fn stopwatch() -> Stopwatch {
    Stopwatch {
        start: Instant::now(),
    }
}

/// Opens a span named `name` covering the guard's lifetime.
pub fn span(name: &'static str) -> SpanGuard {
    span_impl(name, None)
}

/// Opens a span with a numeric argument (step index, batch index, …).
pub fn span_n(name: &'static str, arg: u64) -> SpanGuard {
    span_impl(name, Some(arg))
}

fn span_impl(name: &'static str, arg: Option<u64>) -> SpanGuard {
    let start_us = if TRACING.load(Ordering::Relaxed) {
        Some(now_us())
    } else {
        None
    };
    SpanGuard {
        name,
        arg,
        start_us,
    }
}

/// Serializes spans as Chrome-trace-format JSON (an array of complete
/// events; `ts`/`dur` in microseconds), the format `chrome://tracing`
/// and Perfetto open directly.
pub fn write_chrome_trace<W: Write>(mut w: W, events: &[TraceEvent]) -> std::io::Result<()> {
    writeln!(w, "[")?;
    for (i, e) in events.iter().enumerate() {
        let comma = if i + 1 == events.len() { "" } else { "," };
        match e.arg {
            Some(n) => writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"n\":{}}}}}{}",
                e.name, e.tid, e.ts_us, e.dur_us, n, comma
            )?,
            None => writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}{}",
                e.name, e.tid, e.ts_us, e.dur_us, comma
            )?,
        }
    }
    writeln!(w, "]")?;
    Ok(())
}

/// Renders spans as a Chrome-trace JSON string (see
/// [`write_chrome_trace`]).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, events).expect("write to Vec cannot fail");
    String::from_utf8(buf).expect("trace output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counter tests record into a private registry: the engine tests
    // of this binary run concurrently and record into the process-global
    // one whenever it is enabled, which would break the exact counts.

    #[test]
    fn disabled_counters_record_zero_traffic() {
        let c = Counters::new();
        c.add_dest_stream_bytes_read(10);
        c.add_bins_decoded(10);
        c.add_varint_decodes(10);
        c.add_scatter_ns(10);
        c.add_gather_ns(10);
        c.add_pool_jobs_dispatched(10);
        c.add_batched_passes(10);
        c.add_batched_queries(10);
        c.add_gather_scalar_ns(10);
        c.add_gather_unrolled_ns(10);
        assert_eq!(c.snapshot().total(), 0, "disabled path must not write");
        assert!(
            !counters().is_enabled(),
            "the global registry is off by default"
        );
    }

    #[test]
    fn concurrent_recording_loses_no_counts() {
        let c = Counters::new();
        c.set_enabled(true);
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        c.add_dest_stream_bytes_read(1);
                        c.add_varint_decodes(2);
                    }
                });
            }
        });
        let snap = c.snapshot();
        assert_eq!(snap.dest_stream_bytes_read, THREADS as u64 * PER_THREAD);
        assert_eq!(snap.varint_decodes, 2 * THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn snapshot_reset_round_trip() {
        let c = Counters::new();
        c.set_enabled(true);
        c.add_scatter_ns(5);
        c.add_gather_ns(7);
        let snap = c.snapshot();
        assert_eq!(snap.scatter_ns, 5);
        assert_eq!(snap.gather_ns, 7);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    /// The two span tests toggle / observe the process-global tracing
    /// flag; serialize them against each other.
    fn lock_tracing() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// A minimal JSON reader sufficient to validate the Chrome-trace
    /// output: objects, arrays, strings, integers. Returns true iff the
    /// whole input is one valid value.
    fn json_parses(s: &str) -> bool {
        fn skip_ws(b: &[u8], mut i: usize) -> usize {
            while i < b.len() && (b[i] as char).is_whitespace() {
                i += 1;
            }
            i
        }
        fn value(b: &[u8], i: usize) -> Option<usize> {
            let i = skip_ws(b, i);
            match b.get(i)? {
                b'[' => {
                    let mut i = skip_ws(b, i + 1);
                    if b.get(i) == Some(&b']') {
                        return Some(i + 1);
                    }
                    loop {
                        i = value(b, i)?;
                        i = skip_ws(b, i);
                        match b.get(i)? {
                            b',' => i += 1,
                            b']' => return Some(i + 1),
                            _ => return None,
                        }
                    }
                }
                b'{' => {
                    let mut i = skip_ws(b, i + 1);
                    if b.get(i) == Some(&b'}') {
                        return Some(i + 1);
                    }
                    loop {
                        i = skip_ws(b, i);
                        if *b.get(i)? != b'"' {
                            return None;
                        }
                        i = value(b, i)?; // key string
                        i = skip_ws(b, i);
                        if *b.get(i)? != b':' {
                            return None;
                        }
                        i = value(b, i + 1)?;
                        i = skip_ws(b, i);
                        match b.get(i)? {
                            b',' => i += 1,
                            b'}' => return Some(i + 1),
                            _ => return None,
                        }
                    }
                }
                b'"' => {
                    let mut i = i + 1;
                    while *b.get(i)? != b'"' {
                        i += 1;
                    }
                    Some(i + 1)
                }
                b'0'..=b'9' | b'-' => {
                    let mut i = i + 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    Some(i)
                }
                _ => None,
            }
        }
        let b = s.as_bytes();
        match value(b, 0) {
            Some(end) => skip_ws(b, end) == b.len(),
            None => false,
        }
    }

    #[test]
    fn spans_nest_are_monotonic_and_serialize_to_valid_json() {
        let _g = lock_tracing();
        start_tracing();
        {
            let _outer = span_n("step", 0);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("scatter");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _inner = span("gather");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        // The trace buffer is process-global and concurrently running
        // engine tests emit spans of their own while collection is on:
        // keep this thread's.
        let me = TID.with(|t| *t);
        let mut events = stop_tracing();
        events.retain(|e| e.tid == me);
        assert_eq!(events.len(), 3, "three spans recorded");
        // Children are recorded (dropped) before the parent.
        let scatter = events.iter().find(|e| e.name == "scatter").unwrap();
        let gather = events.iter().find(|e| e.name == "gather").unwrap();
        let step = events.iter().find(|e| e.name == "step").unwrap();
        assert_eq!(step.arg, Some(0));
        // Proper nesting: both phases inside the step interval.
        for child in [scatter, gather] {
            assert!(child.ts_us >= step.ts_us);
            assert!(child.ts_us + child.dur_us <= step.ts_us + step.dur_us);
            assert_eq!(child.tid, step.tid, "same thread");
        }
        // Monotonic: gather starts after scatter ends.
        assert!(gather.ts_us >= scatter.ts_us + scatter.dur_us);

        let json = chrome_trace_json(&events);
        assert!(json_parses(&json), "trace must be valid JSON:\n{json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"scatter\""));
        assert!(json.contains("\"args\":{\"n\":0}"));
        // And an empty trace is still a valid document.
        assert!(json_parses(&chrome_trace_json(&[])));
    }

    #[test]
    fn spans_are_noops_when_tracing_is_off() {
        let _g = lock_tracing();
        let g = span("never-recorded");
        assert!(g.start_us.is_none());
    }
}
