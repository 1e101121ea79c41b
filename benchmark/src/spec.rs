//! The benchmark's dictionary: workloads, end-to-end metrics with their
//! regression bounds, and the per-layer rows. `BENCHMARK.json` at the
//! repository root states the same tables for the driver; a unit test
//! keeps the two in step.

use pcpm_core::BinFormatKind;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A gated end-to-end metric: `bound` is the share of the old median by
/// which the new median may get worse before `compare` says `regressed`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's contract), so
/// `op_ms` / `alt_ms` name a role and each workload's `why` says what
/// fills it. Failures are not a metric here: they travel in the result
/// line's `attempted` / `failed` counts.
///
/// The bounds are what runs of one commit on the 2-vCPU seed host support
/// (README, "A/A"): within one hour the quartile spread reached 12 %
/// (`op_ms` on `ppr-batch`), and between sessions an hour apart medians
/// moved by up to 17 % with the same seeds, so every timing carries the
/// 25 % the driver allows at most; resident memory holds 2 % and carries 10.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "alt_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// What the measured phase of a workload does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Full PageRank solves: `op_ms` at `nproc` threads, `alt_ms` on one.
    Solve,
    /// Eight single-seed PPR queries: `op_ms` per query batched,
    /// `alt_ms` per query one after another on the same engine.
    PprBatch,
    /// In-process `pcpm-serve`: `op_ms` read round trip (reads only),
    /// `alt_ms` update due → first reply computed at its epoch.
    Serve,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// RMAT scale of the full tier / of `--quick`.
    pub scale: u32,
    pub quick_scale: u32,
    pub format: BinFormatKind,
    /// Power iterations per solve / query / served request.
    pub iterations: usize,
    /// Iterations of a PPR query in the traced phase, probed or served: the
    /// workload's own where PPR is its subject, two elsewhere.
    pub traced_ppr_iterations: usize,
    /// Compare scores with the serial f64 reference (O(iterations · E)
    /// on one thread, so only where that is cheap).
    pub reference_check: bool,
}

pub const EDGE_FACTOR: u32 = 16;
pub const PPR_QUERIES: usize = 8;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pr-dram",
        why: "scale-22 RMAT, wide bins, 20 iters: streams exceed LLC, so a bytes-moved change shows only here; op=solve at nproc threads, alt=same solve on 1 thread",
        kind: Kind::Solve,
        scale: 22,
        quick_scale: 14,
        format: BinFormatKind::Wide,
        iterations: 20,
        traced_ppr_iterations: 2,
        reference_check: false,
    },
    Workload {
        name: "pr-cache",
        why: "same config at scale 16, 200 iters: cache-resident control where a bandwidth change must read no change and per-step overhead dominates; op/alt as pr-dram",
        kind: Kind::Solve,
        scale: 16,
        quick_scale: 12,
        format: BinFormatKind::Wide,
        iterations: 200,
        traced_ppr_iterations: 2,
        reference_check: true,
    },
    Workload {
        name: "ppr-batch",
        why: "scale-20 RMAT, delta bins, 8 PPR queries x 10 iters: varint decode and Q accumulators; op=per query in one batch, alt=per query run one after another",
        kind: Kind::PprBatch,
        scale: 20,
        quick_scale: 14,
        format: BinFormatKind::Delta,
        iterations: 10,
        traced_ppr_iterations: 10,
        reference_check: false,
    },
    Workload {
        name: "serve-mixed",
        why: "in-process pcpm-serve, scale 16: proto, queueing, epoch swap, repair; op=PPR round-trip p50 with 2 closed-loop readers, alt=update due to first reply at its epoch, p50",
        kind: Kind::Serve,
        scale: 16,
        quick_scale: 12,
        format: BinFormatKind::Wide,
        iterations: 20,
        traced_ppr_iterations: 20,
        reference_check: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Per-layer rows `(name, unit, better)`, all measured on every workload's
/// own inputs in the traced phase. Single-thread unless the name says
/// otherwise; "computed" bytes come from array sizes, not counters.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("host.nproc", "count", Better::Higher),
    ("host.llc_bytes", "bytes", Better::Higher),
    ("host.triad_array_bytes", "bytes", Better::Higher),
    ("host.triad_gbps_1t", "GB/s", Better::Higher),
    ("host.triad_gbps", "GB/s", Better::Higher),
    ("graph.gen_s", "s", Better::Lower),
    ("graph.nodes", "count", Better::Higher),
    ("graph.edges", "count", Better::Higher),
    ("png.build_s", "s", Better::Lower),
    ("png.compression_r", "ratio", Better::Higher),
    ("png.bytes", "bytes", Better::Lower),
    ("format.build_s", "s", Better::Lower),
    ("format.dest_bytes_per_edge", "B/edge", Better::Lower),
    ("format.aux_bytes", "bytes", Better::Lower),
    ("format.ws_over_llc", "ratio", Better::Lower),
    ("scatter.ns_per_edge", "ns/edge", Better::Lower),
    ("scatter.bytes_per_edge", "B/edge", Better::Lower),
    ("scatter.gbps", "GB/s", Better::Higher),
    ("gather.ns_per_edge", "ns/edge", Better::Lower),
    ("gather.bytes_per_edge", "B/edge", Better::Lower),
    ("gather.gbps", "GB/s", Better::Higher),
    ("gather.pct_of_roof", "%", Better::Higher),
    ("gather.solo_ns_per_edge.wide", "ns/edge", Better::Lower),
    ("gather.solo_ns_per_edge.compact", "ns/edge", Better::Lower),
    ("gather.solo_ns_per_edge.delta", "ns/edge", Better::Lower),
    (
        "gather.many8_ns_per_edge_query.wide",
        "ns/edge",
        Better::Lower,
    ),
    (
        "gather.many8_ns_per_edge_query.compact",
        "ns/edge",
        Better::Lower,
    ),
    (
        "gather.many8_ns_per_edge_query.delta",
        "ns/edge",
        Better::Lower,
    ),
    ("gather.delta_decode_ns_per_edge", "ns/edge", Better::Lower),
    ("backend.step_ns_per_edge", "ns/edge", Better::Lower),
    ("backend.step_overhead_us", "us", Better::Lower),
    ("backend.scaling_eff", "ratio", Better::Higher),
    (
        "backend.step_many8_ns_per_edge_query",
        "ns/edge",
        Better::Lower,
    ),
    ("backend.batch_amortization", "ratio", Better::Higher),
    ("pagerank.apply_ns_per_node", "ns/node", Better::Lower),
    ("pagerank.driver_overhead_frac", "ratio", Better::Lower),
    ("pagerank.iterations", "count", Better::Lower),
    ("algos.ppr_iterations", "count", Better::Lower),
    ("algos.ppr_apply_ms_per_query", "ms", Better::Lower),
    ("telemetry.overhead_frac", "ratio", Better::Lower),
    (
        "telemetry.dest_stream_bytes_per_step",
        "bytes",
        Better::Lower,
    ),
    ("memsim.pcpm_bytes_per_edge", "B/edge", Better::Lower),
    ("memsim.bvgas_bytes_per_edge", "B/edge", Better::Lower),
    ("memsim.pdpr_bytes_per_edge", "B/edge", Better::Lower),
    ("memsim.model_over_computed", "ratio", Better::Lower),
    ("baselines.pdpr_setup_s", "s", Better::Lower),
    ("baselines.pdpr_solve_s", "s", Better::Lower),
    ("baselines.bvgas_setup_s", "s", Better::Lower),
    ("baselines.bvgas_solve_s", "s", Better::Lower),
    ("baselines.speedup_vs_pdpr", "ratio", Better::Higher),
    ("baselines.speedup_vs_bvgas", "ratio", Better::Higher),
    ("baselines.rel_l1_diff", "ratio", Better::Lower),
    ("snapshot.save_s", "s", Better::Lower),
    ("snapshot.load_s", "s", Better::Lower),
    ("snapshot.bytes", "bytes", Better::Lower),
    ("stream.apply_ms", "ms", Better::Lower),
    ("update.repair_ms", "ms", Better::Lower),
    ("update.rebuild_ms", "ms", Better::Lower),
    ("update.partitions_repaired_frac", "ratio", Better::Lower),
    ("proto.encode_us_per_reply", "us", Better::Lower),
    ("proto.decode_us_per_reply", "us", Better::Lower),
    ("proto.reply_bytes", "bytes", Better::Lower),
    ("serve.setup_s", "s", Better::Lower),
    ("serve.qps", "1/s", Better::Higher),
    ("serve.read_p50_ms", "ms", Better::Lower),
    ("serve.read_tail_ms", "ms", Better::Lower),
    ("serve.read_tail_pct", "%", Better::Higher),
    ("serve.mixed_read_p50_ms", "ms", Better::Lower),
    ("serve.mixed_read_tail_ms", "ms", Better::Lower),
    ("serve.mixed_read_tail_pct", "%", Better::Higher),
    ("serve.update_publish_p50_ms", "ms", Better::Lower),
    ("serve.swap_first_answer_p50_ms", "ms", Better::Lower),
    ("serve.update_visible_p50_ms", "ms", Better::Lower),
    ("serve.exec_mean_ms", "ms", Better::Lower),
    ("serve.overhead_mean_ms", "ms", Better::Lower),
    ("serve.queue_wait_mean_us", "us", Better::Lower),
    ("serve.writer_publish_mean_ms", "ms", Better::Lower),
    ("serve.requests_sent", "count", Better::Higher),
    ("serve.requests_ok", "count", Better::Higher),
    ("serve.requests_failed", "count", Better::Lower),
    ("serve.generator_late_max_ms", "ms", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// The driver's rule for a metric or workload name: starts with a letter
    /// or digit, then letters, digits, `_`, `.`, `-`; at most 64 characters.
    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        let Some(first) = chars.next() else {
            return false;
        };
        s.len() <= 64
            && first.is_ascii_alphanumeric()
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The driver's rule for a unit: 1..=16 of letters, digits, `_/%.-`.
    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_validation_follows_the_contract() {
        for ok in ["op_ms", "gather.solo_ns_per_edge.wide", "pr-dram", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-x",
            "with space",
            "a/b",
            "p95%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("GB/s") && valid_unit("%") && valid_unit("ns/edge"));
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn tables_use_valid_unique_names() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.1)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let rows =
            |key: &str| -> Vec<Json> { doc.get(key).and_then(Json::as_array).expect(key).to_vec() };
        let field = |row: &Json, key: &str| row.get(key).and_then(Json::as_str).map(str::to_owned);

        let workloads = rows("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (row, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(row, "name").as_deref(), Some(w.name));
            assert_eq!(field(row, "why").as_deref(), Some(w.why));
        }
        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(row, "name").as_deref(), Some(m.name));
            assert_eq!(field(row, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(row, "better").as_deref(), Some(m.better.name()));
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(row, "name").as_deref(), Some(m.0));
            assert_eq!(field(row, "unit").as_deref(), Some(m.1));
            assert_eq!(field(row, "better").as_deref(), Some(m.2.name()));
        }
    }
}
