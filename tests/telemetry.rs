//! Integration tests for the workspace telemetry layer: engine-level
//! counters and span tracing driven through real runs, across all three
//! bin formats.
//!
//! The telemetry registry is process-global, so every test here takes
//! the same lock before touching it — parallel test threads must not
//! interleave enable/reset/snapshot cycles.

use pcpm::core::algebra::PlusF32;
use pcpm::core::telemetry;
use pcpm::core::{BackendKind, BinFormatKind, GatherKind, ScatterKind};
use pcpm::prelude::*;

static REGISTRY: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock_registry() -> std::sync::MutexGuard<'static, ()> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

fn test_graph() -> Csr {
    pcpm::graph::gen::erdos_renyi(2000, 16000, 5).unwrap()
}

fn cfg(format: BinFormatKind) -> PcpmConfig {
    PcpmConfig::default()
        .with_partition_bytes(4096)
        .with_bin_format(format)
}

const STEPS: usize = 4;

fn run_steps(graph: &Csr, format: BinFormatKind) -> ExecutionReport {
    let mut engine = Engine::<PlusF32>::builder(graph)
        .config(cfg(format))
        .build()
        .unwrap();
    let x: Vec<f32> = (0..graph.num_nodes()).map(|v| (v % 7) as f32).collect();
    let mut y = vec![0.0f32; graph.num_nodes() as usize];
    for _ in 0..STEPS {
        engine.step(&x, &mut y).unwrap();
    }
    engine.report()
}

#[test]
fn counters_record_all_formats_and_disabled_path_stays_silent() {
    let _guard = lock_registry();
    let graph = test_graph();
    let tm = telemetry::counters();

    for format in BinFormatKind::ALL {
        // Disabled: a full run must record exactly nothing.
        tm.set_enabled(false);
        tm.reset();
        let report = run_steps(&graph, format);
        assert_eq!(
            tm.snapshot().total(),
            0,
            "disabled telemetry recorded traffic for {format}"
        );

        // The report carries the dest-stream accounting regardless of
        // the telemetry switch — it comes from the pipeline itself.
        let per_step = report.dest_stream_bytes.expect("pcpm reports stream bytes");
        assert!(per_step > 0);
        assert_eq!(
            report.dest_stream_total_bytes(),
            Some(per_step * STEPS as u64)
        );
        let gbps = report.dest_stream_gbps().expect("steps ran, gather timed");
        assert!(gbps > 0.0, "effective bandwidth must be positive");

        // Enabled: the same run must record the analytically known
        // quantities.
        tm.set_enabled(true);
        tm.reset();
        let report = run_steps(&graph, format);
        tm.set_enabled(false);
        let snap = tm.snapshot();
        assert_eq!(
            snap.dest_stream_bytes_read,
            report.dest_stream_bytes.unwrap() * STEPS as u64,
            "{format}: counter must match the report's per-step bytes x steps"
        );
        assert!(snap.bins_decoded > 0, "{format}: bins_decoded");
        assert!(snap.scatter_ns > 0, "{format}: scatter_ns");
        assert!(snap.gather_ns > 0, "{format}: gather_ns");
        if format == BinFormatKind::Delta {
            assert!(snap.varint_decodes > 0, "delta pays a varint per edge");
        } else {
            assert_eq!(snap.varint_decodes, 0, "{format} decodes no varints");
        }
    }
}

/// The report and the counters count the same scans: for every backend,
/// format and ablation, a batch of 1, 3 or 9 queries adds to
/// `ExecutionReport`'s totals exactly what it adds to the telemetry,
/// ablations included, which scan the bins once per query.
#[test]
fn every_report_total_equals_its_telemetry_counter() {
    let _guard = lock_registry();
    let graph = std::sync::Arc::new(test_graph());
    let n = graph.num_nodes() as usize;
    let tm = telemetry::counters();
    let (png, csr) = (ScatterKind::Png, ScatterKind::CsrTraversal);
    let (avoiding, branchy) = (GatherKind::BranchAvoiding, GatherKind::Branchy);
    let mut variants = vec![(BackendKind::Pull, BinFormatKind::Wide, png, avoiding)];
    for format in BinFormatKind::ALL {
        variants.push((BackendKind::Pcpm, format, png, avoiding));
        variants.push((BackendKind::Pcpm, format, csr, avoiding));
    }
    variants.push((BackendKind::Pcpm, BinFormatKind::Wide, png, branchy));
    for (backend, format, scatter, gather) in variants {
        let mut engine = Engine::<PlusF32>::builder_shared(&graph)
            .config(cfg(format))
            .backend(backend)
            .scatter(scatter)
            .gather(gather)
            .build()
            .unwrap();
        let batched = backend == BackendKind::Pcpm && (scatter, gather) == (png, avoiding);
        for width in [1usize, 3, 9] {
            let label = format!("{backend:?} {format} {scatter:?} {gather:?} Q={width}");
            let xs: Vec<Vec<f32>> = (0..width).map(|q| vec![q as f32; n]).collect();
            let x_refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
            let mut ys = vec![vec![0.0f32; n]; width];
            let mut y_refs: Vec<&mut [f32]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
            let before = engine.report();
            tm.set_enabled(true);
            tm.reset();
            engine.step_many(&x_refs, &mut y_refs).unwrap();
            tm.set_enabled(false);
            let snap = tm.snapshot();
            let after = engine.report();
            let scans = after.steps - before.steps;
            let bytes = |r: &ExecutionReport| r.dest_stream_total_bytes().unwrap_or(0);
            assert_eq!(
                snap.dest_stream_bytes_read,
                bytes(&after) - bytes(&before),
                "{label}"
            );
            let passes = after.batch_passes - before.batch_passes;
            assert_eq!(snap.batched_passes, passes as u64, "{label}");
            assert_eq!(passes, scans, "{label}");
            let queries = after.batch_queries - before.batch_queries;
            assert_eq!(snap.batched_queries, queries as u64, "{label}");
            assert_eq!(queries, width, "{label}");
            let want = if batched { width.div_ceil(8) } else { width };
            assert_eq!(scans, want, "{label}");
            if backend == BackendKind::Pcpm {
                let decoded = scans as u64 * u64::from(after.partitions);
                assert_eq!(snap.bins_decoded, decoded, "{label}");
            }
        }
    }
}

#[test]
fn a_batch_wider_than_eight_counts_one_scan_per_pass() {
    // Nine queries run as a pass of eight lanes and a pass of one: two
    // scans of the destination stream, two batched passes, nine queries.
    let _guard = lock_registry();
    let graph = test_graph();
    let tm = telemetry::counters();
    for format in BinFormatKind::ALL {
        let mut engine = Engine::<PlusF32>::builder(&graph)
            .config(cfg(format))
            .build()
            .unwrap();
        let n = graph.num_nodes() as usize;
        let xs: Vec<Vec<f32>> = (0..9).map(|q| vec![q as f32; n]).collect();
        let x_refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        let mut ys = vec![vec![0.0f32; n]; 9];
        let mut y_refs: Vec<&mut [f32]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
        tm.set_enabled(true);
        tm.reset();
        engine.step_many(&x_refs, &mut y_refs).unwrap();
        tm.set_enabled(false);
        let snap = tm.snapshot();
        let report = engine.report();
        let per_scan = report.dest_stream_bytes.unwrap();
        assert_eq!(snap.dest_stream_bytes_read, 2 * per_scan, "{format}");
        assert_eq!(snap.batched_passes, 2, "{format}");
        assert_eq!(snap.batched_queries, 9, "{format}");
        assert_eq!(report.batch_passes, 2, "{format}");
        assert_eq!(report.batch_queries, 9, "{format}");
        assert_eq!(report.steps, 2, "{format}");
        assert_eq!(report.queries_served(), 9, "{format}");
        assert_eq!(report.dest_stream_total_bytes(), Some(2 * per_scan));
        // Bins decoded per pass do not scale with the batch width: the
        // two passes decode exactly twice what one solo step does.
        tm.set_enabled(true);
        tm.reset();
        engine.step(&xs[0], &mut ys[0]).unwrap();
        tm.set_enabled(false);
        assert_eq!(
            snap.bins_decoded,
            2 * tm.snapshot().bins_decoded,
            "{format}: bins decoded per pass must not scale with Q"
        );
    }
}

#[test]
fn wide_stream_is_strictly_larger_than_compact_and_delta() {
    let _guard = lock_registry();
    let graph = test_graph();
    let reports: Vec<ExecutionReport> = BinFormatKind::ALL
        .iter()
        .map(|&f| run_steps(&graph, f))
        .collect();
    let bytes: Vec<u64> = reports
        .iter()
        .map(|r| r.dest_stream_bytes.unwrap())
        .collect();
    // ALL is [wide, compact, delta]: wide pays 4 B/edge, compact 2,
    // delta ~1-2 — the paper's compression argument in one assert.
    assert!(
        bytes[1] < bytes[0] && bytes[2] < bytes[0],
        "wide must carry the largest dest stream: {bytes:?}"
    );
    let aux: Vec<u64> = reports.iter().map(|r| r.aux_memory_bytes).collect();
    assert!(
        aux[1] < aux[0] && aux[2] < aux[0],
        "compact and delta must hold strictly less auxiliary memory than wide: {aux:?}"
    );
}

#[test]
fn pool_diagnostics_fold_into_the_report() {
    let _guard = lock_registry();
    let graph = test_graph();
    let mut engine = Engine::<PlusF32>::builder(&graph)
        .config(cfg(BinFormatKind::Wide).with_threads(2))
        .build()
        .unwrap();
    let x = vec![1.0f32; graph.num_nodes() as usize];
    let mut y = vec![0.0f32; graph.num_nodes() as usize];
    for _ in 0..3 {
        engine.step(&x, &mut y).unwrap();
    }
    let report = engine.report();
    assert!(
        report.pool_jobs_dispatched > 0,
        "an engine-owned pool must dispatch jobs"
    );
}

#[test]
fn trace_spans_from_a_real_run_nest_and_serialize() {
    let _guard = lock_registry();
    let graph = test_graph();
    telemetry::start_tracing();
    let _ = run_steps(&graph, BinFormatKind::Delta);
    let events = telemetry::stop_tracing();

    let names: Vec<&str> = events.iter().map(|e| e.name).collect();
    for expected in ["prepare", "step", "scatter", "gather"] {
        assert!(
            names.contains(&expected),
            "missing span {expected:?} in {names:?}"
        );
    }
    let steps = events.iter().filter(|e| e.name == "step").count();
    assert_eq!(steps, STEPS);
    // The build's two walks nest inside `prepare`, count before fill.
    let prepare = events.iter().find(|e| e.name == "prepare").unwrap();
    let within_prepare = |name: &str| {
        let e = events.iter().find(|e| e.name == name).unwrap_or_else(|| {
            panic!("missing span {name:?} in {names:?}");
        });
        assert!(e.ts_us >= prepare.ts_us, "{name} starts inside prepare");
        assert!(
            e.ts_us + e.dur_us <= prepare.ts_us + prepare.dur_us + 1,
            "{name} ends inside prepare"
        );
        e
    };
    let (count, fill) = (within_prepare("build.count"), within_prepare("build.fill"));
    assert!(
        count.ts_us + count.dur_us <= fill.ts_us + 1,
        "count before fill"
    );
    // scatter/gather spans nest inside their step span.
    let step = events.iter().find(|e| e.name == "step").unwrap();
    let scatter = events
        .iter()
        .find(|e| e.name == "scatter" && e.ts_us >= step.ts_us)
        .unwrap();
    assert!(scatter.ts_us + scatter.dur_us <= step.ts_us + step.dur_us + 1);

    // The Chrome-trace JSON round-trips through a strict parser shape:
    // starts as an array, one object per span, required keys present.
    let json = telemetry::chrome_trace_json(&events);
    assert!(json.trim_start().starts_with('['));
    assert!(json.trim_end().ends_with(']'));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), events.len());
    assert_eq!(json.matches("\"pid\":1").count(), events.len());
}

#[test]
fn replay_batches_emit_spans() {
    let _guard = lock_registry();
    let graph = std::sync::Arc::new(test_graph());
    let batches = gen_updates(
        &graph,
        &UpdateGenConfig {
            batches: 3,
            batch_size: 40,
            delete_frac: 0.3,
            locality: None,
            seed: 9,
        },
    )
    .unwrap();
    telemetry::start_tracing();
    let rc = ReplayConfig {
        cfg: cfg(BinFormatKind::Wide).with_iterations(10),
        backend: BackendKind::Pcpm,
        verify: false,
        cache: None,
    };
    replay(std::sync::Arc::clone(&graph), &batches, &rc).unwrap();
    let events = telemetry::stop_tracing();
    let replay_spans: Vec<_> = events.iter().filter(|e| e.name == "replay_batch").collect();
    assert_eq!(replay_spans.len(), 3, "one span per replayed batch");
    // Batch indices ride along as the span arg, in order.
    let args: Vec<Option<u64>> = replay_spans.iter().map(|e| e.arg).collect();
    assert_eq!(args, vec![Some(0), Some(1), Some(2)]);
}

#[test]
fn a_single_seed_ppr_pushes_its_sparse_rounds_and_gathers_the_rest() {
    // A pushed round reads no bin: it counts in `sparse_rounds` and
    // `pushed_edges`, and in none of the gather's counters.
    let _guard = lock_registry();
    let graph = test_graph();
    let tm = telemetry::counters();
    for format in BinFormatKind::ALL {
        let cfg = cfg(format).with_iterations(12);
        let mut engine = Engine::<PlusF32>::builder(&graph)
            .config(cfg)
            .build()
            .unwrap();
        tm.set_enabled(true);
        tm.reset();
        telemetry::start_tracing();
        let r = personalized_pagerank_with_unified_engine(&graph, &[7], &cfg, &mut engine).unwrap();
        let events = telemetry::stop_tracing();
        tm.set_enabled(false);
        let snap = tm.snapshot();
        let report = engine.report();
        assert_eq!(
            report.steps + report.sparse_rounds,
            r.iterations,
            "{format}"
        );
        assert!(report.sparse_rounds >= 2, "{format}: {report:?}");
        assert!(report.steps >= 1, "{format}");
        assert!(report.pushed_edges >= u64::from(graph.out_degree(7)));
        assert_eq!(snap.sparse_rounds, report.sparse_rounds as u64, "{format}");
        assert_eq!(snap.pushed_edges, report.pushed_edges, "{format}");
        let per_scan = report.dest_stream_bytes.unwrap();
        assert_eq!(snap.dest_stream_bytes_read, report.steps as u64 * per_scan);
        assert_eq!((report.batch_passes, report.batch_queries), (0, 0));
        let pushes = events.iter().filter(|e| e.name == "push").count();
        assert_eq!(pushes, report.sparse_rounds, "{format}");
    }
}
