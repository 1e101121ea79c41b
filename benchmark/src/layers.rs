//! The traced phase: the per-layer rows. Every row is taken by timing a
//! call into a layer's *public* function from here, on the same generated
//! inputs the end-to-end phase uses; each timed call is a span.
//!
//! The same probes run on every workload — what differs is the graph, the
//! bin format and how long the serving probe lasts — so each row says what
//! that layer costs at that working-set size. Kernels are timed on one
//! thread unless the row's name says otherwise. Bytes are *computed* from
//! array sizes, not counted by hardware.

use crate::e2e::{
    engine_config, rel_l1, scale_of, serve_plan, update_batches, write_snapshot, Opts, TempFile,
};
use crate::host::{self, nproc};
use crate::inputs::{gen_graph, graph_checksum, pick_seeds, score_checksum, Rng};
use crate::report::RunResult;
use crate::serve_load;
use crate::spec::{Kind, Workload, EDGE_FACTOR, PPR_QUERIES};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::Tracer;
use pcpm_algos::{
    personalized_pagerank_many_with_unified_engine, personalized_pagerank_with_unified_engine,
};
use pcpm_baselines::{bvgas_engine, pdpr_engine};
use pcpm_core::algebra::PlusF32;
use pcpm_core::pagerank::pagerank_with_unified_engine;
use pcpm_core::png::EdgeView;
use pcpm_core::telemetry;
use pcpm_core::{
    BinFormat, BinFormatKind, CompactFormat, DeltaFormat, Engine, Partitioner, PcpmConfig, Png,
    UpdateOutcome, WideFormat,
};
use pcpm_graph::Csr;
use pcpm_memsim::model::{bvgas_comm, pcpm_comm, pdpr_comm, ModelParams};
use pcpm_serve::Response;
use pcpm_stream::DeltaGraph;
use rayon::ThreadPool;
use std::sync::Arc;
use std::time::Duration;

/// Compact bins address a partition with 15 bits: 2^15 nodes of 4 bytes.
const COMPACT_MAX_PARTITION_BYTES: usize = 128 * 1024;

fn pool(threads: usize) -> Result<ThreadPool, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|_| "thread pool".to_owned())
}

struct Probe<'a> {
    tr: Tracer,
    r: RunResult,
    /// Time one probe may spend on repetitions after its warm-up.
    budget: Duration,
    g: &'a Arc<Csr>,
    n: f64,
    edges: f64,
}

impl Probe<'_> {
    /// Times `f` as leaf spans called `name`: one discarded warm-up, then at
    /// least two and at most fifteen repetitions within the budget. Seconds.
    fn sample(&mut self, name: &str, mut f: impl FnMut()) -> Vec<f64> {
        self.tr.time(name, &mut f);
        let mut out = Vec::new();
        let mut spent = Duration::ZERO;
        while out.len() < 2 || (spent < self.budget && out.len() < 15) {
            let ((), took) = self.tr.time(name, &mut f);
            spent += took;
            out.push(took.as_secs_f64());
        }
        out
    }

    fn ns_per_edge(&self, secs: f64) -> f64 {
        secs * 1e9 / self.edges
    }
}

/// PNG + bins of format `F` at `partition_bytes`, with what building cost.
struct Layout<F: BinFormat> {
    png: Png,
    bins: F::Bins<f32>,
    png_build_s: Vec<f64>,
    bins_build_s: Vec<f64>,
}

fn build_layout<F: BinFormat>(
    p: &mut Probe,
    pool_n: &ThreadPool,
    partition_bytes: usize,
    label: &str,
) -> Result<Layout<F>, String> {
    let g = Arc::clone(p.g);
    let view = EdgeView::from_csr(&g);
    let q = PcpmConfig::default()
        .with_partition_bytes(partition_bytes)
        .partition_nodes();
    let parts = Partitioner::new(g.num_nodes(), q).map_err(|e| format!("partitioner: {e}"))?;
    let mut png = None;
    let png_build_s = p.sample(&format!("png.build.{label}"), || {
        png = Some(pool_n.install(|| Png::build(view, parts, parts)));
    });
    let png = png.expect("sample runs its closure");
    F::validate_layout(&png).map_err(|e| format!("layout: {e}"))?;
    let mut bins = None;
    let bins_build_s = p.sample(&format!("format.build.{label}"), || {
        drop(bins.take());
        bins = Some(pool_n.install(|| F::build::<f32>(view, &png, None)));
    });
    Ok(Layout {
        bins: bins.expect("sample runs its closure"),
        png,
        png_build_s,
        bins_build_s,
    })
}

/// Solo and 8-query gather over an already scattered layout: seconds per
/// pass, one thread.
fn gather_costs<F: BinFormat>(
    p: &mut Probe,
    pool_1: &ThreadPool,
    lay: &mut Layout<F>,
    label: &str,
) -> (Vec<f64>, Vec<f64>) {
    let n = p.g.num_nodes() as usize;
    let x = vec![1.0f32 / n as f32; n];
    let kernel = PcpmConfig::default().kernel.resolve(
        F::KIND,
        lay.png.num_raw_edges(),
        lay.png.src_parts().num_partitions(),
        lay.png.dst_parts().num_partitions(),
    );
    pool_1.install(|| F::scatter_into(&lay.png, &x, &mut lay.bins));
    let mut y = vec![0.0f32; n];
    let (png, bins) = (&lay.png, &lay.bins);
    let solo = p.sample(&format!("gather.solo.{label}"), || {
        pool_1.install(|| F::gather_from::<PlusF32>(png, bins, &mut y, kernel));
    });
    std::hint::black_box(&y);
    let updates: Vec<f32> = F::updates_mut(&mut lay.bins).to_vec();
    let streams: Vec<&[f32]> = (0..PPR_QUERIES).map(|_| updates.as_slice()).collect();
    let mut ys: Vec<Vec<f32>> = (0..PPR_QUERIES).map(|_| vec![0.0f32; n]).collect();
    let (png, bins) = (&lay.png, &lay.bins);
    let many = p.sample(&format!("gather.many8.{label}"), || {
        let mut outs: Vec<&mut [f32]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
        pool_1.install(|| F::gather_many_from::<PlusF32>(png, bins, &streams, &mut outs, kernel));
    });
    // The batched gather must give each query what the solo gather gives.
    let solo_sum = score_checksum(&y);
    let agree = ys.iter().all(|yq| score_checksum(yq) == solo_sum);
    p.r.check(
        &format!("{label}: 8-query gather equals the solo gather bit for bit"),
        agree,
    );
    (solo, many)
}

/// What the rows of the workload's own format are stated against.
struct Own {
    llc: u64,
    /// One-thread triad GB/s, when the arrays qualified as a DRAM roof.
    roof_1t: Option<f64>,
}

/// What the own-format cell measured that later probes are stated against.
struct OwnCosts {
    /// One scatter plus one gather called directly, one thread, seconds.
    kernels_s: f64,
    /// Scatter + gather bytes per edge, computed from array sizes.
    bytes_per_edge: f64,
    compression_r: f64,
}

/// One format's layout and its cell of the format × {solo, many8} gather
/// matrix. For the workload's own format (`own`) the same layout also gives
/// the png.*, format.*, scatter.* and gather.* rows, and what later probes
/// compare themselves with. Returns solo ns/edge.
fn format_cell<F: BinFormat>(
    p: &mut Probe,
    pools: (&ThreadPool, &ThreadPool),
    partition_bytes: usize,
    own: Option<&Own>,
) -> Result<(f64, Option<OwnCosts>), String> {
    let (pool_1, pool_n) = pools;
    let label = F::KIND.name();
    let mut lay = build_layout::<F>(p, pool_n, partition_bytes, label)?;
    let n = p.g.num_nodes() as usize;
    let updates_bytes = 4.0 * lay.png.num_compressed_edges() as f64;
    let png_bytes = lay.png.memory_bytes() as f64;
    let dest_bytes = F::dest_stream_bytes(&lay.bins) as f64;
    let scatter_bytes = 4.0 * p.n + png_bytes + updates_bytes;
    let gather_bytes = dest_bytes + updates_bytes + 4.0 * p.n;
    let mut scatter_s = 0.0;

    if let Some(own) = own {
        let aux_bytes = F::aux_memory_bytes(&lay.bins) as f64;
        p.r.row(
            "png.build_s",
            median(&lay.png_build_s),
            "s",
            lay.png_build_s.len(),
        );
        p.r.row("png.compression_r", lay.png.compression_ratio(), "ratio", 1);
        p.r.row("png.bytes", png_bytes, "bytes", 1);
        p.r.row(
            "format.build_s",
            median(&lay.bins_build_s),
            "s",
            lay.bins_build_s.len(),
        );
        p.r.row(
            "format.dest_bytes_per_edge",
            dest_bytes / p.edges,
            "B/edge",
            1,
        );
        p.r.row("format.aux_bytes", aux_bytes, "bytes", 1);
        // Bins, PNG and the driver's four vertex arrays (rank, x, sums, 1/deg).
        let working_set = aux_bytes + png_bytes + 4.0 * 4.0 * p.n;
        p.r.row(
            "format.ws_over_llc",
            working_set / own.llc as f64,
            "ratio",
            1,
        );
        p.r.note("working_set_bytes_computed", working_set);
        p.r.exact("format.dest_stream_bytes", dest_bytes as u64);

        let x = vec![1.0f32 / n as f32; n];
        let (png, bins) = (&lay.png, &mut lay.bins);
        let scatter = p.sample("scatter", || {
            pool_1.install(|| F::scatter_into(png, &x, bins))
        });
        let s = median(&scatter);
        p.r.row(
            "scatter.ns_per_edge",
            p.ns_per_edge(s),
            "ns/edge",
            scatter.len(),
        );
        p.r.row(
            "scatter.bytes_per_edge",
            scatter_bytes / p.edges,
            "B/edge",
            1,
        );
        p.r.row(
            "scatter.gbps",
            scatter_bytes / s / 1e9,
            "GB/s",
            scatter.len(),
        );
        scatter_s = s;
    }

    let (solo, many) = gather_costs::<F>(p, pool_1, &mut lay, label);
    let t = median(&solo);
    p.r.row(
        &format!("gather.solo_ns_per_edge.{label}"),
        p.ns_per_edge(t),
        "ns/edge",
        solo.len(),
    );
    p.r.row(
        &format!("gather.many8_ns_per_edge_query.{label}"),
        p.ns_per_edge(median(&many)) / PPR_QUERIES as f64,
        "ns/edge",
        many.len(),
    );
    if let Some(own) = own {
        p.r.row(
            "gather.ns_per_edge",
            p.ns_per_edge(t),
            "ns/edge",
            solo.len(),
        );
        p.r.row("gather.bytes_per_edge", gather_bytes / p.edges, "B/edge", 1);
        p.r.row("gather.gbps", gather_bytes / t / 1e9, "GB/s", solo.len());
        match own.roof_1t {
            Some(roof) => p.r.row(
                "gather.pct_of_roof",
                100.0 * gather_bytes / t / 1e9 / roof,
                "%",
                solo.len(),
            ),
            None => p.r.note(
                "gather.pct_of_roof",
                "omitted: the triad arrays are smaller than 4x the LLC",
            ),
        }
    }
    let costs = own.map(|_| OwnCosts {
        kernels_s: scatter_s + t,
        bytes_per_edge: (scatter_bytes + gather_bytes) / p.edges,
        compression_r: lay.png.compression_ratio(),
    });
    Ok((p.ns_per_edge(t), costs))
}

pub fn run(w: &Workload, opts: &Opts) -> Result<(RunResult, Tracer), String> {
    let tm = telemetry::counters();
    tm.set_enabled(false);
    let quick = opts.quick;
    let (g, gen) = gen_graph(scale_of(w, quick), EDGE_FACTOR, opts.seed);
    let mut p = Probe {
        tr: Tracer::new(w.name),
        r: RunResult::default(),
        budget: Duration::from_secs_f64(if quick { 0.02 } else { 0.5 }),
        g: &g,
        n: f64::from(g.num_nodes()),
        edges: g.num_edges() as f64,
    };
    let (pool_1, pool_n) = (pool(1)?, pool(nproc())?);
    let pools = (&pool_1, &pool_n);
    let cfg_1 = engine_config(w, quick, 1);
    let cfg_n = engine_config(w, quick, nproc());
    let mut rng = Rng::new(opts.seed);

    // host: the roof the kernels are compared with, taken in this same run.
    let (llc, llc_assumed) = host::llc_bytes();
    let (triad, _) = p.tr.time("host.triad", || host::triad(llc, quick));
    p.r.row("host.nproc", nproc() as f64, "count", 1);
    p.r.row("host.llc_bytes", llc as f64, "bytes", 1);
    p.r.row(
        "host.triad_array_bytes",
        triad.array_bytes as f64,
        "bytes",
        1,
    );
    p.r.row("host.triad_gbps_1t", triad.gbps_1t, "GB/s", 3);
    p.r.row("host.triad_gbps", triad.gbps, "GB/s", 3);
    p.r.note("host.llc_assumed", llc_assumed);

    // graph: input cost only.
    p.r.row("graph.gen_s", gen.as_secs_f64(), "s", 1);
    p.r.row("graph.nodes", p.n, "count", 1);
    p.r.row("graph.edges", p.edges, "count", 1);
    p.r.exact("graph.nodes", u64::from(g.num_nodes()));
    p.r.exact("graph.edges", g.num_edges());
    p.r.exact("graph.checksum64", format!("{:016x}", graph_checksum(&g)));

    // One layout per format: its cell of the gather matrix, and for the
    // workload's own format the png, format, scatter and gather rows too.
    // Compact bins cap the partition size, so that cell may use its own.
    let own = Own {
        llc,
        roof_1t: triad.qualifies.then_some(triad.gbps_1t),
    };
    let own_if = |kind| (w.format == kind).then_some(&own);
    let bytes = cfg_1.partition_bytes;
    let (wide_ns, a) =
        format_cell::<WideFormat>(&mut p, pools, bytes, own_if(BinFormatKind::Wide))?;
    let compact_bytes = bytes.min(COMPACT_MAX_PARTITION_BYTES);
    let (_, b) =
        format_cell::<CompactFormat>(&mut p, pools, compact_bytes, own_if(BinFormatKind::Compact))?;
    let (delta_ns, c) =
        format_cell::<DeltaFormat>(&mut p, pools, bytes, own_if(BinFormatKind::Delta))?;
    let own_costs = a
        .or(b)
        .or(c)
        .expect("the workload's format is one of the three");
    p.r.row(
        "gather.delta_decode_ns_per_edge",
        delta_ns - wide_ns,
        "ns/edge",
        1,
    );

    let solve_n = backend_and_driver(&mut p, w, cfg_1, cfg_n, own_costs.kernels_s)?;
    ppr_probe(&mut p, w, cfg_1, &mut rng)?;
    memsim_rows(&mut p, &cfg_1, llc, &own_costs);
    baselines(&mut p, cfg_n, &solve_n)?;

    // snapshot: save and load the engine the serving probe will load.
    let snapshot = TempFile::new(&opts.out_dir, "traced-snapshot")?;
    let (saved, save) =
        p.tr.time("snapshot.save", || write_snapshot(&g, cfg_1, &snapshot.0));
    let bytes = saved?;
    let (loaded, load) = p.tr.time("snapshot.load", || {
        Engine::<PlusF32>::from_snapshot(&snapshot.0)
    });
    p.r.op(loaded.is_ok());
    drop(loaded);
    p.r.row("snapshot.save_s", save.as_secs_f64(), "s", 1);
    p.r.row("snapshot.load_s", load.as_secs_f64(), "s", 1);
    p.r.row("snapshot.bytes", bytes as f64, "bytes", 1);

    update_probe(&mut p, cfg_1, &mut rng)?;
    proto_probe(&mut p, &solve_n.scores, w.iterations as u32);
    serve_probe(&mut p, w, opts, &snapshot, cfg_1, &mut rng)?;
    Ok((p.r, p.tr))
}

struct Solve {
    secs: Vec<f64>,
    scores: Vec<f32>,
}

/// One traced solve: a span whose children are the phase times the driver
/// itself reports; what they leave uncovered is driver overhead.
fn traced_solve(
    p: &mut Probe,
    name: &str,
    cfg: &PcpmConfig,
    engine: &mut Engine<PlusF32>,
) -> Result<(Solve, f64, f64), String> {
    let g = Arc::clone(p.g);
    let mut last = None;
    let mut spans = Vec::new();
    // `sample` owns the timing loop; the spans get their phases afterwards.
    let first_span = p.tr.len();
    let secs = p.sample(name, || {
        last = Some(pagerank_with_unified_engine(&g, cfg, engine, None));
        spans.push(
            last.as_ref()
                .and_then(|r| r.as_ref().ok())
                .map(|r| r.timings),
        );
    });
    let result = last
        .expect("sample runs its closure")
        .map_err(|e| format!("solve: {e}"))?;
    let (mut apply, mut overhead, mut total) = (0.0, 0.0, 0.0);
    for (i, timings) in spans.iter().enumerate().skip(1) {
        let Some(t) = timings else { continue };
        let id = first_span + i;
        p.tr.add_phases(
            id,
            &[
                ("scatter", t.scatter),
                ("gather", t.gather),
                ("apply", t.apply),
            ],
        );
        apply += t.apply.as_secs_f64();
        overhead += p.tr.self_time(id).as_secs_f64();
        total += p.tr.duration(id).as_secs_f64();
    }
    p.r.op(true);
    Ok((
        Solve {
            secs,
            scores: result.scores,
        },
        apply / (spans.len() - 1) as f64,
        overhead / total,
    ))
}

/// backend.*, pagerank.*, telemetry.*: the engine step against the bare
/// kernels, the PageRank driver against its phases, and what switching the
/// program's own telemetry on costs.
fn backend_and_driver(
    p: &mut Probe,
    w: &Workload,
    cfg_1: PcpmConfig,
    cfg_n: PcpmConfig,
    kernels_s: f64,
) -> Result<Solve, String> {
    let g = Arc::clone(p.g);
    let n = g.num_nodes() as usize;
    let build = |cfg| {
        Engine::<PlusF32>::builder_shared(&g)
            .config(cfg)
            .build()
            .map_err(|e| format!("engine build: {e}"))
    };
    let mut engine = build(cfg_1)?;
    let x = vec![1.0f32 / n as f32; n];
    let mut y = vec![0.0f32; n];
    let step = p.sample("backend.step", || {
        let _ = engine.step(&x, &mut y);
    });
    let xs: Vec<&[f32]> = (0..PPR_QUERIES).map(|_| x.as_slice()).collect();
    let mut ys: Vec<Vec<f32>> = (0..PPR_QUERIES).map(|_| vec![0.0f32; n]).collect();
    let many = p.sample("backend.step_many8", || {
        let mut outs: Vec<&mut [f32]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
        let _ = engine.step_many(&xs, &mut outs);
    });
    let solo_sum = score_checksum(&y);
    p.r.check(
        "step_many gives each query the solo step's bits",
        ys.iter().all(|yq| score_checksum(yq) == solo_sum),
    );
    drop((ys, xs));
    let (step_s, many_s) = (median(&step), median(&many));
    p.r.row(
        "backend.step_ns_per_edge",
        p.ns_per_edge(step_s),
        "ns/edge",
        step.len(),
    );
    p.r.row(
        "backend.step_overhead_us",
        (step_s - kernels_s) * 1e6,
        "us",
        step.len(),
    );
    p.r.row(
        "backend.step_many8_ns_per_edge_query",
        p.ns_per_edge(many_s) / PPR_QUERIES as f64,
        "ns/edge",
        many.len(),
    );
    p.r.row(
        "backend.batch_amortization",
        PPR_QUERIES as f64 * step_s / many_s,
        "ratio",
        many.len(),
    );

    let (solve_1, apply_s, overhead_frac) =
        traced_solve(p, "pagerank.solve_1t", &cfg_1, &mut engine)?;
    drop(engine);
    let mut engine = build(cfg_n)?;
    let (solve_n, _, _) = traced_solve(p, "pagerank.solve", &cfg_n, &mut engine)?;
    p.r.check(
        "1-thread and nproc-thread solves are bit-identical",
        score_checksum(&solve_1.scores) == score_checksum(&solve_n.scores),
    );
    let (t1, tn) = (median(&solve_1.secs), median(&solve_n.secs));
    p.r.row(
        "backend.scaling_eff",
        t1 / (nproc() as f64 * tn),
        "ratio",
        solve_n.secs.len(),
    );
    p.r.row(
        "pagerank.apply_ns_per_node",
        apply_s * 1e9 / (w.iterations as f64 * p.n),
        "ns/node",
        solve_1.secs.len(),
    );
    p.r.row(
        "pagerank.driver_overhead_frac",
        overhead_frac,
        "ratio",
        solve_1.secs.len(),
    );
    p.r.row("pagerank.iterations", w.iterations as f64, "count", 1);
    p.r.exact("pagerank.iterations", w.iterations);
    p.r.exact(
        "score.checksum64",
        format!("{:016x}", score_checksum(&solve_n.scores)),
    );
    p.r.note("pagerank.solve_1t_ms", t1 * 1e3);
    p.r.note("pagerank.solve_ms", tn * 1e3);

    // telemetry: the same nproc solve again with the program's counters and
    // span collection on, against the solves just timed with them off; and
    // the one byte count that is exact, checked against the format's own.
    let tm = telemetry::counters();
    tm.reset();
    tm.set_enabled(true);
    telemetry::start_tracing();
    let on = p.sample("telemetry.solve_on", || {
        let _ = pagerank_with_unified_engine(&g, &cfg_n, &mut engine, None);
    });
    telemetry::stop_tracing();
    tm.set_enabled(false);
    // The warm-up solve counted too.
    let counted = tm.snapshot().dest_stream_bytes_read / (on.len() as u64 + 1);
    let per_step = counted / w.iterations as u64;
    p.r.row(
        "telemetry.overhead_frac",
        median(&on) / tn - 1.0,
        "ratio",
        on.len(),
    );
    p.r.row(
        "telemetry.dest_stream_bytes_per_step",
        per_step as f64,
        "bytes",
        1,
    );
    p.r.exact("telemetry.dest_stream_bytes_per_step", per_step);
    p.r.check(
        "counted dest-stream bytes per step equal the format's stream size",
        Some(per_step) == engine.metrics().dest_stream_bytes
            && counted.is_multiple_of(w.iterations as u64),
    );
    Ok(solve_n)
}

/// algos.*: eight single-seed PPR queries, batched and one by one, on one
/// thread; the batch must equal the solos bit for bit.
fn ppr_probe(p: &mut Probe, w: &Workload, cfg_1: PcpmConfig, rng: &mut Rng) -> Result<(), String> {
    let g = Arc::clone(p.g);
    let cfg = cfg_1.with_iterations(w.traced_ppr_iterations);
    let mut engine = Engine::<PlusF32>::builder_shared(&g)
        .config(cfg)
        .build()
        .map_err(|e| format!("engine build: {e}"))?;
    let seed_sets: Vec<Vec<u32>> = pick_seeds(&g, rng, PPR_QUERIES)
        .into_iter()
        .map(|s| vec![s])
        .collect();
    let id = p.tr.begin("algos.ppr_solo");
    let solos: Vec<_> = seed_sets
        .iter()
        .map(|s| {
            p.tr.time("algos.ppr_query", || {
                personalized_pagerank_with_unified_engine(&g, s, &cfg, &mut engine)
            })
            .0
        })
        .collect();
    p.tr.end(id);
    let (batched, _) = p.tr.time("algos.ppr_batch", || {
        personalized_pagerank_many_with_unified_engine(&g, &seed_sets, &cfg, &mut engine)
    });
    let batched = batched.map_err(|e| format!("batched PPR: {e}"))?;
    let (mut iterations, mut apply_ms) = (0usize, 0.0);
    for (solo, batch) in solos.iter().zip(&batched) {
        let ok = solo.as_ref().is_ok_and(|s| {
            iterations += s.iterations;
            apply_ms += s.timings.apply.as_secs_f64() * 1e3;
            s.iterations == batch.iterations
                && score_checksum(&s.scores) == score_checksum(&batch.scores)
        });
        p.r.op(ok);
    }
    p.r.row("algos.ppr_iterations", iterations as f64, "count", 1);
    p.r.row(
        "algos.ppr_apply_ms_per_query",
        apply_ms / PPR_QUERIES as f64,
        "ms",
        PPR_QUERIES,
    );
    p.r.exact("algos.ppr_iterations", iterations);
    Ok(())
}

/// memsim.*: the paper's closed-form traffic model beside the bytes
/// computed from this run's array sizes.
fn memsim_rows(p: &mut Probe, cfg: &PcpmConfig, llc: u64, own: &OwnCosts) {
    let k = (p.n / f64::from(cfg.partition_nodes())).ceil().max(1.0);
    let model = ModelParams::paper(p.n, p.edges, k);
    // Share of rank reads that miss: the part of the rank array the LLC
    // cannot hold, the model's only machine input.
    let cmr = (1.0 - llc as f64 / (4.0 * p.n)).max(0.0);
    let pcpm = pcpm_comm(&model, own.compression_r.max(1.0)) / p.edges;
    p.r.row("memsim.pcpm_bytes_per_edge", pcpm, "B/edge", 1);
    p.r.row(
        "memsim.bvgas_bytes_per_edge",
        bvgas_comm(&model) / p.edges,
        "B/edge",
        1,
    );
    p.r.row(
        "memsim.pdpr_bytes_per_edge",
        pdpr_comm(&model, cmr) / p.edges,
        "B/edge",
        1,
    );
    p.r.row(
        "memsim.model_over_computed",
        pcpm / own.bytes_per_edge,
        "ratio",
        1,
    );
    p.r.note("memsim.pdpr_cache_miss_ratio_assumed", cmr);
}

/// baselines.*: the paper's standing comparison, one run each, not gated.
fn baselines(p: &mut Probe, cfg_n: PcpmConfig, pcpm: &Solve) -> Result<(), String> {
    let g = Arc::clone(p.g);
    let pcpm_s = median(&pcpm.secs);
    let mut pdpr_scores = Vec::new();
    for (name, build) in [
        (
            "pdpr",
            pdpr_engine as fn(&Csr, &PcpmConfig) -> Result<Engine<PlusF32>, pcpm_core::PcpmError>,
        ),
        ("bvgas", bvgas_engine),
    ] {
        let (engine, setup) =
            p.tr.time(&format!("baselines.{name}_setup"), || build(&g, &cfg_n));
        let mut engine = engine.map_err(|e| format!("{name}: {e}"))?;
        let (res, solve) = p.tr.time(&format!("baselines.{name}_solve"), || {
            pagerank_with_unified_engine(&g, &cfg_n, &mut engine, None)
        });
        p.r.op(res.is_ok());
        let solve_s = solve.as_secs_f64();
        p.r.row(
            &format!("baselines.{name}_setup_s"),
            setup.as_secs_f64(),
            "s",
            1,
        );
        p.r.row(&format!("baselines.{name}_solve_s"), solve_s, "s", 1);
        p.r.row(
            &format!("baselines.speedup_vs_{name}"),
            solve_s / pcpm_s,
            "ratio",
            1,
        );
        if let (Ok(res), "pdpr") = (res, name) {
            pdpr_scores = res.scores;
        }
    }
    let d = rel_l1(&pcpm.scores, pdpr_scores.iter().map(|&s| f64::from(s)));
    p.r.row("baselines.rel_l1_diff", d, "ratio", 1);
    p.r.check(
        "PCPM scores within 1e-4 relative L1 of the PDPR engine's",
        d <= 1e-4,
    );
    Ok(())
}

/// stream.*, update.*: three chained batches through the overlay graph and
/// the engine's in-place repair, against a rebuild from scratch.
fn update_probe(p: &mut Probe, cfg_1: PcpmConfig, rng: &mut Rng) -> Result<(), String> {
    let g = Arc::clone(p.g);
    let build = |graph: &Arc<Csr>| {
        Engine::<PlusF32>::builder_shared(graph)
            .config(cfg_1)
            .build()
            .map_err(|e| format!("engine build: {e}"))
    };
    let mut engine = build(&g)?;
    let mut delta = DeltaGraph::new(Arc::clone(&g), cfg_1.partition_nodes())
        .map_err(|e| format!("overlay: {e}"))?;
    let (mut apply_ms, mut repair_ms, mut frac) = (Vec::new(), Vec::new(), Vec::new());
    let mut current = Arc::clone(&g);
    for batch in update_batches(&g, rng, 3) {
        let (applied, t) = p.tr.time("stream.apply", || {
            delta.apply(&batch).map(|stats| (stats, delta.snapshot()))
        });
        let (stats, graph) = applied.map_err(|e| format!("overlay apply: {e}"))?;
        apply_ms.push(t.as_secs_f64() * 1e3);
        let (outcome, t) = p.tr.time("update.repair", || {
            engine.update(&graph, None, &stats.applied)
        });
        repair_ms.push(t.as_secs_f64() * 1e3);
        p.r.op(outcome.is_ok() && stats.ignored == 0);
        frac.push(match outcome {
            Ok(UpdateOutcome::Repaired(s)) => {
                f64::from(s.partitions_rebuilt) / f64::from(s.partitions_total.max(1))
            }
            _ => 1.0,
        });
        current = graph;
    }
    let (rebuilt, rebuild) = p.tr.time("update.rebuild", || build(&current));
    let mut rebuilt = rebuilt?;
    let n = g.num_nodes() as usize;
    let x = vec![1.0f32 / n as f32; n];
    let (mut a, mut b) = (vec![0.0f32; n], vec![0.0f32; n]);
    let stepped = engine.step(&x, &mut a).is_ok() && rebuilt.step(&x, &mut b).is_ok();
    p.r.check(
        "the repaired engine steps like one rebuilt from scratch",
        stepped && score_checksum(&a) == score_checksum(&b),
    );
    p.r.row("stream.apply_ms", median(&apply_ms), "ms", apply_ms.len());
    p.r.row(
        "update.repair_ms",
        median(&repair_ms),
        "ms",
        repair_ms.len(),
    );
    p.r.row("update.rebuild_ms", rebuild.as_secs_f64() * 1e3, "ms", 1);
    p.r.row(
        "update.partitions_repaired_frac",
        median(&frac),
        "ratio",
        frac.len(),
    );
    Ok(())
}

/// proto.*: encode and decode of the reply that carries this workload's
/// rank vector.
fn proto_probe(p: &mut Probe, scores: &[f32], iterations: u32) {
    let reply = Response::Ranks {
        epoch: 0,
        iterations,
        converged: false,
        scores: scores.to_vec(),
    };
    let mut payload = Vec::new();
    let encode = p.sample("proto.encode", || payload = reply.encode_payload());
    let mut decoded = None;
    let decode = p.sample("proto.decode", || {
        decoded = Response::decode(reply.kind(), &payload).ok()
    });
    p.r.op(decoded.as_ref() == Some(&reply));
    p.r.row(
        "proto.encode_us_per_reply",
        median(&encode) * 1e6,
        "us",
        encode.len(),
    );
    p.r.row(
        "proto.decode_us_per_reply",
        median(&decode) * 1e6,
        "us",
        decode.len(),
    );
    p.r.row("proto.reply_bytes", payload.len() as f64, "bytes", 1);
}

/// serve.*: the in-process server under the same two phases as
/// `serve-mixed`. On that workload the phases last as long as they do end
/// to end; elsewhere one set-up, a few short requests and one batch.
fn serve_probe(
    p: &mut Probe,
    w: &Workload,
    opts: &Opts,
    snapshot: &TempFile,
    cfg_1: PcpmConfig,
    rng: &mut Rng,
) -> Result<(), String> {
    let g = Arc::clone(p.g);
    let cfg = cfg_1.with_iterations(w.traced_ppr_iterations);
    let mut plan = serve_plan(&g, opts, rng);
    if w.kind != Kind::Serve {
        plan.setup_reps = 1;
        plan.read_time = Duration::from_secs_f64(0.5);
        plan.read_min_requests = 3;
        plan.batches.truncate(1);
    }
    let out = serve_load::run(&snapshot.0, &g, &cfg, &plan, opts.seed, Some(&mut p.tr))?;
    p.r.attempted += out.sent;
    p.r.failed += out.failed;
    p.r.checks.extend(out.checks);

    let all_reads: Vec<f64> = out
        .read_ms
        .iter()
        .chain(&out.mixed_read_ms)
        .copied()
        .collect();
    let (read_pct, read_tail) = highest_supported_percentile(&out.read_ms);
    let (mixed_pct, mixed_tail) = highest_supported_percentile(&out.mixed_read_ms);
    p.r.row(
        "serve.setup_s",
        median(&out.setup_s),
        "s",
        out.setup_s.len(),
    );
    p.r.row(
        "serve.qps",
        out.read_ms.len() as f64 / out.read_wall_s,
        "1/s",
        out.read_ms.len(),
    );
    p.r.row(
        "serve.read_p50_ms",
        median(&out.read_ms),
        "ms",
        out.read_ms.len(),
    );
    p.r.row("serve.read_tail_ms", read_tail, "ms", out.read_ms.len());
    p.r.row("serve.read_tail_pct", read_pct, "%", out.read_ms.len());
    p.r.row(
        "serve.mixed_read_p50_ms",
        median(&out.mixed_read_ms),
        "ms",
        out.mixed_read_ms.len(),
    );
    p.r.row(
        "serve.mixed_read_tail_ms",
        mixed_tail,
        "ms",
        out.mixed_read_ms.len(),
    );
    p.r.row(
        "serve.mixed_read_tail_pct",
        mixed_pct,
        "%",
        out.mixed_read_ms.len(),
    );
    p.r.row(
        "serve.update_publish_p50_ms",
        median(&out.publish_ms),
        "ms",
        out.publish_ms.len(),
    );
    p.r.row(
        "serve.swap_first_answer_p50_ms",
        median(&out.swap_ms),
        "ms",
        out.swap_ms.len(),
    );
    p.r.row(
        "serve.update_visible_p50_ms",
        median(&out.visible_ms),
        "ms",
        out.visible_ms.len(),
    );
    let stats = out.stats.ok_or("the server gave no stats reply")?;
    // Wire kind 3 is personalized PageRank, the only read the phases send.
    let exec_ms = stats
        .queries
        .get(3)
        .map_or(f64::NAN, |q| q.mean_exec_us() / 1e3);
    let mean_read = all_reads.iter().sum::<f64>() / all_reads.len() as f64;
    p.r.row("serve.exec_mean_ms", exec_ms, "ms", all_reads.len());
    p.r.row(
        "serve.overhead_mean_ms",
        mean_read - exec_ms,
        "ms",
        all_reads.len(),
    );
    p.r.row(
        "serve.queue_wait_mean_us",
        stats.mean_queue_wait_us(),
        "us",
        stats.connections_dispatched as usize,
    );
    p.r.row(
        "serve.writer_publish_mean_ms",
        stats.writer_publish_us_total as f64 / 1e3 / stats.writer_publishes.max(1) as f64,
        "ms",
        stats.writer_publishes as usize,
    );
    p.r.row("serve.requests_sent", out.sent as f64, "count", 1);
    p.r.row("serve.requests_ok", out.ok as f64, "count", 1);
    p.r.row("serve.requests_failed", out.failed as f64, "count", 1);
    p.r.row(
        "serve.generator_late_max_ms",
        percentile(&out.late_ms, 100.0),
        "ms",
        out.late_ms.len(),
    );
    p.r.check(
        "the writer published every batch",
        stats.writer_publishes == plan.batches.len() as u64,
    );
    p.r.exact("serve.update_batches", plan.batches.len());
    Ok(())
}
