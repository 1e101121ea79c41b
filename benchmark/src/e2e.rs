//! The end-to-end phase: what a user of the system would see. It runs with
//! `pcpm_core::telemetry` disabled and records no spans.
//!
//! Timings are medians over the repetitions that fit into `--seconds`,
//! after one discarded warm-up that also supplies the reference answer
//! every later repetition must reproduce bit for bit.

use crate::host::{nproc, peak_rss_mib, reset_peak_rss};
use crate::inputs::{gen_batches, gen_graph, graph_checksum, pick_seeds, score_checksum, Rng};
use crate::json::Json;
use crate::report::RunResult;
use crate::serve_load::{self, ServePlan};
use crate::spec::{Kind, Workload, EDGE_FACTOR, PPR_QUERIES};
use crate::stats::{median, ms};
use pcpm_algos::{
    personalized_pagerank_many_with_unified_engine, personalized_pagerank_with_unified_engine,
};
use pcpm_baselines::reference::serial_pagerank;
use pcpm_core::algebra::PlusF32;
use pcpm_core::pagerank::pagerank_with_unified_engine;
use pcpm_core::{Engine, PcpmConfig};
use pcpm_graph::Csr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Where result files and the served snapshot go.
    pub out_dir: PathBuf,
}

/// Partition bytes: the paper's 256 KB; the quick tier's toy graphs get
/// 4 KB so they still have several partitions to scatter between.
pub fn engine_config(w: &Workload, quick: bool, threads: usize) -> PcpmConfig {
    let cfg = PcpmConfig::default()
        .with_iterations(w.iterations)
        .with_bin_format(w.format)
        .with_threads(threads);
    if quick {
        cfg.with_partition_bytes(4 * 1024)
    } else {
        cfg
    }
}

pub fn scale_of(w: &Workload, quick: bool) -> u32 {
    if quick {
        w.quick_scale
    } else {
        w.scale
    }
}

/// Update batches of 1 000 edges, 30 % deletes, one every 100 ms.
const BATCH_EDGES: usize = 1000;
const BATCH_DELETE_FRAC: f64 = 0.3;
const UPDATE_INTERVAL: Duration = Duration::from_millis(100);
/// Share of `--seconds` the serving workload spends on reads only; the
/// rest goes to reads beside writes.
const READ_PHASE_SHARE: f64 = 0.4;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Builds the engine `reps` times (dropping the previous one first, so two
/// never coexist) and returns the last with every build's wall time.
fn timed_builds(
    g: &Arc<Csr>,
    cfg: PcpmConfig,
    reps: usize,
) -> Result<(Engine<PlusF32>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut engine = None;
    for _ in 0..reps.max(1) {
        drop(engine.take());
        let t0 = Instant::now();
        let e = Engine::<PlusF32>::builder_shared(g)
            .config(cfg)
            .build()
            .map_err(|e| format!("engine build: {e}"))?;
        times.push(secs(t0.elapsed()));
        engine = Some(e);
    }
    Ok((engine.expect("at least one build"), times))
}

fn setup_reps(quick: bool) -> usize {
    if quick {
        2
    } else {
        5
    }
}

/// The raw samples behind a median, in the order taken, for the result file.
fn samples_json(samples: &[f64]) -> Json {
    Json::Arr(samples.iter().map(|&v| Json::Num(v)).collect())
}

/// Relative L1 distance `Σ|a − b| / Σ|b|`.
pub fn rel_l1(a: &[f32], b: impl Iterator<Item = f64>) -> f64 {
    let (mut diff, mut norm) = (0.0f64, 0.0f64);
    for (&x, y) in a.iter().zip(b) {
        diff += (f64::from(x) - y).abs();
        norm += y.abs();
    }
    diff / norm
}

pub fn run(w: &Workload, opts: &Opts) -> Result<RunResult, String> {
    let tm = pcpm_core::telemetry::counters();
    tm.set_enabled(false);
    assert!(
        !pcpm_core::telemetry::is_tracing(),
        "end-to-end numbers are taken with tracing off"
    );

    let mut r = RunResult::default();
    let (g, gen) = gen_graph(scale_of(w, opts.quick), EDGE_FACTOR, opts.seed);
    r.exact("graph.nodes", u64::from(g.num_nodes()));
    r.exact("graph.edges", g.num_edges());
    r.exact("graph.checksum64", format!("{:016x}", graph_checksum(&g)));
    r.note("graph.gen_s", secs(gen));
    // From here on the peak belongs to the system, not to the generator.
    r.note(
        "rss_peak_restarted_after_input_generation",
        reset_peak_rss(),
    );
    match w.kind {
        Kind::Solve => solve(w, opts, &g, &mut r)?,
        Kind::PprBatch => ppr_batch(w, opts, &g, &mut r)?,
        Kind::Serve => serve(w, opts, &g, &mut r)?,
    }
    Ok(r)
}

/// `pr-dram`, `pr-cache`: the same prebuilt engine solves at `nproc`
/// threads (`op_ms`) and on one thread (`alt_ms`), alternating.
fn solve(w: &Workload, opts: &Opts, g: &Arc<Csr>, r: &mut RunResult) -> Result<(), String> {
    let cfg = engine_config(w, opts.quick, nproc());
    let (mut engine, setup) = timed_builds(g, cfg, setup_reps(opts.quick))?;

    let mut reference: Option<(usize, u64)> = None;
    let mut timed: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut last_scores = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds);
    // Round 0 is the warm-up; the clock starts after it. Measuring goes on
    // until the time is used up and each side has three samples.
    let mut start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed() < budget || round <= 3 {
        for (side, threads) in [nproc(), 1].into_iter().enumerate() {
            engine = engine
                .with_threads(Some(threads))
                .map_err(|e| format!("pool: {e}"))?;
            let t0 = Instant::now();
            let result = pagerank_with_unified_engine(g, &cfg, &mut engine, None);
            let took = t0.elapsed();
            // 1-thread and nproc-thread solves, and every repetition, must
            // agree bit for bit with the first.
            let answer = result
                .as_ref()
                .ok()
                .map(|p| (p.iterations, score_checksum(&p.scores)));
            r.op(answer.is_some_and(|a| *reference.get_or_insert(a) == a));
            if round > 0 {
                timed[side].push(ms(took));
            }
            if let Ok(p) = result {
                last_scores = p.scores;
            }
        }
        if round == 0 {
            start = Instant::now();
        }
        round += 1;
    }
    let measured = start.elapsed();
    let peak = peak_rss_mib();

    r.row("op_ms", median(&timed[0]), "ms", timed[0].len());
    r.row("alt_ms", median(&timed[1]), "ms", timed[1].len());
    r.row("setup_s", median(&setup), "s", setup.len());
    r.row("peak_rss_mib", peak, "MiB", 1);
    r.note("measured_s", secs(measured));
    r.note("op_ms_samples", samples_json(&timed[0]));
    r.note("alt_ms_samples", samples_json(&timed[1]));

    let (iterations, checksum) = reference.unwrap_or_default();
    r.exact("pagerank.iterations", iterations);
    r.exact("score.checksum64", format!("{checksum:016x}"));
    let mass: f64 = last_scores.iter().map(|&s| f64::from(s)).sum();
    r.check("rank mass is in (0, 1]", mass > 0.0 && mass <= 1.0 + 1e-6);
    r.check(
        "every solve ran the configured iterations",
        iterations == w.iterations,
    );
    if w.reference_check {
        let oracle = serial_pagerank(g, &cfg);
        let d = rel_l1(&last_scores, oracle.into_iter());
        r.note("rel_l1_vs_serial_reference", d);
        r.check(
            "scores within 1e-4 relative L1 of the serial f64 reference",
            d <= 1e-4,
        );
    }
    Ok(())
}

/// `ppr-batch`: eight single-seed queries, once as one batch (`op_ms` per
/// query) and one after another on the same engine (`alt_ms` per query).
fn ppr_batch(w: &Workload, opts: &Opts, g: &Arc<Csr>, r: &mut RunResult) -> Result<(), String> {
    let cfg = engine_config(w, opts.quick, nproc());
    let (mut engine, setup) = timed_builds(g, cfg, setup_reps(opts.quick))?;
    let seeds = pick_seeds(g, &mut Rng::new(opts.seed), PPR_QUERIES);
    let seed_sets: Vec<Vec<u32>> = seeds.iter().map(|&s| vec![s]).collect();

    let solo = |engine: &mut Engine<PlusF32>, q: usize| -> (Option<(usize, u64)>, Duration) {
        let t0 = Instant::now();
        let res = personalized_pagerank_with_unified_engine(g, &seed_sets[q], &cfg, engine);
        let took = t0.elapsed();
        (
            res.ok().map(|p| (p.iterations, score_checksum(&p.scores))),
            took,
        )
    };
    let batch = |engine: &mut Engine<PlusF32>| -> (Vec<Option<(usize, u64)>>, Duration) {
        let t0 = Instant::now();
        let res = personalized_pagerank_many_with_unified_engine(g, &seed_sets, &cfg, engine);
        let took = t0.elapsed();
        let answers = match res {
            Ok(ps) => ps
                .iter()
                .map(|p| Some((p.iterations, score_checksum(&p.scores))))
                .collect(),
            Err(_) => vec![None; seed_sets.len()],
        };
        (answers, took)
    };

    // Warm-up: the full batch and all eight solos; the solos are the
    // reference, the batch must equal them bit for bit.
    let reference: Vec<Option<(usize, u64)>> =
        (0..PPR_QUERIES).map(|q| solo(&mut engine, q).0).collect();
    for a in &reference {
        r.op(a.is_some());
    }
    let (batched, _) = batch(&mut engine);
    for (b, a) in batched.iter().zip(&reference) {
        r.op(b.is_some() && b == a);
    }

    // Measured: one batch, then three solos, rotating through the seeds, so
    // both sides get a like share of the time.
    let (mut batch_ms, mut solo_ms) = (Vec::new(), Vec::new());
    let mut next = 0usize;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    while start.elapsed() < budget || batch_ms.len() < 3 {
        let (answers, took) = batch(&mut engine);
        batch_ms.push(ms(took) / PPR_QUERIES as f64);
        for (b, a) in answers.iter().zip(&reference) {
            r.op(b.is_some() && b == a);
        }
        for _ in 0..3 {
            let q = next % PPR_QUERIES;
            next += 1;
            let (answer, took) = solo(&mut engine, q);
            solo_ms.push(ms(took));
            r.op(answer.is_some() && answer == reference[q]);
        }
    }
    let measured = start.elapsed();
    let peak = peak_rss_mib();

    r.row("op_ms", median(&batch_ms), "ms", batch_ms.len());
    r.row("alt_ms", median(&solo_ms), "ms", solo_ms.len());
    r.row("setup_s", median(&setup), "s", setup.len());
    r.row("peak_rss_mib", peak, "MiB", 1);
    r.note("measured_s", secs(measured));
    r.note("op_ms_samples", samples_json(&batch_ms));
    r.note("alt_ms_samples", samples_json(&solo_ms));
    r.exact(
        "algos.ppr_iterations",
        reference.iter().flatten().map(|a| a.0).sum::<usize>(),
    );
    r.exact(
        "score.checksum64",
        reference
            .iter()
            .map(|a| format!("{:016x}", a.map_or(0, |a| a.1)))
            .collect::<Vec<_>>()
            .join(","),
    );
    r.check(
        "every query ran the configured iterations",
        reference
            .iter()
            .all(|a| a.is_some_and(|a| a.0 == w.iterations)),
    );
    Ok(())
}

/// Saves the snapshot the server will load; the caller removes it.
pub fn write_snapshot(
    g: &Arc<Csr>,
    cfg: PcpmConfig,
    path: &std::path::Path,
) -> Result<u64, String> {
    let engine = Engine::<PlusF32>::builder_shared(g)
        .config(cfg)
        .build()
        .map_err(|e| format!("engine build: {e}"))?;
    engine
        .save_snapshot(path)
        .map_err(|e| format!("snapshot save: {e}"))
}

/// A file of this process's own under `out_dir`, removed when dropped.
pub struct TempFile(pub PathBuf);

impl TempFile {
    pub fn new(out_dir: &std::path::Path, stem: &str) -> Result<Self, String> {
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        Ok(Self(
            out_dir.join(format!("{stem}-{}.tmp", std::process::id())),
        ))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Update batches of the standard size (smaller only on a toy graph).
pub fn update_batches(g: &Csr, rng: &mut Rng, count: usize) -> Vec<pcpm_core::UpdateBatch> {
    let size = BATCH_EDGES.min(g.num_edges() as usize / 8);
    gen_batches(g, rng, count, size, BATCH_DELETE_FRAC)
}

/// The serving load of `serve-mixed` for a run of `opts.seconds`: the first
/// 40 % reads only, the rest reads beside one update batch per interval.
pub fn serve_plan(g: &Csr, opts: &Opts, rng: &mut Rng) -> ServePlan {
    let write_time = opts.seconds * (1.0 - READ_PHASE_SHARE);
    let batches = (write_time / UPDATE_INTERVAL.as_secs_f64()).ceil().max(3.0) as usize;
    ServePlan {
        setup_reps: 3 * setup_reps(opts.quick),
        readers: nproc().min(2),
        read_time: Duration::from_secs_f64(opts.seconds * READ_PHASE_SHARE),
        read_min_requests: 10,
        query_seeds: pick_seeds(g, rng, PPR_QUERIES),
        batches: update_batches(g, rng, batches),
        interval: UPDATE_INTERVAL,
    }
}

/// `serve-mixed`: reads only, then reads beside scheduled updates.
fn serve(w: &Workload, opts: &Opts, g: &Arc<Csr>, r: &mut RunResult) -> Result<(), String> {
    let cfg = engine_config(w, opts.quick, 1);
    let snapshot = TempFile::new(&opts.out_dir, "serve-snapshot")?;
    write_snapshot(g, cfg, &snapshot.0)?;
    let plan = serve_plan(g, opts, &mut Rng::new(opts.seed));
    // The snapshot build above is input preparation, like the graph.
    reset_peak_rss();
    let out = serve_load::run(&snapshot.0, g, &cfg, &plan, opts.seed, None)?;

    r.row("op_ms", median(&out.read_ms), "ms", out.read_ms.len());
    r.row(
        "alt_ms",
        median(&out.visible_ms),
        "ms",
        out.visible_ms.len(),
    );
    r.row("setup_s", median(&out.setup_s), "s", out.setup_s.len());
    r.row("peak_rss_mib", out.peak_rss_mib, "MiB", 1);
    r.attempted += out.sent;
    r.failed += out.failed;
    r.checks.extend(out.checks);
    r.note("op_ms_samples", samples_json(&out.read_ms));
    r.note("alt_ms_samples", samples_json(&out.visible_ms));
    r.note("serve.qps", out.read_ms.len() as f64 / out.read_wall_s);
    r.note("serve.update_publish_p50_ms", median(&out.publish_ms));
    r.note("serve.swap_first_answer_p50_ms", median(&out.swap_ms));
    r.note("serve.generator_late_p50_ms", median(&out.late_ms));
    r.exact("serve.update_batches", plan.batches.len());
    Ok(())
}
