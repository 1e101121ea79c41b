//! Thread-count determinism: every backend's `step` (and the streaming
//! update path) must produce bit-identical output on 1, 2, 4 and 8
//! threads, and so must every fixed-point driver under the default
//! partition budget, whose layout follows the thread count. This extends
//! the `kernel_agreement` matrix along the thread axis using the same
//! seeded generators and the same integer-grid inputs (exact in f32, so
//! the assertion is bit-exact equality even though thread count changes
//! which worker computes what).
//!
//! The thread list is overridable for CI sweeps:
//! `PCPM_TEST_THREADS=1,4 cargo test --test parallel_determinism`, the
//! PCPM bin-format list via `PCPM_TEST_FORMATS=wide,delta`, and the
//! gather-kernel list via `PCPM_TEST_KERNELS=scalar,unrolled`.

use pcpm::core::algebra::{MinLabel, PlusF32};
use pcpm::core::engine::ScatterKind;
use pcpm::prelude::*;
use std::sync::Arc;

mod common;
use common::{format_matrix, kernel_matrix, thread_matrix};

/// Exact integer-valued input (as in kernel_agreement): every f32 sum of
/// these is exactly representable, so reduction order cannot matter.
fn int_x(n: u32) -> Vec<f32> {
    (0..n).map(|v| (v % 13) as f32).collect()
}

/// Engine configurations spanning every built-in dataplane plus the
/// PCPM ablation variants, built at an explicit thread count.
fn engines_at(g: &Csr, threads: usize, q_bytes: usize) -> Vec<(String, Engine<PlusF32>)> {
    let mut engines: Vec<(String, Engine<PlusF32>)> = Vec::new();
    for kind in BackendKind::ALL {
        let e = Engine::<PlusF32>::builder(g)
            .partition_bytes(q_bytes)
            .backend(kind)
            .threads(threads)
            .build()
            .unwrap();
        engines.push((format!("{}@{threads}", kind.name()), e));
    }
    for format in format_matrix() {
        for kernel in kernel_matrix() {
            if format == BinFormatKind::Wide && kernel == KernelKind::Auto {
                continue; // BackendKind::Pcpm above already covers wide@auto.
            }
            engines.push((
                format!("pcpm_{format}_{kernel}@{threads}"),
                Engine::<PlusF32>::builder(g)
                    .partition_bytes(q_bytes)
                    .bin_format(format)
                    .kernel(kernel)
                    .threads(threads)
                    .build()
                    .unwrap(),
            ));
        }
    }
    engines.push((
        format!("pcpm_csr_traversal@{threads}"),
        Engine::<PlusF32>::builder(g)
            .partition_bytes(q_bytes)
            .scatter(ScatterKind::CsrTraversal)
            .threads(threads)
            .build()
            .unwrap(),
    ));
    engines
}

/// One step per engine config at `threads`, outputs in config order.
fn step_outputs(g: &Csr, threads: usize, q_bytes: usize) -> Vec<(String, Vec<f32>)> {
    let x = int_x(g.num_nodes());
    let n = g.num_nodes() as usize;
    engines_at(g, threads, q_bytes)
        .into_iter()
        .map(|(label, mut e)| {
            let mut y = vec![0.0f32; n];
            e.step(&x, &mut y).unwrap();
            (label, y)
        })
        .collect()
}

#[test]
fn step_bit_identical_across_thread_counts() {
    let graphs = [
        pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 3)).unwrap(),
        pcpm::graph::gen::erdos_renyi(700, 5600, 11).unwrap(),
    ];
    for g in &graphs {
        for q_bytes in [64 * 4, 200 * 4] {
            let baseline = step_outputs(g, 1, q_bytes);
            for &t in &thread_matrix()[1..] {
                let got = step_outputs(g, t, q_bytes);
                for ((l1, y1), (lt, yt)) in baseline.iter().zip(&got) {
                    assert_eq!(y1, yt, "{lt} differs from 1-thread {l1}");
                }
            }
        }
    }
}

/// One batched `step_many` per engine config at `threads`, outputs in
/// config order. Q = 4 distinct integer-grid inputs per batch.
fn step_many_outputs(g: &Csr, threads: usize, q_bytes: usize) -> Vec<(String, Vec<Vec<f32>>)> {
    let n = g.num_nodes() as usize;
    let xs: Vec<Vec<f32>> = (0..4u32)
        .map(|q| (0..g.num_nodes()).map(|v| ((v + q) % 13) as f32).collect())
        .collect();
    engines_at(g, threads, q_bytes)
        .into_iter()
        .map(|(label, mut e)| {
            let mut ys: Vec<Vec<f32>> = vec![vec![0.0f32; n]; xs.len()];
            let x_refs: Vec<&[f32]> = xs.iter().map(|x| x.as_slice()).collect();
            let mut y_refs: Vec<&mut [f32]> = ys.iter_mut().map(|y| y.as_mut_slice()).collect();
            e.step_many(&x_refs, &mut y_refs).unwrap();
            (label, ys)
        })
        .collect()
}

/// The batched SpMM path must be as thread-count deterministic as the
/// solo path: `step_many` at 2/4/8 threads equals the 1-thread run bit
/// for bit, on every backend and bin format — and equals Q independent
/// 1-thread `step` calls (the solo/batched agreement along the thread
/// axis).
#[test]
fn step_many_bit_identical_across_thread_counts() {
    let graphs = [
        pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 3)).unwrap(),
        pcpm::graph::gen::erdos_renyi(700, 5600, 11).unwrap(),
    ];
    for g in &graphs {
        for q_bytes in [64 * 4, 200 * 4] {
            let baseline = step_many_outputs(g, 1, q_bytes);
            // Solo/batched agreement at 1 thread.
            let n = g.num_nodes() as usize;
            for (label, mut e) in engines_at(g, 1, q_bytes) {
                for q in 0..4u32 {
                    let x: Vec<f32> = (0..g.num_nodes()).map(|v| ((v + q) % 13) as f32).collect();
                    let mut y = vec![0.0f32; n];
                    e.step(&x, &mut y).unwrap();
                    let batched = &baseline.iter().find(|(l, _)| *l == label).unwrap().1;
                    assert_eq!(
                        &batched[q as usize], &y,
                        "{label} solo vs batched query {q}"
                    );
                }
            }
            for &t in &thread_matrix()[1..] {
                let got = step_many_outputs(g, t, q_bytes);
                for ((l1, y1), (lt, yt)) in baseline.iter().zip(&got) {
                    assert_eq!(y1, yt, "step_many {lt} differs from 1-thread {l1}");
                }
            }
        }
    }
}

#[test]
fn baseline_runner_backends_bit_identical_across_thread_counts() {
    use pcpm::baselines::{bvgas_engine, pdpr_engine};
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 55)).unwrap();
    let x = int_x(g.num_nodes());
    let n = g.num_nodes() as usize;
    let run_all = |threads: usize| -> Vec<(&'static str, Vec<f32>)> {
        let cfg = PcpmConfig::default()
            .with_partition_bytes(64 * 4)
            .with_threads(threads);
        [
            bvgas_engine(&g, &cfg).unwrap(),
            pdpr_engine(&g, &cfg).unwrap(),
        ]
        .map(|mut e| {
            let name = e.report().backend;
            let mut y = vec![0.0f32; n];
            e.step(&x, &mut y).unwrap();
            (name, y)
        })
        .into_iter()
        .collect()
    };
    let baseline = run_all(1);
    for &t in &thread_matrix()[1..] {
        for ((name, y1), (_, yt)) in baseline.iter().zip(run_all(t)) {
            assert_eq!(y1, &yt, "baseline backend {name} at {t} threads");
        }
    }
}

#[test]
fn integer_algebra_bit_identical_across_thread_counts() {
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(8, 6, 11)).unwrap();
    let xl: Vec<u32> = (0..g.num_nodes()).collect();
    let n = g.num_nodes() as usize;
    let run = |threads: usize| -> Vec<Vec<u32>> {
        BackendKind::ALL
            .map(|kind| {
                let mut e = Engine::<MinLabel>::builder(&g)
                    .partition_bytes(64 * 4)
                    .backend(kind)
                    .threads(threads)
                    .build()
                    .unwrap();
                let mut y = vec![0u32; n];
                e.step(&xl, &mut y).unwrap();
                y
            })
            .into_iter()
            .collect()
    };
    let baseline = run(1);
    for &t in &thread_matrix()[1..] {
        assert_eq!(baseline, run(t), "min-label at {t} threads");
    }
}

/// The streaming update path must also be thread-count
/// deterministic: update + step equals the 1-thread run bit for bit,
/// on every bin format.
#[test]
fn streaming_repair_bit_identical_across_thread_counts() {
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 77)).unwrap();
    let x = int_x(g.num_nodes());
    // Edit: drop the first edge of a few sources, insert a couple.
    let mut deletes = Vec::new();
    for s in [1u32, 2, 70, 400] {
        if let Some(&t) = g.neighbors(s).first() {
            deletes.push((s, t));
        }
    }
    let inserts = vec![(3u32, 400u32), (65, 9)];
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.retain(|e| !deletes.contains(e));
    edges.extend_from_slice(&inserts);
    edges.sort_unstable();
    edges.dedup();
    let g2 = Arc::new(Csr::from_edges(g.num_nodes(), &edges).unwrap());
    let batch = pcpm::core::update::UpdateBatch::from_parts(inserts, deletes);

    let run = |threads: usize, format: BinFormatKind| -> Vec<f32> {
        let mut e = Engine::<PlusF32>::builder(&g)
            .partition_bytes(64 * 4)
            .bin_format(format)
            .threads(threads)
            .build()
            .unwrap();
        assert!(matches!(
            e.update(&g2, None, &batch).unwrap(),
            pcpm::core::update::UpdateOutcome::Rebuilt
        ));
        let mut y = vec![0.0f32; g2.num_nodes() as usize];
        e.step(&x, &mut y).unwrap();
        y
    };
    for format in format_matrix() {
        let baseline = run(1, format);
        for &t in &thread_matrix()[1..] {
            assert_eq!(
                baseline,
                run(t, format),
                "update at {t} threads, format={format}"
            );
        }
    }
}

/// Under the default partition budget the layout follows the thread
/// count (scale 16 is one 256 KB partition; its engines split to two
/// partitions per worker), and with it the grouping of each round's L1
/// change. Every fixed-point driver must still stop at the same
/// iteration with the same scores and the same `last_delta` bits.
#[test]
fn default_budget_fixed_points_bit_identical_across_thread_counts() {
    use pcpm::core::fixed_point::{fixed_point, FixedPoint};
    use pcpm::core::pagerank::pagerank_with_unified_engine;
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(16, 4, 21)).unwrap();
    let n = g.num_nodes() as usize;
    let pr = PcpmConfig::default()
        .with_iterations(100)
        .with_tolerance(1e-6);
    let pr_dangling = PcpmConfig {
        redistribute_dangling: true,
        ..pr
    };
    let seed_sets = [vec![0u32], vec![1, 2], vec![4095, 30_000, 65_535]];
    let katz_alpha = 1.0 / (g.in_degrees().into_iter().max().unwrap_or(0) as f32 + 1.0);
    let katz = FixedPoint {
        scale: &vec![1.0; n],
        max_iterations: 100,
        tolerance: Some(1e-3),
        dangling: false,
        graph: Some(&g),
    };
    let run = |threads: usize| -> Vec<(Vec<f32>, usize, u64)> {
        let mut engine = Engine::<PlusF32>::builder(&g)
            .threads(threads)
            .build()
            .unwrap();
        let want_k = match threads {
            1 => Some(1),
            2 => Some(4),
            4 => Some(8),
            8 => Some(16),
            _ => None,
        };
        let report = engine.report();
        if let Some(k) = want_k {
            assert_eq!(report.partitions, k, "{threads} threads");
        }
        assert_eq!(
            report.partitions,
            g.num_nodes().div_ceil(engine.partition_nodes())
        );
        let mut runs = vec![
            pagerank_with_unified_engine(&g, &pr, &mut engine, None).unwrap(),
            pagerank_with_unified_engine(&g, &pr_dangling, &mut engine, None).unwrap(),
        ];
        runs.extend(
            personalized_pagerank_many_with_unified_engine(&g, &seed_sets, &pr, &mut engine)
                .unwrap(),
        );
        runs.extend(
            fixed_point(&mut engine, &katz, vec![vec![1.0; n]], |_, _| {
                move |sum, _, _| katz_alpha * sum + 1.0
            })
            .unwrap(),
        );
        // Each run stops on its tolerance, not on the iteration cap.
        assert!(runs.iter().all(|r| r.converged), "{threads} threads");
        (runs.into_iter())
            .map(|r| (r.scores, r.iterations, r.last_delta.to_bits()))
            .collect()
    };
    let baseline = run(1);
    for &t in &thread_matrix()[1..] {
        for (i, (want, got)) in baseline.iter().zip(run(t)).enumerate() {
            assert_eq!(want.1, got.1, "run {i}: iterations at {t} threads");
            assert_eq!(want.2, got.2, "run {i}: last_delta bits at {t} threads");
            assert!(want.0 == got.0, "run {i}: scores at {t} threads");
        }
    }
}

/// Regression (the knob must never silently rot again): a 4-thread
/// engine actually spawns 3 pool workers (the thread that submits a job
/// is the fourth), and a step on a graph with multiple chunks actually
/// dispatches jobs to them. Counters are
/// monotonic and process-global, so concurrent tests only push them
/// higher — the `>=` deltas stay sound.
#[test]
fn threads_knob_spawns_workers_and_dispatches_jobs() {
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 5)).unwrap();
    let spawned_before = rayon::diagnostics::workers_spawned();
    let mut engine = Engine::<PlusF32>::builder(&g)
        .partition_bytes(64 * 4)
        .threads(4)
        .build()
        .unwrap();
    assert!(
        rayon::diagnostics::workers_spawned() >= spawned_before + 3,
        "a 4-thread engine must spawn 3 pool workers"
    );
    let jobs_before = rayon::diagnostics::jobs_dispatched();
    let x = int_x(g.num_nodes());
    let mut y = vec![0.0f32; g.num_nodes() as usize];
    engine.step(&x, &mut y).unwrap();
    assert!(
        rayon::diagnostics::jobs_dispatched() > jobs_before,
        "a step on a 4-thread engine must dispatch work to the pool"
    );
    // Workers are spawned once per ENGINE, not once per call: 100
    // further steps on this engine spawn zero workers of their own. Any
    // spawns visible in this window come from concurrent tests building
    // their engines (a small constant each), so a bound far below the
    // old per-call churn (4 workers × 100 calls = 400) is sound.
    let spawned_before_steps = rayon::diagnostics::workers_spawned();
    for _ in 0..100 {
        engine.step(&x, &mut y).unwrap();
    }
    let churn = rayon::diagnostics::workers_spawned() - spawned_before_steps;
    assert!(
        churn < 200,
        "per-call pool churn: {churn} workers spawned across 100 steps of one engine"
    );
}
