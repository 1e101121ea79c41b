//! The engine-level tests: every backend through the [`Engine`] front end.

use super::engine::BuildRecipe;
use super::*;
use crate::algebra::{MinLabel, MinPlusF32, PlusF32};
use crate::format::BinFormatKind;
use crate::update::{RepairStats, UpdateBatch, UpdateOutcome};
use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};
use pcpm_graph::EdgeWeights;

/// Exact integer-valued inputs: every backend must produce
/// bit-identical f32 sums.
fn int_x(n: u32) -> Vec<f32> {
    (0..n).map(|v| (v % 13) as f32).collect()
}

fn reference(g: &Csr, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0f32; g.num_nodes() as usize];
    for (s, t) in g.edges() {
        y[t as usize] += x[s as usize];
    }
    y
}

#[test]
fn all_backends_match_reference_unweighted() {
    let g = rmat(&RmatConfig::graph500(9, 8, 3)).unwrap();
    let x = int_x(g.num_nodes());
    let want = reference(&g, &x);
    for kind in BackendKind::ALL {
        let mut engine = Engine::<PlusF32>::builder(&g)
            .partition_bytes(64 * 4)
            .backend(kind)
            .build()
            .unwrap();
        let mut y = vec![0.0f32; g.num_nodes() as usize];
        engine.step(&x, &mut y).unwrap();
        assert_eq!(y, want, "backend {}", kind.name());
    }
}

#[test]
fn all_backends_match_on_weighted_min_plus() {
    // Eighth-grain weights keep every sum exact in f32.
    let g = erdos_renyi(200, 1600, 7).unwrap();
    let w = EdgeWeights::new(
        &g,
        (0..g.num_edges())
            .map(|i| ((i % 8) + 1) as f32 / 8.0)
            .collect(),
    )
    .unwrap();
    let x: Vec<f32> = (0..200).map(|v| (v % 5) as f32).collect();
    let mut outputs = Vec::new();
    for kind in BackendKind::ALL {
        let mut engine = Engine::<MinPlusF32>::builder(&g)
            .partition_bytes(32 * 4)
            .weights(&w)
            .backend(kind)
            .build()
            .unwrap();
        let mut y = vec![0.0f32; 200];
        engine.step(&x, &mut y).unwrap();
        outputs.push(y);
    }
    for other in &outputs[1..] {
        assert_eq!(&outputs[0], other);
    }
}

#[test]
fn integer_algebra_runs_on_every_backend() {
    let g = rmat(&RmatConfig::graph500(8, 6, 11)).unwrap();
    let x: Vec<u32> = (0..g.num_nodes()).collect();
    let mut outputs = Vec::new();
    for kind in BackendKind::ALL {
        let mut engine = Engine::<MinLabel>::builder(&g)
            .partition_bytes(64 * 4)
            .backend(kind)
            .build()
            .unwrap();
        let mut y = vec![0u32; g.num_nodes() as usize];
        engine.step(&x, &mut y).unwrap();
        outputs.push(y);
    }
    for other in &outputs[1..] {
        assert_eq!(&outputs[0], other);
    }
}

#[test]
fn every_format_integer_algebra_matches_wide() {
    use crate::algebra::MinLevel;
    let g = rmat(&RmatConfig::graph500(9, 6, 23)).unwrap();
    let x: Vec<u32> = (0..g.num_nodes()).map(|v| v % 11).collect();
    let mut outputs = Vec::new();
    for format in BinFormatKind::ALL {
        let mut engine = Engine::<MinLevel>::builder(&g)
            .partition_bytes(128 * 4)
            .bin_format(format)
            .build()
            .unwrap();
        let mut y = vec![0u32; g.num_nodes() as usize];
        engine.step(&x, &mut y).unwrap();
        outputs.push(y);
    }
    assert_eq!(outputs[0], outputs[1], "compact");
    assert_eq!(outputs[0], outputs[2], "delta");
}

#[test]
fn compact_and_csr_traversal_variants_agree() {
    let g = rmat(&RmatConfig::graph500(9, 8, 19)).unwrap();
    let x = int_x(g.num_nodes());
    let want = reference(&g, &x);
    let variants: Vec<Engine<PlusF32>> = vec![
        Engine::builder(&g)
            .partition_bytes(512 * 4)
            .bin_format(BinFormatKind::Compact)
            .build()
            .unwrap(),
        Engine::builder(&g)
            .partition_bytes(512 * 4)
            .scatter(ScatterKind::CsrTraversal)
            .build()
            .unwrap(),
        Engine::builder(&g)
            .partition_bytes(512 * 4)
            .gather(GatherKind::Branchy)
            .build()
            .unwrap(),
    ];
    for mut engine in variants {
        let mut y = vec![0.0f32; g.num_nodes() as usize];
        engine.step(&x, &mut y).unwrap();
        assert_eq!(y, want);
    }
}

#[test]
fn build_time_rejection_of_bad_combinations() {
    let g = erdos_renyi(100, 400, 2).unwrap();
    // Compact + branchy gather: rejected at build, not at step.
    assert!(matches!(
        Engine::<PlusF32>::builder(&g)
            .partition_bytes(256)
            .bin_format(BinFormatKind::Compact)
            .gather(GatherKind::Branchy)
            .build(),
        Err(PcpmError::BadConfig(_))
    ));
    // Non-wide bin formats on a non-PCPM backend.
    assert!(Engine::<PlusF32>::builder(&g)
        .partition_bytes(256)
        .bin_format(BinFormatKind::Compact)
        .backend(BackendKind::Pull)
        .build()
        .is_err());
    assert!(Engine::<PlusF32>::builder(&g)
        .partition_bytes(256)
        .bin_format(BinFormatKind::Delta)
        .backend(BackendKind::Pull)
        .build()
        .is_err());
    // Branchy gather on a non-wide format.
    assert!(Engine::<PlusF32>::builder(&g)
        .partition_bytes(256)
        .bin_format(BinFormatKind::Delta)
        .gather(GatherKind::Branchy)
        .build()
        .is_err());
    // Ablation variants on a non-PCPM backend.
    assert!(Engine::<PlusF32>::builder(&g)
        .scatter(ScatterKind::CsrTraversal)
        .backend(BackendKind::Pull)
        .build()
        .is_err());
    // Oversized compact partitions (the default 256 KB holds 64 Ki
    // nodes > 2^15) still rejected by config validation; delta has
    // no partition-size restriction.
    assert!(Engine::<PlusF32>::builder(&g)
        .bin_format(BinFormatKind::Compact)
        .build()
        .is_err());
    assert!(Engine::<PlusF32>::builder(&g)
        .bin_format(BinFormatKind::Delta)
        .build()
        .is_ok());
}

#[test]
fn built_engine_never_fails_on_variant_mismatch() {
    // Every successfully built engine must run every step without a
    // config error — the invariant the build-time validation buys.
    let g = erdos_renyi(150, 900, 4).unwrap();
    let x = int_x(150);
    for kind in BackendKind::ALL {
        let mut engine = Engine::<PlusF32>::builder(&g)
            .partition_bytes(128)
            .backend(kind)
            .build()
            .unwrap();
        let mut y = vec![0.0f32; 150];
        for _ in 0..3 {
            engine.step(&x, &mut y).unwrap();
        }
    }
}

#[test]
fn report_accumulates_and_names_backend() {
    let g = erdos_renyi(100, 500, 9).unwrap();
    let mut engine = Engine::<PlusF32>::builder(&g)
        .partition_bytes(64 * 4)
        .build()
        .unwrap();
    let x = int_x(100);
    let mut y = vec![0.0f32; 100];
    for _ in 0..5 {
        engine.step(&x, &mut y).unwrap();
    }
    let report = engine.report();
    assert_eq!(report.backend, "pcpm");
    assert_eq!(report.steps, 5);
    assert!(report.compression_ratio.unwrap() >= 1.0);
    assert!(report.aux_memory_bytes > 0);
    assert_eq!(report.bin_format, Some("wide"));
    assert!((report.bin_compression.unwrap() - 1.0).abs() < 1e-12);
    let pull = Engine::<PlusF32>::builder(&g)
        .backend(BackendKind::Pull)
        .build()
        .unwrap();
    assert_eq!(pull.report().backend, "pull");
    assert!(pull.report().compression_ratio.is_none());
    assert!(pull.report().bin_format.is_none());
}

#[test]
fn report_carries_per_format_compression() {
    let g = rmat(&RmatConfig::graph500(9, 8, 3)).unwrap();
    let mut ratios = Vec::new();
    for format in BinFormatKind::ALL {
        let engine = Engine::<PlusF32>::builder(&g)
            .partition_bytes(64 * 4)
            .bin_format(format)
            .build()
            .unwrap();
        let report = engine.report();
        assert_eq!(report.bin_format, Some(format.name()));
        ratios.push(report.bin_compression.unwrap());
    }
    assert!((ratios[0] - 1.0).abs() < 1e-12, "wide is the baseline");
    assert!((ratios[1] - 2.0).abs() < 1e-12, "compact halves dest IDs");
    assert!(ratios[2] > 2.0, "delta beats compact, got {}", ratios[2]);
}

#[test]
fn step_validates_dimensions() {
    let g = erdos_renyi(10, 30, 1).unwrap();
    let mut engine = Engine::<PlusF32>::builder(&g).build().unwrap();
    let mut y = vec![0.0f32; 10];
    assert!(matches!(
        engine.step(&[0.0; 3], &mut y),
        Err(PcpmError::DimensionMismatch {
            expected: 10,
            got: 3
        })
    ));
    let x = vec![0.0f32; 10];
    let mut y_bad = vec![0.0f32; 2];
    assert!(engine.step(&x, &mut y_bad).is_err());
}

/// Splits a graph edit into (new graph, batch): deletes the first
/// edge of every source in `del_sources`, inserts `inserts`.
fn edit(g: &Csr, del_sources: &[u32], inserts: &[(u32, u32)]) -> (Arc<Csr>, UpdateBatch) {
    let mut deletes = Vec::new();
    for &s in del_sources {
        if let Some(&t) = g.neighbors(s).first() {
            deletes.push((s, t));
        }
    }
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.retain(|e| !deletes.contains(e));
    edges.extend_from_slice(inserts);
    edges.sort_unstable();
    edges.dedup();
    let g2 = Csr::from_edges(g.num_nodes(), &edges).unwrap();
    (
        Arc::new(g2),
        UpdateBatch::from_parts(inserts.to_vec(), deletes),
    )
}

/// Eighth-grain weights, a pure function of the endpoints: every sum
/// stays exact in f32.
fn weights_of(g: &Csr) -> Vec<f32> {
    g.edges()
        .map(|(s, t)| (((s + t) % 8) + 1) as f32 / 8.0)
        .collect()
}

fn step_of(engine: &mut Engine<PlusF32>, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0f32; x.len()];
    engine.step(x, &mut y).unwrap();
    y
}

#[test]
fn update_equals_a_fresh_build() {
    let g = Arc::new(rmat(&RmatConfig::graph500(9, 8, 55)).unwrap());
    let (g2, batch) = edit(&g, &[1, 2, 70], &[(3, 400), (65, 9)]);
    let (w, w2) = (weights_of(&g), weights_of(&g2));
    let (we, we2) = (
        EdgeWeights::new(&g, w).unwrap(),
        EdgeWeights::new(&g2, w2.clone()).unwrap(),
    );
    let x = int_x(g.num_nodes());
    let mut variants = vec![(BackendKind::Pull, BinFormatKind::Wide, ScatterKind::Png)];
    for format in BinFormatKind::ALL {
        for scatter in [ScatterKind::Png, ScatterKind::CsrTraversal] {
            variants.push((BackendKind::Pcpm, format, scatter));
        }
    }
    for (kind, format, scatter) in variants {
        for weighted in [false, true] {
            let build = |graph: &Arc<Csr>, w: &EdgeWeights| {
                let b = Engine::<PlusF32>::builder_shared(graph)
                    .partition_bytes(64 * 4)
                    .backend(kind)
                    .bin_format(format)
                    .scatter(scatter);
                let b = if weighted { b.weights(w) } else { b };
                b.build().unwrap()
            };
            let mut engine = build(&g, &we);
            let new_w = weighted.then_some(&w2[..]);
            let outcome = engine.update(&g2, new_w, &batch).unwrap();
            let case = format!("{} {format} {scatter:?} weighted={weighted}", kind.name());
            assert_eq!(outcome, UpdateOutcome::Rebuilt, "{case}");
            let fresh = step_of(&mut build(&g2, &we2), &x);
            assert_eq!(step_of(&mut engine, &x), fresh, "{case}");
        }
    }
    // A snapshot-loaded engine rebuilds from the recipe its snapshot
    // recorded.
    for format in BinFormatKind::ALL {
        let build = |graph: &Arc<Csr>| {
            Engine::<PlusF32>::builder_shared(graph)
                .partition_bytes(64 * 4)
                .bin_format(format)
                .build()
                .unwrap()
        };
        let snapshot = build(&g).snapshot().unwrap();
        let mut loaded = SnapshotEngineBuilder::<PlusF32>::from_snapshot(snapshot, Duration::ZERO)
            .build()
            .unwrap();
        let outcome = loaded.update(&g2, None, &batch).unwrap();
        assert_eq!(outcome, UpdateOutcome::Rebuilt, "loaded {format}");
        let fresh = step_of(&mut build(&g2), &x);
        assert_eq!(step_of(&mut loaded, &x), fresh, "loaded {format}");
    }
}

#[test]
fn the_derived_layout_outlives_updates_and_pools() {
    // 20 000 nodes under a 64 KB budget: one thread keeps q = 16 384
    // (k = 2), two halve it to 4 096 (k = 5).
    let g = Arc::new(erdos_renyi(20_000, 80_000, 31).unwrap());
    let (g2, batch) = edit(&g, &[1, 2], &[(3, 19_999)]);
    let build = |graph: &Arc<Csr>, threads| {
        Engine::<PlusF32>::builder_shared(graph)
            .partition_bytes(64 * 1024)
            .threads(threads)
            .build()
            .unwrap()
    };
    assert_eq!(build(&g, 1).partition_nodes(), 16_384);
    for kind in BackendKind::ALL {
        let engine = Engine::<PlusF32>::builder(&g)
            .partition_bytes(64 * 1024)
            .backend(kind)
            .threads(2)
            .build()
            .unwrap();
        assert_eq!(engine.report().partitions, 5, "{}", kind.name());
    }
    let mut engine = build(&g, 2).with_threads(Some(1)).unwrap();
    assert_eq!(engine.partition_nodes(), 4_096);
    engine.update(&g2, None, &batch).unwrap();
    assert_eq!(engine.partition_nodes(), 4_096);
    assert_eq!(engine.report().partitions, 5);
    assert_eq!(engine.snapshot().unwrap().partition_bytes(), 4_096 * 4);
    let x = int_x(g.num_nodes());
    assert_eq!(step_of(&mut engine, &x), step_of(&mut build(&g2, 2), &x));
}

#[test]
fn update_takes_new_weights_on_untouched_edges() {
    // The batch touches source partition 0 only; the new weights
    // also change the last edge, whose source partition it leaves
    // alone.
    let g = Arc::new(rmat(&RmatConfig::graph500(9, 8, 55)).unwrap());
    let (g2, batch) = edit(&g, &[1], &[(3, 400)]);
    let q = 64;
    assert_eq!(batch.touched_src_partitions(q), vec![0]);
    assert!(g2.edges().last().unwrap().0 >= q);
    let we = EdgeWeights::new(&g, weights_of(&g)).unwrap();
    let mut w2 = weights_of(&g2);
    *w2.last_mut().unwrap() += 1.0;
    let we2 = EdgeWeights::new(&g2, w2.clone()).unwrap();
    let x = vec![1.0f32; g.num_nodes() as usize];
    for format in [BinFormatKind::Wide, BinFormatKind::Delta] {
        let build = |graph: &Arc<Csr>, w: &EdgeWeights| {
            Engine::<PlusF32>::builder(graph)
                .partition_bytes(q as usize * 4)
                .bin_format(format)
                .weights(w)
                .build()
                .unwrap()
        };
        let mut engine = build(&g, &we);
        engine.update(&g2, Some(&w2), &batch).unwrap();
        let fresh = step_of(&mut build(&g2, &we2), &x);
        assert_eq!(step_of(&mut engine, &x), fresh, "{format}");
    }
}

#[test]
fn after_an_update_the_report_describes_the_rebuild() {
    let g = Arc::new(erdos_renyi(300, 2400, 17).unwrap());
    let (g2, batch) = edit(&g, &[5], &[(7, 200)]);
    let pcpm = || {
        Engine::<PlusF32>::builder_shared(&g)
            .partition_bytes(64 * 4)
            .build()
            .unwrap()
    };
    // An hour of "load": the rebuild must replace it, not add to it.
    let load = Duration::from_secs(3600);
    let loaded = SnapshotEngineBuilder::<PlusF32>::from_snapshot(pcpm().snapshot().unwrap(), load)
        .build()
        .unwrap();
    assert_eq!(loaded.report().snapshot_load, Some(load));
    let pull = Engine::<PlusF32>::builder(&g)
        .backend(BackendKind::Pull)
        .build()
        .unwrap();
    for (case, mut engine) in [("pcpm", pcpm()), ("loaded", loaded), ("pull", pull)] {
        let t0 = crate::telemetry::stopwatch();
        engine.update(&g2, None, &batch).unwrap();
        let took = t0.elapsed();
        let r = engine.report();
        assert!(!r.loaded_from_snapshot, "{case}");
        assert_eq!(r.snapshot_load, None, "{case}");
        assert!(
            r.preprocess <= took,
            "{case}: {:?} > {took:?}",
            r.preprocess
        );
    }
}

#[test]
fn a_failed_rebuild_leaves_typed_errors_not_freed_bins() {
    let g = Arc::new(erdos_renyi(100, 500, 3).unwrap());
    let (g2, batch) = edit(&g, &[4], &[(9, 90)]);
    let mut engine = Engine::<PlusF32>::builder_shared(&g)
        .partition_bytes(64 * 4)
        .build()
        .unwrap();
    // A recipe the build rejects, so the prepare after the release
    // fails.
    let good = engine.recipe.unwrap();
    let cfg = good.cfg.with_partition_bytes(0);
    engine.recipe = Some(BuildRecipe { cfg, ..good });
    assert_eq!(
        engine.update(&g2, None, &batch),
        Err(PcpmError::PartitionTooSmall)
    );
    let x = int_x(100);
    let mut y = vec![0.0f32; 100];
    let released = Err(PcpmError::BadConfig(RELEASED));
    assert_eq!(engine.step(&x, &mut y).map(|_| ()), released);
    let mut y2 = y.clone();
    let batched = engine.step_many(&[&x[..], &x[..]], &mut [&mut y[..], &mut y2[..]]);
    assert_eq!(batched.map(|_| ()), released);
    assert!(engine.snapshot().is_err());
    assert_eq!(engine.report().backend, "released");
    // The next update that builds brings it back.
    engine.recipe = Some(good);
    assert_eq!(engine.update(&g2, None, &batch), Ok(UpdateOutcome::Rebuilt));
    engine.step(&x, &mut y).unwrap();
    assert_eq!(y, reference(&g2, &x));
}

#[test]
fn update_rejects_out_of_range_batch() {
    let g = Arc::new(erdos_renyi(50, 200, 8).unwrap());
    let mut engine = Engine::<PlusF32>::builder(&g).build().unwrap();
    let batch = UpdateBatch::from_parts(vec![(0, 99)], vec![]);
    assert!(matches!(
        engine.update(&g, None, &batch),
        Err(PcpmError::DimensionMismatch { .. })
    ));
}

#[test]
fn external_backend_cannot_be_rebuilt_through_update() {
    // Wrapped by `from_backend`, even a PCPM backend has no build
    // recipe; the refused update leaves it serving.
    let g = Arc::new(erdos_renyi(40, 160, 5).unwrap());
    let spec = PrepareSpec {
        graph: &g,
        shared: Some(&g),
        weights: None,
        cfg: PcpmConfig::default().with_partition_bytes(16 * 4),
        scatter: ScatterKind::default(),
        gather: GatherKind::default(),
    };
    let backends: [Box<dyn Backend<PlusF32>>; 2] = [
        Box::new(PullBackend::prepare(&spec).unwrap()),
        Box::new(PcpmBackend::<PlusF32>::prepare(&spec).unwrap()),
    ];
    let (g2, batch) = edit(&g, &[], &[(0, 1)]);
    let x = int_x(40);
    for backend in backends {
        let mut engine = Engine::from_backend(backend, 40, 40);
        assert!(matches!(
            engine.update(&g2, None, &batch),
            Err(PcpmError::BadConfig(_))
        ));
        assert_eq!(step_of(&mut engine, &x), reference(&g, &x));
    }
}

#[test]
fn builder_shared_makes_retaining_backends_zero_copy() {
    let g = Arc::new(erdos_renyi(100, 500, 3).unwrap());
    let base = Arc::strong_count(&g);
    let ablation = Engine::<PlusF32>::builder_shared(&g)
        .partition_bytes(64 * 4)
        .scatter(ScatterKind::CsrTraversal)
        .build()
        .unwrap();
    // The CSR-traversal backend AND the engine's retained snapshot
    // source hold the SAME allocation, not deep copies.
    assert_eq!(Arc::strong_count(&g), base + 2);
    drop(ablation);
    assert_eq!(Arc::strong_count(&g), base);
}

#[test]
fn update_rejects_weightedness_change_and_short_weights() {
    let g = erdos_renyi(60, 300, 13).unwrap();
    let w = EdgeWeights::ones(&g);
    let (g2, batch) = edit(&g, &[2], &[(1, 50)]);
    // Weighted engine, no weights passed: refuse instead of silently
    // rebuilding unweighted.
    let mut weighted = Engine::<PlusF32>::builder(&g)
        .partition_bytes(64 * 4)
        .weights(&w)
        .build()
        .unwrap();
    assert!(matches!(
        weighted.update(&g2, None, &batch),
        Err(PcpmError::BadConfig(_))
    ));
    // Unweighted engine, weights passed: same refusal.
    let w2 = vec![1.0f32; g2.num_edges() as usize];
    let mut unweighted = Engine::<PlusF32>::builder(&g)
        .partition_bytes(64 * 4)
        .build()
        .unwrap();
    assert!(matches!(
        unweighted.update(&g2, Some(&w2), &batch),
        Err(PcpmError::BadConfig(_))
    ));
    // Weighted engine, stale-length weights: dimension error, not a
    // panic inside the parallel fill.
    let stale = vec![1.0f32; g.num_edges() as usize - 1];
    assert!(matches!(
        weighted.update(&g2, Some(&stale), &batch),
        Err(PcpmError::DimensionMismatch { .. })
    ));
}

#[test]
fn empty_batch_update_is_a_cheap_noop() {
    let g = Arc::new(erdos_renyi(80, 400, 6).unwrap());
    for kind in BackendKind::ALL {
        let mut engine = Engine::<PlusF32>::builder(&g)
            .partition_bytes(64 * 4)
            .backend(kind)
            .build()
            .unwrap();
        let outcome = engine.update(&g, None, &UpdateBatch::default()).unwrap();
        assert!(
            matches!(
                outcome,
                UpdateOutcome::Repaired(RepairStats {
                    partitions_rebuilt: 0,
                    ..
                })
            ),
            "backend {}",
            kind.name()
        );
    }
}

#[test]
fn empty_graph_on_every_backend() {
    let g = Csr::from_edges(0, &[]).unwrap();
    for kind in BackendKind::ALL {
        let mut engine = Engine::<PlusF32>::builder(&g)
            .backend(kind)
            .build()
            .unwrap();
        let mut y: Vec<f32> = vec![];
        engine.step(&[], &mut y).unwrap();
    }
}
