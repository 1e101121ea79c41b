//! Engine-snapshot acceptance: loading a snapshot skips PNG/bin
//! construction entirely and serves **bit-identical** PageRank to the
//! cold build, across bin formats × thread counts; corrupted, truncated
//! or mismatched snapshots are rejected with typed errors (property
//! tested); the loaded engine keeps the full contract (update,
//! re-snapshot, reports).

use pcpm::core::algebra::{MinLevel, PlusF32};
use pcpm::core::pagerank::pagerank_with_unified_engine;
use pcpm::core::update::UpdateOutcome;
use pcpm::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::format_matrix;

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pcpm_snapshot_tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

fn cfg_for(format: BinFormatKind, threads: Option<usize>) -> PcpmConfig {
    let mut cfg = PcpmConfig::default()
        .with_partition_bytes(64 * 4)
        .with_iterations(15)
        .with_bin_format(format);
    cfg.threads = threads;
    cfg
}

/// The acceptance bar: snapshot-served ranks are bit-identical to the
/// cold build for every format × threads {1, 4}, and the loaded engine
/// reports that it skipped the build.
#[test]
fn loaded_engine_serves_bit_identical_pagerank() {
    let g = Arc::new(pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 77)).unwrap());
    for format in format_matrix() {
        let path = tmp_path(&format!("roundtrip-{format}.pcpmc"));
        let cfg = cfg_for(format, None);
        let mut cold = Engine::<PlusF32>::builder_shared(&g)
            .config(cfg)
            .build()
            .unwrap();
        let bytes = cold.save_snapshot(&path).unwrap();
        assert!(bytes > 0);
        let want = pagerank_with_unified_engine(&g, &cfg, &mut cold, None)
            .unwrap()
            .scores;
        for threads in [1usize, 4] {
            let mut served = EngineBuilder::<PlusF32>::from_snapshot(&path)
                .unwrap()
                .expect_config(&cfg, false)
                .unwrap()
                .expect_graph(&g)
                .unwrap()
                .threads(threads)
                .build()
                .unwrap();
            let report = served.report();
            assert!(report.loaded_from_snapshot, "format {format}");
            assert!(report.snapshot_load.is_some());
            assert_eq!(report.bin_format, Some(format.name()));
            let scores = pagerank_with_unified_engine(&g, &cfg, &mut served, None)
                .unwrap()
                .scores;
            assert_eq!(want, scores, "format {format}, {threads} threads");
        }
        // Cold engines report no snapshot involvement.
        assert!(
            !Engine::<PlusF32>::builder_shared(&g)
                .config(cfg)
                .build()
                .unwrap()
                .report()
                .loaded_from_snapshot
        );
    }
}

/// Weighted dataplanes snapshot too: the CSR-order weights and the
/// bin-order weight stream both round-trip.
#[test]
fn weighted_snapshot_round_trips() {
    let g = Arc::new(pcpm::graph::gen::erdos_renyi(300, 2400, 11).unwrap());
    let w = EdgeWeights::new(
        &g,
        (0..g.num_edges())
            .map(|i| ((i % 8) + 1) as f32 / 8.0)
            .collect(),
    )
    .unwrap();
    let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v % 7) as f32).collect();
    for format in format_matrix() {
        let path = tmp_path(&format!("weighted-{format}.pcpmc"));
        let cfg = cfg_for(format, None);
        let mut cold = Engine::<PlusF32>::builder_shared(&g)
            .config(cfg)
            .weights(&w)
            .build()
            .unwrap();
        cold.save_snapshot(&path).unwrap();
        let snap = Snapshot::load(&path).unwrap();
        assert!(snap.is_weighted());
        assert_eq!(snap.weights().unwrap(), w.as_slice());
        let mut served = Engine::<PlusF32>::from_snapshot(&path).unwrap();
        let n = g.num_nodes() as usize;
        let (mut ya, mut yb) = (vec![0.0f32; n], vec![0.0f32; n]);
        cold.step(&x, &mut ya).unwrap();
        served.step(&x, &mut yb).unwrap();
        assert_eq!(ya, yb, "format {format}");
        // Weighted-ness expectations are enforced.
        assert!(matches!(
            EngineBuilder::<PlusF32>::from_snapshot(&path)
                .unwrap()
                .expect_config(&cfg, false),
            Err(pcpm::core::PcpmError::Snapshot(
                SnapshotError::ConfigMismatch {
                    field: "weighted-ness"
                }
            ))
        ));
    }
}

/// A loaded engine is a full citizen: an update rebuilds it from the
/// snapshot's recipe, and the updated engine can re-snapshot — the serve-update-save loop
/// a streaming deployment runs forever.
#[test]
fn loaded_engine_updates_and_resnapshots() {
    let g = Arc::new(pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 55)).unwrap());
    let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v % 13) as f32).collect();
    // Edit: drop one edge, add two.
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    let removed = edges.remove(7);
    edges.extend([(3, 400), (65, 9)]);
    edges.sort_unstable();
    edges.dedup();
    let g2 = Arc::new(Csr::from_edges(g.num_nodes(), &edges).unwrap());
    let batch = UpdateBatch::from_parts(vec![(3, 400), (65, 9)], vec![removed]);

    for format in format_matrix() {
        let path = tmp_path(&format!("update-{format}.pcpmc"));
        let path2 = tmp_path(&format!("update-{format}-after.pcpmc"));
        Engine::<PlusF32>::builder_shared(&g)
            .config(cfg_for(format, None))
            .build()
            .unwrap()
            .save_snapshot(&path)
            .unwrap();
        let mut served = Engine::<PlusF32>::from_snapshot(&path).unwrap();
        assert!(matches!(
            served.update(&g2, None, &batch).unwrap(),
            UpdateOutcome::Rebuilt
        ));
        // The post-update snapshot captures the post-update graph…
        served.save_snapshot(&path2).unwrap();
        let reloaded_snap = Snapshot::load(&path2).unwrap();
        assert_eq!(**reloaded_snap.graph(), *g2, "format {format}");
        // …and serves the post-update ranks bit-identically.
        let mut reloaded = Engine::<PlusF32>::from_snapshot(&path2).unwrap();
        let mut fresh = Engine::<PlusF32>::builder_shared(&g2)
            .config(cfg_for(format, None))
            .build()
            .unwrap();
        let n = g2.num_nodes() as usize;
        let (mut ya, mut yb, mut yc) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
        served.step(&x, &mut ya).unwrap();
        reloaded.step(&x, &mut yb).unwrap();
        fresh.step(&x, &mut yc).unwrap();
        assert_eq!(ya, yb, "format {format}");
        assert_eq!(ya, yc, "format {format}");
    }
}

/// One layout per epoch: `Engine::snapshot()`, `Snapshot::clone()` and
/// an engine rehydrated from a snapshot — of any algebra — all share the
/// layout (the PNG and the bins) the engine built, and the graph; only
/// an update builds another.
#[test]
fn snapshots_and_rehydrated_engines_share_one_layout() {
    let g = Arc::new(pcpm::graph::gen::rmat(&RmatConfig::graph500(8, 6, 31)).unwrap());
    for format in format_matrix() {
        let mut built = Engine::<PlusF32>::builder_shared(&g)
            .config(cfg_for(format, None))
            .build()
            .unwrap();
        let snap = built.snapshot().unwrap();
        let again = built.snapshot().unwrap();
        assert!(again.layout().ptr_eq(snap.layout()), "{format}: snapshot");
        let clone = snap.clone();
        assert!(clone.layout().ptr_eq(snap.layout()), "{format}: clone");
        assert!(Arc::ptr_eq(clone.graph(), snap.graph()), "{format}: graph");
        let levels = SnapshotEngineBuilder::<MinLevel>::from_snapshot(clone, Default::default())
            .threads(2)
            .build()
            .unwrap();
        let rehydrated = levels.snapshot().unwrap();
        assert!(
            rehydrated.layout().ptr_eq(snap.layout()),
            "{format}: engine"
        );

        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        let removed = edges.remove(0);
        let g2 = Arc::new(Csr::from_edges(g.num_nodes(), &edges).unwrap());
        let batch = UpdateBatch::from_parts(vec![], vec![removed]);
        built.update(&g2, None, &batch).unwrap();
        let next = built.snapshot().unwrap();
        assert!(!next.layout().ptr_eq(snap.layout()), "{format}: update");
        assert!(levels.snapshot().unwrap().layout().ptr_eq(snap.layout()));
    }
}

/// Snapshot retention is never a silent deep copy: a PCPM engine built
/// from a borrowed graph refuses to snapshot (typed), becomes
/// snapshotable after an update hands it an `Arc`, and the effective
/// partition size — not the raw byte count — is what `expect_config`
/// compares (bytes that round to the same q are the same layout).
#[test]
fn retention_is_shared_only_and_config_compares_effective_q() {
    let g = pcpm::graph::gen::erdos_renyi(120, 700, 3).unwrap();
    let mut engine = Engine::<PlusF32>::builder(&g)
        .partition_bytes(64 * 4)
        .build()
        .unwrap();
    assert!(matches!(
        engine.snapshot(),
        Err(pcpm::core::PcpmError::Snapshot(SnapshotError::Unsupported(
            _
        )))
    ));
    // An empty batch is a cheap no-op and does not establish retention…
    let shared = Arc::new(g.clone());
    engine
        .update(&shared, None, &UpdateBatch::default())
        .unwrap();
    assert!(engine.snapshot().is_err());
    // …but a real update passes an Arc the engine retains zero-copy.
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.push((0, 99));
    edges.sort_unstable();
    edges.dedup();
    let g2 = Arc::new(Csr::from_edges(g.num_nodes(), &edges).unwrap());
    engine
        .update(&g2, None, &UpdateBatch::from_parts(vec![(0, 99)], vec![]))
        .unwrap();
    let snap = engine.snapshot().unwrap();
    assert_eq!(**snap.graph(), *g2);

    // Partition bytes that round to the same q are the same layout:
    // a cache built with --partition-bytes 10 (q = 2) must be served
    // under the exact flags that created it.
    let path = tmp_path("odd-partition-bytes.pcpmc");
    let cfg10 = PcpmConfig::default().with_partition_bytes(10);
    let small = Arc::new(pcpm::graph::gen::erdos_renyi(40, 160, 9).unwrap());
    Engine::<PlusF32>::builder_shared(&small)
        .config(cfg10)
        .build()
        .unwrap()
        .save_snapshot(&path)
        .unwrap();
    let loaded = EngineBuilder::<PlusF32>::from_snapshot(&path)
        .unwrap()
        .expect_config(&cfg10, false)
        .unwrap()
        .expect_config(&PcpmConfig::default().with_partition_bytes(8), false)
        .unwrap();
    assert!(matches!(
        loaded.expect_config(&PcpmConfig::default().with_partition_bytes(12), false),
        Err(pcpm::core::PcpmError::Snapshot(
            SnapshotError::ConfigMismatch {
                field: "partition bytes"
            }
        ))
    ));
}

/// A snapshot records the layout its engine derived: one saved from a
/// 4-thread engine, whose default budget was split, loads under that
/// budget on one thread and steps bit for bit like its source; a budget
/// it was not derived from is still a mismatch.
#[test]
fn a_split_layout_loads_under_its_budget() {
    let g = Arc::new(pcpm::graph::gen::rmat(&RmatConfig::graph500(16, 2, 5)).unwrap());
    let cfg = PcpmConfig::default();
    let mut saved = Engine::<PlusF32>::builder_shared(&g)
        .config(cfg.with_threads(4))
        .build()
        .unwrap();
    assert_eq!(saved.partition_nodes(), 8_192);
    let path = tmp_path("split-layout.pcpmc");
    saved.save_snapshot(&path).unwrap();
    assert_eq!(Snapshot::load(&path).unwrap().partition_bytes(), 8_192 * 4);
    let mut loaded = EngineBuilder::<PlusF32>::from_snapshot(&path)
        .unwrap()
        .expect_config(&cfg, false)
        .unwrap()
        .threads(1)
        .build()
        .unwrap();
    assert_eq!(loaded.partition_nodes(), 8_192);
    assert_eq!(loaded.report().partitions, 8);
    let x: Vec<f32> = (0..g.num_nodes()).map(|v| 1.0 / (v + 3) as f32).collect();
    let n = g.num_nodes() as usize;
    let (mut ya, mut yb) = (vec![0.0f32; n], vec![0.0f32; n]);
    saved.step(&x, &mut ya).unwrap();
    loaded.step(&x, &mut yb).unwrap();
    assert_eq!(ya, yb);
    // No halving of these budgets gives 8 192 nodes.
    for bytes in [96 * 1024, 48 * 1024, 16 * 1024] {
        assert!(matches!(
            EngineBuilder::<PlusF32>::from_snapshot(&path)
                .unwrap()
                .expect_config(&cfg.with_partition_bytes(bytes), false),
            Err(pcpm::core::PcpmError::Snapshot(
                SnapshotError::ConfigMismatch {
                    field: "partition bytes"
                }
            ))
        ));
    }
}

/// Engines that cannot be snapshotted say so with a typed error instead
/// of writing a broken file.
#[test]
fn non_snapshotable_engines_refuse() {
    let g = pcpm::graph::gen::erdos_renyi(80, 400, 5).unwrap();
    let engine = Engine::<PlusF32>::builder(&g)
        .backend(BackendKind::Pull)
        .build()
        .unwrap();
    assert!(matches!(
        engine.snapshot(),
        Err(pcpm::core::PcpmError::Snapshot(SnapshotError::Unsupported(
            _
        )))
    ));
    // Missing file: typed I/O error, not a panic.
    assert!(matches!(
        Engine::<PlusF32>::from_snapshot(tmp_path("does-not-exist.pcpmc")),
        Err(pcpm::core::PcpmError::Snapshot(SnapshotError::Io(_)))
    ));
}

/// Every snapshot of a scale-5 RMAT, each format weighted and not, and
/// one update-batch frame: every single-byte flip (low bit and high bit)
/// and every truncation gets a typed error, and so do the frames of the
/// previous format versions.
#[test]
fn every_flip_and_truncation_is_a_typed_error() {
    let g = Arc::new(pcpm::graph::gen::rmat(&RmatConfig::graph500(5, 8, 3)).unwrap());
    let weights = EdgeWeights::random(&g, 5);
    for format in BinFormatKind::ALL {
        for weighted in [false, true] {
            let tag = format!("{format} weighted={weighted}");
            let builder = Engine::<PlusF32>::builder_shared(&g).config(cfg_for(format, None));
            let engine = if weighted {
                builder.weights(&weights).build()
            } else {
                builder.build()
            }
            .unwrap();
            let bytes = engine.snapshot().unwrap().to_bytes();
            assert!(Snapshot::from_bytes(&bytes).is_ok(), "{tag}");
            for i in 0..bytes.len() {
                for bit in [0x01u8, 0x80] {
                    let mut bad = bytes.clone();
                    bad[i] ^= bit;
                    let err = Snapshot::from_bytes(&bad).map(|_| ()).unwrap_err();
                    let typed = match i {
                        0..=7 => err == SnapshotError::BadMagic,
                        8..=11 => {
                            matches!(err, SnapshotError::UnsupportedVersion { supported: 3, .. })
                        }
                        _ => matches!(err, SnapshotError::ChecksumMismatch { .. }),
                    };
                    assert!(typed, "{tag}: byte {i} ^ {bit:#04x} gave {err:?}");
                }
            }
            for len in 0..bytes.len() {
                assert!(
                    Snapshot::from_bytes(&bytes[..len]).is_err(),
                    "{tag}: truncated to {len} bytes"
                );
            }
            // A version-2 header (bytewise checksum) is refused by version.
            let mut v2 = bytes.clone();
            v2[8..12].copy_from_slice(&2u32.to_le_bytes());
            assert_eq!(
                Snapshot::from_bytes(&v2).map(|_| ()),
                Err(SnapshotError::UnsupportedVersion {
                    found: 2,
                    supported: 3
                }),
                "{tag}"
            );
        }
    }

    let edges: Vec<(u32, u32)> = g.edges().collect();
    let batch = UpdateBatch::from_parts(vec![(0, 31), (7, 2), (30, 1)], edges[..4].to_vec());
    let frame = batch.to_bytes();
    assert_eq!(UpdateBatch::from_bytes(&frame).unwrap(), batch);
    let snapshot_err = |bytes: &[u8]| match UpdateBatch::from_bytes(bytes) {
        Err(pcpm::core::PcpmError::Snapshot(e)) => e,
        other => panic!("not a typed snapshot error: {other:?}"),
    };
    for i in 0..frame.len() {
        for bit in [0x01u8, 0x80] {
            let mut bad = frame.clone();
            bad[i] ^= bit;
            let err = snapshot_err(&bad);
            let typed = match i {
                0..=7 => err == SnapshotError::BadMagic,
                _ => matches!(err, SnapshotError::ChecksumMismatch { .. }),
            };
            assert!(typed, "frame byte {i} ^ {bit:#04x} gave {err:?}");
        }
    }
    for len in 0..frame.len() {
        snapshot_err(&frame[..len]);
    }
    // A version-1 frame (bytewise checksum) is refused by its magic.
    let mut v1 = frame.clone();
    v1[..8].copy_from_slice(b"PCPMUB01");
    assert_eq!(snapshot_err(&v1), SnapshotError::BadMagic);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property: NO random mutation of a valid snapshot file — byte
    /// flip, truncation, or extension — is ever accepted or panics the
    /// loader; each is rejected with a typed error.
    #[test]
    fn arbitrary_corruption_is_always_rejected(
        seed in 0u64..3,
        pos in 0u32..10_000,
        flip in 1u32..256,
        mode in 0u32..3,
    ) {
        let pos_frac = f64::from(pos) / 10_000.0;
        let flip = flip as u8;
        // One snapshot per seed (cached per run by the OS page cache;
        // cheap at this scale), cycling through the three formats.
        let format = BinFormatKind::ALL[seed as usize % 3];
        let g = Arc::new(pcpm::graph::gen::rmat(&RmatConfig::graph500(7, 6, seed)).unwrap());
        let engine = Engine::<PlusF32>::builder_shared(&g)
            .config(cfg_for(format, None))
            .build()
            .unwrap();
        let bytes = engine.snapshot().unwrap().to_bytes();
        let mutated = match mode {
            0 => {
                // Flip one byte anywhere in the file.
                let mut m = bytes.clone();
                let i = ((m.len() - 1) as f64 * pos_frac) as usize;
                m[i] ^= flip;
                m
            }
            1 => {
                // Truncate to a random prefix.
                let len = (bytes.len() as f64 * pos_frac) as usize;
                bytes[..len].to_vec()
            }
            _ => {
                // Append trailing garbage.
                let mut m = bytes.clone();
                m.extend_from_slice(&[flip; 3]);
                m
            }
        };
        if mutated != bytes {
            prop_assert!(Snapshot::from_bytes(&mutated).is_err());
        }
    }
}
