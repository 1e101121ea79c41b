//! Format-axis acceptance: the three PCPM bin formats (wide, compact,
//! delta) must be interchangeable — bit-identical PageRank across
//! formats and thread counts — while the compressed formats hold
//! strictly less auxiliary memory. The format list is overridable via
//! `PCPM_TEST_FORMATS=wide,delta`, the thread list via
//! `PCPM_TEST_THREADS=1,4`.

use pcpm::core::algebra::PlusF32;
use pcpm::core::pagerank::pagerank_with_unified_engine;
use pcpm::prelude::*;

mod common;
use common::{format_matrix, thread_matrix};

fn ranks(g: &Csr, format: BinFormatKind, threads: usize) -> Vec<f32> {
    let cfg = PcpmConfig::default()
        .with_partition_bytes(64 * 4)
        .with_iterations(20)
        .with_bin_format(format)
        .with_threads(threads);
    pagerank(g, &cfg).expect("pagerank").scores
}

/// The headline acceptance bar: `DeltaPackedBins` (and compact) produce
/// bit-identical PageRank ranks to the wide format on seeded RMAT and ER
/// inputs, across threads {1, 2, 4, 8}. Real f32 PageRank — not just the
/// integer grid — because every format decodes its segments in the exact
/// same entry order, so rounding is identical.
#[test]
fn pagerank_bit_identical_across_formats_and_threads() {
    let graphs = [
        pcpm::graph::gen::rmat(&RmatConfig::graph500(10, 8, 7)).unwrap(),
        pcpm::graph::gen::erdos_renyi(900, 7200, 19).unwrap(),
    ];
    for g in &graphs {
        let want = ranks(g, BinFormatKind::Wide, 1);
        for format in format_matrix() {
            for &t in &thread_matrix() {
                assert_eq!(
                    want,
                    ranks(g, format, t),
                    "format={format} threads={t} diverged from wide@1"
                );
            }
        }
    }
}

/// At scale 12, the compressed formats must hold strictly less
/// auxiliary memory than the wide format — delta below compact below
/// wide — and report honest per-format dest-ID compression.
#[test]
fn compressed_formats_hold_less_memory_at_scale_12() {
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(12, 8, 42)).unwrap();
    let cfg = PcpmConfig::default().with_partition_bytes(2 * 1024);
    let report = |format: BinFormatKind| {
        Engine::<PlusF32>::builder(&g)
            .config(cfg.with_bin_format(format))
            .build()
            .expect("engine")
            .report()
    };
    let wide = report(BinFormatKind::Wide);
    let compact = report(BinFormatKind::Compact);
    let delta = report(BinFormatKind::Delta);
    assert!(
        compact.aux_memory_bytes < wide.aux_memory_bytes,
        "compact {} !< wide {}",
        compact.aux_memory_bytes,
        wide.aux_memory_bytes
    );
    assert!(
        delta.aux_memory_bytes < compact.aux_memory_bytes,
        "delta {} !< compact {}",
        delta.aux_memory_bytes,
        compact.aux_memory_bytes
    );
    assert!((wide.bin_compression.unwrap() - 1.0).abs() < 1e-12);
    assert!((compact.bin_compression.unwrap() - 2.0).abs() < 1e-12);
    assert!(delta.bin_compression.unwrap() > 2.0);
}

/// The update path stays format-agnostic end to end: apply a batch
/// through `Engine::update` on every format, then the rebuilt engines
/// must still agree bit for bit on a PageRank over the new graph.
#[test]
fn updated_engines_agree_across_formats() {
    use std::sync::Arc;
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(10, 8, 31)).unwrap();
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.retain(|&(s, t)| !(s == 4 && t == edges_first(&g, 4)));
    edges.push((2, 700));
    edges.push((500, 3));
    edges.sort_unstable();
    edges.dedup();
    let g2 = Arc::new(Csr::from_edges(g.num_nodes(), &edges).unwrap());
    let batch = UpdateBatch::from_parts(vec![(2, 700), (500, 3)], vec![(4, edges_first(&g, 4))]);
    let cfg = PcpmConfig::default()
        .with_partition_bytes(64 * 4)
        .with_iterations(30);
    let mut outputs = Vec::new();
    for format in format_matrix() {
        let mut engine = Engine::<PlusF32>::builder(&g)
            .config(cfg.with_bin_format(format))
            .build()
            .unwrap();
        assert!(
            matches!(
                engine.update(&g2, None, &batch).unwrap(),
                UpdateOutcome::Rebuilt
            ),
            "format {format} rebuilds"
        );
        let r = pagerank_with_unified_engine(&g2, &cfg, &mut engine, None).unwrap();
        outputs.push((format, r.scores));
    }
    for (format, scores) in &outputs[1..] {
        assert_eq!(&outputs[0].1, scores, "format {format} post-update ranks");
    }
}

fn edges_first(g: &Csr, s: u32) -> u32 {
    g.neighbors(s).first().copied().unwrap_or(u32::MAX)
}
