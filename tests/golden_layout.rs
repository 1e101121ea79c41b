//! Layout bytes pinned across commits.
//!
//! `golden_scores` pins what a solve computes; this suite pins what an
//! engine build lays out. Each constant is a `checksum64` of
//! `Engine::snapshot().to_bytes()` — graph, weights, PNG rows and offsets,
//! and the format's destination and weight streams — over a seeded RMAT
//! at scale 12, with partitions of 1 000 nodes (not a power of two, so a
//! partition boundary falls inside runs of neighbours). Any build that
//! writes different bytes is a different layout, whatever it scores.
//!
//! Two pins per format. The payload pin hashes the file after its
//! 20-byte header; it was taken from snapshot format 2's payloads (the
//! layout before the build's count and fill walks were fused), so it
//! holds for as long as no payload byte moves. The file pin also covers
//! the header, whose version and checksum change with the format
//! version; a format bump is the only reason to re-pin it.

use pcpm::core::algebra::PlusF32;
use pcpm::graph::io::checksum64;
use pcpm::prelude::*;
use std::sync::Arc;

/// Nodes per partition: `partition_bytes / 4`.
const Q: usize = 1_000;

/// Snapshot header bytes: magic, version and checksum.
const HEADER: usize = 20;

/// `(format, weighted, payload checksum, file checksum)`.
const EXPECTED: [(BinFormatKind, bool, u64, u64); 6] = [
    (
        BinFormatKind::Wide,
        false,
        0x49ef_01d2_6a1b_b31c,
        0x379a_6c90_995e_2658,
    ),
    (
        BinFormatKind::Wide,
        true,
        0x4b0a_afae_35ce_9d97,
        0x2ed9_a0fa_18f1_9ecd,
    ),
    (
        BinFormatKind::Compact,
        false,
        0x9205_c868_e78d_bd72,
        0x2f42_a25e_a476_f408,
    ),
    (
        BinFormatKind::Compact,
        true,
        0xf697_83dd_6c87_c800,
        0xb7ad_da2f_0d37_7ee3,
    ),
    (
        BinFormatKind::Delta,
        false,
        0xcaa9_86a5_1a9f_2147,
        0x8da9_3653_462e_a0f2,
    ),
    (
        BinFormatKind::Delta,
        true,
        0x87b9_a08f_f104_3d58,
        0x68db_0acf_101b_e080,
    ),
];

#[test]
fn snapshot_bytes_match_the_layout_before_the_fused_build() {
    let g = Arc::new(pcpm::graph::gen::rmat(&RmatConfig::graph500(12, 8, 2018)).unwrap());
    let weights = EdgeWeights::random(&g, 7);
    for (format, weighted, payload, file) in EXPECTED {
        let cfg = PcpmConfig::default()
            .with_partition_bytes(Q * 4)
            .with_bin_format(format);
        let builder = Engine::<PlusF32>::builder_shared(&g).config(cfg);
        let engine = if weighted {
            builder.weights(&weights).build()
        } else {
            builder.build()
        }
        .unwrap();
        assert_eq!(engine.partition_nodes() as usize, Q);
        let bytes = engine.snapshot().unwrap().to_bytes();
        let tag = format!("{format} weighted={weighted}");
        assert_eq!(checksum64(&bytes[HEADER..]), payload, "payload of {tag}");
        assert_eq!(checksum64(&bytes), file, "file of {tag}");
    }
}
