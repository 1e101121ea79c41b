//! Layout bytes pinned across commits.
//!
//! `golden_scores` pins what a solve computes; this suite pins what an
//! engine build lays out. Each constant is the FNV-1a checksum of
//! `Engine::snapshot().to_bytes()` — graph, weights, PNG rows and offsets,
//! and the format's destination and weight streams — over a seeded RMAT
//! at scale 12, with partitions of 1 000 nodes (not a power of two, so a
//! partition boundary falls inside runs of neighbours). They were taken
//! before the build's count and fill walks were fused, and a change to
//! the snapshot format is the only reason to change them: any build that
//! writes different bytes is a different layout, whatever it scores.

use pcpm::core::algebra::PlusF32;
use pcpm::graph::io::checksum64;
use pcpm::prelude::*;
use std::sync::Arc;

/// Nodes per partition: `partition_bytes / 4`.
const Q: usize = 1_000;

/// `(format, weighted, checksum)`.
const EXPECTED: [(BinFormatKind, bool, u64); 6] = [
    (BinFormatKind::Wide, false, 0x14a2_12fe_ccba_6edf),
    (BinFormatKind::Wide, true, 0x2177_c786_12fc_4a04),
    (BinFormatKind::Compact, false, 0xf43e_cb3c_71b0_bdd9),
    (BinFormatKind::Compact, true, 0x9667_897d_654a_c9be),
    (BinFormatKind::Delta, false, 0x20ba_10ad_5d88_3bf7),
    (BinFormatKind::Delta, true, 0x5619_46dc_5d91_e297),
];

#[test]
fn snapshot_bytes_match_the_layout_before_the_fused_build() {
    let g = Arc::new(pcpm::graph::gen::rmat(&RmatConfig::graph500(12, 8, 2018)).unwrap());
    let weights = EdgeWeights::random(&g, 7);
    for (format, weighted, want) in EXPECTED {
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
        let got = checksum64(&engine.snapshot().unwrap().to_bytes());
        assert_eq!(got, want, "{format} weighted={weighted}");
    }
}
