//! Score bits pinned across commits.
//!
//! The determinism suites pin scores across *configurations* (threads,
//! formats, kernels, backends) of one commit; nothing there notices a
//! commit that moves every configuration's bits together. These FNV-1a
//! checksums of the score vectors (with `iterations` / `converged`) were
//! taken at the commit before the fixed-point driver replaced the five
//! hand-written loops, so any change to a per-node expression, an operand
//! order or the dangling-mass reduction shows up here. `last_delta` is
//! deliberately absent: that PR re-grouped its summation.

use pcpm::algos::{
    katz_centrality, personalized_pagerank, personalized_pagerank_many, weighted_pagerank,
    KatzConfig,
};
use pcpm::prelude::*;

/// 64-bit FNV-1a over the scores' bit patterns, one word at a time.
fn checksum(scores: &[f32]) -> u64 {
    scores.iter().fold(0xcbf2_9ce4_8422_2325, |h, s| {
        (h ^ u64::from(s.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(checksum, iterations, converged)` of a run.
type Golden = (u64, usize, bool);

fn golden(r: &PrResult) -> Golden {
    (checksum(&r.scores), r.iterations, r.converged)
}

/// What every partition size must reproduce (the gather reduces each
/// destination in CSR order whatever the partitioning, so one set of
/// constants serves both).
struct Expected {
    pagerank: Golden,
    pagerank_dangling: Golden,
    ppr_solo: Golden,
    ppr_batch: [Golden; 3],
    weighted: Golden,
    katz: (u64, usize),
}

const EXPECTED: Expected = Expected {
    pagerank: (0x2b86_45f0_4627_fcbf, 40, true),
    pagerank_dangling: (0x5b8b_79d6_df38_4329, 10, true),
    ppr_solo: (0x1d2d_7cdb_cbfb_5701, 15, true),
    ppr_batch: [
        (0x7d86_76e9_f482_f0ce, 12, true),
        (0x1d2d_7cdb_cbfb_5701, 15, true),
        (0x0f20_57fa_c406_56c5, 12, true),
    ],
    weighted: (0x6538_fbcf_f452_de78, 10, true),
    katz: (0x43c8_dfb3_ee7b_8077, 11),
};

#[test]
fn scores_match_the_commit_before_the_fixed_point_driver() {
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(10, 8, 2018)).unwrap();
    let weights = EdgeWeights::random(&g, 7);
    let seed_sets = vec![vec![3], vec![100, 101], vec![7, 3, 900]];
    let want = &EXPECTED;
    for q in [256, 1024] {
        let cfg = PcpmConfig::default()
            .with_partition_bytes(q)
            .with_iterations(60)
            .with_tolerance(1e-5);
        let dangling = PcpmConfig {
            redistribute_dangling: true,
            ..cfg
        };
        assert_eq!(golden(&pagerank(&g, &cfg).unwrap()), want.pagerank, "q={q}");
        assert_eq!(
            golden(&pagerank(&g, &dangling).unwrap()),
            want.pagerank_dangling,
            "q={q} dangling"
        );
        assert_eq!(
            golden(&personalized_pagerank(&g, &seed_sets[1], &cfg).unwrap()),
            want.ppr_solo,
            "q={q} ppr solo"
        );
        let batch = personalized_pagerank_many(&g, &seed_sets, &cfg).unwrap();
        assert_eq!(
            batch.iter().map(golden).collect::<Vec<_>>(),
            want.ppr_batch,
            "q={q} ppr batch"
        );
        assert_eq!(
            golden(&weighted_pagerank(&g, &weights, &dangling).unwrap()),
            want.weighted,
            "q={q} weighted"
        );
        let (scores, iterations) =
            katz_centrality(&g, &cfg, &KatzConfig::conservative(&g)).unwrap();
        assert_eq!((checksum(&scores), iterations), want.katz, "q={q} katz");
    }
}
