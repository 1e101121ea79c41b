//! Per-kernel DRAM access replays.
//!
//! Each replay issues the same address stream as one PageRank iteration of
//! the corresponding kernel (steady state: destination IDs already
//! written, so they are read- but never write-accounted, matching the
//! paper's model assumptions in §4). Structure arrays are streamed;
//! vertex-value and partial-sum arrays go through the simulated cache.
//!
//! All index and value sizes are 4 bytes (`di = dv = 4`), as in the paper.
//!
//! The replays are single-threaded: DRAM *volume* is
//! schedule-independent, and multi-core cache pressure is modeled by
//! handing the replay an appropriately sized effective cache (the harness
//! divides the L3 by the worker count; see `pcpm-bench`).

use crate::cache::CacheConfig;
use crate::memory::{MemoryModel, Region, TrafficReport};
use pcpm_core::partition::Partitioner;
use pcpm_core::png::{EdgeView, Png};
use pcpm_graph::Csr;

/// Size of one index in bytes (paper `di`).
pub const DI: u64 = 4;
/// Size of one value in bytes (paper `dv`).
pub const DV: u64 = 4;

/// Virtual base address of the source-value array.
const VALUES_BASE: u64 = 0x1_0000_0000;
/// Virtual base address of the partial-sum / output array.
const SUMS_BASE: u64 = 0x2_0000_0000;

/// Replays one Pull-Direction PageRank iteration (Algorithm 1).
///
/// Returns the traffic report and the cache miss ratio of the
/// source-value reads (the paper's `cmr` parameter). The `Values` region
/// fraction of the report is the Fig. 1 metric.
pub fn replay_pdpr(graph: &Csr, cache: CacheConfig) -> (TrafficReport, f64) {
    let n = u64::from(graph.num_nodes());
    let m = graph.num_edges();
    let mut mm = MemoryModel::new(cache);
    // CSC offsets and in-edge source indices: sequential scans.
    mm.stream_read((n + 1) * DI, Region::Offsets);
    mm.stream_read(m * DI, Region::Edges);
    // Source-value reads: random, through the cache. The pull traversal
    // walks destinations in order; its reads follow in-neighbor lists.
    let csc = graph.transpose();
    for v in 0..graph.num_nodes() {
        for &u in csc.neighbors(v) {
            mm.cached_read(VALUES_BASE + u64::from(u) * DV, Region::Values);
        }
    }
    // New PageRank values: one sequential write per node.
    mm.stream_write(n * DV, Region::Sums);
    let cmr = mm.cache().miss_ratio();
    (mm.finish(Region::Values), cmr)
}

/// Replays one BVGAS iteration (Algorithm 5 with the §5.2 details:
/// write-combining buffers, destination IDs written once).
///
/// `bin_nodes` is the bin width in nodes, `wc_entries` the write-combining
/// buffer capacity in updates (32 = 128 bytes, the paper's buffer).
pub fn replay_bvgas(
    graph: &Csr,
    bin_nodes: u32,
    wc_entries: usize,
    cache: CacheConfig,
) -> TrafficReport {
    assert!(bin_nodes > 0, "bin width must be positive");
    let n = u64::from(graph.num_nodes());
    let m = graph.num_edges();
    let mut mm = MemoryModel::new(cache);
    let num_bins = if n == 0 {
        0
    } else {
        (graph.num_nodes() - 1) / bin_nodes + 1
    } as usize;

    // --- Scatter ---
    mm.stream_read((n + 1) * DI, Region::Offsets);
    mm.stream_read(m * DI, Region::Edges);
    // x[v] is scanned in vertex order: sequential.
    mm.stream_read(n * DV, Region::Values);
    // Updates leave through per-bin write-combining buffers; each flush is
    // one non-consecutive streaming store of a full buffer.
    let mut pending = vec![0u64; num_bins];
    let mut flushes = 0u64;
    for v in 0..graph.num_nodes() {
        for &u in graph.neighbors(v) {
            let b = (u / bin_nodes) as usize;
            pending[b] += 1;
            if pending[b] == wc_entries as u64 {
                flushes += 1;
                pending[b] = 0;
            }
        }
    }
    flushes += pending.iter().filter(|&&p| p > 0).count() as u64;
    mm.stream_write_jumps(m * DV, flushes, Region::Updates);

    // --- Gather ---
    // Reconstruct the true per-bin message order: destinations appear in
    // scatter-traversal order (by source vertex), *not* sorted, so the
    // partial-sum accesses jump around within the bin — this is what makes
    // oversized bins thrash.
    let mut bin_counts = vec![0u64; num_bins];
    for (_, u) in graph.edges() {
        bin_counts[(u / bin_nodes) as usize] += 1;
    }
    let mut bin_off = vec![0usize; num_bins + 1];
    for b in 0..num_bins {
        bin_off[b + 1] = bin_off[b] + bin_counts[b] as usize;
    }
    let mut dest_sorted = vec![0u32; m as usize];
    let mut cursor = bin_off.clone();
    for (_, u) in graph.edges() {
        let b = (u / bin_nodes) as usize;
        dest_sorted[cursor[b]] = u;
        cursor[b] += 1;
    }
    for b in 0..num_bins {
        let slice = &dest_sorted[bin_off[b]..bin_off[b + 1]];
        mm.stream_read(slice.len() as u64 * DI, Region::DestIds);
        mm.stream_read(slice.len() as u64 * DV, Region::Updates);
        // Partial sums: zero-filled at bin start (no read), then updated
        // in message order through the cache.
        let lo = b as u32 * bin_nodes;
        let hi = (lo + bin_nodes).min(graph.num_nodes());
        for v in lo..hi {
            mm.cached_write_noread(SUMS_BASE + u64::from(v) * DV, Region::Sums);
        }
        for &u in slice {
            mm.cached_write_noread(SUMS_BASE + u64::from(u) * DV, Region::Sums);
        }
    }
    // Apply: dirty partial-sum lines drain to DRAM as the new PR vector.
    mm.finish(Region::Sums)
}

/// Replays one PCPM iteration over a pre-built PNG (Algorithms 3 and 4).
pub fn replay_pcpm_png(graph: &Csr, png: &Png, cache: CacheConfig) -> TrafficReport {
    replay_pcpm_png_with(graph, png, cache, DI)
}

/// As [`replay_pcpm_png`] with an explicit destination-ID width in bytes:
/// pass `2` for the compact 16-bit bins (`pcpm_core::compact`), which
/// halves the `m·di` gather-scan term of Eq. 5.
pub fn replay_pcpm_png_with(
    graph: &Csr,
    png: &Png,
    cache: CacheConfig,
    dest_id_bytes: u64,
) -> TrafficReport {
    debug_assert_eq!(png.num_raw_edges(), graph.num_edges());
    let k = u64::from(png.dst_parts().num_partitions());
    let e_comp = png.num_compressed_edges();
    let mut mm = MemoryModel::new(cache);

    // --- Scatter (Algorithm 3) ---
    // PNG offsets (k per partition, k partitions) and compressed-edge
    // source indices: sequential.
    mm.stream_read(k * (k + 1) * DI, Region::Png);
    mm.stream_read(e_comp * DI, Region::Png);
    for s in png.src_parts().iter() {
        let part = png.part(s);
        for p in png.dst_parts().iter() {
            let row = part.row(p);
            // Source values: random within the cached source partition.
            for &u in row {
                mm.cached_read(VALUES_BASE + u64::from(u) * DV, Region::Values);
            }
            // Updates stream to bin p: one jump per non-empty row.
            if !row.is_empty() {
                mm.stream_write_jumps(row.len() as u64 * DV, 1, Region::Updates);
            }
        }
    }

    // --- Gather (Algorithm 4) ---
    for p in png.dst_parts().iter() {
        // Zero-fill the partial sums of this partition.
        let range = png.dst_parts().range(p);
        for v in range.clone() {
            mm.cached_write_noread(SUMS_BASE + u64::from(v) * DV, Region::Sums);
        }
        let p_lo = range.start;
        let p_hi = range.end;
        // Segment scans: destination IDs (all raw edges into p) and
        // updates (compressed edges into p), one pass per source segment,
        // applying messages in the exact bin order (per source node run).
        for s in png.src_parts().iter() {
            let part = png.part(s);
            let did = part.did_off[p as usize + 1] - part.did_off[p as usize];
            let upd = part.upd_off[p as usize + 1] - part.upd_off[p as usize];
            if did == 0 {
                continue;
            }
            mm.stream_read(did * dest_id_bytes, Region::DestIds);
            mm.stream_read(upd * DV, Region::Updates);
            for &u in part.row(p) {
                // The message of u carries u's neighbors inside partition
                // p — a contiguous run of u's sorted adjacency list.
                let nbrs = graph.neighbors(u);
                let lo = nbrs.partition_point(|&t| t < p_lo);
                let hi = nbrs.partition_point(|&t| t < p_hi);
                for &t in &nbrs[lo..hi] {
                    mm.cached_write_noread(SUMS_BASE + u64::from(t) * DV, Region::Sums);
                }
            }
        }
    }
    mm.finish(Region::Sums)
}

/// Convenience: builds the PNG for `partition_nodes` and replays PCPM.
pub fn replay_pcpm(graph: &Csr, partition_nodes: u32, cache: CacheConfig) -> TrafficReport {
    let parts = Partitioner::new(graph.num_nodes(), partition_nodes)
        .expect("partition size must be positive");
    let png = Png::build(EdgeView::from_csr(graph), parts, parts);
    replay_pcpm_png(graph, &png, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};
    use pcpm_graph::order::{apply_permutation, random_order};

    /// A cache big enough that only cold misses occur.
    fn huge_cache() -> CacheConfig {
        CacheConfig {
            capacity: 64 * 1024 * 1024,
            line: 64,
            ways: 16,
        }
    }

    /// A cache far smaller than the vertex arrays.
    fn tiny_cache() -> CacheConfig {
        CacheConfig {
            capacity: 8 * 1024,
            line: 64,
            ways: 8,
        }
    }

    #[test]
    fn pdpr_traffic_bounds_match_model() {
        // Paper §4: PDPR_comm ∈ [m·di, m·(di + l)] + n·(di + dv) terms.
        // The values array (256 KB) must exceed the tiny cache for the
        // miss-ratio contrast to show.
        let g = erdos_renyi(1 << 16, 1 << 19, 7).unwrap();
        let n = u64::from(g.num_nodes());
        let m = g.num_edges();
        let (lo_traffic, lo_cmr) = replay_pdpr(&g, huge_cache());
        let (hi_traffic, hi_cmr) = replay_pdpr(&g, tiny_cache());
        assert!(lo_cmr < hi_cmr, "bigger cache must lower cmr");
        assert!(lo_traffic.total_bytes() < hi_traffic.total_bytes());
        let fixed = (n + 1) * DI + m * DI + n * DV;
        // Upper bound: every value read misses a full line.
        assert!(hi_traffic.total_bytes() <= fixed + m * 64 + n * 64);
        // Lower bound: at least the structure and output traffic.
        assert!(lo_traffic.total_bytes() >= fixed);
    }

    #[test]
    fn pdpr_values_dominate_on_low_locality_graph() {
        // Fig. 1: vertex-value accesses are the bulk of PDPR DRAM traffic
        // when the values array does not fit in cache (64 KB values over
        // an 8 KB cache here).
        let g = rmat(&RmatConfig::graph500(14, 16, 3)).unwrap();
        let (traffic, cmr) = replay_pdpr(&g, tiny_cache());
        assert!(cmr > 0.5, "cmr {cmr}");
        assert!(
            traffic.region_fraction(Region::Values) > 0.5,
            "values fraction {}",
            traffic.region_fraction(Region::Values)
        );
    }

    #[test]
    fn bvgas_traffic_matches_closed_form() {
        // With zero-fill sums and a bin that fits in cache, the replay
        // must land exactly on Eq. 4 (plus the one-off offsets entry):
        // 2m(di+dv) + n(di + 2dv).
        let g = erdos_renyi(1024, 8192, 9).unwrap();
        let n = u64::from(g.num_nodes());
        let m = g.num_edges();
        let traffic = replay_bvgas(&g, 256, 32, huge_cache());
        let expected = ((n + 1) * DI + m * DI) // offsets + edges
            + n * DV                           // x scan
            + m * DV                           // update writes
            + m * (DI + DV)                    // gather bin scan
            + n * DV; // new PR writeback
        assert_eq!(traffic.total_bytes(), expected);
    }

    #[test]
    fn bvgas_traffic_is_locality_insensitive() {
        // Table 7: BVGAS communicates the same regardless of labeling.
        let g = rmat(&RmatConfig::graph500(11, 8, 5)).unwrap();
        let shuffled = apply_permutation(&g, &random_order(g.num_nodes(), 4)).unwrap();
        let a = replay_bvgas(&g, 512, 32, tiny_cache());
        let b = replay_bvgas(&shuffled, 512, 32, tiny_cache());
        let rel = (a.total_bytes() as f64 - b.total_bytes() as f64).abs() / a.total_bytes() as f64;
        assert!(rel < 0.01, "BVGAS traffic moved {rel:.3} under relabeling");
    }

    #[test]
    fn pcpm_traffic_matches_closed_form_when_partition_fits() {
        // Eq. 5: m(di(1 + 1/r) + 2dv/r) + k²di + 2n·dv.
        let g = erdos_renyi(1024, 8192, 2).unwrap();
        let n = u64::from(g.num_nodes());
        let m = g.num_edges();
        let q = 128u32;
        let parts = Partitioner::new(g.num_nodes(), q).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        let traffic = replay_pcpm_png(&g, &png, huge_cache());
        let k = u64::from(png.dst_parts().num_partitions());
        let e_comp = png.num_compressed_edges();
        let expected = k * (k + 1) * DI + e_comp * DI // PNG scan
            + n * DV                                  // cold value reads
            + e_comp * DV                             // update writes
            + m * DI + e_comp * DV                    // gather bin scans
            + n * DV; // new PR writeback
                      // Value reads are line-granular: a 64 B line holding only dangling
                      // nodes is never fetched, so allow a small slack below the model.
        let got = traffic.total_bytes() as f64;
        let want = expected as f64;
        assert!((got - want).abs() / want < 0.01, "{got} vs {want}");
    }

    #[test]
    fn pcpm_beats_bvgas_on_traffic() {
        let g = rmat(&RmatConfig::graph500(12, 16, 8)).unwrap();
        let pcpm = replay_pcpm(&g, 512, tiny_cache());
        let bv = replay_bvgas(&g, 512, 32, tiny_cache());
        assert!(
            pcpm.total_bytes() < bv.total_bytes(),
            "pcpm {} >= bvgas {}",
            pcpm.total_bytes(),
            bv.total_bytes()
        );
    }

    #[test]
    fn pcpm_random_accesses_far_below_bvgas() {
        // §4.1: PCPM_ra = O(k²) vs BVGAS_ra = O(m·dv / l).
        let g = rmat(&RmatConfig::graph500(12, 16, 8)).unwrap();
        let pcpm = replay_pcpm(&g, 1024, huge_cache());
        let bv = replay_bvgas(&g, 1024, 32, huge_cache());
        assert!(
            pcpm.random_accesses * 4 < bv.random_accesses,
            "pcpm {} vs bvgas {}",
            pcpm.random_accesses,
            bv.random_accesses
        );
    }

    #[test]
    fn oversized_partition_thrashes_cache() {
        // Fig. 12: once a partition exceeds the cache, PCPM traffic rises.
        let g = rmat(&RmatConfig::graph500(12, 8, 6)).unwrap();
        let cache = CacheConfig {
            capacity: 4 * 1024,
            line: 64,
            ways: 8,
        };
        // 512-node partitions: 2 KB of values, fits the 4 KB cache.
        let fits = replay_pcpm(&g, 512, cache);
        // Whole graph as one partition: 16 KB of values, 4x the cache.
        let blown = replay_pcpm(&g, g.num_nodes(), cache);
        assert!(
            blown.bytes_per_edge(g.num_edges()) > fits.bytes_per_edge(g.num_edges()),
            "no thrash detected: {} vs {}",
            blown.bytes_per_edge(g.num_edges()),
            fits.bytes_per_edge(g.num_edges())
        );
    }

    #[test]
    fn pcpm_traffic_improves_with_locality() {
        // Table 7 shape: destroying locality (random relabel) must
        // increase PCPM traffic (lower r).
        let g = pcpm_graph::gen::web_crawl(&pcpm_graph::gen::WebConfig {
            num_nodes: 1 << 12,
            ..Default::default()
        })
        .unwrap();
        let shuffled = apply_permutation(&g, &random_order(g.num_nodes(), 12)).unwrap();
        let local = replay_pcpm(&g, 256, tiny_cache());
        let random = replay_pcpm(&shuffled, 256, tiny_cache());
        assert!(
            local.total_bytes() < random.total_bytes(),
            "locality not exploited: {} vs {}",
            local.total_bytes(),
            random.total_bytes()
        );
    }
}
