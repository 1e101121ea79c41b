//! Everything a run is fed is made here from the workload seed; the program
//! under test receives only the generated graphs, seeds and batches.

use pcpm_core::{EdgeOp, EdgeUpdate, UpdateBatch};
use pcpm_graph::gen::{rmat, RmatConfig};
use pcpm_graph::Csr;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SplitMix64: tiny, seedable, and identical everywhere.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything
    /// a benchmark input can notice.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 32-bit words: the house checksum for "bit-identical".
fn fnv_words(words: impl Iterator<Item = u32>) -> u64 {
    words.fold(FNV_OFFSET, |h, w| {
        (h ^ u64::from(w)).wrapping_mul(FNV_PRIME)
    })
}

pub fn score_checksum(scores: &[f32]) -> u64 {
    fnv_words(scores.iter().map(|s| s.to_bits()))
}

pub fn graph_checksum(g: &Csr) -> u64 {
    fnv_words(
        g.offsets()
            .iter()
            .flat_map(|&o| [o as u32, (o >> 32) as u32])
            .chain(g.targets().iter().copied()),
    )
}

/// The Graph500 RMAT every workload runs on, and what it cost to make —
/// an input cost (`graph.gen_s`), never part of `setup_s`.
pub fn gen_graph(scale: u32, edge_factor: u32, seed: u64) -> (Arc<Csr>, Duration) {
    let t0 = Instant::now();
    let g = rmat(&RmatConfig::graph500(scale, edge_factor, seed)).expect("RMAT generation");
    (Arc::new(g), t0.elapsed())
}

/// `count` distinct query seeds that have out-edges (a dangling seed makes
/// a degenerate PPR).
pub fn pick_seeds(g: &Csr, rng: &mut Rng, count: usize) -> Vec<u32> {
    let mut seeds = BTreeSet::new();
    let mut order = Vec::with_capacity(count);
    while order.len() < count {
        let v = rng.below(u64::from(g.num_nodes())) as u32;
        if g.out_degree(v) > 0 && seeds.insert(v) {
            order.push(v);
        }
    }
    order
}

/// A chain of update batches against `g`, each `size` ops with the given
/// share of deletes. Deletes name edges of `g`, inserts name absent ones,
/// and no edge is touched twice across the chain, so every op takes effect
/// whichever batches came before. Costs O(ops), not O(E), so it also
/// serves the scale-22 graph.
pub fn gen_batches(
    g: &Csr,
    rng: &mut Rng,
    count: usize,
    size: usize,
    delete_frac: f64,
) -> Vec<UpdateBatch> {
    let n = u64::from(g.num_nodes());
    let deletes = (size as f64 * delete_frac).round() as usize;
    let mut touched: BTreeSet<(u32, u32)> = BTreeSet::new();
    (0..count)
        .map(|_| {
            let mut ops = Vec::with_capacity(size);
            while ops.len() < size {
                let src = rng.below(n) as u32;
                let nbrs = g.neighbors(src);
                let (op, dst) = if ops.len() < deletes {
                    if nbrs.is_empty() {
                        continue;
                    }
                    (EdgeOp::Delete, nbrs[rng.below(nbrs.len() as u64) as usize])
                } else {
                    let dst = rng.below(n) as u32;
                    if dst == src || nbrs.binary_search(&dst).is_ok() {
                        continue;
                    }
                    (EdgeOp::Insert, dst)
                };
                if touched.insert((src, dst)) {
                    ops.push(EdgeUpdate { op, src, dst });
                }
            }
            UpdateBatch::from_ops(&ops)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, _) = gen_graph(10, 8, 7);
        let (b, _) = gen_graph(10, 8, 7);
        let (c, _) = gen_graph(10, 8, 8);
        assert_eq!(graph_checksum(&a), graph_checksum(&b));
        assert_ne!(graph_checksum(&a), graph_checksum(&c));
        let seeds = pick_seeds(&a, &mut Rng::new(7), 8);
        assert_eq!(seeds, pick_seeds(&b, &mut Rng::new(7), 8));
        assert!(seeds.iter().all(|&s| a.out_degree(s) > 0));
        let x = gen_batches(&a, &mut Rng::new(7), 3, 50, 0.3);
        assert_eq!(x, gen_batches(&b, &mut Rng::new(7), 3, 50, 0.3));
    }

    #[test]
    fn every_generated_op_takes_effect() {
        let (g, _) = gen_graph(10, 8, 3);
        let batches = gen_batches(&g, &mut Rng::new(3), 4, 100, 0.3);
        let mut seen = BTreeSet::new();
        for b in &batches {
            assert_eq!((b.deletes().len(), b.inserts().len()), (30, 70));
            for &(s, t) in b.deletes() {
                assert!(g.neighbors(s).binary_search(&t).is_ok());
            }
            for &(s, t) in b.inserts() {
                assert!(s != t && g.neighbors(s).binary_search(&t).is_err());
            }
            assert!(
                b.all_edges().all(|e| seen.insert(e)),
                "an edge is touched twice"
            );
        }
    }
}
