//! Binning with Vertex-centric GAS — BVGAS (paper Algorithm 5, §3.6).
//!
//! The state-of-the-art baseline (Beamer et al. IPDPS'17, Buono et al.
//! ICS'16): the scatter phase traverses vertices and appends an
//! `(update, destination)` message to the bin owning the destination
//! (`bin = dest / q`); the gather phase drains one bin at a time. The
//! paper's implementation details (§5.2) are reproduced:
//!
//! - destination IDs are written **once** during pre-processing and reused
//!   every iteration (only updates are re-written);
//! - each worker owns a private memory space inside every bin, so the
//!   scatter is lock-free (static edge-balanced vertex ranges);
//! - updates are staged in 128-byte **write-combining buffers** and
//!   flushed a full cache line at a time, mimicking the AVX non-temporal
//!   store path of the original C++ code;
//! - the bin index uses a bit shift when the bin width is a power of two.
//!
//! Unlike PCPM, every edge carries its own message, so scatter traffic is
//! `Θ(m)` regardless of graph locality — the redundancy PCPM removes.

use crate::baseline_engine;
use pcpm_core::algebra::PlusF32;
use pcpm_core::backend::{balanced_bounds, Backend, BackendMetrics, Engine, PrepareSpec};
use pcpm_core::config::PcpmConfig;
use pcpm_core::error::PcpmError;
use pcpm_core::pagerank::pagerank_with_unified_engine;
use pcpm_core::partition::split_by_lens;
use pcpm_core::pr::{PhaseTimings, PrResult};
use pcpm_graph::Csr;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Entries per write-combining buffer: 128 bytes of 4-byte updates, the
/// buffer size used in §5.2.
const WC_ENTRIES: usize = 32;

/// The BVGAS dataplane behind the [`Backend`] trait: bin sizing,
/// per-(worker, bin) write offsets, the destination-ID stream written
/// once, and the update stream re-written every round. An `f32` PageRank
/// kernel without edge-weight support: `prepare` rejects a weighted spec
/// rather than silently dropping the weights.
pub struct BvgasBackend {
    /// The adjacency the vertex-centric scatter traverses.
    graph: Arc<Csr>,
    num_nodes: u32,
    /// Bin width `q` in nodes.
    bin_width: u32,
    /// Number of bins `B = ceil(n / q)`.
    num_bins: u32,
    /// Shift amount when `bin_width` is a power of two (§5.2), else fall
    /// back to division.
    shift: Option<u32>,
    /// Worker vertex ranges (length `T + 1` boundaries).
    bounds: Vec<u32>,
    /// Absolute start of segment `(t, b)` in the message arrays,
    /// flattened `t * B + b`; length `T * B + 1`.
    seg_off: Vec<u64>,
    /// Destination IDs, written once (thread-major, bin-minor layout).
    dest_ids: Vec<u32>,
    /// One update per edge, parallel to [`Self::dest_ids`].
    updates: Vec<f32>,
    preprocess: Duration,
}

impl BvgasBackend {
    /// Builds the dataplane with an explicit bin width and worker count
    /// ([`Backend::prepare`] uses the config's partition byte budget and
    /// one worker range per rayon thread).
    pub fn with_layout(graph: Arc<Csr>, bin_width: u32, workers: usize) -> Result<Self, PcpmError> {
        if bin_width == 0 {
            return Err(PcpmError::PartitionTooSmall);
        }
        if u64::from(graph.num_nodes()) > pcpm_graph::MAX_NODES {
            return Err(PcpmError::TooManyNodes(u64::from(graph.num_nodes())));
        }
        let t0 = Instant::now();
        let n = graph.num_nodes();
        let num_bins = if n == 0 { 0 } else { (n - 1) / bin_width + 1 };
        let shift = bin_width
            .is_power_of_two()
            .then(|| bin_width.trailing_zeros());
        // Worker vertex ranges balanced by out-edge count (scatter work).
        let bounds = balanced_bounds(&graph, workers);
        let t = bounds.len() - 1;
        let b = num_bins as usize;

        // Bin-size computation: edges from each worker range to each bin.
        let counts: Vec<Vec<u64>> = bounds
            .windows(2)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|w| {
                let mut c = vec![0u64; b];
                for v in w[0]..w[1] {
                    for &u in graph.neighbors(v) {
                        c[(u / bin_width) as usize] += 1;
                    }
                }
                c
            })
            .collect();
        let mut seg_off = Vec::with_capacity(t * b + 1);
        seg_off.push(0u64);
        for ct in &counts {
            for &c in ct {
                seg_off.push(seg_off.last().unwrap() + c);
            }
        }
        debug_assert_eq!(*seg_off.last().unwrap(), graph.num_edges());

        // Write the destination-ID stream once (first-iteration cost in
        // the paper; folded into pre-processing here).
        let mut dest_ids = vec![0u32; graph.num_edges() as usize];
        let region_lens: Vec<usize> = (0..t)
            .map(|ti| (seg_off[(ti + 1) * b] - seg_off[ti * b]) as usize)
            .collect();
        let regions = split_by_lens(&mut dest_ids, &region_lens);
        regions
            .into_par_iter()
            .enumerate()
            .for_each(|(ti, region)| {
                let base = seg_off[ti * b];
                let mut cursor: Vec<u64> = (0..b).map(|bi| seg_off[ti * b + bi] - base).collect();
                for v in bounds[ti]..bounds[ti + 1] {
                    for &u in graph.neighbors(v) {
                        let bi = (u / bin_width) as usize;
                        region[cursor[bi] as usize] = u;
                        cursor[bi] += 1;
                    }
                }
            });

        Ok(Self {
            updates: vec![0.0f32; dest_ids.len()],
            graph,
            num_nodes: n,
            bin_width,
            num_bins,
            shift,
            bounds,
            seg_off,
            dest_ids,
            preprocess: t0.elapsed(),
        })
    }

    #[inline]
    fn bin_of(&self, dest: u32) -> usize {
        match self.shift {
            Some(s) => (dest >> s) as usize,
            None => (dest / self.bin_width) as usize,
        }
    }

    /// Scatter for one worker: vertex-centric traversal with per-bin
    /// write-combining buffers flushed one cache line at a time.
    fn scatter_worker(&self, ti: usize, region: &mut [f32], x: &[f32]) {
        let b = self.num_bins as usize;
        let base = self.seg_off[ti * b];
        let mut cursor: Vec<usize> = (0..b)
            .map(|bi| (self.seg_off[ti * b + bi] - base) as usize)
            .collect();
        // One 128-byte staging buffer per bin.
        let mut buf = vec![[0.0f32; WC_ENTRIES]; b];
        let mut fill = vec![0usize; b];
        for v in self.bounds[ti]..self.bounds[ti + 1] {
            let val = x[v as usize];
            for &u in self.graph.neighbors(v) {
                let bi = self.bin_of(u);
                buf[bi][fill[bi]] = val;
                fill[bi] += 1;
                if fill[bi] == WC_ENTRIES {
                    region[cursor[bi]..cursor[bi] + WC_ENTRIES].copy_from_slice(&buf[bi]);
                    cursor[bi] += WC_ENTRIES;
                    fill[bi] = 0;
                }
            }
        }
        for bi in 0..b {
            if fill[bi] > 0 {
                region[cursor[bi]..cursor[bi] + fill[bi]].copy_from_slice(&buf[bi][..fill[bi]]);
            }
        }
    }
}

impl Backend<PlusF32> for BvgasBackend {
    fn prepare(spec: &PrepareSpec<'_>) -> Result<Self, PcpmError> {
        if spec.weights.is_some() {
            return Err(PcpmError::BadConfig(
                "the bvgas baseline does not support edge weights",
            ));
        }
        spec.cfg.validate()?;
        Self::with_layout(
            spec.graph_arc(),
            spec.cfg.partition_nodes(),
            rayon::current_num_threads().max(1),
        )
    }

    /// Appends every edge's message through the write-combining buffers,
    /// then drains the bins into `y`.
    fn step(&mut self, x: &[f32], y: &mut [f32]) -> Result<PhaseTimings, PcpmError> {
        let b = self.num_bins as usize;
        let t = self.bounds.len() - 1;
        let t0 = Instant::now();
        let region_lens: Vec<usize> = (0..t)
            .map(|ti| (self.seg_off[(ti + 1) * b] - self.seg_off[ti * b]) as usize)
            .collect();
        let mut updates = std::mem::take(&mut self.updates);
        split_by_lens(&mut updates, &region_lens)
            .into_par_iter()
            .enumerate()
            .for_each(|(ti, region)| self.scatter_worker(ti, region, x));
        self.updates = updates;
        let scatter = t0.elapsed();

        let t1 = Instant::now();
        let bin_lens: Vec<usize> = (0..self.num_bins)
            .map(|bi| {
                let lo = bi * self.bin_width;
                (self.num_nodes.min(lo + self.bin_width) - lo) as usize
            })
            .collect();
        split_by_lens(y, &bin_lens)
            .into_par_iter()
            .enumerate()
            .for_each(|(bi, ys)| {
                ys.fill(0.0);
                let bin_base = bi * self.bin_width as usize;
                for ti in 0..t {
                    let lo = self.seg_off[ti * b + bi] as usize;
                    let hi = self.seg_off[ti * b + bi + 1] as usize;
                    for (&dest, &upd) in self.dest_ids[lo..hi].iter().zip(&self.updates[lo..hi]) {
                        ys[dest as usize - bin_base] += upd;
                    }
                }
            });
        Ok(PhaseTimings {
            scatter,
            gather: t1.elapsed(),
            apply: Duration::ZERO,
        })
    }

    fn metrics(&self) -> BackendMetrics {
        BackendMetrics {
            name: "bvgas",
            preprocess: self.preprocess,
            aux_memory_bytes: self.graph.memory_bytes()
                + ((self.dest_ids.len() + self.updates.len() + self.bounds.len()) * 4
                    + self.seg_off.len() * 8) as u64,
            compression_ratio: None,
            bin_format: None,
            bin_compression: None,
            dest_stream_bytes: None,
            kernel: None,
        }
    }
}

/// Builds a unified [`Engine`] over the BVGAS dataplane.
///
/// # Examples
///
/// ```
/// use pcpm_graph::gen::erdos_renyi;
/// use pcpm_baselines::bvgas_engine;
/// use pcpm_core::PcpmConfig;
///
/// let g = erdos_renyi(100, 600, 1).unwrap();
/// let mut engine = bvgas_engine(&g, &PcpmConfig::default().with_partition_bytes(64 * 4)).unwrap();
/// let x = vec![1.0f32; 100];
/// let mut y = vec![0.0f32; 100];
/// engine.step(&x, &mut y).unwrap();
/// assert_eq!(engine.report().backend, "bvgas");
/// ```
pub fn bvgas_engine(graph: &Csr, cfg: &PcpmConfig) -> Result<Engine<PlusF32>, PcpmError> {
    baseline_engine::<BvgasBackend>(graph, cfg)
}

/// Runs PageRank with the BVGAS schedule. The worker-private bin layout
/// is prepared on the engine-owned pool that executes the scatter.
pub fn bvgas(graph: &Csr, cfg: &PcpmConfig) -> Result<PrResult, PcpmError> {
    let mut engine = bvgas_engine(graph, cfg)?;
    pagerank_with_unified_engine(graph, cfg, &mut engine, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::assert_matches_oracle;
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};

    fn layout(g: &Csr, bin_width: u32, workers: usize) -> BvgasBackend {
        BvgasBackend::with_layout(Arc::new(g.clone()), bin_width, workers).unwrap()
    }

    /// PageRank scores over an explicit (bin width, worker count) layout.
    fn scores(g: &Csr, cfg: &PcpmConfig, bin_width: u32, workers: usize) -> Vec<f32> {
        let n = g.num_nodes();
        let mut engine = Engine::from_backend(Box::new(layout(g, bin_width, workers)), n, n);
        pagerank_with_unified_engine(g, cfg, &mut engine, None)
            .unwrap()
            .scores
    }

    #[test]
    fn matches_oracle_skewed() {
        let g = rmat(&RmatConfig::graph500(9, 8, 10)).unwrap();
        let cfg = PcpmConfig::default().with_iterations(8);
        let r = bvgas(&g, &cfg).unwrap();
        assert_matches_oracle(&r.scores, &g, &cfg, 1e-3);
    }

    #[test]
    fn matches_oracle_various_bin_widths() {
        let g = erdos_renyi(500, 4000, 4).unwrap();
        let cfg = PcpmConfig::default().with_iterations(6);
        for (q, workers) in [(1u32, 1usize), (17, 3), (64, 4), (1024, 2)] {
            assert_matches_oracle(&scores(&g, &cfg, q, workers), &g, &cfg, 1e-3);
        }
    }

    #[test]
    fn power_of_two_shift_equals_division() {
        let g = erdos_renyi(300, 2000, 11).unwrap();
        let cfg = PcpmConfig::default().with_iterations(4);
        // Different binning, same mathematical result.
        for (a, b) in scores(&g, &cfg, 64, 2).iter().zip(&scores(&g, &cfg, 65, 2)) {
            assert!((a - b).abs() < 1e-5);
        }
        assert!(layout(&g, 64, 2).shift.is_some());
        assert!(layout(&g, 65, 2).shift.is_none());
    }

    #[test]
    fn worker_count_does_not_change_result() {
        let g = rmat(&RmatConfig::graph500(8, 6, 3)).unwrap();
        let cfg = PcpmConfig::default().with_iterations(5);
        // Gather order within a bin changes with worker layout, but f32
        // addition differences stay tiny at this scale.
        for (a, b) in scores(&g, &cfg, 32, 1).iter().zip(&scores(&g, &cfg, 32, 8)) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn message_stream_covers_every_edge() {
        let g = erdos_renyi(100, 700, 8).unwrap();
        let backend = layout(&g, 16, 3);
        assert_eq!(backend.dest_ids.len() as u64, g.num_edges());
        // Every destination must appear with its exact in-degree.
        let mut counts = vec![0u32; 100];
        for &d in &backend.dest_ids {
            counts[d as usize] += 1;
        }
        assert_eq!(counts, g.in_degrees());
    }

    #[test]
    fn zero_bin_width_rejected() {
        let g = Arc::new(erdos_renyi(10, 20, 1).unwrap());
        assert!(BvgasBackend::with_layout(g, 0, 1).is_err());
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]).unwrap();
        let r = bvgas(&g, &PcpmConfig::default()).unwrap();
        assert!(r.scores.is_empty());
    }
}
