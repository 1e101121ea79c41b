//! [`PullBackend`]: pull-direction traversal over the transpose.

use super::{Backend, BackendMetrics, PrepareSpec};
use crate::algebra::Algebra;
use crate::error::PcpmError;
use crate::partition::split_by_lens;
use crate::pr::PhaseTimings;
use pcpm_graph::Csr;
use rayon::prelude::*;
use std::time::Duration;

/// Pull-direction dataplane: each destination walks its in-neighbors in
/// the transpose (CSC). Fine-grained random reads of `x`, no auxiliary
/// message state — Algorithm 1's traversal (PDPR), generalized over the
/// algebra.
///
/// Parallelization matches §5.2: vertices are statically divided into
/// chunks balanced by *in-edge count* (the work driver). Each vertex is
/// accumulated sequentially by whichever chunk owns it, so the chunking
/// never changes a result bit.
pub struct PullBackend<A: Algebra> {
    /// The transpose: in-neighbor sources per destination.
    csc: Csr,
    /// Weights aligned with the transpose's edge order.
    weights: Option<Vec<f32>>,
    /// Chunk boundaries over vertices (length `chunks + 1`).
    bounds: Vec<u32>,
    preprocess: Duration,
    _algebra: std::marker::PhantomData<A>,
}

impl<A: Algebra> Backend<A> for PullBackend<A> {
    fn prepare(spec: &PrepareSpec<'_>) -> Result<Self, PcpmError> {
        let t0 = crate::telemetry::stopwatch();
        let g = spec.graph;
        let csc = g.transpose();
        // The transpose lists each destination's sources in CSR (source-
        // major) order, so replaying that order places every weight.
        let weights = spec.weights.map(|ew| {
            let mut w = vec![0.0f32; ew.len()];
            let mut cursor = csc.offsets().to_vec();
            for (&t, &wt) in g.targets().iter().zip(ew) {
                let c = &mut cursor[t as usize];
                w[*c as usize] = wt;
                *c += 1;
            }
            w
        });
        let bounds = balanced_bounds(&csc, rayon::current_num_threads() * 8);
        Ok(Self {
            csc,
            weights,
            bounds,
            preprocess: t0.elapsed(),
            _algebra: std::marker::PhantomData,
        })
    }

    fn step(&mut self, x: &[A::T], y: &mut [A::T]) -> Result<PhaseTimings, PcpmError> {
        let t0 = crate::telemetry::stopwatch();
        let offsets = self.csc.offsets();
        let srcs = self.csc.targets();
        let chunk_lens: Vec<usize> = self
            .bounds
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect();
        split_by_lens(y, &chunk_lens)
            .into_par_iter()
            .enumerate()
            .for_each(|(c, out)| {
                for (v, slot) in (self.bounds[c] as usize..).zip(out) {
                    let lo = offsets[v] as usize;
                    let hi = offsets[v + 1] as usize;
                    let mut acc = A::identity();
                    match &self.weights {
                        None => {
                            for &s in &srcs[lo..hi] {
                                acc = A::combine(acc, A::extend(x[s as usize]));
                            }
                        }
                        Some(w) => {
                            for (&s, &wt) in srcs[lo..hi].iter().zip(&w[lo..hi]) {
                                acc = A::combine(acc, A::extend_weighted(wt, x[s as usize]));
                            }
                        }
                    }
                    *slot = acc;
                }
            });
        Ok(PhaseTimings {
            scatter: Duration::ZERO,
            gather: t0.elapsed(),
            apply: Duration::ZERO,
        })
    }

    fn metrics(&self) -> BackendMetrics {
        BackendMetrics {
            name: "pull",
            preprocess: self.preprocess,
            aux_memory_bytes: self.csc.memory_bytes()
                + (self.bounds.len() * 4 + self.weights.as_ref().map_or(0, |w| w.len() * 4)) as u64,
            ..BackendMetrics::default()
        }
    }
}

/// Splits the vertices of `csr` into `chunks` contiguous ranges with
/// roughly equal edge counts — the static load balancing on traversed
/// edges of §5.2 (in-edges when handed the transpose, as the pull
/// traversal does; out-edges for a vertex-centric scatter). Returns the
/// `chunks + 1` boundaries.
pub fn balanced_bounds(csr: &Csr, chunks: usize) -> Vec<u32> {
    let n = csr.num_nodes();
    let m = csr.num_edges();
    let chunks = chunks.max(1) as u64;
    let mut bounds = Vec::with_capacity(chunks as usize + 1);
    let mut prev = 0u32;
    bounds.push(prev);
    let offsets = csr.offsets();
    for c in 1..chunks {
        let target = m * c / chunks;
        // First vertex whose offset reaches the target, at least past the
        // previous bound.
        prev = (offsets.partition_point(|&o| o < target) as u32).clamp(prev, n);
        bounds.push(prev);
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::PlusF32;
    use crate::backend::{GatherKind, ScatterKind};
    use crate::config::PcpmConfig;
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};

    #[test]
    fn pull_chunk_count_does_not_change_result() {
        let g = erdos_renyi(500, 4000, 9).unwrap();
        let spec = PrepareSpec {
            graph: &g,
            shared: None,
            weights: None,
            cfg: PcpmConfig::default(),
            scatter: ScatterKind::default(),
            gather: GatherKind::default(),
        };
        // Real-valued input: any change of accumulation order would show.
        let x: Vec<f32> = (0..500).map(|v| 1.0 / (v + 3) as f32).collect();
        let outputs = [1usize, 64].map(|chunks| {
            let mut pull = PullBackend::<PlusF32>::prepare(&spec).unwrap();
            pull.bounds = balanced_bounds(&pull.csc, chunks);
            let mut y = vec![0.0f32; 500];
            pull.step(&x, &mut y).unwrap();
            y
        });
        // Pull accumulation per vertex is sequential within the vertex, so
        // chunking cannot change the result at all.
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn balanced_bounds_cover_and_balance() {
        let g = rmat(&RmatConfig::graph500(10, 8, 3)).unwrap();
        let csc = g.transpose();
        let bounds = balanced_bounds(&csc, 8);
        assert_eq!(bounds[0], 0);
        assert_eq!(*bounds.last().unwrap(), g.num_nodes());
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        // Each chunk's edge load should be within 2x of the ideal share.
        let offsets = csc.offsets();
        let ideal = g.num_edges() as f64 / 8.0;
        for w in bounds.windows(2) {
            let load = (offsets[w[1] as usize] - offsets[w[0] as usize]) as f64;
            assert!(
                load < ideal * 2.0 + 1000.0,
                "chunk load {load} vs ideal {ideal}"
            );
        }
    }
}
