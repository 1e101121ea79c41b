//! [`PcpmBackend`]: the paper's dataplane, with the ablations as switches.

use super::{Backend, BackendMetrics, PrepareSpec};
use crate::algebra::Algebra;
use crate::config::PcpmConfig;
use crate::error::PcpmError;
use crate::format::{dest_compression, BinFormat, BinFormatKind, WideFormat, BRANCHY_NEEDS_WIDE};
use crate::gather::{apply_share, with_lanes, Applied, Epilogue, MAX_LANES};
use crate::kernel::KernelKind;
use crate::partition::Partitioner;
use crate::png::{EdgeView, Png};
use crate::pr::PhaseTimings;
use crate::scatter::{csr_scatter, png_scatter, png_scatter_rows};
use crate::snapshot::DataplaneState;
use pcpm_graph::Csr;
use std::sync::Arc;
use std::time::Duration;

/// Which scatter implementation to run (Algorithm 3 vs Algorithm 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScatterKind {
    /// PNG-driven branchless scatter (the paper's design, §3.3).
    #[default]
    Png,
    /// Original-CSR traversal with per-edge partition comparison (§3.2),
    /// kept as the data-layout ablation.
    CsrTraversal,
}

/// Which gather implementation to run (Algorithm 4 vs Algorithm 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GatherKind {
    /// Branch-avoiding pointer arithmetic (§3.4).
    #[default]
    BranchAvoiding,
    /// Conditional MSB check, kept as the branch-avoidance ablation
    /// (wide bin format only).
    Branchy,
}

/// The paper's partition-centric dataplane behind the [`Backend`] trait:
/// the PNG layout plus `F`'s message bins over a fixed edge structure,
/// statically typed over the gather algebra and the physical bin format
/// (the [`EngineBuilder`](super::EngineBuilder) dispatches
/// [`PcpmConfig::bin_format`] onto the right instantiation and fixes the
/// phase variants at build time).
///
/// The PNG and the destination (and weight) streams are immutable from
/// build to drop: an edge-set change rebuilds the dataplane
/// ([`Engine::update`](super::Engine::update)). A round may end in the
/// caller's [`Epilogue`], run by the gather over each destination
/// partition as it completes (Algorithm 4's in-partition apply); its
/// wall-clock share is reported as [`PhaseTimings::apply`] and taken out
/// of `gather`, so the phases still add up to the round.
pub struct PcpmBackend<A: Algebra, F: BinFormat = WideFormat> {
    png: Png,
    bins: F::Bins<A::T>,
    /// The update rows of the widest pass since the last solo round,
    /// `|E'| × W`; a narrower pass uses their head.
    rows: Vec<A::T>,
    /// Pre-processing wall-clock (PNG build + bin writing, Table 8), or
    /// the snapshot load when the layout was adopted from one.
    preprocess: Duration,
    /// The concrete gather kernel, resolved from [`PcpmConfig::kernel`]
    /// at build time (never [`KernelKind::Auto`]).
    kernel: KernelKind,
    scatter: ScatterKind,
    gather: GatherKind,
    /// Shared handle on the adjacency, kept only for the CSR-traversal
    /// scatter ablation (zero-copy when prepared from an `Arc`).
    graph: Option<Arc<Csr>>,
}

impl<A: Algebra, F: BinFormat> Backend<A> for PcpmBackend<A, F> {
    fn prepare(spec: &PrepareSpec<'_>) -> Result<Self, PcpmError> {
        // Only the CSR-traversal scatter reads the graph after `prepare`.
        let graph = (spec.scatter == ScatterKind::CsrTraversal).then(|| spec.graph_arc());
        let (view, scatter, gather) = (EdgeView::from_csr(spec.graph), spec.scatter, spec.gather);
        Self::build(view, &spec.cfg, spec.weights, scatter, gather, graph)
    }

    fn step(&mut self, x: &[A::T], y: &mut [A::T]) -> Result<PhaseTimings, PcpmError> {
        Ok(self.round(&[x], &mut [y], None)?.0)
    }

    fn step_many(
        &mut self,
        xs: &[&[A::T]],
        ys: &mut [&mut [A::T]],
    ) -> Result<PhaseTimings, PcpmError> {
        Ok(self.round(xs, ys, None)?.0)
    }

    fn step_many_with(
        &mut self,
        xs: &[&[A::T]],
        ys: &mut [&mut [A::T]],
        epilogue: Epilogue<'_, A::T>,
    ) -> Result<(PhaseTimings, Vec<f64>), PcpmError> {
        self.round(xs, ys, Some(epilogue))
    }

    fn metrics(&self) -> BackendMetrics {
        let dest_stream_bytes = F::dest_stream_bytes(&self.bins);
        let rows = (self.rows.capacity() * std::mem::size_of::<A::T>()) as u64;
        BackendMetrics {
            name: "pcpm",
            preprocess: self.preprocess,
            aux_memory_bytes: F::aux_memory_bytes(&self.bins) + rows,
            compression_ratio: Some(self.png.compression_ratio()),
            bin_format: Some(F::KIND.name()),
            bin_compression: Some(dest_compression(
                self.png.num_raw_edges(),
                dest_stream_bytes,
            )),
            dest_stream_bytes: Some(dest_stream_bytes),
            kernel: Some(self.kernel.name()),
        }
    }

    fn snapshot_state(&self) -> Option<DataplaneState> {
        let bins = F::export_state(&self.bins);
        Some(DataplaneState::new(self.png.clone(), bins))
    }
}

impl<A: Algebra, F: BinFormat> PcpmBackend<A, F> {
    /// Builds the dataplane over a raw edge view (the rectangular SpMV
    /// front end has no `Csr`) with explicit phase variants.
    ///
    /// Runs on the caller's current rayon pool: the
    /// [`EngineBuilder`](super::EngineBuilder) installs its engine-owned
    /// pool around this, so no nested pool is created.
    pub(super) fn build(
        view: EdgeView<'_>,
        cfg: &PcpmConfig,
        weights: Option<&[f32]>,
        scatter: ScatterKind,
        gather: GatherKind,
        graph: Option<Arc<Csr>>,
    ) -> Result<Self, PcpmError> {
        cfg.validate()?;
        if F::KIND != BinFormatKind::Wide && gather == GatherKind::Branchy {
            return Err(PcpmError::BadConfig(BRANCHY_NEEDS_WIDE));
        }
        let max_dim = u64::from(view.num_src()).max(u64::from(view.num_dst()));
        if max_dim > pcpm_graph::MAX_NODES {
            return Err(PcpmError::TooManyNodes(max_dim));
        }
        let q = cfg.partition_nodes();
        let src_parts = Partitioner::new(view.num_src(), q)?;
        let dst_parts = Partitioner::new(view.num_dst(), q)?;
        let t0 = crate::telemetry::stopwatch();
        let _span = crate::telemetry::span("prepare");
        let (png, bins) = F::build_layout(view, src_parts, dst_parts, weights);
        let preprocess = t0.elapsed();
        Ok(Self::new(
            png, bins, preprocess, cfg.kernel, scatter, gather, graph,
        ))
    }

    /// Adopts a built or loaded layout as-is, resolving `kernel` for it;
    /// `preprocess` is what the layout cost this process.
    pub(super) fn new(
        png: Png,
        bins: F::Bins<A::T>,
        preprocess: Duration,
        kernel: KernelKind,
        scatter: ScatterKind,
        gather: GatherKind,
        graph: Option<Arc<Csr>>,
    ) -> Self {
        let kernel = kernel.resolve(
            F::KIND,
            png.num_raw_edges(),
            png.src_parts().num_partitions(),
            png.dst_parts().num_partitions(),
        );
        Self {
            png,
            bins,
            rows: Vec::new(),
            preprocess,
            kernel,
            scatter,
            gather,
            graph,
        }
    }

    /// One scatter→gather round: `ys[q] = ⊕ Aᵀ·xs[q]` for every query,
    /// then `epilogue` over each destination partition; returns the phase
    /// times and the epilogue's per-query totals.
    ///
    /// A batch of one runs the solo kernel over the bins' own update
    /// stream. A wider batch is the row-interleaved SpMM, run as
    /// consecutive passes of at most [`MAX_LANES`] queries, each scanning
    /// the destination-ID stream **once**: one PNG walk writes a
    /// `[T; W]` row per compressed edge, each bin segment is decoded once
    /// and every entry is one `W`-lane combine into its destination's
    /// row, each query's output bit-identical to a round of its own.
    /// Neither ablation has a batched kernel, so there every pass carries
    /// one query. The rows are kept for the next round: the scatter
    /// overwrites every slot, so nothing is cleared, and nothing is
    /// allocated unless a pass is wider than any since the last solo
    /// round, which drops them, so the widest pass ever run does not stay
    /// allocated. Shapes are validated by the `Engine`.
    fn round(
        &mut self,
        xs: &[&[A::T]],
        ys: &mut [&mut [A::T]],
        epilogue: Option<Epilogue<'_, A::T>>,
    ) -> Result<(PhaseTimings, Vec<f64>), PcpmError> {
        if xs.len() == 1 {
            self.rows = Vec::new();
            return self.pass(xs, ys, epilogue);
        }
        let batched = self.scatter == ScatterKind::Png && self.gather == GatherKind::BranchAvoiding;
        let lanes = if batched { MAX_LANES } else { 1 };
        let mut epilogues = epilogue.map(|e| e.split(lanes));
        let mut timings = PhaseTimings::default();
        let mut totals = Vec::with_capacity(xs.len());
        for (xs, ys) in xs.chunks(lanes).zip(ys.chunks_mut(lanes)) {
            let epilogue = epilogues.as_mut().and_then(Iterator::next);
            let (t, pass_totals) = self.pass(xs, ys, epilogue)?;
            timings += t;
            totals.extend(pass_totals);
        }
        Ok((timings, totals))
    }

    /// One pass of at most [`MAX_LANES`] queries: the scatter, then the
    /// gather with the epilogue of these queries. A 1-wide pass scatters
    /// into the bins' own update stream, a wider one into the kept rows.
    fn pass(
        &mut self,
        xs: &[&[A::T]],
        ys: &mut [&mut [A::T]],
        epilogue: Option<Epilogue<'_, A::T>>,
    ) -> Result<(PhaseTimings, Vec<f64>), PcpmError> {
        let slots = self.png.num_compressed_edges() as usize * xs.len();
        let t0 = crate::telemetry::stopwatch();
        {
            let _span = crate::telemetry::span("scatter");
            if let [x] = xs {
                let updates = F::updates_mut(&mut self.bins);
                match self.scatter {
                    ScatterKind::Png => png_scatter(&self.png, x, updates),
                    ScatterKind::CsrTraversal => {
                        let g = self.graph.as_deref().ok_or(PcpmError::BadConfig(
                            "CsrTraversal scatter requires the original graph",
                        ))?;
                        csr_scatter(EdgeView::from_csr(g), &self.png, x, updates);
                    }
                }
            } else {
                if self.rows.len() < slots {
                    // Nothing is carried over: free before growing.
                    self.rows = Vec::new();
                    self.rows.resize(slots, A::T::default());
                }
                let rows = &mut self.rows[..slots];
                with_lanes!(xs.len(), W => png_scatter_rows::<_, W>(
                    &self.png,
                    xs.try_into().expect("one input per lane"),
                    rows.as_chunks_mut().0,
                ));
            }
        }
        let scatter_t = t0.elapsed();
        let t1 = crate::telemetry::stopwatch();
        let applied = {
            let _span = crate::telemetry::span("gather");
            let rows = (xs.len() != 1).then(|| (&self.rows[..slots], xs.len()));
            // The branchy ablation measures a per-entry branch, which
            // unrolling would blur: always the plain loop.
            let kernel = match self.gather {
                GatherKind::Branchy => KernelKind::Scalar,
                GatherKind::BranchAvoiding => self.kernel,
            };
            let (png, bins) = (&self.png, &self.bins);
            F::gather_with::<A>(png, bins, rows, ys, kernel, self.gather, epilogue)
        };
        Ok(self.record_pass(scatter_t, t1.elapsed(), applied))
    }

    /// Splits a pass into its phases and records it. The epilogue ran
    /// inside the gather, on as many workers as had a partition to
    /// finish: its summed time over that many workers is the wall-clock
    /// the pass spent applying, and the rest of `gather_wall` is gather.
    /// Telemetry is from analytically known quantities: a pass scans the
    /// whole destID stream (for delta, one value per raw edge) exactly
    /// once however many queries it carries.
    fn record_pass(
        &self,
        scatter: Duration,
        gather_wall: Duration,
        (totals, busy): Applied,
    ) -> (PhaseTimings, Vec<f64>) {
        let k_dst = self.png.dst_parts().num_partitions();
        let apply = apply_share(busy, k_dst as usize, gather_wall);
        let timings = PhaseTimings {
            scatter,
            gather: gather_wall - apply,
            apply,
        };
        let tm = crate::telemetry::counters();
        if tm.is_enabled() {
            let gather_ns = timings.gather.as_nanos() as u64;
            tm.add_scatter_ns(scatter.as_nanos() as u64);
            tm.add_gather_ns(gather_ns);
            tm.add_dest_stream_bytes_read(F::dest_stream_bytes(&self.bins));
            tm.add_bins_decoded(u64::from(k_dst));
            if F::KIND == BinFormatKind::Delta {
                tm.add_varint_decodes(self.png.num_raw_edges());
            }
            match self.kernel {
                KernelKind::Unrolled => tm.add_gather_unrolled_ns(gather_ns),
                _ => tm.add_gather_scalar_ns(gather_ns),
            }
        }
        (timings, totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::PlusF32;
    use pcpm_graph::gen::erdos_renyi;

    #[test]
    fn csr_traversal_without_graph_errors() {
        let g = erdos_renyi(10, 30, 1).unwrap();
        let (scatter, gather) = (ScatterKind::CsrTraversal, GatherKind::BranchAvoiding);
        let cfg = PcpmConfig::default();
        let view = EdgeView::from_csr(&g);
        let mut pcpm =
            PcpmBackend::<PlusF32>::build(view, &cfg, None, scatter, gather, None).unwrap();
        assert!(pcpm.step(&[0.0; 10], &mut [0.0; 10]).is_err());
    }

    #[test]
    fn the_update_rows_are_counted_while_held_and_released_by_a_solo_round() {
        let g = erdos_renyi(200, 1600, 5).unwrap();
        let cfg = PcpmConfig::default().with_partition_bytes(64 * 4);
        let (scatter, gather) = (ScatterKind::Png, GatherKind::BranchAvoiding);
        let view = EdgeView::from_csr(&g);
        let mut pcpm =
            PcpmBackend::<PlusF32>::build(view, &cfg, None, scatter, gather, None).unwrap();
        let bins_only = pcpm.metrics().aux_memory_bytes;
        let x = vec![1.0f32; 200];
        let mut ys = vec![vec![0.0f32; 200]; 8];
        let mut round = |pcpm: &mut PcpmBackend<PlusF32>, width: usize| {
            let xs = vec![&x[..]; width];
            let mut outs: Vec<&mut [f32]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
            pcpm.step_many(&xs, &mut outs[..width]).unwrap();
            pcpm.metrics().aux_memory_bytes
        };
        let rows = pcpm.png.num_compressed_edges() * 4;
        let wide = round(&mut pcpm, 8);
        assert!(wide >= bins_only + 8 * rows);
        // A narrower round keeps what the wider one grew.
        assert_eq!(round(&mut pcpm, 2), wide);
        assert_eq!(round(&mut pcpm, 1), bins_only);
        let narrow = round(&mut pcpm, 2);
        assert!((bins_only + 2 * rows..wide).contains(&narrow));
    }
}
