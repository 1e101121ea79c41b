//! The PCPM pipeline: a reusable scatter/gather dataplane over a fixed
//! structure, generic over the gather [`Algebra`] and the physical
//! [`BinFormat`].
//!
//! [`FormatPipeline<A, F>`] is the statically-typed dataplane: PNG layout
//! plus `F`'s bin storage, with one shared implementation of build and
//! the scatter→gather round. The PNG and the destination (and weight)
//! streams are immutable from build to drop: an edge-set change rebuilds
//! the pipeline ([`Engine::update`](crate::backend::Engine::update)).
//!
//! A round may end in the caller's [`Epilogue`], run by the gather over
//! each destination partition as it completes (Algorithm 4's
//! in-partition apply; see `gather.rs`); its wall-clock share is reported
//! as [`PhaseTimings::apply`] and taken out of `gather`, so the phases
//! still add up to the round. A multi-query round runs as passes of at
//! most eight queries; the `|E'| × W` update rows of a pass are scratch
//! kept between rounds: the scatter overwrites every slot, so nothing is
//! cleared, and nothing is allocated unless a pass is wider than any
//! since the last solo round, which drops them.
//!
//! Callers do not construct it directly: the unified
//! [`Engine`](crate::backend::Engine) builder wraps it as the
//! [`BackendKind::Pcpm`](crate::backend::BackendKind) dataplane, picks
//! `F` from [`PcpmConfig::bin_format`] and fixes the phase variants at
//! build time.

use crate::algebra::Algebra;
use crate::config::PcpmConfig;
use crate::error::PcpmError;
use crate::format::{dest_compression, BinFormat, BinFormatKind};
use crate::gather::{apply_share, with_lanes, Applied, Epilogue, MAX_LANES};
use crate::kernel::KernelKind;
use crate::partition::Partitioner;
use crate::png::{EdgeView, Png};
use crate::pr::PhaseTimings;
use crate::scatter::{csr_scatter, png_scatter_rows};
use pcpm_graph::Csr;
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

/// A built PCPM dataplane (PNG layout + message bins) over a fixed edge
/// structure, statically typed over the gather algebra and the bin
/// format.
pub struct FormatPipeline<A: Algebra, F: BinFormat> {
    png: Png,
    bins: F::Bins<A::T>,
    preprocess: Duration,
    /// The concrete gather kernel, resolved from [`PcpmConfig::kernel`]
    /// at build time (never [`KernelKind::Auto`]).
    kernel: KernelKind,
    /// The update rows of the widest pass since the last solo round,
    /// `|E'| × W`; a narrower pass uses their head.
    rows: Vec<A::T>,
}

impl<A: Algebra, F: BinFormat> FormatPipeline<A, F> {
    /// Builds the pipeline from a raw (possibly rectangular) edge view.
    ///
    /// Runs on the caller's current rayon pool — the unified
    /// [`Engine`](crate::backend::Engine) builder installs its
    /// engine-owned pool around this, so no nested pool is created.
    pub(crate) fn from_view(
        view: EdgeView<'_>,
        cfg: &PcpmConfig,
        weights: Option<&[f32]>,
    ) -> Result<Self, PcpmError> {
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
        let kernel = cfg.kernel.resolve(
            F::KIND,
            png.num_raw_edges(),
            png.src_parts().num_partitions(),
            png.dst_parts().num_partitions(),
        );
        Ok(Self {
            png,
            bins,
            preprocess: t0.elapsed(),
            kernel,
            rows: Vec::new(),
        })
    }

    /// Rehydrates a pipeline from snapshot state: no partitioning, PNG
    /// build or bin encoding runs — the structures are adopted as-is.
    /// `preprocess` records the load wall-clock (the only preprocessing
    /// this process paid).
    pub(crate) fn from_loaded(
        png: Png,
        bins: F::Bins<A::T>,
        preprocess: Duration,
        kernel: KernelKind,
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
            preprocess,
            kernel,
            rows: Vec::new(),
        }
    }

    /// The serializable dataplane state for the engine-snapshot writer.
    pub(crate) fn export_state(&self) -> crate::snapshot::DataplaneState {
        crate::snapshot::DataplaneState::new(self.png.clone(), F::export_state(&self.bins))
    }

    /// The PNG layout (for inspection and the memory replays).
    pub fn png(&self) -> &Png {
        &self.png
    }

    /// The concrete gather kernel this pipeline runs (`Auto` already
    /// resolved at build time).
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// Heap bytes held by the message bins and the kept update rows.
    pub fn bin_memory_bytes(&self) -> u64 {
        let rows = self.rows.capacity() * std::mem::size_of::<A::T>();
        F::aux_memory_bytes(&self.bins) + rows as u64
    }

    /// Destination-ID compression relative to the wide baseline
    /// (`4·|E| / dest-stream bytes`): 1.0 wide, 2.0 compact, measured
    /// for delta.
    pub fn bin_compression(&self) -> f64 {
        dest_compression(self.png.num_raw_edges(), F::dest_stream_bytes(&self.bins))
    }

    /// PNG compression ratio `r = |E| / |E'|`.
    pub fn compression_ratio(&self) -> f64 {
        self.png.compression_ratio()
    }

    /// Physical bytes of the destination-ID bin stream — the sequential
    /// scan every gather pass pays, the paper's bandwidth-bound term.
    pub fn dest_stream_bytes(&self) -> u64 {
        F::dest_stream_bytes(&self.bins)
    }

    /// Pre-processing wall-clock time (PNG build + bin writing), Table 8.
    pub fn preprocess_time(&self) -> Duration {
        self.preprocess
    }

    /// One scatter→gather round with explicit phase variants:
    /// `ys[q] = ⊕ Aᵀ·xs[q]` for every query, then `epilogue` over each
    /// destination partition; returns the phase times and the epilogue's
    /// per-query totals.
    ///
    /// A batch of one runs the solo kernel over the bins' own update
    /// stream (`gather` picks its pointer step; `graph` is what a
    /// [`ScatterKind::CsrTraversal`] scatter reads; neither ablation has
    /// a batched kernel, callers run them one query per round). A wider
    /// batch is the row-interleaved SpMM, run as consecutive passes of
    /// at most [`MAX_LANES`] queries, each scanning the destination-ID
    /// stream **once**: one PNG walk writes a `[T; W]` row per compressed
    /// edge, each bin segment is decoded once and every entry is one
    /// `W`-lane combine into its destination's row, each query's output
    /// bit-identical to a round of its own. The rows are kept for the
    /// next round and dropped by a solo round, so the widest pass ever
    /// run does not stay allocated. Shapes are validated by the `Engine`.
    pub(crate) fn round(
        &mut self,
        xs: &[&[A::T]],
        ys: &mut [&mut [A::T]],
        scatter: ScatterKind,
        gather: GatherKind,
        graph: Option<&Csr>,
        epilogue: Option<Epilogue<'_, A::T>>,
    ) -> Result<(PhaseTimings, Vec<f64>), PcpmError> {
        if xs.len() == 1 {
            self.rows = Vec::new();
            return self.pass(xs, ys, scatter, gather, graph, epilogue);
        }
        let mut epilogues = epilogue.map(|e| e.split(MAX_LANES));
        let mut timings = PhaseTimings::default();
        let mut totals = Vec::with_capacity(xs.len());
        for (xs, ys) in xs.chunks(MAX_LANES).zip(ys.chunks_mut(MAX_LANES)) {
            let epilogue = epilogues.as_mut().and_then(Iterator::next);
            let (t, pass_totals) = self.pass(xs, ys, scatter, gather, graph, epilogue)?;
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
        scatter: ScatterKind,
        gather: GatherKind,
        graph: Option<&Csr>,
        epilogue: Option<Epilogue<'_, A::T>>,
    ) -> Result<(PhaseTimings, Vec<f64>), PcpmError> {
        let slots = self.png.num_compressed_edges() as usize * xs.len();
        let t0 = crate::telemetry::stopwatch();
        {
            let _span = crate::telemetry::span("scatter");
            if let [x] = xs {
                let updates = F::updates_mut(&mut self.bins);
                match scatter {
                    ScatterKind::Png => crate::scatter::png_scatter(&self.png, x, updates),
                    ScatterKind::CsrTraversal => {
                        let g = graph.ok_or(PcpmError::BadConfig(
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
            let kernel = match gather {
                GatherKind::Branchy => KernelKind::Scalar,
                GatherKind::BranchAvoiding => self.kernel,
            };
            let (png, bins) = (&self.png, &self.bins);
            F::gather_with::<A>(png, bins, rows, ys, kernel, gather, epilogue)
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
    use crate::format::WideFormat;

    #[test]
    fn csr_traversal_without_graph_errors() {
        let g = pcpm_graph::gen::erdos_renyi(10, 30, 1).unwrap();
        let mut pipe = FormatPipeline::<PlusF32, WideFormat>::from_view(
            EdgeView::from_csr(&g),
            &PcpmConfig::default(),
            None,
        )
        .unwrap();
        let x = [0.0f32; 10];
        let mut y = [0.0f32; 10];
        let (scatter, gather) = (ScatterKind::CsrTraversal, GatherKind::BranchAvoiding);
        assert!(pipe
            .round(&[&x[..]], &mut [&mut y[..]], scatter, gather, None, None)
            .is_err());
    }

    #[test]
    fn the_update_rows_are_counted_while_held_and_released_by_a_solo_round() {
        let g = pcpm_graph::gen::erdos_renyi(200, 1600, 5).unwrap();
        let cfg = PcpmConfig::default().with_partition_bytes(64 * 4);
        let view = EdgeView::from_csr(&g);
        let mut pipe = FormatPipeline::<PlusF32, WideFormat>::from_view(view, &cfg, None).unwrap();
        let bins_only = pipe.bin_memory_bytes();
        let x = vec![1.0f32; 200];
        let mut ys = vec![vec![0.0f32; 200]; 8];
        let (scatter, gather) = (ScatterKind::Png, GatherKind::BranchAvoiding);
        let mut round = |pipe: &mut FormatPipeline<PlusF32, WideFormat>, width: usize| {
            let xs = vec![&x[..]; width];
            let mut outs: Vec<&mut [f32]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
            pipe.round(&xs, &mut outs[..width], scatter, gather, None, None)
                .unwrap();
            pipe.bin_memory_bytes()
        };
        let rows = pipe.png().num_compressed_edges() * 4;
        let wide = round(&mut pipe, 8);
        assert!(wide >= bins_only + 8 * rows);
        // A narrower round keeps what the wider one grew.
        assert_eq!(round(&mut pipe, 2), wide);
        assert_eq!(round(&mut pipe, 1), bins_only);
        let narrow = round(&mut pipe, 2);
        assert!((bins_only + 2 * rows..wide).contains(&narrow));
    }
}
