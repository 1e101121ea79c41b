//! The `BinFormat` axis: one dataplane interface, N physical bin
//! encodings.
//!
//! PR 1 unified *execution* behind the [`Backend`](crate::backend::Backend)
//! trait; this module does the same for the PCPM *storage layer*. The
//! paper's message bins admit several physical destination-ID encodings —
//! wide 32-bit global IDs (§3.2), compact 16-bit partition-local IDs (§6)
//! and the delta split stream of [`DeltaPackedBins`](crate::delta) — all
//! sharing the same update-stream layout and the same build skeleton. A
//! [`BinFormat`] captures exactly the variation points:
//!
//! - how one PNG message run is **encoded** into the destination stream
//!   ([`BinFormat::build_layout`]: the PNG's count walk also sizes every
//!   segment, and its fill walk writes the stream and the weights beside
//!   the rows; the destination stream is never edited afterwards — an
//!   edge-set change builds the bins afresh),
//! - how the gather **decodes** it back ([`BinFormat::gather_with`] —
//!   a per-format segment decoder feeding the one loop in `gather.rs`),
//! - how much auxiliary memory the encoding costs
//!   ([`BinFormat::aux_memory_bytes`], [`BinFormat::dest_stream_bytes`]).
//!
//! The scatter phase is format-independent (updates are laid out
//! identically for every format), so [`BinFormat::scatter_into`] defaults
//! to the shared PNG scatter.
//!
//! The runtime selector is [`BinFormatKind`]
//! ([`PcpmConfig::bin_format`](crate::PcpmConfig::bin_format), the CLI's
//! `--format` flag); the statically-typed entry points are the three
//! marker types [`WideFormat`], [`CompactFormat`] (the two
//! instantiations of the fixed-width [`FixedFormat`]) and
//! [`DeltaFormat`].

use crate::algebra::Algebra;
use crate::backend::GatherKind;
use crate::bins::{Bins, FixedBins};
use crate::delta::DeltaPackedBins;
use crate::error::PcpmError;
use crate::gather::{gather_any, Applied, EntrySink, Epilogue, Segment, SegmentDecode, MAX_LANES};
use crate::kernel::{prefetch, KernelKind};
use crate::partition::Partitioner;
use crate::png::{build_layout, EdgeView, Png, RunEncoder};
use crate::snapshot::DataplaneState;
use std::borrow::{Borrow, BorrowMut};
use std::sync::Arc;

/// Scalars that may flow through the update bins: every
/// [`Algebra::T`](crate::algebra::Algebra) satisfies this.
pub trait BinScalar: Copy + Default + Send + Sync + std::fmt::Debug + 'static {}
impl<T: Copy + Default + Send + Sync + std::fmt::Debug + 'static> BinScalar for T {}

/// Runtime selector for the physical bin encoding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BinFormatKind {
    /// 32-bit global destination IDs with MSB demarcation (the paper's
    /// §3.2 layout; no partition-size restriction).
    #[default]
    Wide,
    /// 16-bit partition-local destination IDs (§6 / G-Store); requires
    /// partitions of at most 2^15 nodes and halves the destID traffic.
    Compact,
    /// Per-partition delta-encoded IDs in a split stream (2 bits of
    /// length and 1 message bit per entry in control bytes, then 1–4
    /// value bytes each); no partition-size restriction, typically ≈ 2
    /// bytes per edge, decoded without a data-dependent branch.
    Delta,
}

impl BinFormatKind {
    /// All formats, for sweep tests and benches.
    pub const ALL: [BinFormatKind; 3] = [
        BinFormatKind::Wide,
        BinFormatKind::Compact,
        BinFormatKind::Delta,
    ];

    /// The format name as reported in metrics and accepted by `--format`.
    pub fn name(self) -> &'static str {
        match self {
            BinFormatKind::Wide => "wide",
            BinFormatKind::Compact => "compact",
            BinFormatKind::Delta => "delta",
        }
    }
}

impl std::fmt::Display for BinFormatKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BinFormatKind {
    type Err = PcpmError;

    fn from_str(s: &str) -> Result<Self, PcpmError> {
        match s {
            "wide" => Ok(BinFormatKind::Wide),
            "compact" => Ok(BinFormatKind::Compact),
            "delta" => Ok(BinFormatKind::Delta),
            _ => Err(PcpmError::BadConfig(
                "unknown bin format (expected wide|compact|delta)",
            )),
        }
    }
}

/// A physical bin encoding: storage type, build, scatter/gather and
/// memory accounting.
///
/// Implementations are zero-sized marker types ([`WideFormat`],
/// [`CompactFormat`], [`DeltaFormat`]); the engine picks one statically
/// (`PcpmBackend<A, F>`) or dispatches at runtime from
/// [`BinFormatKind`].
pub trait BinFormat: Sized + Send + Sync + 'static {
    /// The destination stream of this encoding with its offsets and the
    /// bin-order weights: scalar-independent, and never edited after the
    /// build, so a [`Layout`] shares it.
    type Dest: Send + Sync + std::fmt::Debug;

    /// Bins for a standalone scatter and gather: always
    /// [`Bins<Self::Dest, T>`](Bins), the destination stream beside one
    /// update stream of `T`. The bounds are how generic code reaches the
    /// two halves.
    type Bins<T: BinScalar>: Send
        + Sync
        + std::fmt::Debug
        + From<Bins<Self::Dest, T>>
        + BorrowMut<Bins<Self::Dest, T>>;

    /// The runtime tag of this format.
    const KIND: BinFormatKind;

    /// Rejects PNG layouts this format cannot encode (e.g. compact's
    /// 15-bit partition-size limit), for callers that build a [`Png`]
    /// apart. The engine never needs it:
    /// [`PcpmConfig::validate`](crate::PcpmConfig::validate) rejects such
    /// a partition size before any build.
    fn validate_layout(png: &Png) -> Result<(), PcpmError> {
        let _ = png;
        Ok(())
    }

    /// The engine's build: the PNG over `view` and the destination stream
    /// over it, in parallel over source partitions, from one count walk
    /// and one fill walk of each (see [`crate::png`]). `weights` are
    /// CSR-order edge weights.
    fn build_layout(
        view: EdgeView<'_>,
        src_parts: Partitioner,
        dst_parts: Partitioner,
        weights: Option<&[f32]>,
    ) -> Layout<Self>;

    /// The bins for `png`, the layout of `view`: the walks of
    /// [`BinFormat::build_layout`] under `png`'s partitioners, their PNG
    /// dropped, and a zeroed update stream.
    fn build<T: BinScalar>(
        view: EdgeView<'_>,
        png: &Png,
        weights: Option<&[f32]>,
    ) -> Self::Bins<T> {
        let (src_parts, dst_parts) = (*png.src_parts(), *png.dst_parts());
        let Layout { png, dest } = Self::build_layout(view, src_parts, dst_parts, weights);
        let updates = vec![T::default(); png.num_compressed_edges() as usize];
        Bins { dest, updates }.into()
    }

    /// One scatter round: writes `x` into the update stream. The update
    /// layout is format-independent: the shared PNG scatter
    /// (Algorithm 3).
    fn scatter_into<T: BinScalar>(png: &Png, x: &[T], bins: &mut Self::Bins<T>) {
        crate::scatter::png_scatter(png, x, Self::updates_mut(bins));
    }

    /// Every gather of this format over its destination stream `dest`;
    /// the three methods below are its no-epilogue cases. Solo over the
    /// update stream `own` when `rows` is `None` (then `variant` picks
    /// Algorithm 4's or Algorithm 2's pointer step); otherwise over
    /// `(rows, W)`, the `|E'| × W` update rows of one pass of `W ≤ 8`
    /// queries, lane `q` into `ys[q]`.
    /// `epilogue` runs over each destination partition as it completes.
    #[allow(clippy::too_many_arguments)]
    fn gather_with<A: Algebra>(
        png: &Png,
        dest: &Self::Dest,
        own: &[A::T],
        rows: Option<(&[A::T], usize)>,
        ys: &mut [&mut [A::T]],
        kernel: KernelKind,
        variant: GatherKind,
        epilogue: Option<Epilogue<'_, A::T>>,
    ) -> Applied;

    /// One gather round: reduces every message into `y` under `A`
    /// (branch-avoiding, Algorithm 4 adapted to the encoding).
    /// `kernel` selects the decode/accumulate variant (see
    /// [`KernelKind`]); all variants apply entries in identical order,
    /// so output is bit-identical across kernels.
    fn gather_from<A: Algebra>(
        png: &Png,
        bins: &Self::Bins<A::T>,
        y: &mut [A::T],
        kernel: KernelKind,
    ) {
        let Bins { dest, updates } = bins.borrow();
        let variant = GatherKind::BranchAvoiding;
        Self::gather_with::<A>(png, dest, updates, None, &mut [y], kernel, variant, None);
    }

    /// One multi-query gather round (the SpMM inner loop): decodes each
    /// destination-ID segment **once** per pass of at most eight queries
    /// and applies every entry to the pass's queries with one row
    /// combine, so the dest-stream bytes, the decode and the
    /// destination's cache line are paid once per pass. `updates[q]`
    /// must share the layout [`BinFormat::scatter_into`] writes; each
    /// query's output is bit-identical to a solo
    /// [`BinFormat::gather_from`] over the same update stream. The
    /// convenience entry: it first interleaves each pass's arrays into
    /// the rows [`BinFormat::gather_with`] reads, a copy a round that
    /// scatters straight into rows never makes.
    fn gather_many_from<A: Algebra>(
        png: &Png,
        bins: &Self::Bins<A::T>,
        updates: &[&[A::T]],
        ys: &mut [&mut [A::T]],
        kernel: KernelKind,
    ) {
        assert_eq!(updates.len(), ys.len(), "one update stream per output");
        let slots = png.num_compressed_edges() as usize;
        for us in updates {
            assert_eq!(us.len(), slots, "update stream length");
        }
        let Bins { dest, updates: own } = bins.borrow();
        let variant = GatherKind::BranchAvoiding;
        let mut rows = Vec::new();
        for (updates, ys) in updates.chunks(MAX_LANES).zip(ys.chunks_mut(MAX_LANES)) {
            rows.clear();
            for i in 0..slots {
                rows.extend(updates.iter().map(|us| us[i]));
            }
            let rows = Some((&rows[..], updates.len()));
            Self::gather_with::<A>(png, dest, own, rows, ys, kernel, variant, None);
        }
    }

    /// The branchy-gather ablation (Algorithm 2). Only the wide format
    /// implements it; everything else reports a config error.
    fn gather_branchy_from<A: Algebra>(
        png: &Png,
        bins: &Self::Bins<A::T>,
        y: &mut [A::T],
    ) -> Result<(), PcpmError> {
        if Self::KIND != BinFormatKind::Wide {
            return Err(PcpmError::BadConfig(BRANCHY_NEEDS_WIDE));
        }
        let Bins { dest, updates } = bins.borrow();
        let (kernel, variant) = (KernelKind::Scalar, GatherKind::Branchy);
        Self::gather_with::<A>(png, dest, updates, None, &mut [y], kernel, variant, None);
        Ok(())
    }

    /// Mutable access to the update stream.
    fn updates_mut<T: BinScalar>(bins: &mut Self::Bins<T>) -> &mut [T] {
        let Bins { updates, .. } = bins.borrow_mut();
        updates
    }

    /// Heap bytes held by the bins (updates + destination stream +
    /// offsets + weights).
    fn aux_memory_bytes<T: BinScalar>(bins: &Self::Bins<T>) -> u64 {
        let Bins { dest, updates } = bins.borrow();
        Self::memory_bytes(dest) + std::mem::size_of_val(&updates[..]) as u64
    }

    /// Bytes of the destination-ID stream alone (the term the encodings
    /// compete on; the wide format spends `4·|E|`).
    fn dest_stream_bytes<T: BinScalar>(bins: &Self::Bins<T>) -> u64 {
        let Bins { dest, .. } = bins.borrow();
        Self::stream_bytes(dest)
    }

    /// [`BinFormat::dest_stream_bytes`] of a bare destination stream.
    fn stream_bytes(dest: &Self::Dest) -> u64;

    /// Heap bytes held by a destination stream (offsets and weights
    /// included).
    fn memory_bytes(dest: &Self::Dest) -> u64;

    /// Wraps a shared layout of this format as the format-erased state
    /// a [`Snapshot`](crate::Snapshot) holds; nothing is copied.
    fn share(layout: Arc<Layout<Self>>) -> DataplaneState;
}

/// The immutable half of one PCPM dataplane: the PNG and `F`'s
/// destination stream with its bin-order weights, from one build walk
/// ([`BinFormat::build_layout`]) and never edited after. Engines,
/// snapshots and serving epochs share one behind an `Arc`; each engine
/// keeps only its own update stream beside it.
#[derive(Debug)]
pub struct Layout<F: BinFormat> {
    pub(crate) png: Png,
    pub(crate) dest: F::Dest,
}

/// Why a non-wide format refuses the branchy gather.
pub(crate) const BRANCHY_NEEDS_WIDE: &str =
    "the branchy gather ablation requires the wide bin format";

/// Destination-ID compression relative to the wide baseline
/// (`4·|E| / dest_stream_bytes`); 1.0 for an edgeless graph.
pub fn dest_compression(raw_edges: u64, dest_bytes: u64) -> f64 {
    if dest_bytes == 0 {
        1.0
    } else {
        (raw_edges * 4) as f64 / dest_bytes as f64
    }
}

// ---------------------------------------------------------------------------
// Shared fixed-width encoding (wide + compact)
// ---------------------------------------------------------------------------

/// A fixed-width destination encoding: one storage unit per raw edge
/// (`u32` wide, `u16` compact). Captures the only differences between
/// the wide and compact dataplanes — how a message run becomes units and
/// back; the walks, region splitting and weight stream are the shared
/// layout build of [`crate::png`], and the [`BinFormat`] impl is shared
/// below.
pub(crate) trait FixedDestEncode:
    Copy + Default + Send + Sync + std::fmt::Debug + 'static
{
    /// The runtime tag of the format storing this unit.
    const KIND: BinFormatKind;

    /// Largest destination partition (in nodes) a unit can address.
    const MAX_PARTITION: u32;

    /// Encodes one message run (`out.len() == run.len()`, first entry
    /// carries the demarcation flag). `p_base` is the destination
    /// partition's first node ID.
    fn encode_run(out: &mut [Self], run: &[u32], p_base: u32);

    /// The inverse for one unit: `(partition-local offset, starts a
    /// message)`.
    fn decode(self, p_base: u32) -> (usize, bool);

    /// The format-erased state of a layout of this format.
    fn share(layout: Arc<Layout<FixedFormat<Self>>>) -> DataplaneState;
}

impl FixedDestEncode for u32 {
    const KIND: BinFormatKind = BinFormatKind::Wide;
    const MAX_PARTITION: u32 = u32::MAX;

    #[inline]
    fn encode_run(out: &mut [u32], run: &[u32], _p_base: u32) {
        out[0] = run[0] | crate::MSB_FLAG;
        out[1..].copy_from_slice(&run[1..]);
    }

    #[inline(always)]
    fn decode(self, p_base: u32) -> (usize, bool) {
        (
            (self & crate::ID_MASK) as usize - p_base as usize,
            self >> 31 != 0,
        )
    }

    fn share(layout: Arc<Layout<WideFormat>>) -> DataplaneState {
        DataplaneState::Wide(layout)
    }
}

impl FixedDestEncode for u16 {
    const KIND: BinFormatKind = BinFormatKind::Compact;
    const MAX_PARTITION: u32 = crate::compact::MAX_COMPACT_PARTITION;

    #[inline]
    fn encode_run(out: &mut [u16], run: &[u32], p_base: u32) {
        out[0] = (run[0] - p_base) as u16 | crate::compact::MSB_FLAG16;
        for (slot, &t) in out[1..].iter_mut().zip(&run[1..]) {
            *slot = (t - p_base) as u16;
        }
    }

    #[inline(always)]
    fn decode(self, _p_base: u32) -> (usize, bool) {
        ((self & crate::compact::ID_MASK16) as usize, self >> 15 != 0)
    }

    fn share(layout: Arc<Layout<CompactFormat>>) -> DataplaneState {
        DataplaneState::Compact(layout)
    }
}

/// A fixed-width destination stream decodes unit by unit.
impl<U: FixedDestEncode> SegmentDecode for FixedBins<U> {
    #[inline(always)]
    fn decode(&self, seg: &Segment, sink: &mut impl EntrySink) {
        let p_base = seg.p_base;
        sink.units(&self.dest_ids[seg.raw.clone()], |id: U| id.decode(p_base));
    }

    #[inline(always)]
    fn prefetch(&self, seg: &Segment) {
        prefetch(&self.dest_ids[seg.raw.start..]);
    }
}

/// A fixed-width stream takes one unit per raw edge, written in place.
impl<U: FixedDestEncode> RunEncoder for FixedFormat<U> {
    type Unit = U;
    type Cursor = usize;
    const UNIT_PER_EDGE: bool = true;

    fn cursor(at: usize, _entries: usize) -> usize {
        at
    }

    #[inline]
    fn put_run(region: &mut [U], at: &mut usize, run: &[u32], p_base: u32) {
        U::encode_run(&mut region[*at..*at + run.len()], run, p_base);
        *at += run.len();
    }
}

// ---------------------------------------------------------------------------
// The three formats
// ---------------------------------------------------------------------------

/// A fixed-width format: one `U` per raw edge. Implements [`BinFormat`]
/// for the two unit types the crate encodes — use it through the
/// [`WideFormat`] and [`CompactFormat`] aliases.
#[derive(Debug)]
pub struct FixedFormat<U>(std::marker::PhantomData<U>);

/// 32-bit global destination IDs (the paper's §3.2 layout).
pub type WideFormat = FixedFormat<u32>;

/// 16-bit partition-local destination IDs (§6 future work).
pub type CompactFormat = FixedFormat<u16>;

impl<U: FixedDestEncode> BinFormat for FixedFormat<U> {
    type Dest = FixedBins<U>;
    type Bins<T: BinScalar> = Bins<FixedBins<U>, T>;

    const KIND: BinFormatKind = U::KIND;

    fn validate_layout(png: &Png) -> Result<(), PcpmError> {
        if png.dst_parts().partition_size() > U::MAX_PARTITION {
            return Err(PcpmError::BadConfig(
                "compact bins require partitions of at most 2^15 nodes (128 KB of values)",
            ));
        }
        Ok(())
    }

    fn build_layout(
        view: EdgeView<'_>,
        src_parts: Partitioner,
        dst_parts: Partitioner,
        edge_weights: Option<&[f32]>,
    ) -> Layout<Self> {
        let q = dst_parts.partition_size();
        assert!(
            q <= U::MAX_PARTITION,
            "partition size {q} exceeds the {} format's {}-node range",
            U::KIND,
            U::MAX_PARTITION
        );
        let built = build_layout::<Self>(view, src_parts, dst_parts, edge_weights);
        let dest = FixedBins {
            dest_ids: built.dest,
            weights: built.weights,
        };
        Layout {
            png: built.png,
            dest,
        }
    }

    fn gather_with<A: Algebra>(
        png: &Png,
        dest: &FixedBins<U>,
        own: &[A::T],
        rows: Option<(&[A::T], usize)>,
        ys: &mut [&mut [A::T]],
        kernel: KernelKind,
        variant: GatherKind,
        epilogue: Option<Epilogue<'_, A::T>>,
    ) -> Applied {
        let weights = dest.weights.as_deref();
        gather_any::<A, _>(png, dest, weights, own, rows, ys, kernel, variant, epilogue)
    }

    fn stream_bytes(dest: &FixedBins<U>) -> u64 {
        (dest.dest_ids.len() * std::mem::size_of::<U>()) as u64
    }

    fn memory_bytes(dest: &FixedBins<U>) -> u64 {
        dest.memory_bytes()
    }

    fn share(layout: Arc<Layout<Self>>) -> DataplaneState {
        U::share(layout)
    }
}

/// Delta-encoded split-stream destination IDs (see [`crate::delta`]).
#[derive(Debug)]
pub struct DeltaFormat;

impl BinFormat for DeltaFormat {
    type Dest = DeltaPackedBins;
    type Bins<T: BinScalar> = Bins<DeltaPackedBins, T>;

    const KIND: BinFormatKind = BinFormatKind::Delta;

    fn build_layout(
        view: EdgeView<'_>,
        src_parts: Partitioner,
        dst_parts: Partitioner,
        weights: Option<&[f32]>,
    ) -> Layout<Self> {
        let built = build_layout::<Self>(view, src_parts, dst_parts, weights);
        let dest = DeltaPackedBins {
            dest_bytes: built.dest,
            byte_region: built.dest_region,
            seg_off: built.seg_off,
            weights: built.weights,
        };
        Layout {
            png: built.png,
            dest,
        }
    }

    fn gather_with<A: Algebra>(
        png: &Png,
        dest: &DeltaPackedBins,
        own: &[A::T],
        rows: Option<(&[A::T], usize)>,
        ys: &mut [&mut [A::T]],
        kernel: KernelKind,
        variant: GatherKind,
        epilogue: Option<Epilogue<'_, A::T>>,
    ) -> Applied {
        let weights = dest.weights.as_deref();
        gather_any::<A, _>(png, dest, weights, own, rows, ys, kernel, variant, epilogue)
    }

    fn stream_bytes(dest: &DeltaPackedBins) -> u64 {
        dest.dest_stream_bytes()
    }

    fn memory_bytes(dest: &DeltaPackedBins) -> u64 {
        dest.memory_bytes()
    }

    fn share(layout: Arc<Layout<Self>>) -> DataplaneState {
        DataplaneState::Delta(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::{Group, GROUP};
    use crate::partition::Partitioner;
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};
    use pcpm_graph::Csr;

    fn build_png(g: &Csr, q: u32) -> Png {
        let parts = Partitioner::new(g.num_nodes(), q).unwrap();
        Png::build(EdgeView::from_csr(g), parts, parts)
    }

    /// Collects one segment's entries as global-ID message lists.
    struct Messages {
        p_base: u32,
        msgs: Vec<Vec<u32>>,
    }

    impl Messages {
        fn push(&mut self, (local, first): (usize, bool)) {
            let dst = self.p_base + local as u32;
            if first {
                self.msgs.push(vec![dst]);
            } else {
                self.msgs.last_mut().expect("first entry flagged").push(dst);
            }
        }
    }

    impl EntrySink for Messages {
        fn units<R: Copy>(&mut self, raw: &[R], mut decode: impl FnMut(R) -> (usize, bool)) {
            for &r in raw {
                self.push(decode(r));
            }
        }

        fn groups(&mut self, n: usize, groups: impl Iterator<Item = Group>) {
            let entries = groups.flat_map(|(locals, flags)| {
                (0..GROUP).map(move |j| (locals[j] as usize, (flags >> j) & 1 != 0))
            });
            entries.take(n).for_each(|e| self.push(e));
        }
    }

    /// Decodes every `(s, p)` segment of `dest` into message lists
    /// through the gather's own decoder.
    fn decode_all<D: SegmentDecode + ?Sized>(png: &Png, dest: &D) -> Vec<Vec<Vec<u32>>> {
        let mut all = Vec::new();
        for s in png.src_parts().iter() {
            for p in png.dst_parts().iter() {
                let (seg, _) = Segment::locate(png, s, p as usize);
                let mut sink = Messages {
                    p_base: seg.p_base,
                    msgs: Vec::new(),
                };
                dest.decode(&seg, &mut sink);
                all.push(sink.msgs);
            }
        }
        all
    }

    #[test]
    fn every_format_decodes_the_same_messages() {
        let g = rmat(&RmatConfig::graph500(9, 8, 61)).unwrap();
        for q in [16u32, 100, 512] {
            let png = build_png(&g, q);
            let view = EdgeView::from_csr(&g);
            let wide = WideFormat::build::<f32>(view, &png, None);
            let compact = CompactFormat::build::<f32>(view, &png, None);
            let delta = DeltaFormat::build::<f32>(view, &png, None);
            let want = decode_all(&png, &wide.dest);
            assert_eq!(want, decode_all(&png, &compact.dest), "q={q}");
            assert_eq!(want, decode_all(&png, &delta.dest), "q={q}");
            // The messages are the PNG's rows: one per compressed edge,
            // one decoded entry per raw edge.
            let msgs: usize = want.iter().map(Vec::len).sum();
            assert_eq!(msgs as u64, png.num_compressed_edges());
            let total: usize = want.iter().flatten().map(Vec::len).sum();
            assert_eq!(total as u64, g.num_edges());
        }
    }

    #[test]
    fn dest_stream_strictly_shrinks_wide_to_delta() {
        let g = erdos_renyi(600, 6000, 7).unwrap();
        let png = build_png(&g, 128);
        let view = EdgeView::from_csr(&g);
        let wide = WideFormat::build::<f32>(view, &png, None);
        let compact = CompactFormat::build::<f32>(view, &png, None);
        let delta = DeltaFormat::build::<f32>(view, &png, None);
        let w = WideFormat::dest_stream_bytes(&wide);
        let c = CompactFormat::dest_stream_bytes(&compact);
        let d = DeltaFormat::dest_stream_bytes(&delta);
        assert_eq!(c * 2, w);
        assert!(compact.dest.memory_bytes() < wide.dest.memory_bytes());
        assert!(d < c, "delta ({d}) must beat compact ({c})");
        assert!(dest_compression(g.num_edges(), d) > 2.0);
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in BinFormatKind::ALL {
            assert_eq!(kind.name().parse::<BinFormatKind>().unwrap(), kind);
        }
        assert!("warp".parse::<BinFormatKind>().is_err());
    }
}
