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
//!   ([`BinFormat::build`]; the destination stream is never edited
//!   afterwards — an edge-set change builds the bins afresh),
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
use crate::bins::FixedBins;
use crate::delta::DeltaPackedBins;
use crate::engine::GatherKind;
use crate::error::PcpmError;
use crate::gather::{gather_any, Applied, EntrySink, Epilogue, Segment, SegmentDecode};
use crate::kernel::{prefetch, KernelKind};
use crate::partition::{split_by_lens, Partitioner};
use crate::png::{for_each_run, EdgeView, Png};
use crate::snapshot::BinStateInner;
use rayon::prelude::*;

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
pub trait BinFormat: Send + Sync + 'static {
    /// The bin storage built over a PNG, generic over the update scalar.
    type Bins<T: BinScalar>: Send + Sync + Clone + std::fmt::Debug;

    /// The runtime tag of this format.
    const KIND: BinFormatKind;

    /// Rejects PNG layouts this format cannot encode (e.g. compact's
    /// 15-bit partition-size limit). Called before [`BinFormat::build`].
    fn validate_layout(png: &Png) -> Result<(), PcpmError> {
        let _ = png;
        Ok(())
    }

    /// Allocates the bins and writes the destination-ID (and weight)
    /// streams for `png`, in parallel over source partitions.
    fn build<T: BinScalar>(view: EdgeView<'_>, png: &Png, weights: Option<&[f32]>)
        -> Self::Bins<T>;

    /// The engine's build: the PNG over `view`, checked by
    /// [`BinFormat::validate_layout`], then [`BinFormat::build`] on it. A
    /// format may claim storage it can size from `view` alone before the
    /// PNG's many small allocations land.
    #[doc(hidden)]
    fn build_with_png<T: BinScalar>(
        view: EdgeView<'_>,
        src_parts: Partitioner,
        dst_parts: Partitioner,
        weights: Option<&[f32]>,
    ) -> Result<(Png, Self::Bins<T>), PcpmError> {
        let png = Png::build(view, src_parts, dst_parts);
        Self::validate_layout(&png)?;
        let bins = Self::build(view, &png, weights);
        Ok((png, bins))
    }

    /// One scatter round: writes `x` into the update stream. The update
    /// layout is format-independent, so this defaults to the shared PNG
    /// scatter (Algorithm 3).
    fn scatter_into<T: BinScalar>(png: &Png, x: &[T], bins: &mut Self::Bins<T>) {
        crate::scatter::png_scatter(png, x, Self::updates_mut(bins));
    }

    /// Every gather of this format; the three methods below are its
    /// no-epilogue cases. Solo over the bins' own update stream when
    /// `rows` is `None` (then `variant` picks Algorithm 4's or
    /// Algorithm 2's pointer step); otherwise over `(rows, Q)`, the
    /// `|E'| × Q` update rows of a batch, lane `q` into `ys[q]`.
    /// `epilogue` runs over each destination partition as it completes.
    fn gather_with<A: Algebra>(
        png: &Png,
        bins: &Self::Bins<A::T>,
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
        let variant = GatherKind::BranchAvoiding;
        Self::gather_with::<A>(png, bins, None, &mut [y], kernel, variant, None);
    }

    /// One multi-query gather round (the SpMM inner loop): decodes each
    /// destination-ID segment **once** and applies every entry to all
    /// `Q` queries with one `Q`-lane combine, so the dest-stream bytes,
    /// the decode and the destination's cache line are paid once per
    /// batch. `updates[q]` must share the layout
    /// [`BinFormat::scatter_into`] writes; each query's output is
    /// bit-identical to a solo [`BinFormat::gather_from`] over the same
    /// update stream. The convenience entry: it first interleaves the
    /// `Q` arrays into the rows [`BinFormat::gather_with`] reads, a pass
    /// a round that scatters straight into rows never makes.
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
        if updates.is_empty() {
            return;
        }
        let mut rows = Vec::with_capacity(slots * updates.len());
        for i in 0..slots {
            rows.extend(updates.iter().map(|us| us[i]));
        }
        let variant = GatherKind::BranchAvoiding;
        let rows = Some((&rows[..], updates.len()));
        Self::gather_with::<A>(png, bins, rows, ys, kernel, variant, None);
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
        let (kernel, variant) = (KernelKind::Scalar, GatherKind::Branchy);
        Self::gather_with::<A>(png, bins, None, &mut [y], kernel, variant, None);
        Ok(())
    }

    /// Mutable access to the update stream (the CSR-traversal scatter
    /// ablation writes it directly).
    fn updates_mut<T: BinScalar>(bins: &mut Self::Bins<T>) -> &mut [T];

    /// Heap bytes held by the bins (updates + destination stream +
    /// offsets + weights).
    fn aux_memory_bytes<T: BinScalar>(bins: &Self::Bins<T>) -> u64;

    /// Bytes of the destination-ID stream alone (the term the encodings
    /// compete on; the wide format spends `4·|E|`).
    fn dest_stream_bytes<T: BinScalar>(bins: &Self::Bins<T>) -> u64;

    /// Clones the serializable part of the bins (destination stream +
    /// optional weight stream) for the engine-snapshot writer; the
    /// update stream is scratch and excluded.
    fn export_state<T: BinScalar>(bins: &Self::Bins<T>) -> crate::snapshot::BinState;

    /// The inverse of [`BinFormat::export_state`], around a fresh update
    /// stream of `num_updates` slots. Panics on another format's state.
    fn import_state<T: BinScalar>(
        state: crate::snapshot::BinState,
        num_updates: usize,
    ) -> Self::Bins<T>;
}

const FOREIGN_STATE: &str = "bin state exported by another format";

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
// Shared fixed-width build skeleton (wide + compact)
// ---------------------------------------------------------------------------

/// A fixed-width destination encoding: one storage unit per raw edge
/// (`u32` wide, `u16` compact). Captures the only differences between
/// the wide and compact dataplanes — how a message run becomes units and
/// back; everything else (region splitting, parallel fill, weight
/// streams, the [`BinFormat`] impl) is shared below.
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

    /// Wraps a destination stream as this format's snapshot state.
    fn export_state(dest_ids: Vec<Self>, weights: Option<Vec<f32>>) -> crate::snapshot::BinState;

    /// Unwraps this format's snapshot state; `None` for another's.
    fn import_state(state: BinStateInner) -> Option<(Vec<Self>, Option<Vec<f32>>)>;
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

    fn export_state(dest_ids: Vec<u32>, weights: Option<Vec<f32>>) -> crate::snapshot::BinState {
        crate::snapshot::BinState::wide(dest_ids, weights)
    }

    fn import_state(state: BinStateInner) -> Option<(Vec<u32>, Option<Vec<f32>>)> {
        match state {
            BinStateInner::Wide { dest_ids, weights } => Some((dest_ids, weights)),
            _ => None,
        }
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

    fn export_state(dest_ids: Vec<u16>, weights: Option<Vec<f32>>) -> crate::snapshot::BinState {
        crate::snapshot::BinState::compact(dest_ids, weights)
    }

    fn import_state(state: BinStateInner) -> Option<(Vec<u16>, Option<Vec<f32>>)> {
        match state {
            BinStateInner::Compact { dest_ids, weights } => Some((dest_ids, weights)),
            _ => None,
        }
    }
}

/// A fixed-width destination stream decodes unit by unit.
impl<U: FixedDestEncode> SegmentDecode for [U] {
    #[inline(always)]
    fn decode(&self, seg: &Segment, sink: &mut impl EntrySink) {
        let p_base = seg.p_base;
        sink.units(&self[seg.raw.clone()], |id: U| id.decode(p_base));
    }

    #[inline(always)]
    fn prefetch(&self, seg: &Segment) {
        prefetch(&self[seg.raw.start..]);
    }
}

/// Calls `put(offset, destination partition, run, first raw edge)` for
/// every message run of source partition `s`, where `offset` is the
/// run's place in `s`'s region of a raw-edge-order stream.
fn for_each_slot(
    view: EdgeView<'_>,
    png: &Png,
    s: u32,
    mut put: impl FnMut(usize, u32, &[u32], usize),
) {
    // Per-destination-partition write cursors, local to the region.
    let did_off = &png.part(s).did_off;
    let mut cursor: Vec<u64> = did_off[..did_off.len() - 1].to_vec();
    let (src, dst) = (png.src_parts(), png.dst_parts());
    for_each_run(view, src, dst, s, |_v, p, run, base| {
        put(cursor[p as usize] as usize, p, run, base as usize);
        cursor[p as usize] += run.len() as u64;
    });
}

/// Writes the destination segments (and, when weighted, the weight
/// segments — one combined scan) of source partition `s` into its
/// region through `U`.
fn fill_fixed_partition<U: FixedDestEncode>(
    view: EdgeView<'_>,
    png: &Png,
    s: u32,
    region: &mut [U],
    mut weights: Option<(&mut [f32], &[f32])>,
) {
    let q = png.dst_parts().partition_size();
    for_each_slot(view, png, s, |c, p, run, base| {
        U::encode_run(&mut region[c..c + run.len()], run, p * q);
        if let Some((wregion, ew)) = weights.as_mut() {
            wregion[c..c + run.len()].copy_from_slice(&ew[base..base + run.len()]);
        }
    });
}

/// Writes the per-edge weight stream in raw-edge bin order (the layout
/// the wide format's destination IDs use; every format stores weights
/// this way, so the gather can zip weights with decoded entries). The
/// fixed-width formats fill weights inline with the destination scan;
/// this serves delta.
pub(crate) fn weight_stream(view: EdgeView<'_>, png: &Png, ew: &[f32]) -> Vec<f32> {
    let mut w = vec![0.0f32; png.num_raw_edges() as usize];
    let regions = split_by_lens(&mut w, &png.did_region_lens());
    regions.into_par_iter().enumerate().for_each(|(s, region)| {
        for_each_slot(view, png, s as u32, |c, _, run, base| {
            region[c..c + run.len()].copy_from_slice(&ew[base..base + run.len()]);
        })
    });
    w
}

// ---------------------------------------------------------------------------
// The three formats
// ---------------------------------------------------------------------------

/// A fixed-width format: one `U` per raw edge. Implements [`BinFormat`]
/// for the two unit types the crate encodes — use it through the
/// [`WideFormat`] and [`CompactFormat`] aliases.
pub struct FixedFormat<U>(std::marker::PhantomData<U>);

/// 32-bit global destination IDs (the paper's §3.2 layout).
pub type WideFormat = FixedFormat<u32>;

/// 16-bit partition-local destination IDs (§6 future work).
pub type CompactFormat = FixedFormat<u16>;

impl<U: FixedDestEncode> BinFormat for FixedFormat<U> {
    type Bins<T: BinScalar> = FixedBins<U, T>;

    const KIND: BinFormatKind = U::KIND;

    fn validate_layout(png: &Png) -> Result<(), PcpmError> {
        if png.dst_parts().partition_size() > U::MAX_PARTITION {
            return Err(PcpmError::BadConfig(
                "compact bins require partitions of at most 2^15 nodes (128 KB of values)",
            ));
        }
        Ok(())
    }

    fn build<T: BinScalar>(
        view: EdgeView<'_>,
        png: &Png,
        edge_weights: Option<&[f32]>,
    ) -> FixedBins<U, T> {
        let dest = vec![U::default(); png.num_raw_edges() as usize];
        fill_fixed(view, png, edge_weights, dest)
    }

    /// Claims the destination stream — the build's largest allocation,
    /// one unit per edge of `view` — before the PNG. Built after, the
    /// PNG's parts (allocated partly on the submitting thread, which
    /// works its own pool jobs) split the block a dropped engine's
    /// stream left free, and this stream grows the heap instead of
    /// reusing it: glibc's dynamic mmap threshold serves it from the heap
    /// once one such block has been freed. Measured on `pr-cache` (ten
    /// runs each, 2-vCPU x86-64): peak RSS 15.50 MiB median with the
    /// PNG first, 13.29 MiB with this order, 13.75 MiB before the pool
    /// let the submitter work its jobs.
    fn build_with_png<T: BinScalar>(
        view: EdgeView<'_>,
        src_parts: Partitioner,
        dst_parts: Partitioner,
        edge_weights: Option<&[f32]>,
    ) -> Result<(Png, FixedBins<U, T>), PcpmError> {
        let dest = vec![U::default(); view.num_edges() as usize];
        let png = Png::build(view, src_parts, dst_parts);
        Self::validate_layout(&png)?;
        let bins = fill_fixed(view, &png, edge_weights, dest);
        Ok((png, bins))
    }

    fn gather_with<A: Algebra>(
        png: &Png,
        bins: &FixedBins<U, A::T>,
        rows: Option<(&[A::T], usize)>,
        ys: &mut [&mut [A::T]],
        kernel: KernelKind,
        variant: GatherKind,
        epilogue: Option<Epilogue<'_, A::T>>,
    ) -> Applied {
        let (dest, weights, own) = (&bins.dest_ids[..], bins.weights.as_deref(), &bins.updates);
        gather_any::<A, _>(png, dest, weights, own, rows, ys, kernel, variant, epilogue)
    }

    fn updates_mut<T: BinScalar>(bins: &mut FixedBins<U, T>) -> &mut [T] {
        &mut bins.updates
    }

    fn aux_memory_bytes<T: BinScalar>(bins: &FixedBins<U, T>) -> u64 {
        bins.memory_bytes()
    }

    fn dest_stream_bytes<T: BinScalar>(bins: &FixedBins<U, T>) -> u64 {
        (bins.dest_ids.len() * std::mem::size_of::<U>()) as u64
    }

    fn export_state<T: BinScalar>(bins: &FixedBins<U, T>) -> crate::snapshot::BinState {
        U::export_state(bins.dest_ids.clone(), bins.weights.clone())
    }

    fn import_state<T: BinScalar>(
        state: crate::snapshot::BinState,
        num_updates: usize,
    ) -> FixedBins<U, T> {
        let (dest_ids, weights) = U::import_state(state.0).expect(FOREIGN_STATE);
        FixedBins {
            updates: vec![T::default(); num_updates],
            dest_ids,
            weights,
        }
    }
}

/// A fixed-width format's bins over `png`: allocates the update and
/// weight streams, splits `dest` (one unit per raw edge) by source
/// partition and encodes every region in parallel.
fn fill_fixed<U: FixedDestEncode, T: BinScalar>(
    view: EdgeView<'_>,
    png: &Png,
    edge_weights: Option<&[f32]>,
    mut dest: Vec<U>,
) -> FixedBins<U, T> {
    let q = png.dst_parts().partition_size();
    assert!(
        q <= U::MAX_PARTITION,
        "partition size {q} exceeds the {} format's {}-node range",
        U::KIND,
        U::MAX_PARTITION
    );
    assert_eq!(
        dest.len() as u64,
        png.num_raw_edges(),
        "one unit per raw edge"
    );
    let updates = vec![T::default(); png.num_compressed_edges() as usize];
    let mut weights = edge_weights.map(|_| vec![0.0f32; png.num_raw_edges() as usize]);
    let did_lens = png.did_region_lens();
    let wregions: Vec<Option<&mut [f32]>> = match &mut weights {
        Some(w) => split_by_lens(w, &did_lens).into_iter().map(Some).collect(),
        None => did_lens.iter().map(|_| None).collect(),
    };
    split_by_lens(&mut dest, &did_lens)
        .into_par_iter()
        .zip(wregions)
        .enumerate()
        .for_each(|(s, (region, wregion))| {
            let weights = wregion.zip(edge_weights);
            fill_fixed_partition::<U>(view, png, s as u32, region, weights);
        });
    FixedBins {
        updates,
        dest_ids: dest,
        weights,
    }
}

/// Delta-encoded split-stream destination IDs (see [`crate::delta`]).
pub struct DeltaFormat;

impl BinFormat for DeltaFormat {
    type Bins<T: BinScalar> = DeltaPackedBins<T>;

    const KIND: BinFormatKind = BinFormatKind::Delta;

    fn build<T: BinScalar>(
        view: EdgeView<'_>,
        png: &Png,
        weights: Option<&[f32]>,
    ) -> DeltaPackedBins<T> {
        DeltaPackedBins::build(view, png, weights)
    }

    fn gather_with<A: Algebra>(
        png: &Png,
        bins: &DeltaPackedBins<A::T>,
        rows: Option<(&[A::T], usize)>,
        ys: &mut [&mut [A::T]],
        kernel: KernelKind,
        variant: GatherKind,
        epilogue: Option<Epilogue<'_, A::T>>,
    ) -> Applied {
        let (weights, own) = (bins.weights.as_deref(), &bins.updates);
        gather_any::<A, _>(png, bins, weights, own, rows, ys, kernel, variant, epilogue)
    }

    fn updates_mut<T: BinScalar>(bins: &mut DeltaPackedBins<T>) -> &mut [T] {
        &mut bins.updates
    }

    fn aux_memory_bytes<T: BinScalar>(bins: &DeltaPackedBins<T>) -> u64 {
        bins.memory_bytes()
    }

    fn dest_stream_bytes<T: BinScalar>(bins: &DeltaPackedBins<T>) -> u64 {
        bins.dest_stream_bytes()
    }

    fn export_state<T: BinScalar>(bins: &DeltaPackedBins<T>) -> crate::snapshot::BinState {
        crate::snapshot::BinState::delta(
            bins.dest_bytes.clone(),
            bins.byte_region.clone(),
            bins.seg_off.clone(),
            bins.weights.clone(),
        )
    }

    fn import_state<T: BinScalar>(
        state: crate::snapshot::BinState,
        num_updates: usize,
    ) -> DeltaPackedBins<T> {
        let BinStateInner::Delta {
            dest_bytes,
            byte_region,
            seg_off,
            weights,
        } = state.0
        else {
            panic!("{FOREIGN_STATE}");
        };
        DeltaPackedBins {
            updates: vec![T::default(); num_updates],
            dest_bytes,
            byte_region,
            seg_off,
            weights,
        }
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
            let want = decode_all(&png, &wide.dest_ids[..]);
            assert_eq!(want, decode_all(&png, &compact.dest_ids[..]), "q={q}");
            assert_eq!(want, decode_all(&png, &delta), "q={q}");
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
        assert!(compact.memory_bytes() < wide.memory_bytes());
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

    #[test]
    fn compact_layout_validation_rejects_oversized_partitions() {
        let n = 70_000u32;
        let g = Csr::from_edges(n, &[(0, 1), (0, 65_000)]).unwrap();
        let png = build_png(&g, n);
        assert!(CompactFormat::validate_layout(&png).is_err());
        assert!(WideFormat::validate_layout(&png).is_ok());
        assert!(DeltaFormat::validate_layout(&png).is_ok());
    }
}
