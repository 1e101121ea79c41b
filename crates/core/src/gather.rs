//! PCPM gather phase: the one gather inner loop.
//!
//! The paper's gather (Algorithm 4) is a single idea: walk a bin segment,
//! *add* each entry's demarcation bit to the update pointer instead of
//! branching on it (§3.4), and reduce into the partition-local slice of
//! the output. Every bin format, kernel variant and batch width runs
//! that idea through the three pieces of this module:
//!
//! - [`gather`] — the partition/segment walker. Parallel over
//!   destination partitions: worker `p` owns partition `p`'s slice of
//!   every output exclusively, so the phase is lock-free. It streams the
//!   `k_src` segments `(s, p)`, each contiguous in the bins.
//! - [`SegmentDecode`] — one implementation per bin format, turning a
//!   segment into `(partition-local offset, starts a message)` entries in
//!   bin order (fixed-width units in [`crate::format`], groups of eight
//!   split-stream entries in [`crate::delta`]).
//! - `Apply` — the loop itself, generic over the [`Accumulator`]
//!   ([`Solo`]: one output over the bins' own update stream; [`Rows`]:
//!   `W` outputs over `[T; W]` update rows, so the destination bytes are
//!   decoded once per pass and a decoded destination is one `W`-lane
//!   access), the weight source and the [`Advance`] policy
//!   ([`BranchAvoiding`], or [`Branchy`] — Algorithm 2's
//!   `if MSB(id) != 0 { pop update }`, kept as the branch-avoidance
//!   ablation that `repro ablation` runs).
//!
//! The row width `W` is a compile-time constant, 2 to [`MAX_LANES`]:
//! [`gather_any`] picks the monomorph with one `match` on the pass width
//! ([`with_lanes`]), so the inner loop does no width arithmetic and over
//! `f32` at `W = 8` a row is one 256-bit load, add and store. A batch
//! wider than [`MAX_LANES`] is the caller's to split into passes.
//!
//! Entries are applied in bin order on every path, each lane of a row on
//! its own, so output is bit-identical across formats, kernels and batch
//! widths for any [`Algebra`].
//!
//! # The per-partition epilogue
//!
//! Algorithm 4 does not return a vector of sums: the worker that owns
//! destination partition `p` finishes it by applying the damping and the
//! out-degree division while `p`'s accumulators are still in its cache.
//! Handed an [`Epilogue`], [`gather`] does the same: after the last
//! segment `(k_src - 1, p)` the caller's closure receives `p`'s slice of
//! every output and of the caller's per-node state as a [`Finished`]
//! range. It may overwrite those slices and reports one `f64` per query;
//! it sees nothing else, so partitions still never share a byte. The
//! partials are summed per query in ascending partition order: grouped
//! by the layout, never by the scheduler. [`apply_parts`] is that loop
//! without the segments, for dataplanes that have no partitions.

use crate::algebra::Algebra;
use crate::backend::GatherKind;
use crate::kernel::KernelKind;
use crate::partition::split_by_lens;
use crate::png::Png;
use rayon::prelude::*;
use std::ops::Range;
use std::time::Duration;

/// One destination range whose sums are final, as an [`Epilogue`]'s
/// closure receives it, for the queries of one pass. Every slice spans
/// exactly [`Finished::nodes`]; `outputs`, `state` and `partials` hold
/// one entry per query of [`Finished::queries`], in order.
pub struct Finished<'a, T> {
    /// The destination nodes the slices cover.
    pub nodes: Range<usize>,
    /// The positions of the pass's queries in the batch the caller
    /// handed over: a batch of more than eight queries runs as passes of
    /// at most eight, so the closure sees each range once per pass, each
    /// time for the next slice of the batch.
    pub queries: Range<usize>,
    /// Each query's gathered values; what the closure leaves here is what
    /// the caller's output vector holds afterwards.
    pub outputs: Vec<&'a mut [T]>,
    /// Each query's slice of the caller's per-node state.
    pub state: Vec<&'a mut [T]>,
    /// One slot per query for the range's partial (zero on entry).
    pub partials: &'a mut [f64],
}

/// The closure an [`Epilogue`] runs, once per destination range, on the
/// worker that finished the range.
pub type ApplyFn<'a, T> = dyn Fn(Finished<'_, T>) + Sync + 'a;

/// A caller's apply step, run inside the gather's partition loop. Built
/// by [`Engine::step_many_with`](crate::backend::Engine::step_many_with).
pub struct Epilogue<'a, T> {
    /// The engine's destination-partition lengths, for a dataplane
    /// that has no partitions of its own to apply over.
    pub(crate) lens: &'a [usize],
    /// The batch positions of the queries `state` belongs to.
    pub(crate) queries: Range<usize>,
    pub(crate) state: Vec<&'a mut [T]>,
    pub(crate) apply: &'a ApplyFn<'a, T>,
}

impl<'a, T> Epilogue<'a, T> {
    /// The epilogue of each pass of at most `lanes` queries, in order.
    pub(crate) fn split(self, lanes: usize) -> impl Iterator<Item = Self> {
        let Self {
            lens,
            queries,
            state,
            apply,
        } = self;
        let mut state = state.into_iter();
        let end = queries.end;
        queries.step_by(lanes).map(move |lo| {
            let hi = end.min(lo + lanes);
            let state = state.by_ref().take(hi - lo).collect();
            Self {
                lens,
                queries: lo..hi,
                state,
                apply,
            }
        })
    }
}

/// What an [`Epilogue`] produced: per query, the ranges' partials summed
/// in ascending range order; and the closure's time, summed over ranges.
pub type Applied = (Vec<f64>, Duration);

/// One `(source partition, destination partition)` bin segment.
pub(crate) struct Segment {
    /// Source partition.
    pub s: usize,
    /// Destination partition.
    pub p: usize,
    /// The segment's raw-edge range in the source-partition-major
    /// destination-ID and weight streams.
    pub raw: Range<usize>,
    /// First node ID of destination partition `p`.
    pub p_base: u32,
}

impl Segment {
    /// Where segment `(s, p)` lies in the destination streams and, second,
    /// in the update streams.
    pub fn locate(png: &Png, s: u32, p: usize) -> (Self, Range<usize>) {
        let part = png.part(s);
        let ubase = png.upd_region()[s as usize] as usize;
        let dbase = png.did_region()[s as usize] as usize;
        let seg = Segment {
            s: s as usize,
            p,
            raw: dbase + part.did_off[p] as usize..dbase + part.did_off[p + 1] as usize,
            p_base: png.dst_parts().range(p as u32).start,
        };
        let upd = ubase + part.upd_off[p] as usize..ubase + part.upd_off[p + 1] as usize;
        (seg, upd)
    }
}

/// Entries per decoded [`Group`].
pub(crate) const GROUP: usize = 8;

/// Eight consecutive entries of a segment: their partition-local offsets,
/// and their demarcation bits (bit `j` for entry `j`).
pub(crate) type Group = ([u32; GROUP], u8);

/// Entry `j` of `group` as `(partition-local offset, starts a message)`.
#[inline(always)]
fn entry((locals, flags): &Group, j: usize) -> (usize, bool) {
    (locals[j] as usize, (flags >> j) & 1 != 0)
}

/// Consumer of one decoded segment — `(partition-local offset, starts a
/// message)` entries in bin order, through exactly one of the two
/// methods. The apply loop; the format round-trip tests collect instead.
pub(crate) trait EntrySink {
    /// Takes the segment's entries as the units `raw`, to be run through
    /// `decode` in order (`decode` may carry state from one unit to the
    /// next). A count known up front is what lets the apply loop take
    /// four entries per trip.
    fn units<R: Copy>(&mut self, raw: &[R], decode: impl FnMut(R) -> (usize, bool));

    /// Takes the segment's `n` entries as `⌈n/8⌉` groups, decoded on
    /// demand and in order; the lanes of the last group past `n` are
    /// ignored.
    fn groups(&mut self, n: usize, groups: impl Iterator<Item = Group>);
}

/// A bin format's destination stream, as the gather reads it.
pub(crate) trait SegmentDecode: Sync {
    /// Decodes `seg` and hands its entries to `sink`, exactly once.
    fn decode(&self, seg: &Segment, sink: &mut impl EntrySink);

    /// Touches the head of `seg`, so its first cache line is in flight
    /// while the segment before it finishes.
    fn prefetch(&self, seg: &Segment);
}

/// How the update pointer moves at a message boundary.
pub(crate) trait Advance {
    /// Steps `up` to the entry's update value; `first` is the entry's
    /// demarcation bit.
    fn advance(up: &mut usize, first: bool);
}

/// Algorithm 4: the demarcation bit is added to the pointer, so the
/// loop carries no data-dependent branch.
pub(crate) struct BranchAvoiding;

impl Advance for BranchAvoiding {
    #[inline(always)]
    fn advance(up: &mut usize, first: bool) {
        *up = up.wrapping_add(first as usize);
    }
}

/// Algorithm 2: branch on the demarcation bit. Mispredicts on every
/// message boundary; the branch-avoidance ablation.
pub(crate) struct Branchy;

impl Advance for Branchy {
    #[inline(always)]
    fn advance(up: &mut usize, first: bool) {
        if first {
            *up = up.wrapping_add(1);
        }
    }
}

/// What an edge contributes besides its update value.
pub(crate) trait Weight: Copy {
    /// The contribution of an edge whose source propagated `u`.
    fn extend<A: Algebra>(self, u: A::T) -> A::T;
}

/// An unweighted edge. Zero-sized, so a slice of them parallel to a
/// segment costs nothing.
#[derive(Clone, Copy)]
struct Unweighted;

impl Weight for Unweighted {
    #[inline(always)]
    fn extend<A: Algebra>(self, u: A::T) -> A::T {
        A::extend(u)
    }
}

impl Weight for f32 {
    #[inline(always)]
    fn extend<A: Algebra>(self, u: A::T) -> A::T {
        A::extend_weighted(self, u)
    }
}

/// One destination partition's slice of the outputs, with the updates
/// that feed it.
pub(crate) trait Accumulator<'a, A: Algebra> {
    /// Whether four-at-a-time iteration pays: it trims the loop overhead
    /// around a single combine, which a `Q`-wide inner loop already
    /// amortizes.
    const UNROLL: bool;

    /// Takes partition `p`'s slice of every output (to be overwritten
    /// by sums from the algebra's identity) and all updates, `updates[0]`.
    fn new(updates: &'a [&'a [A::T]], ys: Vec<&'a mut [A::T]>) -> Self;

    /// Moves to the segment whose updates occupy slots `upd`.
    fn seek(&mut self, upd: Range<usize>);

    /// Reduces the segment's `up`-th update into offset `local`.
    fn add<W: Weight>(&mut self, local: usize, up: usize, w: W);

    /// Hands the output slices back, in query order, once the last
    /// segment is in.
    fn finish(self) -> Vec<&'a mut [A::T]>;
}

/// Width 1: the solo gather, over the bins' own update stream.
pub(crate) struct Solo<'a, T> {
    updates: &'a [T],
    /// The current segment's updates.
    seg: &'a [T],
    y: &'a mut [T],
}

impl<'a, A: Algebra> Accumulator<'a, A> for Solo<'a, A::T> {
    const UNROLL: bool = true;

    fn new(updates: &'a [&'a [A::T]], mut ys: Vec<&'a mut [A::T]>) -> Self {
        let y = ys.pop().expect("one output");
        assert!(ys.is_empty(), "the solo gather takes one output");
        y.fill(A::identity());
        Self {
            updates: updates[0],
            seg: &[],
            y,
        }
    }

    #[inline]
    fn seek(&mut self, upd: Range<usize>) {
        self.seg = &self.updates[upd];
    }

    #[inline(always)]
    fn add<W: Weight>(&mut self, local: usize, up: usize, w: W) {
        let slot = &mut self.y[local];
        *slot = A::combine(*slot, w.extend::<A>(self.seg[up]));
    }

    fn finish(self) -> Vec<&'a mut [A::T]> {
        vec![self.y]
    }
}

/// Lanes one row pass carries at most; a wider batch runs as
/// consecutive passes. Eight `f32` lanes are one 256-bit row.
pub(crate) const MAX_LANES: usize = 8;

/// Runs `$body` with `$W` bound to the row width `$width` as a constant,
/// 2 to [`MAX_LANES`]: the one `match` that picks a row kernel's
/// monomorph for a pass.
macro_rules! with_lanes {
    ($width:expr, $W:ident => $body:expr) => {
        match $width {
            2 => {
                const $W: usize = 2;
                $body
            }
            3 => {
                const $W: usize = 3;
                $body
            }
            4 => {
                const $W: usize = 4;
                $body
            }
            5 => {
                const $W: usize = 5;
                $body
            }
            6 => {
                const $W: usize = 6;
                $body
            }
            7 => {
                const $W: usize = 7;
                $body
            }
            8 => {
                const $W: usize = 8;
                $body
            }
            width => unreachable!("a row pass carries 2 to 8 lanes, not {width}"),
        }
    };
}
pub(crate) use with_lanes;

/// Width `W`: the multi-query gather (the SpMM inner loop). The updates
/// are `[T; W]` rows, one per compressed edge
/// ([`crate::scatter::png_scatter_rows`]), and so are the partition's
/// accumulators, one per node: a decoded destination adds one update row
/// into one cache-resident accumulator row, each lane in the solo order.
/// The accumulators are scratch of `W ×` the partition's bytes, one live
/// per worker, never `n × W`; `finish` transposes them, still cached,
/// into the caller's per-query slices.
pub(crate) struct Rows<'a, T, const W: usize> {
    rows: &'a [[T; W]],
    /// The current segment's rows.
    seg: &'a [[T; W]],
    acc: Vec<[T; W]>,
    /// One slice per lane.
    ys: Vec<&'a mut [T]>,
}

impl<'a, A: Algebra, const W: usize> Accumulator<'a, A> for Rows<'a, A::T, W> {
    const UNROLL: bool = false;

    fn new(updates: &'a [&'a [A::T]], ys: Vec<&'a mut [A::T]>) -> Self {
        assert_eq!(ys.len(), W, "one output per lane");
        let nodes = ys.first().map_or(0, |y| y.len());
        Self {
            rows: updates[0].as_chunks().0,
            seg: &[],
            acc: vec![[A::identity(); W]; nodes],
            ys,
        }
    }

    #[inline]
    fn seek(&mut self, upd: Range<usize>) {
        self.seg = &self.rows[upd];
    }

    #[inline(always)]
    fn add<Wt: Weight>(&mut self, local: usize, up: usize, w: Wt) {
        let row = &self.seg[up];
        let acc = &mut self.acc[local];
        *acc = std::array::from_fn(|i| A::combine(acc[i], w.extend::<A>(row[i])));
    }

    fn finish(self) -> Vec<&'a mut [A::T]> {
        let Self { acc, mut ys, .. } = self;
        for (v, row) in acc.iter().enumerate() {
            for (y, &sum) in ys.iter_mut().zip(row) {
                y[v] = sum;
            }
        }
        ys
    }
}

/// The apply loop of one segment: every entry advances the update
/// pointer by its demarcation bit and reduces into the accumulator.
struct Apply<'s, A, Acc, P> {
    acc: &'s mut Acc,
    /// The segment's slice of the weight stream.
    weights: Option<&'s [f32]>,
    /// Take the entries four per trip, in exactly the plain order.
    chunked: bool,
    _variant: std::marker::PhantomData<(A, P)>,
}

impl<'a, A: Algebra, Acc: Accumulator<'a, A>, P: Advance> Apply<'_, A, Acc, P> {
    #[inline(always)]
    fn step<W: Weight>(&mut self, up: &mut usize, (local, first): (usize, bool), w: W) {
        P::advance(up, first);
        self.acc.add(local, *up, w);
    }

    /// The loop, from update pointer `up` on. A `for`, not `for_each`: an
    /// adapter's `fold` is not reliably inlined here, and out of line it
    /// keeps `up` in memory.
    #[inline(always)]
    fn drain<W: Weight>(
        &mut self,
        up: &mut usize,
        entries: impl Iterator<Item = ((usize, bool), W)>,
    ) {
        for (entry, w) in entries {
            self.step(up, entry, w);
        }
    }

    /// The loop over units and their weights: four per trip while
    /// `chunked` has four left, then [`Self::drain`] for the rest.
    #[inline(always)]
    fn units_with<R: Copy, W: Weight>(
        &mut self,
        mut raw: &[R],
        mut ws: &[W],
        mut decode: impl FnMut(R) -> (usize, bool),
    ) {
        let mut up = FIRST_UP;
        if self.chunked {
            let (mut raw4, mut ws4) = (raw.chunks_exact(4), ws.chunks_exact(4));
            for (r, w) in (&mut raw4).zip(&mut ws4) {
                for i in 0..4 {
                    self.step(&mut up, decode(r[i]), w[i]);
                }
            }
            (raw, ws) = (raw4.remainder(), ws4.remainder());
        }
        self.drain(&mut up, raw.iter().zip(ws).map(|(&r, &w)| (decode(r), w)));
    }

    /// The loop over groups and the weights of their entries: each group
    /// is applied straight from the decoder's registers, a whole group
    /// per trip while eight entries are left.
    #[inline(always)]
    fn groups_with<W: Weight>(&mut self, ws: &[W], mut groups: impl Iterator<Item = Group>) {
        let mut up = FIRST_UP;
        let mut full = ws.chunks_exact(GROUP);
        // `groups.next()`, not `zip(&mut groups)`: the adapter's call
        // through `&mut` is not reliably inlined.
        for w in &mut full {
            let Some(group) = groups.next() else { return };
            for (j, &w) in w.iter().enumerate() {
                self.step(&mut up, entry(&group, j), w);
            }
        }
        if let Some(group) = groups.next() {
            for (j, &w) in full.remainder().iter().enumerate() {
                self.step(&mut up, entry(&group, j), w);
            }
        }
    }
}

/// The update pointer starts one before the segment: the first entry
/// always starts a message and advances it to 0.
const FIRST_UP: usize = usize::MAX;

impl<'a, A: Algebra, Acc: Accumulator<'a, A>, P: Advance> EntrySink for Apply<'_, A, Acc, P> {
    #[inline(always)]
    fn units<R: Copy>(&mut self, raw: &[R], decode: impl FnMut(R) -> (usize, bool)) {
        match self.weights {
            // A `Vec` of zero-sized values never allocates: the slice is
            // only a length, there so both arms zip through one loop.
            None => self.units_with(raw, &vec![Unweighted; raw.len()], decode),
            Some(ws) => self.units_with(raw, ws, decode),
        }
    }

    #[inline(always)]
    fn groups(&mut self, n: usize, groups: impl Iterator<Item = Group>) {
        match self.weights {
            None => self.groups_with(&vec![Unweighted; n], groups),
            Some(ws) => self.groups_with(ws, groups),
        }
    }
}

/// Splits each of the `Q` output vectors by destination-partition `lens`
/// and transposes the result: `out[p][q]` is query `q`'s slice of
/// partition `p`, so worker `p` owns its region of *all* `Q` outputs in
/// fully safe code.
fn split_queries_by_parts<'a, T>(ys: &'a mut [&mut [T]], lens: &[usize]) -> Vec<Vec<&'a mut [T]>> {
    let mut per_part: Vec<Vec<&'a mut [T]>> =
        lens.iter().map(|_| Vec::with_capacity(ys.len())).collect();
    for y in ys.iter_mut() {
        for (p, s) in split_by_lens(y, lens).into_iter().enumerate() {
            per_part[p].push(s);
        }
    }
    per_part
}

/// Runs `body` on every destination range (`lens` consecutive node
/// counts) with that range's slice of every output, in parallel over
/// ranges, then, on the same worker, the epilogue over what `body` hands
/// back. The partition loop of [`gather`]; with an identity `body`, the
/// whole apply pass of a dataplane that has no partitions.
pub(crate) fn apply_parts<'a, T: Send + Sync>(
    lens: &[usize],
    ys: &'a mut [&mut [T]],
    epilogue: Option<Epilogue<'_, T>>,
    body: impl Fn(usize, Vec<&'a mut [T]>) -> Vec<&'a mut [T]> + Sync,
) -> Applied {
    let ys_parts = split_queries_by_parts(ys, lens);
    let Some(Epilogue {
        queries,
        mut state,
        apply,
        ..
    }) = epilogue
    else {
        ys_parts.into_par_iter().enumerate().for_each(|(p, ys_p)| {
            body(p, ys_p);
        });
        return Applied::default();
    };
    let width = state.len();
    let mut partials = vec![0.0f64; lens.len() * width];
    let starts: Vec<usize> = lens
        .iter()
        .scan(0, |next, &len| Some(std::mem::replace(next, *next + len)))
        .collect();
    let busy_ns: u64 = ys_parts
        .into_par_iter()
        .zip(split_queries_by_parts(&mut state, lens))
        .zip(partials.chunks_mut(width.max(1)).collect::<Vec<_>>())
        .enumerate()
        .map(|(p, ((ys_p, state_p), partials_p))| {
            let outputs = body(p, ys_p);
            let t0 = crate::telemetry::stopwatch();
            apply(Finished {
                nodes: starts[p]..starts[p] + lens[p],
                queries: queries.clone(),
                outputs,
                state: state_p,
                partials: partials_p,
            });
            t0.elapsed().as_nanos() as u64
        })
        .sum();
    let total = |q| partials.iter().skip(q).step_by(width).sum();
    (
        (0..width).map(total).collect(),
        Duration::from_nanos(busy_ns),
    )
}

/// The wall-clock an epilogue took inside a pass of `wall`: its `busy`
/// time, summed over `parts` ranges, spread over as many workers as had a
/// range to finish, and at most `wall`.
pub(crate) fn apply_share(busy: Duration, parts: usize, wall: Duration) -> Duration {
    let workers = rayon::current_num_threads().clamp(1, parts.max(1));
    (busy / workers as u32).min(wall)
}

/// One gather round: `ys[q] = ⊕ Aᵀ·(what was scattered for query q)`
/// for every query, reading and decoding the destination stream `dest`
/// once, then `epilogue` over each partition as it completes.
/// `updates[0]` is what the scatter wrote — an update stream for
/// [`Solo`], a batch's rows for [`Rows`], its length checked by
/// [`gather_any`]; `weights` is the raw-edge-order weight stream of
/// weighted bins.
///
/// [`KernelKind::Unrolled`] keeps the next segment's head in flight and
/// lets the accumulator iterate four entries per trip; any other value
/// runs the plain loop.
///
/// # Panics
///
/// Panics unless every output spans the destination nodes.
pub(crate) fn gather<'a, A, D, Acc, P>(
    png: &Png,
    dest: &D,
    weights: Option<&[f32]>,
    updates: &'a [&'a [A::T]],
    ys: &'a mut [&mut [A::T]],
    kernel: KernelKind,
    epilogue: Option<Epilogue<'_, A::T>>,
) -> Applied
where
    A: Algebra,
    D: SegmentDecode + ?Sized,
    Acc: Accumulator<'a, A>,
    P: Advance,
{
    for y in ys.iter() {
        assert_eq!(y.len(), png.dst_parts().num_nodes() as usize, "y length");
    }
    let unrolled = kernel == KernelKind::Unrolled;
    let k_src = png.src_parts().num_partitions();
    apply_parts(&png.dst_parts().lens(), ys, epilogue, |p, ys_p| {
        let mut acc = Acc::new(updates, ys_p);
        for s in 0..k_src {
            let (seg, upd) = Segment::locate(png, s, p);
            if unrolled && s + 1 < k_src {
                dest.prefetch(&Segment::locate(png, s + 1, p).0);
            }
            acc.seek(upd);
            let mut sink = Apply::<A, Acc, P> {
                acc: &mut acc,
                weights: weights.map(|w| &w[seg.raw.clone()]),
                chunked: unrolled && Acc::UNROLL,
                _variant: std::marker::PhantomData,
            };
            dest.decode(&seg, &mut sink);
        }
        acc.finish()
    })
}

/// Every gather a bin format offers, over its destination stream `dest`:
/// solo over the bins' `own` update stream (`variant` picks the pointer
/// step), or over `rows` of the given width, one lane per output and at
/// most [`MAX_LANES`] of them; a 1-wide row is an update stream, gathered
/// solo. Panics unless the updates hold one value per compressed edge
/// and output.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_any<A: Algebra, D: SegmentDecode + ?Sized>(
    png: &Png,
    dest: &D,
    weights: Option<&[f32]>,
    own: &[A::T],
    rows: Option<(&[A::T], usize)>,
    ys: &mut [&mut [A::T]],
    kernel: KernelKind,
    variant: GatherKind,
    epilogue: Option<Epilogue<'_, A::T>>,
) -> Applied {
    let (updates, width) = rows.unwrap_or((own, 1));
    assert_eq!(width, ys.len(), "one lane per output");
    assert!(
        (1..=MAX_LANES).contains(&width),
        "a pass carries 1 to {MAX_LANES} lanes"
    );
    let slots = png.num_compressed_edges() * width as u64;
    assert_eq!(updates.len() as u64, slots, "update stream length");
    let updates = &[updates][..];
    match (width, variant) {
        (1, GatherKind::BranchAvoiding) => gather::<A, D, Solo<A::T>, BranchAvoiding>(
            png, dest, weights, updates, ys, kernel, epilogue,
        ),
        (1, GatherKind::Branchy) => {
            gather::<A, D, Solo<A::T>, Branchy>(png, dest, weights, updates, ys, kernel, epilogue)
        }
        (width, _) => with_lanes!(width, W => gather::<A, D, Rows<A::T, W>, BranchAvoiding>(
            png, dest, weights, updates, ys, kernel, epilogue,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{MinLabel, PlusF32};
    use crate::compact::MAX_COMPACT_PARTITION;
    use crate::format::{BinFormat, BinFormatKind, CompactFormat, DeltaFormat, WideFormat};
    use crate::partition::Partitioner;
    use crate::png::EdgeView;
    use crate::scatter::{png_scatter, png_scatter_rows};
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};
    use pcpm_graph::{Csr, EdgeWeights};

    const KERNELS: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Unrolled];

    fn layout(g: &Csr, q: u32) -> Png {
        let parts = Partitioner::new(g.num_nodes(), q).unwrap();
        Png::build(EdgeView::from_csr(g), parts, parts)
    }

    /// Dense reference: `y[t] = ⊕ extend(w(s,t), x[s])` over the edges in
    /// CSR order — the order every gather path reduces a destination in
    /// (source partitions ascending, sources ascending within a segment),
    /// so even f32 sums must match bit for bit.
    fn reference<A: Algebra>(g: &Csr, w: Option<&EdgeWeights>, x: &[A::T]) -> Vec<A::T> {
        let mut y = vec![A::identity(); g.num_nodes() as usize];
        for (i, (s, t)) in g.edges().enumerate() {
            let contribution = match w {
                None => A::extend(x[s as usize]),
                Some(w) => A::extend_weighted(w.as_slice()[i], x[s as usize]),
            };
            y[t as usize] = A::combine(y[t as usize], contribution);
        }
        y
    }

    /// Runs every gather path of format `F` — each kernel solo (Q = 1)
    /// and batched (Q = `xs.len()` from separate streams, and from
    /// scattered rows in passes of at most [`MAX_LANES`]), plus the
    /// branchy ablation where the format has one — and checks every
    /// output against `want`. Outputs start as
    /// `stale` garbage: the gather must overwrite, not accumulate.
    fn check_format<A: Algebra, F: BinFormat>(
        g: &Csr,
        png: &Png,
        w: Option<&EdgeWeights>,
        xs: &[Vec<A::T>],
        want: &[Vec<A::T>],
        stale: A::T,
    ) {
        let n = g.num_nodes() as usize;
        let width = xs.len();
        let label = |path: &str| format!("{} {path} Q={width} weighted={}", F::KIND, w.is_some());
        let mut bins = F::build::<A::T>(EdgeView::from_csr(g), png, w.map(|w| w.as_slice()));
        for (x, want) in xs.iter().zip(want) {
            F::scatter_into(png, x, &mut bins);
            for kernel in KERNELS {
                let mut y = vec![stale; n];
                F::gather_from::<A>(png, &bins, &mut y, kernel);
                assert_eq!(&y, want, "{}", label(&format!("solo {kernel}")));
                let want = std::slice::from_ref(want);
                check_epilogue::<A, F>(png, &bins, None, 0..1, want, kernel, stale);
            }
            let mut y = vec![stale; n];
            match F::gather_branchy_from::<A>(png, &bins, &mut y) {
                Ok(()) => assert_eq!(&y, want, "{}", label("branchy")),
                Err(_) => assert_ne!(F::KIND, BinFormatKind::Wide),
            }
        }
        let scattered: Vec<Vec<A::T>> = xs
            .iter()
            .map(|x| {
                let mut updates = vec![A::T::default(); png.num_compressed_edges() as usize];
                png_scatter(png, x, &mut updates);
                updates
            })
            .collect();
        let updates: Vec<&[A::T]> = scattered.iter().map(Vec::as_slice).collect();
        for kernel in KERNELS {
            let mut ys = vec![vec![stale; n]; width];
            let mut outs: Vec<&mut [A::T]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
            F::gather_many_from::<A>(png, &bins, &updates, &mut outs, kernel);
            assert_eq!(&ys[..], want, "{}", label(&format!("many {kernel}")));
        }
        // The engine's passes: at most `MAX_LANES` queries each, scattered
        // into rows as a round scatters them.
        for lo in (0..width).step_by(MAX_LANES) {
            let queries = lo..width.min(lo + MAX_LANES);
            let x_refs: Vec<&[A::T]> = xs[queries.clone()].iter().map(Vec::as_slice).collect();
            let mut rows = vec![stale; png.num_compressed_edges() as usize * x_refs.len()];
            match &x_refs[..] {
                [x] => png_scatter(png, x, &mut rows),
                x_refs => with_lanes!(x_refs.len(), W => png_scatter_rows::<_, W>(
                    png,
                    x_refs.try_into().unwrap(),
                    rows.as_chunks_mut().0,
                )),
            }
            let rows = Some((&rows[..], x_refs.len()));
            for kernel in KERNELS {
                check_epilogue::<A, F>(png, &bins, rows, queries.clone(), want, kernel, stale);
            }
        }
    }

    /// The same gather with an epilogue, over poisoned outputs and
    /// state: the closure must find each range's sums final (so the
    /// poison was overwritten first), see ranges that tile `0..n` — every
    /// node exactly once — and have what it writes into the outputs,
    /// the state and the partials reach the caller. `queries` are the
    /// batch positions of the pass, which `want` holds the sums of the
    /// whole batch for.
    fn check_epilogue<A: Algebra, F: BinFormat>(
        png: &Png,
        bins: &F::Bins<A::T>,
        rows: Option<(&[A::T], usize)>,
        queries: Range<usize>,
        want: &[Vec<A::T>],
        kernel: KernelKind,
        stale: A::T,
    ) {
        let n = png.dst_parts().num_nodes() as usize;
        let want = &want[queries.clone()];
        let mut ys = vec![vec![stale; n]; want.len()];
        let mut state = ys.clone();
        let seen = std::sync::Mutex::new(Vec::new());
        let apply = |done: Finished<'_, A::T>| {
            seen.lock().unwrap().push(done.nodes.clone());
            assert_eq!(done.queries, queries);
            let queries = done.outputs.into_iter().zip(done.state).zip(want);
            for (((y, state), want), partial) in queries.zip(done.partials) {
                assert_eq!(*y, want[done.nodes.clone()], "sums of {:?}", done.nodes);
                state.copy_from_slice(y);
                y.fill(stale);
                *partial = done.nodes.len() as f64;
            }
        };
        let epilogue = Epilogue {
            lens: &[],
            queries: queries.clone(),
            state: state.iter_mut().map(Vec::as_mut_slice).collect(),
            apply: &apply,
        };
        let mut outs: Vec<&mut [A::T]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
        let variant = GatherKind::BranchAvoiding;
        let applied =
            F::gather_with::<A>(png, bins, rows, &mut outs, kernel, variant, Some(epilogue));
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|r| r.start);
        let parts = png.dst_parts();
        let tiles: Vec<_> = parts.iter().map(|p| parts.range(p)).collect();
        let tiles: Vec<_> = tiles
            .iter()
            .map(|r| r.start as usize..r.end as usize)
            .collect();
        assert_eq!(seen, tiles, "{} {kernel}", F::KIND);
        assert_eq!(state, want, "{} {kernel}", F::KIND);
        assert!(ys.iter().flatten().all(|y| *y == stale), "in-place writes");
        assert_eq!(applied.0, vec![n as f64; want.len()]);
    }

    /// {wide, compact, delta} × {scalar, unrolled} × {Q = 1, Q =
    /// `xs.len()`} (+ branchy on wide) × {unweighted, weighted} over one
    /// layout, against the dense reference and therefore each other.
    fn check_layout<A: Algebra>(g: &Csr, q: u32, xs: &[Vec<A::T>], stale: A::T) -> Png {
        let png = layout(g, q);
        let weights = EdgeWeights::random(g, 8);
        for w in [None, Some(&weights)] {
            let want: Vec<_> = xs.iter().map(|x| reference::<A>(g, w, x)).collect();
            check_format::<A, WideFormat>(g, &png, w, xs, &want, stale);
            if q <= MAX_COMPACT_PARTITION {
                check_format::<A, CompactFormat>(g, &png, w, xs, &want, stale);
            }
            check_format::<A, DeltaFormat>(g, &png, w, xs, &want, stale);
        }
        png
    }

    fn real_inputs(n: u32, width: usize) -> Vec<Vec<f32>> {
        (0..width)
            .map(|q| {
                (0..n)
                    .map(|v| (v as f32 * (0.37 + 0.24 * q as f32)).sin())
                    .collect()
            })
            .collect()
    }

    fn label_inputs(n: u32, width: usize) -> Vec<Vec<u32>> {
        (0..width as u32)
            .map(|q| (0..n).map(|v| (v * 31 + 3) % (7 + 2 * q)).collect())
            .collect()
    }

    #[test]
    fn every_path_matches_the_reference_on_skewed_graphs() {
        let g = rmat(&RmatConfig::graph500(9, 8, 61)).unwrap();
        let n = g.num_nodes();
        // q = n is the single-partition layout (k = 1).
        for q in [13, 128, n] {
            check_layout::<PlusF32>(&g, q, &real_inputs(n, 3), 99.0);
        }
        check_layout::<MinLabel>(&g, 100, &label_inputs(n, 3), 0);
    }

    #[test]
    fn every_batch_width_below_on_and_past_the_lane_blocks() {
        // Every row width from 1 to `MAX_LANES` (each a monomorph of its
        // own), and batches of 9, 16 and 17 that split at 8 (their last
        // passes are 1, 8 and 1 lanes wide). 300 nodes in 64-node partitions leave an uneven
        // last one; q = n is k = 1. MinLabel's identity is not
        // `default()`, so the accumulator rows must be reset to the
        // algebra's own.
        let g = erdos_renyi(300, 2400, 9).unwrap();
        let empty = Csr::from_edges(0, &[]).unwrap();
        for width in (1..=9).chain([16, 17]) {
            for q in [64, 300] {
                check_layout::<PlusF32>(&g, q, &real_inputs(300, width), 99.0);
                check_layout::<MinLabel>(&g, q, &label_inputs(300, width), 0);
            }
            check_layout::<PlusF32>(&empty, 16, &vec![vec![]; width], 99.0);
        }
    }

    #[test]
    fn an_empty_batch_is_a_no_op() {
        fn check<F: BinFormat>(g: &Csr, png: &Png) {
            let bins = F::build::<f32>(EdgeView::from_csr(g), png, None);
            for kernel in KERNELS {
                F::gather_many_from::<PlusF32>(png, &bins, &[], &mut [], kernel);
            }
        }
        let g = erdos_renyi(40, 200, 3).unwrap();
        let png = layout(&g, 8);
        check::<WideFormat>(&g, &png);
        check::<CompactFormat>(&g, &png);
        check::<DeltaFormat>(&g, &png);
    }

    #[test]
    fn every_segment_length_residue_and_empty_segments() {
        // 8 partitions of 8 nodes; segment (s, p) holds (3s + 5p) mod 10
        // distinct edges, so lengths cover 0..=9: every 4k + r tail of
        // the chunked loop with k = 0, 1 and 2, and empty segments.
        let (k, q) = (8u32, 8u32);
        let mut edges = Vec::new();
        for s in 0..k {
            for p in 0..k {
                for i in 0..(3 * s + 5 * p) % 10 {
                    edges.push((s * q + i % q, p * q + (i / q + i) % q));
                }
            }
        }
        let g = Csr::from_edges(k * q, &edges).unwrap();
        let png = check_layout::<PlusF32>(&g, q, &real_inputs(k * q, 3), 99.0);
        assert_eq!(segment_lens(&png), (0..10).collect());
    }

    fn segment_lens(png: &Png) -> std::collections::BTreeSet<u64> {
        let parts = png.src_parts().iter().map(|s| png.part(s));
        parts
            .flat_map(|part| part.did_off.windows(2).map(|w| w[1] - w[0]))
            .collect()
    }

    #[test]
    fn segments_around_control_groups_and_long_messages() {
        // 3 × 3 segments of 600-node partitions: lengths on both sides of
        // an 8-entry control group and of 256 entries. A source
        // contributes at most 300 entries to a segment, so the 513-entry
        // one holds a message that runs past its 256th entry.
        let q = 600u32;
        let lens = [0u32, 1, 7, 8, 9, 255, 256, 257, 513];
        let mut edges = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let (s, p) = (i as u32 / 3, i as u32 % 3);
            edges.extend((0..len).map(|e| (s * q + e / 300, p * q + e % 300 * 2)));
        }
        let g = Csr::from_edges(3 * q, &edges).unwrap();
        for width in [1, 3] {
            let png = check_layout::<PlusF32>(&g, q, &real_inputs(3 * q, width), 99.0);
            assert_eq!(
                segment_lens(&png),
                lens.iter().map(|&l| u64::from(l)).collect()
            );
        }
    }

    #[test]
    fn compact_boundary_and_two_byte_values() {
        // Exactly 2^15-node partitions: compact offsets use all 15 bits,
        // and first offsets or gaps >= 256 take 2-byte delta values.
        let q = MAX_COMPACT_PARTITION;
        let n = 2 * q;
        let edges = [
            (0, q - 1),
            (0, n - 1),
            (1, 0),
            (5, 10),
            (5, 9_010),
            (5, 29_010),
            (7, 30_000),
            (q + 3, 8_192),
            (q + 3, q + 8_192),
            (q + 3, q + 30_000),
        ];
        let g = Csr::from_edges(n, &edges).unwrap();
        let png = check_layout::<PlusF32>(&g, q, &real_inputs(n, 3), 99.0);
        let delta = DeltaFormat::build::<f32>(EdgeView::from_csr(&g), &png, None);
        // Segments (s, p) of 6, 1, 1 and 2 entries: one control group
        // each (12 bytes), then values of 2+1+1+2+2+2, 2, 2 and 2+2 bytes.
        assert_eq!(DeltaFormat::dest_stream_bytes(&delta), 12 + 18);
    }

    #[test]
    fn empty_graph_runs_no_epilogue() {
        let g = Csr::from_edges(0, &[]).unwrap();
        check_layout::<PlusF32>(&g, 16, &vec![vec![]; 3], 99.0);
    }

    #[test]
    fn weighted_gather_scales_by_edge_weight() {
        let g = Csr::from_edges(4, &[(0, 1), (0, 3), (2, 1), (2, 3)]).unwrap();
        let w = EdgeWeights::new(&g, vec![2.0, 4.0, 8.0, 16.0]).unwrap();
        let png = layout(&g, 2);
        let mut bins = WideFormat::build(EdgeView::from_csr(&g), &png, Some(w.as_slice()));
        WideFormat::scatter_into(&png, &[1.0f32, 0.0, 10.0, 0.0], &mut bins);
        let mut y = vec![0.0f32; 4];
        WideFormat::gather_from::<PlusF32>(&png, &bins, &mut y, KernelKind::Scalar);
        // y[1] = 2*x[0] + 8*x[2] = 82; y[3] = 4*x[0] + 16*x[2] = 164.
        assert_eq!(y, vec![0.0, 82.0, 0.0, 164.0]);
    }

    #[test]
    #[should_panic(expected = "y length")]
    fn wrong_output_length_panics() {
        let g = Csr::from_edges(2, &[(0, 1)]).unwrap();
        let png = layout(&g, 1);
        let bins = WideFormat::build::<f32>(EdgeView::from_csr(&g), &png, None);
        let mut y = vec![0.0f32; 5];
        WideFormat::gather_from::<PlusF32>(&png, &bins, &mut y, KernelKind::Scalar);
    }

    #[test]
    #[should_panic(expected = "update stream length")]
    fn short_update_stream_panics_at_the_entry_point() {
        let g = erdos_renyi(40, 200, 3).unwrap();
        let png = layout(&g, 8);
        let bins = DeltaFormat::build::<f32>(EdgeView::from_csr(&g), &png, None);
        let full = vec![0.0f32; png.num_compressed_edges() as usize];
        let (mut y0, mut y1) = (vec![0.0f32; 40], vec![0.0f32; 40]);
        DeltaFormat::gather_many_from::<PlusF32>(
            &png,
            &bins,
            &[&full, &full[1..]],
            &mut [&mut y0, &mut y1],
            KernelKind::Unrolled,
        );
    }
}
