//! Delta-packed destination bins: per-partition delta-encoded varints.
//!
//! The paper's PNG layout already compresses the *update* stream (one
//! update per compressed edge); the destination-ID stream stays at four
//! bytes per raw edge in the wide format and two in the compact one. This
//! module pushes further along the same axis: within a `(source
//! partition, destination bin)` segment, destinations are stored as a
//! byte-packed varint stream —
//!
//! - the **first** destination of a message is its partition-local offset
//!   (`dst − p·q`, always `< q`), tagged with the demarcation flag in the
//!   varint's least-significant bit (the MSB flag of §3.2, relocated so
//!   the payload stays dense);
//! - every **subsequent** destination is the gap to its predecessor
//!   (`dst − prev`; CSR neighbor lists are sorted, so gaps are ≥ 0 —
//!   `Csr::from_edges` keeps duplicate edges, which encode as a zero
//!   gap — and the common small gaps encode as one byte).
//!
//! On power-law graphs this lands at ~1–2 bytes per edge — below even the
//! compact format, with no partition-size restriction — shrinking the
//! `m·di` destID-scan term that dominates PCPM's communication model
//! (Eq. 5). The cost is a data-dependent decode in the gather (no longer
//! a pure pointer walk); the `formats` bench suite measures the trade.
//!
//! [`DeltaPackedBins`] keeps its own byte-offset geometry (`byte_region`
//! per source partition, `seg_off` per destination bin) because segment
//! lengths are data-dependent; the update stream and the optional weight
//! stream reuse the shared layouts, so scatter and weighted gather are
//! unchanged.

use crate::format::{weight_stream, BinScalar};
use crate::gather::{EntrySink, Segment, SegmentDecode};
use crate::kernel::{prefetch, KernelKind};
use crate::png::{for_each_run, EdgeView, Png};
use rayon::prelude::*;

/// Message bins with a delta-encoded varint destination stream.
///
/// Construct through [`DeltaFormat`](crate::format::DeltaFormat) (or the
/// engine builder's `.bin_format(BinFormatKind::Delta)`); the fields are
/// internal because the byte geometry must stay consistent with the PNG.
#[derive(Clone, Debug)]
pub struct DeltaPackedBins<T = f32> {
    /// Update values, source-partition-major (`|E'|` entries) — the
    /// same layout as every other format.
    pub updates: Vec<T>,
    /// The varint-encoded destination stream, source-partition-major.
    dest_bytes: Vec<u8>,
    /// `k_src + 1` byte offsets of each source partition's region.
    byte_region: Vec<u64>,
    /// Per source partition: `k_dst + 1` byte offsets local to its
    /// region (the delta analogue of `BipartitePart::did_off`).
    seg_off: Vec<Vec<u64>>,
    /// Optional edge weights in raw-edge bin order (the wide layout).
    pub weights: Option<Vec<f32>>,
}

/// Appends `v` as a LEB128 varint (round-trip tests only; the encoder
/// proper writes in place through [`put_varint`]).
#[cfg(test)]
fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint at `*pos`, advancing it.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Per-window decode plan for the batched decoder, keyed by the 8
/// continuation (MSB) bits of an 8-byte window. The plan tells the hot
/// loop, without inspecting any payload byte, where each 1–2-byte
/// varint starts, how long it is, how many bytes the window consumes,
/// and whether a rare >= 3-byte varint interrupts the run.
#[derive(Clone, Copy)]
struct WordPlan {
    /// Varints fully contained in the window as 1–2-byte encodings.
    count: u8,
    /// Bytes those varints consume.
    consumed: u8,
    /// Byte offset of the `k`-th varint, packed as nibble `k` (0 for
    /// unused slots, whose extracted garbage is overwritten or
    /// truncated away). One register read per slot instead of a table
    /// byte load keeps the extraction loop free of memory traffic.
    offs: u64,
    /// The byte at `consumed` starts a >= 3-byte varint (two set
    /// continuation bits in a row) — fall back to [`read_varint`].
    long: bool,
}

const fn build_word_plans() -> [WordPlan; 256] {
    let mut lut = [WordPlan {
        count: 0,
        consumed: 0,
        offs: 0,
        long: false,
    }; 256];
    let mut m = 0usize;
    while m < 256 {
        let mut pos = 0usize;
        let mut k = 0usize;
        while pos < 8 {
            if (m >> pos) & 1 == 0 {
                lut[m].offs |= (pos as u64) << (4 * k);
                pos += 1;
                k += 1;
            } else if pos + 1 >= 8 {
                // A 2-byte varint would cross the window edge: leave it
                // for the next (re-based) window or the tail loop.
                break;
            } else if (m >> (pos + 1)) & 1 == 1 {
                lut[m].long = true;
                break;
            } else {
                lut[m].offs |= (pos as u64) << (4 * k);
                pos += 2;
                k += 1;
            }
        }
        lut[m].count = k as u8;
        lut[m].consumed = pos as u8;
        m += 1;
    }
    lut
}

static WORD_PLANS: [WordPlan; 256] = build_word_plans();

/// Compacts the 8 byte-MSBs of `w` into one plan-table index
/// (bit `i` = continuation bit of byte `i`): mask the MSBs, then one
/// carry-free multiply sums the shifted copies so every MSB lands in
/// the top byte — three ops instead of an eight-way shift/or tree.
#[inline]
fn continuation_mask(w: u64) -> usize {
    ((w & 0x8080_8080_8080_8080).wrapping_mul(0x0002_0408_1020_4081) >> 56) as usize
}

/// Batched segment decoder: decodes **every** varint in `bytes` into
/// `out` (exactly the decoded sequence on return), separating decode
/// from apply so the apply loop runs branch-free over plain `u64`s.
///
/// The hot loop pulls one unaligned little-endian `u64` per iteration,
/// looks the window's continuation bits up in [`WORD_PLANS`], and
/// extracts up to eight 1–2-byte varints — the overwhelmingly common
/// case for partition-local deltas — as independent mask arithmetic:
/// no data-dependent branch per byte, no serial position chain from one
/// varint to the next, and one bounds check per window instead of per
/// byte. All 8 slots are extracted and stored unconditionally (garbage
/// slots land past `count` and are overwritten by the next window or
/// truncated), so the store loop is branch-free too. Longer varints
/// fall through to [`read_varint`], which stays the asserted-identical
/// fallback (`batched_decode_matches_read_varint` below fuzzes the
/// equivalence across every varint length; `tests/kernel_agreement.rs`
/// and `tests/parallel_determinism.rs` assert whole-kernel bit-identity
/// under `PCPM_TEST_KERNELS`).
#[inline]
pub(crate) fn decode_segment_into(bytes: &[u8], out: &mut Vec<u64>) {
    let len = bytes.len();
    // 8 slots of slack for the unconditional window stores; stale
    // contents past the final truncate are never observable.
    if out.len() < len + 8 {
        out.resize(len + 8, 0);
    }
    let mut pos = 0usize;
    let mut n = 0usize;
    while pos + 8 <= len {
        let w = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        let plan = &WORD_PLANS[continuation_mask(w)];
        let offs = plan.offs;
        let dst = &mut out[n..n + 8];
        for (k, slot) in dst.iter_mut().enumerate() {
            // Each slot re-derives "am I a 2-byte varint?" from its own
            // continuation bit (bit 7 of the shifted window) instead of
            // the plan's `twos` bits: every operand then lives in the
            // same lane, so the whole extraction vectorizes cleanly.
            // The second byte of a genuine 2-byte varint is terminal
            // (MSB clear), so `(x >> 1) & 0x3f80` is exactly its 7
            // payload bits shifted into place.
            let x = w >> (8 * ((offs >> (4 * k)) & 0xf) as u32);
            let m = (((x << 56) as i64) >> 63) as u64;
            *slot = (x & 0x7f) | ((x >> 1) & 0x3f80 & m);
        }
        n += plan.count as usize;
        pos += plan.consumed as usize;
        if plan.long {
            // >= 3 encoded bytes: rare (gaps < 2^14 fit in two), and
            // this branch predicts well precisely because it is rare.
            out[n] = read_varint(bytes, &mut pos);
            n += 1;
        }
    }
    // Tail: fewer than 8 bytes left, decode them one varint at a time.
    while pos < len {
        out[n] = read_varint(bytes, &mut pos);
        n += 1;
    }
    out.truncate(n);
}

/// Encoded size of `v` as a LEB128 varint.
#[inline]
fn varint_len(v: u64) -> u64 {
    ((64 - v.leading_zeros() as u64).max(1)).div_ceil(7)
}

/// Writes `v` at `buf[*pos..]`, advancing `*pos`.
#[inline]
fn put_varint(buf: &mut [u8], pos: &mut usize, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[*pos] = byte;
            *pos += 1;
            break;
        }
        buf[*pos] = byte | 0x80;
        *pos += 1;
    }
}

/// Encodes the destination stream of source partition `s`: returns the
/// byte buffer plus its `k_dst + 1` local segment offsets. Two passes —
/// byte-count per destination bin, then fill through per-bin cursors
/// into one flat buffer — mirroring the fixed-width skeleton's cursor
/// scheme (no per-bin allocations, no re-copy).
fn encode_partition(view: EdgeView<'_>, png: &Png, s: u32) -> (Vec<u8>, Vec<u64>) {
    let k = png.dst_parts().num_partitions() as usize;
    let q = png.dst_parts().partition_size();
    let mut seg_len = vec![0u64; k];
    for_each_run(
        view,
        png.src_parts(),
        png.dst_parts(),
        s,
        |_v, p, run, _| {
            let mut len = varint_len(u64::from(run[0] - p * q) << 1 | 1);
            for pair in run.windows(2) {
                len += varint_len(u64::from(pair[1] - pair[0]) << 1);
            }
            seg_len[p as usize] += len;
        },
    );
    let mut seg_off = Vec::with_capacity(k + 1);
    seg_off.push(0u64);
    for &len in &seg_len {
        seg_off.push(seg_off.last().unwrap() + len);
    }
    let mut bytes = vec![0u8; *seg_off.last().unwrap() as usize];
    let mut cursor: Vec<usize> = seg_off[..k].iter().map(|&o| o as usize).collect();
    for_each_run(
        view,
        png.src_parts(),
        png.dst_parts(),
        s,
        |_v, p, run, _| {
            let pos = &mut cursor[p as usize];
            let p_base = p * q;
            put_varint(&mut bytes, pos, (u64::from(run[0] - p_base) << 1) | 1);
            for pair in run.windows(2) {
                put_varint(&mut bytes, pos, u64::from(pair[1] - pair[0]) << 1);
            }
        },
    );
    (bytes, seg_off)
}

impl<T: BinScalar> DeltaPackedBins<T> {
    /// Builds the delta bins for `png`, in parallel over source
    /// partitions (the [`BinFormat::build`](crate::format::BinFormat)
    /// entry point).
    pub(crate) fn build(view: EdgeView<'_>, png: &Png, edge_weights: Option<&[f32]>) -> Self {
        let updates = vec![T::default(); png.num_compressed_edges() as usize];
        let k_src = png.src_parts().num_partitions();
        let parts: Vec<(Vec<u8>, Vec<u64>)> = (0..k_src)
            .into_par_iter()
            .map(|s| encode_partition(view, png, s))
            .collect();
        let mut byte_region = Vec::with_capacity(parts.len() + 1);
        byte_region.push(0u64);
        for (bytes, _) in &parts {
            byte_region.push(byte_region.last().unwrap() + bytes.len() as u64);
        }
        let mut dest_bytes = Vec::with_capacity(*byte_region.last().unwrap() as usize);
        let mut seg_off = Vec::with_capacity(parts.len());
        for (bytes, offs) in parts {
            dest_bytes.extend_from_slice(&bytes);
            seg_off.push(offs);
        }
        let weights = edge_weights.map(|ew| weight_stream(view, png, ew));
        Self {
            updates,
            dest_bytes,
            byte_region,
            seg_off,
            weights,
        }
    }

    /// Clones the serializable state (everything except the scratch
    /// update stream) for the engine-snapshot writer.
    pub(crate) fn export_state(&self) -> crate::snapshot::BinState {
        crate::snapshot::BinState::delta(
            self.dest_bytes.clone(),
            self.byte_region.clone(),
            self.seg_off.clone(),
            self.weights.clone(),
        )
    }

    /// Reassembles bins from deserialized state around a fresh (scratch)
    /// update stream.
    pub(crate) fn from_loaded(
        updates: Vec<T>,
        dest_bytes: Vec<u8>,
        byte_region: Vec<u64>,
        seg_off: Vec<Vec<u64>>,
        weights: Option<Vec<f32>>,
    ) -> Self {
        Self {
            updates,
            dest_bytes,
            byte_region,
            seg_off,
            weights,
        }
    }

    /// Heap bytes held by the bins (updates + byte stream + offsets +
    /// weights).
    pub fn memory_bytes(&self) -> u64 {
        let offsets =
            (self.byte_region.len() + self.seg_off.iter().map(Vec::len).sum::<usize>()) * 8;
        (self.updates.len() * std::mem::size_of::<T>()
            + self.dest_bytes.len()
            + offsets
            + self.weights.as_ref().map_or(0, |w| w.len() * 4)) as u64
    }

    /// Bytes of the varint destination stream alone.
    pub fn dest_stream_bytes(&self) -> u64 {
        self.dest_bytes.len() as u64
    }

    /// The raw byte segment of `(s, p)`.
    #[inline]
    fn segment(&self, s: usize, p: usize) -> &[u8] {
        let base = self.byte_region[s] as usize;
        let lo = base + self.seg_off[s][p] as usize;
        let hi = base + self.seg_off[s][p + 1] as usize;
        &self.dest_bytes[lo..hi]
    }
}

/// The varint stream decodes with one of two strategies:
/// [`KernelKind::Unrolled`] decodes the whole segment into the scratch
/// buffer in one pass ([`decode_segment_into`]) and yields from there;
/// any other kernel decodes each varint inline as the apply loop asks
/// for it, paying a data-dependent branch per encoded byte.
impl<T: BinScalar> SegmentDecode for DeltaPackedBins<T> {
    /// Decoded varints of one segment; capacity converges to the largest
    /// segment of the destination partition (cleared, never reallocated
    /// per segment).
    type Scratch = Vec<u64>;

    #[inline(always)]
    fn decode(
        &self,
        seg: &Segment,
        kernel: KernelKind,
        scratch: &mut Vec<u64>,
        sink: &mut impl EntrySink,
    ) {
        let bytes = self.segment(seg.s, seg.p);
        // LSB = message start: the payload is the partition-local
        // offset; otherwise it is the gap to the previous destination.
        let mut local = 0usize;
        let entry = move |v: u64| {
            let first = v & 1 == 1;
            let d = (v >> 1) as usize;
            local = if first { d } else { local + d };
            (local, first)
        };
        if kernel == KernelKind::Unrolled {
            decode_segment_into(bytes, scratch);
            sink.units(scratch, entry);
        } else {
            let (mut pos, mut entry) = (0usize, entry);
            sink.entries(std::iter::from_fn(|| {
                (pos < bytes.len()).then(|| entry(read_varint(bytes, &mut pos)))
            }));
        }
    }

    #[inline(always)]
    fn prefetch(&self, seg: &Segment) {
        prefetch(self.segment(seg.s, seg.p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::PlusF32;
    use crate::format::{BinFormat, DeltaFormat, WideFormat};
    use crate::partition::Partitioner;
    use crate::scatter::png_scatter;
    use pcpm_graph::gen::{rmat, RmatConfig};
    use pcpm_graph::Csr;

    fn setup(g: &Csr, q: u32) -> Png {
        let parts = Partitioner::new(g.num_nodes(), q).unwrap();
        Png::build(EdgeView::from_csr(g), parts, parts)
    }

    #[test]
    fn varints_round_trip() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX) << 1,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn batched_decode_matches_read_varint() {
        // Deterministic xorshift over value magnitudes that cross every
        // varint length boundary, including max-length (10-byte) ones.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..200 {
            let len = (next() % 64) as usize;
            let values: Vec<u64> = (0..len)
                .map(|_| {
                    let bits = next() % 65; // 0..=64 significant bits
                    if bits == 0 {
                        0
                    } else {
                        next() & (u64::MAX >> (64 - bits))
                    }
                })
                .collect();
            let mut buf = Vec::new();
            for &v in &values {
                write_varint(&mut buf, v);
            }
            let mut batched = Vec::new();
            decode_segment_into(&buf, &mut batched);
            let mut scalar = Vec::new();
            let mut pos = 0usize;
            while pos < buf.len() {
                scalar.push(read_varint(&buf, &mut pos));
            }
            assert_eq!(batched, values, "trial {trial}");
            assert_eq!(batched, scalar, "trial {trial}");
        }
    }

    #[test]
    fn batched_decode_boundary_values() {
        // Every length boundary of the LEB128 encoding, in one stream.
        let values: Vec<u64> = (0..10)
            .flat_map(|b| {
                let lo = if b == 0 { 0 } else { 1u64 << (7 * b) };
                let hi = match 1u64.checked_shl(7 * (b + 1)) {
                    Some(x) => x - 1,
                    None => u64::MAX,
                };
                [lo, lo + 1, hi]
            })
            .chain([u64::MAX])
            .collect();
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut out = Vec::new();
        decode_segment_into(&buf, &mut out);
        assert_eq!(out, values);
        // Reuse must clear previous contents.
        decode_segment_into(&[5u8], &mut out);
        assert_eq!(out, vec![5]);
        decode_segment_into(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn dest_stream_beats_wide_and_memory_accounts() {
        let g = rmat(&RmatConfig::graph500(10, 8, 5)).unwrap();
        let png = setup(&g, 512);
        let wide = WideFormat::build::<f32>(EdgeView::from_csr(&g), &png, None);
        let delta = DeltaFormat::build::<f32>(EdgeView::from_csr(&g), &png, None);
        assert!(delta.dest_stream_bytes() < wide.dest_ids.len() as u64 * 4 / 2);
        assert!(delta.memory_bytes() < wide.memory_bytes());
        assert!(delta.memory_bytes() > 0);
    }

    #[test]
    fn duplicate_edges_round_trip() {
        // `Csr::from_edges` keeps duplicates; they must encode as a
        // zero gap, not underflow (regression: the encoder once stored
        // gap-1 and panicked on multigraphs).
        let g = Csr::from_edges(4, &[(0, 1), (0, 1), (0, 2), (2, 3), (2, 3)]).unwrap();
        let png = setup(&g, 2);
        let mut wide = WideFormat::build::<f32>(EdgeView::from_csr(&g), &png, None);
        let mut delta = DeltaFormat::build::<f32>(EdgeView::from_csr(&g), &png, None);
        let x = vec![1.0f32, 2.0, 4.0, 8.0];
        png_scatter(&png, &x, &mut wide.updates);
        png_scatter(&png, &x, &mut delta.updates);
        let (mut yw, mut yd) = (vec![0.0f32; 4], vec![0.0f32; 4]);
        WideFormat::gather_from::<PlusF32>(&png, &wide, &mut yw, KernelKind::Scalar);
        for kernel in [KernelKind::Scalar, KernelKind::Unrolled] {
            DeltaFormat::gather_from::<PlusF32>(&png, &delta, &mut yd, kernel);
            assert_eq!(yw, yd, "kernel={kernel}");
            assert_eq!(yd[1], 2.0, "duplicate edge (0,1) counted twice");
            assert_eq!(yd[3], 8.0, "duplicate edge (2,3) counted twice");
        }
    }

    #[test]
    fn empty_graph_delta_bins() {
        let g = Csr::from_edges(0, &[]).unwrap();
        let png = setup(&g, 4);
        let bins = DeltaFormat::build::<f32>(EdgeView::from_csr(&g), &png, None);
        assert_eq!(bins.dest_stream_bytes(), 0);
        let mut y: Vec<f32> = vec![];
        for kernel in [KernelKind::Scalar, KernelKind::Unrolled] {
            DeltaFormat::gather_from::<PlusF32>(&png, &bins, &mut y, kernel);
        }
    }
}
