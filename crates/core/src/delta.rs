//! Delta-packed destination bins: a split stream of control bytes and
//! little-endian values.
//!
//! The paper's PNG layout already compresses the *update* stream (one
//! update per compressed edge); the destination-ID stream stays at four
//! bytes per raw edge in the wide format and two in the compact one. This
//! module pushes further along the same axis. Within a `(source
//! partition, destination bin)` segment, a message's **first** entry
//! stores its partition-local offset (`dst − p·q`, always `< q`) and every
//! **subsequent** entry the gap to its predecessor (CSR neighbor lists are
//! sorted; a duplicate edge is a zero gap).
//!
//! # Layout
//!
//! A segment of `n` entries is `3·⌈n/8⌉` control bytes, then the values
//! (the shape of Lemire, Kurz & Rupp's *Stream VByte*). A control group
//! covers 8 entries: a flag byte (bit `j` set when entry `j` starts a
//! message — the MSB flag of §3.2, moved out of the value) and two length
//! bytes (2 bits per entry: the value's byte count − 1). Values are 1–4
//! bytes, little-endian. Control bits past entry `n` are zero.
//!
//! # Why the decode has no branch
//!
//! A LEB128 varint finds its own end by testing each byte, a branch per
//! byte that mispredicts whenever lengths mix. Here `SPANS` maps a length
//! byte to its four values' offsets and masks, each value is one masked
//! 4-byte load, and the data position moves by a table value: no load
//! waits on a data byte and nothing branches on one. `SLACK` zero bytes
//! past the stream keep the last group's loads in bounds. Groups of eight
//! entries reach the apply loop in bin order, so scores are the same bits
//! as on every other format.
//!
//! On power-law graphs this is ≈ 2 bytes per edge with no partition-size
//! restriction, shrinking the `m·di` destID-scan term of Eq. 5. The byte
//! geometry is the format's own (`byte_region` per source partition,
//! `seg_off` per destination bin); the update and weight streams reuse
//! the shared layouts.

use crate::format::DeltaFormat;
use crate::gather::{EntrySink, Group, Segment, SegmentDecode, GROUP};
use crate::kernel::prefetch;
use crate::png::{Png, RunEncoder};

/// Destination bins as a delta-encoded split stream: scalar-independent,
/// and never edited after the build.
///
/// Construct through [`DeltaFormat`] (or the
/// engine builder's `.bin_format(BinFormatKind::Delta)`); the fields are
/// internal because the byte geometry must stay consistent with the PNG.
#[derive(Debug)]
pub struct DeltaPackedBins {
    /// The destination stream, source-partition-major, then [`SLACK`]
    /// zero bytes.
    pub(crate) dest_bytes: Vec<u8>,
    /// `k_src + 1` byte offsets of each source partition's region.
    pub(crate) byte_region: Vec<u64>,
    /// Per source partition: `k_dst + 1` byte offsets local to its
    /// region (the delta analogue of `BipartitePart::did_off`).
    pub(crate) seg_off: Vec<Vec<u64>>,
    /// Optional edge weights in raw-edge bin order (the wide layout).
    pub weights: Option<Vec<f32>>,
}

/// Control bytes per group: the flag byte and two length bytes.
const CTRL: usize = 3;

/// Bytes one group's decode reads from its first value on: eight loads
/// of four bytes, each at an offset below 32.
const WINDOW: usize = 35;

/// Zero bytes kept past the end of the stream, so a group's window never
/// leaves the buffer.
pub(crate) const SLACK: usize = WINDOW;

/// Control bytes of a segment of `n` entries.
#[inline]
fn ctrl_len(n: usize) -> usize {
    CTRL * n.div_ceil(GROUP)
}

/// The length code (byte count − 1) of value `v`.
#[inline]
fn code(v: u32) -> u32 {
    (31 - (v | 1).leading_zeros()) / 8
}

/// Where one length byte's four values lie: each one's byte offset from
/// the first and the mask of its bytes, and the bytes all four take.
#[derive(Clone, Copy)]
struct Span {
    offs: [u8; 4],
    masks: [u32; 4],
    bytes: u8,
}

const fn spans() -> [Span; 256] {
    let mut table = [Span {
        offs: [0; 4],
        masks: [0; 4],
        bytes: 0,
    }; 256];
    let mut b = 0;
    while b < 256 {
        let mut at = 0;
        let mut j = 0;
        while j < 4 {
            let code = (b >> (2 * j)) & 3;
            table[b].offs[j] = at;
            table[b].masks[j] = u32::MAX >> (24 - 8 * code);
            at += code as u8 + 1;
            j += 1;
        }
        table[b].bytes = at;
        b += 1;
    }
    table
}

/// [`Span`] by length byte.
static SPANS: [Span; 256] = spans();

/// The groups of one segment, decoded in order (the lanes of the last
/// group past the segment's end are garbage).
struct Groups<'a> {
    /// The segment's control groups.
    ctrl: std::slice::Iter<'a, [u8; CTRL]>,
    /// The segment's values, then the rest of the stream and its slack.
    data: &'a [u8],
    /// The next group's first value byte in `data`.
    pos: usize,
    /// The offset of the entry decoded last.
    local: u32,
}

impl<'a> Groups<'a> {
    /// The groups of the `n`-entry segment at the head of `bytes`, which
    /// runs on to the stream's slack.
    #[inline(always)]
    fn new(bytes: &'a [u8], n: usize) -> Self {
        let (ctrl, data) = bytes.split_at(ctrl_len(n));
        Self {
            ctrl: ctrl.as_chunks::<CTRL>().0.iter(),
            data,
            pos: 0,
            local: 0,
        }
    }
}

impl Iterator for Groups<'_> {
    type Item = Group;

    #[inline(always)]
    fn next(&mut self) -> Option<Group> {
        let &[flags, lens_lo, lens_hi] = self.ctrl.next()?;
        let window: &[u8; WINDOW] = self.data[self.pos..self.pos + WINDOW]
            .try_into()
            .expect("slack");
        let (lo, hi) = (&SPANS[usize::from(lens_lo)], &SPANS[usize::from(lens_hi)]);
        let mut locals = [0u32; GROUP];
        for (j, local) in locals.iter_mut().enumerate() {
            let (at, mask) = match j {
                0..4 => (lo.offs[j], lo.masks[j]),
                _ => (lo.bytes + hi.offs[j - 4], hi.masks[j - 4]),
            };
            let at = usize::from(at) & 31;
            let v = u32::from_le_bytes(window[at..at + 4].try_into().expect("4 bytes")) & mask;
            // A message start replaces the offset; any other entry adds
            // its gap. A mask, not a branch, picks which.
            let keep = (u32::from(flags >> j) & 1).wrapping_sub(1);
            self.local = (self.local & keep).wrapping_add(v);
            *local = self.local;
        }
        self.pos += usize::from(lo.bytes + hi.bytes);
        Some((locals, flags))
    }
}

/// Where the encoder writes the next entry of one segment.
pub(crate) struct Cursor {
    /// The segment's first byte: its control stream.
    ctrl: usize,
    /// Entries written so far.
    entry: usize,
    /// The next value's first byte.
    data: usize,
}

/// Appends one entry at `at`. The value is ORed into the zeroed buffer
/// as a whole 4-byte word: its bytes past its length are zero, so the
/// overlap with whatever follows changes nothing, and only the stream's
/// last values take the short path.
#[inline]
fn put_entry(buf: &mut [u8], at: &mut Cursor, first: bool, v: u32) {
    let (j, c) = (at.entry % GROUP, code(v));
    let group = &mut buf[at.ctrl + CTRL * (at.entry / GROUP)..][..CTRL];
    group[0] |= u8::from(first) << j;
    group[1 + j / 4] |= (c as u8) << (2 * (j % 4));
    match buf.get_mut(at.data..at.data + 4) {
        Some(word) => {
            let word: &mut [u8; 4] = word.try_into().expect("4 bytes");
            *word = (u32::from_le_bytes(*word) | v).to_le_bytes();
        }
        None => buf[at.data..]
            .iter_mut()
            .zip(v.to_le_bytes())
            .for_each(|(b, x)| *b |= x),
    }
    at.entry += 1;
    at.data += c as usize + 1;
}

/// The values of one message run into the destination partition that
/// starts at node `base`: the first destination's offset, then the gap
/// to each next one.
#[inline]
fn values(run: &[u32], base: u32) -> impl Iterator<Item = u32> + '_ {
    let gaps = run.windows(2).map(|pair| pair[1] - pair[0]);
    std::iter::once(run[0] - base).chain(gaps)
}

/// A segment is its control groups, then its values: a run's values
/// depend on the run alone, so the count walk sizes them run by run.
impl RunEncoder for DeltaFormat {
    type Unit = u8;
    type Cursor = Cursor;
    const UNIT_PER_EDGE: bool = false;
    const SLACK: usize = SLACK;

    fn run_units(run: &[u32], p_base: u32) -> u64 {
        values(run, p_base).map(|v| u64::from(code(v)) + 1).sum()
    }

    fn segment_header(entries: u64) -> u64 {
        ctrl_len(entries as usize) as u64
    }

    fn cursor(at: usize, entries: usize) -> Cursor {
        Cursor {
            ctrl: at,
            entry: 0,
            data: at + ctrl_len(entries),
        }
    }

    #[inline]
    fn put_run(region: &mut [u8], at: &mut Cursor, run: &[u32], p_base: u32) {
        for (i, v) in values(run, p_base).enumerate() {
            put_entry(region, at, i == 0, v);
        }
    }
}

impl DeltaPackedBins {
    /// Heap bytes held by the bins (byte stream + offsets + weights).
    pub fn memory_bytes(&self) -> u64 {
        let offsets =
            (self.byte_region.len() + self.seg_off.iter().map(Vec::len).sum::<usize>()) * 8;
        (self.dest_bytes.len() + offsets + self.weights.as_ref().map_or(0, |w| w.len() * 4)) as u64
    }

    /// Bytes of the destination stream alone (control and values).
    pub fn dest_stream_bytes(&self) -> u64 {
        self.byte_region[self.byte_region.len() - 1]
    }

    /// The stream from segment `(s, p)` on, slack included.
    #[inline]
    fn segment(&self, seg: &Segment) -> &[u8] {
        let at = self.byte_region[seg.s] + self.seg_off[seg.s][seg.p];
        &self.dest_bytes[at as usize..]
    }
}

/// Whether the loaded stream `bytes` ([`SLACK`] included, its offsets
/// already checked to tile it) is one the encoder could have written over
/// `png`: every segment is exactly its control groups plus the values they
/// size, with no bits set past its last entry; it flags its first entry
/// and one per compressed edge; and every offset it decodes lies inside
/// its destination partition. A stream that passes cannot make the gather
/// read outside a segment, its updates or its partition.
pub(crate) fn is_consistent(
    png: &Png,
    bytes: &[u8],
    byte_region: &[u64],
    seg_off: &[Vec<u64>],
) -> bool {
    png.src_parts().iter().all(|s| {
        let (part, s) = (png.part(s), s as usize);
        png.dst_parts().iter().all(|p| {
            let nodes = png.dst_parts().range(p).len();
            let p = p as usize;
            let at = (byte_region[s] + seg_off[s][p]) as usize;
            let len = (seg_off[s][p + 1] - seg_off[s][p]) as usize;
            let n = (part.did_off[p + 1] - part.did_off[p]) as usize;
            let msgs = part.upd_off[p + 1] - part.upd_off[p];
            segment_is_consistent(&bytes[at..], len, n, msgs, nodes)
        })
    })
}

/// [`is_consistent`] for the one segment of `len` bytes at `bytes[0]`.
fn segment_is_consistent(bytes: &[u8], len: usize, n: usize, msgs: u64, nodes: usize) -> bool {
    // Every entry takes a value byte, which bounds `n`, and all that is
    // computed from it, by the segment's length.
    if n > len {
        return false;
    }
    let Some(data_len) = len.checked_sub(ctrl_len(n)) else {
        return false;
    };
    let groups = bytes[..ctrl_len(n)].as_chunks::<CTRL>().0;
    // Entries past `n` have all-zero bits, so each sizes a 1-byte value.
    let pad = groups.len() * GROUP - n;
    let tail_clear = groups.last().is_none_or(|&[flags, lo, hi]| {
        let live = GROUP - pad;
        u32::from(flags) >> live == 0 && (u32::from(lo) | (u32::from(hi) << 8)) >> (2 * live) == 0
    });
    let sized: usize = groups
        .iter()
        .map(|&[_, lo, hi]| {
            usize::from(SPANS[usize::from(lo)].bytes + SPANS[usize::from(hi)].bytes)
        })
        .sum();
    let flagged: u64 = groups.iter().map(|g| u64::from(g[0].count_ones())).sum();
    let first_flagged = groups.first().is_none_or(|g| g[0] & 1 == 1);
    if !tail_clear || sized - pad != data_len || flagged != msgs || !first_flagged {
        return false;
    }
    let locals = Groups::new(bytes, n).flat_map(|(locals, _)| locals);
    locals.take(n).all(|local| (local as usize) < nodes)
}

/// The split stream decodes without a data-dependent branch (see the
/// module doc), a group at a time.
impl SegmentDecode for DeltaPackedBins {
    #[inline(always)]
    fn decode(&self, seg: &Segment, sink: &mut impl EntrySink) {
        sink.groups(seg.raw.len(), Groups::new(self.segment(seg), seg.raw.len()));
    }

    #[inline(always)]
    fn prefetch(&self, seg: &Segment) {
        prefetch(self.segment(seg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::PlusF32;
    use crate::format::{BinFormat, WideFormat};
    use crate::kernel::KernelKind;
    use crate::partition::Partitioner;
    use crate::png::EdgeView;
    use crate::scatter::png_scatter;
    use pcpm_graph::gen::{rmat, RmatConfig};
    use pcpm_graph::Csr;

    fn setup(g: &Csr, q: u32) -> Png {
        let parts = Partitioner::new(g.num_nodes(), q).unwrap();
        Png::build(EdgeView::from_csr(g), parts, parts)
    }

    /// `entries` as one segment, written by the encoder's own writer, and
    /// the segment's length; `SLACK` bytes follow it.
    fn encode(entries: &[(bool, u32)]) -> (Vec<u8>, usize) {
        let n = entries.len();
        let values: usize = entries.iter().map(|&(_, v)| code(v) as usize + 1).sum();
        let len = ctrl_len(n) + values;
        let mut buf = vec![0u8; len + SLACK];
        let mut at = Cursor {
            ctrl: 0,
            entry: 0,
            data: ctrl_len(n),
        };
        for &(first, v) in entries {
            put_entry(&mut buf[..len], &mut at, first, v);
        }
        assert_eq!(at.data, len, "n={n}");
        (buf, len)
    }

    /// Encodes `entries`, decodes them back, and checks the entries.
    fn round_trip(entries: &[(bool, u32)]) {
        let n = entries.len();
        let (buf, len) = encode(entries);
        let mut local = 0u32;
        let want: Vec<(u32, bool)> = entries
            .iter()
            .map(|&(first, v)| {
                local = if first { v } else { local.wrapping_add(v) };
                (local, first)
            })
            .collect();
        let groups: Vec<Group> = Groups::new(&buf, n).collect();
        assert_eq!(groups.len(), n.div_ceil(GROUP), "n={n}");
        let got = groups.iter().flat_map(|&(locals, flags)| {
            (0..GROUP).map(move |j| (locals[j], (flags >> j) & 1 == 1))
        });
        assert_eq!(got.take(n).collect::<Vec<_>>(), want, "n={n}");
        // What the encoder wrote passes the loader's check whenever the
        // segment opens a message, as every PNG segment does.
        if want.first().is_none_or(|e| e.1) {
            let msgs = want.iter().filter(|e| e.1).count() as u64;
            assert!(
                segment_is_consistent(&buf, len, n, msgs, usize::MAX),
                "n={n}"
            );
        }
    }

    #[test]
    fn segment_codec_round_trips_every_width_and_flag_pattern() {
        // The edges of every value width, 1 to 4 bytes.
        const EDGES: [u32; 8] = [
            0,
            255,
            256,
            65_535,
            65_536,
            (1 << 24) - 1,
            1 << 24,
            (1 << 31) - 1,
        ];
        // One group per flag pattern, each value an edge case.
        let all: Vec<(bool, u32)> = (0..256 * GROUP)
            .map(|i| ((i / GROUP) >> (i % GROUP) & 1 == 1, EDGES[i * 5 % 8]))
            .collect();
        round_trip(&all);
        // Seeded segments of every length residue, across piece edges,
        // each value a random width.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..300 {
            let n = match trial {
                0..40 => trial,
                _ => (next() % 700) as usize,
            };
            let entries: Vec<(bool, u32)> = (0..n)
                .map(|_| {
                    let r = next();
                    let v = match r % 3 {
                        0 => EDGES[(r >> 40) as usize % 8],
                        _ => ((r >> 32) as u32 >> 1) >> ((r >> 8) % 32),
                    };
                    (r & 0x80 != 0, v)
                })
                .collect();
            round_trip(&entries);
        }
        round_trip(&[]);
    }

    #[test]
    fn loader_check_rejects_each_inconsistency() {
        // Ten entries in two messages: the second group has two live
        // lanes. Entry 0 is 300 (2 bytes), every other value 1 byte.
        let entries: Vec<(bool, u32)> = (0..10)
            .map(|i| (i == 0 || i == 4, if i == 0 { 300 } else { 3 }))
            .collect();
        let (buf, len) = encode(&entries);
        let check =
            |bytes: &[u8], len, msgs, nodes| segment_is_consistent(bytes, len, 10, msgs, nodes);
        assert!(check(&buf, len, 2, 400));
        let edited = |edit: fn(&mut [u8])| {
            let mut bytes = buf.clone();
            edit(&mut bytes);
            bytes
        };
        // A value that does not fit the partition.
        assert!(!check(&buf, len, 2, 300));
        // A byte the length bits do not size.
        assert!(!check(&buf, len + 1, 2, 400));
        // Message flags that disagree with the segment's compressed edges.
        assert!(!check(&buf, len, 3, 400));
        // A first entry that starts no message (and one more that does).
        assert!(!check(&edited(|b| b[0] ^= 0b11), len, 2, 400));
        // A flag past the last entry (entry 10), entry 4's cleared so the
        // count holds.
        let moved_flag = edited(|b| {
            b[3] ^= 0b100;
            b[0] ^= 0b1_0000;
        });
        assert!(!check(&moved_flag, len, 2, 400));
        // A length past the last entry, entry 0's shortened so the size
        // holds.
        let moved_byte = edited(|b| {
            b[4] ^= 0b1_0000;
            b[1] ^= 0b01;
        });
        assert!(!check(&moved_byte, len, 2, 400));
    }

    #[test]
    fn value_widths_follow_the_magnitude() {
        for (v, bytes) in [
            (0, 1),
            (255, 1),
            (256, 2),
            (65_535, 2),
            (65_536, 3),
            ((1 << 24) - 1, 3),
            (1 << 24, 4),
            (u32::MAX, 4),
        ] {
            assert_eq!(code(v) + 1, bytes, "{v}");
        }
        for b in 0..256 {
            let lens: u32 = (0..4).map(|j| (b >> (2 * j)) & 3).sum::<u32>() + 4;
            assert_eq!(u32::from(SPANS[b as usize].bytes), lens);
        }
    }

    #[test]
    fn dest_stream_beats_wide_and_memory_accounts() {
        let g = rmat(&RmatConfig::graph500(10, 8, 5)).unwrap();
        let png = setup(&g, 512);
        let wide = WideFormat::build::<f32>(EdgeView::from_csr(&g), &png, None);
        let delta = DeltaFormat::build::<f32>(EdgeView::from_csr(&g), &png, None);
        let (wide, delta) = (&wide.dest, &delta.dest);
        assert!(delta.dest_stream_bytes() < wide.dest_ids.len() as u64 * 4 / 2);
        assert!(delta.memory_bytes() < wide.memory_bytes());
        assert!(delta.memory_bytes() > 0);
        let (bytes, region, offs) = (&delta.dest_bytes, &delta.byte_region, &delta.seg_off);
        assert!(is_consistent(&png, bytes, region, offs));
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
        DeltaFormat::gather_from::<PlusF32>(&png, &delta, &mut yd, KernelKind::Unrolled);
        assert_eq!(yw, yd);
        assert_eq!(yd[1], 2.0, "duplicate edge (0,1) counted twice");
        assert_eq!(yd[3], 8.0, "duplicate edge (2,3) counted twice");
    }

    #[test]
    fn empty_graph_delta_bins() {
        let g = Csr::from_edges(0, &[]).unwrap();
        let png = setup(&g, 4);
        let bins = DeltaFormat::build::<f32>(EdgeView::from_csr(&g), &png, None);
        assert_eq!(bins.dest.dest_stream_bytes(), 0);
        let mut y: Vec<f32> = vec![];
        DeltaFormat::gather_from::<PlusF32>(&png, &bins, &mut y, KernelKind::Unrolled);
    }
}
