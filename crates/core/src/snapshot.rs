//! Persistent engine snapshots: build the PCPM dataplane once, serve it
//! from disk forever after.
//!
//! The paper's economics (§3, Table 8) amortize PNG/bin preprocessing
//! over many PageRank iterations *within one run*. A serving deployment
//! ("millions of users") restarts processes, shards work across machines
//! and re-ranks on demand — so the preprocessing must amortize **across
//! runs** too. This module serializes everything `prepare` produces —
//! the graph, optional edge weights, the [`Png`] layout and the
//! per-format bin storage — into one versioned, checksummed file that
//! [`Engine::from_snapshot`](crate::Engine::from_snapshot) can map back
//! into a ready engine without touching the build path.
//!
//! # File format (version 3)
//!
//! All integers little-endian. The file is `header ‖ payload`; the
//! checksum covers the payload only, so header corruption is caught by
//! the magic/version checks and payload corruption by the checksum. The
//! loader streams the payload through a small buffer, checksumming it as
//! it decodes, and reports a payload whose checksum disagrees as a
//! checksum mismatch, whatever else it found wrong.
//!
//! The checksum is [`pcpm_graph::io::checksum64`]: FNV-1a 64 over
//! little-endian 8-byte words. With `h = 0xcbf29ce484222325` and
//! `P = 0x100000001b3`, each word `w` of the payload (the last one
//! zero-padded) steps `h = (h ^ w) · P` mod 2⁶⁴, and a final step folds
//! in `w = payload length`. Version 3 differs from version 2 only in
//! this checksum (version 2 ran FNV-1a one byte at a time); the payload
//! bytes are the same. Version 1 held LEB128 delta bins. Both are
//! refused with [`SnapshotError::UnsupportedVersion`].
//!
//! ```text
//! header (20 bytes):
//!   0   magic        b"PCPMSNAP"
//!   8   version      u32   (= 3)
//!   12  checksum     u64   word-wise FNV-1a 64 over payload
//! payload:
//!   partition_bytes  u64   q·4: the partition size the dataplane was
//!                          built with (the budget's or a halving of it)
//!   bin_format       u8    0 = wide, 1 = compact, 2 = delta
//!   weighted         u8    1 when an edge-weight stream follows
//!   reserved         [u8; 6]
//!   graph            u64 length ‖ pcpm_graph::io binary CSR
//!   weights          (weighted only) u64 length ‖ pcpm_graph::io weights
//!                    blob, CSR edge order (rebuilds re-read these)
//!   png              src_q u32 ‖ dst_q u32 ‖ k_src u32 ‖ k_dst u32,
//!                    then per source partition:
//!                    upd_off  (k_dst + 1) × u64
//!                    did_off  (k_dst + 1) × u64
//!                    sources  u64 count ‖ count × u32
//!   bins             tag u8 (= bin_format), then per format:
//!                    wide:    u64 count ‖ count × u32 dest IDs
//!                    compact: u64 count ‖ count × u16 dest IDs
//!                    delta:   u64 count ‖ count × u8 split stream (per
//!                             segment: 3·⌈n/8⌉ control bytes, then
//!                             1–4-byte values; see `crate::delta`),
//!                             (k_src + 1) × u64 byte regions,
//!                             k_src × (k_dst + 1) × u64 segment offsets
//!                    then (weighted only) u64 count ‖ count × f32
//!                    bin-order weight stream
//! ```
//!
//! The loader checks every delta segment against the PNG before it is
//! used: the control bytes size exactly the values that follow, no bit
//! is set past the last entry, the message flags match the segment's
//! compressed edges, and every decoded offset lies in its partition.
//!
//! The *update* stream is deliberately **not** serialized: it is scratch
//! memory overwritten by every scatter, so each engine built from a
//! snapshot allocates its own (zero-filled) at `|E'|` entries beside the
//! layout it shares.
//!
//! # Guarantees
//!
//! - **Bit-identical serving** — an engine loaded from a snapshot
//!   produces the same step output as the engine that saved it, on any
//!   thread count (the bins are byte-identical and the kernels are
//!   deterministic).
//! - **Typed rejection** — wrong magic, unknown version, checksum
//!   mismatch, truncation, internal inconsistency and config mismatch
//!   each map to a distinct [`SnapshotError`] variant; no snapshot input
//!   can panic the loader.

use crate::bins::FixedBins;
use crate::delta::DeltaPackedBins;
use crate::error::SnapshotError;
use crate::format::{BinFormatKind, CompactFormat, DeltaFormat, Layout, WideFormat};
use crate::png::{BipartitePart, Png};
use crate::Partitioner;
use pcpm_graph::{io as gio, Csr};
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"PCPMSNAP";

/// Highest snapshot format version this build reads and the version it
/// writes.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Bytes before the payload: magic, version and checksum.
const HEADER_LEN: usize = 20;

/// Conventional file extension for snapshot files (`graph.pcpmc`).
pub const SNAPSHOT_EXTENSION: &str = "pcpmc";

/// A built layout of any format, shared: what a [`Snapshot`] holds and
/// what a snapshotable backend exports
/// ([`Backend::snapshot_state`](crate::Backend::snapshot_state)).
/// Cloning clones the `Arc`, never the layout.
#[derive(Clone, Debug)]
pub enum DataplaneState {
    /// A [`WideFormat`] layout.
    Wide(Arc<Layout<WideFormat>>),
    /// A [`CompactFormat`] layout.
    Compact(Arc<Layout<CompactFormat>>),
    /// A [`DeltaFormat`] layout.
    Delta(Arc<Layout<DeltaFormat>>),
}

impl DataplaneState {
    /// The format of the layout.
    pub(crate) fn kind(&self) -> BinFormatKind {
        match self {
            DataplaneState::Wide(_) => BinFormatKind::Wide,
            DataplaneState::Compact(_) => BinFormatKind::Compact,
            DataplaneState::Delta(_) => BinFormatKind::Delta,
        }
    }

    /// The layout's PNG.
    pub(crate) fn png(&self) -> &Png {
        match self {
            DataplaneState::Wide(l) => &l.png,
            DataplaneState::Compact(l) => &l.png,
            DataplaneState::Delta(l) => &l.png,
        }
    }

    /// The bin-order weight stream, when the layout is weighted.
    pub(crate) fn bin_weights(&self) -> Option<&[f32]> {
        match self {
            DataplaneState::Wide(l) => l.dest.weights.as_deref(),
            DataplaneState::Compact(l) => l.dest.weights.as_deref(),
            DataplaneState::Delta(l) => l.dest.weights.as_deref(),
        }
    }

    /// Whether `self` and `other` are one layout, not two equal ones.
    pub fn ptr_eq(&self, other: &DataplaneState) -> bool {
        match (self, other) {
            (DataplaneState::Wide(a), DataplaneState::Wide(b)) => Arc::ptr_eq(a, b),
            (DataplaneState::Compact(a), DataplaneState::Compact(b)) => Arc::ptr_eq(a, b),
            (DataplaneState::Delta(a), DataplaneState::Delta(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A decoded engine snapshot: graph, weights and the shared layout,
/// ready to be rehydrated into an [`Engine`](crate::Engine) without
/// running `prepare`. A clone shares all three.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub(crate) graph: Arc<Csr>,
    /// CSR-order edge weights (what rebuilds consume).
    pub(crate) weights: Option<Arc<Vec<f32>>>,
    /// q·4: the partition size the layout was built with.
    pub(crate) partition_bytes: u64,
    pub(crate) layout: DataplaneState,
}

impl Snapshot {
    /// The snapshotted graph.
    pub fn graph(&self) -> &Arc<Csr> {
        &self.graph
    }

    /// CSR-order edge weights, when the engine was weighted.
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref().map(Vec::as_slice)
    }

    /// Whether the dataplane carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// The physical bin format of the stored dataplane.
    pub fn bin_format(&self) -> BinFormatKind {
        self.layout.kind()
    }

    /// The layout: the PNG and the bins, shared with every engine built
    /// from this snapshot.
    pub fn layout(&self) -> &DataplaneState {
        &self.layout
    }

    /// The partition size the dataplane was built with, in bytes (q·4):
    /// the budget's, or the halving of it the engine build derived.
    pub fn partition_bytes(&self) -> usize {
        self.partition_bytes as usize
    }

    /// Rejects the snapshot unless it was built under the caller's
    /// configuration: the partition budget, bin format and (when
    /// `weighted` is given) weighted-ness must all match.
    pub fn verify_config(
        &self,
        cfg: &crate::PcpmConfig,
        weighted: Option<bool>,
    ) -> Result<(), SnapshotError> {
        // Compare partition sizes in nodes, not raw bytes: the snapshot
        // records the size the PNG was actually built with (q·4), so a
        // caller budget whose bytes round to the same q (e.g. 10 vs 8)
        // is the same layout, and so is one the build halved for its
        // pool's thread count.
        let built = u32::try_from(self.partition_bytes / 4).unwrap_or(u32::MAX);
        if !cfg.admits_partition_nodes(built) {
            return Err(SnapshotError::ConfigMismatch {
                field: "partition bytes",
            });
        }
        if cfg.bin_format != self.bin_format() {
            return Err(SnapshotError::ConfigMismatch {
                field: "bin format",
            });
        }
        if let Some(w) = weighted {
            if w != self.is_weighted() {
                return Err(SnapshotError::ConfigMismatch {
                    field: "weighted-ness",
                });
            }
        }
        Ok(())
    }

    /// Rejects the snapshot unless it captures exactly `graph`.
    pub fn verify_graph(&self, graph: &Csr) -> Result<(), SnapshotError> {
        if *self.graph != *graph {
            return Err(SnapshotError::ConfigMismatch { field: "graph" });
        }
        Ok(())
    }

    /// Serializes into the version-3 binary format: header and payload
    /// go into one buffer sized up front, each section in whole-slice
    /// writes, and the checksum is patched into the header last.
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = HEADER_LEN + self.payload_len();
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&[0u8; 8]);

        out.extend_from_slice(&self.partition_bytes.to_le_bytes());
        out.push(format_tag(self.bin_format()));
        out.push(u8::from(self.is_weighted()));
        out.extend_from_slice(&[0u8; 6]);

        put_len(&mut out, gio::encoded_len(&self.graph));
        gio::encode_into(&self.graph, &mut out);
        if let Some(w) = &self.weights {
            put_len(&mut out, gio::weights_encoded_len(w.len()));
            gio::weights_encode_into(w, &mut out);
        }

        // PNG section.
        let png = self.layout.png();
        let src = png.src_parts();
        let dst = png.dst_parts();
        out.extend_from_slice(&src.partition_size().to_le_bytes());
        out.extend_from_slice(&dst.partition_size().to_le_bytes());
        out.extend_from_slice(&src.num_partitions().to_le_bytes());
        out.extend_from_slice(&dst.num_partitions().to_le_bytes());
        for part in (0..src.num_partitions()).map(|s| png.part(s)) {
            gio::put_le(&mut out, &part.upd_off, u64::to_le_bytes);
            gio::put_le(&mut out, &part.did_off, u64::to_le_bytes);
            put_len(&mut out, part.sources.len());
            gio::put_le(&mut out, &part.sources, u32::to_le_bytes);
        }

        // Bins section.
        out.push(format_tag(self.bin_format()));
        match &self.layout {
            DataplaneState::Wide(l) => {
                put_len(&mut out, l.dest.dest_ids.len());
                gio::put_le(&mut out, &l.dest.dest_ids, u32::to_le_bytes);
            }
            DataplaneState::Compact(l) => {
                put_len(&mut out, l.dest.dest_ids.len());
                gio::put_le(&mut out, &l.dest.dest_ids, u16::to_le_bytes);
            }
            DataplaneState::Delta(l) => {
                let d = &l.dest;
                // The stream without the decoder's slack.
                let stream = &d.dest_bytes[..delta_stream_len(&d.byte_region)];
                put_len(&mut out, stream.len());
                out.extend_from_slice(stream);
                gio::put_le(&mut out, &d.byte_region, u64::to_le_bytes);
                for offs in &d.seg_off {
                    gio::put_le(&mut out, offs, u64::to_le_bytes);
                }
            }
        }
        if let Some(w) = self.layout.bin_weights() {
            put_len(&mut out, w.len());
            gio::put_le(&mut out, w, f32::to_le_bytes);
        }

        debug_assert_eq!(out.len(), len, "payload_len sizes what to_bytes writes");
        let sum = gio::checksum64(&out[HEADER_LEN..]);
        out[12..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// The exact byte length of the payload [`Snapshot::to_bytes`]
    /// writes after the header.
    fn payload_len(&self) -> usize {
        let blob = |len: usize| 8 + len;
        let png = self.layout.png();
        let k_dst = png.dst_parts().num_partitions() as usize;
        let png_len: usize = (0..png.src_parts().num_partitions())
            .map(|s| 2 * (k_dst + 1) * 8 + blob(png.part(s).sources.len() * 4))
            .sum();
        let dest = match &self.layout {
            DataplaneState::Wide(l) => blob(l.dest.dest_ids.len() * 4),
            DataplaneState::Compact(l) => blob(l.dest.dest_ids.len() * 2),
            DataplaneState::Delta(l) => {
                let d = &l.dest;
                blob(delta_stream_len(&d.byte_region))
                    + d.byte_region.len() * 8
                    + d.seg_off.iter().map(|o| o.len() * 8).sum::<usize>()
            }
        };
        16 + blob(gio::encoded_len(&self.graph))
            + self
                .weights
                .as_ref()
                .map_or(0, |w| blob(gio::weights_encoded_len(w.len())))
            + 16
            + png_len
            + 1
            + dest
            + self.layout.bin_weights().map_or(0, |w| blob(w.len() * 4))
    }

    /// Decodes and fully validates a snapshot blob.
    pub fn from_bytes(data: &[u8]) -> Result<Self, SnapshotError> {
        let stored = check_header(data)?;
        let payload = &data[HEADER_LEN..];
        decode(Reader::new(payload, payload.len() as u64, CHUNK), stored)
    }

    /// Writes the snapshot to `path`, returning the file size in bytes.
    ///
    /// The write is atomic (temp file + rename in the same directory):
    /// a crash mid-save can leave a stale `<path>.tmp` behind, but never
    /// a truncated snapshot at the serving path — so an existing cache
    /// file is either the old complete snapshot or the new one.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<u64, SnapshotError> {
        let path = path.as_ref();
        let bytes = self.to_bytes();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, &bytes).map_err(|e| SnapshotError::Io(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Ok(bytes.len() as u64)
    }

    /// Reads and validates a snapshot from `path`, streaming the file
    /// through a small buffer: the load never holds the file whole, only
    /// what it decodes.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let mut file = std::fs::File::open(path).map_err(io_err)?;
        let len = file.metadata().map_err(io_err)?.len();
        let mut head = Vec::with_capacity(HEADER_LEN);
        (&mut file)
            .take(HEADER_LEN as u64)
            .read_to_end(&mut head)
            .map_err(io_err)?;
        let stored = check_header(&head)?;
        decode(Reader::new(file, len - HEADER_LEN as u64, CHUNK), stored)
    }
}

fn format_tag(kind: BinFormatKind) -> u8 {
    match kind {
        BinFormatKind::Wide => 0,
        BinFormatKind::Compact => 1,
        BinFormatKind::Delta => 2,
    }
}

fn format_from_tag(tag: u8) -> Result<BinFormatKind, SnapshotError> {
    match tag {
        0 => Ok(BinFormatKind::Wide),
        1 => Ok(BinFormatKind::Compact),
        2 => Ok(BinFormatKind::Delta),
        _ => Err(SnapshotError::Corrupt("unknown bin-format tag")),
    }
}

/// Writes a section's `u64` count or byte length.
fn put_len(buf: &mut Vec<u8>, len: usize) {
    buf.extend_from_slice(&(len as u64).to_le_bytes());
}

/// Length of a delta stream without the decoder's slack.
fn delta_stream_len(byte_region: &[u64]) -> usize {
    byte_region.last().map_or(0, |&t| t as usize)
}

fn io_err(e: std::io::Error) -> SnapshotError {
    SnapshotError::Io(e.to_string())
}

/// Checks the magic and the version of a snapshot that starts with
/// `head`, and returns the stored checksum.
fn check_header(head: &[u8]) -> Result<u64, SnapshotError> {
    let Some(head) = head.first_chunk::<HEADER_LEN>() else {
        return Err(if head.starts_with(&SNAPSHOT_MAGIC[..head.len().min(8)]) {
            SnapshotError::Corrupt("truncated header")
        } else {
            SnapshotError::BadMagic
        });
    };
    if &head[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(head[8..12].try_into().expect("sliced"));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    Ok(u64::from_le_bytes(head[12..].try_into().expect("sliced")))
}

/// Decodes the payload `r` streams and checks it against the `stored`
/// checksum. A payload whose checksum disagrees is a
/// [`SnapshotError::ChecksumMismatch`] whatever else is wrong with it,
/// as though the checksum had been checked first.
fn decode<R: Read>(mut r: Reader<R>, stored: u64) -> Result<Snapshot, SnapshotError> {
    let decoded = decode_payload(&mut r);
    let computed = r.finish()?;
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    decoded
}

/// Bytes the [`Reader`] pulls from its source at a time.
const CHUNK: usize = 1 << 18;

/// Bounds-checked little-endian reader over a payload of known length,
/// pulled from `src` a chunk at a time and checksummed on the way in:
/// every decode failure is a typed [`SnapshotError::Corrupt`], never a
/// panic, and nothing is allocated for a section the payload is too
/// short to hold.
struct Reader<R> {
    src: R,
    /// Pulled bytes; `buf[at..end]` are not yet decoded.
    buf: Box<[u8]>,
    at: usize,
    end: usize,
    /// Payload bytes still in `src`.
    left: u64,
    sum: gio::Checksum64,
}

impl<R: Read> Reader<R> {
    /// A reader of the `len`-byte payload in `src`, pulled `chunk` bytes
    /// at a time; `chunk` holds the widest fixed field (20 bytes).
    fn new(src: R, len: u64, chunk: usize) -> Self {
        Self {
            src,
            buf: vec![0; chunk].into_boxed_slice(),
            at: 0,
            end: 0,
            left: len,
            sum: gio::Checksum64::default(),
        }
    }

    /// Payload bytes not yet decoded.
    fn remaining(&self) -> u64 {
        (self.end - self.at) as u64 + self.left
    }

    /// Moves the undecoded bytes to the front and pulls the next chunk
    /// of the payload in behind them.
    fn pull(&mut self) -> Result<(), SnapshotError> {
        self.buf.copy_within(self.at..self.end, 0);
        self.end -= self.at;
        self.at = 0;
        let room = (self.buf.len() - self.end) as u64;
        let fresh = &mut self.buf[self.end..self.end + room.min(self.left) as usize];
        self.src.read_exact(fresh).map_err(io_err)?;
        self.sum.update(fresh);
        self.left -= fresh.len() as u64;
        self.end += fresh.len();
        Ok(())
    }

    /// Fails with `what` unless `n` more bytes remain.
    fn need(&self, n: usize, what: &'static str) -> Result<(), SnapshotError> {
        if (n as u64) > self.remaining() {
            return Err(SnapshotError::Corrupt(what));
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], SnapshotError> {
        self.need(N, what)?;
        if self.end - self.at < N {
            self.pull()?;
        }
        let out = self.buf[self.at..self.at + N].try_into().expect("sized");
        self.at += N;
        Ok(out)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.array::<1>(what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Reads a `u64` count or byte length, which must fit in memory.
    fn len(&mut self, what: &'static str) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64(what)?).map_err(|_| SnapshotError::Corrupt(what))
    }

    /// Reads `n` bytes followed, in the result, by `slack` zero bytes.
    fn bytes(
        &mut self,
        n: usize,
        slack: usize,
        what: &'static str,
    ) -> Result<Vec<u8>, SnapshotError> {
        self.need(n, what)?;
        let mut out = vec![0; n + slack];
        let mut done = 0;
        while done < n {
            if self.at == self.end {
                self.pull()?;
            }
            let k = (self.end - self.at).min(n - done);
            out[done..done + k].copy_from_slice(&self.buf[self.at..self.at + k]);
            self.at += k;
            done += k;
        }
        Ok(out)
    }

    /// Reads `n` little-endian `W`-byte words.
    fn words<T, const W: usize>(
        &mut self,
        n: usize,
        what: &'static str,
        from_le: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let bytes = n
            .checked_mul(W)
            .ok_or(SnapshotError::Corrupt("section size overflow"))?;
        self.need(bytes, what)?;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if self.end - self.at < W {
                self.pull()?;
            }
            let k = ((self.end - self.at) / W).min(n - out.len());
            let raw = &self.buf[self.at..self.at + k * W];
            out.extend(
                raw.chunks_exact(W)
                    .map(|c| from_le(c.try_into().expect("chunks_exact yields W bytes"))),
            );
            self.at += k * W;
        }
        Ok(out)
    }

    /// Reads a `u64` count followed by that many little-endian `W`-byte
    /// words.
    fn counted_words<T, const W: usize>(
        &mut self,
        what: &'static str,
        from_le: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.len(what)?;
        self.words(n, what, from_le)
    }

    fn done(&self, what: &'static str) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(what))
        }
    }

    /// Pulls the rest of the payload and returns the checksum of all of it.
    fn finish(mut self) -> Result<u64, SnapshotError> {
        while self.left > 0 {
            self.at = self.end;
            self.pull()?;
        }
        Ok(self.sum.finish())
    }
}

/// Checks that an offset array is a `(len)`-entry monotonic prefix that
/// ends exactly at `total`.
fn check_offsets(offs: &[u64], total: u64, what: &'static str) -> Result<(), SnapshotError> {
    if offs.first() != Some(&0) || offs.last() != Some(&total) {
        return Err(SnapshotError::Corrupt(what));
    }
    if offs.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt(what));
    }
    Ok(())
}

fn decode_payload<R: Read>(r: &mut Reader<R>) -> Result<Snapshot, SnapshotError> {
    let partition_bytes = r.u64("truncated config")?;
    let format = format_from_tag(r.u8("truncated config")?)?;
    let weighted = match r.u8("truncated config")? {
        0 => false,
        1 => true,
        _ => return Err(SnapshotError::Corrupt("bad weighted flag")),
    };
    r.array::<6>("truncated config")?;

    let invalid = |_| SnapshotError::Corrupt("invalid graph section");
    let blob = r.len("truncated graph section")?;
    let head = r.array("truncated graph section")?;
    let (n, m, body) = gio::graph_header(&head).map_err(invalid)?;
    if blob != gio::GRAPH_HEADER_LEN + body {
        return Err(SnapshotError::Corrupt("invalid graph section"));
    }
    let offsets = r.words(
        n as usize + 1,
        "truncated graph section",
        u64::from_le_bytes,
    )?;
    let targets = r.words(m as usize, "truncated graph section", u32::from_le_bytes)?;
    let graph = Csr::from_parts(n, offsets, targets).map_err(invalid)?;
    let weights = if weighted {
        let invalid = |_| SnapshotError::Corrupt("invalid weights section");
        let blob = r.len("truncated weights section")?;
        let head = r.array("truncated weights section")?;
        let m = gio::weights_header(&head, Some(graph.num_edges())).map_err(invalid)?;
        if blob as u64 != gio::WEIGHTS_HEADER_LEN as u64 + m * 4 {
            return Err(SnapshotError::Corrupt("invalid weights section"));
        }
        let weights = r.words(m as usize, "truncated weights section", f32::from_le_bytes)?;
        Some(Arc::new(weights))
    } else {
        None
    };

    // PNG section.
    let src_q = r.u32("truncated png header")?;
    let dst_q = r.u32("truncated png header")?;
    let k_src = r.u32("truncated png header")?;
    let k_dst = r.u32("truncated png header")?;
    if src_q == 0 || dst_q == 0 {
        return Err(SnapshotError::Corrupt("zero partition size"));
    }
    let src_parts = Partitioner::new(graph.num_nodes(), src_q)
        .map_err(|_| SnapshotError::Corrupt("invalid source partitioner"))?;
    let dst_parts = Partitioner::new(graph.num_nodes(), dst_q)
        .map_err(|_| SnapshotError::Corrupt("invalid destination partitioner"))?;
    if src_parts.num_partitions() != k_src || dst_parts.num_partitions() != k_dst {
        return Err(SnapshotError::Corrupt("partition count mismatch"));
    }
    // partition_nodes() = max(partition_bytes / 4, 1) — the PNG must
    // have been built under the recorded config.
    if u64::from(src_q) != (partition_bytes / 4).max(1) {
        return Err(SnapshotError::Corrupt(
            "partition size disagrees with config",
        ));
    }
    let mut parts = Vec::with_capacity(k_src as usize);
    for _ in 0..k_src {
        let upd_off = r.words(
            k_dst as usize + 1,
            "truncated png offsets",
            u64::from_le_bytes,
        )?;
        let did_off = r.words(
            k_dst as usize + 1,
            "truncated png offsets",
            u64::from_le_bytes,
        )?;
        let sources: Vec<u32> = r.counted_words("truncated png sources", u32::from_le_bytes)?;
        check_offsets(
            &upd_off,
            sources.len() as u64,
            "inconsistent png upd offsets",
        )?;
        if did_off.first() != Some(&0) || did_off.windows(2).any(|w| w[0] > w[1]) {
            return Err(SnapshotError::Corrupt("inconsistent png did offsets"));
        }
        if sources.iter().any(|&v| v >= graph.num_nodes()) {
            return Err(SnapshotError::Corrupt("png source id out of range"));
        }
        parts.push(BipartitePart {
            upd_off,
            did_off,
            sources,
        });
    }
    let png = Png::from_parts(src_parts, dst_parts, parts);
    if png.num_raw_edges() != graph.num_edges() {
        return Err(SnapshotError::Corrupt(
            "png raw-edge count disagrees with graph",
        ));
    }

    // Bins section.
    let tag = format_from_tag(r.u8("truncated bins section")?)?;
    if tag != format {
        return Err(SnapshotError::Corrupt("bins tag disagrees with header"));
    }
    let raw_edges = png.num_raw_edges() as usize;
    let layout = match format {
        BinFormatKind::Wide => {
            let dest_ids = r.counted_words("truncated wide bins", u32::from_le_bytes)?;
            if dest_ids.len() != raw_edges {
                return Err(SnapshotError::Corrupt("wide dest stream length mismatch"));
            }
            let weights = read_bin_weights(r, weighted, raw_edges)?;
            let dest = FixedBins { dest_ids, weights };
            DataplaneState::Wide(Arc::new(Layout { png, dest }))
        }
        BinFormatKind::Compact => {
            let dest_ids = r.counted_words("truncated compact bins", u16::from_le_bytes)?;
            if dest_ids.len() != raw_edges {
                return Err(SnapshotError::Corrupt(
                    "compact dest stream length mismatch",
                ));
            }
            let weights = read_bin_weights(r, weighted, raw_edges)?;
            let dest = FixedBins { dest_ids, weights };
            DataplaneState::Compact(Arc::new(Layout { png, dest }))
        }
        BinFormatKind::Delta => {
            let raw_len = r.len("truncated delta bins")?;
            let dest_bytes = r.bytes(raw_len, crate::delta::SLACK, "truncated delta bins")?;
            let byte_region = r.words(
                k_src as usize + 1,
                "truncated delta regions",
                u64::from_le_bytes,
            )?;
            check_offsets(&byte_region, raw_len as u64, "inconsistent delta regions")?;
            let mut seg_off = Vec::with_capacity(k_src as usize);
            for s in 0..k_src as usize {
                let offs = r.words(
                    k_dst as usize + 1,
                    "truncated delta segments",
                    u64::from_le_bytes,
                )?;
                let region_len = byte_region[s + 1] - byte_region[s];
                check_offsets(&offs, region_len, "inconsistent delta segments")?;
                seg_off.push(offs);
            }
            if !crate::delta::is_consistent(&png, &dest_bytes, &byte_region, &seg_off) {
                return Err(SnapshotError::Corrupt("inconsistent delta segment"));
            }
            let weights = read_bin_weights(r, weighted, raw_edges)?;
            let dest = DeltaPackedBins {
                dest_bytes,
                byte_region,
                seg_off,
                weights,
            };
            DataplaneState::Delta(Arc::new(Layout { png, dest }))
        }
    };
    r.done("trailing bytes after bins section")?;

    Ok(Snapshot {
        graph: Arc::new(graph),
        weights,
        partition_bytes,
        layout,
    })
}

fn read_bin_weights<R: Read>(
    r: &mut Reader<R>,
    weighted: bool,
    raw_edges: usize,
) -> Result<Option<Vec<f32>>, SnapshotError> {
    if !weighted {
        return Ok(None);
    }
    let weights = r.counted_words("truncated bin weight stream", f32::from_le_bytes)?;
    if weights.len() != raw_edges {
        return Err(SnapshotError::Corrupt("bin weight stream length mismatch"));
    }
    Ok(Some(weights))
}

// Re-exported so callers matching on `PcpmError::Snapshot` have the
// variant type in scope alongside the snapshot API.
pub use crate::error::SnapshotError as Error;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::PlusF32;
    use crate::{BinFormatKind, Engine, PcpmConfig};
    use pcpm_graph::gen::{rmat, RmatConfig};

    fn snapshot_bytes(format: BinFormatKind) -> Vec<u8> {
        weighted_snapshot_bytes(format, false)
    }

    fn weighted_snapshot_bytes(format: BinFormatKind, weighted: bool) -> Vec<u8> {
        let g = Arc::new(rmat(&RmatConfig::graph500(8, 6, 19)).unwrap());
        let weights = pcpm_graph::EdgeWeights::random(&g, 5);
        let mut builder = Engine::<PlusF32>::builder_shared(&g)
            .partition_bytes(64 * 4)
            .bin_format(format);
        if weighted {
            builder = builder.weights(&weights);
        }
        builder.build().unwrap().snapshot().unwrap().to_bytes()
    }

    #[test]
    fn codec_round_trips_every_format() {
        for (format, weighted) in BinFormatKind::ALL
            .into_iter()
            .flat_map(|f| [(f, false), (f, true)])
        {
            let bytes = weighted_snapshot_bytes(format, weighted);
            let snap = Snapshot::from_bytes(&bytes).unwrap();
            assert_eq!(snap.bin_format(), format);
            assert_eq!(snap.is_weighted(), weighted);
            assert_eq!(snap.partition_bytes(), 64 * 4);
            assert_eq!(snap.graph().num_nodes(), 256);
            // Round trip through the codec is byte-stable.
            assert_eq!(snap.to_bytes(), bytes, "format {format}");
            snap.verify_config(
                &PcpmConfig::default()
                    .with_partition_bytes(64 * 4)
                    .with_bin_format(format),
                Some(weighted),
            )
            .unwrap();
            // Pulled through a 29-byte buffer, every section and most
            // words straddle a pull: the same snapshot comes out.
            let payload = &bytes[HEADER_LEN..];
            let stored = check_header(&bytes).unwrap();
            let small = decode(Reader::new(payload, payload.len() as u64, 29), stored);
            assert_eq!(small.unwrap().to_bytes(), bytes, "format {format}");
        }
    }

    #[test]
    fn header_tampering_is_typed() {
        let bytes = snapshot_bytes(BinFormatKind::Wide);
        // Magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::BadMagic)
        ));
        // Version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::UnsupportedVersion {
                found: 99,
                supported: SNAPSHOT_VERSION
            })
        ));
        // Checksum header flip.
        let mut bad = bytes.clone();
        bad[12] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // Version 1 held LEB128 delta bins and version 2 a bytewise
        // checksum: both are refused, not misread.
        for found in [1u32, 2] {
            let mut old = bytes.clone();
            old[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                Snapshot::from_bytes(&old).unwrap_err(),
                SnapshotError::UnsupportedVersion {
                    found,
                    supported: 3
                }
            );
        }
        // Empty / tiny inputs.
        assert!(Snapshot::from_bytes(&[]).is_err());
        assert!(Snapshot::from_bytes(&bytes[..12]).is_err());
    }

    /// The delta layout of a freshly decoded snapshot, which nothing
    /// else shares yet.
    fn delta_layout(snap: &mut Snapshot) -> &mut Layout<DeltaFormat> {
        let DataplaneState::Delta(layout) = &mut snap.layout else {
            unreachable!("a delta snapshot");
        };
        Arc::get_mut(layout).expect("a decoded layout is not shared")
    }

    /// Rewrites the first non-empty segment of a valid delta snapshot
    /// with `edit`, given the stream, the segment's offset and its first
    /// value's, and re-serializes it, so the checksum holds.
    fn edited_delta(edit: impl Fn(&mut [u8], usize, usize)) -> Vec<u8> {
        let mut snap = Snapshot::from_bytes(&snapshot_bytes(BinFormatKind::Delta)).unwrap();
        let layout = delta_layout(&mut snap);
        let did_off = layout.png.part(0).did_off.clone();
        let DeltaPackedBins {
            dest_bytes,
            seg_off,
            ..
        } = &mut layout.dest;
        // Region 0 starts at byte 0.
        let p = (0..did_off.len() - 1)
            .find(|&p| did_off[p + 1] > did_off[p])
            .unwrap();
        let n = (did_off[p + 1] - did_off[p]) as usize;
        let at = seg_off[0][p] as usize;
        edit(dest_bytes, at, at + 3 * n.div_ceil(8));
        snap.to_bytes()
    }

    #[test]
    fn crafted_delta_streams_are_corrupt_not_a_panic() {
        let corrupt = Err(SnapshotError::Corrupt("inconsistent delta segment"));
        assert!(Snapshot::from_bytes(&edited_delta(|_, _, _| {})).is_ok());
        // A length byte that sizes more or fewer value bytes than follow.
        let resized = edited_delta(|bytes, at, _| bytes[at + 1] ^= 0b11);
        assert_eq!(Snapshot::from_bytes(&resized).map(|_| ()), corrupt);
        // The first entry no longer starts a message.
        let unflagged = edited_delta(|bytes, at, _| bytes[at] &= !1);
        assert_eq!(Snapshot::from_bytes(&unflagged).map(|_| ()), corrupt);
        // A first offset past the 64-node partition, at an unchanged size.
        let outside = edited_delta(|bytes, _, values| bytes[values] = 0xff);
        assert_eq!(Snapshot::from_bytes(&outside).map(|_| ()), corrupt);
        // A trailing byte that no control group sizes, in the last
        // segment, with every offset still tiling the stream.
        let mut snap = Snapshot::from_bytes(&snapshot_bytes(BinFormatKind::Delta)).unwrap();
        let DeltaPackedBins {
            byte_region,
            seg_off,
            ..
        } = &mut delta_layout(&mut snap).dest;
        *byte_region.last_mut().unwrap() += 1;
        *seg_off.last_mut().unwrap().last_mut().unwrap() += 1;
        assert_eq!(Snapshot::from_bytes(&snap.to_bytes()).map(|_| ()), corrupt);
    }

    #[test]
    fn every_payload_byte_flip_is_rejected() {
        // The checksum covers the whole payload: flipping ANY payload
        // byte must surface as a typed ChecksumMismatch, never as a
        // wrong-but-accepted snapshot and never as a panic.
        let bytes = snapshot_bytes(BinFormatKind::Delta);
        let step = (bytes.len() / 97).max(1);
        for i in (20..bytes.len()).step_by(step) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(
                matches!(
                    Snapshot::from_bytes(&bad),
                    Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "flip at byte {i} must be caught by the checksum"
            );
        }
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        for format in BinFormatKind::ALL {
            let bytes = snapshot_bytes(format);
            let step = (bytes.len() / 61).max(1);
            for len in (0..bytes.len()).step_by(step) {
                assert!(
                    Snapshot::from_bytes(&bytes[..len]).is_err(),
                    "format {format}: truncation to {len} bytes must error"
                );
            }
            // Trailing garbage is also rejected (checksum covers it).
            let mut long = bytes.clone();
            long.push(0);
            assert!(Snapshot::from_bytes(&long).is_err());
        }
    }

    #[test]
    fn config_mismatch_is_field_typed() {
        let snap = Snapshot::from_bytes(&snapshot_bytes(BinFormatKind::Compact)).unwrap();
        let cfg = PcpmConfig::default()
            .with_partition_bytes(64 * 4)
            .with_bin_format(BinFormatKind::Compact);
        assert_eq!(
            snap.verify_config(&cfg.with_partition_bytes(128 * 4), None),
            Err(SnapshotError::ConfigMismatch {
                field: "partition bytes"
            })
        );
        assert_eq!(
            snap.verify_config(&cfg.with_bin_format(BinFormatKind::Wide), None),
            Err(SnapshotError::ConfigMismatch {
                field: "bin format"
            })
        );
        assert_eq!(
            snap.verify_config(&cfg, Some(true)),
            Err(SnapshotError::ConfigMismatch {
                field: "weighted-ness"
            })
        );
        let other = rmat(&RmatConfig::graph500(7, 6, 3)).unwrap();
        assert_eq!(
            snap.verify_graph(&other),
            Err(SnapshotError::ConfigMismatch { field: "graph" })
        );
    }
}
