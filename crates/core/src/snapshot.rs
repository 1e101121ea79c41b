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
//! the magic/version checks and payload corruption by the checksum
//! before any structural decoding happens.
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
//! memory overwritten by every scatter, so the loader allocates it fresh
//! (zero-filled) at `|E'|` entries.
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

use crate::error::SnapshotError;
use crate::format::BinFormatKind;
use crate::png::{BipartitePart, Png};
use crate::Partitioner;
use pcpm_graph::{io as gio, Csr};
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

/// The serializable state of one bin format: destination stream plus the
/// optional bin-order weight stream. Opaque — produced by the dataplane
/// export hooks and consumed by the loader.
#[derive(Clone, Debug)]
pub struct BinState(pub(crate) BinStateInner);

#[derive(Clone, Debug)]
pub(crate) enum BinStateInner {
    Wide {
        dest_ids: Vec<u32>,
        weights: Option<Vec<f32>>,
    },
    Compact {
        dest_ids: Vec<u16>,
        weights: Option<Vec<f32>>,
    },
    Delta {
        dest_bytes: Vec<u8>,
        byte_region: Vec<u64>,
        seg_off: Vec<Vec<u64>>,
        weights: Option<Vec<f32>>,
    },
}

impl BinState {
    pub(crate) fn wide(dest_ids: Vec<u32>, weights: Option<Vec<f32>>) -> Self {
        Self(BinStateInner::Wide { dest_ids, weights })
    }

    pub(crate) fn compact(dest_ids: Vec<u16>, weights: Option<Vec<f32>>) -> Self {
        Self(BinStateInner::Compact { dest_ids, weights })
    }

    pub(crate) fn delta(
        dest_bytes: Vec<u8>,
        byte_region: Vec<u64>,
        seg_off: Vec<Vec<u64>>,
        weights: Option<Vec<f32>>,
    ) -> Self {
        Self(BinStateInner::Delta {
            dest_bytes,
            byte_region,
            seg_off,
            weights,
        })
    }

    /// The format this state belongs to.
    pub fn kind(&self) -> BinFormatKind {
        match &self.0 {
            BinStateInner::Wide { .. } => BinFormatKind::Wide,
            BinStateInner::Compact { .. } => BinFormatKind::Compact,
            BinStateInner::Delta { .. } => BinFormatKind::Delta,
        }
    }

    /// Whether a bin-order weight stream is present.
    pub fn is_weighted(&self) -> bool {
        match &self.0 {
            BinStateInner::Wide { weights, .. }
            | BinStateInner::Compact { weights, .. }
            | BinStateInner::Delta { weights, .. } => weights.is_some(),
        }
    }
}

/// Everything a snapshotable backend exports: the PNG layout plus the
/// format's [`BinState`]. Opaque to external [`Backend`](crate::Backend)
/// implementations (their default `snapshot_state` returns `None`).
#[derive(Clone, Debug)]
pub struct DataplaneState {
    pub(crate) png: Png,
    pub(crate) bins: BinState,
}

impl DataplaneState {
    pub(crate) fn new(png: Png, bins: BinState) -> Self {
        Self { png, bins }
    }
}

/// A decoded engine snapshot: graph, weights, PNG and bins, ready to be
/// rehydrated into an [`Engine`](crate::Engine) without running
/// `prepare`.
#[derive(Clone, Debug)]
pub struct Snapshot {
    graph: Arc<Csr>,
    /// CSR-order edge weights (what rebuilds consume).
    weights: Option<Vec<f32>>,
    partition_bytes: u64,
    png: Png,
    bins: BinState,
}

impl Snapshot {
    /// Assembles a snapshot from live engine state (the save path).
    pub(crate) fn from_state(
        graph: Arc<Csr>,
        weights: Option<Vec<f32>>,
        partition_bytes: u64,
        state: DataplaneState,
    ) -> Self {
        Self {
            graph,
            weights,
            partition_bytes,
            png: state.png,
            bins: state.bins,
        }
    }

    /// The snapshotted graph.
    pub fn graph(&self) -> &Arc<Csr> {
        &self.graph
    }

    /// CSR-order edge weights, when the engine was weighted.
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    /// Whether the dataplane carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// The physical bin format of the stored dataplane.
    pub fn bin_format(&self) -> BinFormatKind {
        self.bins.kind()
    }

    /// The partition size the dataplane was built with, in bytes (q·4):
    /// the budget's, or the halving of it the engine build derived.
    pub fn partition_bytes(&self) -> usize {
        self.partition_bytes as usize
    }

    pub(crate) fn into_parts(self) -> (Arc<Csr>, Option<Vec<f32>>, u64, Png, BinState) {
        (
            self.graph,
            self.weights,
            self.partition_bytes,
            self.png,
            self.bins,
        )
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
        let src = self.png.src_parts();
        let dst = self.png.dst_parts();
        out.extend_from_slice(&src.partition_size().to_le_bytes());
        out.extend_from_slice(&dst.partition_size().to_le_bytes());
        out.extend_from_slice(&src.num_partitions().to_le_bytes());
        out.extend_from_slice(&dst.num_partitions().to_le_bytes());
        for part in (0..src.num_partitions()).map(|s| self.png.part(s)) {
            gio::put_le(&mut out, &part.upd_off, u64::to_le_bytes);
            gio::put_le(&mut out, &part.did_off, u64::to_le_bytes);
            put_len(&mut out, part.sources.len());
            gio::put_le(&mut out, &part.sources, u32::to_le_bytes);
        }

        // Bins section.
        out.push(format_tag(self.bin_format()));
        let weights = match &self.bins.0 {
            BinStateInner::Wide { dest_ids, weights } => {
                put_len(&mut out, dest_ids.len());
                gio::put_le(&mut out, dest_ids, u32::to_le_bytes);
                weights
            }
            BinStateInner::Compact { dest_ids, weights } => {
                put_len(&mut out, dest_ids.len());
                gio::put_le(&mut out, dest_ids, u16::to_le_bytes);
                weights
            }
            BinStateInner::Delta {
                dest_bytes,
                byte_region,
                seg_off,
                weights,
            } => {
                // The stream without the decoder's slack.
                let stream = &dest_bytes[..delta_stream_len(byte_region)];
                put_len(&mut out, stream.len());
                out.extend_from_slice(stream);
                gio::put_le(&mut out, byte_region, u64::to_le_bytes);
                for offs in seg_off {
                    gio::put_le(&mut out, offs, u64::to_le_bytes);
                }
                weights
            }
        };
        if let Some(w) = weights {
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
        let k_dst = self.png.dst_parts().num_partitions() as usize;
        let png: usize = (0..self.png.src_parts().num_partitions())
            .map(|s| 2 * (k_dst + 1) * 8 + blob(self.png.part(s).sources.len() * 4))
            .sum();
        let (dest, weights) = match &self.bins.0 {
            BinStateInner::Wide { dest_ids, weights } => (blob(dest_ids.len() * 4), weights),
            BinStateInner::Compact { dest_ids, weights } => (blob(dest_ids.len() * 2), weights),
            BinStateInner::Delta {
                byte_region,
                seg_off,
                weights,
                ..
            } => (
                blob(delta_stream_len(byte_region))
                    + byte_region.len() * 8
                    + seg_off.iter().map(|o| o.len() * 8).sum::<usize>(),
                weights,
            ),
        };
        16 + blob(gio::encoded_len(&self.graph))
            + self
                .weights
                .as_ref()
                .map_or(0, |w| blob(gio::weights_encoded_len(w.len())))
            + 16
            + png
            + 1
            + dest
            + weights.as_ref().map_or(0, |w| blob(w.len() * 4))
    }

    /// Decodes and fully validates a snapshot blob.
    pub fn from_bytes(data: &[u8]) -> Result<Self, SnapshotError> {
        if data.len() < HEADER_LEN {
            return Err(if data.starts_with(&SNAPSHOT_MAGIC[..data.len().min(8)]) {
                SnapshotError::Corrupt("truncated header")
            } else {
                SnapshotError::BadMagic
            });
        }
        if &data[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(data[8..12].try_into().expect("sliced"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let stored = u64::from_le_bytes(data[12..HEADER_LEN].try_into().expect("sliced"));
        let payload = &data[HEADER_LEN..];
        let computed = gio::checksum64(payload);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        decode_payload(payload)
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

    /// Reads and validates a snapshot from `path`.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let data = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Self::from_bytes(&data)
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

/// Bounds-checked little-endian reader over the payload: every decode
/// failure is a typed [`SnapshotError::Corrupt`], never a panic.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.data.len() < n {
            return Err(SnapshotError::Corrupt(what));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("sized"),
        ))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("sized"),
        ))
    }

    /// Reads a `u64` count followed by that many `elem_bytes`-sized
    /// items, guarding the multiplication against overflow.
    fn counted(
        &mut self,
        elem_bytes: usize,
        what: &'static str,
    ) -> Result<&'a [u8], SnapshotError> {
        let n = self.u64(what)?;
        let bytes = (n as usize)
            .checked_mul(elem_bytes)
            .ok_or(SnapshotError::Corrupt("section size overflow"))?;
        self.take(bytes, what)
    }

    /// Reads `n` little-endian `W`-byte words in one slice decode.
    fn words<T, const W: usize>(
        &mut self,
        n: usize,
        what: &'static str,
        from_le: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let bytes = n
            .checked_mul(W)
            .ok_or(SnapshotError::Corrupt("section size overflow"))?;
        Ok(gio::get_le(self.take(bytes, what)?, from_le))
    }

    /// Reads a `u64` count followed by that many little-endian `W`-byte
    /// words.
    fn counted_words<T, const W: usize>(
        &mut self,
        what: &'static str,
        from_le: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        Ok(gio::get_le(self.counted(W, what)?, from_le))
    }

    fn done(&self, what: &'static str) -> Result<(), SnapshotError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(what))
        }
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

fn decode_payload(payload: &[u8]) -> Result<Snapshot, SnapshotError> {
    let mut r = Reader { data: payload };
    let partition_bytes = r.u64("truncated config")?;
    let format = format_from_tag(r.u8("truncated config")?)?;
    let weighted = match r.u8("truncated config")? {
        0 => false,
        1 => true,
        _ => return Err(SnapshotError::Corrupt("bad weighted flag")),
    };
    r.take(6, "truncated config")?;

    let graph_bytes = r.counted(1, "truncated graph section")?;
    let graph = gio::from_bytes(graph_bytes)
        .map_err(|_| SnapshotError::Corrupt("invalid graph section"))?;
    let weights = if weighted {
        let blob = r.counted(1, "truncated weights section")?;
        Some(
            gio::weights_from_bytes(blob, Some(graph.num_edges()))
                .map_err(|_| SnapshotError::Corrupt("invalid weights section"))?,
        )
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
    let bins = match format {
        BinFormatKind::Wide => {
            let dest_ids = r.counted_words("truncated wide bins", u32::from_le_bytes)?;
            if dest_ids.len() != raw_edges {
                return Err(SnapshotError::Corrupt("wide dest stream length mismatch"));
            }
            let weights = read_bin_weights(&mut r, weighted, raw_edges)?;
            BinState::wide(dest_ids, weights)
        }
        BinFormatKind::Compact => {
            let dest_ids = r.counted_words("truncated compact bins", u16::from_le_bytes)?;
            if dest_ids.len() != raw_edges {
                return Err(SnapshotError::Corrupt(
                    "compact dest stream length mismatch",
                ));
            }
            let weights = read_bin_weights(&mut r, weighted, raw_edges)?;
            BinState::compact(dest_ids, weights)
        }
        BinFormatKind::Delta => {
            let raw = r.counted(1, "truncated delta bins")?;
            let dest_bytes = [raw, &[0; crate::delta::SLACK]].concat();
            let byte_region = r.words(
                k_src as usize + 1,
                "truncated delta regions",
                u64::from_le_bytes,
            )?;
            check_offsets(&byte_region, raw.len() as u64, "inconsistent delta regions")?;
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
            let weights = read_bin_weights(&mut r, weighted, raw_edges)?;
            BinState::delta(dest_bytes, byte_region, seg_off, weights)
        }
    };
    r.done("trailing bytes after bins section")?;

    Ok(Snapshot {
        graph: Arc::new(graph),
        weights,
        partition_bytes,
        png,
        bins,
    })
}

fn read_bin_weights(
    r: &mut Reader<'_>,
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
        let g = Arc::new(rmat(&RmatConfig::graph500(8, 6, 19)).unwrap());
        let engine = Engine::<PlusF32>::builder_shared(&g)
            .partition_bytes(64 * 4)
            .bin_format(format)
            .build()
            .unwrap();
        engine.snapshot().unwrap().to_bytes()
    }

    #[test]
    fn codec_round_trips_every_format() {
        for format in BinFormatKind::ALL {
            let bytes = snapshot_bytes(format);
            let snap = Snapshot::from_bytes(&bytes).unwrap();
            assert_eq!(snap.bin_format(), format);
            assert!(!snap.is_weighted());
            assert_eq!(snap.partition_bytes(), 64 * 4);
            assert_eq!(snap.graph().num_nodes(), 256);
            // Round trip through the codec is byte-stable.
            assert_eq!(snap.to_bytes(), bytes, "format {format}");
            snap.verify_config(
                &PcpmConfig::default()
                    .with_partition_bytes(64 * 4)
                    .with_bin_format(format),
                Some(false),
            )
            .unwrap();
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

    /// Rewrites the first non-empty segment of a valid delta snapshot
    /// with `edit`, given the stream, the segment's offset and its first
    /// value's, and re-serializes it, so the checksum holds.
    fn edited_delta(edit: impl Fn(&mut [u8], usize, usize)) -> Vec<u8> {
        let mut snap = Snapshot::from_bytes(&snapshot_bytes(BinFormatKind::Delta)).unwrap();
        let did_off = snap.png.part(0).did_off.clone();
        let BinStateInner::Delta {
            dest_bytes,
            seg_off,
            ..
        } = &mut snap.bins.0
        else {
            unreachable!("a delta snapshot");
        };
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
        let BinStateInner::Delta {
            byte_region,
            seg_off,
            ..
        } = &mut snap.bins.0
        else {
            unreachable!("a delta snapshot");
        };
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
