//! Batched edge updates: the contract between the streaming front end
//! and the engine.
//!
//! The paper's PNG and bins are a one-time pre-processing of a frozen
//! CSR, and so they stay here: an [`UpdateBatch`] describes how the edge
//! set changed, and [`Engine::update`](crate::backend::Engine::update)
//! absorbs it by building the dataplane afresh over the post-update
//! graph. Batches are produced in canonical form by
//! `pcpm_stream::UpdateLog`; this module only defines the shared types so
//! `pcpm-core` need not depend on the streaming crate.

use crate::error::{PcpmError, SnapshotError};
use pcpm_graph::io::{checksum64, get_le, put_le};
use pcpm_graph::NodeId;

/// Magic bytes identifying the binary update-batch format ("PCPMUB", v2:
/// v1 carried a bytewise FNV-1a checksum).
const BATCH_MAGIC: &[u8; 8] = b"PCPMUB02";

/// Bytes before the checksummed part of a frame: magic and checksum.
const BATCH_HEADER: usize = BATCH_MAGIC.len() + 8;

/// Reads the little-endian `u64` at `data[at..at + 8]`; the caller has
/// checked the length.
fn u64_at(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("length checked above"))
}

/// Reads the little-endian `u32` at `data[at..at + 4]`; the caller has
/// checked the length.
fn u32_at(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("length checked above"))
}

/// The two streaming operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeOp {
    /// Add the directed edge `src -> dst` (no-op if already present).
    Insert,
    /// Remove the directed edge `src -> dst` (no-op if absent).
    Delete,
}

/// One pending edge change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeUpdate {
    /// Operation.
    pub op: EdgeOp,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

/// A validated, deduplicated batch of edge changes.
///
/// Canonical form: `inserts` and `deletes` are each sorted by
/// `(src, dst)`, contain no duplicates, and are disjoint (an edge that
/// was inserted then deleted inside one batch cancels out — last op
/// wins). `pcpm_stream::UpdateLog::seal` produces this form;
/// [`UpdateBatch::from_ops`] is the direct constructor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    inserts: Vec<(NodeId, NodeId)>,
    deletes: Vec<(NodeId, NodeId)>,
}

impl UpdateBatch {
    /// Builds a canonical batch from an ordered op sequence: per edge the
    /// *last* op wins, duplicates collapse.
    pub fn from_ops(ops: &[EdgeUpdate]) -> Self {
        // BTreeMap iterates in `(src, dst)` order, which IS the
        // canonical order — the split lists come out sorted for free.
        let mut last = std::collections::BTreeMap::new();
        for u in ops {
            last.insert((u.src, u.dst), u.op);
        }
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for ((s, t), op) in last {
            match op {
                EdgeOp::Insert => inserts.push((s, t)),
                EdgeOp::Delete => deletes.push((s, t)),
            }
        }
        Self { inserts, deletes }
    }

    /// Builds a batch from pre-deduplicated insert / delete lists.
    ///
    /// The lists are sorted here; callers must guarantee disjointness
    /// (checked with `debug_assert` only).
    pub fn from_parts(
        mut inserts: Vec<(NodeId, NodeId)>,
        mut deletes: Vec<(NodeId, NodeId)>,
    ) -> Self {
        inserts.sort_unstable();
        inserts.dedup();
        deletes.sort_unstable();
        deletes.dedup();
        debug_assert!(
            !inserts.iter().any(|e| deletes.binary_search(e).is_ok()),
            "inserts and deletes must be disjoint"
        );
        Self { inserts, deletes }
    }

    /// Edges to insert, sorted by `(src, dst)`.
    pub fn inserts(&self) -> &[(NodeId, NodeId)] {
        &self.inserts
    }

    /// Edges to delete, sorted by `(src, dst)`.
    pub fn deletes(&self) -> &[(NodeId, NodeId)] {
        &self.deletes
    }

    /// Total number of pending edge changes.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Largest node ID referenced by the batch, if any.
    pub fn max_node(&self) -> Option<NodeId> {
        self.all_edges().map(|(s, t)| s.max(t)).max()
    }

    /// Iterator over every referenced edge (inserts then deletes).
    pub fn all_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.inserts.iter().chain(self.deletes.iter()).copied()
    }

    /// Sorted, deduplicated *source* partitions (size `q` nodes) whose
    /// PNG part and bin region the batch changes: those depend only on
    /// the adjacency of the partition's own nodes.
    pub fn touched_src_partitions(&self, q: u32) -> Vec<u32> {
        let mut v: Vec<u32> = self.all_edges().map(|(s, _)| s / q).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl UpdateBatch {
    /// Serializes the batch into the compact binary format.
    ///
    /// Layout (all integers little-endian):
    ///
    /// ```text
    /// magic    8 B   "PCPMUB02"
    /// checksum 8 B   pcpm_graph::io::checksum64 (FNV-1a 64 over
    ///                little-endian 8-byte words, then the length) of
    ///                everything after this field
    /// inserts  8 B   count of insert pairs
    /// deletes  8 B   count of delete pairs
    /// pairs    8 B each  (src u32, dst u32), inserts then deletes,
    ///                    each section sorted by (src, dst)
    /// ```
    ///
    /// A `PCPMUB01` frame (bytewise checksum) is refused as
    /// [`SnapshotError::BadMagic`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(BATCH_HEADER + 16 + self.len() * 8);
        buf.extend_from_slice(BATCH_MAGIC);
        buf.extend_from_slice(&[0u8; 8]);
        buf.extend_from_slice(&(self.inserts.len() as u64).to_le_bytes());
        buf.extend_from_slice(&(self.deletes.len() as u64).to_le_bytes());
        for section in [&self.inserts, &self.deletes] {
            put_le(&mut buf, section, |(s, t)| {
                let mut pair = [0u8; 8];
                pair[..4].copy_from_slice(&s.to_le_bytes());
                pair[4..].copy_from_slice(&t.to_le_bytes());
                pair
            });
        }
        let sum = checksum64(&buf[BATCH_HEADER..]);
        buf[BATCH_MAGIC.len()..BATCH_HEADER].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Deserializes a batch written by [`UpdateBatch::to_bytes`],
    /// verifying the magic, the checksum and the canonical-form
    /// invariants (each section sorted, deduplicated, disjoint).
    pub fn from_bytes(data: &[u8]) -> Result<Self, PcpmError> {
        let corrupt = |msg| PcpmError::Snapshot(SnapshotError::Corrupt(msg));
        if data.len() < BATCH_HEADER {
            return Err(corrupt("truncated update-batch header"));
        }
        if &data[..BATCH_MAGIC.len()] != BATCH_MAGIC {
            return Err(PcpmError::Snapshot(SnapshotError::BadMagic));
        }
        let stored = u64_at(data, BATCH_MAGIC.len());
        let data = &data[BATCH_HEADER..];
        let computed = checksum64(data);
        if stored != computed {
            return Err(PcpmError::Snapshot(SnapshotError::ChecksumMismatch {
                stored,
                computed,
            }));
        }
        if data.len() < 16 {
            return Err(corrupt("truncated update-batch counts"));
        }
        let n_ins = u64_at(data, 0) as usize;
        let n_del = u64_at(data, 8) as usize;
        let pairs = &data[16..];
        let need = n_ins
            .checked_add(n_del)
            .and_then(|n| n.checked_mul(8))
            .ok_or(corrupt("update-batch size overflow"))?;
        if pairs.len() != need {
            return Err(corrupt("update-batch payload size mismatch"));
        }
        let (ins, del) = pairs.split_at(n_ins * 8);
        let read_pairs = |raw: &[u8]| -> Vec<(NodeId, NodeId)> {
            get_le(raw, |p: [u8; 8]| (u32_at(&p, 0), u32_at(&p, 4)))
        };
        let inserts = read_pairs(ins);
        let deletes = read_pairs(del);
        for section in [&inserts, &deletes] {
            if section.windows(2).any(|w| w[0] >= w[1]) {
                return Err(corrupt("update-batch section not sorted/deduplicated"));
            }
        }
        if inserts.iter().any(|e| deletes.binary_search(e).is_ok()) {
            return Err(corrupt("update-batch inserts and deletes overlap"));
        }
        Ok(Self { inserts, deletes })
    }
}

/// Source partitions rebuilt out of the total, as carried by
/// [`UpdateOutcome::Repaired`]. The engine no longer repairs in place:
/// the one `Repaired` it reports is the no-op of an empty batch, with
/// both counts zero. The type stays because the serve wire format's
/// update reply carries it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairStats {
    /// Source partitions whose PNG part and bin region were rebuilt.
    pub partitions_rebuilt: u32,
    /// Total source partitions.
    pub partitions_total: u32,
}

impl RepairStats {
    /// Serializes the stats as two little-endian `u32`s.
    pub fn to_bytes(&self) -> [u8; 8] {
        let mut buf = [0u8; 8];
        buf[..4].copy_from_slice(&self.partitions_rebuilt.to_le_bytes());
        buf[4..].copy_from_slice(&self.partitions_total.to_le_bytes());
        buf
    }

    /// Deserializes stats written by [`RepairStats::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<Self, PcpmError> {
        if data.len() != 8 {
            return Err(PcpmError::Snapshot(SnapshotError::Corrupt(
                "repair stats must be exactly 8 bytes",
            )));
        }
        Ok(Self {
            partitions_rebuilt: u32_at(data, 0),
            partitions_total: u32_at(data, 4),
        })
    }
}

/// How [`Engine::update`](crate::backend::Engine::update) absorbed a
/// batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The prepared state was kept: an empty batch, nothing to rebuild.
    Repaired(RepairStats),
    /// The engine re-ran a full `prepare` over the post-update graph —
    /// the outcome of every non-empty batch.
    Rebuilt,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_op_wins_and_sorts() {
        let ops = [
            EdgeUpdate {
                op: EdgeOp::Insert,
                src: 5,
                dst: 1,
            },
            EdgeUpdate {
                op: EdgeOp::Insert,
                src: 2,
                dst: 3,
            },
            EdgeUpdate {
                op: EdgeOp::Delete,
                src: 5,
                dst: 1,
            }, // cancels the insert
            EdgeUpdate {
                op: EdgeOp::Insert,
                src: 2,
                dst: 3,
            }, // duplicate
            EdgeUpdate {
                op: EdgeOp::Delete,
                src: 0,
                dst: 9,
            },
        ];
        let b = UpdateBatch::from_ops(&ops);
        assert_eq!(b.inserts(), &[(2, 3)]);
        assert_eq!(b.deletes(), &[(0, 9), (5, 1)]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.max_node(), Some(9));
    }

    #[test]
    fn touched_sets() {
        let b = UpdateBatch::from_parts(vec![(10, 3), (11, 3)], vec![(3, 10)]);
        assert_eq!(b.touched_src_partitions(4), vec![0, 2]);
    }

    #[test]
    fn empty_batch() {
        let b = UpdateBatch::default();
        assert!(b.is_empty());
        assert_eq!(b.max_node(), None);
        assert!(b.touched_src_partitions(8).is_empty());
    }

    #[test]
    fn batch_bytes_round_trip() {
        let b = UpdateBatch::from_parts(vec![(10, 3), (11, 3)], vec![(3, 10)]);
        let bytes = b.to_bytes();
        assert_eq!(UpdateBatch::from_bytes(&bytes).unwrap(), b);

        let empty = UpdateBatch::default();
        assert_eq!(UpdateBatch::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn batch_bytes_reject_tampering() {
        let b = UpdateBatch::from_parts(vec![(1, 2), (3, 4)], vec![(5, 6)]);
        let good = b.to_bytes();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            UpdateBatch::from_bytes(&bad),
            Err(PcpmError::Snapshot(SnapshotError::BadMagic))
        ));

        // Flipped payload byte -> checksum mismatch.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0xff;
        assert!(matches!(
            UpdateBatch::from_bytes(&bad),
            Err(PcpmError::Snapshot(SnapshotError::ChecksumMismatch { .. }))
        ));

        // Truncated payload (checksum recomputed so the structural check
        // is what fires).
        let mut bad = good.clone();
        bad.truncate(good.len() - 8);
        let fixed = checksum64(&bad[16..]);
        bad[8..16].copy_from_slice(&fixed.to_le_bytes());
        assert!(matches!(
            UpdateBatch::from_bytes(&bad),
            Err(PcpmError::Snapshot(SnapshotError::Corrupt(_)))
        ));

        // Unsorted section with a valid checksum.
        let mut raw = Vec::new();
        raw.extend_from_slice(&2u64.to_le_bytes());
        raw.extend_from_slice(&0u64.to_le_bytes());
        for &(s, t) in &[(9u32, 9u32), (1u32, 1u32)] {
            raw.extend_from_slice(&s.to_le_bytes());
            raw.extend_from_slice(&t.to_le_bytes());
        }
        let mut bad = Vec::new();
        bad.extend_from_slice(BATCH_MAGIC);
        bad.extend_from_slice(&checksum64(&raw).to_le_bytes());
        bad.extend_from_slice(&raw);
        assert!(matches!(
            UpdateBatch::from_bytes(&bad),
            Err(PcpmError::Snapshot(SnapshotError::Corrupt(_)))
        ));
    }

    #[test]
    fn stats_round_trip() {
        let s = RepairStats {
            partitions_rebuilt: 7,
            partitions_total: 1024,
        };
        assert_eq!(RepairStats::from_bytes(&s.to_bytes()).unwrap(), s);
        assert!(RepairStats::from_bytes(&[0u8; 7]).is_err());
    }
}
