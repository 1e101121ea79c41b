//! [`DeltaGraph`]: a mutable edge-set overlay on an immutable base CSR.
//!
//! The PCPM bins are a pre-processing artifact of a frozen [`Csr`]; a
//! `DeltaGraph` is what sits in front of them in a streaming deployment.
//! It keeps the base graph behind a shared [`Arc`] and absorbs
//! [`UpdateBatch`]es into *per-partition adjacency deltas*: sorted
//! per-node insert lists and delete tombstones, grouped by the source
//! partition whose bins they dirty. Readers take [`DeltaGraph::snapshot`]
//! — an `Arc<Csr>` materialized by copying untouched rows verbatim and
//! merging only the dirty ones — and hand it to
//! [`Engine::update`](pcpm_core::Engine::update) together with the
//! applied batch, and the engine rebuilds its dataplane over it.
//!
//! Once the pending delta volume crosses the **compaction threshold**
//! (a fraction of the base edge count), the overlay folds itself into a
//! fresh base CSR: lookups stay O(log deg) instead of degrading as
//! deltas pile up, and the memory of long-dead tombstones is reclaimed.

use crate::error::StreamError;
use pcpm_core::update::UpdateBatch;
use pcpm_graph::{Csr, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default [`DeltaGraph::compaction_threshold`]: compact when pending
/// deltas exceed a quarter of the base edge count.
pub const DEFAULT_COMPACTION_THRESHOLD: f64 = 0.25;

/// Pending adjacency changes of one source node.
#[derive(Clone, Debug, Default)]
struct NodeDelta {
    /// Sorted targets to add on top of the base row.
    add: Vec<NodeId>,
    /// Sorted tombstones: targets removed from the base row.
    del: Vec<NodeId>,
}

/// Pending deltas of one source partition, keyed by node.
#[derive(Clone, Debug, Default)]
struct PartitionDelta {
    nodes: BTreeMap<NodeId, NodeDelta>,
}

/// What one [`DeltaGraph::apply`] call actually changed.
#[derive(Clone, Debug)]
pub struct ApplyStats {
    /// The effective sub-batch that changed the edge set (inserts of
    /// present edges and deletes of absent edges are dropped). This is
    /// the batch to hand to `Engine::update` and `incremental_pagerank`.
    pub applied: UpdateBatch,
    /// Requested ops that were no-ops against the current edge set.
    pub ignored: usize,
    /// Source partitions whose adjacency actually changed (sorted).
    pub touched_partitions: Vec<u32>,
    /// Whether this apply crossed the threshold and compacted the
    /// overlay into a fresh base CSR.
    pub compacted: bool,
}

/// A streaming graph: immutable base CSR + pending per-partition deltas.
///
/// Semantics are those of a directed edge *set*: duplicate inserts and
/// deletes of absent edges are ignored (and reported). The base should
/// therefore be deduplicated (every generator in `pcpm_graph::gen`
/// already is); duplicate base edges are tolerated but a delete removes
/// all copies at the next materialization.
///
/// # Examples
///
/// ```
/// use pcpm_graph::Csr;
/// use pcpm_core::UpdateBatch;
/// use pcpm_stream::DeltaGraph;
/// use std::sync::Arc;
///
/// let base = Arc::new(Csr::from_edges(8, &[(0, 1), (1, 2), (6, 7)]).unwrap());
/// let mut dg = DeltaGraph::new(base, 4).unwrap();
/// let stats = dg
///     .apply(&UpdateBatch::from_parts(vec![(2, 3)], vec![(6, 7)]))
///     .unwrap();
/// assert_eq!(stats.touched_partitions, vec![0, 1]);
/// assert_eq!(dg.num_edges(), 3);
/// let snap = dg.snapshot();
/// assert_eq!(snap.neighbors(2), &[3]);
/// assert_eq!(snap.neighbors(6), &[] as &[u32]);
/// ```
#[derive(Clone, Debug)]
pub struct DeltaGraph {
    base: Arc<Csr>,
    partition_nodes: u32,
    parts: Vec<PartitionDelta>,
    /// Pending delta entries (adds + tombstones) across all partitions.
    pending: u64,
    /// Effective edge count (base − tombstoned copies + adds).
    num_edges: u64,
    compaction_threshold: f64,
    /// Cached materialization, invalidated by `apply`.
    snapshot: Option<Arc<Csr>>,
}

impl DeltaGraph {
    /// Wraps `base` with partitions of `partition_nodes` source nodes —
    /// use [`PcpmConfig::partition_nodes`](pcpm_core::PcpmConfig::partition_nodes)
    /// so touched-partition reporting matches the engine's bins.
    pub fn new(base: Arc<Csr>, partition_nodes: u32) -> Result<Self, StreamError> {
        if partition_nodes == 0 {
            return Err(StreamError::BadConfig("partition_nodes must be at least 1"));
        }
        let n = base.num_nodes();
        let k = if n == 0 {
            0
        } else {
            (n - 1) / partition_nodes + 1
        } as usize;
        let num_edges = base.num_edges();
        Ok(Self {
            base,
            partition_nodes,
            parts: vec![PartitionDelta::default(); k],
            pending: 0,
            num_edges,
            compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
            snapshot: None,
        })
    }

    /// Sets the compaction threshold: the overlay folds into a fresh
    /// base once pending deltas exceed `threshold × base-edge-count`.
    /// `0.0` compacts after every batch; `f64::INFINITY` never compacts.
    pub fn with_compaction_threshold(mut self, threshold: f64) -> Result<Self, StreamError> {
        if threshold.is_nan() || threshold < 0.0 {
            return Err(StreamError::BadConfig(
                "compaction threshold must be non-negative",
            ));
        }
        self.compaction_threshold = threshold;
        Ok(self)
    }

    /// Number of nodes (fixed for the overlay's lifetime).
    pub fn num_nodes(&self) -> u32 {
        self.base.num_nodes()
    }

    /// Effective number of directed edges (base minus tombstoned copies
    /// plus pending inserts).
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// The current base CSR (pre-delta).
    pub fn base(&self) -> &Arc<Csr> {
        &self.base
    }

    /// Source-partition size in nodes.
    pub fn partition_nodes(&self) -> u32 {
        self.partition_nodes
    }

    /// Number of source partitions.
    pub fn num_partitions(&self) -> u32 {
        self.parts.len() as u32
    }

    /// Pending delta entries (adds + tombstones).
    pub fn pending_ops(&self) -> u64 {
        self.pending
    }

    /// True when deltas are pending (snapshot ≠ base).
    pub fn is_dirty(&self) -> bool {
        self.pending > 0
    }

    /// The configured compaction threshold.
    pub fn compaction_threshold(&self) -> f64 {
        self.compaction_threshold
    }

    /// True when the directed edge `src -> dst` is currently present.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        if src >= self.num_nodes() || dst >= self.num_nodes() {
            return false;
        }
        if let Some(d) = self.delta_of(src) {
            if d.add.binary_search(&dst).is_ok() {
                return true;
            }
            if d.del.binary_search(&dst).is_ok() {
                return false;
            }
        }
        self.base.neighbors(src).binary_search(&dst).is_ok()
    }

    /// The merged adjacency of `src` (sorted; allocates only for dirty
    /// rows).
    pub fn neighbors(&self, src: NodeId) -> Vec<NodeId> {
        match self.delta_of(src) {
            None => self.base.neighbors(src).to_vec(),
            Some(d) => merge_row(self.base.neighbors(src), &d.add, &d.del),
        }
    }

    fn delta_of(&self, src: NodeId) -> Option<&NodeDelta> {
        self.parts
            .get((src / self.partition_nodes) as usize)?
            .nodes
            .get(&src)
    }

    /// Absorbs a canonical batch. Inserts of present edges and deletes
    /// of absent edges are ignored (set semantics); the returned
    /// [`ApplyStats::applied`] batch holds exactly the effective diff.
    /// Crossing the compaction threshold folds the overlay into a fresh
    /// base before returning.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<ApplyStats, StreamError> {
        let n = self.num_nodes();
        if let Some(max) = batch.max_node() {
            if max >= n {
                return Err(StreamError::NodeOutOfRange {
                    node: max,
                    num_nodes: n,
                });
            }
        }
        let mut applied_ins = Vec::new();
        let mut applied_del = Vec::new();
        let mut ignored = 0usize;
        for &(s, t) in batch.inserts() {
            if self.insert(s, t) {
                applied_ins.push((s, t));
            } else {
                ignored += 1;
            }
        }
        for &(s, t) in batch.deletes() {
            if self.delete(s, t) {
                applied_del.push((s, t));
            } else {
                ignored += 1;
            }
        }
        self.snapshot = None;
        let applied = UpdateBatch::from_parts(applied_ins, applied_del);
        let touched_partitions = applied.touched_src_partitions(self.partition_nodes);
        let limit = self.compaction_threshold * self.base.num_edges() as f64;
        let compacted = self.pending > 0 && self.pending as f64 > limit;
        if compacted {
            self.compact_now();
        }
        Ok(ApplyStats {
            applied,
            ignored,
            touched_partitions,
            compacted,
        })
    }

    /// Returns true when the edge was actually added.
    fn insert(&mut self, s: NodeId, t: NodeId) -> bool {
        let in_base = base_count(&self.base, s, t) > 0;
        let q = self.partition_nodes;
        let d = self.parts[(s / q) as usize].nodes.entry(s).or_default();
        if in_base {
            // Present unless tombstoned; inserting revives the tombstone.
            match d.del.binary_search(&t) {
                Ok(i) => {
                    d.del.remove(i);
                    self.pending -= 1;
                    self.num_edges += base_count(&self.base, s, t);
                    true
                }
                Err(_) => false,
            }
        } else {
            match d.add.binary_search(&t) {
                Ok(_) => false,
                Err(i) => {
                    d.add.insert(i, t);
                    self.pending += 1;
                    self.num_edges += 1;
                    true
                }
            }
        }
    }

    /// Returns true when the edge was actually removed.
    fn delete(&mut self, s: NodeId, t: NodeId) -> bool {
        let copies = base_count(&self.base, s, t);
        let q = self.partition_nodes;
        let d = self.parts[(s / q) as usize].nodes.entry(s).or_default();
        if let Ok(i) = d.add.binary_search(&t) {
            d.add.remove(i);
            self.pending -= 1;
            self.num_edges -= 1;
            return true;
        }
        if copies == 0 {
            return false;
        }
        match d.del.binary_search(&t) {
            Ok(_) => false, // already tombstoned
            Err(i) => {
                d.del.insert(i, t);
                self.pending += 1;
                self.num_edges -= copies;
                true
            }
        }
    }

    /// Materializes the current edge set as a shared CSR. Cached until
    /// the next [`DeltaGraph::apply`]; with no pending deltas this is
    /// the base handle itself (zero-copy).
    pub fn snapshot(&mut self) -> Arc<Csr> {
        if let Some(s) = &self.snapshot {
            return Arc::clone(s);
        }
        if self.pending == 0 {
            return Arc::clone(&self.base);
        }
        let snap = Arc::new(self.materialize());
        self.snapshot = Some(Arc::clone(&snap));
        snap
    }

    /// Folds pending deltas into a fresh base CSR and clears them.
    pub fn compact_now(&mut self) {
        if self.pending == 0 {
            return;
        }
        self.base = self.snapshot();
        for p in &mut self.parts {
            p.nodes.clear();
        }
        self.pending = 0;
        debug_assert_eq!(self.num_edges, self.base.num_edges());
        self.num_edges = self.base.num_edges();
    }

    /// Builds the merged CSR: clean rows are block-copied from the base
    /// arrays, dirty rows merged three-way.
    fn materialize(&self) -> Csr {
        let n = self.num_nodes() as usize;
        let base_off = self.base.offsets();
        let base_tgt = self.base.targets();
        let mut offsets = vec![0u64; n + 1];
        // Degree pass: start from the base degrees, adjust dirty rows.
        for v in 0..n {
            offsets[v + 1] = base_off[v + 1] - base_off[v];
        }
        for part in &self.parts {
            for (&v, d) in &part.nodes {
                let row = self.base.neighbors(v);
                let removed: u64 = d.del.iter().map(|t| count_in_sorted(row, *t) as u64).sum();
                offsets[v as usize + 1] += d.add.len() as u64;
                offsets[v as usize + 1] -= removed;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut targets = vec![0 as NodeId; *offsets.last().unwrap_or(&0) as usize];
        for (p, part) in self.parts.iter().enumerate() {
            let q = self.partition_nodes;
            let lo = p as u32 * q;
            let hi = ((p as u32 + 1) * q).min(self.num_nodes());
            let mut dirty = part.nodes.iter().peekable();
            let mut v = lo;
            while v < hi {
                let out_lo = offsets[v as usize] as usize;
                let out_hi = offsets[v as usize + 1] as usize;
                match dirty.peek() {
                    Some(&(&dv, d)) if dv == v => {
                        let merged = merge_row(self.base.neighbors(v), &d.add, &d.del);
                        targets[out_lo..out_hi].copy_from_slice(&merged);
                        dirty.next();
                    }
                    _ => {
                        let b_lo = base_off[v as usize] as usize;
                        let b_hi = base_off[v as usize + 1] as usize;
                        targets[out_lo..out_hi].copy_from_slice(&base_tgt[b_lo..b_hi]);
                    }
                }
                v += 1;
            }
        }
        Csr::from_parts(self.num_nodes(), offsets, targets)
            .expect("merged rows stay sorted and in range")
    }
}

/// Number of copies of `t` in the sorted row (1 for deduped bases).
fn count_in_sorted(row: &[NodeId], t: NodeId) -> usize {
    row.partition_point(|&x| x <= t) - row.partition_point(|&x| x < t)
}

/// Occurrences of `(s, t)` in the base graph.
fn base_count(base: &Csr, s: NodeId, t: NodeId) -> u64 {
    count_in_sorted(base.neighbors(s), t) as u64
}

/// `(base − del) ∪ add`, all inputs sorted, result sorted.
fn merge_row(base: &[NodeId], add: &[NodeId], del: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(base.len() + add.len());
    let mut ai = 0usize;
    for &t in base {
        if del.binary_search(&t).is_ok() {
            continue;
        }
        while ai < add.len() && add[ai] < t {
            out.push(add[ai]);
            ai += 1;
        }
        out.push(t);
    }
    out.extend_from_slice(&add[ai..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcpm_graph::gen::{rmat, RmatConfig};

    fn small() -> Arc<Csr> {
        Arc::new(Csr::from_edges(8, &[(0, 1), (0, 3), (1, 2), (5, 6), (6, 7)]).unwrap())
    }

    #[test]
    fn set_semantics_and_stats() {
        let mut dg = DeltaGraph::new(small(), 4).unwrap();
        let stats = dg
            .apply(&UpdateBatch::from_parts(
                vec![(0, 1), (2, 4)], // (0,1) already present
                vec![(5, 6), (3, 0)], // (3,0) absent
            ))
            .unwrap();
        assert_eq!(stats.ignored, 2);
        assert_eq!(stats.applied.inserts(), &[(2, 4)]);
        assert_eq!(stats.applied.deletes(), &[(5, 6)]);
        assert_eq!(stats.touched_partitions, vec![0, 1]);
        assert_eq!(dg.num_edges(), 5);
        assert!(dg.has_edge(2, 4));
        assert!(!dg.has_edge(5, 6));
        assert_eq!(dg.neighbors(0), vec![1, 3]);
    }

    #[test]
    fn insert_revives_tombstone_and_delete_cancels_insert() {
        let mut dg = DeltaGraph::new(small(), 4).unwrap();
        dg.apply(&UpdateBatch::from_parts(vec![], vec![(0, 1)]))
            .unwrap();
        assert!(!dg.has_edge(0, 1));
        dg.apply(&UpdateBatch::from_parts(vec![(0, 1)], vec![]))
            .unwrap();
        assert!(dg.has_edge(0, 1));
        assert_eq!(dg.pending_ops(), 0, "revival cancels the tombstone");
        dg.apply(&UpdateBatch::from_parts(vec![(4, 5)], vec![]))
            .unwrap();
        dg.apply(&UpdateBatch::from_parts(vec![], vec![(4, 5)]))
            .unwrap();
        assert_eq!(dg.pending_ops(), 0, "delete cancels the pending insert");
        assert_eq!(dg.num_edges(), 5);
    }

    #[test]
    fn snapshot_matches_rebuilt_edge_set() {
        let base = Arc::new(rmat(&RmatConfig::graph500(7, 6, 5)).unwrap());
        let mut dg = DeltaGraph::new(Arc::clone(&base), 16)
            .unwrap()
            .with_compaction_threshold(f64::INFINITY)
            .unwrap();
        let batch = UpdateBatch::from_parts(
            vec![(0, 100), (1, 101), (120, 2)],
            base.neighbors(3)
                .first()
                .map(|&t| (3, t))
                .into_iter()
                .collect(),
        );
        let stats = dg.apply(&batch).unwrap();
        let mut edges: Vec<(u32, u32)> = base.edges().collect();
        edges.retain(|e| stats.applied.deletes().binary_search(e).is_err());
        edges.extend_from_slice(stats.applied.inserts());
        edges.sort_unstable();
        edges.dedup();
        let want = Csr::from_edges(base.num_nodes(), &edges).unwrap();
        assert_eq!(*dg.snapshot(), want);
        assert_eq!(dg.num_edges(), want.num_edges());
        // Cached snapshot is reused.
        assert!(Arc::ptr_eq(&dg.snapshot(), &dg.snapshot()));
    }

    #[test]
    fn clean_overlay_snapshot_is_the_base_handle() {
        let base = small();
        let mut dg = DeltaGraph::new(Arc::clone(&base), 4).unwrap();
        assert!(Arc::ptr_eq(&dg.snapshot(), &base));
        assert!(!dg.is_dirty());
    }

    #[test]
    fn threshold_triggers_compaction() {
        let base = small(); // 5 edges, threshold 0.25 -> compact above 1.25 pending
        let mut dg = DeltaGraph::new(Arc::clone(&base), 4).unwrap();
        let s1 = dg
            .apply(&UpdateBatch::from_parts(vec![(2, 3)], vec![]))
            .unwrap();
        assert!(!s1.compacted);
        let s2 = dg
            .apply(&UpdateBatch::from_parts(vec![(2, 5)], vec![]))
            .unwrap();
        assert!(s2.compacted);
        assert!(!dg.is_dirty());
        assert_eq!(dg.base().num_edges(), 7);
        assert!(!Arc::ptr_eq(dg.base(), &base));
        // Explicit compaction of a clean overlay is a no-op.
        let b = Arc::clone(dg.base());
        dg.compact_now();
        assert!(Arc::ptr_eq(dg.base(), &b));
    }

    #[test]
    fn zero_threshold_compacts_every_batch() {
        let mut dg = DeltaGraph::new(small(), 4)
            .unwrap()
            .with_compaction_threshold(0.0)
            .unwrap();
        let s = dg
            .apply(&UpdateBatch::from_parts(vec![(7, 0)], vec![]))
            .unwrap();
        assert!(s.compacted);
        assert!(!dg.is_dirty());
        assert!(dg.has_edge(7, 0));
    }

    #[test]
    fn rejects_out_of_range_and_bad_config() {
        let mut dg = DeltaGraph::new(small(), 4).unwrap();
        assert!(dg
            .apply(&UpdateBatch::from_parts(vec![(0, 99)], vec![]))
            .is_err());
        assert!(DeltaGraph::new(small(), 0).is_err());
        assert!(DeltaGraph::new(small(), 4)
            .unwrap()
            .with_compaction_threshold(-1.0)
            .is_err());
    }

    #[test]
    fn empty_base() {
        let mut dg = DeltaGraph::new(Arc::new(Csr::from_edges(0, &[]).unwrap()), 4).unwrap();
        assert_eq!(dg.num_partitions(), 0);
        let s = dg.apply(&UpdateBatch::default()).unwrap();
        assert!(s.applied.is_empty());
        assert_eq!(dg.snapshot().num_nodes(), 0);
    }
}
