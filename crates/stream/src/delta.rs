//! One epoch's edge-set change: [`merge`] reads the current [`Csr`] and
//! one canonical [`UpdateBatch`] and writes the next `Csr` in a single
//! sequential pass.
//!
//! The PCPM bins are a pre-processing artifact of a frozen CSR, so a
//! streaming deployment rebuilds them from a whole CSR per batch
//! ([`Engine::update`](pcpm_core::Engine::update)). The merge produces
//! that CSR: runs of untouched rows are block-copied, touched rows are
//! merged with their inserts and deletes. [`DeltaGraph`] is the handle a
//! caller keeps across batches: the current graph plus the partition
//! size that [`ApplyStats::touched_partitions`] is reported in.
//!
//! Semantics are those of a directed edge *set*: an insert of a present
//! edge and a delete of an absent one are ignored (and counted). A base
//! built with duplicate edges is tolerated; a delete drops every copy.

use crate::error::StreamError;
use pcpm_core::update::UpdateBatch;
use pcpm_graph::{Csr, NodeId};
use std::ops::Range;
use std::sync::Arc;

/// One [`merge`]: the next graph and the part of the batch that changed
/// the edge set.
#[derive(Clone, Debug)]
pub struct Merged {
    /// The post-batch graph.
    pub graph: Csr,
    /// The effective sub-batch: inserts of absent edges and deletes of
    /// present ones. This is the batch to hand to `Engine::update`.
    pub applied: UpdateBatch,
    /// Requested ops that were no-ops against `graph`'s predecessor.
    pub ignored: usize,
}

/// Applies `batch` to `graph` and returns the next graph.
///
/// # Examples
///
/// ```
/// use pcpm_graph::Csr;
/// use pcpm_core::UpdateBatch;
/// use pcpm_stream::merge;
///
/// let g = Csr::from_edges(8, &[(0, 1), (1, 2), (6, 7)]).unwrap();
/// let m = merge(&g, &UpdateBatch::from_parts(vec![(2, 3), (0, 1)], vec![(6, 7)])).unwrap();
/// assert_eq!(m.applied.len(), 2);
/// assert_eq!(m.ignored, 1); // (0, 1) was already present
/// assert_eq!(m.graph.neighbors(2), &[3]);
/// assert_eq!(m.graph.neighbors(6), &[] as &[u32]);
/// ```
pub fn merge(graph: &Csr, batch: &UpdateBatch) -> Result<Merged, StreamError> {
    let n = graph.num_nodes();
    if let Some(max) = batch.max_node() {
        if max >= n {
            return Err(StreamError::NodeOutOfRange {
                node: max,
                num_nodes: n,
            });
        }
    }
    let (off, tgt) = (graph.offsets(), graph.targets());
    let mut offsets = Vec::with_capacity(n as usize + 1);
    offsets.push(0u64);
    let mut targets = Vec::with_capacity(tgt.len() + batch.inserts().len());
    let (mut added, mut dropped) = (Vec::new(), Vec::new());
    let (mut ins, mut del) = (batch.inserts(), batch.deletes());
    let mut next = 0usize; // first row not yet written
    while let Some(&(s, _)) = ins.first().into_iter().chain(del.first()).min() {
        let (row_ins, rest) = ins.split_at(ins.partition_point(|e| e.0 == s));
        ins = rest;
        let (row_del, rest) = del.split_at(del.partition_point(|e| e.0 == s));
        del = rest;
        let s = s as usize;
        copy_rows(off, tgt, next..s, &mut offsets, &mut targets);
        let row = &tgt[off[s] as usize..off[s + 1] as usize];
        let present = |e: &&(NodeId, NodeId)| row.binary_search(&e.1).is_ok();
        let (a, d) = (added.len(), dropped.len());
        added.extend(row_ins.iter().filter(|e| !present(e)));
        dropped.extend(row_del.iter().filter(present));
        merge_row(row, &added[a..], &dropped[d..], &mut targets);
        offsets.push(targets.len() as u64);
        next = s + 1;
    }
    copy_rows(off, tgt, next..n as usize, &mut offsets, &mut targets);
    let ignored = batch.len() - added.len() - dropped.len();
    Ok(Merged {
        graph: Csr::from_parts(n, offsets, targets).expect("merged rows stay sorted and in range"),
        applied: UpdateBatch::from_parts(added, dropped),
        ignored,
    })
}

/// Block-copies the untouched `rows` of (`off`, `tgt`) onto the end of
/// the output arrays.
fn copy_rows(
    off: &[u64],
    tgt: &[NodeId],
    rows: Range<usize>,
    offsets: &mut Vec<u64>,
    targets: &mut Vec<NodeId>,
) {
    let (lo, hi) = (off[rows.start], off[rows.end]);
    let shift = targets.len() as u64;
    targets.extend_from_slice(&tgt[lo as usize..hi as usize]);
    offsets.extend(
        off[rows.start + 1..=rows.end]
            .iter()
            .map(|&o| o - lo + shift),
    );
}

/// Writes `row` without any copy of a `drop` target and with the `add`
/// targets merged in. All three are sorted; no `add` target is in `row`.
fn merge_row(
    row: &[NodeId],
    add: &[(NodeId, NodeId)],
    drop: &[(NodeId, NodeId)],
    out: &mut Vec<NodeId>,
) {
    let mut add = add.iter().map(|e| e.1).peekable();
    let mut drop = drop.iter().map(|e| e.1).peekable();
    for &t in row {
        while drop.next_if(|&d| d < t).is_some() {}
        if drop.peek() == Some(&t) {
            continue;
        }
        while let Some(a) = add.next_if(|&a| a < t) {
            out.push(a);
        }
        out.push(t);
    }
    out.extend(add);
}

/// What one [`DeltaGraph::apply`] call changed.
#[derive(Clone, Debug)]
pub struct ApplyStats {
    /// The effective sub-batch (see [`Merged::applied`]).
    pub applied: UpdateBatch,
    /// Requested ops that were no-ops against the current edge set.
    pub ignored: usize,
    /// Source partitions whose adjacency actually changed (sorted).
    pub touched_partitions: Vec<u32>,
}

/// A streaming graph: the current [`Csr`], advanced one [`merge`] per
/// batch, plus the source-partition size the touched partitions are
/// reported in.
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
/// let snap = dg.snapshot();
/// assert_eq!(snap.num_edges(), 3);
/// assert_eq!(snap.neighbors(2), &[3]);
/// ```
#[derive(Clone, Debug)]
pub struct DeltaGraph {
    graph: Arc<Csr>,
    partition_nodes: u32,
}

impl DeltaGraph {
    /// Starts from `graph` with partitions of `partition_nodes` source
    /// nodes — use the engine's partition size so touched-partition
    /// reporting matches its bins.
    pub fn new(graph: Arc<Csr>, partition_nodes: u32) -> Result<Self, StreamError> {
        if partition_nodes == 0 {
            return Err(StreamError::BadConfig("partition_nodes must be at least 1"));
        }
        Ok(Self {
            graph,
            partition_nodes,
        })
    }

    /// Merges a canonical batch into the current graph.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<ApplyStats, StreamError> {
        let Merged {
            graph,
            applied,
            ignored,
        } = merge(&self.graph, batch)?;
        self.graph = Arc::new(graph);
        let touched_partitions = applied.touched_src_partitions(self.partition_nodes);
        Ok(ApplyStats {
            applied,
            ignored,
            touched_partitions,
        })
    }

    /// The current graph.
    pub fn snapshot(&self) -> Arc<Csr> {
        Arc::clone(&self.graph)
    }
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
        let snap = dg.snapshot();
        assert_eq!(snap.num_edges(), 5);
        assert_eq!(snap.neighbors(2), &[4]);
        assert_eq!(snap.neighbors(5), &[] as &[u32]);
        assert_eq!(snap.neighbors(0), &[1, 3]);
    }

    #[test]
    fn a_delete_drops_every_copy() {
        let base = Csr::from_edges(3, &[(0, 1), (0, 1), (0, 2), (1, 2), (1, 2)]).unwrap();
        let m = merge(&base, &UpdateBatch::from_parts(vec![(1, 0)], vec![(0, 1)])).unwrap();
        assert_eq!(m.ignored, 0);
        assert_eq!(m.graph.neighbors(0), &[2]);
        assert_eq!(m.graph.neighbors(1), &[0, 2, 2], "untouched copies stay");
    }

    #[test]
    fn snapshot_matches_rebuilt_edge_set() {
        let base = Arc::new(rmat(&RmatConfig::graph500(7, 6, 5)).unwrap());
        let mut dg = DeltaGraph::new(Arc::clone(&base), 16).unwrap();
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
    }

    #[test]
    fn rejects_out_of_range_and_bad_config() {
        let mut dg = DeltaGraph::new(small(), 4).unwrap();
        assert!(matches!(
            dg.apply(&UpdateBatch::from_parts(vec![(0, 99)], vec![])),
            Err(StreamError::NodeOutOfRange { node: 99, .. })
        ));
        assert!(DeltaGraph::new(small(), 0).is_err());
    }

    #[test]
    fn empty_base() {
        let mut dg = DeltaGraph::new(Arc::new(Csr::from_edges(0, &[]).unwrap()), 4).unwrap();
        let s = dg.apply(&UpdateBatch::default()).unwrap();
        assert!(s.applied.is_empty());
        assert_eq!(dg.snapshot().num_nodes(), 0);
    }
}
