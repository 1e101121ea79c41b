//! [`UpdateLog`]: the batching front end of the streaming subsystem.
//!
//! Edge changes arrive one at a time (a crawler found a link, a user
//! unfollowed); the log validates each op against the graph's node
//! range, buffers them in arrival order, and [`UpdateLog::seal`]s them
//! into a canonical [`UpdateBatch`] — deduplicated with last-op-wins
//! semantics, ready for [`merge`](crate::merge).

use crate::error::StreamError;
use pcpm_core::update::{EdgeOp, EdgeUpdate, UpdateBatch};
use pcpm_graph::NodeId;

/// Validating, order-preserving buffer of pending edge ops.
///
/// # Examples
///
/// ```
/// use pcpm_stream::UpdateLog;
///
/// let mut log = UpdateLog::new(16);
/// log.insert(0, 1).unwrap();
/// log.delete(0, 1).unwrap(); // cancels the insert
/// log.insert(2, 3).unwrap();
/// let batch = log.seal();
/// assert_eq!(batch.inserts(), &[(2, 3)]);
/// assert_eq!(batch.deletes(), &[(0, 1)]);
/// assert!(log.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct UpdateLog {
    num_nodes: u32,
    ops: Vec<EdgeUpdate>,
}

impl UpdateLog {
    /// A log validating ops against a graph of `num_nodes` nodes.
    pub fn new(num_nodes: u32) -> Self {
        Self {
            num_nodes,
            ops: Vec::new(),
        }
    }

    /// Buffers an insert of `src -> dst`.
    pub fn insert(&mut self, src: NodeId, dst: NodeId) -> Result<(), StreamError> {
        self.push(EdgeUpdate {
            op: EdgeOp::Insert,
            src,
            dst,
        })
    }

    /// Buffers a delete of `src -> dst`.
    pub fn delete(&mut self, src: NodeId, dst: NodeId) -> Result<(), StreamError> {
        self.push(EdgeUpdate {
            op: EdgeOp::Delete,
            src,
            dst,
        })
    }

    /// Buffers one op, validating its endpoints.
    pub fn push(&mut self, u: EdgeUpdate) -> Result<(), StreamError> {
        let max = u.src.max(u.dst);
        if max >= self.num_nodes {
            return Err(StreamError::NodeOutOfRange {
                node: max,
                num_nodes: self.num_nodes,
            });
        }
        self.ops.push(u);
        Ok(())
    }

    /// Buffered op count (before dedup).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drains the buffer into a canonical batch: per edge the last op
    /// wins, duplicates collapse, inserts/deletes come out sorted.
    pub fn seal(&mut self) -> UpdateBatch {
        let batch = UpdateBatch::from_ops(&self.ops);
        self.ops.clear();
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_node_range() {
        let mut log = UpdateLog::new(4);
        assert!(log.insert(0, 3).is_ok());
        assert!(matches!(
            log.insert(0, 4),
            Err(StreamError::NodeOutOfRange { node: 4, .. })
        ));
        assert!(log.delete(9, 0).is_err());
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn last_op_wins_across_the_buffer() {
        let mut log = UpdateLog::new(10);
        log.insert(1, 2).unwrap();
        log.delete(1, 2).unwrap();
        log.delete(3, 4).unwrap();
        log.insert(3, 4).unwrap();
        let b = log.seal();
        assert_eq!(b.inserts(), &[(3, 4)]);
        assert_eq!(b.deletes(), &[(1, 2)]);
        assert!(log.seal().is_empty());
    }
}
