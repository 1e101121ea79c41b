//! Reverse Cuthill–McKee ordering.
//!
//! The classical bandwidth-minimizing ordering the paper's related work
//! cites (Liu & Sherman \[22\]): BFS from a low-degree peripheral node,
//! visiting neighbors in ascending degree order, then reverse the
//! labeling. Cheap, and a useful mid-point between BFS and GOrder in the
//! locality ablations.

use crate::csr::Csr;
use std::collections::VecDeque;

/// Computes the RCM permutation (`perm[old] = new`) over the undirected
/// closure of `graph` (Cuthill–McKee is defined for symmetric matrices).
pub fn rcm_order(graph: &Csr) -> Vec<u32> {
    let n = graph.num_nodes() as usize;
    if n == 0 {
        return Vec::new();
    }
    let undirected = graph.symmetrize();
    let degree: Vec<u32> = (0..n as u32).map(|v| undirected.out_degree(v)).collect();
    let mut cm: Vec<u32> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    let mut nbrs_buf: Vec<u32> = Vec::new();

    // Seed each component from its minimum-degree unvisited node
    // (cheap stand-in for a true peripheral search).
    loop {
        let seed = (0..n as u32)
            .filter(|&v| !visited[v as usize])
            .min_by_key(|&v| (degree[v as usize], v));
        let seed = match seed {
            Some(s) => s,
            None => break,
        };
        visited[seed as usize] = true;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            cm.push(v);
            nbrs_buf.clear();
            nbrs_buf.extend(
                undirected
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&t| !visited[t as usize]),
            );
            nbrs_buf.sort_by_key(|&t| (degree[t as usize], t));
            for &t in &nbrs_buf {
                visited[t as usize] = true;
                queue.push_back(t);
            }
        }
    }
    // Reverse: the last Cuthill–McKee node gets label 0.
    let mut perm = vec![0u32; n];
    for (pos, &old) in cm.iter().rev().enumerate() {
        perm[old as usize] = pos as u32;
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::permute::{apply_permutation, validate_permutation};

    #[test]
    fn valid_permutation_on_disconnected_graph() {
        let g = Csr::from_edges(7, &[(0, 1), (1, 2), (4, 5), (5, 6)]).unwrap();
        let perm = rcm_order(&g);
        validate_permutation(7, &perm).unwrap();
    }

    #[test]
    fn reduces_bandwidth_of_shuffled_chain() {
        use crate::order::random::random_order;
        // A chain has bandwidth 1 under its natural order; shuffle it and
        // check RCM recovers a small bandwidth.
        let n = 256u32;
        let edges: Vec<_> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let chain = Csr::from_edges(n, &edges).unwrap();
        let shuffled = apply_permutation(&chain, &random_order(n, 3)).unwrap();
        let bandwidth = |g: &Csr| -> u64 {
            g.edges()
                .map(|(s, t)| (i64::from(s) - i64::from(t)).unsigned_abs())
                .max()
                .unwrap()
        };
        let before = bandwidth(&shuffled);
        let after = bandwidth(&apply_permutation(&shuffled, &rcm_order(&shuffled)).unwrap());
        assert!(after <= 2, "RCM bandwidth {after} (was {before})");
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]).unwrap();
        assert!(rcm_order(&g).is_empty());
    }

    #[test]
    fn isolated_nodes_are_labeled() {
        let g = Csr::from_edges(3, &[]).unwrap();
        let perm = rcm_order(&g);
        validate_permutation(3, &perm).unwrap();
    }
}
