//! Pull-Direction PageRank (paper Algorithm 1).
//!
//! Each vertex pulls the scaled values of its in-neighbors — a column-major
//! traversal of the adjacency matrix over the CSC (the transpose CSR).
//! Columns own their outputs, so the traversal is embarrassingly parallel
//! and needs no partial-sum storage; the cost is fine-grained random reads
//! into the source-value vector, the paper's Fig. 1 traffic culprit.
//!
//! The kernel itself is [`pcpm_core::backend::PullBackend`] — the same
//! dataplane `BackendKind::Pull` selects, with the §5.2 edge-balanced
//! static split — so PDPR is this crate's name for it, not a second copy.

use crate::baseline_engine;
use pcpm_core::algebra::PlusF32;
use pcpm_core::backend::{Engine, PullBackend};
use pcpm_core::config::PcpmConfig;
use pcpm_core::error::PcpmError;
use pcpm_core::pagerank::pagerank_with_unified_engine;
use pcpm_core::pr::PrResult;
use pcpm_graph::Csr;
use std::time::Duration;

/// Builds a unified [`Engine`] over the PDPR pull dataplane.
///
/// # Examples
///
/// ```
/// use pcpm_graph::gen::erdos_renyi;
/// use pcpm_baselines::pdpr_engine;
/// use pcpm_core::PcpmConfig;
///
/// let g = erdos_renyi(100, 600, 1).unwrap();
/// let mut engine = pdpr_engine(&g, &PcpmConfig::default()).unwrap();
/// let x = vec![1.0f32; 100];
/// let mut y = vec![0.0f32; 100];
/// engine.step(&x, &mut y).unwrap();
/// assert_eq!(y.iter().sum::<f32>(), g.num_edges() as f32);
/// ```
pub fn pdpr_engine(graph: &Csr, cfg: &PcpmConfig) -> Result<Engine<PlusF32>, PcpmError> {
    baseline_engine::<PullBackend<PlusF32>>(graph, cfg)
}

/// Runs PageRank in the pull direction.
///
/// The paper assumes CSR and CSC are both available as inputs, so
/// [`PrResult::preprocess`] is reported as zero for this kernel; the
/// transpose cost is visible as `pdpr_engine(..).report().preprocess`.
pub fn pdpr(graph: &Csr, cfg: &PcpmConfig) -> Result<PrResult, PcpmError> {
    let mut engine = pdpr_engine(graph, cfg)?;
    let mut result = pagerank_with_unified_engine(graph, cfg, &mut engine, None)?;
    result.preprocess = Duration::ZERO;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::assert_matches_oracle;
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};

    #[test]
    fn matches_oracle() {
        let g = rmat(&RmatConfig::graph500(9, 8, 6)).unwrap();
        let cfg = PcpmConfig::default().with_iterations(8);
        let r = pdpr(&g, &cfg).unwrap();
        assert_matches_oracle(&r.scores, &g, &cfg, 1e-3);
    }

    #[test]
    fn matches_oracle_with_dangling_redistribution() {
        let g = erdos_renyi(300, 900, 2).unwrap();
        let mut cfg = PcpmConfig::default().with_iterations(10);
        cfg.redistribute_dangling = true;
        let r = pdpr(&g, &cfg).unwrap();
        assert_matches_oracle(&r.scores, &g, &cfg, 1e-3);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]).unwrap();
        let r = pdpr(&g, &PcpmConfig::default()).unwrap();
        assert!(r.scores.is_empty());
    }

    #[test]
    fn preprocess_reported_as_zero() {
        let g = erdos_renyi(100, 400, 1).unwrap();
        let r = pdpr(&g, &PcpmConfig::default().with_iterations(2)).unwrap();
        assert_eq!(r.preprocess, Duration::ZERO);
    }
}
