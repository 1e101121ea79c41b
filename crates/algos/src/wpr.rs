//! Weighted PageRank: transition probability proportional to edge weight.
//!
//! The §3.5 weighted extension end to end: weights ride in the destID
//! bins, the gather multiplies them into the updates, and the
//! [`fixed_point`] loop scales each vertex by its total outgoing weight
//! instead of its out-degree.

use pcpm_core::algebra::PlusF32;
use pcpm_core::backend::{BackendKind, Engine};
use pcpm_core::config::PcpmConfig;
use pcpm_core::error::PcpmError;
use pcpm_core::fixed_point::{fixed_point, FixedPoint};
use pcpm_core::pr::PrResult;
use pcpm_graph::{Csr, EdgeWeights};

/// Runs PageRank where a surfer follows edge `(u, v)` with probability
/// `w(u,v) / Σ_t w(u,t)`. Weights must be non-negative; nodes whose
/// outgoing weight sums to zero are treated as dangling.
pub fn weighted_pagerank(
    graph: &Csr,
    weights: &EdgeWeights,
    cfg: &PcpmConfig,
) -> Result<PrResult, PcpmError> {
    weighted_pagerank_on(graph, weights, cfg, BackendKind::Pcpm)
}

/// As [`weighted_pagerank`], through any backend dataplane (the weights
/// ride in whatever auxiliary stream the backend builds).
pub fn weighted_pagerank_on(
    graph: &Csr,
    weights: &EdgeWeights,
    cfg: &PcpmConfig,
    backend: BackendKind,
) -> Result<PrResult, PcpmError> {
    // Reject bad weights before paying for the engine prepare.
    validate_weights(weights)?;
    let mut engine = Engine::<PlusF32>::builder(graph)
        .config(*cfg)
        .weights(weights)
        .backend(backend)
        .build()?;
    weighted_pagerank_with_unified_engine(graph, weights, cfg, &mut engine)
}

fn validate_weights(weights: &EdgeWeights) -> Result<(), PcpmError> {
    if weights.as_slice().iter().any(|&w| w < 0.0) {
        return Err(PcpmError::BadConfig(
            "weighted pagerank requires non-negative weights",
        ));
    }
    Ok(())
}

/// As [`weighted_pagerank_on`], on a pre-built unified engine (prepared
/// with the same `weights`) — lets callers keep the engine around to
/// read its [`ExecutionReport`](pcpm_core::ExecutionReport) afterwards
/// or amortize pre-processing.
pub fn weighted_pagerank_with_unified_engine(
    graph: &Csr,
    weights: &EdgeWeights,
    cfg: &PcpmConfig,
    engine: &mut Engine<PlusF32>,
) -> Result<PrResult, PcpmError> {
    cfg.validate()?;
    validate_weights(weights)?;
    let n = graph.num_nodes() as usize;
    // An engine that was demonstrably prepared *without* weights would
    // silently compute unweighted ranks — refuse instead.
    if engine.prepared_weighted() == Some(false) {
        return Err(PcpmError::BadConfig(
            "weighted pagerank needs an engine built with .weights(..)",
        ));
    }
    let damping = cfg.damping as f32;
    let base = ((1.0 - cfg.damping) / n as f64) as f32;
    // One over the total outgoing weight per node (the weighted
    // out-degree); a node whose weights sum to zero is dangling.
    let inverse = |w: f64| if w > 0.0 { (1.0 / w) as f32 } else { 0.0 };
    let inv_weight: Vec<f32> = (0..graph.num_nodes())
        .map(|v| inverse(weights.row(graph, v).iter().map(|&w| f64::from(w)).sum()))
        .collect();
    let spec = FixedPoint {
        scale: &inv_weight,
        max_iterations: cfg.iterations,
        tolerance: cfg.tolerance,
        dangling: cfg.redistribute_dangling,
        graph: None,
    };
    let uniform = vec![1.0 / n as f32; n];
    let mut runs = fixed_point(engine, &spec, vec![uniform], |_, dangling| {
        let bonus = (cfg.damping * dangling / n as f64) as f32;
        move |sum, _, _| base + damping * sum + bonus
    })?;
    Ok(runs.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};

    fn oracle(graph: &Csr, weights: &EdgeWeights, cfg: &PcpmConfig) -> Vec<f64> {
        let n = graph.num_nodes() as usize;
        let d = cfg.damping;
        let mut out_w = vec![0.0f64; n];
        for v in 0..graph.num_nodes() {
            out_w[v as usize] = weights.row(graph, v).iter().map(|&w| f64::from(w)).sum();
        }
        let mut pr = vec![1.0 / n as f64; n];
        for _ in 0..cfg.iterations {
            let mut sums = vec![0.0f64; n];
            let mut idx = 0usize;
            for v in 0..graph.num_nodes() {
                for &t in graph.neighbors(v) {
                    if out_w[v as usize] > 0.0 {
                        sums[t as usize] +=
                            pr[v as usize] * f64::from(weights.as_slice()[idx]) / out_w[v as usize];
                    }
                    idx += 1;
                }
            }
            for v in 0..n {
                pr[v] = (1.0 - d) / n as f64 + d * sums[v];
            }
        }
        pr
    }

    #[test]
    fn matches_serial_weighted_oracle() {
        let g = rmat(&RmatConfig::graph500(9, 8, 55)).unwrap();
        let w = EdgeWeights::random(&g, 9);
        let cfg = PcpmConfig::default()
            .with_iterations(12)
            .with_partition_bytes(512);
        let got = weighted_pagerank(&g, &w, &cfg).unwrap();
        let want = oracle(&g, &w, &cfg);
        let scale = want.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
        for (v, (&a, &b)) in got.scores.iter().zip(&want).enumerate() {
            assert!(
                (f64::from(a) - b).abs() < 2e-3 * scale,
                "node {v}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn unit_weights_reduce_to_plain_pagerank() {
        let g = erdos_renyi(300, 2400, 14).unwrap();
        let w = EdgeWeights::ones(&g);
        let cfg = PcpmConfig::default().with_iterations(10);
        let weighted = weighted_pagerank(&g, &w, &cfg).unwrap();
        let plain = pcpm_core::pagerank::pagerank(&g, &cfg).unwrap();
        for (v, (&a, &b)) in weighted.scores.iter().zip(&plain.scores).enumerate() {
            assert!((a - b).abs() < 1e-6, "node {v}: {a} vs {b}");
        }
    }

    #[test]
    fn heavier_edges_attract_more_rank() {
        // 0 splits its rank between 1 (weight 9) and 2 (weight 1).
        let g = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 0), (2, 0)]).unwrap();
        let w = EdgeWeights::new(&g, vec![9.0, 1.0, 1.0, 1.0]).unwrap();
        let r = weighted_pagerank(&g, &w, &PcpmConfig::default().with_iterations(50)).unwrap();
        assert!(r.scores[1] > 2.0 * r.scores[2], "{:?}", r.scores);
    }

    #[test]
    fn negative_weights_rejected() {
        let g = Csr::from_edges(2, &[(0, 1)]).unwrap();
        let w = EdgeWeights::new(&g, vec![-0.5]).unwrap();
        assert!(weighted_pagerank(&g, &w, &PcpmConfig::default()).is_err());
    }

    #[test]
    fn unweighted_engine_rejected() {
        // Passing an engine built WITHOUT .weights(..) must error, not
        // silently return unweighted ranks.
        let g = erdos_renyi(50, 200, 4).unwrap();
        let w = EdgeWeights::random(&g, 1);
        let cfg = PcpmConfig::default().with_iterations(3);
        let mut unweighted = Engine::<PlusF32>::builder(&g).config(cfg).build().unwrap();
        assert!(matches!(
            weighted_pagerank_with_unified_engine(&g, &w, &cfg, &mut unweighted),
            Err(PcpmError::BadConfig(_))
        ));
        let mut weighted = Engine::<PlusF32>::builder(&g)
            .config(cfg)
            .weights(&w)
            .build()
            .unwrap();
        assert!(weighted_pagerank_with_unified_engine(&g, &w, &cfg, &mut weighted).is_ok());
    }

    #[test]
    fn zero_weight_rows_are_dangling() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let w = EdgeWeights::new(&g, vec![1.0, 0.0]).unwrap();
        let r = weighted_pagerank(&g, &w, &PcpmConfig::default().with_iterations(10)).unwrap();
        // Node 1's only out-edge has zero weight: node 2 receives only
        // teleport mass.
        let teleport_only = (1.0 - 0.85) / 3.0;
        assert!(
            (r.scores[2] - teleport_only as f32).abs() < 1e-6,
            "{:?}",
            r.scores
        );
    }
}
