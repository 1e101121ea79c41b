//! Katz centrality on the PCPM engine.
//!
//! `x ← α·Aᵀx + β·1`, converging to `β(I − αAᵀ)⁻¹·1` for
//! `α < 1/λ_max(A)`. Another instance of the [`fixed_point`] loop, so it
//! inherits the partition-centric memory behavior unchanged.

use pcpm_core::algebra::PlusF32;
use pcpm_core::backend::{BackendKind, Engine};
use pcpm_core::config::PcpmConfig;
use pcpm_core::error::PcpmError;
use pcpm_core::fixed_point::{fixed_point, FixedPoint};
use pcpm_graph::Csr;

/// Parameters for Katz centrality.
#[derive(Clone, Copy, Debug)]
pub struct KatzConfig {
    /// Attenuation factor `α`; must keep `α·λ_max < 1` to converge. A
    /// safe generic choice is `1 / (max_in_degree + 1)`.
    pub alpha: f32,
    /// Base score `β` added to every node each round.
    pub beta: f32,
    /// Maximum iterations.
    pub max_iters: usize,
    /// L1 convergence tolerance.
    pub tolerance: f64,
}

impl KatzConfig {
    /// A conservative configuration guaranteed to converge on `graph`:
    /// `α = 1 / (max_in_degree + 1)` bounds `α·λ_max < 1`.
    pub fn conservative(graph: &Csr) -> Self {
        let max_in = graph.in_degrees().into_iter().max().unwrap_or(0);
        Self {
            alpha: 1.0 / (max_in as f32 + 1.0),
            beta: 1.0,
            max_iters: 200,
            tolerance: 1e-7,
        }
    }
}

/// Computes Katz centrality; returns the score vector and the number of
/// iterations run.
pub fn katz_centrality(
    graph: &Csr,
    cfg: &PcpmConfig,
    katz: &KatzConfig,
) -> Result<(Vec<f32>, usize), PcpmError> {
    katz_centrality_on(graph, cfg, katz, BackendKind::Pcpm)
}

/// As [`katz_centrality`], through any backend dataplane.
pub fn katz_centrality_on(
    graph: &Csr,
    cfg: &PcpmConfig,
    katz: &KatzConfig,
    backend: BackendKind,
) -> Result<(Vec<f32>, usize), PcpmError> {
    cfg.validate()?;
    // NaNs must be rejected too, hence the explicit finite checks.
    if !katz.alpha.is_finite()
        || katz.alpha <= 0.0
        || !katz.tolerance.is_finite()
        || katz.tolerance <= 0.0
    {
        return Err(PcpmError::BadConfig("alpha and tolerance must be positive"));
    }
    let n = graph.num_nodes() as usize;
    let mut engine = Engine::<PlusF32>::builder(graph)
        .config(*cfg)
        .backend(backend)
        .build()?;
    // A node propagates its score as it is, and none is dangling.
    let spec = FixedPoint {
        scale: &vec![1.0; n],
        max_iterations: katz.max_iters,
        tolerance: Some(katz.tolerance),
        dangling: false,
        graph: Some(graph),
    };
    let (alpha, beta) = (katz.alpha, katz.beta);
    let mut runs = fixed_point(&mut engine, &spec, vec![vec![beta; n]], |_, _| {
        move |sum, _, _| alpha * sum + beta
    })?;
    let run = runs.remove(0);
    Ok((run.scores, run.iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};

    fn oracle(graph: &Csr, katz: &KatzConfig) -> Vec<f64> {
        let n = graph.num_nodes() as usize;
        let mut x = vec![f64::from(katz.beta); n];
        for _ in 0..katz.max_iters {
            let mut ax = vec![0.0f64; n];
            for (s, t) in graph.edges() {
                ax[t as usize] += x[s as usize];
            }
            let mut delta = 0.0;
            for v in 0..n {
                let new = f64::from(katz.alpha) * ax[v] + f64::from(katz.beta);
                delta += (new - x[v]).abs();
                x[v] = new;
            }
            if delta < katz.tolerance {
                break;
            }
        }
        x
    }

    #[test]
    fn matches_serial_oracle() {
        let g = rmat(&RmatConfig::graph500(9, 8, 91)).unwrap();
        let cfg = PcpmConfig::default().with_partition_bytes(512);
        let katz = KatzConfig::conservative(&g);
        let (got, iters) = katz_centrality(&g, &cfg, &katz).unwrap();
        assert!(iters < katz.max_iters, "did not converge");
        let want = oracle(&g, &katz);
        let scale = want.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
        for (v, (&a, &b)) in got.iter().zip(&want).enumerate() {
            assert!(
                (f64::from(a) - b).abs() < 1e-3 * scale,
                "node {v}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn high_in_degree_nodes_score_higher() {
        // Star into node 0.
        let g = Csr::from_edges(5, &[(1, 0), (2, 0), (3, 0), (4, 0)]).unwrap();
        let (scores, _) =
            katz_centrality(&g, &PcpmConfig::default(), &KatzConfig::conservative(&g)).unwrap();
        for leaf in 1..5 {
            assert!(scores[0] > scores[leaf]);
        }
    }

    #[test]
    fn isolated_nodes_get_exactly_beta() {
        let g = Csr::from_edges(3, &[(0, 1)]).unwrap();
        let katz = KatzConfig::conservative(&g);
        let (scores, _) = katz_centrality(&g, &PcpmConfig::default(), &katz).unwrap();
        assert_eq!(scores[2], katz.beta);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let g = erdos_renyi(10, 30, 1).unwrap();
        let mut katz = KatzConfig::conservative(&g);
        katz.alpha = 0.0;
        assert!(katz_centrality(&g, &PcpmConfig::default(), &katz).is_err());
    }
}
