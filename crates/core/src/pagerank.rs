//! PCPM PageRank driver (Algorithms 2–4 end to end) on the unified
//! [`Engine`] API.
//!
//! Implements the iteration of Eq. 1 as an instance of the one
//! [`fixed_point`] driver, with the *scaled-value* convention of
//! Algorithm 2: the propagated array holds `PR(v) / |No(v)|`, so the
//! scatter phase copies values verbatim, and the damping update and the
//! next iteration's out-degree division happen inside the gather, on
//! each partition as it completes (Algorithm 4). Dangling nodes
//! propagate nothing; their mass is dropped (the paper's convention)
//! unless [`PcpmConfig::redistribute_dangling`] is set.
//!
//! [`pagerank_on`] runs the same driver over any [`BackendKind`] — the
//! apples-to-apples kernel comparison the paper's Fig. 7 makes.

use crate::algebra::PlusF32;
use crate::backend::{BackendKind, Engine, GatherKind, ScatterKind};
use crate::config::PcpmConfig;
use crate::error::PcpmError;
use crate::fixed_point::{fixed_point, FixedPoint};
use crate::pr::PrResult;
use pcpm_graph::Csr;

/// Phase-implementation choices for ablation studies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PcpmVariant {
    /// Scatter implementation.
    pub scatter: ScatterKind,
    /// Gather implementation.
    pub gather: GatherKind,
}

/// Runs PageRank with the paper's full design (PNG scatter +
/// branch-avoiding gather).
///
/// # Examples
///
/// ```
/// use pcpm_graph::gen::erdos_renyi;
/// use pcpm_core::{pagerank::pagerank, PcpmConfig};
///
/// let g = erdos_renyi(100, 600, 1).unwrap();
/// let r = pagerank(&g, &PcpmConfig::default().with_iterations(5)).unwrap();
/// assert_eq!(r.iterations, 5);
/// ```
pub fn pagerank(graph: &Csr, cfg: &PcpmConfig) -> Result<PrResult, PcpmError> {
    pagerank_on(graph, cfg, BackendKind::Pcpm)
}

/// Runs PageRank through any backend dataplane of the unified engine.
///
/// # Examples
///
/// ```
/// use pcpm_graph::gen::erdos_renyi;
/// use pcpm_core::{pagerank::pagerank_on, BackendKind, PcpmConfig};
///
/// let g = erdos_renyi(100, 600, 1).unwrap();
/// let cfg = PcpmConfig::default().with_iterations(5);
/// let pcpm = pagerank_on(&g, &cfg, BackendKind::Pcpm).unwrap();
/// let pull = pagerank_on(&g, &cfg, BackendKind::Pull).unwrap();
/// for (a, b) in pcpm.scores.iter().zip(&pull.scores) {
///     assert!((a - b).abs() < 1e-6);
/// }
/// ```
pub fn pagerank_on(
    graph: &Csr,
    cfg: &PcpmConfig,
    backend: BackendKind,
) -> Result<PrResult, PcpmError> {
    let mut engine = Engine::<PlusF32>::builder(graph)
        .config(*cfg)
        .backend(backend)
        .build()?;
    pagerank_with_unified_engine(graph, cfg, &mut engine, None)
}

/// Runs PageRank with explicit scatter/gather variants (the PCPM phase
/// ablations).
pub fn pagerank_with_variant(
    graph: &Csr,
    cfg: &PcpmConfig,
    variant: PcpmVariant,
) -> Result<PrResult, PcpmError> {
    let mut engine = Engine::<PlusF32>::builder(graph)
        .config(*cfg)
        .scatter(variant.scatter)
        .gather(variant.gather)
        .build()?;
    pagerank_with_unified_engine(graph, cfg, &mut engine, None)
}

/// Runs PageRank warm-started from a previous score vector.
///
/// Incremental workloads (a graph that gained a few edges, or a damping
/// sweep) converge in far fewer iterations from a nearby fixed point than
/// from the uniform vector. Pair with [`PcpmConfig::with_tolerance`].
///
/// # Examples
///
/// ```
/// use pcpm_graph::gen::erdos_renyi;
/// use pcpm_core::{pagerank::{pagerank, pagerank_warm_start}, PcpmConfig};
///
/// let g = erdos_renyi(200, 1200, 1).unwrap();
/// let cfg = PcpmConfig::default().with_iterations(100).with_tolerance(1e-9);
/// let cold = pagerank(&g, &cfg).unwrap();
/// let warm = pagerank_warm_start(&g, &cfg, &cold.scores).unwrap();
/// assert!(warm.iterations <= 2, "already at the fixed point");
/// ```
pub fn pagerank_warm_start(
    graph: &Csr,
    cfg: &PcpmConfig,
    initial: &[f32],
) -> Result<PrResult, PcpmError> {
    if initial.len() != graph.num_nodes() as usize {
        return Err(PcpmError::DimensionMismatch {
            expected: graph.num_nodes() as usize,
            got: initial.len(),
        });
    }
    let mut engine = Engine::<PlusF32>::builder(graph).config(*cfg).build()?;
    pagerank_with_unified_engine(graph, cfg, &mut engine, Some(initial))
}

/// `1 / out-degree` per node, zero for a dangling one: the scale that
/// turns a PageRank value into what the node propagates.
pub fn inverse_out_degrees(graph: &Csr) -> Vec<f32> {
    let inverse = |d: u32| if d == 0 { 0.0 } else { 1.0 / d as f32 };
    graph.out_degrees().into_iter().map(inverse).collect()
}

/// Runs PageRank on a pre-built unified engine (lets callers amortize
/// pre-processing across runs, or inject an external [`crate::Backend`]).
pub fn pagerank_with_unified_engine(
    graph: &Csr,
    cfg: &PcpmConfig,
    engine: &mut Engine<PlusF32>,
    initial: Option<&[f32]>,
) -> Result<PrResult, PcpmError> {
    cfg.validate()?;
    let n = graph.num_nodes() as usize;
    let damping = cfg.damping as f32;
    let base = ((1.0 - cfg.damping) / n as f64) as f32;
    let spec = FixedPoint {
        scale: &inverse_out_degrees(graph),
        max_iterations: cfg.iterations,
        tolerance: cfg.tolerance,
        dangling: cfg.redistribute_dangling,
        graph: Some(graph),
    };
    let initial = initial.map_or_else(|| vec![1.0 / n as f32; n], <[f32]>::to_vec);
    let mut runs = fixed_point(engine, &spec, vec![initial], |_, dangling| {
        let bonus = (cfg.damping * dangling / n as f64) as f32;
        move |sum, _, _| base + damping * sum + bonus
    })?;
    Ok(runs.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{GatherKind, ScatterKind};
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};

    /// Serial f64 oracle with the same dangling convention.
    fn oracle(graph: &Csr, cfg: &PcpmConfig) -> Vec<f64> {
        let n = graph.num_nodes() as usize;
        let d = cfg.damping;
        let mut pr = vec![1.0 / n as f64; n];
        let out_deg = graph.out_degrees();
        for _ in 0..cfg.iterations {
            let mut sums = vec![0.0f64; n];
            for (s, t) in graph.edges() {
                sums[t as usize] += pr[s as usize] / f64::from(out_deg[s as usize]);
            }
            let dangling: f64 = if cfg.redistribute_dangling {
                (0..n)
                    .filter(|&v| out_deg[v] == 0)
                    .map(|v| pr[v])
                    .sum::<f64>()
                    * d
                    / n as f64
            } else {
                0.0
            };
            for v in 0..n {
                pr[v] = (1.0 - d) / n as f64 + d * sums[v] + dangling;
            }
        }
        pr
    }

    fn assert_close(scores: &[f32], want: &[f64], tol: f64) {
        let scale = want.iter().cloned().fold(0.0f64, f64::max);
        for (i, (&a, &b)) in scores.iter().zip(want).enumerate() {
            assert!(
                (f64::from(a) - b).abs() <= tol * scale,
                "node {i}: {a} vs {b} (scale {scale})"
            );
        }
    }

    #[test]
    fn matches_oracle_on_er_graph() {
        let g = erdos_renyi(500, 4000, 12).unwrap();
        let cfg = PcpmConfig::default()
            .with_iterations(10)
            .with_partition_bytes(128 * 4);
        let r = pagerank(&g, &cfg).unwrap();
        assert_close(&r.scores, &oracle(&g, &cfg), 1e-3);
    }

    #[test]
    fn matches_oracle_on_skewed_graph() {
        let g = rmat(&RmatConfig::graph500(9, 8, 4)).unwrap();
        let cfg = PcpmConfig::default()
            .with_iterations(8)
            .with_partition_bytes(64 * 4);
        let r = pagerank(&g, &cfg).unwrap();
        assert_close(&r.scores, &oracle(&g, &cfg), 1e-3);
    }

    #[test]
    fn every_backend_matches_the_oracle() {
        let g = rmat(&RmatConfig::graph500(9, 8, 27)).unwrap();
        let cfg = PcpmConfig::default()
            .with_iterations(8)
            .with_partition_bytes(128 * 4);
        let want = oracle(&g, &cfg);
        for kind in BackendKind::ALL {
            let r = pagerank_on(&g, &cfg, kind).unwrap();
            assert_close(&r.scores, &want, 1e-3);
        }
    }

    #[test]
    fn dangling_redistribution_conserves_mass() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap(); // 3 dangles
        let mut cfg = PcpmConfig::default().with_iterations(30);
        cfg.redistribute_dangling = true;
        let r = pagerank(&g, &cfg).unwrap();
        assert!((r.mass() - 1.0).abs() < 1e-3, "mass {}", r.mass());
        assert_close(&r.scores, &oracle(&g, &cfg), 1e-3);
    }

    #[test]
    fn without_redistribution_mass_decays() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let cfg = PcpmConfig::default().with_iterations(10);
        let r = pagerank(&g, &cfg).unwrap();
        assert!(r.mass() < 1.0);
    }

    #[test]
    fn tolerance_stops_early() {
        let g = erdos_renyi(200, 1600, 3).unwrap();
        let cfg = PcpmConfig::default()
            .with_iterations(100)
            .with_tolerance(1e-6);
        let r = pagerank(&g, &cfg).unwrap();
        assert!(r.converged);
        assert!(r.iterations < 100);
        assert!(r.last_delta < 1e-6);
    }

    #[test]
    fn all_variants_agree_exactly() {
        let g = rmat(&RmatConfig::graph500(8, 6, 9)).unwrap();
        let cfg = PcpmConfig::default()
            .with_iterations(5)
            .with_partition_bytes(50 * 4);
        let mut results = Vec::new();
        for scatter in [ScatterKind::Png, ScatterKind::CsrTraversal] {
            for gather in [GatherKind::BranchAvoiding, GatherKind::Branchy] {
                let r = pagerank_with_variant(&g, &cfg, PcpmVariant { scatter, gather }).unwrap();
                results.push(r.scores);
            }
        }
        for other in &results[1..] {
            assert_eq!(&results[0], other);
        }
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]).unwrap();
        let r = pagerank(&g, &PcpmConfig::default()).unwrap();
        assert!(r.scores.is_empty());
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn uniform_cycle_has_uniform_rank() {
        // A directed cycle: every node must end at exactly 1/n.
        let n = 64u32;
        let edges: Vec<_> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = Csr::from_edges(n, &edges).unwrap();
        let r = pagerank(&g, &PcpmConfig::default().with_iterations(20)).unwrap();
        for &s in &r.scores {
            assert!((f64::from(s) - 1.0 / f64::from(n)).abs() < 1e-6);
        }
    }

    #[test]
    fn warm_start_converges_faster_after_small_edit() {
        // Add a handful of edges, restart from the old fixed point: must
        // converge in fewer iterations than from scratch.
        let g = rmat(&RmatConfig::graph500(9, 8, 19)).unwrap();
        let cfg = PcpmConfig::default()
            .with_iterations(200)
            .with_tolerance(1e-8);
        let cold = pagerank(&g, &cfg).unwrap();
        assert!(cold.converged);
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        edges.extend([(1, 2), (2, 1), (3, 4)]);
        let g2 = Csr::from_edges(g.num_nodes(), &edges).unwrap();
        let warm = pagerank_warm_start(&g2, &cfg, &cold.scores).unwrap();
        let cold2 = pagerank(&g2, &cfg).unwrap();
        assert!(warm.converged);
        assert!(
            warm.iterations < cold2.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold2.iterations
        );
        // Same fixed point either way.
        for (a, b) in warm.scores.iter().zip(&cold2.scores) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn warm_start_validates_length() {
        let g = erdos_renyi(10, 30, 1).unwrap();
        assert!(pagerank_warm_start(&g, &PcpmConfig::default(), &[0.1; 3]).is_err());
    }

    #[test]
    fn explicit_thread_count_matches_default() {
        let g = erdos_renyi(300, 2000, 6).unwrap();
        let cfg1 = PcpmConfig::default().with_iterations(5);
        let cfg2 = cfg1.with_threads(2);
        let r1 = pagerank(&g, &cfg1).unwrap();
        let r2 = pagerank(&g, &cfg2).unwrap();
        // Same deterministic per-partition accumulation order regardless
        // of thread count.
        assert_eq!(r1.scores, r2.scores);
    }
}
