//! Personalized PageRank (random walk with restart) on the PCPM engine.
//!
//! The same [`fixed_point`] loop as global PageRank, with two changes in
//! the per-node rule: the teleport mass `(1 - d)` returns to a *seed set*
//! instead of being spread uniformly, and dangling mass restarts at the
//! seeds as well (the standard RWR convention, which keeps the vector a
//! proper probability distribution).

use pcpm_core::algebra::PlusF32;
use pcpm_core::backend::{BackendKind, Engine};
use pcpm_core::config::PcpmConfig;
use pcpm_core::error::PcpmError;
use pcpm_core::fixed_point::{fixed_point, FixedPoint};
use pcpm_core::pagerank::inverse_out_degrees;
use pcpm_core::pr::PrResult;
use pcpm_graph::Csr;

/// Computes personalized PageRank for a non-empty seed set.
///
/// # Examples
///
/// ```
/// use pcpm_graph::Csr;
/// use pcpm_algos::personalized_pagerank;
/// use pcpm_core::PcpmConfig;
///
/// let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)]).unwrap();
/// let cfg = PcpmConfig::default().with_iterations(50);
/// let ppr = personalized_pagerank(&g, &[3], &cfg).unwrap();
/// // Mass concentrates near the seed.
/// assert!(ppr.scores[3] > ppr.scores[1]);
/// ```
pub fn personalized_pagerank(
    graph: &Csr,
    seeds: &[u32],
    cfg: &PcpmConfig,
) -> Result<PrResult, PcpmError> {
    personalized_pagerank_on(graph, seeds, cfg, BackendKind::Pcpm)
}

/// As [`personalized_pagerank`], through any backend dataplane.
pub fn personalized_pagerank_on(
    graph: &Csr,
    seeds: &[u32],
    cfg: &PcpmConfig,
    backend: BackendKind,
) -> Result<PrResult, PcpmError> {
    let mut engine = Engine::<PlusF32>::builder(graph)
        .config(*cfg)
        .backend(backend)
        .build()?;
    personalized_pagerank_with_unified_engine(graph, seeds, cfg, &mut engine)
}

/// As [`personalized_pagerank`], but on a caller-supplied engine already
/// prepared over `graph` (e.g. rehydrated from a snapshot). The engine
/// outlives the call unchanged except for its step statistics, so a
/// serving layer can run many PPR queries against one prepared engine.
/// A batch of one: the engine runs its solo kernel.
pub fn personalized_pagerank_with_unified_engine(
    graph: &Csr,
    seeds: &[u32],
    cfg: &PcpmConfig,
    engine: &mut Engine<PlusF32>,
) -> Result<PrResult, PcpmError> {
    let batch = [seeds.to_vec()];
    let mut runs = personalized_pagerank_many_with_unified_engine(graph, &batch, cfg, engine)?;
    Ok(runs.remove(0))
}

/// Computes personalized PageRank for a *batch* of seed sets in one
/// pass over the engine's bin streams per iteration.
///
/// Builds a PCPM engine and delegates to
/// [`personalized_pagerank_many_with_unified_engine`].
pub fn personalized_pagerank_many(
    graph: &Csr,
    seed_sets: &[Vec<u32>],
    cfg: &PcpmConfig,
) -> Result<Vec<PrResult>, PcpmError> {
    let mut engine = Engine::<PlusF32>::builder(graph).config(*cfg).build()?;
    personalized_pagerank_many_with_unified_engine(graph, seed_sets, cfg, &mut engine)
}

/// The batched (SpMM) personalized-PageRank driver: each iteration is
/// one multi-query engine round over every still-active query, so on the
/// PCPM dataplane the destID bin stream is scanned once per iteration
/// for the whole batch instead of once per query.
///
/// Per-query results (`scores`, `iterations`, `converged`, `last_delta`)
/// are **bit-identical** to running the queries one at a time on the
/// same engine: it is the same [`fixed_point`] loop at another width,
/// the batched gather applies updates in the same order per query, and a
/// query that meets the tolerance is frozen exactly where it would have
/// stopped alone. Only the wall-clock `timings` differ — the shared
/// batch cost, identically on every result.
pub fn personalized_pagerank_many_with_unified_engine(
    graph: &Csr,
    seed_sets: &[Vec<u32>],
    cfg: &PcpmConfig,
    engine: &mut Engine<PlusF32>,
) -> Result<Vec<PrResult>, PcpmError> {
    cfg.validate()?;
    let n = graph.num_nodes() as usize;
    for seeds in seed_sets {
        if seeds.is_empty() {
            return Err(PcpmError::BadConfig("seed set must be non-empty"));
        }
        if let Some(&s) = seeds.iter().find(|&&s| s >= graph.num_nodes()) {
            return Err(PcpmError::DimensionMismatch {
                expected: n,
                got: s as usize,
            });
        }
    }
    let damping = cfg.damping as f32;
    // Teleport and dangling mass return to the seeds, in equal shares.
    let teleports: Vec<Vec<f32>> = seed_sets
        .iter()
        .map(|seeds| {
            let share = 1.0 / seeds.len() as f32;
            let mut t = vec![0.0f32; n];
            for &s in seeds {
                t[s as usize] += share;
            }
            t
        })
        .collect();
    let spec = FixedPoint {
        scale: &inverse_out_degrees(graph),
        max_iterations: cfg.iterations,
        tolerance: cfg.tolerance,
        dangling: true,
        graph: Some(graph),
    };
    fixed_point(engine, &spec, teleports.clone(), |q, dangling| {
        let restart = (1.0 - f64::from(damping)) + f64::from(damping) * dangling;
        let teleport = &teleports[q];
        move |sum, _, v| (restart as f32) * teleport[v] + damping * sum
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcpm_graph::gen::rmat;
    use pcpm_graph::gen::RmatConfig;

    /// Serial RWR oracle with the same conventions.
    fn oracle(graph: &Csr, seeds: &[u32], cfg: &PcpmConfig) -> Vec<f64> {
        let n = graph.num_nodes() as usize;
        let d = cfg.damping;
        let out_deg = graph.out_degrees();
        let mut teleport = vec![0.0f64; n];
        for &s in seeds {
            teleport[s as usize] += 1.0 / seeds.len() as f64;
        }
        let mut pr = teleport.clone();
        for _ in 0..cfg.iterations {
            let mut sums = vec![0.0f64; n];
            for (s, t) in graph.edges() {
                sums[t as usize] += pr[s as usize] / f64::from(out_deg[s as usize]);
            }
            let dangling: f64 = (0..n).filter(|&v| out_deg[v] == 0).map(|v| pr[v]).sum();
            let restart = (1.0 - d) + d * dangling;
            for v in 0..n {
                pr[v] = restart * teleport[v] + d * sums[v];
            }
        }
        pr
    }

    #[test]
    fn matches_serial_oracle() {
        let g = rmat(&RmatConfig::graph500(9, 8, 31)).unwrap();
        let cfg = PcpmConfig::default()
            .with_iterations(15)
            .with_partition_bytes(256);
        let seeds = [3u32, 100, 101];
        let got = personalized_pagerank(&g, &seeds, &cfg).unwrap();
        let want = oracle(&g, &seeds, &cfg);
        let scale = want.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
        for (v, (&a, &b)) in got.scores.iter().zip(&want).enumerate() {
            assert!(
                (f64::from(a) - b).abs() < 2e-3 * scale,
                "node {v}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn mass_is_conserved() {
        let g = rmat(&RmatConfig::graph500(8, 6, 32)).unwrap();
        let cfg = PcpmConfig::default().with_iterations(30);
        let r = personalized_pagerank(&g, &[0, 1], &cfg).unwrap();
        assert!((r.mass() - 1.0).abs() < 1e-3, "mass {}", r.mass());
    }

    #[test]
    fn mass_localizes_near_seed() {
        // Two cliques bridged by one edge: seeding in clique A must give
        // clique A most of the mass.
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a != b {
                    edges.push((a, b));
                    edges.push((a + 5, b + 5));
                }
            }
        }
        edges.push((0, 5));
        edges.push((5, 0));
        let g = Csr::from_edges(10, &edges).unwrap();
        let cfg = PcpmConfig::default().with_iterations(60);
        let r = personalized_pagerank(&g, &[2], &cfg).unwrap();
        let mass_a: f32 = r.scores[..5].iter().sum();
        let mass_b: f32 = r.scores[5..].iter().sum();
        assert!(mass_a > 2.0 * mass_b, "A {mass_a} vs B {mass_b}");
    }

    #[test]
    fn empty_or_invalid_seeds_rejected() {
        let g = Csr::from_edges(3, &[(0, 1)]).unwrap();
        assert!(personalized_pagerank(&g, &[], &PcpmConfig::default()).is_err());
        assert!(personalized_pagerank(&g, &[9], &PcpmConfig::default()).is_err());
        let cfg = PcpmConfig::default();
        assert!(personalized_pagerank_many(&g, &[vec![0], vec![]], &cfg).is_err());
        assert!(personalized_pagerank_many(&g, &[vec![0], vec![9]], &cfg).is_err());
        assert!(personalized_pagerank_many(&g, &[], &cfg)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn batched_ppr_bit_identical_to_sequential() {
        use pcpm_core::format::BinFormatKind;
        let g = rmat(&RmatConfig::graph500(9, 8, 31)).unwrap();
        let seed_sets: Vec<Vec<u32>> = vec![
            vec![3],
            vec![100, 101],
            vec![7, 3],
            vec![250],
            vec![0, 1, 2],
        ];
        for format in BinFormatKind::ALL {
            let cfg = PcpmConfig::default()
                .with_iterations(20)
                .with_partition_bytes(256)
                .with_bin_format(format);
            let batched = personalized_pagerank_many(&g, &seed_sets, &cfg).unwrap();
            for (seeds, got) in seed_sets.iter().zip(&batched) {
                let want = personalized_pagerank(&g, seeds, &cfg).unwrap();
                assert_eq!(got.scores, want.scores, "format {format} seeds {seeds:?}");
                assert_eq!(got.iterations, want.iterations);
                assert_eq!(got.converged, want.converged);
                assert_eq!(got.last_delta, want.last_delta);
            }
        }
    }

    #[test]
    fn batched_ppr_freezes_converged_queries_where_sequential_stops() {
        // With a tolerance, different seed sets converge at different
        // iterations; each batched query must stop exactly where its
        // sequential run does and keep bit-identical scores.
        let g = rmat(&RmatConfig::graph500(8, 8, 77)).unwrap();
        let cfg = PcpmConfig::default()
            .with_iterations(100)
            .with_tolerance(1e-6);
        let seed_sets: Vec<Vec<u32>> = vec![vec![0], (0..g.num_nodes()).collect(), vec![5, 6, 7]];
        let batched = personalized_pagerank_many(&g, &seed_sets, &cfg).unwrap();
        let mut iter_counts = std::collections::HashSet::new();
        for (seeds, got) in seed_sets.iter().zip(&batched) {
            let want = personalized_pagerank(&g, seeds, &cfg).unwrap();
            assert!(got.converged, "seeds {seeds:?} should converge");
            assert_eq!(got.iterations, want.iterations, "seeds {seeds:?}");
            assert_eq!(got.scores, want.scores, "seeds {seeds:?}");
            iter_counts.insert(got.iterations);
        }
        assert!(
            iter_counts.len() > 1,
            "test should exercise divergent convergence points, got {iter_counts:?}"
        );
    }

    #[test]
    fn uniform_seed_set_equals_global_pagerank_with_restart_dangling() {
        // Seeding every node uniformly + dangling-to-seeds equals global
        // PageRank with dangling redistribution.
        let g = rmat(&RmatConfig::graph500(8, 8, 33)).unwrap();
        let mut cfg = PcpmConfig::default().with_iterations(25);
        let seeds: Vec<u32> = (0..g.num_nodes()).collect();
        let ppr = personalized_pagerank(&g, &seeds, &cfg).unwrap();
        cfg.redistribute_dangling = true;
        let global = pcpm_core::pagerank::pagerank(&g, &cfg).unwrap();
        for (v, (&a, &b)) in ppr.scores.iter().zip(&global.scores).enumerate() {
            assert!((a - b).abs() < 1e-6, "node {v}: {a} vs {b}");
        }
    }
}
