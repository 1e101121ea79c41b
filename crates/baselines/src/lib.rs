//! Baseline PageRank kernels the paper compares against.
//!
//! - [`reference`](mod@reference) — a serial, f64-accumulating oracle used by every test
//!   in the workspace;
//! - [`pdpr`](mod@pdpr) — Pull-Direction PageRank (Algorithm 1), the conventional
//!   CSC-based kernel with edge-balanced static parallelism;
//! - [`bvgas`](mod@bvgas) — Binning with Vertex-centric GAS (Algorithm 5), the
//!   state-of-the-art the paper benchmarks PCPM against, with the
//!   implementation details of §3.6/§5.2 (write-combining buffers,
//!   destination IDs written once, per-thread bin spaces).
//!
//! Both kernels are [`pcpm_core::Backend`] dataplanes behind the unified
//! [`Engine`] ([`pdpr_engine`], [`bvgas_engine`]) and run PageRank on the
//! one driver in `pcpm_core::pagerank`, so their outputs are directly
//! comparable with PCPM's and every algorithm in `pcpm-algos` can execute
//! on a baseline for apples-to-apples ablations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bvgas;
pub mod pdpr;
pub mod reference;

pub use bvgas::{bvgas, bvgas_engine, BvgasBackend};
pub use pdpr::{pdpr, pdpr_engine};
pub use reference::serial_pagerank;

use pcpm_core::algebra::PlusF32;
use pcpm_core::backend::{Backend, Engine, PrepareSpec};
use pcpm_core::error::PcpmError;
use pcpm_core::PcpmConfig;
use pcpm_graph::Csr;

/// Prepares backend `B` over `graph` on one engine-owned pool, built
/// first and reused for the prepare and every step — like
/// `EngineBuilder::build`, so preprocess timings compare
/// apples-to-apples with the core backends. Unlike the builder it takes
/// any valid `cfg`: the PCPM-only fields (bin format, kernel) are simply
/// not read by a baseline.
fn baseline_engine<B: Backend<PlusF32> + 'static>(
    graph: &Csr,
    cfg: &PcpmConfig,
) -> Result<Engine<PlusF32>, PcpmError> {
    cfg.validate()?;
    let spec = PrepareSpec {
        graph,
        shared: None,
        weights: None,
        cfg: *cfg,
        scatter: Default::default(),
        gather: Default::default(),
    };
    Engine::from_backend_with(cfg, graph.num_nodes(), graph.num_nodes(), || {
        Ok(Box::new(B::prepare(&spec)?) as Box<dyn Backend<PlusF32>>)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcpm_core::pagerank::{pagerank, pagerank_with_unified_engine};
    use pcpm_core::{BackendKind, PrResult};
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};

    type BuildEngine = fn(&Csr, &PcpmConfig) -> Result<Engine<PlusF32>, PcpmError>;
    type OneShot = fn(&Csr, &PcpmConfig) -> Result<PrResult, PcpmError>;

    fn reference(g: &Csr, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; g.num_nodes() as usize];
        for (s, t) in g.edges() {
            y[t as usize] += x[s as usize];
        }
        y
    }

    fn step_once(mut engine: Engine<PlusF32>, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; x.len()];
        engine.step(x, &mut y).unwrap();
        y
    }

    #[test]
    fn every_baseline_backend_matches_the_reference() {
        let g = rmat(&RmatConfig::graph500(9, 8, 35)).unwrap();
        let cfg = PcpmConfig::default().with_partition_bytes(64 * 4);
        // Integer-valued x keeps every f32 sum exact.
        let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v % 9) as f32).collect();
        let want = reference(&g, &x);
        for build in [pdpr_engine as BuildEngine, bvgas_engine] {
            let engine = build(&g, &cfg).unwrap();
            let name = engine.report().backend;
            assert_eq!(step_once(engine, &x), want, "backend {name}");
        }

        // `pdpr_engine` *is* the builder's pull backend: the same bits on
        // real-valued input (where accumulation order would show), on a
        // hub-heavy graph and on one whose in-edges all land on a single
        // vertex, so the edge-balanced bounds hold empty chunks.
        let star = Csr::from_edges(64, &(1..64).map(|s| (s, 0)).collect::<Vec<_>>()).unwrap();
        for g in [rmat(&RmatConfig::graph500(10, 16, 7)).unwrap(), star] {
            let x: Vec<f32> = (0..g.num_nodes()).map(|v| 1.0 / (v + 3) as f32).collect();
            for threads in [1, 3] {
                let cfg = cfg.with_threads(threads);
                let built = Engine::<PlusF32>::builder(&g)
                    .config(cfg)
                    .backend(BackendKind::Pull)
                    .build()
                    .unwrap();
                let pdpr = pdpr_engine(&g, &cfg).unwrap();
                assert_eq!(pdpr.report().backend, "pull");
                assert_eq!(
                    step_once(pdpr, &x),
                    step_once(built, &x),
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn pagerank_runs_through_baseline_backends() {
        let g = erdos_renyi(300, 2400, 21).unwrap();
        let empty = Csr::from_edges(0, &[]).unwrap();
        let cfg = PcpmConfig::default()
            .with_partition_bytes(64 * 4)
            .with_iterations(8);
        let want = pagerank(&g, &cfg).unwrap();
        for (build, one_shot) in [
            (pdpr_engine as BuildEngine, pdpr as OneShot),
            (bvgas_engine, bvgas),
        ] {
            for redistribute_dangling in [false, true] {
                let cfg = PcpmConfig {
                    redistribute_dangling,
                    ..cfg
                };
                // The one-shot wrapper is the one driver on the engine.
                for g in [&g, &empty] {
                    let mut engine = build(g, &cfg).unwrap();
                    let r = pagerank_with_unified_engine(g, &cfg, &mut engine, None).unwrap();
                    let got = one_shot(g, &cfg).unwrap();
                    assert_eq!(got.scores, r.scores);
                    assert_eq!(got.iterations, r.iterations);
                    assert_eq!(got.converged, r.converged);
                    assert_eq!(got.last_delta.to_bits(), r.last_delta.to_bits());
                }
            }
            let mut engine = build(&g, &cfg).unwrap();
            let r = pagerank_with_unified_engine(&g, &cfg, &mut engine, None).unwrap();
            for (v, (a, b)) in r.scores.iter().zip(&want.scores).enumerate() {
                assert!((a - b).abs() < 1e-6, "node {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn weighted_spec_is_rejected() {
        let g = erdos_renyi(50, 200, 3).unwrap();
        let w = pcpm_graph::EdgeWeights::ones(&g);
        let spec = PrepareSpec {
            graph: &g,
            shared: None,
            weights: Some(w.as_slice()),
            cfg: PcpmConfig::default(),
            scatter: Default::default(),
            gather: Default::default(),
        };
        assert!(BvgasBackend::prepare(&spec).is_err());
    }
}
