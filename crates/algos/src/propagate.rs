//! Generic fixpoint propagation over an [`Algebra`], on the unified
//! [`Engine`].
//!
//! One [`Engine::step`] is exactly one propagation round: scatter the
//! current vertex states, gather under the chosen algebra. The
//! [`run_to_fixpoint`] driver combines each gathered value with the
//! vertex's previous state (monotone algebras like `min` converge in at
//! most the graph diameter) — on *any* backend, since it only drives the
//! step method.

use pcpm_core::algebra::Algebra;
use pcpm_core::backend::{BackendKind, Engine};
use pcpm_core::config::PcpmConfig;
use pcpm_core::error::PcpmError;
use pcpm_graph::{Csr, EdgeWeights};
use rayon::prelude::*;

/// Outcome of a fixpoint run.
#[derive(Clone, Debug)]
pub struct FixpointResult<T> {
    /// Final per-vertex state.
    pub state: Vec<T>,
    /// Propagation rounds executed.
    pub rounds: usize,
    /// Whether a fixpoint was reached before the round cap.
    pub converged: bool,
}

/// Builds a propagation engine for `graph` under the algebra `A`:
/// [`Engine::builder`] with the algorithm-friendly defaults filled in.
pub fn propagation_engine<A: Algebra>(
    graph: &Csr,
    cfg: &PcpmConfig,
    weights: Option<&EdgeWeights>,
    backend: BackendKind,
) -> Result<Engine<A>, PcpmError> {
    let mut builder = Engine::<A>::builder(graph).config(*cfg).backend(backend);
    if let Some(w) = weights {
        builder = builder.weights(w);
    }
    builder.build()
}

/// Iterates `state[v] ← combine(state[v], step(state)[v])` until no
/// vertex changes or `max_rounds` is hit.
pub fn run_to_fixpoint<A: Algebra>(
    engine: &mut Engine<A>,
    mut state: Vec<A::T>,
    max_rounds: usize,
) -> Result<FixpointResult<A::T>, PcpmError> {
    let mut incoming = vec![A::identity(); state.len()];
    let mut rounds = 0;
    let mut converged = false;
    engine.run(|engine| -> Result<(), PcpmError> {
        while rounds < max_rounds {
            engine.step(&state, &mut incoming)?;
            rounds += 1;
            let changed = state
                .par_iter_mut()
                .zip(&incoming)
                .map(|(s, &inc)| {
                    let new = A::combine(*s, inc);
                    let changed = new != *s;
                    *s = new;
                    changed as u64
                })
                .sum::<u64>();
            if changed == 0 {
                converged = true;
                break;
            }
        }
        Ok(())
    })?;
    Ok(FixpointResult {
        state,
        rounds,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcpm_core::algebra::{MinLabel, OrBool, PlusF32};

    fn chain(n: u32) -> Csr {
        let edges: Vec<_> = (0..n - 1).map(|v| (v, v + 1)).collect();
        Csr::from_edges(n, &edges).unwrap()
    }

    fn pcpm_engine<A: Algebra>(g: &Csr, cfg: &PcpmConfig) -> Engine<A> {
        propagation_engine(g, cfg, None, BackendKind::Pcpm).unwrap()
    }

    #[test]
    fn plus_step_is_transposed_spmv() {
        let g = Csr::from_edges(3, &[(0, 1), (0, 2), (2, 1)]).unwrap();
        let cfg = PcpmConfig::default().with_partition_bytes(8);
        let mut eng = pcpm_engine::<PlusF32>(&g, &cfg);
        let mut y = vec![0.0f32; 3];
        eng.step(&[1.0, 10.0, 100.0], &mut y).unwrap();
        assert_eq!(y, vec![0.0, 101.0, 1.0]);
    }

    #[test]
    fn min_label_fixpoint_on_chain() {
        let g = chain(10).symmetrize();
        let cfg = PcpmConfig::default().with_partition_bytes(16);
        let mut eng = pcpm_engine::<MinLabel>(&g, &cfg);
        let init: Vec<u32> = (0..10).collect();
        let r = run_to_fixpoint(&mut eng, init, 100).unwrap();
        assert!(r.converged);
        assert!(r.state.iter().all(|&l| l == 0), "{:?}", r.state);
        // A 10-node chain needs ~9 rounds for label 0 to reach the end.
        assert!(r.rounds >= 9 && r.rounds <= 11, "rounds {}", r.rounds);
    }

    #[test]
    fn fixpoint_agrees_on_every_backend() {
        let g = chain(24).symmetrize();
        let cfg = PcpmConfig::default().with_partition_bytes(16);
        let init: Vec<u32> = (0..24).collect();
        let mut results = Vec::new();
        for kind in BackendKind::ALL {
            let mut engine = propagation_engine::<MinLabel>(&g, &cfg, None, kind).unwrap();
            let r = run_to_fixpoint(&mut engine, init.clone(), 100).unwrap();
            assert!(r.converged, "{}", kind.name());
            results.push(r.state);
        }
        for other in &results[1..] {
            assert_eq!(&results[0], other);
        }
    }

    #[test]
    fn reachability_with_or_bool() {
        // 0 -> 1 -> 2, 3 isolated.
        let g = Csr::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let cfg = PcpmConfig::default().with_partition_bytes(8);
        let mut eng = pcpm_engine::<OrBool>(&g, &cfg);
        let mut init = vec![false; 4];
        init[0] = true;
        let r = run_to_fixpoint(&mut eng, init, 10).unwrap();
        assert!(r.converged);
        assert_eq!(r.state, vec![true, true, true, false]);
    }

    #[test]
    fn round_cap_reports_non_convergence() {
        let g = chain(50).symmetrize();
        let cfg = PcpmConfig::default().with_partition_bytes(16);
        let mut eng = pcpm_engine::<MinLabel>(&g, &cfg);
        let init: Vec<u32> = (0..50).collect();
        let r = run_to_fixpoint(&mut eng, init, 3).unwrap();
        assert!(!r.converged);
        assert_eq!(r.rounds, 3);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let g = chain(4);
        let cfg = PcpmConfig::default();
        let mut eng = pcpm_engine::<MinLabel>(&g, &cfg);
        let mut y = vec![0u32; 4];
        assert!(eng.step(&[0u32; 2], &mut y).is_err());
    }
}
