//! The one fixed-point driver: `value ← rule(Aᵀ·(value · scale))` until
//! the L1 change drops under a tolerance or an iteration cap is hit.
//!
//! PageRank, personalized PageRank (one query or a lockstep batch),
//! weighted PageRank and Katz centrality are this loop with a different
//! per-node `rule` and `scale` vector. It follows the *scaled-value*
//! convention of the paper's Algorithm 2 — what is propagated is
//! `value[v] · scale[v]` (`PR(v) / |No(v)|` for PageRank), so the scatter
//! copies verbatim — and Algorithm 4's in-partition apply: the rule runs
//! as the [`Engine::step_many_with`] epilogue, on each destination
//! partition as the gather completes it, and overwrites every sum with
//! the node's next propagated value *in place*. So the output vector of
//! one round is the input vector of the next — a query owns two vectors
//! that swap roles each round, plus its values — and the only sweep over
//! a vertex array outside the gather is the dangling mass, one sweep for
//! up to eight queries.
//!
//! Pinned bit for bit: the per-node arithmetic (the `rule`'s expression,
//! then `new * scale[v]`) and the dangling mass, summed in `f64` over
//! the old values before the round in the parallel iterator's
//! length-determined chunks, left to right. The L1 change is summed per
//! destination partition (eight fixed lanes inside one) and the partials
//! in ascending order: one number for one layout, whatever the thread
//! count the rounds run on, bin format, kernel, backend or batch width.
//! The layout is the partition size the engine derived at build, which
//! under a budget follows the build's thread count
//! ([`PcpmConfig::split_partition_nodes`](crate::PcpmConfig::split_partition_nodes)).
//! Across those layouts the `f64` sum of `f32` changes has come out
//! exact on every graph tried; `tests/parallel_determinism.rs` asserts
//! the bits equal at 1, 2, 4 and 8 threads under the default budget.

use crate::algebra::PlusF32;
use crate::backend::Engine;
use crate::error::PcpmError;
use crate::gather::{with_lanes, Finished, MAX_LANES};
use crate::pr::{PhaseTimings, PrResult};
use rayon::prelude::*;
use std::array::from_fn;
use std::iter::Sum;

/// The loop's parameters; the per-node rule is passed beside them.
pub struct FixedPoint<'a> {
    /// What a node propagates per unit of its value (`1 / out-degree`);
    /// zero marks a dangling node.
    pub scale: &'a [f32],
    /// Iteration cap.
    pub max_iterations: usize,
    /// L1 tolerance; a query that meets it is frozen, its batch runs on.
    pub tolerance: Option<f64>,
    /// Whether the rule reads the dangling mass (else it is handed 0).
    pub dangling: bool,
}

/// Lanes of the in-partition L1 sum: fixed, so the grouping is too.
const LANES: usize = 8;

/// `W` sums, one per query, added lane by lane exactly as `f64`'s own
/// `Sum` adds: from its empty sum, left to right.
struct Masses<const W: usize>([f64; W]);

impl<const W: usize> Sum for Masses<W> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        let empty = std::iter::empty::<f64>().sum();
        let add = |Masses(a): Self, Masses(b): Self| Masses(from_fn(|q| a[q] + b[q]));
        iter.fold(Masses([empty; W]), add)
    }
}

/// Each of `W` queries' sum of its `values` over the dangling nodes, in
/// one parallel pass with one lane per query. Its reduction order is
/// part of every score, so each lane is reduced as a parallel `f64` sum
/// over that query's values alone would be: chunks fixed by the length
/// alone, left to right. Adding `-0.0` for the other nodes changes no
/// sum and spares a branch that mispredicts on a skewed graph.
fn dangling_masses<const W: usize>(values: [&[f32]; W], scale: &[f32]) -> [f64; W] {
    let node = |(v, &s): (usize, &f32)| {
        // Every lane loads, so the select needs no branch.
        let lanes: [f32; W] = from_fn(|q| values[q][v]);
        Masses(lanes.map(|value| if s == 0.0 { f64::from(value) } else { -0.0 }))
    };
    let Masses(masses) = scale.par_iter().enumerate().map(node).sum();
    masses
}

/// [`dangling_masses`] of every query in `values`, [`MAX_LANES`] per pass.
fn batch_dangling_masses(values: &[&[f32]], scale: &[f32]) -> Vec<f64> {
    let mut masses = Vec::with_capacity(values.len());
    for group in values.chunks(MAX_LANES) {
        match group {
            [values] => masses.extend(dangling_masses([*values], scale)),
            group => with_lanes!(group.len(), W => masses.extend(
                dangling_masses::<W>(group.try_into().expect("W queries"), scale)
            )),
        }
    }
    masses
}

/// One query's share of a finished range: every sum in `y` becomes the
/// node's next propagated value, `values` the rule's result; returns the
/// range's L1 change, node `i` adding to lane `i mod LANES`. Two plain
/// loops: fused, the compiler half-vectorizes them into slower code.
fn apply_range(
    y: &mut [f32],
    values: &mut [f32],
    scale: &[f32],
    first_node: usize,
    rule: &impl Fn(f32, f32, usize) -> f32,
) -> f64 {
    for (i, (y, &value)) in y.iter_mut().zip(values.iter()).enumerate() {
        *y = rule(*y, value, first_node + i);
    }
    let mut lanes = [0.0f64; LANES];
    let settle = |lane: &mut f64, y: &mut f32, value: &mut f32, scale: f32| {
        *lane += f64::from((*y - *value).abs());
        *value = *y;
        *y *= scale;
    };
    // Whole rows first: a fixed trip count keeps the lanes in registers.
    let whole = y.len() - y.len() % LANES;
    let rows = (y[..whole].chunks_exact_mut(LANES))
        .zip(values[..whole].chunks_exact_mut(LANES))
        .zip(scale[..whole].chunks_exact(LANES));
    for ((y, values), scale) in rows {
        for i in 0..LANES {
            settle(&mut lanes[i], &mut y[i], &mut values[i], scale[i]);
        }
    }
    let tail = (y[whole..].iter_mut())
        .zip(&mut values[whole..])
        .zip(&scale[whole..]);
    for (lane, ((y, value), &scale)) in lanes.iter_mut().zip(tail) {
        settle(lane, y, value, scale);
    }
    lanes.iter().sum()
}

/// The items of the queries still running.
fn of_active<T>(per_query: impl Iterator<Item = T>, active: &[usize]) -> Vec<T> {
    let items = per_query.enumerate().filter(|(q, _)| active.contains(q));
    items.map(|(_, item)| item).collect()
}

/// Runs one query per vector of `initial` to its fixed point on `engine`
/// (on its pool: [`Engine::run`]) and returns them in order.
/// `rule(query, dangling mass)` is called once per query and iteration
/// and returns that round's per-node map `(sum, old value, node) → new
/// value`. Every result carries the batch's shared [`PhaseTimings`];
/// nothing else in it depends on what the query was batched with.
pub fn fixed_point<R, N>(
    engine: &mut Engine<PlusF32>,
    spec: &FixedPoint<'_>,
    initial: Vec<Vec<f32>>,
    rule: R,
) -> Result<Vec<PrResult>, PcpmError>
where
    R: Fn(usize, f64) -> N + Sync,
    N: Fn(f32, f32, usize) -> f32 + Sync,
{
    let n = spec.scale.len();
    if engine.num_src() as usize != n || engine.num_dst() as usize != n {
        return Err(PcpmError::DimensionMismatch {
            expected: n,
            got: engine.num_src() as usize,
        });
    }
    let report = engine.report();
    let mut timings = PhaseTimings::default();
    let mut runs: Vec<PrResult> = initial
        .into_iter()
        .map(|scores| PrResult {
            scores,
            iterations: 0,
            // An empty graph is at its fixed point before the first round.
            converged: n == 0,
            last_delta: if n == 0 { 0.0 } else { f64::INFINITY },
            timings,
            preprocess: report.preprocess,
            compression_ratio: report.compression_ratio,
        })
        .collect();
    // Per query: what it propagates this round, and where the sums land.
    let scaled = |(&v, &s): (&f32, &f32)| v * s;
    let mut xs: Vec<Vec<f32>> = (runs.iter())
        .map(|r| r.scores.iter().zip(spec.scale).map(scaled).collect())
        .collect();
    let mut ys: Vec<Vec<f32>> = vec![vec![0.0; n]; runs.len()];

    engine.run(|engine| -> Result<(), PcpmError> {
        for _ in 0..spec.max_iterations {
            let active: Vec<usize> = (0..runs.len()).filter(|&q| !runs[q].converged).collect();
            if active.is_empty() {
                break;
            }
            let t0 = crate::telemetry::stopwatch();
            let masses = match spec.dangling {
                true => {
                    let values = of_active(runs.iter().map(|r| &r.scores[..]), &active);
                    batch_dangling_masses(&values, spec.scale)
                }
                false => vec![0.0; active.len()],
            };
            let rules: Vec<N> = (active.iter().zip(masses))
                .map(|(&q, mass)| rule(q, mass))
                .collect();
            timings.apply += t0.elapsed();

            let x_refs = of_active(xs.iter().map(Vec::as_slice), &active);
            let mut y_refs = of_active(ys.iter_mut().map(Vec::as_mut_slice), &active);
            let mut values = of_active(runs.iter_mut().map(|r| &mut r.scores[..]), &active);
            let apply = |done: Finished<'_, f32>| {
                let scale = &spec.scale[done.nodes.clone()];
                let rules = &rules[done.queries];
                let queries = done.outputs.into_iter().zip(done.state).zip(rules);
                for (((y, values), rule), partial) in queries.zip(done.partials) {
                    *partial = apply_range(y, values, scale, done.nodes.start, rule);
                }
            };
            let (t, deltas) = engine.step_many_with(&x_refs, &mut y_refs, &mut values, &apply)?;
            timings += t;
            for (&q, delta) in active.iter().zip(deltas) {
                std::mem::swap(&mut xs[q], &mut ys[q]);
                runs[q].iterations += 1;
                runs[q].last_delta = delta;
                runs[q].converged = spec.tolerance.is_some_and(|tol| delta < tol);
            }
        }
        Ok(())
    })?;
    for run in &mut runs {
        run.timings = timings;
    }
    Ok(runs)
}
