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
//! that swap roles each round, plus its values. Outside the gather, a
//! round sweeps a vertex array for the dangling mass (one sweep for up to
//! eight queries) and, until the first gathered round, for the live-edge
//! count below.
//!
//! # Pushed rounds
//!
//! PCPM streams every bin in every round: the right trade when most
//! sources are live, as in PageRank, but a personalized query starts from
//! its seeds and reaches few edges in its first rounds. So when the
//! caller hands over the adjacency ([`FixedPoint::graph`]), a round whose
//! active queries' nonzero inputs reach at most `|E| / SPARSE_DIVISOR`
//! out-edges together is *pushed*: each output is zeroed, each nonzero
//! `x[v]` is added along `v`'s out-edges, `v` ascending, and the rule
//! runs as the same epilogue over the engine's destination ranges. The
//! first round over the bound is gathered, and so is every round after
//! it: the driver stops counting. A batch is pushed only as a whole.
//!
//! A pushed round equals the gathered one bit for bit:
//!
//! - every gather sums a destination in ascending source order (source
//!   partitions ascending, then sources within a segment), and the push
//!   adds in that order too, an edge repeated in the CSR adding twice in
//!   a row in both;
//! - a `PlusF32` sum starts at `+0.0`, so a running sum is never `-0.0`
//!   (`+0.0 + -0.0` is `+0.0`, and exact cancellation rounds to `+0.0`);
//! - adding `±0.0` leaves any sum that is not `-0.0` unchanged, NaN and
//!   ∞ included, so leaving the zero sources out changes no bit.
//!
//! The L1 partials are grouped by the same ranges, so `last_delta` and
//! the stop round agree too. That is not activity skipping in general:
//! skipping a *stale* nonzero update would change a sum; a zero one
//! cannot.
//!
//! `SPARSE_DIVISOR` (C) sits where the two costs cross. A gathered round
//! costs about the same per edge of `|E|` whatever its inputs; a pushed
//! one costs its serial push per live edge, a random read-modify-write.
//! On a scale-20 RMAT graph (16 M edges, delta bins, 2-vCPU host, rounds
//! 1–6 of single-seed queries from four graphs) a solo gathered round
//! took 0.9–1.8 ns per edge of `|E|` and the push 2.5–3.5 ns per live
//! edge, beyond a fixed ≈ 0.6 ms for zeroing and scanning the vectors. The
//! costs cross at `|E| / 1.9` to `|E| / 2.9` live edges, hence C = 2.
//! An eight-query pass gathers for about three times one query's cost,
//! so the same bound on a batch's total live edges is conservative: a
//! pushed batch round always costs less than its gather.
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
use crate::push::live_edges_within;
use pcpm_graph::Csr;
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
    /// The unweighted adjacency the engine was built over, for pushed
    /// rounds (see the module docs): while the active queries' nonzero
    /// inputs reach at most `|E| / C` out-edges, a round is pushed along
    /// it instead of streaming the bins, with the same result bits.
    /// `None` gathers every round, as does an engine built with weights
    /// or around an external backend. A graph whose node or edge count
    /// differs from the engine's is rejected.
    pub graph: Option<&'a Csr>,
}

/// `C`: a round is pushed while its live edges are at most `|E| / C`.
const SPARSE_DIVISOR: u64 = 2;

/// The adjacency pushed rounds may read: `spec`'s graph once it is
/// checked against the engine, when the engine gathers unweighted bins
/// it built itself.
fn push_graph<'a>(
    engine: &Engine<PlusF32>,
    spec: &FixedPoint<'a>,
) -> Result<Option<&'a Csr>, PcpmError> {
    let Some(graph) = spec.graph else {
        return Ok(None);
    };
    let mismatch = |expected, got| PcpmError::DimensionMismatch { expected, got };
    if graph.num_nodes() as usize != spec.scale.len() {
        return Err(mismatch(spec.scale.len(), graph.num_nodes() as usize));
    }
    if let Some(edges) = engine.num_edges().filter(|&e| e != graph.num_edges()) {
        return Err(mismatch(edges as usize, graph.num_edges() as usize));
    }
    Ok((engine.prepared_weighted() == Some(false)).then_some(graph))
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
/// (on its pool: [`Engine::run`]) and returns them in order. A round is
/// pushed along [`FixedPoint::graph`] while its inputs reach few edges.
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
    for got in [engine.num_src(), engine.num_dst()] {
        if got as usize != n {
            return Err(PcpmError::DimensionMismatch {
                expected: n,
                got: got as usize,
            });
        }
    }
    // Pushed rounds while the inputs stay sparse; the first dense round
    // ends them.
    let mut sparse = push_graph(engine, spec)?;
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
            sparse = sparse.filter(|graph| {
                live_edges_within(graph, &x_refs, graph.num_edges() / SPARSE_DIVISOR)
            });
            let (t, deltas) = match sparse {
                Some(graph) => {
                    engine.push_many_with(graph, &x_refs, &mut y_refs, &mut values, &apply)?
                }
                None => engine.step_many_with(&x_refs, &mut y_refs, &mut values, &apply)?,
            };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::SpmvMatrix;
    use crate::PcpmConfig;

    fn spec<'a>(scale: &'a [f32], graph: Option<&'a Csr>) -> FixedPoint<'a> {
        FixedPoint {
            scale,
            max_iterations: 3,
            tolerance: None,
            dangling: false,
            graph,
        }
    }

    fn solve(engine: &mut Engine<PlusF32>, spec: &FixedPoint<'_>) -> Result<(), PcpmError> {
        let initial = vec![vec![1.0; spec.scale.len()]];
        fixed_point(engine, spec, initial, |_, _| |sum, _, _| sum).map(drop)
    }

    #[test]
    fn a_mismatch_reports_the_dimension_that_differs() {
        // Two sources, three destinations: the source side matches.
        let m = SpmvMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (2, 1, 1.0)]).unwrap();
        let mut engine = m.engine(&PcpmConfig::default()).unwrap();
        let err = solve(&mut engine, &spec(&[1.0; 2], None)).unwrap_err();
        assert_eq!(
            err,
            PcpmError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn a_graph_that_is_not_the_engines_is_rejected() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut engine = Engine::<PlusF32>::builder(&g).build().unwrap();
        let scale = [1.0; 4];
        let more = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let err = solve(&mut engine, &spec(&scale, Some(&more))).unwrap_err();
        assert_eq!(
            err,
            PcpmError::DimensionMismatch {
                expected: 3,
                got: 4
            }
        );
        let wider = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let err = solve(&mut engine, &spec(&scale, Some(&wider))).unwrap_err();
        assert_eq!(
            err,
            PcpmError::DimensionMismatch {
                expected: 4,
                got: 5
            }
        );
        solve(&mut engine, &spec(&scale, Some(&g))).unwrap();
    }
}
