//! Step-output semantics: `Backend::step` **overwrites** the output
//! buffer (re-initializing it to the algebra's identity) — it never
//! accumulates into whatever the caller left there.
//!
//! The fixed-point driver relies on this: each round gathers into the
//! vector the round before it propagated from
//! (`crates/core/src/fixed_point.rs` swaps the two), which is only
//! correct if every dataplane starts each round from the identity. This
//! suite poisons the buffer with garbage before each step, for every
//! `BackendKind` × bin format, the ablation variants, the baseline
//! runner engines and an integer algebra — turning the driver's buffer
//! reuse into an asserted contract instead of a silent assumption.
//!
//! The second half pins what the fixed-point driver relies on since the
//! apply step moved into the gather: `Engine::step_many_with` hands its
//! closure every destination node exactly once, in ranges that tile
//! `0..n`, after that range's sums are final; the multi-query update
//! rows an engine keeps between rounds never leak one round into the
//! next, whatever the sequence of widths; the two ablation engines run a
//! batch one query per round; and a batch run through the one driver
//! gives every query the scores and the iteration count it gets alone,
//! also while the batch narrows from eight lanes to one, and from
//! seventeen queries (passes of 8, 8 and 1) down across the split.
//! Last, PPR whose sparse first rounds are pushed along the adjacency
//! equals the same runs gathered round by round, bit for bit.

use pcpm::core::algebra::{MinLabel, PlusF32};
use pcpm::core::Finished;
use pcpm::core::{GatherKind, ScatterKind};
use pcpm::prelude::*;
use std::ops::Range;
use std::sync::{Arc, Mutex};

mod common;
use common::{format_matrix, kernel_matrix, thread_matrix};

fn int_x(n: u32) -> Vec<f32> {
    (0..n).map(|v| (v % 13) as f32).collect()
}

/// Steps `engine` twice — once into a clean buffer, once into a
/// poisoned one — and asserts bit-identical output.
fn assert_overwrites(name: &str, engine: &mut Engine<PlusF32>, x: &[f32], n: usize) {
    let mut clean = vec![0.0f32; n];
    engine.step(x, &mut clean).unwrap();
    // Garbage that would survive any "accumulate" bug: huge finite
    // values, negatives, and NaN (NaN + anything stays NaN, so even a
    // single read of the stale buffer would poison the output).
    for poison in [f32::MAX, -123.456, f32::NAN] {
        let mut y = vec![poison; n];
        engine.step(x, &mut y).unwrap();
        assert_eq!(
            clean.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{name}: step must overwrite a buffer poisoned with {poison}"
        );
    }
}

#[test]
fn every_backend_and_format_overwrites_the_output_buffer() {
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 13)).unwrap();
    let n = g.num_nodes() as usize;
    let x = int_x(g.num_nodes());
    for kind in BackendKind::ALL {
        let mut engine = Engine::<PlusF32>::builder(&g)
            .partition_bytes(64 * 4)
            .backend(kind)
            .build()
            .unwrap();
        assert_overwrites(kind.name(), &mut engine, &x, n);
    }
    for format in format_matrix() {
        let mut engine = Engine::<PlusF32>::builder(&g)
            .partition_bytes(64 * 4)
            .bin_format(format)
            .build()
            .unwrap();
        assert_overwrites(&format!("pcpm/{format}"), &mut engine, &x, n);
    }
    // Ablation variants route through different scatter/gather code.
    let mut csr = Engine::<PlusF32>::builder(&g)
        .partition_bytes(64 * 4)
        .scatter(ScatterKind::CsrTraversal)
        .build()
        .unwrap();
    assert_overwrites("pcpm/csr-traversal", &mut csr, &x, n);
    let mut branchy = Engine::<PlusF32>::builder(&g)
        .partition_bytes(64 * 4)
        .gather(GatherKind::Branchy)
        .build()
        .unwrap();
    assert_overwrites("pcpm/branchy", &mut branchy, &x, n);
}

#[test]
fn baseline_runner_engines_overwrite_the_output_buffer() {
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 35)).unwrap();
    let n = g.num_nodes() as usize;
    let x = int_x(g.num_nodes());
    let cfg = PcpmConfig::default().with_partition_bytes(64 * 4);
    let engines = [
        ("pdpr", pcpm::baselines::pdpr_engine(&g, &cfg).unwrap()),
        ("bvgas", pcpm::baselines::bvgas_engine(&g, &cfg).unwrap()),
    ];
    for (name, mut engine) in engines {
        assert_overwrites(name, &mut engine, &x, n);
    }
}

#[test]
fn integer_algebras_overwrite_with_their_own_identity() {
    // MinLabel's identity is u32::MAX, not 0 — a backend that zeroed
    // the buffer instead of writing the identity would corrupt the
    // min-reduction just as surely as one that accumulated.
    let g = pcpm::graph::gen::erdos_renyi(300, 2400, 9).unwrap();
    let n = g.num_nodes() as usize;
    let x: Vec<u32> = (0..g.num_nodes()).collect();
    for kind in BackendKind::ALL {
        let mut engine = Engine::<MinLabel>::builder(&g)
            .partition_bytes(64 * 4)
            .backend(kind)
            .build()
            .unwrap();
        let mut clean = vec![0u32; n];
        engine.step(&x, &mut clean).unwrap();
        for poison in [0u32, 7, u32::MAX - 1] {
            let mut y = vec![poison; n];
            engine.step(&x, &mut y).unwrap();
            assert_eq!(clean, y, "{}: poisoned with {poison}", kind.name());
        }
    }
}

#[test]
fn snapshot_loaded_engines_keep_the_overwrite_contract() {
    // The rehydrated dataplane allocates a fresh scratch update stream;
    // its first step must still overwrite like a cold-built engine's.
    let g = std::sync::Arc::new(pcpm::graph::gen::rmat(&RmatConfig::graph500(8, 8, 3)).unwrap());
    let n = g.num_nodes() as usize;
    let x = int_x(g.num_nodes());
    let dir = std::env::temp_dir().join("pcpm_step_contract");
    std::fs::create_dir_all(&dir).unwrap();
    for format in format_matrix() {
        let path = dir.join(format!("contract-{format}.pcpmc"));
        Engine::<PlusF32>::builder_shared(&g)
            .partition_bytes(64 * 4)
            .bin_format(format)
            .build()
            .unwrap()
            .save_snapshot(&path)
            .unwrap();
        let mut engine = Engine::<PlusF32>::from_snapshot(&path).unwrap();
        assert_overwrites(&format!("snapshot/{format}"), &mut engine, &x, n);
    }
}

/// Every engine the epilogue contract covers over `g` at `threads`
/// workers: PCPM in each format and kernel, and the pull backend.
fn epilogue_engines(g: &Csr, partition_bytes: usize, threads: usize) -> Vec<Engine<PlusF32>> {
    let base = PcpmConfig::default()
        .with_partition_bytes(partition_bytes)
        .with_threads(threads);
    let mut engines = Vec::new();
    for format in format_matrix() {
        for kernel in kernel_matrix() {
            let cfg = base.with_bin_format(format).with_kernel(kernel);
            engines.push(Engine::builder(g).config(cfg).build().unwrap());
        }
    }
    let pull = Engine::builder(g).config(base).backend(BackendKind::Pull);
    engines.push(pull.build().unwrap());
    engines
}

/// Runs one `step_many_with` of width `width` over poisoned outputs and
/// state. The closure checks that each range it is handed already holds
/// the final sums, moves them into the state and leaves `-1` behind, so
/// afterwards: for every query the ranges tile `0..n` in
/// `partition_nodes` steps (every node exactly once, also when a batch
/// wider than eight runs as passes), the state equals a plain `step`,
/// the outputs are what the closure wrote, and each query's total is the
/// node count.
fn assert_epilogue_contract(engine: &mut Engine<PlusF32>, partition_nodes: usize, width: usize) {
    let n = engine.num_dst() as usize;
    let m = engine.metrics();
    let name = format!("{} {:?} {:?} width {width}", m.name, m.bin_format, m.kernel);
    let xs: Vec<Vec<f32>> = (0..width as u32)
        .map(|q| (0..n as u32).map(|v| ((v + q) % 13) as f32).collect())
        .collect();
    let want: Vec<Vec<f32>> = (xs.iter())
        .map(|x| {
            let mut y = vec![0.0f32; n];
            engine.step(x, &mut y).unwrap();
            y
        })
        .collect();
    let mut ys = vec![vec![f32::NAN; n]; width];
    let mut state = ys.clone();
    let seen: Mutex<Vec<(usize, Range<usize>)>> = Mutex::new(Vec::new());
    let apply = |done: Finished<'_, f32>| {
        let ranges = done.queries.clone().map(|q| (q, done.nodes.clone()));
        seen.lock().unwrap().extend(ranges);
        let want = &want[done.queries];
        let queries = done.outputs.into_iter().zip(done.state).zip(want);
        for (((y, state), want), partial) in queries.zip(done.partials) {
            assert_eq!(
                *y,
                want[done.nodes.clone()],
                "{name}: sums of {:?}",
                done.nodes
            );
            state.copy_from_slice(y);
            y.fill(-1.0);
            *partial = done.nodes.len() as f64;
        }
    };
    let x_refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
    let mut y_refs: Vec<&mut [f32]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
    let mut state_refs: Vec<&mut [f32]> = state.iter_mut().map(Vec::as_mut_slice).collect();
    let (_, totals) = engine
        .step_many_with(&x_refs, &mut y_refs, &mut state_refs, &apply)
        .unwrap();
    let mut seen = seen.into_inner().unwrap();
    seen.sort_by_key(|(q, r)| (*q, r.start));
    let tiles: Vec<(usize, Range<usize>)> = (0..width)
        .flat_map(|q| (0..n).step_by(partition_nodes).map(move |lo| (q, lo)))
        .map(|(q, lo)| (q, lo..n.min(lo + partition_nodes)))
        .collect();
    assert_eq!(seen, tiles, "{name}");
    assert_eq!(state, want, "{name}");
    assert!(ys.iter().flatten().all(|&y| y == -1.0), "{name}");
    assert_eq!(totals, vec![n as f64; width], "{name}");
}

#[test]
fn the_epilogue_sees_every_node_once_after_its_sums_are_final() {
    let rmat = pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 13)).unwrap();
    let empty = Csr::from_edges(0, &[]).unwrap();
    // 64-node partitions (k = 8, the last one full), one partition that
    // holds the whole graph (k = 1), and no partition at all.
    for (g, partition_bytes) in [(&rmat, 64 * 4), (&rmat, 512 * 4), (&empty, 64 * 4)] {
        for threads in [1, 2, 4] {
            for mut engine in epilogue_engines(g, partition_bytes, threads) {
                // Nine queries run as passes of eight and one.
                for width in [1, 3, 9] {
                    assert_epilogue_contract(&mut engine, partition_bytes / 4, width);
                }
            }
        }
    }
    // An uneven last partition, and the baselines' engines.
    let g = pcpm::graph::gen::erdos_renyi(300, 2400, 9).unwrap();
    let cfg = PcpmConfig::default().with_partition_bytes(64 * 4);
    let mut engines = epilogue_engines(&g, 64 * 4, 2);
    engines.push(pcpm::baselines::pdpr_engine(&g, &cfg).unwrap());
    engines.push(pcpm::baselines::bvgas_engine(&g, &cfg).unwrap());
    for mut engine in engines {
        assert_epilogue_contract(&mut engine, 64, 3);
    }
}

#[test]
fn ablation_engines_run_a_batch_one_query_per_round() {
    // Neither Algorithm 2 variant has a batched kernel: `step_many` must
    // give each query its `step` bits, and the epilogue contract holds
    // with the apply inside the gather of each query's pass.
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 13)).unwrap();
    let builder = || Engine::<PlusF32>::builder(&g).partition_bytes(64 * 4);
    let ablations = [
        builder().scatter(ScatterKind::CsrTraversal),
        builder().gather(GatherKind::Branchy),
    ];
    for builder in ablations {
        let mut engine = builder.build().unwrap();
        let n = engine.num_src();
        let xs: Vec<Vec<f32>> = (0..3).map(|q| inputs_of(n, q)).collect();
        let solo: Vec<Vec<f32>> = (xs.iter())
            .map(|x| {
                let mut y = vec![f32::NAN; n as usize];
                engine.step(x, &mut y).unwrap();
                y
            })
            .collect();
        assert_eq!(step_many_of(&mut engine, 3), solo);
        for width in [1, 3] {
            assert_epilogue_contract(&mut engine, 64, width);
        }
    }
}

/// Query `q`'s real-valued input over `n` nodes.
fn inputs_of(n: u32, q: u32) -> Vec<f32> {
    (0..n).map(|v| 1.0 / (v % 7 + q + 1) as f32).collect()
}

/// `step_many` over `width` distinct inputs.
fn step_many_of(engine: &mut Engine<PlusF32>, width: u32) -> Vec<Vec<f32>> {
    let n = engine.num_src();
    let xs: Vec<Vec<f32>> = (0..width).map(|q| inputs_of(n, q)).collect();
    let x_refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
    let mut ys = vec![vec![f32::NAN; n as usize]; width as usize];
    let mut y_refs: Vec<&mut [f32]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
    engine.step_many(&x_refs, &mut y_refs).unwrap();
    ys
}

#[test]
fn kept_update_streams_never_leak_between_rounds() {
    // Real-valued inputs: a stale lane of the kept rows would change a
    // sum. Widths 8, 2, 8, 1, 9 narrow, regrow, drop (a solo round) and
    // outgrow the rows, past the 8-lane block; the update changes |E'|
    // and rebuilds the dataplane, rows included.
    let g = Arc::new(pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 29)).unwrap());
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    let deleted: Vec<(u32, u32)> = edges.iter().copied().step_by(5).take(40).collect();
    edges.retain(|e| !deleted.contains(e));
    let inserted: Vec<(u32, u32)> = (0..40u32)
        .map(|i| (i * 11 % 512, (i * 37 + 5) % 512))
        .filter(|e| !edges.contains(e))
        .collect();
    edges.extend(&inserted);
    let g2 = Arc::new(Csr::from_edges(g.num_nodes(), &edges).unwrap());
    let batch = UpdateBatch::from_parts(inserted, deleted);
    for format in format_matrix() {
        let cfg = PcpmConfig::default()
            .with_partition_bytes(64 * 4)
            .with_bin_format(format);
        let build = |g: &Arc<Csr>| Engine::<PlusF32>::builder(g).config(cfg).build().unwrap();
        let mut engine = build(&g);
        let compressed_before = engine.report().compression_ratio;
        for width in [8, 2, 8, 1, 9] {
            let fresh = step_many_of(&mut build(&g), width);
            assert_eq!(
                step_many_of(&mut engine, width),
                fresh,
                "{format} width {width}"
            );
        }
        assert!(matches!(
            engine.update(&g2, None, &batch).unwrap(),
            UpdateOutcome::Rebuilt
        ));
        assert_ne!(engine.report().compression_ratio, compressed_before);
        for width in [8, 2, 8, 1, 9] {
            let fresh = step_many_of(&mut build(&g2), width);
            assert_eq!(
                step_many_of(&mut engine, width),
                fresh,
                "{format} width {width} after the update"
            );
        }
    }
}

/// Solves `seed_sets` as one batch and one by one, on every format and
/// on the pull backend, at 1 and 4 threads: each query must stop where
/// it stops alone, with its solo scores and `last_delta` bits — and, the
/// L1 change being grouped by partition, with one `last_delta` per
/// dataplane whatever the format or thread count. Returns the distinct
/// iteration counts the queries froze at.
fn batch_equals_solos(g: &Csr, seed_sets: &[Vec<u32>]) -> std::collections::BTreeSet<usize> {
    let mut engines: Vec<(PcpmConfig, Engine<PlusF32>)> = Vec::new();
    for threads in [1, 4] {
        let base = PcpmConfig::default()
            .with_partition_bytes(64 * 4)
            .with_iterations(100)
            .with_tolerance(1e-6)
            .with_threads(threads);
        for format in format_matrix() {
            let cfg = base.with_bin_format(format);
            engines.push((cfg, Engine::builder(g).config(cfg).build().unwrap()));
        }
        let pull = Engine::builder(g).config(base).backend(BackendKind::Pull);
        engines.push((base, pull.build().unwrap()));
    }
    let mut stops = std::collections::BTreeMap::new();
    for (cfg, mut engine) in engines {
        let name = engine.report().backend;
        let batch = pcpm::algos::personalized_pagerank_many_with_unified_engine(
            g,
            seed_sets,
            &cfg,
            &mut engine,
        )
        .unwrap();
        for (q, (seeds, got)) in seed_sets.iter().zip(&batch).enumerate() {
            let solo =
                pcpm::algos::personalized_pagerank_with_unified_engine(g, seeds, &cfg, &mut engine)
                    .unwrap();
            assert!(got.converged, "{name}");
            assert_eq!(got.scores, solo.scores, "{name} {}", cfg.bin_format);
            assert_eq!(got.iterations, solo.iterations, "{name} {}", cfg.bin_format);
            assert_eq!(
                got.last_delta.to_bits(),
                solo.last_delta.to_bits(),
                "{name}"
            );
            let stop = (got.iterations, got.last_delta.to_bits());
            assert_eq!(
                *stops.entry((name, q)).or_insert(stop),
                stop,
                "{name} {cfg:?}"
            );
        }
    }
    stops.values().map(|s| s.0).collect()
}

#[test]
fn a_batch_gives_every_query_its_solo_scores_and_iteration_count() {
    // The tolerance freezes the three queries at different iterations.
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(8, 8, 77)).unwrap();
    let seed_sets: Vec<Vec<u32>> = vec![vec![0], (0..g.num_nodes()).collect(), vec![5, 6, 7]];
    let iterations = batch_equals_solos(&g, &seed_sets);
    assert!(
        iterations.len() > 1,
        "queries froze together: {iterations:?}"
    );
}

#[test]
fn a_batch_split_at_eight_lanes_equals_its_solos_while_it_narrows() {
    // Seventeen single-seed queries: the first rounds run as passes of
    // 8, 8 and 1 lanes, and as queries freeze the batch narrows across
    // the split at 8 (17, 16, 9 and 8 wide are all passes of their own).
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(8, 8, 77)).unwrap();
    let seeds = [31, 4, 0, 7, 15, 79, 94, 139, 1, 2, 3, 5, 6, 9, 12, 40, 200];
    let seed_sets: Vec<Vec<u32>> = seeds.map(|s| vec![s]).to_vec();
    let iterations = batch_equals_solos(&g, &seed_sets);
    assert!(
        iterations.len() > 2,
        "queries froze together: {iterations:?}"
    );
}

#[test]
fn a_batch_that_narrows_from_eight_lanes_to_one_equals_its_solos() {
    // Eight single-seed queries that each freeze at an iteration of
    // their own (an isolated seed after one, a deep one after 28): inside
    // one solve the rounds run at every width from 8 down — across the
    // 4-lane block and the scalar tail — to 1, the solo kernel.
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(8, 8, 77)).unwrap();
    let seed_sets: Vec<Vec<u32>> = [31, 4, 0, 7, 15, 79, 94, 139].map(|s| vec![s]).to_vec();
    let iterations = batch_equals_solos(&g, &seed_sets);
    assert_eq!(iterations.len(), 8, "some queries froze together");
}

/// The library's PPR through the driver with no adjacency to push along:
/// every round is gathered from the bins.
fn ppr_gathered(
    g: &Csr,
    seed_sets: &[Vec<u32>],
    cfg: &PcpmConfig,
    engine: &mut Engine<PlusF32>,
) -> Vec<PrResult> {
    use pcpm::core::fixed_point::{fixed_point, FixedPoint};
    let n = g.num_nodes() as usize;
    let damping = cfg.damping as f32;
    let teleports: Vec<Vec<f32>> = seed_sets
        .iter()
        .map(|seeds| {
            let mut t = vec![0.0f32; n];
            for &s in seeds {
                t[s as usize] += 1.0 / seeds.len() as f32;
            }
            t
        })
        .collect();
    let spec = FixedPoint {
        scale: &pcpm::core::pagerank::inverse_out_degrees(g),
        max_iterations: cfg.iterations,
        tolerance: cfg.tolerance,
        dangling: true,
        graph: None,
    };
    fixed_point(engine, &spec, teleports.clone(), |q, dangling| {
        let restart = (1.0 - f64::from(damping)) + f64::from(damping) * dangling;
        let teleport = &teleports[q];
        move |sum, _, v| (restart as f32) * teleport[v] + damping * sum
    })
    .unwrap()
}

fn assert_same_runs(got: &[PrResult], want: &[PrResult], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (q, (got, want)) in got.iter().zip(want).enumerate() {
        let bits = |r: &PrResult| r.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: query {q} scores");
        assert_eq!(got.iterations, want.iterations, "{what}: query {q}");
        assert_eq!(got.converged, want.converged, "{what}: query {q}");
        let delta = |r: &PrResult| r.last_delta.to_bits();
        assert_eq!(delta(got), delta(want), "{what}: query {q} last_delta");
    }
}

#[test]
fn pushed_ppr_rounds_equal_gathered_ones_bit_for_bit() {
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(10, 8, 21)).unwrap();
    let degrees = g.out_degrees();
    let node = |want: &dyn Fn(u32) -> bool| {
        (0..g.num_nodes())
            .find(|&v| want(degrees[v as usize]))
            .unwrap()
    };
    let hub = (0..g.num_nodes())
        .max_by_key(|&v| degrees[v as usize])
        .unwrap();
    let (leaf, dangling) = (node(&|d| d == 1), node(&|d| d == 0));
    // The four kinds of seed set first, then single seeds up to 17.
    let mut seed_sets = vec![
        vec![hub],
        vec![leaf],
        vec![dangling],
        vec![leaf, 3, dangling, hub],
    ];
    seed_sets.extend((0..13).map(|i| vec![i * 71 + 5]));
    for threads in thread_matrix() {
        for format in format_matrix() {
            for tolerance in [None, Some(1e-6)] {
                let mut cfg = PcpmConfig::default()
                    .with_partition_bytes(64 * 4)
                    .with_iterations(30)
                    .with_bin_format(format)
                    .with_threads(threads);
                cfg.tolerance = tolerance;
                let what = format!("{threads} threads, {format}, tolerance {tolerance:?}");
                let mut engine = Engine::builder(&g).config(cfg).build().unwrap();
                for seeds in &seed_sets[..4] {
                    let pushed = pcpm::algos::personalized_pagerank_with_unified_engine(
                        &g,
                        seeds,
                        &cfg,
                        &mut engine,
                    )
                    .unwrap();
                    let gathered = ppr_gathered(&g, std::slice::from_ref(seeds), &cfg, &mut engine);
                    assert_same_runs(&[pushed], &gathered, &format!("{what}, solo {seeds:?}"));
                }
                for width in [1, 3, 9, 17] {
                    let batch = &seed_sets[..width];
                    let pushed = pcpm::algos::personalized_pagerank_many_with_unified_engine(
                        &g,
                        batch,
                        &cfg,
                        &mut engine,
                    )
                    .unwrap();
                    let gathered = ppr_gathered(&g, batch, &cfg, &mut engine);
                    assert_same_runs(&pushed, &gathered, &format!("{what}, batch of {width}"));
                }
                let report = engine.report();
                assert!(report.sparse_rounds > 0, "{what}: no round was pushed");
                assert!(report.pushed_edges > 0, "{what}: no edge was pushed");
            }
        }
    }
}
