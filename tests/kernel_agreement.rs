//! Cross-kernel agreement: every parallel kernel in the workspace must
//! compute the same PageRank vector as the serial f64 oracle, on
//! arbitrary graphs and configurations (property-based).

use pcpm::core::algebra::{MinLabel, MinPlusF32, PlusF32};
use pcpm::core::engine::{GatherKind, ScatterKind};
use pcpm::core::pagerank::{pagerank_with_variant, PcpmVariant};
use pcpm::prelude::*;
use proptest::prelude::*;

mod common;
use common::{format_matrix, kernel_matrix};

/// The unified-API configurations the backend-agreement matrix covers:
/// one PCPM engine per bin format (wide / compact / delta) crossed with
/// every gather kernel under test (`PCPM_TEST_KERNELS`), PCPM with
/// CSR-traversal scatter, and the pull dataplane, all through the
/// `Backend` trait behind `Engine`.
fn matrix_engines<A: pcpm::core::algebra::Algebra>(
    g: &Csr,
    weights: Option<&EdgeWeights>,
    q_bytes: usize,
) -> Vec<(String, Engine<A>)> {
    let build = |label: String,
                 f: &dyn Fn(EngineBuilder<'_, A>) -> EngineBuilder<'_, A>|
     -> (String, Engine<A>) {
        let mut b = Engine::<A>::builder(g).partition_bytes(q_bytes);
        if let Some(w) = weights {
            b = b.weights(w);
        }
        let e = f(b).build().unwrap_or_else(|e| panic!("{label}: {e}"));
        (label, e)
    };
    let mut engines: Vec<(String, Engine<A>)> = Vec::new();
    for format in format_matrix() {
        for kernel in kernel_matrix() {
            engines.push(build(format!("pcpm_{format}_{kernel}"), &move |b| {
                b.bin_format(format).kernel(kernel)
            }));
        }
    }
    engines.extend([
        build("pcpm_csr_traversal".to_string(), &|b| {
            b.scatter(ScatterKind::CsrTraversal)
        }),
        build("pull".to_string(), &|b| b.backend(BackendKind::Pull)),
    ]);
    engines
}

/// One SpMV round on every backend must produce identical results.
/// Integer-valued inputs (and eighth-grain weights) keep every f32 sum
/// exactly representable, so the assertion is bit-exact equality even
/// though the backends accumulate in different orders.
fn assert_backend_matrix_agrees(g: &Csr, q_bytes: usize) {
    let n = g.num_nodes() as usize;
    // Unweighted, (+, x): every engine against the serial reference.
    let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v % 13) as f32).collect();
    let mut want = vec![0.0f32; n];
    for (s, t) in g.edges() {
        want[t as usize] += x[s as usize];
    }
    for (label, mut engine) in matrix_engines::<PlusF32>(g, None, q_bytes) {
        let mut y = vec![0.0f32; n];
        engine.step(&x, &mut y).unwrap();
        assert_eq!(y, want, "{label} disagrees on unweighted SpMV");
    }

    // Weighted (min, +): exact grid weights, cross-backend equality.
    let w = EdgeWeights::new(
        g,
        (0..g.num_edges())
            .map(|i| ((i % 8) + 1) as f32 / 8.0)
            .collect(),
    )
    .unwrap();
    let xd: Vec<f32> = (0..g.num_nodes()).map(|v| (v % 7) as f32).collect();
    let mut outputs = Vec::new();
    for (label, mut engine) in matrix_engines::<MinPlusF32>(g, Some(&w), q_bytes) {
        let mut y = vec![0.0f32; n];
        engine.step(&xd, &mut y).unwrap();
        outputs.push((label, y));
    }
    for (label, y) in &outputs[1..] {
        assert_eq!(&outputs[0].1, y, "{label} disagrees on weighted min-plus");
    }

    // Integer min-label algebra: exact by construction.
    let xl: Vec<u32> = (0..g.num_nodes()).collect();
    let mut labels = Vec::new();
    for (label, mut engine) in matrix_engines::<MinLabel>(g, None, q_bytes) {
        let mut y = vec![0u32; n];
        engine.step(&xl, &mut y).unwrap();
        labels.push((label, y));
    }
    for (label, y) in &labels[1..] {
        assert_eq!(&labels[0].1, y, "{label} disagrees on min-label");
    }
}

/// `step_many` must be bit-identical to the same number of independent
/// `step` calls, on every engine in the matrix: the PCPM formats take
/// the batched SpMM gather (each destID segment decoded once, applied
/// to every query), the other dataplanes take the default sequential
/// fallback — either way the contract is exact equality on these
/// integer-grid inputs.
fn assert_step_many_matches_steps(g: &Csr, q_bytes: usize) {
    let n = g.num_nodes() as usize;
    let xs: Vec<Vec<f32>> = (0..6u32)
        .map(|q| (0..g.num_nodes()).map(|v| ((v + q) % 13) as f32).collect())
        .collect();

    // Unweighted (+, x).
    for (label, mut engine) in matrix_engines::<PlusF32>(g, None, q_bytes) {
        let mut solo = Vec::new();
        for x in &xs {
            let mut y = vec![0.0f32; n];
            engine.step(x, &mut y).unwrap();
            solo.push(y);
        }
        let mut batched: Vec<Vec<f32>> = vec![vec![0.0f32; n]; xs.len()];
        let x_refs: Vec<&[f32]> = xs.iter().map(|x| x.as_slice()).collect();
        let mut y_refs: Vec<&mut [f32]> = batched.iter_mut().map(|y| y.as_mut_slice()).collect();
        engine.step_many(&x_refs, &mut y_refs).unwrap();
        assert_eq!(batched, solo, "{label}: step_many vs solo steps");
    }

    // Weighted (min, +): the batched gather must thread the weight
    // stream identically for every query.
    let w = EdgeWeights::new(
        g,
        (0..g.num_edges())
            .map(|i| ((i % 8) + 1) as f32 / 8.0)
            .collect(),
    )
    .unwrap();
    for (label, mut engine) in matrix_engines::<MinPlusF32>(g, Some(&w), q_bytes) {
        let mut solo = Vec::new();
        for x in &xs {
            let mut y = vec![0.0f32; n];
            engine.step(x, &mut y).unwrap();
            solo.push(y);
        }
        let mut batched: Vec<Vec<f32>> = vec![vec![0.0f32; n]; xs.len()];
        let x_refs: Vec<&[f32]> = xs.iter().map(|x| x.as_slice()).collect();
        let mut y_refs: Vec<&mut [f32]> = batched.iter_mut().map(|y| y.as_mut_slice()).collect();
        engine.step_many(&x_refs, &mut y_refs).unwrap();
        assert_eq!(batched, solo, "{label}: weighted step_many vs solo steps");
    }
}

#[test]
fn step_many_matches_independent_steps_across_backends() {
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 13)).unwrap();
    for q_bytes in [64 * 4, 1024 * 4] {
        assert_step_many_matches_steps(&g, q_bytes);
    }
    let g = pcpm::graph::gen::erdos_renyi(400, 3200, 17).unwrap();
    assert_step_many_matches_steps(&g, 32 * 4);
}

#[test]
fn step_many_rejects_mismatched_batches() {
    let g = pcpm::graph::gen::erdos_renyi(50, 200, 5).unwrap();
    let mut e = Engine::<PlusF32>::builder(&g)
        .partition_bytes(64 * 4)
        .build()
        .unwrap();
    let x = vec![0.0f32; 50];
    let mut y0 = [0.0f32; 50];
    let mut y1 = [0.0f32; 50];
    // One x, two ys: rejected, not silently truncated.
    assert!(e.step_many(&[&x], &mut [&mut y0[..], &mut y1[..]]).is_err());
    // Wrong-length output vector: rejected per query.
    let mut short = [0.0f32; 49];
    assert!(e.step_many(&[&x], &mut [&mut short[..]]).is_err());
    // The empty batch is a no-op, not an error.
    assert!(e.step_many(&[], &mut []).is_ok());
}

#[test]
fn backend_agreement_matrix_on_er() {
    for (nodes, edges, seed) in [(300u32, 2400u64, 8u64), (512, 4000, 21)] {
        let g = pcpm::graph::gen::erdos_renyi(nodes, edges, seed).unwrap();
        for q_bytes in [32 * 4, 200 * 4] {
            assert_backend_matrix_agrees(&g, q_bytes);
        }
    }
}

#[test]
fn backend_agreement_matrix_on_rmat() {
    for seed in [3u64, 77] {
        let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, seed)).unwrap();
        for q_bytes in [64 * 4, 1024 * 4] {
            assert_backend_matrix_agrees(&g, q_bytes);
        }
    }
}

#[test]
fn baseline_runner_backends_join_the_matrix() {
    // The pcpm-baselines engines (BVGAS, PDPR) plug in through
    // Engine::from_backend and must agree with the core PCPM backend
    // bit-exactly on integer inputs.
    use pcpm::baselines::{bvgas_engine, pdpr_engine};
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 55)).unwrap();
    let cfg = PcpmConfig::default().with_partition_bytes(64 * 4);
    let n = g.num_nodes() as usize;
    let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v % 11) as f32).collect();
    let mut want = vec![0.0f32; n];
    let mut pcpm_engine = Engine::<PlusF32>::builder(&g).config(cfg).build().unwrap();
    pcpm_engine.step(&x, &mut want).unwrap();
    for engine in [
        bvgas_engine(&g, &cfg).unwrap(),
        pdpr_engine(&g, &cfg).unwrap(),
    ] {
        let mut engine = engine;
        let name = engine.report().backend;
        let mut y = vec![0.0f32; n];
        engine.step(&x, &mut y).unwrap();
        assert_eq!(y, want, "baseline backend {name}");
    }
}

/// Random graph strategy: up to 120 nodes, up to 600 edges.
fn arb_graph() -> impl Strategy<Value = Csr> {
    (2u32..120).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..600).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n).expect("builder");
            b.extend(edges);
            b.build().expect("build")
        })
    })
}

fn check_against_oracle(g: &Csr, cfg: &PcpmConfig, scores: &[f32], label: &str) {
    let oracle = serial_pagerank(g, cfg);
    let scale = oracle.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
    for (i, (&a, &b)) in scores.iter().zip(&oracle).enumerate() {
        prop_assert_with(
            (f64::from(a) - b).abs() <= 2e-3 * scale,
            &format!("{label}: node {i}: {a} vs {b}"),
        );
    }
}

/// Local assert that plays well inside plain #[test] fns too.
fn prop_assert_with(cond: bool, msg: &str) {
    assert!(cond, "{msg}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pcpm_matches_oracle(g in arb_graph(), q in 1u32..64, iters in 1usize..8) {
        let cfg = PcpmConfig::default()
            .with_partition_bytes(q as usize * 4)
            .with_iterations(iters);
        let r = pagerank(&g, &cfg).unwrap();
        check_against_oracle(&g, &cfg, &r.scores, "pcpm");
    }

    #[test]
    fn all_pcpm_variants_identical(g in arb_graph(), q in 1u32..64) {
        let cfg = PcpmConfig::default().with_partition_bytes(q as usize * 4).with_iterations(4);
        let base = pagerank(&g, &cfg).unwrap().scores;
        for scatter in [ScatterKind::Png, ScatterKind::CsrTraversal] {
            for gather in [GatherKind::BranchAvoiding, GatherKind::Branchy] {
                let r = pagerank_with_variant(&g, &cfg, PcpmVariant { scatter, gather }).unwrap();
                prop_assert_eq!(&base, &r.scores);
            }
        }
    }

    #[test]
    fn pdpr_matches_oracle(g in arb_graph(), iters in 1usize..8) {
        let cfg = PcpmConfig::default().with_iterations(iters);
        let r = pdpr(&g, &cfg).unwrap();
        check_against_oracle(&g, &cfg, &r.scores, "pdpr");
    }

    #[test]
    fn bvgas_matches_oracle(g in arb_graph(), q in 1u32..64, iters in 1usize..6) {
        let cfg = PcpmConfig::default()
            .with_partition_bytes(q as usize * 4)
            .with_iterations(iters);
        let r = bvgas(&g, &cfg).unwrap();
        check_against_oracle(&g, &cfg, &r.scores, "bvgas");
    }

    #[test]
    fn dangling_redistribution_conserves_mass_everywhere(g in arb_graph()) {
        let mut cfg = PcpmConfig::default().with_iterations(15);
        cfg.redistribute_dangling = true;
        for (label, r) in [
            ("pcpm", pagerank(&g, &cfg).unwrap()),
            ("pdpr", pdpr(&g, &cfg).unwrap()),
            ("bvgas", bvgas(&g, &cfg).unwrap()),
        ] {
            let mass = r.mass();
            prop_assert!((mass - 1.0).abs() < 1e-2, "{} mass {}", label, mass);
        }
    }
}

#[test]
fn three_kernels_agree_on_standins() {
    for d in pcpm::graph::gen::Dataset::ALL {
        let g = pcpm::graph::gen::datasets::standin_at(d, 11).unwrap();
        let cfg = PcpmConfig::default()
            .with_partition_bytes(2048)
            .with_iterations(10);
        let pc = pagerank(&g, &cfg).unwrap().scores;
        let pd = pdpr(&g, &cfg).unwrap().scores;
        let bv = bvgas(&g, &cfg).unwrap().scores;
        for i in 0..g.num_nodes() as usize {
            assert!(
                (pc[i] - pd[i]).abs() < 1e-5,
                "{}: pcpm vs pdpr node {i}",
                d.name()
            );
            assert!(
                (pc[i] - bv[i]).abs() < 1e-5,
                "{}: pcpm vs bvgas node {i}",
                d.name()
            );
        }
    }
}

#[test]
fn ranking_is_stable_across_kernels() {
    // The induced top-20 ranking (not just the values) must agree.
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(11, 12, 9)).unwrap();
    let cfg = PcpmConfig::default()
        .with_partition_bytes(1024)
        .with_iterations(20);
    let top = |scores: &[f32]| -> Vec<u32> {
        let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
        idx.sort_by(|&a, &b| scores[b as usize].total_cmp(&scores[a as usize]));
        idx.truncate(20);
        idx
    };
    let pc = top(&pagerank(&g, &cfg).unwrap().scores);
    let pd = top(&pdpr(&g, &cfg).unwrap().scores);
    assert_eq!(pc, pd);
}
