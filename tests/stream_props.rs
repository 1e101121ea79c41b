//! Property-based validation of the streaming subsystem: across random
//! base graphs and random insert/delete batches, the streaming paths
//! (`DeltaGraph` overlay + `Engine::update` + `incremental_pagerank`)
//! must agree with a from-scratch build + cold `pagerank_on`.

use pcpm::core::algebra::PlusF32;
use pcpm::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// A random deduplicated base graph plus a stream of random op batches.
#[derive(Clone, Debug)]
struct Scenario {
    base: Csr,
    batches: Vec<Vec<EdgeUpdate>>,
    partition_nodes: u32,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (4u32..100, 1u32..24).prop_flat_map(|(n, q)| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..400);
        let ops = proptest::collection::vec(
            proptest::collection::vec((0u32..2, 0..n, 0..n), 1..40),
            1..5,
        );
        (edges, ops).prop_map(move |(edges, ops)| {
            let mut b = GraphBuilder::new(n).expect("builder");
            b.extend(edges);
            let base = b.build().expect("base");
            let batches = ops
                .into_iter()
                .map(|batch| {
                    batch
                        .into_iter()
                        .map(|(ins, src, dst)| EdgeUpdate {
                            op: if ins == 1 {
                                EdgeOp::Insert
                            } else {
                                EdgeOp::Delete
                            },
                            src,
                            dst,
                        })
                        .collect()
                })
                .collect();
            Scenario {
                base,
                batches,
                partition_nodes: q,
            }
        })
    })
}

/// Set-semantics oracle: applies ops in order to a HashSet edge set
/// (which is exactly last-op-wins).
fn oracle_apply(edges: &mut HashSet<(u32, u32)>, ops: &[EdgeUpdate]) {
    for u in ops {
        match u.op {
            EdgeOp::Insert => {
                edges.insert((u.src, u.dst));
            }
            EdgeOp::Delete => {
                edges.remove(&(u.src, u.dst));
            }
        }
    }
}

fn to_csr(n: u32, edges: &HashSet<(u32, u32)>) -> Csr {
    let mut list: Vec<(u32, u32)> = edges.iter().copied().collect();
    list.sort_unstable();
    Csr::from_edges(n, &list).expect("oracle graph")
}

fn stream_cfg(partition_nodes: u32) -> PcpmConfig {
    // 1e-8: tight enough that both solvers land within 1e-6 of the true
    // fixed point, loose enough that f32 rounding limit-cycles in the
    // power iteration cannot stall convergence.
    PcpmConfig::default()
        .with_partition_bytes(partition_nodes as usize * 4)
        .with_iterations(2000)
        .with_tolerance(1e-8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// DeltaGraph overlay == from-scratch rebuild, batch after batch,
    /// across every compaction policy.
    #[test]
    fn delta_graph_matches_rebuild(sc in arb_scenario(), policy in 0u32..3) {
        let n = sc.base.num_nodes();
        let threshold = match policy {
            0 => 0.0,           // compact every batch
            1 => f64::INFINITY, // never compact
            _ => 0.25,          // default-ish
        };
        let mut dg = DeltaGraph::new(Arc::new(sc.base.clone()), sc.partition_nodes)
            .expect("overlay")
            .with_compaction_threshold(threshold)
            .expect("threshold");
        let mut oracle: HashSet<(u32, u32)> = sc.base.edges().collect();
        for ops in &sc.batches {
            let batch = UpdateBatch::from_ops(ops);
            let stats = dg.apply(&batch).expect("apply");
            oracle_apply(&mut oracle, ops);
            let want = to_csr(n, &oracle);
            prop_assert_eq!(&*dg.snapshot(), &want);
            prop_assert_eq!(dg.num_edges(), want.num_edges());
            // The applied sub-batch covers exactly the effective diff.
            prop_assert_eq!(stats.applied.len() + stats.ignored, batch.len());
        }
    }

    /// `Engine::update` == fresh `prepare` over the same snapshot, on
    /// every PCPM bin format (wide, compact, delta): a batch that
    /// changed the graph rebuilds, one that did not is a no-op.
    #[test]
    fn updated_engine_matches_fresh_prepare(sc in arb_scenario(), format_sel in 0u32..3) {
        let format = BinFormatKind::ALL[format_sel as usize];
        let cfg = stream_cfg(sc.partition_nodes).with_bin_format(format);
        let mut engine = Engine::<PlusF32>::builder(&sc.base).config(cfg)
            .build().expect("engine");
        let mut dg = DeltaGraph::new(Arc::new(sc.base.clone()), sc.partition_nodes)
            .expect("overlay");
        let n = sc.base.num_nodes();
        let x: Vec<f32> = (0..n).map(|v| (v % 13) as f32).collect();
        for ops in &sc.batches {
            let stats = dg.apply(&UpdateBatch::from_ops(ops)).expect("apply");
            let snap = dg.snapshot();
            let outcome = engine.update(&snap, None, &stats.applied).expect("update");
            prop_assert_eq!(outcome == UpdateOutcome::Rebuilt, !stats.applied.is_empty());
            let mut fresh = Engine::<PlusF32>::builder_shared(&snap).config(cfg)
                .build().expect("fresh");
            let mut ya = vec![0.0f32; n as usize];
            let mut yb = vec![0.0f32; n as usize];
            engine.step(&x, &mut ya).expect("updated step");
            fresh.step(&x, &mut yb).expect("fresh step");
            prop_assert_eq!(ya, yb);
        }
    }

    /// Incremental PageRank over the whole batch stream == from-scratch
    /// solve of the final graph, within 1e-6. The from-scratch side is
    /// an exact f64 oracle, so the bound cannot be masked by f32
    /// rounding limit-cycles in the engine's power iteration (the
    /// engine-vs-incremental agreement at realistic scale is asserted
    /// in `pcpm-algos` and the replay tests).
    #[test]
    fn incremental_pagerank_matches_cold(sc in arb_scenario()) {
        let cfg = stream_cfg(sc.partition_nodes);
        let mut dg = DeltaGraph::new(Arc::new(sc.base.clone()), sc.partition_nodes)
            .expect("overlay");
        let mut scores: Vec<f32> = oracle_pagerank(&sc.base, cfg.damping)
            .into_iter()
            .map(|v| v as f32)
            .collect();
        for ops in &sc.batches {
            let stats = dg.apply(&UpdateBatch::from_ops(ops)).expect("apply");
            let snap = dg.snapshot();
            let warm = incremental_pagerank(&snap, &stats.applied, &scores, &cfg)
                .expect("incremental");
            prop_assert!(warm.converged);
            scores = warm.scores;
        }
        let want = oracle_pagerank(&dg.snapshot(), cfg.damping);
        for (v, (&a, &b)) in scores.iter().zip(&want).enumerate() {
            prop_assert!(
                (f64::from(a) - b).abs() < 1e-6,
                "node {}: incremental {} vs oracle {}", v, a, b
            );
        }
    }
}

/// Serial f64 PageRank with the paper's dangling-drop convention, run
/// to a 1e-13 L1 delta — effectively the exact fixed point.
fn oracle_pagerank(g: &Csr, damping: f64) -> Vec<f64> {
    let n = g.num_nodes() as usize;
    if n == 0 {
        return vec![];
    }
    let out_deg = g.out_degrees();
    let mut pr = vec![1.0 / n as f64; n];
    for _ in 0..20_000 {
        let mut sums = vec![0.0f64; n];
        for (s, t) in g.edges() {
            sums[t as usize] += pr[s as usize] / f64::from(out_deg[s as usize]);
        }
        let mut delta = 0.0f64;
        for v in 0..n {
            let new = (1.0 - damping) / n as f64 + damping * sums[v];
            delta += (new - pr[v]).abs();
            pr[v] = new;
        }
        if delta < 1e-13 {
            break;
        }
    }
    pr
}

// ---------------------------------------------------------------------------
// The streaming invariants re-proven under concurrency: updates run on a
// real multi-threaded pool and must (a) equal a from-scratch prepare and
// (b) be bit-identical to the 1-thread update.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Engine::update` on a 4-thread engine: step output equals a
    /// fresh prepare over the same snapshot AND the 1-thread updated
    /// engine, bit for bit — for every bin format, `DeltaPackedBins`
    /// included.
    #[test]
    fn update_under_multithreaded_pool_matches_scratch(sc in arb_scenario(), format_sel in 0u32..3) {
        let format = BinFormatKind::ALL[format_sel as usize];
        let cfg = stream_cfg(sc.partition_nodes).with_bin_format(format);
        let build = |threads: usize, g: &Csr| {
            Engine::<PlusF32>::builder(g).config(cfg).threads(threads)
                .build().expect("engine")
        };
        let mut par_engine = build(4, &sc.base);
        let mut serial_engine = build(1, &sc.base);
        let mut dg = DeltaGraph::new(Arc::new(sc.base.clone()), sc.partition_nodes)
            .expect("overlay");
        let n = sc.base.num_nodes();
        let x: Vec<f32> = (0..n).map(|v| (v % 13) as f32).collect();
        for ops in &sc.batches {
            let stats = dg.apply(&UpdateBatch::from_ops(ops)).expect("apply");
            let snap = dg.snapshot();
            let rebuilt = !stats.applied.is_empty();
            let par = par_engine.update(&snap, None, &stats.applied).expect("par update");
            prop_assert_eq!(par == UpdateOutcome::Rebuilt, rebuilt);
            let serial = serial_engine.update(&snap, None, &stats.applied).expect("serial update");
            prop_assert_eq!(serial == UpdateOutcome::Rebuilt, rebuilt);
            let mut fresh = Engine::<PlusF32>::builder_shared(&snap)
                .config(cfg)
                .threads(4)
                .build()
                .expect("fresh");
            let mut y_par = vec![0.0f32; n as usize];
            let mut y_serial = vec![0.0f32; n as usize];
            let mut y_fresh = vec![0.0f32; n as usize];
            par_engine.step(&x, &mut y_par).expect("par step");
            serial_engine.step(&x, &mut y_serial).expect("serial step");
            fresh.step(&x, &mut y_fresh).expect("fresh step");
            prop_assert_eq!(&y_par, &y_serial, "4-thread update != 1-thread update");
            prop_assert_eq!(&y_par, &y_fresh, "update != from-scratch prepare");
        }
    }

}
