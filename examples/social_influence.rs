//! Influencer detection on a follower network, comparing all kernels.
//!
//! Runs PDPR, BVGAS and PCPM on the same R-MAT follower graph,
//! verifies they agree, and reports per-iteration times and the phase
//! split of Table 5.
//!
//! ```sh
//! cargo run --release --example social_influence
//! ```

use pcpm::prelude::*;

fn main() {
    // Twitter-like follower graph: skewed in-degree (celebrities).
    let graph = pcpm::graph::gen::rmat(&RmatConfig {
        scale: 15,
        edge_factor: 24,
        a: 0.57,
        b: 0.19,
        c: 0.19,
        noise: 0.1,
        seed: 7,
    })
    .expect("generate");
    println!(
        "follower graph: {} users, {} follows",
        graph.num_nodes(),
        graph.num_edges()
    );

    let cfg = PcpmConfig::default()
        .with_partition_bytes(32 * 1024)
        .with_iterations(20);

    let pd = pdpr(&graph, &cfg).expect("pdpr");
    let bv = bvgas(&graph, &cfg).expect("bvgas");
    let pc = pagerank(&graph, &cfg).expect("pcpm");

    let m = graph.num_edges();
    println!("\nper-iteration time and throughput (20 iterations):");
    for (name, r) in [("PDPR", &pd), ("BVGAS", &bv), ("PCPM", &pc)] {
        println!(
            "  {name:<6} {:>8.2} ms/iter  {:>6.3} GTEPS  (scatter {:.0}%, gather {:.0}%)",
            r.timings.total().as_secs_f64() * 1e3 / r.iterations as f64,
            r.gteps(m),
            100.0 * r.timings.scatter.as_secs_f64() / r.timings.total().as_secs_f64(),
            100.0 * r.timings.gather.as_secs_f64() / r.timings.total().as_secs_f64(),
        );
    }

    // All three kernels must agree on the ranking.
    let max_dev = |a: &[f32], b: &[f32]| {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    };
    println!(
        "\nmax deviation vs PCPM: pdpr {:.1e}, bvgas {:.1e}",
        max_dev(&pd.scores, &pc.scores),
        max_dev(&bv.scores, &pc.scores)
    );

    // Top influencers.
    let mut ranked: Vec<(u32, f32)> = pc
        .scores
        .iter()
        .copied()
        .enumerate()
        .map(|(v, s)| (v as u32, s))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let indeg = graph.in_degrees();
    println!("\ntop 5 influencers:");
    for (v, s) in ranked.iter().take(5) {
        println!(
            "  user {v:>6}  rank {s:.3e}  followers {}",
            indeg[*v as usize]
        );
    }
}
