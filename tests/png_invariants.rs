//! Property-based invariants of the PNG layout and the message bins.

use pcpm::core::bins::BinSpace;
use pcpm::core::format::{BinFormat, WideFormat};
use pcpm::core::partition::Partitioner;
use pcpm::core::png::{EdgeView, Png};
use pcpm::prelude::*;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Csr> {
    (2u32..150).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..800).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n).expect("builder");
            b.extend(edges);
            b.build().expect("build")
        })
    })
}

fn build_png(g: &Csr, q: u32) -> (Partitioner, Png) {
    let parts = Partitioner::new(g.num_nodes(), q).unwrap();
    (parts, Png::build(EdgeView::from_csr(g), parts, parts))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn edge_counts_are_conserved(g in arb_graph(), q in 1u32..80) {
        let (_, png) = build_png(&g, q);
        prop_assert_eq!(png.num_raw_edges(), g.num_edges());
        // Compressed edges: one per (node, destination-partition) pair
        // with at least one edge — recount independently.
        let parts = png.dst_parts();
        let mut expected = 0u64;
        for v in 0..g.num_nodes() {
            let mut prev = u32::MAX;
            for &t in g.neighbors(v) {
                let p = parts.partition_of(t);
                if p != prev {
                    expected += 1;
                    prev = p;
                }
            }
        }
        prop_assert_eq!(png.num_compressed_edges(), expected);
    }

    #[test]
    fn compression_ratio_bounds(g in arb_graph(), q in 1u32..80) {
        let (_, png) = build_png(&g, q);
        let r = png.compression_ratio();
        prop_assert!(r >= 1.0 - 1e-12);
        // A compressed edge covers at most q targets: r <= q. It also
        // cannot exceed the maximum out-degree.
        prop_assert!(r <= f64::from(q) + 1e-9);
        let max_deg = (0..g.num_nodes()).map(|v| g.out_degree(v)).max().unwrap_or(0);
        prop_assert!(r <= f64::from(max_deg.max(1)) + 1e-9);
    }

    #[test]
    fn rows_are_sorted_and_in_partition(g in arb_graph(), q in 1u32..80) {
        let (parts, png) = build_png(&g, q);
        for s in parts.iter() {
            let part = png.part(s);
            for p in parts.iter() {
                let row = part.row(p);
                prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row not strictly sorted");
                for &u in row {
                    prop_assert_eq!(parts.partition_of(u), s, "source outside partition");
                    // And u really has a neighbor in partition p.
                    prop_assert!(
                        g.neighbors(u).iter().any(|&t| parts.partition_of(t) == p),
                        "phantom compressed edge"
                    );
                }
            }
        }
    }

    #[test]
    fn bins_decode_back_to_adjacency(g in arb_graph(), q in 1u32..80) {
        let (parts, png) = build_png(&g, q);
        let bins: BinSpace = WideFormat::build(EdgeView::from_csr(&g), &png, None);
        let mut rebuilt: Vec<(u32, u32)> = Vec::new();
        for s in parts.iter() {
            let part = png.part(s);
            let base = png.did_region()[s as usize] as usize;
            for p in parts.iter() {
                let lo = base + part.did_off[p as usize] as usize;
                let hi = base + part.did_off[p as usize + 1] as usize;
                let rows = part.row(p);
                let mut row_idx = usize::MAX;
                for &raw in &bins.dest.dest_ids[lo..hi] {
                    if raw & pcpm::core::MSB_FLAG != 0 {
                        row_idx = row_idx.wrapping_add(1);
                    }
                    rebuilt.push((rows[row_idx], raw & pcpm::core::ID_MASK));
                }
            }
        }
        rebuilt.sort_unstable();
        let mut original: Vec<(u32, u32)> = g.edges().collect();
        original.sort_unstable();
        prop_assert_eq!(rebuilt, original);
    }

    #[test]
    fn regions_partition_the_bins(g in arb_graph(), q in 1u32..80) {
        let (_, png) = build_png(&g, q);
        prop_assert_eq!(png.upd_region_lens().iter().sum::<usize>() as u64,
            png.num_compressed_edges());
        prop_assert_eq!(png.did_region_lens().iter().sum::<usize>() as u64,
            png.num_raw_edges());
        prop_assert!(png.upd_region().windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(png.did_region().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn spmv_linearity(g in arb_graph(), q in 1u32..80) {
        // A^T(ax + by) == a A^T x + b A^T y — exercises scatter+gather as
        // a linear operator.
        let n = g.num_nodes() as usize;
        let mut engine = Engine::<pcpm::core::algebra::PlusF32>::builder(&g)
            .partition_bytes(q as usize * 4)
            .build()
            .unwrap();
        let x: Vec<f32> = (0..n).map(|i| ((i * 7 + 1) % 13) as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| ((i * 3 + 2) % 11) as f32).collect();
        let combo: Vec<f32> = x.iter().zip(&y).map(|(&a, &b)| 2.0 * a + 0.5 * b).collect();
        let mut ax = vec![0.0f32; n];
        let mut ay = vec![0.0f32; n];
        let mut ac = vec![0.0f32; n];
        engine.step(&x, &mut ax).unwrap();
        engine.step(&y, &mut ay).unwrap();
        engine.step(&combo, &mut ac).unwrap();
        for i in 0..n {
            let want = 2.0 * ax[i] + 0.5 * ay[i];
            prop_assert!((ac[i] - want).abs() <= 1e-2 * want.abs().max(1.0),
                "node {}: {} vs {}", i, ac[i], want);
        }
    }
}
