//! In-crate property tests for the PCPM pipeline internals.

use pcpm_core::algebra::{MinLabel, PlusF32};
use pcpm_core::format::{BinFormat, CompactFormat, DeltaFormat, WideFormat};
use pcpm_core::partition::{split_by_lens, Partitioner};
use pcpm_core::png::{EdgeView, Png};
use pcpm_core::scatter::{csr_scatter, png_scatter};
use pcpm_core::KernelKind;
use pcpm_graph::{Csr, GraphBuilder};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Csr> {
    (2u32..100).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..500).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n).expect("builder");
            b.extend(edges);
            b.build().expect("build")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partitioner_covers_every_node_exactly_once(n in 0u32..10_000, q in 1u32..5_000) {
        let p = Partitioner::new(n, q).unwrap();
        let mut covered = 0u64;
        for part in p.iter() {
            let r = p.range(part);
            covered += u64::from(r.end - r.start);
            for v in r {
                prop_assert_eq!(p.partition_of(v), part);
            }
        }
        prop_assert_eq!(covered, u64::from(n));
        prop_assert_eq!(p.lens().iter().sum::<usize>(), n as usize);
    }

    #[test]
    fn split_by_lens_reassembles(data in proptest::collection::vec(any::<i32>(), 0..200),
                                 cuts in proptest::collection::vec(0usize..20, 0..20)) {
        // Normalize cuts into lens summing to data.len().
        let mut lens = Vec::new();
        let mut remaining = data.len();
        for c in cuts {
            let take = c.min(remaining);
            lens.push(take);
            remaining -= take;
        }
        lens.push(remaining);
        let mut buf = data.clone();
        let parts = split_by_lens(&mut buf, &lens);
        let reassembled: Vec<i32> = parts.iter().flat_map(|s| s.iter().copied()).collect();
        prop_assert_eq!(reassembled, data);
    }

    #[test]
    fn both_scatters_write_identical_bins(g in arb_graph(), q in 1u32..60) {
        let parts = Partitioner::new(g.num_nodes(), q).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        let x: Vec<f32> = (0..g.num_nodes()).map(|v| ((v * 31 + 7) % 97) as f32).collect();
        let mut a = vec![0.0f32; png.num_compressed_edges() as usize];
        let mut b = vec![f32::NAN; png.num_compressed_edges() as usize];
        png_scatter(&png, &x, &mut a);
        csr_scatter(EdgeView::from_csr(&g), &png, &x, &mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn gathers_agree_across_formats_and_variants(g in arb_graph(), q in 1u32..60) {
        let parts = Partitioner::new(g.num_nodes(), q).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v % 13) as f32 + 0.5).collect();
        let view = EdgeView::from_csr(&g);
        let mut wide = WideFormat::build::<f32>(view, &png, None);
        let mut compact = CompactFormat::build::<f32>(view, &png, None);
        let mut delta = DeltaFormat::build::<f32>(view, &png, None);
        WideFormat::scatter_into(&png, &x, &mut wide);
        CompactFormat::scatter_into(&png, &x, &mut compact);
        DeltaFormat::scatter_into(&png, &x, &mut delta);
        let n = g.num_nodes() as usize;
        let (mut y1, mut y2, mut y3, mut y4) =
            (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
        WideFormat::gather_from::<PlusF32>(&png, &wide, &mut y1, KernelKind::Scalar);
        WideFormat::gather_branchy_from::<PlusF32>(&png, &wide, &mut y2).unwrap();
        CompactFormat::gather_from::<PlusF32>(&png, &compact, &mut y3, KernelKind::Unrolled);
        DeltaFormat::gather_from::<PlusF32>(&png, &delta, &mut y4, KernelKind::Unrolled);
        prop_assert_eq!(&y1, &y2);
        prop_assert_eq!(&y1, &y3);
        prop_assert_eq!(&y1, &y4);
    }

    #[test]
    fn min_label_gather_is_neighborhood_minimum(g in arb_graph(), q in 1u32..60) {
        let parts = Partitioner::new(g.num_nodes(), q).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        let labels: Vec<u32> = (0..g.num_nodes()).map(|v| (v * 7 + 3) % 101).collect();
        let mut bins = WideFormat::build::<u32>(EdgeView::from_csr(&g), &png, None);
        WideFormat::scatter_into(&png, &labels, &mut bins);
        let mut y = vec![0u32; g.num_nodes() as usize];
        WideFormat::gather_from::<MinLabel>(&png, &bins, &mut y, KernelKind::Scalar);
        // Reference: min over in-neighbors, identity when none.
        let mut want = vec![u32::MAX; g.num_nodes() as usize];
        for (s, t) in g.edges() {
            want[t as usize] = want[t as usize].min(labels[s as usize]);
        }
        prop_assert_eq!(y, want);
    }

    #[test]
    fn source_and_dest_partition_sizes_can_differ(g in arb_graph(), qs in 1u32..40, qd in 1u32..40) {
        // The engine uses equal sizes, but the PNG layer itself supports
        // asymmetric partitioning (used by rectangular SpMV).
        let src = Partitioner::new(g.num_nodes(), qs).unwrap();
        let dst = Partitioner::new(g.num_nodes(), qd).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), src, dst);
        prop_assert_eq!(png.num_raw_edges(), g.num_edges());
        let x: Vec<f32> = (0..g.num_nodes()).map(|v| v as f32).collect();
        let mut bins = WideFormat::build::<f32>(EdgeView::from_csr(&g), &png, None);
        WideFormat::scatter_into(&png, &x, &mut bins);
        let mut y = vec![0.0f32; g.num_nodes() as usize];
        WideFormat::gather_from::<PlusF32>(&png, &bins, &mut y, KernelKind::Scalar);
        let mut want = vec![0.0f32; g.num_nodes() as usize];
        for (s, t) in g.edges() {
            want[t as usize] += x[s as usize];
        }
        for (a, b) in y.iter().zip(&want) {
            prop_assert!((a - b).abs() < 1e-3, "{} vs {}", a, b);
        }
    }
}
