//! Phase-isolation and ablation benches (Table 5 split + the paper's two
//! system optimizations):
//!
//! - scatter: PNG layout (Algorithm 3) vs CSR traversal (Algorithm 2) —
//!   the §3.3 data-layout ablation;
//! - gather: branch-avoiding (Algorithm 4) vs branchy (Algorithm 2) — the
//!   §3.4 branch-avoidance ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcpm_core::algebra::PlusF32;
use pcpm_core::format::{BinFormat, WideFormat};
use pcpm_core::partition::Partitioner;
use pcpm_core::png::{EdgeView, Png};
use pcpm_core::scatter::{csr_scatter, png_scatter};
use pcpm_core::KernelKind;
use pcpm_graph::gen::datasets::{standin_at, Dataset};

const SCALE: u32 = 13;
const PARTITION_NODES: u32 = 2048; // 8 KB of values

fn bench_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("phases");
    group.sample_size(20);
    for d in [Dataset::Kron, Dataset::Web, Dataset::Twitter] {
        let g = standin_at(d, SCALE).expect("standin");
        let parts = Partitioner::new(g.num_nodes(), PARTITION_NODES).expect("parts");
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        let mut bins = WideFormat::build(EdgeView::from_csr(&g), &png, None);
        let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v as f32).recip()).collect();
        let mut y = vec![0.0f32; g.num_nodes() as usize];

        group.throughput(Throughput::Elements(g.num_edges()));
        group.bench_with_input(BenchmarkId::new("scatter_png", d.name()), &g, |b, _| {
            b.iter(|| png_scatter(&png, &x, &mut bins.updates));
        });
        group.bench_with_input(BenchmarkId::new("scatter_csr", d.name()), &g, |b, g| {
            b.iter(|| csr_scatter(EdgeView::from_csr(g), &png, &x, &mut bins.updates));
        });
        png_scatter(&png, &x, &mut bins.updates);
        group.bench_with_input(
            BenchmarkId::new("gather_branch_avoiding", d.name()),
            &g,
            |b, _| {
                b.iter(|| {
                    WideFormat::gather_from::<PlusF32>(&png, &bins, &mut y, KernelKind::Scalar)
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("gather_branchy", d.name()), &g, |b, _| {
            b.iter(|| WideFormat::gather_branchy_from::<PlusF32>(&png, &bins, &mut y));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
