//! Table 8 micro-version: pre-processing cost of each methodology —
//! PNG construction + bin writing for PCPM, bin sizing + offsets +
//! destination IDs for BVGAS, and the CSC transpose PDPR would need if it
//! were not assumed as input.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcpm_baselines::bvgas_engine;
use pcpm_core::algebra::PlusF32;
use pcpm_core::{Engine, PcpmConfig};
use pcpm_graph::gen::datasets::{standin_at, Dataset};

const SCALE: u32 = 13;

fn bench_preprocessing(c: &mut Criterion) {
    let cfg = PcpmConfig::default().with_partition_bytes(8 * 1024);
    let mut group = c.benchmark_group("preprocessing");
    group.sample_size(10);
    for d in [Dataset::Gplus, Dataset::Kron, Dataset::Sd1] {
        let g = standin_at(d, SCALE).expect("standin");
        group.throughput(Throughput::Elements(g.num_edges()));
        group.bench_with_input(BenchmarkId::new("pcpm_png_build", d.name()), &g, |b, g| {
            b.iter(|| {
                Engine::<PlusF32>::builder(g)
                    .config(cfg)
                    .build()
                    .expect("engine")
            });
        });
        group.bench_with_input(BenchmarkId::new("bvgas_layout", d.name()), &g, |b, g| {
            b.iter(|| bvgas_engine(g, &cfg).expect("bvgas"));
        });
        group.bench_with_input(BenchmarkId::new("csc_transpose", d.name()), &g, |b, g| {
            b.iter(|| g.transpose());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_preprocessing);
criterion_main!(benches);
