//! Figs. 13/14 micro-version: PCPM iteration time across partition sizes
//! on the kron stand-in (real machine). The `repro fig13`/`fig14`
//! subcommands sweep all six datasets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcpm_core::algebra::PlusF32;
use pcpm_core::pagerank::pagerank_with_unified_engine;
use pcpm_core::{Engine, PcpmConfig};
use pcpm_graph::gen::datasets::{standin_at, Dataset};

const SCALE: u32 = 13;

fn bench_partition_sweep(c: &mut Criterion) {
    let g = standin_at(Dataset::Kron, SCALE).expect("standin");
    let mut group = c.benchmark_group("partition_sweep_kron");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.num_edges()));
    for shift in 10..=17 {
        let bytes = 1usize << shift; // 1 KB .. 128 KB partitions
        let cfg = PcpmConfig::default()
            .with_partition_bytes(bytes)
            .with_iterations(1);
        let mut engine = Engine::<PlusF32>::builder(&g)
            .config(cfg)
            .build()
            .expect("engine");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}KB", bytes / 1024)),
            &g,
            |b, g| {
                b.iter(|| pagerank_with_unified_engine(g, &cfg, &mut engine, None).expect("run"));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_partition_sweep);
criterion_main!(benches);
