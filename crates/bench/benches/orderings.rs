//! Locality ablation (Tables 6/7 timing side): PCPM iteration time under
//! original, GOrder, and random node labelings. GOrder should match or
//! beat the original labeling; random should be the slowest (lowest
//! compression ratio).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcpm_core::algebra::PlusF32;
use pcpm_core::pagerank::pagerank_with_unified_engine;
use pcpm_core::{Engine, PcpmConfig};
use pcpm_graph::gen::datasets::{standin_at, Dataset};
use pcpm_graph::order::{reorder, OrderingKind};

const SCALE: u32 = 13;

fn bench_orderings(c: &mut Criterion) {
    let cfg = PcpmConfig::default()
        .with_partition_bytes(8 * 1024)
        .with_iterations(1);
    let mut group = c.benchmark_group("orderings");
    group.sample_size(10);
    for d in [Dataset::Web, Dataset::Kron] {
        let g = standin_at(d, SCALE).expect("standin");
        group.throughput(Throughput::Elements(g.num_edges()));
        for kind in [
            OrderingKind::Original,
            OrderingKind::Gorder,
            OrderingKind::Random,
        ] {
            let (rg, _) = reorder(&g, kind, 7).expect("reorder");
            let mut engine = Engine::<PlusF32>::builder(&rg)
                .config(cfg)
                .build()
                .expect("engine");
            group.bench_with_input(BenchmarkId::new(kind.name(), d.name()), &rg, |b, rg| {
                b.iter(|| pagerank_with_unified_engine(rg, &cfg, &mut engine, None).expect("run"));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_orderings);
criterion_main!(benches);
