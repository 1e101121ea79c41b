//! Bin-format sweep: per-format step time, auxiliary memory and
//! destination-ID compression on a seeded scale-12 RMAT graph.
//!
//! Besides the usual console table, the suite emits `BENCH_formats.json`
//! in the working directory so CI and notebooks can track the trade
//! between decode cost (delta pays a value decode per edge) and
//! dest-stream traffic (wide pays 4 bytes per edge) without scraping
//! stdout.

use pcpm_core::algebra::PlusF32;
use pcpm_core::{BinFormatKind, Engine, PcpmConfig};
use pcpm_graph::gen::{rmat, RmatConfig};
use std::time::Instant;

const SCALE: u32 = 12;
const EDGE_FACTOR: u32 = 8;
const SEED: u64 = 42;
/// 2 KB partitions -> 512 nodes -> 8 partitions at scale 12.
const PARTITION_BYTES: usize = 2 * 1024;
const WARMUP_STEPS: usize = 3;
const MEASURED_STEPS: usize = 30;

struct FormatRow {
    name: &'static str,
    step_us: f64,
    preprocess_us: f64,
    aux_memory_bytes: u64,
    dest_compression: f64,
    dest_stream_bytes: u64,
    dest_gbps: f64,
}

fn main() {
    let g = rmat(&RmatConfig::graph500(SCALE, EDGE_FACTOR, SEED)).expect("seeded rmat");
    let n = g.num_nodes() as usize;
    let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v % 13) as f32).collect();

    let mut rows = Vec::new();
    let mut reference: Option<Vec<f32>> = None;
    for format in BinFormatKind::ALL {
        let cfg = PcpmConfig::default()
            .with_partition_bytes(PARTITION_BYTES)
            .with_bin_format(format);
        let mut engine = Engine::<PlusF32>::builder(&g)
            .config(cfg)
            .build()
            .expect("engine");
        let mut y = vec![0.0f32; n];
        for _ in 0..WARMUP_STEPS {
            engine.step(&x, &mut y).expect("warmup step");
        }
        let t0 = Instant::now();
        for _ in 0..MEASURED_STEPS {
            engine.step(&x, &mut y).expect("step");
        }
        let step_us = t0.elapsed().as_secs_f64() * 1e6 / MEASURED_STEPS as f64;
        // Formats must be interchangeable: bit-identical output on the
        // integer grid, or the timing comparison is meaningless.
        match &reference {
            None => reference = Some(y.clone()),
            Some(want) => assert_eq!(want, &y, "format {format} diverged"),
        }
        let report = engine.report();
        rows.push(FormatRow {
            name: format.name(),
            step_us,
            preprocess_us: report.preprocess.as_secs_f64() * 1e6,
            aux_memory_bytes: report.aux_memory_bytes,
            dest_compression: report.bin_compression.expect("pcpm reports compression"),
            dest_stream_bytes: report
                .dest_stream_bytes
                .expect("pcpm reports dest-stream bytes"),
            dest_gbps: report.dest_stream_gbps().unwrap_or(0.0),
        });
    }

    println!(
        "formats sweep — rmat scale {SCALE} ef {EDGE_FACTOR} seed {SEED} \
         ({} nodes, {} edges), {PARTITION_BYTES} B partitions",
        g.num_nodes(),
        g.num_edges()
    );
    println!(
        "{:<8} {:>12} {:>14} {:>12} {:>10} {:>14} {:>10}",
        "format", "step(us)", "preprocess(us)", "aux(bytes)", "dest-comp", "stream(B/step)", "GB/s"
    );
    for r in &rows {
        println!(
            "{:<8} {:>12.1} {:>14.1} {:>12} {:>10.2} {:>14} {:>10.2}",
            r.name,
            r.step_us,
            r.preprocess_us,
            r.aux_memory_bytes,
            r.dest_compression,
            r.dest_stream_bytes,
            r.dest_gbps
        );
    }

    let wide_aux = rows[0].aux_memory_bytes;
    assert!(
        rows.iter().skip(1).all(|r| r.aux_memory_bytes < wide_aux),
        "compact and delta must hold strictly less auxiliary memory than wide"
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"graph\": {{\"kind\": \"rmat\", \"scale\": {SCALE}, \"edge_factor\": {EDGE_FACTOR}, \
         \"seed\": {SEED}, \"nodes\": {}, \"edges\": {}}},\n",
        g.num_nodes(),
        g.num_edges()
    ));
    json.push_str(&format!("  \"partition_bytes\": {PARTITION_BYTES},\n"));
    json.push_str(&format!("  \"measured_steps\": {MEASURED_STEPS},\n"));
    json.push_str("  \"formats\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"step_us\": {:.3}, \"preprocess_us\": {:.3}, \
             \"aux_memory_bytes\": {}, \"dest_compression\": {:.4}, \
             \"dest_stream_bytes\": {}, \"dest_gbps\": {:.3}}}{}\n",
            r.name,
            r.step_us,
            r.preprocess_us,
            r.aux_memory_bytes,
            r.dest_compression,
            r.dest_stream_bytes,
            r.dest_gbps,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_formats.json", &json).expect("write BENCH_formats.json");
    println!("wrote BENCH_formats.json");
}
