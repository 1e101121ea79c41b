//! Reproduction harness: one subcommand per table / figure of the paper.
//!
//! ```text
//! repro <exhibit> [--scale N] [--iters N] [--threads N] [--quick]
//!                 [--format wide|compact|delta] [--cache-dir DIR]
//!
//! `--cache-dir DIR` reuses prepared-engine snapshots across harness
//! runs: PCPM timing engines load from `DIR` instead of re-running
//! PNG/bin preprocessing every invocation (built and saved on miss).
//!
//! exhibits: table4 fig1 fig6 fig7 table5 fig8 fig9 fig10
//!           table6 table7 fig11 fig12 fig13 fig14 table8 all
//! ```
//!
//! Each exhibit prints an aligned table (same rows/series the paper
//! reports) and writes a CSV under `results/`. Timing exhibits run on the
//! real host; traffic exhibits replay the kernels' address streams on the
//! scaled simulation machine (see `pcpm_bench::suite`).

use pcpm_bench::suite::{
    f2, f3, sim_cache, sim_worker_cache, time_bvgas, time_pcpm, time_pdpr, SuiteConfig, Table,
    SIM_PARTITION_NODES, SIM_SCALE_DOWN, TIMING_PARTITION_BYTES,
};
use pcpm_core::partition::Partitioner;
use pcpm_core::png::{EdgeView, Png};
use pcpm_core::PcpmConfig;
use pcpm_graph::gen::datasets::Dataset;
use pcpm_graph::stats::stats;
use pcpm_graph::Csr;
use pcpm_memsim::energy::{energy_per_edge_uj, sustained_bandwidth_gbs};
use pcpm_memsim::model::{fig6_curve, ModelParams};
use pcpm_memsim::{replay_bvgas, replay_pcpm, replay_pdpr};

const EXHIBITS: [&str; 18] = [
    "table4", "fig1", "fig6", "fig7", "table5", "fig8", "fig9", "fig10", "table6", "table7",
    "fig11", "fig12", "fig13", "fig13sim", "fig14", "table8", "ablation", "all",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (suite, cmd) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!(
        "PCPM reproduction harness — scale {} (n ≈ {}K), {} iterations, {} threads, {} bins",
        suite.scale,
        (1u64 << suite.scale) / 1000,
        suite.iterations,
        suite
            .threads
            .map(|t| t.to_string())
            .unwrap_or_else(|| format!("{} (rayon)", rayon::current_num_threads())),
        suite.bin_format,
    );
    let run = |name: &str| cmd == name || cmd == "all";
    if run("table4") {
        table4(&suite);
    }
    if run("fig1") {
        fig1(&suite);
    }
    if run("fig6") {
        fig6(&suite);
    }
    if run("fig7") || run("table5") {
        fig7_and_table5(&suite);
    }
    if run("fig8") || run("fig9") || run("fig10") {
        fig8_9_10(&suite);
    }
    if run("table6") {
        table6(&suite);
    }
    if run("table7") {
        table7(&suite);
    }
    if run("fig11") || run("fig12") {
        fig11_12(&suite);
    }
    if run("fig13") || run("fig14") {
        fig13_14(&suite);
    }
    if run("fig13sim") {
        fig13_sim(&suite);
    }
    if run("table8") {
        table8(&suite);
    }
    if run("ablation") {
        ablation(&suite);
    }
}

/// Parses the command line into the suite configuration and the exhibit
/// to run. `--quick` starts from [`SuiteConfig::quick`]; an explicit
/// `--scale` or `--iters` wins over it in either order.
fn parse_args(args: &[String]) -> Result<(SuiteConfig, String), String> {
    fn value<T: std::str::FromStr>(
        v: Option<&String>,
        flag: &str,
        what: &str,
    ) -> Result<T, String> {
        v.and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} expects {what}"))
    }
    let mut suite = if args.iter().any(|a| a == "--quick") {
        SuiteConfig::quick()
    } else {
        SuiteConfig::default()
    };
    let mut cmd = String::from("all");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => suite.scale = value(it.next(), arg, "a log2 node count")?,
            "--iters" => suite.iterations = value(it.next(), arg, "an iteration count")?,
            "--threads" => suite.threads = Some(value(it.next(), arg, "a thread count")?),
            "--cache-dir" => suite.cache_dir = Some(value(it.next(), arg, "a directory")?),
            "--format" => suite.bin_format = value(it.next(), arg, "wide|compact|delta")?,
            "--quick" => {}
            other if !other.starts_with("--") => cmd = other.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !EXHIBITS.contains(&cmd.as_str()) {
        return Err(format!(
            "unknown exhibit '{cmd}'; choose one of {EXHIBITS:?}"
        ));
    }
    Ok((suite, cmd))
}

/// Table 4: dataset characteristics (paper vs stand-in).
fn table4(suite: &SuiteConfig) {
    let mut t = Table::new(&[
        "dataset",
        "paper n(M)",
        "paper m(M)",
        "paper deg",
        "standin n(K)",
        "standin m(K)",
        "standin deg",
    ]);
    for (d, g) in suite.all_graphs() {
        let (pn, pm, pdeg) = d.paper_stats();
        let s = stats(&g);
        t.row(vec![
            d.name().into(),
            f2(pn / 1e6),
            f2(pm / 1e6),
            f2(pdeg),
            f2(f64::from(s.num_nodes) / 1e3),
            f2(s.num_edges as f64 / 1e3),
            f2(s.avg_degree),
        ]);
    }
    t.print("Table 4: graph datasets (paper vs stand-in)");
    let _ = t.write_csv(&suite.out_dir, "table4");
}

/// Fig. 1: fraction of PDPR DRAM traffic due to vertex-value accesses.
fn fig1(suite: &SuiteConfig) {
    let mut t = Table::new(&["dataset", "value traffic %", "cmr"]);
    for (d, g) in suite.all_graphs() {
        let (traffic, cmr) = replay_pdpr(&g, sim_cache());
        t.row(vec![
            d.name().into(),
            f2(traffic.region_fraction(pcpm_memsim::Region::Values) * 100.0),
            f3(cmr),
        ]);
    }
    t.print("Fig. 1: vertex-value share of PDPR DRAM traffic (simulated LLC)");
    let _ = t.write_csv(&suite.out_dir, "fig1");
}

/// Fig. 6: predicted DRAM traffic vs compression ratio (analytical).
fn fig6(suite: &SuiteConfig) {
    let p = ModelParams::fig6_kron();
    let rs: Vec<f64> = vec![1.0, 2.0, 3.0, 3.13, 4.0, 5.0, 8.0, 12.0, 16.0, 24.0, 32.0];
    let curve = fig6_curve(&p, &rs);
    let mut t = Table::new(&["r", "predicted GB"]);
    for (r, gb) in &curve {
        t.row(vec![f2(*r), f2(*gb)]);
    }
    t.print("Fig. 6: predicted kron DRAM traffic vs r (n=33.5M, m=1070M, k=512)");
    // Annotate the stand-in's actual r at the simulated partition size.
    let g = suite.graph(Dataset::Kron);
    let parts = Partitioner::new(g.num_nodes(), SIM_PARTITION_NODES).expect("partitioner");
    let png = Png::build(EdgeView::from_csr(&g), parts, parts);
    println!(
        "   (kron stand-in at q={} nodes: measured r = {:.2}; paper reports r = 3.06 at 256 KB)",
        SIM_PARTITION_NODES,
        png.compression_ratio()
    );
    let _ = t.write_csv(&suite.out_dir, "fig6");
}

/// Fig. 7 (GTEPS) and Table 5 (per-phase execution times).
fn fig7_and_table5(suite: &SuiteConfig) {
    let mut fig7 = Table::new(&[
        "dataset",
        "PDPR",
        "BVGAS",
        "PCPM",
        "speedup vs BVGAS",
        "vs PDPR",
    ]);
    let mut t5 = Table::new(&[
        "dataset",
        "PDPR total(s)",
        "BV scat(s)",
        "BV gath(s)",
        "BV total(s)",
        "PC scat(s)",
        "PC gath(s)",
        "PC total(s)",
    ]);
    for (d, g) in suite.all_graphs() {
        let m = g.num_edges();
        let pd = time_pdpr(&g, suite);
        let bv = time_bvgas(&g, suite);
        let pc = time_pcpm(&g, suite);
        let iters = suite.iterations as f64;
        fig7.row(vec![
            d.name().into(),
            f3(pd.gteps(m)),
            f3(bv.gteps(m)),
            f3(pc.gteps(m)),
            f2(bv.timings.total().as_secs_f64() / pc.timings.total().as_secs_f64()),
            f2(pd.timings.total().as_secs_f64() / pc.timings.total().as_secs_f64()),
        ]);
        t5.row(vec![
            d.name().into(),
            f3(pd.timings.total().as_secs_f64() / iters),
            f3(bv.timings.scatter.as_secs_f64() / iters),
            f3(bv.timings.gather.as_secs_f64() / iters),
            f3(bv.timings.total().as_secs_f64() / iters),
            f3(pc.timings.scatter.as_secs_f64() / iters),
            f3(pc.timings.gather.as_secs_f64() / iters),
            f3(pc.timings.total().as_secs_f64() / iters),
        ]);
    }
    fig7.print("Fig. 7: throughput in GTEPS (higher is better)");
    t5.print("Table 5: execution time per PageRank iteration");
    let _ = fig7.write_csv(&suite.out_dir, "fig7");
    let _ = t5.write_csv(&suite.out_dir, "table5");
}

/// Figs. 8, 9, 10: traffic per edge, sustained bandwidth, energy per edge.
fn fig8_9_10(suite: &SuiteConfig) {
    let mut f8 = Table::new(&["dataset", "PDPR B/edge", "BVGAS B/edge", "PCPM B/edge"]);
    let mut f9 = Table::new(&["dataset", "PDPR GB/s", "BVGAS GB/s", "PCPM GB/s"]);
    let mut f10 = Table::new(&["dataset", "PDPR uJ/edge", "BVGAS uJ/edge", "PCPM uJ/edge"]);
    for (d, g) in suite.all_graphs() {
        let m = g.num_edges();
        let (tr_pd, _) = replay_pdpr(&g, sim_cache());
        let tr_bv = replay_bvgas(&g, SIM_PARTITION_NODES, 32, sim_cache());
        let tr_pc = replay_pcpm(&g, SIM_PARTITION_NODES, sim_cache());
        f8.row(vec![
            d.name().into(),
            f2(tr_pd.bytes_per_edge(m)),
            f2(tr_bv.bytes_per_edge(m)),
            f2(tr_pc.bytes_per_edge(m)),
        ]);
        // Bandwidth: simulated traffic over measured per-iteration time.
        let pd = time_pdpr(&g, suite);
        let bv = time_bvgas(&g, suite);
        let pc = time_pcpm(&g, suite);
        let iters = suite.iterations as f64;
        f9.row(vec![
            d.name().into(),
            f2(sustained_bandwidth_gbs(
                &tr_pd,
                pd.timings.total().as_secs_f64() / iters,
            )),
            f2(sustained_bandwidth_gbs(
                &tr_bv,
                bv.timings.total().as_secs_f64() / iters,
            )),
            f2(sustained_bandwidth_gbs(
                &tr_pc,
                pc.timings.total().as_secs_f64() / iters,
            )),
        ]);
        f10.row(vec![
            d.name().into(),
            format!("{:.5}", energy_per_edge_uj(&tr_pd, m)),
            format!("{:.5}", energy_per_edge_uj(&tr_bv, m)),
            format!("{:.5}", energy_per_edge_uj(&tr_pc, m)),
        ]);
    }
    f8.print("Fig. 8: DRAM traffic per edge (simulated machine)");
    f9.print("Fig. 9: sustained bandwidth (sim traffic / measured time — relative comparison)");
    f10.print("Fig. 10: DRAM energy per edge (energy model)");
    let _ = f8.write_csv(&suite.out_dir, "fig8");
    let _ = f9.write_csv(&suite.out_dir, "fig9");
    let _ = f10.write_csv(&suite.out_dir, "fig10");
}

/// Table 6: locality (GOrder) vs compression ratio.
fn table6(suite: &SuiteConfig) {
    let mut t = Table::new(&[
        "dataset",
        "graph edges(K)",
        "PNG edges orig(K)",
        "r orig",
        "PNG edges gorder(K)",
        "r gorder",
    ]);
    for d in Dataset::ALL {
        let g = suite.graph(d);
        let gg = suite.gorder_graph(d);
        let png = |g: &Csr| {
            let parts = Partitioner::new(g.num_nodes(), SIM_PARTITION_NODES).expect("parts");
            Png::build(EdgeView::from_csr(g), parts, parts)
        };
        let p_orig = png(&g);
        let p_go = png(&gg);
        t.row(vec![
            d.name().into(),
            f2(g.num_edges() as f64 / 1e3),
            f2(p_orig.num_compressed_edges() as f64 / 1e3),
            f2(p_orig.compression_ratio()),
            f2(p_go.num_compressed_edges() as f64 / 1e3),
            f2(p_go.compression_ratio()),
        ]);
    }
    t.print("Table 6: node labeling vs compression ratio r");
    let _ = t.write_csv(&suite.out_dir, "table6");
}

/// Table 7: DRAM traffic per iteration, original vs GOrder labeling.
fn table7(suite: &SuiteConfig) {
    let mut t = Table::new(&[
        "dataset",
        "PDPR orig(MB)",
        "PDPR gorder(MB)",
        "BV orig(MB)",
        "BV gorder(MB)",
        "PC orig(MB)",
        "PC gorder(MB)",
    ]);
    let mb = |b: u64| f2(b as f64 / 1e6);
    for d in Dataset::ALL {
        let g = suite.graph(d);
        let gg = suite.gorder_graph(d);
        let (pd_o, _) = replay_pdpr(&g, sim_cache());
        let (pd_g, _) = replay_pdpr(&gg, sim_cache());
        let bv_o = replay_bvgas(&g, SIM_PARTITION_NODES, 32, sim_cache());
        let bv_g = replay_bvgas(&gg, SIM_PARTITION_NODES, 32, sim_cache());
        let pc_o = replay_pcpm(&g, SIM_PARTITION_NODES, sim_cache());
        let pc_g = replay_pcpm(&gg, SIM_PARTITION_NODES, sim_cache());
        t.row(vec![
            d.name().into(),
            mb(pd_o.total_bytes()),
            mb(pd_g.total_bytes()),
            mb(bv_o.total_bytes()),
            mb(bv_g.total_bytes()),
            mb(pc_o.total_bytes()),
            mb(pc_g.total_bytes()),
        ]);
    }
    t.print("Table 7: DRAM transfer per iteration, original vs GOrder labeling");
    let _ = t.write_csv(&suite.out_dir, "table7");
}

/// The simulated partition-size sweep (powers of two, paper-equivalent
/// 32 KB → 8 MB).
fn sim_sweep_sizes() -> Vec<u32> {
    // 64 nodes (256 B sim ≈ 32 KB paper) … 16384 nodes (64 KB ≈ 8 MB).
    (6..=14).map(|s| 1u32 << s).collect()
}

/// Figs. 11 and 12: compression ratio and traffic vs partition size.
fn fig11_12(suite: &SuiteConfig) {
    let sizes = sim_sweep_sizes();
    let mut header: Vec<String> = vec!["dataset".into()];
    for q in &sizes {
        header.push(format!("{}KB", u64::from(*q) * 4 * SIM_SCALE_DOWN / 1024));
    }
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut f11 = Table::new(&hdr);
    let mut f12 = Table::new(&hdr);
    for (d, g) in suite.all_graphs() {
        let mut r_row = vec![d.name().to_string()];
        let mut t_row = vec![d.name().to_string()];
        for &q in &sizes {
            let parts = Partitioner::new(g.num_nodes(), q).expect("parts");
            let png = Png::build(EdgeView::from_csr(&g), parts, parts);
            r_row.push(f2(png.compression_ratio()));
            // Fig. 12 replays against the per-worker cache share: with 16
            // workers each processing its own partition, a partition only
            // enjoys 1/16th of the LLC — that is what bends the curve up
            // at 2–8 MB in the paper.
            let traffic = pcpm_memsim::replay::replay_pcpm_png(&g, &png, sim_worker_cache());
            t_row.push(f2(traffic.bytes_per_edge(g.num_edges())));
        }
        f11.row(r_row);
        f12.row(t_row);
    }
    f11.print("Fig. 11: compression ratio vs partition size (paper-equivalent bytes)");
    f12.print("Fig. 12: PCPM DRAM bytes/edge vs partition size (simulated machine)");
    let _ = f11.write_csv(&suite.out_dir, "fig11");
    let _ = f12.write_csv(&suite.out_dir, "fig12");
}

/// Figs. 13 and 14: execution time vs partition size (real machine).
fn fig13_14(suite: &SuiteConfig) {
    // Real-machine sweep: 4 KB … 1 MB partitions.
    let sizes: Vec<usize> = (12..=20).map(|s| 1usize << s).collect();
    let mut header: Vec<String> = vec!["dataset".into()];
    for b in &sizes {
        header.push(format!("{}KB", b / 1024));
    }
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut f13 = Table::new(&hdr);
    let mut f14 = Table::new(&["partition", "scatter(s)", "gather(s)"]);
    let iters = suite.iterations.min(10);
    for (d, g) in suite.all_graphs() {
        let mut times = Vec::new();
        let mut phase_rows = Vec::new();
        for &bytes in &sizes {
            let mut cfg = PcpmConfig::default()
                .with_partition_bytes(bytes)
                .with_iterations(iters);
            cfg.threads = suite.threads;
            let r = pcpm_core::pagerank::pagerank(&g, &cfg).expect("run");
            times.push(r.timings.total().as_secs_f64());
            phase_rows.push((
                bytes,
                r.timings.scatter.as_secs_f64(),
                r.timings.gather.as_secs_f64(),
            ));
        }
        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut row = vec![d.name().to_string()];
        row.extend(times.iter().map(|&t| f2(t / best)));
        f13.row(row);
        if d == Dataset::Sd1 {
            for (bytes, s, gt) in phase_rows {
                f14.row(vec![format!("{}KB", bytes / 1024), f3(s), f3(gt)]);
            }
        }
    }
    f13.print("Fig. 13: normalized execution time vs partition size (1.0 = best)");
    f14.print("Fig. 14: sd1 scatter/gather time vs partition size");
    let _ = f13.write_csv(&suite.out_dir, "fig13");
    let _ = f14.write_csv(&suite.out_dir, "fig14");
}

/// Design-choice ablation (beyond the paper's exhibits): each PCPM
/// optimization toggled individually, plus the compact- and delta-bin
/// extensions.
fn ablation(suite: &SuiteConfig) {
    use pcpm_core::engine::{GatherKind, ScatterKind};
    use pcpm_core::pagerank::{pagerank_with_variant, PcpmVariant};
    let mut t = Table::new(&[
        "dataset",
        "full(ms/it)",
        "csr-scatter",
        "branchy-gather",
        "compact-bins",
        "delta-bins",
        "traffic B/e",
        "compact B/e",
    ]);
    let iters = suite.iterations.min(10);
    let mut cfg = suite.timing_config().with_iterations(iters);
    cfg.threads = suite.threads;
    for (d, g) in suite.all_graphs() {
        let per_iter = |r: &pcpm_core::pr::PrResult| {
            r.timings.total().as_secs_f64() * 1e3 / r.iterations.max(1) as f64
        };
        let full = pagerank_with_variant(&g, &cfg, PcpmVariant::default()).expect("full");
        let csr_scatter = pagerank_with_variant(
            &g,
            &cfg,
            PcpmVariant {
                scatter: ScatterKind::CsrTraversal,
                gather: GatherKind::default(),
            },
        )
        .expect("csr scatter");
        // The branchy gather is a wide-only ablation: pin its row to the
        // wide format so `--format compact|delta` sweeps the rest of the
        // table instead of erroring here.
        let branchy = pagerank_with_variant(
            &g,
            &cfg.with_bin_format(pcpm_core::BinFormatKind::Wide),
            PcpmVariant {
                scatter: ScatterKind::default(),
                gather: GatherKind::Branchy,
            },
        )
        .expect("branchy");
        let compact_cfg = cfg.with_bin_format(pcpm_core::BinFormatKind::Compact);
        let compact =
            pagerank_with_variant(&g, &compact_cfg, PcpmVariant::default()).expect("compact");
        let delta_cfg = cfg.with_bin_format(pcpm_core::BinFormatKind::Delta);
        let delta = pagerank_with_variant(&g, &delta_cfg, PcpmVariant::default()).expect("delta");
        // Traffic side: wide vs compact destination IDs on the simulated
        // machine.
        let parts = Partitioner::new(g.num_nodes(), SIM_PARTITION_NODES).expect("parts");
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        let wide = pcpm_memsim::replay::replay_pcpm_png_with(&g, &png, sim_cache(), 4);
        let thin = pcpm_memsim::replay::replay_pcpm_png_with(&g, &png, sim_cache(), 2);
        t.row(vec![
            d.name().into(),
            f3(per_iter(&full)),
            f3(per_iter(&csr_scatter)),
            f3(per_iter(&branchy)),
            f3(per_iter(&compact)),
            f3(per_iter(&delta)),
            f2(wide.bytes_per_edge(g.num_edges())),
            f2(thin.bytes_per_edge(g.num_edges())),
        ]);
    }
    t.print("Ablation: PCPM design choices (time per iteration, ms; traffic per edge)");
    let _ = t.write_csv(&suite.out_dir, "ablation");
}

/// Fig. 13 companion on the simulated machine: modeled memory-access
/// cycles per edge across partition sizes, through a private-L2 +
/// shared-L3 hierarchy. Shows the paper's §5.3.2 observation that
/// 256 KB–1 MB partitions get *slower* (L3-served) before DRAM traffic
/// moves — independent of this host's real cache sizes.
fn fig13_sim(suite: &SuiteConfig) {
    use pcpm_memsim::hierarchy::{pcpm_value_latency, CacheHierarchy, LatencyModel};
    let sizes = sim_sweep_sizes();
    let mut header: Vec<String> = vec!["dataset".into()];
    for q in &sizes {
        header.push(format!("{}KB", u64::from(*q) * 4 * SIM_SCALE_DOWN / 1024));
    }
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&hdr);
    let model = LatencyModel::default();
    for (d, g) in suite.all_graphs() {
        let mut row = vec![d.name().to_string()];
        let mut cycles = Vec::new();
        for &q in &sizes {
            let parts = Partitioner::new(g.num_nodes(), q).expect("parts");
            let png = Png::build(EdgeView::from_csr(&g), parts, parts);
            let summary = pcpm_value_latency(&g, &png, CacheHierarchy::paper_scaled());
            cycles.push(summary.cycles(&model) as f64 / g.num_edges() as f64);
        }
        let best = cycles.iter().cloned().fold(f64::INFINITY, f64::min);
        row.extend(cycles.iter().map(|&c| f2(c / best)));
        t.row(row);
    }
    t.print("Fig. 13 (simulated): normalized value-access latency vs partition size");
    let _ = t.write_csv(&suite.out_dir, "fig13sim");
}

/// Table 8: pre-processing time.
fn table8(suite: &SuiteConfig) {
    let mut t = Table::new(&[
        "dataset",
        "PCPM(s)",
        "BVGAS(s)",
        "PDPR(s)",
        "PCPM 1-iter(s)",
    ]);
    let cfg = PcpmConfig::default().with_partition_bytes(TIMING_PARTITION_BYTES);
    for (d, g) in suite.all_graphs() {
        let engine = pcpm_core::Engine::<pcpm_core::algebra::PlusF32>::builder(&g)
            .config(cfg)
            .build()
            .expect("engine");
        let bv = pcpm_baselines::bvgas_engine(&g, &cfg).expect("bvgas");
        // One-iteration time for amortization context.
        let mut suite1 = suite.clone();
        suite1.iterations = 1;
        let one = time_pcpm(&g, &suite1);
        t.row(vec![
            d.name().into(),
            f3(engine.report().preprocess.as_secs_f64()),
            f3(bv.report().preprocess.as_secs_f64()),
            "0.000".into(),
            f3(one.timings.total().as_secs_f64()),
        ]);
    }
    t.print("Table 8: pre-processing time (amortized over PageRank iterations)");
    let _ = t.write_csv(&suite.out_dir, "table8");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(SuiteConfig, String), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn quick_is_the_suite_tier_and_explicit_values_win_in_either_order() {
        let tier = SuiteConfig::quick();
        let (quick, cmd) = parse("fig7 --quick").unwrap();
        assert_eq!(
            (quick.scale, quick.iterations),
            (tier.scale, tier.iterations)
        );
        assert_eq!(cmd, "fig7");
        for line in [
            "--scale 16 --iters 3 --quick",
            "--quick --scale 16 --iters 3",
        ] {
            let (s, cmd) = parse(line).unwrap();
            assert_eq!((s.scale, s.iterations), (16, 3), "{line}");
            assert_eq!(cmd, "all");
        }
        let full = SuiteConfig::default();
        let (s, _) = parse("table8").unwrap();
        assert_eq!((s.scale, s.iterations), (full.scale, full.iterations));
        assert!(parse("--kernel auto").is_err());
        assert!(parse("--scale x").is_err());
        assert!(parse("fig99").is_err());
    }
}
