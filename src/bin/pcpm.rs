//! `pcpm` — command-line graph analytics on the partition-centric engine.
//!
//! ```text
//! pcpm stats       <graph>                 structural summary
//! pcpm pagerank    <graph> [--top K]       PageRank (weighted when .mtx has values)
//! pcpm components  <graph>                 connected components
//! pcpm bfs         <graph> --source V      BFS levels
//! pcpm sssp        <graph> --source V      shortest paths (needs weighted .mtx)
//! pcpm convert     <graph> --out FILE      any input -> binary format
//! pcpm gen         <out>   --kind rmat|er  seeded synthetic graph -> binary file
//! pcpm gen-updates <graph> --out FILE      seeded edge-update stream for `stream`
//! pcpm stream      <graph> --updates FILE  replay updates: merge, engine
//!                                          rebuild and warm-started
//!                                          PageRank per batch
//! pcpm build-cache <graph> --out FILE      build the engine once, snapshot it
//!                                          (PNG + bins) for --cache serving
//! pcpm ppr         <graph> --seeds 1,2,3   personalized PageRank from a seed set
//!                          --sources 1,2,3 one single-seed PPR query per source,
//!                                          batched through one engine pass per
//!                                          iteration (bit-identical output, the
//!                                          destID bins scanned once per pass)
//! pcpm serve       <snap> [<snap>...]      long-lived query server over
//!                                          build-cache snapshots (TCP)
//! pcpm query       <addr> --op OP          query a running `pcpm serve`
//!
//! common flags: --binary (pcpm binary input) | --mtx (Matrix Market input)
//!               --iters N --damping D --tolerance T
//!               --partition-bytes B (partition budget, default 262144; an
//!               engine on N > 1 threads halves it, down to 16384, until the
//!               graph has 2 partitions per thread; printed as `# layout`)
//!               --threads N (engine-owned worker pool; default: ambient pool)
//!               --top K (print only the K best rows)
//!               --backend pcpm|pull (dataplane to run on)
//!               --format wide|compact|delta (PCPM bin encoding; compact
//!               needs --partition-bytes <= 131072, delta is unrestricted)
//!               --kernel auto|scalar|unrolled (PCPM gather kernel; auto
//!               resolves to unrolled at build time)
//!               --seed S (every generator path is reproducible run-to-run)
//!               --trace-out FILE (record telemetry spans, write
//!               Chrome-trace JSON openable in chrome://tracing/Perfetto)
//!
//! gen flags:         --kind rmat|er --scale S --edge-factor F (rmat)
//!                    --nodes N --edges M (er)
//! gen-updates flags: --batches B --batch-size K --delete-frac F
//!                    --update-locality P (restrict each batch to P source
//!                    partitions of --partition-bytes/4 nodes)
//!                    --update-format text|binary (binary = checksummed
//!                    compact frames, read back transparently everywhere)
//! serve flags:       --listen ADDR (default 127.0.0.1:7450)
//!                    --workers N (query threads, default 4) --threads N
//!                    --metrics-addr ADDR (second listener answering any
//!                    HTTP GET with Prometheus text exposition)
//! query flags:       --op health|stats|pagerank|ppr|bfs|sssp|update|shutdown
//!                    --engine I (server engine index, default 0)
//!                    --seeds 1,2,3 (ppr) --source V (bfs/sssp)
//!                    --timeout SECS (bound connect and every read/write;
//!                    without it a dead server can hang the client forever)
//!                    --updates FILE (update: replayed batch by batch)
//!                    plus --iters/--damping/--tolerance/--top as offline
//! stream flags:      --updates FILE --verify (check the warm-started
//!                    ranks against a cold run per batch)
//! cache flags:       --cache FILE on pagerank/stream: load the prepared
//!                    engine from a snapshot built by `build-cache`
//!                    (skipping PNG/bin construction entirely), or build
//!                    cold and save it there when the file is absent.
//!                    `stream --cache` additionally writes the
//!                    post-stream state to FILE.final.pcpmc so the next
//!                    run resumes where the stream ended.
//! ```
//!
//! Text inputs are SNAP-style whitespace edge lists with `#` comments.

use pcpm::core::algebra::PlusF32;
use pcpm::core::pagerank::pagerank_with_unified_engine;
use pcpm::prelude::*;
use pcpm::serve::{install_termination_handler, ServeError};
use pcpm::stream::{write_updates, Locality};
use std::process::ExitCode;
use std::sync::Arc;

struct Options {
    command: String,
    path: String,
    binary: bool,
    mtx: bool,
    iters: Option<usize>,
    damping: f64,
    tolerance: Option<f64>,
    partition_bytes: usize,
    threads: Option<usize>,
    top: usize,
    source: u32,
    out: Option<String>,
    backend: BackendKind,
    format: BinFormatKind,
    kernel: KernelKind,
    seed: u64,
    kind: String,
    scale: u32,
    edge_factor: u32,
    nodes: u32,
    edges: u64,
    updates: Option<String>,
    batches: usize,
    batch_size: usize,
    delete_frac: f64,
    update_locality: Option<u32>,
    verify: bool,
    cache: Option<String>,
    update_format: String,
    listen: String,
    workers: usize,
    metrics_addr: Option<String>,
    trace_out: Option<String>,
    op: String,
    engine: u16,
    seeds: Vec<u32>,
    sources: Vec<u32>,
    timeout: Option<f64>,
    json: bool,
    extra: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command")?;
    let mut opts = Options {
        command,
        path: String::new(),
        binary: false,
        mtx: false,
        iters: None,
        damping: 0.85,
        tolerance: None,
        partition_bytes: 256 * 1024,
        threads: None,
        top: 10,
        source: 0,
        out: None,
        backend: BackendKind::Pcpm,
        format: BinFormatKind::Wide,
        kernel: KernelKind::Auto,
        seed: 42,
        kind: "rmat".to_string(),
        scale: 10,
        edge_factor: 8,
        nodes: 1024,
        edges: 8192,
        updates: None,
        batches: 10,
        batch_size: 100,
        delete_frac: 0.3,
        update_locality: None,
        verify: false,
        cache: None,
        update_format: "text".to_string(),
        listen: "127.0.0.1:7450".to_string(),
        workers: 4,
        metrics_addr: None,
        trace_out: None,
        op: "health".to_string(),
        engine: 0,
        seeds: Vec::new(),
        sources: Vec::new(),
        timeout: None,
        json: false,
        extra: Vec::new(),
    };
    let mut positional = Vec::new();
    let mut rest: Vec<String> = args.collect();
    let mut i = 0;
    while i < rest.len() {
        let take_value = |rest: &mut Vec<String>, i: &mut usize| -> Result<String, String> {
            *i += 1;
            rest.get(*i)
                .cloned()
                .ok_or_else(|| format!("flag {} needs a value", rest[*i - 1]))
        };
        match rest[i].as_str() {
            "--binary" => opts.binary = true,
            "--mtx" => opts.mtx = true,
            "--iters" => {
                opts.iters = Some(
                    take_value(&mut rest, &mut i)?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--damping" => {
                opts.damping = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--tolerance" => {
                opts.tolerance = Some(
                    take_value(&mut rest, &mut i)?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--partition-bytes" => {
                opts.partition_bytes = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--threads" => {
                opts.threads = Some(
                    take_value(&mut rest, &mut i)?
                        .parse()
                        .map_err(|e| format!("bad --threads: {e}"))?,
                );
            }
            "--top" => {
                opts.top = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--source" => {
                opts.source = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--out" => opts.out = Some(take_value(&mut rest, &mut i)?),
            "--seed" => {
                opts.seed = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--kind" => opts.kind = take_value(&mut rest, &mut i)?,
            "--scale" => {
                opts.scale = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--edge-factor" => {
                opts.edge_factor = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--nodes" => {
                opts.nodes = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--edges" => {
                opts.edges = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--updates" => opts.updates = Some(take_value(&mut rest, &mut i)?),
            "--batches" => {
                opts.batches = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--batch-size" => {
                opts.batch_size = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--delete-frac" => {
                opts.delete_frac = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--update-locality" => {
                opts.update_locality = Some(
                    take_value(&mut rest, &mut i)?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--verify" => opts.verify = true,
            "--cache" => opts.cache = Some(take_value(&mut rest, &mut i)?),
            "--update-format" => {
                let v = take_value(&mut rest, &mut i)?;
                if v != "text" && v != "binary" {
                    return Err(format!(
                        "unknown update format '{v}' (expected text|binary)"
                    ));
                }
                opts.update_format = v;
            }
            "--listen" => opts.listen = take_value(&mut rest, &mut i)?,
            "--metrics-addr" => opts.metrics_addr = Some(take_value(&mut rest, &mut i)?),
            "--trace-out" => opts.trace_out = Some(take_value(&mut rest, &mut i)?),
            "--workers" => {
                opts.workers = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?
            }
            "--op" => opts.op = take_value(&mut rest, &mut i)?,
            "--engine" => {
                opts.engine = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("bad --engine: {e}"))?
            }
            "--seeds" => {
                opts.seeds = take_value(&mut rest, &mut i)?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse().map_err(|e| format!("bad seed '{s}': {e}")))
                    .collect::<Result<Vec<u32>, String>>()?;
            }
            "--sources" => {
                opts.sources = take_value(&mut rest, &mut i)?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|e| format!("bad source '{s}': {e}"))
                    })
                    .collect::<Result<Vec<u32>, String>>()?;
            }
            "--timeout" => {
                let secs: f64 = take_value(&mut rest, &mut i)?
                    .parse()
                    .map_err(|e| format!("bad --timeout: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--timeout needs a positive number of seconds".into());
                }
                opts.timeout = Some(secs);
            }
            "--backend" => {
                opts.backend = match take_value(&mut rest, &mut i)?.as_str() {
                    "pcpm" => BackendKind::Pcpm,
                    "pull" => BackendKind::Pull,
                    other => return Err(format!("unknown backend '{other}' (expected pcpm|pull)")),
                }
            }
            "--format" => {
                let v = take_value(&mut rest, &mut i)?;
                opts.format = v
                    .parse()
                    .map_err(|_| format!("unknown format '{v}' (expected wide|compact|delta)"))?;
            }
            "--kernel" => {
                let v = take_value(&mut rest, &mut i)?;
                opts.kernel = v.parse()?;
            }
            "--json" => opts.json = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            pos => positional.push(pos.to_string()),
        }
        i += 1;
    }
    opts.path = match positional.first() {
        Some(p) => p.clone(),
        // `lint` operates on the workspace itself; it takes no input
        // path.
        None if opts.command == "lint" => String::new(),
        None => return Err("missing graph path".into()),
    };
    opts.extra = if positional.is_empty() {
        Vec::new()
    } else {
        positional[1..].to_vec()
    };
    Ok(opts)
}

fn load(opts: &Options) -> Result<(Csr, Option<EdgeWeights>), String> {
    if opts.binary {
        let g = pcpm::graph::io::load_binary(&opts.path).map_err(|e| e.to_string())?;
        Ok((g, None))
    } else if opts.mtx {
        let file = std::fs::File::open(&opts.path).map_err(|e| e.to_string())?;
        pcpm::graph::mm::read_matrix_market(file).map_err(|e| e.to_string())
    } else {
        let file = std::fs::File::open(&opts.path).map_err(|e| e.to_string())?;
        let g = pcpm::graph::io::read_edge_list(file, None).map_err(|e| e.to_string())?;
        Ok((g, None))
    }
}

fn config(opts: &Options) -> PcpmConfig {
    let mut cfg = PcpmConfig::default()
        .with_partition_bytes(opts.partition_bytes)
        .with_iterations(opts.iters.unwrap_or(20));
    cfg.damping = opts.damping;
    cfg.tolerance = opts.tolerance;
    cfg.threads = opts.threads;
    cfg.bin_format = opts.format;
    cfg.kernel = opts.kernel;
    cfg
}

/// `pcpm gen`: seeded synthetic graph written in the binary format.
/// `pcpm lint [--json]`: run the workspace static-analysis pass
/// in-process (the same engine as `cargo run -p pcpm-lint`). Any
/// finding exits non-zero through the normal error path.
fn run_lint(opts: &Options) -> Result<(), String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = pcpm::lint::find_workspace_root(&cwd)
        .ok_or("lint: no [workspace] Cargo.toml above the current directory")?;
    let findings = pcpm::lint::lint_workspace(&root).map_err(|e| e.to_string())?;
    if opts.json {
        print!("{}", pcpm::lint::render_json(&findings));
    } else {
        print!("{}", pcpm::lint::render_human(&findings));
    }
    if findings.is_empty() {
        if !opts.json {
            eprintln!("# lint: clean");
        }
        Ok(())
    } else {
        // Findings are a lint verdict, not a CLI usage error: report the
        // count and exit 1 without the usage banner (2 stays reserved
        // for bad invocations and I/O errors).
        eprintln!("pcpm: lint: {} finding(s)", findings.len());
        std::process::exit(1);
    }
}

fn run_gen(opts: &Options) -> Result<(), String> {
    let graph = match opts.kind.as_str() {
        "rmat" => pcpm::graph::gen::rmat(&RmatConfig::graph500(
            opts.scale,
            opts.edge_factor,
            opts.seed,
        ))
        .map_err(|e| e.to_string())?,
        "er" => pcpm::graph::gen::erdos_renyi(opts.nodes, opts.edges, opts.seed)
            .map_err(|e| e.to_string())?,
        other => {
            return Err(format!(
                "unknown generator kind '{other}' (expected rmat|er)"
            ))
        }
    };
    pcpm::graph::io::save_binary(&graph, &opts.path).map_err(|e| e.to_string())?;
    eprintln!(
        "# wrote {} ({} nodes, {} edges, seed {})",
        opts.path,
        graph.num_nodes(),
        graph.num_edges(),
        opts.seed
    );
    Ok(())
}

/// `pcpm gen-updates`: seeded update stream against a base graph.
fn run_gen_updates(opts: &Options, graph: &Csr, cfg: &PcpmConfig) -> Result<(), String> {
    let out = opts.out.as_deref().ok_or("gen-updates needs --out FILE")?;
    let gen_cfg = UpdateGenConfig {
        batches: opts.batches,
        batch_size: opts.batch_size,
        delete_frac: opts.delete_frac,
        locality: opts.update_locality.map(|p| Locality {
            partition_nodes: cfg.partition_nodes(),
            partitions_per_batch: p,
        }),
        seed: opts.seed,
    };
    let batches = gen_updates(graph, &gen_cfg).map_err(|e| e.to_string())?;
    let file = std::fs::File::create(out).map_err(|e| e.to_string())?;
    let w = std::io::BufWriter::new(file);
    if opts.update_format == "binary" {
        write_updates_binary(w, &batches).map_err(|e| e.to_string())?;
    } else {
        write_updates(w, &batches).map_err(|e| e.to_string())?;
    }
    let ops: usize = batches.iter().map(|b| b.len()).sum();
    eprintln!(
        "# wrote {out} ({}): {} batches, {ops} ops, seed {}",
        opts.update_format,
        batches.len(),
        opts.seed
    );
    Ok(())
}

/// `pcpm stream`: replay an update file, reporting per batch the engine
/// update and the warm-started PageRank refresh.
fn run_stream(opts: &Options, graph: Csr, cfg: &PcpmConfig) -> Result<(), String> {
    let path = opts
        .updates
        .as_deref()
        .ok_or("stream needs --updates FILE")?;
    let data = std::fs::read(path).map_err(|e| e.to_string())?;
    let batches = read_updates_auto(&data, graph.num_nodes()).map_err(|e| e.to_string())?;
    // The PageRank phases run to convergence: default to a tolerance
    // and a generous iteration cap, but honour an explicit --iters.
    let mut cfg = *cfg;
    cfg.iterations = opts.iters.unwrap_or(500);
    cfg.tolerance = Some(cfg.tolerance.unwrap_or(1e-9));
    let mut rc = ReplayConfig {
        cfg,
        backend: opts.backend,
        verify: opts.verify,
        cache: None,
    };
    if let Some(c) = &opts.cache {
        rc = rc.with_cache(c);
    }
    let base = Arc::new(graph);
    let report = replay(Arc::clone(&base), &batches, &rc).map_err(|e| e.to_string())?;
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    eprintln!(
        "# base: {} nodes, {} edges, {} partitions of {} nodes ({}, {} bins)",
        base.num_nodes(),
        base.num_edges(),
        report.batches.first().map_or(0, |b| b.total_partitions),
        cfg.partition_nodes(),
        opts.backend.name(),
        cfg.bin_format,
    );
    eprintln!(
        "# base prepare {:.0}us ({}), base pagerank {:.0}us",
        us(report.base_prepare),
        if report.loaded_from_snapshot {
            "snapshot cache"
        } else {
            "cold build"
        },
        us(report.base_pagerank)
    );
    if let Some(fp) = &report.final_cache {
        eprintln!("# cache: post-stream state saved to {}", fp.display());
    }
    println!("batch\tops\ttouched\tupdate_us\tpr_us\titers\tmax_div");
    for (i, b) in report.batches.iter().enumerate() {
        println!(
            "{i}\t{}\t{}/{}\t{:.0}\t{:.0}\t{}\t{}",
            b.ops,
            b.touched_partitions,
            b.total_partitions,
            us(b.update),
            us(b.pagerank),
            b.iterations,
            b.divergence.map_or("-".to_string(), |d| format!("{d:.2e}")),
        );
    }
    eprintln!("# totals: update {:.0}us", us(report.total_update()));
    if opts.verify {
        let max = report
            .batches
            .iter()
            .filter_map(|b| b.divergence)
            .fold(0.0f64, f64::max);
        eprintln!("# verify: max |warm - cold| = {max:.2e}");
        if max > 1e-6 {
            return Err(format!(
                "warm-started PageRank diverged from cold start: {max:.2e} > 1e-6"
            ));
        }
    }
    Ok(())
}

/// `pcpm build-cache`: build the PCPM engine once and persist its
/// prepared state (graph + PNG + bins) as a snapshot file — the
/// build-once half of the build-once, serve-many workflow.
fn run_build_cache(
    opts: &Options,
    graph: &Csr,
    weights: &Option<EdgeWeights>,
    cfg: &PcpmConfig,
) -> Result<(), String> {
    let out = opts.out.as_deref().ok_or("build-cache needs --out FILE")?;
    if opts.backend != BackendKind::Pcpm {
        return Err(
            "build-cache requires --backend pcpm (only the PCPM dataplane snapshots)".into(),
        );
    }
    let t0 = std::time::Instant::now();
    // builder_shared: snapshotting requires the engine to retain its
    // graph, which is only free through a shared handle.
    let shared = Arc::new(graph.clone());
    let mut builder = Engine::<PlusF32>::builder_shared(&shared)
        .config(*cfg)
        .backend(opts.backend);
    if let Some(w) = weights {
        builder = builder.weights(w);
    }
    let engine = builder.build().map_err(|e| e.to_string())?;
    let build = t0.elapsed();
    let t0 = std::time::Instant::now();
    let bytes = engine.save_snapshot(out).map_err(|e| e.to_string())?;
    eprintln!(
        "# wrote {out}: {} KB ({} bins{}), built in {build:?}, saved in {:?}",
        bytes / 1024,
        cfg.bin_format,
        if weights.is_some() { ", weighted" } else { "" },
        t0.elapsed(),
    );
    eprintln!("# serve it: pcpm pagerank <graph> --cache {out} [same config flags]");
    Ok(())
}

/// Engine for `pagerank`, honouring `--cache`: load the snapshot when
/// the file exists (verifying graph + config), otherwise build cold and
/// — when a cache path was given — save the build there for next time.
fn pagerank_engine(
    opts: &Options,
    graph: &Csr,
    weights: &Option<EdgeWeights>,
    cfg: &PcpmConfig,
) -> Result<Engine<PlusF32>, String> {
    if let Some(cache) = &opts.cache {
        if opts.backend != BackendKind::Pcpm {
            return Err("--cache requires --backend pcpm".into());
        }
        if std::path::Path::new(cache).exists() {
            // An unreadable file (corruption, truncation, version skew)
            // falls through to a cold rebuild that overwrites it; a
            // VALID snapshot for the wrong config/graph stays a hard
            // error — silently serving something else would be worse.
            match EngineBuilder::<PlusF32>::from_snapshot(cache) {
                Ok(b) => {
                    let mut b = b
                        .expect_config(cfg, weights.is_some())
                        .map_err(|e| format!("{cache}: {e} (rebuild with `pcpm build-cache`)"))?
                        .expect_graph(graph)
                        .map_err(|e| format!("{cache}: {e} (rebuild with `pcpm build-cache`)"))?
                        .kernel(cfg.kernel);
                    if let Some(t) = opts.threads {
                        b = b.threads(t);
                    }
                    let engine = b.build().map_err(|e| e.to_string())?;
                    let load = engine.report().snapshot_load.expect("loaded engine");
                    eprintln!("# cache: loaded {cache} in {load:?} (prepare skipped)");
                    return Ok(engine);
                }
                Err(e) => eprintln!("# cache: {cache} unreadable ({e}); rebuilding"),
            }
        }
    }
    let engine = if opts.cache.is_some() {
        // Snapshotting requires a retained graph: share it.
        let shared = Arc::new(graph.clone());
        let mut builder = Engine::<PlusF32>::builder_shared(&shared)
            .config(*cfg)
            .backend(opts.backend);
        if let Some(w) = weights {
            builder = builder.weights(w);
        }
        builder.build().map_err(|e| e.to_string())?
    } else {
        let mut builder = Engine::<PlusF32>::builder(graph)
            .config(*cfg)
            .backend(opts.backend);
        if let Some(w) = weights {
            builder = builder.weights(w);
        }
        builder.build().map_err(|e| e.to_string())?
    };
    if let Some(cache) = &opts.cache {
        let bytes = engine.save_snapshot(cache).map_err(|e| e.to_string())?;
        eprintln!("# cache: cold build saved to {cache} ({} KB)", bytes / 1024);
    }
    Ok(engine)
}

/// The bin format and the partition layout the engine ran, beside the
/// budget and the pool it was derived for (a loaded engine runs the
/// layout its snapshot recorded).
fn print_layout(report: &ExecutionReport, cfg: &PcpmConfig) {
    if let (Some(format), Some(ratio)) = (report.bin_format, report.bin_compression) {
        eprintln!(
            "# bins: {format} format, {ratio:.2}x dest-id compression vs wide, {} KB aux",
            report.aux_memory_bytes / 1024
        );
    }
    let derived = if report.loaded_from_snapshot {
        "as the snapshot recorded".to_string()
    } else {
        format!("{} build threads", cfg.pool_threads())
    };
    eprintln!(
        "# layout: {} partitions of {} nodes ({} B budget, {derived})",
        report.partitions, report.partition_nodes, cfg.partition_bytes
    );
}

/// Ranks printed exactly like the offline `pagerank` command so served
/// and offline answers diff clean in CI.
fn print_top_ranks(scores: &[f32], top: usize) {
    let mut ranked: Vec<(u32, f32)> = scores
        .iter()
        .copied()
        .enumerate()
        .map(|(v, s)| (v as u32, s))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (v, s) in ranked.iter().take(top) {
        println!("{v}\t{s:.6e}");
    }
}

/// `pcpm serve`: load one snapshot per positional path and serve them
/// until SIGTERM/SIGINT or a protocol `shutdown` request.
fn run_serve(opts: &Options) -> Result<(), String> {
    let mut engines = Vec::new();
    for path in std::iter::once(&opts.path).chain(&opts.extra) {
        let spec = EngineSpec::open(path).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "# engine {}: {} ({} nodes, {} edges{}, {} bins, loaded in {:?})",
            engines.len(),
            path,
            spec.snapshot.graph().num_nodes(),
            spec.snapshot.graph().num_edges(),
            if spec.snapshot.is_weighted() {
                ", weighted"
            } else {
                ""
            },
            spec.snapshot.bin_format(),
            spec.load,
        );
        engines.push(spec);
    }
    let metrics_addr = opts
        .metrics_addr
        .as_deref()
        .map(|a| {
            a.parse()
                .map_err(|e| format!("bad --metrics-addr {a}: {e}"))
        })
        .transpose()?;
    let sc = ServerConfig {
        workers: opts.workers,
        threads: opts.threads,
        metrics_addr,
    };
    let server = pcpm::serve::Server::bind(opts.listen.as_str(), engines, sc)
        .map_err(|e| format!("bind {}: {e}", opts.listen))?;
    install_termination_handler(server.shutdown_flag());
    eprintln!(
        "# serving on {} with {} workers (stop: SIGTERM or `pcpm query {} --op shutdown`)",
        server.local_addr(),
        opts.workers,
        server.local_addr(),
    );
    if let Some(maddr) = server.metrics_addr() {
        eprintln!("# metrics on http://{maddr}/metrics (Prometheus text)");
    }
    server.run().map_err(|e| e.to_string())
}

fn query_params(opts: &Options) -> QueryParams {
    QueryParams {
        iterations: opts.iters.unwrap_or(20) as u32,
        damping: opts.damping,
        tolerance: opts.tolerance,
        redistribute_dangling: false,
    }
}

fn serve_err(e: ServeError) -> String {
    e.to_string()
}

/// `pcpm query`: one operation against a running `pcpm serve`.
fn run_query(opts: &Options) -> Result<(), String> {
    let mut client = match opts.timeout {
        Some(secs) => {
            Client::connect_timeout(opts.path.as_str(), std::time::Duration::from_secs_f64(secs))
        }
        None => Client::connect(opts.path.as_str()),
    }
    .map_err(|e| format!("connect {}: {e}", opts.path))?;
    match opts.op.as_str() {
        "health" => {
            let (epoch, engines) = client.health().map_err(serve_err)?;
            println!("epoch {epoch}, {engines} engine(s)");
        }
        "stats" => {
            let s = client.stats().map_err(serve_err)?;
            for e in &s.engines {
                eprintln!(
                    "# engine: {} ({} nodes, {} edges{}, {} bins, {} B partitions, loaded in {:?})",
                    e.path,
                    e.nodes,
                    e.edges,
                    if e.weighted { ", weighted" } else { "" },
                    e.bin_format,
                    e.partition_bytes,
                    e.load,
                );
            }
            // The human table (p50/p90/p99, error rates, queue/writer
            // split, slow-query ring) is shared with the bench suite.
            print!("{}", s.render_human());
        }
        "pagerank" => {
            let r = client
                .pagerank(opts.engine, &query_params(opts))
                .map_err(serve_err)?;
            eprintln!(
                "# epoch {}, {} iterations ({})",
                r.epoch,
                r.iterations,
                if r.converged { "converged" } else { "cap" }
            );
            print_top_ranks(&r.scores, opts.top);
        }
        "ppr" => {
            if opts.seeds.is_empty() {
                return Err("query --op ppr needs --seeds 1,2,3".into());
            }
            let r = client
                .personalized_pagerank(opts.engine, &query_params(opts), &opts.seeds)
                .map_err(serve_err)?;
            eprintln!(
                "# epoch {}, {} iterations ({})",
                r.epoch,
                r.iterations,
                if r.converged { "converged" } else { "cap" }
            );
            print_top_ranks(&r.scores, opts.top);
        }
        "bfs" => {
            let (epoch, levels) = client.bfs(opts.engine, opts.source).map_err(serve_err)?;
            let reached = levels.iter().filter(|&&l| l != u32::MAX).count();
            eprintln!("# epoch {epoch}, {reached} reached from {}", opts.source);
            let mut hist = std::collections::BTreeMap::new();
            for &l in levels.iter().filter(|&&l| l != u32::MAX) {
                *hist.entry(l).or_insert(0u64) += 1;
            }
            for (level, count) in hist {
                println!("{level}\t{count}");
            }
        }
        "sssp" => {
            let (epoch, dist) = client.sssp(opts.engine, opts.source).map_err(serve_err)?;
            let finite = dist.iter().filter(|d| d.is_finite()).count();
            eprintln!("# epoch {epoch}, {finite} reachable from {}", opts.source);
            let mut ranked: Vec<(u32, f32)> = dist
                .iter()
                .copied()
                .enumerate()
                .filter(|(_, d)| d.is_finite())
                .map(|(v, d)| (v as u32, d))
                .collect();
            ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
            for (v, d) in ranked.iter().take(opts.top) {
                println!("{v}\t{d:.4}");
            }
        }
        "update" => {
            let path = opts
                .updates
                .as_deref()
                .ok_or("query --op update needs --updates FILE")?;
            let data = std::fs::read(path).map_err(|e| e.to_string())?;
            // The server re-validates node ranges against its own graph.
            let batches = read_updates_auto(&data, u32::MAX).map_err(|e| e.to_string())?;
            for (i, batch) in batches.iter().enumerate() {
                let r = client.update(opts.engine, batch).map_err(serve_err)?;
                let mode = match r.outcome {
                    UpdateOutcome::Repaired(_) => "repair",
                    UpdateOutcome::Rebuilt => "rebuild",
                };
                println!(
                    "batch {i}: epoch {}, {mode}, {} applied, {} ignored",
                    r.epoch, r.applied, r.ignored
                );
            }
        }
        "shutdown" => {
            let epoch = client.shutdown().map_err(serve_err)?;
            println!("server draining at epoch {epoch}");
        }
        other => {
            return Err(format!(
                "unknown op '{other}' (expected health|stats|pagerank|ppr|bfs|sssp|update|shutdown)"
            ))
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let trace_out = opts.trace_out.clone();
    if trace_out.is_some() {
        // Counters and spans are both armed for the whole command; the
        // counters feed the report lines, the spans feed the trace file.
        pcpm::core::telemetry::counters().set_enabled(true);
        pcpm::core::telemetry::start_tracing();
    }
    let result = run_command(opts);
    if let Some(path) = trace_out {
        let events = pcpm::core::telemetry::stop_tracing();
        let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
        let w = std::io::BufWriter::new(file);
        pcpm::core::telemetry::write_chrome_trace(w, &events)
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "# trace: wrote {path} ({} spans; open in chrome://tracing or Perfetto)",
            events.len()
        );
    }
    result
}

fn run_command(opts: Options) -> Result<(), String> {
    if opts.command == "lint" {
        // No graph input: the workspace sources are the subject.
        return run_lint(&opts);
    }
    if opts.command == "gen" {
        // The positional path is the *output*; nothing to load.
        return run_gen(&opts);
    }
    if opts.command == "serve" {
        // Positional paths are snapshots, not a graph.
        return run_serve(&opts);
    }
    if opts.command == "query" {
        // The positional path is the server address.
        return run_query(&opts);
    }
    let (graph, weights) = load(&opts)?;
    let cfg = config(&opts);
    if opts.command == "gen-updates" {
        return run_gen_updates(&opts, &graph, &cfg);
    }
    if opts.command == "build-cache" {
        return run_build_cache(&opts, &graph, &weights, &cfg);
    }
    if opts.command == "stream" {
        if weights.is_some() {
            // The streaming layer models structural change only; silently
            // dropping the weights would misreport the workload.
            return Err("stream replays unweighted graphs; use an unweighted input \
                 (weights in the .mtx would be ignored)"
                .into());
        }
        return run_stream(&opts, graph, &cfg);
    }
    match opts.command.as_str() {
        "stats" => {
            let s = pcpm::graph::stats::stats(&graph);
            println!("nodes          {}", s.num_nodes);
            println!("edges          {}", s.num_edges);
            println!("avg degree     {:.2}", s.avg_degree);
            println!("max out-degree {}", s.max_out_degree);
            println!("max in-degree  {}", s.max_in_degree);
            println!("dangling       {}", s.dangling);
            println!("avg edge span  {:.1}", s.avg_edge_span);
        }
        "pagerank" => {
            // Build the engine here (rather than through `pagerank_on`)
            // so its report — bin format, per-format dest-ID compression,
            // aux memory — can be surfaced after the run, and so
            // `--cache` can swap the build for a snapshot load.
            let mut engine = pagerank_engine(&opts, &graph, &weights, &cfg)?;
            let r = match &weights {
                Some(w) => weighted_pagerank_with_unified_engine(&graph, w, &cfg, &mut engine)
                    .map_err(|e| e.to_string())?,
                None => pagerank_with_unified_engine(&graph, &cfg, &mut engine, None)
                    .map_err(|e| e.to_string())?,
            };
            let report = engine.report();
            eprintln!(
                "# {} iterations ({}), r = {:.2}, {:?} total",
                r.iterations,
                if r.converged { "converged" } else { "cap" },
                r.compression_ratio.unwrap_or(1.0),
                r.timings.total()
            );
            print_layout(&report, &cfg);
            if let Some(total) = report.dest_stream_total_bytes() {
                match report.dest_stream_gbps() {
                    Some(gbps) => eprintln!(
                        "# dest stream: {:.1} MB scanned over {} steps, {gbps:.2} GB/s effective",
                        total as f64 / 1e6,
                        report.steps
                    ),
                    None => eprintln!(
                        "# dest stream: {:.1} MB scanned over {} steps",
                        total as f64 / 1e6,
                        report.steps
                    ),
                }
            }
            eprintln!(
                "# pool: {} workers spawned, {} jobs dispatched",
                report.pool_workers_spawned, report.pool_jobs_dispatched
            );
            print_top_ranks(&r.scores, opts.top);
        }
        "ppr" => {
            if weights.is_some() {
                return Err(
                    "ppr serves unweighted graphs (weights in the .mtx would be ignored)".into(),
                );
            }
            if opts.seeds.is_empty() && opts.sources.is_empty() {
                return Err("ppr needs --seeds 1,2,3 or --sources 1,2,3".into());
            }
            if !opts.seeds.is_empty() && !opts.sources.is_empty() {
                return Err(
                    "ppr takes --seeds (one query) or --sources (a batch), not both".into(),
                );
            }
            // Shares the pagerank cache path: PPR runs on the same
            // (+, x) engine, so one snapshot serves both.
            let mut engine = pagerank_engine(&opts, &graph, &weights, &cfg)?;
            if !opts.sources.is_empty() {
                // One batched pass per iteration: each source is its own
                // single-seed query, and all of them share every scan of
                // the destID bins through `Engine::step_many`. Ranks are
                // bit-identical to running the sources one at a time.
                let seed_sets: Vec<Vec<u32>> = opts.sources.iter().map(|&s| vec![s]).collect();
                let rs = personalized_pagerank_many_with_unified_engine(
                    &graph,
                    &seed_sets,
                    &cfg,
                    &mut engine,
                )
                .map_err(|e| e.to_string())?;
                let report = engine.report();
                print_layout(&report, &cfg);
                eprintln!(
                    "# {} sources batched, {} passes, {} pushed rounds, {:.2} queries/pass amortized",
                    opts.sources.len(),
                    report.steps,
                    report.sparse_rounds,
                    report.batch_amortization(),
                );
                for (src, r) in opts.sources.iter().zip(&rs) {
                    println!("# source {src}");
                    eprintln!(
                        "# source {src}: {} iterations ({})",
                        r.iterations,
                        if r.converged { "converged" } else { "cap" },
                    );
                    print_top_ranks(&r.scores, opts.top);
                }
            } else {
                let r = personalized_pagerank_with_unified_engine(
                    &graph,
                    &opts.seeds,
                    &cfg,
                    &mut engine,
                )
                .map_err(|e| e.to_string())?;
                print_layout(&engine.report(), &cfg);
                eprintln!(
                    "# {} iterations ({}), {} seeds",
                    r.iterations,
                    if r.converged { "converged" } else { "cap" },
                    opts.seeds.len(),
                );
                print_top_ranks(&r.scores, opts.top);
            }
        }
        "components" => {
            let labels =
                connected_components_on(&graph, &cfg, opts.backend).map_err(|e| e.to_string())?;
            let mut counts = std::collections::HashMap::new();
            for &l in &labels {
                *counts.entry(l).or_insert(0u64) += 1;
            }
            let mut by_size: Vec<(u32, u64)> = counts.into_iter().collect();
            by_size.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            eprintln!("# {} components", by_size.len());
            for (label, size) in by_size.iter().take(opts.top) {
                println!("{label}\t{size}");
            }
        }
        "bfs" => {
            let levels = bfs_levels_on(&graph, opts.source, &cfg, opts.backend)
                .map_err(|e| e.to_string())?;
            let reached = levels.iter().filter(|&&l| l != u32::MAX).count();
            eprintln!("# {} reached from {}", reached, opts.source);
            let mut hist = std::collections::BTreeMap::new();
            for &l in levels.iter().filter(|&&l| l != u32::MAX) {
                *hist.entry(l).or_insert(0u64) += 1;
            }
            for (level, count) in hist {
                println!("{level}\t{count}");
            }
        }
        "sssp" => {
            let w = weights.ok_or("sssp needs a weighted .mtx input (--mtx)")?;
            let dist =
                sssp_on(&graph, &w, opts.source, &cfg, opts.backend).map_err(|e| e.to_string())?;
            let finite = dist.iter().filter(|d| d.is_finite()).count();
            eprintln!("# {} reachable from {}", finite, opts.source);
            let mut ranked: Vec<(u32, f32)> = dist
                .iter()
                .copied()
                .enumerate()
                .filter(|(_, d)| d.is_finite())
                .map(|(v, d)| (v as u32, d))
                .collect();
            ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
            for (v, d) in ranked.iter().take(opts.top) {
                println!("{v}\t{d:.4}");
            }
        }
        "convert" => {
            let out = opts.out.as_deref().ok_or("convert needs --out FILE")?;
            pcpm::graph::io::save_binary(&graph, out).map_err(|e| e.to_string())?;
            eprintln!("# wrote {out}");
        }
        other => return Err(format!("unknown command '{other}'")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pcpm: {e}");
            eprintln!(
                "usage: pcpm <stats|pagerank|ppr|components|bfs|sssp|convert|gen|gen-updates|stream|build-cache|serve|query|lint> <graph|snapshot|addr> [flags]"
            );
            ExitCode::from(2)
        }
    }
}
