//! Serving-path benchmark: query throughput and latency against an
//! in-process `pcpm-serve` instance loaded from a scale-12 snapshot,
//! plus the update-publish (epoch swap) latency.
//!
//! Three loops over TCP on localhost:
//! - single client issuing PageRank and personalized-PageRank queries
//!   back to back (per-request latency distribution, qps);
//! - 4 concurrent clients issuing the same mix (aggregate qps under
//!   contention for the worker pool);
//! - one client streaming update batches through the writer thread
//!   (round-trip time until the new epoch is published and acknowledged).
//!
//! Emits `BENCH_serve.json` next to the other suite outputs.

use pcpm_core::algebra::PlusF32;
use pcpm_core::{Engine, PcpmConfig};
use pcpm_graph::gen::{rmat, RmatConfig};
use pcpm_serve::{Client, EngineSpec, QueryParams, Server, ServerConfig};
use pcpm_stream::{gen_updates, UpdateGenConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const SCALE: u32 = 12;
const EDGE_FACTOR: u32 = 8;
const SEED: u64 = 42;
const PARTITION_BYTES: usize = 2 * 1024;
const ITERATIONS: usize = 20;
const WARMUP: usize = 5;
const QUERIES: usize = 40;
const CLIENTS: usize = 4;
const UPDATE_BATCHES: usize = 20;
const UPDATE_BATCH_SIZE: usize = 100;

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx]
}

struct LoopResult {
    name: &'static str,
    clients: usize,
    queries: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
}

fn query_loop(addr: SocketAddr, params: &QueryParams, queries: usize) -> Vec<f64> {
    let mut client = Client::connect(addr).expect("connect");
    let seeds = [1u32, 7, 99];
    let mut lat = Vec::with_capacity(queries);
    for i in 0..WARMUP + queries {
        let t0 = Instant::now();
        // Alternate the mix: even = global PageRank, odd = PPR.
        if i % 2 == 0 {
            client.pagerank(0, params).expect("pagerank");
        } else {
            client
                .personalized_pagerank(0, params, &seeds)
                .expect("ppr");
        }
        if i >= WARMUP {
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    lat
}

fn main() {
    let g = Arc::new(rmat(&RmatConfig::graph500(SCALE, EDGE_FACTOR, SEED)).expect("seeded rmat"));
    let cfg = PcpmConfig::default()
        .with_partition_bytes(PARTITION_BYTES)
        .with_iterations(ITERATIONS);
    let snapshot = Engine::<PlusF32>::builder_shared(&g)
        .config(cfg)
        .build()
        .expect("build engine")
        .snapshot()
        .expect("snapshot");
    let params = QueryParams {
        iterations: ITERATIONS as u32,
        damping: cfg.damping,
        tolerance: None,
        redistribute_dangling: false,
    };

    let server = Server::bind(
        "127.0.0.1:0",
        vec![EngineSpec::from_snapshot("bench", snapshot)],
        ServerConfig {
            workers: CLIENTS,
            threads: None,
            metrics_addr: None,
        },
    )
    .expect("bind");
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr();

    let mut rows = Vec::new();

    // Single client.
    let t0 = Instant::now();
    let mut lat = query_loop(addr, &params, QUERIES);
    let wall = t0.elapsed().as_secs_f64();
    lat.sort_by(f64::total_cmp);
    rows.push(LoopResult {
        name: "query_1client",
        clients: 1,
        queries: lat.len(),
        qps: lat.len() as f64 / wall,
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
    });

    // 4 concurrent clients.
    let t0 = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| std::thread::spawn(move || query_loop(addr, &params, QUERIES)))
        .collect();
    let mut all: Vec<f64> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread"))
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    all.sort_by(f64::total_cmp);
    rows.push(LoopResult {
        name: "query_4client",
        clients: CLIENTS,
        queries: all.len(),
        qps: all.len() as f64 / wall,
        p50_us: percentile(&all, 0.50),
        p99_us: percentile(&all, 0.99),
    });

    // Update-publish latency: round trip through the writer thread,
    // engine rebuild, snapshot re-export and epoch publication.
    let batches = gen_updates(
        &g,
        &UpdateGenConfig {
            batches: UPDATE_BATCHES,
            batch_size: UPDATE_BATCH_SIZE,
            delete_frac: 0.3,
            locality: None,
            seed: SEED,
        },
    )
    .expect("gen updates");
    let mut writer = Client::connect(addr).expect("connect writer");
    let mut pub_lat = Vec::with_capacity(batches.len());
    let t0 = Instant::now();
    for (i, b) in batches.iter().enumerate() {
        let t1 = Instant::now();
        let reply = writer.update(0, b).expect("update");
        pub_lat.push(t1.elapsed().as_secs_f64() * 1e6);
        assert_eq!(reply.epoch, (i + 1) as u64, "epochs must be sequential");
    }
    let update_wall = t0.elapsed().as_secs_f64();
    pub_lat.sort_by(f64::total_cmp);
    let update_row = LoopResult {
        name: "update_publish",
        clients: 1,
        queries: pub_lat.len(),
        qps: pub_lat.len() as f64 / update_wall,
        p50_us: percentile(&pub_lat, 0.50),
        p99_us: percentile(&pub_lat, 0.99),
    };

    // A query after the update stream must serve the final epoch.
    let mut check = Client::connect(addr).expect("connect");
    let r = check.pagerank(0, &params).expect("post-update pagerank");
    assert_eq!(r.epoch, UPDATE_BATCHES as u64);
    rows.push(update_row);

    // Server-side view of the same run, through the shared human
    // formatter (`ServerStats::render_human`, also used by
    // `pcpm query stats`): per-kind p50/p90/p99, error rates, and the
    // queue-wait vs execution split.
    let server_stats = check.stats().expect("stats");
    assert_eq!(server_stats.epoch, UPDATE_BATCHES as u64);
    assert_eq!(server_stats.writer_publishes, UPDATE_BATCHES as u64);
    println!("--- server-side stats ---");
    print!("{}", server_stats.render_human());

    handle.shutdown();
    handle.join().expect("server drain");

    println!(
        "serve — rmat scale {SCALE} ef {EDGE_FACTOR} seed {SEED} ({} nodes, {} edges), \
         {PARTITION_BYTES} B partitions, {ITERATIONS} iters, {} workers",
        g.num_nodes(),
        g.num_edges(),
        CLIENTS
    );
    println!(
        "{:<16} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "loop", "clients", "n", "qps", "p50(us)", "p99(us)"
    );
    for r in &rows {
        println!(
            "{:<16} {:>8} {:>8} {:>10.1} {:>10.1} {:>10.1}",
            r.name, r.clients, r.queries, r.qps, r.p50_us, r.p99_us
        );
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"graph\": {{\"kind\": \"rmat\", \"scale\": {SCALE}, \"edge_factor\": {EDGE_FACTOR}, \
         \"seed\": {SEED}, \"nodes\": {}, \"edges\": {}}},\n",
        g.num_nodes(),
        g.num_edges()
    ));
    json.push_str(&format!("  \"partition_bytes\": {PARTITION_BYTES},\n"));
    json.push_str(&format!("  \"iterations\": {ITERATIONS},\n"));
    json.push_str(&format!("  \"workers\": {CLIENTS},\n"));
    json.push_str(&format!("  \"update_batch_size\": {UPDATE_BATCH_SIZE},\n"));
    json.push_str(&format!(
        "  \"server\": {{\"writer_publishes\": {}, \"writer_publish_us_total\": {}, \
         \"connections_dispatched\": {}, \"mean_queue_wait_us\": {:.1}}},\n",
        server_stats.writer_publishes,
        server_stats.writer_publish_us_total,
        server_stats.connections_dispatched,
        server_stats.mean_queue_wait_us()
    ));
    json.push_str("  \"loops\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"clients\": {}, \"queries\": {}, \"qps\": {:.3}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}}}{}\n",
            r.name,
            r.clients,
            r.queries,
            r.qps,
            r.p50_us,
            r.p99_us,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
