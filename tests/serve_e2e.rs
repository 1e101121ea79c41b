//! End-to-end tests for the `pcpm-serve` dataplane: served answers must
//! be bit-identical to the offline toolchain at every epoch, updates
//! must publish atomically, and readers must never observe a mixed
//! epoch while the writer republishes.

use pcpm::core::algebra::PlusF32;
use pcpm::core::pagerank::pagerank_with_unified_engine;
use pcpm::prelude::*;
use pcpm::serve::{ErrorCode, ServeError};
use pcpm::stream::merge;
use std::sync::Arc;
use std::time::Duration;

const PARTITION_BYTES: usize = 4096;

fn test_cfg() -> PcpmConfig {
    PcpmConfig::default()
        .with_partition_bytes(PARTITION_BYTES)
        .with_iterations(20)
}

fn test_graph() -> Arc<Csr> {
    Arc::new(pcpm::graph::gen::erdos_renyi(1500, 12000, 7).unwrap())
}

fn build_snapshot(graph: &Arc<Csr>, cfg: &PcpmConfig, weights: Option<&EdgeWeights>) -> Snapshot {
    let mut b = Engine::<PlusF32>::builder_shared(graph).config(*cfg);
    if let Some(w) = weights {
        b = b.weights(w);
    }
    b.build().unwrap().snapshot().unwrap()
}

fn spawn_server(snapshot: Snapshot, workers: usize) -> pcpm::serve::ServerHandle {
    spawn_server_with(snapshot, workers, ServerConfig::default())
}

fn spawn_server_with(
    snapshot: Snapshot,
    workers: usize,
    base: ServerConfig,
) -> pcpm::serve::ServerHandle {
    let spec = EngineSpec::from_snapshot("test-engine", snapshot);
    let server = Server::bind(
        "127.0.0.1:0",
        vec![spec],
        ServerConfig {
            workers,
            threads: None,
            ..base
        },
    )
    .unwrap();
    server.spawn().unwrap()
}

fn params(cfg: &PcpmConfig) -> QueryParams {
    QueryParams {
        iterations: cfg.iterations as u32,
        damping: cfg.damping,
        tolerance: cfg.tolerance,
        redistribute_dangling: cfg.redistribute_dangling,
    }
}

/// The offline mirror of the server's update path: the same `merge` of
/// the current snapshot's graph, the same `Engine::update`, and — like a
/// serving worker — every query runs on an engine rehydrated from the
/// current snapshot.
struct OfflineReplayer {
    engine: Engine<PlusF32>,
    snapshot: Snapshot,
    cfg: PcpmConfig,
}

impl OfflineReplayer {
    fn new(snapshot: Snapshot, cfg: PcpmConfig) -> Self {
        let engine =
            SnapshotEngineBuilder::<PlusF32>::from_snapshot(snapshot.clone(), Duration::ZERO)
                .build()
                .unwrap();
        Self {
            engine,
            snapshot,
            cfg,
        }
    }

    fn apply(&mut self, batch: &UpdateBatch) {
        let merged = merge(self.snapshot.graph(), batch).unwrap();
        self.engine
            .update(&Arc::new(merged.graph), None, &merged.applied)
            .unwrap();
        self.snapshot = self.engine.snapshot().unwrap();
    }

    fn pagerank(&self) -> Vec<f32> {
        let mut engine =
            SnapshotEngineBuilder::<PlusF32>::from_snapshot(self.snapshot.clone(), Duration::ZERO)
                .build()
                .unwrap();
        let graph = Arc::clone(self.snapshot.graph());
        pagerank_with_unified_engine(&graph, &self.cfg, &mut engine, None)
            .unwrap()
            .scores
    }

    fn ppr(&self, seeds: &[u32]) -> Vec<f32> {
        let mut engine =
            SnapshotEngineBuilder::<PlusF32>::from_snapshot(self.snapshot.clone(), Duration::ZERO)
                .build()
                .unwrap();
        let graph = Arc::clone(self.snapshot.graph());
        personalized_pagerank_with_unified_engine(&graph, seeds, &self.cfg, &mut engine)
            .unwrap()
            .scores
    }
}

fn gen_batches(graph: &Csr, batches: usize, seed: u64) -> Vec<UpdateBatch> {
    gen_updates(
        graph,
        &UpdateGenConfig {
            batches,
            batch_size: 60,
            delete_frac: 0.3,
            locality: None,
            seed,
        },
    )
    .unwrap()
}

#[test]
fn served_answers_are_bit_identical_to_offline() {
    let graph = test_graph();
    let cfg = test_cfg();
    let handle = spawn_server(build_snapshot(&graph, &cfg, None), 2);
    let mut client = Client::connect(handle.addr()).unwrap();

    let (epoch, engines) = client.health().unwrap();
    assert_eq!(epoch, 0);
    assert_eq!(engines, 1);

    // PageRank: exact equality with the offline driver, not tolerance.
    let served = client.pagerank(0, &params(&cfg)).unwrap();
    let offline = pagerank(&graph, &cfg).unwrap();
    assert_eq!(served.epoch, 0);
    assert_eq!(served.iterations as usize, offline.iterations);
    assert_eq!(served.scores, offline.scores);

    // Personalized PageRank over a seed set.
    let seeds = [3u32, 99, 512];
    let served = client
        .personalized_pagerank(0, &params(&cfg), &seeds)
        .unwrap();
    let offline = personalized_pagerank(&graph, &seeds, &cfg).unwrap();
    assert_eq!(served.scores, offline.scores);

    // BFS levels.
    let (_, served_levels) = client.bfs(0, 5).unwrap();
    assert_eq!(served_levels, bfs_levels(&graph, 5, &cfg).unwrap());

    // Non-default solver knobs travel through the wire protocol.
    let mut hot = cfg;
    hot.damping = 0.6;
    hot.iterations = 7;
    let served = client.pagerank(0, &params(&hot)).unwrap();
    assert_eq!(served.scores, pagerank(&graph, &hot).unwrap().scores);

    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn served_sssp_matches_offline_on_weighted_snapshot() {
    let graph = test_graph();
    let cfg = test_cfg();
    let weights = EdgeWeights::random(&graph, 11);
    let handle = spawn_server(build_snapshot(&graph, &cfg, Some(&weights)), 2);
    let mut client = Client::connect(handle.addr()).unwrap();

    let (_, served) = client.sssp(0, 5).unwrap();
    assert_eq!(served, sssp(&graph, &weights, 5, &cfg).unwrap());

    // Weighted PageRank also serves, bit-identically.
    let ranks = client.pagerank(0, &params(&cfg)).unwrap();
    assert_eq!(
        ranks.scores,
        weighted_pagerank(&graph, &weights, &cfg).unwrap().scores
    );

    // Structural updates and traversal queries are gated on weighted
    // engines with a typed error, not a panic or a wrong answer.
    for err in [
        client.bfs(0, 0).unwrap_err(),
        client
            .personalized_pagerank(0, &params(&cfg), &[1])
            .unwrap_err(),
        client.update(0, &UpdateBatch::default()).unwrap_err(),
    ] {
        match err {
            ServeError::Server { code, .. } => assert_eq!(code, ErrorCode::Unsupported),
            other => panic!("expected typed Unsupported, got {other}"),
        }
    }

    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn bad_queries_get_typed_errors() {
    let graph = test_graph();
    let cfg = test_cfg();
    let handle = spawn_server(build_snapshot(&graph, &cfg, None), 1);
    let mut client = Client::connect(handle.addr()).unwrap();

    // Unknown engine index.
    match client.pagerank(9, &params(&cfg)).unwrap_err() {
        ServeError::Server { code, .. } => assert_eq!(code, ErrorCode::UnknownEngine),
        other => panic!("unexpected {other}"),
    }
    // Empty seed set.
    match client
        .personalized_pagerank(0, &params(&cfg), &[])
        .unwrap_err()
    {
        ServeError::Server { code, .. } => assert_eq!(code, ErrorCode::BadQuery),
        other => panic!("unexpected {other}"),
    }
    // BFS source out of range.
    match client.bfs(0, 1_000_000).unwrap_err() {
        ServeError::Server { code, .. } => assert_eq!(code, ErrorCode::BadQuery),
        other => panic!("unexpected {other}"),
    }
    // SSSP needs weights.
    match client.sssp(0, 0).unwrap_err() {
        ServeError::Server { code, .. } => assert_eq!(code, ErrorCode::Unsupported),
        other => panic!("unexpected {other}"),
    }
    // The connection survives typed errors and the error counter shows
    // up in stats.
    let stats = client.stats().unwrap();
    let errors: u64 = stats.queries.iter().map(|q| q.errors).sum();
    assert_eq!(errors, 4);

    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn updates_publish_epochs_matching_offline_replay() {
    let graph = test_graph();
    let cfg = test_cfg();
    let snapshot = build_snapshot(&graph, &cfg, None);
    let batches = gen_batches(&graph, 4, 99);

    // Offline truth: one rank vector per epoch.
    let mut replayer = OfflineReplayer::new(snapshot.clone(), cfg);
    let mut expected = vec![replayer.pagerank()];
    for b in &batches {
        replayer.apply(b);
        expected.push(replayer.pagerank());
    }
    // The updates must actually change the answer, or the test is
    // vacuous.
    assert_ne!(expected[0], expected[batches.len()]);

    let handle = spawn_server(snapshot, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    let served = client.pagerank(0, &params(&cfg)).unwrap();
    assert_eq!(served.epoch, 0);
    assert_eq!(served.scores, expected[0]);
    for (i, b) in batches.iter().enumerate() {
        let reply = client.update(0, b).unwrap();
        assert_eq!(reply.epoch, (i + 1) as u64);
        assert_eq!(reply.outcome, UpdateOutcome::Rebuilt);
        assert!(reply.applied > 0);
        // The publish is visible to queries as soon as the update reply
        // arrives, and the served ranks match the offline replay at the
        // same epoch bit for bit.
        let served = client.pagerank(0, &params(&cfg)).unwrap();
        assert_eq!(served.epoch, (i + 1) as u64);
        assert_eq!(served.scores, expected[i + 1]);
    }
    // The writer published once per batch, and the server's own stats
    // agree with the epochs the replies carried.
    let stats = client.stats().unwrap();
    assert_eq!(stats.epoch, batches.len() as u64);
    assert_eq!(stats.writer_publishes, batches.len() as u64);

    handle.shutdown();
    handle.join().unwrap();
}

/// The reader/writer overlap stress: N readers hammer personalized
/// PageRank while the writer publishes a stream of update batches.
/// Every reply must carry a consistent (epoch, scores) pair — a reply
/// whose scores don't match the offline replay *at its own tagged
/// epoch* would prove a torn swap.
#[test]
fn concurrent_readers_never_observe_epoch_mixing() {
    let graph = test_graph();
    let cfg = test_cfg();
    let snapshot = build_snapshot(&graph, &cfg, None);
    let batches = gen_batches(&graph, 5, 1234);
    let seeds = [7u32, 42, 900];

    // Offline truth per epoch.
    let mut replayer = OfflineReplayer::new(snapshot.clone(), cfg);
    let mut expected = vec![replayer.ppr(&seeds)];
    for b in &batches {
        replayer.apply(b);
        expected.push(replayer.ppr(&seeds));
    }
    let expected = Arc::new(expected);

    let handle = spawn_server(snapshot, 4);
    let addr = handle.addr();
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let expected = Arc::clone(&expected);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut queries = 0u64;
                let mut epochs_seen = std::collections::BTreeSet::new();
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    let r = client
                        .personalized_pagerank(0, &params(&cfg), &seeds)
                        .unwrap();
                    let epoch = r.epoch as usize;
                    assert!(epoch < expected.len(), "epoch {epoch} out of range");
                    assert_eq!(
                        r.scores, expected[epoch],
                        "scores do not match offline replay at their own epoch {epoch}"
                    );
                    epochs_seen.insert(r.epoch);
                    queries += 1;
                }
                (queries, epochs_seen)
            })
        })
        .collect();

    // Writer: its own connection, one batch at a time, pausing so
    // readers get queries in at several distinct epochs.
    let mut writer = Client::connect(addr).unwrap();
    for (i, b) in batches.iter().enumerate() {
        let reply = writer.update(0, b).unwrap();
        assert_eq!(reply.epoch, (i + 1) as u64);
        std::thread::sleep(Duration::from_millis(60));
    }
    done.store(true, std::sync::atomic::Ordering::SeqCst);
    let mut total = 0;
    let mut all_epochs = std::collections::BTreeSet::new();
    for r in readers {
        let (queries, epochs) = r.join().unwrap();
        total += queries;
        all_epochs.extend(epochs);
    }
    assert!(total > 0, "readers never got a query in");
    assert!(
        all_epochs.len() >= 2,
        "readers only ever saw epochs {all_epochs:?}; no overlap was exercised"
    );

    // Post-drain: the final answer matches the offline replay exactly.
    let final_ranks = writer
        .personalized_pagerank(0, &params(&cfg), &seeds)
        .unwrap();
    assert_eq!(final_ranks.epoch, batches.len() as u64);
    assert_eq!(final_ranks.scores, expected[batches.len()]);

    handle.shutdown();
    handle.join().unwrap();
}

/// Scrape the metrics listener once, returning the raw HTTP response.
fn scrape(addr: std::net::SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

fn metric_value(text: &str, line_prefix: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(line_prefix))
        .unwrap_or_else(|| panic!("no line starting with {line_prefix:?} in:\n{text}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let graph = test_graph();
    let cfg = test_cfg();
    let handle = spawn_server_with(
        build_snapshot(&graph, &cfg, None),
        2,
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
            ..ServerConfig::default()
        },
    );
    let maddr = handle.metrics_addr().expect("metrics listener bound");
    let mut client = Client::connect(handle.addr()).unwrap();

    let before = scrape(maddr);
    assert!(before.starts_with("HTTP/1.1 200 OK"));
    assert!(before.contains("Content-Type: text/plain; version=0.0.4"));
    for family in pcpm::serve::METRIC_FAMILIES {
        assert!(
            before.contains(&format!("# TYPE {family}")),
            "family {family} missing from exposition"
        );
    }
    let pr_before = metric_value(&before, "pcpm_requests_total{kind=\"pagerank\"}");

    // Traffic: two pageranks and one typed error. The second runs 2 000
    // iterations with no tolerance: well over the 1 ms slow threshold in
    // a release build too, where 20 iterations on 1 500 nodes may not be.
    client.pagerank(0, &params(&cfg)).unwrap();
    let slow = QueryParams {
        iterations: 2000,
        tolerance: None,
        ..params(&cfg)
    };
    client.pagerank(0, &slow).unwrap();
    client.pagerank(9, &params(&cfg)).unwrap_err();

    let after = scrape(maddr);
    let pr_after = metric_value(&after, "pcpm_requests_total{kind=\"pagerank\"}");
    assert_eq!(pr_after - pr_before, 3.0);
    assert!(metric_value(&after, "pcpm_request_errors_total{kind=\"pagerank\"}") >= 1.0);
    assert!(metric_value(&after, "pcpm_connections_dispatched_total") >= 1.0);
    assert!(metric_value(&after, "pcpm_epoch") == 0.0);
    // Histogram buckets are cumulative: +Inf equals the count.
    let inf = metric_value(
        &after,
        "pcpm_request_latency_seconds_bucket{kind=\"pagerank\",le=\"+Inf\"}",
    );
    let count = metric_value(
        &after,
        "pcpm_request_latency_seconds_count{kind=\"pagerank\"}",
    );
    assert_eq!(inf, count);

    // The extended stats reply carries the queue/writer/slow fields and
    // renders through the shared human formatter.
    let stats = client.stats().unwrap();
    assert!(stats.connections_dispatched >= 1);
    let pr_row = &stats.queries[2];
    assert_eq!(pr_row.count, 3);
    assert!(pr_row.exec_us_total > 0);
    // The 2 000-iteration pagerank took over the 1 ms slow threshold, so
    // the ring must have captured it.
    assert!(stats.slow_queries.iter().any(|s| s.kind == 2));
    let human = stats.render_human();
    assert!(human.contains("pagerank"));
    assert!(human.contains("p50_us"));
    assert!(human.contains("slow queries"));

    handle.shutdown();
    handle.join().unwrap();
}

/// A storm of concurrent PPR requests with identical `QueryParams`:
/// workers may coalesce any subset of them into shared batched passes,
/// and that must be invisible — every reply equals the offline
/// single-query answer for its own seed set, bit for bit. A thread
/// with an out-of-range seed set rides along to prove one bad request
/// cannot poison the batch it lands in.
#[test]
fn coalesced_ppr_storm_matches_single_query_answers() {
    let graph = test_graph();
    let cfg = test_cfg();
    let handle = spawn_server(build_snapshot(&graph, &cfg, None), 4);
    let addr = handle.addr();

    let seed_sets: Vec<Vec<u32>> = vec![
        vec![3],
        vec![99, 512],
        vec![7],
        vec![1400, 2, 33],
        vec![512],
        vec![0, 1],
    ];
    let expected: Vec<Vec<f32>> = seed_sets
        .iter()
        .map(|s| personalized_pagerank(&graph, s, &cfg).unwrap().scores)
        .collect();

    let mut threads: Vec<_> = seed_sets
        .into_iter()
        .zip(expected)
        .map(|(seeds, want)| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..4 {
                    let r = client
                        .personalized_pagerank(0, &params(&test_cfg()), &seeds)
                        .unwrap();
                    assert_eq!(r.epoch, 0);
                    assert_eq!(
                        r.scores, want,
                        "seeds {seeds:?} round {round}: coalesced reply differs from solo answer"
                    );
                }
            })
        })
        .collect();
    threads.push(std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        for _ in 0..4 {
            match client
                .personalized_pagerank(0, &params(&test_cfg()), &[1_000_000])
                .unwrap_err()
            {
                ServeError::Server { code, .. } => assert_eq!(code, ErrorCode::BadQuery),
                other => panic!("expected typed BadQuery, got {other}"),
            }
        }
    }));
    for t in threads {
        t.join().unwrap();
    }

    handle.shutdown();
    handle.join().unwrap();
}

/// A listener that accepts and then never replies must not hang the
/// client forever: with `connect_timeout`, the read fails within the
/// configured deadline.
#[test]
fn client_timeout_fires_against_unresponsive_server() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Keep the listener alive but never accept/reply; the OS completes
    // the TCP handshake from its backlog, so connect succeeds and the
    // hang would happen on the reply read.
    let timeout = Duration::from_millis(300);
    let mut client = Client::connect_timeout(addr, timeout).unwrap();
    let t0 = std::time::Instant::now();
    match client.health() {
        Err(ServeError::Io(e)) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "expected a timeout error, got {e:?}"
        ),
        other => panic!("expected Io timeout, got {other:?}"),
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "timeout took {elapsed:?}, configured {timeout:?}"
    );
    drop(listener);
}

/// A decodable frame header with an out-of-range length earns a typed
/// `BadFrame` error reply before the server closes the connection —
/// not a silent drop.
#[test]
fn malformed_frame_length_gets_typed_bad_frame_reply() {
    use pcpm::serve::proto::{read_frame, MAX_FRAME_BYTES};
    use pcpm::serve::Response;
    use std::io::Write;

    let graph = test_graph();
    let cfg = test_cfg();
    let handle = spawn_server(build_snapshot(&graph, &cfg, None), 1);

    for bad_len in [0u32, 1, 2, (MAX_FRAME_BYTES as u32) + 1] {
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&bad_len.to_le_bytes()).unwrap();
        stream.flush().unwrap();
        let frame = read_frame(&mut stream)
            .unwrap()
            .unwrap_or_else(|| panic!("len {bad_len}: server closed without a BadFrame reply"));
        match Response::decode(frame.kind, &frame.payload).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadFrame, "len {bad_len}");
                assert!(
                    message.contains("bad frame length"),
                    "len {bad_len}: message {message:?}"
                );
            }
            other => panic!(
                "len {bad_len}: expected error reply, got kind {}",
                other.kind()
            ),
        }
    }

    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn shutdown_drains_and_refuses_new_work() {
    let graph = test_graph();
    let cfg = test_cfg();
    let handle = spawn_server(build_snapshot(&graph, &cfg, None), 2);
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    assert_eq!(a.health().unwrap().0, 0);
    let epoch = b.shutdown().unwrap();
    assert_eq!(epoch, 0);
    // Existing connections are refused politely (typed error or a clean
    // close once the server drains), never a hang or a wrong answer.
    match a.health() {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        Err(_) => {} // connection torn down by the drain — acceptable
        Ok(_) => panic!("health answered after shutdown"),
    }
    handle.join().unwrap();
}
