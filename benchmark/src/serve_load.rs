//! Load generator and checks for an in-process `pcpm-serve`: system under
//! test and generator share one process, over TCP on localhost.
//!
//! Phase A is reads only: closed-loop clients (callers that wait for the
//! reply before sending again). Phase B puts one writer beside one reader;
//! the writer sends update batches on an open-loop schedule and each is
//! timed from when it was *due*, so a stall is charged to every batch it
//! delays, and how late the generator itself ran is reported.

use crate::inputs::{score_checksum, Rng};
use crate::stats::ms;
use crate::trace::Tracer;
use pcpm_algos::personalized_pagerank_with_unified_engine;
use pcpm_core::algebra::PlusF32;
use pcpm_core::{Engine, PcpmConfig, SnapshotEngineBuilder, UpdateBatch};
use pcpm_graph::Csr;
use pcpm_serve::{
    Client, EngineSpec, QueryParams, Server, ServerConfig, ServerHandle, ServerStats,
};
use pcpm_stream::DeltaGraph;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server shape fixed by the workload: two workers, each query on a
/// one-thread engine pool.
const WORKERS: usize = 2;
const ENGINE_THREADS: usize = 1;
/// A request that takes this long has failed, whatever comes back later.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

pub struct ServePlan {
    /// Times set-up (snapshot load + bind → first `health` reply) is
    /// repeated; the last server stays up for the phases.
    pub setup_reps: usize,
    /// Closed-loop readers in phase A (at most `nproc`, at most `WORKERS`).
    pub readers: usize,
    /// Phase A runs this long and until every reader has this many replies.
    pub read_time: Duration,
    pub read_min_requests: usize,
    /// Phase B: one batch per `interval`, timed from its due time.
    pub batches: Vec<UpdateBatch>,
    pub interval: Duration,
    /// Nodes the readers query, one per request.
    pub query_seeds: Vec<u32>,
}

/// One read request as its client saw it.
struct Read {
    start: Instant,
    end: Instant,
    seed: u32,
    /// `(epoch, iterations, checksum of the scores)`; `None` when it failed.
    reply: Option<(u64, u32, u64)>,
}

/// One update batch as the writer saw it.
struct Write {
    due: Instant,
    sent: Instant,
    acked: Instant,
    epoch: Option<u64>,
}

#[derive(Default)]
pub struct ServeOutcome {
    pub setup_s: Vec<f64>,
    /// Phase A round trips, ms, and the phase's wall time.
    pub read_ms: Vec<f64>,
    pub read_wall_s: f64,
    /// Phase B: reader round trips while updates land.
    pub mixed_read_ms: Vec<f64>,
    /// Phase B per batch: due → ack, ack → first reply computed at the new
    /// epoch, and their sum (due → visible).
    pub publish_ms: Vec<f64>,
    pub swap_ms: Vec<f64>,
    pub visible_ms: Vec<f64>,
    /// How far behind its schedule the writer sent each batch.
    pub late_ms: Vec<f64>,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub stats: Option<ServerStats>,
    /// `VmHWM` when the server stopped, before the offline checks.
    pub peak_rss_mib: f64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
}

fn start_server(snapshot: &Path) -> Result<(ServerHandle, Duration), String> {
    let t0 = Instant::now();
    let spec = EngineSpec::open(snapshot).map_err(|e| format!("snapshot load: {e}"))?;
    let server = Server::bind(
        "127.0.0.1:0",
        vec![spec],
        ServerConfig {
            workers: WORKERS,
            threads: Some(ENGINE_THREADS),
            metrics_addr: None,
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    // The probe connection is dropped at once: an open connection holds a
    // worker for as long as it lives.
    let mut probe = Client::connect_timeout(handle.addr(), REQUEST_TIMEOUT)
        .map_err(|e| format!("connect: {e}"))?;
    probe.health().map_err(|e| format!("health: {e}"))?;
    Ok((handle, t0.elapsed()))
}

fn stop_server(handle: ServerHandle) -> bool {
    handle.shutdown();
    handle.join().is_ok()
}

/// A closed-loop reader: one connection, next request only after the last
/// reply. Runs until `stop` is set and `min_requests` replies are in.
fn reader(
    addr: SocketAddr,
    params: QueryParams,
    pool: &[u32],
    mut rng: Rng,
    stop: &AtomicBool,
    min_requests: usize,
) -> Vec<Read> {
    let mut reads = Vec::new();
    let mut client = Client::connect_timeout(addr, REQUEST_TIMEOUT).ok();
    while !stop.load(Ordering::Acquire) || reads.len() < min_requests {
        let seed = pool[rng.below(pool.len() as u64) as usize];
        let start = Instant::now();
        let reply = client
            .as_mut()
            .and_then(|c| c.personalized_pagerank(0, &params, &[seed]).ok())
            .map(|r| (r.epoch, r.iterations, score_checksum(&r.scores)));
        let end = Instant::now();
        if reply.is_none() {
            // A failed request may leave the stream mid-frame: reconnect,
            // and give up after a run of failures instead of spinning.
            client = Client::connect_timeout(addr, REQUEST_TIMEOUT).ok();
            let recent_failures = reads
                .iter()
                .rev()
                .take_while(|r: &&Read| r.reply.is_none())
                .count();
            if recent_failures >= 3 {
                reads.push(Read {
                    start,
                    end,
                    seed,
                    reply,
                });
                break;
            }
        }
        reads.push(Read {
            start,
            end,
            seed,
            reply,
        });
    }
    reads
}

/// What an open-loop schedule recorded for one operation.
pub struct Scheduled<R> {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub result: R,
}

/// Runs `count` operations, the k-th due at `start + k·interval`, each sent
/// as soon as it is due and the sender is free. Nothing here shortens the
/// wait a stalled operation imposes on the ones behind it: they are sent
/// late, and their clocks started when they were due.
pub fn run_schedule<R>(
    count: usize,
    interval: Duration,
    mut send: impl FnMut(usize) -> R,
) -> Vec<Scheduled<R>> {
    let start = Instant::now();
    (0..count)
        .map(|k| {
            let due = start + interval * k as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let result = send(k);
            Scheduled {
                due,
                sent,
                done: Instant::now(),
                result,
            }
        })
        .collect()
}

/// PPR for `seed` on a fresh engine over `graph` — the offline answer a
/// served reply must equal bit for bit.
fn offline_ppr(
    engine: &mut Engine<PlusF32>,
    graph: &Csr,
    cfg: &PcpmConfig,
    seed: u32,
) -> Option<(u32, u64)> {
    personalized_pagerank_with_unified_engine(graph, &[seed], cfg, engine)
        .ok()
        .map(|r| (r.iterations as u32, score_checksum(&r.scores)))
}

/// Serves `snapshot` (built over `graph` with `cfg`), drives both phases
/// and checks the replies. `tracer` receives one span per phase with one
/// child per request.
pub fn run(
    snapshot: &Path,
    graph: &Arc<Csr>,
    cfg: &PcpmConfig,
    plan: &ServePlan,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<ServeOutcome, String> {
    let mut out = ServeOutcome::default();
    let params = QueryParams {
        iterations: cfg.iterations as u32,
        damping: cfg.damping,
        tolerance: cfg.tolerance,
        redistribute_dangling: cfg.redistribute_dangling,
    };

    // Set-up, repeated; the last server serves the phases.
    let mut handle = None;
    for _ in 0..plan.setup_reps.max(1) {
        if let Some(h) = handle.take() {
            stop_server(h);
        }
        let (h, took) = start_server(snapshot)?;
        out.setup_s.push(took.as_secs_f64());
        handle = Some(h);
    }
    let handle = handle.expect("at least one set-up");
    let addr = handle.addr();

    // Phase A: reads only.
    let span = tracer.as_deref_mut().map(|t| t.begin("serve.phase_a"));
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let phase_a: Vec<Vec<Read>> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..plan.readers)
            .map(|i| {
                let rng = Rng::new(seed ^ (0xa5a5 + i as u64));
                let stop = &stop;
                s.spawn(move || {
                    reader(
                        addr,
                        params,
                        &plan.query_seeds,
                        rng,
                        stop,
                        plan.read_min_requests,
                    )
                })
            })
            .collect();
        std::thread::sleep(plan.read_time);
        stop.store(true, Ordering::Release);
        readers
            .into_iter()
            .map(|r| r.join().unwrap_or_default())
            .collect()
    });
    out.read_wall_s = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
        t.end(id);
        for r in phase_a.iter().flatten() {
            t.add(id, "client.ppr", r.start, r.end);
        }
    }

    // Phase B: one reader beside the scheduled writer. The reader keeps
    // going until it has seen the writer's last epoch (or the writer gave
    // up), so every batch can be matched with a reply computed after it.
    let span = tracer.as_deref_mut().map(|t| t.begin("serve.phase_b"));
    let writer_done = AtomicBool::new(false);
    let (phase_b, writes): (Vec<Read>, Vec<Write>) = std::thread::scope(|s| {
        let reader_thread = {
            let rng = Rng::new(seed ^ 0xb0b0);
            let writer_done = &writer_done;
            s.spawn(move || {
                let mut reads = reader(addr, params, &plan.query_seeds, rng, writer_done, 1);
                // One more after the last ack: it must carry the last epoch.
                reads.extend(reader(
                    addr,
                    params,
                    &plan.query_seeds,
                    Rng::new(seed ^ 0xf1f1),
                    &AtomicBool::new(true),
                    1,
                ));
                reads
            })
        };
        let mut writer = Client::connect_timeout(addr, REQUEST_TIMEOUT).ok();
        let writes = run_schedule(plan.batches.len(), plan.interval, |k| {
            writer
                .as_mut()
                .and_then(|w| w.update(0, &plan.batches[k]).ok())
                .map(|r| r.epoch)
        })
        .into_iter()
        .map(|w| Write {
            due: w.due,
            sent: w.sent,
            acked: w.done,
            epoch: w.result,
        })
        .collect();
        drop(writer);
        writer_done.store(true, Ordering::Release);
        (reader_thread.join().unwrap_or_default(), writes)
    });
    if let (Some(t), Some(id)) = (tracer, span) {
        t.end(id);
        for r in &phase_b {
            t.add(id, "client.ppr", r.start, r.end);
        }
        for w in &writes {
            t.add(id, "client.update", w.sent, w.acked);
        }
    }

    // The server's own view, then a clean stop.
    out.stats = Client::connect_timeout(addr, REQUEST_TIMEOUT)
        .ok()
        .and_then(|mut c| c.stats().ok());
    out.checks
        .push(("server drained cleanly".into(), stop_server(handle)));
    out.peak_rss_mib = crate::host::peak_rss_mib();

    // Latencies. A failed request has no latency: it counts in `failed`.
    let latencies = |reads: &[&Read]| -> Vec<f64> {
        reads
            .iter()
            .filter(|r| r.reply.is_some())
            .map(|r| ms(r.end - r.start))
            .collect()
    };
    let a: Vec<&Read> = phase_a.iter().flatten().collect();
    let b: Vec<&Read> = phase_b.iter().collect();
    out.read_ms = latencies(&a);
    out.mixed_read_ms = latencies(&b);
    for w in &writes {
        out.late_ms.push(ms(w.sent - w.due));
        let Some(epoch) = w.epoch else { continue };
        out.publish_ms.push(ms(w.acked - w.due));
        // The epoch is published before the ack is on the wire, so the
        // first reply computed at it may even precede the ack.
        let first_at_epoch = b
            .iter()
            .filter(|r| r.reply.is_some_and(|(e, _, _)| e >= epoch))
            .map(|r| r.end)
            .min();
        if let Some(seen) = first_at_epoch {
            out.swap_ms
                .push(ms(seen.saturating_duration_since(w.acked)));
            out.visible_ms
                .push(ms(seen.saturating_duration_since(w.due)));
        }
    }
    let reads_sent = (a.len() + b.len()) as u64;
    let reads_ok = a.iter().chain(&b).filter(|r| r.reply.is_some()).count() as u64;
    let writes_ok = writes.iter().filter(|w| w.epoch.is_some()).count() as u64;
    out.sent = reads_sent + writes.len() as u64;
    out.ok = reads_ok + writes_ok;
    out.failed = out.sent - out.ok;

    // Checks.
    let final_epoch = plan.batches.len() as u64;
    out.checks.push((
        "update epochs are 1, 2, 3, … in send order".into(),
        writes
            .iter()
            .enumerate()
            .all(|(k, w)| w.epoch == Some(k as u64 + 1)),
    ));
    let monotone = |reads: &[Read]| {
        let epochs: Vec<u64> = reads
            .iter()
            .filter_map(|r| r.reply.map(|(e, _, _)| e))
            .collect();
        epochs.windows(2).all(|w| w[0] <= w[1])
    };
    out.checks.push((
        "epochs never go back on a connection".into(),
        phase_a.iter().all(|c| monotone(c)) && monotone(&phase_b),
    ));
    out.checks.push((
        "phase A is answered at epoch 0".into(),
        a.iter().all(|r| r.reply.is_none_or(|(e, _, _)| e == 0)),
    ));
    out.checks.push((
        "every batch became visible to the reader".into(),
        out.visible_ms.len() == plan.batches.len(),
    ));
    // The same (seed, epoch) must give the same bits whichever worker
    // answered and whenever.
    let mut by_key: BTreeMap<(u32, u64), (u32, u64)> = BTreeMap::new();
    let consistent = a
        .iter()
        .chain(&b)
        .filter_map(|r| r.reply.map(|(e, i, c)| ((r.seed, e), (i, c))))
        .all(|(key, answer)| *by_key.entry(key).or_insert(answer) == answer);
    out.checks.push((
        "replies for one (seed, epoch) are bit-identical".into(),
        consistent,
    ));

    // Offline answers at epoch 0 (engine from the same snapshot) and at the
    // final epoch (fresh engine on the graph with every batch replayed).
    let mut engine0 = SnapshotEngineBuilder::<PlusF32>::open(snapshot)
        .and_then(|b| b.threads(ENGINE_THREADS).build())
        .map_err(|e| format!("offline engine: {e}"))?;
    let epoch0_ok = phase_a.iter().filter_map(|c| c.first()).all(|first| {
        first.reply.map(|(_, i, c)| (i, c)) == offline_ppr(&mut engine0, graph, cfg, first.seed)
    });
    out.checks.push((
        "epoch-0 replies equal the offline solve bit for bit".into(),
        epoch0_ok,
    ));
    drop(engine0);

    let mut delta = DeltaGraph::new(Arc::clone(graph), cfg.partition_nodes())
        .map_err(|e| format!("replay: {e}"))?;
    for b in &plan.batches {
        delta.apply(b).map_err(|e| format!("replay: {e}"))?;
    }
    let replayed = delta.snapshot();
    let mut engine_final = Engine::<PlusF32>::builder_shared(&replayed)
        .config(cfg.with_threads(ENGINE_THREADS))
        .build()
        .map_err(|e| format!("offline engine: {e}"))?;
    let last = phase_b.last();
    let final_ok = last.is_some_and(|r| {
        r.reply.is_some_and(|(e, _, _)| e == final_epoch)
            && r.reply.map(|(_, i, c)| (i, c))
                == offline_ppr(&mut engine_final, &replayed, cfg, r.seed)
    });
    out.checks.push((
        "the final-epoch reply equals the offline solve on the replayed graph".into(),
        final_ok,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interval 20 ms, first operation stalls 70 ms: operations 1–3 were due
    /// at 20/40/60 ms and can only be sent at ~70 ms. Timed from when each
    /// was due they show the stall; timed from when each was sent (the
    /// closed-loop mistake) they would not.
    #[test]
    fn open_loop_times_from_due_time_under_a_stall() {
        let interval = Duration::from_millis(20);
        let ops = run_schedule(5, interval, |k| {
            std::thread::sleep(Duration::from_millis(if k == 0 { 70 } else { 1 }));
        });
        let from_due: Vec<f64> = ops.iter().map(|o| ms(o.done - o.due)).collect();
        let from_send: Vec<f64> = ops.iter().map(|o| ms(o.done - o.sent)).collect();
        let late: Vec<f64> = ops.iter().map(|o| ms(o.sent - o.due)).collect();
        for k in 1..5 {
            assert_eq!(ops[k].due - ops[k - 1].due, interval);
        }
        assert!(
            from_due[1] >= 50.0 && from_due[2] >= 30.0 && from_due[3] >= 10.0,
            "{from_due:?}"
        );
        assert!(from_send[1] < 20.0 && from_send[2] < 20.0, "{from_send:?}");
        assert!(
            late[0] < 5.0 && late[1] >= 49.0 && late[2] >= 29.0,
            "{late:?}"
        );
        // Once the backlog clears the generator is on time again.
        assert!(late[4] < 15.0, "{late:?}");
    }
}
