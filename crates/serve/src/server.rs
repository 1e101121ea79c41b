//! The serving dataplane: a TCP accept loop feeding a worker-thread
//! pool, a single writer thread applying update batches, and RCU-style
//! epoch publication.
//!
//! # Concurrency model
//!
//! The shape follows the IX dataplane split: the read path is
//! run-to-completion and lock-avoiding, the control path (updates,
//! shutdown) is serialized on one writer.
//!
//! - The **serving state** (`epoch` + one [`Snapshot`] per engine) lives
//!   behind a `Mutex<Arc<ServingState>>` — the hand-rolled `ArcSwap`.
//!   Readers hold the lock only long enough to clone the `Arc`
//!   (nanoseconds); all query work happens against the clone, so an
//!   in-flight reader is never blocked by a publication and never sees
//!   a half-applied batch.
//! - A snapshot holds its graph and its **layout** (the PNG and the
//!   bins, immutable) by `Arc`, so one copy of each serves a whole
//!   epoch. Each **worker** keeps a per-epoch cache of engines, one per
//!   algebra it has been asked for, each sharing the published layout
//!   and owning only its update stream: rehydrating one copies nothing
//!   O(E). When a worker observes a new epoch — on its next request, or
//!   within a poll interval when idle — it drops the cache, releasing
//!   the old epoch, and rebuilds lazily.
//! - The single **writer thread** owns a private engine per served
//!   graph, and no graph of its own: the current graph is the published
//!   snapshot's. An update request flows [`merge`] (the published graph
//!   and the batch into the next graph) → [`Engine::update`] (a
//!   dataplane rebuild, the one O(E) build of the epoch) →
//!   `Engine::snapshot()`, which shares the new layout → publish
//!   `Arc::new(ServingState { epoch: e+1, .. })`. Readers at epoch `e`
//!   finish unperturbed; the next query on each worker picks up `e+1`.
//!   A failed update publishes nothing and keeps nothing: the writer
//!   drops that engine and rehydrates it from the published snapshot on
//!   the next update.
//!
//! Because snapshot rehydration is bit-exact (PR 5 invariant) and the
//! query drivers are the offline ones, a served answer at epoch `e` is
//! bit-identical to the offline CLI run against the same snapshot after
//! the same `e` batches.

use crate::metrics::Metrics;
use crate::proto::{
    read_frame, send_response, vector_reply_frame_bytes, EngineInfo, ErrorCode, QueryParams,
    RawFrame, Request, Response, ServerStats, UpdateReply, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use pcpm_algos::{
    bfs_levels_with_engine, personalized_pagerank_many_with_unified_engine, sssp_with_engine,
    weighted_pagerank_with_unified_engine,
};
use pcpm_core::algebra::{Algebra, MinLevel, MinPlusF32, PlusF32};
use pcpm_core::pagerank::pagerank_with_unified_engine;
use pcpm_core::{Engine, PcpmConfig, PcpmError, Snapshot, SnapshotEngineBuilder, UpdateBatch};
use pcpm_graph::EdgeWeights;
use pcpm_stream::{merge, StreamError};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// How long blocked reads and accept polls sleep between checks of the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// One engine to serve: a decoded snapshot plus provenance.
pub struct EngineSpec {
    /// Display label (usually the snapshot path).
    pub label: String,
    /// The decoded snapshot.
    pub snapshot: Snapshot,
    /// Wall-clock spent loading/decoding it.
    pub load: Duration,
}

impl EngineSpec {
    /// Loads a `.pcpmc` snapshot file, timing the load.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, PcpmError> {
        let t0 = Instant::now();
        let snapshot = Snapshot::load(&path)?;
        Ok(Self {
            label: path.as_ref().display().to_string(),
            snapshot,
            load: t0.elapsed(),
        })
    }

    /// Wraps an already-decoded snapshot under `label`.
    pub fn from_snapshot(label: impl Into<String>, snapshot: Snapshot) -> Self {
        Self {
            label: label.into(),
            snapshot,
            load: Duration::ZERO,
        }
    }
}

/// One served engine's published state.
struct Shard {
    snapshot: Snapshot,
    label: String,
    load: Duration,
}

/// The RCU-published value: everything a reader needs, immutable.
struct ServingState {
    epoch: u64,
    /// Shared between epochs: a publish replaces one shard's `Arc` and
    /// clones the rest.
    shards: Vec<Arc<Shard>>,
}

/// Server tunables.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads answering queries (each handles one connection at
    /// a time, run-to-completion).
    pub workers: usize,
    /// Engine-owned thread-pool size for query execution (`None` =
    /// ambient pool).
    pub threads: Option<usize>,
    /// When set, a second plain-TCP listener is bound here answering
    /// any HTTP GET with Prometheus text exposition.
    pub metrics_addr: Option<SocketAddr>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            threads: None,
            metrics_addr: None,
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    metrics_listener: Option<TcpListener>,
    metrics_addr: Option<SocketAddr>,
    state: Arc<Mutex<Arc<ServingState>>>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

/// A running server spawned in background threads.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    join: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (use this to connect when binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics-exposition address, when `--metrics-addr` was
    /// configured (use this to scrape when binding port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Requests a graceful shutdown (drain in-flight, refuse new).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the server to finish draining.
    pub fn join(self) -> io::Result<()> {
        match self.join.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

/// Locks `m`, recovering the data if a previous holder panicked.
///
/// Every mutex in this file guards swap-published values (the serving
/// state `Arc`, pending-request queues): holders only read or replace
/// whole values, never leave them half-written, so mutex poisoning
/// carries no information a worker could act on — and the serve-panic
/// contract says a worker must not die over it.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Server {
    /// Binds `addr` and installs `engines` at epoch 0. The server does
    /// not accept connections until [`Server::run`] (or
    /// [`Server::spawn`]) is called.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        engines: Vec<EngineSpec>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        if engines.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "serve needs at least one engine snapshot",
            ));
        }
        if config.workers == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "serve needs at least one worker",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (metrics_listener, metrics_addr) = match config.metrics_addr {
            Some(maddr) => {
                let l = TcpListener::bind(maddr)?;
                let bound = l.local_addr()?;
                (Some(l), Some(bound))
            }
            None => (None, None),
        };
        let shards = engines
            .into_iter()
            .map(|e| {
                Arc::new(Shard {
                    snapshot: e.snapshot,
                    label: e.label,
                    load: e.load,
                })
            })
            .collect();
        Ok(Server {
            listener,
            addr,
            metrics_listener,
            metrics_addr,
            state: Arc::new(Mutex::new(Arc::new(ServingState { epoch: 0, shards }))),
            metrics: Arc::new(Metrics::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics-exposition address, when configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The shutdown flag; storing `true` drains and stops the server.
    /// Share it with [`install_termination_handler`] for SIGTERM.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Runs the server on the calling thread until the shutdown flag is
    /// set (by a `shutdown` request, [`ServerHandle::shutdown`], or a
    /// signal handler), then drains: in-flight requests finish, new
    /// ones are refused with [`ErrorCode::ShuttingDown`].
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            addr: _,
            metrics_listener,
            metrics_addr: _,
            state,
            metrics,
            shutdown,
            config,
        } = self;
        listener.set_nonblocking(true)?;

        // Writer: the sole mutator of serving state.
        let (update_tx, update_rx) = mpsc::channel::<WriteJob>();
        let writer_state = Arc::clone(&state);
        let writer_metrics = Arc::clone(&metrics);
        let writer = thread::Builder::new()
            .name("pcpm-serve-writer".into())
            .spawn(move || writer_loop(writer_state, update_rx, writer_metrics))?;

        // Metrics exposition: a second listener answering any HTTP GET
        // with Prometheus text; lives on its own thread, polls the
        // shutdown flag.
        let metrics_thread = match metrics_listener {
            Some(ml) => {
                let m = Arc::clone(&metrics);
                let s = Arc::clone(&state);
                let sd = Arc::clone(&shutdown);
                Some(
                    thread::Builder::new()
                        .name("pcpm-serve-metrics".into())
                        .spawn(move || metrics_http_loop(ml, s, m, sd))?,
                )
            }
            None => None,
        };

        // Workers: each pulls whole connections off a shared queue,
        // stamped with their accept time for queue-wait accounting.
        let (conn_tx, conn_rx) = mpsc::channel::<(TcpStream, Instant)>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let ppr_batcher = Arc::new(PprBatcher::default());
        let mut workers = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let ctx = WorkerCtx {
                conn_rx: Arc::clone(&conn_rx),
                state: Arc::clone(&state),
                metrics: Arc::clone(&metrics),
                shutdown: Arc::clone(&shutdown),
                update_tx: update_tx.clone(),
                ppr_batcher: Arc::clone(&ppr_batcher),
                threads: config.threads,
            };
            let worker = Worker {
                ctx,
                cache_epoch: 0,
                caches: Vec::new(),
            };
            workers.push(
                thread::Builder::new()
                    .name(format!("pcpm-serve-worker-{w}"))
                    .spawn(move || worker_loop(worker))?,
            );
        }
        drop(update_tx);

        // Accept loop: refuse new connections once draining.
        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    metrics.connection_queued();
                    if conn_tx.send((stream, Instant::now())).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        shutdown.store(true, Ordering::SeqCst);
        drop(conn_tx);
        for w in workers {
            let _ = w.join();
        }
        let _ = writer.join();
        if let Some(mt) = metrics_thread {
            let _ = mt.join();
        }
        Ok(())
    }

    /// Runs the server on a background thread, returning a handle for
    /// the bound address and graceful shutdown. Fails only when the OS
    /// refuses the accept thread.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.addr;
        let metrics_addr = self.metrics_addr;
        let shutdown = self.shutdown_flag();
        let join = thread::Builder::new()
            .name("pcpm-serve-accept".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            metrics_addr,
            shutdown,
            join,
        })
    }
}

/// The flag signal handlers flip (process-wide; `signal(2)` handlers
/// cannot carry state).
static TERM_FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

/// Routes SIGTERM/SIGINT to `flag` so `pcpm serve` drains instead of
/// dying mid-request. Returns `false` when a handler was already
/// installed (or on non-Unix targets, where the portable protocol-level
/// `shutdown` request is the only trigger). The `std` runtime already
/// links `libc`, so the two calls below are declared directly instead
/// of pulling in the `libc` crate.
#[cfg(unix)]
#[allow(unsafe_code)]
pub fn install_termination_handler(flag: Arc<AtomicBool>) -> bool {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_term(_sig: i32) {
        // Only the atomic store: it is async-signal-safe.
        if let Some(f) = TERM_FLAG.get() {
            f.store(true, Ordering::SeqCst);
        }
    }
    if TERM_FLAG.set(flag).is_err() {
        return false;
    }
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        signal(SIGINT, on_term as extern "C" fn(i32) as usize);
    }
    true
}

/// Non-Unix stub: no signal routing; use the `shutdown` request.
#[cfg(not(unix))]
pub fn install_termination_handler(_flag: Arc<AtomicBool>) -> bool {
    false
}

// ---------------------------------------------------------------------
// Writer thread
// ---------------------------------------------------------------------

struct WriteJob {
    engine: usize,
    batch: UpdateBatch,
    reply: mpsc::Sender<Response>,
}

fn writer_loop(
    state: Arc<Mutex<Arc<ServingState>>>,
    rx: mpsc::Receiver<WriteJob>,
    metrics: Arc<Metrics>,
) {
    let n = lock_recover(&state).shards.len();
    let mut engines: Vec<Option<Engine<PlusF32>>> = (0..n).map(|_| None).collect();
    while let Ok(job) = rx.recv() {
        let resp = apply_update(&state, &mut engines, job.engine, job.batch, &metrics);
        let _ = job.reply.send(resp);
    }
}

/// Merges `batch` into the published graph of engine `idx`, rebuilds the
/// writer's engine over the result and publishes it as the next epoch.
/// The engine leaves its slot for the update and returns only on
/// success.
fn apply_update(
    state: &Mutex<Arc<ServingState>>,
    engines: &mut [Option<Engine<PlusF32>>],
    idx: usize,
    batch: UpdateBatch,
    metrics: &Metrics,
) -> Response {
    let cur = Arc::clone(&lock_recover(state));
    let Some(shard) = cur.shards.get(idx) else {
        return err_resp(
            ErrorCode::UnknownEngine,
            format!("engine {idx} (server holds {})", cur.shards.len()),
        );
    };
    if shard.snapshot.is_weighted() {
        return err_resp(
            ErrorCode::Unsupported,
            "updates target unweighted engines (the streaming layer models structural change only)",
        );
    }
    let merged = match merge(shard.snapshot.graph(), &batch) {
        Ok(m) => m,
        Err(e) => return stream_err(e),
    };
    // The engine shares the published layout the first time this shard
    // is written, and again after a failed update.
    let mut engine = match engines[idx].take() {
        Some(engine) => engine,
        None => match SnapshotEngineBuilder::<PlusF32>::from_snapshot(
            shard.snapshot.clone(),
            shard.load,
        )
        .build()
        {
            Ok(e) => e,
            Err(e) => return engine_err(e),
        },
    };
    let outcome = match engine.update(&Arc::new(merged.graph), None, &merged.applied) {
        Ok(o) => o,
        Err(e) => return engine_err(e),
    };
    let new_snapshot = match engine.snapshot() {
        Ok(s) => s,
        Err(e) => return engine_err(e),
    };
    engines[idx] = Some(engine);
    // Publish: clone-on-write of the shard vector, epoch + 1. Readers
    // holding the previous Arc keep serving the old epoch untouched.
    let publish_t0 = Instant::now();
    let mut guard = lock_recover(state);
    let prev = Arc::clone(&guard);
    let mut next_shards = prev.shards.clone();
    let old = &prev.shards[idx];
    next_shards[idx] = Arc::new(Shard {
        snapshot: new_snapshot,
        label: old.label.clone(),
        load: old.load,
    });
    let epoch = prev.epoch + 1;
    *guard = Arc::new(ServingState {
        epoch,
        shards: next_shards,
    });
    drop(guard);
    metrics.writer_published(publish_t0.elapsed());
    Response::Updated(UpdateReply {
        epoch,
        outcome,
        applied: merged.applied.len() as u32,
        ignored: merged.ignored as u32,
    })
}

// ---------------------------------------------------------------------
// Metrics exposition (Prometheus text over plain HTTP)
// ---------------------------------------------------------------------

/// Serves Prometheus text exposition on `listener` until `shutdown` is
/// set. Any request line is answered with the full metric dump —
/// deliberately the simplest thing that `curl` and a Prometheus scraper
/// both accept: read until the blank line ending the request headers,
/// write one `HTTP/1.1 200` response, close.
fn metrics_http_loop(
    listener: TcpListener,
    state: Arc<Mutex<Arc<ServingState>>>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let epoch = lock_recover(&state).epoch;
                let _ = serve_metrics_request(stream, &metrics, epoch);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(POLL_INTERVAL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn serve_metrics_request(mut stream: TcpStream, metrics: &Metrics, epoch: u64) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    // Drain the request headers (bounded; we answer anything).
    let mut buf = [0u8; 1024];
    let mut seen = Vec::with_capacity(1024);
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        seen.extend_from_slice(&buf[..n]);
        if seen.windows(4).any(|w| w == b"\r\n\r\n") || seen.len() > 8192 {
            break;
        }
    }
    let body = metrics.render_prometheus(epoch);
    let resp = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(resp.as_bytes())?;
    stream.flush()
}

// ---------------------------------------------------------------------
// Worker threads
// ---------------------------------------------------------------------

struct WorkerCtx {
    conn_rx: Arc<Mutex<mpsc::Receiver<(TcpStream, Instant)>>>,
    state: Arc<Mutex<Arc<ServingState>>>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    update_tx: mpsc::Sender<WriteJob>,
    ppr_batcher: Arc<PprBatcher>,
    threads: Option<usize>,
}

/// One queued PPR request awaiting a batched pass.
struct PendingPpr {
    engine: u16,
    params: QueryParams,
    seeds: Vec<u32>,
    reply: mpsc::Sender<Response>,
}

/// The shared PPR coalescing queue.
///
/// Every worker that picks a PPR request off its connection *publishes*
/// it here, then *claims* every queued request with the same
/// `(engine, params)` key — its own included. Whoever claims a
/// non-empty batch leads: it runs one batched
/// [`personalized_pagerank_many_with_unified_engine`] pass over all
/// claimed seed sets against its cached engine at its current epoch
/// and answers each request individually; workers whose request was
/// claimed by another leader just block on their reply channel.
///
/// Coalescing is opportunistic — it only pays off when several workers
/// hold same-parameter PPR requests at once — and invisible to
/// clients: the batched driver is bit-identical to the sequential one,
/// so each response is exactly what a solo pass would have produced at
/// the serving epoch the leader computed at.
#[derive(Default)]
struct PprBatcher {
    queue: Mutex<Vec<PendingPpr>>,
}

impl PprBatcher {
    /// Publishes `pending` for any same-key leader to claim.
    fn publish(&self, pending: PendingPpr) {
        lock_recover(&self.queue).push(pending);
    }

    /// Claims every queued request matching `(engine, params)`.
    fn claim(&self, engine: u16, params: &QueryParams) -> Vec<PendingPpr> {
        let mut q = lock_recover(&self.queue);
        let mut claimed = Vec::new();
        let mut kept = Vec::with_capacity(q.len());
        for p in q.drain(..) {
            if p.engine == engine && p.params == *params {
                claimed.push(p);
            } else {
                kept.push(p);
            }
        }
        *q = kept;
        claimed
    }
}

/// One worker's per-epoch engine cache for one shard: engines are
/// rehydrated lazily per algebra and dropped wholesale when the epoch
/// moves.
#[derive(Default)]
struct AlgCache {
    pr: Option<Engine<PlusF32>>,
    lvl: Option<Engine<MinLevel>>,
    dist: Option<Engine<MinPlusF32>>,
}

struct Worker {
    ctx: WorkerCtx,
    cache_epoch: u64,
    caches: Vec<AlgCache>,
}

fn worker_loop(mut worker: Worker) {
    loop {
        // Holding the queue lock only around the timed recv keeps
        // sibling workers runnable.
        let next = {
            let rx = lock_recover(&worker.ctx.conn_rx);
            rx.recv_timeout(POLL_INTERVAL)
        };
        match next {
            Ok((stream, queued_at)) => {
                worker
                    .ctx
                    .metrics
                    .connection_dispatched(queued_at.elapsed());
                worker.handle_connection(stream);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if worker.ctx.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                worker.current();
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

impl Worker {
    fn handle_connection(&mut self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        let shutdown = Arc::clone(&self.ctx.shutdown);
        loop {
            let idle = &mut || {
                self.current();
            };
            let frame = match read_frame_idle(&mut stream, &shutdown, idle) {
                Ok(Some(f)) => f,
                Ok(None) => return,
                Err(e) => {
                    // A decodable header with an out-of-range length is a
                    // peer bug, not a transport failure: tell the peer
                    // (`BadFrame`) before closing instead of silently
                    // dropping the connection. The stream position is
                    // unrecoverable after a framing error, so we still
                    // close.
                    if e.kind() == io::ErrorKind::InvalidData {
                        let resp = err_resp(ErrorCode::BadFrame, e.to_string());
                        let _ = send_response(&mut stream, &resp);
                    }
                    return;
                }
            };
            let t0 = Instant::now();
            let resp = self.respond(&frame);
            let is_err = matches!(resp, Response::Error { .. });
            self.ctx
                .metrics
                .record(frame.kind, t0.elapsed(), is_err, self.cache_epoch);
            if send_response(&mut stream, &resp).is_err() {
                return;
            }
            if matches!(resp, Response::ShutdownAck { .. }) {
                return;
            }
        }
    }

    fn respond(&mut self, frame: &RawFrame) -> Response {
        if frame.version != PROTOCOL_VERSION {
            return err_resp(
                ErrorCode::UnsupportedVersion,
                format!(
                    "version {} (this server speaks {PROTOCOL_VERSION})",
                    frame.version
                ),
            );
        }
        let req = match Request::decode(frame.kind, &frame.payload) {
            Ok(r) => r,
            Err(e) => return err_resp(ErrorCode::BadFrame, e.to_string()),
        };
        if self.ctx.shutdown.load(Ordering::SeqCst) && !matches!(req, Request::Shutdown) {
            return err_resp(ErrorCode::ShuttingDown, "server is draining");
        }
        self.dispatch(req)
    }

    /// The published state, cloned out from under the lock; worker
    /// caches are invalidated when the epoch moved. An idle worker calls
    /// this every poll interval, so a cache never pins an epoch that is
    /// no longer served.
    fn current(&mut self) -> Arc<ServingState> {
        let cur = Arc::clone(&lock_recover(&self.ctx.state));
        if self.caches.len() != cur.shards.len() {
            self.caches = (0..cur.shards.len()).map(|_| AlgCache::default()).collect();
            self.cache_epoch = cur.epoch;
        } else if cur.epoch != self.cache_epoch {
            for c in &mut self.caches {
                *c = AlgCache::default();
            }
            self.cache_epoch = cur.epoch;
        }
        cur
    }

    fn dispatch(&mut self, req: Request) -> Response {
        match req {
            Request::Health => {
                let cur = self.current();
                Response::Health {
                    epoch: cur.epoch,
                    engines: cur.shards.len() as u16,
                }
            }
            Request::Stats => {
                let cur = self.current();
                let mut stats = ServerStats::empty();
                stats.epoch = cur.epoch;
                stats.queries = self.ctx.metrics.snapshot();
                stats.engines = cur
                    .shards
                    .iter()
                    .map(|s| EngineInfo {
                        path: s.label.clone(),
                        load: s.load,
                        nodes: s.snapshot.graph().num_nodes(),
                        edges: s.snapshot.graph().num_edges(),
                        weighted: s.snapshot.is_weighted(),
                        bin_format: s.snapshot.bin_format().to_string(),
                        partition_bytes: s.snapshot.partition_bytes() as u64,
                    })
                    .collect();
                self.ctx.metrics.fill_stats(&mut stats);
                Response::Stats(Box::new(stats))
            }
            Request::Shutdown => {
                let cur = self.current();
                self.ctx.shutdown.store(true, Ordering::SeqCst);
                Response::ShutdownAck { epoch: cur.epoch }
            }
            Request::Pagerank { engine, params } => self.pagerank(engine, params),
            Request::Ppr {
                engine,
                params,
                seeds,
            } => self.ppr(engine, params, seeds),
            Request::Bfs { engine, source } => self.bfs(engine, source),
            Request::Sssp { engine, source } => self.sssp(engine, source),
            Request::Update { engine, batch } => self.update(engine, batch),
        }
    }

    fn shard(cur: &ServingState, engine: u16) -> Result<&Arc<Shard>, Response> {
        cur.shards.get(engine as usize).ok_or_else(|| {
            err_resp(
                ErrorCode::UnknownEngine,
                format!("engine {engine} (server holds {})", cur.shards.len()),
            )
        })
    }

    fn pagerank(&mut self, engine: u16, params: QueryParams) -> Response {
        let cur = self.current();
        let shard = match Self::shard(&cur, engine) {
            Ok(s) => s,
            Err(r) => return r,
        };
        if let Err(r) = check_reply_size(shard.snapshot.graph().num_nodes()) {
            return r;
        }
        let cfg = query_cfg(&shard.snapshot, &params);
        let graph = Arc::clone(shard.snapshot.graph());
        let weights = match shard.snapshot.weights() {
            Some(w) => match EdgeWeights::new(&graph, w.to_vec()) {
                Ok(ew) => Some(ew),
                Err(e) => {
                    return err_resp(
                        ErrorCode::Internal,
                        format!("snapshot weights inconsistent with its graph: {e}"),
                    )
                }
            },
            None => None,
        };
        let threads = self.ctx.threads;
        let eng = match cached_engine(
            &mut self.caches[engine as usize].pr,
            &shard.snapshot,
            threads,
        ) {
            Ok(e) => e,
            Err(r) => return r,
        };
        let result = match &weights {
            Some(w) => weighted_pagerank_with_unified_engine(&graph, w, &cfg, eng),
            None => pagerank_with_unified_engine(&graph, &cfg, eng, None),
        };
        match result {
            Ok(r) => Response::Ranks {
                epoch: cur.epoch,
                iterations: r.iterations as u32,
                converged: r.converged,
                scores: r.scores,
            },
            Err(e) => engine_err(e),
        }
    }

    /// PPR with opportunistic coalescing (see [`PprBatcher`]): publish,
    /// claim same-key requests, lead the batch if the claim was
    /// non-empty, then wait for this request's own reply — which the
    /// leader (possibly this worker, possibly a sibling) sends.
    fn ppr(&mut self, engine: u16, params: QueryParams, seeds: Vec<u32>) -> Response {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.ctx.ppr_batcher.publish(PendingPpr {
            engine,
            params,
            seeds,
            reply: reply_tx,
        });
        let claimed = self.ctx.ppr_batcher.claim(engine, &params);
        if !claimed.is_empty() {
            self.ppr_batch_lead(engine, &params, claimed);
        }
        match reply_rx.recv() {
            Ok(resp) => resp,
            Err(_) => err_resp(ErrorCode::Internal, "batch leader dropped the request"),
        }
    }

    /// Runs one batched PPR pass for every claimed request and answers
    /// each one. Requests with invalid seed sets get their individual
    /// `BadQuery` (exactly what a solo pass would have said); the valid
    /// remainder shares one [`personalized_pagerank_many_with_unified_engine`]
    /// call, so the destID bin stream is scanned once per iteration for
    /// the whole batch.
    fn ppr_batch_lead(&mut self, engine: u16, params: &QueryParams, batch: Vec<PendingPpr>) {
        let cur = self.current();
        let shard = match Self::shard(&cur, engine) {
            Ok(s) => s,
            Err(r) => {
                for p in batch {
                    let _ = p.reply.send(r.clone());
                }
                return;
            }
        };
        let refused = if shard.snapshot.is_weighted() {
            Err(err_resp(
                ErrorCode::Unsupported,
                "personalized pagerank serves unweighted engines only",
            ))
        } else {
            check_reply_size(shard.snapshot.graph().num_nodes())
        };
        if let Err(r) = refused {
            for p in batch {
                let _ = p.reply.send(r.clone());
            }
            return;
        }
        let cfg = query_cfg(&shard.snapshot, params);
        let graph = Arc::clone(shard.snapshot.graph());
        let threads = self.ctx.threads;
        let eng = match cached_engine(
            &mut self.caches[engine as usize].pr,
            &shard.snapshot,
            threads,
        ) {
            Ok(e) => e,
            Err(r) => {
                for p in batch {
                    let _ = p.reply.send(r.clone());
                }
                return;
            }
        };
        // Validate per request so one bad seed set cannot poison its
        // batchmates: the batched driver rejects the whole batch on any
        // invalid input, which would change single-request semantics.
        let n = graph.num_nodes();
        let mut valid = Vec::with_capacity(batch.len());
        for p in batch {
            if p.seeds.is_empty() {
                let _ = p.reply.send(engine_err(PcpmError::BadConfig(
                    "seed set must be non-empty",
                )));
            } else if let Some(&bad) = p.seeds.iter().find(|&&s| s >= n) {
                let _ = p.reply.send(engine_err(PcpmError::DimensionMismatch {
                    expected: n as usize,
                    got: bad as usize,
                }));
            } else {
                valid.push(p);
            }
        }
        if valid.is_empty() {
            return;
        }
        let seed_sets: Vec<Vec<u32>> = valid.iter().map(|p| p.seeds.clone()).collect();
        match personalized_pagerank_many_with_unified_engine(&graph, &seed_sets, &cfg, eng) {
            Ok(results) => {
                for (p, r) in valid.into_iter().zip(results) {
                    let _ = p.reply.send(Response::Ranks {
                        epoch: cur.epoch,
                        iterations: r.iterations as u32,
                        converged: r.converged,
                        scores: r.scores,
                    });
                }
            }
            Err(e) => {
                let r = engine_err(e);
                for p in valid {
                    let _ = p.reply.send(r.clone());
                }
            }
        }
    }

    fn bfs(&mut self, engine: u16, source: u32) -> Response {
        let cur = self.current();
        let shard = match Self::shard(&cur, engine) {
            Ok(s) => s,
            Err(r) => return r,
        };
        if shard.snapshot.is_weighted() {
            return err_resp(
                ErrorCode::Unsupported,
                "bfs serves unweighted engines only (weighted bins would bias the levels)",
            );
        }
        if let Err(r) = check_reply_size(shard.snapshot.graph().num_nodes()) {
            return r;
        }
        let graph = Arc::clone(shard.snapshot.graph());
        let threads = self.ctx.threads;
        let eng = match cached_engine(
            &mut self.caches[engine as usize].lvl,
            &shard.snapshot,
            threads,
        ) {
            Ok(e) => e,
            Err(r) => return r,
        };
        match bfs_levels_with_engine(&graph, source, eng) {
            Ok(levels) => Response::Levels {
                epoch: cur.epoch,
                levels,
            },
            Err(e) => engine_err(e),
        }
    }

    fn sssp(&mut self, engine: u16, source: u32) -> Response {
        let cur = self.current();
        let shard = match Self::shard(&cur, engine) {
            Ok(s) => s,
            Err(r) => return r,
        };
        if !shard.snapshot.is_weighted() {
            return err_resp(
                ErrorCode::Unsupported,
                "sssp needs a weighted snapshot (build-cache over a weighted .mtx)",
            );
        }
        if let Err(r) = check_reply_size(shard.snapshot.graph().num_nodes()) {
            return r;
        }
        let graph = Arc::clone(shard.snapshot.graph());
        let threads = self.ctx.threads;
        let eng = match cached_engine(
            &mut self.caches[engine as usize].dist,
            &shard.snapshot,
            threads,
        ) {
            Ok(e) => e,
            Err(r) => return r,
        };
        match sssp_with_engine(&graph, source, eng) {
            Ok(distances) => Response::Distances {
                epoch: cur.epoch,
                distances,
            },
            Err(e) => engine_err(e),
        }
    }

    fn update(&mut self, engine: u16, batch: UpdateBatch) -> Response {
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = WriteJob {
            engine: engine as usize,
            batch,
            reply: reply_tx,
        };
        if self.ctx.update_tx.send(job).is_err() {
            return err_resp(ErrorCode::ShuttingDown, "writer is gone");
        }
        match reply_rx.recv() {
            Ok(resp) => resp,
            Err(_) => err_resp(ErrorCode::ShuttingDown, "writer dropped the request"),
        }
    }
}

/// Refuses, before the solve, a whole-vector reply over `nodes` nodes
/// that no frame can carry: solved anyway, it could not be sent, and the
/// client would see the connection drop instead of an error.
fn check_reply_size(nodes: u32) -> Result<(), Response> {
    let bytes = vector_reply_frame_bytes(nodes);
    if bytes > MAX_FRAME_BYTES {
        return Err(err_resp(
            ErrorCode::Unsupported,
            format!(
                "a reply over {nodes} nodes takes {bytes} bytes, \
                 over the {MAX_FRAME_BYTES}-byte frame cap"
            ),
        ));
    }
    Ok(())
}

/// Builds (or reuses) the worker's cached engine for one algebra,
/// sharing the published snapshot's layout.
fn cached_engine<'a, A: Algebra>(
    slot: &'a mut Option<Engine<A>>,
    snapshot: &Snapshot,
    threads: Option<usize>,
) -> Result<&'a mut Engine<A>, Response> {
    // `take`/`insert` instead of `is_none` + `as_mut().expect(..)`: the
    // returned borrow is produced by the insertion itself, so there is
    // no "filled above" proof left for a panic to enforce.
    let engine = match slot.take() {
        Some(e) => e,
        None => {
            let mut b = SnapshotEngineBuilder::<A>::from_snapshot(snapshot.clone(), Duration::ZERO);
            if let Some(t) = threads {
                b = b.threads(t);
            }
            match b.build() {
                Ok(e) => e,
                Err(e) => return Err(engine_err(e)),
            }
        }
    };
    Ok(slot.insert(engine))
}

/// Query config: the snapshot pins the structural knobs (partition
/// size, bin format); the request supplies the solver knobs.
fn query_cfg(snapshot: &Snapshot, p: &QueryParams) -> PcpmConfig {
    let mut cfg = PcpmConfig::default()
        .with_partition_bytes(snapshot.partition_bytes())
        .with_iterations(p.iterations as usize);
    cfg.bin_format = snapshot.bin_format();
    cfg.damping = p.damping;
    cfg.tolerance = p.tolerance;
    cfg.redistribute_dangling = p.redistribute_dangling;
    cfg
}

fn err_resp(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

/// Maps engine failures to wire errors: caller mistakes become
/// `BadQuery`, everything else is `Internal`.
fn engine_err(e: PcpmError) -> Response {
    let code = match &e {
        PcpmError::DimensionMismatch { .. } | PcpmError::BadConfig(_) => ErrorCode::BadQuery,
        _ => ErrorCode::Internal,
    };
    err_resp(code, e.to_string())
}

/// Maps streaming-layer failures (update path) to wire errors.
fn stream_err(e: StreamError) -> Response {
    let code = match &e {
        StreamError::NodeOutOfRange { .. } | StreamError::BadConfig(_) => ErrorCode::BadQuery,
        StreamError::Engine(inner) => {
            return engine_err(inner.clone());
        }
        _ => ErrorCode::Internal,
    };
    err_resp(code, e.to_string())
}

/// Reads one frame, idling politely: a `WouldBlock` before the first
/// byte of a frame re-checks the shutdown flag and runs `idle`; a stall
/// *inside* a frame keeps retrying briefly, then gives up on the
/// connection.
fn read_frame_idle(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
    idle: &mut dyn FnMut(),
) -> io::Result<Option<RawFrame>> {
    let mut first = [0u8; 1];
    loop {
        match stream.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    // Idle connection during drain: close it.
                    return Ok(None);
                }
                idle();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // The frame has started; finish it even while draining (this is the
    // in-flight work we promised to drain), bounded by a grace period.
    let grace = 100; // * POLL_INTERVAL = 5 s
    let mut reader = RetryReader {
        inner: stream,
        budget: grace,
    };
    let mut framed: Vec<u8> = first.to_vec();
    let mut rest = [0u8; 3];
    Read::read_exact(&mut reader, &mut rest)?;
    framed.extend_from_slice(&rest);
    let body_len = u32::from_le_bytes([framed[0], framed[1], framed[2], framed[3]]) as usize;
    if !(3..=MAX_FRAME_BYTES).contains(&body_len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {body_len}"),
        ));
    }
    let mut body = vec![0u8; body_len];
    Read::read_exact(&mut reader, &mut body)?;
    let mut full = framed;
    full.extend_from_slice(&body);
    // Delegate the header split to the shared decoder.
    read_frame(&mut &full[..])
}

/// A reader that absorbs a bounded number of read timeouts (each one
/// `POLL_INTERVAL` long) before giving up.
struct RetryReader<'a> {
    inner: &'a mut TcpStream,
    budget: u32,
}

impl Read for RetryReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.budget == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "peer stalled mid-frame",
                        ));
                    }
                    self.budget -= 1;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcpm_core::snapshot::DataplaneState;
    use pcpm_graph::gen::erdos_renyi;

    #[test]
    fn a_reply_over_the_frame_cap_is_refused_before_the_solve() {
        // The bound is the frame body the largest vector reply encodes to.
        let ranks = Response::Ranks {
            epoch: 3,
            iterations: 7,
            converged: true,
            scores: vec![0.5; 5],
        };
        assert_eq!(
            vector_reply_frame_bytes(5),
            3 + ranks.encode_payload().len()
        );
        let largest = ((MAX_FRAME_BYTES - 20) / 4) as u32;
        assert_eq!(vector_reply_frame_bytes(largest), MAX_FRAME_BYTES);
        assert!(check_reply_size(largest).is_ok());
        match check_reply_size(largest + 1) {
            Err(Response::Error {
                code: ErrorCode::Unsupported,
                message,
            }) => {
                let bytes = vector_reply_frame_bytes(largest + 1).to_string();
                assert!(message.contains(&bytes), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn an_idle_worker_lets_go_of_the_epoch_it_served() {
        let graph = Arc::new(erdos_renyi(64, 256, 3).unwrap());
        let cfg = PcpmConfig::default().with_partition_bytes(64);
        let engine = Engine::<PlusF32>::builder_shared(&graph)
            .config(cfg)
            .build()
            .unwrap();
        let snapshot = engine.snapshot().unwrap();
        drop(engine);
        let DataplaneState::Wide(layout) = snapshot.layout() else {
            unreachable!("a wide snapshot");
        };
        let epoch0 = Arc::downgrade(layout);
        let state = Arc::new(Mutex::new(Arc::new(ServingState {
            epoch: 0,
            shards: vec![Arc::new(Shard {
                snapshot,
                label: "g".into(),
                load: Duration::ZERO,
            })],
        })));
        // No connection ever arrives, but the queue stays open.
        let (_conn_tx, conn_rx) = mpsc::channel();
        let (update_tx, _update_rx) = mpsc::channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut worker = Worker {
            ctx: WorkerCtx {
                conn_rx: Arc::new(Mutex::new(conn_rx)),
                state: Arc::clone(&state),
                metrics: Arc::new(Metrics::new()),
                shutdown: Arc::clone(&shutdown),
                update_tx,
                ppr_batcher: Arc::default(),
                threads: None,
            },
            cache_epoch: 0,
            caches: Vec::new(),
        };
        let params = QueryParams::default();
        let served = worker.pagerank(0, params);
        assert!(
            matches!(served, Response::Ranks { epoch: 0, .. }),
            "{served:?}"
        );

        let absent = (1..64u32)
            .find(|&t| graph.neighbors(0).binary_search(&t).is_err())
            .unwrap();
        let batch = UpdateBatch::from_parts(vec![(0, absent)], vec![]);
        let mut engines = vec![None];
        let updated = apply_update(&state, &mut engines, 0, batch, &Metrics::new());
        assert!(matches!(updated, Response::Updated(_)), "{updated:?}");
        assert!(
            epoch0.strong_count() > 0,
            "the worker's engine still shares the epoch-0 layout"
        );

        let idle = thread::spawn(move || worker_loop(worker));
        let deadline = Instant::now() + Duration::from_secs(30);
        while epoch0.strong_count() > 0 && Instant::now() < deadline {
            thread::sleep(POLL_INTERVAL / 5);
        }
        let released = epoch0.strong_count() == 0;
        shutdown.store(true, Ordering::SeqCst);
        idle.join().unwrap();
        assert!(
            released,
            "an idle worker keeps no epoch it no longer serves"
        );
    }

    #[test]
    fn a_failed_update_leaves_no_trace() {
        let graph = Arc::new(erdos_renyi(64, 256, 3).unwrap());
        let cfg = PcpmConfig::default().with_partition_bytes(64);
        let build = || Engine::<PlusF32>::builder_shared(&graph).config(cfg);
        let shard = |label: &str| {
            Arc::new(Shard {
                snapshot: build().build().unwrap().snapshot().unwrap(),
                label: label.into(),
                load: Duration::ZERO,
            })
        };
        let other = shard("h");
        let state = Mutex::new(Arc::new(ServingState {
            epoch: 0,
            shards: vec![shard("g"), Arc::clone(&other)],
        }));
        let metrics = Metrics::new();
        // A weighted writer engine over the same graph refuses an update
        // that carries no weights.
        let weights = EdgeWeights::random(&graph, 1);
        let mut engines = vec![Some(build().weights(&weights).build().unwrap()), None];
        let mut absent = (0..64u32)
            .flat_map(|s| (0..64u32).map(move |t| (s, t)))
            .filter(|&(s, t)| s != t && graph.neighbors(s).binary_search(&t).is_err());
        let (first, second) = (absent.next().unwrap(), absent.next().unwrap());

        let failed = apply_update(
            &state,
            &mut engines,
            0,
            UpdateBatch::from_parts(vec![first], vec![]),
            &metrics,
        );
        assert!(
            matches!(
                failed,
                Response::Error {
                    code: ErrorCode::BadQuery,
                    ..
                }
            ),
            "{failed:?}"
        );
        assert_eq!(lock_recover(&state).epoch, 0, "nothing was published");
        assert!(engines[0].is_none(), "the failed engine was not kept");

        let ok = apply_update(
            &state,
            &mut engines,
            0,
            UpdateBatch::from_parts(vec![second], vec![]),
            &metrics,
        );
        assert!(
            matches!(
                ok,
                Response::Updated(UpdateReply {
                    epoch: 1,
                    applied: 1,
                    ..
                })
            ),
            "{ok:?}"
        );
        let shards = lock_recover(&state).shards.clone();
        assert!(
            Arc::ptr_eq(&shards[1], &other),
            "the publish shares the shard it did not update"
        );
        assert_eq!(shards[0].label, "g");
        let published = Arc::clone(shards[0].snapshot.graph());
        let has = |(s, t): (u32, u32)| published.neighbors(s).binary_search(&t).is_ok();
        assert!(has(second), "the second batch is published");
        assert!(!has(first), "the failed batch left no edge behind");
        assert_eq!(published.num_edges(), graph.num_edges() + 1);
    }
}
