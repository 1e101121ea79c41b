//! The `pcpm-serve` wire protocol: framing, request/response types and
//! their binary codecs.
//!
//! # Frame layout
//!
//! Every message (either direction) travels in one frame:
//!
//! ```text
//! length   4 B   little-endian byte length of the body that follows
//! version  2 B   protocol version (currently 2)
//! kind     1 B   request or response kind (see below)
//! payload  ...   kind-specific body, little-endian throughout
//! ```
//!
//! Frames larger than [`MAX_FRAME_BYTES`] are rejected before any
//! allocation happens, so a corrupt length prefix cannot OOM the peer.
//! A version the server does not understand earns a typed
//! [`Response::Error`] with [`ErrorCode::UnsupportedVersion`] rather
//! than a dropped connection, and a query whose whole-vector reply
//! would exceed the cap ([`vector_reply_frame_bytes`]) one with
//! [`ErrorCode::Unsupported`], before it is solved.
//!
//! # Request kinds
//!
//! | kind | request | payload |
//! |------|---------|---------|
//! | 0 | `health` | empty |
//! | 1 | `stats` | empty |
//! | 2 | `pagerank` | engine `u16`, [`QueryParams`] |
//! | 3 | `personalized_pagerank` | engine `u16`, [`QueryParams`], seed count `u32`, seeds `u32`× |
//! | 4 | `bfs` | engine `u16`, source `u32` |
//! | 5 | `sssp` | engine `u16`, source `u32` |
//! | 6 | `update` | engine `u16`, an [`UpdateBatch::to_bytes`] blob |
//! | 7 | `shutdown` | empty |
//!
//! [`QueryParams`] is `iterations u32, damping f64, has_tolerance u8,
//! tolerance f64, redistribute_dangling u8` — the same knobs the
//! offline CLI exposes, so a served answer can be diffed bit-for-bit
//! against `pcpm pagerank` on the same graph.
//!
//! # Response kinds
//!
//! | kind | response | payload |
//! |------|----------|---------|
//! | 0 | `health` | epoch `u64`, engine count `u16` |
//! | 1 | `stats` | see [`ServerStats`] |
//! | 2 | `ranks` | epoch `u64`, iterations `u32`, converged `u8`, count `u32`, scores `f32`× |
//! | 3 | `levels` | epoch `u64`, count `u32`, levels `u32`× |
//! | 4 | `distances` | epoch `u64`, count `u32`, distances `f32`× |
//! | 5 | `updated` | epoch `u64`, mode `u8`, rebuilt `u32`, total `u32`, applied `u32`, ignored `u32` |
//! | 6 | `shutdown_ack` | epoch `u64` |
//! | 7 | `error` | code `u8`, message length `u32`, UTF-8 message |
//!
//! # Epoch semantics
//!
//! Every data-carrying response is tagged with the **epoch** of the
//! serving state it was computed against. The server starts at epoch 0;
//! each applied update batch publishes epoch `e+1` atomically (readers
//! holding epoch `e` state finish against `e` — they are never blocked
//! and never observe a half-applied batch). A client that needs
//! read-your-writes simply waits until `health` reports the epoch its
//! `update` response returned.
//!
//! # Server-side PPR batching
//!
//! `personalized_pagerank` requests that are in flight on several
//! workers at once and share the same `(engine, QueryParams)` key may
//! be **coalesced** server-side into one batched engine pass (one scan
//! of the destID bin stream per power iteration for every eight queries
//! of the batch).
//! This is invisible on the wire: it needs no protocol support, every
//! request still receives its own `ranks` response, and the batched
//! solver is bit-identical to the sequential one, so the scores,
//! iteration count and convergence flag are exactly what a solo pass
//! at the same epoch would have produced. The epoch tag on the
//! response names the serving state the (possibly shared) pass ran
//! against, as always. Coalescing is opportunistic — a lone request is
//! simply a batch of one — and requests whose seed sets fail
//! validation are answered individually with `BadQuery` without
//! poisoning their batchmates.

use pcpm_core::{RepairStats, UpdateBatch, UpdateOutcome};
use std::io::{self, Read, Write};
use std::time::Duration;

/// Protocol version spoken by this build.
///
/// Version 2 carries `PCPMUB02` update-batch frames, whose checksum is
/// word-wise FNV-1a; a version-1 peer sends `PCPMUB01` frames and gets
/// [`ErrorCode::UnsupportedVersion`] before its batch is parsed.
pub const PROTOCOL_VERSION: u16 = 2;

/// Upper bound on a frame body; larger length prefixes are rejected
/// before allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 26; // 64 MiB

/// Bytes of the frame body a whole-vector reply over `nodes` nodes
/// takes: the version and kind, then the largest such payload's
/// (`ranks`) 17 bytes before the vector and 4 per node. Nothing over
/// [`MAX_FRAME_BYTES`] can be sent.
pub fn vector_reply_frame_bytes(nodes: u32) -> usize {
    3 + 17 + 4 * nodes as usize
}

/// Latency-histogram bucket count: bucket `i` holds requests that took
/// less than `2^i` microseconds; the last bucket absorbs the rest.
pub const NUM_LATENCY_BUCKETS: usize = 20;

/// Number of distinct request kinds (for per-kind metric arrays).
pub const NUM_REQUEST_KINDS: usize = 8;

/// Human-readable request-kind names, indexed by wire kind.
pub const REQUEST_KIND_NAMES: [&str; NUM_REQUEST_KINDS] = [
    "health",
    "stats",
    "pagerank",
    "personalized_pagerank",
    "bfs",
    "sssp",
    "update",
    "shutdown",
];

/// Typed error codes carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame or payload could not be decoded.
    BadFrame = 1,
    /// The request's protocol version is not supported.
    UnsupportedVersion = 2,
    /// The request referenced an engine index the server does not hold.
    UnknownEngine = 3,
    /// The query itself is invalid (empty seed set, source out of
    /// range, bad iteration count...).
    BadQuery = 4,
    /// The operation is not supported on this engine (e.g. `sssp` on an
    /// unweighted snapshot, `update` on a weighted one).
    Unsupported = 5,
    /// The server is draining and refuses new work.
    ShuttingDown = 6,
    /// Internal engine failure.
    Internal = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => Self::BadFrame,
            2 => Self::UnsupportedVersion,
            3 => Self::UnknownEngine,
            4 => Self::BadQuery,
            5 => Self::Unsupported,
            6 => Self::ShuttingDown,
            7 => Self::Internal,
            _ => return None,
        })
    }
}

/// PageRank-family query knobs, mirroring the offline CLI flags.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryParams {
    /// Iteration cap.
    pub iterations: u32,
    /// Damping factor.
    pub damping: f64,
    /// Convergence tolerance (run to the cap when `None`).
    pub tolerance: Option<f64>,
    /// Spread dangling mass uniformly (global PageRank only).
    pub redistribute_dangling: bool,
}

impl Default for QueryParams {
    fn default() -> Self {
        // Matches `PcpmConfig::default()` so an unconfigured query and
        // an unconfigured CLI run agree.
        Self {
            iterations: 20,
            damping: 0.85,
            tolerance: None,
            redistribute_dangling: false,
        }
    }
}

impl QueryParams {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.iterations.to_le_bytes());
        buf.extend_from_slice(&self.damping.to_le_bytes());
        buf.push(u8::from(self.tolerance.is_some()));
        buf.extend_from_slice(&self.tolerance.unwrap_or(0.0).to_le_bytes());
        buf.push(u8::from(self.redistribute_dangling));
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let iterations = cur.u32()?;
        let damping = cur.f64()?;
        let has_tol = cur.u8()? != 0;
        let tol = cur.f64()?;
        let redistribute_dangling = cur.u8()? != 0;
        Ok(Self {
            iterations,
            damping,
            tolerance: has_tol.then_some(tol),
            redistribute_dangling,
        })
    }
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness + current epoch.
    Health,
    /// Per-request metrics and engine provenance.
    Stats,
    /// Global PageRank on engine `engine`.
    Pagerank {
        /// Engine index (serve-order of the snapshot arguments).
        engine: u16,
        /// Query knobs.
        params: QueryParams,
    },
    /// Personalized PageRank restarted at `seeds`.
    Ppr {
        /// Engine index.
        engine: u16,
        /// Query knobs.
        params: QueryParams,
        /// Non-empty seed set.
        seeds: Vec<u32>,
    },
    /// BFS hop counts from `source`.
    Bfs {
        /// Engine index.
        engine: u16,
        /// Source node.
        source: u32,
    },
    /// Shortest-path distances from `source` (weighted engines only).
    Sssp {
        /// Engine index.
        engine: u16,
        /// Source node.
        source: u32,
    },
    /// Apply an edge-update batch and publish a new epoch.
    Update {
        /// Engine index.
        engine: u16,
        /// The batch to apply.
        batch: UpdateBatch,
    },
    /// Drain in-flight work and exit.
    Shutdown,
}

impl Request {
    /// The wire kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Health => 0,
            Request::Stats => 1,
            Request::Pagerank { .. } => 2,
            Request::Ppr { .. } => 3,
            Request::Bfs { .. } => 4,
            Request::Sssp { .. } => 5,
            Request::Update { .. } => 6,
            Request::Shutdown => 7,
        }
    }

    /// Serializes the payload (everything after the kind byte).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Health | Request::Stats | Request::Shutdown => {}
            Request::Pagerank { engine, params } => {
                buf.extend_from_slice(&engine.to_le_bytes());
                params.encode(&mut buf);
            }
            Request::Ppr {
                engine,
                params,
                seeds,
            } => {
                buf.extend_from_slice(&engine.to_le_bytes());
                params.encode(&mut buf);
                buf.extend_from_slice(&(seeds.len() as u32).to_le_bytes());
                for &s in seeds {
                    buf.extend_from_slice(&s.to_le_bytes());
                }
            }
            Request::Bfs { engine, source } | Request::Sssp { engine, source } => {
                buf.extend_from_slice(&engine.to_le_bytes());
                buf.extend_from_slice(&source.to_le_bytes());
            }
            Request::Update { engine, batch } => {
                buf.extend_from_slice(&engine.to_le_bytes());
                buf.extend_from_slice(&batch.to_bytes());
            }
        }
        buf
    }

    /// Decodes a request from its kind byte and payload.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        let mut cur = Cursor { data: payload };
        let req = match kind {
            0 => Request::Health,
            1 => Request::Stats,
            2 => Request::Pagerank {
                engine: cur.u16()?,
                params: QueryParams::decode(&mut cur)?,
            },
            3 => {
                let engine = cur.u16()?;
                let params = QueryParams::decode(&mut cur)?;
                let n = cur.u32()? as usize;
                if n > payload.len() {
                    return Err(ProtoError("seed count exceeds payload".into()));
                }
                let mut seeds = Vec::with_capacity(n);
                for _ in 0..n {
                    seeds.push(cur.u32()?);
                }
                Request::Ppr {
                    engine,
                    params,
                    seeds,
                }
            }
            4 => Request::Bfs {
                engine: cur.u16()?,
                source: cur.u32()?,
            },
            5 => Request::Sssp {
                engine: cur.u16()?,
                source: cur.u32()?,
            },
            6 => {
                let engine = cur.u16()?;
                let batch = UpdateBatch::from_bytes(cur.rest())
                    .map_err(|e| ProtoError(format!("update batch: {e}")))?;
                return Ok(Request::Update { engine, batch });
            }
            7 => Request::Shutdown,
            other => return Err(ProtoError(format!("unknown request kind {other}"))),
        };
        cur.expect_empty()?;
        Ok(req)
    }
}

/// How the server absorbed an update batch, on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateReply {
    /// The newly published epoch (responses at this epoch include the
    /// batch).
    pub epoch: u64,
    /// `Rebuilt` for every effective batch; `Repaired` with zero counts
    /// when nothing changed.
    pub outcome: UpdateOutcome,
    /// Effective ops applied after set-semantics filtering.
    pub applied: u32,
    /// Requested ops that were no-ops against the current edge set.
    pub ignored: u32,
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Liveness: current epoch and engine count.
    Health {
        /// Current serving epoch.
        epoch: u64,
        /// Number of loaded engines.
        engines: u16,
    },
    /// Metrics + provenance snapshot.
    Stats(Box<ServerStats>),
    /// PageRank / PPR scores.
    Ranks {
        /// Epoch the scores were computed against.
        epoch: u64,
        /// Iterations the solver ran.
        iterations: u32,
        /// Whether it converged before the cap.
        converged: bool,
        /// Per-node scores.
        scores: Vec<f32>,
    },
    /// BFS levels (`u32::MAX` = unreached).
    Levels {
        /// Epoch the levels were computed against.
        epoch: u64,
        /// Per-node hop counts.
        levels: Vec<u32>,
    },
    /// SSSP distances (`f32::INFINITY` = unreachable).
    Distances {
        /// Epoch the distances were computed against.
        epoch: u64,
        /// Per-node distances.
        distances: Vec<f32>,
    },
    /// Update applied and published.
    Updated(UpdateReply),
    /// The server acknowledged a shutdown request and is draining.
    ShutdownAck {
        /// Epoch at shutdown.
        epoch: u64,
    },
    /// Typed failure; the connection stays usable.
    Error {
        /// What went wrong, machine-readable.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The wire kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Health { .. } => 0,
            Response::Stats(_) => 1,
            Response::Ranks { .. } => 2,
            Response::Levels { .. } => 3,
            Response::Distances { .. } => 4,
            Response::Updated(_) => 5,
            Response::ShutdownAck { .. } => 6,
            Response::Error { .. } => 7,
        }
    }

    /// Serializes the payload (everything after the kind byte).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Health { epoch, engines } => {
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&engines.to_le_bytes());
            }
            Response::Stats(stats) => stats.encode(&mut buf),
            Response::Ranks {
                epoch,
                iterations,
                converged,
                scores,
            } => {
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&iterations.to_le_bytes());
                buf.push(u8::from(*converged));
                buf.extend_from_slice(&(scores.len() as u32).to_le_bytes());
                for &s in scores {
                    buf.extend_from_slice(&s.to_le_bytes());
                }
            }
            Response::Levels { epoch, levels } => {
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&(levels.len() as u32).to_le_bytes());
                for &l in levels {
                    buf.extend_from_slice(&l.to_le_bytes());
                }
            }
            Response::Distances { epoch, distances } => {
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&(distances.len() as u32).to_le_bytes());
                for &d in distances {
                    buf.extend_from_slice(&d.to_le_bytes());
                }
            }
            Response::Updated(u) => {
                buf.extend_from_slice(&u.epoch.to_le_bytes());
                let (mode, stats) = match u.outcome {
                    UpdateOutcome::Repaired(s) => (0u8, s),
                    UpdateOutcome::Rebuilt => (
                        1u8,
                        RepairStats {
                            partitions_rebuilt: 0,
                            partitions_total: 0,
                        },
                    ),
                };
                buf.push(mode);
                buf.extend_from_slice(&stats.to_bytes());
                buf.extend_from_slice(&u.applied.to_le_bytes());
                buf.extend_from_slice(&u.ignored.to_le_bytes());
            }
            Response::ShutdownAck { epoch } => {
                buf.extend_from_slice(&epoch.to_le_bytes());
            }
            Response::Error { code, message } => {
                buf.push(*code as u8);
                buf.extend_from_slice(&(message.len() as u32).to_le_bytes());
                buf.extend_from_slice(message.as_bytes());
            }
        }
        buf
    }

    /// Decodes a response from its kind byte and payload.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        let mut cur = Cursor { data: payload };
        let resp = match kind {
            0 => Response::Health {
                epoch: cur.u64()?,
                engines: cur.u16()?,
            },
            1 => Response::Stats(Box::new(ServerStats::decode(&mut cur)?)),
            2 => {
                let epoch = cur.u64()?;
                let iterations = cur.u32()?;
                let converged = cur.u8()? != 0;
                let scores = cur.f32_vec()?;
                Response::Ranks {
                    epoch,
                    iterations,
                    converged,
                    scores,
                }
            }
            3 => {
                let epoch = cur.u64()?;
                let levels = cur.u32_vec()?;
                Response::Levels { epoch, levels }
            }
            4 => {
                let epoch = cur.u64()?;
                let distances = cur.f32_vec()?;
                Response::Distances { epoch, distances }
            }
            5 => {
                let epoch = cur.u64()?;
                let mode = cur.u8()?;
                let stats = RepairStats::from_bytes(cur.bytes(8)?)
                    .map_err(|e| ProtoError(e.to_string()))?;
                let applied = cur.u32()?;
                let ignored = cur.u32()?;
                let outcome = match mode {
                    0 => UpdateOutcome::Repaired(stats),
                    1 => UpdateOutcome::Rebuilt,
                    other => return Err(ProtoError(format!("unknown update mode {other}"))),
                };
                Response::Updated(UpdateReply {
                    epoch,
                    outcome,
                    applied,
                    ignored,
                })
            }
            6 => Response::ShutdownAck { epoch: cur.u64()? },
            7 => {
                let code = ErrorCode::from_u8(cur.u8()?)
                    .ok_or_else(|| ProtoError("unknown error code".into()))?;
                let message = cur.string()?;
                Response::Error { code, message }
            }
            other => return Err(ProtoError(format!("unknown response kind {other}"))),
        };
        cur.expect_empty()?;
        Ok(resp)
    }
}

/// Per-request-kind counters and a fixed-bucket latency histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryStat {
    /// Wire kind this row covers.
    pub kind: u8,
    /// Requests handled (including ones answered with a typed error).
    pub count: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
    /// Total handler execution time across all requests, microseconds.
    pub exec_us_total: u64,
    /// `buckets[i]` counts requests that took `< 2^i` microseconds
    /// (and at least `2^(i-1)`); the last bucket absorbs the rest.
    pub buckets: [u64; NUM_LATENCY_BUCKETS],
}

impl QueryStat {
    /// The request-kind name for this row.
    pub fn name(&self) -> &'static str {
        REQUEST_KIND_NAMES
            .get(self.kind as usize)
            .copied()
            .unwrap_or("unknown")
    }

    /// Upper bound (µs) of the histogram bucket containing quantile
    /// `q ∈ [0, 1]`, or `None` when the row is empty.
    pub fn quantile_upper_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some(1u64 << i);
            }
        }
        Some(1u64 << (NUM_LATENCY_BUCKETS - 1))
    }

    /// Fraction of requests answered with a typed error, in `[0, 1]`.
    pub fn error_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.errors as f64 / self.count as f64
        }
    }

    /// Mean handler execution time in microseconds.
    pub fn mean_exec_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.exec_us_total as f64 / self.count as f64
        }
    }
}

/// One entry of the bounded slow-query ring: a request whose handler
/// exceeded the server's slow threshold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowQuery {
    /// Wire request kind.
    pub kind: u8,
    /// Handler execution time, microseconds.
    pub exec_us: u64,
    /// Serving epoch the request ran against.
    pub epoch: u64,
}

impl SlowQuery {
    /// The request-kind name for this entry.
    pub fn name(&self) -> &'static str {
        REQUEST_KIND_NAMES
            .get(self.kind as usize)
            .copied()
            .unwrap_or("unknown")
    }
}

/// Provenance of one loaded engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineInfo {
    /// Snapshot path (or a synthetic label for in-memory engines).
    pub path: String,
    /// Snapshot decode + rehydration wall-clock at load.
    pub load: Duration,
    /// Node count.
    pub nodes: u32,
    /// Edge count at the current epoch.
    pub edges: u64,
    /// Whether the bins carry edge weights.
    pub weighted: bool,
    /// Bin encoding name (`wide` / `compact` / `delta`).
    pub bin_format: String,
    /// Partition size in bytes.
    pub partition_bytes: u64,
}

/// The `stats` response body: epoch, uptime, per-kind metrics, engine
/// provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerStats {
    /// Current serving epoch.
    pub epoch: u64,
    /// Time since the server started.
    pub uptime: Duration,
    /// One row per request kind (indexed by wire kind).
    pub queries: Vec<QueryStat>,
    /// One row per loaded engine.
    pub engines: Vec<EngineInfo>,
    /// Total time connections spent queued between accept and worker
    /// dispatch, microseconds.
    pub queue_wait_us_total: u64,
    /// Connections handed from the acceptor to a worker.
    pub connections_dispatched: u64,
    /// Connections accepted but not yet dispatched, at snapshot time.
    pub queue_depth: u64,
    /// Update batches published by the writer thread.
    pub writer_publishes: u64,
    /// Total wall-clock the writer spent swapping in new epochs,
    /// microseconds.
    pub writer_publish_us_total: u64,
    /// Bounded ring of recent slow requests, oldest first.
    pub slow_queries: Vec<SlowQuery>,
}

impl ServerStats {
    /// All-zero stats skeleton; callers fill the fields they own.
    pub fn empty() -> Self {
        Self {
            epoch: 0,
            uptime: Duration::ZERO,
            queries: Vec::new(),
            engines: Vec::new(),
            queue_wait_us_total: 0,
            connections_dispatched: 0,
            queue_depth: 0,
            writer_publishes: 0,
            writer_publish_us_total: 0,
            slow_queries: Vec::new(),
        }
    }

    /// Mean queue wait per dispatched connection, microseconds.
    pub fn mean_queue_wait_us(&self) -> f64 {
        if self.connections_dispatched == 0 {
            0.0
        } else {
            self.queue_wait_us_total as f64 / self.connections_dispatched as f64
        }
    }

    /// Render the stats as the human-readable table shared by
    /// `pcpm query stats` and the bench suite: per-kind counts, error
    /// rates and p50/p90/p99 bucket upper bounds, followed by
    /// queue/writer totals and the slow-query ring.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "epoch {}  uptime {:.1}s\n",
            self.epoch,
            self.uptime.as_secs_f64()
        ));
        out.push_str(
            "kind                   count  errors  err%    p50_us    p90_us    p99_us   mean_us\n",
        );
        for q in &self.queries {
            if q.count == 0 {
                continue;
            }
            let p = |quantile: f64| -> String {
                q.quantile_upper_us(quantile)
                    .map(|v| format!("<{v}"))
                    .unwrap_or_else(|| "-".into())
            };
            out.push_str(&format!(
                "{:<22} {:>5} {:>7} {:>5.1} {:>9} {:>9} {:>9} {:>9.1}\n",
                q.name(),
                q.count,
                q.errors,
                q.error_rate() * 100.0,
                p(0.50),
                p(0.90),
                p(0.99),
                q.mean_exec_us(),
            ));
        }
        out.push_str(&format!(
            "queue: {} dispatched, depth {}, mean wait {:.1}us\n",
            self.connections_dispatched,
            self.queue_depth,
            self.mean_queue_wait_us()
        ));
        out.push_str(&format!(
            "writer: {} publishes, {:.3}ms total publish time\n",
            self.writer_publishes,
            self.writer_publish_us_total as f64 / 1e3
        ));
        if !self.slow_queries.is_empty() {
            out.push_str(&format!(
                "slow queries (last {}):\n",
                self.slow_queries.len()
            ));
            for s in &self.slow_queries {
                out.push_str(&format!(
                    "  {:<22} {:>8}us  epoch {}\n",
                    s.name(),
                    s.exec_us,
                    s.epoch
                ));
            }
        }
        out
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&(self.uptime.as_micros() as u64).to_le_bytes());
        buf.push(self.queries.len() as u8);
        for q in &self.queries {
            buf.push(q.kind);
            buf.extend_from_slice(&q.count.to_le_bytes());
            buf.extend_from_slice(&q.errors.to_le_bytes());
            buf.extend_from_slice(&q.exec_us_total.to_le_bytes());
            for &b in &q.buckets {
                buf.extend_from_slice(&b.to_le_bytes());
            }
        }
        buf.extend_from_slice(&(self.engines.len() as u16).to_le_bytes());
        for e in &self.engines {
            buf.extend_from_slice(&(e.path.len() as u32).to_le_bytes());
            buf.extend_from_slice(e.path.as_bytes());
            buf.extend_from_slice(&(e.load.as_micros() as u64).to_le_bytes());
            buf.extend_from_slice(&e.nodes.to_le_bytes());
            buf.extend_from_slice(&e.edges.to_le_bytes());
            buf.push(u8::from(e.weighted));
            buf.extend_from_slice(&(e.bin_format.len() as u32).to_le_bytes());
            buf.extend_from_slice(e.bin_format.as_bytes());
            buf.extend_from_slice(&e.partition_bytes.to_le_bytes());
        }
        buf.extend_from_slice(&self.queue_wait_us_total.to_le_bytes());
        buf.extend_from_slice(&self.connections_dispatched.to_le_bytes());
        buf.extend_from_slice(&self.queue_depth.to_le_bytes());
        buf.extend_from_slice(&self.writer_publishes.to_le_bytes());
        buf.extend_from_slice(&self.writer_publish_us_total.to_le_bytes());
        buf.extend_from_slice(&(self.slow_queries.len() as u16).to_le_bytes());
        for s in &self.slow_queries {
            buf.push(s.kind);
            buf.extend_from_slice(&s.exec_us.to_le_bytes());
            buf.extend_from_slice(&s.epoch.to_le_bytes());
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let epoch = cur.u64()?;
        let uptime = Duration::from_micros(cur.u64()?);
        let nq = cur.u8()? as usize;
        let mut queries = Vec::with_capacity(nq);
        for _ in 0..nq {
            let kind = cur.u8()?;
            let count = cur.u64()?;
            let errors = cur.u64()?;
            let exec_us_total = cur.u64()?;
            let mut buckets = [0u64; NUM_LATENCY_BUCKETS];
            for b in &mut buckets {
                *b = cur.u64()?;
            }
            queries.push(QueryStat {
                kind,
                count,
                errors,
                exec_us_total,
                buckets,
            });
        }
        let ne = cur.u16()? as usize;
        let mut engines = Vec::with_capacity(ne);
        for _ in 0..ne {
            let path = cur.string()?;
            let load = Duration::from_micros(cur.u64()?);
            let nodes = cur.u32()?;
            let edges = cur.u64()?;
            let weighted = cur.u8()? != 0;
            let bin_format = cur.string()?;
            let partition_bytes = cur.u64()?;
            engines.push(EngineInfo {
                path,
                load,
                nodes,
                edges,
                weighted,
                bin_format,
                partition_bytes,
            });
        }
        let queue_wait_us_total = cur.u64()?;
        let connections_dispatched = cur.u64()?;
        let queue_depth = cur.u64()?;
        let writer_publishes = cur.u64()?;
        let writer_publish_us_total = cur.u64()?;
        let ns = cur.u16()? as usize;
        let mut slow_queries = Vec::with_capacity(ns);
        for _ in 0..ns {
            let kind = cur.u8()?;
            let exec_us = cur.u64()?;
            let epoch = cur.u64()?;
            slow_queries.push(SlowQuery {
                kind,
                exec_us,
                epoch,
            });
        }
        Ok(Self {
            epoch,
            uptime,
            queries,
            engines,
            queue_wait_us_total,
            connections_dispatched,
            queue_depth,
            writer_publishes,
            writer_publish_us_total,
            slow_queries,
        })
    }
}

/// A structural decode failure (truncated or inconsistent payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

/// Little-endian payload reader.
struct Cursor<'a> {
    data: &'a [u8],
}

macro_rules! cursor_le {
    ($name:ident, $t:ty) => {
        fn $name(&mut self) -> Result<$t, ProtoError> {
            let n = std::mem::size_of::<$t>();
            let bytes = self.bytes(n)?;
            let arr = bytes
                .try_into()
                .map_err(|_| ProtoError("internal: cursor slice width".into()))?;
            Ok(<$t>::from_le_bytes(arr))
        }
    };
}

impl<'a> Cursor<'a> {
    cursor_le!(u16, u16);
    cursor_le!(u32, u32);
    cursor_le!(u64, u64);
    cursor_le!(f64, f64);
    cursor_le!(f32, f32);

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.bytes(1)?[0])
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.data.len() < n {
            return Err(ProtoError("truncated payload".into()));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.data)
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let n = self.u32()? as usize;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| ProtoError("invalid UTF-8".into()))
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, ProtoError> {
        let n = self.u32()? as usize;
        if n.checked_mul(4).is_none_or(|b| b > self.data.len()) {
            return Err(ProtoError("vector length exceeds payload".into()));
        }
        (0..n).map(|_| self.u32()).collect()
    }

    fn f32_vec(&mut self) -> Result<Vec<f32>, ProtoError> {
        let n = self.u32()? as usize;
        if n.checked_mul(4).is_none_or(|b| b > self.data.len()) {
            return Err(ProtoError("vector length exceeds payload".into()));
        }
        (0..n).map(|_| self.f32()).collect()
    }

    fn expect_empty(&self) -> Result<(), ProtoError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(ProtoError(format!(
                "{} trailing bytes after payload",
                self.data.len()
            )))
        }
    }
}

/// Writes one frame (`length ‖ version ‖ kind ‖ payload`).
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> io::Result<()> {
    let body_len = 3 + payload.len();
    if body_len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    let mut head = [0u8; 7];
    head[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    head[4..6].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    head[6] = kind;
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()
}

/// A frame as read off the wire, before semantic decoding.
pub struct RawFrame {
    /// Protocol version from the header.
    pub version: u16,
    /// Kind byte.
    pub kind: u8,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Reads one frame; `Ok(None)` means the peer closed the connection
/// cleanly before a new frame started.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<RawFrame>> {
    let mut len_buf = [0u8; 4];
    // EOF before any byte of a frame is a clean close.
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len_buf[n..])?,
        Err(e) => return Err(e),
    }
    let body_len = u32::from_le_bytes(len_buf) as usize;
    if !(3..=MAX_FRAME_BYTES).contains(&body_len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {body_len}"),
        ));
    }
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body)?;
    let version = u16::from_le_bytes([body[0], body[1]]);
    let kind = body[2];
    body.drain(..3);
    Ok(Some(RawFrame {
        version,
        kind,
        payload: body,
    }))
}

/// Sends a request frame.
pub fn send_request<W: Write>(w: &mut W, req: &Request) -> io::Result<()> {
    write_frame(w, req.kind(), &req.encode_payload())
}

/// Sends a response frame.
pub fn send_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
    write_frame(w, resp.kind(), &resp.encode_payload())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let decoded = Request::decode(req.kind(), &req.encode_payload()).unwrap();
        assert_eq!(decoded, req);
    }

    fn round_trip_response(resp: Response) {
        let decoded = Response::decode(resp.kind(), &resp.encode_payload()).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Health);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Pagerank {
            engine: 3,
            params: QueryParams {
                iterations: 50,
                damping: 0.9,
                tolerance: Some(1e-9),
                redistribute_dangling: true,
            },
        });
        round_trip_request(Request::Ppr {
            engine: 0,
            params: QueryParams::default(),
            seeds: vec![1, 5, 9],
        });
        round_trip_request(Request::Bfs {
            engine: 1,
            source: 7,
        });
        round_trip_request(Request::Sssp {
            engine: 0,
            source: 0,
        });
        round_trip_request(Request::Update {
            engine: 2,
            batch: UpdateBatch::from_parts(vec![(1, 2)], vec![(3, 4)]),
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Health {
            epoch: 9,
            engines: 2,
        });
        round_trip_response(Response::Ranks {
            epoch: 1,
            iterations: 20,
            converged: true,
            scores: vec![0.25, 0.5, 0.125],
        });
        round_trip_response(Response::Levels {
            epoch: 0,
            levels: vec![0, 1, u32::MAX],
        });
        round_trip_response(Response::Distances {
            epoch: 0,
            distances: vec![0.0, 2.5, f32::INFINITY],
        });
        round_trip_response(Response::Updated(UpdateReply {
            epoch: 4,
            outcome: UpdateOutcome::Repaired(RepairStats {
                partitions_rebuilt: 2,
                partitions_total: 64,
            }),
            applied: 10,
            ignored: 1,
        }));
        round_trip_response(Response::Updated(UpdateReply {
            epoch: 5,
            outcome: UpdateOutcome::Rebuilt,
            applied: 3,
            ignored: 0,
        }));
        round_trip_response(Response::ShutdownAck { epoch: 2 });
        round_trip_response(Response::Error {
            code: ErrorCode::BadQuery,
            message: "seed 99 out of range".into(),
        });
        let mut buckets = [0u64; NUM_LATENCY_BUCKETS];
        buckets[4] = 17;
        round_trip_response(Response::Stats(Box::new(ServerStats {
            epoch: 3,
            uptime: Duration::from_micros(12345),
            queries: vec![QueryStat {
                kind: 2,
                count: 17,
                errors: 1,
                exec_us_total: 4242,
                buckets,
            }],
            engines: vec![EngineInfo {
                path: "a.pcpmc".into(),
                load: Duration::from_micros(900),
                nodes: 4096,
                edges: 65536,
                weighted: false,
                bin_format: "wide".into(),
                partition_bytes: 2048,
            }],
            queue_wait_us_total: 777,
            connections_dispatched: 19,
            queue_depth: 2,
            writer_publishes: 3,
            writer_publish_us_total: 9000,
            slow_queries: vec![SlowQuery {
                kind: 2,
                exec_us: 1500,
                epoch: 2,
            }],
        })));
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let req = Request::Ppr {
            engine: 0,
            params: QueryParams::default(),
            seeds: vec![3],
        };
        let mut buf = Vec::new();
        send_request(&mut buf, &req).unwrap();
        let frame = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(frame.version, PROTOCOL_VERSION);
        assert_eq!(Request::decode(frame.kind, &frame.payload).unwrap(), req);
        // Clean EOF -> None.
        assert!(read_frame(&mut &[][..]).unwrap().is_none());
    }

    #[test]
    fn oversized_and_truncated_frames_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
        // A frame that promises more body than it carries.
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&[1, 0, 0]);
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn quantiles_from_buckets() {
        let mut buckets = [0u64; NUM_LATENCY_BUCKETS];
        buckets[3] = 90; // < 8 us
        buckets[10] = 10; // < 1024 us
        let q = QueryStat {
            kind: 2,
            count: 100,
            errors: 5,
            exec_us_total: 1000,
            buckets,
        };
        assert_eq!(q.quantile_upper_us(0.5), Some(8));
        assert_eq!(q.quantile_upper_us(0.99), Some(1024));
        assert!((q.error_rate() - 0.05).abs() < 1e-12);
        assert!((q.mean_exec_us() - 10.0).abs() < 1e-12);
        let empty = QueryStat {
            kind: 0,
            count: 0,
            errors: 0,
            exec_us_total: 0,
            buckets: [0; NUM_LATENCY_BUCKETS],
        };
        assert_eq!(empty.quantile_upper_us(0.5), None);
        assert_eq!(empty.error_rate(), 0.0);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Request::Bfs {
            engine: 0,
            source: 1,
        }
        .encode_payload();
        payload.push(0);
        assert!(Request::decode(4, &payload).is_err());
    }
}
