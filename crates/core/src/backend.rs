//! The unified execution API: one algebra-generic [`Engine`] in front of
//! pluggable [`Backend`] dataplanes.
//!
//! The paper closes by proposing PCPM as "an efficient programming model
//! for other graph algorithms". This module turns that claim into an
//! interface: *control plane* (pre-processing — partitioning, PNG and bin
//! construction, edge sorting, transposition) happens once in
//! [`Backend::prepare`], and the *dataplane* — one scatter→gather round
//! `y[t] = ⊕_{(s,t) ∈ E} extend(w(s,t), x[s])` — is [`Backend::step`].
//! Every algorithm in `pcpm-algos` drives that one method, so any
//! algorithm runs on any backend and ablations are apples-to-apples.
//! [`Backend::step_many_with`] ends the round in the caller's apply step
//! — inside the gather's partition loop on the PCPM dataplane — which is
//! what the fixed-point algorithms ([`crate::fixed_point`]) drive.
//!
//! Two backends ship in this crate:
//!
//! - [`BackendKind::Pcpm`] — the paper's partition-centric pipeline
//!   (PNG scatter + branch-avoiding gather, wide or compact bins,
//!   per-phase ablation variants chosen at build time);
//! - [`BackendKind::Pull`] — conventional pull-direction traversal over
//!   the transpose (Algorithm 1's dataplane, the PDPR baseline).
//!
//! The BVGAS baseline (Algorithm 5) implements [`Backend`] in
//! `pcpm-baselines` and plugs in through [`Engine::from_backend`].
//!
//! # Examples
//!
//! ```
//! use pcpm_graph::gen::erdos_renyi;
//! use pcpm_core::backend::{BackendKind, Engine};
//! use pcpm_core::algebra::PlusF32;
//!
//! let g = erdos_renyi(100, 600, 1).unwrap();
//! let mut engine = Engine::<PlusF32>::builder(&g)
//!     .partition_bytes(64 * 4)
//!     .backend(BackendKind::Pcpm)
//!     .build()
//!     .unwrap();
//! let x = vec![1.0f32; 100];
//! let mut y = vec![0.0f32; 100];
//! engine.step(&x, &mut y).unwrap();
//! assert!(engine.report().compression_ratio.unwrap() >= 1.0);
//! ```

use crate::algebra::{Algebra, PlusF32};
use crate::config::PcpmConfig;
use crate::engine::{FormatPipeline, GatherKind, ScatterKind};
use crate::error::{PcpmError, SnapshotError};
use crate::format::{
    BinFormat, BinFormatKind, CompactFormat, DeltaFormat, WideFormat, BRANCHY_NEEDS_WIDE,
};
use crate::gather::{apply_parts, apply_share, ApplyFn, Epilogue, MAX_LANES};
use crate::kernel::KernelKind;
use crate::partition::{split_by_lens, Partitioner};
use crate::png::EdgeView;
use crate::pr::PhaseTimings;
use crate::snapshot::{BinState, DataplaneState, Snapshot};
use crate::update::{RepairStats, UpdateBatch, UpdateOutcome};
use pcpm_graph::{Csr, EdgeWeights};
use rayon::prelude::*;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Everything a backend may use during pre-processing.
///
/// `scatter` / `gather` select ablation variants for backends that have
/// them (currently only PCPM); other backends ignore the fields — the
/// builder rejects non-default variants on backends that cannot honour
/// them, so a prepared backend never silently drops a requested option.
pub struct PrepareSpec<'a> {
    /// The graph structure (sources → destinations).
    pub graph: &'a Csr,
    /// The same graph behind a shared handle, when the caller has one.
    /// Backends that must retain the adjacency past `prepare` (the
    /// CSR-traversal scatter ablation, BVGAS) clone this `Arc` instead
    /// of deep-copying the graph.
    pub shared: Option<&'a Arc<Csr>>,
    /// Optional per-edge weights, parallel to the CSR targets array.
    pub weights: Option<&'a [f32]>,
    /// Engine configuration (partitioning, threads, compact bins).
    pub cfg: PcpmConfig,
    /// Scatter variant (PCPM only).
    pub scatter: ScatterKind,
    /// Gather variant (PCPM only).
    pub gather: GatherKind,
}

impl PrepareSpec<'_> {
    /// A retainable handle on the graph: the shared `Arc` when present
    /// (zero-copy), otherwise a one-time deep copy.
    pub fn graph_arc(&self) -> Arc<Csr> {
        match self.shared {
            Some(arc) => Arc::clone(arc),
            None => Arc::new(self.graph.clone()),
        }
    }

    /// The adjacency handle the PCPM dataplane retains: only the
    /// CSR-traversal scatter ablation reads the graph after `prepare`.
    fn scatter_graph(&self) -> Option<Arc<Csr>> {
        (self.scatter == ScatterKind::CsrTraversal).then(|| self.graph_arc())
    }
}

/// Static facts a backend reports about its prepared state.
#[derive(Clone, Debug)]
pub struct BackendMetrics {
    /// Human-readable dataplane name (`"pcpm"`, `"pull"`, …).
    pub name: &'static str,
    /// Wall-clock pre-processing time spent in `prepare`.
    pub preprocess: Duration,
    /// Heap bytes held by message bins / auxiliary streams, kept batch
    /// scratch included (0 when the backend streams from the graph).
    pub aux_memory_bytes: u64,
    /// PNG compression ratio `r = |E| / |E'|`, when the backend has one.
    pub compression_ratio: Option<f64>,
    /// Physical bin format name, for backends with a format axis
    /// (`"wide"` / `"compact"` / `"delta"` on PCPM, `None` elsewhere).
    pub bin_format: Option<&'static str>,
    /// Destination-ID compression relative to the wide baseline
    /// (`4·|E| / dest-stream bytes`): 1.0 wide, 2.0 compact, measured
    /// for delta; `None` for backends without message bins.
    pub bin_compression: Option<f64>,
    /// Physical bytes of the destination-ID bin stream scanned by one
    /// gather pass — the paper's bandwidth-bound term; `None` for
    /// backends without message bins.
    pub dest_stream_bytes: Option<u64>,
    /// Concrete gather kernel name (`"scalar"` / `"unrolled"`, `Auto`
    /// already resolved at build time) for backends with a kernel axis;
    /// `None` elsewhere.
    pub kernel: Option<&'static str>,
}

/// A pluggable dataplane: pre-processed state that can run one
/// scatter→gather round per call.
///
/// Implementations must be deterministic: the same `x` must produce the
/// same `y` on every call (all shipped backends decompose work into
/// exclusively-owned output slices, so this holds under any scheduler).
pub trait Backend<A: Algebra>: Send {
    /// Builds the backend's pre-processed state (the control plane).
    fn prepare(spec: &PrepareSpec<'_>) -> Result<Self, PcpmError>
    where
        Self: Sized;

    /// One propagation round: `y[t] = ⊕_{(s,t) ∈ E} extend(w, x[s])`,
    /// with `y` re-initialized to the algebra's identity first.
    ///
    /// Lengths are validated by [`Engine::step`]; implementations may
    /// assume `x.len() == num_src` and `y.len() == num_dst`.
    fn step(&mut self, x: &[A::T], y: &mut [A::T]) -> Result<PhaseTimings, PcpmError>;

    /// One multi-query round: `ys[q] = ⊕ Aᵀ·xs[q]` for every query in
    /// the batch. The default loops over [`Backend::step`], so every
    /// backend supports batching; dataplanes with a real SpMM (the PCPM
    /// pipeline) override it to scan their bin streams once per pass of
    /// at most eight queries.
    /// Per-query output must be bit-identical to the
    /// sequential loop.
    ///
    /// Lengths are validated by [`Engine::step_many`]; implementations
    /// may assume `xs.len() == ys.len()` and per-vector lengths match
    /// `num_src` / `num_dst`.
    fn step_many(
        &mut self,
        xs: &[&[A::T]],
        ys: &mut [&mut [A::T]],
    ) -> Result<PhaseTimings, PcpmError> {
        let mut total = PhaseTimings::default();
        for (x, y) in xs.iter().zip(ys.iter_mut()) {
            total += self.step(x, y)?;
        }
        Ok(total)
    }

    /// [`Backend::step_many`], then the caller's apply step over every
    /// destination range; returns the phase times and the epilogue's
    /// per-query totals. The default applies in a pass of its own over
    /// the engine's destination-partition ranges, so every reduction is
    /// grouped as on the PCPM dataplane — which overrides this to apply
    /// each partition inside its gather, still in cache.
    fn step_many_with(
        &mut self,
        xs: &[&[A::T]],
        ys: &mut [&mut [A::T]],
        epilogue: Epilogue<'_, A::T>,
    ) -> Result<(PhaseTimings, Vec<f64>), PcpmError> {
        step_then_apply(self, xs, ys, epilogue)
    }

    /// Static facts about the prepared state.
    fn metrics(&self) -> BackendMetrics;

    /// Exports the serializable dataplane state for the engine-snapshot
    /// cache ([`Engine::save_snapshot`]). The default declines — only
    /// the PCPM dataplane is snapshotable today.
    fn snapshot_state(&self) -> Option<DataplaneState> {
        None
    }
}

/// [`Backend::step_many_with`] for a dataplane that cannot apply inside
/// its gather: the round, then the epilogue as a pass of its own.
fn step_then_apply<A: Algebra, B: Backend<A> + ?Sized>(
    backend: &mut B,
    xs: &[&[A::T]],
    ys: &mut [&mut [A::T]],
    epilogue: Epilogue<'_, A::T>,
) -> Result<(PhaseTimings, Vec<f64>), PcpmError> {
    let mut timings = backend.step_many(xs, ys)?;
    let t0 = crate::telemetry::stopwatch();
    let lens = epilogue.lens;
    let (totals, _) = apply_parts(lens, ys, Some(epilogue), |_, ys_p| ys_p);
    timings.apply += t0.elapsed();
    Ok((timings, totals))
}

/// Why every round of an engine fails after an [`Engine::update`] whose
/// rebuild failed.
const RELEASED: &str = "the dataplane was released by an update whose rebuild failed";

/// What an engine holds between releasing its dataplane and adopting the
/// replacement in [`Engine::update`]: no state, and every round fails
/// with a typed error, so an engine whose rebuild failed never serves
/// freed or stale bins.
struct Released;

impl<A: Algebra> Backend<A> for Released {
    fn prepare(_: &PrepareSpec<'_>) -> Result<Self, PcpmError> {
        Ok(Released)
    }

    fn step(&mut self, _: &[A::T], _: &mut [A::T]) -> Result<PhaseTimings, PcpmError> {
        Err(PcpmError::BadConfig(RELEASED))
    }

    fn metrics(&self) -> BackendMetrics {
        BackendMetrics {
            name: "released",
            preprocess: Duration::ZERO,
            aux_memory_bytes: 0,
            compression_ratio: None,
            bin_format: None,
            bin_compression: None,
            dest_stream_bytes: None,
            kernel: None,
        }
    }
}

/// The built-in backends the [`EngineBuilder`] can construct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Partition-centric pipeline (the paper's design).
    #[default]
    Pcpm,
    /// Pull-direction traversal over the transpose (PDPR's dataplane).
    Pull,
}

impl BackendKind {
    /// All built-in kinds, for sweep tests and benches.
    pub const ALL: [BackendKind; 2] = [BackendKind::Pcpm, BackendKind::Pull];

    /// The dataplane name as reported in [`BackendMetrics`].
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Pcpm => "pcpm",
            BackendKind::Pull => "pull",
        }
    }
}

/// Uniform per-run execution facts, threaded through every backend.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// Dataplane name.
    pub backend: &'static str,
    /// Passes executed so far: one per plain step, one per pass of a
    /// batch (each one scan of the bin streams). A pushed round scans no
    /// bins and is not counted here but in [`Self::sparse_rounds`].
    pub steps: usize,
    /// Rounds a fixed-point driver pushed along the adjacency instead of
    /// streaming the bins, because their nonzero inputs reached few
    /// edges ([`crate::fixed_point`]); one per round, whatever its width.
    pub sparse_rounds: usize,
    /// Out-edges those pushed rounds added along, summed over their
    /// queries.
    pub pushed_edges: u64,
    /// Accumulated per-phase wall-clock time across all rounds, pushed
    /// ones included (their push counts as gather).
    pub timings: PhaseTimings,
    /// Pre-processing (control plane) time.
    pub preprocess: Duration,
    /// Heap bytes of auxiliary state (message bins, the transpose).
    pub aux_memory_bytes: u64,
    /// PNG compression ratio, for backends that build one.
    pub compression_ratio: Option<f64>,
    /// Physical bin format name, for backends with a format axis.
    pub bin_format: Option<&'static str>,
    /// Destination-ID compression relative to the wide baseline.
    pub bin_compression: Option<f64>,
    /// Whether the prepared state was loaded from a snapshot cache
    /// instead of built by `prepare` (in which case `preprocess` is the
    /// load wall-clock, not a build). An [`Engine::update`] rebuilds the
    /// state, so after one this is `false` and `preprocess` is that
    /// build's time.
    pub loaded_from_snapshot: bool,
    /// Snapshot load wall-clock, present exactly when
    /// [`Self::loaded_from_snapshot`] is set.
    pub snapshot_load: Option<Duration>,
    /// Bytes of the destID bin stream one gather pass scans, for
    /// backends with message bins ([`BackendMetrics::dest_stream_bytes`]).
    pub dest_stream_bytes: Option<u64>,
    /// Rayon workers spawned process-wide since this engine was
    /// constructed (`rayon::diagnostics`): other pools' workers, such as
    /// the lazily built global pool, other engines' pools, or a pool
    /// [`Engine::with_threads`] swapped in. The pool the engine is built
    /// with is spawned before the baseline is taken, so it never shows
    /// here. A pool of `n` threads spawns `n − 1` workers —
    /// the thread that submits a job works its chunks too — so a
    /// 1-thread pool spawns none.
    pub pool_workers_spawned: u64,
    /// Rayon jobs dispatched process-wide since this engine was
    /// constructed (`rayon::diagnostics`).
    pub pool_jobs_dispatched: u64,
    /// Multi-query passes executed through [`Engine::step_many`]: a
    /// batch of `Q` queries is `⌈Q / 8⌉` passes of at most eight. Each
    /// counts once in [`Self::steps`] however many queries it carried.
    pub batch_passes: usize,
    /// Query vectors served by those batched passes.
    pub batch_queries: usize,
    /// Concrete gather kernel name, for backends with a kernel axis
    /// ([`BackendMetrics::kernel`]).
    pub kernel: Option<&'static str>,
    /// The partition size `q` in nodes the engine runs
    /// ([`Engine::partition_nodes`]).
    pub partition_nodes: u32,
    /// Destination partitions of that size: the units of parallel work.
    pub partitions: u32,
}

impl ExecutionReport {
    /// Throughput in giga-edges traversed per second per round, the
    /// paper's Fig. 7 metric.
    pub fn gteps(&self, num_edges: u64) -> f64 {
        let per_round = self.timings.total().as_secs_f64() / self.steps.max(1) as f64;
        if per_round == 0.0 {
            0.0
        } else {
            num_edges as f64 / per_round / 1e9
        }
    }

    /// Total destID-stream bytes scanned across every gather pass so
    /// far (one full scan per step).
    pub fn dest_stream_total_bytes(&self) -> Option<u64> {
        self.dest_stream_bytes.map(|b| b * self.steps as u64)
    }

    /// Effective sequential bandwidth of the destID bin stream — total
    /// stream bytes scanned divided by cumulative gather wall-clock, in
    /// GB/s. This is the paper's headline number: PCPM wins exactly when
    /// this approaches DRAM bandwidth. `None` for backends without
    /// message bins or before the first step.
    pub fn dest_stream_gbps(&self) -> Option<f64> {
        let total = self.dest_stream_total_bytes()?;
        let secs = self.timings.gather.as_secs_f64();
        if total == 0 || secs == 0.0 {
            return None;
        }
        Some(total as f64 / secs / 1e9)
    }

    /// Query vectors answered so far: one per plain step plus however
    /// many each batched pass carried.
    pub fn queries_served(&self) -> usize {
        self.steps - self.batch_passes + self.batch_queries
    }

    /// Average queries amortized per bin-stream scan
    /// (`queries_served / steps`): 1.0 with no batching, approaching
    /// `Q` when every pass carries a full batch.
    pub fn batch_amortization(&self) -> f64 {
        self.queries_served() as f64 / self.steps.max(1) as f64
    }

    /// DestID-stream bytes scanned per query answered — the per-batch
    /// amortization stat: batching `Q` queries divides this by `Q`
    /// while `dest_stream_total_bytes` stays flat.
    pub fn dest_stream_bytes_per_query(&self) -> Option<f64> {
        let total = self.dest_stream_total_bytes()?;
        let queries = self.queries_served();
        if queries == 0 {
            return None;
        }
        Some(total as f64 / queries as f64)
    }
}

/// The unified execution engine: dimension checks, timing accounting and
/// a uniform report over any [`Backend`].
pub struct Engine<A: Algebra> {
    backend: Box<dyn Backend<A>>,
    num_src: u32,
    num_dst: u32,
    /// Edges of the graph the dataplane was prepared over; `None` for an
    /// external backend, whose edges the engine never saw.
    num_edges: Option<u64>,
    /// Partition size `q`: the destination ranges of an epilogue. Fixed
    /// at build: neither an update nor a new pool changes it.
    partition_nodes: u32,
    /// Engine-owned thread pool, built once when `PcpmConfig::threads`
    /// is set; preprocessing and every step install into it.
    pool: Option<Arc<rayon::ThreadPool>>,
    steps: usize,
    /// Pushed rounds and the edges they pushed (report bookkeeping).
    sparse_rounds: usize,
    pushed_edges: u64,
    timings: PhaseTimings,
    /// Multi-query passes and the query vectors they carried
    /// ([`Engine::step_many`] bookkeeping for the report).
    batch_passes: usize,
    batch_queries: usize,
    /// The build recipe, kept so [`Engine::update`] can re-`prepare` the
    /// dataplane. `None` for engines wrapping an external backend
    /// ([`Engine::from_backend`]), which the engine does not know how to
    /// rebuild.
    recipe: Option<BuildRecipe>,
    /// The graph (and weights) the engine was prepared over, retained
    /// for [`Engine::save_snapshot`]. Always zero-copy: populated only
    /// when a shared handle exists — [`Engine::builder_shared`], a
    /// snapshot load, or any [`Engine::update`] (which receives an
    /// `Arc`). Engines built from a borrowed graph retain nothing
    /// rather than silently deep-copying it. `None` for externally
    /// prepared backends.
    source: Option<EngineSource>,
    /// Snapshot load wall-clock when the engine was rehydrated through
    /// [`Engine::from_snapshot`] instead of `prepare` (cleared by the
    /// rebuild of an [`Engine::update`]).
    snapshot_load: Option<Duration>,
    /// `rayon::diagnostics` (workers_spawned, jobs_dispatched) at
    /// construction; [`Engine::report`] subtracts it so pool behaviour
    /// shows up in the same report as kernel timings.
    diag_base: (u64, u64),
}

/// The process-wide rayon diagnostics counters an engine baselines at
/// construction.
fn pool_diagnostics() -> (u64, u64) {
    (
        rayon::diagnostics::workers_spawned() as u64,
        rayon::diagnostics::jobs_dispatched() as u64,
    )
}

/// The retained build inputs behind [`Engine::save_snapshot`].
struct EngineSource {
    graph: Arc<Csr>,
    /// CSR-order edge weights, when the engine is weighted.
    weights: Option<Vec<f32>>,
}

/// Everything needed to re-run `prepare` for a built-in backend.
#[derive(Clone, Copy, Debug)]
struct BuildRecipe {
    kind: BackendKind,
    /// The configuration with the partition size derived at build in
    /// place of the budget, so a rebuild keeps the layout.
    cfg: PcpmConfig,
    scatter: ScatterKind,
    gather: GatherKind,
    /// Whether the engine was prepared with edge weights — updates must
    /// keep the same weightedness.
    weighted: bool,
}

/// Every vector on one side of a step must span the engine's dimension.
fn check_lens(expected: u32, lens: impl IntoIterator<Item = usize>) -> Result<(), PcpmError> {
    let expected = expected as usize;
    match lens.into_iter().find(|&len| len != expected) {
        Some(got) => Err(PcpmError::DimensionMismatch { expected, got }),
        None => Ok(()),
    }
}

/// Builds the engine-owned pool for an explicit thread count.
fn build_pool(threads: Option<usize>) -> Result<Option<Arc<rayon::ThreadPool>>, PcpmError> {
    threads
        .map(|t| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .map(Arc::new)
                .map_err(|_| PcpmError::BadConfig("failed to build the engine thread pool"))
        })
        .transpose()
}

impl<A: Algebra> Engine<A> {
    /// Starts building an engine over `graph`.
    pub fn builder(graph: &Csr) -> EngineBuilder<'_, A> {
        EngineBuilder {
            graph,
            shared: None,
            weights: None,
            cfg: PcpmConfig::default(),
            backend: BackendKind::default(),
            scatter: ScatterKind::default(),
            gather: GatherKind::default(),
            _algebra: std::marker::PhantomData,
        }
    }

    /// Starts building an engine over a shared graph handle. Backends
    /// that retain the adjacency (the CSR-traversal ablation) clone the
    /// `Arc` instead of deep-copying the graph, making construction
    /// zero-copy.
    pub fn builder_shared(graph: &Arc<Csr>) -> EngineBuilder<'_, A> {
        EngineBuilder {
            shared: Some(graph),
            ..Engine::builder(graph)
        }
    }

    /// Wraps an externally prepared backend (e.g. the BVGAS
    /// implementation in `pcpm-baselines`).
    ///
    /// When the backend still needs to be prepared, prefer
    /// [`Engine::from_backend_with`]: it builds the engine-owned pool
    /// *first* and runs `prepare` on it, so preprocessing and every
    /// later step share one pool instead of spawning a throwaway pool
    /// for the prepare (and epilogues run over its partition size).
    pub fn from_backend(backend: Box<dyn Backend<A>>, num_src: u32, num_dst: u32) -> Self {
        Self {
            backend,
            num_src,
            num_dst,
            num_edges: None,
            partition_nodes: PcpmConfig::default().partition_nodes(),
            pool: None,
            steps: 0,
            sparse_rounds: 0,
            pushed_edges: 0,
            timings: PhaseTimings::default(),
            batch_passes: 0,
            batch_queries: 0,
            recipe: None,
            source: None,
            snapshot_load: None,
            diag_base: pool_diagnostics(),
        }
    }

    /// Builds an engine around an externally prepared backend with one
    /// engine-owned pool for its whole lifetime: the pool is constructed
    /// first, `prepare` runs installed on it, and every subsequent step
    /// reuses it. This is the churn-free counterpart of
    /// `from_backend(..).with_threads(..)`, which spawned one pool for
    /// the prepare and a second for the steps. Of `cfg` the engine reads
    /// the thread count and, for epilogues, the partition size.
    pub fn from_backend_with(
        cfg: &PcpmConfig,
        num_src: u32,
        num_dst: u32,
        prepare: impl FnOnce() -> Result<Box<dyn Backend<A>>, PcpmError> + Send,
    ) -> Result<Self, PcpmError> {
        let pool = build_pool(cfg.threads)?;
        let backend = match &pool {
            Some(p) => p.install(prepare)?,
            None => prepare()?,
        };
        Ok(Self {
            pool,
            partition_nodes: cfg.partition_nodes(),
            ..Self::from_backend(backend, num_src, num_dst)
        })
    }

    /// Pins every subsequent step to a pool of `threads` workers
    /// (`None` restores the ambient global pool). The builder does this
    /// automatically from `PcpmConfig::threads`; external-backend
    /// constructors that already prepared their backend call it
    /// explicitly (prefer [`Engine::from_backend_with`] when the
    /// prepare still lies ahead). The pool changes, not the layout: the
    /// partition size derived at build stays.
    pub fn with_threads(mut self, threads: Option<usize>) -> Result<Self, PcpmError> {
        self.pool = build_pool(threads)?;
        Ok(self)
    }

    /// Number of source nodes (length of `x`).
    pub fn num_src(&self) -> u32 {
        self.num_src
    }

    /// Number of destination nodes (length of `y`).
    pub fn num_dst(&self) -> u32 {
        self.num_dst
    }

    /// Edges of the graph the engine was prepared over (or last updated
    /// to); `None` for an external backend ([`Engine::from_backend`]).
    pub(crate) fn num_edges(&self) -> Option<u64> {
        self.num_edges
    }

    /// The partition size `q` in nodes the engine runs: its PNG's on the
    /// PCPM dataplane, and the destination ranges of every epilogue.
    pub fn partition_nodes(&self) -> u32 {
        self.partition_nodes
    }

    /// The shared graph handle the engine was prepared over, when one
    /// was retained ([`Engine::builder_shared`], a snapshot load, or any
    /// [`Engine::update`]). Serving layers use this to run graph-aware
    /// drivers (dangling handling, degree normalization) against exactly
    /// the adjacency the prepared bins encode.
    pub fn graph(&self) -> Option<&Arc<Csr>> {
        self.source.as_ref().map(|s| &s.graph)
    }

    /// The CSR-order edge weights the engine was prepared with, when
    /// retained alongside the graph.
    pub fn weights(&self) -> Option<&[f32]> {
        self.source.as_ref().and_then(|s| s.weights.as_deref())
    }

    /// Runs `op` on the engine-owned thread pool (inline when no
    /// explicit thread count was configured), lending it mutable access
    /// to the engine. The algorithm drivers wrap their whole iteration
    /// loop in this, so step, apply and convergence phases all execute
    /// under one pool with no per-iteration pool traffic.
    pub fn run<R: Send>(&mut self, op: impl FnOnce(&mut Self) -> R + Send) -> R {
        match self.pool.take() {
            Some(pool) => {
                // The pool is detached while `op` runs, so nested
                // `step` calls execute inline on the pool's workers
                // instead of re-installing.
                let r = pool.install(|| op(self));
                self.pool = Some(pool);
                r
            }
            None => op(self),
        }
    }

    /// One pass through the backend — a plain step, or a batch of
    /// `queries` — on the engine-owned pool, with the report's bookkeeping.
    fn pass<R: Send>(
        &mut self,
        queries: Option<usize>,
        run: impl FnOnce(&mut dyn Backend<A>) -> Result<(PhaseTimings, R), PcpmError> + Send,
    ) -> Result<(PhaseTimings, R), PcpmError> {
        let _span = match queries {
            None => crate::telemetry::span_n("step", self.steps as u64),
            Some(q) => crate::telemetry::span_n("step_many", q as u64),
        };
        let tm = crate::telemetry::counters();
        let jobs0 = tm.is_enabled().then(rayon::diagnostics::jobs_dispatched);
        let backend = &mut *self.backend;
        let (t, out) = match &self.pool {
            Some(pool) => pool.install(|| run(backend))?,
            None => run(backend)?,
        };
        if let Some(jobs0) = jobs0 {
            tm.add_pool_jobs_dispatched((rayon::diagnostics::jobs_dispatched() - jobs0) as u64);
        }
        // A batch runs as passes of at most `MAX_LANES` queries, each one
        // scan of the bin streams.
        let passes = queries.map_or(1, |q| q.div_ceil(MAX_LANES));
        if let Some(q) = queries {
            tm.add_batched_passes(passes as u64);
            tm.add_batched_queries(q as u64);
            self.batch_passes += passes;
            self.batch_queries += q;
        }
        self.steps += passes;
        self.timings += t;
        Ok((t, out))
    }

    /// Rejects vectors that do not pair up or span the engine's dimensions.
    fn check_batch(&self, xs: &[&[A::T]], ys: &[&mut [A::T]]) -> Result<(), PcpmError> {
        if xs.len() != ys.len() {
            return Err(PcpmError::BadConfig(
                "step_many requires one output vector per input vector",
            ));
        }
        check_lens(self.num_src, xs.iter().map(|x| x.len()))?;
        check_lens(self.num_dst, ys.iter().map(|y| y.len()))
    }

    /// One propagation round through the backend dataplane.
    ///
    /// When `PcpmConfig::threads` was set, the round runs on the
    /// engine-owned pool (built once at construction — no per-step pool
    /// setup); otherwise on the caller's ambient pool. Inside
    /// [`Engine::run`] the round inherits the already-installed pool.
    pub fn step(&mut self, x: &[A::T], y: &mut [A::T]) -> Result<PhaseTimings, PcpmError> {
        self.check_batch(&[x], &[&mut *y])?;
        Ok(self.pass(None, |backend| Ok((backend.step(x, y)?, ())))?.0)
    }

    /// One multi-query propagation round: `ys[q] = ⊕ Aᵀ·xs[q]` for the
    /// whole batch in a single backend call.
    ///
    /// On the PCPM dataplane this is a row-interleaved SpMM run as
    /// passes of at most eight queries, each with the row width fixed at
    /// compile time: every pass scans (and, for the delta format,
    /// decodes) the destID bin stream **once**, so a batch of `Q` pays
    /// `⌈Q / 8⌉` scans. Other backends and ablations loop over
    /// [`Engine::step`]-equivalent rounds. Per-query results are
    /// bit-identical to sequential [`Engine::step`] calls either way.
    /// Each pass counts as one step in the report (one bin-stream scan);
    /// [`ExecutionReport::batch_passes`] / `batch_queries` record the
    /// amortization. An empty batch is a no-op.
    pub fn step_many(
        &mut self,
        xs: &[&[A::T]],
        ys: &mut [&mut [A::T]],
    ) -> Result<PhaseTimings, PcpmError> {
        self.check_batch(xs, ys)?;
        if xs.is_empty() {
            return Ok(PhaseTimings::default());
        }
        let batch = Some(xs.len());
        Ok(self
            .pass(batch, |backend| Ok((backend.step_many(xs, ys)?, ())))?
            .0)
    }

    /// [`Engine::step_many`] with the caller's apply step fused in: once
    /// the sums of a destination range are final, `apply` receives that
    /// range of every output and of every `state` vector (one per query)
    /// as a [`Finished`](crate::Finished), may overwrite both — so a
    /// round's output vector can carry the next round's input — and
    /// leaves one `f64` partial per query. Returns the phase times and,
    /// per query, the partials summed in ascending range order: a
    /// grouping fixed by the engine's layout ([`Engine::partition_nodes`]),
    /// whatever the thread count, bin format, kernel or backend.
    ///
    /// On the PCPM dataplane the ranges are the destination partitions
    /// and `apply` runs inside the gather (Algorithm 4) while other
    /// partitions are still gathered: it is handed all it may touch. A
    /// batch wider than eight runs as passes of at most eight queries,
    /// so there `apply` sees each range once per pass, for that pass's
    /// queries ([`Finished::queries`](crate::Finished::queries) names
    /// their positions in the batch). Elsewhere it is a pass of its own
    /// after the round, over the ranges the engine's partition size
    /// defines, for the whole batch. A batch of one runs the solo kernel
    /// and counts as a plain step in the report.
    pub fn step_many_with(
        &mut self,
        xs: &[&[A::T]],
        ys: &mut [&mut [A::T]],
        state: &mut [&mut [A::T]],
        apply: &ApplyFn<'_, A::T>,
    ) -> Result<(PhaseTimings, Vec<f64>), PcpmError> {
        self.check_batch(xs, ys)?;
        self.check_batch(xs, state)?;
        if xs.is_empty() {
            return Ok((PhaseTimings::default(), Vec::new()));
        }
        let lens = Partitioner::new(self.num_dst, self.partition_nodes)?.lens();
        let epilogue = Epilogue {
            lens: &lens,
            queries: 0..xs.len(),
            state: state.iter_mut().map(|s| &mut **s).collect(),
            apply,
        };
        let queries = (xs.len() > 1).then_some(xs.len());
        self.pass(queries, |backend| backend.step_many_with(xs, ys, epilogue))
    }

    /// Absorbs a batch of edge changes by re-`prepare`-ing the dataplane
    /// from the build recipe over the *post-update* graph (and, for
    /// weighted engines, the post-update edge weights parallel to its
    /// targets array): the updated engine steps bit for bit like one
    /// built over `graph`, and reports [`UpdateOutcome::Rebuilt`]. The
    /// rebuild keeps the partition size derived at build, so an update
    /// never changes the layout.
    ///
    /// The old dataplane is released before its replacement is prepared,
    /// so the two are never resident together. Should that preparation
    /// fail, the error is returned and every round fails with
    /// [`PcpmError::BadConfig`] until an update rebuilds the engine.
    /// Engines wrapping an external backend ([`Engine::from_backend`])
    /// cannot be rebuilt here and return [`PcpmError::BadConfig`].
    ///
    /// A weighted engine must receive weights and an unweighted engine
    /// must not — changing weightedness requires a fresh build. After the
    /// rebuild the report's `preprocess` is that build's time and its
    /// snapshot-load fields are cleared.
    ///
    /// Passing the graph as an `Arc` keeps the rebuild zero-copy for
    /// backends that retain the adjacency. An empty batch (with an
    /// unchanged node count) is a no-op and reports `Repaired` with
    /// zeroed [`RepairStats`].
    pub fn update(
        &mut self,
        graph: &Arc<Csr>,
        weights: Option<&[f32]>,
        batch: &UpdateBatch,
    ) -> Result<UpdateOutcome, PcpmError> {
        if let Some(max) = batch.max_node() {
            if max >= graph.num_nodes() {
                return Err(PcpmError::DimensionMismatch {
                    expected: graph.num_nodes() as usize,
                    got: max as usize + 1,
                });
            }
        }
        if let Some(w) = weights {
            if w.len() as u64 != graph.num_edges() {
                return Err(PcpmError::DimensionMismatch {
                    expected: graph.num_edges() as usize,
                    got: w.len(),
                });
            }
        }
        if let Some(r) = &self.recipe {
            if weights.is_some() != r.weighted {
                return Err(PcpmError::BadConfig(
                    "update must keep the engine's weightedness (rebuild to add or drop weights)",
                ));
            }
        }
        // An empty applied diff means the prepared state already matches
        // `graph`: skip rebuilding an unchanged graph.
        if batch.is_empty() && graph.num_nodes() == self.num_src {
            return Ok(UpdateOutcome::Repaired(RepairStats {
                partitions_rebuilt: 0,
                partitions_total: 0,
            }));
        }
        let Some(recipe) = self.recipe else {
            return Err(PcpmError::BadConfig(
                "externally prepared backends cannot be rebuilt through Engine::update",
            ));
        };
        let _span = crate::telemetry::span_n("update", batch.len() as u64);
        let spec = PrepareSpec {
            graph,
            shared: Some(graph),
            weights,
            cfg: recipe.cfg,
            scatter: recipe.scatter,
            gather: recipe.gather,
        };
        // Free the old dataplane (and its retained source) first: the
        // allocator can then hand its O(E) streams to the new build.
        self.backend = Box::new(Released);
        self.source = None;
        self.snapshot_load = None;
        let prepare = || prepare_builtin::<A>(recipe.kind, &spec);
        self.backend = match &self.pool {
            Some(pool) => pool.install(prepare)?,
            None => prepare()?,
        };
        self.num_src = graph.num_nodes();
        self.num_dst = graph.num_nodes();
        self.num_edges = Some(graph.num_edges());
        // A snapshot saved after the update captures the state the
        // engine serves; the `Arc` makes retention free even for an
        // engine built from a borrowed graph.
        self.source = Some(EngineSource {
            graph: Arc::clone(graph),
            weights: weights.map(<[f32]>::to_vec),
        });
        Ok(UpdateOutcome::Rebuilt)
    }

    /// Whether the engine was prepared with edge weights, when known.
    /// `None` for externally prepared backends
    /// ([`Engine::from_backend`]), whose weightedness the engine cannot
    /// introspect.
    pub fn prepared_weighted(&self) -> Option<bool> {
        self.recipe.map(|r| r.weighted)
    }

    /// The backend's static metrics.
    pub fn metrics(&self) -> BackendMetrics {
        self.backend.metrics()
    }

    /// The uniform execution report (preprocess + accumulated timings).
    pub fn report(&self) -> ExecutionReport {
        let m = self.backend.metrics();
        let (workers, jobs) = pool_diagnostics();
        ExecutionReport {
            backend: m.name,
            steps: self.steps,
            sparse_rounds: self.sparse_rounds,
            pushed_edges: self.pushed_edges,
            timings: self.timings,
            preprocess: m.preprocess,
            aux_memory_bytes: m.aux_memory_bytes,
            compression_ratio: m.compression_ratio,
            bin_format: m.bin_format,
            bin_compression: m.bin_compression,
            loaded_from_snapshot: self.snapshot_load.is_some(),
            snapshot_load: self.snapshot_load,
            dest_stream_bytes: m.dest_stream_bytes,
            pool_workers_spawned: workers.saturating_sub(self.diag_base.0),
            pool_jobs_dispatched: jobs.saturating_sub(self.diag_base.1),
            batch_passes: self.batch_passes,
            batch_queries: self.batch_queries,
            kernel: m.kernel,
            partition_nodes: self.partition_nodes,
            partitions: self.num_dst.div_ceil(self.partition_nodes),
        }
    }

    /// Exports the engine's prepared state as a [`Snapshot`] (graph,
    /// weights, PNG layout, bins). Requires a PCPM dataplane and a
    /// retained graph — engines wrapping external backends return
    /// [`SnapshotError::Unsupported`].
    pub fn snapshot(&self) -> Result<Snapshot, PcpmError> {
        let state = self.backend.snapshot_state().ok_or(PcpmError::Snapshot(
            SnapshotError::Unsupported("only the PCPM dataplane can be snapshotted"),
        ))?;
        let source =
            self.source
                .as_ref()
                .ok_or(PcpmError::Snapshot(SnapshotError::Unsupported(
                    "the engine does not retain its graph; build through \
                 Engine::builder_shared (or update/load it) to enable snapshotting",
                )))?;
        let partition_bytes =
            u64::from(state.png.src_parts().partition_size()) * crate::config::VALUE_BYTES as u64;
        Ok(Snapshot::from_state(
            Arc::clone(&source.graph),
            source.weights.clone(),
            partition_bytes,
            state,
        ))
    }

    /// Serializes the engine's prepared state to `path` (the
    /// build-once, serve-many cache). Returns the file size in bytes.
    ///
    /// A later [`Engine::from_snapshot`] skips `prepare` entirely and
    /// produces bit-identical step output.
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<u64, PcpmError> {
        Ok(self.snapshot()?.save(path)?)
    }

    /// Rehydrates an engine from a snapshot file with the recorded
    /// configuration and no thread pinning — sugar for
    /// [`EngineBuilder::from_snapshot`] + `build`.
    pub fn from_snapshot<P: AsRef<Path>>(path: P) -> Result<Self, PcpmError> {
        SnapshotEngineBuilder::open(path)?.build()
    }
}

impl Engine<PlusF32> {
    /// [`Engine::step_many_with`] computed without the bins, for a round
    /// whose inputs are mostly zero: each `ys[q]` is zeroed, every
    /// nonzero `xs[q][v]` is added along `v`'s out-edges in `graph`, `v`
    /// ascending, and `apply` then runs over the engine's destination
    /// ranges for the whole batch, as a dataplane without partitions
    /// applies. Runs on the engine's pool. The round counts in
    /// [`ExecutionReport::sparse_rounds`], not in `steps`. It equals the
    /// gathered round bit for bit when `graph` is the unweighted
    /// adjacency the engine was built over: [`crate::fixed_point`] says
    /// why, and checks the graph.
    pub(crate) fn push_many_with(
        &mut self,
        graph: &Csr,
        xs: &[&[f32]],
        ys: &mut [&mut [f32]],
        state: &mut [&mut [f32]],
        apply: &ApplyFn<'_, f32>,
    ) -> Result<(PhaseTimings, Vec<f64>), PcpmError> {
        self.check_batch(xs, ys)?;
        self.check_batch(xs, state)?;
        let _span = crate::telemetry::span_n("push", xs.len() as u64);
        let lens = Partitioner::new(self.num_dst, self.partition_nodes)?.lens();
        let epilogue = Epilogue {
            lens: &lens,
            queries: 0..xs.len(),
            state: state.iter_mut().map(|s| &mut **s).collect(),
            apply,
        };
        let round = || {
            let t0 = crate::telemetry::stopwatch();
            let edges: u64 = (xs.iter().zip(ys.iter_mut()))
                .map(|(x, y)| crate::push::push(graph, x, y))
                .sum();
            let pushed = t0.elapsed();
            let t1 = crate::telemetry::stopwatch();
            let (totals, busy) = apply_parts(&lens, ys, Some(epilogue), |_, ys_p| ys_p);
            let wall = t1.elapsed();
            let apply = apply_share(busy, lens.len(), wall);
            let timings = PhaseTimings {
                scatter: Duration::ZERO,
                gather: pushed + wall - apply,
                apply,
            };
            (timings, totals, edges)
        };
        let (timings, totals, edges) = match &self.pool {
            Some(pool) => pool.install(round),
            None => round(),
        };
        let tm = crate::telemetry::counters();
        tm.add_sparse_rounds(1);
        tm.add_pushed_edges(edges);
        self.sparse_rounds += 1;
        self.pushed_edges += edges;
        self.timings += timings;
        Ok((timings, totals))
    }
}

/// Fluent construction of an [`Engine`].
///
/// Invalid combinations — compact bins with a branchy gather, compact
/// bins or ablation variants on a non-PCPM backend, an out-of-range
/// partition budget — are rejected here, in [`EngineBuilder::build`]:
/// a successfully built engine can never fail on a variant mismatch at
/// step time.
pub struct EngineBuilder<'g, A: Algebra> {
    graph: &'g Csr,
    shared: Option<&'g Arc<Csr>>,
    weights: Option<&'g EdgeWeights>,
    cfg: PcpmConfig,
    backend: BackendKind,
    scatter: ScatterKind,
    gather: GatherKind,
    _algebra: std::marker::PhantomData<A>,
}

/// Prepares a boxed built-in backend of the given kind.
fn prepare_builtin<A: Algebra>(
    kind: BackendKind,
    spec: &PrepareSpec<'_>,
) -> Result<Box<dyn Backend<A>>, PcpmError> {
    Ok(match kind {
        BackendKind::Pcpm => boxed_pcpm_backend(
            EdgeView::from_csr(spec.graph),
            &spec.cfg,
            spec.weights,
            spec.scatter,
            spec.gather,
            spec.scatter_graph(),
        )?,
        BackendKind::Pull => Box::new(PullBackend::prepare(spec)?),
    })
}

impl<'g, A: Algebra> EngineBuilder<'g, A> {
    /// Replaces the whole configuration.
    pub fn config(mut self, cfg: PcpmConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the partition byte budget: the largest partition size `q` in
    /// nodes is `bytes / 4`, and [`EngineBuilder::build`] may halve it
    /// ([`PcpmConfig::split_partition_nodes`]).
    pub fn partition_bytes(mut self, bytes: usize) -> Self {
        self.cfg.partition_bytes = bytes;
        self
    }

    /// Sets an explicit thread count: pre-processing and every step run
    /// on an engine-owned pool of this size.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = Some(threads);
        self
    }

    /// Attaches per-edge weights (enables the weighted extension, §3.5).
    pub fn weights(mut self, weights: &'g EdgeWeights) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Selects the physical bin format of the PCPM dataplane.
    pub fn bin_format(mut self, format: BinFormatKind) -> Self {
        self.cfg.bin_format = format;
        self
    }

    /// Selects the scatter variant (PCPM backend only).
    pub fn scatter(mut self, scatter: ScatterKind) -> Self {
        self.scatter = scatter;
        self
    }

    /// Selects the gather variant (PCPM backend only).
    pub fn gather(mut self, gather: GatherKind) -> Self {
        self.gather = gather;
        self
    }

    /// Selects the gather kernel variant (PCPM backend only).
    /// [`KernelKind::Auto`] (the default) resolves to
    /// [`KernelKind::Unrolled`] at build time.
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.cfg.kernel = kernel;
        self
    }

    /// Selects the dataplane.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Validates the combination, derives the partition size from the
    /// budget, the graph and the pool's thread count (the ambient pool's
    /// when no thread count is set;
    /// [`PcpmConfig::split_partition_nodes`]) and prepares the backend.
    pub fn build(self) -> Result<Engine<A>, PcpmError> {
        self.cfg.validate()?;
        if self.backend != BackendKind::Pcpm {
            if self.cfg.bin_format != BinFormatKind::Wide {
                return Err(PcpmError::BadConfig(
                    "bin formats apply only to the PCPM backend",
                ));
            }
            if self.scatter != ScatterKind::default() || self.gather != GatherKind::default() {
                return Err(PcpmError::BadConfig(
                    "scatter/gather variants apply only to the PCPM backend",
                ));
            }
            if self.cfg.kernel != KernelKind::Auto {
                return Err(PcpmError::BadConfig(
                    "gather kernel variants apply only to the PCPM backend",
                ));
            }
        }
        // The one place the layout is derived: the PNG, the epilogue
        // ranges, the rebuild recipe and any saved snapshot carry this
        // size from here on.
        let n = self.graph.num_nodes();
        let q = self.cfg.split_partition_nodes(n, self.cfg.pool_threads());
        let cfg = self
            .cfg
            .with_partition_bytes(q as usize * crate::config::VALUE_BYTES);
        let spec = PrepareSpec {
            graph: self.graph,
            shared: self.shared,
            weights: self.weights.map(|w| w.as_slice()),
            cfg,
            scatter: self.scatter,
            gather: self.gather,
        };
        // One pool for the engine's whole lifetime: preprocessing runs
        // on it here, every step installs into it later.
        let pool = build_pool(cfg.threads)?;
        let prepare = || prepare_builtin::<A>(self.backend, &spec);
        let backend = match &pool {
            Some(p) => p.install(prepare)?,
            None => prepare()?,
        };
        // Retain the snapshot source only when it is free: a shared
        // handle clones an Arc, a borrowed graph would need a deep copy
        // (potentially GBs) the caller may never use. Borrowed-graph
        // engines become snapshotable via builder_shared or after their
        // first update (which hands the engine an Arc).
        let source = self.shared.map(|arc| EngineSource {
            graph: Arc::clone(arc),
            weights: self.weights.map(|w| w.as_slice().to_vec()),
        });
        Ok(Engine {
            num_edges: Some(self.graph.num_edges()),
            partition_nodes: q,
            pool,
            recipe: Some(BuildRecipe {
                kind: self.backend,
                cfg,
                scatter: self.scatter,
                gather: self.gather,
                weighted: self.weights.is_some(),
            }),
            source,
            ..Engine::from_backend(backend, n, n)
        })
    }

    /// Opens a snapshot file as the starting point of an engine —
    /// `prepare` is skipped entirely; the graph, PNG layout and bins
    /// come from disk. Configure threads (and assert expectations) on
    /// the returned [`SnapshotEngineBuilder`], then `build`.
    pub fn from_snapshot<P: AsRef<Path>>(path: P) -> Result<SnapshotEngineBuilder<A>, PcpmError> {
        SnapshotEngineBuilder::open(path)
    }
}

/// Builder over a loaded [`Snapshot`]: the counterpart of
/// [`EngineBuilder`] for the build-once, serve-many path.
pub struct SnapshotEngineBuilder<A: Algebra> {
    snapshot: Snapshot,
    load: Duration,
    threads: Option<usize>,
    kernel: KernelKind,
    _algebra: std::marker::PhantomData<A>,
}

impl<A: Algebra> SnapshotEngineBuilder<A> {
    /// Reads and validates `path` (magic, version, checksum, structure).
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, PcpmError> {
        let t0 = crate::telemetry::stopwatch();
        let snapshot = Snapshot::load(path)?;
        Ok(Self {
            snapshot,
            load: t0.elapsed(),
            threads: None,
            kernel: KernelKind::Auto,
            _algebra: std::marker::PhantomData,
        })
    }

    /// Wraps an already-decoded snapshot (no I/O); `load` should be the
    /// wall-clock the caller spent obtaining it.
    pub fn from_snapshot(snapshot: Snapshot, load: Duration) -> Self {
        Self {
            snapshot,
            load,
            threads: None,
            kernel: KernelKind::Auto,
            _algebra: std::marker::PhantomData,
        }
    }

    /// Selects the gather/decode kernel variant, exactly like
    /// [`EngineBuilder::kernel`]. The kernel is a runtime knob, not a
    /// layout property, so any snapshot accepts any kernel.
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// The loaded snapshot (graph, format, weightedness inspection).
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Pins the engine to a pool of `threads` workers, exactly like
    /// [`EngineBuilder::threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Rejects the snapshot unless it matches the caller's expected
    /// configuration (a partition size the budget admits, bin format,
    /// weighted-ness) —
    /// serving layers call this so a stale or foreign cache file fails
    /// loudly instead of silently serving under the wrong config.
    pub fn expect_config(self, cfg: &PcpmConfig, weighted: bool) -> Result<Self, PcpmError> {
        self.snapshot.verify_config(cfg, Some(weighted))?;
        Ok(self)
    }

    /// Rejects the snapshot unless it captures exactly `graph`.
    pub fn expect_graph(self, graph: &Csr) -> Result<Self, PcpmError> {
        self.snapshot.verify_graph(graph)?;
        Ok(self)
    }

    /// Rehydrates the engine: one engine-owned pool (when threads are
    /// pinned), a PCPM backend adopting the snapshot's PNG and bins,
    /// and a build recipe matching the snapshot's configuration — so
    /// [`Engine::update`] and a later [`Engine::save_snapshot`] work
    /// exactly as on a cold-built engine.
    pub fn build(self) -> Result<Engine<A>, PcpmError> {
        let load = self.load;
        let (graph, weights, partition_bytes, png, bins) = self.snapshot.into_parts();
        let mut cfg = PcpmConfig::default().with_partition_bytes(partition_bytes as usize);
        cfg.bin_format = bins.kind();
        cfg.threads = self.threads;
        cfg.kernel = self.kernel;
        cfg.validate()?;
        if bins.is_weighted() != weights.is_some() {
            return Err(PcpmError::Snapshot(SnapshotError::Corrupt(
                "bin weight stream disagrees with weighted flag",
            )));
        }
        let n = graph.num_nodes();
        let weighted = weights.is_some();
        let pool = build_pool(cfg.threads)?;
        let backend = boxed_backend_from_state::<A>(png, bins, load, self.kernel);
        Ok(Engine {
            num_edges: Some(graph.num_edges()),
            partition_nodes: cfg.partition_nodes(),
            pool,
            recipe: Some(BuildRecipe {
                kind: BackendKind::Pcpm,
                cfg,
                scatter: ScatterKind::default(),
                gather: GatherKind::default(),
                weighted,
            }),
            source: Some(EngineSource { graph, weights }),
            snapshot_load: Some(load),
            ..Engine::from_backend(backend, n, n)
        })
    }
}

/// The `BinFormatKind` → format-type dispatch: evaluates `$body` with
/// `$F` naming the format type of `$kind` (Rust has no closure generic
/// over a type, so the one helper is a macro).
macro_rules! with_format {
    ($kind:expr, $F:ident => $body:expr) => {
        match $kind {
            BinFormatKind::Wide => {
                type $F = WideFormat;
                $body
            }
            BinFormatKind::Compact => {
                type $F = CompactFormat;
                $body
            }
            BinFormatKind::Delta => {
                type $F = DeltaFormat;
                $body
            }
        }
    };
}

/// Adopts deserialized PNG + bins into the statically-typed PCPM backend
/// of the snapshot's format; the update stream is scratch, allocated
/// fresh at `|E'|`.
fn boxed_backend_from_state<A: Algebra>(
    png: crate::png::Png,
    bins: BinState,
    load: Duration,
    kernel: KernelKind,
) -> Box<dyn Backend<A>> {
    let num_updates = png.num_compressed_edges() as usize;
    with_format!(bins.kind(), F => {
        let bins = F::import_state(bins, num_updates);
        Box::new(PcpmBackend {
            pipeline: FormatPipeline::<A, F>::from_loaded(png, bins, load, kernel),
            scatter: ScatterKind::Png,
            gather: GatherKind::BranchAvoiding,
            graph: None,
        })
    })
}

/// Builds the PCPM dataplane over a raw (possibly rectangular) edge view
/// in the configured bin format. `graph` is the adjacency the
/// CSR-traversal scatter reads.
pub(crate) fn boxed_pcpm_backend<A: Algebra>(
    view: EdgeView<'_>,
    cfg: &PcpmConfig,
    weights: Option<&[f32]>,
    scatter: ScatterKind,
    gather: GatherKind,
    graph: Option<Arc<Csr>>,
) -> Result<Box<dyn Backend<A>>, PcpmError> {
    Ok(with_format!(cfg.bin_format, F => Box::new(
        PcpmBackend::<A, F>::build(view, cfg, weights, scatter, gather, graph)?
    )))
}

// ---------------------------------------------------------------------------
// PCPM backend
// ---------------------------------------------------------------------------

/// The paper's partition-centric dataplane behind the [`Backend`] trait,
/// statically typed over the physical bin format `F` (the
/// [`EngineBuilder`] dispatches [`PcpmConfig::bin_format`] onto the
/// right instantiation).
pub struct PcpmBackend<A: Algebra, F: BinFormat = WideFormat> {
    pipeline: FormatPipeline<A, F>,
    scatter: ScatterKind,
    gather: GatherKind,
    /// Shared handle on the adjacency, kept only for the CSR-traversal
    /// scatter ablation (zero-copy when prepared from an `Arc`).
    graph: Option<Arc<Csr>>,
}

impl<A: Algebra, F: BinFormat> Backend<A> for PcpmBackend<A, F> {
    fn prepare(spec: &PrepareSpec<'_>) -> Result<Self, PcpmError> {
        Self::build(
            EdgeView::from_csr(spec.graph),
            &spec.cfg,
            spec.weights,
            spec.scatter,
            spec.gather,
            spec.scatter_graph(),
        )
    }

    fn step(&mut self, x: &[A::T], y: &mut [A::T]) -> Result<PhaseTimings, PcpmError> {
        Ok(self.round(&[x], &mut [y], None)?.0)
    }

    fn step_many(
        &mut self,
        xs: &[&[A::T]],
        ys: &mut [&mut [A::T]],
    ) -> Result<PhaseTimings, PcpmError> {
        // Neither ablation has a batched kernel; keep their sequential
        // semantics rather than silently change the measured code path.
        if self.is_ablation() {
            let mut total = PhaseTimings::default();
            for (x, y) in xs.iter().zip(ys.iter_mut()) {
                total += self.step(x, y)?;
            }
            return Ok(total);
        }
        Ok(self.round(xs, ys, None)?.0)
    }

    fn step_many_with(
        &mut self,
        xs: &[&[A::T]],
        ys: &mut [&mut [A::T]],
        epilogue: Epilogue<'_, A::T>,
    ) -> Result<(PhaseTimings, Vec<f64>), PcpmError> {
        if self.is_ablation() && xs.len() > 1 {
            return step_then_apply(self, xs, ys, epilogue);
        }
        self.round(xs, ys, Some(epilogue))
    }

    fn metrics(&self) -> BackendMetrics {
        BackendMetrics {
            name: "pcpm",
            preprocess: self.pipeline.preprocess_time(),
            aux_memory_bytes: self.pipeline.bin_memory_bytes(),
            compression_ratio: Some(self.pipeline.compression_ratio()),
            bin_format: Some(F::KIND.name()),
            bin_compression: Some(self.pipeline.bin_compression()),
            dest_stream_bytes: Some(self.pipeline.dest_stream_bytes()),
            kernel: Some(self.pipeline.kernel().name()),
        }
    }

    fn snapshot_state(&self) -> Option<DataplaneState> {
        Some(self.pipeline.export_state())
    }
}

impl<A: Algebra, F: BinFormat> PcpmBackend<A, F> {
    /// Builds the dataplane over a raw edge view (the rectangular SpMV
    /// front end has no `Csr`) with explicit phase variants.
    fn build(
        view: EdgeView<'_>,
        cfg: &PcpmConfig,
        weights: Option<&[f32]>,
        scatter: ScatterKind,
        gather: GatherKind,
        graph: Option<Arc<Csr>>,
    ) -> Result<Self, PcpmError> {
        cfg.validate()?;
        if F::KIND != BinFormatKind::Wide && gather == GatherKind::Branchy {
            return Err(PcpmError::BadConfig(BRANCHY_NEEDS_WIDE));
        }
        Ok(Self {
            pipeline: FormatPipeline::from_view(view, cfg, weights)?,
            scatter,
            gather,
            graph,
        })
    }

    /// Whether a phase runs its Algorithm 2 variant: one query per round.
    fn is_ablation(&self) -> bool {
        self.scatter == ScatterKind::CsrTraversal || self.gather == GatherKind::Branchy
    }

    /// One pipeline round with this backend's phase variants.
    fn round(
        &mut self,
        xs: &[&[A::T]],
        ys: &mut [&mut [A::T]],
        epilogue: Option<Epilogue<'_, A::T>>,
    ) -> Result<(PhaseTimings, Vec<f64>), PcpmError> {
        let (scatter, gather, graph) = (self.scatter, self.gather, self.graph.as_deref());
        self.pipeline
            .round(xs, ys, scatter, gather, graph, epilogue)
    }
}

// ---------------------------------------------------------------------------
// Pull backend
// ---------------------------------------------------------------------------

/// Pull-direction dataplane: each destination walks its in-neighbors in
/// the transpose (CSC). Fine-grained random reads of `x`, no auxiliary
/// message state — Algorithm 1's traversal (PDPR), generalized over the
/// algebra.
///
/// Parallelization matches §5.2: vertices are statically divided into
/// chunks balanced by *in-edge count* (the work driver). Each vertex is
/// accumulated sequentially by whichever chunk owns it, so the chunking
/// never changes a result bit.
pub struct PullBackend<A: Algebra> {
    /// The transpose: in-neighbor sources per destination.
    csc: Csr,
    /// Weights aligned with the transpose's edge order.
    weights: Option<Vec<f32>>,
    /// Chunk boundaries over vertices (length `chunks + 1`).
    bounds: Vec<u32>,
    preprocess: Duration,
    _algebra: std::marker::PhantomData<A>,
}

impl<A: Algebra> Backend<A> for PullBackend<A> {
    fn prepare(spec: &PrepareSpec<'_>) -> Result<Self, PcpmError> {
        let t0 = crate::telemetry::stopwatch();
        let g = spec.graph;
        let csc = g.transpose();
        // The transpose lists each destination's sources in CSR (source-
        // major) order, so replaying that order places every weight.
        let weights = spec.weights.map(|ew| {
            let mut w = vec![0.0f32; ew.len()];
            let mut cursor = csc.offsets().to_vec();
            for (&t, &wt) in g.targets().iter().zip(ew) {
                let c = &mut cursor[t as usize];
                w[*c as usize] = wt;
                *c += 1;
            }
            w
        });
        let bounds = balanced_bounds(&csc, rayon::current_num_threads() * 8);
        Ok(Self {
            csc,
            weights,
            bounds,
            preprocess: t0.elapsed(),
            _algebra: std::marker::PhantomData,
        })
    }

    fn step(&mut self, x: &[A::T], y: &mut [A::T]) -> Result<PhaseTimings, PcpmError> {
        let t0 = crate::telemetry::stopwatch();
        let offsets = self.csc.offsets();
        let srcs = self.csc.targets();
        let chunk_lens: Vec<usize> = self
            .bounds
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect();
        split_by_lens(y, &chunk_lens)
            .into_par_iter()
            .enumerate()
            .for_each(|(c, out)| {
                for (v, slot) in (self.bounds[c] as usize..).zip(out) {
                    let lo = offsets[v] as usize;
                    let hi = offsets[v + 1] as usize;
                    let mut acc = A::identity();
                    match &self.weights {
                        None => {
                            for &s in &srcs[lo..hi] {
                                acc = A::combine(acc, A::extend(x[s as usize]));
                            }
                        }
                        Some(w) => {
                            for (&s, &wt) in srcs[lo..hi].iter().zip(&w[lo..hi]) {
                                acc = A::combine(acc, A::extend_weighted(wt, x[s as usize]));
                            }
                        }
                    }
                    *slot = acc;
                }
            });
        Ok(PhaseTimings {
            scatter: Duration::ZERO,
            gather: t0.elapsed(),
            apply: Duration::ZERO,
        })
    }

    fn metrics(&self) -> BackendMetrics {
        BackendMetrics {
            name: "pull",
            preprocess: self.preprocess,
            aux_memory_bytes: self.csc.memory_bytes()
                + (self.bounds.len() * 4 + self.weights.as_ref().map_or(0, |w| w.len() * 4)) as u64,
            compression_ratio: None,
            bin_format: None,
            bin_compression: None,
            dest_stream_bytes: None,
            kernel: None,
        }
    }
}

/// Splits the vertices of `csr` into `chunks` contiguous ranges with
/// roughly equal edge counts — the static load balancing on traversed
/// edges of §5.2 (in-edges when handed the transpose, as the pull
/// traversal does; out-edges for a vertex-centric scatter). Returns the
/// `chunks + 1` boundaries.
pub fn balanced_bounds(csr: &Csr, chunks: usize) -> Vec<u32> {
    let n = csr.num_nodes();
    let m = csr.num_edges();
    let chunks = chunks.max(1) as u64;
    let mut bounds = Vec::with_capacity(chunks as usize + 1);
    let mut prev = 0u32;
    bounds.push(prev);
    let offsets = csr.offsets();
    for c in 1..chunks {
        let target = m * c / chunks;
        // First vertex whose offset reaches the target, at least past the
        // previous bound.
        prev = (offsets.partition_point(|&o| o < target) as u32).clamp(prev, n);
        bounds.push(prev);
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{MinLabel, MinPlusF32, PlusF32};
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};

    /// Exact integer-valued inputs: every backend must produce
    /// bit-identical f32 sums.
    fn int_x(n: u32) -> Vec<f32> {
        (0..n).map(|v| (v % 13) as f32).collect()
    }

    fn reference(g: &Csr, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; g.num_nodes() as usize];
        for (s, t) in g.edges() {
            y[t as usize] += x[s as usize];
        }
        y
    }

    #[test]
    fn all_backends_match_reference_unweighted() {
        let g = rmat(&RmatConfig::graph500(9, 8, 3)).unwrap();
        let x = int_x(g.num_nodes());
        let want = reference(&g, &x);
        for kind in BackendKind::ALL {
            let mut engine = Engine::<PlusF32>::builder(&g)
                .partition_bytes(64 * 4)
                .backend(kind)
                .build()
                .unwrap();
            let mut y = vec![0.0f32; g.num_nodes() as usize];
            engine.step(&x, &mut y).unwrap();
            assert_eq!(y, want, "backend {}", kind.name());
        }
    }

    #[test]
    fn all_backends_match_on_weighted_min_plus() {
        // Eighth-grain weights keep every sum exact in f32.
        let g = erdos_renyi(200, 1600, 7).unwrap();
        let w = EdgeWeights::new(
            &g,
            (0..g.num_edges())
                .map(|i| ((i % 8) + 1) as f32 / 8.0)
                .collect(),
        )
        .unwrap();
        let x: Vec<f32> = (0..200).map(|v| (v % 5) as f32).collect();
        let mut outputs = Vec::new();
        for kind in BackendKind::ALL {
            let mut engine = Engine::<MinPlusF32>::builder(&g)
                .partition_bytes(32 * 4)
                .weights(&w)
                .backend(kind)
                .build()
                .unwrap();
            let mut y = vec![0.0f32; 200];
            engine.step(&x, &mut y).unwrap();
            outputs.push(y);
        }
        for other in &outputs[1..] {
            assert_eq!(&outputs[0], other);
        }
    }

    #[test]
    fn integer_algebra_runs_on_every_backend() {
        let g = rmat(&RmatConfig::graph500(8, 6, 11)).unwrap();
        let x: Vec<u32> = (0..g.num_nodes()).collect();
        let mut outputs = Vec::new();
        for kind in BackendKind::ALL {
            let mut engine = Engine::<MinLabel>::builder(&g)
                .partition_bytes(64 * 4)
                .backend(kind)
                .build()
                .unwrap();
            let mut y = vec![0u32; g.num_nodes() as usize];
            engine.step(&x, &mut y).unwrap();
            outputs.push(y);
        }
        for other in &outputs[1..] {
            assert_eq!(&outputs[0], other);
        }
    }

    #[test]
    fn every_format_integer_algebra_matches_wide() {
        use crate::algebra::MinLevel;
        let g = rmat(&RmatConfig::graph500(9, 6, 23)).unwrap();
        let x: Vec<u32> = (0..g.num_nodes()).map(|v| v % 11).collect();
        let mut outputs = Vec::new();
        for format in BinFormatKind::ALL {
            let mut engine = Engine::<MinLevel>::builder(&g)
                .partition_bytes(128 * 4)
                .bin_format(format)
                .build()
                .unwrap();
            let mut y = vec![0u32; g.num_nodes() as usize];
            engine.step(&x, &mut y).unwrap();
            outputs.push(y);
        }
        assert_eq!(outputs[0], outputs[1], "compact");
        assert_eq!(outputs[0], outputs[2], "delta");
    }

    #[test]
    fn compact_and_csr_traversal_variants_agree() {
        let g = rmat(&RmatConfig::graph500(9, 8, 19)).unwrap();
        let x = int_x(g.num_nodes());
        let want = reference(&g, &x);
        let variants: Vec<Engine<PlusF32>> = vec![
            Engine::builder(&g)
                .partition_bytes(512 * 4)
                .bin_format(BinFormatKind::Compact)
                .build()
                .unwrap(),
            Engine::builder(&g)
                .partition_bytes(512 * 4)
                .scatter(ScatterKind::CsrTraversal)
                .build()
                .unwrap(),
            Engine::builder(&g)
                .partition_bytes(512 * 4)
                .gather(GatherKind::Branchy)
                .build()
                .unwrap(),
        ];
        for mut engine in variants {
            let mut y = vec![0.0f32; g.num_nodes() as usize];
            engine.step(&x, &mut y).unwrap();
            assert_eq!(y, want);
        }
    }

    #[test]
    fn build_time_rejection_of_bad_combinations() {
        let g = erdos_renyi(100, 400, 2).unwrap();
        // Compact + branchy gather: rejected at build, not at step.
        assert!(matches!(
            Engine::<PlusF32>::builder(&g)
                .partition_bytes(256)
                .bin_format(BinFormatKind::Compact)
                .gather(GatherKind::Branchy)
                .build(),
            Err(PcpmError::BadConfig(_))
        ));
        // Non-wide bin formats on a non-PCPM backend.
        assert!(Engine::<PlusF32>::builder(&g)
            .partition_bytes(256)
            .bin_format(BinFormatKind::Compact)
            .backend(BackendKind::Pull)
            .build()
            .is_err());
        assert!(Engine::<PlusF32>::builder(&g)
            .partition_bytes(256)
            .bin_format(BinFormatKind::Delta)
            .backend(BackendKind::Pull)
            .build()
            .is_err());
        // Branchy gather on a non-wide format.
        assert!(Engine::<PlusF32>::builder(&g)
            .partition_bytes(256)
            .bin_format(BinFormatKind::Delta)
            .gather(GatherKind::Branchy)
            .build()
            .is_err());
        // Ablation variants on a non-PCPM backend.
        assert!(Engine::<PlusF32>::builder(&g)
            .scatter(ScatterKind::CsrTraversal)
            .backend(BackendKind::Pull)
            .build()
            .is_err());
        // Oversized compact partitions (the default 256 KB holds 64 Ki
        // nodes > 2^15) still rejected by config validation; delta has
        // no partition-size restriction.
        assert!(Engine::<PlusF32>::builder(&g)
            .bin_format(BinFormatKind::Compact)
            .build()
            .is_err());
        assert!(Engine::<PlusF32>::builder(&g)
            .bin_format(BinFormatKind::Delta)
            .build()
            .is_ok());
    }

    #[test]
    fn built_engine_never_fails_on_variant_mismatch() {
        // Every successfully built engine must run every step without a
        // config error — the invariant the build-time validation buys.
        let g = erdos_renyi(150, 900, 4).unwrap();
        let x = int_x(150);
        for kind in BackendKind::ALL {
            let mut engine = Engine::<PlusF32>::builder(&g)
                .partition_bytes(128)
                .backend(kind)
                .build()
                .unwrap();
            let mut y = vec![0.0f32; 150];
            for _ in 0..3 {
                engine.step(&x, &mut y).unwrap();
            }
        }
    }

    #[test]
    fn report_accumulates_and_names_backend() {
        let g = erdos_renyi(100, 500, 9).unwrap();
        let mut engine = Engine::<PlusF32>::builder(&g)
            .partition_bytes(64 * 4)
            .build()
            .unwrap();
        let x = int_x(100);
        let mut y = vec![0.0f32; 100];
        for _ in 0..5 {
            engine.step(&x, &mut y).unwrap();
        }
        let report = engine.report();
        assert_eq!(report.backend, "pcpm");
        assert_eq!(report.steps, 5);
        assert!(report.compression_ratio.unwrap() >= 1.0);
        assert!(report.aux_memory_bytes > 0);
        assert_eq!(report.bin_format, Some("wide"));
        assert!((report.bin_compression.unwrap() - 1.0).abs() < 1e-12);
        let pull = Engine::<PlusF32>::builder(&g)
            .backend(BackendKind::Pull)
            .build()
            .unwrap();
        assert_eq!(pull.report().backend, "pull");
        assert!(pull.report().compression_ratio.is_none());
        assert!(pull.report().bin_format.is_none());
    }

    #[test]
    fn report_carries_per_format_compression() {
        let g = rmat(&RmatConfig::graph500(9, 8, 3)).unwrap();
        let mut ratios = Vec::new();
        for format in BinFormatKind::ALL {
            let engine = Engine::<PlusF32>::builder(&g)
                .partition_bytes(64 * 4)
                .bin_format(format)
                .build()
                .unwrap();
            let report = engine.report();
            assert_eq!(report.bin_format, Some(format.name()));
            ratios.push(report.bin_compression.unwrap());
        }
        assert!((ratios[0] - 1.0).abs() < 1e-12, "wide is the baseline");
        assert!((ratios[1] - 2.0).abs() < 1e-12, "compact halves dest IDs");
        assert!(ratios[2] > 2.0, "delta beats compact, got {}", ratios[2]);
    }

    #[test]
    fn step_validates_dimensions() {
        let g = erdos_renyi(10, 30, 1).unwrap();
        let mut engine = Engine::<PlusF32>::builder(&g).build().unwrap();
        let mut y = vec![0.0f32; 10];
        assert!(matches!(
            engine.step(&[0.0; 3], &mut y),
            Err(PcpmError::DimensionMismatch {
                expected: 10,
                got: 3
            })
        ));
        let x = vec![0.0f32; 10];
        let mut y_bad = vec![0.0f32; 2];
        assert!(engine.step(&x, &mut y_bad).is_err());
    }

    /// Splits a graph edit into (new graph, batch): deletes the first
    /// edge of every source in `del_sources`, inserts `inserts`.
    fn edit(g: &Csr, del_sources: &[u32], inserts: &[(u32, u32)]) -> (Arc<Csr>, UpdateBatch) {
        let mut deletes = Vec::new();
        for &s in del_sources {
            if let Some(&t) = g.neighbors(s).first() {
                deletes.push((s, t));
            }
        }
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        edges.retain(|e| !deletes.contains(e));
        edges.extend_from_slice(inserts);
        edges.sort_unstable();
        edges.dedup();
        let g2 = Csr::from_edges(g.num_nodes(), &edges).unwrap();
        (
            Arc::new(g2),
            UpdateBatch::from_parts(inserts.to_vec(), deletes),
        )
    }

    /// Eighth-grain weights, a pure function of the endpoints: every sum
    /// stays exact in f32.
    fn weights_of(g: &Csr) -> Vec<f32> {
        g.edges()
            .map(|(s, t)| (((s + t) % 8) + 1) as f32 / 8.0)
            .collect()
    }

    fn step_of(engine: &mut Engine<PlusF32>, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; x.len()];
        engine.step(x, &mut y).unwrap();
        y
    }

    #[test]
    fn update_equals_a_fresh_build() {
        let g = Arc::new(rmat(&RmatConfig::graph500(9, 8, 55)).unwrap());
        let (g2, batch) = edit(&g, &[1, 2, 70], &[(3, 400), (65, 9)]);
        let (w, w2) = (weights_of(&g), weights_of(&g2));
        let (we, we2) = (
            EdgeWeights::new(&g, w).unwrap(),
            EdgeWeights::new(&g2, w2.clone()).unwrap(),
        );
        let x = int_x(g.num_nodes());
        let mut variants = vec![(BackendKind::Pull, BinFormatKind::Wide, ScatterKind::Png)];
        for format in BinFormatKind::ALL {
            for scatter in [ScatterKind::Png, ScatterKind::CsrTraversal] {
                variants.push((BackendKind::Pcpm, format, scatter));
            }
        }
        for (kind, format, scatter) in variants {
            for weighted in [false, true] {
                let build = |graph: &Arc<Csr>, w: &EdgeWeights| {
                    let b = Engine::<PlusF32>::builder_shared(graph)
                        .partition_bytes(64 * 4)
                        .backend(kind)
                        .bin_format(format)
                        .scatter(scatter);
                    let b = if weighted { b.weights(w) } else { b };
                    b.build().unwrap()
                };
                let mut engine = build(&g, &we);
                let new_w = weighted.then_some(&w2[..]);
                let outcome = engine.update(&g2, new_w, &batch).unwrap();
                let case = format!("{} {format} {scatter:?} weighted={weighted}", kind.name());
                assert_eq!(outcome, UpdateOutcome::Rebuilt, "{case}");
                let fresh = step_of(&mut build(&g2, &we2), &x);
                assert_eq!(step_of(&mut engine, &x), fresh, "{case}");
            }
        }
        // A snapshot-loaded engine rebuilds from the recipe its snapshot
        // recorded.
        for format in BinFormatKind::ALL {
            let build = |graph: &Arc<Csr>| {
                Engine::<PlusF32>::builder_shared(graph)
                    .partition_bytes(64 * 4)
                    .bin_format(format)
                    .build()
                    .unwrap()
            };
            let snapshot = build(&g).snapshot().unwrap();
            let mut loaded =
                SnapshotEngineBuilder::<PlusF32>::from_snapshot(snapshot, Duration::ZERO)
                    .build()
                    .unwrap();
            let outcome = loaded.update(&g2, None, &batch).unwrap();
            assert_eq!(outcome, UpdateOutcome::Rebuilt, "loaded {format}");
            let fresh = step_of(&mut build(&g2), &x);
            assert_eq!(step_of(&mut loaded, &x), fresh, "loaded {format}");
        }
    }

    #[test]
    fn the_derived_layout_outlives_updates_and_pools() {
        // 20 000 nodes under a 64 KB budget: one thread keeps q = 16 384
        // (k = 2), two halve it to 4 096 (k = 5).
        let g = Arc::new(erdos_renyi(20_000, 80_000, 31).unwrap());
        let (g2, batch) = edit(&g, &[1, 2], &[(3, 19_999)]);
        let build = |graph: &Arc<Csr>, threads| {
            Engine::<PlusF32>::builder_shared(graph)
                .partition_bytes(64 * 1024)
                .threads(threads)
                .build()
                .unwrap()
        };
        assert_eq!(build(&g, 1).partition_nodes(), 16_384);
        for kind in BackendKind::ALL {
            let engine = Engine::<PlusF32>::builder(&g)
                .partition_bytes(64 * 1024)
                .backend(kind)
                .threads(2)
                .build()
                .unwrap();
            assert_eq!(engine.report().partitions, 5, "{}", kind.name());
        }
        let mut engine = build(&g, 2).with_threads(Some(1)).unwrap();
        assert_eq!(engine.partition_nodes(), 4_096);
        engine.update(&g2, None, &batch).unwrap();
        assert_eq!(engine.partition_nodes(), 4_096);
        assert_eq!(engine.report().partitions, 5);
        assert_eq!(engine.snapshot().unwrap().partition_bytes(), 4_096 * 4);
        let x = int_x(g.num_nodes());
        assert_eq!(step_of(&mut engine, &x), step_of(&mut build(&g2, 2), &x));
    }

    #[test]
    fn update_takes_new_weights_on_untouched_edges() {
        // The batch touches source partition 0 only; the new weights
        // also change the last edge, whose source partition it leaves
        // alone.
        let g = Arc::new(rmat(&RmatConfig::graph500(9, 8, 55)).unwrap());
        let (g2, batch) = edit(&g, &[1], &[(3, 400)]);
        let q = 64;
        assert_eq!(batch.touched_src_partitions(q), vec![0]);
        assert!(g2.edges().last().unwrap().0 >= q);
        let we = EdgeWeights::new(&g, weights_of(&g)).unwrap();
        let mut w2 = weights_of(&g2);
        *w2.last_mut().unwrap() += 1.0;
        let we2 = EdgeWeights::new(&g2, w2.clone()).unwrap();
        let x = vec![1.0f32; g.num_nodes() as usize];
        for format in [BinFormatKind::Wide, BinFormatKind::Delta] {
            let build = |graph: &Arc<Csr>, w: &EdgeWeights| {
                Engine::<PlusF32>::builder(graph)
                    .partition_bytes(q as usize * 4)
                    .bin_format(format)
                    .weights(w)
                    .build()
                    .unwrap()
            };
            let mut engine = build(&g, &we);
            engine.update(&g2, Some(&w2), &batch).unwrap();
            let fresh = step_of(&mut build(&g2, &we2), &x);
            assert_eq!(step_of(&mut engine, &x), fresh, "{format}");
        }
    }

    #[test]
    fn after_an_update_the_report_describes_the_rebuild() {
        let g = Arc::new(erdos_renyi(300, 2400, 17).unwrap());
        let (g2, batch) = edit(&g, &[5], &[(7, 200)]);
        let pcpm = || {
            Engine::<PlusF32>::builder_shared(&g)
                .partition_bytes(64 * 4)
                .build()
                .unwrap()
        };
        // An hour of "load": the rebuild must replace it, not add to it.
        let load = Duration::from_secs(3600);
        let loaded =
            SnapshotEngineBuilder::<PlusF32>::from_snapshot(pcpm().snapshot().unwrap(), load)
                .build()
                .unwrap();
        assert_eq!(loaded.report().snapshot_load, Some(load));
        let pull = Engine::<PlusF32>::builder(&g)
            .backend(BackendKind::Pull)
            .build()
            .unwrap();
        for (case, mut engine) in [("pcpm", pcpm()), ("loaded", loaded), ("pull", pull)] {
            let t0 = crate::telemetry::stopwatch();
            engine.update(&g2, None, &batch).unwrap();
            let took = t0.elapsed();
            let r = engine.report();
            assert!(!r.loaded_from_snapshot, "{case}");
            assert_eq!(r.snapshot_load, None, "{case}");
            assert!(
                r.preprocess <= took,
                "{case}: {:?} > {took:?}",
                r.preprocess
            );
        }
    }

    #[test]
    fn a_failed_rebuild_leaves_typed_errors_not_freed_bins() {
        let g = Arc::new(erdos_renyi(100, 500, 3).unwrap());
        let (g2, batch) = edit(&g, &[4], &[(9, 90)]);
        let mut engine = Engine::<PlusF32>::builder_shared(&g)
            .partition_bytes(64 * 4)
            .build()
            .unwrap();
        // A recipe the build rejects, so the prepare after the release
        // fails.
        let good = engine.recipe.unwrap();
        let cfg = good.cfg.with_partition_bytes(0);
        engine.recipe = Some(BuildRecipe { cfg, ..good });
        assert_eq!(
            engine.update(&g2, None, &batch),
            Err(PcpmError::PartitionTooSmall)
        );
        let x = int_x(100);
        let mut y = vec![0.0f32; 100];
        let released = Err(PcpmError::BadConfig(RELEASED));
        assert_eq!(engine.step(&x, &mut y).map(|_| ()), released);
        let mut y2 = y.clone();
        let batched = engine.step_many(&[&x[..], &x[..]], &mut [&mut y[..], &mut y2[..]]);
        assert_eq!(batched.map(|_| ()), released);
        assert!(engine.snapshot().is_err());
        assert_eq!(engine.report().backend, "released");
        // The next update that builds brings it back.
        engine.recipe = Some(good);
        assert_eq!(engine.update(&g2, None, &batch), Ok(UpdateOutcome::Rebuilt));
        engine.step(&x, &mut y).unwrap();
        assert_eq!(y, reference(&g2, &x));
    }

    #[test]
    fn update_rejects_out_of_range_batch() {
        let g = Arc::new(erdos_renyi(50, 200, 8).unwrap());
        let mut engine = Engine::<PlusF32>::builder(&g).build().unwrap();
        let batch = UpdateBatch::from_parts(vec![(0, 99)], vec![]);
        assert!(matches!(
            engine.update(&g, None, &batch),
            Err(PcpmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn external_backend_cannot_be_rebuilt_through_update() {
        // Wrapped by `from_backend`, even a PCPM backend has no build
        // recipe; the refused update leaves it serving.
        let g = Arc::new(erdos_renyi(40, 160, 5).unwrap());
        let spec = PrepareSpec {
            graph: &g,
            shared: Some(&g),
            weights: None,
            cfg: PcpmConfig::default().with_partition_bytes(16 * 4),
            scatter: ScatterKind::default(),
            gather: GatherKind::default(),
        };
        let backends: [Box<dyn Backend<PlusF32>>; 2] = [
            Box::new(PullBackend::prepare(&spec).unwrap()),
            Box::new(PcpmBackend::<PlusF32>::prepare(&spec).unwrap()),
        ];
        let (g2, batch) = edit(&g, &[], &[(0, 1)]);
        let x = int_x(40);
        for backend in backends {
            let mut engine = Engine::from_backend(backend, 40, 40);
            assert!(matches!(
                engine.update(&g2, None, &batch),
                Err(PcpmError::BadConfig(_))
            ));
            assert_eq!(step_of(&mut engine, &x), reference(&g, &x));
        }
    }

    #[test]
    fn builder_shared_makes_retaining_backends_zero_copy() {
        let g = Arc::new(erdos_renyi(100, 500, 3).unwrap());
        let base = Arc::strong_count(&g);
        let ablation = Engine::<PlusF32>::builder_shared(&g)
            .partition_bytes(64 * 4)
            .scatter(ScatterKind::CsrTraversal)
            .build()
            .unwrap();
        // The CSR-traversal backend AND the engine's retained snapshot
        // source hold the SAME allocation, not deep copies.
        assert_eq!(Arc::strong_count(&g), base + 2);
        drop(ablation);
        assert_eq!(Arc::strong_count(&g), base);
    }

    #[test]
    fn update_rejects_weightedness_change_and_short_weights() {
        let g = erdos_renyi(60, 300, 13).unwrap();
        let w = EdgeWeights::ones(&g);
        let (g2, batch) = edit(&g, &[2], &[(1, 50)]);
        // Weighted engine, no weights passed: refuse instead of silently
        // rebuilding unweighted.
        let mut weighted = Engine::<PlusF32>::builder(&g)
            .partition_bytes(64 * 4)
            .weights(&w)
            .build()
            .unwrap();
        assert!(matches!(
            weighted.update(&g2, None, &batch),
            Err(PcpmError::BadConfig(_))
        ));
        // Unweighted engine, weights passed: same refusal.
        let w2 = vec![1.0f32; g2.num_edges() as usize];
        let mut unweighted = Engine::<PlusF32>::builder(&g)
            .partition_bytes(64 * 4)
            .build()
            .unwrap();
        assert!(matches!(
            unweighted.update(&g2, Some(&w2), &batch),
            Err(PcpmError::BadConfig(_))
        ));
        // Weighted engine, stale-length weights: dimension error, not a
        // panic inside the parallel fill.
        let stale = vec![1.0f32; g.num_edges() as usize - 1];
        assert!(matches!(
            weighted.update(&g2, Some(&stale), &batch),
            Err(PcpmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_batch_update_is_a_cheap_noop() {
        let g = Arc::new(erdos_renyi(80, 400, 6).unwrap());
        for kind in BackendKind::ALL {
            let mut engine = Engine::<PlusF32>::builder(&g)
                .partition_bytes(64 * 4)
                .backend(kind)
                .build()
                .unwrap();
            let outcome = engine.update(&g, None, &UpdateBatch::default()).unwrap();
            assert!(
                matches!(
                    outcome,
                    UpdateOutcome::Repaired(RepairStats {
                        partitions_rebuilt: 0,
                        ..
                    })
                ),
                "backend {}",
                kind.name()
            );
        }
    }

    #[test]
    fn empty_graph_on_every_backend() {
        let g = Csr::from_edges(0, &[]).unwrap();
        for kind in BackendKind::ALL {
            let mut engine = Engine::<PlusF32>::builder(&g)
                .backend(kind)
                .build()
                .unwrap();
            let mut y: Vec<f32> = vec![];
            engine.step(&[], &mut y).unwrap();
        }
    }

    #[test]
    fn pull_chunk_count_does_not_change_result() {
        let g = erdos_renyi(500, 4000, 9).unwrap();
        let spec = PrepareSpec {
            graph: &g,
            shared: None,
            weights: None,
            cfg: PcpmConfig::default(),
            scatter: ScatterKind::default(),
            gather: GatherKind::default(),
        };
        // Real-valued input: any change of accumulation order would show.
        let x: Vec<f32> = (0..500).map(|v| 1.0 / (v + 3) as f32).collect();
        let outputs = [1usize, 64].map(|chunks| {
            let mut pull = PullBackend::<PlusF32>::prepare(&spec).unwrap();
            pull.bounds = balanced_bounds(&pull.csc, chunks);
            let mut y = vec![0.0f32; 500];
            pull.step(&x, &mut y).unwrap();
            y
        });
        // Pull accumulation per vertex is sequential within the vertex, so
        // chunking cannot change the result at all.
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn balanced_bounds_cover_and_balance() {
        let g = rmat(&RmatConfig::graph500(10, 8, 3)).unwrap();
        let csc = g.transpose();
        let bounds = balanced_bounds(&csc, 8);
        assert_eq!(bounds[0], 0);
        assert_eq!(*bounds.last().unwrap(), g.num_nodes());
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        // Each chunk's edge load should be within 2x of the ideal share.
        let offsets = csc.offsets();
        let ideal = g.num_edges() as f64 / 8.0;
        for w in bounds.windows(2) {
            let load = (offsets[w[1] as usize] - offsets[w[0] as usize]) as f64;
            assert!(
                load < ideal * 2.0 + 1000.0,
                "chunk load {load} vs ideal {ideal}"
            );
        }
    }
}
