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

use crate::algebra::Algebra;
use crate::config::PcpmConfig;
use crate::error::PcpmError;
use crate::gather::{apply_parts, Epilogue};
use crate::pr::PhaseTimings;
use crate::snapshot::DataplaneState;
use pcpm_graph::Csr;
use std::sync::Arc;
use std::time::Duration;

mod builder;
mod engine;
mod pcpm;
mod pull;
#[cfg(test)]
mod tests;

pub(crate) use builder::boxed_pcpm_backend;
pub use builder::{EngineBuilder, SnapshotEngineBuilder};
pub use engine::Engine;
pub use pcpm::{GatherKind, PcpmBackend, ScatterKind};
pub use pull::{balanced_bounds, PullBackend};

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
}

/// Static facts a backend reports about its prepared state. The
/// default is a nameless backend with no state: zero bytes, no layout.
#[derive(Clone, Debug, Default)]
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
        let mut timings = self.step_many(xs, ys)?;
        let t0 = crate::telemetry::stopwatch();
        let lens = epilogue.lens;
        let (totals, _) = apply_parts(lens, ys, Some(epilogue), |_, ys_p| ys_p);
        timings.apply += t0.elapsed();
        Ok((timings, totals))
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
            ..BackendMetrics::default()
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
