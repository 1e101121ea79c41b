//! [`Engine`]: the dimension checks, pool, accounting, updates and snapshots.

use super::builder::prepare_builtin;
use super::{
    Backend, BackendKind, BackendMetrics, ExecutionReport, GatherKind, PrepareSpec, Released,
    ScatterKind, SnapshotEngineBuilder,
};
use crate::algebra::{Algebra, PlusF32};
use crate::config::PcpmConfig;
use crate::error::{PcpmError, SnapshotError};
use crate::gather::{apply_parts, apply_share, ApplyFn, Epilogue};
use crate::partition::Partitioner;
use crate::pr::PhaseTimings;
use crate::snapshot::Snapshot;
use crate::update::{RepairStats, UpdateBatch, UpdateOutcome};
use pcpm_graph::Csr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// The unified execution engine: dimension checks, timing accounting and
/// a uniform report over any [`Backend`].
pub struct Engine<A: Algebra> {
    pub(super) backend: Box<dyn Backend<A>>,
    pub(super) num_src: u32,
    pub(super) num_dst: u32,
    /// Edges of the graph the dataplane was prepared over; `None` for an
    /// external backend, whose edges the engine never saw.
    pub(super) num_edges: Option<u64>,
    /// Partition size `q`: the destination ranges of an epilogue. Fixed
    /// at build: neither an update nor a new pool changes it.
    pub(super) partition_nodes: u32,
    /// Engine-owned thread pool, built once when `PcpmConfig::threads`
    /// is set; preprocessing and every step install into it.
    pub(super) pool: Option<Arc<rayon::ThreadPool>>,
    pub(super) steps: usize,
    /// Pushed rounds and the edges they pushed (report bookkeeping).
    pub(super) sparse_rounds: usize,
    pub(super) pushed_edges: u64,
    pub(super) timings: PhaseTimings,
    /// Multi-query passes and the query vectors they carried
    /// ([`Engine::step_many`] bookkeeping for the report).
    pub(super) batch_passes: usize,
    pub(super) batch_queries: usize,
    /// The build recipe, kept so [`Engine::update`] can re-`prepare` the
    /// dataplane. `None` for engines wrapping an external backend
    /// ([`Engine::from_backend`]), which the engine does not know how to
    /// rebuild.
    pub(super) recipe: Option<BuildRecipe>,
    /// The graph (and weights) the engine was prepared over, retained
    /// for [`Engine::save_snapshot`]. Always zero-copy: populated only
    /// when a shared handle exists — [`Engine::builder_shared`], a
    /// snapshot load, or any [`Engine::update`] (which receives an
    /// `Arc`). Engines built from a borrowed graph retain nothing
    /// rather than silently deep-copying it. `None` for externally
    /// prepared backends.
    pub(super) source: Option<EngineSource>,
    /// Snapshot load wall-clock when the engine was rehydrated through
    /// [`Engine::from_snapshot`] instead of `prepare` (cleared by the
    /// rebuild of an [`Engine::update`]).
    pub(super) snapshot_load: Option<Duration>,
    /// `rayon::diagnostics` (workers_spawned, jobs_dispatched) at
    /// construction; [`Engine::report`] subtracts it so pool behaviour
    /// shows up in the same report as kernel timings.
    pub(super) diag_base: (u64, u64),
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
pub(super) struct EngineSource {
    pub(super) graph: Arc<Csr>,
    /// CSR-order edge weights, when the engine is weighted.
    pub(super) weights: Option<Arc<Vec<f32>>>,
}

/// Everything needed to re-run `prepare` for a built-in backend.
#[derive(Clone, Copy, Debug)]
pub(super) struct BuildRecipe {
    pub(super) kind: BackendKind,
    /// The configuration with the partition size derived at build in
    /// place of the budget, so a rebuild keeps the layout.
    pub(super) cfg: PcpmConfig,
    pub(super) scatter: ScatterKind,
    pub(super) gather: GatherKind,
    /// Whether the engine was prepared with edge weights — updates must
    /// keep the same weightedness.
    pub(super) weighted: bool,
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
pub(super) fn build_pool(
    threads: Option<usize>,
) -> Result<Option<Arc<rayon::ThreadPool>>, PcpmError> {
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
        // The backend says how many scans a batch takes: `⌈Q / 8⌉` on the
        // batched dataplane, `Q` where each query is a round of its own.
        let passes = queries.map_or(1, |q| self.backend.scans(q));
        let backend = &mut *self.backend;
        let (t, out) = match &self.pool {
            Some(pool) => pool.install(|| run(backend))?,
            None => run(backend)?,
        };
        if let Some(jobs0) = jobs0 {
            tm.add_pool_jobs_dispatched((rayon::diagnostics::jobs_dispatched() - jobs0) as u64);
        }
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
    /// `⌈Q / 8⌉` scans. Neither ablation has a batched kernel: there
    /// every pass carries one query. Other backends loop over
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
    /// batch wider than eight runs as passes of at most eight queries
    /// (of one on an ablation), so there `apply` sees each range once
    /// per pass, for that pass's queries
    /// ([`Finished::queries`](crate::Finished::queries) names their
    /// positions in the batch). Elsewhere it is a pass of its own
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
    /// The engine drops its handle on the old layout before the
    /// replacement is prepared, so the two are resident together only
    /// while something else still shares the old one: a [`Snapshot`]
    /// taken from this engine, or an engine rehydrated from one (a
    /// serving epoch that readers still answer from). Should that preparation
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
            weights: weights.map(|w| Arc::new(w.to_vec())),
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
    /// weights, PNG layout, bins), sharing all of them with the engine:
    /// nothing is copied. Requires a PCPM dataplane and a
    /// retained graph — engines wrapping external backends return
    /// [`SnapshotError::Unsupported`].
    pub fn snapshot(&self) -> Result<Snapshot, PcpmError> {
        let layout = self.backend.snapshot_state().ok_or(PcpmError::Snapshot(
            SnapshotError::Unsupported("only the PCPM dataplane can be snapshotted"),
        ))?;
        let source =
            self.source
                .as_ref()
                .ok_or(PcpmError::Snapshot(SnapshotError::Unsupported(
                    "the engine does not retain its graph; build through \
                 Engine::builder_shared (or update/load it) to enable snapshotting",
                )))?;
        let partition_bytes = u64::from(layout.png().src_parts().partition_size())
            * crate::config::VALUE_BYTES as u64;
        Ok(Snapshot {
            graph: Arc::clone(&source.graph),
            weights: source.weights.clone(),
            partition_bytes,
            layout,
        })
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
    /// [`EngineBuilder::from_snapshot`](super::EngineBuilder::from_snapshot)
    /// + `build`.
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
