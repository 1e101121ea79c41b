//! [`EngineBuilder`] and [`SnapshotEngineBuilder`]: validation and dispatch.

use super::engine::{build_pool, BuildRecipe, EngineSource};
use super::{
    Backend, BackendKind, Engine, GatherKind, PcpmBackend, PrepareSpec, PullBackend, ScatterKind,
};
use crate::algebra::Algebra;
use crate::config::PcpmConfig;
use crate::error::{PcpmError, SnapshotError};
use crate::format::{BinFormat, BinFormatKind, CompactFormat, DeltaFormat, WideFormat};
use crate::kernel::KernelKind;
use crate::png::EdgeView;
use crate::snapshot::Snapshot;
use pcpm_graph::{Csr, EdgeWeights};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

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
pub(super) fn prepare_builtin<A: Algebra>(
    kind: BackendKind,
    spec: &PrepareSpec<'_>,
) -> Result<Box<dyn Backend<A>>, PcpmError> {
    Ok(match kind {
        BackendKind::Pcpm => {
            with_format!(spec.cfg.bin_format, F => Box::new(PcpmBackend::<A, F>::prepare(spec)?))
        }
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
        Ok(Self::from_snapshot(snapshot, t0.elapsed()))
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
        // The PNG and bins are adopted as-is; the update stream is
        // scratch, allocated fresh at `|E'|`.
        let num_updates = png.num_compressed_edges() as usize;
        let (scatter, gather) = (ScatterKind::default(), GatherKind::default());
        let backend: Box<dyn Backend<A>> = with_format!(bins.kind(), F => {
            let bins = F::import_state(bins, num_updates);
            Box::new(PcpmBackend::<A, F>::new(png, bins, load, cfg.kernel, scatter, gather, None))
        });
        Ok(Engine {
            num_edges: Some(graph.num_edges()),
            partition_nodes: cfg.partition_nodes(),
            pool,
            recipe: Some(BuildRecipe {
                kind: BackendKind::Pcpm,
                cfg,
                scatter,
                gather,
                weighted,
            }),
            source: Some(EngineSource { graph, weights }),
            snapshot_load: Some(load),
            ..Engine::from_backend(backend, n, n)
        })
    }
}

/// Builds the PCPM dataplane, with the paper's scatter and gather, over
/// a raw (possibly rectangular) edge view in the configured bin format.
pub(crate) fn boxed_pcpm_backend<A: Algebra>(
    view: EdgeView<'_>,
    cfg: &PcpmConfig,
    weights: Option<&[f32]>,
) -> Result<Box<dyn Backend<A>>, PcpmError> {
    let (scatter, gather) = (ScatterKind::default(), GatherKind::default());
    Ok(with_format!(cfg.bin_format, F => Box::new(
        PcpmBackend::<A, F>::build(view, cfg, weights, scatter, gather, None)?
    )))
}
