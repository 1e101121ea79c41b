//! # PCPM — Partition-Centric Processing for PageRank and SpMV
//!
//! A complete Rust reproduction of *"Accelerating PageRank using
//! Partition-Centric Processing"* (Lakhotia, Kannan, Prasanna — USENIX ATC
//! 2018), packaged as one umbrella crate re-exporting the workspace:
//!
//! - [`graph`] — CSR graphs, generators, orderings, I/O (`pcpm-graph`);
//! - [`core`] — partitions, the PNG layout, scatter/gather, and the
//!   unified [`Engine`](core::Engine)/[`Backend`](core::Backend)
//!   execution API (`pcpm-core`);
//! - [`algos`] — PageRank variants, BFS, SSSP, components, Katz, HITS —
//!   all running on any backend (`pcpm-algos`);
//! - [`stream`] — the streaming layer: batched edge updates, the
//!   one-pass CSR [`merge`](stream::merge), the engine rebuild of
//!   [`Engine::update`](core::Engine::update) and a replay that refreshes
//!   the ranks by a warm-started solve (`pcpm-stream`);
//! - [`baselines`] — the paper's two comparison kernels, PDPR (pull) and
//!   BVGAS, as engine backends, plus the serial oracle
//!   (`pcpm-baselines`);
//! - [`memsim`] — the cache simulator, traffic replays and analytical
//!   models (`pcpm-memsim`);
//! - [`serve`] — the long-lived query dataplane: `.pcpmc` snapshots
//!   served over TCP with a worker pool, epoch-tagged answers and
//!   RCU-style engine swaps on update (`pcpm-serve`);
//! - [`lint`] — the workspace-native static-analysis pass (`pcpm lint`)
//!   enforcing the determinism, unsafe-budget, serve-panic-freedom and
//!   telemetry-registry contracts (`pcpm-lint`).
//!
//! # Quick start
//!
//! ```
//! use pcpm::prelude::*;
//!
//! // Build a small social-network-like graph.
//! let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(10, 8, 42)).unwrap();
//!
//! // Run partition-centric PageRank.
//! let cfg = PcpmConfig::default().with_iterations(10);
//! let result = pagerank(&g, &cfg).unwrap();
//!
//! // The engine reports its PNG compression ratio alongside the scores.
//! assert!(result.compression_ratio.unwrap() >= 1.0);
//! assert_eq!(result.scores.len() as u32, g.num_nodes());
//! ```
//!
//! # The builder API
//!
//! Every execution goes through one algebra-generic engine; the backend,
//! bin encoding and phase variants are chosen (and validated) at build
//! time:
//!
//! ```
//! use pcpm::prelude::*;
//! use pcpm::core::algebra::PlusF32;
//!
//! let g = pcpm::graph::gen::erdos_renyi(1000, 8000, 7).unwrap();
//! let w = EdgeWeights::random(&g, 3);
//! let mut engine = Engine::<PlusF32>::builder(&g)
//!     .partition_bytes(16 * 1024)
//!     .weights(&w)
//!     .bin_format(BinFormatKind::Compact)
//!     .scatter(ScatterKind::Png)
//!     .gather(GatherKind::BranchAvoiding)
//!     .build()
//!     .unwrap();
//! let x = vec![1.0f32; 1000];
//! let mut y = vec![0.0f32; 1000];
//! engine.step(&x, &mut y).unwrap();
//!
//! // Same computation on a baseline dataplane: swap the backend.
//! let mut pull = Engine::<PlusF32>::builder(&g)
//!     .weights(&w)
//!     .backend(BackendKind::Pull)
//!     .build()
//!     .unwrap();
//! let mut y2 = vec![0.0f32; 1000];
//! pull.step(&x, &mut y2).unwrap();
//! for (a, b) in y.iter().zip(&y2) {
//!     assert!((a - b).abs() <= 1e-4 * a.abs().max(1.0));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pcpm_algos as algos;
pub use pcpm_baselines as baselines;
pub use pcpm_core as core;
pub use pcpm_graph as graph;
pub use pcpm_lint as lint;
pub use pcpm_memsim as memsim;
pub use pcpm_serve as serve;
pub use pcpm_stream as stream;

/// Commonly used items for `use pcpm::prelude::*`.
pub mod prelude {
    pub use pcpm_algos::{
        bfs_levels, bfs_levels_on, bfs_levels_with_engine, connected_components,
        connected_components_on, personalized_pagerank, personalized_pagerank_many,
        personalized_pagerank_many_with_unified_engine, personalized_pagerank_on,
        personalized_pagerank_with_unified_engine, propagation_engine, run_to_fixpoint, sssp,
        sssp_on, sssp_with_engine, weighted_pagerank, weighted_pagerank_on,
        weighted_pagerank_with_unified_engine,
    };
    pub use pcpm_baselines::{bvgas, pdpr, serial_pagerank};
    pub use pcpm_core::pagerank::{pagerank, pagerank_on, pagerank_with_variant};
    pub use pcpm_core::spmv::SpmvMatrix;
    pub use pcpm_core::{
        Backend, BackendKind, BinFormatKind, Engine, EngineBuilder, ExecutionReport, GatherKind,
        KernelKind, Partitioner, PcpmConfig, Png, PrResult, ScatterKind, Snapshot,
        SnapshotEngineBuilder, SnapshotError,
    };
    pub use pcpm_core::{EdgeOp, EdgeUpdate, RepairStats, UpdateBatch, UpdateOutcome};
    pub use pcpm_graph::gen::{RmatConfig, WebConfig};
    pub use pcpm_graph::{Csr, EdgeWeights, GraphBuilder};
    pub use pcpm_serve::{Client, EngineSpec, QueryParams, Server, ServerConfig};
    pub use pcpm_stream::{
        gen_updates, read_updates_auto, replay, write_updates_binary, DeltaGraph, ReplayConfig,
        UpdateGenConfig, UpdateLog,
    };
}
