//! Partition-Centric Processing Methodology (PCPM).
//!
//! This crate implements the paper's primary contribution: a
//! partition-centric Gather-Apply-Scatter engine for PageRank and generic
//! SpMV that
//!
//! 1. propagates **one update per (source node, destination partition)**
//!    pair instead of one per edge (§3.2),
//! 2. stores messages in statically pre-allocated, per-partition **bins**
//!    whose disjoint write offsets make both phases lock-free (§3.1),
//! 3. uses the **PNG** (Partition-Node bipartite Graph) data layout to
//!    stream updates one bin at a time with no unused-edge reads and no
//!    random DRAM writes (§3.3),
//! 4. replaces the data-dependent MSB branch in the gather phase with
//!    **branch-avoiding** pointer arithmetic (§3.4).
//!
//! The main entry point is the unified [`backend::Engine`], built via
//! [`Engine::builder`](backend::Engine::builder): one algebra-generic
//! execution API in front of pluggable [`backend::Backend`] dataplanes
//! (the PCPM pipeline plus the pull baseline).
//! [`pagerank::pagerank`] is the PageRank driver on top of it, and
//! [`spmv::SpmvMatrix`] is the weighted / non-square generalisation of
//! §3.5.
//!
//! # Examples
//!
//! Run one scatter→gather round through the builder API:
//!
//! ```
//! use pcpm_graph::Csr;
//! use pcpm_core::{Engine, BackendKind};
//! use pcpm_core::algebra::PlusF32;
//!
//! let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 0)]).unwrap();
//! let mut engine = Engine::<PlusF32>::builder(&g)
//!     .partition_bytes(8)
//!     .backend(BackendKind::Pcpm)
//!     .build()
//!     .unwrap();
//! let mut y = vec![0.0f32; 4];
//! engine.step(&[1.0, 1.0, 1.0, 1.0], &mut y).unwrap();
//! assert_eq!(y, vec![2.0, 1.0, 1.0, 0.0]);
//! ```
//!
//! The PageRank driver threads the same engine, reporting the PNG
//! compression ratio alongside the scores:
//!
//! ```
//! use pcpm_graph::Csr;
//! use pcpm_core::{pagerank::pagerank, config::PcpmConfig};
//!
//! let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 0)]).unwrap();
//! let result = pagerank(&g, &PcpmConfig::default()).unwrap();
//! assert_eq!(result.scores.len(), 4);
//! let total: f64 = result.scores.iter().map(|&x| f64::from(x)).sum();
//! assert!(total > 0.5 && total <= 1.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod backend;
pub mod bins;
pub mod compact;
pub mod config;
pub mod delta;
pub mod error;
pub mod fixed_point;
pub mod format;
mod gather;
pub mod kernel;
pub mod pagerank;
pub mod partition;
pub mod png;
pub mod pr;
mod push;
pub mod scatter;
pub mod snapshot;
pub mod spmv;
pub mod telemetry;
pub mod update;

pub use backend::{
    Backend, BackendKind, Engine, EngineBuilder, ExecutionReport, GatherKind, ScatterKind,
    SnapshotEngineBuilder,
};
pub use config::PcpmConfig;
pub use delta::DeltaPackedBins;
pub use error::PcpmError;
pub use error::SnapshotError;
pub use format::{BinFormat, BinFormatKind, CompactFormat, DeltaFormat, WideFormat};
pub use gather::{Applied, ApplyFn, Epilogue, Finished};
pub use kernel::KernelKind;
pub use partition::Partitioner;
pub use png::Png;
pub use pr::{PhaseTimings, PrResult};
pub use snapshot::Snapshot;
pub use update::{EdgeOp, EdgeUpdate, RepairStats, UpdateBatch, UpdateOutcome};

/// Bit mask extracting the true node ID from a destination-bin entry
/// (clears the MSB demarcation flag, paper §3.2).
pub const ID_MASK: u32 = 0x7FFF_FFFF;

/// MSB flag marking the first destination ID of a message.
pub const MSB_FLAG: u32 = 0x8000_0000;
