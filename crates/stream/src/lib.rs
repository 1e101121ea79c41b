//! Streaming graph subsystem for the PCPM reproduction.
//!
//! The paper's partition-centric bins are built once over a frozen CSR;
//! this crate makes the reproduction serve *continuously arriving*
//! traffic: edge changes land in a partition-local overlay, the engine
//! rebuilds its bins over the overlay's snapshot, and the ranks are
//! refreshed by local residual pushes:
//!
//! - [`UpdateLog`] — the batching front end: validates ops, dedups with
//!   last-op-wins semantics and seals canonical
//!   [`UpdateBatch`](pcpm_core::UpdateBatch)es;
//! - [`DeltaGraph`] — an immutable base [`Csr`](pcpm_graph::Csr) under
//!   per-partition adjacency deltas and delete tombstones, with cached
//!   `Arc` snapshots and a compaction threshold that folds deltas back
//!   into a fresh base;
//! - [`replay`] — the end-to-end driver: apply a batch, rebuild the
//!   engine's dataplane via
//!   [`Engine::update`](pcpm_core::Engine::update), and refresh
//!   rankings with
//!   [`incremental_pagerank`](pcpm_algos::incremental_pagerank), timing
//!   both.
//!
//! # Example
//!
//! ```
//! use pcpm_graph::gen::{rmat, RmatConfig};
//! use pcpm_stream::{gen_updates, replay, ReplayConfig, UpdateGenConfig};
//! use std::sync::Arc;
//!
//! let base = Arc::new(rmat(&RmatConfig::graph500(8, 6, 1)).unwrap());
//! let batches = gen_updates(&base, &UpdateGenConfig { batches: 2, batch_size: 10, ..Default::default() }).unwrap();
//! let report = replay(base, &batches, &ReplayConfig::default()).unwrap();
//! assert_eq!(report.batches.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod error;
pub mod log;
pub mod replay;

pub use delta::{ApplyStats, DeltaGraph, DEFAULT_COMPACTION_THRESHOLD};
pub use error::StreamError;
pub use log::UpdateLog;
pub use replay::{
    final_cache_path, gen_updates, read_updates, read_updates_auto, read_updates_binary, replay,
    write_updates, write_updates_binary, BatchReport, Locality, ReplayConfig, ReplayReport,
    UpdateGenConfig,
};
