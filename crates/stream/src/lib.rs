//! Streaming graph subsystem for the PCPM reproduction.
//!
//! The paper's partition-centric bins are built once over a frozen CSR,
//! and so they stay: an epoch is one merge, one build and one
//! warm-started solve. A batch of edge changes is merged into the current
//! CSR, the engine rebuilds its bins over the result, and the ranks are
//! refreshed by the one fixed-point driver, started from the previous
//! epoch's scores:
//!
//! - [`UpdateLog`] — the batching front end: validates ops, dedups with
//!   last-op-wins semantics and seals canonical
//!   [`UpdateBatch`](pcpm_core::UpdateBatch)es;
//! - [`merge`] — one sequential pass from the current
//!   [`Csr`](pcpm_graph::Csr) and a batch to the next `Csr`: untouched
//!   rows block-copied, touched rows merged; [`DeltaGraph`] keeps the
//!   current graph across batches;
//! - [`replay()`] — the end-to-end driver: merge a batch, rebuild the
//!   engine's dataplane via
//!   [`Engine::update`](pcpm_core::Engine::update), and re-solve
//!   PageRank warm-started on the rebuilt engine, timing both.
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

pub use delta::{merge, ApplyStats, DeltaGraph, Merged};
pub use error::StreamError;
pub use log::UpdateLog;
pub use replay::{
    final_cache_path, gen_updates, read_updates, read_updates_auto, read_updates_binary, replay,
    write_updates, write_updates_binary, BatchReport, Locality, ReplayConfig, ReplayReport,
    UpdateGenConfig,
};
