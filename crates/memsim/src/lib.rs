//! Software memory-hierarchy simulation for the PCPM reproduction.
//!
//! The paper measures DRAM traffic, sustained bandwidth and DRAM energy
//! with Intel Performance Counter Monitor on a dual-socket Xeon. Hardware
//! counters are not available in this reproduction, so this crate
//! substitutes a deterministic software model:
//!
//! - [`cache`] — a set-associative, write-back, write-allocate LRU cache
//!   standing in for the shared L3 (25 MB, 64 B lines, 20 ways by
//!   default, matching the paper's machine);
//! - [`memory`] — a [`memory::MemoryModel`] combining the cache with
//!   streaming (cache-bypassing) traffic counters and per-region
//!   attribution;
//! - [`replay`] — faithful replays of the address streams issued by the
//!   PDPR, BVGAS and PCPM kernels, producing the DRAM bytes, random-access
//!   counts and per-region splits behind Figs. 1, 8, 12 and Table 7;
//! - [`model`] — the paper's closed-form communication and random-access
//!   models (Eqs. 3–10) and the predicted-traffic-vs-`r` curve of Fig. 6;
//! - [`energy`] — a DRAM energy model (per-byte plus per-row-activation)
//!   for Fig. 10.
//!
//! Traffic volumes are deterministic functions of the access pattern, so
//! the replays reproduce what PCM would count, modulo prefetcher effects
//! documented in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod energy;
pub mod hierarchy;
pub mod memory;
pub mod model;
pub mod replay;

pub use cache::{Cache, CacheConfig};
pub use hierarchy::{CacheHierarchy, LatencyModel, LatencySummary};
pub use memory::{MemoryModel, Region, TrafficReport};
pub use replay::{replay_bvgas, replay_pcpm, replay_pdpr};
