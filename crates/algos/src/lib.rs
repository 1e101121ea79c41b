//! Graph algorithms built on the PCPM engine.
//!
//! The paper's closing section proposes PCPM as "an efficient programming
//! model for other graph algorithms". This crate realizes that: every
//! algorithm here runs the same partition-centric scatter → gather
//! pipeline (PNG layout, MSB-demarcated bins, branch-avoiding gather) —
//! only the gather algebra and the apply step differ.
//!
//! - [`propagate::propagation_engine`] + [`propagate::run_to_fixpoint`]
//!   — the generic iterate-to-fixpoint driver over any
//!   [`pcpm_core::algebra::Algebra`] and any
//!   [`pcpm_core::BackendKind`];
//! - [`components::connected_components`] — min-label propagation over the
//!   undirected closure;
//! - [`bfs::bfs_levels`] — hop counts from a source (min-level algebra);
//! - [`sssp::sssp`] — Bellman-Ford-style shortest paths over the
//!   `(min, +)` semiring with edge weights riding in the destID bins;
//! - [`ppr::personalized_pagerank`] — random walk with restart to a seed
//!   set;
//! - [`wpr::weighted_pagerank`] — PageRank with edge-weight-proportional
//!   transition probabilities (the §3.5 weighted extension, end to end);
//! - [`katz::katz_centrality`] — attenuated path counting (`α·Aᵀx + β`);
//! - [`hits::hits`] — hubs and authorities via paired forward/transpose
//!   engines.
//!
//! Every algorithm also has an `*_on` variant taking a
//! [`pcpm_core::BackendKind`], running the identical apply/convergence
//! logic over the PCPM or the pull dataplane — the
//! backend-agnostic programming model of the paper's §6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod components;
pub mod hits;
pub mod katz;
pub mod ppr;
pub mod propagate;
pub mod sssp;
pub mod wpr;

pub use bfs::{bfs_levels, bfs_levels_on, bfs_levels_with_engine};
pub use components::{connected_components, connected_components_on};
pub use hits::{hits, hits_on, HitsResult};
pub use katz::{katz_centrality, katz_centrality_on, KatzConfig};
pub use ppr::{
    personalized_pagerank, personalized_pagerank_many,
    personalized_pagerank_many_with_unified_engine, personalized_pagerank_on,
    personalized_pagerank_with_unified_engine,
};
pub use propagate::{propagation_engine, run_to_fixpoint, FixpointResult};
pub use sssp::{sssp, sssp_on, sssp_with_engine};
pub use wpr::{weighted_pagerank, weighted_pagerank_on, weighted_pagerank_with_unified_engine};
