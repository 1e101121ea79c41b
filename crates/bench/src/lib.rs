//! Shared helpers for the `repro` paper-exhibit harness.

#![forbid(unsafe_code)]

pub mod suite;
