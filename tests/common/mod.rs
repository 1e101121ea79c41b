//! Env-driven test matrices shared by the integration suites
//! (`kernel_agreement`, `parallel_determinism`, `bin_formats`).
//!
//! Unknown tokens are a hard failure, not a skip: a typo in a CI
//! `PCPM_TEST_FORMATS` / `PCPM_TEST_THREADS` list must fail the job
//! instead of silently shrinking the matrix to vacuity.

#![allow(dead_code)] // each test binary uses a subset of these helpers

use pcpm::prelude::{BinFormatKind, KernelKind};

/// Bin formats under test (`PCPM_TEST_FORMATS` env, e.g.
/// `PCPM_TEST_FORMATS=wide,delta`; default: all three).
pub fn format_matrix() -> Vec<BinFormatKind> {
    match std::env::var("PCPM_TEST_FORMATS") {
        Ok(v) => v
            .split(',')
            .map(|f| {
                f.trim().parse().unwrap_or_else(|_| {
                    panic!(
                        "PCPM_TEST_FORMATS: unknown format '{}' (expected wide|compact|delta)",
                        f.trim()
                    )
                })
            })
            .collect(),
        Err(_) => BinFormatKind::ALL.to_vec(),
    }
}

/// Gather kernels under test (`PCPM_TEST_KERNELS` env, e.g. `=auto`;
/// default: both concrete kernels — `auto` never resolves to `scalar`
/// at test scales, so alone it would leave that kernel untested here).
pub fn kernel_matrix() -> Vec<KernelKind> {
    match std::env::var("PCPM_TEST_KERNELS") {
        Ok(v) => v
            .split(',')
            .map(|k| {
                k.trim()
                    .parse()
                    .unwrap_or_else(|e| panic!("PCPM_TEST_KERNELS: {e}"))
            })
            .collect(),
        Err(_) => vec![KernelKind::Scalar, KernelKind::Unrolled],
    }
}

/// Thread counts under test (`PCPM_TEST_THREADS` env, default 1,2,4,8).
pub fn thread_matrix() -> Vec<usize> {
    match std::env::var("PCPM_TEST_THREADS") {
        Ok(v) => v
            .split(',')
            .map(|t| {
                let n: usize = t.trim().parse().unwrap_or_else(|_| {
                    panic!("PCPM_TEST_THREADS: bad thread count '{}'", t.trim())
                });
                assert!(n >= 1, "PCPM_TEST_THREADS: thread count must be >= 1");
                n
            })
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    }
}
