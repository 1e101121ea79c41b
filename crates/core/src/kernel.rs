//! Runtime-dispatched gather/decode kernel variants.
//!
//! The one gather loop (`gather.rs`) runs in two variants on every bin
//! format:
//!
//! - [`KernelKind::Scalar`] — one entry per trip. On the delta format
//!   each varint is decoded inline as the loop asks for it, paying a
//!   data-dependent branch per encoded byte.
//! - [`KernelKind::Unrolled`] — batched. The delta path first decodes a
//!   whole bin segment into a reusable scratch buffer with a
//!   branch-reduced 1–2-byte fast path; every format then takes the
//!   entries four per trip and keeps the next segment's head in
//!   flight. Entries are always applied in exactly the scalar order, so
//!   f32 results are bit-identical by construction.
//!
//! [`KernelKind::Auto`] (the default) resolves to one of the concrete
//! kernels at pipeline-build time via [`resolve_auto`], a closed-form
//! cost comparison grounded in the paper's cache-line/DRAM model. The
//! same decision function backs `pcpm_memsim::predict_kernel`, so the
//! simulator's prediction and the engine's auto-selection can never
//! disagree.

use crate::format::BinFormatKind;
use std::fmt;
use std::str::FromStr;

/// Which gather/decode kernel variant the pipeline runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Pick the predicted-fastest concrete kernel at build time.
    #[default]
    Auto,
    /// The original scalar loops (asserted-identical fallback).
    Scalar,
    /// Batched segment decode + 4-wide unrolled apply loops.
    Unrolled,
}

impl KernelKind {
    /// Every kernel variant, in dispatch order.
    pub const ALL: [KernelKind; 3] = [KernelKind::Auto, KernelKind::Scalar, KernelKind::Unrolled];

    /// Stable lowercase name (CLI / JSON / report).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Auto => "auto",
            KernelKind::Scalar => "scalar",
            KernelKind::Unrolled => "unrolled",
        }
    }

    /// Resolves `Auto` against graph statistics; concrete kinds pass
    /// through unchanged. The result is never [`KernelKind::Auto`].
    pub fn resolve(
        self,
        format: BinFormatKind,
        raw_edges: u64,
        k_src: u32,
        k_dst: u32,
    ) -> KernelKind {
        match self {
            KernelKind::Auto => resolve_auto(format, raw_edges, k_src, k_dst),
            concrete => concrete,
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for KernelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(KernelKind::Auto),
            "scalar" => Ok(KernelKind::Scalar),
            "unrolled" => Ok(KernelKind::Unrolled),
            other => Err(format!(
                "unknown kernel '{other}' (expected auto|scalar|unrolled)"
            )),
        }
    }
}

/// Software-prefetch hint: touches the head of `data` so its first
/// cache line is in flight while the current segment finishes. Safe
/// (no `core::arch` intrinsics — the crate forbids unsafe): a plain
/// read the optimizer must keep because of `black_box`. Gated to
/// 64-bit targets, where the extra load is measurably free; elsewhere
/// it compiles to nothing.
#[cfg(target_pointer_width = "64")]
#[inline(always)]
pub(crate) fn prefetch<T: Copy>(data: &[T]) {
    if let Some(&head) = data.first() {
        core::hint::black_box(head);
    }
}

/// No-op fallback on non-64-bit targets.
#[cfg(not(target_pointer_width = "64"))]
#[inline(always)]
pub(crate) fn prefetch<T: Copy>(_data: &[T]) {}

/// Scratch bytes per decoded delta entry (one `u64` each).
pub const SCRATCH_BYTES_PER_EDGE: u64 = 8;

/// Cache budget for the delta scratch buffer: one segment's decoded
/// entries should stay resident while the apply loop re-reads them.
/// 256 KiB matches the paper's per-partition cache budget (a typical
/// L2 slice) that `PcpmConfig::default().partition_bytes` targets.
pub const SCRATCH_CACHE_BUDGET: u64 = 256 * 1024;

/// The shared auto-selection decision: given the bin format and graph
/// shape, predict which concrete kernel wins and return it.
///
/// The model (constants calibrated against `BENCH_kernels.json`):
///
/// - **Fixed-width formats (wide/compact):** the unrolled apply loop
///   strictly reduces per-entry loop overhead and touches no extra
///   memory, so `Unrolled` always wins.
/// - **Delta:** the batched decoder trades the per-byte decode branch
///   for a scratch-buffer round trip of [`SCRATCH_BYTES_PER_EDGE`]
///   bytes per entry. While the average segment's scratch fits in
///   cache ([`SCRATCH_CACHE_BUDGET`]) that round trip is nearly free
///   and `Unrolled` wins; once a segment's decoded form spills, every
///   entry pays a DRAM write+read that outweighs the saved branch
///   misses, so `Scalar` wins.
///
/// Never returns [`KernelKind::Auto`].
pub fn resolve_auto(format: BinFormatKind, raw_edges: u64, k_src: u32, k_dst: u32) -> KernelKind {
    match format {
        BinFormatKind::Wide | BinFormatKind::Compact => KernelKind::Unrolled,
        BinFormatKind::Delta => {
            let segments = u64::from(k_src.max(1)) * u64::from(k_dst.max(1));
            let avg_segment_edges = raw_edges / segments.max(1);
            if avg_segment_edges * SCRATCH_BYTES_PER_EDGE <= SCRATCH_CACHE_BUDGET {
                KernelKind::Unrolled
            } else {
                KernelKind::Scalar
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in KernelKind::ALL {
            assert_eq!(k.name().parse::<KernelKind>().unwrap(), k);
            assert_eq!(format!("{k}"), k.name());
        }
        assert!("simd".parse::<KernelKind>().is_err());
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(KernelKind::default(), KernelKind::Auto);
    }

    #[test]
    fn resolve_never_returns_auto() {
        for fmt in BinFormatKind::ALL {
            for edges in [0u64, 1, 1 << 20, 1 << 40] {
                for k in [1u32, 16, 1024] {
                    let r = KernelKind::Auto.resolve(fmt, edges, k, k);
                    assert_ne!(r, KernelKind::Auto, "{fmt:?} {edges} {k}");
                }
            }
        }
    }

    #[test]
    fn concrete_kinds_pass_through() {
        for fmt in BinFormatKind::ALL {
            assert_eq!(
                KernelKind::Scalar.resolve(fmt, 1 << 30, 2, 2),
                KernelKind::Scalar
            );
            assert_eq!(
                KernelKind::Unrolled.resolve(fmt, 1 << 30, 2, 2),
                KernelKind::Unrolled
            );
        }
    }

    #[test]
    fn fixed_width_formats_always_unroll() {
        for fmt in [BinFormatKind::Wide, BinFormatKind::Compact] {
            assert_eq!(resolve_auto(fmt, u64::MAX / 8, 1, 1), KernelKind::Unrolled);
        }
    }

    #[test]
    fn delta_spills_to_scalar_on_huge_segments() {
        // Average segment fits the scratch budget -> unrolled.
        assert_eq!(
            resolve_auto(BinFormatKind::Delta, 1 << 20, 8, 8),
            KernelKind::Unrolled
        );
        // One enormous segment (no partitioning) -> decoded scratch
        // spills cache -> scalar.
        assert_eq!(
            resolve_auto(BinFormatKind::Delta, 1 << 30, 1, 1),
            KernelKind::Scalar
        );
    }
}
