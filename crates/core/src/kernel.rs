//! Runtime-dispatched gather kernel variants.
//!
//! The one gather loop (`gather.rs`) runs in two variants on every bin
//! format:
//!
//! - [`KernelKind::Scalar`] — one entry per trip.
//! - [`KernelKind::Unrolled`] — the fixed-width formats take the
//!   entries four per trip, and every format keeps the next segment's
//!   head in flight.
//!
//! Both apply entries in exactly the same order, so f32 results are
//! bit-identical by construction. The delta format decodes the same way
//! under both: its split stream has one branch-free decoder
//! (`delta.rs`) that hands the apply loop eight entries at a time, with
//! no scratch that grows with the segment.
//!
//! [`KernelKind::Auto`] (the default) resolves to `Unrolled` at
//! pipeline-build time: it never loses, on any format or layout.

use crate::format::BinFormatKind;
use std::fmt;
use std::str::FromStr;

/// Which gather/decode kernel variant the pipeline runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Resolve to the faster concrete kernel at build time.
    #[default]
    Auto,
    /// The original scalar loops (asserted-identical fallback).
    Scalar,
    /// 4-wide unrolled apply loops and a prefetched next segment.
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

    /// Resolves `Auto` to [`KernelKind::Unrolled`]; concrete kinds pass
    /// through unchanged. The layout arguments (format, raw edges,
    /// partition counts) no longer change the choice.
    pub fn resolve(
        self,
        _format: BinFormatKind,
        _raw_edges: u64,
        _k_src: u32,
        _k_dst: u32,
    ) -> KernelKind {
        match self {
            KernelKind::Auto => KernelKind::Unrolled,
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
    fn auto_unrolls_every_format_and_layout() {
        for fmt in BinFormatKind::ALL {
            for edges in [0u64, 1, 1 << 20, 1 << 40] {
                for k in [1u32, 16, 1024] {
                    let r = KernelKind::Auto.resolve(fmt, edges, k, k);
                    assert_eq!(r, KernelKind::Unrolled, "{fmt:?} {edges} {k}");
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
}
