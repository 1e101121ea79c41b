//! Compact 16-bit destination-ID bins (paper §6 future work).
//!
//! The paper's conclusion observes that PCPM "accesses nodes from only
//! one graph partition at a time", so G-Store's smallest-number-of-bits
//! representation can shrink the destination-ID bins: within a gather of
//! partition `p`, a destination is fully identified by its offset inside
//! the partition. With partitions of at most `2^15` nodes, a destination
//! fits in 15 bits plus the MSB demarcation flag — **halving** the
//! destID-bin traffic, the largest single term of PCPM's communication
//! model (`m·di` in Eq. 5).
//!
//! [`CompactBinSpace`] stores exactly that encoding — the
//! [`CompactFormat`](crate::format::CompactFormat) storage of the
//! [`BinFormat`](crate::format::BinFormat) axis; build and gather
//! are the fixed-width code shared with the wide format in
//! [`crate::format`]. The engine switches when
//! [`crate::PcpmConfig::bin_format`] selects
//! [`BinFormatKind::Compact`](crate::format::BinFormatKind) and the
//! partition size permits.

/// MSB flag in the 16-bit encoding.
pub const MSB_FLAG16: u16 = 0x8000;

/// Mask extracting the partition-local destination offset.
pub const ID_MASK16: u16 = 0x7FFF;

/// Largest partition size (in nodes) the compact encoding supports.
pub const MAX_COMPACT_PARTITION: u32 = 1 << 15;

/// Message bins with 16-bit partition-local destination IDs.
pub type CompactBinSpace<T = f32> = crate::bins::Bins<crate::bins::FixedBins<u16>, T>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{BinFormat, CompactFormat};
    use crate::partition::Partitioner;
    use crate::png::{EdgeView, Png};
    use pcpm_graph::Csr;

    #[test]
    #[should_panic(expected = "exceeds the compact format")]
    fn oversized_partition_rejected() {
        let n = 70_000u32;
        let g = Csr::from_edges(n, &[(0, 1), (0, 65_000)]).unwrap();
        let parts = Partitioner::new(n, n).unwrap(); // one partition of 70 K nodes > 2^15
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        let _: CompactBinSpace = CompactFormat::build(EdgeView::from_csr(&g), &png, None);
    }
}
