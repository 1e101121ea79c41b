//! Message bins: update values and MSB-demarcated destination IDs.
//!
//! Each destination partition conceptually owns one *update bin* and one
//! *destID bin* (paper §3.1, Fig. 3b). Physically both live in two global
//! arrays laid out **source-partition-major**: source partition `s` owns
//! the contiguous region `[region[s], region[s+1])`, subdivided by
//! destination partition. This gives every scatter worker one contiguous
//! writable slice (lock-free, fully safe splitting) while the gather phase
//! streams, for destination partition `p`, the `k_src` segments
//! `(s, p)` — each itself contiguous.
//!
//! Destination IDs are written **once** (they do not change across
//! PageRank iterations) with the MSB of the first ID of every message set,
//! marking where the next update value begins (§3.2). For weighted SpMV
//! the edge weights ride alongside the destination IDs (§3.5).
//!
//! [`FixedBins`] is the storage of both fixed-width encodings of the
//! [`BinFormat`](crate::format::BinFormat) axis: [`BinSpace`], the
//! **wide** 32-bit global IDs of
//! [`WideFormat`](crate::format::WideFormat), and
//! [`CompactBinSpace`](crate::compact::CompactBinSpace), the 16-bit
//! partition-local IDs of [`CompactFormat`](crate::format::CompactFormat).
//! The build logic lives in the shared layout build of [`crate::png`]
//! and the fixed-width encoders of [`crate::format`]; this module only
//! keeps the storage type and its memory accounting.

/// A destination stream with one update stream beside it: the bins of a
/// standalone scatter and gather ([`BinFormat::Bins`]). An engine keeps
/// the two apart: the stream is the immutable half it shares in a
/// [`Layout`](crate::format::Layout), the update stream its own scratch.
///
/// [`BinFormat::Bins`]: crate::format::BinFormat::Bins
#[derive(Debug)]
pub struct Bins<D, T = f32> {
    /// The destination stream, its offsets and its weights.
    pub dest: D,
    /// Update values, source-partition-major (`|E'|` entries).
    pub updates: Vec<T>,
}

/// The destination-ID bins of one PNG layout, one `U` per destination
/// ID: the storage of both fixed-width formats. Scalar-independent, and
/// never edited after the build. Construct through the format axis
/// (`WideFormat::build_layout`, or the engine builder's `.bin_format(..)`).
#[derive(Debug)]
pub struct FixedBins<U> {
    /// Destination IDs with MSB demarcation, source-partition-major
    /// (`|E|` entries). Written once at construction.
    pub dest_ids: Vec<U>,
    /// Optional edge weights parallel to [`Self::dest_ids`].
    pub weights: Option<Vec<f32>>,
}

/// The wide bins: 32-bit global destination IDs (§3.2), with an update
/// stream of `T`.
pub type BinSpace<T = f32> = Bins<FixedBins<u32>, T>;

impl<U> FixedBins<U> {
    /// Heap bytes held by the destination stream and the weights (for
    /// the communication accounting).
    pub fn memory_bytes(&self) -> u64 {
        (self.dest_ids.len() * std::mem::size_of::<U>()
            + self.weights.as_ref().map_or(0, |w| w.len() * 4)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{BinFormat, WideFormat};
    use crate::partition::Partitioner;
    use crate::png::{EdgeView, Png};
    use crate::{ID_MASK, MSB_FLAG};
    use pcpm_graph::Csr;

    fn setup(q: u32) -> (Csr, Png) {
        let g = Csr::from_edges(
            9,
            &[
                (3, 2),
                (6, 0),
                (6, 1),
                (7, 2),
                (3, 4),
                (6, 3),
                (6, 4),
                (7, 5),
                (2, 8),
                (7, 8),
            ],
        )
        .unwrap();
        let parts = Partitioner::new(9, q).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        (g, png)
    }

    fn build(g: &Csr, png: &Png, w: Option<&[f32]>) -> BinSpace {
        WideFormat::build(EdgeView::from_csr(g), png, w)
    }

    /// Decodes segment `(s, p)` into (source-order) messages of masked IDs.
    fn decode(png: &Png, bins: &BinSpace, s: u32, p: u32) -> Vec<Vec<u32>> {
        let part = png.part(s);
        let base = png.did_region()[s as usize];
        let lo = (base + part.did_off[p as usize]) as usize;
        let hi = (base + part.did_off[p as usize + 1]) as usize;
        let mut msgs: Vec<Vec<u32>> = Vec::new();
        for &id in &bins.dest.dest_ids[lo..hi] {
            if id & MSB_FLAG != 0 {
                msgs.push(vec![id & ID_MASK]);
            } else {
                msgs.last_mut().expect("first entry must set MSB").push(id);
            }
        }
        msgs
    }

    #[test]
    fn msb_demarcation_round_trips_fig3() {
        let (g, png) = setup(3);
        let bins = build(&g, &png, None);
        // Fig. 4b: bin 0 receives from partition 2 the messages
        // 6 -> {0, 1} and 7 -> {2}.
        assert_eq!(decode(&png, &bins, 2, 0), vec![vec![0, 1], vec![2]]);
        // Bin 2 receives from partition 0: 2 -> {8}; from partition 2: 7 -> {8}.
        assert_eq!(decode(&png, &bins, 0, 2), vec![vec![8]]);
        assert_eq!(decode(&png, &bins, 2, 2), vec![vec![8]]);
    }

    #[test]
    fn message_counts_match_png() {
        let (g, png) = setup(3);
        let bins = build(&g, &png, None);
        let k = png.dst_parts().num_partitions();
        let mut total_msgs = 0u64;
        let mut total_ids = 0u64;
        for s in 0..k {
            for p in 0..k {
                let msgs = decode(&png, &bins, s, p);
                total_msgs += msgs.len() as u64;
                total_ids += msgs.iter().map(|m| m.len() as u64).sum::<u64>();
                // One message per compressed edge in this row.
                assert_eq!(msgs.len(), png.part(s).row(p).len());
            }
        }
        assert_eq!(total_msgs, png.num_compressed_edges());
        assert_eq!(total_ids, g.num_edges());
    }

    #[test]
    fn decoded_structure_equals_original_adjacency() {
        let g = pcpm_graph::gen::erdos_renyi(64, 400, 17).unwrap();
        let parts = Partitioner::new(64, 10).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        let bins = build(&g, &png, None);
        // Reconstruct every (src, dst) pair from the bins.
        let mut rebuilt: Vec<(u32, u32)> = Vec::new();
        for s in parts.iter() {
            for p in parts.iter() {
                let rows = png.part(s).row(p);
                let msgs = decode(&png, &bins, s, p);
                assert_eq!(rows.len(), msgs.len());
                for (&src, msg) in rows.iter().zip(&msgs) {
                    for &d in msg {
                        rebuilt.push((src, d));
                    }
                }
            }
        }
        rebuilt.sort_unstable();
        let mut original: Vec<(u32, u32)> = g.edges().collect();
        original.sort_unstable();
        assert_eq!(rebuilt, original);
    }

    #[test]
    fn weights_ride_with_dest_ids() {
        let g = Csr::from_edges(4, &[(0, 1), (0, 3), (2, 1)]).unwrap();
        // Weight of edge (s,t) is 10*s + t, in CSR edge order:
        // (0,1)=1, (0,3)=3, (2,1)=21.
        let w = vec![1.0f32, 3.0, 21.0];
        let parts = Partitioner::new(4, 2).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        let bins = build(&g, &png, Some(&w));
        let bw = bins.dest.weights.as_ref().unwrap();
        // For every bin entry, the weight must match the (masked src->dst) edge.
        for s in parts.iter() {
            let part = png.part(s);
            let base = png.did_region()[s as usize] as usize;
            for p in parts.iter() {
                let lo = base + part.did_off[p as usize] as usize;
                let hi = base + part.did_off[p as usize + 1] as usize;
                let rows = part.row(p);
                let mut row_idx = 0usize;
                for (offset, (&id, &weight)) in bins.dest.dest_ids[lo..hi]
                    .iter()
                    .zip(&bw[lo..hi])
                    .enumerate()
                {
                    if id & MSB_FLAG != 0 && offset != 0 {
                        row_idx += 1;
                    }
                    let src = rows[row_idx];
                    let dst = id & ID_MASK;
                    let expected = (f32::from(src as u8) * 10.0) + f32::from(dst as u8);
                    assert_eq!(weight, expected, "edge ({src},{dst})");
                }
            }
        }
    }

    #[test]
    fn unweighted_bins_have_no_weights() {
        let (g, png) = setup(3);
        let bins = build(&g, &png, None);
        assert!(bins.dest.weights.is_none());
        assert_eq!(bins.updates.len() as u64, png.num_compressed_edges());
        assert_eq!(bins.dest.dest_ids.len() as u64, g.num_edges());
    }

    #[test]
    fn memory_accounting() {
        let (g, png) = setup(3);
        let bins = build(&g, &png, None);
        assert_eq!(bins.dest.memory_bytes(), (10 * 4) as u64);
        assert_eq!(bins.updates.len(), 8);
    }
}
