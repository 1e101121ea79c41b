//! PCPM scatter phase.
//!
//! Three implementations:
//!
//! - [`png_scatter`] — Algorithm 3, the paper's final design: iterate the
//!   PNG rows of each source partition, streaming updates to one
//!   destination bin at a time. No data-dependent branches, no unused-edge
//!   reads, at most `k` bin switches per partition.
//! - [`png_scatter_rows`] — Algorithm 3 for a pass of `W` queries (a
//!   compile-time width, at most eight on the engine's path): the same
//!   single walk, writing one `[T; W]` row per compressed edge.
//! - [`csr_scatter`] — Algorithm 2, the pre-PNG ablation: traverse the
//!   original CSR, compare each neighbor's partition with the previous one
//!   and emit an update on every partition switch. Reads all `m` edges and
//!   branches per edge; kept for the design-choice benches.
//!
//! All run in parallel over source partitions; each worker writes only
//! its own contiguous region of the update array, obtained by safe slice
//! splitting, so no synchronization is needed (paper §3.1).

use crate::partition::split_by_lens;
use crate::png::{EdgeView, Png};
use rayon::prelude::*;

/// Algorithm 3: PNG-driven branchless scatter.
///
/// Reads `x[v]` for every compressed edge and writes it into the update
/// region of the edge's destination bin. `updates.len()` must equal
/// `png.num_compressed_edges()`.
///
/// # Panics
///
/// Panics if `updates` has the wrong length or `x` is shorter than the
/// source node count.
pub fn png_scatter<T: Copy + Send + Sync>(png: &Png, x: &[T], updates: &mut [T]) {
    assert_eq!(
        updates.len() as u64,
        png.num_compressed_edges(),
        "updates length"
    );
    assert!(
        x.len() >= png.src_parts().num_nodes() as usize,
        "x too short"
    );
    let lens = png.upd_region_lens();
    let regions = split_by_lens(updates, &lens);
    regions.into_par_iter().enumerate().for_each(|(s, region)| {
        let part = png.part(s as u32);
        let mut cur = 0usize;
        for p in png.dst_parts().iter() {
            for &u in part.row(p) {
                region[cur] = x[u as usize];
                cur += 1;
            }
        }
    });
}

/// Algorithm 3 for a pass of `W` queries: one walk of the PNG for all
/// of `xs`, writing the row `[xs[0][u], …, xs[W-1][u]]` per compressed
/// edge `u → bin`, in the slot order [`png_scatter`] fills — the layout
/// the multi-query gather reads. Each row is written as one `[T; W]`
/// array; the `W` reads of a row are `W` ascending streams, so no
/// `[node][W]` copy of the inputs is made.
///
/// # Panics
///
/// Panics unless `rows` holds one row per compressed edge and every
/// input spans the source nodes.
pub fn png_scatter_rows<T: Copy + Send + Sync, const W: usize>(
    png: &Png,
    xs: &[&[T]; W],
    rows: &mut [[T; W]],
) {
    assert_eq!(rows.len() as u64, png.num_compressed_edges(), "rows length");
    let num_src = png.src_parts().num_nodes() as usize;
    assert!(xs.iter().all(|x| x.len() >= num_src), "x too short");
    let lens = png.upd_region_lens();
    let regions = split_by_lens(rows, &lens);
    regions.into_par_iter().enumerate().for_each(|(s, region)| {
        let part = png.part(s as u32);
        let mut slots = region.iter_mut();
        for p in png.dst_parts().iter() {
            for (&u, row) in part.row(p).iter().zip(&mut slots) {
                *row = std::array::from_fn(|q| xs[q][u as usize]);
            }
        }
    });
}

/// Algorithm 2: CSR-traversal scatter (ablation).
///
/// Produces byte-identical update regions to [`png_scatter`] but scans all
/// raw edges of the original structure, emitting one update whenever the
/// destination partition of consecutive (sorted) neighbors changes.
pub fn csr_scatter<T: Copy + Send + Sync>(
    view: EdgeView<'_>,
    png: &Png,
    x: &[T],
    updates: &mut [T],
) {
    assert_eq!(
        updates.len() as u64,
        png.num_compressed_edges(),
        "updates length"
    );
    assert!(
        x.len() >= png.src_parts().num_nodes() as usize,
        "x too short"
    );
    let q = png.dst_parts().partition_size();
    let lens = png.upd_region_lens();
    let regions = split_by_lens(updates, &lens);
    regions.into_par_iter().enumerate().for_each(|(s, region)| {
        let part = png.part(s as u32);
        // Region-local write cursors, one per destination bin.
        let mut cursor: Vec<u64> = part.upd_off[..part.upd_off.len() - 1].to_vec();
        for v in png.src_parts().range(s as u32) {
            let val = x[v as usize];
            let mut prev_bin = u32::MAX;
            for &u in view.neighbors(v) {
                let p = u / q;
                if p != prev_bin {
                    region[cursor[p as usize] as usize] = val;
                    cursor[p as usize] += 1;
                    prev_bin = p;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use pcpm_graph::Csr;

    fn setup(n: u32, edges: &[(u32, u32)], q: u32) -> (Csr, Png) {
        let g = Csr::from_edges(n, edges).unwrap();
        let parts = Partitioner::new(n, q).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        (g, png)
    }

    #[test]
    fn png_scatter_streams_expected_values() {
        // Fig. 3/4: partition 2 sends updates PR[6], PR[7] to bin 0.
        let (_, png) = setup(
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
            3,
        );
        let x: Vec<f32> = (0..9).map(|v| v as f32 * 10.0).collect();
        let mut updates = vec![0.0f32; png.num_compressed_edges() as usize];
        png_scatter(&png, &x, &mut updates);
        // Partition 2's region: rows to P0 = [6,7], P1 = [6,7], P2 = [7].
        let lo = png.upd_region()[2] as usize;
        assert_eq!(&updates[lo..lo + 5], &[60.0, 70.0, 60.0, 70.0, 70.0]);
    }

    #[test]
    fn csr_scatter_matches_png_scatter() {
        let g = pcpm_graph::gen::rmat(&pcpm_graph::gen::RmatConfig::graph500(9, 8, 33)).unwrap();
        for q in [16u32, 100, 512] {
            let parts = Partitioner::new(g.num_nodes(), q).unwrap();
            let png = Png::build(EdgeView::from_csr(&g), parts, parts);
            let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v as f32).sin()).collect();
            let mut a = vec![0.0f32; png.num_compressed_edges() as usize];
            let mut b = vec![1.0f32; png.num_compressed_edges() as usize];
            png_scatter(&png, &x, &mut a);
            csr_scatter(EdgeView::from_csr(&g), &png, &x, &mut b);
            assert_eq!(a, b, "q={q}");
        }
    }

    /// Scatters `W` inputs into rows and checks that lane `q` of the rows
    /// is the solo scatter of input `q`.
    fn check_rows<const W: usize>(g: &Csr, png: &Png) {
        let slots = png.num_compressed_edges() as usize;
        let xs: [Vec<f32>; W] = std::array::from_fn(|q| {
            (0..g.num_nodes())
                .map(|v| (v + 7 * q as u32) as f32)
                .collect()
        });
        let mut rows = vec![[-1.0f32; W]; slots];
        png_scatter_rows(png, &xs.each_ref().map(Vec::as_slice), &mut rows);
        for (q, x) in xs.iter().enumerate() {
            let mut solo = vec![0.0f32; slots];
            png_scatter(png, x, &mut solo);
            let lane: Vec<f32> = rows.iter().map(|row| row[q]).collect();
            assert_eq!(lane, solo, "width {W} lane {q}");
        }
    }

    #[test]
    fn row_scatter_interleaves_the_solo_streams() {
        let g = pcpm_graph::gen::rmat(&pcpm_graph::gen::RmatConfig::graph500(9, 8, 33)).unwrap();
        let parts = Partitioner::new(g.num_nodes(), 100).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        check_rows::<0>(&g, &png);
        check_rows::<1>(&g, &png);
        check_rows::<2>(&g, &png);
        check_rows::<3>(&g, &png);
        check_rows::<5>(&g, &png);
        check_rows::<8>(&g, &png);
    }

    #[test]
    #[should_panic(expected = "updates length")]
    fn wrong_update_length_panics() {
        let (_, png) = setup(4, &[(0, 1)], 2);
        let x = vec![0.0; 4];
        let mut updates = vec![0.0; 99];
        png_scatter(&png, &x, &mut updates);
    }

    #[test]
    fn empty_graph_scatter_is_noop() {
        let (_, png) = setup(3, &[], 2);
        let x = vec![1.0; 3];
        let mut updates: Vec<f32> = vec![];
        png_scatter(&png, &x, &mut updates);
    }
}
