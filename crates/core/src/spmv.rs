//! Generic SpMV front end (paper §3.5).
//!
//! PCPM extends beyond PageRank to arbitrary sparse matrix–vector
//! products, including non-square matrices: rows and columns are
//! partitioned separately, edge weights travel alongside the destination
//! IDs in the bins, and the scatter/gather machinery is unchanged.
//!
//! [`SpmvMatrix`] stores `A` column-major (each column's non-zero row
//! indices sorted ascending), which is exactly the "graph" PCPM needs:
//! sources are columns, destinations are rows, and `y = A·x` is one
//! scatter/gather round.

use crate::algebra::PlusF32;
use crate::backend::{boxed_pcpm_backend, Engine};
use crate::config::PcpmConfig;
use crate::engine::{GatherKind, ScatterKind};
use crate::error::PcpmError;
use crate::png::EdgeView;

/// A sparse matrix in column-major (CSC) form with `f32` values.
///
/// # Examples
///
/// ```
/// use pcpm_core::spmv::SpmvMatrix;
///
/// // 2x3 matrix [[1, 0, 2], [0, 3, 0]]
/// let m = SpmvMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
/// assert_eq!(m.num_rows(), 2);
/// assert_eq!(m.num_nonzeros(), 3);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SpmvMatrix {
    num_rows: u32,
    num_cols: u32,
    /// `num_cols + 1` offsets into `row_ids` / `values`.
    offsets: Vec<u64>,
    /// Row indices per column, sorted ascending.
    row_ids: Vec<u32>,
    /// Non-zero values parallel to `row_ids`.
    values: Vec<f32>,
}

impl SpmvMatrix {
    /// Builds a matrix from `(row, col, value)` triplets. Duplicate
    /// coordinates are summed; explicit zeros are kept.
    pub fn from_triplets(
        num_rows: u32,
        num_cols: u32,
        triplets: &[(u32, u32, f32)],
    ) -> Result<Self, PcpmError> {
        let max_dim = u64::from(num_rows).max(u64::from(num_cols));
        if max_dim > pcpm_graph::MAX_NODES {
            return Err(PcpmError::TooManyNodes(max_dim));
        }
        for &(r, c, _) in triplets {
            if r >= num_rows || c >= num_cols {
                return Err(PcpmError::DimensionMismatch {
                    expected: num_rows.max(num_cols) as usize,
                    got: r.max(c) as usize,
                });
            }
        }
        let mut entries: Vec<(u32, u32, f32)> =
            triplets.iter().map(|&(r, c, v)| (c, r, v)).collect();
        entries.sort_unstable_by_key(|&(c, r, _)| (c, r));
        // Sum duplicates.
        let mut merged: Vec<(u32, u32, f32)> = Vec::with_capacity(entries.len());
        for (c, r, v) in entries {
            match merged.last_mut() {
                Some((lc, lr, lv)) if *lc == c && *lr == r => *lv += v,
                _ => merged.push((c, r, v)),
            }
        }
        let mut offsets = vec![0u64; num_cols as usize + 1];
        for &(c, _, _) in &merged {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..num_cols as usize {
            offsets[c + 1] += offsets[c];
        }
        let row_ids: Vec<u32> = merged.iter().map(|&(_, r, _)| r).collect();
        let values: Vec<f32> = merged.iter().map(|&(_, _, v)| v).collect();
        Ok(Self {
            num_rows,
            num_cols,
            offsets,
            row_ids,
            values,
        })
    }

    /// Number of rows (output dimension).
    pub fn num_rows(&self) -> u32 {
        self.num_rows
    }

    /// Number of columns (input dimension).
    pub fn num_cols(&self) -> u32 {
        self.num_cols
    }

    /// Number of stored entries.
    pub fn num_nonzeros(&self) -> u64 {
        self.row_ids.len() as u64
    }

    /// Column-to-row edge view for the PCPM engine.
    pub(crate) fn view(&self) -> EdgeView<'_> {
        EdgeView::new(self.num_cols, self.num_rows, &self.offsets, &self.row_ids)
    }

    /// Builds a unified [`Engine`] computing `y = A·x` with the PCPM
    /// dataplane — the rectangular entry point of the builder API.
    ///
    /// # Examples
    ///
    /// ```
    /// use pcpm_core::spmv::SpmvMatrix;
    /// use pcpm_core::PcpmConfig;
    ///
    /// // 2x3 matrix [[1, 0, 2], [0, 3, 0]]
    /// let m = SpmvMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
    /// let mut engine = m.engine(&PcpmConfig::default().with_partition_bytes(8)).unwrap();
    /// let mut y = vec![0.0f32; 2];
    /// engine.step(&[1.0, 1.0, 1.0], &mut y).unwrap();
    /// assert_eq!(y, vec![3.0, 3.0]);
    /// ```
    pub fn engine(&self, cfg: &PcpmConfig) -> Result<Engine<PlusF32>, PcpmError> {
        cfg.validate()?;
        // One engine-owned pool for prepare and every step.
        Engine::from_backend_with(cfg, self.num_cols, self.num_rows, || {
            let (scatter, gather) = (ScatterKind::default(), GatherKind::default());
            boxed_pcpm_backend(self.view(), cfg, Some(&self.values), scatter, gather, None)
        })
    }

    /// Serial reference product `y = A·x` with f64 accumulation.
    pub fn reference_apply(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f64; self.num_rows as usize];
        for (c, &xc) in x.iter().enumerate().take(self.num_cols as usize) {
            let xv = f64::from(xc);
            for i in self.offsets[c] as usize..self.offsets[c + 1] as usize {
                y[self.row_ids[i] as usize] += f64::from(self.values[i]) * xv;
            }
        }
        y.into_iter().map(|v| v as f32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: u32, cols: u32, nnz: usize, seed: u64) -> SpmvMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let triplets: Vec<(u32, u32, f32)> = (0..nnz)
            .map(|_| {
                (
                    rng.gen_range(0..rows),
                    rng.gen_range(0..cols),
                    rng.gen_range(-1.0f32..1.0),
                )
            })
            .collect();
        SpmvMatrix::from_triplets(rows, cols, &triplets).unwrap()
    }

    #[test]
    fn triplet_duplicates_are_summed() {
        let m = SpmvMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.num_nonzeros(), 1);
        assert_eq!(m.reference_apply(&[1.0, 0.0]), vec![3.5, 0.0]);
    }

    #[test]
    fn out_of_range_triplets_rejected() {
        assert!(SpmvMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(SpmvMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn pcpm_matches_reference_square() {
        let m = random_matrix(128, 128, 2000, 3);
        let x: Vec<f32> = (0..128).map(|i| (i as f32 * 0.1).sin()).collect();
        let mut eng = m
            .engine(&PcpmConfig::default().with_partition_bytes(32 * 4))
            .unwrap();
        let mut y = vec![0.0f32; 128];
        eng.step(&x, &mut y).unwrap();
        assert_eq!(eng.report().backend, "pcpm");
        let want = m.reference_apply(&x);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn pcpm_matches_reference_rectangular() {
        // Tall and wide matrices exercise separate row/column partitioning.
        for (rows, cols) in [(300u32, 50u32), (50, 300)] {
            let m = random_matrix(rows, cols, 1500, 7);
            let x: Vec<f32> = (0..cols).map(|i| 1.0 + (i % 5) as f32).collect();
            let mut eng = m
                .engine(&PcpmConfig::default().with_partition_bytes(64 * 4))
                .unwrap();
            let mut y = vec![0.0f32; rows as usize];
            eng.step(&x, &mut y).unwrap();
            let want = m.reference_apply(&x);
            for (i, (a, b)) in y.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-3, "{rows}x{cols} row {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn empty_matrix() {
        let m = SpmvMatrix::from_triplets(4, 4, &[]).unwrap();
        let mut eng = m.engine(&PcpmConfig::default()).unwrap();
        let mut y = vec![1.0f32; 4];
        eng.step(&[0.0; 4], &mut y).unwrap();
        assert_eq!(y, vec![0.0; 4]);
    }

    #[test]
    fn repeated_products_power_iteration_converges() {
        // Column-stochastic 2x2 matrix: power iteration converges to the
        // dominant eigenvector.
        let m =
            SpmvMatrix::from_triplets(2, 2, &[(0, 0, 0.9), (1, 0, 0.1), (0, 1, 0.5), (1, 1, 0.5)])
                .unwrap();
        let mut eng = m.engine(&PcpmConfig::default()).unwrap();
        let mut x = vec![0.5f32, 0.5];
        let mut y = vec![0.0f32; 2];
        for _ in 0..100 {
            eng.step(&x, &mut y).unwrap();
            let norm: f32 = y.iter().sum();
            x.iter_mut().zip(&y).for_each(|(xv, &yv)| *xv = yv / norm);
        }
        // Stationary vector of [[.9,.5],[.1,.5]]: x = (5/6, 1/6).
        assert!((x[0] - 5.0 / 6.0).abs() < 1e-3, "{x:?}");
        assert!((x[1] - 1.0 / 6.0).abs() < 1e-3, "{x:?}");
    }
}
