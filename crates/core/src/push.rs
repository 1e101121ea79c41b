//! The pushed round: `y ← Aᵀ·x` along the adjacency, from the nonzero
//! entries of `x` only. [`crate::fixed_point`] runs it instead of a
//! gather while a query's inputs reach few edges, and its module docs say
//! why the two agree bit for bit over `PlusF32`.

use pcpm_graph::Csr;

/// Entries of `x` tested at once by the nonzero scan.
const BLOCK: usize = 64;

/// The entries of `x` that are not `±0.0`, ascending by node. A block of
/// [`BLOCK`] entries is tested with one OR over their bits, sign bit
/// dropped, so an all-zero block costs a few vector instructions.
fn nonzeros(x: &[f32]) -> impl Iterator<Item = (u32, f32)> + '_ {
    let blocks = (0u32..).step_by(BLOCK).zip(x.chunks(BLOCK));
    blocks
        .filter(|(_, block)| block.iter().fold(0, |any, v| any | v.to_bits() << 1) != 0)
        .flat_map(|(first, block)| (first..).zip(block.iter().copied()))
        .filter(|&(_, value)| value != 0.0)
}

/// Whether the nonzero entries of `xs` reach at most `budget` out-edges
/// of `graph` together; stops counting past it.
pub(crate) fn live_edges_within(graph: &Csr, xs: &[&[f32]], budget: u64) -> bool {
    let offsets = graph.offsets();
    let mut live = 0;
    for x in xs {
        for (v, _) in nonzeros(x) {
            live += offsets[v as usize + 1] - offsets[v as usize];
            if live > budget {
                return false;
            }
        }
    }
    true
}

/// `y ← Aᵀ·x` over `graph`: zeroes `y`, then adds each nonzero `x[v]` to
/// its out-neighbours' sums, `v` ascending. Returns the edges pushed.
pub(crate) fn push(graph: &Csr, x: &[f32], y: &mut [f32]) -> u64 {
    y.fill(0.0);
    let mut edges = 0;
    for (v, value) in nonzeros(x) {
        let targets = graph.neighbors(v);
        for &t in targets {
            y[t as usize] += value;
        }
        edges += targets.len() as u64;
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::PlusF32;
    use crate::backend::Engine;
    use crate::format::BinFormatKind;
    use pcpm_graph::gen::{rmat, RmatConfig};

    /// Every kind of `f32` a sum can meet, zero of both signs among them.
    const SPECIAL: [f32; 9] = [
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 4.0,
        -f32::from_bits(1),
        1.5,
        -0.25,
    ];

    /// Mostly `±0.0`, every other kind sprinkled in: long zero runs skip
    /// whole blocks, and the rest end up in blocks of their own.
    fn sparse_x(n: usize) -> Vec<f32> {
        (0..n)
            .map(|v| match v % 97 {
                0 => SPECIAL[(v / 97) % SPECIAL.len()],
                1 => -0.0,
                _ => 0.0,
            })
            .collect()
    }

    /// Equal bits, or NaN on both sides: which NaN payload survives when
    /// two meet is the compiler's choice, on the gather's side too.
    fn same(a: &[f32], b: &[f32]) -> bool {
        let bits = |(a, b): (&f32, &f32)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        a.len() == b.len() && a.iter().zip(b).all(bits)
    }

    #[test]
    fn nonzeros_are_every_entry_but_the_zeros_in_order() {
        let x = sparse_x(1000);
        let want: Vec<(u32, u32)> = (0..)
            .zip(&x)
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, v)| (i, v.to_bits()))
            .collect();
        let got: Vec<(u32, u32)> = nonzeros(&x).map(|(i, v)| (i, v.to_bits())).collect();
        assert_eq!(got, want);
        assert_eq!(nonzeros(&[-0.0; 200]).count(), 0);
    }

    #[test]
    fn a_push_equals_the_gather_on_zeros_of_both_signs_nan_infinity_and_subnormals() {
        let g = rmat(&RmatConfig::graph500(9, 8, 5)).unwrap();
        let n = g.num_nodes() as usize;
        let mut inputs = vec![sparse_x(n)];
        // Dense: every source live, the specials included.
        inputs.push((0..n).map(|v| SPECIAL[v % SPECIAL.len()]).collect());
        for format in BinFormatKind::ALL {
            for partition_bytes in [64 * 4, 1 << 16] {
                let mut engine = Engine::<PlusF32>::builder(&g)
                    .partition_bytes(partition_bytes)
                    .bin_format(format)
                    .build()
                    .unwrap();
                for x in &inputs {
                    let mut gathered = vec![f32::NAN; n];
                    engine.step(x, &mut gathered).unwrap();
                    let mut pushed = vec![f32::NAN; n];
                    let live = nonzeros(x).map(|(v, _)| g.out_degree(v) as u64).sum();
                    assert_eq!(push(&g, x, &mut pushed), live);
                    assert!(same(&pushed, &gathered), "{format} q {partition_bytes}");
                }
            }
        }
    }

    #[test]
    fn a_push_adds_a_repeated_edge_twice_in_a_row() {
        // Node 2 sums 1 + 1 + 2^24 = 2^24 + 2 in source order; any other
        // order rounds one 1 away and gives 2^24.
        let g = Csr::from_edges(3, &[(0, 2), (1, 2), (0, 2), (2, 0)]).unwrap();
        let x = [1.0, 16_777_216.0, -0.0];
        let mut gathered = [0.0; 3];
        let mut engine = Engine::<PlusF32>::builder(&g).build().unwrap();
        engine.step(&x, &mut gathered).unwrap();
        let mut pushed = [f32::NAN; 3];
        assert_eq!(push(&g, &x, &mut pushed), 3);
        assert_eq!(pushed.map(f32::to_bits), gathered.map(f32::to_bits));
        assert_eq!(pushed[2], 16_777_218.0);
    }

    #[test]
    fn the_live_edge_count_stops_at_its_budget() {
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 2), (3, 0)]).unwrap();
        let (x, y) = ([1.0, 0.0, 0.0, -0.0], [0.0, 2.0, 0.0, 0.0]);
        assert!(live_edges_within(&g, &[&x, &y], 3));
        assert!(!live_edges_within(&g, &[&x, &y], 2));
        assert!(live_edges_within(&g, &[&[0.0; 4]], 0));
    }
}
