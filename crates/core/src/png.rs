//! The Partition-Node bipartite Graph (PNG) data layout (paper §3.3).
//!
//! For each *source* partition `s`, PNG stores a transposed bipartite
//! graph between the destination partitions `P` and the nodes of `s`:
//! row `p` of [`BipartitePart`] lists every node of `s` that has at least
//! one out-neighbor in destination partition `p` (in ascending node
//! order). This single structure realizes both effects of §3.3:
//!
//! - **Eff1** — edges from a node to the same partition collapse into one
//!   compressed edge, so the scatter phase never reads unused edges;
//! - **Eff2** — rows are indexed by partition (range `k`), so the
//!   transposed CSR needs only `k + 1` offsets per partition, `O(k²)`
//!   total.
//!
//! Compression and transposition are merged into one counting pass and one
//! filling pass, parallel over source partitions, exactly as described in
//! the paper. The same two passes also lay out the bins: the counting pass
//! sizes each `(s, p)` segment of the format's destination stream, and the
//! filling pass writes the destination stream and the weights beside the
//! PNG rows (`RunEncoder`), so a build reads the CSR twice whatever the
//! format.

use crate::partition::{split_by_lens, Partitioner};
use rayon::prelude::*;

/// A read-only view of an edge structure: sources in `[0, num_src)`, each
/// with a **sorted** target list in `[0, num_dst)`.
///
/// [`pcpm_graph::Csr`] provides the square case; the SpMV front end builds
/// rectangular views. Sorted target lists are a hard requirement: partition
/// runs must be contiguous for the single-scan construction and for the
/// MSB message demarcation.
#[derive(Clone, Copy, Debug)]
pub struct EdgeView<'a> {
    num_src: u32,
    num_dst: u32,
    offsets: &'a [u64],
    targets: &'a [u32],
}

impl<'a> EdgeView<'a> {
    /// Wraps raw CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if `offsets.len() != num_src + 1` or the final offset does
    /// not equal `targets.len()` (these are programmer errors, not data
    /// errors — both front ends validate their inputs first).
    pub fn new(num_src: u32, num_dst: u32, offsets: &'a [u64], targets: &'a [u32]) -> Self {
        assert_eq!(offsets.len(), num_src as usize + 1, "offsets length");
        assert_eq!(
            *offsets.last().expect("offsets non-empty") as usize,
            targets.len(),
            "final offset"
        );
        Self {
            num_src,
            num_dst,
            offsets,
            targets,
        }
    }

    /// View of a square graph.
    pub fn from_csr(graph: &'a pcpm_graph::Csr) -> Self {
        Self::new(
            graph.num_nodes(),
            graph.num_nodes(),
            graph.offsets(),
            graph.targets(),
        )
    }

    /// Number of source nodes.
    #[inline]
    pub fn num_src(&self) -> u32 {
        self.num_src
    }

    /// Number of destination nodes.
    #[inline]
    pub fn num_dst(&self) -> u32 {
        self.num_dst
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Sorted targets of source `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &'a [u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Edge-index range of source `v` (for weight lookup).
    #[inline]
    pub fn edge_range(&self, v: u32) -> std::ops::Range<u64> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }
}

/// The transposed bipartite graph of one source partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BipartitePart {
    /// `k_dst + 1` offsets into [`Self::sources`]; row `p` holds the
    /// compressed edges destined to partition `p`.
    pub upd_off: Vec<u64>,
    /// `k_dst + 1` offsets over *raw* edges to each destination partition;
    /// these place the destination-ID segments in the bins.
    pub did_off: Vec<u64>,
    /// Compressed-edge source nodes (global IDs), grouped by destination
    /// partition, ascending within each group.
    pub sources: Vec<u32>,
}

impl BipartitePart {
    /// Source nodes with at least one edge into destination partition `p`.
    #[inline]
    pub fn row(&self, p: u32) -> &[u32] {
        &self.sources[self.upd_off[p as usize] as usize..self.upd_off[p as usize + 1] as usize]
    }

    /// Number of compressed edges from this partition.
    #[inline]
    pub fn num_compressed(&self) -> u64 {
        self.sources.len() as u64
    }

    /// Number of raw edges from this partition.
    #[inline]
    pub fn num_raw(&self) -> u64 {
        *self.did_off.last().expect("non-empty")
    }
}

/// The full PNG layout: one [`BipartitePart`] per source partition plus
/// global bin-region prefix sums.
#[derive(Clone, Debug)]
pub struct Png {
    src_parts: Partitioner,
    dst_parts: Partitioner,
    parts: Vec<BipartitePart>,
    /// `k_src + 1` prefix over compressed-edge counts: the update-bin
    /// region written by each source partition.
    upd_region: Vec<u64>,
    /// `k_src + 1` prefix over raw-edge counts: the destination-ID-bin
    /// region written by each source partition.
    did_region: Vec<u64>,
}

impl Png {
    /// Builds the PNG for `view` under the given partitioners.
    ///
    /// Runs the merged compression + transposition of §3.3 in parallel
    /// over source partitions: the engine's two walks, writing no
    /// destination stream.
    pub fn build(view: EdgeView<'_>, src_parts: Partitioner, dst_parts: Partitioner) -> Self {
        build_layout::<()>(view, src_parts, dst_parts, None).png
    }

    /// Assembles a layout from its parts (a build, or the engine-snapshot
    /// load path): the region prefix sums are computed here, so they are
    /// consistent with `parts` by construction.
    pub(crate) fn from_parts(
        src_parts: Partitioner,
        dst_parts: Partitioner,
        parts: Vec<BipartitePart>,
    ) -> Self {
        let mut upd_region = Vec::with_capacity(parts.len() + 1);
        let mut did_region = Vec::with_capacity(parts.len() + 1);
        upd_region.push(0);
        did_region.push(0);
        for part in &parts {
            upd_region.push(upd_region.last().unwrap() + part.num_compressed());
            did_region.push(did_region.last().unwrap() + part.num_raw());
        }
        Self {
            src_parts,
            dst_parts,
            parts,
            upd_region,
            did_region,
        }
    }

    /// The source-side partitioner.
    #[inline]
    pub fn src_parts(&self) -> &Partitioner {
        &self.src_parts
    }

    /// The destination-side partitioner.
    #[inline]
    pub fn dst_parts(&self) -> &Partitioner {
        &self.dst_parts
    }

    /// The bipartite graph of source partition `s`.
    #[inline]
    pub fn part(&self, s: u32) -> &BipartitePart {
        &self.parts[s as usize]
    }

    /// Total compressed edges `|E'|`.
    #[inline]
    pub fn num_compressed_edges(&self) -> u64 {
        *self.upd_region.last().unwrap_or(&0)
    }

    /// Total raw edges `|E|`.
    #[inline]
    pub fn num_raw_edges(&self) -> u64 {
        *self.did_region.last().unwrap_or(&0)
    }

    /// Compression ratio `r = |E| / |E'|` (paper Table 2); 1.0 for an
    /// edgeless graph.
    pub fn compression_ratio(&self) -> f64 {
        let c = self.num_compressed_edges();
        if c == 0 {
            1.0
        } else {
            self.num_raw_edges() as f64 / c as f64
        }
    }

    /// Update-bin region prefix (`k_src + 1` entries): source partition
    /// `s` writes updates into `[upd_region[s], upd_region[s + 1])`.
    #[inline]
    pub fn upd_region(&self) -> &[u64] {
        &self.upd_region
    }

    /// Destination-ID-bin region prefix (`k_src + 1` entries).
    #[inline]
    pub fn did_region(&self) -> &[u64] {
        &self.did_region
    }

    /// Per-source-partition update-region lengths, for slice splitting.
    pub fn upd_region_lens(&self) -> Vec<usize> {
        self.upd_region
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect()
    }

    /// Per-source-partition destination-ID-region lengths.
    pub fn did_region_lens(&self) -> Vec<usize> {
        self.did_region
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect()
    }

    /// Heap bytes used by the layout (Table 8 pre-processing analysis):
    /// `O(k²)` offsets plus `|E'|` compressed-edge sources.
    pub fn memory_bytes(&self) -> u64 {
        let offsets: u64 = self
            .parts
            .iter()
            .map(|p| ((p.upd_off.len() + p.did_off.len()) * 8) as u64)
            .sum();
        offsets + self.num_compressed_edges() * 4 + ((self.upd_region.len() * 16) as u64)
    }
}

/// Walks the destination-partition runs of source partition `s`: calls
/// `f(v, p, run, edge_base)` once per maximal run of consecutive
/// neighbors of `v` landing in destination partition `p`, where `run` is
/// the slice of those (sorted) targets and `edge_base` the raw-edge index
/// of `run[0]`. One run is exactly one PNG compressed edge / one bin
/// message. A run ends at the first target past its partition's last
/// node, so there is one divide per run, not one per edge.
pub(crate) fn for_each_run(
    view: EdgeView<'_>,
    src_parts: &Partitioner,
    dst_parts: &Partitioner,
    s: u32,
    mut f: impl FnMut(u32, u32, &[u32], u64),
) {
    let q = dst_parts.partition_size();
    for v in src_parts.range(s) {
        let mut rest = view.neighbors(v);
        let mut base = view.edge_range(v).start;
        while let Some(&first) = rest.first() {
            let p = first / q;
            // A partition that would end past `u32::MAX` holds every
            // target from its first node on, so saturating is exact.
            let last = (p * q).saturating_add(q - 1);
            let len = rest.iter().position(|&t| t > last).unwrap_or(rest.len());
            let (run, tail) = rest.split_at(len);
            f(v, p, run, base);
            base += len as u64;
            rest = tail;
        }
    }
}

/// How one format's destination stream is sized and written, run by run.
/// The count walk sizes each `(s, p)` segment; the fill walk writes every
/// run at its segment's cursor.
pub(crate) trait RunEncoder {
    /// The stream's storage unit.
    type Unit: Copy + Default + Send + Sync;
    /// Where the next run of one segment goes.
    type Cursor;
    /// Whether every raw edge takes one unit, so the stream's length is
    /// known before either walk runs.
    const UNIT_PER_EDGE: bool;
    /// Zeroed units kept past the last segment.
    const SLACK: usize = 0;

    /// Units the values of `run` take; `p_base` is its destination
    /// partition's first node.
    fn run_units(run: &[u32], _p_base: u32) -> u64 {
        run.len() as u64
    }

    /// Units a segment of `entries` raw edges takes besides its runs'.
    fn segment_header(_entries: u64) -> u64 {
        0
    }

    /// The cursor of a segment of `entries` raw edges that starts at unit
    /// `at` of its region.
    fn cursor(at: usize, entries: usize) -> Self::Cursor;

    /// Writes `run` at `at` in `region` and moves `at` past it.
    fn put_run(region: &mut [Self::Unit], at: &mut Self::Cursor, run: &[u32], p_base: u32);
}

/// No destination stream: the PNG alone ([`Png::build`]).
impl RunEncoder for () {
    type Unit = ();
    type Cursor = ();
    const UNIT_PER_EDGE: bool = true;

    fn cursor(_at: usize, _entries: usize) {}

    fn put_run(_region: &mut [()], _at: &mut (), _run: &[u32], _p_base: u32) {}
}

/// A PNG and one format's destination stream over it.
pub(crate) struct Layout<U> {
    pub(crate) png: Png,
    /// Source-partition-major, then [`RunEncoder::SLACK`] zeroed units.
    pub(crate) dest: Vec<U>,
    /// `k_src + 1` offsets of each source partition's region of `dest`.
    pub(crate) dest_region: Vec<u64>,
    /// Per source partition, `k_dst + 1` segment offsets in its region.
    pub(crate) seg_off: Vec<Vec<u64>>,
    /// The edge weights in raw-edge bin order, when built weighted.
    pub(crate) weights: Option<Vec<f32>>,
}

/// Builds the PNG, `E`'s destination stream and, given CSR-order
/// `edge_weights`, the weight stream, in parallel over source partitions:
/// one count walk, one prefix sum, one fill walk that writes all three.
pub(crate) fn build_layout<E: RunEncoder>(
    view: EdgeView<'_>,
    src_parts: Partitioner,
    dst_parts: Partitioner,
    edge_weights: Option<&[f32]>,
) -> Layout<E::Unit> {
    // A one-unit-per-edge stream, the build's largest allocation, is
    // claimed before the walks allocate anything. Claimed after, the
    // PNG's parts (allocated partly on the submitting thread, which works
    // its own pool jobs) split the block a dropped engine's stream left
    // free, and this stream grows the heap instead of reusing it: glibc's
    // dynamic mmap threshold serves it from the heap once one such block
    // has been freed. Measured on `pr-cache` (ten runs each, 2-vCPU
    // x86-64): peak RSS 15.50 MiB median with the PNG first, 13.29 MiB
    // with this order.
    let presized = E::UNIT_PER_EDGE.then(|| vec![E::Unit::default(); view.num_edges() as usize]);
    let counts: Vec<Counts> = {
        let _span = crate::telemetry::span("build.count");
        (0..src_parts.num_partitions())
            .into_par_iter()
            .map(|s| count_part::<E>(view, &src_parts, &dst_parts, s))
            .collect()
    };
    let _span = crate::telemetry::span("build.fill");
    // Each source partition's raw edges and stream units.
    let [did_lens, seg_lens] = [1, 2].map(|i| -> Vec<usize> {
        counts
            .iter()
            .map(|c| c[i][c[i].len() - 1] as usize)
            .collect()
    });
    let dest_region = offsets(seg_lens.iter().map(|&l| l as u64));
    let total = dest_region[dest_region.len() - 1] as usize;
    let mut dest = presized.unwrap_or_else(|| vec![E::Unit::default(); total + E::SLACK]);
    assert_eq!(
        dest.len(),
        total + E::SLACK,
        "stream sized by the count walk"
    );
    let mut weights = edge_weights.map(|_| vec![0.0f32; view.num_edges() as usize]);
    let wregions: Vec<Option<&mut [f32]>> = match &mut weights {
        Some(w) => split_by_lens(w, &did_lens).into_iter().map(Some).collect(),
        None => did_lens.iter().map(|_| None).collect(),
    };
    let filled: Vec<(BipartitePart, Vec<u64>)> = split_by_lens(&mut dest[..total], &seg_lens)
        .into_par_iter()
        .zip(wregions)
        .zip(counts)
        .enumerate()
        .map(|(s, ((region, wregion), counts))| {
            let weights = wregion.zip(edge_weights);
            fill_part::<E>(
                view, &src_parts, &dst_parts, s as u32, counts, region, weights,
            )
        })
        .collect();
    let (parts, seg_off) = filled.into_iter().unzip();
    Layout {
        png: Png::from_parts(src_parts, dst_parts, parts),
        dest,
        dest_region,
        seg_off,
        weights,
    }
}

/// `0` and the running sums of `lens`: where each piece starts, then the
/// end.
fn offsets(lens: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let ends = lens.into_iter().scan(0, |end, len| {
        *end += len;
        Some(*end)
    });
    std::iter::once(0).chain(ends).collect()
}

/// What the count walk measures of one source partition:
/// `[upd_off, did_off, seg_off]`, `k_dst + 1` offsets each over its
/// compressed edges, raw edges and stream units.
type Counts = [Vec<u64>; 3];

/// The count walk of source partition `s`.
fn count_part<E: RunEncoder>(
    view: EdgeView<'_>,
    src_parts: &Partitioner,
    dst_parts: &Partitioner,
    s: u32,
) -> Counts {
    let k = dst_parts.num_partitions() as usize;
    let q = dst_parts.partition_size();
    // Partition `p`'s totals at `p + 1`, summed into offsets below.
    let [mut upd, mut did, mut seg] = [(); 3].map(|_| vec![0u64; k + 1]);
    for_each_run(view, src_parts, dst_parts, s, |_v, p, run, _| {
        let i = p as usize + 1;
        upd[i] += 1;
        did[i] += run.len() as u64;
        seg[i] += E::run_units(run, p * q);
    });
    for p in 0..k {
        upd[p + 1] += upd[p];
        seg[p + 1] += E::segment_header(did[p + 1]) + seg[p];
        did[p + 1] += did[p];
    }
    [upd, did, seg]
}

/// The fill walk of source partition `s`: its PNG rows, its `region` of
/// the destination stream and, when weighted, its region of the weight
/// stream with the CSR-order weights it is copied from.
fn fill_part<E: RunEncoder>(
    view: EdgeView<'_>,
    src_parts: &Partitioner,
    dst_parts: &Partitioner,
    s: u32,
    [upd_off, did_off, seg_off]: Counts,
    region: &mut [E::Unit],
    mut weights: Option<(&mut [f32], &[f32])>,
) -> (BipartitePart, Vec<u64>) {
    let q = dst_parts.partition_size();
    let mut sources = vec![0u32; upd_off[upd_off.len() - 1] as usize];
    // Per destination partition: the next compressed edge, raw edge and
    // stream unit.
    let (mut upd_at, mut did_at) = (upd_off.clone(), did_off.clone());
    let mut seg_at: Vec<E::Cursor> = (0..upd_off.len() - 1)
        .map(|p| E::cursor(seg_off[p] as usize, (did_off[p + 1] - did_off[p]) as usize))
        .collect();
    for_each_run(view, src_parts, dst_parts, s, |v, p, run, base| {
        let p = p as usize;
        sources[upd_at[p] as usize] = v;
        upd_at[p] += 1;
        E::put_run(region, &mut seg_at[p], run, (p as u32) * q);
        if let Some((wregion, ew)) = weights.as_mut() {
            let (at, base) = (did_at[p] as usize, base as usize);
            wregion[at..at + run.len()].copy_from_slice(&ew[base..base + run.len()]);
            did_at[p] += run.len() as u64;
        }
    });
    let part = BipartitePart {
        upd_off,
        did_off,
        sources,
    };
    (part, seg_off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcpm_graph::Csr;

    /// The example graph of paper Fig. 3a: 9 nodes, partitions of size 3.
    ///
    /// Edges (read off the figure/bins): messages into bin 0 come from
    /// nodes 3, 6, 6, 7 with dests {2}, {0,1}... we use the figure's bin
    /// content: bin0 gets PR[3]->2, PR[6]->{0,1}? The published figure
    /// shows bin 0 receiving updates from 3, 6, 7 to dests 2,0,1,2 and
    /// bin 2 receiving PR[2]->8, PR[7]->8. We encode a consistent graph:
    fn fig3_graph() -> Csr {
        // partition 0: {0,1,2}, partition 1: {3,4,5}, partition 2: {6,7,8}
        Csr::from_edges(
            9,
            &[
                (3, 2), // P1 -> bin 0, one dest
                (6, 0),
                (6, 1), // node 6 -> bin 0, two dests (one update)
                (7, 2), // node 7 -> bin 0
                (3, 4), // P1 internal -> bin 1
                (6, 3),
                (6, 4), // node 6 -> bin 1
                (7, 5), // node 7 -> bin 1
                (2, 8), // P0 -> bin 2
                (7, 8), // P2 internal -> bin 2
            ],
        )
        .unwrap()
    }

    fn build(g: &Csr, q: u32) -> Png {
        let parts = Partitioner::new(g.num_nodes(), q).unwrap();
        Png::build(EdgeView::from_csr(g), parts, parts)
    }

    #[test]
    fn fig3_compression_counts() {
        let png = build(&fig3_graph(), 3);
        // Raw edges: 10. Compressed: node 3 -> {P0, P1}, node 6 -> {P0, P1},
        // node 7 -> {P0, P1, P2}, node 2 -> {P2}: 8 compressed edges.
        assert_eq!(png.num_raw_edges(), 10);
        assert_eq!(png.num_compressed_edges(), 8);
        assert!((png.compression_ratio() - 10.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn fig3_rows_match_figure5() {
        let png = build(&fig3_graph(), 3);
        // Fig. 5: bipartite graph of P1 has edges into P0 from {3, ...}.
        // Partition 1 owns nodes {3,4,5}; rows by destination partition:
        let p1 = png.part(1);
        assert_eq!(p1.row(0), &[3]); // node 3 -> P0 (dest 2)
        assert_eq!(p1.row(1), &[3]); // node 3 -> P1 (dest 4)
        assert_eq!(p1.row(2), &[] as &[u32]);
        // Partition 2 owns {6,7,8}.
        let p2 = png.part(2);
        assert_eq!(p2.row(0), &[6, 7]);
        assert_eq!(p2.row(1), &[6, 7]);
        assert_eq!(p2.row(2), &[7]);
        // Partition 0 owns {0,1,2}.
        let p0 = png.part(0);
        assert_eq!(p0.row(2), &[2]);
    }

    #[test]
    fn did_offsets_count_raw_edges_per_pair() {
        let png = build(&fig3_graph(), 3);
        let p2 = png.part(2);
        // Partition 2 sends raw edges: to P0 {6->0, 6->1, 7->2} = 3,
        // to P1 {6->3, 6->4, 7->5} = 3, to P2 {7->8} = 1.
        assert_eq!(p2.did_off, vec![0, 3, 6, 7]);
        assert_eq!(p2.num_raw(), 7);
    }

    #[test]
    fn regions_are_prefix_sums() {
        let png = build(&fig3_graph(), 3);
        assert_eq!(png.upd_region().len(), 4);
        assert_eq!(*png.upd_region().last().unwrap(), 8);
        assert_eq!(*png.did_region().last().unwrap(), 10);
        let lens = png.upd_region_lens();
        assert_eq!(lens.iter().sum::<usize>(), 8);
    }

    #[test]
    fn single_partition_compresses_per_node() {
        // One partition covering everything: every node with out-degree>0
        // contributes exactly one compressed edge, r = m / #non-dangling.
        let g = fig3_graph();
        let png = build(&g, 100);
        let senders = (0..g.num_nodes()).filter(|&v| g.out_degree(v) > 0).count() as u64;
        assert_eq!(png.num_compressed_edges(), senders);
    }

    #[test]
    fn partition_size_one_disables_compression() {
        let g = fig3_graph();
        let png = build(&g, 1);
        assert_eq!(png.num_compressed_edges(), g.num_edges());
        assert!((png.compression_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compression_monotone_in_partition_size() {
        // Fig. 11: r grows (weakly) with partition size.
        let g = pcpm_graph::gen::rmat(&pcpm_graph::gen::RmatConfig::graph500(10, 8, 21)).unwrap();
        let mut last = 0.0;
        for q in [1u32, 4, 16, 64, 256, 1024] {
            let r = build(&g, q).compression_ratio();
            assert!(r >= last - 1e-12, "r dropped: {last} -> {r} at q={q}");
            last = r;
        }
    }

    #[test]
    fn compression_bounds() {
        let g = pcpm_graph::gen::erdos_renyi(500, 3000, 3).unwrap();
        for q in [7u32, 64, 500] {
            let png = build(&g, q);
            let r = png.compression_ratio();
            assert!(r >= 1.0 - 1e-12);
            // A compressed edge covers at most q distinct targets, so
            // m <= q * |E'| and r <= q.
            assert!(r <= f64::from(q) + 1e-12, "r={r} exceeds q={q}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]).unwrap();
        let png = build(&g, 4);
        assert_eq!(png.num_compressed_edges(), 0);
        assert_eq!(png.compression_ratio(), 1.0);
    }

    /// One run as the walk reports it: `(v, p, run, edge_base)`.
    type Run = (u32, u32, Vec<u32>, u64);

    /// Every run of `view`: the walk's, and the walk it replaced (a
    /// divide per edge) as its oracle.
    fn runs(view: EdgeView<'_>, src: &Partitioner, q: u32) -> [Vec<Run>; 2] {
        let dst = Partitioner::new(view.num_dst(), q).unwrap();
        let (mut walked, mut oracle) = (Vec::new(), Vec::new());
        for s in src.iter() {
            for_each_run(view, src, &dst, s, |v, p, run, base| {
                walked.push((v, p, run.to_vec(), base));
            });
            for v in src.range(s) {
                let (nbrs, base) = (view.neighbors(v), view.edge_range(v).start);
                let mut i = 0;
                while i < nbrs.len() {
                    let p = nbrs[i] / q;
                    let mut j = i + 1;
                    while j < nbrs.len() && nbrs[j] / q == p {
                        j += 1;
                    }
                    oracle.push((v, p, nbrs[i..j].to_vec(), base + i as u64));
                    i = j;
                }
            }
        }
        [walked, oracle]
    }

    #[test]
    fn runs_end_at_partition_boundaries_as_the_divide_walk_does() {
        // (q, num_dst): small partitions, one holding every node, and the
        // whole `u32` range up to the wide format's largest `q`.
        let small = [(1, 20), (3, 20), (7, 20), (20, 20), (64, 20)];
        let full = [1, 3, 7, 1 << 31, u32::MAX].map(|q| (q, u32::MAX));
        for (q, num_dst) in small.into_iter().chain(full) {
            // Targets at p·q − 1, p·q and p·q + 1 for the first and last
            // multiples of q, and at the ends of the range.
            let last = u32::MAX / q * q;
            let mut near = vec![0, 1, u32::MAX - 1, u32::MAX, last - 1, last];
            for b in (1..=4).filter_map(|m| q.checked_mul(m)) {
                near.extend([b - 1, b, b.saturating_add(1)]);
            }
            near.retain(|&t| t < num_dst);
            near.sort_unstable();
            near.dedup();
            // Six sources (a rectangular view): empty rows, every target,
            // each twice, every other one, and odd rows' self-loops.
            let (mut offsets, mut targets) = (vec![0u64], Vec::new());
            for v in 0..6u32 {
                let mut row: Vec<u32> = match v % 4 {
                    0 => Vec::new(),
                    1 => near.clone(),
                    2 => near.iter().flat_map(|&t| [t, t]).collect(),
                    _ => near.iter().copied().step_by(2).collect(),
                };
                row.extend((v % 2 == 1).then_some(v));
                row.sort_unstable();
                targets.extend(row);
                offsets.push(targets.len() as u64);
            }
            let view = EdgeView::new(6, num_dst, &offsets, &targets);
            let [walked, oracle] = runs(view, &Partitioner::new(6, 4).unwrap(), q);
            assert_eq!(walked, oracle, "q={q} n={num_dst}");
            let edges: usize = walked.iter().map(|r| r.2.len()).sum();
            assert_eq!(edges, targets.len(), "q={q}");
        }
    }

    #[test]
    fn rectangular_view() {
        // 3 sources, 5 destinations.
        let offsets = vec![0u64, 2, 2, 4];
        let targets = vec![0u32, 4, 1, 2];
        let view = EdgeView::new(3, 5, &offsets, &targets);
        let png = Png::build(
            view,
            Partitioner::new(3, 2).unwrap(),
            Partitioner::new(5, 2).unwrap(),
        );
        assert_eq!(png.num_raw_edges(), 4);
        // src 0 -> {P0, P2}, src 2 -> {P0, P1}: 4 compressed (no sharing).
        assert_eq!(png.num_compressed_edges(), 4);
        assert_eq!(png.part(0).row(2), &[0]);
        assert_eq!(png.part(1).row(0), &[2]);
    }
}
