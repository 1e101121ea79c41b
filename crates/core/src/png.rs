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
//! the paper.

use crate::partition::Partitioner;
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
    /// over source partitions.
    pub fn build(view: EdgeView<'_>, src_parts: Partitioner, dst_parts: Partitioner) -> Self {
        let parts: Vec<BipartitePart> = (0..src_parts.num_partitions())
            .into_par_iter()
            .map(|s| build_part(view, &src_parts, &dst_parts, s))
            .collect();
        Self::from_parts(src_parts, dst_parts, parts)
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
/// message — this walk is the single partition scan shared by the PNG
/// build, every [`crate::format::BinFormat`] encoder and the weight
/// stream fill.
pub(crate) fn for_each_run(
    view: EdgeView<'_>,
    src_parts: &Partitioner,
    dst_parts: &Partitioner,
    s: u32,
    mut f: impl FnMut(u32, u32, &[u32], u64),
) {
    let q = dst_parts.partition_size();
    for v in src_parts.range(s) {
        let nbrs = view.neighbors(v);
        let base = view.edge_range(v).start;
        let mut i = 0;
        while i < nbrs.len() {
            let p = nbrs[i] / q;
            let mut j = i + 1;
            while j < nbrs.len() && nbrs[j] / q == p {
                j += 1;
            }
            f(v, p, &nbrs[i..j], base + i as u64);
            i = j;
        }
    }
}

/// Builds the transposed bipartite graph of one source partition: one
/// counting scan, one prefix sum, one filling scan.
fn build_part(
    view: EdgeView<'_>,
    src_parts: &Partitioner,
    dst_parts: &Partitioner,
    s: u32,
) -> BipartitePart {
    let k = dst_parts.num_partitions() as usize;
    let mut upd_deg = vec![0u64; k];
    let mut did_deg = vec![0u64; k];
    for_each_run(view, src_parts, dst_parts, s, |_v, p, run, _| {
        upd_deg[p as usize] += 1;
        did_deg[p as usize] += run.len() as u64;
    });
    let mut upd_off = vec![0u64; k + 1];
    let mut did_off = vec![0u64; k + 1];
    for p in 0..k {
        upd_off[p + 1] = upd_off[p] + upd_deg[p];
        did_off[p + 1] = did_off[p] + did_deg[p];
    }
    let mut sources = vec![0u32; *upd_off.last().unwrap() as usize];
    let mut cursor = upd_off.clone();
    for_each_run(view, src_parts, dst_parts, s, |v, p, _run, _| {
        sources[cursor[p as usize] as usize] = v;
        cursor[p as usize] += 1;
    });
    BipartitePart {
        upd_off,
        did_off,
        sources,
    }
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
