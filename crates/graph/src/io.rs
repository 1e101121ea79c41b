//! Graph serialization: text edge lists and a compact binary format.
//!
//! The text format is the de-facto standard `src dst` whitespace-separated
//! edge list with `#` comments (SNAP-compatible). The binary format is a
//! little-endian dump of the CSR arrays with a magic header, suitable for
//! caching generated stand-ins between harness runs.

use crate::csr::{Csr, NodeId};
use crate::error::GraphError;
use crate::GraphBuilder;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying the binary CSR format ("PCPMGRPH", version 1).
const MAGIC: &[u8; 8] = b"PCPMGR01";

/// Parses a whitespace-separated edge list from a reader.
///
/// Lines starting with `#` or `%` are comments. Node IDs may be sparse;
/// the graph size is `max_id + 1` unless `num_nodes` is given.
pub fn read_edge_list<R: Read>(reader: R, num_nodes: Option<u32>) -> Result<Csr, GraphError> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut max_id: u32 = 0;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>, idx: usize| -> Result<u32, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: idx + 1,
                message: "expected two node IDs".into(),
            })?
            .parse::<u32>()
            .map_err(|e| GraphError::Parse {
                line: idx + 1,
                message: e.to_string(),
            })
        };
        let s = parse(it.next(), idx)?;
        let t = parse(it.next(), idx)?;
        max_id = max_id.max(s).max(t);
        edges.push((s, t));
    }
    let n = match num_nodes {
        Some(n) => n,
        None if edges.is_empty() => 0,
        None => max_id + 1,
    };
    let mut b = GraphBuilder::with_capacity(n, edges.len())?;
    b.extend(edges);
    b.build()
}

/// Writes a graph as a `src dst` text edge list.
pub fn write_edge_list<W: Write>(graph: &Csr, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# nodes: {} edges: {}",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    for (s, t) in graph.edges() {
        writeln!(w, "{s} {t}")?;
    }
    w.flush()?;
    Ok(())
}

/// Byte length of `graph` in the binary format.
pub fn encoded_len(graph: &Csr) -> usize {
    MAGIC.len() + 12 + graph.offsets().len() * 8 + graph.targets().len() * 4
}

/// Appends `graph` in the binary format to `buf`.
pub fn encode_into(graph: &Csr, buf: &mut Vec<u8>) {
    buf.reserve(encoded_len(graph));
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&graph.num_nodes().to_le_bytes());
    buf.extend_from_slice(&graph.num_edges().to_le_bytes());
    put_le(buf, graph.offsets(), u64::to_le_bytes);
    put_le(buf, graph.targets(), u32::to_le_bytes);
}

/// Serializes the CSR into the binary format.
pub fn to_bytes(graph: &Csr) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_len(graph));
    encode_into(graph, &mut buf);
    buf
}

/// Appends `xs` to `buf` as consecutive little-endian `W`-byte words:
/// one resize, then one pass the compiler turns into wide stores.
pub fn put_le<T: Copy, const W: usize>(buf: &mut Vec<u8>, xs: &[T], to_le: impl Fn(T) -> [u8; W]) {
    let start = buf.len();
    buf.resize(start + xs.len() * W, 0);
    for (out, &x) in buf[start..].chunks_exact_mut(W).zip(xs) {
        out.copy_from_slice(&to_le(x));
    }
}

/// Decodes `raw` as consecutive little-endian `W`-byte words. Callers
/// size `raw` to a whole number of words; a partial trailing word would
/// be dropped.
pub fn get_le<T, const W: usize>(raw: &[u8], from_le: impl Fn([u8; W]) -> T) -> Vec<T> {
    debug_assert_eq!(raw.len() % W, 0, "a whole number of words");
    raw.chunks_exact(W)
        .map(|c| from_le(c.try_into().expect("chunks_exact yields W bytes")))
        .collect()
}

/// Reads the little-endian `u64` at `data[at..at + 8]`; the caller has
/// checked the length.
fn u64_at(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("length checked above"))
}

/// Bytes of the binary format before the offsets: the magic, `n` and `m`.
pub const GRAPH_HEADER_LEN: usize = MAGIC.len() + 12;

/// Checks a binary-format header and returns the node count `n`, the
/// edge count `m` and the byte length of the offsets and targets that
/// must follow it.
pub fn graph_header(head: &[u8; GRAPH_HEADER_LEN]) -> Result<(u32, u64, usize), GraphError> {
    if &head[..MAGIC.len()] != MAGIC {
        return Err(GraphError::CorruptBinary("bad magic"));
    }
    let n = u32::from_le_bytes(head[8..12].try_into().expect("sized by the array"));
    let m = u64_at(head, 12);
    let body = (n as usize + 1)
        .checked_mul(8)
        .zip((m as usize).checked_mul(4))
        .and_then(|(offsets, targets)| offsets.checked_add(targets))
        .ok_or(GraphError::CorruptBinary("size overflow"))?;
    Ok((n, m, body))
}

/// Deserializes a CSR from the binary format, revalidating all invariants.
pub fn from_bytes(data: &[u8]) -> Result<Csr, GraphError> {
    let (head, body) = data
        .split_first_chunk::<GRAPH_HEADER_LEN>()
        .ok_or(GraphError::CorruptBinary("truncated header"))?;
    let (n, _, need) = graph_header(head)?;
    if body.len() != need {
        return Err(GraphError::CorruptBinary("payload size mismatch"));
    }
    let (offsets, targets) = body.split_at((n as usize + 1) * 8);
    Csr::from_parts(
        n,
        get_le(offsets, u64::from_le_bytes),
        get_le(targets, u32::from_le_bytes),
    )
}

/// The repository's one checksum: FNV-1a 64 run over little-endian
/// 8-byte words instead of single bytes.
///
/// Exactly: `h = 0xcbf29ce484222325`; for each 8-byte word `w` of
/// `data`, read little-endian with the last word zero-padded,
/// `h = (h ^ w) · 0x100000001b3` (mod 2⁶⁴); finally the same step with
/// `w = data.len()`. Each step is a bijection in `h` and injective in
/// `w`, so any change confined to one word — every single-byte change
/// among them — always changes the sum; folding the length in tells a
/// payload from itself with zero bytes appended. One multiply per eight
/// bytes lets it cover multi-hundred-megabyte snapshot payloads at
/// memory speed. It guards the engine-snapshot cache
/// (`pcpm_core::snapshot`) and the update-batch frame, rejecting
/// corrupted or truncated input.
pub fn checksum64(data: &[u8]) -> u64 {
    let mut sum = Checksum64::default();
    sum.update(data);
    sum.finish()
}

/// [`checksum64`] of data that arrives in pieces: after any sequence of
/// [`Checksum64::update`] calls, [`Checksum64::finish`] is the checksum
/// of their concatenation.
#[derive(Clone, Debug)]
pub struct Checksum64 {
    h: u64,
    len: u64,
    /// The bytes of a word not yet complete.
    tail: [u8; 8],
    tail_len: usize,
}

impl Default for Checksum64 {
    fn default() -> Self {
        Self {
            h: 0xcbf2_9ce4_8422_2325,
            len: 0,
            tail: [0; 8],
            tail_len: 0,
        }
    }
}

impl Checksum64 {
    fn step(h: u64, w: u64) -> u64 {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    }

    /// Folds in the next piece of the data.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.tail_len > 0 {
            let k = (8 - self.tail_len).min(data.len());
            self.tail[self.tail_len..self.tail_len + k].copy_from_slice(&data[..k]);
            self.tail_len += k;
            data = &data[k..];
            if self.tail_len < 8 {
                return;
            }
            self.h = Self::step(self.h, u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut words = data.chunks_exact(8);
        self.h = words.by_ref().fold(self.h, |h, c| {
            Self::step(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        });
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u64 {
        let mut h = self.h;
        if self.tail_len > 0 {
            let mut last = [0u8; 8];
            last[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
            h = Self::step(h, u64::from_le_bytes(last));
        }
        Self::step(h, self.len)
    }
}

/// Magic bytes identifying the binary edge-weight format ("PCPMWT", v1).
const WEIGHTS_MAGIC: &[u8; 8] = b"PCPMWT01";

/// Byte length of `m` edge weights in the binary weight format.
pub fn weights_encoded_len(m: usize) -> usize {
    WEIGHTS_MAGIC.len() + 8 + m * 4
}

/// Appends an edge-weight vector (CSR order) to `buf` as a
/// little-endian blob with a magic header and an explicit count.
pub fn weights_encode_into(weights: &[f32], buf: &mut Vec<u8>) {
    buf.reserve(weights_encoded_len(weights.len()));
    buf.extend_from_slice(WEIGHTS_MAGIC);
    buf.extend_from_slice(&(weights.len() as u64).to_le_bytes());
    put_le(buf, weights, f32::to_le_bytes);
}

/// Bytes of an edge-weight blob before the weights: the magic and the count.
pub const WEIGHTS_HEADER_LEN: usize = WEIGHTS_MAGIC.len() + 8;

/// Checks an edge-weight blob's header against (when given) the edge
/// count of the graph the weights must be parallel to, and returns the
/// weight count.
pub fn weights_header(
    head: &[u8; WEIGHTS_HEADER_LEN],
    expect_edges: Option<u64>,
) -> Result<u64, GraphError> {
    if &head[..WEIGHTS_MAGIC.len()] != WEIGHTS_MAGIC {
        return Err(GraphError::CorruptBinary("bad weights magic"));
    }
    let m = u64_at(head, WEIGHTS_MAGIC.len());
    if expect_edges.is_some_and(|want| m != want) {
        return Err(GraphError::CorruptBinary("weight count mismatch"));
    }
    Ok(m)
}

/// Deserializes an edge-weight blob written by [`weights_encode_into`],
/// validating the magic, the count and (when given) the edge count of
/// the graph the weights must be parallel to.
pub fn weights_from_bytes(data: &[u8], expect_edges: Option<u64>) -> Result<Vec<f32>, GraphError> {
    let (head, body) = data
        .split_first_chunk::<WEIGHTS_HEADER_LEN>()
        .ok_or(GraphError::CorruptBinary("truncated weights header"))?;
    let m = weights_header(head, expect_edges)?;
    if body.len()
        != (m as usize)
            .checked_mul(4)
            .ok_or(GraphError::CorruptBinary("size overflow"))?
    {
        return Err(GraphError::CorruptBinary("weights payload size mismatch"));
    }
    Ok(get_le(body, f32::from_le_bytes))
}

/// Writes the binary format to a file path.
pub fn save_binary<P: AsRef<Path>>(graph: &Csr, path: P) -> Result<(), GraphError> {
    std::fs::write(path, to_bytes(graph))?;
    Ok(())
}

/// Reads the binary format from a file path.
pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<Csr, GraphError> {
    let data = std::fs::read(path)?;
    from_bytes(&data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_edges(5, &[(0, 1), (0, 4), (2, 3), (4, 0)]).unwrap()
    }

    #[test]
    fn text_round_trip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..], Some(5)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_infers_node_count() {
        let input = b"# comment\n0 1\n3 2\n";
        let g = read_edge_list(&input[..], None).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn text_rejects_garbage() {
        let input = b"0 x\n";
        assert!(matches!(
            read_edge_list(&input[..], None),
            Err(GraphError::Parse { line: 1, .. })
        ));
        let input = b"0\n";
        assert!(read_edge_list(&input[..], None).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let input = b"% matrix-market style\n\n# snap style\n1 0\n";
        let g = read_edge_list(&input[..], None).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn binary_round_trip() {
        let g = sample();
        let bytes = to_bytes(&g);
        let g2 = from_bytes(&bytes).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = sample();
        let bytes = to_bytes(&g);
        assert!(from_bytes(&bytes[..4]).is_err());
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(from_bytes(&bad).is_err());
        let mut truncated = bytes.to_vec();
        truncated.pop();
        assert!(from_bytes(&truncated).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pcpm_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        let g = sample();
        save_binary(&g, &path).unwrap();
        assert_eq!(load_binary(&path).unwrap(), g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Csr::from_edges(0, &[]).unwrap();
        assert_eq!(from_bytes(&to_bytes(&g)).unwrap(), g);
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        // Known answers: the empty input is one step with w = 0 (its
        // length) from the FNV offset basis.
        assert_eq!(checksum64(b""), 0xaf63_bd4c_8601_b7df);
        let a = checksum64(b"pcpm snapshot payload");
        assert_eq!(a, 0xcfe0_9b78_2ec0_e6ab);
        assert_ne!(a, checksum64(b"pcpm snapshot payloae"));
        assert_ne!(checksum64(b"ab"), checksum64(b"ba"));
        // Fed in pieces of any lengths, the sum is the whole input's.
        let data = b"pcpm snapshot payload";
        for cuts in [[0, 0], [1, 2], [3, 11], [8, 16], [7, 20], [21, 21]] {
            let mut sum = Checksum64::default();
            sum.update(&data[..cuts[0]]);
            sum.update(&data[cuts[0]..cuts[1]]);
            sum.update(&data[cuts[1]..]);
            assert_eq!(sum.finish(), a, "cut at {cuts:?}");
        }
    }

    #[test]
    fn checksum_catches_a_flip_in_every_lane_and_the_padded_tail() {
        // Two whole words and a 5-byte tail that the last word pads.
        let data: Vec<u8> = (0u8..21).map(|b| b.wrapping_mul(37)).collect();
        let sum = checksum64(&data);
        for i in 0..data.len() {
            for bit in [0x01, 0x80] {
                let mut bad = data.clone();
                bad[i] ^= bit;
                assert_ne!(checksum64(&bad), sum, "byte {i} ^ {bit:#04x}");
            }
        }
    }

    #[test]
    fn checksum_folds_in_the_length() {
        // Appending zero bytes leaves the padded words unchanged, so
        // only the folded-in length tells these apart.
        let mut data = b"pcpm".to_vec();
        for _ in 0..12 {
            let sum = checksum64(&data);
            data.push(0);
            assert_ne!(checksum64(&data), sum, "{} bytes", data.len());
        }
    }

    #[test]
    fn slice_codec_round_trips_and_decodes_little_endian() {
        let xs = [1u32, 0xdead_beef, u32::MAX];
        let mut buf = vec![7u8];
        put_le(&mut buf, &xs, u32::to_le_bytes);
        assert_eq!(&buf[1..5], &[1, 0, 0, 0]);
        assert_eq!(get_le(&buf[1..], u32::from_le_bytes), xs);
        let hs = [0x0102u16, 0xfffe];
        let mut buf = Vec::new();
        put_le(&mut buf, &hs, u16::to_le_bytes);
        assert_eq!(buf, [2, 1, 0xfe, 0xff]);
        assert_eq!(get_le(&buf, u16::from_le_bytes), hs);
    }

    #[test]
    fn weights_round_trip_and_reject_corruption() {
        let w = vec![0.5f32, -1.25, 3.0, f32::MIN_POSITIVE];
        let blob = |w: &[f32]| {
            let mut buf = Vec::new();
            weights_encode_into(w, &mut buf);
            assert_eq!(buf.len(), weights_encoded_len(w.len()));
            buf
        };
        let bytes = blob(&w);
        assert_eq!(weights_from_bytes(&bytes, Some(4)).unwrap(), w);
        assert_eq!(weights_from_bytes(&bytes, None).unwrap(), w);
        assert!(weights_from_bytes(&bytes, Some(3)).is_err());
        assert!(weights_from_bytes(&bytes[..7], None).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(weights_from_bytes(&bad, None).is_err());
        let mut truncated = bytes;
        truncated.pop();
        assert!(weights_from_bytes(&truncated, None).is_err());
        assert!(weights_from_bytes(&blob(&[]), Some(0)).unwrap().is_empty());
    }
}
