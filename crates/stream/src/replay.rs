//! Update-file I/O, a seeded update generator, and the replay harness
//! behind the `pcpm stream` subcommand.
//!
//! # Update file format
//!
//! Plain text, one op per line; batches are separated by a line holding
//! only `commit` (a trailing unterminated batch is also committed):
//!
//! ```text
//! # comment
//! + 3 17      insert edge 3 -> 17
//! - 5 2       delete edge 5 -> 2
//! commit
//! + 8 1
//! commit
//! ```

use crate::delta::DeltaGraph;
use crate::error::StreamError;
use crate::log::UpdateLog;
use pcpm_core::algebra::PlusF32;
use pcpm_core::pagerank::pagerank_with_unified_engine;
use pcpm_core::update::{UpdateBatch, UpdateOutcome};
use pcpm_core::{BackendKind, Engine, PcpmConfig, PcpmError, SnapshotEngineBuilder, SnapshotError};
use pcpm_graph::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parses an update file into canonical batches (see the module docs
/// for the format). Ops are validated against `num_nodes`.
pub fn read_updates<R: Read>(reader: R, num_nodes: u32) -> Result<Vec<UpdateBatch>, StreamError> {
    let reader = BufReader::new(reader);
    let mut log = UpdateLog::new(num_nodes);
    let mut batches = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed == "commit" {
            batches.push(log.seal());
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let op = it.next().expect("non-empty line");
        let parse = |tok: Option<&str>| -> Result<u32, StreamError> {
            tok.ok_or_else(|| StreamError::Parse {
                line: idx + 1,
                message: "expected '<+|-> src dst'".into(),
            })?
            .parse::<u32>()
            .map_err(|e| StreamError::Parse {
                line: idx + 1,
                message: e.to_string(),
            })
        };
        let src = parse(it.next())?;
        let dst = parse(it.next())?;
        let push = match op {
            "+" => log.insert(src, dst),
            "-" => log.delete(src, dst),
            other => {
                return Err(StreamError::Parse {
                    line: idx + 1,
                    message: format!("unknown op '{other}' (expected '+' or '-')"),
                })
            }
        };
        push.map_err(|e| StreamError::Parse {
            line: idx + 1,
            message: e.to_string(),
        })?;
    }
    if !log.is_empty() {
        batches.push(log.seal());
    }
    Ok(batches)
}

/// Writes batches in the update-file format.
pub fn write_updates<W: Write>(mut w: W, batches: &[UpdateBatch]) -> Result<(), StreamError> {
    for b in batches {
        for &(s, t) in b.inserts() {
            writeln!(w, "+ {s} {t}")?;
        }
        for &(s, t) in b.deletes() {
            writeln!(w, "- {s} {t}")?;
        }
        writeln!(w, "commit")?;
    }
    Ok(())
}

/// Magic bytes identifying a binary update *stream* ("PCPMUS", v1): a
/// sequence of length-prefixed [`UpdateBatch::to_bytes`] blobs.
const STREAM_MAGIC: &[u8; 8] = b"PCPMUS01";

/// Writes batches in the binary update-stream format:
///
/// ```text
/// magic    8 B   "PCPMUS01"
/// batches  8 B   count (little-endian)
/// per batch:
///   len    8 B   byte length of the blob that follows
///   blob         UpdateBatch::to_bytes (self-checksummed)
/// ```
///
/// Compared to the text format this is ~5x smaller and avoids parsing;
/// each embedded batch carries its own FNV checksum, so corruption is
/// detected per batch on read.
pub fn write_updates_binary<W: Write>(
    mut w: W,
    batches: &[UpdateBatch],
) -> Result<(), StreamError> {
    w.write_all(STREAM_MAGIC)?;
    w.write_all(&(batches.len() as u64).to_le_bytes())?;
    for b in batches {
        let blob = b.to_bytes();
        w.write_all(&(blob.len() as u64).to_le_bytes())?;
        w.write_all(&blob)?;
    }
    Ok(())
}

/// Reads a binary update stream written by [`write_updates_binary`],
/// validating every node ID against `num_nodes`.
pub fn read_updates_binary<R: Read>(
    mut reader: R,
    num_nodes: u32,
) -> Result<Vec<UpdateBatch>, StreamError> {
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    read_updates_binary_bytes(&data, num_nodes)
}

fn read_updates_binary_bytes(
    mut data: &[u8],
    num_nodes: u32,
) -> Result<Vec<UpdateBatch>, StreamError> {
    let corrupt = |message: &str| StreamError::Parse {
        line: 0,
        message: format!("binary update stream: {message}"),
    };
    if data.len() < STREAM_MAGIC.len() + 8 {
        return Err(corrupt("truncated header"));
    }
    if &data[..STREAM_MAGIC.len()] != STREAM_MAGIC {
        return Err(corrupt("bad magic"));
    }
    data = &data[STREAM_MAGIC.len()..];
    let count = u64::from_le_bytes(data[..8].try_into().expect("length checked"));
    data = &data[8..];
    let mut batches = Vec::with_capacity(count.min(1 << 20) as usize);
    for i in 0..count {
        if data.len() < 8 {
            return Err(corrupt("truncated batch length"));
        }
        let len = u64::from_le_bytes(data[..8].try_into().expect("length checked")) as usize;
        data = &data[8..];
        if data.len() < len {
            return Err(corrupt("truncated batch blob"));
        }
        let batch = UpdateBatch::from_bytes(&data[..len]).map_err(|e| StreamError::Parse {
            line: 0,
            message: format!("binary update stream, batch {i}: {e}"),
        })?;
        if let Some(max) = batch.max_node() {
            if max >= num_nodes {
                return Err(StreamError::NodeOutOfRange {
                    node: max,
                    num_nodes,
                });
            }
        }
        data = &data[len..];
        batches.push(batch);
    }
    if !data.is_empty() {
        return Err(corrupt("trailing bytes after last batch"));
    }
    Ok(batches)
}

/// Reads an update stream in either format, sniffing the magic: files
/// starting with `PCPMUS01` decode as binary, anything else parses as
/// the text format.
pub fn read_updates_auto(data: &[u8], num_nodes: u32) -> Result<Vec<UpdateBatch>, StreamError> {
    if data.starts_with(STREAM_MAGIC) {
        read_updates_binary_bytes(data, num_nodes)
    } else {
        read_updates(data, num_nodes)
    }
}

/// Parameters of the seeded random update generator.
#[derive(Clone, Copy, Debug)]
pub struct UpdateGenConfig {
    /// Number of batches.
    pub batches: usize,
    /// Ops per batch.
    pub batch_size: usize,
    /// Fraction of each batch that deletes existing edges (the rest
    /// inserts new ones).
    pub delete_frac: f64,
    /// When set, every batch draws its *sources* from this many
    /// randomly chosen partitions of `partition_nodes` nodes — the
    /// locality knob (batches that touch few partitions).
    pub locality: Option<Locality>,
    /// RNG seed: the same seed over the same base graph reproduces the
    /// same update stream.
    pub seed: u64,
}

/// Restricts each generated batch to a few source partitions.
#[derive(Clone, Copy, Debug)]
pub struct Locality {
    /// Source-partition size in nodes (match the engine's).
    pub partition_nodes: u32,
    /// Distinct source partitions each batch may touch.
    pub partitions_per_batch: u32,
}

impl Default for UpdateGenConfig {
    fn default() -> Self {
        Self {
            batches: 10,
            batch_size: 100,
            delete_frac: 0.3,
            locality: None,
            seed: 42,
        }
    }
}

/// Generates a coherent, seeded update stream against `base`: batches
/// chain (an edge inserted in batch `i` may be deleted in batch `j>i`),
/// deletes always hit a currently-present edge and inserts a
/// currently-absent one, so every op is effective on replay.
pub fn gen_updates(base: &Csr, cfg: &UpdateGenConfig) -> Result<Vec<UpdateBatch>, StreamError> {
    let n = base.num_nodes();
    if n < 2 {
        return Err(StreamError::BadConfig(
            "update generation needs at least two nodes",
        ));
    }
    if !(0.0..=1.0).contains(&cfg.delete_frac) {
        return Err(StreamError::BadConfig("delete_frac must be in [0, 1]"));
    }
    if let Some(loc) = cfg.locality {
        if loc.partition_nodes == 0 || loc.partitions_per_batch == 0 {
            return Err(StreamError::BadConfig(
                "locality partitions must be at least 1",
            ));
        }
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Live edge set, kept in sync across batches.
    let mut edges: Vec<(u32, u32)> = base.edges().collect();
    let mut present: std::collections::HashSet<(u32, u32)> = edges.iter().copied().collect();
    let mut batches = Vec::with_capacity(cfg.batches);
    for _ in 0..cfg.batches {
        // The per-batch source pool under the locality knob.
        let pick_src = |rng: &mut StdRng, pool: &[u32]| -> u32 {
            if pool.is_empty() {
                rng.gen_range(0..n)
            } else {
                pool[rng.gen_range(0..pool.len())]
            }
        };
        let src_pool: Vec<u32> = match cfg.locality {
            None => Vec::new(),
            Some(loc) => {
                let q = loc.partition_nodes;
                let k = if n == 0 { 1 } else { (n - 1) / q + 1 };
                let mut parts: Vec<u32> = (0..loc.partitions_per_batch)
                    .map(|_| rng.gen_range(0..k))
                    .collect();
                parts.sort_unstable();
                parts.dedup();
                parts
                    .iter()
                    .flat_map(|&p| p * q..((p + 1) * q).min(n))
                    .collect()
            }
        };
        let mut log = UpdateLog::new(n);
        let deletes = (cfg.batch_size as f64 * cfg.delete_frac).round() as usize;
        // Edges touched earlier in THIS batch: a delete+reinsert (or
        // insert+delete) of the same edge collapses under last-op-wins
        // into a single op that is a no-op on replay, breaking the
        // every-op-is-effective guarantee.
        let mut deleted_now: std::collections::HashSet<(u32, u32)> =
            std::collections::HashSet::new();
        let mut inserted_now: std::collections::HashSet<(u32, u32)> =
            std::collections::HashSet::new();
        for i in 0..cfg.batch_size {
            if i < deletes && !edges.is_empty() {
                // Delete a present edge, preferring the locality pool.
                let mut victim = None;
                for _ in 0..64 {
                    let e = edges[rng.gen_range(0..edges.len())];
                    if (src_pool.is_empty() || src_pool.binary_search(&e.0).is_ok())
                        && present.contains(&e)
                        && !inserted_now.contains(&e)
                    {
                        victim = Some(e);
                        break;
                    }
                }
                if let Some(e) = victim {
                    present.remove(&e);
                    deleted_now.insert(e);
                    log.delete(e.0, e.1).expect("validated");
                    continue;
                }
            }
            // Insert an edge absent from the pre-batch set and untouched
            // by this batch.
            for _ in 0..64 {
                let s = pick_src(&mut rng, &src_pool);
                let t = rng.gen_range(0..n);
                if s != t && !present.contains(&(s, t)) && !deleted_now.contains(&(s, t)) {
                    present.insert((s, t));
                    inserted_now.insert((s, t));
                    edges.push((s, t));
                    log.insert(s, t).expect("validated");
                    break;
                }
            }
        }
        batches.push(log.seal());
    }
    Ok(batches)
}

/// Replay configuration.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Engine configuration (partition bytes, damping, tolerance,
    /// compact bins, threads). Set a tolerance — the PageRank phases
    /// run to convergence.
    pub cfg: PcpmConfig,
    /// Dataplane to prepare and rebuild.
    pub backend: BackendKind,
    /// Also build a fresh engine and run a cold `pagerank` per batch,
    /// recording the maximum absolute divergence of the warm-started
    /// scores.
    pub verify: bool,
    /// Engine-snapshot cache (PCPM backend only). When the file exists,
    /// the base engine is loaded from it — skipping the base prepare —
    /// after verifying it matches the base graph and config; when it
    /// does not, the cold-built base engine is saved there. After the
    /// replay, the engine's **final** state (rebuilt over the graph
    /// every batch was merged into) is written next to it (see
    /// [`final_cache_path`]) so a later run can resume serving
    /// post-stream rankings without replaying anything.
    pub cache: Option<PathBuf>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            cfg: PcpmConfig::default()
                .with_iterations(500)
                .with_tolerance(1e-9),
            backend: BackendKind::Pcpm,
            verify: false,
            cache: None,
        }
    }
}

impl ReplayConfig {
    /// Routes the base engine through the snapshot cache at `path`
    /// (load when present, save after a cold build — see the field
    /// docs). Clone a shared base config and chain this builder instead
    /// of rebuilding the struct by hand:
    ///
    /// ```ignore
    /// let rc_cached = rc.clone().with_cache("base.pcpmc");
    /// ```
    pub fn with_cache(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache = Some(path.into());
        self
    }

    /// Sets the engine configuration.
    pub fn with_config(mut self, cfg: PcpmConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Turns per-batch cold-PageRank verification on or off.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }
}

/// Where [`replay`] writes the post-stream engine state for a given
/// cache path: `base.pcpmc` → `base.final.pcpmc`.
pub fn final_cache_path(cache: &Path) -> PathBuf {
    cache.with_extension("final.pcpmc")
}

/// Per-batch replay measurements.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Effective ops applied (after set-semantics filtering).
    pub ops: usize,
    /// Requested ops that were no-ops.
    pub ignored: usize,
    /// Source partitions whose adjacency changed.
    pub touched_partitions: u32,
    /// Total source partitions.
    pub total_partitions: u32,
    /// How the engine absorbed the batch.
    pub outcome: UpdateOutcome,
    /// Wall-clock of `Engine::update` (the dataplane rebuild).
    pub update: Duration,
    /// Wall-clock of the warm-started PageRank solve.
    pub pagerank: Duration,
    /// Iterations the warm-started solve ran.
    pub iterations: usize,
    /// Max |warm − cold| when verification ran.
    pub divergence: Option<f64>,
}

/// The whole replay: initial preparation plus one report per batch.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Initial full preparation time of the base engine — the snapshot
    /// load time when [`Self::loaded_from_snapshot`] is set.
    pub base_prepare: Duration,
    /// Initial cold PageRank time (the starting fixed point).
    pub base_pagerank: Duration,
    /// Per-batch measurements, in replay order.
    pub batches: Vec<BatchReport>,
    /// Final PageRank scores after the last batch.
    pub scores: Vec<f32>,
    /// Whether the base engine came from the snapshot cache instead of
    /// a cold prepare.
    pub loaded_from_snapshot: bool,
    /// Where the post-stream engine state was saved, when a cache was
    /// configured.
    pub final_cache: Option<PathBuf>,
}

impl ReplayReport {
    /// Total `Engine::update` time across batches.
    pub fn total_update(&self) -> Duration {
        self.batches.iter().map(|b| b.update).sum()
    }
}

/// Replays `batches` against `base`: each batch flows through
/// [`DeltaGraph::apply`] (one merge) → [`Engine::update`] (one build) →
/// a PageRank solve warm-started from the previous epoch's scores,
/// keeping rankings continuously fresh.
pub fn replay(
    base: Arc<Csr>,
    batches: &[UpdateBatch],
    rc: &ReplayConfig,
) -> Result<ReplayReport, StreamError> {
    rc.cfg.validate().map_err(StreamError::Engine)?;
    if rc.cache.is_some() && rc.backend != BackendKind::Pcpm {
        return Err(StreamError::Engine(PcpmError::Snapshot(
            SnapshotError::Unsupported("the snapshot cache requires the PCPM backend"),
        )));
    }
    let t0 = Instant::now();
    let mut loaded_from_snapshot = false;
    let mut engine = match rc.cache.as_deref() {
        // Build-once, serve-many: a present cache must capture exactly
        // this base graph under exactly this config, or fail loudly.
        Some(path) if path.exists() => {
            let mut b = SnapshotEngineBuilder::<PlusF32>::open(path)?
                .expect_config(&rc.cfg, false)?
                .expect_graph(&base)?
                .kernel(rc.cfg.kernel);
            if let Some(t) = rc.cfg.threads {
                b = b.threads(t);
            }
            loaded_from_snapshot = true;
            b.build()?
        }
        _ => {
            let engine = Engine::<PlusF32>::builder_shared(&base)
                .config(rc.cfg)
                .backend(rc.backend)
                .build()?;
            if let Some(path) = &rc.cache {
                engine.save_snapshot(path)?;
            }
            engine
        }
    };
    let base_prepare = t0.elapsed();
    let t0 = Instant::now();
    let mut scores = pagerank_with_unified_engine(&base, &rc.cfg, &mut engine, None)?.scores;
    let base_pagerank = t0.elapsed();
    let q = rc.cfg.partition_nodes();
    let total_partitions = base.num_nodes().div_ceil(q);
    let mut graph = DeltaGraph::new(Arc::clone(&base), q)?;

    let mut reports = Vec::with_capacity(batches.len());
    for (batch_idx, batch) in batches.iter().enumerate() {
        let _span = pcpm_core::telemetry::span_n("replay_batch", batch_idx as u64);
        let stats = graph.apply(batch)?;
        let snap = graph.snapshot();

        let t0 = Instant::now();
        let outcome = engine.update(&snap, None, &stats.applied)?;
        let update = t0.elapsed();

        let t0 = Instant::now();
        let warm = pagerank_with_unified_engine(&snap, &rc.cfg, &mut engine, Some(&scores))?;
        let pagerank = t0.elapsed();
        scores = warm.scores;

        let divergence = if rc.verify {
            let mut cold_engine = Engine::<PlusF32>::builder_shared(&snap)
                .config(rc.cfg)
                .backend(rc.backend)
                .build()?;
            let cold = pagerank_with_unified_engine(&snap, &rc.cfg, &mut cold_engine, None)?;
            Some(
                scores
                    .iter()
                    .zip(&cold.scores)
                    .map(|(&a, &b)| (f64::from(a) - f64::from(b)).abs())
                    .fold(0.0f64, f64::max),
            )
        } else {
            None
        };

        reports.push(BatchReport {
            ops: stats.applied.len(),
            ignored: stats.ignored,
            touched_partitions: stats.touched_partitions.len() as u32,
            total_partitions,
            outcome,
            update,
            pagerank,
            iterations: warm.iterations,
            divergence,
        });
    }
    // Persist the post-stream state: the engine was rebuilt over the
    // graph every batch was merged into, so this snapshot resumes
    // serving exactly where the stream left off.
    let final_cache = match &rc.cache {
        Some(path) => {
            let fp = final_cache_path(path);
            engine.save_snapshot(&fp)?;
            Some(fp)
        }
        None => None,
    };
    Ok(ReplayReport {
        base_prepare,
        base_pagerank,
        batches: reports,
        scores,
        loaded_from_snapshot,
        final_cache,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcpm_graph::gen::{rmat, RmatConfig};

    #[test]
    fn update_file_round_trips() {
        let batches = vec![
            UpdateBatch::from_parts(vec![(0, 1), (2, 3)], vec![(4, 5)]),
            UpdateBatch::from_parts(vec![], vec![(1, 0)]),
        ];
        let mut buf = Vec::new();
        write_updates(&mut buf, &batches).unwrap();
        let back = read_updates(&buf[..], 6).unwrap();
        assert_eq!(back, batches);
    }

    #[test]
    fn binary_update_stream_round_trips_and_sniffs() {
        let batches = vec![
            UpdateBatch::from_parts(vec![(0, 1), (2, 3)], vec![(4, 5)]),
            UpdateBatch::default(),
            UpdateBatch::from_parts(vec![], vec![(1, 0)]),
        ];
        let mut bin = Vec::new();
        write_updates_binary(&mut bin, &batches).unwrap();
        assert_eq!(read_updates_binary(&bin[..], 6).unwrap(), batches);
        // Auto-detection routes by magic.
        assert_eq!(read_updates_auto(&bin, 6).unwrap(), batches);
        let mut text = Vec::new();
        write_updates(&mut text, &batches).unwrap();
        assert_eq!(read_updates_auto(&text, 6).unwrap(), batches);

        // Node validation still applies on the binary path.
        assert!(matches!(
            read_updates_binary(&bin[..], 5),
            Err(StreamError::NodeOutOfRange { node: 5, .. })
        ));
        // Corruption inside a batch blob is detected by its checksum.
        let mut bad = bin.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(
            read_updates_binary(&bad[..], 6),
            Err(StreamError::Parse { .. })
        ));
        // Truncation is detected.
        assert!(read_updates_binary(&bin[..bin.len() - 3], 6).is_err());
    }

    mod binary_stream_props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn binary_stream_property_round_trip(
                raw in proptest::collection::vec(
                    (0u32..64, 0u32..64, any::<bool>()), 0..40),
                splits in proptest::collection::vec(0usize..40, 0..4),
            ) {
                // Partition the op list into batches at random split
                // points, keeping each batch canonical (sorted, deduped,
                // disjoint sections).
                let mut splits = splits;
                splits.push(raw.len());
                splits.sort_unstable();
                let mut batches = Vec::new();
                let mut start = 0usize;
                for &end in &splits {
                    let end = end.min(raw.len()).max(start);
                    let mut ins = Vec::new();
                    let mut del = Vec::new();
                    for &(s, t, is_ins) in &raw[start..end] {
                        if is_ins {
                            ins.push((s, t));
                        } else {
                            del.push((s, t));
                        }
                    }
                    ins.sort_unstable();
                    ins.dedup();
                    del.sort_unstable();
                    del.dedup();
                    del.retain(|e| ins.binary_search(e).is_err());
                    batches.push(UpdateBatch::from_parts(ins, del));
                    start = end;
                }
                let mut bin = Vec::new();
                write_updates_binary(&mut bin, &batches).unwrap();
                prop_assert_eq!(read_updates_binary(&bin[..], 64).unwrap(), batches.clone());
                // Per-batch blob round-trip as well.
                for b in &batches {
                    prop_assert_eq!(&UpdateBatch::from_bytes(&b.to_bytes()).unwrap(), b);
                }
            }
        }
    }

    #[test]
    fn read_rejects_malformed_lines() {
        assert!(matches!(
            read_updates("~ 1 2\n".as_bytes(), 10),
            Err(StreamError::Parse { line: 1, .. })
        ));
        assert!(read_updates("+ 1\n".as_bytes(), 10).is_err());
        assert!(read_updates("+ 1 99\n".as_bytes(), 10).is_err());
        // Comments, blanks and a trailing unterminated batch are fine.
        let b = read_updates("# hi\n\n+ 1 2\n".as_bytes(), 10).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].inserts(), &[(1, 2)]);
    }

    #[test]
    fn generated_updates_are_seeded_and_effective() {
        let g = rmat(&RmatConfig::graph500(7, 6, 9)).unwrap();
        let cfg = UpdateGenConfig {
            batches: 4,
            batch_size: 30,
            delete_frac: 0.4,
            locality: None,
            seed: 7,
        };
        let a = gen_updates(&g, &cfg).unwrap();
        let b = gen_updates(&g, &cfg).unwrap();
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(
            a,
            gen_updates(&g, &UpdateGenConfig { seed: 8, ..cfg }).unwrap()
        );
        // Every op must be effective when merged in order.
        let mut dg = DeltaGraph::new(Arc::new(g), 16).unwrap();
        for batch in &a {
            let stats = dg.apply(batch).unwrap();
            assert_eq!(stats.ignored, 0, "generator promised effective ops");
            assert_eq!(stats.applied.len(), batch.len());
        }
    }

    #[test]
    fn locality_restricts_touched_partitions() {
        let g = rmat(&RmatConfig::graph500(9, 8, 3)).unwrap();
        let q = 32;
        let cfg = UpdateGenConfig {
            batches: 5,
            batch_size: 40,
            delete_frac: 0.25,
            locality: Some(Locality {
                partition_nodes: q,
                partitions_per_batch: 2,
            }),
            seed: 11,
        };
        for batch in gen_updates(&g, &cfg).unwrap() {
            assert!(batch.touched_src_partitions(q).len() <= 2);
        }
    }

    #[test]
    fn replay_cache_loads_saves_and_resumes_after_stream() {
        use pcpm_core::Snapshot;
        let dir = std::env::temp_dir().join("pcpm_stream_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("base.pcpmc");
        let _ = std::fs::remove_file(&cache);
        let base = Arc::new(rmat(&RmatConfig::graph500(8, 8, 41)).unwrap());
        let gen = UpdateGenConfig {
            batches: 3,
            batch_size: 30,
            delete_frac: 0.3,
            locality: None,
            seed: 13,
        };
        let batches = gen_updates(&base, &gen).unwrap();
        let rc = ReplayConfig::default()
            .with_config(
                PcpmConfig::default()
                    .with_partition_bytes(64 * 4)
                    .with_iterations(300)
                    .with_tolerance(1e-9),
            )
            .with_cache(cache.clone());
        // First run: cold build, base snapshot written.
        let r1 = replay(Arc::clone(&base), &batches, &rc).unwrap();
        assert!(!r1.loaded_from_snapshot);
        assert!(cache.exists());
        let final_cache = r1.final_cache.clone().unwrap();
        assert_eq!(final_cache, final_cache_path(&cache));
        // Second identical run: base engine served from the cache,
        // identical rankings.
        let r2 = replay(Arc::clone(&base), &batches, &rc).unwrap();
        assert!(r2.loaded_from_snapshot);
        assert_eq!(r1.scores, r2.scores);
        // The final snapshot captures the post-stream state: its graph
        // equals the base with every batch merged in, and a replay over
        // NEW batches resumes from it.
        let final_snap = Snapshot::load(&final_cache).unwrap();
        let mut dg = DeltaGraph::new(Arc::clone(&base), rc.cfg.partition_nodes()).unwrap();
        for b in &batches {
            dg.apply(b).unwrap();
        }
        assert_eq!(*dg.snapshot(), **final_snap.graph());
        let resumed_base = Arc::clone(final_snap.graph());
        let more = gen_updates(&resumed_base, &UpdateGenConfig { seed: 14, ..gen }).unwrap();
        let rc_resume = rc.clone().with_cache(final_cache);
        let r3 = replay(Arc::clone(&resumed_base), &more, &rc_resume).unwrap();
        assert!(r3.loaded_from_snapshot, "resume must skip the base prepare");
        // A stale cache for a different base graph is rejected, typed.
        let other = Arc::new(rmat(&RmatConfig::graph500(7, 6, 5)).unwrap());
        match replay(Arc::clone(&other), &[], &rc) {
            Err(StreamError::Engine(pcpm_core::PcpmError::Snapshot(
                pcpm_core::SnapshotError::ConfigMismatch { field: "graph" },
            ))) => {}
            other => panic!("expected typed graph mismatch, got {other:?}"),
        }
        // A cache with a non-PCPM backend is rejected up front.
        let rc_pull = ReplayConfig {
            backend: BackendKind::Pull,
            ..rc.clone()
        };
        assert!(matches!(
            replay(Arc::clone(&base), &batches, &rc_pull),
            Err(StreamError::Engine(pcpm_core::PcpmError::Snapshot(
                pcpm_core::SnapshotError::Unsupported(_)
            )))
        ));
    }

    #[test]
    fn replay_keeps_ranks_fresh() {
        let base = Arc::new(rmat(&RmatConfig::graph500(9, 8, 23)).unwrap());
        let gen = UpdateGenConfig {
            batches: 3,
            batch_size: 25,
            delete_frac: 0.3,
            locality: Some(Locality {
                partition_nodes: 64,
                partitions_per_batch: 1,
            }),
            seed: 5,
        };
        let batches = gen_updates(&base, &gen).unwrap();
        let rc = ReplayConfig::default()
            .with_config(
                PcpmConfig::default()
                    .with_partition_bytes(64 * 4)
                    .with_iterations(500)
                    .with_tolerance(1e-9),
            )
            .with_verify(true);
        let report = replay(Arc::clone(&base), &batches, &rc).unwrap();
        assert_eq!(report.batches.len(), 3);
        for b in &report.batches {
            assert_eq!(b.outcome, UpdateOutcome::Rebuilt);
            assert!(b.touched_partitions <= 2, "locality held");
            assert!(
                b.divergence.unwrap() < 1e-6,
                "warm-started solve diverged: {:?}",
                b.divergence
            );
        }
        // The warm start is real: a cold solve of the final graph from
        // uniform needs more iterations than the last refresh took.
        let mut graph = DeltaGraph::new(Arc::clone(&base), rc.cfg.partition_nodes()).unwrap();
        for b in &batches {
            graph.apply(b).unwrap();
        }
        let last = graph.snapshot();
        let mut engine = Engine::<PlusF32>::builder_shared(&last)
            .config(rc.cfg)
            .build()
            .unwrap();
        let cold = pagerank_with_unified_engine(&last, &rc.cfg, &mut engine, None).unwrap();
        let warm = report.batches.last().unwrap().iterations;
        assert!(
            warm < cold.iterations,
            "warm refresh took {warm} iterations, cold {}",
            cold.iterations
        );
    }
}
