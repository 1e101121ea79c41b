//! Shared experiment infrastructure: dataset loading (with disk caching),
//! the scaled simulation machine, timing wrappers and table formatting.
//!
//! # The scaled machine
//!
//! The paper's datasets are 0.46–1.9 B edges against a 2 × 25 MB L3; our
//! stand-ins are ~128× smaller, so the *traffic replays* run against a
//! proportionally scaled cache ([`sim_cache`], 128 KB) and partition size
//! ([`SIM_PARTITION_NODES`], 512 nodes ≈ 2 KB of values — the same ~500
//! partitions the paper's 256 KB partitions give on kron). Partition-size
//! sweeps report both the simulated bytes and the paper-equivalent bytes
//! (× [`SIM_SCALE_DOWN`]).
//!
//! *Timing* experiments run on the real host: they use
//! [`TIMING_PARTITION_BYTES`] by default (32 KB — enough partitions at
//! stand-in scale to feed every core, still L2-resident) and whatever
//! parallelism rayon finds.

use pcpm_core::algebra::PlusF32;
use pcpm_core::pagerank::pagerank_with_unified_engine;
use pcpm_core::pr::PrResult;
use pcpm_core::{BinFormatKind, Engine, PcpmConfig};
use pcpm_graph::gen::datasets::{standin_at, Dataset};
use pcpm_graph::order::{reorder, OrderingKind};
use pcpm_graph::Csr;
use pcpm_memsim::CacheConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Ratio between the paper's machine/datasets and the reproduction scale.
pub const SIM_SCALE_DOWN: u64 = 128;

/// Simulated-partition size in nodes for the traffic replays (2 KB of
/// values; paper-equivalent 256 KB).
pub const SIM_PARTITION_NODES: u32 = 512;

/// Real-machine partition byte budget for the timing experiments.
pub const TIMING_PARTITION_BYTES: usize = 32 * 1024;

/// The scaled stand-in for the paper's shared L3 (25 MB / 128 ≈ 128 KB,
/// keeping 64-byte lines and high associativity).
pub fn sim_cache() -> CacheConfig {
    CacheConfig {
        capacity: 128 * 1024,
        line: 64,
        ways: 16,
    }
}

/// The per-worker effective cache share: the paper's 16 threads divide
/// the L3, which is what makes 2–8 MB partitions thrash in Fig. 12. The
/// partition-size sweep replays against this share.
pub fn sim_worker_cache() -> CacheConfig {
    CacheConfig {
        capacity: 8 * 1024,
        line: 64,
        ways: 8,
    }
}

/// Experiment-wide configuration.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// log2 node count of the stand-ins (web/sd1 are one scale larger).
    pub scale: u32,
    /// PageRank iterations per timed run (the paper uses 20).
    pub iterations: usize,
    /// Directory for cached generated graphs and CSV output.
    pub out_dir: PathBuf,
    /// Thread override for the kernels.
    pub threads: Option<usize>,
    /// PCPM bin format for the timing experiments (`--format`).
    pub bin_format: BinFormatKind,
    /// Engine-snapshot cache directory (`--cache-dir`): PCPM timing
    /// engines are loaded from snapshots keyed by graph × format ×
    /// partitioning when present, and saved after a cold build — so
    /// repeated harness runs (exhibit sweeps, `all`) stop re-paying the
    /// PNG/bin preprocessing per run.
    pub cache_dir: Option<PathBuf>,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            scale: pcpm_graph::gen::datasets::DEFAULT_SCALE,
            iterations: 20,
            out_dir: PathBuf::from("results"),
            threads: None,
            bin_format: BinFormatKind::Wide,
            cache_dir: None,
        }
    }
}

impl SuiteConfig {
    /// The reduced tier behind `repro --quick`, for smoke tests and CI.
    pub fn quick() -> Self {
        Self {
            scale: 12,
            iterations: 5,
            ..Self::default()
        }
    }

    /// The PCPM config used by timing experiments.
    pub fn timing_config(&self) -> PcpmConfig {
        let mut cfg = PcpmConfig::default()
            .with_partition_bytes(TIMING_PARTITION_BYTES)
            .with_iterations(self.iterations)
            .with_bin_format(self.bin_format);
        cfg.threads = self.threads;
        cfg
    }

    fn cache_path(&self, name: &str) -> PathBuf {
        self.out_dir
            .join("cache")
            .join(format!("{name}_s{}.bin", self.scale))
    }

    /// Generates (or loads from cache) the stand-in for `d`.
    pub fn graph(&self, d: Dataset) -> Csr {
        self.cached(d.name(), || {
            standin_at(d, self.scale).expect("generation cannot fail")
        })
    }

    /// Generates (or loads) the GOrder-relabeled stand-in for `d`.
    pub fn gorder_graph(&self, d: Dataset) -> Csr {
        let name = format!("{}_gorder", d.name());
        self.cached(&name, || {
            let g = self.graph(d);
            let (rg, _) = reorder(&g, OrderingKind::Gorder, 0).expect("reorder cannot fail");
            rg
        })
    }

    fn cached(&self, name: &str, gen: impl FnOnce() -> Csr) -> Csr {
        let path = self.cache_path(name);
        if let Ok(g) = pcpm_graph::io::load_binary(&path) {
            return g;
        }
        let g = gen();
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let _ = pcpm_graph::io::save_binary(&g, &path);
        g
    }

    /// All six datasets with their graphs, in paper order.
    pub fn all_graphs(&self) -> Vec<(Dataset, Csr)> {
        Dataset::ALL.iter().map(|&d| (d, self.graph(d))).collect()
    }
}

/// Runs PCPM PageRank with the timing configuration, reusing a prepared
/// engine snapshot from [`SuiteConfig::cache_dir`] when one exists
/// (build-once across harness runs; the snapshot is keyed by graph
/// content × format × partitioning, so a changed stand-in misses).
pub fn time_pcpm(g: &Csr, suite: &SuiteConfig) -> PrResult {
    let cfg = suite.timing_config();
    let mut engine = pcpm_timing_engine(g, suite, &cfg);
    pagerank_with_unified_engine(g, &cfg, &mut engine, None).expect("pcpm run")
}

/// Builds (or snapshot-loads) the PCPM timing engine.
fn pcpm_timing_engine(g: &Csr, suite: &SuiteConfig, cfg: &PcpmConfig) -> Engine<PlusF32> {
    let Some(dir) = &suite.cache_dir else {
        return Engine::<PlusF32>::builder(g)
            .config(*cfg)
            .build()
            .expect("engine build");
    };
    std::fs::create_dir_all(dir).expect("snapshot cache dir");
    let key = pcpm_graph::io::checksum64(&pcpm_graph::io::to_bytes(g));
    let path = dir.join(format!(
        "pcpm-{key:016x}-{}-q{}.pcpmc",
        cfg.bin_format,
        cfg.partition_nodes()
    ));
    if path.exists() {
        let mut b = pcpm_core::SnapshotEngineBuilder::<PlusF32>::open(&path)
            .expect("snapshot open")
            .expect_config(cfg, false)
            .expect("snapshot config")
            .expect_graph(g)
            .expect("snapshot graph");
        if let Some(t) = cfg.threads {
            b = b.threads(t);
        }
        return b.build().expect("snapshot build");
    }
    // Snapshotting requires a retained graph, which only a shared
    // handle provides; the one-time clone here is the price of
    // populating the cache, paid on miss only.
    let shared = std::sync::Arc::new(g.clone());
    let engine = Engine::<PlusF32>::builder_shared(&shared)
        .config(*cfg)
        .build()
        .expect("engine build");
    engine.save_snapshot(&path).expect("snapshot save");
    engine
}

/// Runs BVGAS PageRank with the timing configuration.
pub fn time_bvgas(g: &Csr, suite: &SuiteConfig) -> PrResult {
    pcpm_baselines::bvgas(g, &suite.timing_config()).expect("bvgas run")
}

/// Runs pull-direction PageRank with the timing configuration.
pub fn time_pdpr(g: &Csr, suite: &SuiteConfig) -> PrResult {
    pcpm_baselines::pdpr(g, &suite.timing_config()).expect("pdpr run")
}

/// Times a closure, returning (result, seconds).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// A plain-text / CSV result table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
    }

    /// Renders an aligned text table.
    pub fn render(&self, title: &str) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {title} ==\n"));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self, title: &str) {
        print!("{}", self.render(title));
    }

    /// Writes the table as CSV under `dir` (creating it if needed).
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

/// Formats a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_generates_and_caches() {
        let mut suite = SuiteConfig::quick();
        suite.out_dir = std::env::temp_dir().join("pcpm_suite_test");
        let _ = std::fs::remove_dir_all(&suite.out_dir);
        let g1 = suite.graph(Dataset::Gplus);
        let g2 = suite.graph(Dataset::Gplus); // from cache
        assert_eq!(g1, g2);
        assert!(suite.cache_path("gplus").exists());
        let _ = std::fs::remove_dir_all(&suite.out_dir);
    }

    #[test]
    fn timing_wrappers_agree_with_each_other() {
        let mut suite = SuiteConfig::quick();
        suite.scale = 10;
        suite.iterations = 3;
        suite.out_dir = std::env::temp_dir().join("pcpm_suite_test2");
        let _ = std::fs::remove_dir_all(&suite.out_dir);
        let g = suite.graph(Dataset::Kron);
        let a = time_pcpm(&g, &suite);
        let b = time_pdpr(&g, &suite);
        let c = time_bvgas(&g, &suite);
        for i in 0..g.num_nodes() as usize {
            assert!((a.scores[i] - b.scores[i]).abs() < 1e-5);
            assert!((a.scores[i] - c.scores[i]).abs() < 1e-5);
        }
        let _ = std::fs::remove_dir_all(&suite.out_dir);
    }

    #[test]
    fn table_renders_and_writes_csv() {
        let mut t = Table::new(&["dataset", "gteps"]);
        t.row(vec!["kron".into(), "1.23".into()]);
        let s = t.render("Fig 7");
        assert!(s.contains("Fig 7"));
        assert!(s.contains("kron"));
        let dir = std::env::temp_dir().join("pcpm_table_test");
        let path = t.write_csv(&dir, "fig7").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("dataset,gteps\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }
}
