//! Engine configuration.

use crate::error::PcpmError;
use crate::format::BinFormatKind;
use crate::kernel::KernelKind;

/// Size of one PageRank / update value in bytes (the paper uses 4-byte
/// values and indices throughout, §5.1).
pub const VALUE_BYTES: usize = 4;

/// Default partition budget: 256 KB of vertex values, the empirically
/// optimal point found in the paper's design-space exploration (§5.3.2,
/// Fig. 13–14). The 256 KB private L2 behind it is the paper's host; the
/// seed host of this repository's measurements has 2 MiB per core.
///
/// A budget caps the partition; the engine may build smaller ones
/// ([`PcpmConfig::split_partition_nodes`]).
pub const DEFAULT_PARTITION_BYTES: usize = 256 * 1024;

/// Destination partitions an engine wants per worker of its pool: the
/// partition is the unit of parallel work (§4), and a worker with one
/// partition has nothing to balance against.
pub const PARTITIONS_PER_THREAD: usize = 2;

/// The smallest partition a split produces: 4 096 nodes, 16 KB of values.
pub const MIN_SPLIT_PARTITION_NODES: u32 = 4096;

/// Configuration for the PCPM engine and the PageRank driver.
///
/// # Examples
///
/// ```
/// use pcpm_core::PcpmConfig;
///
/// let cfg = PcpmConfig::default().with_partition_bytes(64 * 1024);
/// assert_eq!(cfg.partition_nodes(), 16 * 1024);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PcpmConfig {
    /// Bytes of vertex values a partition may occupy — a cache budget;
    /// divided by [`VALUE_BYTES`] this gives the largest partition size
    /// `q` in nodes. An engine built over a pool of several threads
    /// halves it while the graph has fewer than
    /// [`PARTITIONS_PER_THREAD`] destination partitions per thread
    /// ([`PcpmConfig::split_partition_nodes`]).
    pub partition_bytes: usize,
    /// Damping factor `d` of the PageRank recurrence (default 0.85).
    pub damping: f64,
    /// Number of PageRank iterations (the paper runs 20).
    pub iterations: usize,
    /// Optional early-exit tolerance on the L1 delta between successive
    /// PageRank vectors; `None` always runs all `iterations`.
    pub tolerance: Option<f64>,
    /// Redistribute the rank mass of dangling nodes uniformly. The paper's
    /// kernels drop it (mass decays); keep `false` to match.
    pub redistribute_dangling: bool,
    /// Physical destination-ID encoding of the PCPM bins: wide 32-bit
    /// global IDs (the paper's §3.2 layout), compact 16-bit
    /// partition-local IDs (§6; requires `partition_nodes() <= 2^15`),
    /// or delta-encoded split-stream IDs (`--format delta`).
    pub bin_format: BinFormatKind,
    /// Thread count for the engine-owned worker pool (prepare, every
    /// step and the rebuild of an update run on it); `None` uses the ambient
    /// global pool. Every backend produces bit-identical results for
    /// any value (see the rayon shim's determinism contract).
    pub threads: Option<usize>,
    /// Gather kernel variant (`--kernel`). A runtime knob, not a layout
    /// property: it never affects bins on disk or in snapshots, and
    /// every variant produces bit-identical results.
    /// [`KernelKind::Auto`] (the default) resolves to
    /// [`KernelKind::Unrolled`] at pipeline build.
    pub kernel: KernelKind,
}

impl Default for PcpmConfig {
    fn default() -> Self {
        Self {
            partition_bytes: DEFAULT_PARTITION_BYTES,
            damping: 0.85,
            iterations: 20,
            tolerance: None,
            redistribute_dangling: false,
            bin_format: BinFormatKind::Wide,
            threads: None,
            kernel: KernelKind::Auto,
        }
    }
}

impl PcpmConfig {
    /// Partition size `q` in nodes the budget allows.
    pub fn partition_nodes(&self) -> u32 {
        (self.partition_bytes / VALUE_BYTES).max(1) as u32
    }

    /// Workers of the pool an engine built now under this config runs
    /// on: [`Self::threads`], or the ambient pool's when that is unset.
    pub fn pool_threads(&self) -> usize {
        self.threads.unwrap_or_else(rayon::current_num_threads)
    }

    /// The partition size an engine whose pool has `threads` workers
    /// builds over `num_nodes` nodes: the budget's `q`, halved while the
    /// graph has fewer than [`PARTITIONS_PER_THREAD`] × `threads`
    /// partitions, the split still adds a partition (`num_nodes > q/2`)
    /// and `q/2` stays at or above [`MIN_SPLIT_PARTITION_NODES`]. One
    /// thread never splits.
    pub fn split_partition_nodes(&self, num_nodes: u32, threads: usize) -> u32 {
        let wanted = PARTITIONS_PER_THREAD.saturating_mul(threads) as u64;
        let partitions = |q: u32| u64::from(num_nodes).div_ceil(u64::from(q));
        let mut q = self.partition_nodes();
        while threads > 1
            && partitions(q) < wanted
            && num_nodes > q / 2
            && q / 2 >= MIN_SPLIT_PARTITION_NODES
        {
            q /= 2;
        }
        q
    }

    /// Whether `q` is a partition size an engine could have built under
    /// this budget: the budget's own or one of its halvings down to
    /// [`MIN_SPLIT_PARTITION_NODES`].
    pub fn admits_partition_nodes(&self, q: u32) -> bool {
        let halve = |&q: &u32| (q / 2 >= MIN_SPLIT_PARTITION_NODES).then_some(q / 2);
        std::iter::successors(Some(self.partition_nodes()), halve).any(|p| p == q)
    }

    /// Returns a copy with a different partition byte budget.
    pub fn with_partition_bytes(mut self, bytes: usize) -> Self {
        self.partition_bytes = bytes;
        self
    }

    /// Returns a copy with a different iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Returns a copy with a convergence tolerance.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = Some(tol);
        self
    }

    /// Returns a copy with an explicit thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Returns a copy with a different bin format.
    pub fn with_bin_format(mut self, format: BinFormatKind) -> Self {
        self.bin_format = format;
        self
    }

    /// Returns a copy with a different gather/decode kernel variant.
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Validates field ranges.
    pub fn validate(&self) -> Result<(), PcpmError> {
        if self.partition_bytes < VALUE_BYTES {
            return Err(PcpmError::PartitionTooSmall);
        }
        if !(0.0..=1.0).contains(&self.damping) {
            return Err(PcpmError::BadConfig("damping must be in [0, 1]"));
        }
        if let Some(t) = self.tolerance {
            // NaN must be rejected too, hence the explicit finite check.
            if !t.is_finite() || t <= 0.0 {
                return Err(PcpmError::BadConfig("tolerance must be positive"));
            }
        }
        if self.threads == Some(0) {
            return Err(PcpmError::BadConfig("threads must be at least 1"));
        }
        if self.bin_format == BinFormatKind::Compact
            && self.partition_nodes() > crate::compact::MAX_COMPACT_PARTITION
        {
            return Err(PcpmError::BadConfig(
                "compact bins require partitions of at most 2^15 nodes (128 KB of values)",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = PcpmConfig::default();
        assert_eq!(c.partition_bytes, 256 * 1024);
        assert_eq!(c.partition_nodes(), 65_536);
        assert_eq!(c.iterations, 20);
        assert!((c.damping - 0.85).abs() < 1e-12);
        c.validate().unwrap();
    }

    #[test]
    fn the_split_follows_threads_budget_and_graph_size() {
        const KB: usize = 1024;
        // (nodes, threads, budget bytes) → q.
        let table = [
            // One thread never splits.
            (65_536, 1, 256 * KB, 65_536),
            (1 << 20, 1, 256 * KB, 65_536),
            // A budget under twice the floor never splits.
            (65_536, 16, 16 * KB, 4_096),
            (65_536, 16, 31 * KB, 7_936),
            // A graph of at most q/2 nodes never splits.
            (32_768, 8, 256 * KB, 65_536),
            (1_000, 8, 256 * KB, 65_536),
            (0, 8, 256 * KB, 65_536),
            // Halve until every worker has two partitions…
            (65_536, 2, 256 * KB, 16_384),
            (65_536, 4, 256 * KB, 8_192),
            (32_769, 2, 256 * KB, 8_192),
            // …or the floor is reached…
            (65_536, 16, 256 * KB, 4_096),
            // …and not when the graph already has them.
            (1 << 20, 2, 256 * KB, 65_536),
            (1 << 20, 16, 256 * KB, 32_768),
        ];
        for (n, threads, bytes, q) in table {
            let cfg = PcpmConfig::default().with_partition_bytes(bytes);
            let got = cfg.split_partition_nodes(n, threads);
            assert_eq!(got, q, "{n} nodes, {threads} threads, {bytes} B");
            assert!(cfg.admits_partition_nodes(got));
        }
    }

    #[test]
    fn a_budget_admits_its_halvings_down_to_the_floor() {
        let cfg = PcpmConfig::default();
        for q in [65_536, 32_768, 16_384, 8_192, 4_096] {
            assert!(cfg.admits_partition_nodes(q), "{q}");
        }
        for q in [131_072, 49_152, 2_048, 1] {
            assert!(!cfg.admits_partition_nodes(q), "{q}");
        }
        let odd = PcpmConfig::default().with_partition_bytes(10);
        assert!(odd.admits_partition_nodes(2));
        assert!(!odd.admits_partition_nodes(1));
    }

    #[test]
    fn validation_catches_bad_fields() {
        assert_eq!(
            PcpmConfig::default().with_partition_bytes(0).validate(),
            Err(PcpmError::PartitionTooSmall)
        );
        let c = PcpmConfig {
            damping: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = PcpmConfig {
            tolerance: Some(-1.0),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = PcpmConfig {
            tolerance: Some(f64::NAN),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = PcpmConfig {
            threads: Some(0),
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn compact_bins_reject_partitions_past_fifteen_bits() {
        let max = crate::compact::MAX_COMPACT_PARTITION as usize;
        let at = PcpmConfig::default().with_partition_bytes(max * VALUE_BYTES);
        let over = at.with_partition_bytes((max + 1) * VALUE_BYTES);
        for format in BinFormatKind::ALL {
            assert!(at.with_bin_format(format).validate().is_ok(), "{format}");
            let want_err = format == BinFormatKind::Compact;
            let got = over.with_bin_format(format).validate();
            assert_eq!(got.is_err(), want_err, "{format}");
        }
    }

    #[test]
    fn builders_compose() {
        let c = PcpmConfig::default()
            .with_partition_bytes(1024)
            .with_iterations(5)
            .with_tolerance(1e-9)
            .with_threads(2)
            .with_kernel(KernelKind::Unrolled);
        assert_eq!(c.partition_nodes(), 256);
        assert_eq!(c.iterations, 5);
        assert_eq!(c.tolerance, Some(1e-9));
        assert_eq!(c.threads, Some(2));
        assert_eq!(c.kernel, KernelKind::Unrolled);
    }
}
