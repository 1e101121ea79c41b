//! What the numbers were taken on: CPU, caches, toolchain — and the
//! sequential-bandwidth roof, measured in the same run as the kernels that
//! are compared against it.

use crate::json::{obj, Json};
use crate::stats::median;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

/// `"4096K"` / `"260M"` as `/sys` prints cache sizes.
fn parse_size(text: &str) -> Option<u64> {
    let (digits, unit) = text.split_at(
        text.find(|c: char| !c.is_ascii_digit())
            .unwrap_or(text.len()),
    );
    let n: u64 = digits.parse().ok()?;
    match unit {
        "" => Some(n),
        "K" => Some(n << 10),
        "M" => Some(n << 20),
        "G" => Some(n << 30),
        _ => None,
    }
}

/// Size of cpu0's data/unified cache at `level`, from `/sys`.
fn cache_bytes(level: u32) -> Option<u64> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let lvl: u32 = read_trimmed(&format!("{dir}/level"))?.parse().ok()?;
        let kind = read_trimmed(&format!("{dir}/type"))?;
        (lvl == level && kind != "Instruction")
            .then(|| parse_size(&read_trimmed(&format!("{dir}/size"))?))
            .flatten()
    })
}

/// The last-level cache `ws_over_llc` and the triad arrays are sized
/// against. When `/sys` does not say, a 32 MiB guess is used and the host
/// record says it was assumed.
const ASSUMED_LLC_BYTES: u64 = 32 << 20;

pub fn llc_bytes() -> (u64, bool) {
    match cache_bytes(3).or_else(|| cache_bytes(2)) {
        Some(b) => (b, false),
        None => (ASSUMED_LLC_BYTES, true),
    }
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(f64::NAN, |k| k as f64 / 1024.0)
}

/// Restarts the `VmHWM` high-water mark from the current resident set, so
/// generating the input (whose sort buffers outweigh the engine) does not
/// set the peak that `peak_rss_mib` gates. Returns whether the kernel let us.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn mem_available_bytes() -> Option<u64> {
    let info = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("MemAvailable:"))?;
    Some(line.split_whitespace().nth(1)?.parse::<u64>().ok()? << 10)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The vector extensions this binary was compiled to use — what
/// `-C target-cpu=native` in `.cargo/config.toml` resolved to.
fn target_features() -> String {
    let mut f = Vec::new();
    for (on, name) in [
        (cfg!(target_feature = "sse4.2"), "sse4.2"),
        (cfg!(target_feature = "avx2"), "avx2"),
        (cfg!(target_feature = "bmi2"), "bmi2"),
        (cfg!(target_feature = "fma"), "fma"),
        (cfg!(target_feature = "avx512f"), "avx512f"),
        (cfg!(target_feature = "avx512bw"), "avx512bw"),
    ] {
        if on {
            f.push(name);
        }
    }
    if f.is_empty() {
        "baseline".to_owned()
    } else {
        f.join(",")
    }
}

/// The host and regime record written into every result file.
pub fn capture(seed: u64, quick: bool) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let (llc, llc_assumed) = llc_bytes();
    obj([
        ("nproc", nproc().into()),
        ("cpu_model", cpu.into()),
        ("l2_bytes", cache_bytes(2).map_or(Json::Null, Json::from)),
        ("l3_bytes", cache_bytes(3).map_or(Json::Null, Json::from)),
        ("llc_bytes", llc.into()),
        ("llc_assumed", llc_assumed.into()),
        ("rustc", command_line("rustc", &["-V"]).into()),
        (
            "git_rev",
            command_line("git", &["rev-parse", "--short", "HEAD"]).into(),
        ),
        ("target_features", target_features().into()),
        ("seed", seed.into()),
        ("threads_parallel", nproc().into()),
        ("threads_serial", 1usize.into()),
        ("tier", if quick { "quick" } else { "full" }.into()),
    ])
}

pub struct Triad {
    /// Bytes of each of the three arrays.
    pub array_bytes: u64,
    pub gbps_1t: f64,
    pub gbps: f64,
    /// The arrays are at least four times the LLC, so the figures are a
    /// DRAM roof and `gather.pct_of_roof` may be stated.
    pub qualifies: bool,
}

/// STREAM triad `a[i] = b[i] + s * c[i]` over f64 arrays, counted the
/// STREAM way (24 bytes per element). One discarded pass, then the median
/// of three, on one thread and on `nproc`.
pub fn triad(llc: u64, quick: bool) -> Triad {
    let want = if quick { 8 << 20 } else { 4 * llc };
    // Three arrays must fit beside the workload's own data.
    let cap = mem_available_bytes().map_or(want, |m| m / 8);
    let array_bytes = want.min(cap).max(1 << 20);
    let n = (array_bytes / 8) as usize;
    // First touch on every thread at once: faulting gigabytes of fresh
    // pages in from one thread takes longer than all the measured passes.
    let filled = |value: f64| -> Vec<f64> {
        let mut v = vec![0.0f64; n];
        std::thread::scope(|s| {
            for part in v.chunks_mut(n.div_ceil(nproc())) {
                s.spawn(move || part.fill(value));
            }
        });
        v
    };
    let (mut a, b, c) = (filled(0.5), filled(1.5), filled(2.5));
    let mut run = |threads: usize| -> f64 {
        let chunk = n.div_ceil(threads);
        let mut pass = || {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for ((a, b), c) in a
                    .chunks_mut(chunk)
                    .zip(b.chunks(chunk))
                    .zip(c.chunks(chunk))
                {
                    s.spawn(move || {
                        for ((a, &b), &c) in a.iter_mut().zip(b).zip(c) {
                            *a = b + 3.0 * c;
                        }
                        std::hint::black_box(a);
                    });
                }
            });
            t0.elapsed().as_secs_f64()
        };
        pass();
        let secs = median(&[pass(), pass(), pass()]);
        (3 * 8 * n) as f64 / secs / 1e9
    };
    let gbps_1t = run(1);
    let gbps = run(nproc());
    assert!(a[n / 2] == 9.0, "triad result");
    Triad {
        array_bytes: (n * 8) as u64,
        gbps_1t,
        gbps,
        qualifies: (n * 8) as u64 >= 4 * llc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sys_cache_sizes_parse() {
        assert_eq!(parse_size("4096K"), Some(4 << 20));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("big"), None);
    }

    #[test]
    fn quick_triad_runs_and_does_not_qualify_as_a_dram_roof() {
        let t = triad(64 << 20, true);
        assert!(t.gbps_1t > 0.0 && t.gbps > 0.0);
        assert!(!t.qualifies);
    }
}
