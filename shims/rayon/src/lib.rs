//! Offline stand-in for the subset of [rayon](https://docs.rs/rayon)
//! this workspace uses — backed by a real `std::thread` work-sharing
//! pool since PR 3 (the build environment has no crates.io access, so
//! upstream rayon cannot be a dependency; swapping it back in remains a
//! one-line change in the root `Cargo.toml` and requires no source
//! edits).
//!
//! # What is real
//!
//! - [`ThreadPool`] spawns persistent named workers
//!   (`ThreadPoolBuilder::num_threads(n)`, `0` = available
//!   parallelism / `RAYON_NUM_THREADS`); dropping the pool shuts the
//!   workers down and joins them. An `n`-thread pool is the thread that
//!   submits a job plus `n − 1` workers.
//! - `par_iter` / `par_iter_mut` / `into_par_iter` over slices, `Vec`s
//!   and integer ranges — the only call-site shapes in the workspace —
//!   run chunked across the pool, as do [`join`] and
//!   `par_sort`/`par_sort_unstable`.
//!
//! # Determinism
//!
//! Every parallel op splits `0..len` into chunks whose boundaries are a
//! pure function of `len` (never of the thread count), drives chunks
//! sequentially in ascending index order, and combines per-chunk
//! results in chunk order. Floating-point reductions therefore round
//! identically on 1 and N threads, and kernels that write disjoint
//! output slices are bit-identical by construction — the property the
//! workspace's `parallel_determinism` suite asserts for every backend.
//!
//! # Divergences from upstream rayon
//!
//! - [`ThreadPool::install`] runs the closure on the *calling* thread
//!   (upstream moves it to a worker); parallel ops inside still
//!   dispatch to the installed pool, so engine semantics are identical.
//! - No work stealing: one job is in flight per pool at a time, and
//!   nested parallel ops (including nested [`join`]) run inline on the
//!   thread that issued them — deadlock-free by construction.
//! - The submitting thread works its own job: it claims chunks
//!   alongside the workers instead of sleeping until they finish, so an
//!   `n`-thread pool spawns `n − 1` workers and a 1-thread pool spawns
//!   none and executes inline; the chunk decomposition is unchanged.
//! - Idle workers spin for a fixed count of `spin_loop` hints (30 000,
//!   ≈ 0.57 ms on the 2-vCPU x86-64 host it was calibrated on) before
//!   they park, and the submitter spins the same way for the last chunk,
//!   so back-to-back jobs hand off without a sleeping-thread wake-up.

mod iter;
mod pool;
mod sort;

/// The parallel-iterator traits, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelIterator,
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator, ParallelSliceMut,
    };
}

pub use iter::{FromParallelIterator, IndexedParallelIterator, ParallelIterator};

/// Number of threads governing parallel ops started on the current
/// thread: the worker's own pool on pool threads, the installed pool
/// inside [`ThreadPool::install`], otherwise the global default.
pub fn current_num_threads() -> usize {
    pool::current_threads()
}

/// Runs `a` and `b`, potentially in parallel (`b` is offloaded to the
/// ambient pool while the calling thread runs `a`). On worker threads
/// and inside an already-running job both run inline — nested joins
/// never deadlock.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    pool::join(a, b)
}

/// Error type returned by [`ThreadPoolBuilder::build`] (never
/// constructed by the shim; kept for API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error (unreachable in the shim)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A pool of persistent worker threads. Parallel ops started inside
/// [`ThreadPool::install`] run on it; dropping the pool joins the
/// workers.
pub struct ThreadPool {
    handle: pool::PoolHandle,
}

impl ThreadPool {
    /// Runs `op` with this pool installed as the ambient pool for the
    /// duration (on the calling thread — see the module docs for the
    /// divergence from upstream). The `Send` bounds match the real
    /// rayon signature so code written against the shim compiles
    /// unchanged against the real crate.
    pub fn install<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        let _guard = pool::InstallGuard::push(self.handle.shared());
        op()
    }

    /// This pool's thread count: the submitting thread plus its workers.
    pub fn current_num_threads(&self) -> usize {
        self.handle.shared.threads
    }

    /// Shim extension: worker threads this pool spawned (one fewer than
    /// the configured thread count — the submitting thread is the
    /// other). Used by the workspace's pool instrumentation regression
    /// tests.
    pub fn num_workers(&self) -> usize {
        self.handle.num_workers()
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the thread count; `0` (the default) means available
    /// parallelism, honoring `RAYON_NUM_THREADS`.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Spawns the workers (one fewer than the thread count).
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.threads == 0 {
            pool::default_threads()
        } else {
            self.threads
        };
        Ok(ThreadPool {
            handle: pool::PoolHandle::new(threads),
        })
    }
}

/// Monotonic process-wide instrumentation counters. These only ever
/// increase, so tests can assert deltas without coordinating with
/// concurrently running tests.
pub mod diagnostics {
    use std::sync::atomic::Ordering;

    /// Worker threads spawned since process start.
    pub fn workers_spawned() -> usize {
        crate::pool::WORKERS_SPAWNED.load(Ordering::Relaxed)
    }

    /// Worker threads that have exited (pools joined on drop).
    pub fn workers_exited() -> usize {
        crate::pool::WORKERS_EXITED.load(Ordering::Relaxed)
    }

    /// Jobs dispatched to worker pools (inline runs are not counted).
    pub fn jobs_dispatched() -> usize {
        crate::pool::JOBS_DISPATCHED.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn pool(n: usize) -> super::ThreadPool {
        super::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    #[test]
    fn par_iter_matches_iter() {
        let v = vec![1, 2, 3, 4];
        let s: i32 = v.par_iter().sum();
        assert_eq!(s, 10);
        let doubled: Vec<i32> = v.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
    }

    #[test]
    fn par_iter_mut_mutates() {
        let mut v = vec![1, 2, 3];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(v, vec![2, 3, 4]);
    }

    #[test]
    fn ranges_and_slices_of_mut_slices_work() {
        let mut data = vec![0u32; 6];
        let (a, b) = data.split_at_mut(3);
        vec![a, b]
            .into_par_iter()
            .enumerate()
            .for_each(|(i, s)| s.fill(i as u32));
        assert_eq!(data, vec![0, 0, 0, 1, 1, 1]);
        let total: u32 = (0u32..5).into_par_iter().sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn pool_installs_and_runs_work() {
        let pool = pool(4);
        assert_eq!(pool.install(|| 21 * 2), 42);
        // A large enough op inside install actually crosses the pool.
        let before = super::diagnostics::jobs_dispatched();
        let n = 1 << 16;
        let mut out = vec![0u64; n];
        pool.install(|| {
            out.par_iter_mut()
                .enumerate()
                .for_each(|(i, slot)| *slot = i as u64 * 3);
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
        assert!(super::diagnostics::jobs_dispatched() > before);
    }

    #[test]
    fn par_sort_sorts() {
        let mut v = vec![3u8, 1, 2];
        v.par_sort_unstable();
        assert_eq!(v, vec![1, 2, 3]);
        // Large enough to exercise the parallel merge path.
        let mut big: Vec<u64> = (0..100_000u64)
            .map(|i| i.wrapping_mul(0x9e3779b9) % 7919)
            .collect();
        let mut want = big.clone();
        want.sort_unstable();
        big.par_sort_unstable();
        assert_eq!(big, want);
        let mut stable: Vec<(u32, u32)> = (0..50_000u32).map(|i| (i % 13, i)).collect();
        let mut want2 = stable.clone();
        want2.sort();
        stable.par_sort();
        assert_eq!(stable, want2);
    }

    #[test]
    fn zip_filter_map_sum_matches_serial() {
        let a: Vec<f32> = (0..10_000).map(|i| (i % 97) as f32).collect();
        let d: Vec<u64> = (0..10_000).map(|i| (i % 3) as u64).collect();
        let par: f64 = a
            .par_iter()
            .zip(&d)
            .filter(|(_, &deg)| deg == 0)
            .map(|(&x, _)| f64::from(x))
            .sum();
        let serial: f64 = a
            .iter()
            .zip(&d)
            .filter(|(_, &deg)| deg == 0)
            .map(|(&x, _)| f64::from(x))
            .sum();
        // Identical chunking on every path keeps this bit-exact.
        assert_eq!(par.to_bits(), serial.to_bits());
    }

    #[test]
    fn reductions_bit_identical_across_thread_counts() {
        // Adversarial float magnitudes: any change in association order
        // would change the rounding, so bit equality proves the chunk
        // decomposition is thread-count independent.
        let v: Vec<f64> = (0..100_000)
            .map(|i| ((i * 2654435761u64 % 1000) as f64).powi((i % 7) as i32 - 3))
            .collect();
        let sums: Vec<u64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| pool(t).install(|| v.par_iter().sum::<f64>().to_bits()))
            .collect();
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "sums {sums:?}");
    }

    #[test]
    fn panic_in_one_task_propagates_and_pool_survives() {
        let pool = pool(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                (0u32..10_000).into_par_iter().for_each(|i| {
                    assert!(i != 4321, "boom at {i}");
                });
            });
        }));
        let msg = r.expect_err("panic must propagate");
        let text = msg.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("boom at 4321"), "payload: {text}");
        // The pool keeps serving jobs after the poisoned one.
        let total: u64 = pool.install(|| (0u64..1000).into_par_iter().sum());
        assert_eq!(total, 499_500);
    }

    #[test]
    fn zero_threads_falls_back_to_available_parallelism() {
        let pool = pool(0);
        let threads = super::pool::default_threads();
        assert_eq!(pool.current_num_threads(), threads);
        assert_eq!(pool.num_workers(), threads - 1);
    }

    #[test]
    fn nested_join_does_not_deadlock() {
        let pool = pool(2);
        let r = pool.install(|| {
            super::join(
                || {
                    let (a, b) = super::join(|| 1, || 2);
                    a + b
                },
                || {
                    let (c, d) = super::join(|| 10, || 20);
                    c + d
                },
            )
        });
        assert_eq!(r, (3, 30));
        // join nested inside a parallel op (worker context) is inline.
        let s: u32 = pool.install(|| {
            (0u32..64)
                .into_par_iter()
                .map(|i| super::join(|| i, || i).0)
                .sum()
        });
        assert_eq!(s, 2016);
    }

    #[test]
    fn join_panic_propagates() {
        let pool = pool(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| super::join(|| 1, || panic!("join-b dies")))
        }));
        assert!(r.is_err());
        // And the caller side too.
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| super::join(|| panic!("join-a dies"), || 2))
        }));
        assert!(r.is_err());
        assert_eq!(pool.install(|| super::join(|| 5, || 6)), (5, 6));
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let spawned_before = super::diagnostics::workers_spawned();
        let exited_before = super::diagnostics::workers_exited();
        let p = pool(3);
        // The submitting thread is the third.
        assert!(super::diagnostics::workers_spawned() >= spawned_before + 2);
        // The pool is usable before being dropped.
        assert_eq!(
            p.install(|| (0u64..10_000).into_par_iter().sum::<u64>()),
            49_995_000
        );
        drop(p);
        assert!(super::diagnostics::workers_exited() >= exited_before + 2);
    }

    #[test]
    fn one_thread_pool_spawns_no_worker_and_runs_inline() {
        let p = pool(1);
        assert_eq!(p.num_workers(), 0);
        assert_eq!(p.current_num_threads(), 1);
        let me = std::thread::current().id();
        let ran_here: Vec<bool> = p.install(|| {
            (0u32..1000)
                .into_par_iter()
                .map(|_| std::thread::current().id() == me)
                .collect()
        });
        assert!(ran_here.iter().all(|&here| here));
        assert_eq!(
            p.install(|| (0u64..10_000).into_par_iter().sum::<u64>()),
            49_995_000
        );
    }

    #[test]
    fn submitter_and_worker_share_the_chunks() {
        let p = pool(2);
        assert_eq!(p.num_workers(), 1);
        let me = std::thread::current().id();
        // 64 chunks of one item, each long enough that the worker wakes
        // and claims some before the submitter has worked them all.
        let ids: Vec<std::thread::ThreadId> = p.install(|| {
            (0u32..64)
                .into_par_iter()
                .map(|_| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    std::thread::current().id()
                })
                .collect()
        });
        let distinct: std::collections::BTreeSet<String> =
            ids.iter().map(|id| format!("{id:?}")).collect();
        assert_eq!(distinct.len(), 2, "threads {distinct:?}");
        assert!(ids.contains(&me), "the submitter ran no chunk");
    }

    #[test]
    fn panic_in_a_chunk_the_submitter_ran_propagates() {
        let p = pool(2);
        let me = std::thread::current().id();
        let r = catch_unwind(AssertUnwindSafe(|| {
            p.install(|| {
                (0u32..64).into_par_iter().for_each(|i| {
                    if std::thread::current().id() == me {
                        panic!("submitter chunk {i} dies");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                });
            });
        }));
        let msg = r.expect_err("panic must propagate");
        let text = msg.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("dies"), "payload: {text}");
        let total: u64 = p.install(|| (0u64..1000).into_par_iter().sum());
        assert_eq!(total, 499_500);
    }

    #[test]
    fn collect_preserves_order_with_many_chunks() {
        let n = 123_457usize;
        let v: Vec<usize> = (0..n).into_par_iter().map(|i| i * 7).collect();
        assert_eq!(v.len(), n);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 7));
    }
}
