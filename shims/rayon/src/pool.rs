// pcpm-lint: allow-file(unsafe-budget, reason = "vendored rayon stand-in: the Job lifetime-erasure protocol (transmute to 'static plus Send/Sync impls) is the pool's documented core and is audited in-file, not site-by-site")
//! The work-sharing execution core behind the rayon shim.
//!
//! One [`PoolShared`] owns a single *job slot*: at most one parallel
//! operation is in flight per pool at a time (submitters queue on
//! [`PoolShared::submit`]). A job decomposes `0..len` into chunks whose
//! boundaries are a pure function of `len` — never of the worker count —
//! and the participating threads claim chunks with one `fetch_add` each.
//! That fixed decomposition is what makes every reduction in the
//! workspace bit-identical across thread counts: chunk *assignment* is
//! scheduler-dependent, chunk *boundaries* and the order partial results
//! are combined in are not.
//!
//! Run to completion: a pool of N threads is the submitting thread plus
//! N − 1 persistent workers. The submitter publishes a job, claims
//! chunks alongside the workers, and only then waits for the chunks
//! others still hold. A worker that runs out of chunks polls the job
//! generation for a bounded spin ([`SPIN_LIMIT`]) before it parks on the
//! condvar, and the submitter spins on the finished count the same way,
//! so back-to-back jobs (the two phases of a PCPM round) hand off
//! without a futex wake-up; a parked side is woken only if it parked.
//!
//! Panic protocol: a panic inside a chunk is caught on the thread that
//! ran it (worker or submitter), the job is poisoned (remaining chunks
//! are skipped), and the payload is re-thrown on the submitting thread
//! once every claimed chunk has finished. The pool itself survives and
//! keeps serving jobs.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Upper bound on the number of chunks a job is split into. 64 keeps
/// claim overhead negligible while giving an 8-thread pool ~8 chunks of
/// slack for load balancing skewed partition work.
const MAX_CHUNKS: usize = 64;

/// `spin_loop` hints a thread spends polling for the next job (worker)
/// or for the last chunk (submitter) before it parks on a condvar. A
/// count, not a time: one hint costs from ~10 to ~140 cycles depending
/// on the CPU. Calibrated on one 2-vCPU x86-64 host, where 30 000 hints
/// take ≈ 0.57 ms — long enough to span the serial work between the
/// two phases of a `pr-cache` round. A 4 000-hint budget (≈ 75 µs
/// there) measured no different on that host; the larger count keeps
/// the spin spanning that gap on a CPU whose hint is several times
/// cheaper.
const SPIN_LIMIT: u32 = 30_000;

/// Spins until `ready` holds or [`SPIN_LIMIT`] polls have passed;
/// returns whether it held.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    for _ in 0..SPIN_LIMIT {
        if ready() {
            return true;
        }
        std::hint::spin_loop();
    }
    ready()
}

/// Cap on the *default* (env-derived) pool size; explicit
/// `num_threads(n)` requests are never capped.
const MAX_DEFAULT_THREADS: usize = 16;

/// Chunk length for a job over `len` items — a pure function of `len`,
/// which is the determinism contract every reduction relies on.
pub(crate) fn chunk_size_for(len: usize) -> usize {
    len.div_ceil(MAX_CHUNKS).max(1)
}

// --- instrumentation (monotonic, global) -----------------------------------

/// Worker threads ever spawned, process-wide.
pub(crate) static WORKERS_SPAWNED: AtomicUsize = AtomicUsize::new(0);
/// Worker threads that have exited (pool drops join their workers).
pub(crate) static WORKERS_EXITED: AtomicUsize = AtomicUsize::new(0);
/// Jobs handed to a worker pool (inline executions are not counted).
pub(crate) static JOBS_DISPATCHED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Stack of pools installed via `ThreadPool::install` on this thread.
    static INSTALLED: RefCell<Vec<Arc<PoolShared>>> = const { RefCell::new(Vec::new()) };
    /// Non-zero on pool worker threads: the owning pool's thread count.
    static WORKER_THREADS: Cell<usize> = const { Cell::new(0) };
    /// True while this thread works or waits on a job it submitted;
    /// nested parallel ops then run inline instead of deadlocking on the
    /// submit lock.
    static JOB_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Default pool size: `RAYON_NUM_THREADS` when set and positive,
/// otherwise the machine's available parallelism (capped).
pub(crate) fn default_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_DEFAULT_THREADS)
}

/// Thread count governing parallel ops started on this thread.
pub(crate) fn current_threads() -> usize {
    let w = WORKER_THREADS.with(Cell::get);
    if w != 0 {
        return w;
    }
    if let Some(t) = INSTALLED.with(|p| p.borrow().last().map(|s| s.threads)) {
        return t;
    }
    default_threads()
}

// --- job -------------------------------------------------------------------

struct Job {
    len: usize,
    chunk_size: usize,
    n_chunks: usize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Chunks fully processed (run, skipped-poisoned, or panicked).
    finished: AtomicUsize,
    /// Set on first panic: later claims skip their chunk body.
    poisoned: AtomicBool,
    /// First panic payload, re-thrown by the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Slow path of the completion handoff, for a submitter that
    /// outlasted its spin.
    done: Mutex<Done>,
    done_cv: Condvar,
    /// Lifetime-erased reference to the submitter's chunk closure; the
    /// submitter does not return until `finished == n_chunks`, so the
    /// borrow outlives every dereference.
    run: &'static (dyn Fn(Range<usize>) + Sync),
}

#[derive(Default)]
struct Done {
    /// Every chunk has finished.
    done: bool,
    /// The submitter is asleep on `done_cv` and must be notified.
    parked: bool,
}

// SAFETY: `run` is only dereferenced for successfully claimed chunk
// indices, and the submitter keeps the closure alive until `finished ==
// n_chunks`; all other fields are Sync.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and processes chunks until none remain. Called by the
    /// submitter right after it publishes the job, and by every worker
    /// that picks the job up.
    fn participate(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_chunks {
                return;
            }
            if !self.poisoned.load(Ordering::Relaxed) {
                let lo = i * self.chunk_size;
                let hi = self.len.min(lo + self.chunk_size);
                let run = self.run;
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(lo..hi))) {
                    self.poisoned.store(true, Ordering::Relaxed);
                    let mut slot = self.panic.lock().unwrap();
                    slot.get_or_insert(payload);
                }
            }
            // AcqRel: the chunk's writes (and its panic payload) are
            // released into the count the submitter acquires.
            if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.n_chunks {
                let mut d = self.done.lock().unwrap();
                d.done = true;
                if d.parked {
                    self.done_cv.notify_one();
                }
            }
        }
    }

    /// Returns once every chunk has finished: spins on the count first,
    /// then sleeps until the last finisher sets `done`.
    fn wait_done(&self) {
        if spin_until(|| self.finished.load(Ordering::Acquire) == self.n_chunks) {
            return;
        }
        let mut d = self.done.lock().unwrap();
        while !d.done {
            d.parked = true;
            d = self.done_cv.wait(d).unwrap();
        }
    }
}

// --- pool ------------------------------------------------------------------

struct JobSlot {
    job: Option<Arc<Job>>,
    /// Workers asleep on `work_cv`; a publish notifies only if non-zero.
    parked: usize,
}

pub(crate) struct PoolShared {
    /// Compute width: the submitting thread plus `threads − 1` workers.
    pub(crate) threads: usize,
    slot: Mutex<JobSlot>,
    /// Bumped under the `slot` lock on every publish. Spinning workers
    /// poll it without the lock; they read the job itself under the lock,
    /// so the counter publishes nothing and is `Relaxed`.
    generation: AtomicU64,
    work_cv: Condvar,
    /// Serializes submitters: one job in flight per pool.
    submit: Mutex<()>,
    shutdown: AtomicBool,
}

/// RAII: marks a submitted job in flight on this thread (nested parallel
/// ops go inline), cleared even if the job panics.
struct JobActiveGuard {
    prev: bool,
}

impl JobActiveGuard {
    fn arm() -> Self {
        let prev = JOB_ACTIVE.with(Cell::get);
        JOB_ACTIVE.with(|c| c.set(true));
        Self { prev }
    }
}

impl Drop for JobActiveGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        JOB_ACTIVE.with(|c| c.set(prev));
    }
}

impl PoolShared {
    fn publish(
        &self,
        len: usize,
        chunk_size: usize,
        n_chunks: usize,
        f: &(dyn Fn(Range<usize>) + Sync),
    ) -> Arc<Job> {
        // SAFETY: lifetime erasure only — the submitter does not return
        // from `execute`/`join` until every claimed chunk has finished, so
        // the closure is alive for every dereference of `run`.
        let run: &'static (dyn Fn(Range<usize>) + Sync) = unsafe { std::mem::transmute(f) };
        let job = Arc::new(Job {
            len,
            chunk_size,
            n_chunks,
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::default(),
            done_cv: Condvar::new(),
            run,
        });
        let wake = {
            let mut slot = self.slot.lock().unwrap();
            slot.job = Some(Arc::clone(&job));
            self.generation.fetch_add(1, Ordering::Relaxed);
            slot.parked > 0
        };
        if wake {
            self.work_cv.notify_all();
        }
        JOBS_DISPATCHED.fetch_add(1, Ordering::Relaxed);
        job
    }

    fn clear_slot(&self) {
        let mut slot = self.slot.lock().unwrap();
        slot.job = None;
    }

    /// Runs one chunked job to completion: the calling thread claims
    /// chunks alongside the workers, waits for the chunks they still
    /// hold, then re-throws the first chunk panic, if any.
    fn execute(
        &self,
        len: usize,
        chunk_size: usize,
        n_chunks: usize,
        f: &(dyn Fn(Range<usize>) + Sync),
    ) {
        let payload = {
            let _submit = self.submit.lock().unwrap();
            let _active = JobActiveGuard::arm();
            let job = self.publish(len, chunk_size, n_chunks, f);
            job.participate();
            job.wait_done();
            self.clear_slot();
            let payload = job.panic.lock().unwrap().take();
            payload
        };
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }

    /// `rayon::join`: `b` runs as a one-shot job on the workers while the
    /// calling thread runs `a`; if no worker has claimed `b` by the time
    /// `a` returns, the calling thread runs it too. Panic in `a` wins
    /// (after `b` completes); otherwise a panic in `b` is re-thrown.
    pub(crate) fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RB: Send,
    {
        let b_result: Mutex<Option<RB>> = Mutex::new(None);
        let b_cell = Mutex::new(Some(b));
        let run = |_: Range<usize>| {
            let f = b_cell.lock().unwrap().take().expect("join task runs once");
            *b_result.lock().unwrap() = Some(f());
        };
        let (ra, b_panic) = {
            let _submit = self.submit.lock().unwrap();
            let _active = JobActiveGuard::arm();
            let job = self.publish(1, 1, 1, &run);
            let ra = catch_unwind(AssertUnwindSafe(a));
            job.participate();
            job.wait_done();
            self.clear_slot();
            let b_panic = job.panic.lock().unwrap().take();
            (ra, b_panic)
        };
        match ra {
            Err(p) => resume_unwind(p),
            Ok(ra) => {
                if let Some(p) = b_panic {
                    resume_unwind(p);
                }
                let rb = b_result.into_inner().unwrap().expect("join task completed");
                (ra, rb)
            }
        }
    }
}

/// A worker: picks up each new generation, works the job until its
/// chunks are gone, then spins for the next one and parks when the spin
/// runs out.
fn worker_loop(shared: Arc<PoolShared>) {
    WORKER_THREADS.with(|c| c.set(shared.threads));
    let mut last_gen = 0u64;
    loop {
        spin_until(|| {
            shared.shutdown.load(Ordering::Relaxed)
                || shared.generation.load(Ordering::Relaxed) != last_gen
        });
        let job = {
            let mut slot = shared.slot.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    WORKERS_EXITED.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let generation = shared.generation.load(Ordering::Relaxed);
                if generation != last_gen {
                    last_gen = generation;
                    // `None`: the job already finished and was cleared;
                    // go back to spinning for the next one.
                    break slot.job.clone();
                }
                slot.parked += 1;
                slot = shared.work_cv.wait(slot).unwrap();
                slot.parked -= 1;
            }
        };
        if let Some(job) = job {
            job.participate();
        }
    }
}

/// A pool plus its worker join handles; dropping shuts the workers down
/// and joins them.
pub(crate) struct PoolHandle {
    pub(crate) shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl PoolHandle {
    pub(crate) fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            threads,
            slot: Mutex::new(JobSlot {
                job: None,
                parked: 0,
            }),
            generation: AtomicU64::new(0),
            work_cv: Condvar::new(),
            submit: Mutex::new(()),
            shutdown: AtomicBool::new(false),
        });
        // The thread that submits a job is its first participant, so the
        // pool spawns one worker fewer than its compute width.
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                // pcpm-lint: allow(determinism, reason = "this is the deterministic pool itself: the one sanctioned spawner every kernel must route through")
                let handle = std::thread::Builder::new()
                    .name(format!("pcpm-rayon-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker");
                // Counted here (not in the worker) so the instrumentation
                // is visible as soon as pool construction returns.
                WORKERS_SPAWNED.fetch_add(1, Ordering::Relaxed);
                handle
            })
            .collect();
        Self { shared, workers }
    }

    pub(crate) fn shared(&self) -> Arc<PoolShared> {
        Arc::clone(&self.shared)
    }

    /// Worker threads spawned: one fewer than the compute width.
    pub(crate) fn num_workers(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Spinning workers see the flag in their spin; take the slot lock
        // so parked workers can't miss the wakeup.
        drop(self.shared.slot.lock().unwrap());
        self.shared.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The process-global pool, built lazily on first use (never dropped;
/// its workers die with the process).
fn global() -> &'static PoolHandle {
    static GLOBAL: OnceLock<PoolHandle> = OnceLock::new();
    GLOBAL.get_or_init(|| PoolHandle::new(default_threads()))
}

/// RAII for `ThreadPool::install`: pushes the pool onto this thread's
/// stack so parallel ops dispatch to it, and pops on drop (panic-safe).
pub(crate) struct InstallGuard;

impl InstallGuard {
    pub(crate) fn push(shared: Arc<PoolShared>) -> Self {
        INSTALLED.with(|p| p.borrow_mut().push(shared));
        InstallGuard
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED.with(|p| {
            p.borrow_mut().pop();
        });
    }
}

// --- dispatch --------------------------------------------------------------

enum Exec {
    /// Run chunks on the calling thread, in chunk order.
    Inline,
    /// Share the job between the calling thread and this pool's workers.
    Pool(Arc<PoolShared>),
}

/// Where a parallel op started on this thread should run. Worker threads
/// and threads working a job they submitted run inline (that is what
/// makes nested ops — including nested `join` — deadlock-free); a
/// 1-thread pool is equivalent to inline execution and skips the
/// cross-thread handoff.
fn resolve() -> Exec {
    if WORKER_THREADS.with(Cell::get) != 0 || JOB_ACTIVE.with(Cell::get) {
        return Exec::Inline;
    }
    let shared = INSTALLED
        .with(|p| p.borrow().last().cloned())
        .unwrap_or_else(|| Arc::clone(&global().shared));
    if shared.threads <= 1 {
        Exec::Inline
    } else {
        Exec::Pool(shared)
    }
}

/// Runs `f` over the fixed chunk decomposition of `0..len`. The inline
/// and pooled paths use identical chunk boundaries and in-chunk order,
/// so results are bit-identical for any thread count.
pub(crate) fn run_job(len: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
    if len == 0 {
        return;
    }
    let size = chunk_size_for(len);
    let n = len.div_ceil(size);
    if n == 1 {
        // Single chunk: no decomposition to distribute (and no reason to
        // force the lazy global pool into existence).
        f(0..len);
        return;
    }
    match resolve() {
        Exec::Inline => {
            for i in 0..n {
                f(i * size..len.min((i + 1) * size));
            }
        }
        Exec::Pool(shared) => shared.execute(len, size, n, f),
    }
}

/// Like [`run_job`] but collects one result per chunk, returned in chunk
/// order — the deterministic combination step behind `sum` / `collect`.
pub(crate) fn run_job_collect<R: Send>(len: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    if len == 0 {
        return Vec::new();
    }
    let size = chunk_size_for(len);
    let n = len.div_ceil(size);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run_job(len, &|range: Range<usize>| {
        let idx = range.start / size;
        let value = f(range);
        *slots[idx].lock().unwrap() = Some(value);
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("chunk completed"))
        .collect()
}

/// `rayon::join`, dispatched like any other parallel op.
pub(crate) fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    match resolve() {
        Exec::Inline => (a(), b()),
        Exec::Pool(shared) => shared.join(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Many tiny jobs, with an idle gap longer than the spin before every
    /// hundredth so the workers park and the next publish must wake
    /// them: a lost wakeup shows as a hang, a torn handoff as a wrong
    /// sum. Each pool is dropped right after its last job.
    #[test]
    fn tiny_jobs_survive_park_and_wake_cycles() {
        let t0 = Instant::now();
        spin_until(|| false);
        let gap = t0.elapsed() * 2 + Duration::from_millis(1);
        let v: Vec<f64> = (0..512)
            .map(|i| ((i * 2654435761u64 % 1000) as f64).powi((i % 7) as i32 - 3))
            .collect();
        let sum = || -> f64 {
            let parts =
                run_job_collect(v.len(), |range: Range<usize>| v[range].iter().sum::<f64>());
            parts.into_iter().sum()
        };
        let inline = PoolHandle::new(1);
        let want = {
            let _installed = InstallGuard::push(inline.shared());
            sum()
        };
        for threads in [2, 4] {
            let exited_before = WORKERS_EXITED.load(Ordering::Relaxed);
            let pool = PoolHandle::new(threads);
            let installed = InstallGuard::push(pool.shared());
            for job in 0..10_000 {
                if job % 100 == 0 {
                    std::thread::sleep(gap);
                }
                let got = sum();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "job {job} on {threads} threads"
                );
            }
            drop(installed);
            drop(pool);
            assert!(WORKERS_EXITED.load(Ordering::Relaxed) >= exited_before + threads - 1);
        }
    }
}
