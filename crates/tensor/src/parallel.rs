//! Deterministic kernel-level parallelism on a persistent worker pool.
//!
//! The autograd graph stays strictly single-threaded (`Rc`-based handles,
//! `RefCell` buffers); only the dense inner kernels underneath it fan out.
//! A kernel call partitions its work into **disjoint output blocks**
//! (contiguous row ranges or batch chunks), and every block is computed by
//! exactly one task with the same serial inner-loop code the
//! single-threaded path runs. Because no output element is ever touched by
//! two tasks and no cross-task reduction exists, the parallel result is
//! bitwise identical to the serial one — there is no atomic accumulation
//! and no reduction-order drift, by construction.
//!
//! ## Pool model
//!
//! Workers are plain `std::thread`s (the workspace is dependency-free),
//! spawned lazily on first use and kept alive for the process lifetime.
//! The pool size comes from the `TIMEKD_THREADS` environment variable
//! (default: the host's available parallelism; `1` forces the serial
//! path). [`with_threads`] scopes a thread-local override so benchmarks
//! and determinism tests can compare serial and parallel execution inside
//! one process.
//!
//! A job is published under a mutex as a type-erased closure plus three
//! counters living on the submitter's stack: `next` (task claim cursor),
//! `done` (finished tasks) and `attached` (workers currently holding a
//! reference to the job). Workers and the submitting thread drain tasks
//! from the shared cursor; the submitter returns only after every task
//! finished **and** every worker detached, which is what makes the
//! borrowed-closure lifetime sound. Task *claiming* order is dynamic
//! (first-come first-served) but that only decides which thread computes a
//! block, never the arithmetic inside it, so scheduling cannot affect
//! results.
//!
//! Kernels called from inside a worker task run serially (a thread-local
//! flag suppresses nested parallelism), so e.g. a batched matmul that
//! parallelises over the batch axis never deadlocks the pool with inner
//! row-parallel calls.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

thread_local! {
    /// Thread-local effective-thread override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// True while this thread is executing pool tasks (worker threads, and
    /// any thread draining a job it submitted). Nested kernel calls then
    /// take the serial path.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Hard cap on the pool size; guards against absurd `TIMEKD_THREADS`
/// values and runaway [`with_threads`] requests.
const MAX_THREADS: usize = 128;

/// Number of threads the pool is configured for: `TIMEKD_THREADS` if set
/// to a positive integer, otherwise the host's available parallelism
/// (clamped to [1, 128]). A value of `1` disables the pool entirely.
pub fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        let from_env = std::env::var("TIMEKD_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        let n =
            from_env.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
        n.min(MAX_THREADS)
    })
}

/// Effective thread count for the current thread: the innermost
/// [`with_threads`] override if one is active, else [`configured_threads`].
pub fn effective_threads() -> usize {
    THREAD_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(configured_threads)
        .clamp(1, MAX_THREADS)
}

/// Number of hardware threads actually available to this process
/// (affinity/cgroup aware), clamped to `[1, 128]`. Shard-count heuristics
/// use this so an oversubscribed `TIMEKD_THREADS` never fans coarse
/// blocks wider than the machine can physically run: extra shards on a
/// smaller machine would only time-slice the same cores and thrash each
/// shard's working set through the cache. Results never depend on the
/// shard count — this is purely a scheduling bound.
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(MAX_THREADS)
    })
}

/// Runs `f` with nested parallelism suppressed on this thread, exactly as
/// if it were executing inside a claimed pool task. The batched trainer
/// uses this when its lane shards collapse to a single block, so lane
/// replays keep the batch region's "no op-level fan-out" contract
/// regardless of how many shards the replay was split into.
pub(crate) fn with_serial_region<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_PARALLEL_REGION.with(|c| c.set(self.0));
        }
    }
    let prev = IN_PARALLEL_REGION.with(|c| c.replace(true));
    let _restore = Restore(prev);
    f()
}

/// Runs `f` with the effective thread count overridden to `n` on this
/// thread. `with_threads(1, …)` forces the serial path; benchmarks and
/// determinism tests use this to compare serial and parallel execution in
/// one process. Overrides nest; the previous value is restored even if
/// `f` panics.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(n.clamp(1, MAX_THREADS))));
    let _restore = Restore(prev);
    f()
}

/// True while the current thread is executing a pool task; kernels use
/// this to take the serial path instead of re-entering the pool.
pub fn in_parallel_region() -> bool {
    IN_PARALLEL_REGION.with(Cell::get)
}

/// Balanced contiguous split of `0..total` into at most `blocks` ranges.
///
/// Every index is covered by exactly one range (the determinism tests
/// assert this for adversarial splits such as 7 rows over 4 threads); the
/// first `total % blocks` ranges are one element longer. Returns fewer
/// ranges than requested when `total < blocks` and an empty vector when
/// `total == 0`.
pub fn block_ranges(total: usize, blocks: usize) -> Vec<(usize, usize)> {
    if total == 0 || blocks == 0 {
        return Vec::new();
    }
    let blocks = blocks.min(total);
    let base = total / blocks;
    let extra = total % blocks;
    let mut ranges = Vec::with_capacity(blocks);
    let mut start = 0;
    for b in 0..blocks {
        let len = base + usize::from(b < extra);
        ranges.push((start, start + len));
        start += len;
    }
    debug_assert_eq!(start, total);
    ranges
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// A published job: a type-erased `Fn(usize)` plus coordination counters
/// that live on the submitting thread's stack. The submitter blocks until
/// `done == total` and `attached == 0`, so the raw pointers never dangle
/// while a worker can still dereference them.
#[derive(Clone, Copy)]
struct JobRef {
    /// Trampoline that downcasts `ctx` back to the concrete closure.
    run: unsafe fn(*const (), usize),
    /// Borrow of the caller's closure, valid until the submitter returns.
    ctx: *const (),
    /// Number of tasks in the job.
    total: usize,
    /// Claim cursor (`fetch_add` hands out task indices).
    next: *const AtomicUsize,
    /// Count of finished tasks.
    done: *const AtomicUsize,
    /// Workers currently holding this `JobRef`.
    attached: *const AtomicUsize,
    /// Set when any task panicked; the submitter re-raises.
    panicked: *const AtomicBool,
}

// SAFETY: the pointers target the submitting thread's stack frame, which
// outlives every dereference because the submitter waits for `done` and
// `attached` under the pool mutex before returning (or unwinding — see
// the drop guard in `parallel_for`).
unsafe impl Send for JobRef {}

struct InstalledJob {
    job: JobRef,
    epoch: u64,
}

#[derive(Default)]
struct State {
    /// Currently published job, if any. Cleared by its submitter once the
    /// claim cursor is exhausted.
    slot: Option<InstalledJob>,
    /// Monotonic job counter so a worker never re-attaches to a job it
    /// already drained.
    epoch: u64,
    /// Worker threads spawned so far.
    spawned: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a new job is published.
    work_cv: Condvar,
    /// Signalled when a worker detaches or a job slot frees up.
    done_cv: Condvar,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        state: Mutex::new(State::default()),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    })
}

/// Poison-tolerant lock: a panic inside a kernel task must not wedge every
/// later kernel call behind a poisoned mutex.
fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Ensures at least `want` worker threads exist (the submitter itself is
/// thread number `want + 1`). Workers park on `work_cv` between jobs.
fn ensure_workers(want: usize) {
    let sh = shared();
    let mut st = lock_state(sh);
    while st.spawned < want {
        let id = st.spawned;
        st.spawned += 1;
        let builder = std::thread::Builder::new().name(format!("timekd-kernel-{id}"));
        // Worker threads are detached by design: they live for the whole
        // process and exit with it.
        if builder.spawn(move || worker_loop(shared(), id)).is_err() {
            // Spawn failure (resource limits): fall back to fewer workers;
            // the submitting thread still drains every task itself.
            st.spawned -= 1;
            break;
        }
    }
}

fn worker_loop(sh: &'static Shared, id: usize) {
    // Anything a worker runs is by definition inside a parallel region;
    // kernels it calls must take their serial path.
    IN_PARALLEL_REGION.with(|c| c.set(true));
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock_state(sh);
            loop {
                match &st.slot {
                    Some(ij) if ij.epoch != last_epoch => {
                        last_epoch = ij.epoch;
                        let job = ij.job;
                        // SAFETY: attach happens under the state lock while
                        // the job is still published, so the submitter's
                        // exit wait is guaranteed to observe it.
                        unsafe { (*job.attached).fetch_add(1, Ordering::SeqCst) };
                        break job;
                    }
                    _ => {
                        st = sh.work_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        // Busy-time accounting stays out of `drain_tasks` (the lint-guarded
        // hot loop): one clock pair per job, and only while tracing is on.
        // `timekd_obs::now_ns` wraps the monotonic clock so this file never
        // names `Instant` (kernel-scope lint).
        if timekd_obs::enabled() {
            let t0 = timekd_obs::now_ns();
            drain_tasks(&job);
            timekd_obs::worker_busy_add(id, timekd_obs::now_ns().saturating_sub(t0));
        } else {
            drain_tasks(&job);
        }
        let _st = lock_state(sh);
        // SAFETY: detach under the lock; the submitter only frees the job
        // after observing `attached == 0` under this same lock.
        unsafe { (*job.attached).fetch_sub(1, Ordering::SeqCst) };
        sh.done_cv.notify_all();
    }
}

/// Hot claim-and-run loop shared by workers and the submitting thread.
///
/// This is a designated worker-loop function for `timekd-check`: no locks,
/// no allocation, no I/O — just the claim cursor and the kernel body. A
/// panicking task is caught here (and re-raised by the submitter) because
/// `done` must reach `total` even on failure or the submitter would wait
/// forever.
fn drain_tasks(job: &JobRef) {
    loop {
        // SAFETY: the submitter keeps the counters alive until all
        // attached threads (and itself) leave this loop.
        let t = unsafe { (*job.next).fetch_add(1, Ordering::SeqCst) };
        if t >= job.total {
            return;
        }
        let ok = catch_unwind(AssertUnwindSafe(|| unsafe { (job.run)(job.ctx, t) })).is_ok();
        unsafe {
            if !ok {
                (*job.panicked).store(true, Ordering::SeqCst);
            }
            (*job.done).fetch_add(1, Ordering::SeqCst);
        }
    }
}

unsafe fn trampoline<F: Fn(usize) + Sync>(ctx: *const (), task: usize) {
    (*(ctx as *const F))(task)
}

/// Clears the job slot and waits until every task finished and every
/// worker detached. Runs on drop so a panic in the submitter's own share
/// of the work still quiesces the pool before the stack frame (holding
/// the counters and closure) unwinds.
struct JobGuard<'a> {
    sh: &'static Shared,
    epoch: u64,
    done: &'a AtomicUsize,
    attached: &'a AtomicUsize,
    total: usize,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock_state(self.sh);
        if st.slot.as_ref().is_some_and(|ij| ij.epoch == self.epoch) {
            st.slot = None;
            // A free slot is what queued submitters wait for.
            self.sh.done_cv.notify_all();
        }
        while self.done.load(Ordering::SeqCst) < self.total
            || self.attached.load(Ordering::SeqCst) > 0
        {
            st = self
                .sh
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Runs `task(i)` for every `i in 0..total` across the pool, blocking
/// until all tasks finish. Tasks must write to disjoint data.
///
/// Falls back to a plain serial loop when the effective thread count is 1,
/// when there is at most one task, or when called from inside another
/// parallel region (nested parallelism runs serially by design). Kernels
/// called inside a task run serially. Besides the kernels, coarse jobs
/// outside this crate use it directly, such as the frozen LM's cache fill.
pub fn parallel_for<F: Fn(usize) + Sync>(total: usize, task: F) {
    let threads = effective_threads();
    if total <= 1 || threads <= 1 || in_parallel_region() {
        timekd_obs::POOL_SERIAL_FALLBACK.add(1);
        for t in 0..total {
            task(t);
        }
        return;
    }
    timekd_obs::POOL_JOBS.add(1);
    timekd_obs::POOL_TASKS.add(total as u64);
    ensure_workers(threads.min(total) - 1);

    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let attached = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);
    let job = JobRef {
        run: trampoline::<F>,
        ctx: &task as *const F as *const (),
        total,
        next: &next,
        done: &done,
        attached: &attached,
        panicked: &panicked,
    };

    let sh = shared();
    let epoch = {
        let mut st = lock_state(sh);
        while st.slot.is_some() {
            // Another thread's job is in flight; wait for the slot. The
            // owner always clears it, so this cannot deadlock.
            timekd_obs::POOL_SLOT_WAITS.add(1);
            st = sh.done_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.epoch += 1;
        let epoch = st.epoch;
        st.slot = Some(InstalledJob { job, epoch });
        sh.work_cv.notify_all();
        epoch
    };

    let guard = JobGuard {
        sh,
        epoch,
        done: &done,
        attached: &attached,
        total,
    };
    // The submitting thread takes part in the drain; its own nested kernel
    // calls must also serialise.
    IN_PARALLEL_REGION.with(|c| c.set(true));
    drain_tasks(&job);
    IN_PARALLEL_REGION.with(|c| c.set(false));
    drop(guard); // quiesce: all tasks done, all workers detached
    assert!(
        !panicked.load(Ordering::SeqCst),
        "a kernel task panicked inside parallel_for"
    );
}

/// Splits `out` (a `rows × row_stride` row-major buffer) into disjoint
/// contiguous row-blocks and runs `body(row_start, row_end, block)` for
/// each, in parallel. Blocks never overlap, so results are bitwise
/// independent of the split. `min_rows` bounds how fine the split may get;
/// a single block runs inline with no pool traffic.
pub(crate) fn par_row_blocks(
    out: &mut [f32],
    rows: usize,
    row_stride: usize,
    min_rows: usize,
    body: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    debug_assert_eq!(out.len(), rows * row_stride);
    let threads = effective_threads();
    let max_blocks = if min_rows == 0 {
        threads
    } else {
        threads.min(rows.div_ceil(min_rows))
    };
    if rows == 0 {
        return;
    }
    if max_blocks <= 1 || threads <= 1 || in_parallel_region() {
        timekd_obs::POOL_SERIAL_FALLBACK.add(1);
        body(0, rows, out);
        return;
    }
    let ranges = block_ranges(rows, max_blocks);
    let base = out.as_mut_ptr() as usize;
    parallel_for(ranges.len(), |b| {
        let (start, end) = ranges[b];
        // SAFETY: ranges are disjoint and within `rows`, so each task gets
        // an exclusive sub-slice of `out`; `base` outlives the call
        // because `parallel_for` blocks until every task completes.
        let block = unsafe {
            std::slice::from_raw_parts_mut(
                (base as *mut f32).add(start * row_stride),
                (end - start) * row_stride,
            )
        };
        body(start, end, block);
    });
}

/// Splits `out` into `chunks` equal-length disjoint pieces (the batch axis
/// of a batched matmul) and runs `body(chunk_index, chunk)` for each in
/// parallel. `chunk_len * chunks` must equal `out.len()`.
pub(crate) fn par_chunks(
    out: &mut [f32],
    chunk_len: usize,
    chunks: usize,
    body: impl Fn(usize, &mut [f32]) + Sync,
) {
    debug_assert_eq!(out.len(), chunk_len.saturating_mul(chunks));
    if chunks == 0 || chunk_len == 0 {
        return;
    }
    if effective_threads() <= 1 || chunks == 1 || in_parallel_region() {
        timekd_obs::POOL_SERIAL_FALLBACK.add(1);
        for (t, chunk) in out.chunks_mut(chunk_len).enumerate() {
            body(t, chunk);
        }
        return;
    }
    let base = out.as_mut_ptr() as usize;
    parallel_for(chunks, |t| {
        // SAFETY: chunk `t` is the exclusive sub-slice
        // `[t * chunk_len, (t + 1) * chunk_len)`; chunks are disjoint and
        // `base` outlives the call (`parallel_for` blocks).
        let chunk = unsafe {
            std::slice::from_raw_parts_mut((base as *mut f32).add(t * chunk_len), chunk_len)
        };
        body(t, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_exactly_once() {
        for total in 0..40usize {
            for blocks in 1..10usize {
                let ranges = block_ranges(total, blocks);
                let mut seen = vec![0u32; total];
                for &(s, e) in &ranges {
                    assert!(s < e, "empty range in {ranges:?}");
                    for slot in &mut seen[s..e] {
                        *slot += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "total={total} blocks={blocks}: {ranges:?}"
                );
                // Balanced: lengths differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|(s, e)| e - s).min(),
                    ranges.iter().map(|(s, e)| e - s).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn parallel_for_runs_every_task_once() {
        let n = 23;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        with_threads(4, || {
            parallel_for(n, |t| {
                hits[t].fetch_add(1, Ordering::SeqCst);
            });
        });
        for (t, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "task {t}");
        }
    }

    #[test]
    fn par_row_blocks_covers_odd_split() {
        // 7 rows over 4 threads: the adversarial split from the issue.
        let rows = 7;
        let cols = 3;
        let mut out = vec![0.0f32; rows * cols];
        with_threads(4, || {
            par_row_blocks(&mut out, rows, cols, 1, |start, end, block| {
                for (r, row) in block.chunks_mut(cols).enumerate() {
                    for v in row.iter_mut() {
                        *v += (start + r) as f32 + 1.0;
                    }
                }
                assert_eq!(block.len(), (end - start) * cols);
            });
        });
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(out[r * cols + c], r as f32 + 1.0, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn nested_parallel_runs_serially() {
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        with_threads(4, || {
            parallel_for(4, |_| {
                assert!(in_parallel_region());
                outer.fetch_add(1, Ordering::SeqCst);
                parallel_for(3, |_| {
                    inner.fetch_add(1, Ordering::SeqCst);
                });
            });
        });
        assert_eq!(outer.load(Ordering::SeqCst), 4);
        assert_eq!(inner.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = effective_threads();
        let res = std::panic::catch_unwind(|| with_threads(3, || panic!("boom")));
        assert!(res.is_err());
        assert_eq!(effective_threads(), before);
    }

    #[test]
    fn par_chunks_disjoint_batches() {
        let chunks = 5;
        let len = 4;
        let mut out = vec![0.0f32; chunks * len];
        with_threads(3, || {
            par_chunks(&mut out, len, chunks, |t, chunk| {
                for v in chunk.iter_mut() {
                    *v += t as f32 + 1.0;
                }
            });
        });
        for t in 0..chunks {
            assert!(out[t * len..(t + 1) * len]
                .iter()
                .all(|&v| v == t as f32 + 1.0));
        }
    }

    #[test]
    fn pool_panic_propagates_and_pool_survives() {
        let res = std::panic::catch_unwind(|| {
            with_threads(4, || {
                parallel_for(8, |t| {
                    if t == 5 {
                        panic!("task blew up");
                    }
                });
            })
        });
        assert!(res.is_err());
        // The pool must still be usable afterwards.
        let count = AtomicUsize::new(0);
        with_threads(4, || {
            parallel_for(6, |_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 6);
    }
}
