//! Deterministic parallel-for / parallel-reduce on scoped std threads.
//!
//! The kernels in `mdsim`/`amrsim` must produce **bitwise identical**
//! results at any thread count so that profiling runs, golden tables and
//! the differential test corpus stay stable across machines. Two rules
//! make that possible:
//!
//! 1. **Fixed chunking** — the number of chunks is a function of problem
//!    size only, never of the thread count ([`chunk_count`] +
//!    [`chunk_bounds`]). The 1-thread path executes the *same* chunked
//!    code, so serial and parallel runs share an identical floating-point
//!    summation tree.
//! 2. **Ordered reduction** — each chunk produces an independent partial
//!    result; partials are merged sequentially in ascending chunk index
//!    ([`reduce_chunks`], or the caller's own merge loop over
//!    [`map_chunks`] output). Which *thread* computed a chunk is
//!    scheduling noise; the merge order is not.
//!
//! Thread counts come from an explicit [`Exec`] handle (no global mutable
//! state — concurrently running tests would race on it). [`Exec::from_env`]
//! reads the `INSITU_THREADS` environment variable once at construction.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Upper bound on chunks per kernel invocation. Bounds per-chunk scratch
/// memory (e.g. force accumulators are 3·N floats per chunk) while leaving
/// enough slack for dynamic load balancing on oversubscribed machines.
pub const MAX_CHUNKS: usize = 32;

/// An execution context: how many worker threads kernels may use.
///
/// Carried by value on simulation state (`System`, `FlashSim`) so analyses
/// that only see `&state` inherit the choice without new plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exec {
    threads: usize,
}

impl Exec {
    /// Single-threaded execution (used to pin profiling anchors).
    pub fn serial() -> Self {
        Exec { threads: 1 }
    }

    /// Execution with exactly `n` worker threads (clamped to >= 1).
    pub fn with_threads(n: usize) -> Self {
        Exec { threads: n.max(1) }
    }

    /// Reads the worker count from `INSITU_THREADS`, falling back to the
    /// machine's available parallelism.
    pub fn from_env() -> Self {
        let threads = std::env::var("INSITU_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Exec { threads }
    }

    /// Number of worker threads this context allows.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for Exec {
    /// Defaults to [`Exec::from_env`] so state constructors pick up
    /// `INSITU_THREADS` without extra wiring.
    fn default() -> Self {
        Exec::from_env()
    }
}

/// Timing/shape record of one parallel kernel invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Threads actually used (min of context threads and chunk count).
    pub threads_used: usize,
    /// Number of chunks the work was split into.
    pub chunks: usize,
    /// Wall time of the whole invocation (including the merge, if any).
    pub wall: Duration,
    /// Time spent in the ordered merge of partial results.
    pub merge: Duration,
}

impl ParStats {
    /// Wall seconds as `f64` (telemetry convenience).
    pub fn wall_s(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// Merge seconds as `f64` (telemetry convenience).
    pub fn merge_s(&self) -> f64 {
        self.merge.as_secs_f64()
    }
}

/// Deterministic chunk count for `n_items` work items with roughly
/// `granularity` items per chunk, clamped to `[1, MAX_CHUNKS]` and never
/// exceeding `n_items`. Depends only on the problem size — never on the
/// thread count — so the reduction tree is fixed.
pub fn chunk_count(n_items: usize, granularity: usize) -> usize {
    if n_items == 0 {
        return 1;
    }
    (n_items / granularity.max(1)).clamp(1, MAX_CHUNKS).min(n_items)
}

/// Half-open item range of chunk `c` out of `chunks` over `n_items`,
/// splitting as evenly as possible (remainder spread over the first
/// chunks). Requires `c < chunks` and `chunks >= 1`.
pub fn chunk_bounds(n_items: usize, chunks: usize, c: usize) -> std::ops::Range<usize> {
    debug_assert!(c < chunks && chunks >= 1);
    let base = n_items / chunks;
    let rem = n_items % chunks;
    let start = c * base + c.min(rem);
    let len = base + usize::from(c < rem);
    start..start + len
}

/// Runs `f(c)` for every chunk index `c in 0..chunks` and returns the
/// results **in chunk order** plus timing stats.
///
/// Chunks are claimed dynamically by worker threads (an atomic counter),
/// so which thread runs a chunk is nondeterministic — but each result is
/// placed at its chunk index, so the output is not. With 1 thread (or 1
/// chunk) the chunks run inline in index order over the identical code
/// path.
pub fn map_chunks<T: Send>(
    exec: &Exec,
    chunks: usize,
    f: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, ParStats) {
    let t0 = Instant::now();
    let threads = exec.threads.min(chunks).max(1);
    let results: Vec<T> = if threads <= 1 {
        (0..chunks).map(&f).collect()
    } else {
        let slots: Vec<Mutex<Option<T>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= chunks {
                        break;
                    }
                    let r = f(c);
                    *slots[c].lock().expect("chunk slot poisoned") = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("chunk slot poisoned")
                    .expect("chunk ran")
            })
            .collect()
    };
    let stats = ParStats {
        threads_used: threads,
        chunks,
        wall: t0.elapsed(),
        merge: Duration::ZERO,
    };
    (results, stats)
}

/// Maps every chunk with `map`, then folds the partial results into `init`
/// **in ascending chunk order** with `fold`. The ordered fold is what
/// makes floating-point reductions thread-count independent.
pub fn reduce_chunks<T: Send, R>(
    exec: &Exec,
    chunks: usize,
    map: impl Fn(usize) -> T + Sync,
    init: R,
    mut fold: impl FnMut(R, T) -> R,
) -> (R, ParStats) {
    let t0 = Instant::now();
    let (parts, mut stats) = map_chunks(exec, chunks, map);
    let m0 = Instant::now();
    let mut acc = init;
    for p in parts {
        acc = fold(acc, p);
    }
    stats.merge = m0.elapsed();
    stats.wall = t0.elapsed();
    (acc, stats)
}

/// Runs `f(i, &mut items[i])` for every item, in parallel. Each closure
/// invocation owns its item exclusively, so this is trivially
/// deterministic for independent per-item updates (e.g. one AMR block
/// per item).
pub fn for_each_mut<T: Send>(
    exec: &Exec,
    items: &mut [T],
    f: impl Fn(usize, &mut T) + Sync,
) -> ParStats {
    let t0 = Instant::now();
    let n = items.len();
    let threads = exec.threads.min(n).max(1);
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
    } else {
        let work = Mutex::new(items.iter_mut().enumerate());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let claimed = work.lock().expect("work queue poisoned").next();
                    match claimed {
                        Some((i, item)) => f(i, item),
                        None => break,
                    }
                });
            }
        });
    }
    ParStats {
        threads_used: threads,
        chunks: n,
        wall: t0.elapsed(),
        merge: Duration::ZERO,
    }
}

/// Fills disjoint chunk ranges of `out` in parallel: `f(c, start, slice)`
/// receives chunk index `c`, the global index of the slice's first element
/// and the chunk's sub-slice of `out`. Deterministic because every element
/// is written by exactly one chunk and the chunking is fixed.
pub fn fill_chunks<T: Send>(
    exec: &Exec,
    out: &mut [T],
    chunks: usize,
    f: impl Fn(usize, usize, &mut [T]) + Sync,
) -> ParStats {
    let t0 = Instant::now();
    let n = out.len();
    if n == 0 {
        return ParStats {
            threads_used: 1,
            chunks: 0,
            wall: t0.elapsed(),
            merge: Duration::ZERO,
        };
    }
    let chunks = chunks.clamp(1, n);
    let threads = exec.threads.min(chunks).max(1);
    // split `out` into the chunk_bounds sub-slices
    let mut parts: Vec<(usize, usize, &mut [T])> = Vec::with_capacity(chunks);
    let mut rest = out;
    let mut offset = 0usize;
    for c in 0..chunks {
        let len = chunk_bounds(n, chunks, c).len();
        let (head, tail) = rest.split_at_mut(len);
        parts.push((c, offset, head));
        offset += len;
        rest = tail;
    }
    if threads <= 1 {
        for (c, start, slice) in parts {
            f(c, start, slice);
        }
    } else {
        let work = Mutex::new(parts.into_iter());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let claimed = work.lock().expect("work queue poisoned").next();
                    match claimed {
                        Some((c, start, slice)) => f(c, start, slice),
                        None => break,
                    }
                });
            }
        });
    }
    ParStats {
        threads_used: threads,
        chunks,
        wall: t0.elapsed(),
        merge: Duration::ZERO,
    }
}

/// Allocation/reuse counters of a [`ScratchPool`], for telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchCounters {
    /// Buffers that had to be freshly allocated (pool miss).
    pub allocs: usize,
    /// Buffers served from the pool (no allocation).
    pub reuses: usize,
}

impl ScratchCounters {
    /// Component-wise difference since an earlier snapshot (counters are
    /// monotonic, so this is the activity between the two reads).
    pub fn since(&self, earlier: &ScratchCounters) -> ScratchCounters {
        ScratchCounters {
            allocs: self.allocs - earlier.allocs,
            reuses: self.reuses - earlier.reuses,
        }
    }
}

/// Bound on buffers retained per size class, so a pathological mix of
/// sizes cannot hoard memory. Kernels use a handful of sizes, far below
/// this.
const MAX_POOLED_PER_SIZE: usize = 256;

/// A pool of reusable `f64` scratch buffers, keyed by length.
///
/// Parallel kernels that need a private accumulator per chunk (the MD
/// force loop's 3·N partial forces, the AMR sweep's per-block conservative
/// deltas, ghost-exchange planes) would otherwise allocate and free those
/// buffers every step. The pool hands the same allocations back out:
/// after a warm-up step, steady-state kernel execution performs **zero**
/// scratch allocations, which the [`ScratchCounters`] prove.
///
/// # Determinism
///
/// The pool never affects results. [`ScratchPool::take_zeroed`] returns a
/// fully zeroed buffer — indistinguishable from `vec![0.0; len]` — and
/// [`ScratchPool::take`] is reserved for buffers the kernel overwrites
/// completely before reading. Which physical allocation a chunk receives
/// is scheduling noise, exactly like which thread runs the chunk.
///
/// # Ownership
///
/// The pool lives on the owning state (`System`, `FlashSim`, a kernel
/// struct) next to its `KernelTelemetry`. It is `Sync`: chunks running on
/// worker threads take and return buffers concurrently through an internal
/// lock held only for the shelf operation, never while the buffer is in
/// use. `Clone` yields a fresh **empty** pool (clones of a simulation
/// state must not share buffers), so cloned states simply re-warm.
#[derive(Debug, Default)]
pub struct ScratchPool {
    shelves: Mutex<BTreeMap<usize, Vec<Vec<f64>>>>,
    allocs: AtomicUsize,
    reuses: AtomicUsize,
}

impl Clone for ScratchPool {
    fn clone(&self) -> Self {
        ScratchPool::new()
    }
}

impl ScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a buffer of exactly `len` elements with **unspecified**
    /// contents (stale data from a previous user). Only for kernels that
    /// overwrite every element before reading any.
    pub fn take(&self, len: usize) -> Vec<f64> {
        let pooled = self
            .shelves
            .lock()
            .expect("scratch pool poisoned")
            .get_mut(&len)
            .and_then(Vec::pop);
        match pooled {
            Some(buf) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.allocs.fetch_add(1, Ordering::Relaxed);
                vec![0.0; len]
            }
        }
    }

    /// Takes a buffer of exactly `len` zeros — a drop-in replacement for
    /// `vec![0.0; len]` that reuses pooled storage.
    pub fn take_zeroed(&self, len: usize) -> Vec<f64> {
        let mut buf = self.take(len);
        buf.iter_mut().for_each(|x| *x = 0.0);
        buf
    }

    /// Returns a buffer to the pool for reuse. Buffers beyond
    /// `MAX_POOLED_PER_SIZE` of the same length are dropped.
    pub fn put(&self, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        let len = buf.len();
        let mut shelves = self.shelves.lock().expect("scratch pool poisoned");
        let shelf = shelves.entry(len).or_default();
        if shelf.len() < MAX_POOLED_PER_SIZE {
            shelf.push(buf);
        }
    }

    /// Current allocation/reuse counters (monotonic since construction).
    pub fn counters(&self) -> ScratchCounters {
        ScratchCounters {
            allocs: self.allocs.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
        }
    }

    /// Number of buffers currently resting in the pool.
    pub fn pooled(&self) -> usize {
        self.shelves
            .lock()
            .expect("scratch pool poisoned")
            .values()
            .map(Vec::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_count_depends_only_on_size() {
        assert_eq!(chunk_count(0, 100), 1);
        assert_eq!(chunk_count(5, 100), 1);
        assert_eq!(chunk_count(10, 1), 10);
        assert_eq!(chunk_count(10_000, 10), MAX_CHUNKS);
        // never more chunks than items
        assert_eq!(chunk_count(3, 1), 3);
    }

    #[test]
    fn chunk_bounds_partition_exactly() {
        for n in [0usize, 1, 7, 64, 1000] {
            for chunks in [1usize, 2, 3, 7, 32] {
                if chunks > n.max(1) {
                    continue;
                }
                let mut covered = 0;
                for c in 0..chunks {
                    let r = chunk_bounds(n, chunks, c);
                    assert_eq!(r.start, covered, "n={n} chunks={chunks} c={c}");
                    covered = r.end;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn map_chunks_returns_in_chunk_order() {
        for threads in [1usize, 2, 5] {
            let exec = Exec::with_threads(threads);
            let (v, stats) = map_chunks(&exec, 9, |c| c * 10);
            assert_eq!(v, (0..9).map(|c| c * 10).collect::<Vec<_>>());
            assert_eq!(stats.chunks, 9);
            assert!(stats.threads_used <= threads.max(1));
        }
    }

    #[test]
    fn reduce_is_bitwise_identical_across_thread_counts() {
        // a sum whose value depends on FP association order
        let data: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2654435761_usize) % 1000) as f64 * 1e-3 + 1e-9 * i as f64)
            .collect();
        let chunks = chunk_count(data.len(), 128);
        let run = |threads| {
            let exec = Exec::with_threads(threads);
            let (sum, _) = reduce_chunks(
                &exec,
                chunks,
                |c| chunk_bounds(data.len(), chunks, c).map(|i| data[i]).sum::<f64>(),
                0.0f64,
                |a, b| a + b,
            );
            sum
        };
        let s1 = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(s1.to_bits(), run(threads).to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        for threads in [1usize, 4] {
            let exec = Exec::with_threads(threads);
            let mut items = vec![0usize; 100];
            let stats = for_each_mut(&exec, &mut items, |i, x| *x = i + 1);
            assert!(items.iter().enumerate().all(|(i, &x)| x == i + 1));
            assert_eq!(stats.chunks, 100);
        }
    }

    #[test]
    fn fill_chunks_writes_disjoint_ranges() {
        for threads in [1usize, 3] {
            let exec = Exec::with_threads(threads);
            let mut out = vec![0usize; 97];
            fill_chunks(&exec, &mut out, 7, |_, start, slice| {
                for (k, x) in slice.iter_mut().enumerate() {
                    *x = start + k;
                }
            });
            assert!(out.iter().enumerate().all(|(i, &x)| x == i));
        }
    }

    #[test]
    fn exec_constructors() {
        assert_eq!(Exec::serial().threads(), 1);
        assert_eq!(Exec::with_threads(0).threads(), 1);
        assert_eq!(Exec::with_threads(6).threads(), 6);
        assert!(Exec::from_env().threads() >= 1);
    }

    #[test]
    fn scratch_pool_reuses_buffers() {
        let pool = ScratchPool::new();
        let a = pool.take_zeroed(64);
        assert!(a.iter().all(|&x| x == 0.0));
        assert_eq!(pool.counters(), ScratchCounters { allocs: 1, reuses: 0 });
        pool.put(a);
        assert_eq!(pool.pooled(), 1);
        let mut b = pool.take_zeroed(64);
        assert_eq!(pool.counters(), ScratchCounters { allocs: 1, reuses: 1 });
        assert_eq!(b.len(), 64);
        // a dirty buffer comes back zeroed from take_zeroed ...
        b.iter_mut().for_each(|x| *x = 7.0);
        pool.put(b);
        let c = pool.take_zeroed(64);
        assert!(c.iter().all(|&x| x == 0.0));
        pool.put(c);
        // ... and with stale contents from take
        let d = pool.take(64);
        assert!(d.iter().all(|&x| x == 0.0), "was zeroed on last take");
        // different length = different shelf = fresh allocation
        let e = pool.take_zeroed(65);
        let counters = pool.counters();
        assert_eq!(counters.allocs, 2);
        assert_eq!(counters.reuses, 3);
        assert_eq!(counters.since(&ScratchCounters { allocs: 1, reuses: 1 }).allocs, 1);
        drop((d, e));
    }

    #[test]
    fn scratch_pool_is_concurrent_and_clone_is_empty() {
        let pool = ScratchPool::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let b = pool.take_zeroed(128);
                        pool.put(b);
                    }
                });
            }
        });
        let c = pool.counters();
        assert_eq!(c.allocs + c.reuses, 200);
        assert!(c.allocs <= 4, "at most one allocation per concurrent taker");
        let cloned = pool.clone();
        assert_eq!(cloned.pooled(), 0);
        assert_eq!(cloned.counters(), ScratchCounters::default());
    }

    #[test]
    fn empty_work_is_fine() {
        let exec = Exec::with_threads(4);
        let (v, _) = map_chunks(&exec, 1, |_| 0u32);
        assert_eq!(v, vec![0]);
        let mut empty: [u8; 0] = [];
        for_each_mut(&exec, &mut empty, |_, _| unreachable!());
        fill_chunks(&exec, &mut empty, 3, |_, _, _| unreachable!());
    }
}
