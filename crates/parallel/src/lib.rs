//! Deterministic parallel-for / parallel-reduce on a persistent worker set.
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
//! One worker loop does the fanning out: [`for_each_mut`] is the only
//! function that runs work on other threads. [`map_chunks`] hands it one
//! result slot per chunk, [`fill_chunks`] the chunk sub-slices of its
//! output, and [`reduce_chunks`] folds [`map_chunks`]' results. Workers
//! claim items one at a time from a shared queue, so the load balances
//! itself.
//!
//! The primitives return their results and nothing else, and read no
//! clock: a simulation kernel that records telemetry times its own call
//! with one bracket around it, and the coupler times each analysis call.
//!
//! # The worker set
//!
//! Thread counts come from an explicit [`Exec`] handle (no global mutable
//! state — concurrently running tests would race on it). [`Exec::from_env`]
//! reads the `INSITU_THREADS` environment variable once at construction.
//! The handle also owns the threads a fork runs on, so a kernel that forks
//! every step does not create threads every step:
//!
//! - **Helpers.** `threads − 1` helper threads are started on the first
//!   call that needs more than one thread, never at construction. Between
//!   calls they sleep on a `Condvar`.
//! - **The caller is the first worker.** It posts the job, claims items
//!   like any helper, and returns only after every helper that joined the
//!   job has left it. At most `min(threads, items) − 1` helpers join.
//! - **Panics.** A panicking item is re-raised on the caller once the
//!   helpers have left; the handle stays usable.
//! - **Busy handle.** A nested or concurrent call on a handle whose helpers
//!   are already in a job runs its items on the calling thread alone —
//!   the same items, so the same bits.
//! - **Clone and drop.** A clone starts with no helpers (like
//!   [`ScratchPool`]'s empty clone); dropping the handle stops its helpers
//!   and joins them.
//!
//! The job a helper runs borrows the caller's stack, so its lifetime is
//! erased to hand it over; that is the crate's one `unsafe` block, and its
//! invariant is the rule above: the caller does not return — nor unwind
//! past the job — while a helper is inside it.

#![warn(missing_docs)]

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Upper bound on chunks per kernel invocation. Bounds per-chunk scratch
/// memory (e.g. force accumulators are 3·N floats per chunk) while leaving
/// enough slack for dynamic load balancing on oversubscribed machines.
pub const MAX_CHUNKS: usize = 32;

/// An execution context: how many worker threads kernels may use, and the
/// helper threads that run them (see [the module docs](self#the-worker-set)).
///
/// Carried by value on simulation state (`System`, `FlashSim`) so analyses
/// that only see `&state` inherit the choice without new plumbing.
pub struct Exec {
    threads: usize,
    crew: OnceLock<Crew>,
}

impl Exec {
    /// Single-threaded execution (used to pin profiling anchors).
    pub fn serial() -> Self {
        Exec::with_threads(1)
    }

    /// Execution with exactly `n` worker threads (clamped to >= 1).
    pub fn with_threads(n: usize) -> Self {
        Exec { threads: n.max(1), crew: OnceLock::new() }
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
        Exec::with_threads(threads)
    }

    /// Number of worker threads this context allows.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The helper set, started on first use.
    fn crew(&self) -> &Crew {
        self.crew.get_or_init(|| Crew::start(self.threads - 1))
    }
}

impl Default for Exec {
    /// Defaults to [`Exec::from_env`] so state constructors pick up
    /// `INSITU_THREADS` without extra wiring.
    fn default() -> Self {
        Exec::from_env()
    }
}

impl Clone for Exec {
    /// The same thread count with no helpers: a cloned state must not
    /// share threads with its original.
    fn clone(&self) -> Self {
        Exec::with_threads(self.threads)
    }
}

impl std::fmt::Debug for Exec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Exec").field("threads", &self.threads).finish()
    }
}

/// A job as the helpers see it: the caller's claim loop, lifetime erased.
type Job = &'static (dyn Fn() + Sync);

/// An [`Exec`]'s helper threads and the one slot they take jobs from.
struct Crew {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is posted or the crew shuts down.
    posted: Condvar,
    /// Signalled when the last helper leaves a job.
    left: Condvar,
}

#[derive(Default)]
struct State {
    /// A caller owns the crew (between posting a job and retiring it).
    busy: bool,
    /// The posted job; `None` once the caller retires it.
    job: Option<Job>,
    /// Helpers that may still join the posted job.
    seats: usize,
    /// Helpers inside the job now.
    inside: usize,
    /// The first panic a helper caught in the job.
    panic: Option<Box<dyn Any + Send>>,
    /// The handle is being dropped: every helper ends.
    shutdown: bool,
}

impl Shared {
    /// The state's lock. No section under it can panic part-way through
    /// an update, and drops take it, so a poisoned lock is recovered
    /// rather than turned into a panic inside a drop.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper's life: join each posted job that has a seat left, run it
    /// to the end, leave; sleep otherwise.
    fn serve(&self) {
        let mut state = self.lock();
        loop {
            if state.shutdown {
                return;
            }
            match state.job {
                Some(job) if state.seats > 0 => {
                    state.seats -= 1;
                    state.inside += 1;
                    drop(state);
                    let ran = panic::catch_unwind(AssertUnwindSafe(job));
                    state = self.lock();
                    if let Err(payload) = ran {
                        state.panic.get_or_insert(payload);
                    }
                    state.inside -= 1;
                    if state.inside == 0 {
                        self.left.notify_all();
                    }
                }
                _ => state = self.posted.wait(state).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }

    /// Takes the job down, waits until no helper is inside it and frees
    /// the crew; returns the first helper panic.
    fn retire(&self) -> Option<Box<dyn Any + Send>> {
        let mut state = self.lock();
        state.job = None;
        state.seats = 0;
        while state.inside > 0 {
            state = self.left.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.busy = false;
        state.panic.take()
    }
}

/// Retires a posted job when dropped, so the caller cannot unwind past the
/// job while a helper is inside it.
struct Retire<'a>(Option<&'a Shared>);

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        if let Some(shared) = self.0.take() {
            // the caller's own panic is the one that propagates
            drop(shared.retire());
        }
    }
}

impl Crew {
    fn start(helpers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            posted: Condvar::new(),
            left: Condvar::new(),
        });
        // pushed one by one, so a failed spawn drops (and joins) the
        // helpers started before it
        let mut crew = Crew { shared, helpers: Vec::with_capacity(helpers) };
        for _ in 0..helpers {
            let shared = Arc::clone(&crew.shared);
            crew.helpers.push(std::thread::spawn(move || shared.serve()));
        }
        crew
    }

    /// Runs `job` on the calling thread with up to `seats` helpers beside
    /// it, and returns once every helper that joined has left. Returns
    /// `false` without running anything if the crew is already in a job.
    fn fork(&self, seats: usize, job: &(dyn Fn() + Sync)) -> bool {
        let shared = &*self.shared;
        {
            let mut state = shared.lock();
            if state.busy {
                return false;
            }
            // SAFETY: the erased `'static` is never relied on. A helper
            // calls the job only between taking a seat and leaving, and
            // from here on this frame does not return or unwind past `job`
            // until `retire` has taken the job down (so no helper can take
            // a seat) and seen every helper that took one leave: on the
            // normal path below, and through `Retire`'s drop if anything
            // after this point panics.
            let erased = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
            state.busy = true;
            state.job = Some(erased);
            state.seats = seats;
        }
        let mut guard = Retire(Some(shared));
        shared.posted.notify_all();
        job();
        guard.0 = None;
        if let Some(payload) = shared.retire() {
            panic::resume_unwind(payload);
        }
        true
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.posted.notify_all();
        for helper in self.helpers.drain(..) {
            // a helper catches every job panic, so it cannot end in one
            helper.join().expect("helper thread panicked");
        }
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
/// results **in chunk order**.
///
/// Each chunk writes its result into its own slot through
/// [`for_each_mut`], so which thread ran a chunk is nondeterministic but
/// the output order is not. With 1 thread (or 1 chunk) the chunks run
/// inline in index order over the identical code path.
pub fn map_chunks<T: Send>(exec: &Exec, chunks: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..chunks).map(|_| None).collect();
    for_each_mut(exec, &mut slots, |c, slot| *slot = Some(f(c)));
    slots.into_iter().map(|r| r.expect("chunk ran")).collect()
}

/// Maps every chunk with `map`, then folds the partial results into `init`
/// **in ascending chunk order** with `fold`. The ordered fold is what
/// makes floating-point reductions thread-count independent.
pub fn reduce_chunks<T: Send, R>(
    exec: &Exec,
    chunks: usize,
    map: impl Fn(usize) -> T + Sync,
    init: R,
    fold: impl FnMut(R, T) -> R,
) -> R {
    map_chunks(exec, chunks, map).into_iter().fold(init, fold)
}

/// Runs `f(i, &mut items[i])` for every item, in parallel. Each closure
/// invocation owns its item exclusively, so this is trivially
/// deterministic for independent per-item updates (e.g. one AMR block
/// per item).
///
/// This is the crate's one worker loop: the other primitives hand it
/// their work as items. The calling thread and up to `min(threads, items)
/// − 1` of `exec`'s helpers each claim the next unclaimed item from a
/// shared iterator under a lock until none is left, so a slow item does
/// not hold up the rest. With one worker the items run inline, in index
/// order, on the calling thread; so do they, through the same claim loop,
/// when `exec`'s helpers are busy with another call.
pub fn for_each_mut<T: Send>(exec: &Exec, items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    let threads = exec.threads.min(items.len());
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
    } else {
        let work = Mutex::new(items.iter_mut().enumerate());
        let claim_loop = || loop {
            let claimed = work.lock().expect("work queue poisoned").next();
            match claimed {
                Some((i, item)) => f(i, item),
                None => break,
            }
        };
        if !exec.crew().fork(threads - 1, &claim_loop) {
            claim_loop();
        }
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
) {
    let n = out.len();
    let chunks = if n == 0 { 0 } else { chunks.clamp(1, n) };
    // split `out` into the chunk_bounds sub-slices, each with its offset
    let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(chunks);
    let mut rest = out;
    for c in 0..chunks {
        let range = chunk_bounds(n, chunks, c);
        let (head, tail) = rest.split_at_mut(range.len());
        parts.push((range.start, head));
        rest = tail;
    }
    for_each_mut(exec, &mut parts, |c, (start, slice)| f(c, *start, slice));
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
/// scratch allocations, which [`ScratchPool::allocs`] proves.
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
/// The pool lives on the object whose kernels use it (`System`,
/// `FlashSim`, a kernel struct), never in a global. It is `Sync`: chunks
/// running on worker threads take and return buffers concurrently through
/// an internal lock held only for the shelf operation, never while the
/// buffer is in use. `Clone` yields a fresh **empty** pool (clones of a simulation
/// state must not share buffers), so cloned states simply re-warm.
#[derive(Debug, Default)]
pub struct ScratchPool {
    shelves: Mutex<BTreeMap<usize, Vec<Vec<f64>>>>,
    allocs: AtomicUsize,
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
        pooled.unwrap_or_else(|| {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            vec![0.0; len]
        })
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

    /// Buffers freshly allocated since construction (pool misses);
    /// monotonic, so the difference of two reads is the allocations
    /// between them.
    pub fn allocs(&self) -> usize {
        self.allocs.load(Ordering::Relaxed)
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
    use std::collections::HashSet;

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

    /// Thread counts the primitives are exercised at, including more
    /// threads than items.
    const THREADS: [usize; 4] = [1, 2, 3, 8];

    #[test]
    fn map_chunks_returns_in_chunk_order() {
        for threads in THREADS {
            let exec = Exec::with_threads(threads);
            for chunks in [0usize, 1, 5, 9] {
                let want: Vec<usize> = (0..chunks).map(|c| c * 10).collect();
                let v = map_chunks(&exec, chunks, |c| c * 10);
                assert_eq!(v, want, "threads={threads} chunks={chunks}");
                // reduce_chunks folds the same results in the same order
                let folded = reduce_chunks(
                    &exec,
                    chunks,
                    |c| c * 10,
                    Vec::new(),
                    |mut acc, x| {
                        acc.push(x);
                        acc
                    },
                );
                assert_eq!(folded, want, "threads={threads} chunks={chunks}");
            }
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
            reduce_chunks(
                &exec,
                chunks,
                |c| chunk_bounds(data.len(), chunks, c).map(|i| data[i]).sum::<f64>(),
                0.0f64,
                |a, b| a + b,
            )
        };
        let s1 = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(s1.to_bits(), run(threads).to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        for threads in THREADS {
            let exec = Exec::with_threads(threads);
            for n in [0usize, 1, 5, 100] {
                let mut items = vec![0usize; n];
                let calls = AtomicUsize::new(0);
                for_each_mut(&exec, &mut items, |i, x| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    *x += i + 1;
                });
                assert!(
                    items.iter().enumerate().all(|(i, &x)| x == i + 1),
                    "threads={threads} n={n}"
                );
                assert_eq!(calls.into_inner(), n);
            }
        }
    }

    #[test]
    fn fill_chunks_writes_disjoint_ranges() {
        for threads in THREADS {
            let exec = Exec::with_threads(threads);
            for n in [0usize, 1, 5, 97] {
                for chunks in [1usize, 3, 7] {
                    let used = if n == 0 { 0 } else { chunks.min(n) };
                    let mut out = vec![0usize; n];
                    let calls = AtomicUsize::new(0);
                    fill_chunks(&exec, &mut out, chunks, |c, start, slice| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        // each chunk gets exactly its chunk_bounds range
                        assert_eq!(chunk_bounds(n, used, c), start..start + slice.len());
                        for (k, x) in slice.iter_mut().enumerate() {
                            *x += start + k + 1;
                        }
                    });
                    assert!(
                        out.iter().enumerate().all(|(i, &x)| x == i + 1),
                        "threads={threads} n={n} chunks={chunks}"
                    );
                    assert_eq!(calls.into_inner(), used);
                }
            }
        }
    }

    /// Thread counts the worker set is exercised at.
    const FORKING: [usize; 3] = [2, 3, 8];

    /// One call over `n ≤ threads` items that each wait for all the
    /// others: it only returns if `n` distinct threads ran them (at
    /// `n = threads`, every helper took part). Returns the ids of the
    /// threads that did.
    fn all_hands(exec: &Exec, n: usize) -> Vec<std::thread::ThreadId> {
        let barrier = std::sync::Barrier::new(n);
        let mut ids = vec![None; n];
        for_each_mut(exec, &mut ids, |_, id| {
            barrier.wait();
            *id = Some(std::thread::current().id());
        });
        ids.into_iter().map(|id| id.expect("item ran")).collect()
    }

    #[test]
    fn helpers_start_once_and_serve_every_later_call() {
        for threads in FORKING {
            let exec = Exec::with_threads(threads);
            assert!(exec.crew.get().is_none(), "construction starts nothing");
            // a call one thread can do alone starts nothing either
            for_each_mut(&exec, &mut [0u8], |_, x| *x += 1);
            assert!(exec.crew.get().is_none(), "threads={threads}");
            let first: HashSet<_> = all_hands(&exec, threads).into_iter().collect();
            assert_eq!(first.len(), threads);
            assert!(first.contains(&std::thread::current().id()), "the caller is a worker");
            // every later call runs on exactly the same threads: none is new
            for _ in 0..20 {
                let again: HashSet<_> = all_hands(&exec, threads).into_iter().collect();
                assert_eq!(again, first, "threads={threads}");
            }
            assert_eq!(exec.crew.get().expect("started").helpers.len(), threads - 1);
        }
    }

    #[test]
    fn a_call_over_fewer_items_than_threads_runs_on_one_thread_per_item() {
        let caller = std::thread::current().id();
        for threads in FORKING {
            let exec = Exec::with_threads(threads);
            for n in 1..=threads {
                let ids: HashSet<_> = all_hands(&exec, n).into_iter().collect();
                assert_eq!(ids.len(), n, "threads={threads} n={n}");
                assert!(ids.contains(&caller), "the caller is a worker");
            }
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_the_handle_stays_usable() {
        let caller = std::thread::current().id();
        for threads in FORKING {
            let exec = Exec::with_threads(threads);
            for on_caller in [false, true] {
                let barrier = std::sync::Barrier::new(threads);
                let mut items = vec![0usize; threads];
                let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                    for_each_mut(&exec, &mut items, |i, x| {
                        barrier.wait();
                        if (std::thread::current().id() == caller) == on_caller {
                            panic!("item {i} failed");
                        }
                        *x = i + 1;
                    })
                }));
                let payload = caught.expect_err("the item's panic reaches the caller");
                let message = payload.downcast_ref::<String>().expect("panic!'s payload");
                assert!(message.starts_with("item "), "{message}");
                // the same handle, its helpers included, runs the next call
                assert_eq!(
                    all_hands(&exec, threads).len(),
                    threads,
                    "threads={threads}"
                );
                let mut items = vec![0usize; 50];
                for_each_mut(&exec, &mut items, |i, x| *x = i + 1);
                assert!(items.iter().enumerate().all(|(i, &x)| x == i + 1));
            }
        }
    }

    #[test]
    fn a_nested_or_concurrent_call_runs_inline() {
        for threads in FORKING {
            let exec = Exec::with_threads(threads);
            // every outer item waits for the others, so each runs on its
            // own thread; its nested call finds the helpers busy and runs
            // every item on that same thread
            let barrier = std::sync::Barrier::new(threads);
            let mut outer = vec![(None, Vec::new()); threads];
            for_each_mut(&exec, &mut outer, |i, (id, inner)| {
                barrier.wait();
                *id = Some(std::thread::current().id());
                *inner = vec![(0usize, None); 7];
                for_each_mut(&exec, inner, |j, (x, id)| {
                    *x = 10 * i + j;
                    *id = Some(std::thread::current().id());
                });
            });
            let outer_ids: HashSet<_> = outer.iter().map(|(id, _)| id.expect("ran")).collect();
            assert_eq!(outer_ids.len(), threads);
            for (i, (id, inner)) in outer.iter().enumerate() {
                for (j, &(x, nested_id)) in inner.iter().enumerate() {
                    assert_eq!(x, 10 * i + j);
                    assert_eq!(nested_id, *id, "threads={threads}: nested item {i}.{j}");
                }
            }
            // two callers on one handle: one forks, the other runs alone
            let sums: Vec<u64> = std::thread::scope(|scope| {
                let calls: Vec<_> = (0..2)
                    .map(|_| scope.spawn(|| map_chunks(&exec, 9, |c| c as u64).iter().sum()))
                    .collect();
                calls.into_iter().map(|c| c.join().expect("no panic")).collect()
            });
            assert_eq!(sums, vec![36, 36]);
        }
    }

    #[test]
    fn a_clone_shares_no_helpers() {
        let caller = std::thread::current().id();
        for threads in FORKING {
            let exec = Exec::with_threads(threads);
            let helpers = |exec: &Exec| -> HashSet<_> {
                all_hands(exec, threads)
                    .into_iter()
                    .filter(|&id| id != caller)
                    .collect()
            };
            let own = helpers(&exec);
            let cloned = exec.clone();
            assert_eq!(cloned.threads(), threads);
            assert!(cloned.crew.get().is_none(), "a clone starts with no helpers");
            let theirs = helpers(&cloned);
            assert_eq!((own.len(), theirs.len()), (threads - 1, threads - 1));
            assert!(own.is_disjoint(&theirs), "threads={threads}");
        }
    }

    #[test]
    fn dropping_a_handle_joins_its_helpers() {
        for threads in FORKING {
            let exec = Exec::with_threads(threads);
            all_hands(&exec, threads);
            let shared = Arc::downgrade(&exec.crew.get().expect("started").shared);
            assert_eq!(shared.strong_count(), threads, "the crew's and one per helper");
            drop(exec);
            // each helper holds the shared state until its thread ends
            assert_eq!(shared.strong_count(), 0, "threads={threads}");
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
        assert_eq!(pool.allocs(), 1);
        pool.put(a);
        assert_eq!(pool.pooled(), 1);
        let mut b = pool.take_zeroed(64);
        assert_eq!(
            (pool.allocs(), pool.pooled()),
            (1, 0),
            "served from the shelf"
        );
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
        assert_eq!(pool.allocs(), 2);
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
        assert!(
            pool.allocs() <= 4,
            "at most one allocation per concurrent taker"
        );
        assert_eq!(
            pool.pooled(),
            pool.allocs(),
            "every buffer came back to the shelf"
        );
        let cloned = pool.clone();
        assert_eq!((cloned.pooled(), cloned.allocs()), (0, 0));
    }

    #[test]
    fn empty_work_is_fine() {
        for threads in THREADS {
            let exec = Exec::with_threads(threads);
            assert_eq!(map_chunks(&exec, 1, |_| 0u32), vec![0]);
            assert!(map_chunks(&exec, 0, |_| -> u32 { unreachable!() }).is_empty());
            let never = |_| -> u32 { unreachable!() };
            assert_eq!(reduce_chunks(&exec, 0, never, 7, |a, b| a + b), 7);
            let mut empty: [u8; 0] = [];
            for_each_mut(&exec, &mut empty, |_, _| unreachable!());
            fill_chunks(&exec, &mut empty, 3, |_, _, _| unreachable!());
        }
    }
}
