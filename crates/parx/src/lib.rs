//! Deterministic data-parallel kernels on `std::thread::scope`.
//!
//! The container this workspace builds in has no crates.io access, so the
//! hot loops cannot pull in rayon. This crate provides the small slice of
//! rayon's functionality they need, built on scoped threads, with one
//! extra guarantee rayon does not make: **every kernel produces the same
//! bits for every thread count**, including 1. That is what lets the flow
//! expose a `threads` knob while keeping its results reproducible, and
//! what the serial-vs-parallel equivalence tests assert.
//!
//! Determinism comes from two rules:
//!
//! * work is partitioned into chunks whose boundaries depend only on the
//!   problem size (never on the thread count or on scheduling), and
//! * every combining step (gradient reduction, value sums) happens in
//!   chunk order on one thread.
//!
//! The building blocks:
//!
//! * [`resolve_threads`] — maps the user-facing knob (0 = auto) to a
//!   concrete worker count.
//! * [`par_for`] — parallel loop over disjoint index chunks; the closure
//!   gets a chunk range and may write anywhere it can prove disjoint.
//! * [`par_map_reduce`] — chunked map with an ordered, serial reduction;
//!   the reduction order is chunk order, independent of thread count.
//!   [`par_map_reduce_with_state_named`] also hands every chunk its own
//!   reusable state.
//! * [`UnsafeSlice`] — a `Sync` view over `&mut [T]` for kernels whose
//!   writes are disjoint by construction but not expressible as
//!   `chunks_mut` (e.g. scattered pin indices within a timing level).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves the user-facing thread knob: `0` means "use the machine",
/// anything else is taken literally (capped at 64 to bound scratch
/// memory on absurd inputs).
pub fn resolve_threads(requested: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    n.clamp(1, 64)
}

/// Chunk size for `n` items: big enough to amortize dispatch, small
/// enough to load-balance. Depends only on `n`, never on threads — this
/// is what keeps chunk-ordered reductions thread-count invariant.
pub fn chunk_size(n: usize, min_chunk: usize) -> usize {
    // Aim for ~4 chunks per worker on a typical 8-way machine without
    // consulting the actual worker count.
    (n / 32).max(min_chunk).max(1)
}

/// Problems shorter than this many chunks run inline: scoped-thread
/// spawn/join costs tens of microseconds per call, which dwarfs the
/// kernel itself on small inputs (there is no persistent pool). Chunk
/// boundaries are unchanged, so results are identical either way.
const MIN_PARALLEL_CHUNKS: usize = 4;

/// Runs `body` over `0..n` split into chunks of [`chunk_size`], using up
/// to `threads` workers. `body` receives a half-open index range; calls
/// may run concurrently, so writes must target disjoint data per index.
///
/// With `threads <= 1`, or when the whole problem fits one chunk, runs
/// inline with zero thread overhead.
pub fn par_for<F>(threads: usize, n: usize, min_chunk: usize, body: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    par_for_inner(threads, n, min_chunk, None, body)
}

/// [`par_for`] with a kernel name for the tracing layer: each worker's
/// participation in the dispatch is recorded as one `name` span on a
/// stable per-worker lane ([`tdp_trace::worker_lane`]), and the caller's
/// own participation as a span on its lane. Chunk boundaries, claiming
/// and results are exactly [`par_for`]'s — tracing observes the dispatch
/// and never shapes it. With tracing disabled the extra cost is one
/// relaxed atomic load.
pub fn par_for_named<F>(threads: usize, n: usize, min_chunk: usize, name: &'static str, body: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    par_for_inner(threads, n, min_chunk, Some(name), body)
}

/// Names the worker lane for worker `index` of a dispatch from `caller`.
fn adopt_worker_lane(caller: u32, index: usize) {
    tdp_trace::adopt_lane(
        tdp_trace::worker_lane(caller, index),
        &format!("parx.worker{index}"),
    );
}

/// The caller's lane id, read only when a named kernel will trace (the
/// disabled path must not touch thread-locals).
fn trace_caller(name: Option<&'static str>) -> Option<u32> {
    match name {
        Some(_) if tdp_trace::enabled() => Some(tdp_trace::current_lane()),
        _ => None,
    }
}

fn kernel_span(name: Option<&'static str>) -> tdp_trace::SpanGuard {
    match name {
        Some(name) => tdp_trace::span(name, "parx"),
        None => tdp_trace::SpanGuard::disarmed(),
    }
}

fn par_for_inner<F>(threads: usize, n: usize, min_chunk: usize, name: Option<&'static str>, body: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let chunk = chunk_size(n, min_chunk);
    let num_chunks = n.div_ceil(chunk);
    let workers = threads.min(num_chunks);
    if workers <= 1 || num_chunks < MIN_PARALLEL_CHUNKS {
        let _span = kernel_span(name);
        body(0..n);
        return;
    }
    let caller = trace_caller(name);
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let next = &next;
        let body = &body;
        for w in 1..workers {
            s.spawn(move || {
                if let Some(caller) = caller {
                    adopt_worker_lane(caller, w);
                }
                let _span = kernel_span(name);
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= num_chunks {
                        break;
                    }
                    let lo = c * chunk;
                    body(lo..(lo + chunk).min(n));
                }
            });
        }
        let _span = kernel_span(name);
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= num_chunks {
                break;
            }
            let lo = c * chunk;
            body(lo..(lo + chunk).min(n));
        }
    });
}

/// Chunked map + ordered reduce: `map` produces one accumulator per chunk
/// (chunks may be mapped concurrently), then the accumulators are folded
/// left-to-right in chunk order on the calling thread. The result is
/// bit-identical for every thread count because both the chunk boundaries
/// and the fold order are thread-independent.
pub fn par_map_reduce<T, M, R>(threads: usize, n: usize, min_chunk: usize, map: M, reduce: R)
where
    T: Send,
    M: Fn(std::ops::Range<usize>) -> T + Sync,
    R: FnMut(T),
{
    par_map_reduce_inner(
        threads,
        n,
        min_chunk,
        None,
        &mut Vec::<()>::new(),
        |_, range| map(range),
        reduce,
    )
}

/// [`par_map_reduce`] with a kernel name for the tracing layer — same
/// span placement as [`par_for_named`] (one span per worker's
/// participation, on stable worker lanes; the chunk-ordered fold runs
/// inside the caller's span). Chunk boundaries and the fold order are
/// exactly [`par_map_reduce`]'s.
pub fn par_map_reduce_named<T, M, R>(
    threads: usize,
    n: usize,
    min_chunk: usize,
    name: &'static str,
    map: M,
    reduce: R,
) where
    T: Send,
    M: Fn(std::ops::Range<usize>) -> T + Sync,
    R: FnMut(T),
{
    par_map_reduce_inner(
        threads,
        n,
        min_chunk,
        Some(name),
        &mut Vec::<()>::new(),
        |_, range| map(range),
        reduce,
    )
}

/// [`par_map_reduce_named`] with one reusable state per chunk: `states`
/// grows to the chunk count (it never shrinks), and the `map` call of
/// chunk `c` gets `&mut states[c]` to itself. A kernel that keeps the
/// same `states` across calls reuses its per-chunk buffers without
/// knowing how the problem is chunked, so calls after the first need not
/// allocate, even when the problem size varies between calls.
/// Chunk boundaries and the fold order are exactly [`par_map_reduce`]'s.
pub fn par_map_reduce_with_state_named<S, T, M, R>(
    threads: usize,
    n: usize,
    min_chunk: usize,
    name: &'static str,
    states: &mut Vec<S>,
    map: M,
    reduce: R,
) where
    S: Default + Send,
    T: Send,
    M: Fn(&mut S, std::ops::Range<usize>) -> T + Sync,
    R: FnMut(T),
{
    par_map_reduce_inner(threads, n, min_chunk, Some(name), states, map, reduce)
}

fn par_map_reduce_inner<S, T, M, R>(
    threads: usize,
    n: usize,
    min_chunk: usize,
    name: Option<&'static str>,
    states: &mut Vec<S>,
    map: M,
    mut reduce: R,
) where
    S: Default + Send,
    T: Send,
    M: Fn(&mut S, std::ops::Range<usize>) -> T + Sync,
    R: FnMut(T),
{
    if n == 0 {
        return;
    }
    let chunk = chunk_size(n, min_chunk);
    let num_chunks = n.div_ceil(chunk);
    if states.len() < num_chunks {
        states.resize_with(num_chunks, S::default);
    }
    let workers = threads.min(num_chunks);
    if workers <= 1 || num_chunks < MIN_PARALLEL_CHUNKS {
        let _span = kernel_span(name);
        for (c, state) in states[..num_chunks].iter_mut().enumerate() {
            let lo = c * chunk;
            reduce(map(state, lo..(lo + chunk).min(n)));
        }
        return;
    }
    let _span = kernel_span(name);
    let caller = trace_caller(name);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(num_chunks);
    slots.resize_with(num_chunks, || None);
    {
        let slots = UnsafeSlice::new(&mut slots);
        let states = UnsafeSlice::new(states);
        let next = AtomicUsize::new(0);
        // Maps chunks until none is left unclaimed.
        let run = |next: &AtomicUsize| loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= num_chunks {
                break;
            }
            let lo = c * chunk;
            // SAFETY: each chunk index is claimed exactly once, so its
            // slot and its state are touched by this call alone.
            unsafe {
                let state = &mut states.slice_mut(c, 1)[0];
                slots.write(c, Some(map(state, lo..(lo + chunk).min(n))));
            }
        };
        std::thread::scope(|s| {
            let next = &next;
            let run = &run;
            for w in 1..workers {
                s.spawn(move || {
                    if let Some(caller) = caller {
                        adopt_worker_lane(caller, w);
                    }
                    let _span = kernel_span(name);
                    run(next);
                });
            }
            run(next);
        });
    }
    for slot in &mut slots {
        reduce(slot.take().expect("every chunk was mapped"));
    }
}

/// Dynamic work queue over `0..n` items: up to `threads` workers claim
/// item indices from a shared atomic counter and run `body` on each.
///
/// Unlike [`par_for`], every item is its own unit of work and there is no
/// inline-below-a-threshold heuristic: with `threads >= 2` and `n >= 2`
/// the items genuinely run concurrently. This is the sharding primitive
/// for coarse-grained jobs (whole placement flows, design groups) whose
/// per-item cost dwarfs the spawn/join overhead, where even a two-item
/// queue is worth parallelizing.
///
/// `body` must make each item's work independent of every other item's;
/// the *execution order* of items is scheduling-dependent, so determinism
/// of the overall result requires item results to be keyed by index, not
/// by completion order.
pub fn par_queue<F>(threads: usize, n: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    if n == 0 {
        return;
    }
    let workers = resolve_threads(threads.max(1)).min(n);
    if workers <= 1 {
        for i in 0..n {
            body(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let work = |next: &AtomicUsize| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        body(i);
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(|| work(&next));
        }
        work(&next);
    });
}

/// A closeable blocking work queue for long-lived worker pools.
///
/// [`par_queue`] shards a *fixed* batch of `n` items and joins when they
/// drain — the right shape for one-shot batch runs, the wrong one for a
/// resident service that accepts work for as long as it lives. A
/// `TaskQueue` is the open-ended complement: any thread pushes tasks at
/// any time, worker threads block in [`TaskQueue::pop`] until a task (or
/// shutdown) arrives, and [`TaskQueue::close`] wakes every worker so a
/// pool can be joined without leaking threads.
///
/// Semantics:
///
/// * `push` returns `false` once the queue is closed (the task is
///   dropped, not enqueued);
/// * `pop` returns tasks in FIFO order; after `close`, remaining tasks
///   are still handed out, then every `pop` returns `None`;
/// * any number of producers and consumers may run concurrently.
#[derive(Debug)]
pub struct TaskQueue<T> {
    state: std::sync::Mutex<TaskQueueState<T>>,
    ready: std::sync::Condvar,
}

#[derive(Debug)]
struct TaskQueueState<T> {
    tasks: std::collections::VecDeque<T>,
    closed: bool,
}

impl<T> Default for TaskQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TaskQueue<T> {
    /// An empty, open queue.
    pub fn new() -> Self {
        Self {
            state: std::sync::Mutex::new(TaskQueueState {
                tasks: std::collections::VecDeque::new(),
                closed: false,
            }),
            ready: std::sync::Condvar::new(),
        }
    }

    /// Enqueues one task; returns `false` (dropping the task) if the
    /// queue is closed.
    pub fn push(&self, task: T) -> bool {
        let mut s = self.state.lock().expect("task queue lock");
        if s.closed {
            return false;
        }
        s.tasks.push_back(task);
        drop(s);
        self.ready.notify_one();
        true
    }

    /// Blocks until a task is available (FIFO) or the queue is closed
    /// and drained, then returns `Some(task)` / `None` respectively.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().expect("task queue lock");
        loop {
            if let Some(task) = s.tasks.pop_front() {
                return Some(task);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).expect("task queue lock");
        }
    }

    /// Closes the queue: pending tasks still drain, further pushes are
    /// refused, and blocked (plus future) `pop`s return `None` once the
    /// backlog is gone. Idempotent.
    pub fn close(&self) {
        self.state.lock().expect("task queue lock").closed = true;
        self.ready.notify_all();
    }

    /// Number of tasks currently queued (racy by nature; for metrics).
    pub fn len(&self) -> usize {
        self.state.lock().expect("task queue lock").tasks.len()
    }

    /// Whether no tasks are queued right now (racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A `Sync` view over a mutable slice for provably disjoint concurrent
/// writes (each index written by at most one thread per parallel phase).
///
/// This is the standard scatter-write escape hatch: the borrow checker
/// cannot see that a timing level touches each pin once, so the kernel
/// asserts it instead.
pub struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: callers uphold write-disjointness (documented on `write`).
unsafe impl<T: Send> Sync for UnsafeSlice<'_, T> {}
unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wraps a mutable slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    ///
    /// Within one parallel phase, no two threads may write the same
    /// index, and nobody may read an index another thread writes.
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.len);
        // SAFETY: bounds checked above; disjointness per the contract.
        unsafe { *self.ptr.add(index) = value };
    }

    /// Reads the value at `index`.
    ///
    /// # Safety
    ///
    /// Within one parallel phase, no thread may write this index. (The
    /// level-synchronized kernels read only indices finalized by earlier
    /// phases, separated by a barrier.)
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(index < self.len);
        // SAFETY: bounds checked above; no concurrent writer per contract.
        unsafe { *self.ptr.add(index) }
    }

    /// Reborrows `start..start + len` as a mutable subslice: a kernel
    /// that owns a contiguous segment of a shared buffer (one chunk's
    /// state, one row's bins) gets an ordinary `&mut [T]` for it instead
    /// of element-wise [`UnsafeSlice::write`] calls.
    ///
    /// # Safety
    ///
    /// The range must be in bounds, and within one parallel phase no two
    /// subslices handed out may overlap, nor may any overlapping index be
    /// touched through [`UnsafeSlice::read`] / [`UnsafeSlice::write`].
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &'a mut [T] {
        debug_assert!(start.checked_add(len).is_some_and(|end| end <= self.len));
        // SAFETY: bounds checked above; disjointness per the contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_handles_auto_and_caps() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(10_000), 64);
    }

    #[test]
    fn par_for_covers_every_index_once() {
        for threads in [1, 2, 7] {
            let n = 10_000;
            let mut hits = vec![0u8; n];
            {
                let view = UnsafeSlice::new(&mut hits);
                par_for(threads, n, 16, |range| {
                    for i in range {
                        // SAFETY: ranges are disjoint chunks of 0..n.
                        unsafe { view.write(i, 1) };
                    }
                });
            }
            assert!(hits.iter().all(|&h| h == 1), "threads={threads}");
        }
    }

    #[test]
    fn par_map_reduce_is_thread_count_invariant() {
        // Sum of f64 values whose order matters at the bit level: the
        // reduction must produce identical bits for every thread count.
        let n = 50_000;
        let vals: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761) % 1000) as f64 * 1e-3)
            .collect();
        let sum_with = |threads: usize| {
            let mut total = 0.0f64;
            par_map_reduce(
                threads,
                n,
                64,
                |range| range.map(|i| vals[i]).sum::<f64>(),
                |partial: f64| total += partial,
            );
            total
        };
        let s1 = sum_with(1);
        for threads in [2, 3, 8] {
            assert_eq!(s1.to_bits(), sum_with(threads).to_bits());
        }
    }

    #[test]
    fn every_chunk_gets_its_own_state_at_every_thread_count() {
        let n: usize = 10_000;
        let num_chunks = n.div_ceil(chunk_size(n, 16));
        for threads in [1, 2, 7] {
            // Each state records the chunk start it served and how often.
            let mut states: Vec<(usize, u32)> = Vec::new();
            for call in 1..=2u32 {
                let mut covered = 0;
                par_map_reduce_with_state_named(
                    threads,
                    n,
                    16,
                    "test",
                    &mut states,
                    |state, range| {
                        state.0 = range.start;
                        state.1 += 1;
                        range.len()
                    },
                    |len| covered += len,
                );
                assert_eq!(covered, n, "threads={threads}");
                assert_eq!(states.len(), num_chunks, "threads={threads}");
                assert!(states.iter().all(|s| s.1 == call), "threads={threads}");
                assert!(
                    states.windows(2).all(|w| w[0].0 < w[1].0),
                    "threads={threads}: states out of chunk order"
                );
            }
            // A smaller problem uses the leading states and keeps the rest.
            par_map_reduce_with_state_named(
                threads,
                10,
                16,
                "test",
                &mut states,
                |state, _| state.1 += 1,
                |()| {},
            );
            assert_eq!(states.len(), num_chunks, "threads={threads}");
            assert_eq!(states[0].1, 3, "threads={threads}");
            assert!(states[1..].iter().all(|s| s.1 == 2), "threads={threads}");
        }
    }

    #[test]
    fn par_for_zero_items_is_a_noop() {
        par_for(4, 0, 1, |_| panic!("no chunks expected"));
        par_map_reduce(4, 0, 1, |_| 1u32, |_| panic!("no chunks expected"));
    }

    #[test]
    fn par_queue_runs_every_item_exactly_once() {
        use std::sync::atomic::AtomicU32;
        for threads in [1, 2, 5] {
            // Small n on purpose: par_queue must parallelize even a
            // two-item queue instead of falling back to inline execution.
            for n in [0usize, 1, 2, 3, 17] {
                let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                par_queue(threads, n, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads} n={n}"
                );
            }
        }
    }

    #[test]
    fn task_queue_feeds_a_pool_and_drains_on_close() {
        use std::sync::atomic::AtomicU32;
        let queue = TaskQueue::new();
        let done = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while let Some(task) = queue.pop() {
                        let _: usize = task;
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for i in 0..100 {
                assert!(queue.push(i), "queue open: push must succeed");
            }
            // Close with tasks possibly still queued: workers must drain
            // the backlog, then exit (the scope join proves no leak).
            queue.close();
        });
        assert_eq!(done.load(Ordering::Relaxed), 100);
        assert!(!queue.push(0), "closed queue refuses work");
        assert_eq!(queue.pop(), None, "closed + drained pops None");
        assert!(queue.is_empty());
    }

    #[test]
    fn task_queue_pop_blocks_until_push() {
        let queue = std::sync::Arc::new(TaskQueue::new());
        let q2 = std::sync::Arc::clone(&queue);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        queue.push(42usize);
        assert_eq!(popper.join().unwrap(), Some(42));
    }

    #[test]
    fn slice_mut_hands_out_disjoint_csr_segments() {
        // CSR-style refresh: chunk i owns slab[starts[i]..starts[i+1]].
        let starts = [0usize, 3, 7, 8, 12];
        let mut slab = vec![0u32; 12];
        for threads in [1, 4] {
            slab.fill(0);
            {
                let view = UnsafeSlice::new(&mut slab);
                par_for(threads, starts.len() - 1, 1, |range| {
                    for i in range {
                        let lo = starts[i];
                        // SAFETY: CSR segments are disjoint by construction.
                        let seg = unsafe { view.slice_mut(lo, starts[i + 1] - lo) };
                        for v in seg {
                            *v += i as u32 + 1;
                        }
                    }
                });
            }
            assert_eq!(
                slab,
                [1, 1, 1, 2, 2, 2, 2, 3, 4, 4, 4, 4],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn chunk_boundaries_depend_only_on_n() {
        assert_eq!(chunk_size(10, 4), 4);
        assert_eq!(chunk_size(100_000, 4), 3125);
        // min_chunk floors the size.
        assert_eq!(chunk_size(64, 128), 128);
    }
}
