//! Deterministic data parallelism on a persistent worker pool.
//!
//! The evaluation layer fans independent work items (LOSO folds, sweep
//! points, grid cells, fleet flush shards) across OS threads. A full
//! `std::thread::scope` spawn/join cycle per [`par_map`] call would tax
//! the sweep drivers (`loso_evaluate`, `bit_grid_evaluate`,
//! `feature_sweep`), which call it thousands of times, so [`par_map`]
//! dispatches onto a lazily-initialised global [`WorkerPool`]: workers
//! are spawned once, park on a condvar between jobs, and claim items
//! from a shared atomic counter.
//!
//! Determinism is structural and unchanged: every item is computed
//! independently and its result is written to the item's own output
//! slot, so the caller always observes results in input order regardless
//! of scheduling. Combined with a fixed aggregation order this makes the
//! parallel evaluation paths bit-identical to their sequential twins.
//!
//! Nested calls (an item's `f` calling [`par_map`] again, on the caller
//! thread or on a pool worker) fall back to a plain sequential map — the
//! pool runs one job at a time and nesting would otherwise deadlock on
//! the submission lock.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

thread_local! {
    /// Set while this thread is inside a pool job (as the submitting
    /// caller or as a pool worker): nested [`par_map`] calls go
    /// sequential instead of deadlocking on the one-job-at-a-time pool.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads to use for `n` items: the machine's available
/// parallelism, capped by the item count (minimum 1).
pub fn worker_count(n: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(n).max(1)
}

/// One dispatched job: a type-erased "run the shared work loop" closure.
/// The raw pointer's referent lives on the submitting caller's stack;
/// the submission protocol guarantees no worker touches it after the
/// caller's dispatch returns (the caller blocks until every worker has
/// finished the epoch).
#[derive(Clone, Copy)]
struct Job {
    body: *const (dyn Fn() + Sync + 'static),
}

// SAFETY: the pointee is `Sync` (it is a `&dyn Fn() + Sync`) and the
// dispatch protocol bounds its lifetime (the submitting frame stays
// blocked until every worker finishes the epoch), so moving the pointer
// between threads is sound.
unsafe impl Send for Job {}

struct PoolState {
    /// Current job, present while an epoch is in flight.
    job: Option<Job>,
    /// Bumped once per dispatched job; workers run each epoch exactly
    /// once.
    epoch: u64,
    /// Workers still executing the current epoch.
    active: usize,
    /// Workers whose job body panicked this epoch.
    panics: usize,
    /// Set by [`WorkerPool::drop`]: parked workers exit their loop.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work: Condvar,
    done: Condvar,
}

/// Ignore mutex poisoning: pool state is only mutated under the small,
/// panic-free protocol sections below; job-body panics are caught and
/// recorded, never unwound through a held lock.
fn lock(m: &Mutex<PoolState>) -> MutexGuard<'_, PoolState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A persistent pool of parked worker threads executing one
/// order-preserving parallel map at a time.
///
/// Construct explicitly for tests/benches; production callers go through
/// [`par_map`], which lazily initialises one global pool sized to the
/// machine (`available_parallelism - 1` workers — the submitting caller
/// participates, so total executors equal the hardware width).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Submission lock: one job at a time; held for a whole dispatch.
    submit: Mutex<()>,
    workers: usize,
    /// Join handles, drained on drop so an explicitly constructed pool
    /// releases its threads deterministically.
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns `workers` parked worker threads (0 is valid: every dispatch
    /// then runs entirely on the caller). Dropping the pool shuts them
    /// down and joins them.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                active: 0,
                panics: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("seizure-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            submit: Mutex::new(()),
            workers,
            handles,
        }
    }

    /// Number of persistent workers (the caller adds one executor on
    /// top during a dispatch).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Order-preserving parallel map over `items` on this pool.
    ///
    /// Falls back to a plain sequential map for empty/single-item inputs,
    /// worker-less pools, and nested calls.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`: the caller's own panic payload is
    /// rethrown after every worker has finished; worker panics are
    /// re-raised as `"pool worker panicked"`.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        if n <= 1 || self.workers == 0 || IN_POOL_JOB.get() {
            return items.iter().map(f).collect();
        }

        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let slots = SlotWriter(out.as_mut_ptr());
        let next = AtomicUsize::new(0);
        let body = || {
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                // SAFETY: `i < n` (checked above) and each index is
                // claimed by exactly one executor via the shared atomic
                // counter, so this is a race-free write to a distinct
                // in-bounds slot.
                unsafe { slots.write(i, r) };
            }
        };
        let body_ref: &(dyn Fn() + Sync) = &body;
        let job = Job {
            // SAFETY: erases the stack lifetime only for the duration of
            // the dispatch — the protocol below keeps the closure alive
            // (this frame blocked in the `active > 0` wait) until every
            // worker has finished the epoch, and `st.job` is cleared
            // before returning.
            body: unsafe {
                std::mem::transmute::<&(dyn Fn() + Sync), *const (dyn Fn() + Sync + 'static)>(
                    body_ref,
                )
            },
        };

        // One job at a time: if another thread is mid-dispatch, stay
        // productive on scoped spawn threads instead of queueing idle —
        // concurrent top-level callers must not serialise behind each
        // other.
        let _submission = match self.submit.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                return par_map_spawn_n(items, self.workers + 1, f);
            }
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        };
        {
            let mut st = lock(&self.shared.state);
            st.job = Some(job);
            st.epoch += 1;
            st.active = self.workers;
            st.panics = 0;
            self.shared.work.notify_all();
        }
        // The caller participates in its own job (and must not submit a
        // nested one while doing so).
        IN_POOL_JOB.set(true);
        let caller_result = catch_unwind(AssertUnwindSafe(body_ref));
        IN_POOL_JOB.set(false);
        let worker_panics = {
            let mut st = lock(&self.shared.state);
            while st.active > 0 {
                st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.job = None;
            st.panics
        };
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        assert!(worker_panics == 0, "pool worker panicked");
        out.into_iter()
            .map(|r| r.expect("every claimed slot written"))
            .collect()
    }

    /// Order-preserving parallel map over **mutable** items on this pool
    /// — the shard-scoped twin of [`WorkerPool::par_map`], built for
    /// stages that mutate per-item state in place (e.g. one streaming
    /// session's extractor per item). Results come back in input order
    /// and each item's `&mut` borrow is taken by exactly one executor,
    /// so there are no locks on the work path.
    ///
    /// Falls back to a plain sequential map for empty/single-item
    /// inputs, worker-less pools, nested calls, and when another thread
    /// is mid-dispatch on this pool (mutable items cannot ride the
    /// scoped-spawn fallback shared work queue semantics of `par_map`;
    /// serialising onto the caller keeps the no-deadlock guarantee).
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` exactly like [`WorkerPool::par_map`].
    pub fn par_map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut T) -> R + Sync,
    {
        let n = items.len();
        if n <= 1 || self.workers == 0 || IN_POOL_JOB.get() {
            return items.iter_mut().map(f).collect();
        }

        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let slots = SlotWriter(out.as_mut_ptr());
        let base = ItemWriter(items.as_mut_ptr());
        let next = AtomicUsize::new(0);
        let body = || {
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: `i < n` (checked above) and each index is
                // claimed by exactly one executor via the shared atomic
                // counter, so the `&mut` borrows are disjoint.
                let r = f(unsafe { base.get_mut(i) });
                // SAFETY: same claim discipline — exactly one executor
                // writes slot `i`, which is in bounds.
                unsafe { slots.write(i, r) };
            }
        };
        let body_ref: &(dyn Fn() + Sync) = &body;
        let job = Job {
            // SAFETY: erases the stack lifetime only for the duration of
            // the dispatch — the protocol below keeps the closure alive
            // (this frame blocked in the `active > 0` wait) until every
            // worker has finished the epoch, and `st.job` is cleared
            // before returning.
            body: unsafe {
                std::mem::transmute::<&(dyn Fn() + Sync), *const (dyn Fn() + Sync + 'static)>(
                    body_ref,
                )
            },
        };

        let _submission = match self.submit.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                return items.iter_mut().map(f).collect();
            }
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        };
        {
            let mut st = lock(&self.shared.state);
            st.job = Some(job);
            st.epoch += 1;
            st.active = self.workers;
            st.panics = 0;
            self.shared.work.notify_all();
        }
        // The caller participates in its own job (and must not submit a
        // nested one while doing so).
        IN_POOL_JOB.set(true);
        let caller_result = catch_unwind(AssertUnwindSafe(body_ref));
        IN_POOL_JOB.set(false);
        let worker_panics = {
            let mut st = lock(&self.shared.state);
            while st.active > 0 {
                st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.job = None;
            st.panics
        };
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        assert!(worker_panics == 0, "pool worker panicked");
        out.into_iter()
            .map(|r| r.expect("every claimed slot written"))
            .collect()
    }
}

/// Raw mutable-access handle into the item slice of a
/// [`WorkerPool::par_map_mut`] dispatch; `Send + Sync` because each
/// index is claimed by exactly one executor (the shared atomic counter),
/// so the `&mut` borrows handed out are disjoint while the owning slice
/// outlives the job.
struct ItemWriter<T>(*mut T);

// SAFETY: the pointer targets a `&mut [T]` (exclusive) slice owned by the
// blocked dispatching frame; per-index claims make cross-thread access
// disjoint, so the handle may move between executor threads.
unsafe impl<T: Send> Send for ItemWriter<T> {}
// SAFETY: shared across executors by reference, but every dereference is
// to a distinct claimed index — no two threads touch the same element.
unsafe impl<T: Send> Sync for ItemWriter<T> {}

impl<T> ItemWriter<T> {
    /// # Safety
    ///
    /// `i` must be in bounds and claimed by exactly one executor.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, i: usize) -> &mut T {
        // SAFETY: caller contract — `i` in bounds, claimed exactly once,
        // and the owning slice outlives the job.
        unsafe { &mut *self.0.add(i) }
    }
}

/// Raw write handle into the output slot vector; `Send + Sync` because
/// distinct indices are written by distinct executors exactly once while
/// the owning vector outlives the job.
struct SlotWriter<R>(*mut Option<R>);

// SAFETY: the pointer targets the output vector owned by the blocked
// dispatching frame; per-index claims make cross-thread writes disjoint,
// so the handle may move between executor threads.
unsafe impl<R: Send> Send for SlotWriter<R> {}
// SAFETY: shared across executors by reference, but every write lands in
// a distinct claimed slot — no two threads touch the same element.
unsafe impl<R: Send> Sync for SlotWriter<R> {}

impl<R> SlotWriter<R> {
    /// # Safety
    ///
    /// `i` must be in bounds and claimed by exactly one executor.
    unsafe fn write(&self, i: usize, r: R) {
        // SAFETY: caller contract — `i` in bounds, claimed exactly once,
        // and the owning vector outlives the job.
        unsafe { *self.0.add(i) = Some(r) };
    }
}

impl Drop for WorkerPool {
    /// Shuts the workers down and joins them, so explicitly constructed
    /// pools (tests, benches) release their threads deterministically.
    /// `&mut self` guarantees no dispatch is in flight on this pool.
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    // Anything `f` runs on this thread must not re-enter the pool.
    IN_POOL_JOB.set(true);
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break st.job.expect("epoch bumped with a job installed");
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: the job pointer stays valid for the whole epoch — the
        // submitting frame blocks until `active` drops to zero, which
        // happens only after this call returns (see the protocol in
        // `par_map`).
        let ok = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.body)() })).is_ok();
        let mut st = lock(&shared.state);
        if !ok {
            st.panics += 1;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// The global pool behind [`par_map`]: `available_parallelism - 1`
/// persistent workers, spawned on first use. Crate-visible so machinery
/// that sizes its stages to the default pool (the fleet scheduler) can
/// ask for the executor count without forcing its own pool.
pub(crate) fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(worker_count(usize::MAX).saturating_sub(1)))
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Items are pulled from a shared atomic counter, so uneven item costs
/// (e.g. LOSO folds with very different training-set sizes) balance
/// across executors. Runs on the persistent global [`WorkerPool`] — no
/// per-call thread spawning — and falls back to a plain sequential map
/// on single-core machines, tiny inputs and nested calls, keeping those
/// paths overhead-free.
///
/// # Panics
///
/// Propagates panics from `f` (the dispatch waits for all workers
/// first).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    global_pool().par_map(items, f)
}

/// Maps `f` over **mutable** items in parallel on the global pool,
/// returning results in input order — the free twin of
/// [`WorkerPool::par_map_mut`], with the same sequential fallbacks.
///
/// # Panics
///
/// Propagates panics from `f` (the dispatch waits for all workers
/// first).
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    global_pool().par_map_mut(items, f)
}

/// The pre-pool implementation — a full `std::thread::scope` spawn/join
/// per call — kept as the overhead reference the kernel bench compares
/// the persistent pool against. Semantically identical to [`par_map`].
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn par_map_spawn<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_spawn_n(items, worker_count(items.len()), f)
}

/// [`par_map_spawn`] with an explicit worker count (so benches can match
/// pool and spawn executor counts on any machine).
pub fn par_map_spawn_n<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("worker panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker wrote every claimed slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, |&i| i * 3);
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map(&[] as &[usize], |&i| i), Vec::<usize>::new());
        assert_eq!(par_map(&[7usize], |&i| i + 1), vec![8]);
    }

    #[test]
    fn matches_sequential_map_bitwise() {
        // f64 work: parallel scheduling must not change a single bit.
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.37).collect();
        let work = |&x: &f64| (x.sin() * 1e6).sqrt() + x.powi(3);
        let seq: Vec<f64> = items.iter().map(work).collect();
        let par = par_map(&items, work);
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn worker_count_is_bounded() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1000) >= 1);
    }

    #[test]
    fn explicit_pool_keeps_order_across_many_jobs() {
        // A real multi-worker pool regardless of the host's core count,
        // reused across many dispatches (the persistent-pool property).
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        for round in 0..50usize {
            let items: Vec<usize> = (0..97).collect();
            let out = pool.par_map(&items, |&i| i * 7 + round);
            assert_eq!(out, items.iter().map(|i| i * 7 + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn explicit_pool_is_bitwise_deterministic() {
        let pool = WorkerPool::new(4);
        let items: Vec<f64> = (0..200).map(|i| i as f64 * 0.21 - 13.0).collect();
        let work = |&x: &f64| (x.cos() * 1e3).abs().sqrt() + x * x;
        let seq: Vec<f64> = items.iter().map(work).collect();
        for _ in 0..10 {
            let par = pool.par_map(&items, work);
            for (a, b) in seq.iter().zip(par.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn nested_calls_fall_back_to_sequential() {
        let pool = WorkerPool::new(2);
        let outer: Vec<usize> = (0..8).collect();
        // The inner par_map (on the global pool) runs while this thread
        // or a pool worker is inside a job — it must complete sequentially
        // rather than deadlock.
        let out = pool.par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..5).collect();
            par_map(&inner, |&j| i * 10 + j).iter().sum::<usize>()
        });
        let want: Vec<usize> = outer
            .iter()
            .map(|&i| (0..5).map(|j| i * 10 + j).sum())
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_keeps_order() {
        let pool = WorkerPool::new(3);
        for round in 0..20usize {
            let mut items: Vec<usize> = (0..97).collect();
            let out = pool.par_map_mut(&mut items, |v| {
                *v += round;
                *v * 2
            });
            for (i, (item, r)) in items.iter().zip(&out).enumerate() {
                assert_eq!(*item, i + round);
                assert_eq!(*r, (i + round) * 2);
            }
        }
        // The free global-pool variant agrees (sequential fallback or
        // not, results and mutations are identical).
        let mut items: Vec<usize> = (0..31).collect();
        let out = par_map_mut(&mut items, |v| {
            *v += 1;
            *v
        });
        assert_eq!(out, (1..32).collect::<Vec<_>>());
        assert_eq!(items, (1..32).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_mut_nested_calls_fall_back_to_sequential() {
        let pool = WorkerPool::new(2);
        let outer: Vec<usize> = (0..6).collect();
        let out = pool.par_map(&outer, |&i| {
            let mut inner: Vec<usize> = (0..4).collect();
            par_map_mut(&mut inner, |v| {
                *v += i * 10;
                *v
            })
            .iter()
            .sum::<usize>()
        });
        let want: Vec<usize> = outer
            .iter()
            .map(|&i| (0..4).map(|j| j + i * 10).sum())
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn par_map_mut_propagates_panics_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let mut items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_mut(&mut items, |v| {
                assert!(*v != 13, "boom at {v}");
                *v
            })
        }));
        assert!(caught.is_err());
        let mut items: Vec<usize> = (0..64).collect();
        let out = pool.par_map_mut(&mut items, |v| *v + 1);
        assert_eq!(out[63], 64);
    }

    #[test]
    fn pool_propagates_panics_and_survives_them() {
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |&i| {
                assert!(i != 13, "boom at {i}");
                i
            })
        }));
        assert!(caught.is_err());
        // The pool must stay usable after a panicked job.
        let out = pool.par_map(&items, |&i| i + 1);
        assert_eq!(out[63], 64);
    }

    #[test]
    fn spawn_reference_matches_pool() {
        let items: Vec<usize> = (0..123).collect();
        let pool = WorkerPool::new(3);
        let a = pool.par_map(&items, |&i| i * i);
        let b = par_map_spawn_n(&items, 4, |&i| i * i);
        let c = par_map_spawn(&items, |&i| i * i);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn zero_worker_pool_runs_sequentially() {
        let pool = WorkerPool::new(0);
        let items: Vec<usize> = (0..10).collect();
        assert_eq!(pool.par_map(&items, |&i| i * 2)[9], 18);
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        // Drop must terminate and join the parked workers — if shutdown
        // were broken this test would hang on the joins.
        let pool = WorkerPool::new(3);
        let items: Vec<usize> = (0..40).collect();
        assert_eq!(pool.par_map(&items, |&i| i + 1)[39], 40);
        drop(pool);
    }

    #[test]
    fn concurrent_callers_do_not_serialise_behind_the_submit_lock() {
        // Two threads dispatching onto one busy pool: the loser of the
        // try_lock falls back to scoped spawn threads and both finish
        // with correct, ordered results.
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..500).collect();
        let work = |&i: &usize| {
            std::hint::black_box((0..200).fold(i, |a, b| a.wrapping_add(b)));
            i * 3
        };
        let want: Vec<usize> = items.iter().map(work).collect();
        std::thread::scope(|s| {
            let jobs: Vec<_> = (0..4)
                .map(|_| s.spawn(|| pool.par_map(&items, work)))
                .collect();
            for j in jobs {
                assert_eq!(j.join().expect("caller thread"), want);
            }
        });
    }
}
