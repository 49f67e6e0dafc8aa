//! Deterministic data parallelism on scoped threads.
//!
//! Independent work items (LOSO folds, sweep points, grid cells, fleet
//! flush shards) fan out inside one [`std::thread::scope`] per call: the
//! caller is one executor, each further executor a scoped thread, and
//! items are claimed one at a time so uneven costs balance. Callers
//! dispatch at a coarse grain, where one spawn/join is noise next to the
//! work. Every result returns with its item's index, so results arrive in
//! input order whatever the scheduling, and the parallel paths are
//! bit-identical to their sequential twins. Nested calls open their own
//! scope; no thread outlives its call.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use for `n` items: the machine's available
/// parallelism, capped by the item count (minimum 1).
pub fn worker_count(n: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(n).max(1)
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Runs on [`worker_count`] executors (the caller plus scoped threads),
/// so single-core machines and single items stay on the caller.
///
/// # Panics
///
/// Propagates panics from `f` once every executor has finished.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_n(items, worker_count(items.len()), f)
}

/// [`par_map`] on exactly `executors` executors (0 and 1 both run on the
/// caller), whatever the machine's width.
pub(crate) fn par_map_n<T: Sync, R: Send>(
    items: &[T],
    executors: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    // Relaxed: the counter only hands out indices; results return by join.
    let next = AtomicUsize::new(0);
    let claim = || {
        let i = next.fetch_add(1, Ordering::Relaxed);
        items.get(i).map(|item| (i, item))
    };
    let executors = executors.clamp(1, items.len().max(1));
    run(&mut vec![(); executors], claim, |(), item| f(item))
}

/// Maps `f` over **mutable** items in parallel with one executor per
/// entry of `states` (at most one per item), returning results in input
/// order. Each executor passes its own state to every item it claims, so
/// per-executor scratch is reused across items and calls without locks.
///
/// # Panics
///
/// Panics when `states` is empty; propagates panics from `f` like [`par_map`].
pub(crate) fn par_map_with<S: Send, T: Send, R: Send>(
    states: &mut [S],
    items: &mut [T],
    f: impl Fn(&mut S, &mut T) -> R + Sync,
) -> Vec<R> {
    let used = states.len().min(items.len().max(1));
    let claims = Mutex::new(items.iter_mut().enumerate());
    // `next` cannot panic, so no executor poisons the lock.
    let claim = || claims.lock().expect("claim lock poisoned").next();
    run(&mut states[..used], claim, f)
}

/// Runs one executor per state until `claim` runs dry: the caller drives
/// `states[0]`, a scoped thread each further state. Executors collect
/// `(index, result)` pairs, put in input order after the join.
fn run<S: Send, X, R: Send>(
    states: &mut [S],
    claim: impl Fn() -> Option<(usize, X)> + Sync,
    f: impl Fn(&mut S, X) -> R + Sync,
) -> Vec<R> {
    let work = |state: &mut S| {
        let mut local = Vec::new();
        while let Some((i, item)) = claim() {
            local.push((i, f(state, item)));
        }
        local
    };
    let (first, rest) = states.split_first_mut().expect("at least one executor");
    let mut pairs = std::thread::scope(|s| {
        let handles: Vec<_> = rest.iter_mut().map(|st| s.spawn(|| work(st))).collect();
        let mut pairs = work(first);
        for h in handles {
            pairs.extend(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        pairs
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::thread::{current, ThreadId};

    #[test]
    fn results_keep_input_order() {
        let out = par_map(&(0..257).collect::<Vec<usize>>(), |&i| i * 3);
        assert_eq!(out, (0..257).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map(&[] as &[usize], |&i| i), Vec::<usize>::new());
        assert_eq!(par_map(&[7usize], |&i| i + 1), vec![8]);
        assert!(par_map_n(&[] as &[usize], 4, |&i| i).is_empty());
        assert!(par_map_with(&mut [(), ()], &mut [] as &mut [usize], |(), &mut i| i).is_empty());
    }

    /// f64 work: parallel scheduling must not change a single bit.
    fn assert_bitwise(executors: Option<usize>) {
        let items: Vec<f64> = (0..200).map(|i| i as f64 * 0.21 - 13.0).collect();
        let work = |&x: &f64| (x.cos() * 1e3).abs().sqrt() + x * x;
        let seq: Vec<f64> = items.iter().map(work).collect();
        let par = executors.map_or_else(|| par_map(&items, work), |e| par_map_n(&items, e, work));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&seq), bits(&par));
    }

    #[test]
    fn matches_sequential_map_bitwise() {
        assert_bitwise(None);
    }

    #[test]
    fn worker_count_is_bounded() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1000) >= 1);
    }

    #[test]
    fn explicit_pool_keeps_order_across_many_jobs() {
        // Three real executors regardless of the host's core count.
        let items: Vec<usize> = (0..97).collect();
        for round in 0..50usize {
            let want: Vec<usize> = items.iter().map(|i| i * 7 + round).collect();
            assert_eq!(par_map_n(&items, 3, |&i| i * 7 + round), want);
        }
    }

    #[test]
    fn explicit_pool_is_bitwise_deterministic() {
        for _ in 0..10 {
            assert_bitwise(Some(4));
        }
    }

    #[test]
    fn zero_worker_pool_runs_sequentially() {
        // One executor (or a requested zero) is the caller alone.
        let caller = current().id();
        for executors in [0, 1] {
            let out = par_map_n(&[4usize, 9], executors, |&i| (i, current().id()));
            assert_eq!(out, vec![(4, caller), (9, caller)]);
        }
    }

    #[test]
    fn nested_calls_return_correct_results() {
        // A nested call opens its own scope inside an executor.
        let out = par_map_n(&[0usize, 1, 2, 3, 4, 5, 6, 7], 2, |&i| {
            par_map(&[0usize, 1, 2, 3, 4], |&j| i * 10 + j)
                .iter()
                .sum::<usize>()
        });
        let want: Vec<usize> = (0..8).map(|i| 50 * i + 10).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn per_executor_state_nested_calls_return_correct_results() {
        // A nested per-executor-state call mutates its own items in place.
        let out = par_map_n(&[0usize, 1, 2, 3, 4, 5], 2, |&i| {
            let mut inner = vec![0usize, 1, 2, 3];
            let sums = par_map_with(&mut [(), ()], &mut inner, |(), v| {
                *v += i * 10;
                *v
            });
            assert_eq!(inner, sums);
            sums.iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..6).map(|i| 40 * i + 6).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn per_executor_state_mutates_in_place_and_keeps_order() {
        // Every item meets exactly one state; no state is shared.
        for round in 0..20usize {
            let mut states: Vec<(Option<ThreadId>, Vec<usize>)> = vec![(None, Vec::new()); 3];
            let mut items: Vec<usize> = (0..97).collect();
            let out = par_map_with(&mut states, &mut items, |(owner, seen), v| {
                assert_eq!(*owner.get_or_insert(current().id()), current().id());
                seen.push(*v);
                *v += round;
                *v * 2
            });
            assert_eq!(items, (round..97 + round).collect::<Vec<_>>());
            assert_eq!(out, items.iter().map(|v| v * 2).collect::<Vec<_>>());
            let mut seen: Vec<usize> = states.iter().flat_map(|(_, s)| s.clone()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..97).collect::<Vec<_>>());
            let owners: Vec<ThreadId> = states.iter().filter_map(|(t, _)| *t).collect();
            assert_eq!(owners.len(), owners.iter().collect::<HashSet<_>>().len());
            assert!(states[0].0.is_none_or(|t| t == current().id()));
        }
    }

    #[test]
    fn pool_propagates_panics_and_survives_them() {
        // The panic reaches the caller, and the next call still works.
        let items: Vec<usize> = (0..64).collect();
        let caught = catch_unwind(|| par_map_n(&items, 2, |&i| assert!(i != 13, "boom at {i}")));
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "boom at 13");
        assert_eq!(par_map_n(&items, 2, |&i| i + 1)[63], 64);
    }

    #[test]
    fn per_executor_state_propagates_panics_and_survives_them() {
        // Same contract for the mutable, per-executor-state entry point.
        let mut items: Vec<usize> = (0..64).collect();
        let mut states = [(), ()];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(&mut states, &mut items, |(), v| {
                assert!(*v != 13, "boom at {v}")
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "boom at 13");
        let out = par_map_with(&mut states, &mut items, |(), v| *v + 1);
        assert_eq!(out[63], 64);
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        // Four callers released together, each with two executors.
        let items: Vec<usize> = (0..500).collect();
        let want: Vec<usize> = items.iter().map(|i| i * 3).collect();
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            let call = || {
                start.wait();
                par_map_n(&items, 2, |&i| i * 3)
            };
            for j in (0..4).map(|_| s.spawn(call)).collect::<Vec<_>>() {
                assert_eq!(j.join().expect("caller thread"), want);
            }
        });
    }
}
