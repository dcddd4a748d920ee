//! The one work scheduler of the workspace: chunked lock-free claiming
//! over scoped threads.
//!
//! Every parallel loop in enprop — measured and model-only sweeps
//! (`enprop_apps::parallel::SweepExecutor`), emulator block waves
//! (`enprop_gpusim::emulator::run_grid`), and the threaded host kernels in
//! this crate — runs on [`claim_chunks`]. A shared atomic cursor hands each
//! worker a run of consecutive work indices per `fetch_add`, amortizing
//! cursor traffic by the chunk length while dynamic claiming still keeps
//! stragglers from idling the other workers. Callers key results by
//! index, so the schedule never leaks into their output.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Host threads available to the process (1 if indeterminate) — the
/// default worker count of every scheduler built on [`claim_chunks`].
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A raw pointer that may cross thread boundaries.
///
/// Soundness is the caller's obligation: every use in this crate derives
/// from the pointer only slices over index ranges handed out by the
/// [`claim_chunks`] cursor — which are pairwise disjoint — and the scope
/// join inside `claim_chunks` provides the happens-before edge that
/// publishes the writes.
/// The pointer field stays private behind [`SendPtr::get`] so closures
/// capture the wrapper (whose `Sync` impl applies), not the bare pointer —
/// edition-2021 closures capture individual fields otherwise.
pub(crate) struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    pub(crate) fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: `SendPtr` is a plain address; the disjointness contract above
// makes the concurrent accesses through it race-free.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as for `Send` — workers only ever touch disjoint ranges.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

/// Runs `work(state, start, end)` over a partition of `0..items` claimed
/// in chunks from a shared atomic cursor by up to `workers` scoped threads.
///
/// Every index in `0..items` lands in exactly one `(start, end)` call, and
/// no two calls overlap — that disjointness is what lets callers write
/// per-index results without locks, or hand each claim a mutable
/// sub-slice of one shared buffer. Each worker builds its `state` with
/// `make_state` once, before its first claim. The worker count is clamped
/// to `items`; with one worker no thread is spawned and a single
/// `work(state, 0, items)` runs on the caller, so the serial path visits
/// indices in order.
///
/// Chunk length: ~4 claims per worker balances cursor amortization against
/// tail imbalance; capped so enormous ranges still rebalance.
///
/// # Panics
/// A panic in `make_state` or `work` stops all further claiming; once
/// every worker has joined, the first panic is resumed on the caller with
/// its original payload.
pub fn claim_chunks<S>(
    items: usize,
    workers: usize,
    make_state: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize, usize) + Sync,
) {
    if items == 0 {
        return;
    }
    let workers = workers.min(items);
    if workers <= 1 {
        work(&mut make_state(), 0, items);
        return;
    }
    let chunk = items.div_ceil(workers * 4).clamp(1, 64);
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let run_worker = || {
        let mut state = make_state();
        while !abort.load(Ordering::Relaxed) {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= items {
                break;
            }
            work(&mut state, start, (start + chunk).min(items));
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(&run_worker)) {
                    abort.store(true, Ordering::Relaxed);
                    first_panic.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
                }
            });
        }
    });
    if let Some(payload) = first_panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn claims_cover_every_index_exactly_once() {
        // Lengths around chunk-size multiples, odd worker counts, and
        // workers > items all partition the range with no gap or overlap.
        for &items in &[0usize, 1, 5, 63, 64, 65, 257, 1000] {
            for &workers in &[1usize, 2, 3, 8, 2000] {
                let hits: Vec<AtomicU32> = (0..items).map(|_| AtomicU32::new(0)).collect();
                claim_chunks(items, workers, || (), |_, start, end| {
                    assert!(start < end && end <= items);
                    for h in &hits[start..end] {
                        h.fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "items = {items}, workers = {workers}"
                );
            }
        }
    }

    #[test]
    fn state_is_built_once_per_worker_and_workers_clamp_to_items() {
        for &(items, workers) in &[(5usize, 1usize), (5, 3), (3, 8), (200, 4)] {
            let built = AtomicU32::new(0);
            let sum = AtomicUsize::new(0);
            claim_chunks(
                items,
                workers,
                || built.fetch_add(1, Ordering::Relaxed),
                |_, start, end| {
                    sum.fetch_add((start..end).sum::<usize>(), Ordering::Relaxed);
                },
            );
            let built = built.load(Ordering::Relaxed) as usize;
            assert!((1..=workers.min(items)).contains(&built), "{items}/{workers}: {built}");
            assert_eq!(sum.load(Ordering::Relaxed), items * (items - 1) / 2);
        }
    }

    #[test]
    fn worker_panic_resumes_with_the_original_payload() {
        for workers in [1usize, 2, 8] {
            let payload = std::panic::catch_unwind(|| {
                claim_chunks(64, workers, || (), |_, start, end| {
                    if (start..end).contains(&37) {
                        panic!("item 37 failed");
                    }
                });
            })
            .expect_err("the panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 37 failed"), "{workers}");
        }
    }
}
