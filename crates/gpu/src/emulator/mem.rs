//! Emulated device memory and event counters.
//!
//! Global memory is a plain `f64` buffer behind an [`UnsafeCell`],
//! accessed without per-cell atomicity. That is sound for the same reason
//! CUDA kernels are: the programming model this emulator enforces already
//! forbids data races. Within a block, threads only exchange data across
//! `__syncthreads` boundaries, and the phase interpreter runs the threads
//! of a block sequentially on one host thread (shared memory is a plain
//! block-local `Vec<f64>`). Across blocks, a kernel may only write cells
//! no other block touches during the launch — the CUDA contract the
//! kernels under study (tiled DGEMM, row FFT) obey by construction.
//! Concurrent accesses are therefore always to disjoint cells, which Rust
//! permits for raw-pointer access: no overlapping unsynchronized access,
//! no data race.
//!
//! Event counts accumulate in per-block plain counters ([`BlockCounters`])
//! flushed once per block into the launch-wide atomic [`EventCounters`].

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A launch-stable identity of one [`GlobalMem`] allocation — how an
/// access observer ([`crate::emulator::AccessSink`]) tells apart the
/// distinct global buffers (A, B, C, a signal…) a kernel touches. Derived
/// from the allocation's base address, so it is unique among the live
/// allocations of a launch but *not* stable across processes; report
/// writers should map it to a registered buffer name instead of printing
/// the raw value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(usize);

/// Device global memory: a flat array of `f64` cells shared by all blocks.
///
/// # Concurrency contract
///
/// Cells may be read by any number of threads concurrently; a cell that
/// any thread writes during a launch must not be accessed by a thread of
/// another block, and within a block conflicting accesses must be
/// separated by a barrier (phase boundary). This is exactly the CUDA
/// global-memory discipline; the emulator's kernels uphold it and the
/// bounds of every access are checked.
#[derive(Debug)]
pub struct GlobalMem {
    cells: Box<[UnsafeCell<f64>]>,
}

// SAFETY: see the concurrency contract above — all concurrent access is
// to disjoint cells (enforced by kernel structure, not the type system),
// and disjoint plain accesses are race-free.
unsafe impl Sync for GlobalMem {}

impl GlobalMem {
    /// Allocates zeroed global memory of `len` doubles.
    pub fn zeroed(len: usize) -> Self {
        Self { cells: (0..len).map(|_| UnsafeCell::new(0.0)).collect() }
    }

    /// Uploads host data.
    pub fn from_slice(data: &[f64]) -> Self {
        Self { cells: data.iter().map(|&v| UnsafeCell::new(v)).collect() }
    }

    /// This allocation's identity for access observers (its base address).
    pub fn id(&self) -> BufId {
        BufId(self.cells.as_ptr() as usize)
    }

    /// Number of doubles.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the allocation is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Panics with an attributable diagnostic: operation, index, length.
    #[cold]
    #[inline(never)]
    fn oob(&self, op: &str, idx: usize) -> ! {
        panic!("global memory {op} out of bounds: index {idx} >= len {}", self.cells.len())
    }

    /// Raw load without event accounting (host-side access).
    #[inline]
    pub fn load(&self, idx: usize) -> f64 {
        if idx >= self.cells.len() {
            self.oob("load", idx);
        }
        // SAFETY: bounds-checked above; concurrent accesses are disjoint
        // per the type's contract.
        unsafe { *self.cells[idx].get() }
    }

    /// Raw store without event accounting (host-side access).
    #[inline]
    pub fn store(&self, idx: usize, v: f64) {
        if idx >= self.cells.len() {
            self.oob("store", idx);
        }
        // SAFETY: as for `load`.
        unsafe { *self.cells[idx].get() = v }
    }

    /// Downloads device data back to the host.
    pub fn to_vec(&self) -> Vec<f64> {
        // SAFETY: callers only snapshot between launches (host side).
        self.cells.iter().map(|c| unsafe { *c.get() }).collect()
    }

    /// Bounds-checked base pointer of `len` contiguous doubles starting at
    /// `idx`, for vectorized batch phase bodies. `UnsafeCell<f64>` is
    /// layout-compatible with `f64`, so consecutive cells form a
    /// contiguous `f64` run. Panics (attributably) if the range overruns
    /// the allocation. Reads and writes through the pointer are subject
    /// to the same disjoint-cell concurrency contract as
    /// [`GlobalMem::load`] / [`GlobalMem::store`].
    #[inline]
    pub fn range_ptr(&self, idx: usize, len: usize) -> *mut f64 {
        let end = idx.saturating_add(len);
        if end > self.cells.len() {
            self.oob("range access", end.max(1) - 1);
        }
        if len == 0 {
            return std::ptr::NonNull::<f64>::dangling().as_ptr();
        }
        self.cells[idx].get()
    }
}

/// Atomic event counters mirroring the CUPTI counters of
/// [`crate::cupti::CuptiCounter`].
///
/// The phase interpreter never touches these from a hot path: each block
/// accumulates into a plain [`BlockCounters`] and flushes the totals here
/// once, at block retirement.
#[derive(Debug, Default)]
pub struct EventCounters {
    /// Double-precision flops.
    pub flops: AtomicU64,
    /// Shared-memory loads.
    pub shared_loads: AtomicU64,
    /// Shared-memory stores.
    pub shared_stores: AtomicU64,
    /// Global-memory loads.
    pub global_loads: AtomicU64,
    /// Global-memory stores.
    pub global_stores: AtomicU64,
    /// Barriers executed (counted once per block).
    pub barriers: AtomicU64,
}

/// Plain per-block event counters: incremented without synchronization
/// while a block runs, flushed into the launch-wide [`EventCounters`]
/// exactly once when the block retires.
#[derive(Debug, Default, Clone, Copy)]
pub struct BlockCounters {
    /// Double-precision flops.
    pub flops: u64,
    /// Shared-memory loads.
    pub shared_loads: u64,
    /// Shared-memory stores.
    pub shared_stores: u64,
    /// Global-memory loads.
    pub global_loads: u64,
    /// Global-memory stores.
    pub global_stores: u64,
    /// Barriers executed by this block.
    pub barriers: u64,
}

impl BlockCounters {
    /// Adds this block's totals into the launch counters (one atomic RMW
    /// per counter per block, instead of one per event).
    pub fn flush_into(&self, events: &EventCounters) {
        events.flops.fetch_add(self.flops, Ordering::Relaxed);
        events.shared_loads.fetch_add(self.shared_loads, Ordering::Relaxed);
        events.shared_stores.fetch_add(self.shared_stores, Ordering::Relaxed);
        events.global_loads.fetch_add(self.global_loads, Ordering::Relaxed);
        events.global_stores.fetch_add(self.global_stores, Ordering::Relaxed);
        events.barriers.fetch_add(self.barriers, Ordering::Relaxed);
    }
}

/// A plain snapshot of [`EventCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EmuEvents {
    /// Double-precision flops.
    pub flops: u64,
    /// Shared-memory loads.
    pub shared_loads: u64,
    /// Shared-memory stores.
    pub shared_stores: u64,
    /// Global-memory loads.
    pub global_loads: u64,
    /// Global-memory stores.
    pub global_stores: u64,
    /// Barriers executed (per block).
    pub barriers: u64,
}

impl EventCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots the current counts.
    pub fn snapshot(&self) -> EmuEvents {
        EmuEvents {
            flops: self.flops.load(Ordering::Relaxed),
            shared_loads: self.shared_loads.load(Ordering::Relaxed),
            shared_stores: self.shared_stores.load(Ordering::Relaxed),
            global_loads: self.global_loads.load(Ordering::Relaxed),
            global_stores: self.global_stores.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
        }
    }
}

impl EmuEvents {
    /// Element-wise sum — the compound-application count of the additivity
    /// theory.
    pub fn plus(self, o: EmuEvents) -> EmuEvents {
        EmuEvents {
            flops: self.flops + o.flops,
            shared_loads: self.shared_loads + o.shared_loads,
            shared_stores: self.shared_stores + o.shared_stores,
            global_loads: self.global_loads + o.global_loads,
            global_stores: self.global_stores + o.global_stores,
            barriers: self.barriers + o.barriers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_roundtrip() {
        let g = GlobalMem::from_slice(&[1.0, -2.5, 3.25]);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.load(1), -2.5);
        g.store(1, 7.0);
        assert_eq!(g.to_vec(), vec![1.0, 7.0, 3.25]);
    }

    #[test]
    fn zeroed_memories() {
        let g = GlobalMem::zeroed(4);
        assert_eq!(g.to_vec(), vec![0.0; 4]);
        g.store(0, 1.5);
        assert_eq!(g.load(0), 1.5);
        assert!(GlobalMem::zeroed(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "global memory load out of bounds: index 4 >= len 4")]
    fn out_of_bounds_load_fails_loudly() {
        GlobalMem::zeroed(4).load(4);
    }

    #[test]
    #[should_panic(expected = "global memory store out of bounds: index 7 >= len 2")]
    fn out_of_bounds_store_fails_loudly() {
        GlobalMem::zeroed(2).store(7, 1.0);
    }

    #[test]
    fn buffer_ids_distinguish_allocations() {
        let a = GlobalMem::zeroed(4);
        let b = GlobalMem::zeroed(4);
        assert_eq!(a.id(), a.id());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn counters_snapshot_and_sum() {
        let c = EventCounters::new();
        c.flops.fetch_add(10, Ordering::Relaxed);
        c.barriers.fetch_add(2, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.flops, 10);
        assert_eq!(s.barriers, 2);
        let sum = s.plus(s);
        assert_eq!(sum.flops, 20);
        assert_eq!(sum.global_loads, 0);
    }

    #[test]
    fn block_counters_flush_once() {
        let events = EventCounters::new();
        let block = BlockCounters {
            flops: 7,
            shared_loads: 6,
            shared_stores: 5,
            global_loads: 4,
            global_stores: 3,
            barriers: 2,
        };
        block.flush_into(&events);
        block.flush_into(&events);
        let s = events.snapshot();
        assert_eq!(
            (s.flops, s.shared_loads, s.shared_stores, s.global_loads, s.global_stores, s.barriers),
            (14, 12, 10, 8, 6, 4)
        );
    }

    #[test]
    fn nan_and_negative_bits_survive() {
        let g = GlobalMem::zeroed(1);
        g.store(0, -0.0);
        assert_eq!(g.load(0).to_bits(), (-0.0f64).to_bits());
        g.store(0, f64::NAN);
        assert!(g.load(0).is_nan());
    }
}
