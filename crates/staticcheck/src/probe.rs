//! The recording probe: a vetoing [`AccessSink`] that captures every
//! access of a (deliberately tiny) instrumented launch.
//!
//! Probing is the analyzer's only contact with execution. A probe run
//! records, per block, the exact `(phase, space, buffer, kind, thread,
//! index)` stream the scalar interpreter produces; [`crate::affine`]
//! then fits closed forms to those streams and *verifies* the fit on
//! every recorded access. Out-of-bounds accesses are vetoed (recorded,
//! then suppressed) exactly like the dynamic sanitizer's monitor, so
//! buggy kernels survive probing long enough to be summarized.

use enprop_gpusim::emulator::{
    run_grid_monitored, AccessPoint, AccessSink, BlockExit, BlockKernel, BufId, Dim2, EmuDgemm,
    EmuEvents, EventCounters, GlobalMem,
};
use enprop_gpusim::TiledDgemmConfig;
use enprop_sanitize::report::{AccessKind, MemSpace};

/// One recorded access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeAccess {
    /// Barrier phase the access executed in.
    pub phase: usize,
    /// Shared or global memory.
    pub space: MemSpace,
    /// Global allocation identity (`None` for shared memory).
    pub buf: Option<BufId>,
    /// Load or store.
    pub kind: AccessKind,
    /// Thread x coordinate.
    pub tx: usize,
    /// Thread y coordinate.
    pub ty: usize,
    /// The accessed index — possibly out of bounds (the probe vetoes
    /// such accesses but still records them).
    pub idx: usize,
}

/// Everything recorded about one block of a probed launch.
#[derive(Debug, Clone)]
pub struct BlockProbe {
    /// Block x coordinate.
    pub bx: usize,
    /// Block y coordinate.
    pub by: usize,
    /// Every access the block performed, in interpreter order.
    pub accesses: Vec<ProbeAccess>,
    /// How the block exited (retired or diverged).
    pub exit: BlockExit,
}

/// The recording sink. `INERT`/`BULK` both stay `false`, so the
/// interpreter always takes the per-access scalar loop and the sink sees
/// (and may veto) every access individually.
#[derive(Debug, Default)]
pub struct ProbeSink {
    accesses: Vec<ProbeAccess>,
}

impl ProbeSink {
    /// Consumes the sink, yielding the recorded accesses in order.
    pub fn into_accesses(self) -> Vec<ProbeAccess> {
        self.accesses
    }

    fn record(
        &mut self,
        at: AccessPoint,
        space: MemSpace,
        buf: Option<BufId>,
        kind: AccessKind,
        idx: usize,
        len: usize,
    ) -> bool {
        self.accesses
            .push(ProbeAccess { phase: at.phase, space, buf, kind, tx: at.tx, ty: at.ty, idx });
        // Veto (suppress) out-of-bounds accesses so broken kernels keep
        // running: the record above is what the OOB check consumes.
        idx < len
    }
}

impl AccessSink for ProbeSink {
    fn shared_load(&mut self, at: AccessPoint, idx: usize, len: usize) -> bool {
        self.record(at, MemSpace::Shared, None, AccessKind::Read, idx, len)
    }

    fn shared_store(&mut self, at: AccessPoint, idx: usize, len: usize) -> bool {
        self.record(at, MemSpace::Shared, None, AccessKind::Write, idx, len)
    }

    fn global_load(&mut self, at: AccessPoint, buf: BufId, idx: usize, len: usize) -> bool {
        self.record(at, MemSpace::Global, Some(buf), AccessKind::Read, idx, len)
    }

    fn global_store(&mut self, at: AccessPoint, buf: BufId, idx: usize, len: usize) -> bool {
        self.record(at, MemSpace::Global, Some(buf), AccessKind::Write, idx, len)
    }
}

/// Runs `kernel` over `grid` fully instrumented, returning every block's
/// recorded access stream and exit, plus the launch's flushed event
/// counters.
pub fn probe_grid<K: BlockKernel>(grid: Dim2, kernel: &K) -> (Vec<BlockProbe>, EmuEvents) {
    let events = EventCounters::new();
    let mut blocks = Vec::with_capacity(grid.x * grid.y);
    run_grid_monitored(
        grid,
        kernel,
        &events,
        |_, _| true,
        |_, _| ProbeSink::default(),
        |bx, by, sink: ProbeSink, exit| {
            blocks.push(BlockProbe { bx, by, accesses: sink.accesses, exit });
        },
    );
    (blocks, events.snapshot())
}

/// Probes one executable DGEMM config (requires `BS | N`): every block's
/// access stream, the flushed event counters, and the `(id, name, len)`
/// buffer registry in A/B/C order.
pub fn probe_grid_dgemm(
    cfg: TiledDgemmConfig,
) -> (Vec<BlockProbe>, EmuEvents, Vec<(BufId, String, usize)>) {
    let zeros = vec![0.0; cfg.n * cfg.n];
    let a = GlobalMem::from_slice(&zeros);
    let b = GlobalMem::from_slice(&zeros);
    let c = GlobalMem::from_slice(&zeros);
    let mut blocks = Vec::new();
    let events = EmuDgemm::new(cfg).run_monitored(
        &a,
        &b,
        &c,
        |_, _| true,
        |_, _| ProbeSink::default(),
        |bx, by, sink: ProbeSink, exit| {
            blocks.push(BlockProbe { bx, by, accesses: sink.accesses, exit });
        },
    );
    let registry = [(&a, "A"), (&b, "B"), (&c, "C")]
        .iter()
        .map(|(buf, name)| (buf.id(), name.to_string(), cfg.n * cfg.n))
        .collect();
    (blocks, events, registry)
}
