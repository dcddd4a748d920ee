//! Batched-monitoring equivalence: the monitor's bulk trace-consuming
//! path (PR 8 — `MonitorSink::BULK`, shadow state updated from per-phase
//! access batches) must be observationally identical to the scalar
//! per-access hook path pinned via [`ForceScalar`]: same findings in the
//! same order, same memory bits, same event counts.

use enprop_gpusim::emulator::{EmuDgemm, EmuRowFft, ForceScalar, GlobalMem};
use enprop_gpusim::TiledDgemmConfig;
use enprop_sanitize::{BufferTable, Finding, LaunchMonitor};

/// Deterministic fill for test matrices.
fn filled(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

fn bits(m: &GlobalMem) -> Vec<u64> {
    m.to_vec().iter().map(|v| v.to_bits()).collect()
}

fn render(findings: &[Finding]) -> Vec<String> {
    findings.iter().map(|f| format!("{f:?}")).collect()
}

#[test]
fn dgemm_bulk_monitoring_matches_forced_scalar_monitoring() {
    for &(n, bs, g, r) in &[(32usize, 8usize, 1usize, 1usize), (64, 16, 2, 1), (16, 4, 2, 2)] {
        let host_a = filled(n * n, 11);
        let host_b = filled(n * n, 12);
        let host_c = filled(n * n, 13);
        let emu = EmuDgemm::new(TiledDgemmConfig { n, bs, g, r });

        // Bulk path: MonitorSink::BULK routes the batched bodies' phase
        // traces through the monitor.
        let (a1, b1, c1) = (
            GlobalMem::from_slice(&host_a),
            GlobalMem::from_slice(&host_b),
            GlobalMem::from_slice(&host_c),
        );
        let mut table = BufferTable::new();
        table.register(a1.id(), "A", n * n);
        table.register(b1.id(), "B", n * n);
        table.register(c1.id(), "C", n * n);
        let monitor = LaunchMonitor::new(table, 2 * bs * bs);
        let bulk_ev = emu.run_monitored(
            &a1,
            &b1,
            &c1,
            |_, _| true,
            |_, _| {
                monitor.begin_block();
                monitor.sink()
            },
            |bx, by, _s, exit| monitor.end_block(bx, by, &exit),
        );
        let bulk_out = monitor.finish();

        // Scalar path: ForceScalar masks BULK, pinning the per-access
        // interpreter loop through the same monitor logic.
        let (a2, b2, c2) = (
            GlobalMem::from_slice(&host_a),
            GlobalMem::from_slice(&host_b),
            GlobalMem::from_slice(&host_c),
        );
        let mut table = BufferTable::new();
        table.register(a2.id(), "A", n * n);
        table.register(b2.id(), "B", n * n);
        table.register(c2.id(), "C", n * n);
        let monitor = LaunchMonitor::new(table, 2 * bs * bs);
        let scalar_ev = emu.run_monitored(
            &a2,
            &b2,
            &c2,
            |_, _| true,
            |_, _| {
                monitor.begin_block();
                ForceScalar(monitor.sink())
            },
            |bx, by, _s, exit| monitor.end_block(bx, by, &exit),
        );
        let scalar_out = monitor.finish();

        assert_eq!(
            render(&bulk_out.findings),
            render(&scalar_out.findings),
            "n={n} bs={bs} g={g} r={r}: findings diverged"
        );
        assert_eq!(bulk_out.suppressed, scalar_out.suppressed);
        assert_eq!(bits(&c1), bits(&c2), "n={n} bs={bs} g={g} r={r}: memory diverged");
        assert_eq!(bulk_ev, scalar_ev, "n={n} bs={bs} g={g} r={r}: events diverged");
    }
}

#[test]
fn fft_bulk_monitoring_matches_forced_scalar_monitoring() {
    for &(n, rows) in &[(8usize, 3usize), (64, 2), (256, 1)] {
        let host = filled(2 * rows * n, 21);
        let emu = EmuRowFft::new(n, rows);

        let d1 = GlobalMem::from_slice(&host);
        let mut table = BufferTable::new();
        table.register(d1.id(), "signal", 2 * rows * n);
        let monitor = LaunchMonitor::new(table, 2 * n);
        let bulk_ev = emu.run_monitored(
            &d1,
            |_, _| true,
            |_, _| {
                monitor.begin_block();
                monitor.sink()
            },
            |bx, by, _s, exit| monitor.end_block(bx, by, &exit),
        );
        let bulk_out = monitor.finish();

        let d2 = GlobalMem::from_slice(&host);
        let mut table = BufferTable::new();
        table.register(d2.id(), "signal", 2 * rows * n);
        let monitor = LaunchMonitor::new(table, 2 * n);
        let scalar_ev = emu.run_monitored(
            &d2,
            |_, _| true,
            |_, _| {
                monitor.begin_block();
                ForceScalar(monitor.sink())
            },
            |bx, by, _s, exit| monitor.end_block(bx, by, &exit),
        );
        let scalar_out = monitor.finish();

        assert_eq!(
            render(&bulk_out.findings),
            render(&scalar_out.findings),
            "fft n={n} rows={rows}: findings diverged"
        );
        assert_eq!(bulk_out.suppressed, scalar_out.suppressed);
        assert_eq!(bits(&d1), bits(&d2), "fft n={n} rows={rows}: memory diverged");
        assert_eq!(bulk_ev, scalar_ev, "fft n={n} rows={rows}: events diverged");
    }
}

#[test]
fn self_test_corpus_still_catches_all_fixtures_with_bulk_sink() {
    // The four seeded-defect fixtures must stay caught now that the
    // monitor consumes batched traces (the fixture kernels carry no batch
    // bodies, so they exercise the scalar fallback inside a bulk-capable
    // sink — the mixed-path case the drivers see in production).
    let corpus = enprop_sanitize::fixtures::self_test();
    assert_eq!(corpus.len(), 4, "fixture corpus changed size");
    for (checker, report) in corpus {
        assert!(
            report.findings.iter().any(|f| f.checker == checker),
            "fixture for {checker:?} no longer caught: {:?}",
            report.findings
        );
    }
}
