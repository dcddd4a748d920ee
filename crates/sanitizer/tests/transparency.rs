//! Observational-transparency properties: a monitored run that produces
//! zero findings is bitwise-identical to the uninstrumented run — same
//! memory contents, same event counts. The sanitizer never perturbs a
//! clean kernel.

use enprop_gpusim::emulator::{EmuDgemm, EmuRowFft, GlobalMem};
use enprop_gpusim::TiledDgemmConfig;
use enprop_sanitize::{BufferTable, LaunchMonitor};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sanitized_dgemm_is_bitwise_transparent(
        tiles in 1usize..4,
        bs in 1usize..6,
        g in 1usize..3,
        r in 1usize..3,
        seed in 0u64..1000,
    ) {
        let n = tiles * bs;
        let host_a = filled(n * n, seed);
        let host_b = filled(n * n, seed + 1);
        let host_c = filled(n * n, seed + 2);
        let cfg = TiledDgemmConfig { n, bs, g, r };
        let emu = EmuDgemm::new(cfg);

        let (a1, b1, c1) = (
            GlobalMem::from_slice(&host_a),
            GlobalMem::from_slice(&host_b),
            GlobalMem::from_slice(&host_c),
        );
        let plain_ev = emu.run(&a1, &b1, &c1);

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
        let monitored_ev = emu.run_monitored(
            &a2, &b2, &c2,
            |_, _| true,
            |_, _| { monitor.begin_block(); monitor.sink() },
            |bx, by, _sink, exit| monitor.end_block(bx, by, &exit),
        );
        let out = monitor.finish();

        // The shipped kernel is hazard-free...
        prop_assert!(out.findings.is_empty(), "spurious finding: {:?}", out.findings.first());
        prop_assert_eq!(out.suppressed, 0);
        // ...and monitoring it changed nothing observable.
        prop_assert_eq!(bits(&c1), bits(&c2));
        prop_assert_eq!(plain_ev, monitored_ev);
    }

    #[test]
    fn sanitized_fft_is_bitwise_transparent(
        log_n in 1usize..7,
        rows in 1usize..4,
        seed in 0u64..1000,
    ) {
        let n = 1usize << log_n;
        let host = filled(2 * rows * n, seed);
        let emu = EmuRowFft::new(n, rows);

        let d1 = GlobalMem::from_slice(&host);
        let plain_ev = emu.run(&d1);

        let d2 = GlobalMem::from_slice(&host);
        let mut table = BufferTable::new();
        table.register(d2.id(), "signal", 2 * rows * n);
        let monitor = LaunchMonitor::new(table, 2 * n);
        let monitored_ev = emu.run_monitored(
            &d2,
            |_, _| true,
            |_, _| { monitor.begin_block(); monitor.sink() },
            |bx, by, _sink, exit| monitor.end_block(bx, by, &exit),
        );
        let out = monitor.finish();

        prop_assert!(out.findings.is_empty(), "spurious finding: {:?}", out.findings.first());
        prop_assert_eq!(out.suppressed, 0);
        prop_assert_eq!(bits(&d1), bits(&d2));
        prop_assert_eq!(plain_ev, monitored_ev);
    }
}
