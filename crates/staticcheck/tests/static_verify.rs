//! End-to-end tests of the static launch-space verifier: the DGEMM
//! family model learns from tiny probes, proves lattice configs clean,
//! reproduces flushed event counters bitwise, flags every seeded buggy
//! fixture, and falls back (typed, never silent) on the non-affine FFT.

use enprop_gpusim::emulator::EmuRowFft;
use enprop_gpusim::{CuptiCounter, CuptiReport, TiledDgemmConfig};
use enprop_staticcheck::dgemm::{validate_counts, validation_set, verify_fig_lattices};
use enprop_staticcheck::fixtures::analyze_fixtures;
use enprop_staticcheck::probe::ProbeSink;
use enprop_staticcheck::report::FallbackKind;
use enprop_staticcheck::{affine, DgemmStaticModel};
use enprop_sanitize::report::Checker;

fn model() -> DgemmStaticModel {
    DgemmStaticModel::learn().expect("the shipped DGEMM family must be affine-summarizable")
}

#[test]
fn dgemm_model_learns_and_proves_lattice_samples_clean() {
    let m = model();
    // A spread of real lattice configs, including the largest.
    for (n, bs, g, r) in
        [(8704usize, 32usize, 1usize, 8usize), (8704, 17, 2, 4), (10240, 32, 8, 1), (14336, 31, 4, 2), (14336, 1, 1, 8)]
    {
        let cfg = TiledDgemmConfig { n, bs, g, r };
        let report = m.verify_config(&cfg);
        assert!(
            report.proven_clean(),
            "{cfg} should be proven clean, got findings {:?} fallbacks {:?}",
            report.findings,
            report.fallbacks
        );
    }
}

#[test]
fn full_fig_lattices_prove_clean() {
    let m = model();
    let sweeps = verify_fig_lattices(&m);
    assert_eq!(sweeps.len(), 4);
    for s in &sweeps {
        assert!(s.configs > 0, "{}: empty lattice", s.label);
        assert_eq!(s.findings, 0, "{}: unexpected findings {:?}", s.label, s.dirty);
        assert_eq!(s.fallbacks, 0, "{}: unexpected fallbacks {:?}", s.label, s.dirty);
    }
}

#[test]
fn closed_form_counts_match_flushed_events_bitwise() {
    let m = model();
    for cfg in validation_set() {
        let (stat, dynamic) = validate_counts(&m, &cfg);
        assert_eq!(stat, dynamic, "{cfg}: static counts diverge from flushed events");
    }
}

#[test]
fn closed_form_counts_match_analytic_cupti_model_at_lattice_scale() {
    // At real lattice sizes nothing can execute; the independent
    // analytic CUPTI model is the cross-check there.
    let m = model();
    for (_, arch, n) in enprop_staticcheck::dgemm::fig_lattice_specs() {
        for cfg in TiledDgemmConfig::enumerate(&arch, n, enprop_staticcheck::dgemm::TOTAL_PRODUCTS)
        {
            let stat = m.counts(&cfg);
            let cupti = CuptiReport::of(&cfg);
            let expect =
                |c: CuptiCounter| u64::try_from(cupti.get(c).true_count).expect("fits u64");
            assert_eq!(stat.flops, expect(CuptiCounter::FlopCountDp), "{cfg} flops");
            assert_eq!(stat.shared_loads, expect(CuptiCounter::SharedLoad), "{cfg} shld");
            assert_eq!(stat.shared_stores, expect(CuptiCounter::SharedStore), "{cfg} shst");
            assert_eq!(stat.global_loads, expect(CuptiCounter::GldTransactions), "{cfg} gld");
            assert_eq!(stat.global_stores, expect(CuptiCounter::GstTransactions), "{cfg} gst");
            assert_eq!(stat.barriers, expect(CuptiCounter::BarrierSync), "{cfg} barriers");
        }
    }
}

#[test]
fn all_seeded_fixtures_flagged_statically_with_dynamic_parity() {
    let outcomes = analyze_fixtures();
    assert_eq!(outcomes.len(), 4);
    for o in &outcomes {
        assert!(
            o.caught,
            "{}: expected a static {} verdict, got {:?} (fallbacks {:?})",
            o.label,
            o.expected.as_str(),
            o.report.findings,
            o.report.fallbacks
        );
        assert!(
            o.parity,
            "{}: no static finding matches the dynamic sanitizer's diagnostics: {:?}",
            o.label, o.report.findings
        );
    }
    let checkers: Vec<Checker> = outcomes.iter().map(|o| o.expected).collect();
    assert_eq!(
        checkers,
        [Checker::Racecheck, Checker::Memcheck, Checker::Memcheck, Checker::Synccheck]
    );
}

#[test]
fn fft_kernel_falls_back_as_non_affine() {
    // The FFT's bit-reversal and butterfly indexing is genuinely not
    // affine in the thread coordinates: the analyzer must refuse to
    // summarize it (typed fallback → dynamic sanitize), not mis-prove it.
    let (n, rows) = (16usize, 2usize);
    let data = enprop_gpusim::emulator::GlobalMem::from_slice(&vec![0.0; 2 * rows * n]);
    let fft = EmuRowFft::new(n, rows);
    let mut blocks = Vec::new();
    fft.run_monitored(
        &data,
        |_, _| true,
        |_, _| ProbeSink::default(),
        |bx, by, sink: ProbeSink, exit| {
            blocks.push(enprop_staticcheck::probe::BlockProbe {
                bx,
                by,
                accesses: sink.into_accesses(),
                exit,
            });
        },
    );
    let block = blocks[0].accesses.iter().map(|a| a.tx).max().unwrap() + 1;
    let registry = vec![(data.id(), "signal".to_string(), 2 * rows * n)];
    let res = affine::summarize_launch(&blocks, (block, 1), (1, rows), &registry);
    let fb = res.expect_err("FFT access patterns must not be certified affine");
    assert_eq!(fb.kind, FallbackKind::NonAffine, "unexpected fallback: {fb:?}");
}
