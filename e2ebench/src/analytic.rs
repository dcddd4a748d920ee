//! `analytic_repro`: one op regenerates and serializes all 11 artifacts of
//! `repro all` from the analytic models. No meter runs; the inputs are the
//! paper's fixed grids, so the seed is recorded but not used.

use crate::measured::{fig7_panels, fig8_panels, front, to_json, weak_ep};
use crate::trace;
use crate::{metric, overhead_frac, repeat_setup, stats, timed_loop, Ctx, Metric, Report};
use enprop_apps::sizes::{FIG2_N, FIG4_N};
use enprop_apps::{CpuDgemmApp, SweepExecutor};
use enprop_bench::figures::{self, fig2::Fig2, fig4::Fig4Flavor, fig4::Fig4Point, gpu_cloud};
use enprop_cpusim::BlasFlavor;
use enprop_ep::WeakEpTest;
use enprop_gpusim::GpuArch;
use enprop_stats::corr::pearson;
use enprop_stats::trend::{FunctionalTest, Plateau, TrendLine};
use enprop_units::Joules;

/// `repro all`'s artifacts, with the span each one's generation runs in.
const ARTIFACTS: [(&str, &str); 11] = [
    ("table1", "bench.figures.table1"),
    ("fig1", "bench.figures.fig1"),
    ("fig2", "bench.figures.fig2"),
    ("fig4", "bench.figures.fig4"),
    ("fig6", "bench.figures.fig6"),
    ("fig7", "bench.figures.fig7"),
    ("fig8", "bench.figures.fig8"),
    ("theory", "bench.figures.theory"),
    ("headline", "bench.figures.headline"),
    ("ablations", "bench.figures.ablations"),
    ("sensitivity", "bench.figures.sensitivity"),
];

/// Generates one artifact and serializes it as `repro --json` does.
/// Traced, the generation and the serialization run in spans of their
/// own, and Figs. 2, 4, 7 and 8 are rebuilt from their layers' calls.
fn artifact(name: &str, exec: &SweepExecutor, traced: bool) -> String {
    /// Generates under `span` (when given and traced), then serializes.
    fn emit<T: serde::Serialize>(
        traced: bool,
        span: Option<&'static str>,
        gen: impl FnOnce() -> T,
    ) -> String {
        let value = {
            let _s = span.filter(|_| traced).map(trace::span);
            gen()
        };
        let _s = traced.then(|| trace::span("bench.figures.serialize"));
        to_json(&value)
    }
    let span = ARTIFACTS.iter().find(|a| a.0 == name).map(|a| a.1);
    let t = traced;
    match (name, traced) {
        ("table1", _) => emit(t, span, figures::table1::generate),
        ("fig1", _) => emit(t, span, figures::fig1::generate),
        ("fig2", false) => emit(t, span, figures::fig2::generate),
        ("fig2", true) => emit(t, span, fig2_traced),
        ("fig4", false) => emit(t, span, figures::fig4::generate),
        ("fig4", true) => emit(t, span, fig4_traced),
        ("fig6", _) => emit(t, span, figures::fig6::generate),
        ("fig7", false) => emit(t, span, figures::fig7::generate),
        // The panel builders open the figure's span themselves.
        ("fig7", true) => emit(t, None, || fig7_panels(|n| model_cloud(GpuArch::k40c(), n))),
        ("fig8", false) => emit(t, span, figures::fig8::generate),
        ("fig8", true) => emit(t, None, || {
            fig8_panels(|n| model_cloud(GpuArch::p100_pcie(), n))
        }),
        ("theory", _) => emit(t, span, figures::theory::generate),
        ("headline", _) => emit(t, span, || figures::headline::generate_with(exec)),
        ("ablations", _) => emit(t, span, || figures::ablations::generate_with(exec)),
        ("sensitivity", _) => emit(t, span, || figures::sensitivity::generate_with(exec)),
        _ => unreachable!("{name} is in ARTIFACTS"),
    }
}

fn model_cloud(
    arch: GpuArch,
    n: usize,
) -> Vec<enprop_apps::DataPoint<enprop_gpusim::TiledDgemmConfig>> {
    let mut s = trace::span("gpusim.model");
    let cloud = gpu_cloud(arch, n);
    s.add(cloud.len() as u64);
    cloud
}

/// `figures::fig2::generate`, layer by layer.
fn fig2_traced() -> Fig2 {
    let cloud = model_cloud(GpuArch::p100_pcie(), FIG2_N);
    let low_bs_time_energy_corr = {
        let _s = trace::span("stats.trend");
        let low: Vec<_> = cloud.iter().filter(|p| p.config.bs <= 20).collect();
        let times: Vec<f64> = low.iter().map(|p| p.time.value()).collect();
        let es: Vec<f64> = low.iter().map(|p| p.dynamic_energy.value()).collect();
        pearson(&times, &es)
    };
    Fig2 {
        n: FIG2_N,
        weak_ep: weak_ep(&cloud),
        global: front(&cloud, |_| true),
        high_bs_region: front(&cloud, |c| c.bs >= 21),
        bs_le_30: front(&cloud, |c| c.bs <= 30),
        low_bs_time_energy_corr,
        cloud,
    }
}

/// `figures::fig4::generate`, layer by layer.
fn fig4_traced() -> Vec<Fig4Flavor> {
    let app = CpuDgemmApp::haswell();
    [BlasFlavor::IntelMkl, BlasFlavor::OpenBlas]
        .into_iter()
        .map(|flavor| {
            let sweep = {
                let mut s = trace::span("cpusim");
                let sweep = app.sweep_exact(FIG4_N, flavor);
                s.add(sweep.len() as u64);
                sweep
            };
            let points: Vec<Fig4Point> = sweep
                .iter()
                .map(|p| Fig4Point {
                    label: p.point.config.label(),
                    avg_utilization: p.avg_utilization.fraction(),
                    utilization_spread: p.utilization_spread,
                    dynamic_power: p.point.dynamic_power().value(),
                    gflops: p.gflops,
                    dynamic_energy: p.point.dynamic_energy.value(),
                })
                .collect();
            let us: Vec<f64> = points.iter().map(|p| p.avg_utilization).collect();
            let ps: Vec<f64> = points.iter().map(|p| p.dynamic_power).collect();
            let gs: Vec<f64> = points.iter().map(|p| p.gflops).collect();
            let (trend, plateau, functional) = {
                let _s = trace::span("stats.trend");
                (
                    TrendLine::fit(&us, &ps),
                    Plateau::detect(&us, &gs, 0.08).map(|pl| (pl.level, pl.onset_x)),
                    FunctionalTest::run(&us, &ps, 20, 0.15),
                )
            };
            let full: Vec<Joules> = sweep
                .iter()
                .filter(|p| p.point.config.total_threads() == 48)
                .map(|p| p.point.dynamic_energy)
                .collect();
            let weak_ep = {
                let _s = trace::span("core");
                WeakEpTest::default().run(&full)
            };
            Fig4Flavor {
                flavor: flavor.name().to_string(),
                power_linear_r2: trend.linear.r_squared,
                power_quadratic_concave: trend
                    .quadratic
                    .as_ref()
                    .map(|q| q.is_concave_quadratic())
                    .unwrap_or(false),
                power_quadratic_r2: trend.quadratic.as_ref().map(|q| q.r_squared).unwrap_or(0.0),
                plateau,
                power_non_functional: functional.is_non_functional(),
                max_within_spread: functional.max_within_spread,
                weak_ep,
                points,
            }
        })
        .collect()
}

/// Every artifact.
fn generate_all(exec: &SweepExecutor, traced: bool) -> Vec<String> {
    ARTIFACTS
        .iter()
        .map(|(name, _)| artifact(name, exec, traced))
        .collect()
}

/// The paper's verdicts: weak EP violated (Figs. 2, 7, 8), strong EP
/// violated (Fig. 1), and dynamic power a non-functional relation of
/// utilization (Fig. 4).
fn check_verdicts() -> Result<(), String> {
    let weak = figures::fig2::generate().weak_ep.holds
        || figures::fig7::generate().iter().any(|p| p.weak_ep.holds)
        || figures::fig8::generate().iter().any(|p| p.weak_ep.holds);
    if weak {
        return Err("a GPU panel satisfies weak EP".into());
    }
    if let Some(s) = figures::fig1::generate().iter().find(|s| s.strong_ep.holds) {
        return Err(format!("{} satisfies strong EP", s.processor));
    }
    if let Some(f) = figures::fig4::generate()
        .iter()
        .find(|f| !f.power_non_functional)
    {
        return Err(format!(
            "Fig. 4 {}: power is a function of utilization",
            f.flavor
        ));
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let exec = SweepExecutor::new(0).with_threads(ctx.threads);
    // Set-up: the reference bytes, generated twice to prove them stable,
    // and the paper's verdicts on them.
    let (setup_s, reference) = repeat_setup(
        || {
            let a = generate_all(&exec, false);
            let b = generate_all(&exec, false);
            if let Some(i) = (0..a.len()).find(|&i| a[i] != b[i]) {
                return Err(format!("{} is not byte-stable", ARTIFACTS[i].0));
            }
            check_verdicts()?;
            Ok(a)
        },
        drop,
    )?;
    let check = |out: Vec<String>| match (0..out.len()).find(|&i| out[i] != reference[i]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{} differs from the reference bytes",
            ARTIFACTS[i].0
        )),
    };
    let window = timed_loop(ctx.phase_secs(), 20, |_| check(generate_all(&exec, false)));
    let named = vec![
        metric("analytic_regens_per_s", "1/s", window.ok_per_s()),
        metric("analytic_op_p50_ms", "ms", stats::median(&window.op_ms)),
    ];
    if !ctx.trace {
        return Ok(Report {
            setup_s,
            window,
            traced: Default::default(),
            named,
            layers: vec![],
        });
    }

    let traced = timed_loop(ctx.phase_secs(), 20, |op| {
        let out = {
            let _op = trace::op_span("op", op);
            generate_all(&exec, true)
        };
        check(out).map_err(|e| format!("traced: {e}"))
    });
    let mut layers = layer_metrics(&trace::snapshot(), traced.attempted() as f64);
    layers.push(metric(
        "trace.overhead_frac",
        "frac",
        overhead_frac(&window, &traced),
    ));
    Ok(Report {
        setup_s,
        window,
        traced,
        named,
        layers,
    })
}

fn layer_metrics(spans: &[trace::Span], ops: f64) -> Vec<Metric> {
    let t = trace::ByName::of(spans);
    let get = |name: &str| t.get(name);
    let per_op = |x: f64| x / ops;
    let mut out = vec![
        metric(
            "gpusim.model.estimates",
            "count",
            per_op(get("gpusim.model").count as f64),
        ),
        metric(
            "gpusim.model.busy_s",
            "s",
            per_op(get("gpusim.model").self_s),
        ),
        metric(
            "cpusim.configs",
            "count",
            per_op(get("cpusim").count as f64),
        ),
        metric("cpusim.busy_s", "s", per_op(get("cpusim").self_s)),
        metric("pareto.fronts", "count", per_op(get("pareto").spans as f64)),
        metric(
            "pareto.points_in",
            "count",
            per_op(get("pareto").count as f64),
        ),
        metric("pareto.busy_s", "s", per_op(get("pareto").self_s)),
        metric("core.busy_s", "s", per_op(get("core").self_s)),
        metric("stats.trend.busy_s", "s", per_op(get("stats.trend").self_s)),
        metric(
            "bench.figures.serialize_s",
            "s",
            per_op(get("bench.figures.serialize").self_s),
        ),
    ];
    for (name, span) in ARTIFACTS {
        out.push(metric(
            format!("bench.figures.{name}_s"),
            "s",
            per_op(get(span).wall_s),
        ));
    }
    out.push(metric(
        "trace.coverage_frac",
        "frac",
        trace::op_coverage(spans),
    ));
    out
}
