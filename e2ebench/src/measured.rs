//! `measured_sweep`: one op regenerates the measured Fig. 7 (K40c) and
//! Fig. 8 (P100) panels through the simulated meter, the
//! repeat-until-confidence protocol and the sweep executor at `nproc`
//! threads, and serializes them as `repro --json` does.

use crate::inputs::measured_executor;
use crate::trace::{self, Span};
use crate::{metric, overhead_frac, repeat_setup, stats, timed_loop, Ctx, Metric, Report};
use enprop_apps::point::DataPoint;
use enprop_apps::{sizes, GpuMatMulApp, MeasurementRunner, SweepExecutor};
use enprop_bench::figures::{self, fig7::Fig7Panel, fig8::Fig8Panel, GPU_TOTAL_PRODUCTS};
use enprop_ep::WeakEpTest;
use enprop_gpusim::{GpuArch, ProductProfile, TiledDgemmConfig};
use enprop_pareto::TradeoffAnalysis;
use enprop_power::{
    EnergySession, MeasureError, Meter, MeterSpec, PowerSource, PowerTrace, SimulatedWattsUp,
};
use enprop_units::{Seconds, Watts};
use std::collections::BTreeMap;
use std::time::Instant;

/// Pairs of 1-thread and `nproc`-thread ops the traced run alternates
/// for `apps.parallel.efficiency`.
const EFFICIENCY_PAIRS: usize = 5;

/// The meter the traced sweep measures through: the library's simulated
/// WattsUp, with a span around every recording.
pub struct TracedMeter(SimulatedWattsUp);

impl TracedMeter {
    /// The meter `GpuMatMulApp`'s default rig builds.
    fn new() -> Self {
        Self(SimulatedWattsUp::new(MeterSpec::default(), Watts(110.0), 0))
    }
}

impl Meter for TracedMeter {
    fn record(&mut self, app: &dyn PowerSource) -> Result<PowerTrace, MeasureError> {
        let mut s = trace::span("power.meter");
        let t = self.0.record(app);
        s.add(t.len() as u64);
        Ok(t)
    }

    fn record_idle(&mut self, window: Seconds) -> Result<PowerTrace, MeasureError> {
        let mut s = trace::span("power.meter");
        let t = self.0.record_idle(window);
        s.add(t.len() as u64);
        Ok(t)
    }

    fn reseed(&mut self, seed: u64) {
        Meter::reseed(&mut self.0, seed)
    }

    fn sample_period(&self) -> Seconds {
        Meter::sample_period(&self.0)
    }
}

/// `GpuMatMulApp::sweep_measured` rebuilt from its public parts (model
/// estimates, `SweepExecutor::run_measured`, `MeasurementRunner`) so the
/// trace sees each layer. Its output must equal the library's bitwise;
/// every caller checks that.
pub fn traced_sweep(
    app: &GpuMatMulApp,
    n: usize,
    exec: &SweepExecutor,
) -> Vec<DataPoint<TiledDgemmConfig>> {
    let estimates = {
        let mut s = trace::span("gpusim.model");
        let model = app.model();
        let mut profile: Option<ProductProfile> = None;
        let estimates: Vec<_> = app
            .configs(n)
            .into_iter()
            .map(|cfg| {
                let p = match profile {
                    Some(p) if p.bs == cfg.bs => p,
                    _ => *profile.insert(model.product_profile(n, cfg.bs)),
                };
                (cfg, model.estimate_from_profile(&p, cfg.g, cfg.r))
            })
            .collect();
        s.add(estimates.len() as u64);
        estimates
    };
    let segment = trace::span("apps.parallel");
    let _adopt = trace::adopt_orphans(&segment);
    exec.run_measured(
        &estimates,
        || {
            // The baseline window `GpuMatMulApp::default_runner` uses.
            let session = EnergySession::with_baseline_window(TracedMeter::new(), Seconds(120.0));
            MeasurementRunner::from_session(session, 0)
        },
        |runner, (cfg, e)| {
            let mut s = trace::span("stats.protocol");
            let m = runner.measure(e.time, e.steady_power, e.warmup_power, e.warmup_time);
            s.add(m.reps as u64);
            DataPoint {
                config: *cfg,
                time: m.time,
                dynamic_energy: m.dynamic_energy,
                reps: m.reps,
                converged: m.converged,
            }
        },
    )
}

pub fn to_json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string_pretty(v).expect("serialize artifact")
}

/// The op's output: `fig7.json` then `fig8.json` as `repro --measured
/// --json` writes them.
fn generate(exec: &SweepExecutor) -> String {
    let fig7 = figures::fig7::generate_measured_with(exec);
    let fig8 = figures::fig8::generate_measured_with(exec);
    to_json(&fig7) + &to_json(&fig8)
}

pub fn front(
    cloud: &[DataPoint<TiledDgemmConfig>],
    pred: impl Fn(&TiledDgemmConfig) -> bool,
) -> TradeoffAnalysis {
    let mut s = trace::span("pareto");
    s.add(cloud.iter().filter(|p| pred(&p.config)).count() as u64);
    figures::front_of(cloud, pred)
}

pub fn weak_ep(cloud: &[DataPoint<TiledDgemmConfig>]) -> enprop_ep::WeakEpReport {
    let _s = trace::span("core");
    let energies: Vec<_> = cloud.iter().map(|p| p.dynamic_energy).collect();
    WeakEpTest::default().run(&energies)
}

/// Fig. 7 panels over the clouds `cloud_of(n)` yields, built exactly as
/// `figures::fig7` builds them, with every analysis call under a span.
pub fn fig7_panels(
    mut cloud_of: impl FnMut(usize) -> Vec<DataPoint<TiledDgemmConfig>>,
) -> Vec<Fig7Panel> {
    let _s = trace::span("bench.figures.fig7");
    sizes::fig7_sizes()
        .into_iter()
        .map(|n| {
            let cloud = cloud_of(n);
            let global = front(&cloud, |_| true);
            Fig7Panel {
                n,
                failed_configs: 0,
                failures: Vec::new(),
                weak_ep: weak_ep(&cloud),
                local: front(&cloud, |c| c.bs <= 30),
                global_optimum_bs: cloud[global.performance_optimal().index].config.bs,
                global,
                cloud,
            }
        })
        .collect()
}

/// Fig. 8 panels, as [`fig7_panels`].
pub fn fig8_panels(
    mut cloud_of: impl FnMut(usize) -> Vec<DataPoint<TiledDgemmConfig>>,
) -> Vec<Fig8Panel> {
    let _s = trace::span("bench.figures.fig8");
    sizes::fig8_sizes()
        .into_iter()
        .map(|n| {
            let cloud = cloud_of(n);
            Fig8Panel {
                n,
                failed_configs: 0,
                failures: Vec::new(),
                weak_ep: weak_ep(&cloud),
                global: front(&cloud, |_| true),
                cloud,
            }
        })
        .collect()
}

/// [`generate`] with every layer call under a span. Also returns how many
/// points the protocol left unconverged.
fn generate_traced(exec: &SweepExecutor) -> (String, u64) {
    let k40c = GpuMatMulApp::new(GpuArch::k40c(), GPU_TOTAL_PRODUCTS);
    let p100 = GpuMatMulApp::new(GpuArch::p100_pcie(), GPU_TOTAL_PRODUCTS);
    let fig7 = fig7_panels(|n| traced_sweep(&k40c, n, exec));
    let fig8 = fig8_panels(|n| traced_sweep(&p100, n, exec));
    let unconverged = fig7
        .iter()
        .flat_map(|p| &p.cloud)
        .chain(fig8.iter().flat_map(|p| &p.cloud))
        .filter(|p| !p.converged)
        .count() as u64;
    let _s = trace::span("bench.figures.serialize");
    (to_json(&fig7) + &to_json(&fig8), unconverged)
}

/// Configurations one op measures.
fn configs_per_op() -> usize {
    let k40c = GpuMatMulApp::new(GpuArch::k40c(), GPU_TOTAL_PRODUCTS);
    let p100 = GpuMatMulApp::new(GpuArch::p100_pcie(), GPU_TOTAL_PRODUCTS);
    sizes::fig7_sizes()
        .iter()
        .map(|&n| k40c.configs(n).len())
        .sum::<usize>()
        + sizes::fig8_sizes()
            .iter()
            .map(|&n| p100.configs(n).len())
            .sum::<usize>()
}

/// Checks the reference panels are complete: every configuration
/// measured, none failed.
fn check_complete(exec: &SweepExecutor) -> Result<String, String> {
    let fig7 = figures::fig7::generate_measured_with(exec);
    let fig8 = figures::fig8::generate_measured_with(exec);
    let k40c = GpuMatMulApp::new(GpuArch::k40c(), GPU_TOTAL_PRODUCTS);
    let p100 = GpuMatMulApp::new(GpuArch::p100_pcie(), GPU_TOTAL_PRODUCTS);
    let panels = fig7
        .iter()
        .map(|p| {
            (
                p.n,
                p.cloud.len(),
                p.failed_configs,
                k40c.configs(p.n).len(),
            )
        })
        .chain(fig8.iter().map(|p| {
            (
                p.n,
                p.cloud.len(),
                p.failed_configs,
                p100.configs(p.n).len(),
            )
        }));
    for (n, measured, failed, configs) in panels {
        if failed != 0 || measured != configs {
            return Err(format!(
                "N = {n}: {measured} of {configs} measured, {failed} failed"
            ));
        }
    }
    Ok(to_json(&fig7) + &to_json(&fig8))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    // Set-up computes the reference bytes every op is checked against:
    // the same seed on one thread.
    let (setup_s, reference) =
        repeat_setup(|| check_complete(&measured_executor(ctx.seed, 1)), drop)?;
    let exec = measured_executor(ctx.seed, ctx.threads);
    let check = |out: String| {
        if out == reference {
            Ok(())
        } else {
            Err("panels differ from the 1-thread run with the same seed".to_string())
        }
    };
    let window = timed_loop(ctx.phase_secs(), 3, |_| check(generate(&exec)));
    let configs = configs_per_op() as f64;
    let named = vec![
        metric("measured_configs_per_s", "1/s", configs * window.ok_per_s()),
        metric("measured_op_p50_ms", "ms", stats::median(&window.op_ms)),
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

    let mut unconverged = 0u64;
    let mut traced = timed_loop(ctx.phase_secs(), 3, |op| {
        let (out, unconverged_points) = {
            let _op = trace::op_span("op", op);
            generate_traced(&exec)
        };
        unconverged += unconverged_points;
        check(out).map_err(|e| format!("traced: {e}"))
    });
    let spans = trace::snapshot();
    let ops = traced.attempted() as f64;
    let mut layers = layer_metrics(&spans, ctx.threads, ops);
    layers.push(metric(
        "stats.protocol.unconverged",
        "count",
        unconverged as f64 / ops,
    ));
    // 1-thread ops alternated with `nproc`-thread ones, so that both see
    // the same stretches of host speed.
    let serial = measured_executor(ctx.seed, 1);
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..EFFICIENCY_PAIRS {
        for (exec, times) in [(&serial, &mut one), (&exec, &mut many)] {
            let t = Instant::now();
            let out = generate(exec);
            times.push(t.elapsed().as_secs_f64());
            if let Err(e) = check(out) {
                traced.fail(format!("efficiency pass: {e}"));
            }
        }
    }
    layers.push(metric(
        "apps.parallel.efficiency",
        "frac",
        stats::median(&one) / (ctx.threads as f64 * stats::median(&many)),
    ));
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

/// Meter, protocol, executor and analysis metrics of a traced sweep
/// window, per op. Shared with `serve_mixed`'s direct sweeps.
pub fn layer_metrics(spans: &[Span], threads: usize, ops: f64) -> Vec<Metric> {
    let t = trace::ByName::of(spans);
    let (meter, protocol) = (t.get("power.meter"), t.get("stats.protocol"));

    // Worker time: spans whose parent is an executor segment, per
    // (segment, thread). The rest of `threads × segment wall` is idle.
    let segments: BTreeMap<u32, &Span> = spans
        .iter()
        .filter(|s| s.name == "apps.parallel")
        .map(|s| (s.id, s))
        .collect();
    let mut busy: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| segments.contains_key(&s.parent)) {
        *busy.entry((s.parent, s.thread)).or_default() += s.secs();
    }
    let (mut busy_max, mut busy_min, mut busy_sum, mut capacity) = (0.0, 0.0, 0.0, 0.0);
    for (&id, seg) in &segments {
        let per: Vec<f64> = busy
            .range((id, 0)..=(id, u32::MAX))
            .map(|(_, &b)| b)
            .collect();
        busy_max += per.iter().copied().fold(0.0, f64::max);
        // Workers that never ran count as idle for the whole segment.
        busy_min += if per.len() < threads {
            0.0
        } else {
            per.iter().copied().fold(f64::MAX, f64::min)
        };
        busy_sum += per.iter().sum::<f64>();
        capacity += threads as f64 * seg.secs();
    }

    // Coverage: layer self times plus worker idle time, over the op
    // roots' wall time with each executor segment counted `threads` times.
    let mut covered = capacity - busy_sum;
    let mut wall = 0.0;
    for (s, self_s) in spans.iter().zip(trace::self_times(spans)) {
        match s.name {
            "op" => wall += s.secs(),
            "apps.parallel" => wall += (threads as f64 - 1.0) * s.secs(),
            _ => covered += self_s,
        }
    }
    let (model, pareto) = (t.get("gpusim.model"), t.get("pareto"));
    let per_op = |x: f64| x / ops;
    let mut out = vec![
        metric("power.meter.records", "count", per_op(meter.spans as f64)),
        metric("power.meter.samples", "count", per_op(meter.count as f64)),
        metric("power.meter.busy_s", "s", per_op(meter.self_s)),
        metric("power.meter.share", "frac", meter.self_s / busy_sum),
        metric(
            "stats.protocol.reps",
            "count",
            per_op(protocol.count as f64),
        ),
        metric(
            "stats.protocol.reps_per_config",
            "count",
            protocol.count as f64 / protocol.spans as f64,
        ),
        metric("stats.protocol.self_s", "s", per_op(protocol.self_s)),
        metric(
            "apps.parallel.wall_s",
            "s",
            per_op(t.get("apps.parallel").wall_s),
        ),
        metric("apps.parallel.worker_busy_max_s", "s", per_op(busy_max)),
        metric("apps.parallel.worker_busy_min_s", "s", per_op(busy_min)),
        metric("apps.parallel.idle_frac", "frac", 1.0 - busy_sum / capacity),
        metric(
            "gpusim.model.estimates",
            "count",
            per_op(model.count as f64),
        ),
        metric("gpusim.model.busy_s", "s", per_op(model.self_s)),
        metric("pareto.fronts", "count", per_op(pareto.spans as f64)),
        metric("pareto.points_in", "count", per_op(pareto.count as f64)),
        metric("pareto.busy_s", "s", per_op(pareto.self_s)),
        metric("core.busy_s", "s", per_op(t.get("core").self_s)),
        metric(
            "bench.figures.serialize_s",
            "s",
            per_op(t.get("bench.figures.serialize").self_s),
        ),
        metric(
            "bench.figures.fig7_s",
            "s",
            per_op(t.get("bench.figures.fig7").wall_s),
        ),
        metric(
            "bench.figures.fig8_s",
            "s",
            per_op(t.get("bench.figures.fig8").wall_s),
        ),
    ];
    if wall > 0.0 {
        out.push(metric("trace.coverage_frac", "frac", covered / wall));
    }
    out
}
