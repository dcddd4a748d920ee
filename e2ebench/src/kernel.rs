//! `kernel_verify`: one op sanitizes every shipped kernel launch of
//! `sanitize_all(arch, false)` on the K40c and the P100, learns the
//! static DGEMM model, proves the 408 Fig. 7/8 lattice configurations
//! safe with it, and checks its closed-form event counts against the
//! emulator on the validation set. The seed only permutes the order.

use crate::inputs::launch_order;
use crate::trace;
use crate::{metric, overhead_frac, repeat_setup, stats, timed_loop, Ctx, Metric, Report};
use enprop_gpusim::emulator::{EmuDgemm, EmuRowFft, GlobalMem};
use enprop_gpusim::{GpuArch, TiledDgemmConfig};
use enprop_sanitize::{dgemm_grid, fft_grid, sanitize_dgemm, sanitize_fft, KernelReport};
use enprop_staticcheck::dgemm::{
    fig_lattice_specs, validate_counts, validation_set, TOTAL_PRODUCTS,
};
use enprop_staticcheck::{verify_fig_lattices, DgemmStaticModel};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
enum Launch {
    Dgemm(TiledDgemmConfig, GpuArch),
    Fft {
        n: usize,
        rows: usize,
        arch: GpuArch,
    },
}

impl Launch {
    fn sanitize(&self) -> KernelReport {
        match self {
            Launch::Dgemm(cfg, arch) => sanitize_dgemm(*cfg, arch),
            Launch::Fft { n, rows, arch } => sanitize_fft(*n, *rows, arch),
        }
    }

    /// Runs the launch on the plain emulator; returns its block count.
    fn emulate(&self) -> usize {
        let fill = |len: usize| {
            GlobalMem::from_slice(
                &(0..len)
                    .map(|i| (i % 17) as f64 / 17.0 - 0.5)
                    .collect::<Vec<_>>(),
            )
        };
        match self {
            Launch::Dgemm(cfg, _) => {
                let cells = cfg.n * cfg.n;
                EmuDgemm::new(*cfg).run(&fill(cells), &fill(cells), &fill(cells));
                (cfg.n / cfg.bs).pow(2)
            }
            Launch::Fft { n, rows, .. } => {
                EmuRowFft::new(*n, *rows).run(&fill(2 * rows * n));
                *rows
            }
        }
    }

    fn arch(&self) -> &GpuArch {
        match self {
            Launch::Dgemm(_, arch) | Launch::Fft { arch, .. } => arch,
        }
    }
}

/// Everything one op runs, in the seed's order.
struct Inputs {
    launches: Vec<Launch>,
    lattice: Vec<TiledDgemmConfig>,
    validation: Vec<TiledDgemmConfig>,
}

fn permuted<T: Clone>(items: Vec<T>, seed: u64) -> Vec<T> {
    launch_order(items.len(), seed)
        .into_iter()
        .map(|i| items[i].clone())
        .collect()
}

fn inputs(seed: u64) -> Inputs {
    let mut launches = Vec::new();
    for arch in [GpuArch::k40c(), GpuArch::p100_pcie()] {
        launches.extend(
            dgemm_grid(&arch, false)
                .into_iter()
                .map(|c| Launch::Dgemm(c, arch.clone())),
        );
        launches.extend(fft_grid(false).into_iter().map(|(n, rows)| Launch::Fft {
            n,
            rows,
            arch: arch.clone(),
        }));
    }
    let lattice = fig_lattice_specs()
        .into_iter()
        .flat_map(|(_, arch, n)| TiledDgemmConfig::enumerate(&arch, n, TOTAL_PRODUCTS))
        .collect();
    Inputs {
        launches: permuted(launches, seed),
        lattice: permuted(lattice, seed),
        validation: permuted(validation_set(), seed),
    }
}

/// The canonical `sanitize_all` outcome per `(arch, launch label)`:
/// `(blocks, monitored blocks)`.
type Reference = BTreeMap<(String, String), (usize, usize)>;

fn reference() -> Result<Reference, String> {
    let mut out = Reference::new();
    for arch in [GpuArch::k40c(), GpuArch::p100_pcie()] {
        let report = enprop_sanitize::sanitize_all(&arch, false);
        if !report.clean() {
            return Err(format!(
                "sanitize_all on {}: {} finding(s)",
                arch.name,
                report.total_findings()
            ));
        }
        for k in report.kernels {
            out.insert(
                (arch.name.clone(), k.kernel),
                (k.blocks, k.monitored_blocks),
            );
        }
    }
    let model = DgemmStaticModel::learn().map_err(|e| format!("static model: {e}"))?;
    let sweeps = verify_fig_lattices(&model);
    let configs: usize = sweeps.iter().map(|s| s.configs).sum();
    let dirty: usize = sweeps.iter().map(|s| s.findings + s.fallbacks).sum();
    if configs != 408 || dirty != 0 {
        return Err(format!(
            "lattice: {configs} configs, {dirty} findings + fallbacks"
        ));
    }
    Ok(out)
}

/// What one op did.
#[derive(Default)]
struct OpStats {
    launches: usize,
    sanitize_s: f64,
    sanitizer_findings: usize,
    configs: usize,
    static_s: f64,
    static_findings: usize,
    fallbacks: usize,
    counts_exact: usize,
}

impl OpStats {
    fn add(&mut self, o: &OpStats) {
        self.launches += o.launches;
        self.sanitize_s += o.sanitize_s;
        self.sanitizer_findings += o.sanitizer_findings;
        self.configs += o.configs;
        self.static_s += o.static_s;
        self.static_findings += o.static_findings;
        self.fallbacks += o.fallbacks;
        self.counts_exact += o.counts_exact;
    }
}

/// Runs one op and checks it: zero findings, zero fallbacks, exact
/// counts, and every launch as `sanitize_all` ran it.
fn op(inputs: &Inputs, reference: &Reference, traced: bool) -> Result<OpStats, String> {
    let span = |name| traced.then(|| trace::span(name));
    let mut stats = OpStats::default();

    let start = Instant::now();
    for launch in &inputs.launches {
        let mut s = span("sanitizer");
        let report = launch.sanitize();
        if let Some(s) = s.as_mut() {
            s.add(report.monitored_blocks as u64);
        }
        stats.sanitizer_findings += report.findings.len() + report.suppressed;
        let key = (launch.arch().name.clone(), report.kernel.clone());
        if reference.get(&key) != Some(&(report.blocks, report.monitored_blocks)) {
            return Err(format!(
                "{}: blocks differ from sanitize_all",
                report.kernel
            ));
        }
    }
    stats.launches = inputs.launches.len();
    stats.sanitize_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let model = {
        let _s = span("staticcheck.learn");
        DgemmStaticModel::learn().map_err(|e| format!("static model: {e}"))?
    };
    {
        let mut s = span("staticcheck.lattice");
        for cfg in &inputs.lattice {
            let report = model.verify_config(cfg);
            stats.static_findings += report.findings.len();
            stats.fallbacks += report.fallbacks.len();
        }
        if let Some(s) = s.as_mut() {
            s.add(inputs.lattice.len() as u64);
        }
    }
    stats.configs = inputs.lattice.len();
    stats.static_s = start.elapsed().as_secs_f64();

    {
        let _s = span("staticcheck.validate");
        stats.counts_exact = inputs
            .validation
            .iter()
            .filter(|cfg| {
                let (closed_form, emulated) = validate_counts(&model, cfg);
                closed_form == emulated
            })
            .count();
    }

    if stats.sanitizer_findings + stats.static_findings + stats.fallbacks != 0
        || stats.counts_exact != inputs.validation.len()
    {
        return Err(format!(
            "{} sanitizer finding(s), {} static finding(s), {} fallback(s), counts exact on {} of {}",
            stats.sanitizer_findings,
            stats.static_findings,
            stats.fallbacks,
            stats.counts_exact,
            inputs.validation.len()
        ));
    }
    Ok(stats)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    // Set-up: the launch order, and the canonical sweeps every op is
    // checked against.
    let (setup_s, (inputs, reference)) =
        repeat_setup(|| Ok((inputs(ctx.seed), reference()?)), drop)?;
    let mut totals = OpStats::default();
    let window = timed_loop(ctx.phase_secs(), 3, |_| {
        op(&inputs, &reference, false).map(|o| totals.add(&o))
    });
    let named = vec![
        metric(
            "sanitize_launches_per_s",
            "1/s",
            totals.launches as f64 / totals.sanitize_s,
        ),
        metric(
            "static_configs_per_s",
            "1/s",
            totals.configs as f64 / totals.static_s,
        ),
        metric("kernel_op_p50_ms", "ms", stats::median(&window.op_ms)),
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

    let mut traced_totals = OpStats::default();
    let traced = timed_loop(ctx.phase_secs(), 3, |i| {
        let _op = trace::op_span("op", i);
        op(&inputs, &reference, true)
            .map(|o| traced_totals.add(&o))
            .map_err(|e| format!("traced: {e}"))
    });
    // The plain emulator over the same launches, outside any op: the cost
    // the sanitizer's monitoring adds to.
    const EMULATOR_PASSES: usize = 3;
    for _ in 0..EMULATOR_PASSES {
        for launch in &inputs.launches {
            let mut s = trace::span("gpusim.emulator");
            s.add(launch.emulate() as u64);
        }
    }
    let ops = traced.attempted() as f64;
    let t = &traced_totals;
    let mut layers = layer_metrics(&trace::snapshot(), ops, EMULATOR_PASSES as f64);
    layers.extend([
        metric(
            "sanitizer.findings",
            "count",
            t.sanitizer_findings as f64 / ops,
        ),
        metric(
            "staticcheck.findings",
            "count",
            t.static_findings as f64 / ops,
        ),
        metric("staticcheck.fallbacks", "count", t.fallbacks as f64 / ops),
        metric(
            "staticcheck.counts_exact",
            "count",
            t.counts_exact as f64 / ops,
        ),
        metric(
            "trace.overhead_frac",
            "frac",
            overhead_frac(&window, &traced),
        ),
    ]);
    Ok(Report {
        setup_s,
        window,
        traced,
        named,
        layers,
    })
}

fn layer_metrics(spans: &[trace::Span], ops: f64, passes: f64) -> Vec<Metric> {
    let t = trace::ByName::of(spans);
    let get = |name: &str| t.get(name);
    let (sanitizer, emulator) = (get("sanitizer"), get("gpusim.emulator"));
    let lattice = get("staticcheck.lattice");
    let per_op = |x: f64| x / ops;
    let emulator_per_pass = emulator.self_s / passes;
    vec![
        metric(
            "gpusim.emulator.launches",
            "count",
            emulator.spans as f64 / passes,
        ),
        metric(
            "gpusim.emulator.blocks",
            "count",
            emulator.count as f64 / passes,
        ),
        metric("gpusim.emulator.busy_s", "s", emulator_per_pass),
        metric(
            "sanitizer.monitored_blocks",
            "count",
            per_op(sanitizer.count as f64),
        ),
        metric("sanitizer.busy_s", "s", per_op(sanitizer.self_s)),
        metric(
            "sanitizer.overhead_x",
            "x",
            per_op(sanitizer.self_s) / emulator_per_pass,
        ),
        metric(
            "staticcheck.learn_s",
            "s",
            per_op(get("staticcheck.learn").self_s),
        ),
        metric("staticcheck.lattice_s", "s", per_op(lattice.self_s)),
        metric("staticcheck.configs", "count", per_op(lattice.count as f64)),
        metric("trace.coverage_frac", "frac", trace::op_coverage(spans)),
    ]
}
