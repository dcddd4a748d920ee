//! End-to-end benchmark of the enprop workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <measured_sweep|analytic_repro|serve_mixed|kernel_verify> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets up the workload several times (reporting the median as
//! `setup_s`), then runs its op back to back for `--seconds`, checking the
//! output of every op and costing the ops in CPU time against a reference
//! computation (see [`calib`]). The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run first times half the window untraced, then half traced, and the
//! metrics are the per-layer ones (see `README.md`). The lines before it
//! carry the environment stamp and the workload's own named metrics.

mod analytic;
mod calib;
mod env;
mod inputs;
mod kernel;
mod measured;
mod serve;
mod stats;
mod trace;

use serde::Value;
use std::time::Instant;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_ok_frac", "frac"),
    ("op_cpu_ms", "ms"),
];

/// Per-layer metrics, reported by every traced run (0 where the workload
/// does not reach the layer): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("power.meter.records", "count"),
    ("power.meter.samples", "count"),
    ("power.meter.busy_s", "s"),
    ("power.meter.share", "frac"),
    ("stats.protocol.reps", "count"),
    ("stats.protocol.reps_per_config", "count"),
    ("stats.protocol.unconverged", "count"),
    ("stats.protocol.self_s", "s"),
    ("stats.trend.busy_s", "s"),
    ("apps.parallel.wall_s", "s"),
    ("apps.parallel.worker_busy_max_s", "s"),
    ("apps.parallel.worker_busy_min_s", "s"),
    ("apps.parallel.idle_frac", "frac"),
    ("apps.parallel.efficiency", "frac"),
    ("gpusim.model.estimates", "count"),
    ("gpusim.model.busy_s", "s"),
    ("cpusim.configs", "count"),
    ("cpusim.busy_s", "s"),
    ("pareto.fronts", "count"),
    ("pareto.points_in", "count"),
    ("pareto.busy_s", "s"),
    ("core.busy_s", "s"),
    ("bench.figures.table1_s", "s"),
    ("bench.figures.fig1_s", "s"),
    ("bench.figures.fig2_s", "s"),
    ("bench.figures.fig4_s", "s"),
    ("bench.figures.fig6_s", "s"),
    ("bench.figures.fig7_s", "s"),
    ("bench.figures.fig8_s", "s"),
    ("bench.figures.theory_s", "s"),
    ("bench.figures.headline_s", "s"),
    ("bench.figures.ablations_s", "s"),
    ("bench.figures.sensitivity_s", "s"),
    ("bench.figures.serialize_s", "s"),
    ("serve.http.hit.connect_ms", "ms"),
    ("serve.http.hit.ttfb_ms", "ms"),
    ("serve.http.hit.body_ms", "ms"),
    ("serve.http.hit.bytes", "B"),
    ("serve.http.miss.connect_ms", "ms"),
    ("serve.http.miss.ttfb_ms", "ms"),
    ("serve.http.miss.body_ms", "ms"),
    ("serve.http.miss.bytes", "B"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.coalesced", "count"),
    ("serve.cache.hit_ratio", "frac"),
    ("serve.cache.lookup_us", "us"),
    ("serve.cache.log_bytes", "B"),
    ("serve.cache.replay_s", "s"),
    ("serve.hit_unexplained_ms", "ms"),
    ("serve.daemon.requests", "count"),
    ("serve.daemon.sweeps", "count"),
    ("serve.daemon.bad_requests", "count"),
    ("serve.daemon.panics", "count"),
    ("serve.miss.sweep_ms", "ms"),
    ("gpusim.emulator.launches", "count"),
    ("gpusim.emulator.blocks", "count"),
    ("gpusim.emulator.busy_s", "s"),
    ("sanitizer.monitored_blocks", "count"),
    ("sanitizer.findings", "count"),
    ("sanitizer.busy_s", "s"),
    ("sanitizer.overhead_x", "x"),
    ("staticcheck.learn_s", "s"),
    ("staticcheck.lattice_s", "s"),
    ("staticcheck.configs", "count"),
    ("staticcheck.fallbacks", "count"),
    ("staticcheck.findings", "count"),
    ("staticcheck.counts_exact", "count"),
    ("ops_failed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage_frac", "frac"),
];

/// A run sets up at least `SETUP_MIN_REPS` times, and more while the
/// setups so far took under `SETUP_BUDGET_S` of wall time (up to
/// `SETUP_MAX_REPS`), so that cheap set-ups get a median over a few
/// seconds of host time; `setup_s` is that median, costed as `op_cpu_ms`
/// is (see [`calib`]).
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 201;
const SETUP_BUDGET_S: f64 = 2.0;

/// [`timed_loop`] runs the reference computation again once the ops
/// since its last run have used this much CPU time, ms, so that each
/// ratio pairs ops with a reference run close to them in time.
pub const BLOCK_CPU_MS: f64 = 100.0;

/// No timed window runs longer than this, whatever the minimum op
/// counts, so every run ends well inside its time limit.
pub const MAX_WINDOW_S: f64 = 60.0;

/// What one run is asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: &[&str] = &[
    "measured_sweep",
    "analytic_repro",
    "serve_mixed",
    "kernel_verify",
];

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(bad(&WORKLOADS.join("|"))),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                    if !(s > 0.0 && s <= MAX_WINDOW_S) {
                        return Err(bad(&format!("0 < seconds <= {MAX_WINDOW_S}")));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Run-wide settings every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads and client connections (`nproc`).
    pub threads: usize,
}

impl Ctx {
    /// Length of each timed phase: the whole window untraced, or half
    /// untraced and half traced.
    pub fn phase_secs(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Ops timed in one phase.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of every op, ms.
    pub op_ms: Vec<f64>,
    /// Process CPU time per op over the reference computation's CPU time
    /// just before, one ratio per block of ops.
    pub cost: Vec<f64>,
    /// Failed ops, plus failed checks of the whole window.
    pub failed: u64,
    /// Failed checks of the whole window, each counted as one attempt.
    pub failed_checks: u64,
    pub secs: f64,
    /// First few failure messages.
    pub errors: Vec<String>,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.op_ms.len() as u64 + self.failed_checks
    }

    /// Records one op.
    pub fn record(&mut self, ms: f64, outcome: Result<(), String>) {
        self.op_ms.push(ms);
        if let Err(e) = outcome {
            self.note_failure(e);
        }
    }

    /// Records a failed check that concerns the whole window.
    pub fn fail(&mut self, msg: String) {
        self.failed_checks += 1;
        self.note_failure(msg);
    }

    fn note_failure(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Appends another window's ops (a client's share of a phase).
    pub fn merge(&mut self, other: Window) {
        self.op_ms.extend(other.op_ms);
        self.cost.extend(other.cost);
        self.failed += other.failed;
        self.failed_checks += other.failed_checks;
        self.errors.extend(other.errors);
        self.errors.truncate(8);
    }

    /// Successful ops per second over the whole window.
    pub fn ok_per_s(&self) -> f64 {
        (self.attempted() - self.failed) as f64 / self.secs
    }

    /// CPU time an op costs, in milliseconds of the reference
    /// computation (see [`calib`]): the median of [`Window::cost`] times
    /// [`calib::REF_MS`].
    pub fn cpu_ms(&self) -> f64 {
        stats::median(&self.cost) * calib::REF_MS
    }
}

/// Runs `op(index)` back to back until `seconds` have passed and at
/// least `min_ops` ops ran (capped at [`MAX_WINDOW_S`]). Ops run in
/// blocks of about [`BLOCK_CPU_MS`], each after a run of the reference
/// computation. An `Err` marks the op failed; its latency still counts.
pub fn timed_loop(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(u32) -> Result<(), String>,
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    loop {
        let reference = calib::reference_ms();
        let (cpu, first) = (env::process_cpu_s(), w.op_ms.len());
        loop {
            let t = Instant::now();
            let outcome = op(w.op_ms.len() as u32 + 1);
            w.record(t.elapsed().as_secs_f64() * 1e3, outcome);
            let block_ms = (env::process_cpu_s() - cpu) * 1e3;
            let elapsed = start.elapsed().as_secs_f64();
            let done = (elapsed >= seconds && w.op_ms.len() >= min_ops) || elapsed >= MAX_WINDOW_S;
            if done || block_ms >= BLOCK_CPU_MS {
                w.cost
                    .push(block_ms / (w.op_ms.len() - first) as f64 / reference);
                if done {
                    w.secs = elapsed;
                    return w;
                }
                break;
            }
        }
    }
}

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPS`]), each time after a
/// run of the reference computation; returns the median set-up cost in
/// reference seconds (process CPU time over the reference run's, times
/// [`calib::REF_MS`]) and the last result (the one the run goes on
/// with). Each earlier result is handed to `teardown`, untimed, before
/// the next setup starts.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(f64, T), String> {
    let (mut times, mut costs) = (Vec::new(), Vec::new());
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < SETUP_MAX_REPS)
    {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let reference = calib::reference_ms();
        let (t, cpu) = (Instant::now(), env::process_cpu_s());
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
        costs.push((env::process_cpu_s() - cpu) / reference);
    }
    Ok((
        stats::median(&costs) * calib::REF_MS,
        last.expect("at least one setup"),
    ))
}

/// What a workload hands back to the harness.
pub struct Report {
    pub setup_s: f64,
    /// The untraced window the end-to-end metrics come from.
    pub window: Window,
    /// Ops and failures of the traced window (empty when untraced).
    pub traced: Window,
    /// The workload's own figures, by the names they are known by
    /// (printed, not bounded).
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
}

/// Extra median op latency the trace adds, as a share of the untraced
/// median.
pub fn overhead_frac(untraced: &Window, traced: &Window) -> f64 {
    stats::median(&traced.op_ms) / stats::median(&untraced.op_ms) - 1.0
}

/// A JSON object of `fields`, in order.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Compact JSON text of `value`: fields in order, numbers with every
/// digit (shortest round-trip form), non-finite numbers as `null`.
pub fn json_text(value: &Value) -> String {
    struct Tree<'a>(&'a Value);
    impl serde::Serialize for Tree<'_> {
        fn serialize(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Tree(value)).expect("a value tree always serializes")
}

fn metrics_json(metrics: &[Metric]) -> Value {
    object(metrics.iter().map(|m| {
        (
            m.name.as_str(),
            object([
                ("value", Value::Num(m.value)),
                ("unit", Value::Str(m.unit.into())),
            ]),
        )
    }))
}

fn end_to_end(report: &Report) -> Vec<Metric> {
    let w = &report.window;
    let failed = stats::failed_frac(w.attempted(), w.failed);
    vec![
        metric("setup_s", "s", report.setup_s),
        metric("ops_ok_frac", "frac", 1.0 - failed),
        metric("op_cpu_ms", "ms", w.cpu_ms()),
    ]
}

/// Fills in every [`PER_LAYER`] metric the workload did not reach with 0,
/// in the declared order.
fn per_layer(report: &Report) -> Vec<Metric> {
    let attempted = report.window.attempted() + report.traced.attempted();
    let failed = report.window.failed + report.traced.failed;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "ops_failed_frac" {
                stats::failed_frac(attempted, failed)
            } else {
                report
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value)
            };
            metric(name, unit, value)
        })
        .collect()
}

/// A directory under the benchmark's own package, where runs leave their
/// traces and scratch files.
pub fn out_dir(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name)
}

fn run(args: &Args) -> Result<Report, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: env::nproc(),
    };
    match args.workload.as_str() {
        "measured_sweep" => measured::run(&ctx),
        "analytic_repro" => analytic::run(&ctx),
        "serve_mixed" => serve::run(&ctx),
        "kernel_verify" => kernel::run(&ctx),
        other => unreachable!("parse admits only known workloads, got {other}"),
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {} setup failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let spans = trace::take();
    let stamp = env::stamp(&args.workload, args.seed, args.trace);
    if args.trace {
        let dir = out_dir("out");
        std::fs::create_dir_all(&dir)
            .and_then(|()| {
                let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
                std::fs::write(&path, trace::chrome_json(&spans, &stamp))?;
                eprintln!("wrote {} ({} spans)", path.display(), spans.len());
                Ok(())
            })
            .unwrap_or_else(|e| eprintln!("warning: trace not written: {e}"));
    }

    let w = &report.window;
    for e in w.errors.iter().chain(&report.traced.errors) {
        eprintln!("op failed: {e}");
    }
    let quartiles = stats::quartiles(&w.op_ms).map_or(Value::Null, |q| {
        Value::Array(q.iter().map(|&x| Value::Num(x)).collect())
    });
    let summary = object([
        ("ops", Value::UInt(w.attempted().into())),
        ("window_s", Value::Num(w.secs)),
        ("ops_per_s", Value::Num(w.ok_per_s())),
        ("op_ms_quartiles", quartiles),
        (
            "peak_rss_mb",
            env::peak_rss_mb().map_or(Value::Null, Value::Num),
        ),
    ]);
    println!("{}", json_text(&object([("env", stamp)])));
    println!(
        "{}",
        json_text(&object([
            ("workload_metrics", metrics_json(&report.named)),
            ("window", summary),
        ]))
    );

    let attempted = w.attempted() + report.traced.attempted();
    let failed = w.failed + report.traced.failed;
    let metrics = if args.trace {
        per_layer(&report)
    } else {
        end_to_end(&report)
    };
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        json_text(&object([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::UInt(attempted.into())),
            ("failed", Value::UInt(failed.into())),
            ("metrics", metrics_json(&metrics)),
        ]))
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve_mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve_mixed".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload kernel_verify --seed -1 --seconds 1 --trace 0",
            "--workload kernel_verify --seed 1 --seconds 0 --trace 0",
            "--workload kernel_verify --seed 1 --seconds 1 --trace 2",
            "--workload kernel_verify --seed 1 --seconds 1",
            "--workload kernel_verify --seed 1 --seconds 1 --trace",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// The metric lists in code are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = serde_json::parse(&text).expect("valid JSON");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = v
                .field(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |f: &str| m.field(f).unwrap().as_str().unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let workloads: Vec<String> = v
            .field("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.field("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_layer_metric_is_reported_once() {
        let mut window = Window::default();
        window.record(1.0, Ok(()));
        window.record(2.0, Err("bad".into()));
        window.cost.push(0.5);
        window.secs = 1.0;
        let mut traced = Window::default();
        traced.record(1.0, Ok(()));
        traced.record(2.0, Ok(()));
        traced.fail("a whole-window check".into());
        let report = Report {
            setup_s: 1.0,
            window,
            traced,
            named: vec![],
            layers: vec![metric("core.busy_s", "s", 0.5)],
        };
        let m = per_layer(&report);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(
            m.iter().find(|x| x.name == "core.busy_s").unwrap().value,
            0.5
        );
        assert_eq!(
            m.iter()
                .find(|x| x.name == "ops_failed_frac")
                .unwrap()
                .value,
            0.4
        );
        let names: std::collections::BTreeSet<_> = m.iter().map(|x| &x.name).collect();
        assert_eq!(names.len(), m.len());
        let e = end_to_end(&report);
        assert_eq!(e.len(), END_TO_END.len());
        assert_eq!(
            e.iter().find(|x| x.name == "ops_ok_frac").unwrap().value,
            0.5
        );
        assert_eq!(
            e.iter().find(|x| x.name == "op_cpu_ms").unwrap().value,
            0.5 * calib::REF_MS
        );
    }

    #[test]
    fn cpu_ms_is_the_median_cost_ratio_in_reference_ms() {
        let mut w = Window {
            cost: vec![3.0, 1.0, 2.0],
            ..Default::default()
        };
        w.merge(Window {
            cost: vec![2.5, 100.0],
            ..Default::default()
        });
        assert_eq!(w.cpu_ms(), 2.5 * calib::REF_MS);
    }

    #[test]
    fn timed_loop_counts_failures_and_meets_the_minimum() {
        let w = timed_loop(0.0, 5, |i| {
            if i % 2 == 0 {
                Err(format!("op {i}"))
            } else {
                Ok(())
            }
        });
        assert_eq!(w.attempted(), 5);
        assert_eq!(w.failed, 2);
        assert_eq!(w.errors, vec!["op 2".to_string(), "op 4".to_string()]);
        // Five ops far under a block's CPU time: one block, whose ratio
        // is finite and not negative.
        assert_eq!(w.cost.len(), 1);
        assert!(w.cost[0].is_finite() && w.cost[0] >= 0.0);
    }

    #[test]
    fn timed_loop_starts_a_block_per_block_cpu_ms() {
        let spin = || {
            let t = env::process_cpu_s();
            while (env::process_cpu_s() - t) * 1e3 < BLOCK_CPU_MS / 2.0 {}
        };
        let w = timed_loop(0.0, 6, |_| {
            spin();
            Ok(())
        });
        // Two half-block ops fill a block: six ops, three blocks, each
        // costing about half a block in reference runs.
        assert_eq!(w.cost.len(), 3);
        assert!(w.cost.iter().all(|&c| c > 1.0), "{:?}", w.cost);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let text = json_text(&object([
            ("name", Value::Str("a \"quoted\" name".into())),
            ("x", Value::Num(0.1 + 0.2)),
            ("inner", object([("nan", Value::Num(f64::NAN))])),
        ]));
        let v = serde_json::parse(&text).expect("valid JSON");
        assert_eq!(
            v.field("name").unwrap().as_str().unwrap(),
            "a \"quoted\" name"
        );
        assert_eq!(v.field("x").unwrap(), &Value::Num(0.1 + 0.2));
        assert_eq!(
            v.field("inner").unwrap().field("nan").unwrap(),
            &Value::Null
        );
    }
}
