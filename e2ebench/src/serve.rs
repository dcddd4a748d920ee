//! `serve_mixed`: an in-process sweep daemon with a persistent cache and
//! one sweep thread per request, driven by `nproc` closed-loop clients at
//! 7 hot : 1 cold. Hot keys come from a pool warmed during set-up and
//! replay from the cache; every cold key is new, so it runs a metered
//! sweep and appends a record to `cache.log`.

use crate::inputs::{cold_seed, hot_seeds, is_cold};
use crate::measured::{layer_metrics as sweep_layer_metrics, to_json, traced_sweep};
use crate::{
    metric, out_dir, overhead_frac, repeat_setup, stats, trace, Ctx, Metric, Report, Window,
};
use enprop_apps::{GpuMatMulApp, SweepExecutor};
use enprop_gpusim::GpuArch;
use enprop_serve::cache::Lookup;
use enprop_serve::http::{http_request, read_response, Response};
use enprop_serve::{ResultCache, ServeConfig, Server, SweepRequest};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The sweep every request asks for; only the seed varies.
const N: usize = 512;
const PRODUCTS: usize = 4;
const CHUNK: usize = 16;
/// Hot keys warmed during set-up.
const HOT_POOL: usize = 4;
/// The hit and miss percentiles reported; each timed phase holds enough
/// hits and misses for them to have [`stats::TAIL_BEYOND`] samples beyond.
const HIT_TAIL: u32 = 99;
const MISS_TAIL: u32 = 90;
/// Cold keys swept directly, outside the daemon, for `serve.miss.sweep_ms`.
const DIRECT_SWEEPS: usize = 6;
/// Length of the slices the load is costed in: each slice's process CPU
/// time per completed request over a reference run at its start.
const COST_SLICE: Duration = Duration::from_millis(500);

fn request(seed: u64) -> SweepRequest {
    SweepRequest {
        arch: "k40c".into(),
        n: N,
        products: PRODUCTS,
        seed,
        chunk: CHUNK,
        no_cache: false,
    }
}

fn app() -> GpuMatMulApp {
    GpuMatMulApp::new(GpuArch::k40c(), PRODUCTS)
}

/// Checks one response: a 200 with the expected `X-Cache` header; a hot
/// body equal to its warm-up bytes; a cold body whose final line is the
/// complete sweep.
fn check(resp: &Response, expect: &str, warm: Option<&[u8]>, configs: usize) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!(
            "status {}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    if resp.header("X-Cache") != Some(expect) {
        return Err(format!(
            "X-Cache {:?}, expected {expect:?}",
            resp.header("X-Cache")
        ));
    }
    if let Some(warm) = warm {
        return if resp.body == warm {
            Ok(())
        } else {
            Err("hot body differs from its warm-up bytes".into())
        };
    }
    let text = std::str::from_utf8(&resp.body).map_err(|_| "body is not UTF-8")?;
    let last = text.lines().rfind(|l| !l.is_empty()).ok_or("empty body")?;
    let v = serde_json::parse(last).map_err(|e| format!("final line: {e}"))?;
    let total = v.field("total").ok().and_then(|t| match t {
        serde::Value::UInt(n) => Some(*n as usize),
        _ => None,
    });
    match (v.field("done"), total) {
        (Ok(serde::Value::Bool(true)), Some(t)) if t == configs => Ok(()),
        _ => Err(format!(
            "final line is not a complete {configs}-config sweep"
        )),
    }
}

/// A running daemon with its warmed hot pool.
struct Daemon {
    server: Server,
    dir: PathBuf,
    hot: Vec<SweepRequest>,
    /// Warm-up bytes of each hot key.
    warm: Vec<Vec<u8>>,
}

impl Daemon {
    /// Starts the daemon on a fresh cache directory and warms the pool.
    /// A socket that cannot bind fails the workload.
    fn start(dir: PathBuf, hot: &[u64], configs: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            threads: 1,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let server = Server::start(config, "127.0.0.1:0")
            .map_err(|e| format!("cannot start the daemon on loopback: {e}"))?;
        let hot: Vec<SweepRequest> = hot.iter().map(|&s| request(s)).collect();
        let mut warm = Vec::new();
        for r in &hot {
            let resp = http_request(server.addr(), "POST", "/sweep", r.to_json().as_bytes());
            match resp.and_then(|resp| check(&resp, "miss", None, configs).map(|()| resp)) {
                Ok(resp) => warm.push(resp.body),
                Err(e) => {
                    server.shutdown();
                    return Err(format!("warming hot key {}: {e}", r.seed));
                }
            }
        }
        Ok(Daemon {
            server,
            dir,
            hot,
            warm,
        })
    }

    fn stop(self) -> PathBuf {
        self.server.shutdown();
        self.dir
    }
}

/// Per-request phase timings of the traced client.
#[derive(Debug, Clone, Copy)]
struct Phases {
    connect_ms: f64,
    ttfb_ms: f64,
    body_ms: f64,
    bytes: f64,
}

/// `http_request`, timed phase by phase from the client side: connect,
/// send until the first response byte, and the rest of the body.
fn timed_request(addr: SocketAddr, body: &[u8]) -> Result<(Response, Phases), String> {
    let t0 = Instant::now();
    let mut stream = {
        let _s = trace::span("serve.http.connect");
        TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?
    };
    let connected = t0.elapsed();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let mut raw = Vec::with_capacity(16 * 1024);
    {
        let _s = trace::span("serve.http.wait");
        let head = format!(
            "POST /sweep HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream
            .write_all(head.as_bytes())
            .map_err(|e| format!("write head: {e}"))?;
        stream
            .write_all(body)
            .map_err(|e| format!("write body: {e}"))?;
        let mut first = [0u8; 1];
        stream
            .read_exact(&mut first)
            .map_err(|e| format!("first byte: {e}"))?;
        raw.push(first[0]);
    }
    let first_byte = t0.elapsed();
    {
        let _s = trace::span("serve.http.body");
        stream
            .read_to_end(&mut raw)
            .map_err(|e| format!("read: {e}"))?;
    }
    let done = t0.elapsed();
    let resp = read_response(&mut raw.as_slice())?;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let phases = Phases {
        connect_ms: ms(connected),
        ttfb_ms: ms(first_byte - connected),
        body_ms: ms(done - first_byte),
        bytes: resp.body.len() as f64,
    };
    Ok((resp, phases))
}

/// One closed-loop phase's results.
#[derive(Default)]
struct Load {
    window: Window,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    hit_phases: Vec<Phases>,
    miss_phases: Vec<Phases>,
    /// Cold seeds in the order clients sent them.
    cold_seeds: Vec<u64>,
}

/// Runs `clients` closed-loop clients until `secs` have passed and the
/// phase holds enough hits and misses for [`HIT_TAIL`] and [`MISS_TAIL`]
/// to be measured. Each client's
/// `r`-th request is cold when [`is_cold`]`(first + r)`. Meanwhile this
/// thread costs the load in slices of [`COST_SLICE`].
fn load(d: &Daemon, ctx: &Ctx, secs: f64, first: u64, traced: bool, configs: usize) -> Load {
    let (stop, hits, misses, done) = (
        AtomicBool::new(false),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    let mut cost = Vec::new();
    let out = Mutex::new(Load::default());
    let op_ids = AtomicUsize::new(1);
    let addr = d.server.addr();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..ctx.threads {
            let (stop, hits, misses, done, out, op_ids) =
                (&stop, &hits, &misses, &done, &out, &op_ids);
            scope.spawn(move || {
                let mut mine = Load::default();
                let mut r = first;
                while !stop.load(Ordering::SeqCst) {
                    let cold = is_cold(r);
                    let (req, warm, expect) = if cold {
                        let seed = cold_seed(ctx.seed, client, r);
                        mine.cold_seeds.push(seed);
                        (request(seed), None, "miss")
                    } else {
                        let k = (client + r as usize) % d.hot.len();
                        (d.hot[k].clone(), Some(d.warm[k].as_slice()), "hit")
                    };
                    r += 1;
                    let body = req.to_json();
                    let t = Instant::now();
                    let result = if traced {
                        let op = op_ids.fetch_add(1, Ordering::Relaxed) as u32;
                        let _op = trace::op_span(
                            if cold {
                                "serve.http.miss"
                            } else {
                                "serve.http.hit"
                            },
                            op,
                        );
                        timed_request(addr, body.as_bytes()).map(|(resp, p)| (resp, Some(p)))
                    } else {
                        http_request(addr, "POST", "/sweep", body.as_bytes())
                            .map(|resp| (resp, None))
                    };
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    done.fetch_add(1, Ordering::SeqCst);
                    match result
                        .and_then(|(resp, p)| check(&resp, expect, warm, configs).map(|()| p))
                    {
                        Ok(p) if cold => {
                            mine.window.record(ms, Ok(()));
                            misses.fetch_add(1, Ordering::SeqCst);
                            mine.miss_ms.push(ms);
                            mine.miss_phases.extend(p);
                        }
                        Ok(p) => {
                            mine.window.record(ms, Ok(()));
                            hits.fetch_add(1, Ordering::SeqCst);
                            mine.hit_ms.push(ms);
                            mine.hit_phases.extend(p);
                        }
                        Err(e) => mine
                            .window
                            .record(ms, Err(format!("{expect} key {}: {e}", req.seed))),
                    }
                }
                let mut all = out.lock().expect("a client panicked while merging");
                all.window.merge(mine.window);
                all.hit_ms.extend(mine.hit_ms);
                all.miss_ms.extend(mine.miss_ms);
                all.hit_phases.extend(mine.hit_phases);
                all.miss_phases.extend(mine.miss_phases);
                all.cold_seeds.extend(mine.cold_seeds);
            });
        }
        let mut slice = Slice::start(&done);
        loop {
            std::thread::sleep(Duration::from_millis(5));
            let elapsed = start.elapsed().as_secs_f64();
            let enough = stats::tail_ok(hits.load(Ordering::SeqCst), HIT_TAIL)
                && stats::tail_ok(misses.load(Ordering::SeqCst), MISS_TAIL);
            let finished = (elapsed >= secs && enough) || elapsed >= crate::MAX_WINDOW_S;
            if finished || slice.began.elapsed() >= COST_SLICE {
                cost.extend(slice.cost(&done));
                slice = Slice::start(&done);
            }
            if finished {
                stop.store(true, Ordering::SeqCst);
                break;
            }
        }
    });
    let mut l = out.into_inner().expect("a client panicked while merging");
    l.window.secs = start.elapsed().as_secs_f64();
    l.window.cost = cost;
    l
}

/// One slice of a load: the reference computation's CPU time at its
/// start, then the process CPU time and completed requests from there.
struct Slice {
    reference_ms: f64,
    began: Instant,
    cpu_s: f64,
    done: usize,
}

impl Slice {
    fn start(done: &AtomicUsize) -> Slice {
        let reference_ms = crate::calib::reference_ms();
        Slice {
            reference_ms,
            began: Instant::now(),
            cpu_s: crate::env::process_cpu_s(),
            done: done.load(Ordering::SeqCst),
        }
    }

    /// Process CPU time per request completed in the slice, over the
    /// reference time; `None` when no request completed.
    fn cost(&self, done: &AtomicUsize) -> Option<f64> {
        let requests = done.load(Ordering::SeqCst) - self.done;
        let cpu_ms = (crate::env::process_cpu_s() - self.cpu_s) * 1e3;
        (requests > 0).then(|| cpu_ms / requests as f64 / self.reference_ms)
    }
}

fn p(values: &[f64], pct: u32) -> f64 {
    stats::percentile(values, pct).unwrap_or(f64::NAN)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let configs = app().configs(N).len();
    let hot = hot_seeds(ctx.seed, HOT_POOL);
    let dir = |k: usize| out_dir("work").join(format!("serve-{}-{k}", std::process::id()));
    // Set-up: daemon start, cache open and hot-key warm-up, on a fresh
    // directory each time; every instance but the last is stopped.
    let mut k = 0;
    let (setup_s, daemon) = repeat_setup(
        || {
            k += 1;
            Daemon::start(dir(k), &hot, configs)
        },
        |d: Daemon| remove(&d.stop()),
    )?;

    let untraced = load(&daemon, ctx, ctx.phase_secs(), 0, false, configs);
    let named = vec![
        metric("serve_req_per_s", "1/s", untraced.window.ok_per_s()),
        metric("serve_hit_p50_ms", "ms", p(&untraced.hit_ms, 50)),
        metric("serve_hit_p99_ms", "ms", p(&untraced.hit_ms, HIT_TAIL)),
        metric("serve_miss_p50_ms", "ms", p(&untraced.miss_ms, 50)),
        metric("serve_miss_p90_ms", "ms", p(&untraced.miss_ms, MISS_TAIL)),
        metric("serve_hits", "count", untraced.hit_ms.len() as f64),
        metric("serve_misses", "count", untraced.miss_ms.len() as f64),
    ];
    let tails_measured = stats::tail_ok(untraced.hit_ms.len(), HIT_TAIL)
        && stats::tail_ok(untraced.miss_ms.len(), MISS_TAIL);
    let mut window = untraced.window;
    if !tails_measured {
        window.fail(format!(
            "{} hits and {} misses leave fewer than {} samples beyond the hit p99 or miss p90",
            untraced.hit_ms.len(),
            untraced.miss_ms.len(),
            stats::TAIL_BEYOND
        ));
    }
    if !ctx.trace {
        remove(&daemon.stop());
        return Ok(Report {
            setup_s,
            window,
            traced: Default::default(),
            named,
            layers: vec![],
        });
    }

    // Traced phase: cold request numbers continue past the untraced
    // phase's, so every cold key is still new.
    let traced = load(&daemon, ctx, ctx.phase_secs(), 1 << 40, true, configs);
    let request_spans = trace::snapshot();
    let stats_snapshot = daemon.server.stats();
    let (hot_keys, warm) = (daemon.hot.clone(), daemon.warm.clone());
    let dir = daemon.stop();
    let mut traced_window = traced.window;
    let mut layers = cache_metrics(&dir, &hot_keys, &warm).unwrap_or_else(|e| {
        traced_window.fail(e);
        Vec::new()
    });
    remove(&dir);

    let med = |phases: &[Phases], f: fn(&Phases) -> f64| {
        stats::median(&phases.iter().map(f).collect::<Vec<_>>())
    };
    for (kind, phases) in [("hit", &traced.hit_phases), ("miss", &traced.miss_phases)] {
        layers.push(metric(
            format!("serve.http.{kind}.connect_ms"),
            "ms",
            med(phases, |p| p.connect_ms),
        ));
        layers.push(metric(
            format!("serve.http.{kind}.ttfb_ms"),
            "ms",
            med(phases, |p| p.ttfb_ms),
        ));
        layers.push(metric(
            format!("serve.http.{kind}.body_ms"),
            "ms",
            med(phases, |p| p.body_ms),
        ));
        layers.push(metric(
            format!("serve.http.{kind}.bytes"),
            "B",
            med(phases, |p| p.bytes),
        ));
    }
    let lookup_ms = layers
        .iter()
        .find(|m| m.name == "serve.cache.lookup_us")
        .map_or(0.0, |m| m.value * 1e-3);
    layers.push(metric(
        "serve.hit_unexplained_ms",
        "ms",
        stats::median(&traced.hit_ms) - lookup_ms - med(&traced.hit_phases, |p| p.body_ms),
    ));
    let s = stats_snapshot;
    let lookups = (s.cache_hits + s.cache_misses) as f64;
    layers.extend([
        metric("serve.cache.hits", "count", s.cache_hits as f64),
        metric("serve.cache.misses", "count", s.cache_misses as f64),
        metric("serve.cache.coalesced", "count", s.cache_coalesced as f64),
        metric(
            "serve.cache.hit_ratio",
            "frac",
            s.cache_hits as f64 / lookups,
        ),
        metric("serve.daemon.requests", "count", s.requests as f64),
        metric("serve.daemon.sweeps", "count", s.sweeps as f64),
        metric("serve.daemon.bad_requests", "count", s.bad_requests as f64),
        metric("serve.daemon.panics", "count", s.panics as f64),
        metric(
            "trace.overhead_frac",
            "frac",
            overhead_frac(&window, &traced_window),
        ),
    ]);
    // Coverage: the connect, wait and body spans' self times over the
    // requests' wall time.
    layers.push(metric(
        "trace.coverage_frac",
        "frac",
        trace::op_coverage(&request_spans),
    ));

    layers.extend(direct_sweeps(&traced.cold_seeds, &mut traced_window));
    Ok(Report {
        setup_s,
        window,
        traced: traced_window,
        named,
        layers,
    })
}

fn remove(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("warning: cannot remove {}: {e}", dir.display());
    }
}

/// Replays the run's cache log after shutdown and times hot-key lookups
/// on it.
fn cache_metrics(
    dir: &Path,
    hot: &[SweepRequest],
    warm: &[Vec<u8>],
) -> Result<Vec<Metric>, String> {
    let log_bytes = std::fs::metadata(dir.join("cache.log"))
        .map_err(|e| format!("cache.log: {e}"))?
        .len();
    let t = Instant::now();
    let cache = ResultCache::open(dir).map_err(|e| format!("replaying cache.log: {e}"))?;
    let replay_s = t.elapsed().as_secs_f64();
    let mut lookup_us = Vec::new();
    for _ in 0..100 {
        for (req, warm) in hot.iter().zip(warm) {
            let key = req.canonical_key();
            let t = Instant::now();
            let hit = cache.lookup_or_begin(&key);
            lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
            match hit {
                Lookup::Hit(body) if body.as_slice() == warm.as_slice() => {}
                _ => return Err(format!("replayed cache lost hot key {}", req.seed)),
            }
        }
    }
    Ok(vec![
        metric("serve.cache.log_bytes", "B", log_bytes as f64),
        metric("serve.cache.replay_s", "s", replay_s),
        metric("serve.cache.lookup_us", "us", stats::median(&lookup_us)),
    ])
}

/// Sweeps a sample of the traced phase's cold keys directly on one
/// thread, as the daemon does for a miss: timed plainly for
/// `serve.miss.sweep_ms`, then traced for the meter and protocol metrics,
/// whose output must equal the plain sweep's bitwise.
fn direct_sweeps(cold: &[u64], window: &mut Window) -> Vec<Metric> {
    let app = app();
    let sample = &cold[..cold.len().min(DIRECT_SWEEPS)];
    let mut ms = Vec::new();
    let mut plain = Vec::new();
    for &seed in sample {
        let t = Instant::now();
        plain.push(app.sweep_measured(N, &SweepExecutor::serial(seed)));
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let before = trace::snapshot().len();
    let mut unconverged = 0;
    for (i, (&seed, plain)) in sample.iter().zip(&plain).enumerate() {
        let points = {
            let _op = trace::op_span("op", 1_000_000 + i as u32);
            traced_sweep(&app, N, &SweepExecutor::serial(seed))
        };
        unconverged += points.iter().filter(|p| !p.converged).count();
        if to_json(&points) != to_json(plain) {
            window.fail(format!(
                "traced direct sweep of seed {seed} differs from the plain one"
            ));
        }
    }
    let spans = &trace::snapshot()[before..];
    let mut out: Vec<Metric> = sweep_layer_metrics(spans, 1, sample.len() as f64)
        .into_iter()
        .filter(|m| {
            ["power.meter.", "stats.protocol.", "gpusim.model."]
                .iter()
                .any(|p| m.name.starts_with(p))
        })
        .collect();
    out.push(metric(
        "stats.protocol.unconverged",
        "count",
        unconverged as f64 / sample.len() as f64,
    ));
    out.push(metric("serve.miss.sweep_ms", "ms", stats::median(&ms)));
    out
}
