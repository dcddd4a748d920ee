//! End-to-end determinism and robustness suite for the sweep daemon.
//!
//! The serving-correctness contract under test: the NDJSON body of a
//! `POST /sweep` response is a pure function of the request — cold
//! compute, warm cache hit, a bypassed (`no_cache`) recomputation, eight
//! concurrent clients, and a daemon restarted over a torn persistent
//! store must all produce bitwise-identical bytes.

use enprop_serve::http::{http_request, read_response};
use enprop_serve::{run_load, LoadOptions, ServeConfig, Server, SweepRequest};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn temp_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "enprop-serve-it-{}-{label}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_config() -> ServeConfig {
    ServeConfig { threads: 2, read_timeout: Duration::from_millis(500), cache_dir: None }
}

/// A small but real sweep: k40c N=256, 2 products.
fn request_body(seed: u64, no_cache: bool) -> String {
    SweepRequest {
        arch: "k40c".to_string(),
        n: 256,
        products: 2,
        seed,
        chunk: 8,
        no_cache,
    }
    .to_json()
}

/// Starts a daemon on an ephemeral loopback port. A bind failure fails the
/// test: these tests need a socket, and a skip would pass silently.
fn start_server(config: ServeConfig) -> Server {
    Server::start(config, "127.0.0.1:0")
        .unwrap_or_else(|e| panic!("cannot bind a loopback socket: {e}"))
}

fn post_sweep(server: &Server, body: &str) -> (u16, Option<String>, Vec<u8>) {
    let response = http_request(server.addr(), "POST", "/sweep", body.as_bytes())
        .expect("sweep request should complete");
    let cache = response.header("X-Cache").map(str::to_string);
    (response.status, cache, response.body)
}

#[test]
fn cold_warm_and_bypassed_responses_are_bitwise_identical() {
    let server = start_server(quick_config());

    let (status, cache, cold) = post_sweep(&server, &request_body(7, false));
    assert_eq!(status, 200);
    assert_eq!(cache.as_deref(), Some("miss"));
    assert!(!cold.is_empty());
    let last_line = cold.split(|&b| b == b'\n').rfind(|l| !l.is_empty()).unwrap();
    assert!(last_line.starts_with(b"{\"done\":true"));

    let (status, cache, warm) = post_sweep(&server, &request_body(7, false));
    assert_eq!(status, 200);
    assert_eq!(cache.as_deref(), Some("hit"));
    assert_eq!(cold, warm, "cache hit must replay the exact bytes");

    // `no_cache` bypasses the cache read *and* write: the daemon recomputes
    // from scratch and must still produce the same bytes.
    let (status, cache, fresh) = post_sweep(&server, &request_body(7, true));
    assert_eq!(status, 200);
    assert_eq!(cache.as_deref(), Some("bypass"));
    assert_eq!(cold, fresh, "recomputation must equal the cached body bitwise");

    // A different seed is a different key and different bytes.
    let (_, cache, other) = post_sweep(&server, &request_body(8, false));
    assert_eq!(cache.as_deref(), Some("miss"));
    assert_ne!(cold, other);

    let stats = server.stats();
    assert_eq!(stats.cache_misses, 2, "seed 7 and seed 8 each computed once");
    assert!(stats.cache_hits >= 1);
    server.shutdown();
}

#[test]
fn eight_concurrent_clients_get_identical_bodies() {
    let server = start_server(quick_config());
    let addr = server.addr();
    let body = request_body(21, false);
    let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let body = body.clone();
                scope.spawn(move || {
                    let response = http_request(addr, "POST", "/sweep", body.as_bytes())
                        .expect("concurrent sweep should complete");
                    assert_eq!(response.status, 200);
                    response.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for pair in bodies.windows(2) {
        assert_eq!(pair[0], pair[1], "all concurrent clients must see the same bytes");
    }
    let stats = server.stats();
    assert_eq!(stats.cache_misses, 1, "identical requests must coalesce onto one computation");
    assert_eq!(stats.sweeps, 8);
    server.shutdown();
}

#[test]
fn load_generator_reports_hits_and_identical_hot_bodies() {
    let server = start_server(quick_config());
    let options = LoadOptions {
        clients: 4,
        requests_per_client: 4,
        hot_keys: 2,
        seed_base: 42,
        arch: "k40c".to_string(),
        n: 256,
        products: 2,
        chunk: 8,
    };
    let report = run_load(server.addr(), &options);
    assert_eq!(report.requests, 16);
    assert_eq!(report.ok, 16, "errors: {:?}", report.errors);
    assert!(report.hot_identical);
    assert!(report.hits > 0, "hot keys must produce cache hits");
    assert!(report.misses >= 2, "cold keys must miss");
    assert!(report.cache_hit_rate > 0.0);
    server.shutdown();
}

#[test]
fn malformed_and_invalid_requests_get_typed_400s_and_the_daemon_survives() {
    let server = start_server(quick_config());

    // Bad JSON body.
    let r = http_request(server.addr(), "POST", "/sweep", b"this is not json").unwrap();
    assert_eq!(r.status, 400);
    let text = String::from_utf8_lossy(&r.body).to_string();
    assert!(text.contains("\"error\":\"bad-request\""), "{text}");

    // Valid JSON, invalid field values.
    for body in [
        &br#"{"arch":"h100","n":256,"products":2}"#[..],
        &br#"{"arch":"k40c","n":0,"products":2}"#[..],
        &br#"{"arch":"k40c","n":256,"products":999}"#[..],
        &br#"{"arch":"k40c","n":256}"#[..],
    ] {
        let r = http_request(server.addr(), "POST", "/sweep", body).unwrap();
        assert_eq!(r.status, 400, "{}", String::from_utf8_lossy(body));
    }

    // Unknown route and wrong method.
    let r = http_request(server.addr(), "GET", "/nope", b"").unwrap();
    assert_eq!(r.status, 404);
    let r = http_request(server.addr(), "GET", "/sweep", b"").unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(r.header("Allow"), Some("POST"));

    // After all that abuse, the daemon still serves a real sweep.
    let (status, _, body) = post_sweep(&server, &request_body(3, false));
    assert_eq!(status, 200);
    assert!(!body.is_empty());

    let stats = server.stats();
    assert!(stats.bad_requests >= 7);
    assert_eq!(stats.panics, 0);
    server.shutdown();
}

/// A torn request — the client dies mid-head or mid-body — must get a
/// clean typed 400, never hang a handler or kill the daemon.
#[test]
fn torn_requests_get_a_typed_400_without_wedging_the_daemon() {
    let server = start_server(quick_config());

    // Torn head: the request line stops mid-token and the client half-closes.
    {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(b"POST /swe").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let response = read_response(&mut stream).expect("daemon should answer the torn head");
        assert_eq!(response.status, 400);
        let text = String::from_utf8_lossy(&response.body).to_string();
        assert!(text.contains("\"error\":\"truncated\""), "{text}");
    }

    // Torn body: headers promise 100 bytes, the client sends 10 and dies.
    {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
            .write_all(b"POST /sweep HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"arch\":\"k")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let response = read_response(&mut stream).expect("daemon should answer the torn body");
        assert_eq!(response.status, 400);
        let text = String::from_utf8_lossy(&response.body).to_string();
        assert!(text.contains("\"error\":\"truncated\""), "{text}");
    }

    // A stalled client (connects, sends nothing, keeps the socket open) is
    // bounded by the read timeout and answered 408.
    {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(b"POST /sweep HTTP/1.1\r\n").unwrap();
        // Don't shutdown: just stop sending.
        let response = read_response(&mut stream).expect("daemon should time the stall out");
        assert_eq!(response.status, 408);
    }

    // The daemon survived all three and still serves.
    let (status, _, _) = post_sweep(&server, &request_body(5, false));
    assert_eq!(status, 200);
    server.shutdown();
}

/// The persistent store round-trips across a daemon restart, and a torn
/// tail appended by a "crash" is discarded without losing the clean prefix
/// — the replayed entry serves bitwise-identically as a hit.
#[test]
fn persistent_cache_survives_restart_and_torn_tail() {
    let dir = temp_dir("restart");
    let config = ServeConfig { cache_dir: Some(dir.clone()), ..quick_config() };

    let server_a = start_server(config.clone());
    let (status, cache, original) = post_sweep(&server_a, &request_body(11, false));
    assert_eq!(status, 200);
    assert_eq!(cache.as_deref(), Some("miss"));
    server_a.shutdown();

    // Crash mid-append: garbage and a half-written frame land after the
    // durable entry.
    let log = dir.join("cache.log");
    let clean_len = std::fs::metadata(&log).unwrap().len();
    {
        let mut file = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
        file.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01]).unwrap();
    }

    let server_b = start_server(config);
    let report = server_b.cache_load_report();
    assert_eq!(report.replayed, 1, "the durable entry must replay");
    assert!(report.torn_tail_bytes > 0, "the torn tail must be noticed");
    assert_eq!(
        std::fs::metadata(&log).unwrap().len(),
        clean_len,
        "the torn tail must be truncated away on open"
    );

    let (status, cache, replayed) = post_sweep(&server_b, &request_body(11, false));
    assert_eq!(status, 200);
    assert_eq!(cache.as_deref(), Some("hit"), "the replayed entry must serve as a hit");
    assert_eq!(original, replayed, "replayed bytes must be bitwise-identical");

    // The replay health is operator-visible through `GET /stats`.
    let stats = server_b.stats();
    assert_eq!(stats.cache_replayed, 1);
    assert_eq!(stats.cache_torn_tail_bytes, report.torn_tail_bytes);
    let r = http_request(server_b.addr(), "GET", "/stats", b"").unwrap();
    assert_eq!(r.status, 200);
    let text = String::from_utf8_lossy(&r.body).to_string();
    assert!(text.contains("\"cache_replayed\": 1"), "{text}");
    assert!(text.contains("\"cache_torn_tail_bytes\": 5"), "{text}");
    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthz_and_stats_answer() {
    let server = start_server(quick_config());
    let r = http_request(server.addr(), "GET", "/healthz", b"").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, b"ok\n");

    let (status, _, _) = post_sweep(&server, &request_body(2, false));
    assert_eq!(status, 200);

    let r = http_request(server.addr(), "GET", "/stats", b"").unwrap();
    assert_eq!(r.status, 200);
    let text = String::from_utf8_lossy(&r.body).to_string();
    assert!(text.contains("\"sweeps\": 1"), "{text}");
    assert!(text.contains("\"cache_misses\": 1"), "{text}");
    server.shutdown();
}

/// An `enprop-serve` daemon in a child process, killed on drop — so a
/// request that aborts the daemon fails this test instead of the harness.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    // Held open so the daemon's later banner lines don't hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn() -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_enprop-serve"))
            .args(["--addr", "127.0.0.1:0", "--threads", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn enprop-serve");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("enprop-serve: listening on http://")
            .unwrap_or_else(|| panic!("unexpected daemon banner {line:?}"))
            .parse()
            .unwrap();
        Daemon { child, addr, _stdout: stdout }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A body of 60 000 `[` fits under the body cap but nests far deeper than
/// the JSON parser allows. It must be a typed 400, not a stack overflow
/// that takes the daemon down.
#[test]
fn deeply_nested_json_body_gets_a_400_and_the_daemon_keeps_serving() {
    let mut daemon = Daemon::spawn();
    let body = vec![b'['; 60_000];
    let r = http_request(daemon.addr, "POST", "/sweep", &body).expect("daemon should answer");
    assert_eq!(r.status, 400);
    let text = String::from_utf8_lossy(&r.body).to_string();
    assert!(text.contains("nesting deeper than"), "{text}");

    let r = http_request(daemon.addr, "GET", "/healthz", b"").expect("daemon should still serve");
    assert_eq!(r.status, 200);
    assert_eq!(daemon.child.try_wait().unwrap(), None, "the daemon must still be running");
}
