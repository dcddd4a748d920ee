//! The environment stamp every result carries, and process memory.

use crate::object;
use serde::Value;

/// Worker threads and client connections a workload may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// JSON object naming everything that decides whether two runs are
/// comparable: cores, SIMD tiers, seed, compiler and source revision.
pub fn stamp(workload: &str, seed: u64, trace: bool) -> Value {
    let text = |s: &str| Value::Str(s.to_string());
    object([
        ("workload", text(workload)),
        ("seed", Value::UInt(seed.into())),
        ("trace", Value::Bool(trace)),
        ("nproc", Value::UInt(nproc() as u128)),
        (
            "emulator_simd",
            text(enprop_gpusim::emulator::SimdPath::detect().as_str()),
        ),
        ("kernels_simd", text(enprop_kernels::simd_dispatch())),
        ("rustc", text(env!("E2EBENCH_RUSTC"))),
        ("commit", text(&commit())),
    ])
}

/// The source revision, when the benchmark runs inside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// CPU time this process has used so far, seconds: every thread's,
/// threads that have ended included.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far, seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: std::os::raw::c_int = 3;

/// Reads one of Linux's CPU-time clocks. They count only time a thread
/// ran: not time it waited for a vCPU, nor time the host gave this
/// guest's vCPUs to others (steal).
fn cpu_clock_s(clock: std::os::raw::c_int) -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `long`s on
    // Linux), and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_names_every_comparability_field() {
        let text = crate::json_text(&stamp("analytic_repro", 7, false));
        let v = serde_json::parse(&text).expect("valid JSON");
        for key in [
            "workload",
            "seed",
            "nproc",
            "emulator_simd",
            "kernels_simd",
            "rustc",
            "commit",
        ] {
            assert!(v.field(key).is_ok(), "missing {key}");
        }
    }

    #[test]
    fn cpu_clocks_count_work_and_not_sleep() {
        let (p, t) = (process_cpu_s(), thread_cpu_s());
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_cpu_s() - t;
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let worked = thread_cpu_s() - t - slept;
        assert!(slept < 0.01, "sleeping used {slept} s of CPU");
        assert!(worked > 0.001, "20 M multiply-adds used {worked} s of CPU");
        assert!(process_cpu_s() - p >= worked);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().expect("VmHWM readable") > 0.0);
        }
    }
}
