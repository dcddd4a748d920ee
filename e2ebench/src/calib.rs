//! The reference computation `op_cpu_ms` is scaled by.
//!
//! On a shared host the same CPU-bound code runs at speeds that differ by
//! up to 1.8× for minutes, longer than a run (see `README.md`). CPU time
//! removes waiting for a vCPU, but not a vCPU that runs slower. So every
//! few ops the harness also runs this fixed computation and reports an
//! op's CPU time as a multiple of the computation's CPU time just before
//! it, converted back to milliseconds with [`REF_MS`]. The computation
//! lives here, not in the program, so no change to the program moves it.

use crate::env;

/// The reference computation's CPU time on the host the benchmark was
/// sized on (Intel Xeon, 2 vCPUs), ms; `op_cpu_ms` is in these
/// milliseconds.
pub const REF_MS: f64 = 3.0;

/// Standard normal draws per reference run.
const REF_DRAWS: u64 = 100_000;

/// Box–Muller normal draws from a xorshift stream, summed: the same kind
/// of scalar floating-point work (logarithm, square root, cosine) that
/// the simulated meter spends the measured sweeps on.
#[inline(never)]
fn gaussian_sum(draws: u64) -> f64 {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut sum = 0.0;
    for _ in 0..draws {
        let (u1, u2) = (next() + f64::EPSILON, next());
        sum += (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
    sum
}

/// Runs the reference computation once on the calling thread and returns
/// its CPU time, ms.
pub fn reference_ms() -> f64 {
    let t = env::thread_cpu_s();
    std::hint::black_box(gaussian_sum(std::hint::black_box(REF_DRAWS)));
    (env::thread_cpu_s() - t) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic_and_takes_time() {
        assert_eq!(gaussian_sum(1000).to_bits(), gaussian_sum(1000).to_bits());
        // A sum of standard normals: mean 0, sd sqrt(n).
        assert!(gaussian_sum(10_000).abs() < 5.0 * 100.0);
        assert!(reference_ms() > 0.0);
    }
}
