//! Every input a workload derives from its `--seed`. The program sees
//! only what these functions produce.

use enprop_apps::SweepExecutor;

/// SplitMix64: one well-mixed 64-bit value per `(seed, index)`.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates permutation of `0..len`.
pub fn permutation(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// `measured_sweep`: the executor whose seed every configuration's meter
/// noise derives from.
pub fn measured_executor(seed: u64, threads: usize) -> SweepExecutor {
    SweepExecutor::new(seed).with_threads(threads)
}

/// `kernel_verify`: the order in which launches and configurations run.
pub fn launch_order(len: usize, seed: u64) -> Vec<usize> {
    permutation(len, mix(seed, 0x4B45_524E))
}

const HOT_TAG: u64 = 0x484F_5400;
const COLD_TAG: u64 = 0x434F_4C44;

/// `serve_mixed`: sweep seeds of the hot pool, warmed during set-up.
pub fn hot_seeds(seed: u64, pool: usize) -> Vec<u64> {
    (0..pool as u64).map(|i| mix(seed ^ HOT_TAG, i)).collect()
}

/// `serve_mixed`: sweep seed of client `client`'s `request`-th cold
/// request — unique per request, so it always misses the cache.
pub fn cold_seed(seed: u64, client: usize, request: u64) -> u64 {
    mix(mix(seed ^ COLD_TAG, client as u64), request)
}

/// `serve_mixed`: whether a client's `request`-th request is cold (1 in
/// `COLD_EVERY`).
pub fn is_cold(request: u64) -> bool {
    request % COLD_EVERY == COLD_EVERY - 1
}

/// Requests per cold one: 7 hot to 1 cold.
pub const COLD_EVERY: u64 = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(hot_seeds(7, 4), hot_seeds(7, 4));
        assert_eq!(cold_seed(7, 1, 99), cold_seed(7, 1, 99));
        assert_eq!(launch_order(78, 7), launch_order(78, 7));
        let (a, b) = (measured_executor(7, 2), measured_executor(7, 1));
        assert_eq!(a.config_seed(5), b.config_seed(5));
    }

    #[test]
    fn another_seed_changes_cold_keys_and_sweep_seeds() {
        assert_ne!(hot_seeds(7, 4), hot_seeds(8, 4));
        assert_ne!(cold_seed(7, 0, 0), cold_seed(8, 0, 0));
        assert_ne!(
            measured_executor(7, 2).config_seed(0),
            measured_executor(8, 2).config_seed(0)
        );
        assert_ne!(launch_order(78, 7), launch_order(78, 8));
    }

    #[test]
    fn cold_keys_are_unique_and_never_hot() {
        let hot: HashSet<u64> = hot_seeds(3, 4).into_iter().collect();
        let mut seen = HashSet::new();
        for client in 0..4 {
            for r in 0..5000 {
                let s = cold_seed(3, client, r);
                assert!(!hot.contains(&s));
                assert!(seen.insert(s), "cold seed repeated");
            }
        }
    }

    #[test]
    fn launch_order_is_a_permutation() {
        let mut p = launch_order(100, 42);
        assert_ne!(p, (0..100).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
        assert!(permutation(0, 1).is_empty());
    }

    #[test]
    fn seven_hot_to_one_cold() {
        let cold = (0..800).filter(|&r| is_cold(r)).count();
        assert_eq!(cold, 100);
    }
}
