//! Microbenchmark of the functional GPU emulator running the paper's
//! Fig. 5 kernel, across tile sizes — the executable form of the kernel
//! whose analytic model drives Figs. 2, 6, 7, 8.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use enprop_gpusim::emulator::{EmuDgemm, GlobalMem};
use enprop_gpusim::TiledDgemmConfig;

fn bench_emulator(c: &mut Criterion) {
    let n = 16;
    let host_a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 - 3.0).collect();
    let host_b: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64 - 2.0).collect();

    let mut g = c.benchmark_group("emulator_tiled_dgemm");
    g.sample_size(10);
    for &bs in &[2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(bs), &bs, |bch, &bs| {
            bch.iter(|| {
                let a = GlobalMem::from_slice(&host_a);
                let b = GlobalMem::from_slice(&host_b);
                let cm = GlobalMem::zeroed(n * n);
                let emu = EmuDgemm::new(TiledDgemmConfig { n, bs, g: 1, r: 1 });
                emu.run(&a, &b, &cm)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_emulator);
criterion_main!(benches);
