//! The CPU threadgroup DGEMM application of §III, as a sweep driver.

use crate::parallel::SweepExecutor;
use crate::point::DataPoint;
use crate::runner::MeasurementRunner;
use enprop_cpusim::{BlasFlavor, CpuDgemmConfig, CpuRunEstimate, CpuSimulator};
use enprop_units::{Utilization, Watts};

/// One configuration's full Fig. 4 record: the measured point plus the
/// utilization and performance coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuPoint {
    /// The measured (time, energy) point.
    pub point: DataPoint<CpuDgemmConfig>,
    /// Average CPU utilization over the 48 logical cores.
    pub avg_utilization: Utilization,
    /// Spread (population σ) of per-core utilizations — the paper's
    /// explanatory variable.
    pub utilization_spread: f64,
    /// Achieved performance, Gflop/s.
    pub gflops: f64,
}

/// The application bound to one simulated node.
#[derive(Debug, Clone)]
pub struct CpuDgemmApp {
    sim: CpuSimulator,
}

impl CpuDgemmApp {
    /// Binds the application to a node simulator.
    pub fn new(sim: CpuSimulator) -> Self {
        Self { sim }
    }

    /// The paper's Haswell node.
    pub fn haswell() -> Self {
        Self::new(CpuSimulator::haswell())
    }

    /// The underlying simulator.
    pub fn simulator(&self) -> &CpuSimulator {
        &self.sim
    }

    /// All configurations of one BLAS flavor on this node.
    pub fn configs(&self, flavor: BlasFlavor) -> Vec<CpuDgemmConfig> {
        CpuDgemmConfig::enumerate(self.sim.topology().logical_cores(), flavor)
    }

    /// One configuration's simulated run.
    pub fn run(&self, cfg: &CpuDgemmConfig, n: usize) -> CpuRunEstimate {
        self.sim.run_dgemm(cfg, n)
    }

    /// Noise-free sweep of every configuration of `flavor` at size `n`.
    pub fn sweep_exact(&self, n: usize, flavor: BlasFlavor) -> Vec<CpuPoint> {
        self.configs(flavor)
            .into_iter()
            .map(|cfg| {
                let r = self.sim.run_dgemm(&cfg, n);
                CpuPoint {
                    avg_utilization: r.average_utilization(),
                    utilization_spread: Utilization::std_dev(&r.per_core_util),
                    gflops: r.gflops,
                    point: DataPoint {
                        config: cfg,
                        time: r.time,
                        dynamic_energy: r.dynamic_energy(),
                        reps: 1,
                        converged: true,
                    },
                }
            })
            .collect()
    }

    /// Full-methodology sweep through the simulated meter and protocol,
    /// fanned out over `exec`'s workers (output bitwise-identical at any
    /// thread count). `stride` subsamples the (large) configuration space.
    pub fn sweep_measured(
        &self,
        n: usize,
        flavor: BlasFlavor,
        exec: &SweepExecutor,
        stride: usize,
    ) -> Vec<CpuPoint> {
        assert!(stride >= 1, "stride must be positive");
        let configs: Vec<CpuDgemmConfig> =
            self.configs(flavor).into_iter().step_by(stride).collect();
        exec.run_measured(
            &configs,
            || Self::default_runner(0),
            |runner, cfg| {
                let r = self.sim.run_dgemm(cfg, n);
                let m = runner.measure(
                    r.time,
                    r.dynamic_power,
                    Watts::ZERO,
                    enprop_units::Seconds::ZERO,
                );
                CpuPoint {
                    avg_utilization: r.average_utilization(),
                    utilization_spread: Utilization::std_dev(&r.per_core_util),
                    gflops: r.gflops,
                    point: DataPoint {
                        config: *cfg,
                        time: m.time,
                        dynamic_energy: m.dynamic_energy,
                        reps: m.reps,
                        converged: m.converged,
                    },
                }
            },
        )
    }

    /// A measurement rig matching the paper's CPU node idle draw.
    pub fn default_runner(seed: u64) -> MeasurementRunner {
        MeasurementRunner::new(Watts(90.0), seed)
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_configuration_space() {
        let app = CpuDgemmApp::haswell();
        let pts = app.sweep_exact(8192, BlasFlavor::IntelMkl);
        assert!(pts.len() > 200, "{}", pts.len());
        // Utilizations span from near-idle to near-full.
        let min = pts.iter().map(|p| p.avg_utilization.fraction()).fold(1.0, f64::min);
        let max = pts.iter().map(|p| p.avg_utilization.fraction()).fold(0.0, f64::max);
        assert!(min < 0.1 && max > 0.85, "span [{min}, {max}]");
    }

    #[test]
    fn power_is_non_functional_in_utilization() {
        // The Fig. 4 signature: configurations within a narrow utilization
        // band draw meaningfully different dynamic power.
        let app = CpuDgemmApp::haswell();
        let pts = app.sweep_exact(17408, BlasFlavor::IntelMkl);
        let band: Vec<&CpuPoint> = pts
            .iter()
            .filter(|p| (p.avg_utilization.fraction() - 0.5).abs() < 0.03)
            .collect();
        assert!(band.len() >= 3, "band too small: {}", band.len());
        let powers: Vec<f64> = band.iter().map(|p| p.point.dynamic_power().value()).collect();
        let max = powers.iter().cloned().fold(f64::MIN, f64::max);
        let min = powers.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - min) / max > 0.10, "power spread only {}", (max - min) / max);
    }

    #[test]
    fn measured_sweep_is_subsampled_and_close() {
        let app = CpuDgemmApp::haswell();
        let exec = SweepExecutor::serial(3);
        let measured = app.sweep_measured(8192, BlasFlavor::OpenBlas, &exec, 37);
        assert!(!measured.is_empty());
        for p in &measured {
            let exact = app.run(&p.point.config, 8192);
            let rel = (p.point.dynamic_energy.value() - exact.dynamic_energy().value()).abs()
                / exact.dynamic_energy().value();
            assert!(rel < 0.3, "config {:?}: rel {rel}", p.point.config);
        }
    }

    #[test]
    fn measured_sweep_is_thread_count_invariant() {
        let app = CpuDgemmApp::haswell();
        let serial =
            app.sweep_measured(4096, BlasFlavor::OpenBlas, &SweepExecutor::serial(8), 61);
        let threaded = app.sweep_measured(
            4096,
            BlasFlavor::OpenBlas,
            &SweepExecutor::new(8).with_threads(3),
            61,
        );
        assert_eq!(serial, threaded);
    }
}
