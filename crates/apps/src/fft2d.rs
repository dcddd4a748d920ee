//! The 2-D FFT application for the strong-EP study (Fig. 1), across all
//! three processors of Table I.

use crate::parallel::SweepExecutor;
use crate::runner::MeasurementRunner;
use enprop_cpusim::fft_model::CpuFft2d;
use enprop_gpusim::fft_model::GpuFft2d;
use enprop_gpusim::GpuArch;
use enprop_units::{Joules, Seconds, Work};
use serde::{Deserialize, Serialize};

/// One (work, energy) observation of the strong-EP sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FftPoint {
    /// FFT size N.
    pub n: usize,
    /// Work `W = 5 N² log₂ N`.
    pub work: Work,
    /// Execution time.
    pub time: Seconds,
    /// Dynamic energy.
    pub dynamic_energy: Joules,
}

/// Which processor runs the transform.
#[derive(Debug, Clone)]
pub enum Processor {
    /// The Haswell CPU node (MKL FFT).
    Cpu(CpuFft2d),
    /// A GPU (CUFFT).
    Gpu(GpuFft2d),
}

impl Processor {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            Processor::Cpu(m) => m_name_cpu(m),
            Processor::Gpu(m) => m.arch().name.clone(),
        }
    }

    /// All three processors of Table I.
    pub fn catalog() -> Vec<Processor> {
        vec![
            Processor::Cpu(CpuFft2d::haswell()),
            Processor::Gpu(GpuFft2d::new(GpuArch::k40c())),
            Processor::Gpu(GpuFft2d::new(GpuArch::p100_pcie())),
        ]
    }
}

fn m_name_cpu(_m: &CpuFft2d) -> String {
    "Intel Haswell E5-2670V3".to_string()
}

/// The strong-EP sweep driver.
#[derive(Debug, Clone)]
pub struct Fft2dApp {
    processor: Processor,
}

impl Fft2dApp {
    /// Binds the application to a processor.
    pub fn new(processor: Processor) -> Self {
        Self { processor }
    }

    /// The bound processor.
    pub fn processor(&self) -> &Processor {
        &self.processor
    }

    /// One transform's predicted point.
    pub fn point(&self, n: usize) -> FftPoint {
        let work = enprop_gpusim::fft_model::fft2d_work(n);
        let (time, energy) = match &self.processor {
            Processor::Cpu(m) => {
                let e = m.estimate(n);
                (e.time, e.energy)
            }
            Processor::Gpu(m) => {
                let e = m.estimate(n);
                (e.time, e.dynamic_energy())
            }
        };
        FftPoint { n, work, time, dynamic_energy: energy }
    }

    /// The full Fig. 1 size sweep.
    pub fn sweep(&self, sizes: &[usize]) -> Vec<FftPoint> {
        sizes.iter().map(|&n| self.point(n)).collect()
    }

    /// The size sweep through the full measurement methodology: every
    /// point metered by the simulated WattsUp with the repeat-until-CI
    /// protocol, fanned out over `exec`'s workers (output
    /// bitwise-identical at any thread count).
    pub fn sweep_measured(&self, sizes: &[usize], exec: &SweepExecutor) -> Vec<FftPoint> {
        exec.run_measured(
            sizes,
            || self.default_runner(0),
            |runner, &n| {
                let work = enprop_gpusim::fft_model::fft2d_work(n);
                let (time, steady, warm_p, warm_t) = match &self.processor {
                    Processor::Cpu(m) => {
                        let e = m.estimate(n);
                        (e.time, e.power, enprop_units::Watts::ZERO, enprop_units::Seconds::ZERO)
                    }
                    Processor::Gpu(m) => {
                        let e = m.estimate(n);
                        (e.time, e.steady_power, e.warmup_power, e.warmup_time)
                    }
                };
                let m = runner.measure(time, steady, warm_p, warm_t);
                FftPoint { n, work, time: m.time, dynamic_energy: m.dynamic_energy }
            },
        )
    }

    /// A measurement rig matching the bound processor's node: the CPU node
    /// idles at 90 W, the GPU server nodes at 110 W.
    pub fn default_runner(&self, seed: u64) -> MeasurementRunner {
        let idle_power = match &self.processor {
            Processor::Cpu(_) => enprop_units::Watts(90.0),
            Processor::Gpu(_) => enprop_units::Watts(110.0),
        };
        MeasurementRunner::new(idle_power, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes;

    #[test]
    fn catalog_names() {
        let names: Vec<String> = Processor::catalog().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["Intel Haswell E5-2670V3", "NVIDIA K40c", "NVIDIA P100 PCIe"]
        );
    }

    #[test]
    fn sweep_produces_increasing_work() {
        for proc in Processor::catalog() {
            let app = Fft2dApp::new(proc);
            let pts = app.sweep(&sizes::fig1_sizes());
            for w in pts.windows(2) {
                assert!(w[1].work > w[0].work);
                assert!(w[1].dynamic_energy.value() > 0.0);
            }
        }
    }

    #[test]
    fn measured_sweep_tracks_model_sweep() {
        let app = Fft2dApp::new(Processor::Gpu(
            enprop_gpusim::fft_model::GpuFft2d::new(GpuArch::p100_pcie()),
        ));
        let sizes = [2048usize, 8192, 16384];
        let exact = app.sweep(&sizes);
        let measured = app.sweep_measured(&sizes, &SweepExecutor::serial(13));
        for (e, m) in exact.iter().zip(&measured) {
            let rel = (e.dynamic_energy.value() - m.dynamic_energy.value()).abs()
                / e.dynamic_energy.value();
            assert!(rel < 0.30, "n={}: rel {rel}", e.n);
        }
    }

    #[test]
    fn energy_nonlinear_in_work_on_every_processor() {
        for proc in Processor::catalog() {
            let app = Fft2dApp::new(proc);
            let pts = app.sweep(&sizes::fig1_sizes());
            let ratios: Vec<f64> = pts
                .iter()
                .map(|p| p.dynamic_energy.value() / p.work.value())
                .collect();
            let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
            let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
            assert!(
                max / min > 1.3,
                "{}: energy/work spread only {}",
                app.processor().name(),
                max / min
            );
        }
    }
}
