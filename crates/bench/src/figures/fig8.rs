//! Fig. 8: P100 PCIe energy nonproportionality and *global* Pareto fronts
//! at N = 10240 and N = 14336.
//!
//! Reproduced claims: the global fronts hold 2–3 points, and allowing
//! ~11% performance degradation buys ~50% dynamic-energy savings.

use super::{front_of, gpu_cloud, measured_clouds, CheckpointSummary, MeasuredCloud};
use enprop_apps::checkpoint::CheckpointError;
use enprop_apps::point::DataPoint;
use enprop_apps::{sizes, RetryPolicy, SweepExecutor, SweepFailure};
use enprop_ep::{WeakEpReport, WeakEpTest};
use enprop_gpusim::{GpuArch, TiledDgemmConfig};
use enprop_pareto::TradeoffAnalysis;
use enprop_power::FaultPlan;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One matrix size's panel column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Panel {
    /// Matrix size.
    pub n: usize,
    /// The full configuration cloud (successfully measured points only).
    pub cloud: Vec<DataPoint<TiledDgemmConfig>>,
    /// Configurations that exhausted their retries and are absent from
    /// `cloud` and the front. Always 0 on fault-free paths.
    pub failed_configs: usize,
    /// The full failure records behind `failed_configs` (configuration,
    /// attempts, final error), for `--json` consumers.
    pub failures: Vec<SweepFailure<TiledDgemmConfig>>,
    /// Weak-EP verdict.
    pub weak_ep: WeakEpReport,
    /// Global Pareto front and trade-offs.
    pub global: TradeoffAnalysis,
}

/// Generates both Fig. 8 panels from the noise-free analytic model.
pub fn generate() -> Vec<Fig8Panel> {
    generate_from(|n| (gpu_cloud(GpuArch::p100_pcie(), n), Vec::new()))
}

/// Generates both panels through the full measurement methodology —
/// deterministic under `exec`'s seed and bitwise-identical for any thread
/// count.
pub fn generate_measured_with(exec: &SweepExecutor) -> Vec<Fig8Panel> {
    generate_measured_robust(exec, RetryPolicy::default(), FaultPlan::none(), None)
        .expect("an unjournaled sweep cannot fail")
        .0
}

/// [`generate_measured_with`] through a misbehaving meter: faults per `plan`,
/// retries per `policy`. Configurations that exhaust their retries are
/// *skipped* — each panel's fronts are computed over the surviving cloud,
/// with the casualties recorded in [`Fig8Panel::failures`]. Panics only if
/// *every* configuration of a size fails (no cloud to analyse).
///
/// With `checkpoint = Some((dir, resume))` each size's sweep is journaled
/// under `dir/fig8-n{N}`, and with `resume` set, a journal left by an
/// interrupted run is replayed instead of re-measured; the per-size
/// resume accounting comes back alongside the panels (empty without a
/// checkpoint). Output is bitwise-identical at any thread count, resumed
/// or not.
pub fn generate_measured_robust(
    exec: &SweepExecutor,
    policy: RetryPolicy,
    plan: FaultPlan,
    checkpoint: Option<(&Path, bool)>,
) -> Result<(Vec<Fig8Panel>, Vec<CheckpointSummary>), CheckpointError> {
    let sizes = sizes::fig8_sizes();
    let (clouds, summaries) =
        measured_clouds("fig8", GpuArch::p100_pcie(), &sizes, exec, policy, plan, checkpoint)?;
    let mut clouds = clouds.into_iter();
    let panels = generate_from(move |_| clouds.next().expect("one cloud per size"));
    Ok((panels, summaries))
}

fn generate_from(mut sweep: impl FnMut(usize) -> MeasuredCloud) -> Vec<Fig8Panel> {
    sizes::fig8_sizes()
        .into_iter()
        .map(|n| {
            let (cloud, failures) = sweep(n);
            let energies: Vec<_> = cloud.iter().map(|p| p.dynamic_energy).collect();
            Fig8Panel {
                n,
                failed_configs: failures.len(),
                failures,
                weak_ep: WeakEpTest::default().run(&energies),
                global: front_of(&cloud, |_| true),
                cloud,
            }
        })
        .collect()
}

/// Renders the figure's headline rows.
pub fn render() -> String {
    let mut out = String::new();
    for p in generate() {
        out.push_str(&format!(
            "--- P100 PCIe, N = {} ({} configurations) --- weak EP {} (spread {})\n",
            p.n,
            p.cloud.len(),
            if p.weak_ep.holds { "HOLDS" } else { "VIOLATED" },
            crate::render::pct(p.weak_ep.rel_spread)
        ));
        let rows: Vec<Vec<String>> = p
            .global
            .front
            .iter()
            .map(|t| {
                vec![
                    format!("BS={} G={}", p.cloud[t.index].config.bs, p.cloud[t.index].config.g),
                    format!("{:.4}", t.point.time),
                    format!("{:.1}", t.point.energy),
                    crate::render::pct(t.degradation),
                    crate::render::pct(t.savings),
                ]
            })
            .collect();
        out.push_str(&format!("global front ({} points):\n", p.global.len()));
        out.push_str(&crate::render::table(
            &["config", "time[s]", "E_d[J]", "degradation", "savings"],
            &rows,
        ));
        // The figure itself: cloud (·) with the front (#) on top, zoomed
        // to the BS ≥ 21 nonproportionality region like the middle panels.
        let cloud_pts: Vec<(f64, f64)> = p
            .cloud
            .iter()
            .filter(|d| d.config.bs >= 21)
            .map(|d| (d.time.value(), d.dynamic_energy.value()))
            .collect();
        let front_pts: Vec<(f64, f64)> =
            p.global.front.iter().map(|t| (t.point.time, t.point.energy)).collect();
        out.push_str(&crate::scatter::scatter(
            &format!("E_d vs time, BS >= 21 region (N = {})", p.n),
            "time [s]",
            "dynamic energy [J]",
            &[
                crate::scatter::Series { glyph: '.', points: cloud_pts },
                crate::scatter::Series { glyph: '#', points: front_pts },
            ],
            64,
            14,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_fronts_have_two_to_three_points() {
        for p in generate() {
            assert!(
                (2..=4).contains(&p.global.len()),
                "N={}: {} points",
                p.n,
                p.global.len()
            );
        }
    }

    #[test]
    fn large_savings_for_modest_degradation() {
        // The paper's N=10240 headline: ~50% savings for ~11% degradation.
        let p = &generate()[0];
        assert_eq!(p.n, 10240);
        let (savings, degradation) = p.global.best_pair().unwrap();
        assert!(savings > 0.35, "savings {savings}");
        assert!(degradation < 0.20, "degradation {degradation}");
    }

    #[test]
    fn weak_ep_violated_on_both_sizes() {
        for p in generate() {
            assert!(!p.weak_ep.holds, "N={}", p.n);
            assert!(p.weak_ep.rel_spread > 0.3, "N={}", p.n);
        }
    }

    #[test]
    fn fastest_configuration_is_boosted_bs32() {
        for p in generate() {
            let best = &p.cloud[p.global.performance_optimal().index];
            assert_eq!(best.config.bs, 32, "N={}", p.n);
        }
    }
}
