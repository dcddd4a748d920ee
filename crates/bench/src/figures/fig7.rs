//! Fig. 7: K40c energy nonproportionality and *local* Pareto fronts at
//! N = 8704 and N = 10240.
//!
//! Reproduced claims: the global Pareto front is a single point (BS = 32
//! is optimal for both objectives); the BS ≤ 30 nonproportionality region
//! yields local fronts of ~4–5 points with real energy/performance
//! trade-offs.

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
pub struct Fig7Panel {
    /// Matrix size.
    pub n: usize,
    /// The full configuration cloud (successfully measured points only).
    pub cloud: Vec<DataPoint<TiledDgemmConfig>>,
    /// Configurations that could not be measured (exhausted their
    /// retries) and are therefore absent from `cloud` and every front.
    /// Always 0 on the noise-free and fault-free paths.
    pub failed_configs: usize,
    /// The full failure records behind `failed_configs`: configuration,
    /// attempts spent, and the final [`MeasureError`](enprop_power::MeasureError)
    /// — so `--json` consumers can rerun or report exactly what was lost.
    pub failures: Vec<SweepFailure<TiledDgemmConfig>>,
    /// Weak-EP verdict.
    pub weak_ep: WeakEpReport,
    /// Global front (expected singleton).
    pub global: TradeoffAnalysis,
    /// BS of the globally optimal configuration.
    pub global_optimum_bs: usize,
    /// Local front of the BS ≤ 30 nonproportionality region.
    pub local: TradeoffAnalysis,
}

/// Generates both Fig. 7 panels from the noise-free analytic model.
pub fn generate() -> Vec<Fig7Panel> {
    generate_from(|n| (gpu_cloud(GpuArch::k40c(), n), Vec::new()))
}

/// Generates both panels through the full measurement methodology:
/// simulated WattsUp meter, HCLWATTSUP decomposition, and the Student-t
/// repeat-until-confidence protocol — deterministic under `exec`'s seed
/// and bitwise-identical for any thread count.
pub fn generate_measured_with(exec: &SweepExecutor) -> Vec<Fig7Panel> {
    generate_measured_robust(exec, RetryPolicy::default(), FaultPlan::none(), None)
        .expect("an unjournaled sweep cannot fail")
        .0
}

/// [`generate_measured_with`] through a misbehaving meter: faults per `plan`,
/// retries per `policy`. Configurations that exhaust their retries are
/// *skipped* — each panel's fronts are computed over the surviving cloud,
/// with the casualties recorded in [`Fig7Panel::failures`]. Panics only if
/// *every* configuration of a size fails (no cloud to analyse).
///
/// With `checkpoint = Some((dir, resume))` each size's sweep is journaled
/// under `dir/fig7-n{N}`, and with `resume` set, a journal left by an
/// interrupted run is replayed instead of re-measured; the per-size
/// resume accounting comes back alongside the panels (empty without a
/// checkpoint). Output is bitwise-identical at any thread count, resumed
/// or not.
pub fn generate_measured_robust(
    exec: &SweepExecutor,
    policy: RetryPolicy,
    plan: FaultPlan,
    checkpoint: Option<(&Path, bool)>,
) -> Result<(Vec<Fig7Panel>, Vec<CheckpointSummary>), CheckpointError> {
    let sizes = sizes::fig7_sizes();
    let (clouds, summaries) =
        measured_clouds("fig7", GpuArch::k40c(), &sizes, exec, policy, plan, checkpoint)?;
    let mut clouds = clouds.into_iter();
    let panels = generate_from(move |_| clouds.next().expect("one cloud per size"));
    Ok((panels, summaries))
}

fn generate_from(mut sweep: impl FnMut(usize) -> MeasuredCloud) -> Vec<Fig7Panel> {
    sizes::fig7_sizes()
        .into_iter()
        .map(|n| {
            let (cloud, failures) = sweep(n);
            let energies: Vec<_> = cloud.iter().map(|p| p.dynamic_energy).collect();
            let global = front_of(&cloud, |_| true);
            let global_optimum_bs = cloud[global.performance_optimal().index].config.bs;
            Fig7Panel {
                n,
                failed_configs: failures.len(),
                failures,
                weak_ep: WeakEpTest::default().run(&energies),
                local: front_of(&cloud, |c| c.bs <= 30),
                global,
                global_optimum_bs,
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
            "--- K40c, N = {} ({} configurations) --- weak EP {} (spread {})\n",
            p.n,
            p.cloud.len(),
            if p.weak_ep.holds { "HOLDS" } else { "VIOLATED" },
            crate::render::pct(p.weak_ep.rel_spread)
        ));
        out.push_str(&format!(
            "global front: {} point(s), optimum at BS = {}\n",
            p.global.len(),
            p.global_optimum_bs
        ));
        let rows: Vec<Vec<String>> = p
            .local
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
        out.push_str(&format!("local front, BS<=30 region ({} points):\n", p.local.len()));
        out.push_str(&crate::render::table(
            &["config", "time[s]", "E_d[J]", "degradation", "savings"],
            &rows,
        ));
        // The middle panel: the BS 21..=30 nonproportionality region with
        // its local front on top.
        let cloud_pts: Vec<(f64, f64)> = p
            .cloud
            .iter()
            .filter(|d| (21..=30).contains(&d.config.bs))
            .map(|d| (d.time.value(), d.dynamic_energy.value()))
            .collect();
        let front_pts: Vec<(f64, f64)> =
            p.local.front.iter().map(|t| (t.point.time, t.point.energy)).collect();
        out.push_str(&crate::scatter::scatter(
            &format!("E_d vs time, BS 21..=30 region (N = {})", p.n),
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
    fn global_front_is_singleton_at_bs32() {
        for p in generate() {
            assert!(p.global.is_singleton(), "N={}: {} points", p.n, p.global.len());
            assert_eq!(p.global_optimum_bs, 32, "N={}", p.n);
        }
    }

    #[test]
    fn local_fronts_have_multiple_points() {
        // The paper observes an average of 4 and a maximum of 5 points.
        for p in generate() {
            assert!(
                (2..=8).contains(&p.local.len()),
                "N={}: local front has {} points",
                p.n,
                p.local.len()
            );
        }
        let max = generate().iter().map(|p| p.local.len()).max().unwrap();
        assert!(max >= 3, "max local front size {max}");
    }

    #[test]
    fn local_front_offers_real_savings() {
        for p in generate() {
            let (savings, degradation) = p
                .local
                .best_pair()
                .unwrap_or_else(|| panic!("N={}: singleton local front", p.n));
            assert!(savings > 0.03, "N={}: savings {savings}", p.n);
            assert!(degradation < 0.40, "N={}: degradation {degradation}", p.n);
        }
    }

    #[test]
    fn weak_ep_violated() {
        for p in generate() {
            assert!(!p.weak_ep.holds, "N={}", p.n);
        }
    }
}
