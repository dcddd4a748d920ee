//! One module per reproduced paper artifact.

pub mod ablations;
pub mod fig1;
pub mod fig2;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod headline;
pub mod sensitivity;
pub mod table1;
pub mod theory;

use enprop_apps::checkpoint::{CheckpointError, SweepCheckpoint};
use enprop_apps::point::DataPoint;
use enprop_apps::{GpuMatMulApp, RetryPolicy, SweepExecutor, SweepFailure};
use enprop_gpusim::{GpuArch, TiledDgemmConfig};
use enprop_pareto::{FrontTracker, TradeoffAnalysis};
use enprop_power::FaultPlan;
use std::path::Path;

/// Total matrix products every configuration of a GPU sweep computes
/// (the common workload of Figs. 2, 7, 8; divisible by every G ≤ 8).
pub const GPU_TOTAL_PRODUCTS: usize = 8;

/// How much of one size's checkpointed sweep came from the journal — the
/// accounting `repro --checkpoint` prints per panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// Matrix size of the sweep.
    pub n: usize,
    /// Configurations replayed from the journal.
    pub replayed: usize,
    /// Configurations measured (and journaled) by this run.
    pub executed: usize,
    /// Bytes of a torn trailing record dropped at journal open.
    pub torn_tail_bytes: u64,
}

/// One size's measured cloud: the points that were measured and the
/// configurations that exhausted their retries.
pub(crate) type MeasuredCloud =
    (Vec<DataPoint<TiledDgemmConfig>>, Vec<SweepFailure<TiledDgemmConfig>>);

/// The measured GPU matmul sweep of `arch` at each of `sizes`, through a
/// meter faulting per `plan` with retries per `policy`.
///
/// With `checkpoint = Some((dir, resume))` each size's sweep is journaled
/// under `dir/{figure}-n{N}` (a manifest from
/// [`GpuMatMulApp::checkpoint_manifest`]); with `resume` set, a journal
/// left by an interrupted run is replayed instead of re-measured, and the
/// per-size resume accounting is returned. Without a checkpoint nothing is
/// journaled and the accounting is empty.
pub(crate) fn measured_clouds(
    figure: &str,
    arch: GpuArch,
    sizes: &[usize],
    exec: &SweepExecutor,
    policy: RetryPolicy,
    plan: FaultPlan,
    checkpoint: Option<(&Path, bool)>,
) -> Result<(Vec<MeasuredCloud>, Vec<CheckpointSummary>), CheckpointError> {
    let app = GpuMatMulApp::new(arch, GPU_TOTAL_PRODUCTS);
    let mut clouds = Vec::with_capacity(sizes.len());
    let mut summaries = Vec::new();
    for &n in sizes {
        let journal = match checkpoint {
            None => None,
            Some((dir, resume)) => {
                let subdir = dir.join(format!("{figure}-n{n}"));
                let manifest = app.checkpoint_manifest(n, exec, &policy, &plan);
                Some(if resume {
                    SweepCheckpoint::resume_or_fresh(&subdir, manifest)?
                } else {
                    SweepCheckpoint::fresh(&subdir, manifest)?
                })
            }
        };
        let run = app.sweep_measured_robust(n, exec, policy, plan, journal)?;
        if checkpoint.is_some() {
            summaries.push(CheckpointSummary {
                n,
                replayed: run.replayed,
                executed: run.executed,
                torn_tail_bytes: run.torn_tail_bytes,
            });
        }
        clouds.push((run.sweep.points, run.sweep.failures));
    }
    Ok((clouds, summaries))
}

/// The noise-free configuration cloud of the GPU matmul application.
pub fn gpu_cloud(arch: GpuArch, n: usize) -> Vec<DataPoint<TiledDgemmConfig>> {
    GpuMatMulApp::new(arch, GPU_TOTAL_PRODUCTS).sweep_exact(n)
}

/// Trade-off analysis of the sub-cloud whose configuration satisfies a
/// predicate (`|_| true` gives the global front). Front-point indices
/// refer into the *original* cloud.
///
/// Matching points stream through a [`FrontTracker`] (`O(log front)` per
/// point) instead of being collected and re-sorted by
/// [`TradeoffAnalysis::of`] — the tracker carries original cloud indices
/// as ids, so no remapping pass is needed either.
pub fn front_of(
    cloud: &[DataPoint<TiledDgemmConfig>],
    pred: impl Fn(&TiledDgemmConfig) -> bool,
) -> TradeoffAnalysis {
    let mut tracker = FrontTracker::new();
    for (i, p) in cloud.iter().enumerate() {
        if pred(&p.config) {
            tracker.insert(p.bi_point(), i);
        }
    }
    TradeoffAnalysis::from_tracker(&tracker)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloud_and_front_helpers() {
        let cloud = gpu_cloud(GpuArch::k40c(), 2048);
        assert!(cloud.len() > 40);
        let global = front_of(&cloud, |_| true);
        let region = front_of(&cloud, |c| c.bs <= 30);
        assert!(!global.is_empty());
        assert!(
            region.performance_optimal().point.time >= global.performance_optimal().point.time
        );
    }
}
