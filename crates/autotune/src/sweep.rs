//! Launch-space sweeps: the "Executing MTTKRP" stage of Fig. 7 and the raw
//! data behind the Fig. 4 heatmaps.
//!
//! A sweep evaluates the gpusim cost model for one tensor over the whole
//! `gridSize × blockSize` space — the same measurements the paper gathers
//! on hardware, which label the training data and define the ground-truth
//! optimum the predictor is scored against.

use scalfrag_balance::KernelChoice;
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::SegmentStats;
use scalfrag_tensor::CooTensor;

/// The result of sweeping one `(tensor, mode)` over a launch space.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Every `(base configuration, simulated seconds)` pair, in space order.
    pub entries: Vec<(LaunchConfig, f64)>,
    /// MTTKRP FLOPs of the workload (for GFLOP/s conversion).
    pub flops: u64,
}

impl SweepResult {
    /// The fastest configuration and its time.
    ///
    /// # Panics
    /// Panics if the sweep is empty.
    pub fn best(&self) -> (LaunchConfig, f64) {
        self.entries
            .iter()
            .filter(|(_, t)| t.is_finite())
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .copied()
            .expect("sweep must contain at least one schedulable configuration")
    }

    /// The slowest finite configuration and its time.
    pub fn worst(&self) -> (LaunchConfig, f64) {
        self.entries
            .iter()
            .filter(|(_, t)| t.is_finite())
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .copied()
            .expect("sweep must contain at least one schedulable configuration")
    }

    /// GFLOP/s at a given time.
    pub fn gflops_at(&self, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            0.0
        } else {
            self.flops as f64 / seconds / 1e9
        }
    }
}

/// Sweeps `tensor`'s mode-`mode` MTTKRP over `space` for `kernel`.
pub fn sweep_tensor(
    device: &DeviceSpec,
    kernel: KernelChoice,
    tensor: &CooTensor,
    mode: usize,
    rank: u32,
    space: &[LaunchConfig],
) -> SweepResult {
    let stats = SegmentStats::compute(tensor, mode);
    sweep_stats(device, kernel, &stats, rank, space)
}

/// Sweeps precomputed segment statistics (avoids re-walking the tensor).
pub fn sweep_stats(
    device: &DeviceSpec,
    kernel: KernelChoice,
    stats: &SegmentStats,
    rank: u32,
    space: &[LaunchConfig],
) -> SweepResult {
    let entries =
        space.iter().map(|&cfg| (cfg, kernel.duration(device, stats, rank, cfg))).collect();
    SweepResult { entries, flops: stats.flops(rank) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DeviceSpec, CooTensor) {
        (DeviceSpec::rtx3090(), scalfrag_tensor::gen::zipf_slices(&[300, 200, 200], 20_000, 0.9, 1))
    }

    #[test]
    fn sweep_covers_space_and_finds_interior_best() {
        let (d, t) = setup();
        let space = LaunchConfig::sweep_space(&d);
        let res = sweep_tensor(&d, KernelChoice::Tiled, &t, 0, 16, &space);
        assert_eq!(res.entries.len(), space.len());
        let (best, t_best) = res.best();
        let (_, t_worst) = res.worst();
        assert!(t_best < t_worst, "the space must discriminate");
        assert!(t_worst / t_best > 2.0, "performance gap should be large");
        // The Fig. 4 shape: both the tiny-launch corner and the huge-grid
        // edge must lose to the optimum, which therefore sits inside.
        let time_at = |g: u32, b: u32| {
            res.entries.iter().find(|(c, _)| c.grid == g && c.block == b).map(|&(_, t)| t).unwrap()
        };
        assert!(time_at(32, 32) > 1.5 * t_best, "tiny corner should be slow");
        assert!(time_at(1 << 17, 256) > 1.1 * t_best, "huge grid should decline");
        assert!(best.grid < (1 << 17));
    }

    #[test]
    fn different_tensors_have_different_optima() {
        let d = DeviceSpec::rtx3090();
        let small = scalfrag_tensor::gen::uniform(&[100, 50, 50], 2_000, 2);
        let large = scalfrag_tensor::gen::uniform(&[2000, 1500, 1500], 400_000, 3);
        let space = LaunchConfig::sweep_space(&d);
        let b_small = sweep_tensor(&d, KernelChoice::Tiled, &small, 0, 16, &space).best().0;
        let b_large = sweep_tensor(&d, KernelChoice::Tiled, &large, 0, 16, &space).best().0;
        assert!(
            b_small.total_threads() < b_large.total_threads(),
            "small tensor {b_small} should want fewer threads than large {b_large}"
        );
    }

    #[test]
    fn tiled_best_beats_coo_best_under_skew() {
        let (d, t) = setup();
        let space = LaunchConfig::sweep_space(&d);
        let coo = sweep_tensor(&d, KernelChoice::CooAtomic, &t, 0, 16, &space);
        let tiled = sweep_tensor(&d, KernelChoice::Tiled, &t, 0, 16, &space);
        assert!(tiled.best().1 < coo.best().1);
    }

    #[test]
    fn gflops_conversion() {
        let (d, t) = setup();
        let space = [LaunchConfig::new(1024, 256)];
        let res = sweep_tensor(&d, KernelChoice::CooAtomic, &t, 0, 16, &space);
        let g = res.gflops_at(res.entries[0].1);
        assert!(g > 0.0 && g < d.peak_gflops());
    }
}
