//! Tuning-strategy comparison — the abstract's claim that ScalFrag "is
//! able to find more suitable kernel launch parameter configurations in a
//! short time".
//!
//! Three ways to pick a launch configuration for a new tensor:
//!
//! * **Exhaustive** — measure every configuration (a full Fig. 4 sweep):
//!   finds the optimum but pays for one kernel execution per candidate.
//! * **Random-N** — measure `N` random candidates: cheaper, luck-bound.
//! * **Model-guided** — one feature extraction plus a model argmin: pays
//!   (almost) nothing at tuning time; quality depends on training.
//!
//! The tuning *cost* of the measured strategies is the simulated time of
//! the kernels they had to run; the model's cost is its wall-clock
//! inference time (there is nothing to run).

use crate::predictor::LaunchPredictor;
use crate::sweep::sweep_stats;
use scalfrag_balance::KernelChoice;
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::SegmentStats;
use scalfrag_tensor::{CooTensor, TensorFeatures};

/// How a configuration was searched for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuningStrategy {
    /// Measure every configuration in the space.
    Exhaustive,
    /// Measure this many deterministic-random configurations.
    Random(usize),
    /// Ask a trained predictor.
    ModelGuided,
    /// Measure a coarse sub-grid, then the neighbourhood of its best cell.
    CoarseToFine,
}

impl TuningStrategy {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            TuningStrategy::Exhaustive => "exhaustive".into(),
            TuningStrategy::Random(n) => format!("random-{n}"),
            TuningStrategy::ModelGuided => "model".into(),
            TuningStrategy::CoarseToFine => "coarse-to-fine".into(),
        }
    }
}

/// Result of tuning one `(tensor, mode)` with one strategy.
#[derive(Clone, Debug)]
pub struct TuningOutcome {
    /// Strategy display name.
    pub strategy: String,
    /// The chosen configuration.
    pub chosen: LaunchConfig,
    /// Simulated kernel time at the chosen configuration.
    pub chosen_time_s: f64,
    /// Simulated kernel time at the sweep optimum.
    pub optimal_time_s: f64,
    /// Simulated time spent *measuring* candidates (0 for the model).
    pub measure_cost_s: f64,
    /// Wall-clock seconds of the decision procedure itself.
    pub decide_wall_s: f64,
}

impl TuningOutcome {
    /// `chosen / optimal` (1.0 = found the optimum).
    pub fn quality(&self) -> f64 {
        self.chosen_time_s / self.optimal_time_s
    }

    /// Number of kernel executions the chosen config must amortise before
    /// this strategy's measuring cost is repaid relative to just using the
    /// optimum from the start (∞-safe; 0 when no measuring happened).
    pub fn amortisation_runs(&self) -> f64 {
        if self.measure_cost_s <= 0.0 {
            0.0
        } else {
            self.measure_cost_s / self.optimal_time_s
        }
    }
}

#[inline]
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Tunes the tiled-kernel launch for `(tensor, mode)` with `strategy`.
///
/// # Panics
/// Panics if `strategy` is [`TuningStrategy::ModelGuided`] but `predictor`
/// is `None`, or if `space` is empty.
pub fn tune(
    device: &DeviceSpec,
    tensor: &CooTensor,
    mode: usize,
    rank: u32,
    space: &[LaunchConfig],
    strategy: TuningStrategy,
    predictor: Option<&LaunchPredictor>,
) -> TuningOutcome {
    assert!(!space.is_empty(), "tuning space must be non-empty");
    let stats = SegmentStats::compute(tensor, mode);
    let sweep = sweep_stats(device, KernelChoice::Tiled, &stats, rank, space);
    let (_, optimal_time_s) = sweep.best();

    let t0 = std::time::Instant::now();
    let (chosen, measure_cost_s) = match strategy {
        TuningStrategy::Exhaustive => {
            let cost: f64 = sweep.entries.iter().map(|&(_, t)| t).filter(|t| t.is_finite()).sum();
            (sweep.best().0, cost)
        }
        TuningStrategy::Random(n) => {
            assert!(n > 0, "random strategy needs at least one sample");
            let mut state =
                0x7ea5_e11e_d00d_f00du64 ^ (tensor.nnz() as u64) ^ ((mode as u64) << 32);
            let mut best: Option<(LaunchConfig, f64)> = None;
            let mut cost = 0.0;
            for _ in 0..n {
                let idx = (xorshift(&mut state) % space.len() as u64) as usize;
                let (cfg, t) = sweep.entries[idx];
                if !t.is_finite() {
                    continue;
                }
                cost += t;
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((cfg, t));
                }
            }
            let (cfg, _) = best.unwrap_or_else(|| sweep.entries[0]);
            (cfg, cost)
        }
        TuningStrategy::ModelGuided => {
            let p = predictor.expect("model-guided tuning needs a predictor");
            let features = TensorFeatures::extract(tensor, mode).to_vec();
            (p.predict_from_features(&features), 0.0)
        }
        TuningStrategy::CoarseToFine => {
            // Phase 1: every 4th configuration.
            let mut cost = 0.0;
            let mut best: Option<(usize, f64)> = None;
            for (i, &(_, t)) in sweep.entries.iter().enumerate().step_by(4) {
                if !t.is_finite() {
                    continue;
                }
                cost += t;
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((i, t));
                }
            }
            // Phase 2: the coarse winner's neighbourhood.
            let centre = best.map(|(i, _)| i).unwrap_or(0);
            let lo = centre.saturating_sub(3);
            let hi = (centre + 4).min(sweep.entries.len());
            let mut chosen = sweep.entries[centre].0;
            let mut chosen_t = f64::INFINITY;
            for (i, &(cfg, t)) in sweep.entries.iter().enumerate().take(hi).skip(lo) {
                if !t.is_finite() {
                    continue;
                }
                if i != centre {
                    cost += t; // the centre was already measured in phase 1
                }
                if t < chosen_t {
                    chosen = cfg;
                    chosen_t = t;
                }
            }
            (chosen, cost)
        }
    };
    let decide_wall_s = t0.elapsed().as_secs_f64();

    let chosen_time_s = sweep
        .entries
        .iter()
        .find(|(c, _)| *c == chosen)
        .map(|&(_, t)| t)
        .unwrap_or_else(|| KernelChoice::Tiled.duration(device, &stats, rank, chosen));

    TuningOutcome {
        strategy: strategy.name(),
        chosen,
        chosen_time_s,
        optimal_time_s,
        measure_cost_s,
        decide_wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DeviceSpec, CooTensor, Vec<LaunchConfig>) {
        let d = DeviceSpec::rtx3090();
        let t = scalfrag_tensor::gen::zipf_slices(&[800, 500, 300], 60_000, 0.9, 17);
        let space = LaunchConfig::sweep_space(&d);
        (d, t, space)
    }

    #[test]
    fn exhaustive_finds_the_optimum_at_full_cost() {
        let (d, t, space) = setup();
        let o = tune(&d, &t, 0, 16, &space, TuningStrategy::Exhaustive, None);
        assert!((o.quality() - 1.0).abs() < 1e-12);
        assert!(o.measure_cost_s > o.optimal_time_s * (space.len() as f64) * 0.3);
        assert!(o.amortisation_runs() > 10.0, "exhaustive must be expensive");
    }

    #[test]
    fn random_quality_improves_with_samples() {
        let (d, t, space) = setup();
        let few = tune(&d, &t, 0, 16, &space, TuningStrategy::Random(2), None);
        let many = tune(&d, &t, 0, 16, &space, TuningStrategy::Random(40), None);
        assert!(many.quality() <= few.quality() + 1e-12);
        assert!(many.measure_cost_s > few.measure_cost_s);
    }

    #[test]
    fn model_tunes_in_a_short_time() {
        // The abstract's claim: near-optimal configuration at (near-)zero
        // tuning cost.
        let (d, t, space) = setup();
        let p = LaunchPredictor::train_with_tiers(&d, 16, 3, &[15_000, 60_000, 120_000]);
        let o = tune(&d, &t, 0, 16, &space, TuningStrategy::ModelGuided, Some(&p));
        assert_eq!(o.measure_cost_s, 0.0);
        assert_eq!(o.amortisation_runs(), 0.0);
        assert!(o.quality() < 1.7, "model quality {}", o.quality());
        let ex = tune(&d, &t, 0, 16, &space, TuningStrategy::Exhaustive, None);
        assert!(
            o.measure_cost_s < ex.measure_cost_s,
            "the model must be cheaper than measuring everything"
        );
    }

    #[test]
    #[should_panic(expected = "needs a predictor")]
    fn model_without_predictor_panics() {
        let (d, t, space) = setup();
        let _ = tune(&d, &t, 0, 16, &space, TuningStrategy::ModelGuided, None);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(TuningStrategy::Exhaustive.name(), "exhaustive");
        assert_eq!(TuningStrategy::Random(8).name(), "random-8");
        assert_eq!(TuningStrategy::ModelGuided.name(), "model");
        assert_eq!(TuningStrategy::CoarseToFine.name(), "coarse-to-fine");
    }

    #[test]
    fn coarse_to_fine_is_cheaper_than_exhaustive_and_decent() {
        let (d, t, space) = setup();
        let c2f = tune(&d, &t, 0, 16, &space, TuningStrategy::CoarseToFine, None);
        let ex = tune(&d, &t, 0, 16, &space, TuningStrategy::Exhaustive, None);
        assert!(c2f.measure_cost_s < ex.measure_cost_s * 0.5);
        assert!(c2f.quality() < 1.5, "coarse-to-fine quality {}", c2f.quality());
    }
}
