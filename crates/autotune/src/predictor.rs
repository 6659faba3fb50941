//! The online half of the adaptive launching strategy: given a tensor's
//! features, pick the launch configuration to use ("the model will output
//! an optimal launch parameter combination based on the input feature
//! parameters", §IV-B).

use crate::trainer::{generate_corpus, select_config, to_samples};
use crate::tree::DecisionTree;
use crate::Regressor;
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_tensor::{CooTensor, TensorFeatures};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A trained launch-parameter predictor bound to a device and launch space.
pub struct LaunchPredictor {
    model: Box<dyn Regressor>,
    space: Vec<LaunchConfig>,
    rank: u32,
}

impl LaunchPredictor {
    /// Wraps an already-fitted model.
    pub fn from_model(model: Box<dyn Regressor>, space: Vec<LaunchConfig>, rank: u32) -> Self {
        assert!(!space.is_empty(), "launch space must be non-empty");
        Self { model, space, rank }
    }

    /// Trains a DecisionTree predictor from scratch for `device` — the
    /// one-shot offline phase (the paper: "the training needs to be
    /// performed only once, the cost can be considered negligible").
    /// Uses the full default nnz tiers; see [`LaunchPredictor::train_with_tiers`].
    pub fn train_default(device: &DeviceSpec, rank: u32, seed: u64) -> Self {
        Self::train_with_tiers(device, rank, seed, crate::trainer::DEFAULT_TIERS)
    }

    /// Trains a DecisionTree predictor on a corpus spanning the given nnz
    /// tiers. Smaller tier sets train faster but only cover matching
    /// deployment sizes.
    pub fn train_with_tiers(device: &DeviceSpec, rank: u32, seed: u64, tiers: &[usize]) -> Self {
        let space = LaunchConfig::coarse_sweep_space(device);
        let corpus = generate_corpus(device, rank, &space, tiers, seed);
        let (x, y) = to_samples(&corpus);
        let mut tree = DecisionTree::default_params();
        tree.fit(&x, &y);
        // The *selection* space can be finer than the training space: the
        // model interpolates over (log grid, log block).
        let selection_space = LaunchConfig::sweep_space(device);
        Self::from_model(Box::new(tree), selection_space, rank)
    }

    /// The rank this predictor was trained for.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The launch space the predictor selects from.
    pub fn space(&self) -> &[LaunchConfig] {
        &self.space
    }

    /// Predicts the launch configuration for a feature vector.
    pub fn predict_from_features(&self, features: &[f64]) -> LaunchConfig {
        select_config(self.model.as_ref(), features, &self.space)
    }

    /// Extracts features from `(tensor, mode)` and predicts.
    pub fn predict(&self, tensor: &CooTensor, mode: usize) -> LaunchConfig {
        let f = TensorFeatures::extract(tensor, mode).to_vec();
        self.predict_from_features(&f)
    }
}

/// The predictor training seed every facade (`ScalFrag`, `ClusterScalFrag`,
/// `ScalFragServer`) trains with.
pub const TRAIN_SEED: u64 = 0x5ca1;

/// A cheap-to-clone handle over lazily-trained per-rank [`LaunchPredictor`]s.
///
/// The paper's claim — *"the training needs to be performed only once, the
/// cost can be considered negligible"* — only holds if the trained model is
/// actually shared. This handle is that sharing point: every clone refers
/// to the same per-rank predictor table, so a serving layer (or a pool of
/// `ScalFrag` facades, one per device) pays predictor training once per
/// rank across its whole lifetime instead of once per run/worker.
#[derive(Clone)]
pub struct TrainedPredictor {
    inner: Arc<TrainedPredictorInner>,
}

struct TrainedPredictorInner {
    device: DeviceSpec,
    seed: u64,
    tiers: Option<Vec<usize>>,
    per_rank: Mutex<HashMap<u32, Arc<LaunchPredictor>>>,
    trainings: AtomicUsize,
}

impl TrainedPredictor {
    /// Creates the shared handle. Training itself is lazy — the first
    /// [`TrainedPredictor::for_rank`] call for each rank trains that
    /// rank's model; every later call (from any clone) reuses it.
    ///
    /// `tiers = None` uses [`crate::trainer::DEFAULT_TIERS`].
    pub fn train_once(device: &DeviceSpec, seed: u64, tiers: Option<Vec<usize>>) -> Self {
        Self {
            inner: Arc::new(TrainedPredictorInner {
                device: device.clone(),
                seed,
                tiers,
                per_rank: Mutex::new(HashMap::new()),
                trainings: AtomicUsize::new(0),
            }),
        }
    }

    /// The predictor for `rank`, training it on first use.
    pub fn for_rank(&self, rank: u32) -> Arc<LaunchPredictor> {
        let mut table = self.inner.per_rank.lock().expect("predictor table poisoned");
        table
            .entry(rank)
            .or_insert_with(|| {
                self.inner.trainings.fetch_add(1, Ordering::Relaxed);
                Arc::new(match &self.inner.tiers {
                    Some(tiers) => LaunchPredictor::train_with_tiers(
                        &self.inner.device,
                        rank,
                        self.inner.seed,
                        tiers,
                    ),
                    None => {
                        LaunchPredictor::train_default(&self.inner.device, rank, self.inner.seed)
                    }
                })
            })
            .clone()
    }

    /// How many full trainings have actually run — the honesty counter the
    /// serving tests assert on (a shared handle must report 1 per rank no
    /// matter how many jobs/devices used it).
    pub fn trainings(&self) -> usize {
        self.inner.trainings.load(Ordering::Relaxed)
    }

    /// The device the models are trained against.
    pub fn device(&self) -> &DeviceSpec {
        &self.inner.device
    }

    /// The training seed.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep_tensor;
    use scalfrag_balance::KernelChoice;

    #[test]
    fn trained_predictor_picks_near_optimal_configs() {
        let d = DeviceSpec::rtx3090();
        let p = LaunchPredictor::train_with_tiers(&d, 16, 42, &[3_000, 15_000, 50_000]);
        // Fresh tensors the predictor never saw.
        let tensors = [
            scalfrag_tensor::gen::uniform(&[500, 300, 200], 20_000, 777),
            scalfrag_tensor::gen::zipf_slices(&[800, 400, 300], 30_000, 1.0, 778),
        ];
        let space = LaunchConfig::sweep_space(&d);
        for t in &tensors {
            let cfg = p.predict(t, 0);
            assert!(cfg.validate(&d).is_ok());
            let sweep = sweep_tensor(&d, KernelChoice::Tiled, t, 0, 16, &space);
            let t_sel = KernelChoice::Tiled.duration(
                &d,
                &scalfrag_kernels::SegmentStats::compute(t, 0),
                16,
                cfg,
            );
            let (_, t_best) = sweep.best();
            assert!(
                t_sel / t_best < 2.0,
                "predicted config {cfg} is {}x off the optimum",
                t_sel / t_best
            );
        }
    }

    #[test]
    fn predictor_differentiates_tensor_sizes() {
        let d = DeviceSpec::rtx3090();
        let p = LaunchPredictor::train_with_tiers(&d, 16, 7, &[3_000, 20_000, 100_000, 300_000]);
        let small = scalfrag_tensor::gen::uniform(&[80, 60, 40], 1_500, 1);
        let large = scalfrag_tensor::gen::uniform(&[2000, 1500, 900], 300_000, 2);
        let c_small = p.predict(&small, 0);
        let c_large = p.predict(&large, 0);
        assert!(
            c_small.total_threads() <= c_large.total_threads(),
            "small {c_small} vs large {c_large}"
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_space_rejected() {
        let _ =
            LaunchPredictor::from_model(Box::new(DecisionTree::default_params()), Vec::new(), 16);
    }

    #[test]
    fn train_once_shares_models_across_clones() {
        let d = DeviceSpec::rtx3090();
        let handle = TrainedPredictor::train_once(&d, 42, Some(vec![3_000, 12_000]));
        assert_eq!(handle.trainings(), 0, "training is lazy");
        let clone = handle.clone();
        let a = handle.for_rank(16);
        let b = clone.for_rank(16);
        assert!(Arc::ptr_eq(&a, &b), "clones must share the trained model");
        assert_eq!(handle.trainings(), 1, "one rank, one training");
        let _ = clone.for_rank(8);
        assert_eq!(handle.trainings(), 2, "second rank trains once more");
        let _ = handle.for_rank(8);
        assert_eq!(clone.trainings(), 2, "re-requests never retrain");
    }

    #[test]
    fn train_once_predictions_match_direct_training() {
        let d = DeviceSpec::rtx3090();
        let tiers = vec![3_000usize, 12_000];
        let handle = TrainedPredictor::train_once(&d, 7, Some(tiers.clone()));
        let direct = LaunchPredictor::train_with_tiers(&d, 16, 7, &tiers);
        let t = scalfrag_tensor::gen::zipf_slices(&[300, 200, 100], 9_000, 0.8, 5);
        assert_eq!(handle.for_rank(16).predict(&t, 0), direct.predict(&t, 0));
    }
}
