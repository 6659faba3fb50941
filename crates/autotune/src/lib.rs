//! # scalfrag-autotune
//!
//! The adaptive launching strategy of ScalFrag (§IV-B): machine-learning
//! models that map sparse-tensor feature parameters to the best kernel
//! launch configuration.
//!
//! The paper's pipeline (Fig. 7) is reproduced end to end:
//!
//! 1. **Generating tensors** — [`trainer::generate_corpus`] synthesises
//!    tensors across sizes, orders and sparsity regimes.
//! 2. **Executing MTTKRP** — [`sweep`] measures (via the gpusim cost model)
//!    every launch configuration of the Fig. 4 space for each tensor.
//! 3. **Data collecting & training** — the measurements become regression
//!    samples `features(tensor) ⊕ features(config) → log(time)`, on which
//!    the model zoo is fitted: [`DecisionTree`] (CART), [`BaggingForest`],
//!    [`AdaBoostR2`], [`KnnRegressor`] and [`RidgeRegression`] — the same
//!    families the paper tries ("DecisionTree, SVM, AdaBoost, Bagging").
//! 4. **Evaluating & predicting** — [`metrics`] reports MAPE/MAE/R² (the
//!    paper: DecisionTree < 15 % MAPE, training < 0.5 s, inference < 1 % of
//!    an MTTKRP), and [`LaunchPredictor`] answers the online question:
//!    *given this tensor, which `<<<grid, block>>>` should ScalFrag use?*
//! 5. **Choosing the kernel arm** — [`arms::predict_arm`] sits one level
//!    above the launch predictor: a bucket-threshold rule over the
//!    [`scalfrag_tensor::FeatureKey`] imbalance features that dispatches
//!    between the tiled baseline, the load-balanced segmented scan and the
//!    FLYCOO mode-agnostic arm, calibrated against the cost-model argmin.

#![forbid(unsafe_code)]

pub mod arms;
pub mod boost;
pub mod forest;
pub mod importance;
pub mod knn;
pub mod metrics;
pub mod persist;
pub mod predictor;
pub mod ridge;
pub mod sweep;
pub mod trainer;
pub mod tree;
pub mod tuner;
pub mod validate;

pub use arms::{
    batched_transfer_speedup, predict_arm, prefer_batched, ArmVerdict, MttkrpObjective,
    BATCH_SPEEDUP_GATE,
};
pub use boost::AdaBoostR2;
pub use forest::BaggingForest;
pub use importance::{tree_importance, FeatureImportance};
pub use knn::KnnRegressor;
pub use metrics::{mape, r2};
pub use predictor::{LaunchPredictor, TrainedPredictor, TRAIN_SEED};
pub use ridge::RidgeRegression;
pub use sweep::{sweep_tensor, SweepResult};
pub use trainer::{generate_corpus, train_and_evaluate, ModelEval, TrainedModels};
pub use tree::DecisionTree;
pub use tuner::{tune, TuningOutcome, TuningStrategy};
pub use validate::{cross_validate, CvReport};

/// A regression model mapping a feature vector to a scalar target.
///
/// All models in the zoo implement this; the trainer and predictor are
/// generic over it.
pub trait Regressor: Send + Sync {
    /// Fits the model to `(x, y)` pairs.
    ///
    /// # Panics
    /// Implementations panic on empty or ragged input.
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]);

    /// Predicts the target for one feature vector.
    fn predict(&self, features: &[f64]) -> f64;

    /// Model family name for reports.
    fn name(&self) -> &'static str;
}

/// Builds the model-input feature vector from tensor features plus a
/// launch configuration (`log2 grid`, `log2 block` appended).
pub fn model_features(tensor_features: &[f64], grid: u32, block: u32) -> Vec<f64> {
    let mut v = Vec::with_capacity(tensor_features.len() + 2);
    v.extend_from_slice(tensor_features);
    v.push((grid.max(1) as f64).log2());
    v.push((block.max(1) as f64).log2());
    v
}
