//! Bagging ensemble of regression trees (the paper's "Bagging" entrant).
//!
//! Bootstrap-resampled trees averaged at prediction time. A deterministic
//! xorshift stream replaces `rand` here so the fitted model depends only on
//! the data and the seed.

use crate::tree::DecisionTree;
use crate::Regressor;

/// A bagged forest of CART trees.
#[derive(Clone, Debug)]
pub struct BaggingForest {
    /// Number of trees.
    pub n_trees: usize,
    /// Depth of each tree.
    pub max_depth: usize,
    /// Minimum samples to split within each tree.
    pub min_samples_split: usize,
    /// RNG seed for the bootstrap resampling.
    pub seed: u64,
    trees: Vec<DecisionTree>,
}

impl BaggingForest {
    /// A forest with the given shape.
    pub fn new(n_trees: usize, max_depth: usize, min_samples_split: usize, seed: u64) -> Self {
        assert!(n_trees > 0, "a forest needs at least one tree");
        Self { n_trees, max_depth, min_samples_split, seed, trees: Vec::new() }
    }

    /// Defaults tuned for the launch-selection problem.
    pub fn default_params() -> Self {
        Self::new(24, 12, 4, 0x5eed)
    }

    /// The fitted trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
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

impl Regressor for BaggingForest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert!(!x.is_empty(), "cannot fit a forest on an empty dataset");
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        let n = x.len();
        // Each tree draws from its own seeded stream, so the trees come out
        // the same, in the same order, at every pool size.
        self.trees = scalfrag_host::par_map(self.n_trees, |t| {
            let mut state =
                self.seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(t as u64 + 1));
            let mut bx = Vec::with_capacity(n);
            let mut by = Vec::with_capacity(n);
            for _ in 0..n {
                let i = (xorshift(&mut state) % n as u64) as usize;
                bx.push(x[i].clone());
                by.push(y[i]);
            }
            let mut tree = DecisionTree::new(self.max_depth, self.min_samples_split);
            tree.fit(&bx, &by);
            tree
        });
    }

    fn predict(&self, features: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "predict called before fit");
        self.trees.iter().map(|t| t.predict(features)).sum::<f64>() / self.trees.len() as f64
    }

    fn name(&self) -> &'static str {
        "Bagging"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_data(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut state = seed;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..400 {
            let a = (i % 20) as f64;
            let b = (i / 20) as f64;
            let noise = (xorshift(&mut state) % 1000) as f64 / 1000.0 - 0.5;
            x.push(vec![a, b]);
            y.push(a * 2.0 - b + noise);
        }
        (x, y)
    }

    #[test]
    fn forest_fits_and_predicts() {
        let (x, y) = noisy_data(1);
        let mut f = BaggingForest::default_params();
        f.fit(&x, &y);
        assert_eq!(f.trees().len(), 24);
        let pred = f.predict(&[10.0, 5.0]);
        assert!((pred - 15.0).abs() < 1.5, "prediction {pred} too far from 15");
    }

    #[test]
    fn forest_is_deterministic_in_seed() {
        let (x, y) = noisy_data(2);
        let mut a = BaggingForest::new(8, 8, 4, 7);
        let mut b = BaggingForest::new(8, 8, 4, 7);
        a.fit(&x, &y);
        b.fit(&x, &y);
        for p in [[0.0, 0.0], [5.0, 5.0], [19.0, 19.0]] {
            assert_eq!(a.predict(&p), b.predict(&p));
        }
    }

    #[test]
    fn forest_smooths_noise_relative_to_single_tree() {
        let (x, y) = noisy_data(3);
        // Hold out every 7th sample.
        let train: Vec<usize> = (0..x.len()).filter(|i| i % 7 != 0).collect();
        let test: Vec<usize> = (0..x.len()).filter(|i| i % 7 == 0).collect();
        let tx: Vec<Vec<f64>> = train.iter().map(|&i| x[i].clone()).collect();
        let ty: Vec<f64> = train.iter().map(|&i| y[i]).collect();

        let mut tree = DecisionTree::new(20, 2);
        tree.fit(&tx, &ty);
        let mut forest = BaggingForest::new(32, 20, 2, 1);
        forest.fit(&tx, &ty);

        let err = |pred: &dyn Fn(&[f64]) -> f64| -> f64 {
            test.iter()
                .map(|&i| {
                    let truth = x[i][0] * 2.0 - x[i][1];
                    (pred(&x[i]) - truth).powi(2)
                })
                .sum::<f64>()
                / test.len() as f64
        };
        let e_tree = err(&|f| tree.predict(f));
        let e_forest = err(&|f| forest.predict(f));
        assert!(
            e_forest <= e_tree * 1.1,
            "forest ({e_forest}) should not be much worse than tree ({e_tree})"
        );
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        let _ = BaggingForest::new(0, 4, 2, 0);
    }
}
