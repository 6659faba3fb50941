//! AdaBoost.R2 (Drucker 1997) over shallow CART trees — the paper's
//! "AdaBoost" entrant.
//!
//! Each round fits a weak tree on a weighted bootstrap of the data,
//! computes its weighted relative error, derives the confidence
//! `β = err / (1 − err)`, and re-weights samples so hard ones are seen
//! more. Prediction is the classic weighted-median of the weak learners.

use crate::tree::DecisionTree;
use crate::Regressor;

/// An AdaBoost.R2 ensemble of regression trees.
#[derive(Clone, Debug)]
pub struct AdaBoostR2 {
    /// Maximum boosting rounds.
    pub n_rounds: usize,
    /// Depth of each weak tree.
    pub max_depth: usize,
    /// RNG seed for the weighted resampling.
    pub seed: u64,
    learners: Vec<DecisionTree>,
    /// `ln(1/β)` confidence of each learner.
    log_inv_beta: Vec<f64>,
}

impl AdaBoostR2 {
    /// A booster with the given shape.
    pub fn new(n_rounds: usize, max_depth: usize, seed: u64) -> Self {
        assert!(n_rounds > 0, "need at least one boosting round");
        Self { n_rounds, max_depth, seed, learners: Vec::new(), log_inv_beta: Vec::new() }
    }

    /// Defaults tuned for the launch-selection problem.
    pub fn default_params() -> Self {
        Self::new(30, 6, 0xb005)
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

/// Samples an index from the discrete distribution given by `cumsum` (the
/// inclusive prefix sums of the weights) using a uniform draw in `[0, total)`.
fn sample_index(cumsum: &[f64], u: f64) -> usize {
    match cumsum.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
        Ok(i) => (i + 1).min(cumsum.len() - 1),
        Err(i) => i.min(cumsum.len() - 1),
    }
}

impl Regressor for AdaBoostR2 {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert!(!x.is_empty(), "cannot boost on an empty dataset");
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        let n = x.len();
        let mut weights = vec![1.0 / n as f64; n];
        let mut state = self.seed | 1;
        self.learners.clear();
        self.log_inv_beta.clear();

        for _round in 0..self.n_rounds {
            // Weighted bootstrap.
            let mut cumsum = Vec::with_capacity(n);
            let mut acc = 0.0;
            for &w in &weights {
                acc += w;
                cumsum.push(acc);
            }
            let total = acc;
            let mut bx = Vec::with_capacity(n);
            let mut by = Vec::with_capacity(n);
            for _ in 0..n {
                let u = (xorshift(&mut state) as f64 / u64::MAX as f64) * total;
                let i = sample_index(&cumsum, u);
                bx.push(x[i].clone());
                by.push(y[i]);
            }
            let mut tree = DecisionTree::new(self.max_depth, 4);
            tree.fit(&bx, &by);

            // Weighted relative (linear) loss on the *original* data.
            let losses: Vec<f64> = (0..n).map(|i| (tree.predict(&x[i]) - y[i]).abs()).collect();
            let lmax = losses.iter().cloned().fold(0.0f64, f64::max);
            if lmax <= 1e-15 {
                // Perfect learner: keep it with large confidence and stop.
                self.learners.push(tree);
                self.log_inv_beta.push(30.0);
                break;
            }
            let rel: Vec<f64> = losses.iter().map(|&l| l / lmax).collect();
            let err: f64 = weights.iter().zip(&rel).map(|(w, r)| w * r).sum();
            if err >= 0.5 {
                // Weak learner no better than chance; stop boosting.
                break;
            }
            let beta = err / (1.0 - err);
            self.learners.push(tree);
            self.log_inv_beta.push((1.0 / beta.max(1e-12)).ln());

            // Re-weight: easy samples (low rel loss) are down-weighted.
            let mut z = 0.0;
            for (w, r) in weights.iter_mut().zip(&rel) {
                *w *= beta.powf(1.0 - r);
                z += *w;
            }
            for w in &mut weights {
                *w /= z;
            }
        }

        if self.learners.is_empty() {
            // Degenerate data: fall back to a single tree so predict works.
            let mut tree = DecisionTree::new(self.max_depth, 4);
            tree.fit(x, y);
            self.learners.push(tree);
            self.log_inv_beta.push(1.0);
        }
    }

    fn predict(&self, features: &[f64]) -> f64 {
        assert!(!self.learners.is_empty(), "predict called before fit");
        // Weighted median of the learner predictions (AdaBoost.R2 rule).
        let mut preds: Vec<(f64, f64)> = self
            .learners
            .iter()
            .zip(&self.log_inv_beta)
            .map(|(t, &w)| (t.predict(features), w))
            .collect();
        preds.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let half: f64 = preds.iter().map(|&(_, w)| w).sum::<f64>() / 2.0;
        let mut acc = 0.0;
        for &(p, w) in &preds {
            acc += w;
            if acc >= half {
                return p;
            }
        }
        preds.last().unwrap().0
    }

    fn name(&self) -> &'static str {
        "AdaBoost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let a = (i % 30) as f64 / 3.0;
            let b = (i / 30) as f64;
            x.push(vec![a, b]);
            y.push((a - 5.0).abs() + 0.3 * b);
        }
        (x, y)
    }

    #[test]
    fn boosting_fits_piecewise_function() {
        let (x, y) = data();
        let mut m = AdaBoostR2::default_params();
        m.fit(&x, &y);
        assert!(!m.learners.is_empty());
        let mut sse = 0.0;
        for (xi, yi) in x.iter().zip(&y) {
            sse += (m.predict(xi) - yi).powi(2);
        }
        let mse = sse / x.len() as f64;
        assert!(mse < 0.5, "in-sample MSE too high: {mse}");
    }

    #[test]
    fn boosting_beats_a_single_stump() {
        let (x, y) = data();
        let mut stump = DecisionTree::new(1, 2);
        stump.fit(&x, &y);
        let mut boost = AdaBoostR2::new(20, 1, 3);
        boost.fit(&x, &y);
        let err = |f: &dyn Fn(&[f64]) -> f64| {
            x.iter().zip(&y).map(|(xi, yi)| (f(xi) - yi).powi(2)).sum::<f64>()
        };
        assert!(err(&|v| boost.predict(v)) < err(&|v| stump.predict(v)));
    }

    #[test]
    fn perfect_data_stops_early() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![(i % 2) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|v| v[0] * 10.0).collect();
        let mut m = AdaBoostR2::new(50, 3, 1);
        m.fit(&x, &y);
        assert!(m.learners.len() < 50, "should stop once perfect");
        assert!((m.predict(&[1.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_in_seed() {
        let (x, y) = data();
        let mut a = AdaBoostR2::new(10, 4, 9);
        let mut b = AdaBoostR2::new(10, 4, 9);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict(&[3.0, 4.0]), b.predict(&[3.0, 4.0]));
    }
}
