//! CART regression tree — the model the paper found best
//! ("the DecisionTree regressor has the lowest MAPE (less than 15%)").
//!
//! Standard recursive binary splitting minimising the weighted variance of
//! the children, with depth and leaf-size stopping rules. No pruning —
//! depth limits regularise enough on this problem, and keeping the
//! implementation small makes the <0.5 s training-time claim trivial.

use crate::Regressor;

/// One node of the fitted tree, stored in a flat arena.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// Internal split: `features[feature] <= threshold` goes left.
    Split {
        /// Feature index tested.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Arena index of the left child.
        left: usize,
        /// Arena index of the right child.
        right: usize,
    },
    /// Leaf prediction (mean of the training targets that reached it).
    Leaf(f64),
}

/// A CART regression tree.
#[derive(Clone, Debug, Default)]
pub struct DecisionTree {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to split a node further.
    pub min_samples_split: usize,
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// A tree with the given capacity controls.
    pub fn new(max_depth: usize, min_samples_split: usize) -> Self {
        Self { max_depth, min_samples_split: min_samples_split.max(2), nodes: Vec::new() }
    }

    /// Sensible defaults for the launch-selection problem.
    pub fn default_params() -> Self {
        Self::new(18, 3)
    }

    /// The fitted node arena (for persistence/introspection).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Rebuilds a tree from a node arena (persistence path).
    pub fn from_nodes(max_depth: usize, min_samples_split: usize, nodes: Vec<Node>) -> Self {
        Self { max_depth, min_samples_split, nodes }
    }

    fn build(&mut self, x: &[Vec<f64>], y: &[f64], idx: &mut [usize], depth: usize) -> usize {
        let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64;
        if depth >= self.max_depth || idx.len() < self.min_samples_split {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        }
        match best_split(x, y, idx) {
            None => {
                self.nodes.push(Node::Leaf(mean));
                self.nodes.len() - 1
            }
            Some((feature, threshold)) => {
                // Partition indices in place.
                let mut lo = 0usize;
                let mut hi = idx.len();
                while lo < hi {
                    if x[idx[lo]][feature] <= threshold {
                        lo += 1;
                    } else {
                        hi -= 1;
                        idx.swap(lo, hi);
                    }
                }
                if lo == 0 || lo == idx.len() {
                    self.nodes.push(Node::Leaf(mean));
                    return self.nodes.len() - 1;
                }
                // Reserve this node's slot before recursing.
                let slot = self.nodes.len();
                self.nodes.push(Node::Leaf(0.0));
                let (left_idx, right_idx) = {
                    // Split the index slice; recursion borrows disjoint halves.
                    let (l, r) = idx.split_at_mut(lo);
                    (l, r)
                };
                let left = self.build(x, y, left_idx, depth + 1);
                let right = self.build(x, y, right_idx, depth + 1);
                self.nodes[slot] = Node::Split { feature, threshold, left, right };
                slot
            }
        }
    }
}

/// Finds the variance-minimising split over all features, or `None` when no
/// split improves on the parent (all-equal features or targets).
fn best_split(x: &[Vec<f64>], y: &[f64], idx: &[usize]) -> Option<(usize, f64)> {
    let n = idx.len() as f64;
    let total_sum: f64 = idx.iter().map(|&i| y[i]).sum();
    let total_sq: f64 = idx.iter().map(|&i| y[i] * y[i]).sum();
    let parent_sse = total_sq - total_sum * total_sum / n;
    if parent_sse <= 1e-12 {
        return None;
    }

    let num_features = x[idx[0]].len();
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)

    let mut order: Vec<usize> = idx.to_vec();
    // `f` indexes the inner feature vectors, not `x` itself, so the
    // iterator form clippy suggests would be wrong here.
    #[allow(clippy::needless_range_loop)]
    for f in 0..num_features {
        order.sort_unstable_by(|&a, &b| x[a][f].partial_cmp(&x[b][f]).unwrap());
        // Prefix sums over the sorted order.
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for (k, &i) in order.iter().enumerate().take(order.len() - 1) {
            left_sum += y[i];
            left_sq += y[i] * y[i];
            let xv = x[i][f];
            let xn = x[order[k + 1]][f];
            if xn <= xv {
                continue; // can't split between equal feature values
            }
            let nl = (k + 1) as f64;
            let nr = n - nl;
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let sse =
                (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
            if best.is_none_or(|(_, _, b)| sse < b) {
                best = Some((f, 0.5 * (xv + xn), sse));
            }
        }
    }
    best.and_then(|(f, t, sse)| (sse < parent_sse - 1e-12).then_some((f, t)))
}

impl Regressor for DecisionTree {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert!(!x.is_empty(), "cannot fit a tree on an empty dataset");
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        let dim = x[0].len();
        assert!(x.iter().all(|r| r.len() == dim), "ragged feature matrix");
        self.nodes.clear();
        let mut idx: Vec<usize> = (0..x.len()).collect();
        self.build(x, y, &mut idx, 0);
    }

    fn predict(&self, features: &[f64]) -> f64 {
        assert!(!self.nodes.is_empty(), "predict called before fit");
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf(v) => return *v,
                Node::Split { feature, threshold, left, right } => {
                    at = if features[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "DecisionTree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(t: &DecisionTree) -> usize {
        t.nodes.iter().filter(|n| matches!(n, Node::Leaf(_))).count()
    }

    fn grid_xy(f: impl Fn(f64, f64) -> f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let (a, b) = (i as f64 / 2.0, j as f64 / 2.0);
                x.push(vec![a, b]);
                y.push(f(a, b));
            }
        }
        (x, y)
    }

    #[test]
    fn fits_a_step_function_exactly() {
        let (x, y) = grid_xy(|a, _| if a < 5.0 { 1.0 } else { 3.0 });
        let mut t = DecisionTree::new(3, 2);
        t.fit(&x, &y);
        assert_eq!(t.predict(&[2.0, 7.0]), 1.0);
        assert_eq!(t.predict(&[8.0, 1.0]), 3.0);
        assert!(leaves(&t) <= 4, "a single split suffices");
    }

    #[test]
    fn approximates_a_smooth_function() {
        let (x, y) = grid_xy(|a, b| a * 0.5 + (b - 4.0).abs());
        let mut t = DecisionTree::default_params();
        t.fit(&x, &y);
        let mut worst: f64 = 0.0;
        for (xi, yi) in x.iter().zip(&y) {
            worst = worst.max((t.predict(xi) - yi).abs());
        }
        assert!(worst < 0.6, "in-sample error too large: {worst}");
    }

    #[test]
    fn depth_zero_gives_the_mean() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![1.0, 2.0, 6.0];
        let mut t = DecisionTree::new(0, 2);
        t.fit(&x, &y);
        assert_eq!(leaves(&t), 1);
        assert!((t.predict(&[5.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn constant_targets_yield_single_leaf() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 10];
        let mut t = DecisionTree::default_params();
        t.fit(&x, &y);
        assert_eq!(leaves(&t), 1);
        assert_eq!(t.predict(&[100.0]), 7.0);
    }

    #[test]
    fn identical_features_different_targets() {
        // Unsplittable: must predict the mean rather than loop forever.
        let x = vec![vec![1.0, 2.0]; 6];
        let y = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let mut t = DecisionTree::default_params();
        t.fit(&x, &y);
        assert!((t.predict(&[1.0, 2.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn min_samples_split_limits_growth() {
        let (x, y) = grid_xy(|a, b| a + b);
        let mut small = DecisionTree::new(20, 2);
        small.fit(&x, &y);
        let mut big = DecisionTree::new(20, 100);
        big.fit(&x, &y);
        assert!(leaves(&big) < leaves(&small));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        DecisionTree::default_params().fit(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        let t = DecisionTree::default_params();
        let _ = t.predict(&[1.0]);
    }
}
