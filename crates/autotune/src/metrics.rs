//! Regression quality metrics for the model evaluation of §IV-B.

/// Mean absolute percentage error, in percent — the paper's headline metric
/// ("the DecisionTree regressor has the lowest MAPE (less than 15%)").
///
/// # Panics
/// Panics on empty or mismatched inputs.
pub fn mape(truth: &[f64], pred: &[f64]) -> f64 {
    check(truth, pred);
    100.0 * truth.iter().zip(pred).map(|(&t, &p)| ((t - p) / t.abs().max(1e-12)).abs()).sum::<f64>()
        / truth.len() as f64
}

/// Coefficient of determination `R²` (1 = perfect, 0 = mean predictor,
/// negative = worse than the mean).
pub fn r2(truth: &[f64], pred: &[f64]) -> f64 {
    check(truth, pred);
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_tot: f64 = truth.iter().map(|&t| (t - mean).powi(2)).sum();
    let ss_res: f64 = truth.iter().zip(pred).map(|(&t, &p)| (t - p).powi(2)).sum();
    if ss_tot <= 1e-300 {
        if ss_res <= 1e-300 {
            1.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

fn check(truth: &[f64], pred: &[f64]) {
    assert!(!truth.is_empty(), "metrics need at least one sample");
    assert_eq!(truth.len(), pred.len(), "truth/prediction length mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let t = [1.0, 2.0, 4.0];
        assert_eq!(mape(&t, &t), 0.0);
        assert_eq!(r2(&t, &t), 1.0);
    }

    #[test]
    fn known_values() {
        let t = [2.0, 4.0];
        let p = [1.0, 5.0];
        assert!((mape(&t, &p) - 37.5).abs() < 1e-12); // (50% + 25%)/2
                                                      // ss_tot = 2, ss_res = 2 -> r2 = 0
        assert!(r2(&t, &p).abs() < 1e-12);
    }

    #[test]
    fn r2_negative_when_worse_than_mean() {
        let t = [1.0, 2.0, 3.0];
        let p = [3.0, 3.0, 0.0];
        assert!(r2(&t, &p) < 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = mape(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_inputs_panic() {
        let _ = mape(&[], &[]);
    }
}
