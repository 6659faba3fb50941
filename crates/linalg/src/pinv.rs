//! Moore-Penrose pseudo-inverse of the ALS normal matrix.
//!
//! Equation (2) of the paper updates a factor as
//! `A = X₍₁₎(B ⊙ C)(CᵀC * BᵀB)†` — the `†` is implemented here via the
//! Jacobi eigendecomposition of the symmetric PSD normal matrix.

use crate::eig::{jacobi_eigen, JacobiOptions};
use crate::ops::{matmul, matmul_transb};
use crate::{Mat, EIG_EPS};

/// Moore-Penrose pseudo-inverse of a symmetric positive semi-definite
/// matrix (the `(CᵀC * BᵀB)†` of Equation (2)).
///
/// Eigenvalues below `EIG_EPS * λ_max` are treated as zero, which is what
/// makes this a pseudo-inverse rather than a plain inverse and keeps ALS
/// stable when factors become rank-deficient.
///
/// # Panics
/// Panics if `a` is not square.
pub fn pinv_spd(a: &Mat) -> Mat {
    let (vals, vecs) = jacobi_eigen(a, JacobiOptions::default());
    let n = vals.len();
    let lmax = vals.first().copied().unwrap_or(0.0).abs();
    let cutoff = EIG_EPS * lmax.max(1e-30);
    let dinv =
        Mat::from_fn(
            n,
            n,
            |r, c| {
                if r == c && vals[r].abs() > cutoff {
                    1.0 / vals[r]
                } else {
                    0.0
                }
            },
        );
    // A† = V · diag(1/λ) · Vᵀ
    matmul_transb(&matmul(&vecs, &dinv), &vecs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gram;

    #[test]
    fn pinv_of_identity_is_identity() {
        let i = Mat::identity(5);
        assert!(pinv_spd(&i).max_abs_diff(&i) < 1e-5);
    }

    #[test]
    fn pinv_inverts_well_conditioned_spd() {
        let mut rng = rand::rngs::mock::StepRng::new(7, 0x9E3779B97F4A7C15);
        let b = Mat::random(12, 5, &mut rng);
        let mut a = gram(&b);
        for i in 0..5 {
            a[(i, i)] += 1.0; // ensure well-conditioned
        }
        let ainv = pinv_spd(&a);
        let prod = matmul(&a, &ainv);
        assert!(prod.max_abs_diff(&Mat::identity(5)) < 1e-3);
    }

    #[test]
    fn pinv_satisfies_penrose_condition_on_singular_matrix() {
        // Rank-1 matrix: A = u uᵀ with u = [1,2]. A† must satisfy A·A†·A = A.
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        let p = pinv_spd(&a);
        let apa = matmul(&matmul(&a, &p), &a);
        assert!(apa.max_abs_diff(&a) < 1e-4);
        let pap = matmul(&matmul(&p, &a), &p);
        assert!(pap.max_abs_diff(&p) < 1e-4);
    }

    #[test]
    fn pinv_of_zero_is_zero() {
        let z = Mat::zeros(3, 3);
        assert!(pinv_spd(&z).max_abs_diff(&z) < 1e-30);
    }

    #[test]
    fn pinv_solves_the_als_normal_equations() {
        // Line 5 of Algorithm 1: if M = A_true · V for an invertible V,
        // then M · V† = A_true.
        let mut rng = rand::rngs::mock::StepRng::new(99, 0x9E3779B97F4A7C15);
        let a_true = Mat::random(9, 4, &mut rng);
        let b = Mat::random(20, 4, &mut rng);
        let mut v = gram(&b);
        for i in 0..4 {
            v[(i, i)] += 0.5;
        }
        let m = matmul(&a_true, &v);
        let rec = matmul(&m, &pinv_spd(&v));
        assert!(rec.max_abs_diff(&a_true) < 1e-2);
    }
}
