//! Dense matrix products used by CPD-ALS: matmul, Gram, Hadamard and
//! Khatri-Rao (the `⊙` of Equation (4) in the paper).

use crate::Mat;

/// General dense matrix product `C = A · B`.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Mat::zeros(m, n);
    // i-k-j loop order keeps the inner loop streaming over contiguous rows of
    // both B and C (row-major friendly).
    for i in 0..m {
        for p in 0..k {
            let aip = a[(i, p)];
            if aip == 0.0 {
                continue;
            }
            let brow = b.row(p);
            let crow = c.row_mut(i);
            for j in 0..n {
                crow[j] += aip * brow[j];
            }
        }
    }
    c
}

/// Dense matrix product with the second operand transposed: `C = A · Bᵀ`.
///
/// # Panics
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_transb(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.cols(), b.cols(), "inner dimensions must agree");
    let (m, n) = (a.rows(), b.rows());
    Mat::from_fn(m, n, |i, j| a.row(i).iter().zip(b.row(j)).map(|(x, y)| x * y).sum())
}

/// Gram matrix `G = Aᵀ · A` (an `F×F` symmetric PSD matrix) — line 3 of the
/// CPD-ALS algorithm. Accumulates in `f64` since mode sizes reach millions.
pub fn gram(a: &Mat) -> Mat {
    let f = a.cols();
    let mut acc = vec![0.0f64; f * f];
    for r in 0..a.rows() {
        let row = a.row(r);
        for i in 0..f {
            let ri = row[i] as f64;
            if ri == 0.0 {
                continue;
            }
            for j in i..f {
                acc[i * f + j] += ri * row[j] as f64;
            }
        }
    }
    let mut g = Mat::zeros(f, f);
    for i in 0..f {
        for j in i..f {
            let v = acc[i * f + j] as f32;
            g[(i, j)] = v;
            g[(j, i)] = v;
        }
    }
    g
}

/// In-place Hadamard (`*` in the paper) product `a *= b`.
///
/// # Panics
/// Panics if the shapes differ.
pub fn hadamard_assign(a: &mut Mat, b: &Mat) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x *= y;
    }
}

/// Khatri-Rao product `K = A ⊙ B ∈ ℝ^{(I·J)×F}` — the "matching column-wise"
/// Kronecker product of §II-C. Row `i·J + j` of `K` is the Hadamard product
/// of row `i` of `A` and row `j` of `B`.
///
/// Only used on *small* operands (validation, fit computation); the whole
/// point of sparse MTTKRP is never materialising this for real tensors.
///
/// # Panics
/// Panics if `a.cols() != b.cols()`.
pub fn khatri_rao(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.cols(), b.cols(), "Khatri-Rao operands must share the column count");
    let f = a.cols();
    let (i_dim, j_dim) = (a.rows(), b.rows());
    let mut k = Mat::zeros(i_dim * j_dim, f);
    for i in 0..i_dim {
        let arow = a.row(i);
        for j in 0..j_dim {
            let brow = b.row(j);
            let krow = k.row_mut(i * j_dim + j);
            for c in 0..f {
                krow[c] = arow[c] * brow[c];
            }
        }
    }
    k
}

/// Chained Khatri-Rao product `M₀ ⊙ M₁ ⊙ … ⊙ Mₙ` evaluated left to right.
///
/// # Panics
/// Panics if `mats` is empty or column counts differ.
pub fn khatri_rao_chain(mats: &[&Mat]) -> Mat {
    assert!(!mats.is_empty(), "khatri_rao_chain needs at least one operand");
    let mut acc = mats[0].clone();
    for m in &mats[1..] {
        acc = khatri_rao(&acc, m);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Mat, b: &Mat, tol: f32) -> bool {
        a.max_abs_diff(b) <= tol
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Mat::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let i = Mat::identity(3);
        assert!(approx_eq(&matmul(&a, &i), &a, 0.0));
        assert!(approx_eq(&matmul(&i, &a), &a, 0.0));
    }

    #[test]
    fn matmul_known_values() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transb_agrees_with_explicit_transpose() {
        let a = Mat::from_fn(4, 3, |r, c| (r + 2 * c) as f32);
        let b = Mat::from_fn(5, 3, |r, c| (2 * r + c) as f32);
        let expect = matmul(&a, &b.transpose());
        assert!(approx_eq(&matmul_transb(&a, &b), &expect, 1e-5));
    }

    #[test]
    fn gram_matches_definition() {
        let a = Mat::from_fn(6, 4, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
        let expect = matmul(&a.transpose(), &a);
        let g = gram(&a);
        assert!(approx_eq(&g, &expect, 1e-4));
        // symmetry
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(g[(i, j)], g[(j, i)]);
            }
        }
    }

    #[test]
    fn hadamard_known() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let mut c = a.clone();
        hadamard_assign(&mut c, &b);
        assert_eq!(c.as_slice(), &[5.0, 12.0, 21.0, 32.0]);
    }

    #[test]
    fn khatri_rao_shape_and_values() {
        // A is 2x2, B is 3x2 -> K is 6x2, row (i*3+j) = A[i,:]*B[j,:]
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let k = khatri_rao(&a, &b);
        assert_eq!(k.rows(), 6);
        assert_eq!(k.cols(), 2);
        assert_eq!(k.row(0), &[1.0, 2.0]); // a0*b0
        assert_eq!(k.row(2), &[3.0, 6.0]); // a0*b2
        assert_eq!(k.row(5), &[9.0, 12.0]); // a1*b2
    }

    #[test]
    fn khatri_rao_chain_three_way() {
        let a = Mat::from_fn(2, 2, |r, c| (r + c + 1) as f32);
        let b = Mat::from_fn(3, 2, |r, c| (r * 2 + c + 1) as f32);
        let c = Mat::from_fn(2, 2, |r, c| (r + 2 * c + 1) as f32);
        let chained = khatri_rao_chain(&[&a, &b, &c]);
        let expect = khatri_rao(&khatri_rao(&a, &b), &c);
        assert!(approx_eq(&chained, &expect, 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = matmul(&a, &b);
    }
}
