//! Tucker decomposition (HOSVD) — the other decomposition ParTI ships
//! ("ParTI supports … SpCPD, sparse Tucker decomposition", §V-A3), built
//! from this crate's SpTTM and the Jacobi eigensolver.
//!
//! The truncated HOSVD computes, per mode, the leading `rₙ` eigenvectors
//! of the Gram matrix `S⁽ⁿ⁾ = X₍ₙ₎ X₍ₙ₎ᵀ` (accumulated sparsely, fiber by
//! fiber), then contracts the tensor with every factor transpose via a
//! TTM chain to obtain the core:
//! `G = X ×₁ U⁽¹⁾ᵀ ×₂ U⁽²⁾ᵀ ⋯ ×_N U⁽ᴺ⁾ᵀ`.
//!
//! Scope note: the eigen-based factor step materialises the `Iₙ × Iₙ`
//! Gram, so this is the *validation-scale* Tucker (mode sizes ≤
//! [`MAX_GRAM_DIM`]) — the same role ParTI's reference Tucker plays;
//! production-scale Tucker needs randomized sketching, which the paper
//! does not evaluate.

use crate::spttm::spttm_par;
use scalfrag_linalg::{jacobi_eigen, JacobiOptions, Mat};
use scalfrag_tensor::{CooTensor, Idx};

/// Mode-size limit for the dense Gram accumulation.
pub const MAX_GRAM_DIM: usize = 4096;

/// The result of a Tucker decomposition.
#[derive(Clone, Debug)]
pub struct TuckerResult {
    /// Orthonormal factor matrices `U⁽ⁿ⁾ ∈ ℝ^{Iₙ × rₙ}`.
    pub factors: Vec<Mat>,
    /// The dense core tensor, row-major over `core_dims`.
    pub core: Vec<f32>,
    /// Core extents `r₁ × … × r_N`.
    pub core_dims: Vec<usize>,
}

impl TuckerResult {
    /// Frobenius norm of the core (equals `‖X̂‖_F` because the factors are
    /// orthonormal).
    pub fn core_norm(&self) -> f64 {
        self.core.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt()
    }

    /// Reconstructs the dense tensor `X̂ = G ×₁ U⁽¹⁾ ⋯ ×_N U⁽ᴺ⁾` — tiny
    /// tensors only (validation).
    pub fn reconstruct_dense(&self, dims: &[Idx]) -> Vec<f32> {
        let size: usize = dims.iter().map(|&d| d as usize).product();
        assert!(size <= 1 << 22, "reconstruction only for small tensors");
        let n = dims.len();
        let mut out = vec![0.0f32; size];
        // Iterate all output coordinates; contract against the core.
        let core_size: usize = self.core_dims.iter().product();
        let mut coord = vec![0usize; n];
        for (flat, o) in out.iter_mut().enumerate() {
            let mut rem = flat;
            for m in (0..n).rev() {
                coord[m] = rem % dims[m] as usize;
                rem /= dims[m] as usize;
            }
            let mut acc = 0.0f64;
            let mut cidx = vec![0usize; n];
            for cflat in 0..core_size {
                let mut crem = cflat;
                for m in (0..n).rev() {
                    cidx[m] = crem % self.core_dims[m];
                    crem /= self.core_dims[m];
                }
                let mut w = self.core[cflat] as f64;
                for m in 0..n {
                    w *= self.factors[m][(coord[m], cidx[m])] as f64;
                }
                acc += w;
            }
            *o = acc as f32;
        }
        out
    }
}

/// Sparse accumulation of `S = X₍ₙ₎ X₍ₙ₎ᵀ`: entries sharing a mode-`n`
/// fiber contribute `v·v'` to `S[iₙ, iₙ']`.
fn mode_gram(tensor: &CooTensor, mode: usize) -> Mat {
    let dim = tensor.dims()[mode] as usize;
    assert!(dim <= MAX_GRAM_DIM, "mode {mode} too large ({dim}) for dense Gram");
    let mut order: Vec<usize> = (0..tensor.order()).filter(|&m| m != mode).collect();
    order.push(mode);
    let sorted = tensor.sorted_by_order(&order);

    let key_at = |e: usize| -> Vec<Idx> {
        order[..order.len() - 1].iter().map(|&m| sorted.mode_indices(m)[e]).collect()
    };
    let mut s = vec![0.0f64; dim * dim];
    let nnz = sorted.nnz();
    let mut start = 0usize;
    while start < nnz {
        let mut end = start + 1;
        while end < nnz && key_at(end) == key_at(start) {
            end += 1;
        }
        for a in start..end {
            let ia = sorted.mode_indices(mode)[a] as usize;
            let va = sorted.values()[a] as f64;
            for b in start..end {
                let ib = sorted.mode_indices(mode)[b] as usize;
                s[ia * dim + ib] += va * sorted.values()[b] as f64;
            }
        }
        start = end;
    }
    Mat::from_fn(dim, dim, |r, c| s[r * dim + c] as f32)
}

/// Truncated HOSVD of `tensor` with per-mode target ranks.
///
/// # Panics
/// Panics if `ranks.len() != order`, any rank is 0 or exceeds its mode
/// size, or a mode exceeds [`MAX_GRAM_DIM`].
pub fn tucker_hosvd(tensor: &CooTensor, ranks: &[usize]) -> TuckerResult {
    let n = tensor.order();
    assert_eq!(ranks.len(), n, "one target rank per mode");
    for (m, &r) in ranks.iter().enumerate() {
        assert!(r > 0 && r <= tensor.dims()[m] as usize, "invalid rank {r} for mode {m}");
    }

    // Factors: leading eigenvectors of the per-mode Gram.
    let factors: Vec<Mat> = (0..n)
        .map(|m| {
            let s = mode_gram(tensor, m);
            let (_, vecs) = jacobi_eigen(&s, JacobiOptions::default());
            Mat::from_fn(s.rows(), ranks[m], |r, c| vecs[(r, c)])
        })
        .collect();

    // Core via the TTM chain (SpTTM keeps intermediates semi-sparse).
    let mut current = tensor.clone();
    for (m, u) in factors.iter().enumerate() {
        let semi = spttm_par(&current, u, m);
        current = semi.to_coo();
    }
    let core_dims: Vec<usize> = ranks.to_vec();
    let core_size: usize = core_dims.iter().product();
    assert!(core_size <= 1 << 24, "core too large");
    let mut core = vec![0.0f32; core_size];
    for e in 0..current.nnz() {
        let c = current.coord(e);
        let mut flat = 0usize;
        for (m, &i) in c.iter().enumerate() {
            flat = flat * core_dims[m] + i as usize;
        }
        core[flat] += current.values()[e];
    }

    TuckerResult { factors, core, core_dims }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_linalg::matmul;

    #[test]
    fn factors_are_orthonormal() {
        let t = CooTensor::random_uniform(&[10, 8, 6], 120, 3);
        let res = tucker_hosvd(&t, &[4, 4, 3]);
        for (m, u) in res.factors.iter().enumerate() {
            let utu = matmul(&u.transpose(), u);
            assert!(
                utu.max_abs_diff(&Mat::identity(utu.rows())) < 1e-3,
                "mode {m} factor not orthonormal"
            );
        }
        assert_eq!(res.core_dims, vec![4, 4, 3]);
    }

    #[test]
    fn full_rank_tucker_reconstructs_exactly() {
        let t = CooTensor::random_uniform(&[6, 5, 4], 50, 7);
        let dims = [6u32, 5, 4];
        let res = tucker_hosvd(&t, &[6, 5, 4]);
        let rec = res.reconstruct_dense(&dims);
        let dense = t.to_dense();
        let mut err = 0.0f64;
        let mut norm = 0.0f64;
        for (a, b) in dense.iter().zip(&rec) {
            err += ((a - b) as f64).powi(2);
            norm += (*a as f64).powi(2);
        }
        assert!(err.sqrt() / norm.sqrt() < 1e-3, "relative error {}", err.sqrt() / norm.sqrt());
    }

    #[test]
    fn truncated_tucker_captures_most_energy() {
        // A tensor with strong low-rank structure compresses well.
        let mut t = CooTensor::new(&[12, 10, 8]);
        for i in 0..12u32 {
            for j in 0..10u32 {
                for k in 0..8u32 {
                    let v = (i as f32 + 1.0) * (j as f32 + 1.0) * 0.1
                        + 0.01 * ((i * 31 + j * 17 + k * 7) % 5) as f32;
                    t.push(&[i, j, k], v);
                }
            }
        }
        let norm_x: f64 = t.values().iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt();
        let res = tucker_hosvd(&t, &[2, 2, 2]);
        // Orthonormal factors: captured energy == core norm.
        assert!(
            res.core_norm() / norm_x > 0.98,
            "rank-(2,2,2) Tucker should capture the structure: {}",
            res.core_norm() / norm_x
        );
    }

    #[test]
    fn truncation_reduces_core_energy_monotonically() {
        let t = CooTensor::random_uniform(&[9, 8, 7], 200, 11);
        let full = tucker_hosvd(&t, &[9, 8, 7]).core_norm();
        let half = tucker_hosvd(&t, &[4, 4, 4]).core_norm();
        let tiny = tucker_hosvd(&t, &[1, 1, 1]).core_norm();
        assert!(full >= half - 1e-6);
        assert!(half >= tiny - 1e-6);
        assert!(tiny > 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid rank")]
    fn zero_rank_rejected() {
        let t = CooTensor::random_uniform(&[4, 4, 4], 10, 0);
        let _ = tucker_hosvd(&t, &[0, 2, 2]);
    }
}
