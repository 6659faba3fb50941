//! CPU reference MTTKRP — the correctness oracle.
//!
//! Implements Equation (4), `M = X₍ₙ₎ (A⁽ᴺ⁾ ⊙ … ⊙ A⁽ⁿ⁺¹⁾ ⊙ A⁽ⁿ⁻¹⁾ ⊙ … ⊙
//! A⁽¹⁾)`, directly over the sparse entries: for every non-zero
//! `x(i₁,…,i_N)` and every rank column `f`,
//! `M(i_n, f) += x · Π_{m≠n} A⁽ᵐ⁾(i_m, f)`.
//!
//! Two flavours over COO, sequential and host-pool-parallel (row-sharded to
//! stay deterministic up to f32 association within a row), plus one over
//! CSF. The unit tests hold them to a dense validator that literally
//! materialises `X₍ₙ₎` and the Khatri-Rao chain for tiny tensors.

use crate::{simd, FactorSet};
use scalfrag_linalg::Mat;
use scalfrag_tensor::{CooTensor, CsfTensor};

/// Fixed partial count for [`mttkrp_par`]. Deliberately **not** derived
/// from `scalfrag_host::current_num_threads()`: with the host pool the
/// thread count varies per call site, and a thread-dependent chunk count
/// would change the partial fold order — and therefore the f32 bits —
/// between pool sizes. 32 partials keep 8 workers busy (4 chunks each)
/// while bounding partial-matrix memory.
pub const PAR_CHUNKS: usize = 32;

/// Entry-chunk length [`mttkrp_par`] uses for `nnz` entries — a pure
/// function of the workload, identical at every thread count. Public so
/// the heuristic-regression test can pin the thread-independence.
pub fn par_chunk_len(nnz: usize) -> usize {
    nnz.div_ceil(PAR_CHUNKS).max(1)
}

/// Sequential COO MTTKRP for any mode of any-order tensors.
///
/// # Panics
/// Panics if factor dims do not match the tensor.
pub fn mttkrp_seq(tensor: &CooTensor, factors: &FactorSet, mode: usize) -> Mat {
    check_shapes(tensor, factors, mode);
    let rank = factors.rank();
    let order = tensor.order();
    let mut out = Mat::zeros(tensor.dims()[mode] as usize, rank);
    let mut acc = vec![0.0f32; rank];
    for e in 0..tensor.nnz() {
        simd::fill(&mut acc, tensor.values()[e]);
        for m in 0..order {
            if m == mode {
                continue;
            }
            simd::mul_assign(&mut acc, factors.get(m).row(tensor.mode_indices(m)[e] as usize));
        }
        let out_row = out.row_mut(tensor.mode_indices(mode)[e] as usize);
        simd::add_assign(out_row, &acc);
    }
    out
}

/// Pool-parallel COO MTTKRP. The tensor does not need to be sorted; each
/// chunk accumulates a private output which is reduced at the end (the
/// multi-core CPU strategy of SPLATT-style libraries). The chunk count is
/// fixed ([`par_chunk_len`]) and partials fold in chunk order, so the
/// result is bit-identical at every pool size.
pub fn mttkrp_par(tensor: &CooTensor, factors: &FactorSet, mode: usize) -> Mat {
    check_shapes(tensor, factors, mode);
    let rank = factors.rank();
    let rows = tensor.dims()[mode] as usize;
    let order = tensor.order();
    let nnz = tensor.nnz();
    if nnz == 0 {
        return Mat::zeros(rows, rank);
    }
    let chunk = par_chunk_len(nnz);
    let num_chunks = nnz.div_ceil(chunk);

    let partials: Vec<Mat> = scalfrag_host::par_map(num_chunks, |c| {
        let mut local = Mat::zeros(rows, rank);
        let mut acc = vec![0.0f32; rank];
        for e in c * chunk..((c + 1) * chunk).min(nnz) {
            simd::fill(&mut acc, tensor.values()[e]);
            for m in 0..order {
                if m == mode {
                    continue;
                }
                simd::mul_assign(&mut acc, factors.get(m).row(tensor.mode_indices(m)[e] as usize));
            }
            let out_row = local.row_mut(tensor.mode_indices(mode)[e] as usize);
            simd::add_assign(out_row, &acc);
        }
        local
    });

    let mut out = Mat::zeros(rows, rank);
    for p in partials {
        out.axpy(1.0, &p);
    }
    out
}

/// MTTKRP over a CSF tree for its *root* mode: each slice owns its output
/// row, so slices parallelise without atomics; within a slice the tree is
/// walked depth-first accumulating fiber partials (the classic SPLATT
/// 3-way recursion, generalised to any order).
pub fn mttkrp_csf(csf: &CsfTensor, factors: &FactorSet) -> Mat {
    let mode = csf.mode_order()[0];
    let rank = factors.rank();
    let rows = csf.dims()[mode] as usize;
    let mut out = Mat::zeros(rows, rank);

    // Slice-parallel on the host pool; results land in slice order, so
    // bits are pool-invariant.
    let slice_results: Vec<(usize, Vec<f32>)> = scalfrag_host::par_map(csf.num_slices(), |s| {
        let mut acc = vec![0.0f32; rank];
        accumulate_subtree(csf, factors, 0, s, &mut acc);
        (csf.fids(0)[s] as usize, acc)
    });

    for (row, acc) in slice_results {
        let out_row = out.row_mut(row);
        for (o, a) in out_row.iter_mut().zip(acc) {
            *o += a;
        }
    }
    out
}

/// Recursively accumulates `Σ_leaf val · Π_{levels>0} factor_row` for the
/// subtree under `node` at `level`, writing into `acc` (length `rank`).
fn accumulate_subtree(
    csf: &CsfTensor,
    factors: &FactorSet,
    level: usize,
    node: usize,
    acc: &mut [f32],
) {
    let order = csf.order();
    if level == order - 1 {
        // Leaf: val * factor row of the leaf mode.
        let m = csf.mode_order()[level];
        let row = factors.get(m).row(csf.fids(level)[node] as usize);
        let v = csf.values()[node];
        for (a, &w) in acc.iter_mut().zip(row) {
            *a += v * w;
        }
        return;
    }
    let mut child_acc = vec![0.0f32; acc.len()];
    for child in csf.fptr(level)[node]..csf.fptr(level)[node + 1] {
        accumulate_subtree(csf, factors, level + 1, child, &mut child_acc);
        if level + 1 < order - 1 {
            // Inner node: scale the subtree result by this child's factor row
            // and fold it up. (For the level just above the leaves the leaf
            // call already multiplied values; the child's own row applies.)
        }
        let m = csf.mode_order()[level + 1];
        if level + 1 < order - 1 {
            let row = factors.get(m).row(csf.fids(level + 1)[child] as usize);
            for (a, (&c, &w)) in acc.iter_mut().zip(child_acc.iter().zip(row)) {
                *a += c * w;
            }
        } else {
            // child is a leaf: already multiplied by its factor row above.
            for (a, &c) in acc.iter_mut().zip(child_acc.iter()) {
                *a += c;
            }
        }
        child_acc.iter_mut().for_each(|x| *x = 0.0);
    }
    // Root level (0) rows are the output; intermediate levels multiplied by
    // their own factor row happen in the caller.
}

fn check_shapes(tensor: &CooTensor, factors: &FactorSet, mode: usize) {
    assert!(mode < tensor.order(), "mode out of range");
    assert_eq!(factors.order(), tensor.order(), "factor count != tensor order");
    for (m, &d) in tensor.dims().iter().enumerate() {
        assert_eq!(factors.get(m).rows(), d as usize, "factor {m} rows != tensor dim");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_linalg::{khatri_rao_chain, matmul};
    use scalfrag_tensor::matricize;

    /// Dense-path validation: materialises `X₍ₙ₎` and the Khatri-Rao chain
    /// and multiplies them — Equation (4) literally. Only for tiny tensors.
    fn mttkrp_dense_validation(tensor: &CooTensor, factors: &FactorSet, mode: usize) -> Mat {
        check_shapes(tensor, factors, mode);
        let (rows, cols, x) = matricize::to_dense_matricized(tensor, mode);
        let xmat = Mat::from_vec(rows, cols, x);
        // Column linearisation in `matricize` runs highest mode slowest, so
        // the Khatri-Rao chain must be A^(N) ⊙ ... skipping mode n ... ⊙ A^(1).
        let mats: Vec<&Mat> =
            (0..tensor.order()).rev().filter(|&m| m != mode).map(|m| factors.get(m)).collect();
        let kr = khatri_rao_chain(&mats);
        matmul(&xmat, &kr)
    }

    fn max_diff(a: &Mat, b: &Mat) -> f32 {
        a.max_abs_diff(b)
    }

    #[test]
    fn seq_matches_dense_equation4_3way() {
        let t = CooTensor::random_uniform(&[6, 5, 4], 40, 1);
        let f = FactorSet::random(&[6, 5, 4], 7, 2);
        for mode in 0..3 {
            let sparse = mttkrp_seq(&t, &f, mode);
            let dense = mttkrp_dense_validation(&t, &f, mode);
            assert!(
                max_diff(&sparse, &dense) < 1e-4,
                "mode {mode} disagrees with Equation (4): {}",
                max_diff(&sparse, &dense)
            );
        }
    }

    #[test]
    fn seq_matches_dense_equation4_4way() {
        let t = CooTensor::random_uniform(&[4, 5, 3, 6], 50, 3);
        let f = FactorSet::random(&[4, 5, 3, 6], 5, 4);
        for mode in 0..4 {
            let sparse = mttkrp_seq(&t, &f, mode);
            let dense = mttkrp_dense_validation(&t, &f, mode);
            assert!(max_diff(&sparse, &dense) < 1e-4, "mode {mode} disagrees");
        }
    }

    #[test]
    fn par_matches_seq() {
        let t = CooTensor::random_uniform(&[40, 30, 20], 2_000, 5);
        let f = FactorSet::random(&[40, 30, 20], 16, 6);
        for mode in 0..3 {
            let a = mttkrp_seq(&t, &f, mode);
            let b = mttkrp_par(&t, &f, mode);
            assert!(max_diff(&a, &b) < 1e-3, "mode {mode}: {}", max_diff(&a, &b));
        }
    }

    #[test]
    fn csf_matches_seq_3way() {
        let t = CooTensor::random_uniform(&[15, 12, 9], 300, 7);
        let f = FactorSet::random(&[15, 12, 9], 8, 8);
        for mode in 0..3 {
            let csf = CsfTensor::from_coo(&t, mode);
            let a = mttkrp_csf(&csf, &f);
            let b = mttkrp_seq(&t, &f, mode);
            assert!(max_diff(&a, &b) < 1e-3, "mode {mode}: {}", max_diff(&a, &b));
        }
    }

    #[test]
    fn csf_matches_seq_4way() {
        let t = CooTensor::random_uniform(&[8, 7, 6, 5], 200, 9);
        let f = FactorSet::random(&[8, 7, 6, 5], 6, 10);
        for mode in 0..4 {
            let csf = CsfTensor::from_coo(&t, mode);
            let a = mttkrp_csf(&csf, &f);
            let b = mttkrp_seq(&t, &f, mode);
            assert!(max_diff(&a, &b) < 1e-3, "mode {mode}: {}", max_diff(&a, &b));
        }
    }

    #[test]
    fn empty_tensor_gives_zero_output() {
        let t = CooTensor::new(&[5, 5, 5]);
        let f = FactorSet::random(&[5, 5, 5], 4, 0);
        let m = mttkrp_par(&t, &f, 0);
        assert_eq!(m.frob_norm(), 0.0);
    }

    #[test]
    fn mttkrp_is_linear_in_values() {
        // MTTKRP(2X) == 2 * MTTKRP(X).
        let t = CooTensor::random_uniform(&[10, 8, 6], 100, 11);
        let mut t2 = t.clone();
        for v in t2.values_mut() {
            *v *= 2.0;
        }
        let f = FactorSet::random(&[10, 8, 6], 5, 12);
        let mut a = mttkrp_seq(&t, &f, 1);
        a.scale(2.0);
        let b = mttkrp_seq(&t2, &f, 1);
        assert!(max_diff(&a, &b) < 1e-3);
    }

    #[test]
    #[should_panic(expected = "mode out of range")]
    fn bad_mode_panics() {
        let t = CooTensor::new(&[3, 3]);
        let f = FactorSet::random(&[3, 3], 2, 0);
        let _ = mttkrp_seq(&t, &f, 2);
    }

    #[test]
    #[should_panic(expected = "rows != tensor dim")]
    fn mismatched_factors_panic() {
        let t = CooTensor::new(&[3, 3]);
        let f = FactorSet::random(&[3, 4], 2, 0);
        let _ = mttkrp_seq(&t, &f, 0);
    }
}
