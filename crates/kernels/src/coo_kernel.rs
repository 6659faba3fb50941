//! The ParTI-style COO atomic kernel.
//!
//! ParTI's GPU SpMTTKRP "divid[es] data partitions based on tensor
//! non-zeros" with the output updated through atomic operations (§VI-B of
//! the paper, and the overhead it calls out). The simulated kernel mirrors
//! that: one thread per non-zero, the rank-loop in registers, one
//! `atomicAdd` per rank element into the output row.

use crate::atomic_buf::AtomicF32Buffer;
use crate::factors::FactorSet;
use crate::{partials, simd};
use scalfrag_tensor::CooTensor;
use std::ops::Range;

/// Entries per parallel unit. Fixed (never thread-derived) so the unit
/// decomposition — and with it the submission-order fold — is identical
/// at every pool size.
const UNIT_LEN: usize = 1024;

/// The nnz-parallel atomic COO MTTKRP kernel (the ParTI baseline kernel).
pub struct CooAtomicKernel;

impl CooAtomicKernel {
    /// Kernel name for reports.
    pub const NAME: &'static str = "coo-atomic";

    /// Functional body: computes `out[row·rank + f] += val · Π factor rows`
    /// for every entry in `range` of `seg`, in parallel, with atomic f32
    /// adds — the exact update the CUDA kernel performs.
    ///
    /// `out` must have `dims[mode] * rank` elements.
    pub fn execute(
        seg: &CooTensor,
        range: Range<usize>,
        factors: &FactorSet,
        mode: usize,
        out: &AtomicF32Buffer,
    ) {
        let rank = factors.rank();
        assert_eq!(out.len(), seg.dims()[mode] as usize * rank, "output buffer shape mismatch");
        assert!(range.end <= seg.nnz(), "range out of bounds");
        let order = seg.order();
        let nnz = range.len();
        let units = nnz.div_ceil(UNIT_LEN);
        partials::run_units(units, out, |u, list| {
            let mut acc = vec![0.0f32; rank];
            for e in range.start + u * UNIT_LEN..range.start + ((u + 1) * UNIT_LEN).min(nnz) {
                simd::fill(&mut acc, seg.values()[e]);
                for m in 0..order {
                    if m == mode {
                        continue;
                    }
                    simd::mul_assign(&mut acc, factors.get(m).row(seg.mode_indices(m)[e] as usize));
                }
                let base = seg.mode_indices(mode)[e] as usize * rank;
                for (f, &a) in acc.iter().enumerate() {
                    list.push((base + f, a));
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::mttkrp_seq;
    use scalfrag_linalg::Mat;
    use scalfrag_tensor::CooTensor;

    fn run_functional(t: &CooTensor, f: &FactorSet, mode: usize) -> Mat {
        let rank = f.rank();
        let out = AtomicF32Buffer::new(t.dims()[mode] as usize * rank);
        CooAtomicKernel::execute(t, 0..t.nnz(), f, mode, &out);
        Mat::from_vec(t.dims()[mode] as usize, rank, out.to_vec())
    }

    #[test]
    fn matches_reference_all_modes_3way() {
        let t = CooTensor::random_uniform(&[30, 20, 10], 1_000, 1);
        for rank in [16, 65, 100] {
            let f = FactorSet::random(&[30, 20, 10], rank, 2);
            for mode in 0..3 {
                let a = run_functional(&t, &f, mode);
                let b = mttkrp_seq(&t, &f, mode);
                let diff = a.max_abs_diff(&b);
                assert!(diff < 1e-3, "rank {rank} mode {mode}: {diff}");
            }
        }
    }

    #[test]
    fn matches_reference_4way() {
        let t = CooTensor::random_uniform(&[12, 10, 8, 6], 500, 3);
        let f = FactorSet::random(&[12, 10, 8, 6], 8, 4);
        for mode in 0..4 {
            let a = run_functional(&t, &f, mode);
            let b = mttkrp_seq(&t, &f, mode);
            assert!(a.max_abs_diff(&b) < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_output_size_panics() {
        let t = CooTensor::random_uniform(&[5, 5], 10, 0);
        let f = FactorSet::random(&[5, 5], 4, 0);
        let out = AtomicF32Buffer::new(3);
        CooAtomicKernel::execute(&t, 0..t.nnz(), &f, 0, &out);
    }
}
