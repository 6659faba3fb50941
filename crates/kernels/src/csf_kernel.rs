//! The CSF fiber-parallel kernel — the tree-format alternative (§II-D,
//! BCSF/MM-CSF family). One worker owns each root slice, so output rows
//! are written without atomics; the price is slice-level load imbalance
//! (the issue BCSF exists to fix), which the cost model charges through
//! the per-slice serial chain.

use crate::atomic_buf::AtomicF32Buffer;
use crate::factors::FactorSet;
use crate::reference;
use scalfrag_tensor::CsfTensor;

/// The slice-parallel CSF MTTKRP kernel.
pub struct CsfFiberKernel;

impl CsfFiberKernel {
    /// Kernel name for reports.
    pub const NAME: &'static str = "csf-fiber";

    /// Functional body: the host-pool slice-parallel CSF walk, accumulated into
    /// the shared output buffer (adds are conflict-free because each slice
    /// owns its row, but the atomic buffer keeps the API uniform).
    pub fn execute(csf: &CsfTensor, factors: &FactorSet, out: &AtomicF32Buffer) {
        let mode = csf.mode_order()[0];
        let rank = factors.rank();
        assert_eq!(out.len(), csf.dims()[mode] as usize * rank, "output buffer shape mismatch");
        let m = reference::mttkrp_csf(csf, factors);
        for r in 0..m.rows() {
            let row = m.row(r);
            let base = r * rank;
            for (f, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    out.add(base + f, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::mttkrp_seq;
    use scalfrag_linalg::Mat;
    use scalfrag_tensor::CooTensor;

    #[test]
    fn matches_reference_all_modes() {
        let t = CooTensor::random_uniform(&[18, 14, 10], 700, 1);
        let f = FactorSet::random(&[18, 14, 10], 8, 2);
        for mode in 0..3 {
            let csf = CsfTensor::from_coo(&t, mode);
            let out = AtomicF32Buffer::new(t.dims()[mode] as usize * 8);
            CsfFiberKernel::execute(&csf, &f, &out);
            let m = Mat::from_vec(t.dims()[mode] as usize, 8, out.to_vec());
            let expect = mttkrp_seq(&t, &f, mode);
            assert!(m.max_abs_diff(&expect) < 1e-3, "mode {mode}");
        }
    }
}
