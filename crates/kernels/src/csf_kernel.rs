//! The CSF fiber-parallel kernel — the tree-format alternative (§II-D,
//! BCSF/MM-CSF family). One worker owns each root slice, so output rows
//! are written without atomics; the price is slice-level load imbalance
//! (the issue BCSF exists to fix), which the cost model charges through
//! the per-slice serial chain.

use crate::atomic_buf::AtomicF32Buffer;
use crate::factors::FactorSet;
use crate::reference;
use crate::workload::{csf_fiber_workload, SegmentStats};
use scalfrag_gpusim::{Gpu, KernelWorkload, LaunchConfig, OpId, StreamId};
use scalfrag_tensor::{CooTensor, CsfTensor};
use std::sync::Arc;

/// The slice-parallel CSF MTTKRP kernel.
pub struct CsfFiberKernel;

impl CsfFiberKernel {
    /// Kernel name for reports.
    pub const NAME: &'static str = "csf-fiber";

    /// Cost-model workload for a CSF tree built from a segment with the
    /// given stats.
    pub fn workload(stats: &SegmentStats, rank: u32, num_slices: u64) -> KernelWorkload {
        csf_fiber_workload(stats, rank, num_slices)
    }

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

    /// Enqueues this kernel on the simulated GPU.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue(
        gpu: &mut Gpu,
        stream: StreamId,
        config: LaunchConfig,
        coo_segment: &CooTensor,
        csf: Arc<CsfTensor>,
        factors: Arc<FactorSet>,
        out: Arc<AtomicF32Buffer>,
        label: impl Into<Arc<str>>,
    ) -> OpId {
        let mode = csf.mode_order()[0];
        let stats = SegmentStats::compute(coo_segment, mode);
        let workload = Self::workload(&stats, factors.rank() as u32, csf.num_slices() as u64);
        gpu.launch_exec(stream, config, workload, label, move || {
            Self::execute(&csf, &factors, &out);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::mttkrp_seq;
    use scalfrag_linalg::Mat;

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

    #[test]
    fn enqueue_runs_and_matches() {
        let t = CooTensor::random_uniform(&[20, 12, 8], 500, 3);
        let f = Arc::new(FactorSet::random(&[20, 12, 8], 4, 4));
        let csf = Arc::new(CsfTensor::from_coo(&t, 1));
        let out = Arc::new(AtomicF32Buffer::new(12 * 4));
        let mut gpu = Gpu::new(scalfrag_gpusim::DeviceSpec::rtx3090());
        let s = gpu.create_stream();
        CsfFiberKernel::enqueue(
            &mut gpu,
            s,
            LaunchConfig::new(64, 64),
            &t,
            Arc::clone(&csf),
            Arc::clone(&f),
            Arc::clone(&out),
            "csf",
        );
        let tl = gpu.synchronize();
        assert!(tl.spans[0].duration() > 0.0);
        let m = Mat::from_vec(12, 4, out.to_vec());
        let expect = mttkrp_seq(&t, &f, 1);
        assert!(m.max_abs_diff(&expect) < 1e-3);
    }
}
