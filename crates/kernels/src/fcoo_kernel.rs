//! The F-COO segmented-reduction kernel (Liu et al.) — the atomic-free
//! COO-family alternative of §II-D.
//!
//! Each partition of the F-COO tensor is processed by one block: entries
//! are multiplied and *segment-scanned* using the start flags, so every
//! output row receives exactly one write per partition that touches it,
//! and at most one cross-partition combination at each boundary (instead
//! of `rank` atomics per entry as in the plain COO kernel).

use crate::atomic_buf::AtomicF32Buffer;
use crate::factors::FactorSet;
use crate::workload::SegmentStats;
use crate::{partials, simd};
use scalfrag_gpusim::{Gpu, KernelWorkload, LaunchConfig, OpId, StreamId};
use scalfrag_tensor::FCooTensor;
use std::sync::Arc;

/// The flag-based segmented-reduction MTTKRP kernel.
pub struct FCooKernel;

impl FCooKernel {
    /// Kernel name for reports.
    pub const NAME: &'static str = "fcoo-segreduce";

    /// Cost-model workload: no atomics; instead one combining write per
    /// row-per-partition, a small flag-read overhead, and slightly higher
    /// per-item instruction cost (the scan).
    pub fn workload(stats: &SegmentStats, rank: u32, num_partitions: u64) -> KernelWorkload {
        KernelWorkload {
            work_items: stats.nnz,
            flops: stats.flops(rank),
            // Indices (one fewer mode than COO), values, factor rows, flags.
            bytes_read: stats.bytes_read(rank) - stats.nnz * 4 + stats.nnz / 8,
            // One rank-row write per (row, partition) pair; bounded by one
            // per partition plus one per distinct row.
            bytes_written: (num_partitions + stats.nnz / stats.avg_nnz_per_slice.max(1.0) as u64)
                * rank as u64
                * 4,
            atomic_ops: num_partitions * rank as u64, // boundary combinations
            atomic_hotness: 0.0,
            coalescing: 0.45,
            regs_per_thread: 48,
            shared_tile_reduction: 1.0,
            item_cycles: (rank * (stats.order + 2)) as f64 * 2.0,
        }
    }

    /// Functional body: per-partition segmented reduction. Output rows can
    /// straddle partitions, so boundary flushes use the shared atomic
    /// buffer (one combination per boundary — the F-COO invariant).
    pub fn execute(fcoo: &FCooTensor, factors: &FactorSet, out: &AtomicF32Buffer) {
        let rank = factors.rank();
        let mode = fcoo.mode();
        assert_eq!(out.len(), fcoo.dims()[mode] as usize * rank, "output buffer shape mismatch");
        if fcoo.nnz() == 0 {
            return;
        }

        // One unit per F-COO partition, applied in partition order.
        partials::run_units(fcoo.num_partitions(), out, |p, list| {
            let range = fcoo.partition_range(p);
            let mut acc = vec![0.0f32; rank];
            let mut prod = vec![0.0f32; rank];
            let mut open_row = fcoo.row(range.start) as usize;

            for e in range {
                let row = fcoo.row(e) as usize;
                if row != open_row {
                    debug_assert!(fcoo.starts_row(e), "rows change only at start flags");
                    flush(list, open_row, rank, &mut acc);
                    open_row = row;
                }
                simd::fill(&mut prod, fcoo.values()[e]);
                for (k, _) in fcoo.other_modes().iter().enumerate() {
                    let m = fcoo.other_modes()[k];
                    simd::mul_assign(
                        &mut prod,
                        factors.get(m).row(fcoo.other_indices(k)[e] as usize),
                    );
                }
                simd::add_assign(&mut acc, &prod);
            }
            flush(list, open_row, rank, &mut acc);
        });

        fn flush(list: &mut crate::partials::UpdateList, row: usize, rank: usize, acc: &mut [f32]) {
            let base = row * rank;
            for (f, a) in acc.iter_mut().enumerate() {
                if *a != 0.0 {
                    list.push((base + f, *a));
                }
                *a = 0.0;
            }
        }
    }

    /// Enqueues this kernel on the simulated GPU.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue(
        gpu: &mut Gpu,
        stream: StreamId,
        config: LaunchConfig,
        coo_stats: &SegmentStats,
        fcoo: Arc<FCooTensor>,
        factors: Arc<FactorSet>,
        out: Arc<AtomicF32Buffer>,
        label: impl Into<Arc<str>>,
    ) -> OpId {
        let workload =
            Self::workload(coo_stats, factors.rank() as u32, fcoo.num_partitions() as u64);
        gpu.launch_exec(stream, config, workload, label, move || {
            Self::execute(&fcoo, &factors, &out);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::mttkrp_seq;
    use scalfrag_linalg::Mat;
    use scalfrag_tensor::CooTensor;

    fn run(t: &CooTensor, f: &FactorSet, mode: usize, seg_len: usize) -> Mat {
        let fcoo = FCooTensor::from_coo(t, mode, seg_len);
        let rank = f.rank();
        let out = AtomicF32Buffer::new(t.dims()[mode] as usize * rank);
        FCooKernel::execute(&fcoo, f, &out);
        Mat::from_vec(t.dims()[mode] as usize, rank, out.to_vec())
    }

    #[test]
    fn matches_reference_across_modes_and_seg_lens() {
        let t = CooTensor::random_uniform(&[25, 20, 15], 1_200, 1);
        let f = FactorSet::random(&[25, 20, 15], 8, 2);
        for mode in 0..3 {
            for seg_len in [1usize, 7, 64, 4096] {
                let a = run(&t, &f, mode, seg_len);
                let b = mttkrp_seq(&t, &f, mode);
                assert!(
                    a.max_abs_diff(&b) < 1e-3,
                    "mode {mode} seg {seg_len}: {}",
                    a.max_abs_diff(&b)
                );
            }
        }
    }

    #[test]
    fn matches_reference_4way() {
        let t = CooTensor::random_uniform(&[10, 9, 8, 7], 500, 3);
        let f = FactorSet::random(&[10, 9, 8, 7], 4, 4);
        for mode in 0..4 {
            let a = run(&t, &f, mode, 37);
            let b = mttkrp_seq(&t, &f, mode);
            assert!(a.max_abs_diff(&b) < 1e-3, "mode {mode}");
        }
    }

    #[test]
    fn workload_has_few_atomics() {
        let t = CooTensor::random_uniform(&[100, 80, 60], 10_000, 5);
        let stats = SegmentStats::compute(&t, 0);
        let w = FCooKernel::workload(&stats, 16, 40);
        let coo_w = crate::workload::coo_atomic_workload(&stats, 16);
        assert!(w.atomic_ops < coo_w.atomic_ops / 100);
        assert_eq!(w.atomic_hotness, 0.0);
    }

    #[test]
    fn enqueue_runs() {
        let t = CooTensor::random_uniform(&[20, 15, 10], 400, 7);
        let f = Arc::new(FactorSet::random(&[20, 15, 10], 4, 8));
        let stats = SegmentStats::compute(&t, 0);
        let fcoo = Arc::new(FCooTensor::from_coo(&t, 0, 64));
        let out = Arc::new(AtomicF32Buffer::new(20 * 4));
        let mut gpu = Gpu::new(scalfrag_gpusim::DeviceSpec::rtx3090());
        let s = gpu.create_stream();
        FCooKernel::enqueue(
            &mut gpu,
            s,
            LaunchConfig::new(64, 64),
            &stats,
            fcoo,
            Arc::clone(&f),
            Arc::clone(&out),
            "fcoo",
        );
        gpu.synchronize();
        let m = Mat::from_vec(20, 4, out.to_vec());
        assert!(m.max_abs_diff(&mttkrp_seq(&t, &f, 0)) < 1e-3);
    }

    #[test]
    fn empty_tensor_is_noop() {
        let t = CooTensor::new(&[5, 5, 5]);
        let f = FactorSet::random(&[5, 5, 5], 4, 0);
        let fcoo = FCooTensor::from_coo(&t, 0, 16);
        let out = AtomicF32Buffer::new(5 * 4);
        FCooKernel::execute(&fcoo, &f, &out);
        assert!(out.to_vec().iter().all(|&x| x == 0.0));
    }
}
