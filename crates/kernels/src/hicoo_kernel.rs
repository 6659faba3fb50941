//! The HiCOO block-parallel kernel (Li et al., SC'18) — §II-D's blocked
//! COO-family member, which "reduc[es] the memory required to store tensor
//! nonzeros (and hence memory bandwidth conflicts)".
//!
//! One block of threads processes one (or more) HiCOO blocks: the compact
//! `u8` local offsets shrink index traffic, and because a HiCOO block
//! spans at most `2^bits` output rows, partial sums accumulate in a small
//! local tile before a single flush per (block, row) — a natural fit for
//! the shared-memory staging that ScalFrag's tiled kernel generalises.

use crate::atomic_buf::AtomicF32Buffer;
use crate::factors::FactorSet;
use crate::workload::SegmentStats;
use crate::{partials, simd};
use scalfrag_gpusim::{Gpu, KernelWorkload, LaunchConfig, OpId, StreamId};
use scalfrag_tensor::HiCooTensor;
use std::sync::Arc;

/// The block-parallel HiCOO MTTKRP kernel.
pub struct HiCooKernel;

impl HiCooKernel {
    /// Kernel name for reports.
    pub const NAME: &'static str = "hicoo-block";

    /// Cost-model workload: compact offsets cut index bytes; the per-block
    /// tile divides atomic traffic by the in-block row reuse.
    pub fn workload(
        stats: &SegmentStats,
        rank: u32,
        avg_nnz_per_block: f64,
        block_edge: u32,
    ) -> KernelWorkload {
        // Index bytes: block coords amortised + 1 byte per entry per mode.
        let idx_bytes = stats.nnz * stats.order as u64
            + (stats.nnz as f64 / avg_nnz_per_block.max(1.0)) as u64 * stats.order as u64 * 4;
        let factor_bytes = stats.nnz * (stats.order as u64 - 1) * rank as u64 * 4;
        let reuse = avg_nnz_per_block.clamp(1.0, block_edge as f64);
        KernelWorkload {
            work_items: stats.nnz,
            flops: stats.flops(rank),
            bytes_read: idx_bytes + stats.nnz * 4 + factor_bytes,
            bytes_written: 0,
            atomic_ops: stats.nnz * rank as u64,
            atomic_hotness: stats.row_hotness,
            coalescing: 0.5,
            regs_per_thread: 48,
            shared_tile_reduction: reuse,
            item_cycles: (rank * (stats.order + 1)) as f64 * 2.0,
        }
    }

    /// Functional body: per-HiCOO-block local accumulation into a dense
    /// `block_edge × rank` tile, flushed once per touched row.
    pub fn execute(hicoo: &HiCooTensor, factors: &FactorSet, mode: usize, out: &AtomicF32Buffer) {
        let rank = factors.rank();
        assert_eq!(out.len(), hicoo.dims()[mode] as usize * rank, "output buffer shape mismatch");
        let edge = hicoo.block_edge() as usize;

        // One unit per HiCOO block, applied in block order.
        partials::run_units(hicoo.blocks().len(), out, |u, list| {
            let b = &hicoo.blocks()[u];
            // Local tile: one row of partials per in-block output row.
            let mut tile = vec![0.0f32; edge * rank];
            let mut touched = vec![false; edge];
            let mut prod = vec![0.0f32; rank];
            let row_base = (b.bidx[mode] as usize) << hicoo.block_edge().trailing_zeros();

            for e in b.start..b.end {
                let coord = hicoo.coord_in(b, e);
                simd::fill(&mut prod, hicoo.values()[e]);
                for (m, &c) in coord.iter().enumerate() {
                    if m == mode {
                        continue;
                    }
                    simd::mul_assign(&mut prod, factors.get(m).row(c as usize));
                }
                let local = coord[mode] as usize - row_base;
                touched[local] = true;
                simd::add_assign(&mut tile[local * rank..(local + 1) * rank], &prod);
            }
            for (local, &hit) in touched.iter().enumerate() {
                if hit {
                    let base = (row_base + local) * rank;
                    for f in 0..rank {
                        let v = tile[local * rank + f];
                        if v != 0.0 {
                            list.push((base + f, v));
                        }
                    }
                }
            }
        });
    }

    /// Enqueues this kernel on the simulated GPU.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue(
        gpu: &mut Gpu,
        stream: StreamId,
        config: LaunchConfig,
        coo_stats: &SegmentStats,
        hicoo: Arc<HiCooTensor>,
        factors: Arc<FactorSet>,
        mode: usize,
        out: Arc<AtomicF32Buffer>,
        label: impl Into<Arc<str>>,
    ) -> OpId {
        let workload = Self::workload(
            coo_stats,
            factors.rank() as u32,
            hicoo.avg_nnz_per_block(),
            hicoo.block_edge(),
        );
        gpu.launch_exec(stream, config, workload, label, move || {
            Self::execute(&hicoo, &factors, mode, &out);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::mttkrp_seq;
    use scalfrag_linalg::Mat;
    use scalfrag_tensor::CooTensor;

    fn run(t: &CooTensor, f: &FactorSet, mode: usize, bits: u32) -> Mat {
        let h = HiCooTensor::from_coo(t, bits);
        let rank = f.rank();
        let out = AtomicF32Buffer::new(t.dims()[mode] as usize * rank);
        HiCooKernel::execute(&h, f, mode, &out);
        Mat::from_vec(t.dims()[mode] as usize, rank, out.to_vec())
    }

    #[test]
    fn matches_reference_across_modes_and_block_sizes() {
        let t = CooTensor::random_uniform(&[30, 24, 18], 900, 1);
        let f = FactorSet::random(&[30, 24, 18], 8, 2);
        for mode in 0..3 {
            for bits in [2u32, 4, 6] {
                let a = run(&t, &f, mode, bits);
                let b = mttkrp_seq(&t, &f, mode);
                assert!(
                    a.max_abs_diff(&b) < 1e-3,
                    "mode {mode} bits {bits}: {}",
                    a.max_abs_diff(&b)
                );
            }
        }
    }

    #[test]
    fn clustered_tensors_get_higher_tile_reduction() {
        let clustered = scalfrag_tensor::gen::blocked(&[256, 256, 256], 4_000, 8, 16, 3);
        let uniform = scalfrag_tensor::gen::uniform(&[256, 256, 256], 4_000, 3);
        let hc = HiCooTensor::from_coo(&clustered, 4);
        let hu = HiCooTensor::from_coo(&uniform, 4);
        let sc = SegmentStats::compute(&clustered, 0);
        let su = SegmentStats::compute(&uniform, 0);
        let wc = HiCooKernel::workload(&sc, 16, hc.avg_nnz_per_block(), 16);
        let wu = HiCooKernel::workload(&su, 16, hu.avg_nnz_per_block(), 16);
        assert!(wc.shared_tile_reduction > wu.shared_tile_reduction);
        assert!(wc.bytes_read < wu.bytes_read, "clustering amortises block coords");
    }

    #[test]
    fn enqueue_runs_and_matches() {
        let t = scalfrag_tensor::gen::blocked(&[64, 64, 64], 800, 8, 8, 5);
        let f = Arc::new(FactorSet::random(&[64, 64, 64], 4, 6));
        let h = Arc::new(HiCooTensor::from_coo(&t, 3));
        let stats = SegmentStats::compute(&t, 1);
        let out = Arc::new(AtomicF32Buffer::new(64 * 4));
        let mut gpu = Gpu::new(scalfrag_gpusim::DeviceSpec::rtx3090());
        let s = gpu.create_stream();
        HiCooKernel::enqueue(
            &mut gpu,
            s,
            LaunchConfig::new(64, 128),
            &stats,
            h,
            Arc::clone(&f),
            1,
            Arc::clone(&out),
            "hicoo",
        );
        gpu.synchronize();
        let m = Mat::from_vec(64, 4, out.to_vec());
        assert!(m.max_abs_diff(&mttkrp_seq(&t, &f, 1)) < 1e-3);
    }
}
