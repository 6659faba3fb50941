//! The FLYCOO-style mode-agnostic MTTKRP kernel (after Wijeratne et al.).
//!
//! One [`FlycooTensor`] — a single entry copy plus per-mode remap tables —
//! serves *every* MTTKRP mode of a CPD-ALS sweep: the kernel takes the
//! mode at call time and streams remap positions `k`, gathering entry
//! `remap(mode)[k]` from the shared storage. No re-sorting or re-tiling
//! happens between modes; the price is one extra index gather per entry.
//!
//! The reduction discipline is the same segmented fold as the
//! `balance-segscan` kernel: fixed-size partitions of remap positions,
//! interior rows folded partition-locally in remap order, rows cut by a
//! partition boundary resolved by a carry chain walking their full remap
//! range — one strict left-to-right fold per output row, bit-stable
//! across partition counts.

use scalfrag_gpusim::{Gpu, KernelWorkload, LaunchConfig, OpId, StreamId};
use scalfrag_kernels::{partials, simd, AtomicF32Buffer, FactorSet, SegmentStats};
use scalfrag_tensor::FlycooTensor;
use std::sync::Arc;

/// The FLYCOO mode-agnostic MTTKRP kernel.
pub struct FlycooKernel;

impl FlycooKernel {
    /// Kernel name for reports and the conformance registries.
    pub const NAME: &'static str = "balance-flycoo";

    /// Cost-model workload. Like the segscan arm: even partitions and
    /// zero atomic hotness. Unlike it: every entry costs one extra
    /// remap-table gather, and the gathered accesses stride the original
    /// entry order, so effective coalescing is lower.
    pub fn workload(stats: &SegmentStats, rank: u32, num_partitions: u64) -> KernelWorkload {
        KernelWorkload {
            work_items: stats.nnz,
            flops: stats.flops(rank),
            // COO traffic + the remap gather (4 B/entry) + per-partition
            // carry descriptors.
            bytes_read: stats.bytes_read(rank) + stats.nnz * 4 + num_partitions * 8,
            bytes_written: (2 * num_partitions
                + stats.nnz / stats.avg_nnz_per_slice.max(1.0) as u64)
                * rank as u64
                * 4,
            atomic_ops: 2 * num_partitions * rank as u64,
            atomic_hotness: 0.0,
            // The remap indirection scatters value/index loads.
            coalescing: 0.42,
            regs_per_thread: 50,
            shared_tile_reduction: 1.0,
            item_cycles: (rank * (stats.order + 2)) as f64 * 2.3,
        }
    }

    /// Functional body for one MTTKRP mode over the shared storage.
    pub fn execute(fly: &FlycooTensor, factors: &FactorSet, mode: usize, out: &AtomicF32Buffer) {
        let rank = factors.rank();
        assert!(mode < fly.order(), "mode out of range");
        assert_eq!(out.len(), fly.dims()[mode] as usize * rank, "output shape mismatch");
        if fly.nnz() == 0 {
            return;
        }

        // Phase 1: partition-parallel fold of interior rows (remap order),
        // partials applied in partition order.
        partials::run_units(fly.num_partitions(), out, |p, list| {
            let range = fly.partition_range(p);
            let head_cut = fly.partition_continues(mode, p);
            let tail_cut = fly.partition_continues(mode, p + 1);
            let tail_row = fly.row_at(mode, range.end - 1);
            let mut acc = vec![0.0f32; rank];
            let mut prod = vec![0.0f32; rank];
            let mut open = fly.row_at(mode, range.start);
            let mut open_cut = head_cut || (tail_cut && open == tail_row);
            for k in range.clone() {
                let row = fly.row_at(mode, k);
                if row != open {
                    if !open_cut {
                        flush_list(list, open as usize * rank, &mut acc);
                    }
                    open = row;
                    open_cut = tail_cut && open == tail_row;
                }
                if open_cut {
                    continue;
                }
                accumulate(fly, factors, mode, k, &mut prod, &mut acc);
            }
            if !open_cut {
                flush_list(list, open as usize * rank, &mut acc);
            }
        });

        // Phase 2: carry chain over the cut rows, full remap range each.
        let mut acc = vec![0.0f32; rank];
        let mut prod = vec![0.0f32; rank];
        for b in fly.boundary_rows(mode) {
            for k in b.start..b.end {
                accumulate(fly, factors, mode, k, &mut prod, &mut acc);
            }
            flush(out, b.row as usize * rank, &mut acc);
        }
    }

    /// Enqueues this kernel for one mode on the simulated GPU.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue(
        gpu: &mut Gpu,
        stream: StreamId,
        config: LaunchConfig,
        coo_stats: &SegmentStats,
        fly: Arc<FlycooTensor>,
        mode: usize,
        factors: Arc<FactorSet>,
        out: Arc<AtomicF32Buffer>,
        label: impl Into<Arc<str>>,
    ) -> OpId {
        let workload =
            Self::workload(coo_stats, factors.rank() as u32, fly.num_partitions() as u64);
        gpu.launch_exec(stream, config, workload, label, move || {
            Self::execute(&fly, &factors, mode, &out);
        })
    }
}

#[inline]
fn accumulate(
    fly: &FlycooTensor,
    factors: &FactorSet,
    mode: usize,
    k: usize,
    prod: &mut [f32],
    acc: &mut [f32],
) {
    let e = fly.remap(mode)[k] as usize;
    simd::fill(prod, fly.values()[e]);
    for m in 0..fly.order() {
        if m == mode {
            continue;
        }
        simd::mul_assign(prod, factors.get(m).row(fly.mode_indices(m)[e] as usize));
    }
    simd::add_assign(acc, prod);
}

#[inline]
fn flush(out: &AtomicF32Buffer, base: usize, acc: &mut [f32]) {
    for (f, a) in acc.iter_mut().enumerate() {
        if *a != 0.0 {
            out.add(base + f, *a);
        }
        *a = 0.0;
    }
}

#[inline]
fn flush_list(list: &mut partials::UpdateList, base: usize, acc: &mut [f32]) {
    for (f, a) in acc.iter_mut().enumerate() {
        if *a != 0.0 {
            list.push((base + f, *a));
        }
        *a = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_kernels::reference::mttkrp_seq;
    use scalfrag_linalg::Mat;
    use scalfrag_tensor::{gen, CooTensor};

    fn run(fly: &FlycooTensor, f: &FactorSet, mode: usize) -> Mat {
        let rank = f.rank();
        let out = AtomicF32Buffer::new(fly.dims()[mode] as usize * rank);
        FlycooKernel::execute(fly, f, mode, &out);
        Mat::from_vec(fly.dims()[mode] as usize, rank, out.to_vec())
    }

    /// The mode-agnostic contract: one FLYCOO value, built once, serves
    /// every mode of the sweep and matches the reference on each.
    #[test]
    fn one_tensor_serves_all_modes_without_retiling() {
        let t = CooTensor::random_uniform(&[25, 20, 15], 1_200, 21);
        let f = FactorSet::random(&[25, 20, 15], 8, 22);
        let fly = FlycooTensor::from_coo(&t, crate::FLYCOO_SEG_LEN);
        for mode in 0..3 {
            let a = run(&fly, &f, mode);
            let b = mttkrp_seq(&t, &f, mode);
            assert!(a.max_abs_diff(&b) < 1e-3, "mode {mode}: {}", a.max_abs_diff(&b));
        }
    }

    #[test]
    fn bit_stable_across_partition_counts() {
        let t = gen::zipf_slices(&[50, 35, 25], 4_000, 1.2, 31);
        let f = FactorSet::random(&[50, 35, 25], 16, 32);
        for mode in 0..3 {
            let golden: Vec<u32> = run(&FlycooTensor::from_coo(&t, 1), &f, mode)
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            for seg_len in [5usize, 64, 128, 911, 1 << 20] {
                let got: Vec<u32> = run(&FlycooTensor::from_coo(&t, seg_len), &f, mode)
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(golden, got, "mode {mode}: seg_len {seg_len} moved output bits");
            }
        }
    }

    #[test]
    fn matches_reference_on_heavy_skew_all_modes() {
        let t = gen::zipf_slices(&[40, 30, 20], 4_000, 1.6, 35);
        let f = FactorSet::random(&[40, 30, 20], 8, 36);
        let fly = FlycooTensor::from_coo(&t, 128);
        for mode in 0..3 {
            let a = run(&fly, &f, mode);
            let b = mttkrp_seq(&t, &f, mode);
            assert!(a.max_abs_diff(&b) < 1e-2, "mode {mode}");
        }
    }

    #[test]
    fn matches_reference_4way() {
        let t = CooTensor::random_uniform(&[10, 9, 8, 7], 500, 41);
        let f = FactorSet::random(&[10, 9, 8, 7], 4, 42);
        let fly = FlycooTensor::from_coo(&t, 33);
        for mode in 0..4 {
            let a = run(&fly, &f, mode);
            let b = mttkrp_seq(&t, &f, mode);
            assert!(a.max_abs_diff(&b) < 1e-3, "mode {mode}");
        }
    }

    #[test]
    fn workload_is_hotness_free_but_pays_the_gather() {
        let t = gen::zipf_slices(&[100, 80, 60], 10_000, 1.4, 45);
        let stats = SegmentStats::compute(&t, 0);
        let w = FlycooKernel::workload(&stats, 16, 79);
        let seg_w = crate::balanced_workload(&stats, 16);
        assert_eq!(w.atomic_hotness, 0.0);
        // The remap gather shows up as extra read traffic vs the segscan arm.
        assert!(w.bytes_read > seg_w.bytes_read);
        assert!(w.coalescing < seg_w.coalescing);
    }

    #[test]
    fn enqueue_runs() {
        let t = CooTensor::random_uniform(&[20, 15, 10], 400, 51);
        let f = Arc::new(FactorSet::random(&[20, 15, 10], 4, 52));
        let stats = SegmentStats::compute(&t, 1);
        let fly = Arc::new(FlycooTensor::from_coo(&t, 64));
        let out = Arc::new(AtomicF32Buffer::new(15 * 4));
        let mut gpu = Gpu::new(scalfrag_gpusim::DeviceSpec::rtx3090());
        let s = gpu.create_stream();
        FlycooKernel::enqueue(
            &mut gpu,
            s,
            LaunchConfig::new(64, 64),
            &stats,
            fly,
            1,
            Arc::clone(&f),
            Arc::clone(&out),
            "flycoo",
        );
        gpu.synchronize();
        let m = Mat::from_vec(15, 4, out.to_vec());
        assert!(m.max_abs_diff(&mttkrp_seq(&t, &f, 1)) < 1e-3);
    }

    #[test]
    fn empty_tensor_is_noop() {
        let t = CooTensor::new(&[5, 5, 5]);
        let f = FactorSet::random(&[5, 5, 5], 4, 0);
        let fly = FlycooTensor::from_coo(&t, 16);
        let out = AtomicF32Buffer::new(5 * 4);
        FlycooKernel::execute(&fly, &f, 0, &out);
        assert!(out.to_vec().iter().all(|&x| x == 0.0));
    }
}
