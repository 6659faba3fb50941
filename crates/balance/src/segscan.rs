//! The load-balanced segmented-scan MTTKRP kernel (Nisa et al.,
//! "Load-Balanced Sparse MTTKRP on GPUs").
//!
//! One worker per fixed-size chunk of [`CHUNK_LEN`](crate::CHUNK_LEN)
//! non-zeros, cut without regard for slice or fiber boundaries — so a
//! single heavy slice that would serialize a fiber-parallel kernel is
//! spread evenly over `⌈slice_nnz / CHUNK_LEN⌉` workers. Two phases:
//!
//! 1. **Interior fold** (chunk-parallel): each chunk folds the rows that
//!    lie wholly inside it, in entry order, and flushes one partial per
//!    row. Rows cut by a chunk boundary are *skipped* — their partial is
//!    conceptually handed to the chunk's exclusive carry cell.
//! 2. **Carry chain** (the carry-resolution worker): every cut row is
//!    folded left-to-right over its *full* entry range, in entry order —
//!    exactly the fold an uncut row receives.
//!
//! Every output row is therefore one strict left-to-right fold over its
//! entries in mode-sorted order, independent of the chunk count — the
//! bit-stability contract `bit_stable_across_chunk_counts` asserts.

use scalfrag_gpusim::{Gpu, KernelWorkload, LaunchConfig, OpId, StreamId};
use scalfrag_kernels::{partials, simd, AtomicF32Buffer, FactorSet, SegmentStats};
use scalfrag_tensor::ChunkedTensor;
use std::sync::Arc;

/// The load-balanced segmented-scan MTTKRP kernel.
pub struct BalancedKernel;

impl BalancedKernel {
    /// Kernel name for reports and the conformance registries.
    pub const NAME: &'static str = "balance-segscan";

    /// Cost-model workload: perfectly even work per thread and **zero
    /// atomic hotness** — interior rows are chunk-exclusive and carries
    /// go to per-chunk cells, so no output word is contended no matter
    /// how skewed the row distribution is. The price: scan bookkeeping
    /// (higher per-item cycles) and carry traffic, which is why the
    /// tiled kernel still wins on uniform tensors.
    pub fn workload(stats: &SegmentStats, rank: u32, num_chunks: u64) -> KernelWorkload {
        KernelWorkload {
            work_items: stats.nnz,
            flops: stats.flops(rank),
            // COO indices + values + factor rows, plus per-chunk carry
            // descriptors (row id + continuation flag).
            bytes_read: stats.bytes_read(rank) + num_chunks * 8,
            // One row flush per (chunk, interior row) — bounded by chunks
            // plus distinct rows — and one carry cell per chunk.
            bytes_written: (2 * num_chunks + stats.nnz / stats.avg_nnz_per_slice.max(1.0) as u64)
                * rank as u64
                * 4,
            // Carry handoff + boundary-row resolution only.
            atomic_ops: 2 * num_chunks * rank as u64,
            atomic_hotness: 0.0,
            // Chunked streaming is contiguous, but the carry metadata and
            // double-flush path cost a little effective bandwidth.
            coalescing: 0.5,
            regs_per_thread: 48,
            shared_tile_reduction: 1.0,
            // The segmented scan spends extra cycles on flag handling.
            item_cycles: (rank * (stats.order + 2)) as f64 * 2.1,
        }
    }

    /// Functional body: interior fold + carry chain (see module docs).
    pub fn execute(chunked: &ChunkedTensor, factors: &FactorSet, out: &AtomicF32Buffer) {
        let rank = factors.rank();
        let mode = chunked.mode();
        assert_eq!(out.len(), chunked.dims()[mode] as usize * rank, "output shape mismatch");
        if chunked.nnz() == 0 {
            return;
        }

        // Phase 1: chunk-parallel fold of interior rows, partials applied
        // in chunk order (the submission-order discipline the host pool's
        // determinism contract rests on).
        partials::run_units(chunked.num_chunks(), out, |c, list| {
            let range = chunked.chunk_range(c);
            let head_cut = chunked.chunk_continues(c);
            let tail_cut = chunked.chunk_continues(c + 1);
            let tail_row = chunked.row(range.end - 1);
            let mut acc = vec![0.0f32; rank];
            let mut prod = vec![0.0f32; rank];
            let mut open = chunked.row(range.start);
            let mut open_cut = head_cut || (tail_cut && open == tail_row);
            for e in range.clone() {
                let row = chunked.row(e);
                if row != open {
                    if !open_cut {
                        flush_list(list, open as usize * rank, &mut acc);
                    }
                    open = row;
                    open_cut = tail_cut && open == tail_row;
                }
                if open_cut {
                    // Cut row: the carry chain owns its entire fold.
                    continue;
                }
                accumulate(chunked, factors, e, &mut prod, &mut acc);
            }
            if !open_cut {
                flush_list(list, open as usize * rank, &mut acc);
            }
        });

        // Phase 2: the carry chain. Each cut row is folded over its full
        // entry range in entry order — the same left fold an uncut row
        // gets, which is what makes the result chunk-count-invariant.
        let mut acc = vec![0.0f32; rank];
        let mut prod = vec![0.0f32; rank];
        for b in chunked.boundary_rows() {
            for e in b.start..b.end {
                accumulate(chunked, factors, e, &mut prod, &mut acc);
            }
            flush(out, b.row as usize * rank, &mut acc);
        }
    }

    /// Enqueues this kernel on the simulated GPU.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue(
        gpu: &mut Gpu,
        stream: StreamId,
        config: LaunchConfig,
        coo_stats: &SegmentStats,
        chunked: Arc<ChunkedTensor>,
        factors: Arc<FactorSet>,
        out: Arc<AtomicF32Buffer>,
        label: impl Into<Arc<str>>,
    ) -> OpId {
        let workload =
            Self::workload(coo_stats, factors.rank() as u32, chunked.num_chunks() as u64);
        gpu.launch_exec(stream, config, workload, label, move || {
            Self::execute(&chunked, &factors, &out);
        })
    }
}

#[inline]
fn accumulate(
    chunked: &ChunkedTensor,
    factors: &FactorSet,
    e: usize,
    prod: &mut [f32],
    acc: &mut [f32],
) {
    simd::fill(prod, chunked.values()[e]);
    for (k, &m) in chunked.other_modes().iter().enumerate() {
        simd::mul_assign(prod, factors.get(m).row(chunked.other_indices(k)[e] as usize));
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

    fn run(t: &CooTensor, f: &FactorSet, mode: usize, chunk_len: usize) -> Mat {
        let chunked = ChunkedTensor::from_coo(t, mode, chunk_len);
        let rank = f.rank();
        let out = AtomicF32Buffer::new(t.dims()[mode] as usize * rank);
        BalancedKernel::execute(&chunked, f, &out);
        Mat::from_vec(t.dims()[mode] as usize, rank, out.to_vec())
    }

    #[test]
    fn matches_reference_across_modes_and_chunk_lens() {
        let t = CooTensor::random_uniform(&[25, 20, 15], 1_200, 1);
        let f = FactorSet::random(&[25, 20, 15], 8, 2);
        for mode in 0..3 {
            for chunk_len in [1usize, 7, 64, 4096] {
                let a = run(&t, &f, mode, chunk_len);
                let b = mttkrp_seq(&t, &f, mode);
                assert!(
                    a.max_abs_diff(&b) < 1e-3,
                    "mode {mode} chunk {chunk_len}: {}",
                    a.max_abs_diff(&b)
                );
            }
        }
    }

    /// The tentpole contract: the same tensor through different chunk
    /// counts gives the *bit-identical* output — the carry chain restores
    /// exactly the fold order an unchunked pass would use.
    #[test]
    fn bit_stable_across_chunk_counts() {
        let t = gen::zipf_slices(&[60, 40, 30], 5_000, 1.3, 9);
        let f = FactorSet::random(&[60, 40, 30], 16, 10);
        for mode in 0..3 {
            let golden: Vec<u32> =
                run(&t, &f, mode, 1).as_slice().iter().map(|v| v.to_bits()).collect();
            for chunk_len in [3usize, 17, 64, 256, 1_000, 1 << 20] {
                let got: Vec<u32> =
                    run(&t, &f, mode, chunk_len).as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(golden, got, "mode {mode}: chunk_len {chunk_len} moved output bits");
            }
        }
    }

    #[test]
    fn matches_reference_on_heavy_skew() {
        // One slice holds half the entries — the shape the kernel exists for.
        let t = gen::zipf_slices(&[40, 30, 20], 4_000, 1.6, 5);
        let f = FactorSet::random(&[40, 30, 20], 8, 6);
        let a = run(&t, &f, 0, 256);
        let b = mttkrp_seq(&t, &f, 0);
        assert!(a.max_abs_diff(&b) < 1e-2, "{}", a.max_abs_diff(&b));
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
    fn workload_is_hotness_free_with_few_atomics() {
        let t = gen::zipf_slices(&[100, 80, 60], 10_000, 1.4, 5);
        let stats = SegmentStats::compute(&t, 0);
        let w = BalancedKernel::workload(&stats, 16, 40);
        let coo_w = scalfrag_kernels::workload::coo_atomic_workload(&stats, 16);
        assert_eq!(w.atomic_hotness, 0.0);
        assert!(coo_w.atomic_hotness > 0.0);
        assert!(w.atomic_ops < coo_w.atomic_ops / 100);
        assert_eq!(w.work_items, stats.nnz);
    }

    #[test]
    fn enqueue_runs() {
        let t = CooTensor::random_uniform(&[20, 15, 10], 400, 7);
        let f = Arc::new(FactorSet::random(&[20, 15, 10], 4, 8));
        let stats = SegmentStats::compute(&t, 0);
        let chunked = Arc::new(ChunkedTensor::from_coo(&t, 0, 64));
        let out = Arc::new(AtomicF32Buffer::new(20 * 4));
        let mut gpu = Gpu::new(scalfrag_gpusim::DeviceSpec::rtx3090());
        let s = gpu.create_stream();
        BalancedKernel::enqueue(
            &mut gpu,
            s,
            LaunchConfig::new(64, 64),
            &stats,
            chunked,
            Arc::clone(&f),
            Arc::clone(&out),
            "balanced",
        );
        gpu.synchronize();
        let m = Mat::from_vec(20, 4, out.to_vec());
        assert!(m.max_abs_diff(&mttkrp_seq(&t, &f, 0)) < 1e-3);
    }

    #[test]
    fn empty_tensor_is_noop() {
        let t = CooTensor::new(&[5, 5, 5]);
        let f = FactorSet::random(&[5, 5, 5], 4, 0);
        let chunked = ChunkedTensor::from_coo(&t, 0, 16);
        let out = AtomicF32Buffer::new(5 * 4);
        BalancedKernel::execute(&chunked, &f, &out);
        assert!(out.to_vec().iter().all(|&x| x == 0.0));
    }
}
