//! The kernel arm every plan launches. [`KernelChoice`] is defined in
//! `scalfrag-balance`, beside the kernels it dispatches to, so the
//! autotuner prices the same type the interpreter launches.

pub use scalfrag_balance::KernelChoice;

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_conformance::{max_ulp, tolerance_for};
    use scalfrag_gpusim::{occupancy, DeviceSpec, Gpu, LaunchConfig, Limiter};
    use scalfrag_kernels::reference::mttkrp_seq;
    use scalfrag_kernels::workload::tiled_workload;
    use scalfrag_kernels::{AtomicF32Buffer, FactorSet, SegmentStats};
    use scalfrag_tensor::CooTensor;
    use std::ops::Range;
    use std::sync::Arc;

    const MODE: usize = 1;
    const BASE: LaunchConfig = LaunchConfig { grid: 256, block: 128, shared_mem_per_block: 0 };
    const KERNELS: [KernelChoice; 4] = [
        KernelChoice::CooAtomic,
        KernelChoice::Tiled,
        KernelChoice::Balanced,
        KernelChoice::ModeAgnostic,
    ];

    /// Output bits and simulated span durations of one launch over `range`
    /// with the statistics `stats`.
    fn launch(
        kernel: KernelChoice,
        tensor: &Arc<CooTensor>,
        range: Range<usize>,
        stats: &SegmentStats,
        factors: &Arc<FactorSet>,
        functional: bool,
    ) -> (Vec<u32>, Vec<u64>) {
        let mut gpu = Gpu::new(DeviceSpec::rtx3090());
        let s = gpu.create_stream();
        let rows = tensor.dims()[MODE] as usize;
        let out = Arc::new(AtomicF32Buffer::new(rows * factors.rank()));
        let sink = functional.then(|| Arc::clone(&out));
        kernel.enqueue(&mut gpu, s, BASE, stats, tensor, range, factors, MODE, sink, "k".into());
        let spans = gpu.synchronize().spans;
        let bits = out.to_vec().iter().map(|x| x.to_bits()).collect();
        (bits, spans.iter().map(|span| span.duration().to_bits()).collect())
    }

    /// Every kernel at ranks up to and past 64 rank columns: a
    /// whole-tensor functional launch stays within the conformance ULP
    /// budget of `mttkrp_seq` at 1, 2 and 4 threads, and a launch over a
    /// range carrying the segment's statistics gives the output bits and
    /// span durations of the same launch on a `slice_range` copy. (The
    /// range's statistics equal the copy's; the `SegmentStats` tests pin
    /// that.) The one span a launch records, dry or functional, lasts
    /// exactly the [`KernelChoice::duration`] the autotuner prices it at —
    /// also on a dry launch where the tiled arm's shared-memory request is
    /// what limits residency, so pricing any other configuration shows.
    #[test]
    fn range_launches_match_launches_on_a_slice_copy() {
        let dims = [60u32, 40, 30];
        let t = scalfrag_tensor::gen::zipf_slices(&dims, 5_000, 0.9, 3).sorted_for_mode(MODE);
        let t = Arc::new(t);
        let whole = SegmentStats::compute(&t, MODE);
        let budget = tolerance_for(&t, MODE);
        for rank in [8, 65, 100] {
            let factors = Arc::new(FactorSet::random(&dims, rank, 4));
            let reference = mttkrp_seq(&t, &factors, MODE);
            for kernel in KERNELS {
                for threads in [1, 2, 4] {
                    let (bits, _) = scalfrag_host::with_threads(threads, || {
                        launch(kernel, &t, 0..t.nnz(), &whole, &factors, true)
                    });
                    let got: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
                    let worst = max_ulp(reference.as_slice(), &got);
                    assert!(
                        worst.max_ulp <= budget,
                        "{kernel:?} rank {rank} at {threads} thread(s): {} ULP at {:?} \
                         (budget {budget})",
                        worst.max_ulp,
                        worst.at
                    );
                }
                for range in [0..5_000, 700..3_100, 4_999..5_000] {
                    let copy = Arc::new(t.slice_range(range.start, range.end));
                    let stats = SegmentStats::compute(&copy, MODE);
                    let priced = kernel.duration(&DeviceSpec::rtx3090(), &stats, rank as u32, BASE);
                    for functional in [true, false] {
                        let got = launch(kernel, &t, range.clone(), &stats, &factors, functional);
                        assert_eq!(
                            got,
                            launch(kernel, &copy, 0..copy.nnz(), &stats, &factors, functional),
                            "{kernel:?} rank {rank} {range:?} functional={functional}"
                        );
                        assert_eq!(
                            got.1,
                            [priced.to_bits()],
                            "{kernel:?} rank {rank} {range:?} functional={functional}: \
                             priced at {priced} s"
                        );
                    }
                }
            }
        }

        // A dims-only shard priced from hand-built statistics of 1M
        // entries at rank 150 on <<<4096, 128>>>: the tiled arm asks for
        // 21,600 B per block, which leaves room for 6 blocks per SM against
        // 9 by registers and 12 by threads.
        let device = DeviceSpec::rtx3090();
        let (rank, wide) = (150, LaunchConfig::new(4096, 128));
        let big = SegmentStats {
            nnz: 1 << 20,
            order: 3,
            mode_dim: dims[MODE] as u64,
            row_hotness: 1.0 / dims[MODE] as f64,
            avg_nnz_per_slice: (1u64 << 20) as f64 / dims[MODE] as f64,
        };
        let regs = tiled_workload(&big, rank, wide.block).regs_per_thread;
        let tiled = occupancy(&device, &KernelChoice::Tiled.full_config(wide, rank), regs);
        assert_eq!((tiled.limiter, tiled.blocks_per_sm), (Limiter::SharedMem, 6));
        let shard = Arc::new(CooTensor::new(&dims));
        let f = Arc::new(FactorSet::random(&dims, rank as usize, 5));
        for kernel in KERNELS {
            let mut gpu = Gpu::new(device.clone());
            let s = gpu.create_stream();
            kernel.enqueue(&mut gpu, s, wide, &big, &shard, 0..1 << 20, &f, MODE, None, "k".into());
            let spans: Vec<u64> =
                gpu.synchronize().spans.iter().map(|span| span.duration().to_bits()).collect();
            let priced = kernel.duration(&device, &big, rank, wide);
            assert_eq!(spans, [priced.to_bits()], "{kernel:?} rank {rank} priced at {priced} s");
        }
    }
}
