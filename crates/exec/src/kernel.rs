//! Kernel dispatch shared by every plan builder and the interpreter.

use scalfrag_balance::{BalancedKernel, FlycooKernel, CHUNK_LEN, FLYCOO_SEG_LEN};
use scalfrag_gpusim::{Gpu, LaunchConfig, StreamId};
use scalfrag_kernels::{AtomicF32Buffer, CooAtomicKernel, FactorSet, SegmentStats, TiledKernel};
use scalfrag_tensor::{ChunkedTensor, CooTensor, FlycooTensor};
use std::ops::Range;
use std::sync::Arc;

/// Which kernel the interpreter launches per segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelChoice {
    /// ParTI-style atomic COO kernel.
    CooAtomic,
    /// ScalFrag shared-memory tiled kernel.
    Tiled,
    /// Load-balanced segmented-scan kernel over fixed-nnz chunks
    /// (`balance-segscan`): immune to slice/fiber skew.
    Balanced,
    /// FLYCOO-style mode-agnostic kernel (`balance-flycoo`): one tensor
    /// copy plus per-mode remap tables serves every MTTKRP mode.
    ModeAgnostic,
}

impl KernelChoice {
    /// The full launch configuration (with this kernel's shared-memory
    /// request) for a base `(grid, block)`.
    pub fn full_config(&self, base: LaunchConfig, rank: u32) -> LaunchConfig {
        match self {
            KernelChoice::CooAtomic | KernelChoice::Balanced | KernelChoice::ModeAgnostic => base,
            KernelChoice::Tiled => TiledKernel::config_with_smem(base, rank),
        }
    }

    /// The cost-model workload of this kernel over a segment.
    pub fn workload(
        &self,
        stats: &SegmentStats,
        rank: u32,
        block: u32,
    ) -> scalfrag_gpusim::KernelWorkload {
        match self {
            KernelChoice::CooAtomic => scalfrag_kernels::workload::coo_atomic_workload(stats, rank),
            KernelChoice::Tiled => scalfrag_kernels::workload::tiled_workload(stats, rank, block),
            KernelChoice::Balanced => scalfrag_balance::balanced_workload(stats, rank),
            KernelChoice::ModeAgnostic => scalfrag_balance::flycoo_workload(stats, rank),
        }
    }

    /// Enqueues one segment's kernel launch on `stream` over the entries
    /// `range` of its shard `tensor`, whose statistics for `mode` are
    /// `stats` — no copy of the segment, and no pass over it: the
    /// cost-model workload comes from `stats` in O(1). A dry launch
    /// (`out` is `None`) never reads `tensor`. A functional one runs the
    /// kernel body over the range; the balance arms build their chunked /
    /// remapped layouts from it here, mirroring the device-side format
    /// construction the real kernels would do at load time.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue(
        &self,
        gpu: &mut Gpu,
        stream: StreamId,
        config: LaunchConfig,
        stats: &SegmentStats,
        tensor: &Arc<CooTensor>,
        range: Range<usize>,
        factors: &Arc<FactorSet>,
        mode: usize,
        out: Option<Arc<AtomicF32Buffer>>,
        label: Arc<str>,
    ) {
        let Some(out) = out else {
            // Timing-only launch: same cost-model workload, no numerics.
            let rank = factors.rank() as u32;
            let cfg = self.full_config(config, rank);
            gpu.launch(stream, cfg, self.workload(stats, rank, cfg.block), label);
            return;
        };
        let (tensor, factors) = (Arc::clone(tensor), Arc::clone(factors));
        match self {
            KernelChoice::CooAtomic => {
                CooAtomicKernel::enqueue(
                    gpu, stream, config, stats, tensor, range, factors, mode, out, label,
                );
            }
            KernelChoice::Tiled => {
                TiledKernel::enqueue(
                    gpu, stream, config, stats, tensor, range, factors, mode, out, label,
                );
            }
            KernelChoice::Balanced => {
                let chunked = Arc::new(ChunkedTensor::from_range(&tensor, range, mode, CHUNK_LEN));
                BalancedKernel::enqueue(gpu, stream, config, stats, chunked, factors, out, label);
            }
            KernelChoice::ModeAgnostic => {
                let fly = Arc::new(FlycooTensor::from_range(&tensor, range, FLYCOO_SEG_LEN));
                FlycooKernel::enqueue(gpu, stream, config, stats, fly, mode, factors, out, label);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_conformance::{max_ulp, tolerance_for};
    use scalfrag_gpusim::DeviceSpec;
    use scalfrag_kernels::reference::mttkrp_seq;

    const MODE: usize = 1;
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
        let config = LaunchConfig::new(256, 128);
        kernel.enqueue(&mut gpu, s, config, stats, tensor, range, factors, MODE, sink, "k".into());
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
    /// that.)
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
                    for functional in [true, false] {
                        assert_eq!(
                            launch(kernel, &t, range.clone(), &stats, &factors, functional),
                            launch(kernel, &copy, 0..copy.nnz(), &stats, &factors, functional),
                            "{kernel:?} rank {rank} {range:?} functional={functional}"
                        );
                    }
                }
            }
        }
    }
}
