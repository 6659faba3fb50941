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
    /// `range` of its shard `tensor` — no copy of the segment: resolves the
    /// launch configuration, cost-model workload and (when `out` is given)
    /// the functional kernel body. The balance arms build their chunked /
    /// remapped layouts from the range here, mirroring the device-side
    /// format construction the real kernels would do at load time.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue(
        &self,
        gpu: &mut Gpu,
        stream: StreamId,
        config: LaunchConfig,
        tensor: Arc<CooTensor>,
        range: Range<usize>,
        factors: Arc<FactorSet>,
        mode: usize,
        out: Option<Arc<AtomicF32Buffer>>,
        label: String,
    ) {
        match out {
            Some(out) => match self {
                KernelChoice::CooAtomic => {
                    CooAtomicKernel::enqueue(
                        gpu, stream, config, tensor, range, factors, mode, out, label,
                    );
                }
                KernelChoice::Tiled => {
                    TiledKernel::enqueue(
                        gpu, stream, config, tensor, range, factors, mode, out, label,
                    );
                }
                KernelChoice::Balanced => {
                    let stats = SegmentStats::compute_range(&tensor, mode, range.clone());
                    let chunked =
                        Arc::new(ChunkedTensor::from_range(&tensor, range, mode, CHUNK_LEN));
                    BalancedKernel::enqueue(
                        gpu, stream, config, &stats, chunked, factors, out, label,
                    );
                }
                KernelChoice::ModeAgnostic => {
                    let stats = SegmentStats::compute_range(&tensor, mode, range.clone());
                    let fly = Arc::new(FlycooTensor::from_range(&tensor, range, FLYCOO_SEG_LEN));
                    FlycooKernel::enqueue(
                        gpu, stream, config, &stats, fly, mode, factors, out, label,
                    );
                }
            },
            None => {
                // Timing-only launch: same cost-model workload, no numerics.
                let rank = factors.rank() as u32;
                let cfg = self.full_config(config, rank);
                let stats = SegmentStats::compute_range(&tensor, mode, range);
                let workload = self.workload(&stats, rank, cfg.block);
                gpu.launch(stream, cfg, workload, label);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_gpusim::DeviceSpec;

    const MODE: usize = 1;
    const RANK: usize = 8;

    /// Output bits and simulated span durations of one launch over `range`.
    fn launch(
        kernel: KernelChoice,
        tensor: &Arc<CooTensor>,
        range: Range<usize>,
        factors: &Arc<FactorSet>,
        functional: bool,
    ) -> (Vec<u32>, Vec<u64>) {
        let mut gpu = Gpu::new(DeviceSpec::rtx3090());
        let s = gpu.create_stream();
        let out = Arc::new(AtomicF32Buffer::new(tensor.dims()[MODE] as usize * RANK));
        let sink = functional.then(|| Arc::clone(&out));
        let config = LaunchConfig::new(256, 128);
        let (t, f) = (Arc::clone(tensor), Arc::clone(factors));
        kernel.enqueue(&mut gpu, s, config, t, range, f, MODE, sink, "kernel".to_string());
        let spans = gpu.synchronize().spans;
        let bits = out.to_vec().iter().map(|x| x.to_bits()).collect();
        (bits, spans.iter().map(|span| span.duration().to_bits()).collect())
    }

    #[test]
    fn range_launches_match_launches_on_a_slice_copy() {
        let dims = [60u32, 40, 30];
        let t = scalfrag_tensor::gen::zipf_slices(&dims, 5_000, 0.9, 3).sorted_for_mode(MODE);
        let t = Arc::new(t);
        let factors = Arc::new(FactorSet::random(&dims, RANK, 4));
        let kernels = [
            KernelChoice::CooAtomic,
            KernelChoice::Tiled,
            KernelChoice::Balanced,
            KernelChoice::ModeAgnostic,
        ];
        for kernel in kernels {
            for range in [0..5_000, 700..3_100, 4_999..5_000] {
                let copy = Arc::new(t.slice_range(range.start, range.end));
                let block = kernel.full_config(LaunchConfig::new(256, 128), RANK as u32).block;
                assert_eq!(
                    kernel.workload(
                        &SegmentStats::compute_range(&t, MODE, range.clone()),
                        RANK as u32,
                        block
                    ),
                    kernel.workload(&SegmentStats::compute(&copy, MODE), RANK as u32, block),
                    "{kernel:?} {range:?}: cost-model workload"
                );
                for functional in [true, false] {
                    assert_eq!(
                        launch(kernel, &t, range.clone(), &factors, functional),
                        launch(kernel, &copy, 0..copy.nnz(), &factors, functional),
                        "{kernel:?} {range:?} functional={functional}"
                    );
                }
            }
        }
    }
}
