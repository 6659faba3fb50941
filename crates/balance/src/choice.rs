//! The kernel arm of a launch, from the autotuner's price to the
//! interpreter's launch.
//!
//! Adaptive launching picks an arm by pricing it with the cost model the
//! runtime later charges, so one type carries both ends: the full launch
//! configuration, the cost-model workload, the modelled duration a sweep
//! reads, and the one launch the interpreter issues.

use crate::{BalancedKernel, FlycooKernel, CHUNK_LEN, FLYCOO_SEG_LEN};
use scalfrag_gpusim::{kernel_duration, DeviceSpec, Gpu, KernelWorkload, LaunchConfig, StreamId};
use scalfrag_kernels::workload::{coo_atomic_workload, tiled_smem_bytes, tiled_workload};
use scalfrag_kernels::{AtomicF32Buffer, CooAtomicKernel, FactorSet, SegmentStats, TiledKernel};
use scalfrag_tensor::{ChunkedTensor, CooTensor, FlycooTensor};
use std::ops::Range;
use std::sync::Arc;

/// Which kernel a plan launches per segment, and which arm a sweep times.
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
    /// The full launch configuration for a base `(grid, block)`: the tiled
    /// kernel adds its dynamic shared-memory request for the `mvals` and
    /// `times_mat` tiles; the other arms launch the base as is.
    pub fn full_config(self, base: LaunchConfig, rank: u32) -> LaunchConfig {
        match self {
            KernelChoice::CooAtomic | KernelChoice::Balanced | KernelChoice::ModeAgnostic => base,
            KernelChoice::Tiled => {
                LaunchConfig::with_shared(base.grid, base.block, tiled_smem_bytes(rank, base.block))
            }
        }
    }

    /// The cost-model workload of this kernel over a segment with the
    /// statistics `stats`. The balance arms cut it into `CHUNK_LEN`- and
    /// `FLYCOO_SEG_LEN`-entry units, as their layouts do.
    fn workload(self, stats: &SegmentStats, rank: u32, block: u32) -> KernelWorkload {
        match self {
            KernelChoice::CooAtomic => coo_atomic_workload(stats, rank),
            KernelChoice::Tiled => tiled_workload(stats, rank, block),
            KernelChoice::Balanced => {
                BalancedKernel::workload(stats, rank, stats.nnz.div_ceil(CHUNK_LEN as u64))
            }
            KernelChoice::ModeAgnostic => {
                FlycooKernel::workload(stats, rank, stats.nnz.div_ceil(FLYCOO_SEG_LEN as u64))
            }
        }
    }

    /// Simulated seconds of one launch at the base configuration `base`:
    /// the duration [`KernelChoice::enqueue`] charges for the same launch.
    pub fn duration(
        self,
        device: &DeviceSpec,
        stats: &SegmentStats,
        rank: u32,
        base: LaunchConfig,
    ) -> f64 {
        let config = self.full_config(base, rank);
        kernel_duration(device, &config, &self.workload(stats, rank, config.block)).total
    }

    /// Enqueues one segment's kernel launch on `stream` over the entries
    /// `range` of its shard `tensor`, whose statistics for `mode` are
    /// `stats` — no copy of the segment, and no pass over it: the launch is
    /// priced from `stats` in O(1). A dry launch (`out` is `None`) never
    /// reads `tensor`. A functional one runs the kernel body over the range
    /// when the simulation resolves; the balance arms first build their
    /// chunked / remapped layouts from it, mirroring the device-side format
    /// construction the real kernels would do at load time.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue(
        self,
        gpu: &mut Gpu,
        stream: StreamId,
        base: LaunchConfig,
        stats: &SegmentStats,
        tensor: &Arc<CooTensor>,
        range: Range<usize>,
        factors: &Arc<FactorSet>,
        mode: usize,
        out: Option<Arc<AtomicF32Buffer>>,
        label: Arc<str>,
    ) {
        let rank = factors.rank() as u32;
        let config = self.full_config(base, rank);
        let workload = self.workload(stats, rank, config.block);
        let Some(out) = out else {
            gpu.launch(stream, config, workload, label);
            return;
        };
        let (tensor, factors) = (Arc::clone(tensor), Arc::clone(factors));
        gpu.launch_exec(stream, config, workload, label, move || match self {
            KernelChoice::CooAtomic => {
                CooAtomicKernel::execute(&tensor, range, &factors, mode, &out);
            }
            KernelChoice::Tiled => {
                TiledKernel::execute(&tensor, range, &factors, mode, config.block, &out);
            }
            KernelChoice::Balanced => {
                let chunked = ChunkedTensor::from_range(&tensor, range, mode, CHUNK_LEN);
                BalancedKernel::execute(&chunked, &factors, &out);
            }
            KernelChoice::ModeAgnostic => {
                let fly = FlycooTensor::from_range(&tensor, range, FLYCOO_SEG_LEN);
                FlycooKernel::execute(&fly, &factors, mode, &out);
            }
        });
    }
}
