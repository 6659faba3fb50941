//! Workload characterisation: turning a tensor (segment) into the
//! [`KernelWorkload`] the gpusim cost model consumes.
//!
//! The statistics here are what couples the simulated timing to the tensor
//! structure — nnz drives traffic, the output-row concentration (a
//! Herfindahl index of the slice histogram) drives atomic contention, and
//! the average slice population bounds how much block-level pre-reduction
//! the tiled kernel can do.

use scalfrag_gpusim::KernelWorkload;
use scalfrag_tensor::{CooTensor, Idx, Val};
use std::ops::Range;

/// Structural statistics of one tensor segment for a target mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SegmentStats {
    /// Non-zeros in the segment.
    pub nnz: u64,
    /// Tensor order.
    pub order: u32,
    /// Size of the output mode.
    pub mode_dim: u64,
    /// Herfindahl index of the output-row distribution:
    /// `Σ (nnz_slice / nnz)²` — the probability two random updates collide.
    pub row_hotness: f64,
    /// Mean non-zeros per non-empty output slice.
    pub avg_nnz_per_slice: f64,
}

impl SegmentStats {
    /// Computes statistics of `tensor` for `mode`.
    pub fn compute(tensor: &CooTensor, mode: usize) -> Self {
        Self::compute_range(tensor, mode, 0..tensor.nnz())
    }

    /// Computes statistics of the entries in `range` of `tensor` for
    /// `mode` — what [`SegmentStats::compute`] gives on
    /// `tensor.slice_range(range.start, range.end)`, without the copy.
    pub fn compute_range(tensor: &CooTensor, mode: usize, range: Range<usize>) -> Self {
        let nnz = range.len() as u64;
        let mut hist = vec![0u32; tensor.dims()[mode] as usize];
        for &i in &tensor.mode_indices(mode)[range] {
            hist[i as usize] += 1;
        }
        let mut hotness = 0.0f64;
        let mut nonempty = 0u64;
        for &c in &hist {
            if c > 0 {
                nonempty += 1;
                let p = c as f64 / nnz.max(1) as f64;
                hotness += p * p;
            }
        }
        Self {
            nnz,
            order: tensor.order() as u32,
            mode_dim: tensor.dims()[mode] as u64,
            row_hotness: hotness,
            avg_nnz_per_slice: if nonempty == 0 { 0.0 } else { nnz as f64 / nonempty as f64 },
        }
    }

    /// FLOPs of an MTTKRP over this segment at the given rank
    /// ([`mttkrp_flops`]).
    pub fn flops(&self, rank: u32) -> u64 {
        mttkrp_flops(self.nnz, self.order, rank)
    }

    /// Bytes the kernel reads per entry: the COO indices and value, plus
    /// one factor row per non-target mode.
    pub fn bytes_read(&self, rank: u32) -> u64 {
        let idx_val = self.order as u64 * std::mem::size_of::<Idx>() as u64
            + std::mem::size_of::<Val>() as u64;
        let factor_rows = (self.order as u64 - 1) * rank as u64 * 4;
        self.nnz * (idx_val + factor_rows)
    }

    /// Output matrix bytes (`mode_dim × rank` f32).
    pub fn output_bytes(&self, rank: u32) -> u64 {
        self.mode_dim * rank as u64 * 4
    }
}

/// FLOPs of an MTTKRP over `nnz` entries of an order-`order` tensor at the
/// given rank: per entry and rank column, `order-1` multiplies + 1
/// multiply by the value + 1 add.
pub fn mttkrp_flops(nnz: u64, order: u32, rank: u32) -> u64 {
    nnz * rank as u64 * (order as u64 + 1)
}

/// Workload of the ParTI-style nnz-parallel COO kernel with per-element
/// global atomics.
pub fn coo_atomic_workload(stats: &SegmentStats, rank: u32) -> KernelWorkload {
    KernelWorkload {
        work_items: stats.nnz,
        flops: stats.flops(rank),
        bytes_read: stats.bytes_read(rank),
        bytes_written: 0, // updates are atomics, accounted separately
        atomic_ops: stats.nnz * rank as u64,
        atomic_hotness: stats.row_hotness,
        // Scattered factor-row gathers; no reuse staging.
        coalescing: 0.35,
        regs_per_thread: 40,
        shared_tile_reduction: 1.0,
        item_cycles: (rank * (stats.order + 1)) as f64 * 2.0,
    }
}

/// Workload of the ScalFrag tiled kernel: shared-memory staging of factor
/// rows (`times_mat`) and partial results (`mvals`) improves effective
/// coalescing, and block-level pre-reduction divides the global atomic
/// traffic by the average number of same-row entries a block sees.
pub fn tiled_workload(stats: &SegmentStats, rank: u32, block: u32) -> KernelWorkload {
    // A block processes ~`block` sorted entries; entries of one output row
    // are adjacent, so the block merges ~avg_nnz_per_slice of them locally
    // (capped by what fits in a block's window).
    let reduction = stats.avg_nnz_per_slice.clamp(1.0, block as f64 / 4.0);
    KernelWorkload {
        work_items: stats.nnz,
        flops: stats.flops(rank),
        bytes_read: stats.bytes_read(rank),
        bytes_written: 0,
        atomic_ops: stats.nnz * rank as u64,
        atomic_hotness: stats.row_hotness,
        // Staged factor tiles give better effective bandwidth.
        coalescing: 0.55,
        regs_per_thread: 56,
        shared_tile_reduction: reduction,
        item_cycles: (rank * (stats.order + 1)) as f64 * 2.2,
    }
}

/// Dynamic shared memory the tiled kernel requests per block: one warp-level
/// `mvals` tile plus a `times_mat` factor tile of 32 rows.
pub fn tiled_smem_bytes(rank: u32, block: u32) -> u32 {
    let mvals = (block / 32).max(1) * rank * 4;
    let times_mat = 32 * rank * 4;
    mvals + times_mat
}

/// Workload of the CSF fiber-parallel kernel: one worker per slice, no
/// atomics, but tree pointers add traffic and long slices serialise.
pub fn csf_fiber_workload(stats: &SegmentStats, rank: u32, num_slices: u64) -> KernelWorkload {
    KernelWorkload {
        work_items: num_slices.max(1),
        flops: stats.flops(rank),
        bytes_read: stats.bytes_read(rank) + stats.nnz * 8, // fptr traffic
        bytes_written: stats.output_bytes(rank),
        atomic_ops: 0,
        atomic_hotness: 0.0,
        coalescing: 0.5,
        regs_per_thread: 48,
        shared_tile_reduction: 1.0,
        // A slice's whole subtree is one serial chain.
        item_cycles: (stats.avg_nnz_per_slice.max(1.0)) * (rank * (stats.order + 1)) as f64 * 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_gpusim::{kernel_duration, DeviceSpec, LaunchConfig};

    fn uniform_stats() -> SegmentStats {
        let t = scalfrag_tensor::gen::uniform(&[200, 100, 100], 10_000, 1);
        SegmentStats::compute(&t, 0)
    }

    fn skewed_stats() -> SegmentStats {
        let t = scalfrag_tensor::gen::zipf_slices(&[200, 100, 100], 10_000, 1.2, 1);
        SegmentStats::compute(&t, 0)
    }

    #[test]
    fn stats_of_known_tensor() {
        let t = CooTensor::from_entries(
            &[4, 2, 2],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![0, 0, 1], 1.0),
                (vec![0, 1, 0], 1.0),
                (vec![2, 1, 1], 1.0),
            ],
        );
        let s = SegmentStats::compute(&t, 0);
        assert_eq!(s.nnz, 4);
        assert_eq!(s.order, 3);
        assert_eq!(s.mode_dim, 4);
        // Hotness: (3/4)^2 + (1/4)^2 = 0.625.
        assert!((s.row_hotness - 0.625).abs() < 1e-12);
        assert!((s.avg_nnz_per_slice - 2.0).abs() < 1e-12);
        // flops = 4 nnz * rank * (3+1).
        assert_eq!(s.flops(8), 4 * 8 * 4);
        assert_eq!(s.output_bytes(8), 4 * 8 * 4);
    }

    #[test]
    fn range_stats_equal_stats_of_a_slice_copy() {
        let t = scalfrag_tensor::gen::zipf_slices(&[60, 40, 30], 5_000, 0.9, 3).sorted_for_mode(1);
        for mode in 0..3 {
            for range in [0..5_000, 700..3_100, 4_999..5_000, 2_000..2_000] {
                let copy = t.slice_range(range.start, range.end);
                assert_eq!(
                    SegmentStats::compute_range(&t, mode, range.clone()),
                    SegmentStats::compute(&copy, mode),
                    "mode {mode} {range:?}"
                );
            }
        }
    }

    #[test]
    fn skew_raises_hotness() {
        let u = uniform_stats();
        let z = skewed_stats();
        assert!(z.row_hotness > 3.0 * u.row_hotness);
        assert!(z.avg_nnz_per_slice > u.avg_nnz_per_slice * 0.9);
    }

    #[test]
    fn tiled_beats_coo_on_skewed_tensors() {
        let d = DeviceSpec::rtx3090();
        let cfg = LaunchConfig::new(2048, 256);
        let z = skewed_stats();
        let t_coo = kernel_duration(&d, &cfg, &coo_atomic_workload(&z, 16)).total;
        let cfg_t = LaunchConfig::with_shared(2048, 256, tiled_smem_bytes(16, 256));
        let t_tiled = kernel_duration(&d, &cfg_t, &tiled_workload(&z, 16, 256)).total;
        assert!(t_tiled < t_coo, "tiled {t_tiled} must beat atomic COO {t_coo} under skew");
    }

    #[test]
    fn tiled_still_wins_modestly_on_uniform_tensors() {
        let d = DeviceSpec::rtx3090();
        let cfg = LaunchConfig::new(2048, 256);
        let u = uniform_stats();
        let t_coo = kernel_duration(&d, &cfg, &coo_atomic_workload(&u, 16)).total;
        let cfg_t = LaunchConfig::with_shared(2048, 256, tiled_smem_bytes(16, 256));
        let t_tiled = kernel_duration(&d, &cfg_t, &tiled_workload(&u, 16, 256)).total;
        assert!(t_tiled < t_coo);
        // ...but the margin should be far smaller than under skew.
        let z = skewed_stats();
        let z_coo = kernel_duration(&d, &cfg, &coo_atomic_workload(&z, 16)).total;
        let z_tiled = kernel_duration(&d, &cfg_t, &tiled_workload(&z, 16, 256)).total;
        assert!(z_coo / z_tiled > t_coo / t_tiled);
    }

    #[test]
    fn smem_request_is_schedulable() {
        let d = DeviceSpec::rtx3090();
        for &block in &[64u32, 128, 256, 512, 1024] {
            for &rank in &[8u32, 16, 32, 64] {
                let smem = tiled_smem_bytes(rank, block);
                assert!(
                    smem <= d.shared_mem_per_block,
                    "block {block} rank {rank} smem {smem} too large"
                );
            }
        }
    }

    #[test]
    fn csf_workload_has_no_atomics() {
        let s = uniform_stats();
        let w = csf_fiber_workload(&s, 16, 200);
        assert_eq!(w.atomic_ops, 0);
        assert_eq!(w.work_items, 200);
        assert!(w.bytes_read > s.bytes_read(16));
    }

    #[test]
    fn empty_segment_stats() {
        let t = CooTensor::new(&[8, 8, 8]);
        let s = SegmentStats::compute(&t, 0);
        assert_eq!(s.nnz, 0);
        assert_eq!(s.row_hotness, 0.0);
        assert_eq!(s.avg_nnz_per_slice, 0.0);
        assert_eq!(s.flops(16), 0);
    }
}
