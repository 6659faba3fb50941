//! The ScalFrag tiled MTTKRP kernel (§IV-A).
//!
//! The paper: *"the frequently accessed data in the kernel and intermediate
//! results (e.g., computation result `mvals`, factor matrices `times_mat`)
//! are stored in shared memory to reduce the latency of data accesses."*
//!
//! The simulated kernel reproduces both effects:
//!
//! * **functionally** — entries are processed in block-sized windows of the
//!   mode-sorted segment; each window accumulates same-row partials in a
//!   local buffer (the `mvals` shared-memory tile) and flushes one atomic
//!   add per (row, rank) pair instead of one per (entry, rank) pair;
//! * **in the cost model** — via [`tiled_workload`](crate::workload::tiled_workload)'s
//!   `shared_tile_reduction` (fewer global atomics) and higher effective
//!   coalescing (staged `times_mat` reuse), at the price of a shared-memory
//!   request that the occupancy calculator charges against residency.

use crate::atomic_buf::AtomicF32Buffer;
use crate::factors::FactorSet;
use crate::{partials, simd};
use scalfrag_tensor::CooTensor;
use std::ops::Range;

/// The shared-memory tiled MTTKRP kernel — ScalFrag's compute contribution.
pub struct TiledKernel;

impl TiledKernel {
    /// Kernel name for reports.
    pub const NAME: &'static str = "scalfrag-tiled";

    /// Functional body over the entries `range` of `seg`. They should be
    /// sorted for `mode` (the pipeline's preprocessing guarantees it);
    /// unsorted input is still *correct*, merely tile-ineffective — matching
    /// the real kernel, where sorting is what makes same-row entries land in
    /// the same block.
    pub fn execute(
        seg: &CooTensor,
        range: Range<usize>,
        factors: &FactorSet,
        mode: usize,
        block: u32,
        out: &AtomicF32Buffer,
    ) {
        let rank = factors.rank();
        assert_eq!(out.len(), seg.dims()[mode] as usize * rank, "output buffer shape mismatch");
        assert!(range.end <= seg.nnz(), "range out of bounds");
        let order = seg.order();
        let nnz = range.len();
        if nnz == 0 {
            return;
        }
        // Window = block size: the functional analogue of one thread
        // block's shared-memory tile. Not thread-derived, so the unit
        // decomposition is pool-size-invariant.
        let window = (block as usize).max(32);

        let units = nnz.div_ceil(window);
        partials::run_units(units, out, |u, list| {
            // The `mvals` tile: partial sums for the row currently being
            // accumulated. Sorted input => row changes are monotone, so a
            // single open row suffices (the shared-memory tile of the
            // real kernel holds one row per warp).
            let mut open_row = usize::MAX;
            let mut mvals = vec![0.0f32; rank];
            let mut acc = vec![0.0f32; rank];

            let flush = |row: usize, mvals: &mut [f32], list: &mut partials::UpdateList| {
                if row != usize::MAX {
                    let base = row * rank;
                    for (f, m) in mvals.iter_mut().enumerate() {
                        if *m != 0.0 {
                            list.push((base + f, *m));
                        }
                        *m = 0.0;
                    }
                }
            };

            for e in range.start + u * window..range.start + ((u + 1) * window).min(nnz) {
                let row = seg.mode_indices(mode)[e] as usize;
                if row != open_row {
                    flush(open_row, &mut mvals, list);
                    open_row = row;
                }
                simd::fill(&mut acc, seg.values()[e]);
                for m in 0..order {
                    if m == mode {
                        continue;
                    }
                    simd::mul_assign(&mut acc, factors.get(m).row(seg.mode_indices(m)[e] as usize));
                }
                simd::add_assign(&mut mvals, &acc);
            }
            flush(open_row, &mut mvals, list);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::mttkrp_seq;
    use scalfrag_linalg::Mat;

    fn run_functional(t: &CooTensor, f: &FactorSet, mode: usize, block: u32) -> Mat {
        let rank = f.rank();
        let out = AtomicF32Buffer::new(t.dims()[mode] as usize * rank);
        TiledKernel::execute(t, 0..t.nnz(), f, mode, block, &out);
        Mat::from_vec(t.dims()[mode] as usize, rank, out.to_vec())
    }

    #[test]
    fn matches_reference_sorted_input() {
        let mut t = CooTensor::random_uniform(&[25, 20, 15], 1_500, 1);
        let f = FactorSet::random(&[25, 20, 15], 16, 2);
        for mode in 0..3 {
            t.sort_for_mode(mode);
            let a = run_functional(&t, &f, mode, 256);
            let b = mttkrp_seq(&t, &f, mode);
            assert!(a.max_abs_diff(&b) < 1e-3, "mode {mode}: {}", a.max_abs_diff(&b));
        }
    }

    #[test]
    fn correct_even_when_unsorted() {
        let t = CooTensor::random_uniform(&[25, 20, 15], 1_000, 3);
        let f = FactorSet::random(&[25, 20, 15], 8, 4);
        let a = run_functional(&t, &f, 0, 128);
        let b = mttkrp_seq(&t, &f, 0);
        assert!(a.max_abs_diff(&b) < 1e-3);
    }

    #[test]
    fn matches_reference_4way_and_tiny_blocks() {
        let mut t = CooTensor::random_uniform(&[10, 9, 8, 7], 600, 5);
        let f = FactorSet::random(&[10, 9, 8, 7], 4, 6);
        for mode in 0..4 {
            t.sort_for_mode(mode);
            for &block in &[32u32, 64, 1024] {
                let a = run_functional(&t, &f, mode, block);
                let b = mttkrp_seq(&t, &f, mode);
                assert!(a.max_abs_diff(&b) < 1e-3, "mode {mode} block {block}");
            }
        }
    }

    #[test]
    fn empty_segment_is_noop() {
        let t = CooTensor::new(&[5, 5, 5]);
        let f = FactorSet::random(&[5, 5, 5], 4, 0);
        let out = AtomicF32Buffer::new(5 * 4);
        TiledKernel::execute(&t, 0..0, &f, 0, 256, &out);
        assert!(out.to_vec().iter().all(|&x| x == 0.0));
    }
}
