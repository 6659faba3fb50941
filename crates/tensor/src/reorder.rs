//! Slice reordering — the load-balancing trick of BCSF (Nisa et al.,
//! §II-D: "mainly optimize the load imbalance issue of CSF format").
//!
//! Sorting the target mode's slices by population groups similarly-sized
//! slices, so that slice-parallel kernels (CSF-fiber) and slice-aligned
//! segmentation see balanced work, and the heaviest slices can be peeled
//! off for special handling (e.g. the hybrid CPU split, or a dedicated
//! heavy-slice kernel as in BCSF).

use crate::{CooTensor, Idx};

/// A relabeling of one mode's indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SliceOrder {
    mode: usize,
    /// `new_of_old[i]` = new index of original slice `i`.
    new_of_old: Vec<Idx>,
    /// `old_of_new[j]` = original index of new slice `j`.
    old_of_new: Vec<Idx>,
}

impl SliceOrder {
    /// Builds the permutation that sorts mode-`mode` slices by descending
    /// non-zero count (heaviest slice becomes index 0).
    pub fn by_descending_population(tensor: &CooTensor, mode: usize) -> Self {
        let hist = tensor.slice_nnz_histogram(mode);
        let mut old: Vec<Idx> = (0..hist.len() as Idx).collect();
        old.sort_by(|&a, &b| hist[b as usize].cmp(&hist[a as usize]).then(a.cmp(&b)));
        let mut new_of_old = vec![0 as Idx; hist.len()];
        for (new, &o) in old.iter().enumerate() {
            new_of_old[o as usize] = new as Idx;
        }
        Self { mode, new_of_old, old_of_new: old }
    }

    /// The reordered mode.
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// New index of original slice `old`.
    pub fn new_index(&self, old: Idx) -> Idx {
        self.new_of_old[old as usize]
    }

    /// Applies the relabeling to a tensor, returning the renumbered copy.
    pub fn apply(&self, tensor: &CooTensor) -> CooTensor {
        let mut inds: Vec<Vec<Idx>> =
            (0..tensor.order()).map(|m| tensor.mode_indices(m).to_vec()).collect();
        for i in inds[self.mode].iter_mut() {
            *i = self.new_of_old[*i as usize];
        }
        CooTensor::from_parts(tensor.dims(), inds, tensor.values().to_vec())
    }

    /// Maps a result matrix computed in the reordered numbering back to
    /// the original slice order (rows are permuted in place).
    pub fn unpermute_rows(&self, reordered_rows: &[f32], rank: usize) -> Vec<f32> {
        let n = self.new_of_old.len();
        assert_eq!(reordered_rows.len(), n * rank, "row buffer shape mismatch");
        let mut out = vec![0.0f32; n * rank];
        for old in 0..n {
            let new = self.new_of_old[old] as usize;
            out[old * rank..(old + 1) * rank]
                .copy_from_slice(&reordered_rows[new * rank..(new + 1) * rank]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed() -> CooTensor {
        crate::gen::zipf_slices(&[50, 30, 30], 2_000, 1.2, 3)
    }

    #[test]
    fn heaviest_slice_becomes_first() {
        let t = skewed();
        let order = SliceOrder::by_descending_population(&t, 0);
        let reordered = order.apply(&t);
        let hist = reordered.slice_nnz_histogram(0);
        for w in hist.windows(2) {
            assert!(w[0] >= w[1], "histogram must be non-increasing: {hist:?}");
        }
        assert_eq!(reordered.nnz(), t.nnz());
    }

    #[test]
    fn permutation_is_a_bijection() {
        let t = skewed();
        let order = SliceOrder::by_descending_population(&t, 0);
        for old in 0..50u32 {
            assert_eq!(order.old_of_new[order.new_index(old) as usize], old);
        }
    }

    #[test]
    fn mttkrp_commutes_with_reordering() {
        // MTTKRP(reorder(X)) row j == MTTKRP(X) row old_of_new[j]: verified
        // through the unpermute helper using a cheap proxy computation
        // (row sums of slice values).
        let t = skewed();
        let order = SliceOrder::by_descending_population(&t, 0);
        let reordered = order.apply(&t);

        let rank = 1usize;
        let mut direct = [0.0f32; 50];
        for e in 0..t.nnz() {
            direct[t.mode_indices(0)[e] as usize] += t.values()[e];
        }
        let mut re = vec![0.0f32; 50];
        for e in 0..reordered.nnz() {
            re[reordered.mode_indices(0)[e] as usize] += reordered.values()[e];
        }
        let back = order.unpermute_rows(&re, rank);
        for (a, b) in direct.iter().zip(&back) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn reordering_other_modes_untouched() {
        let t = skewed();
        let order = SliceOrder::by_descending_population(&t, 0);
        let reordered = order.apply(&t);
        assert_eq!(reordered.mode_indices(1), t.mode_indices(1));
        assert_eq!(reordered.mode_indices(2), t.mode_indices(2));
        assert_eq!(reordered.values(), t.values());
    }
}
