//! Mode permutation: relabeling which tensor dimension is "mode 0".
//!
//! MTTKRP treats every mode symmetrically, so permuting modes and
//! permuting the factor order must commute with all kernels — a useful
//! metamorphic property (tested in the workspace suite) and a practical
//! preprocessing step when a storage format favours a particular root
//! mode (CSF trees, F-COO target modes).

use crate::{CooTensor, Idx};

/// A permutation of tensor modes: `perm[new_mode] = old_mode`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModePermutation {
    perm: Vec<usize>,
}

impl ModePermutation {
    /// Creates a permutation from `perm[new_mode] = old_mode`.
    ///
    /// # Panics
    /// Panics unless `perm` is a permutation of `0..perm.len()`.
    pub fn new(perm: Vec<usize>) -> Self {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in &perm {
            assert!(p < n, "mode {p} out of range");
            assert!(!seen[p], "mode {p} repeated");
            seen[p] = true;
        }
        Self { perm }
    }

    /// The identity permutation over `n` modes.
    pub fn identity(n: usize) -> Self {
        Self { perm: (0..n).collect() }
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.perm.len()
    }

    /// `old_mode` for a `new_mode`.
    pub fn old_of_new(&self, new_mode: usize) -> usize {
        self.perm[new_mode]
    }

    /// `new_mode` for an `old_mode`.
    pub fn new_of_old(&self, old_mode: usize) -> usize {
        self.perm.iter().position(|&p| p == old_mode).expect("valid permutation")
    }

    /// Applies the permutation to a tensor: output mode `m` is input mode
    /// `perm[m]`.
    ///
    /// # Panics
    /// Panics if the orders disagree.
    pub fn apply(&self, tensor: &CooTensor) -> CooTensor {
        assert_eq!(tensor.order(), self.order(), "order mismatch");
        let dims: Vec<Idx> = self.perm.iter().map(|&m| tensor.dims()[m]).collect();
        let inds: Vec<Vec<Idx>> =
            self.perm.iter().map(|&m| tensor.mode_indices(m).to_vec()).collect();
        CooTensor::from_parts(&dims, inds, tensor.values().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn old_and_new_modes_map_both_ways() {
        let p = ModePermutation::new(vec![2, 0, 1, 3]);
        assert_eq!(p.old_of_new(0), 2);
        assert_eq!(p.old_of_new(1), 0);
        assert_eq!(p.new_of_old(2), 0);
    }

    #[test]
    fn apply_then_inverse_is_identity() {
        let t = CooTensor::random_uniform(&[6, 5, 4, 3], 100, 3);
        let p = ModePermutation::new(vec![2, 0, 3, 1]);
        let inverse = ModePermutation::new((0..4).map(|m| p.new_of_old(m)).collect());
        assert_eq!(inverse.apply(&p.apply(&t)), t);
    }

    #[test]
    fn permutation_preserves_entries() {
        let t = CooTensor::random_uniform(&[8, 7, 6], 60, 5);
        let p = ModePermutation::new(vec![1, 2, 0]);
        let pt = p.apply(&t);
        assert_eq!(pt.dims(), &[7, 6, 8]);
        assert_eq!(pt.nnz(), t.nnz());
        for e in 0..t.nnz() {
            let c = t.coord(e);
            let pc = pt.coord(e);
            assert_eq!(pc, vec![c[1], c[2], c[0]]);
        }
    }

    #[test]
    fn identity_is_a_noop() {
        let t = CooTensor::random_uniform(&[5, 4, 3], 30, 7);
        assert_eq!(ModePermutation::identity(3).apply(&t), t);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn duplicate_modes_rejected() {
        let _ = ModePermutation::new(vec![0, 0, 1]);
    }
}
