//! Semi-sparse tensors: sparse in all modes but one, dense along the
//! product mode — the output type of SpTTM (sparse tensor × matrix), the
//! other core ParTI operation the paper's §VI-B discusses.
//!
//! A mode-`n` semi-sparse tensor stores one dense length-`R` fiber per
//! distinct coordinate over the remaining modes.

use crate::{CooTensor, Idx, Val};

/// A tensor dense along `mode` (with size `r`) and sparse elsewhere.
#[derive(Clone, Debug, PartialEq)]
pub struct SemiSparseTensor {
    dims: Vec<Idx>,
    mode: usize,
    /// `fiber_inds[k][f]` is the mode-`other_modes[k]` index of fiber `f`.
    fiber_inds: Vec<Vec<Idx>>,
    other_modes: Vec<usize>,
    /// Fiber-major dense values: `values[f * r + j]`.
    values: Vec<Val>,
}

impl SemiSparseTensor {
    /// Creates an empty semi-sparse tensor. `dims[mode]` is the dense
    /// extent `r`.
    pub fn new(dims: &[Idx], mode: usize) -> Self {
        assert!(mode < dims.len(), "mode out of range");
        let other_modes: Vec<usize> = (0..dims.len()).filter(|&m| m != mode).collect();
        Self {
            dims: dims.to_vec(),
            mode,
            fiber_inds: vec![Vec::new(); dims.len() - 1],
            other_modes,
            values: Vec::new(),
        }
    }

    /// Appends one dense fiber at the given sparse coordinate (indices of
    /// the non-dense modes, in ascending mode order).
    ///
    /// # Panics
    /// Panics on arity or length mismatches.
    pub fn push_fiber(&mut self, sparse_coord: &[Idx], fiber: &[Val]) {
        assert_eq!(sparse_coord.len(), self.other_modes.len(), "sparse coordinate arity");
        assert_eq!(fiber.len(), self.r(), "fiber length must equal the dense extent");
        for (k, (&c, &m)) in sparse_coord.iter().zip(&self.other_modes).enumerate() {
            assert!(c < self.dims[m], "index out of range");
            self.fiber_inds[k].push(c);
        }
        self.values.extend_from_slice(fiber);
    }

    /// The dense extent along `mode`.
    pub fn r(&self) -> usize {
        self.dims[self.mode] as usize
    }

    /// The dense mode.
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Mode sizes (the dense mode reports its extent).
    pub fn dims(&self) -> &[Idx] {
        &self.dims
    }

    /// Number of stored fibers.
    pub fn num_fibers(&self) -> usize {
        self.values.len() / self.r().max(1)
    }

    /// The dense fiber `f`.
    pub fn fiber(&self, f: usize) -> &[Val] {
        &self.values[f * self.r()..(f + 1) * self.r()]
    }

    /// Sparse coordinate of fiber `f` (ascending non-dense modes).
    pub fn fiber_coord(&self, f: usize) -> Vec<Idx> {
        self.fiber_inds.iter().map(|iv| iv[f]).collect()
    }

    /// The non-dense mode ids.
    pub fn other_modes(&self) -> &[usize] {
        &self.other_modes
    }

    /// Expands to COO, dropping explicit zeros.
    pub fn to_coo(&self) -> CooTensor {
        let mut t = CooTensor::new(&self.dims);
        let mut coord = vec![0 as Idx; self.dims.len()];
        for f in 0..self.num_fibers() {
            let sc = self.fiber_coord(f);
            for (k, &m) in self.other_modes.iter().enumerate() {
                coord[m] = sc[k];
            }
            for (j, &v) in self.fiber(f).iter().enumerate() {
                if v != 0.0 {
                    coord[self.mode] = j as Idx;
                    t.push(&coord, v);
                }
            }
        }
        t
    }

    /// Bytes of the device layout.
    pub fn byte_size(&self) -> usize {
        self.fiber_inds.len() * self.num_fibers() * std::mem::size_of::<Idx>()
            + self.values.len() * std::mem::size_of::<Val>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access_fibers() {
        let mut t = SemiSparseTensor::new(&[4, 3, 8], 2);
        t.push_fiber(&[1, 2], &[1.0; 8]);
        t.push_fiber(&[3, 0], &[2.0; 8]);
        assert_eq!(t.r(), 8);
        assert_eq!(t.num_fibers(), 2);
        assert_eq!(t.fiber_coord(1), vec![3, 0]);
        assert_eq!(t.fiber(0), &[1.0; 8]);
        assert_eq!(t.other_modes(), &[0, 1]);
    }

    #[test]
    #[allow(clippy::identity_op, clippy::erasing_op)] // spelled-out index maths
    fn to_coo_drops_zeros() {
        let mut t = SemiSparseTensor::new(&[2, 2, 3], 2);
        t.push_fiber(&[0, 1], &[1.0, 0.0, 2.0]);
        let coo = t.to_coo();
        assert_eq!(coo.nnz(), 2);
        let dense = coo.to_dense();
        // (0,1,0)=1, (0,1,2)=2
        assert_eq!(dense[(0 * 2 + 1) * 3], 1.0);
        assert_eq!(dense[(0 * 2 + 1) * 3 + 2], 2.0);
    }

    #[test]
    #[should_panic(expected = "fiber length")]
    fn wrong_fiber_length_panics() {
        let mut t = SemiSparseTensor::new(&[2, 2, 3], 2);
        t.push_fiber(&[0, 0], &[1.0, 2.0]);
    }

    #[test]
    fn dense_mode_zero() {
        let mut t = SemiSparseTensor::new(&[5, 3, 3], 0);
        t.push_fiber(&[2, 1], &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.r(), 5);
        assert_eq!(t.other_modes(), &[1, 2]);
        assert_eq!(t.to_coo().nnz(), 5);
    }
}
