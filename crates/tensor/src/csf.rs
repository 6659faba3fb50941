//! Compressed Sparse Fiber (CSF) format.
//!
//! CSF (Smith & Karypis, §II-D / Fig. 2) compresses the sorted coordinate
//! list into a tree: level 0 holds the distinct root-mode indices (slices),
//! each inner level holds the distinct next-mode indices within its parent,
//! and the leaf level holds the final-mode indices with the values. It is
//! the tree-family representative against which the COO kernels are
//! compared, and it is what the CSF fiber-parallel simulated kernel
//! consumes.

use crate::{CooTensor, Idx, Val};

/// A sparse tensor in CSF form for one particular mode ordering.
///
/// `fids[l]` are the node indices of level `l` (level 0 = root slices,
/// level `order-1` = leaves). For every non-leaf level `l`, node `i` owns
/// the children `fptr[l][i] .. fptr[l][i+1]` of level `l+1`. `vals[j]` is
/// the value of leaf `j`.
#[derive(Clone, Debug, PartialEq)]
pub struct CsfTensor {
    dims: Vec<Idx>,
    mode_order: Vec<usize>,
    fids: Vec<Vec<Idx>>,
    fptr: Vec<Vec<usize>>,
    vals: Vec<Val>,
}

impl CsfTensor {
    /// Compresses `coo` for mode-`mode` processing: the tree is rooted at
    /// mode `mode` with the remaining modes in ascending order (the paper's
    /// `CSF (mode 1)` of Fig. 2).
    ///
    /// The input does not need to be pre-sorted; a sorted copy is taken.
    pub fn from_coo(coo: &CooTensor, mode: usize) -> Self {
        let order = coo.mode_order(mode);
        let mut sorted = coo.sorted_by_order(&order);
        sorted.dedup_sum(&order);
        Self::from_sorted_coo(&sorted, order)
    }

    /// Compresses an already sorted COO tensor with the given mode ordering.
    /// `coo` must be sorted by `mode_order`; duplicate coordinates are
    /// merged by summation.
    pub fn from_sorted_coo(coo: &CooTensor, mode_order: Vec<usize>) -> Self {
        debug_assert!(coo.is_sorted_by_order(&mode_order));
        let n = coo.order();
        assert_eq!(mode_order.len(), n);
        let nnz = coo.nnz();

        let mut fids: Vec<Vec<Idx>> = vec![Vec::new(); n];
        let mut fptr: Vec<Vec<usize>> = vec![vec![0]; n.saturating_sub(1)];
        let mut vals: Vec<Val> = Vec::with_capacity(nnz);

        // Invariant maintained throughout: for every non-leaf level `l`,
        // `fptr[l]` has one slot per opened node plus the leading 0, and its
        // last slot equals `fids[l+1].len()` (the end of the open node's
        // child range).
        let mut prev: Option<Vec<Idx>> = None;
        for e in 0..nnz {
            let key: Vec<Idx> = mode_order.iter().map(|&m| coo.mode_indices(m)[e]).collect();
            let d = match &prev {
                None => 0,
                Some(p) => (0..n).find(|&l| p[l] != key[l]).unwrap_or(n),
            };
            if d == n {
                // Exact duplicate coordinate: merge into the open leaf.
                *vals.last_mut().expect("duplicate implies a previous leaf") += coo.values()[e];
                continue;
            }
            // Open new nodes at levels d..N-1.
            for l in d..n {
                fids[l].push(key[l]);
            }
            // The parent at level d-1 gained a child: refresh its end.
            if d > 0 {
                *fptr[d - 1].last_mut().unwrap() = fids[d].len();
            }
            // Every newly opened non-leaf node gets its own end slot,
            // currently covering exactly the one child just pushed.
            for l in d..n - 1 {
                fptr[l].push(fids[l + 1].len());
            }
            vals.push(coo.values()[e]);
            prev = Some(key);
        }
        for l in 0..n.saturating_sub(1) {
            debug_assert_eq!(fptr[l].len(), fids[l].len() + 1);
            debug_assert_eq!(*fptr[l].last().unwrap(), fids[l + 1].len());
        }

        Self { dims: coo.dims().to_vec(), mode_order, fids, fptr, vals }
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode sizes (in original mode numbering).
    pub fn dims(&self) -> &[Idx] {
        &self.dims
    }

    /// The mode permutation: `mode_order()[0]` is the root mode.
    pub fn mode_order(&self) -> &[usize] {
        &self.mode_order
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of root slices (level-0 nodes).
    pub fn num_slices(&self) -> usize {
        self.fids[0].len()
    }

    /// Number of leaf-parent fibers (level `order-2` nodes); for an order-3
    /// tensor this is the `numFibers` feature of §IV-B.
    pub fn num_fibers(&self) -> usize {
        if self.order() < 2 {
            self.nnz()
        } else {
            self.fids[self.order() - 2].len()
        }
    }

    /// Node indices of level `l`.
    pub fn fids(&self, l: usize) -> &[Idx] {
        &self.fids[l]
    }

    /// Child pointers of non-leaf level `l` (`len == fids(l).len() + 1`).
    pub fn fptr(&self, l: usize) -> &[usize] {
        &self.fptr[l]
    }

    /// Leaf values.
    pub fn values(&self) -> &[Val] {
        &self.vals
    }

    /// Bytes of the device layout of this CSF tree.
    pub fn byte_size(&self) -> usize {
        let fid_bytes: usize = self.fids.iter().map(|f| f.len() * std::mem::size_of::<Idx>()).sum();
        let ptr_bytes: usize = self.fptr.iter().map(|p| p.len() * std::mem::size_of::<u64>()).sum();
        fid_bytes + ptr_bytes + self.vals.len() * std::mem::size_of::<Val>()
    }

    /// Expands back to COO (entries sorted by this tree's mode ordering).
    pub fn to_coo(&self) -> CooTensor {
        let n = self.order();
        let nnz = self.nnz();
        let mut inds = vec![vec![0 as Idx; nnz]; n];

        // Walk leaves; for each leaf find its ancestor chain. We do this
        // iteratively per level with ranges rather than recursion.
        // path[l] = current node index at level l.
        fn walk(
            csf: &CsfTensor,
            level: usize,
            node: usize,
            prefix: &mut Vec<Idx>,
            inds: &mut [Vec<Idx>],
        ) {
            prefix.push(csf.fids[level][node]);
            if level == csf.order() - 1 {
                let e = node; // leaf index == entry index
                for (l, &m) in csf.mode_order.iter().enumerate() {
                    inds[m][e] = prefix[l];
                }
            } else {
                for child in csf.fptr[level][node]..csf.fptr[level][node + 1] {
                    walk(csf, level + 1, child, prefix, inds);
                }
            }
            prefix.pop();
        }

        let mut prefix = Vec::with_capacity(n);
        for root in 0..self.fids[0].len() {
            walk(self, 0, root, &mut prefix, &mut inds);
        }
        CooTensor::from_parts(&self.dims, inds, self.vals.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_tensor() -> CooTensor {
        CooTensor::from_entries(
            &[4, 4, 2],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![0, 2, 1], 2.0),
                (vec![1, 0, 1], 3.0),
                (vec![1, 3, 0], 4.0),
                (vec![2, 1, 0], 5.0),
                (vec![2, 1, 1], 6.0),
                (vec![3, 2, 0], 7.0),
                (vec![3, 3, 1], 8.0),
            ],
        )
    }

    #[test]
    fn structure_of_fig2_mode0() {
        let csf = CsfTensor::from_coo(&fig2_tensor(), 0);
        // 4 slices, one per i value.
        assert_eq!(csf.num_slices(), 4);
        assert_eq!(csf.fids(0), &[0, 1, 2, 3]);
        // Slice 2 has a single fiber (2,1,:) holding two leaves.
        assert_eq!(csf.fids(1).len(), 7, "7 distinct (i,j) fibers");
        assert_eq!(csf.num_fibers(), 7);
        assert_eq!(csf.nnz(), 8);
        // Pointer arrays have len = nodes + 1 and are monotone.
        for l in 0..2 {
            assert_eq!(csf.fptr(l).len(), csf.fids(l).len() + 1);
            assert!(csf.fptr(l).windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(*csf.fptr(0).last().unwrap(), csf.fids(1).len());
        assert_eq!(*csf.fptr(1).last().unwrap(), csf.nnz());
    }

    #[test]
    fn round_trip_all_modes() {
        let base = fig2_tensor();
        for mode in 0..3 {
            let csf = CsfTensor::from_coo(&base, mode);
            let back = csf.to_coo();
            assert_eq!(back.nnz(), base.nnz());
            // Compare as sorted entry sets.
            let mut a: Vec<(Vec<Idx>, Val)> =
                (0..base.nnz()).map(|e| (base.coord(e), base.values()[e])).collect();
            let mut b: Vec<(Vec<Idx>, Val)> =
                (0..back.nnz()).map(|e| (back.coord(e), back.values()[e])).collect();
            a.sort_by(|x, y| x.0.cmp(&y.0));
            b.sort_by(|x, y| x.0.cmp(&y.0));
            assert_eq!(a, b, "mode {mode} round trip failed");
        }
    }

    #[test]
    fn round_trip_random_4way() {
        let base = CooTensor::random_uniform(&[9, 7, 5, 3], 200, 99);
        for mode in 0..4 {
            let csf = CsfTensor::from_coo(&base, mode);
            assert_eq!(csf.nnz(), 200);
            let back = csf.to_coo();
            assert_eq!(back.to_dense(), {
                let mut s = base.clone();
                s.sort_for_mode(mode);
                s.to_dense()
            });
        }
    }

    #[test]
    fn csf_compresses_relative_to_coo() {
        // A tensor with long fibers compresses well.
        let mut entries = Vec::new();
        for j in 0..50u32 {
            for k in 0..20u32 {
                entries.push((vec![0u32, j, k], 1.0f32));
            }
        }
        let coo = CooTensor::from_entries(&[4, 64, 32], &entries);
        let csf = CsfTensor::from_coo(&coo, 0);
        assert_eq!(csf.num_slices(), 1);
        assert_eq!(csf.num_fibers(), 50);
        assert!(csf.byte_size() < coo.byte_size() * 2, "CSF should not blow up");
    }

    #[test]
    fn duplicate_coordinates_are_summed() {
        let coo = CooTensor::from_entries(
            &[2, 2],
            &[(vec![1, 1], 1.0), (vec![1, 1], 2.0), (vec![0, 0], 3.0)],
        );
        let csf = CsfTensor::from_coo(&coo, 0);
        assert_eq!(csf.nnz(), 2);
        let dense = csf.to_coo().to_dense();
        assert_eq!(dense, vec![3.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn empty_tensor() {
        let coo = CooTensor::new(&[3, 3, 3]);
        let csf = CsfTensor::from_coo(&coo, 1);
        assert_eq!(csf.nnz(), 0);
        assert_eq!(csf.num_slices(), 0);
        assert_eq!(csf.to_coo().nnz(), 0);
    }
}
