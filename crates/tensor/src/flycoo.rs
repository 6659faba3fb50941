//! FLYCOO: a mode-agnostic coordinate layout (after Wijeratne et al.,
//! "Dynamic Tensor Remapping for FPGA/GPU tensor decomposition"), the
//! format behind the `balance-flycoo` kernel arm.
//!
//! Mode-specialised formats (CSF, F-COO, the chunked layout) must re-sort
//! or re-tile the tensor for every MTTKRP mode, so a CPD-ALS sweep over an
//! order-`N` tensor either keeps `N` sorted copies resident or pays the
//! re-tiling on every iteration. FLYCOO keeps **one copy** of the index
//! and value arrays in their original order and adds one *remap table*
//! per mode: `remap(m)[k]` is the entry id of the `k`-th non-zero in
//! mode-`m` processing order. A kernel for mode `m` streams `k` through
//! the remap table and sees entries grouped by output row — the same
//! segmented-reduction shape as F-COO — while all modes share the entry
//! storage. For rank-`N` ALS that trades `(N−1)·(order·4+4)·nnz` bytes of
//! extra copies for `N·4·nnz` bytes of remap tables.
//!
//! Like the chunked layout, rows whose remap run straddles a partition
//! boundary are recorded per mode as boundary rows, so the companion
//! kernel can fold every output row in one strict left-to-right pass and
//! stay bit-stable across partition counts.

use crate::bucket::BucketSort;
use crate::chunked::BoundaryRow;
use crate::{CooTensor, Idx, Val};
use std::ops::Range;

/// A sparse tensor in FLYCOO form: one entry copy + per-mode remap tables.
#[derive(Clone, Debug, PartialEq)]
pub struct FlycooTensor {
    dims: Vec<Idx>,
    /// `inds[m][e]`: mode-`m` coordinate of entry `e`, original order.
    inds: Vec<Vec<Idx>>,
    vals: Vec<Val>,
    /// `perms[m][k]`: entry id of the `k`-th non-zero in mode-`m` order
    /// (sorted by mode-`m` coordinate, ties by entry id — stable).
    perms: Vec<Vec<u32>>,
    /// Entries per partition (the kernel's work unit), shared by all modes.
    seg_len: usize,
    /// Per mode: rows whose remap run is cut by a partition boundary,
    /// with their full `k`-ranges (remap positions, not entry ids).
    boundary: Vec<Vec<BoundaryRow>>,
}

impl FlycooTensor {
    /// Builds the FLYCOO representation of `coo`, partitioned every
    /// `seg_len` remap positions. All modes are served by this one value.
    ///
    /// # Panics
    /// Panics if `seg_len == 0`.
    pub fn from_coo(coo: &CooTensor, seg_len: usize) -> Self {
        Self::from_range(coo, 0..coo.nnz(), seg_len)
    }

    /// [`FlycooTensor::from_coo`] of the entries in `range` alone.
    pub fn from_range(coo: &CooTensor, range: Range<usize>, seg_len: usize) -> Self {
        assert!(seg_len > 0, "segment length must be positive");
        let nnz = range.len();
        assert!(nnz <= u32::MAX as usize, "remap tables are u32-indexed");
        let inds: Vec<Vec<Idx>> =
            (0..coo.order()).map(|m| coo.mode_indices(m)[range.clone()].to_vec()).collect();

        let mut perms = Vec::with_capacity(coo.order());
        let mut boundary = Vec::with_capacity(coo.order());
        for (mode_inds, &dim) in inds.iter().zip(coo.dims()) {
            let perm = BucketSort::new(nnz, vec![(mode_inds.as_slice(), dim)]).perm();
            // Runs of one output row in remap order; cut runs become
            // boundary rows exactly as in the chunked layout.
            let mut rows_boundary = Vec::new();
            let mut s = 0usize;
            for k in 0..nnz {
                let row = mode_inds[perm[k] as usize];
                if k + 1 == nnz || mode_inds[perm[k + 1] as usize] != row {
                    if s / seg_len != k / seg_len {
                        rows_boundary.push(BoundaryRow { row, start: s, end: k + 1 });
                    }
                    s = k + 1;
                }
            }
            perms.push(perm);
            boundary.push(rows_boundary);
        }

        Self {
            dims: coo.dims().to_vec(),
            inds,
            vals: coo.values()[range].to_vec(),
            perms,
            seg_len,
            boundary,
        }
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode sizes.
    pub fn dims(&self) -> &[Idx] {
        &self.dims
    }

    /// Non-zero count.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Partition length.
    pub fn seg_len(&self) -> usize {
        self.seg_len
    }

    /// Number of partitions (identical for every mode).
    pub fn num_partitions(&self) -> usize {
        self.nnz().div_ceil(self.seg_len)
    }

    /// Remap-position range of partition `p`.
    pub fn partition_range(&self, p: usize) -> std::ops::Range<usize> {
        let start = p * self.seg_len;
        start..(start + self.seg_len).min(self.nnz())
    }

    /// The mode-`m` remap table: entry ids in mode-`m` processing order.
    pub fn remap(&self, m: usize) -> &[u32] {
        &self.perms[m]
    }

    /// Output row of the `k`-th remap position for mode `m`.
    pub fn row_at(&self, m: usize, k: usize) -> Idx {
        self.inds[m][self.perms[m][k] as usize]
    }

    /// Mode-`m` coordinates of all entries, original order.
    pub fn mode_indices(&self, m: usize) -> &[Idx] {
        &self.inds[m]
    }

    /// Entry values, original order.
    pub fn values(&self) -> &[Val] {
        &self.vals
    }

    /// Whether partition `p` of mode `m` begins mid-row.
    pub fn partition_continues(&self, m: usize, p: usize) -> bool {
        let start = p * self.seg_len;
        start > 0 && start < self.nnz() && self.row_at(m, start) == self.row_at(m, start - 1)
    }

    /// The mode-`m` rows cut by partition boundaries (`k`-ranges).
    pub fn boundary_rows(&self, m: usize) -> &[BoundaryRow] {
        &self.boundary[m]
    }

    /// Bytes of the device layout: one COO copy plus `order` remap tables.
    pub fn byte_size(&self) -> usize {
        self.nnz()
            * (self.order() * std::mem::size_of::<Idx>()
                + std::mem::size_of::<Val>()
                + self.order() * std::mem::size_of::<u32>())
    }

    /// Bytes an ALS sweep would need with per-mode sorted copies instead —
    /// the baseline FLYCOO's single copy competes against.
    pub fn per_mode_copies_byte_size(&self) -> usize {
        self.order()
            * self.nnz()
            * (self.order() * std::mem::size_of::<Idx>() + std::mem::size_of::<Val>())
    }

    /// Expands back to COO (original entry order).
    pub fn to_coo(&self) -> CooTensor {
        CooTensor::from_parts(&self.dims, self.inds.clone(), self.vals.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooTensor {
        CooTensor::from_entries(
            &[4, 3, 2],
            &[
                (vec![2, 0, 0], 1.0),
                (vec![0, 1, 1], 2.0),
                (vec![2, 2, 1], 3.0),
                (vec![0, 0, 0], 4.0),
                (vec![3, 1, 0], 5.0),
            ],
        )
    }

    #[test]
    fn remap_orders_every_mode_without_moving_entries() {
        let f = FlycooTensor::from_coo(&sample(), 2);
        // Entry storage untouched.
        assert_eq!(f.to_coo(), sample());
        for m in 0..3 {
            // Remap is a permutation…
            let mut seen = f.remap(m).to_vec();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3, 4], "mode {m}");
            // …and walks the rows in nondecreasing order.
            for k in 1..f.nnz() {
                assert!(f.row_at(m, k - 1) <= f.row_at(m, k), "mode {m} position {k}");
            }
        }
        // Mode 0 order: rows 0,0,2,2,3 with stable tie-break by entry id:
        // entries 1,3 (row 0), 0,2 (row 2), 4 (row 3).
        assert_eq!(f.remap(0), &[1, 3, 0, 2, 4]);
    }

    #[test]
    fn boundary_rows_match_cut_runs_per_mode() {
        let f = FlycooTensor::from_coo(&sample(), 3);
        // Mode 0, seg_len 3: rows 0,0,2,2,3 cut at k=3 mid-row 2.
        assert!(f.partition_continues(0, 1));
        assert_eq!(f.boundary_rows(0), &[BoundaryRow { row: 2, start: 2, end: 4 }]);
        let base = CooTensor::random_uniform(&[24, 18, 12], 800, 5);
        let f = FlycooTensor::from_coo(&base, 64);
        for m in 0..3 {
            for b in f.boundary_rows(m) {
                assert!((b.start..b.end).all(|k| f.row_at(m, k) == b.row));
                assert!(b.start == 0 || f.row_at(m, b.start - 1) != b.row);
                assert!(b.end == f.nnz() || f.row_at(m, b.end) != b.row);
                assert_ne!(b.start / 64, (b.end - 1) / 64, "must really be cut");
            }
        }
    }

    #[test]
    fn one_copy_beats_per_mode_copies() {
        let base = CooTensor::random_uniform(&[100, 80, 60], 5_000, 9);
        let f = FlycooTensor::from_coo(&base, 128);
        // 3 remap tables (12 B/entry) vs 2 extra copies (32 B/entry).
        assert!(f.byte_size() < f.per_mode_copies_byte_size());
        assert_eq!(f.byte_size(), 5_000 * (3 * 4 + 4 + 3 * 4));
    }

    #[test]
    fn works_on_4way() {
        let base = CooTensor::random_uniform(&[8, 7, 6, 5], 200, 13);
        let f = FlycooTensor::from_coo(&base, 32);
        assert_eq!(f.num_partitions(), 7);
        for m in 0..4 {
            let mut seen = f.remap(m).to_vec();
            seen.sort_unstable();
            assert_eq!(seen.len(), 200);
            assert!((1..f.nnz()).all(|k| f.row_at(m, k - 1) <= f.row_at(m, k)));
        }
    }

    #[test]
    #[should_panic(expected = "segment length")]
    fn zero_seg_len_rejected() {
        let _ = FlycooTensor::from_coo(&sample(), 0);
    }
}
