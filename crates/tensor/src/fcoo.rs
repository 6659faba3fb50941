//! F-COO: flagged coordinate format (Liu et al., CLUSTER'17 — cited by
//! §II-D as the COO-family member that "adds flag arrays to eliminate
//! atomic operations").
//!
//! F-COO stores the non-zeros sorted by the output mode and replaces the
//! explicit mode index with two bit arrays:
//!
//! * `start_flags[e]` — entry `e` starts a new output row (a new mode-`n`
//!   index value);
//! * partition boundaries every `seg_len` entries, with `partition_starts`
//!   recording whether a partition begins mid-row (so a segmented-scan
//!   kernel knows to combine its first partial sum with the previous
//!   partition's carry).
//!
//! The companion kernel in `scalfrag-kernels::fcoo_kernel` consumes this
//! to perform MTTKRP via per-partition segmented reduction with exactly
//! one cross-partition combination per boundary instead of per-entry
//! atomics.

use crate::{CooTensor, Idx, Val};

/// A sparse tensor in F-COO form for one target mode.
#[derive(Clone, Debug, PartialEq)]
pub struct FCooTensor {
    dims: Vec<Idx>,
    mode: usize,
    /// Indices of the non-target modes, per entry: `other_inds[m][e]`
    /// where `m` ranges over the original modes except `mode`.
    other_inds: Vec<Vec<Idx>>,
    /// Original mode ids of `other_inds` rows.
    other_modes: Vec<usize>,
    /// Output row of each entry (the mode-`mode` index) — recoverable from
    /// the flags, kept explicit for O(1) random access.
    rows: Vec<Idx>,
    /// `true` when entry `e` starts a new output row.
    start_flags: Vec<bool>,
    vals: Vec<Val>,
    /// Entries per partition (the kernel's work unit).
    seg_len: usize,
}

impl FCooTensor {
    /// Builds the F-COO representation of `coo` for `mode`, partitioned
    /// every `seg_len` entries.
    ///
    /// # Panics
    /// Panics if `seg_len == 0` or `mode` is out of range.
    pub fn from_coo(coo: &CooTensor, mode: usize, seg_len: usize) -> Self {
        assert!(seg_len > 0, "segment length must be positive");
        assert!(mode < coo.order(), "mode out of range");
        let sorted = coo.sorted_for_mode(mode);

        let nnz = sorted.nnz();
        let rows: Vec<Idx> = sorted.mode_indices(mode).to_vec();
        let mut start_flags = vec![false; nnz];
        for e in 0..nnz {
            start_flags[e] = e == 0 || rows[e] != rows[e - 1];
        }
        let other_modes: Vec<usize> = (0..coo.order()).filter(|&m| m != mode).collect();
        let other_inds: Vec<Vec<Idx>> =
            other_modes.iter().map(|&m| sorted.mode_indices(m).to_vec()).collect();

        Self {
            dims: coo.dims().to_vec(),
            mode,
            other_inds,
            other_modes,
            rows,
            start_flags,
            vals: sorted.values().to_vec(),
            seg_len,
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

    /// The target mode this representation is specialised for.
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Non-zero count.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Partition length.
    pub fn seg_len(&self) -> usize {
        self.seg_len
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.nnz().div_ceil(self.seg_len)
    }

    /// Entry range of partition `p`.
    pub fn partition_range(&self, p: usize) -> std::ops::Range<usize> {
        let start = p * self.seg_len;
        start..(start + self.seg_len).min(self.nnz())
    }

    /// Output row of entry `e`.
    pub fn row(&self, e: usize) -> Idx {
        self.rows[e]
    }

    /// Whether entry `e` begins a new output row.
    pub fn starts_row(&self, e: usize) -> bool {
        self.start_flags[e]
    }

    /// Whether partition `p` begins mid-row (its first entry continues the
    /// previous partition's row) — the "bit-flag" consulted by the kernel
    /// to decide if a cross-partition combination is needed.
    pub fn partition_continues(&self, p: usize) -> bool {
        let start = p * self.seg_len;
        start > 0 && start < self.nnz() && !self.start_flags[start]
    }

    /// The non-target mode ids, in storage order.
    pub fn other_modes(&self) -> &[usize] {
        &self.other_modes
    }

    /// Indices of the `k`-th non-target mode.
    pub fn other_indices(&self, k: usize) -> &[Idx] {
        &self.other_inds[k]
    }

    /// Entry values.
    pub fn values(&self) -> &[Val] {
        &self.vals
    }

    /// Bytes of the device layout: flags packed as bits, plus indices and
    /// values (this is F-COO's storage advantage: the mode index array is
    /// replaced by `nnz/8` bytes of flags).
    pub fn byte_size(&self) -> usize {
        let flags = self.nnz().div_ceil(8);
        let inds: usize = self.other_inds.len() * self.nnz() * std::mem::size_of::<Idx>();
        flags + inds + self.nnz() * std::mem::size_of::<Val>()
    }

    /// Expands back to COO (sorted for the target mode).
    pub fn to_coo(&self) -> CooTensor {
        let mut inds = vec![Vec::with_capacity(self.nnz()); self.order()];
        inds[self.mode] = self.rows.clone();
        for (k, &m) in self.other_modes.iter().enumerate() {
            inds[m] = self.other_inds[k].clone();
        }
        CooTensor::from_parts(&self.dims, inds, self.vals.clone())
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
    fn flags_mark_row_starts() {
        let f = FCooTensor::from_coo(&sample(), 0, 2);
        // Sorted rows: 0,0,2,2,3.
        assert_eq!(f.rows, vec![0, 0, 2, 2, 3]);
        assert_eq!(f.start_flags, vec![true, false, true, false, true]);
        assert_eq!(f.num_partitions(), 3);
        // Partition 1 starts at entry 2 which begins row 2 -> no carry.
        assert!(!f.partition_continues(1));
        // With seg_len 3, partition 1 starts at entry 3 (mid-row 2) -> carry.
        let f3 = FCooTensor::from_coo(&sample(), 0, 3);
        assert!(f3.partition_continues(1));
    }

    #[test]
    fn round_trip_matches_sorted_coo() {
        let base = CooTensor::random_uniform(&[20, 15, 10], 300, 7);
        for mode in 0..3 {
            let f = FCooTensor::from_coo(&base, mode, 64);
            let back = f.to_coo();
            let mut sorted = base.clone();
            sorted.sort_for_mode(mode);
            assert_eq!(back, sorted, "mode {mode}");
        }
    }

    #[test]
    fn byte_size_beats_plain_coo() {
        let base = CooTensor::random_uniform(&[100, 80, 60], 5_000, 9);
        let f = FCooTensor::from_coo(&base, 0, 256);
        // F-COO drops one 4-byte index per entry for a 1-bit flag.
        assert!(f.byte_size() < base.byte_size());
        assert!(base.byte_size() - f.byte_size() >= 5_000 * 3);
    }

    #[test]
    fn partition_ranges_tile_entries() {
        let base = CooTensor::random_uniform(&[30, 20, 10], 500, 11);
        let f = FCooTensor::from_coo(&base, 1, 64);
        let mut covered = 0;
        for p in 0..f.num_partitions() {
            let r = f.partition_range(p);
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, 500);
    }

    #[test]
    fn works_on_4way() {
        let base = CooTensor::random_uniform(&[8, 7, 6, 5], 200, 13);
        let f = FCooTensor::from_coo(&base, 2, 32);
        assert_eq!(f.other_modes(), &[0, 1, 3]);
        assert_eq!(f.to_coo().nnz(), 200);
    }

    #[test]
    #[should_panic(expected = "segment length")]
    fn zero_seg_len_rejected() {
        let _ = FCooTensor::from_coo(&sample(), 0, 0);
    }
}
