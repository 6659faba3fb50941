//! Chunked COO: the load-balanced layout of Nisa et al. ("Load-Balanced
//! Sparse MTTKRP on GPUs", IPDPS'19), the format behind the
//! `balance-segscan` kernel arm.
//!
//! Slice- and fiber-parallel kernels inherit the tensor's skew: one heavy
//! row serializes a whole block. This layout instead cuts the mode-sorted
//! entry stream into *fixed-size chunks of `chunk_len` non-zeros* with no
//! regard for slice or fiber boundaries, so every chunk carries identical
//! work. Rows that straddle a chunk boundary are recorded as *boundary
//! rows* with their full entry range; the companion kernel in
//! `scalfrag-balance` folds interior rows chunk-locally and resolves each
//! boundary row with a carry chain that walks its entries in storage
//! order — one strict left-to-right fold per output row, which is what
//! makes the result bit-stable across chunk counts.

use crate::{CooTensor, Idx, Val};
use std::ops::Range;

/// An output row cut by at least one chunk boundary, with the full
/// (contiguous, mode-sorted) entry range it owns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundaryRow {
    /// The mode-`mode` index of the cut row.
    pub row: Idx,
    /// First entry of the row.
    pub start: usize,
    /// One past the last entry of the row.
    pub end: usize,
}

/// A sparse tensor cut into fixed-nnz chunks for one target mode.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkedTensor {
    dims: Vec<Idx>,
    mode: usize,
    /// Output row of each entry (mode-sorted order).
    rows: Vec<Idx>,
    /// Original mode ids of `other_inds` rows.
    other_modes: Vec<usize>,
    /// Indices of the non-target modes, per entry.
    other_inds: Vec<Vec<Idx>>,
    vals: Vec<Val>,
    /// Entries per chunk (the kernel's fixed work unit).
    chunk_len: usize,
    /// Rows cut by a chunk boundary, ascending by `start`.
    boundary: Vec<BoundaryRow>,
}

impl ChunkedTensor {
    /// Builds the chunked representation of `coo` for `mode`, cutting the
    /// mode-sorted entry stream every `chunk_len` non-zeros.
    ///
    /// # Panics
    /// Panics if `chunk_len == 0` or `mode` is out of range.
    pub fn from_coo(coo: &CooTensor, mode: usize, chunk_len: usize) -> Self {
        Self::from_range(coo, 0..coo.nnz(), mode, chunk_len)
    }

    /// [`ChunkedTensor::from_coo`] of the entries in `range` alone.
    pub fn from_range(coo: &CooTensor, range: Range<usize>, mode: usize, chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk length must be positive");
        assert!(mode < coo.order(), "mode out of range");
        let sorted = coo.sorted_range(&coo.mode_order(mode), range);

        let nnz = sorted.nnz();
        let rows: Vec<Idx> = sorted.mode_indices(mode).to_vec();
        let other_modes: Vec<usize> = (0..coo.order()).filter(|&m| m != mode).collect();
        let other_inds: Vec<Vec<Idx>> =
            other_modes.iter().map(|&m| sorted.mode_indices(m).to_vec()).collect();

        // A run [s, e) of one row is cut iff it spans a chunk boundary,
        // i.e. its first and last entries land in different chunks.
        let mut boundary = Vec::new();
        let mut s = 0usize;
        for e in 0..nnz {
            if e + 1 == nnz || rows[e + 1] != rows[e] {
                if s / chunk_len != e / chunk_len {
                    boundary.push(BoundaryRow { row: rows[e], start: s, end: e + 1 });
                }
                s = e + 1;
            }
        }

        Self {
            dims: coo.dims().to_vec(),
            mode,
            rows,
            other_modes,
            other_inds,
            vals: sorted.values().to_vec(),
            chunk_len,
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

    /// The target mode this representation is specialised for.
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Non-zero count.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Entries per chunk.
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.nnz().div_ceil(self.chunk_len)
    }

    /// Entry range of chunk `c`.
    pub fn chunk_range(&self, c: usize) -> std::ops::Range<usize> {
        let start = c * self.chunk_len;
        start..(start + self.chunk_len).min(self.nnz())
    }

    /// Output row of entry `e`.
    pub fn row(&self, e: usize) -> Idx {
        self.rows[e]
    }

    /// Whether chunk `c` begins mid-row (its first entry continues the
    /// previous chunk's last row, so the row is a boundary row).
    pub fn chunk_continues(&self, c: usize) -> bool {
        let start = c * self.chunk_len;
        start > 0 && start < self.nnz() && self.rows[start] == self.rows[start - 1]
    }

    /// The rows cut by chunk boundaries, ascending by entry range — the
    /// carry chain's worklist. Disjoint from every interior row.
    pub fn boundary_rows(&self) -> &[BoundaryRow] {
        &self.boundary
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

    /// Bytes of the device layout: the mode-sorted COO arrays plus one
    /// per-chunk carry descriptor (row id + continuation flag).
    pub fn byte_size(&self) -> usize {
        self.nnz() * (self.order() * std::mem::size_of::<Idx>() + std::mem::size_of::<Val>())
            + self.num_chunks() * 8
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
    fn chunks_ignore_row_boundaries() {
        // Sorted rows: 0,0,2,2,3. chunk_len 2 cuts at entries 2 and 4:
        // the cut at 2 falls between rows (0|2), the one at 4 too (2|3).
        let c = ChunkedTensor::from_coo(&sample(), 0, 2);
        assert_eq!(c.num_chunks(), 3);
        assert!(!c.chunk_continues(1));
        assert!(!c.chunk_continues(2));
        assert!(c.boundary_rows().is_empty());
        // chunk_len 3 cuts at entry 3, mid-row 2 -> row 2 is a boundary row.
        let c3 = ChunkedTensor::from_coo(&sample(), 0, 3);
        assert!(c3.chunk_continues(1));
        assert_eq!(c3.boundary_rows(), &[BoundaryRow { row: 2, start: 2, end: 4 }]);
    }

    #[test]
    fn boundary_rows_are_exactly_the_cut_runs() {
        let base = CooTensor::random_uniform(&[24, 18, 12], 800, 5);
        for mode in 0..3 {
            for chunk_len in [16usize, 64, 1024] {
                let c = ChunkedTensor::from_coo(&base, mode, chunk_len);
                let mut covered = std::collections::HashSet::new();
                for b in c.boundary_rows() {
                    assert!(b.start < b.end && b.end <= c.nnz());
                    // The range really is the row's full run.
                    assert!((b.start..b.end).all(|e| c.row(e) == b.row));
                    assert!(b.start == 0 || c.row(b.start - 1) != b.row);
                    assert!(b.end == c.nnz() || c.row(b.end) != b.row);
                    // And it really is cut.
                    assert_ne!(b.start / chunk_len, (b.end - 1) / chunk_len);
                    assert!(covered.insert(b.row), "boundary rows listed once");
                }
                // Every uncut run stays interior.
                for e in 0..c.nnz() {
                    let cut_here = e > 0 && e % chunk_len == 0 && c.row(e) == c.row(e - 1);
                    if cut_here {
                        assert!(covered.contains(&c.row(e)), "cut row must be listed");
                    }
                }
            }
        }
    }

    #[test]
    fn round_trip_matches_sorted_coo() {
        let base = CooTensor::random_uniform(&[20, 15, 10], 300, 7);
        for mode in 0..3 {
            let c = ChunkedTensor::from_coo(&base, mode, 64);
            let mut sorted = base.clone();
            sorted.sort_for_mode(mode);
            assert_eq!(c.to_coo(), sorted, "mode {mode}");
        }
    }

    #[test]
    fn chunk_ranges_tile_entries() {
        let base = CooTensor::random_uniform(&[30, 20, 10], 500, 11);
        let c = ChunkedTensor::from_coo(&base, 1, 64);
        let mut covered = 0;
        for k in 0..c.num_chunks() {
            let r = c.chunk_range(k);
            assert_eq!(r.start, covered);
            assert_eq!(r.len(), 64.min(500 - covered));
            covered = r.end;
        }
        assert_eq!(covered, 500);
    }

    #[test]
    fn works_on_4way() {
        let base = CooTensor::random_uniform(&[8, 7, 6, 5], 200, 13);
        let c = ChunkedTensor::from_coo(&base, 2, 32);
        assert_eq!(c.other_modes(), &[0, 1, 3]);
        assert_eq!(c.to_coo().nnz(), 200);
    }

    #[test]
    #[should_panic(expected = "chunk length")]
    fn zero_chunk_len_rejected() {
        let _ = ChunkedTensor::from_coo(&sample(), 0, 0);
    }
}
