//! Coordinate (COO) sparse tensor format.
//!
//! COO stores one `(i₁, …, i_N, val)` entry per non-zero (§II-D, Fig. 2).
//! Indices are stored structure-of-arrays: one `Vec<Idx>` per mode, which is
//! exactly the layout transferred to the device by ParTI and by ScalFrag's
//! segmented pipeline, and the layout the simulated kernels read.

use crate::bucket::BucketSort;
use crate::{Idx, Val};
use rand::Rng;
use std::ops::Range;

/// A sparse tensor in coordinate format.
///
/// Invariants maintained by every constructor:
/// * every index is strictly less than the corresponding mode size,
/// * `inds[m].len() == vals.len()` for every mode `m`.
///
/// Sorting/deduplication are explicit operations ([`CooTensor::sort_for_mode`],
/// [`CooTensor::dedup_sum`]) because the GPU pipeline cares about entry order.
#[derive(Clone, Debug, PartialEq)]
pub struct CooTensor {
    dims: Vec<Idx>,
    /// `inds[m][e]` is the mode-`m` coordinate of entry `e`.
    inds: Vec<Vec<Idx>>,
    vals: Vec<Val>,
}

impl CooTensor {
    /// Creates an empty tensor with the given mode sizes.
    ///
    /// # Panics
    /// Panics if `dims` is empty or any mode size is zero.
    pub fn new(dims: &[Idx]) -> Self {
        assert!(!dims.is_empty(), "a tensor needs at least one mode");
        assert!(dims.iter().all(|&d| d > 0), "mode sizes must be positive");
        Self { dims: dims.to_vec(), inds: vec![Vec::new(); dims.len()], vals: Vec::new() }
    }

    /// Builds a tensor from parallel per-mode index vectors and values.
    ///
    /// # Panics
    /// Panics on length mismatches or out-of-range indices.
    pub fn from_parts(dims: &[Idx], inds: Vec<Vec<Idx>>, vals: Vec<Val>) -> Self {
        assert_eq!(inds.len(), dims.len(), "one index vector per mode required");
        for (m, iv) in inds.iter().enumerate() {
            assert_eq!(iv.len(), vals.len(), "mode {m} index count != value count");
            assert!(
                iv.iter().all(|&i| i < dims[m]),
                "mode {m} contains an index >= dim {}",
                dims[m]
            );
        }
        Self { dims: dims.to_vec(), inds, vals }
    }

    /// Builds a tensor from `(coordinate, value)` entries.
    ///
    /// # Panics
    /// Panics if any entry's coordinate arity differs from `dims.len()` or is
    /// out of range.
    pub fn from_entries(dims: &[Idx], entries: &[(Vec<Idx>, Val)]) -> Self {
        let mut t = Self::new(dims);
        for (coord, v) in entries {
            t.push(coord, *v);
        }
        t
    }

    /// Appends one non-zero entry.
    ///
    /// # Panics
    /// Panics if `coord.len() != order` or any index is out of range.
    pub fn push(&mut self, coord: &[Idx], val: Val) {
        assert_eq!(coord.len(), self.order(), "coordinate arity mismatch");
        for (m, (&c, &d)) in coord.iter().zip(&self.dims).enumerate() {
            assert!(c < d, "mode {m} index {c} out of range {d}");
            self.inds[m].push(c);
        }
        self.vals.push(val);
    }

    /// Number of modes (`N`, the tensor order).
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode sizes `I₁ × … × I_N`.
    #[inline]
    pub fn dims(&self) -> &[Idx] {
        &self.dims
    }

    /// Number of stored non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The mode-`m` coordinates of all entries.
    #[inline]
    pub fn mode_indices(&self, m: usize) -> &[Idx] {
        &self.inds[m]
    }

    /// All entry values.
    #[inline]
    pub fn values(&self) -> &[Val] {
        &self.vals
    }

    /// Mutable access to values (used by tests and scaling utilities).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [Val] {
        &mut self.vals
    }

    /// The coordinate of entry `e` as a vector (allocates; prefer
    /// [`CooTensor::mode_indices`] in hot paths).
    pub fn coord(&self, e: usize) -> Vec<Idx> {
        self.inds.iter().map(|iv| iv[e]).collect()
    }

    /// Density `nnz / ∏ dims` as in Table III.
    pub fn density(&self) -> f64 {
        let cells: f64 = self.dims.iter().map(|&d| d as f64).product();
        self.nnz() as f64 / cells
    }

    /// Bytes this tensor occupies in the COO device layout
    /// (`order` index arrays + one value array).
    pub fn byte_size(&self) -> usize {
        self.nnz() * (self.order() * std::mem::size_of::<Idx>() + std::mem::size_of::<Val>())
    }

    /// The mode ordering `[mode, 0, 1, …]` (mode first, remaining modes
    /// ascending) used for mode-`n` kernels: sorting by it groups entries of
    /// the same mode-`n` slice together.
    pub fn mode_order(&self, mode: usize) -> Vec<usize> {
        assert!(mode < self.order(), "mode out of range");
        let mut order = vec![mode];
        order.extend((0..self.order()).filter(|&m| m != mode));
        order
    }

    /// Sorts entries lexicographically by the given mode ordering
    /// (e.g. `[1, 0, 2]` sorts by mode-1 index first). The sort is stable —
    /// entries with equal coordinates keep their input order.
    pub fn sort_by_order(&mut self, order: &[usize]) {
        *self = self.sorted_by_order(order);
    }

    /// Sorts entries for mode-`n` processing: primary key mode `n`, then the
    /// remaining modes ascending. Stable.
    pub fn sort_for_mode(&mut self, mode: usize) {
        let order = self.mode_order(mode);
        self.sort_by_order(&order);
    }

    /// A sorted copy — what cloning and then [`CooTensor::sort_by_order`]
    /// gives, without the clone. One bucket sort by the lead mode:
    /// O(order · nnz + dim) for the scatter plus a cache-resident sort per
    /// lead index; the index columns decode sequentially from the packed
    /// words and only the values are gathered.
    pub fn sorted_by_order(&self, order: &[usize]) -> CooTensor {
        self.sorted_range(order, 0..self.nnz())
    }

    /// A copy sorted for mode-`n` processing ([`CooTensor::sort_for_mode`]
    /// order), without a clone.
    pub fn sorted_for_mode(&self, mode: usize) -> CooTensor {
        self.sorted_by_order(&self.mode_order(mode))
    }

    /// The entries in `range` as their own tensor (same dims), sorted like
    /// [`CooTensor::sorted_by_order`].
    pub(crate) fn sorted_range(&self, order: &[usize], range: Range<usize>) -> CooTensor {
        assert_eq!(order.len(), self.order(), "ordering must mention every mode");
        assert!(range.end <= self.nnz(), "range out of bounds");
        let keys = order.iter().map(|&m| (&self.inds[m][range.clone()], self.dims[m])).collect();
        let sort = BucketSort::new(range.len(), keys);
        let mut inds = vec![Vec::new(); self.order()];
        for (k, &m) in order.iter().enumerate() {
            inds[m] = sort.column(k);
        }
        CooTensor { dims: self.dims.clone(), inds, vals: sort.gather(&self.vals[range]) }
    }

    /// True when entries are sorted by the given mode ordering.
    pub fn is_sorted_by_order(&self, order: &[usize]) -> bool {
        // One branch-free pass per mode: `tie[e]` says entries `e` and
        // `e + 1` agree on every mode checked so far, so only those pairs
        // must not descend in the next mode.
        let mut tie = vec![true; self.nnz().saturating_sub(1)];
        order.iter().all(|&m| {
            let mut sorted = true;
            for (t, w) in tie.iter_mut().zip(self.inds[m].windows(2)) {
                sorted &= !(*t & (w[0] > w[1]));
                *t &= w[0] == w[1];
            }
            sorted
        })
    }

    /// Merges duplicate coordinates by summing their values.
    /// Requires and preserves lexicographic sorting by `order`.
    pub fn dedup_sum(&mut self, order: &[usize]) {
        debug_assert!(self.is_sorted_by_order(order));
        if self.nnz() <= 1 {
            return;
        }
        let n = self.nnz();
        let mut write = 0usize;
        for read in 1..n {
            let same = (0..self.order()).all(|m| self.inds[m][read] == self.inds[m][write]);
            if same {
                self.vals[write] += self.vals[read];
            } else {
                write += 1;
                if write != read {
                    for m in 0..self.order() {
                        self.inds[m][write] = self.inds[m][read];
                    }
                    self.vals[write] = self.vals[read];
                }
            }
        }
        let new_len = write + 1;
        for iv in &mut self.inds {
            iv.truncate(new_len);
        }
        self.vals.truncate(new_len);
    }

    /// Extracts the contiguous entry range `[start, end)` as its own tensor
    /// (same dims) — the unit of work of the segmented pipeline (§IV-C).
    pub fn slice_range(&self, start: usize, end: usize) -> CooTensor {
        assert!(start <= end && end <= self.nnz(), "range out of bounds");
        CooTensor {
            dims: self.dims.clone(),
            inds: self.inds.iter().map(|iv| iv[start..end].to_vec()).collect(),
            vals: self.vals[start..end].to_vec(),
        }
    }

    /// Counts non-zeros per mode-`m` index value (`slice histogram` —
    /// the raw material of the paper's `maxNnzPerSlice` feature and of
    /// atomic-contention modelling).
    pub fn slice_nnz_histogram(&self, mode: usize) -> Vec<u32> {
        let mut hist = vec![0u32; self.dims[mode] as usize];
        for &i in &self.inds[mode] {
            hist[i as usize] += 1;
        }
        hist
    }

    /// Number of non-empty mode-`m` slices.
    pub fn num_nonempty_slices(&self, mode: usize) -> usize {
        self.slice_nnz_histogram(mode).iter().filter(|&&c| c > 0).count()
    }

    /// Counts distinct mode-`m` fibers: a fiber fixes every index except
    /// mode `m`, so this is the number of distinct coordinate tuples over
    /// the other modes.
    pub fn num_fibers(&self, mode: usize) -> usize {
        self.fiber_count_and_max(mode).0
    }

    /// The number of distinct mode-`m` fibers and the largest fiber's
    /// population — `(len, max)` of [`CooTensor::fiber_nnz_counts`], counted
    /// without sorting. The widest other mode leads: one pass sizes a bucket
    /// per lead index, one scatter writes each entry's remaining
    /// coordinates, packed mixed-radix into a `u32`, into its bucket, and a
    /// dense counter over the packed keys counts each bucket's distinct keys
    /// and largest count; a second walk of the bucket resets the counter.
    /// O(order · nnz + lead dim + key space), with one `u32` per entry of
    /// scratch. Applies when the lead dim and the key space are both at
    /// most `max(nnz, 2^16)`; any other tensor takes the sort.
    pub fn fiber_count_and_max(&self, mode: usize) -> (usize, u32) {
        assert!(mode < self.order(), "mode out of range");
        let nnz = self.nnz();
        let limit = nnz.max(1 << 16) as u64;
        let others = || (0..self.order()).filter(|&m| m != mode);
        let lead = others().max_by_key(|&m| self.dims[m]);
        let rest: Vec<(&[Idx], Idx)> = others()
            .filter(|&m| Some(m) != lead)
            .map(|m| (self.inds[m].as_slice(), self.dims[m]))
            .collect();
        let keys = rest.iter().try_fold(1u64, |n, &(_, d)| n.checked_mul(d as u64));
        let (lead, keys) = match (lead, keys) {
            (Some(lead), Some(keys))
                if keys.max(self.dims[lead] as u64) <= limit && nnz <= u32::MAX as usize =>
            {
                (lead, keys)
            }
            _ => {
                let counts = self.fiber_nnz_counts(mode);
                return (counts.len(), counts.iter().copied().max().unwrap_or(0));
            }
        };

        // `ends[b]` starts as bucket b's first slot; the scatter leaves it
        // one past the bucket's last.
        let lead_col = &self.inds[lead];
        let mut ends = vec![0u32; self.dims[lead] as usize];
        for &v in lead_col {
            ends[v as usize] += 1;
        }
        let mut start = 0;
        for end in &mut ends {
            (*end, start) = (start, start + *end);
        }
        // Every partial mixed-radix key is below the key space, so no step
        // overflows.
        let mut packed = vec![0u32; nnz];
        for (e, &v) in lead_col.iter().enumerate() {
            let slot = &mut ends[v as usize];
            packed[*slot as usize] = rest.iter().fold(0, |k, &(col, d)| k * d + col[e]);
            *slot += 1;
        }
        let mut seen = vec![0u32; keys as usize];
        let (mut fibers, mut max, mut begin) = (0, 0, 0);
        for &end in &ends {
            let bucket = &packed[begin..end as usize];
            for &k in bucket {
                let count = &mut seen[k as usize];
                *count += 1;
                fibers += (*count == 1) as usize;
                max = max.max(*count);
            }
            for &k in bucket {
                seen[k as usize] = 0;
            }
            begin = end as usize;
        }
        (fibers, max)
    }

    /// Non-zero counts per distinct mode-`m` fiber (a fiber fixes every
    /// index except mode `m`), in lexicographic fiber order — the raw
    /// material of the `maxFiberLength` imbalance features that drive the
    /// load-balanced kernel arm. `counts.len() == num_fibers(mode)` and
    /// `counts.iter().sum() == nnz`. One bucket sort over the other modes,
    /// the first as lead, plus a run count per bucket.
    pub fn fiber_nnz_counts(&self, mode: usize) -> Vec<u32> {
        assert!(mode < self.order(), "mode out of range");
        let keys = (0..self.order())
            .filter(|&m| m != mode)
            .map(|m| (self.inds[m].as_slice(), self.dims[m]))
            .collect();
        BucketSort::new(self.nnz(), keys).runs()
    }

    /// A random tensor with `nnz` distinct uniform coordinates and values in
    /// `(0, 1]`. Deterministic in `seed`.
    pub fn random_uniform(dims: &[Idx], nnz: usize, seed: u64) -> Self {
        crate::gen::uniform(dims, nnz, seed)
    }

    /// Dense reconstruction as a flat row-major vector — only for tiny
    /// validation tensors.
    ///
    /// # Panics
    /// Panics if the dense size exceeds `1 << 24` elements.
    pub fn to_dense(&self) -> Vec<Val> {
        let size: usize = self.dims.iter().map(|&d| d as usize).product();
        assert!(size <= 1 << 24, "to_dense is only for small validation tensors");
        let mut dense = vec![0.0; size];
        for e in 0..self.nnz() {
            let mut flat = 0usize;
            for m in 0..self.order() {
                flat = flat * self.dims[m] as usize + self.inds[m][e] as usize;
            }
            dense[flat] += self.vals[e];
        }
        dense
    }

    /// Checks all structural invariants; returns an error string describing
    /// the first violation. Useful in tests and after I/O.
    pub fn validate(&self) -> Result<(), String> {
        if self.inds.len() != self.dims.len() {
            return Err("index vector count != order".into());
        }
        for (m, iv) in self.inds.iter().enumerate() {
            if iv.len() != self.vals.len() {
                return Err(format!("mode {m} length mismatch"));
            }
            if let Some(&bad) = iv.iter().find(|&&i| i >= self.dims[m]) {
                return Err(format!("mode {m} index {bad} >= dim {}", self.dims[m]));
            }
        }
        Ok(())
    }

    /// Random values regenerated in-place (used by generators after
    /// structural construction).
    pub(crate) fn randomize_values(&mut self, rng: &mut impl Rng) {
        for v in &mut self.vals {
            *v = rng.gen_range(0.0f32..1.0) + f32::EPSILON;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CooTensor {
        // The example tensor of Fig. 2 (4x4x2, 8 nnz), values 1..8.
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
    fn construction_and_accessors() {
        let t = small();
        assert_eq!(t.order(), 3);
        assert_eq!(t.dims(), &[4, 4, 2]);
        assert_eq!(t.nnz(), 8);
        assert_eq!(t.coord(3), vec![1, 3, 0]);
        assert!(t.validate().is_ok());
        assert!((t.density() - 8.0 / 32.0).abs() < 1e-12);
        assert_eq!(t.byte_size(), 8 * (3 * 4 + 4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_checks_range() {
        let mut t = CooTensor::new(&[2, 2]);
        t.push(&[2, 0], 1.0);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn push_checks_arity() {
        let mut t = CooTensor::new(&[2, 2]);
        t.push(&[0], 1.0);
    }

    #[test]
    fn sort_for_each_mode() {
        for mode in 0..3 {
            let mut t = small();
            t.sort_for_mode(mode);
            let order = t.mode_order(mode);
            assert!(t.is_sorted_by_order(&order), "mode {mode} not sorted");
            assert!(t.validate().is_ok());
            // Sorting must preserve the multiset of entries.
            assert_eq!(t.nnz(), 8);
            let sum: f32 = t.values().iter().sum();
            assert_eq!(sum, 36.0);
        }
    }

    #[test]
    fn sort_is_stable_on_sorted_input() {
        let mut t = small();
        t.sort_for_mode(0);
        let before = t.clone();
        t.sort_for_mode(0);
        assert_eq!(t, before);
    }

    #[test]
    fn sort_keeps_duplicate_entries_in_input_order() {
        // 60 entries over a 2 x 3 grid with values 0, 1, 2, … in input
        // order: enough ties that an unstable sort would reorder some.
        let entries: Vec<(Vec<Idx>, Val)> =
            (0..60u32).map(|e| (vec![(e * 7) % 2, (e * 5) % 3], e as Val)).collect();
        for mode in 0..2 {
            let mut t = CooTensor::from_entries(&[2, 3], &entries);
            t.sort_for_mode(mode);
            assert!(t.is_sorted_by_order(&t.mode_order(mode)));
            for e in 1..t.nnz() {
                if t.coord(e) == t.coord(e - 1) {
                    assert!(t.values()[e - 1] < t.values()[e], "mode {mode}: tie reordered at {e}");
                }
            }
        }
    }

    #[test]
    fn dedup_sums_duplicates() {
        let mut t = CooTensor::from_entries(
            &[2, 2],
            &[(vec![0, 1], 1.0), (vec![0, 1], 2.5), (vec![1, 0], 3.0), (vec![0, 1], 0.5)],
        );
        let order = t.mode_order(0);
        t.sort_by_order(&order);
        t.dedup_sum(&order);
        assert_eq!(t.nnz(), 2);
        let dense = t.to_dense();
        assert_eq!(dense, vec![0.0, 4.0, 3.0, 0.0]);
    }

    #[test]
    fn dedup_on_empty_and_singleton() {
        let mut t = CooTensor::new(&[3, 3]);
        t.dedup_sum(&[0, 1]);
        assert_eq!(t.nnz(), 0);
        t.push(&[1, 1], 2.0);
        t.dedup_sum(&[0, 1]);
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn slice_range_extracts_contiguous_entries() {
        let mut t = small();
        t.sort_for_mode(0);
        let part = t.slice_range(2, 5);
        assert_eq!(part.nnz(), 3);
        assert_eq!(part.dims(), t.dims());
        assert_eq!(part.values(), &t.values()[2..5]);
        assert!(part.validate().is_ok());
    }

    #[test]
    fn histogram_counts_per_slice() {
        let t = small();
        assert_eq!(t.slice_nnz_histogram(0), vec![2, 2, 2, 2]);
        assert_eq!(t.slice_nnz_histogram(2), vec![4, 4]);
        assert_eq!(t.num_nonempty_slices(0), 4);
    }

    #[test]
    fn fiber_count_matches_manual() {
        let t = small();
        // Mode-2 fibers fix (i, j): (2,1) appears twice, so 7 distinct.
        assert_eq!(t.num_fibers(2), 7);
        // Mode-1 fibers fix (i, k).
        // Pairs: (0,0),(0,1),(1,1),(1,0),(2,0),(2,1),(3,0),(3,1) -> 8 distinct.
        assert_eq!(t.num_fibers(1), 8);
    }

    #[test]
    fn fiber_counts_partition_the_nnz() {
        let t = small();
        for mode in 0..3 {
            let counts = t.fiber_nnz_counts(mode);
            assert_eq!(counts.len(), t.num_fibers(mode), "mode {mode} fiber count mismatch");
            assert_eq!(counts.iter().sum::<u32>() as usize, t.nnz());
            assert!(counts.iter().all(|&c| c > 0));
        }
        // Mode-2: the (2,1) fiber holds two entries, every other fiber one.
        let mut c2 = t.fiber_nnz_counts(2);
        c2.sort_unstable();
        assert_eq!(c2, vec![1, 1, 1, 1, 1, 1, 2]);
    }

    #[test]
    #[allow(clippy::identity_op, clippy::erasing_op)] // spelled-out index maths
    fn to_dense_round_trip() {
        let t = small();
        let dense = t.to_dense();
        assert_eq!(dense.len(), 32);
        let total: f32 = dense.iter().sum();
        assert_eq!(total, 36.0);
        // Spot check X(1,3,0) == 4.0, flat = (1*4 + 3)*2 + 0
        assert_eq!(dense[(1 * 4 + 3) * 2], 4.0);
    }

    #[test]
    fn random_uniform_respects_bounds_and_seed() {
        let a = CooTensor::random_uniform(&[10, 20, 30], 100, 7);
        let b = CooTensor::random_uniform(&[10, 20, 30], 100, 7);
        assert_eq!(a, b, "same seed must give identical tensors");
        assert_eq!(a.nnz(), 100);
        assert!(a.validate().is_ok());
        let c = CooTensor::random_uniform(&[10, 20, 30], 100, 8);
        assert_ne!(a, c, "different seeds should differ");
    }
}
