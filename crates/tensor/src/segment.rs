//! Non-zero-balanced tensor segmentation (§IV-C, data preprocessing stage).
//!
//! The paper: *"we segment the COO format tensor based on the pre-designed
//! index and the number of segments with non-zero element values"* — i.e.
//! the sorted entry list is cut into contiguous ranges with (nearly) equal
//! nnz so each CUDA-stream transfer+kernel handles a similar amount of
//! work. Cuts are optionally aligned to slice boundaries so that a slice's
//! partial results never straddle two segments (avoiding cross-segment
//! reduction on the host).

use crate::{CooTensor, Idx};

/// One contiguous entry range of a segmented tensor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// First entry index (inclusive).
    pub start: usize,
    /// Last entry index (exclusive).
    pub end: usize,
}

impl Segment {
    /// Number of entries in the segment.
    pub fn nnz(&self) -> usize {
        self.end - self.start
    }

    /// Bytes of the COO device layout of this segment for a tensor of the
    /// given order.
    pub fn byte_size(&self, order: usize) -> usize {
        self.nnz() * (order * std::mem::size_of::<Idx>() + std::mem::size_of::<crate::Val>())
    }
}

/// Splits `0..nnz` into at most `num_segments` contiguous ranges of
/// near-equal nnz. Returns fewer segments when `nnz < num_segments`.
///
/// # Panics
/// Panics if `num_segments == 0`.
pub fn segment_by_nnz(nnz: usize, num_segments: usize) -> Vec<Segment> {
    assert!(num_segments > 0, "need at least one segment");
    if nnz == 0 {
        return Vec::new();
    }
    let k = num_segments.min(nnz);
    let base = nnz / k;
    let extra = nnz % k;
    let mut segs = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        segs.push(Segment { start, end: start + len });
        start += len;
    }
    segs
}

/// Splits a *mode-sorted* tensor into at most `num_segments` ranges of
/// near-equal nnz whose cuts fall on mode-`mode` slice boundaries, so that
/// each output row is written by exactly one segment.
///
/// The tensor must be sorted for `mode` (see [`CooTensor::sort_for_mode`]).
///
/// # Panics
/// Panics if `num_segments == 0` or the tensor is not sorted for `mode`.
pub fn segment_on_slice_boundaries(
    tensor: &CooTensor,
    mode: usize,
    num_segments: usize,
) -> Vec<Segment> {
    assert!(num_segments > 0, "need at least one segment");
    let order = tensor.mode_order(mode);
    assert!(
        tensor.is_sorted_by_order(&order),
        "tensor must be sorted for mode {mode} before slice-aligned segmentation"
    );
    let nnz = tensor.nnz();
    if nnz == 0 {
        return Vec::new();
    }
    let target = (nnz as f64 / num_segments as f64).ceil() as usize;
    let idx = tensor.mode_indices(mode);

    let mut segs = Vec::with_capacity(num_segments);
    let mut start = 0usize;
    while start < nnz {
        let mut end = (start + target).min(nnz);
        // Advance end to the next slice boundary (entries with equal
        // mode index must stay together).
        while end < nnz && idx[end] == idx[end - 1] {
            end += 1;
        }
        segs.push(Segment { start, end });
        start = end;
    }
    segs
}

/// The inclusive `(first, last)` mode-`mode` index bounds of a segment of a
/// *mode-sorted* tensor — the output rows the segment writes. For segments
/// cut by [`segment_on_slice_boundaries`] these row ranges are disjoint
/// across segments, which is what lets a multi-device reduction skip the
/// cross-shard row merge entirely.
///
/// Returns `None` for an empty segment.
pub fn mode_index_bounds(tensor: &CooTensor, mode: usize, seg: &Segment) -> Option<(Idx, Idx)> {
    if seg.nnz() == 0 {
        return None;
    }
    let idx = tensor.mode_indices(mode);
    Some((idx[seg.start], idx[seg.end - 1]))
}

/// Picks a segment count that fits each segment (plus factor matrices)
/// within `device_bytes` of device memory, between 1 and `max_segments`.
/// Mirrors the paper's "reasonably allocate storage space … according to
/// the performance and storage capacity of the GPU".
pub fn auto_segment_count(
    tensor_bytes: usize,
    resident_bytes: usize,
    device_bytes: usize,
    max_segments: usize,
) -> usize {
    assert!(max_segments > 0);
    let available = device_bytes.saturating_sub(resident_bytes);
    if available == 0 {
        return max_segments;
    }
    // Need ~2 segments resident at once for overlap (one transferring, one
    // computing), so each segment should be at most available/2.
    let per_segment_cap = (available / 2).max(1);
    let needed = tensor_bytes.div_ceil(per_segment_cap);
    needed.clamp(1, max_segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_exact() {
        let segs = segment_by_nnz(100, 4);
        assert_eq!(segs.len(), 4);
        assert!(segs.iter().all(|s| s.nnz() == 25));
        assert_eq!(segs[0].start, 0);
        assert_eq!(segs[3].end, 100);
    }

    #[test]
    fn uneven_split_distributes_remainder() {
        let segs = segment_by_nnz(10, 3);
        let sizes: Vec<usize> = segs.iter().map(Segment::nnz).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        // Ranges tile.
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn more_segments_than_nnz() {
        let segs = segment_by_nnz(3, 8);
        assert_eq!(segs.len(), 3);
        assert!(segs.iter().all(|s| s.nnz() == 1));
    }

    #[test]
    fn zero_nnz_gives_no_segments() {
        assert!(segment_by_nnz(0, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_segments_panics() {
        let _ = segment_by_nnz(10, 0);
    }

    #[test]
    fn slice_aligned_cuts_never_split_slices() {
        let mut t = crate::gen::zipf_slices(&[50, 40, 40], 2_000, 1.0, 5);
        t.sort_for_mode(0);
        let segs = segment_on_slice_boundaries(&t, 0, 6);
        assert!(!segs.is_empty());
        assert_eq!(segs[0].start, 0);
        assert_eq!(segs.last().unwrap().end, 2_000);
        let idx = t.mode_indices(0);
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start, "segments must tile");
            // Boundary: slice index changes across the cut.
            assert_ne!(idx[w[0].end - 1], idx[w[0].end], "cut splits a slice");
        }
    }

    #[test]
    fn slice_aligned_handles_one_giant_slice() {
        // All entries in one slice -> single segment regardless of request.
        let mut entries = Vec::new();
        for j in 0..30u32 {
            entries.push((vec![5u32, j], 1.0f32));
        }
        let mut t = CooTensor::from_entries(&[10, 30], &entries);
        t.sort_for_mode(0);
        let segs = segment_on_slice_boundaries(&t, 0, 4);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].nnz(), 30);
    }

    #[test]
    fn auto_segment_count_scales_with_pressure() {
        let gb = 1usize << 30;
        // Tensor fits easily -> 1 segment.
        assert_eq!(auto_segment_count(gb, gb, 24 * gb, 16), 1);
        // Tensor is 20 GB, 23 GB available -> needs ~2 resident halves.
        let n = auto_segment_count(20 * gb, gb, 24 * gb, 16);
        assert!(n >= 2, "expected >= 2 segments, got {n}");
        // No memory at all -> max segments.
        assert_eq!(auto_segment_count(gb, 24 * gb, 24 * gb, 16), 16);
    }

    #[test]
    fn segment_byte_size() {
        let s = Segment { start: 0, end: 10 };
        assert_eq!(s.byte_size(3), 10 * (3 * 4 + 4));
    }
}
