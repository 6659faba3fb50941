//! Pipeline planning: how many segments, how many streams, which launch
//! configuration.

use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_tensor::{segment, CooTensor, Segment};

/// Upper bound on segments/streams exposed to auto mode; the paper's
/// Fig. 11 sweeps 1–16.
pub const MAX_SEGMENTS: usize = 16;

/// An executable pipeline plan for one MTTKRP.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelinePlan {
    /// Target MTTKRP mode.
    pub mode: usize,
    /// Kernel launch configuration (base; the tiled kernel adds its
    /// shared-memory request).
    pub config: LaunchConfig,
    /// Number of CUDA streams to spread segments over; segment `i` is
    /// issued on stream `i % num_streams`, as in the paper's "each stream
    /// is responsible for … one or more specific data segments".
    pub num_streams: usize,
    /// Slice-aligned entry ranges (over the mode-sorted tensor).
    pub segments: Vec<Segment>,
}

impl PipelinePlan {
    /// Plans `num_segments` slice-aligned segments over a *mode-sorted*
    /// tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not sorted for `mode`, or either count is 0.
    pub fn new(
        tensor: &CooTensor,
        mode: usize,
        config: LaunchConfig,
        num_segments: usize,
        num_streams: usize,
    ) -> Self {
        assert!(num_streams > 0, "need at least one stream");
        let segments = segment::segment_on_slice_boundaries(tensor, mode, num_segments);
        Self { mode, config, num_streams, segments }
    }

    /// Auto mode: picks the segment count from the device memory budget
    /// (the paper "empirically determine[s] the appropriate number of
    /// segments"; 4 segments / 4 streams is its Fig. 11 default operating
    /// point, used whenever memory pressure does not force more).
    pub fn auto(
        tensor: &CooTensor,
        mode: usize,
        config: LaunchConfig,
        device: &DeviceSpec,
        resident_bytes: usize,
    ) -> Self {
        let by_memory = segment::auto_segment_count(
            tensor.byte_size(),
            resident_bytes,
            device.global_mem_bytes as usize,
            MAX_SEGMENTS,
        );
        let num_segments = by_memory.clamp(4, MAX_SEGMENTS);
        let num_streams = num_segments.min(4);
        Self::new(tensor, mode, config, num_segments, num_streams)
    }

    /// Number of planned segments (may be fewer than requested when slices
    /// are coarse).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total non-zeros covered by the plan.
    pub fn total_nnz(&self) -> usize {
        self.segments.iter().map(Segment::nnz).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_tensor() -> CooTensor {
        let mut t = scalfrag_tensor::gen::zipf_slices(&[100, 60, 60], 5_000, 0.8, 3);
        t.sort_for_mode(0);
        t
    }

    #[test]
    fn plan_covers_all_nnz() {
        let t = sorted_tensor();
        let p = PipelinePlan::new(&t, 0, LaunchConfig::new(1024, 256), 6, 3);
        assert_eq!(p.total_nnz(), 5_000);
        assert!(p.num_segments() >= 1 && p.num_segments() <= 7);
    }

    #[test]
    fn auto_plan_defaults_to_four_segments_when_memory_is_ample() {
        let t = sorted_tensor();
        let d = DeviceSpec::rtx3090();
        let p = PipelinePlan::auto(&t, 0, LaunchConfig::new(1024, 256), &d, 1 << 20);
        assert!(p.num_segments() >= 2, "got {}", p.num_segments());
        assert!(p.num_streams <= 4);
    }

    #[test]
    fn auto_plan_scales_segments_under_memory_pressure() {
        let t = sorted_tensor();
        // A tiny device forces many segments.
        let mut d = DeviceSpec::rtx3090();
        d.global_mem_bytes = (t.byte_size() / 3) as u64;
        let p = PipelinePlan::auto(&t, 0, LaunchConfig::new(1024, 256), &d, 0);
        assert!(p.num_segments() > 4, "got {}", p.num_segments());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_tensor_rejected() {
        let t = scalfrag_tensor::gen::zipf_slices(&[100, 60, 60], 5_000, 0.8, 3);
        // zipf tensors are generated in insertion order — almost surely
        // unsorted for mode 0.
        let _ = PipelinePlan::new(&t, 0, LaunchConfig::new(64, 64), 4, 4);
    }
}
