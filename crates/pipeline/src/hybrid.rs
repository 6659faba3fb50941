//! CPU–GPU hybrid execution.
//!
//! §I: *"we put the parts with low parallelism to the CPU for execution.
//! Through this CPU-GPU heterogeneous hybrid optimization, substantial
//! efficiency improvement is achieved."* For MTTKRP the low-parallelism
//! part is the long tail of near-empty slices: each contributes a few
//! scattered entries whose GPU processing is latency-bound, while the host
//! can fold them in for free while the PCIe transfer of the bulk is in
//! flight.
//!
//! [`split_by_slice_population`] cuts the tensor;
//! [`build_hybrid_plan`](crate::build_hybrid_plan) lowers the split. The
//! host fold is a first-class `HostResidue` op of that plan: it appears
//! in the plan trace and, under fault injection, polls, retries and waits
//! out outages like any device op.

use scalfrag_tensor::CooTensor;

/// A tensor split into a GPU part (dense slices) and a host part (the
/// sparse-slice tail).
#[derive(Clone, Debug)]
pub struct HybridSplit {
    /// Entries belonging to well-populated slices (device work).
    pub gpu_part: CooTensor,
    /// Entries belonging to near-empty slices (host work).
    pub cpu_part: CooTensor,
    /// Slice-population threshold used.
    pub threshold: u32,
}

/// Splits entries by the population of their mode-`mode` slice: slices
/// with fewer than `threshold` non-zeros go to the CPU.
pub fn split_by_slice_population(tensor: &CooTensor, mode: usize, threshold: u32) -> HybridSplit {
    let hist = tensor.slice_nnz_histogram(mode);
    let mut gpu_part = CooTensor::new(tensor.dims());
    let mut cpu_part = CooTensor::new(tensor.dims());
    let order = tensor.order();
    let mut coord = vec![0u32; order];
    for e in 0..tensor.nnz() {
        for (m, c) in coord.iter_mut().enumerate() {
            *c = tensor.mode_indices(m)[e];
        }
        let v = tensor.values()[e];
        if hist[coord[mode] as usize] < threshold {
            cpu_part.push(&coord, v);
        } else {
            gpu_part.push(&coord, v);
        }
    }
    HybridSplit { gpu_part, cpu_part, threshold }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::build_hybrid_plan;
    use scalfrag_exec::{run_plan, ExecMode, ExecOutcome, KernelChoice};
    use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
    use scalfrag_kernels::reference::mttkrp_seq;
    use scalfrag_kernels::FactorSet;

    fn skewed() -> (CooTensor, FactorSet) {
        let dims = [200u32, 100, 100];
        let t = scalfrag_tensor::gen::zipf_slices(&dims, 15_000, 1.1, 21);
        let f = FactorSet::random(&dims, 8, 22);
        (t, f)
    }

    /// Runs the hybrid plan (4 segments on 4 streams) functionally.
    fn run_hybrid(split: &HybridSplit, f: &FactorSet) -> ExecOutcome {
        let cfg = LaunchConfig::new(1024, 256);
        let p =
            build_hybrid_plan(&DeviceSpec::rtx3090(), split, f, 0, cfg, 4, 4, KernelChoice::Tiled);
        run_plan(&p, ExecMode::Functional)
    }

    #[test]
    fn split_partitions_all_entries() {
        let (t, _) = skewed();
        let split = split_by_slice_population(&t, 0, 8);
        assert_eq!(split.gpu_part.nnz() + split.cpu_part.nnz(), t.nnz());
        assert!(split.cpu_part.nnz() > 0, "a Zipf tensor has a sparse tail");
        assert!(split.cpu_part.nnz() < split.gpu_part.nnz(), "the bulk should stay on the GPU");
        // Every CPU entry really is in a small slice.
        let hist = t.slice_nnz_histogram(0);
        for e in 0..split.cpu_part.nnz() {
            let s = split.cpu_part.mode_indices(0)[e] as usize;
            assert!(hist[s] < 8);
        }
    }

    #[test]
    fn threshold_zero_sends_everything_to_gpu() {
        let (t, _) = skewed();
        let split = split_by_slice_population(&t, 0, 0);
        assert_eq!(split.cpu_part.nnz(), 0);
        assert_eq!(split.gpu_part.nnz(), t.nnz());
    }

    #[test]
    fn hybrid_output_matches_reference() {
        let (t, f) = skewed();
        let split = split_by_slice_population(&t, 0, 8);
        let run = run_hybrid(&split, &f);
        let expect = mttkrp_seq(&t, &f, 0);
        assert!(
            run.output.max_abs_diff(&expect) < 1e-2,
            "diff {}",
            run.output.max_abs_diff(&expect)
        );
    }

    #[test]
    fn host_work_overlaps_device_work() {
        let (t, f) = skewed();
        let split = split_by_slice_population(&t, 0, 8);
        let run = run_hybrid(&split, &f);
        let host_span = run
            .timeline
            .spans
            .iter()
            .find(|s| s.kind == scalfrag_gpusim::SpanKind::HostTask)
            .expect("host span present");
        // The host task starts immediately, i.e. before the device finishes.
        assert!(host_span.start < run.timeline.makespan() * 0.5);
    }

    #[test]
    fn host_residue_appears_in_the_plan_trace() {
        let (t, f) = skewed();
        let split = split_by_slice_population(&t, 0, 8);
        let run = run_hybrid(&split, &f);
        assert!(
            run.trace.events.iter().any(|e| &*e.label == "host tail MTTKRP"),
            "the residue must be a first-class traced op"
        );
    }
}
