//! The ParTI baseline (§V-A3).
//!
//! ParTI's GPU SpMTTKRP divides work by tensor non-zeros and updates
//! output slices with atomic operations; transfers are synchronous. The
//! baseline here follows the library's suggested configuration (256
//! threads per block, one thread per non-zero) and runs the atomic COO
//! kernel on the same simulated device as ScalFrag — making the Fig. 9/10
//! comparisons strategy-vs-strategy on identical hardware.

use crate::report::{call_flops, MttkrpReport};
use scalfrag_exec::{run_plan, PlanBuilder};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::{FactorSet, MttkrpBackend};
use scalfrag_linalg::Mat;
use scalfrag_pipeline::{build_sync_plan, ExecMode, KernelChoice};
use scalfrag_tensor::CooTensor;

/// The ParTI baseline framework.
pub struct Parti {
    device: DeviceSpec,
}

impl Parti {
    /// A baseline bound to the given device.
    pub fn new(device: DeviceSpec) -> Self {
        Self { device }
    }

    /// A baseline on the paper's RTX 3090.
    pub fn rtx3090() -> Self {
        Self::new(DeviceSpec::rtx3090())
    }

    /// The simulated device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The launch heuristic ParTI uses for a tensor.
    pub fn launch_config(tensor: &CooTensor) -> LaunchConfig {
        LaunchConfig::parti_default(tensor.nnz())
    }

    /// Runs one end-to-end MTTKRP (functional).
    pub fn mttkrp(&self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> MttkrpReport {
        self.run(tensor, factors, mode, ExecMode::Functional)
    }

    /// Timing-only variant for sweeps.
    pub fn mttkrp_dry(&self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> MttkrpReport {
        self.run(tensor, factors, mode, ExecMode::Dry)
    }

    fn run(
        &self,
        tensor: &CooTensor,
        factors: &FactorSet,
        mode: usize,
        exec: ExecMode,
    ) -> MttkrpReport {
        let cfg = Self::launch_config(tensor);
        let plan =
            build_sync_plan(&self.device, tensor, factors, mode, cfg, KernelChoice::CooAtomic);
        let outcome = run_plan(&plan, exec);
        MttkrpReport::from_run("parti", &plan, outcome, call_flops(tensor, factors))
    }

    /// An [`MttkrpBackend`] view (for CPD-ALS comparisons).
    pub fn backend(&self) -> PartiBackend<'_> {
        PartiBackend { ctx: self, simulated_seconds: 0.0 }
    }
}

/// The core crate's registered plan builders: the ParTI baseline as a
/// ScheduleIR plan (synchronous atomic-COO on the paper's RTX 3090,
/// heuristic launch config).
pub fn plan_builders() -> Vec<PlanBuilder> {
    vec![PlanBuilder::new("parti", |tensor, factors, mode| {
        let device = DeviceSpec::rtx3090();
        let cfg = LaunchConfig::parti_default(tensor.nnz());
        let mut p = build_sync_plan(&device, tensor, factors, mode, cfg, KernelChoice::CooAtomic);
        p.name = "parti";
        p
    })]
}

/// CPD-ALS backend adapter for [`Parti`].
pub struct PartiBackend<'a> {
    ctx: &'a Parti,
    /// Total simulated device time over all MTTKRP calls.
    pub simulated_seconds: f64,
}

impl MttkrpBackend for PartiBackend<'_> {
    fn name(&self) -> &'static str {
        "parti"
    }

    fn mttkrp(&mut self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> Mat {
        let report = self.ctx.mttkrp(tensor, factors, mode);
        self.simulated_seconds += report.timing.total_s;
        report.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalfrag::ScalFrag;
    use scalfrag_kernels::reference::mttkrp_seq;

    fn tensors() -> Vec<(CooTensor, FactorSet)> {
        let mk = |dims: &[u32], nnz: usize, skew: f64, seed: u64| {
            let t = if skew > 0.0 {
                scalfrag_tensor::gen::zipf_slices(dims, nnz, skew, seed)
            } else {
                scalfrag_tensor::gen::uniform(dims, nnz, seed)
            };
            let f = FactorSet::random(dims, 16, seed + 1);
            (t, f)
        };
        vec![
            mk(&[200, 150, 100], 10_000, 0.0, 61),
            mk(&[300, 200, 150], 12_000, 1.0, 63),
            mk(&[60, 50, 40, 30], 6_000, 0.7, 65),
        ]
    }

    #[test]
    fn parti_output_matches_reference() {
        for (t, f) in tensors() {
            let parti = Parti::rtx3090();
            let r = parti.mttkrp(&t, &f, 0);
            let expect = mttkrp_seq(&t, &f, 0);
            assert!(r.output.max_abs_diff(&expect) < 1e-2);
            assert_eq!(r.segments, 1);
            assert_eq!(r.config.block, 256);
        }
    }

    #[test]
    fn scalfrag_beats_parti_end_to_end() {
        // The Fig. 10 claim, in miniature, on timing-only runs at a scale
        // where transfer and compute are comparable.
        let dims = [2_000u32, 1_500, 1_000];
        let t = scalfrag_tensor::gen::zipf_slices(&dims, 300_000, 0.9, 67);
        let f = FactorSet::random(&dims, 16, 68);

        let parti = Parti::rtx3090();
        let r_parti = parti.mttkrp_dry(&t, &f, 0);

        let scal =
            ScalFrag::builder().fixed_config(LaunchConfig::new(4096, 256)).segments(4).build();
        let r_scal = scal.mttkrp_dry(&t, &f, 0);

        let speedup = r_parti.timing.total_s / r_scal.timing.total_s;
        assert!(
            speedup > 1.1,
            "ScalFrag should beat ParTI end-to-end, got {speedup}x\n  parti: {}\n  scal:  {}",
            r_parti.summary(),
            r_scal.summary()
        );
    }

    #[test]
    fn h2d_dominates_parti_breakdown() {
        // The §III-B motivation (Fig. 5): H2D is the largest phase.
        let dims = [2_000u32, 1_500, 1_000];
        let t = scalfrag_tensor::gen::uniform(&dims, 200_000, 71);
        let f = FactorSet::random(&dims, 16, 72);
        let r = Parti::rtx3090().mttkrp_dry(&t, &f, 0);
        assert!(
            r.timing.h2d_s > r.timing.kernel_s,
            "H2D {} should exceed kernel {}",
            r.timing.h2d_s,
            r.timing.kernel_s
        );
        assert!(r.timing.h2d_s > r.timing.d2h_s);
        assert!(r.timing.h2d_fraction() > 0.4);
    }

    #[test]
    fn parti_backend_drives_cpd() {
        let (t, _) = &tensors()[0];
        let parti = Parti::rtx3090();
        let mut backend = parti.backend();
        let opts = scalfrag_kernels::CpdOptions {
            rank: 4,
            max_iters: 2,
            tol: 0.0,
            seed: 9,
            nonnegative: false,
        };
        let res = scalfrag_kernels::cpd_als(t, &opts, &mut backend);
        assert_eq!(res.iters, 2);
        assert!(backend.simulated_seconds > 0.0);
    }
}
