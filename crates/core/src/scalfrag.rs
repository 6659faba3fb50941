//! The ScalFrag framework facade (Fig. 6).

use crate::report::{call_flops, MttkrpReport};
use scalfrag_autotune::{TrainedPredictor, TRAIN_SEED};
use scalfrag_exec::{run_plan, Plan};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::{FactorSet, MttkrpBackend};
use scalfrag_linalg::Mat;
use scalfrag_pipeline::{
    build_hybrid_plan, build_shared_pipelined_plan, build_sync_plan, split_by_slice_population,
    ExecMode, KernelChoice, PipelinePlan,
};
use scalfrag_tensor::{CooTensor, TensorFeatures};
use std::sync::Arc;

/// Feature toggles for the ScalFrag stack — the ablation surface.
#[derive(Clone, Debug)]
pub struct ScalFragConfig {
    /// Use the trained predictor to pick the launch configuration
    /// (§IV-B); otherwise fall back to `fixed_config` or the ParTI
    /// heuristic.
    pub adaptive_launch: bool,
    /// The kernel launched per segment: the shared-memory tiled kernel
    /// (§IV-A, the default), the plain atomic COO kernel, or one of the
    /// two balance arms — the load-balanced segmented scan
    /// (`balance-segscan`) or the FLYCOO mode-agnostic kernel
    /// (`balance-flycoo`).
    pub kernel: KernelChoice,
    /// Segment the tensor and overlap transfers with compute (§IV-C);
    /// otherwise execute synchronously.
    pub pipelined: bool,
    /// Route near-empty slices to the host CPU (§I's hybrid optimisation).
    pub hybrid: bool,
    /// Slice-population threshold for the hybrid split.
    pub hybrid_threshold: u32,
    /// Segment count override (`None` = auto from device memory, min 4).
    pub segments: Option<usize>,
    /// Stream count override (`None` = auto).
    pub streams: Option<usize>,
    /// Launch configuration override used when `adaptive_launch` is off.
    pub fixed_config: Option<LaunchConfig>,
    /// Non-zero tiers for predictor training (`None` = the autotune
    /// crate's defaults, which cover ~3 K – 2 M nnz).
    pub train_tiers: Option<Vec<usize>>,
}

impl Default for ScalFragConfig {
    fn default() -> Self {
        Self {
            adaptive_launch: true,
            kernel: KernelChoice::Tiled,
            pipelined: true,
            hybrid: false,
            hybrid_threshold: 4,
            segments: None,
            streams: None,
            fixed_config: None,
            train_tiers: None,
        }
    }
}

/// Builder for [`ScalFrag`].
pub struct ScalFragBuilder {
    device: DeviceSpec,
    config: ScalFragConfig,
    predictor: Option<TrainedPredictor>,
}

impl ScalFragBuilder {
    /// Sets the simulated device (default: RTX 3090).
    pub fn device(mut self, d: DeviceSpec) -> Self {
        self.device = d;
        self
    }

    /// Enables/disables the adaptive launching strategy.
    pub fn adaptive_launch(mut self, on: bool) -> Self {
        self.config.adaptive_launch = on;
        self
    }

    /// Selects the kernel launched per segment (default: tiled).
    pub fn kernel(mut self, kernel: KernelChoice) -> Self {
        self.config.kernel = kernel;
        self
    }

    /// Enables/disables pipelined execution.
    pub fn pipelined(mut self, on: bool) -> Self {
        self.config.pipelined = on;
        self
    }

    /// Enables/disables the CPU–GPU hybrid split.
    pub fn hybrid(mut self, on: bool) -> Self {
        self.config.hybrid = on;
        self
    }

    /// Slice-population threshold below which slices run on the host
    /// (only meaningful with `hybrid(true)`).
    pub fn hybrid_threshold(mut self, t: u32) -> Self {
        self.config.hybrid_threshold = t;
        self
    }

    /// Overrides the segment count.
    pub fn segments(mut self, n: usize) -> Self {
        self.config.segments = Some(n);
        self
    }

    /// Overrides the stream count.
    pub fn streams(mut self, n: usize) -> Self {
        self.config.streams = Some(n);
        self
    }

    /// Overrides the nnz tiers used to train the launch predictor (useful
    /// for fast tests; defaults cover the full deployment range).
    pub fn train_tiers(mut self, tiers: Vec<usize>) -> Self {
        self.config.train_tiers = Some(tiers);
        self
    }

    /// Pins a fixed launch configuration (implies `adaptive_launch(false)`).
    pub fn fixed_config(mut self, c: LaunchConfig) -> Self {
        self.config.fixed_config = Some(c);
        self.config.adaptive_launch = false;
        self
    }

    /// Shares an already-created [`TrainedPredictor`] handle instead of
    /// training privately — the handle's training device/seed/tiers win
    /// over this builder's. This is how a fleet of facades (one per pool
    /// device, or a serving layer) pays predictor training exactly once.
    pub fn predictor(mut self, handle: TrainedPredictor) -> Self {
        self.predictor = Some(handle);
        self
    }

    /// Finalises the framework instance.
    pub fn build(self) -> ScalFrag {
        let predictor = self.predictor.unwrap_or_else(|| {
            TrainedPredictor::train_once(&self.device, TRAIN_SEED, self.config.train_tiers.clone())
        });
        ScalFrag { device: self.device, config: self.config, predictor }
    }
}

/// The end-to-end ScalFrag framework.
///
/// One instance is reusable across tensors and ranks; launch-parameter
/// predictors are trained lazily per rank and cached (the paper: "the
/// training needs to be performed only once").
pub struct ScalFrag {
    device: DeviceSpec,
    config: ScalFragConfig,
    predictor: TrainedPredictor,
}

impl ScalFrag {
    /// Starts a builder with the paper's defaults (RTX 3090, everything on).
    pub fn builder() -> ScalFragBuilder {
        ScalFragBuilder {
            device: DeviceSpec::rtx3090(),
            config: ScalFragConfig::default(),
            predictor: None,
        }
    }

    /// The simulated device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The active configuration.
    pub fn config(&self) -> &ScalFragConfig {
        &self.config
    }

    /// The shared trained-predictor handle (clone it into other facades or
    /// a serving layer to reuse the trained models).
    pub fn trained_predictor(&self) -> &TrainedPredictor {
        &self.predictor
    }

    /// Selects the launch configuration for `(tensor, mode)` according to
    /// the active strategy.
    pub fn select_config(&self, tensor: &CooTensor, mode: usize, rank: u32) -> LaunchConfig {
        if self.config.adaptive_launch {
            let features = TensorFeatures::extract(tensor, mode).to_vec();
            self.predictor.for_rank(rank).predict_from_features(&features)
        } else {
            self.config.fixed_config.unwrap_or_else(|| LaunchConfig::parti_default(tensor.nnz()))
        }
    }

    /// Runs one end-to-end MTTKRP (functional: the output is numerically
    /// real and validated against the CPU reference in the test suite).
    pub fn mttkrp(&self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> MttkrpReport {
        self.run(tensor, factors, mode, ExecMode::Functional)
    }

    /// Timing-only variant for large benchmark sweeps.
    pub fn mttkrp_dry(&self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> MttkrpReport {
        self.run(tensor, factors, mode, ExecMode::Dry)
    }

    /// The plan one MTTKRP runs under the active configuration: the
    /// hybrid split, the segmented pipeline, or the synchronous schedule,
    /// with the launch configuration [`ScalFrag::select_config`] picks.
    ///
    /// # Panics
    /// Panics if a pipelined or hybrid facade has a stream override of 0.
    pub fn plan(&self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> Plan {
        let cfg = self.select_config(tensor, mode, factors.rank() as u32);
        let kernel = self.config.kernel;
        if self.config.hybrid {
            let split = split_by_slice_population(tensor, mode, self.config.hybrid_threshold);
            let segs = self.config.segments.unwrap_or(4);
            let strs = self.config.streams.unwrap_or(4.min(segs.max(1)));
            build_hybrid_plan(&self.device, &split, factors, mode, cfg, segs, strs, kernel)
        } else if self.config.pipelined {
            // The sorted copy is the plan's shard, shared rather than cloned.
            let sorted = Arc::new(tensor.sorted_for_mode(mode));
            let streams = self.config.streams;
            let plan = match self.config.segments {
                Some(segs) => {
                    PipelinePlan::new(&sorted, mode, cfg, segs, streams.unwrap_or(segs.min(4)))
                }
                None => {
                    let mut plan =
                        PipelinePlan::auto(&sorted, mode, cfg, &self.device, factors.byte_size());
                    if let Some(streams) = streams {
                        assert!(streams > 0, "need at least one stream");
                        plan.num_streams = streams;
                    }
                    plan
                }
            };
            build_shared_pipelined_plan(&self.device, sorted, factors, &plan, kernel)
        } else {
            build_sync_plan(&self.device, tensor, factors, mode, cfg, kernel)
        }
    }

    fn run(
        &self,
        tensor: &CooTensor,
        factors: &FactorSet,
        mode: usize,
        exec: ExecMode,
    ) -> MttkrpReport {
        let plan = self.plan(tensor, factors, mode);
        let outcome = run_plan(&plan, exec);
        MttkrpReport::from_run("scalfrag", &plan, outcome, call_flops(tensor, factors))
    }

    /// An [`MttkrpBackend`] view of this framework (for CPD-ALS), which
    /// also accumulates the simulated device seconds spent.
    pub fn backend(&self) -> ScalFragBackend<'_> {
        ScalFragBackend { ctx: self, simulated_seconds: 0.0 }
    }
}

/// CPD-ALS backend adapter for [`ScalFrag`].
pub struct ScalFragBackend<'a> {
    ctx: &'a ScalFrag,
    /// Total simulated device time over all MTTKRP calls.
    pub simulated_seconds: f64,
}

impl MttkrpBackend for ScalFragBackend<'_> {
    fn name(&self) -> &'static str {
        "scalfrag"
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
    use scalfrag_kernels::reference::mttkrp_seq;

    fn small() -> (CooTensor, FactorSet) {
        let dims = [150u32, 100, 80];
        let t = scalfrag_tensor::gen::zipf_slices(&dims, 8_000, 0.9, 51);
        let f = FactorSet::random(&dims, 16, 52);
        (t, f)
    }

    #[test]
    fn full_stack_output_matches_reference() {
        let (t, f) = small();
        // Fixed config avoids predictor training in the unit test.
        let ctx =
            ScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).segments(4).build();
        let r = ctx.mttkrp(&t, &f, 0);
        let expect = mttkrp_seq(&t, &f, 0);
        assert!(r.output.max_abs_diff(&expect) < 1e-2, "diff {}", r.output.max_abs_diff(&expect));
        assert!(r.timing.total_s > 0.0);
        assert_eq!(r.segments, 4);
        assert!(r.config.shared_mem_per_block > 0, "tiled kernel requests smem");
    }

    #[test]
    fn hybrid_stack_output_matches_reference() {
        let (t, f) = small();
        // With avg ~50 nnz per slice, a threshold of 30 guarantees a
        // non-empty host tail on the Zipf tensor.
        let ctx = ScalFrag::builder()
            .fixed_config(LaunchConfig::new(1024, 256))
            .hybrid(true)
            .hybrid_threshold(30)
            .build();
        let r = ctx.mttkrp(&t, &f, 0);
        let expect = mttkrp_seq(&t, &f, 0);
        assert!(r.output.max_abs_diff(&expect) < 1e-2);
        assert!(r.timing.host_s > 0.0, "hybrid must use the host engine");
    }

    #[test]
    fn hybrid_dry_runs_time_the_functional_schedule() {
        let (t, f) = small();
        let ctx = ScalFrag::builder()
            .fixed_config(LaunchConfig::new(1024, 256))
            .hybrid(true)
            .hybrid_threshold(30)
            .build();
        let wet = ctx.mttkrp(&t, &f, 0);
        let dry = ctx.mttkrp_dry(&t, &f, 0);
        assert!(dry.timing.host_s > 0.0, "the dry run must time the host tail");
        let bits = |r: &MttkrpReport| {
            let p = r.timing;
            [p.h2d_s, p.kernel_s, p.d2h_s, p.host_s, p.queue_s, p.batch_wait_s, p.total_s]
                .map(f64::to_bits)
        };
        assert_eq!(bits(&dry), bits(&wet));
        assert_eq!((dry.segments, dry.streams), (wet.segments, wet.streams));
        assert_eq!(dry.output.frob_norm(), 0.0);
    }

    #[test]
    fn sync_ablation_runs() {
        let (t, f) = small();
        let ctx =
            ScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).pipelined(false).build();
        let r = ctx.mttkrp(&t, &f, 1);
        assert_eq!(r.segments, 1);
        assert!(r.overlap_ratio < 0.05);
        let expect = mttkrp_seq(&t, &f, 1);
        assert!(r.output.max_abs_diff(&expect) < 1e-2);
    }

    #[test]
    fn balance_arms_match_reference_end_to_end() {
        let (t, f) = small();
        for kernel in [KernelChoice::Balanced, KernelChoice::ModeAgnostic] {
            let ctx = ScalFrag::builder()
                .fixed_config(LaunchConfig::new(1024, 256))
                .pipelined(false)
                .kernel(kernel)
                .build();
            for mode in 0..3 {
                let r = ctx.mttkrp(&t, &f, mode);
                let expect = mttkrp_seq(&t, &f, mode);
                assert!(
                    r.output.max_abs_diff(&expect) < 1e-2,
                    "{kernel:?} mode={mode}: {}",
                    r.output.max_abs_diff(&expect)
                );
                assert_eq!(r.config.shared_mem_per_block, 0, "balance arms use no smem tile");
            }
        }
    }

    #[test]
    fn backend_drives_cpd() {
        let (t, f) = small();
        let _ = f;
        let ctx = ScalFrag::builder().fixed_config(LaunchConfig::new(512, 256)).segments(2).build();
        let mut backend = ctx.backend();
        let opts = scalfrag_kernels::CpdOptions {
            rank: 4,
            max_iters: 2,
            tol: 0.0,
            seed: 3,
            nonnegative: false,
        };
        let res = scalfrag_kernels::cpd_als(&t, &opts, &mut backend);
        assert_eq!(res.iters, 2);
        assert!(res.final_fit().is_finite());
        assert!(backend.simulated_seconds > 0.0);
    }

    #[test]
    fn run_is_the_facade_plan_run_and_reported() {
        let (t, f) = small();
        let handle =
            TrainedPredictor::train_once(&DeviceSpec::rtx3090(), 0x5ca1, Some(vec![3_000, 12_000]));
        let facades = [
            ScalFrag::builder().predictor(handle.clone()).build(),
            ScalFrag::builder().predictor(handle.clone()).pipelined(false).build(),
            ScalFrag::builder().predictor(handle).hybrid(true).hybrid_threshold(30).build(),
        ];
        for ctx in &facades {
            let plan = ctx.plan(&t, &f, 0);
            let run = run_plan(&plan, ExecMode::Functional);
            let report = ctx.mttkrp(&t, &f, 0);
            let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&run.output), bits(&report.output), "{}", plan.name);
            assert_eq!(
                crate::PhaseTiming::from_timeline(&run.timeline),
                report.timing,
                "{}",
                plan.name
            );
            let dev = &plan.devices[0];
            assert_eq!((dev.units.len(), dev.worker_streams), (report.segments, report.streams));
        }
    }

    #[test]
    fn report_shows_the_launched_segments_and_streams() {
        // Three dense slices of 100 entries and 37 one-entry slices: the
        // hybrid split keeps the dense ones on the device, where at most
        // one segment per slice can be cut.
        let mut entries = Vec::new();
        for s in 0..3u32 {
            entries.extend((0..100u32).map(|k| (vec![s, k % 50, k / 50], 1.0)));
        }
        entries.extend((3..40u32).map(|s| (vec![s, s % 50, s % 7], 1.0)));
        let t = CooTensor::from_entries(&[40, 50, 7], &entries);
        let f = FactorSet::random(t.dims(), 4, 7);
        let cfg = LaunchConfig::new(256, 128);
        let hybrid = ScalFrag::builder()
            .fixed_config(cfg)
            .hybrid(true)
            .hybrid_threshold(4)
            .segments(8)
            .build()
            .mttkrp_dry(&t, &f, 0);
        assert_eq!((hybrid.segments, hybrid.streams), (3, 4));
        // A stream override applies to the automatic segment count too.
        let streams =
            ScalFrag::builder().fixed_config(cfg).streams(2).build().mttkrp_dry(&t, &f, 0);
        assert_eq!(streams.streams, 2);
    }

    #[test]
    #[should_panic(expected = "need at least one stream")]
    fn zero_streams_are_rejected() {
        let (t, f) = small();
        let ctx = ScalFrag::builder().fixed_config(LaunchConfig::new(256, 128)).streams(0).build();
        let _ = ctx.plan(&t, &f, 0);
    }

    #[test]
    fn dry_run_times_without_computing() {
        let (t, f) = small();
        let ctx = ScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).build();
        let r = ctx.mttkrp_dry(&t, &f, 0);
        assert!(r.timing.total_s > 0.0);
        assert_eq!(r.output.frob_norm(), 0.0);
    }

    #[test]
    fn adaptive_launch_trains_once_and_selects_valid_configs() {
        let (t, f) = small();
        let ctx = ScalFrag::builder().train_tiers(vec![3_000, 12_000]).build();
        let c1 = ctx.select_config(&t, 0, f.rank() as u32);
        let c2 = ctx.select_config(&t, 0, f.rank() as u32);
        assert_eq!(c1, c2, "cached predictor must be deterministic");
        assert!(c1.validate(ctx.device()).is_ok());
        assert_eq!(ctx.trained_predictor().trainings(), 1);
    }

    #[test]
    fn shared_predictor_handle_trains_once_across_facades() {
        let (t, f) = small();
        let rank = f.rank() as u32;
        let handle =
            TrainedPredictor::train_once(&DeviceSpec::rtx3090(), 0x5ca1, Some(vec![3_000, 12_000]));
        let a = ScalFrag::builder().predictor(handle.clone()).build();
        let b = ScalFrag::builder().predictor(handle.clone()).build();
        assert_eq!(a.select_config(&t, 0, rank), b.select_config(&t, 0, rank));
        assert_eq!(handle.trainings(), 1, "two facades, one training");
    }
}
