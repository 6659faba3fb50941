//! Cost-model-guided pass ordering: dry-run every candidate pipeline
//! (and launch configuration) through the interpreter and keep the
//! cheapest schedule.
//!
//! The interpreter's dry mode *is* the analytic workload model — every
//! span is priced by the same roofline/occupancy cost functions the
//! autotuner trains on — so "run the candidate and read the makespan"
//! is exact model-guided search, not a heuristic. The enumeration is
//! [`scalfrag_autotune::joint_argmin`] over the (pipeline × config)
//! product space, which is how the predictor's search space grows a
//! pipeline axis on top of the classic `(gridSize, blockSize)` grid.

use crate::pass::Pipeline;
use crate::passes::candidate_pipelines;
use scalfrag_autotune::joint_argmin;
use scalfrag_exec::{run_plan, ExecMode, Plan};
use scalfrag_gpusim::LaunchConfig;

/// The orderer's verdict for one plan.
#[derive(Clone, Debug)]
pub struct OrderedChoice {
    /// The winning pipeline.
    pub pipeline: Pipeline,
    /// The winning launch configuration.
    pub config: LaunchConfig,
    /// Modelled seconds of the winning `(pipeline, config)` point.
    pub est_s: f64,
    /// Modelled seconds of the raw plan under its own configuration.
    pub raw_s: f64,
    /// Points evaluated.
    pub evaluated: usize,
}

impl OrderedChoice {
    /// Modelled speedup of the chosen schedule over the raw plan
    /// (≥ 1.0 whenever the raw pipeline was a candidate).
    pub fn speedup(&self) -> f64 {
        self.raw_s / self.est_s
    }
}

/// Picks the cheapest registered pipeline for `plan` under its own
/// launch configuration.
pub fn choose_pipeline(plan: &Plan) -> OrderedChoice {
    choose_pipeline_joint(plan, &[plan.config], &candidate_pipelines())
}

/// Joint search over `(pipelines × configs)`: every point is priced by
/// applying the pipeline to the re-configured plan and dry-running it.
/// Deterministic: ties keep the earliest point, and the dry interpreter
/// is itself deterministic.
///
/// # Panics
/// Panics when either axis is empty (via [`joint_argmin`]).
pub fn choose_pipeline_joint(
    plan: &Plan,
    configs: &[LaunchConfig],
    pipelines: &[Pipeline],
) -> OrderedChoice {
    let raw_s = run_plan(plan, ExecMode::Dry).makespan();
    let choice = joint_argmin(pipelines.len(), configs.len(), |pi, ci| {
        let mut candidate = plan.clone();
        candidate.config = configs[ci];
        pipelines[pi].rewrite(&mut candidate);
        run_plan(&candidate, ExecMode::Dry).makespan()
    });
    OrderedChoice {
        pipeline: pipelines[choice.pipeline].clone(),
        config: configs[choice.config],
        est_s: choice.cost,
        raw_s,
        evaluated: choice.evaluated,
    }
}
