//! Cost-model-guided pass ordering: dry-run every candidate pipeline
//! through the interpreter and keep the cheapest schedule.
//!
//! The interpreter's dry mode *is* the analytic workload model — every
//! span is priced by the same roofline/occupancy cost functions the
//! autotuner trains on — so "run the candidate and read the makespan"
//! is exact model-guided search, not a heuristic.

use crate::pass::Pipeline;
use crate::passes::candidate_pipelines;
use scalfrag_exec::{run_plan, ExecMode, Plan};

/// The orderer's verdict for one plan.
#[derive(Clone, Debug)]
pub struct OrderedChoice {
    /// The winning pipeline.
    pub pipeline: Pipeline,
    /// Modelled seconds of the winning pipeline's schedule.
    pub est_s: f64,
    /// Modelled seconds of the raw plan.
    pub raw_s: f64,
    /// Candidate pipelines evaluated.
    pub evaluated: usize,
}

impl OrderedChoice {
    /// Modelled speedup of the chosen schedule over the raw plan
    /// (≥ 1.0, since the raw pipeline is a candidate).
    pub fn speedup(&self) -> f64 {
        self.raw_s / self.est_s
    }
}

/// Picks the cheapest registered pipeline for `plan`: each candidate
/// rewrites one copy of the plan, which is dry-run and priced by its
/// makespan. Deterministic: ties keep the earliest candidate, and the
/// dry interpreter is itself deterministic.
pub fn choose_pipeline(plan: &Plan) -> OrderedChoice {
    let raw_s = run_plan(plan, ExecMode::Dry).makespan();
    let candidates = candidate_pipelines();
    let evaluated = candidates.len();
    let mut best: Option<(Pipeline, f64)> = None;
    for pipeline in candidates {
        let mut candidate = plan.clone();
        pipeline.rewrite(&mut candidate);
        let est_s = run_plan(&candidate, ExecMode::Dry).makespan();
        if best.as_ref().is_none_or(|(_, b)| est_s < *b) {
            best = Some((pipeline, est_s));
        }
    }
    let (pipeline, est_s) = best.expect("the candidate list is never empty");
    OrderedChoice { pipeline, est_s, raw_s, evaluated }
}
