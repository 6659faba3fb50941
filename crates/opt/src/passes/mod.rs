//! The pass set and the named pipelines built from it.

mod batch;
mod coalesce;
mod dead;
mod memops;
mod slim;

pub use batch::BatchH2d;
pub use coalesce::CoalesceH2d;
pub use dead::DeadOpElim;
pub use memops::HoistPrefetch;
pub use slim::SlimFactors;

use crate::pass::{Pass, Pipeline};
use std::sync::Arc;

/// Every registered pass, in canonical order (cleanup passes first,
/// copy rewrites next, the byte-level slimming last).
pub fn all_passes() -> Vec<Arc<dyn Pass>> {
    vec![
        Arc::new(DeadOpElim),
        Arc::new(HoistPrefetch),
        Arc::new(CoalesceH2d),
        Arc::new(BatchH2d),
        Arc::new(SlimFactors),
    ]
}

/// The default pipeline: the always-profitable subset, safe on every
/// builder — cleanup, prefetch hoisting, same-stream transfer
/// coalescing, factor-upload slimming. The schedule-shape rewrite
/// (`batch-h2d`) is deliberately left to the cost-model orderer, which
/// prices it per plan.
pub fn default_pipeline() -> Pipeline {
    Pipeline::new(
        "default",
        vec![
            Arc::new(DeadOpElim),
            Arc::new(HoistPrefetch),
            Arc::new(CoalesceH2d),
            Arc::new(SlimFactors),
        ],
    )
}

/// The candidate pipelines the cost-model orderer chooses between. The
/// raw (empty) pipeline is always a candidate, so the chosen schedule is
/// never worse than the builder's under the cost model.
pub fn candidate_pipelines() -> Vec<Pipeline> {
    vec![
        Pipeline::new("raw", vec![]),
        default_pipeline(),
        Pipeline::new(
            "batch",
            vec![
                Arc::new(DeadOpElim),
                Arc::new(HoistPrefetch),
                Arc::new(BatchH2d),
                Arc::new(SlimFactors),
            ],
        ),
    ]
}
