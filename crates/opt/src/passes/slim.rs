//! Factor-upload slimming: a mode-`n` MTTKRP never reads factor `n` on
//! the device, so its rows need not ride the factor upload.

use crate::pass::{applied, rewrite_programs, Contract, Pass, TraceEffect};
use scalfrag_exec::{Plan, PlanOp};

/// Shrinks every `"factors H2D"` upload by the output-mode factor's
/// bytes (`rows × rank × 4`). The kernel computes the Khatri-Rao product
/// of the *other* modes' factors and scatters into the output buffer, so
/// the mode factor is write-only device-side — uploading it is pure
/// waste the builders inherit from the naive "ship the whole factor set"
/// prologue.
///
/// The rewrite is timing-only: functional execution reads factors from
/// host memory, so numerics are untouched by construction. It is *not*
/// naturally idempotent (a second application would shrink the already
/// slimmed copy again), so it consults the plan's optimizer provenance
/// and refuses to run twice — the one pass that exercises the
/// provenance-guard half of the framework.
pub struct SlimFactors;

impl Pass for SlimFactors {
    fn name(&self) -> &'static str {
        "slim-factors"
    }

    fn contract(&self) -> Contract {
        Contract {
            trace: TraceEffect::Reschedules,
            commutes_with: &["dead-op-elim", "coalesce-h2d", "batch-h2d", "hoist-prefetch"],
        }
    }

    fn rewrite(&self, plan: &mut Plan) {
        if applied(plan, self.name()) {
            return;
        }
        let mode_bytes = (plan.rows * plan.rank * 4) as u64;
        let factors_bytes = plan.factors.byte_size() as u64;
        rewrite_programs(plan, self.name(), |_, _, ops| {
            if mode_bytes == 0 || mode_bytes >= factors_bytes {
                return;
            }
            for op in ops.iter_mut() {
                if let PlanOp::H2D { bytes, label, .. } = op {
                    if &**label == "factors H2D" && *bytes >= factors_bytes {
                        *bytes -= mode_bytes;
                    }
                }
            }
        })
    }
}
