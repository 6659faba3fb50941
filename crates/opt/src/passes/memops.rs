//! Memory-op scheduling for out-of-core plans: hoist prefetches early.

use crate::pass::{rewrite_programs, Contract, Pass, TraceEffect};
use scalfrag_exec::{Plan, PlanOp, StreamRef};

fn stream_of(op: &PlanOp) -> Option<StreamRef> {
    match op {
        PlanOp::Evict { stream, .. }
        | PlanOp::Prefetch { stream, .. }
        | PlanOp::H2D { stream, .. }
        | PlanOp::Launch { stream, .. }
        | PlanOp::HostResidue { stream, .. }
        | PlanOp::D2H { stream, .. } => Some(*stream),
        _ => None,
    }
}

/// Hoists `Prefetch` ops as early as the program allows: leftward past
/// launches, D2H copies and host tasks *on other streams* — those run on
/// different engines (SM, D2H, host) and different stream queues, so the
/// prefetch's H2D copy and pool charge are unaffected by the swap, and
/// the crossed ops never waited on it.
///
/// The scan stops at anything that could order against the prefetch:
/// same-stream ops (stream FIFO), barriers (event edges), other memory
/// ops (`Alloc`/`Free`/`Evict`/`H2D`/`Prefetch` — pool position matters),
/// or the program start. Simulated times are provably unchanged, but the
/// *submission* order of spans shifts, so the contract is span-multiset
/// equality rather than fingerprint identity.
pub struct HoistPrefetch;

impl Pass for HoistPrefetch {
    fn name(&self) -> &'static str {
        "hoist-prefetch"
    }

    fn contract(&self) -> Contract {
        Contract { trace: TraceEffect::SameSpans, commutes_with: &["slim-factors"] }
    }

    fn rewrite(&self, plan: &mut Plan) {
        rewrite_programs(plan, self.name(), |_plan, _dev, ops| {
            for i in 1..ops.len() {
                let my_stream = match &ops[i] {
                    PlanOp::Prefetch { stream, .. } => *stream,
                    _ => continue,
                };
                let mut k = i;
                while k > 0 {
                    let crossable = matches!(
                        &ops[k - 1],
                        PlanOp::Launch { .. } | PlanOp::D2H { .. } | PlanOp::HostResidue { .. }
                    ) && stream_of(&ops[k - 1]) != Some(my_stream);
                    if !crossable {
                        break;
                    }
                    ops.swap(k - 1, k);
                    k -= 1;
                }
            }
        })
    }
}
