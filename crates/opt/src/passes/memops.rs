//! Memory-op scheduling for out-of-core plans: sink clean evictions
//! late, hoist prefetches early.

use crate::pass::{rewrite_programs, Contract, NumericsEffect, Pass, TraceEffect};
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

/// Sinks *clean* evictions (`writeback_bytes == 0` — no D2H span, the
/// slot's pool page is simply released) as late as the program allows:
/// rightward past launches, copies, host tasks, barriers and frees,
/// stopping at the next allocation-like op (`Alloc`, `Prefetch`, another
/// `Evict`) or the program end.
///
/// A clean evict is pure pool bookkeeping, so delaying it never changes
/// a single span — the contract is full trace *identity*. What it buys
/// is canonical form: every evict sits immediately before the
/// allocation that needed its page, which is what lets `hoist-prefetch`
/// and the cross-stream batcher see their real scheduling windows.
/// Evictions with a write-back are left alone — their D2H span is
/// ordered work.
pub struct SinkEvictions;

impl Pass for SinkEvictions {
    fn name(&self) -> &'static str {
        "sink-evictions"
    }

    fn contract(&self) -> Contract {
        Contract {
            numerics: NumericsEffect::BitIdentical,
            trace: TraceEffect::Identical,
            commutes_with: &["dead-op-elim", "slim-factors"],
        }
    }

    fn rewrite(&self, plan: &mut Plan) {
        rewrite_programs(plan, self.name(), |_plan, _dev, mut ops| {
            // Right to left, so a chain of evicts settles in one sweep
            // (each stops at the next allocation-like op or a later
            // evict already in place).
            for i in (0..ops.len()).rev() {
                if !matches!(&ops[i], PlanOp::Evict { writeback_bytes: 0, .. }) {
                    continue;
                }
                let mut k = i;
                while k + 1 < ops.len()
                    && matches!(
                        &ops[k + 1],
                        PlanOp::Launch { .. }
                            | PlanOp::H2D { .. }
                            | PlanOp::D2H { .. }
                            | PlanOp::HostResidue { .. }
                            | PlanOp::Barrier { .. }
                            | PlanOp::Free { .. }
                    )
                {
                    ops.swap(k, k + 1);
                    k += 1;
                }
            }
            ops
        })
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
        Contract {
            numerics: NumericsEffect::BitIdentical,
            trace: TraceEffect::SameSpans,
            commutes_with: &["slim-factors"],
        }
    }

    fn rewrite(&self, plan: &mut Plan) {
        rewrite_programs(plan, self.name(), |_plan, _dev, mut ops| {
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
            ops
        })
    }
}
