//! H2D transfer coalescing: merge adjacent same-stream host-to-device
//! copies of co-resident buffers into one larger copy.

use crate::pass::{rewrite_programs, Contract, Pass, TraceEffect};
use scalfrag_exec::{Plan, PlanOp};

/// Merges runs of same-stream `H2D` copies separated only by *transparent*
/// ops into a single copy, saving one PCIe latency per merged op.
///
/// An op is transparent to the scan when reordering the later copy across
/// it cannot change any observable time or dependency:
///
/// * `Alloc` — pure pool bookkeeping, no engine time. The later copy's
///   destination buffer is then charged *after* the (now earlier) bytes
///   land, but pool accounting is position-based and the peak can only
///   shrink.
/// * `Barrier`s that do not `wait` on the scanned stream — their events
///   record on *other* streams and are unaffected by the copy engine.
///
/// Anything else — a copy on a different stream, a launch, a free, an
/// eviction, a prefetch, a barrier gating this stream — ends the run:
/// merging across it could reorder a dependency or reuse a buffer early.
///
/// The merged copy keeps the *first* op's label and stream; bytes are
/// summed. Because copies of one stream share the exclusive H2D engine
/// and execute back-to-back anyway, merging only removes the per-copy
/// latency — data still arrives no later than before, and every event
/// recorded after the merged copy records at an equal-or-earlier time.
pub struct CoalesceH2d;

impl Pass for CoalesceH2d {
    fn name(&self) -> &'static str {
        "coalesce-h2d"
    }

    fn contract(&self) -> Contract {
        Contract { trace: TraceEffect::Reschedules, commutes_with: &["slim-factors"] }
    }

    fn rewrite(&self, plan: &mut Plan) {
        rewrite_programs(plan, self.name(), |_plan, _dev, ops| {
            let mut i = 0;
            while i < ops.len() {
                let s = match &ops[i] {
                    PlanOp::H2D { stream, .. } => *stream,
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let mut j = i + 1;
                while j < ops.len() {
                    match &ops[j] {
                        PlanOp::Alloc { .. } => j += 1,
                        PlanOp::Barrier { wait, .. } if !wait.contains(&s) => j += 1,
                        PlanOp::H2D { stream, .. } if *stream == s => {
                            let PlanOp::H2D { bytes, .. } = ops.remove(j) else {
                                unreachable!("matched H2D above")
                            };
                            if let PlanOp::H2D { bytes: total, .. } = &mut ops[i] {
                                *total += bytes;
                            }
                        }
                        _ => break,
                    }
                }
                i += 1;
            }
        })
    }
}
