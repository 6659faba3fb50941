//! Cross-stream H2D batching: absorb the first wave of staging copies
//! into the factor upload, paying one PCIe latency for the lot.

use crate::pass::{rewrite_programs, Contract, Pass, TraceEffect};
use scalfrag_exec::{Plan, PlanOp, StreamRef};

/// The aggressive sibling of `coalesce-h2d`: starting from the first
/// `H2D` (the factor upload — the *anchor*), the scan walks forward and
/// folds every copy that is not yet ordered behind compute into the
/// anchor, across stream boundaries:
///
/// * `H2D` on an unblocked stream — bytes fold into the anchor, op
///   removed;
/// * `Prefetch` on an unblocked stream — its copy folds into the anchor
///   and the op degenerates to the plain transient `Alloc` it wrapped;
/// * `Launch` — marks its stream *blocked* (later copies on that stream
///   feed iterations ordered behind compute; batching them would stall
///   the anchor);
/// * `Alloc`, host tasks, and barriers recording only on the anchor
///   stream are transparent;
/// * anything else — a free, an eviction (buffer reuse: the slot a later
///   copy fills may alias one not yet released), a D2H, a gating
///   barrier, a copy on a blocked stream — stops the scan.
///
/// If any copy crossed a stream boundary, one barrier
/// `record [anchor] / wait [absorbed streams]` is inserted after the
/// anchor so consumers on those streams still order after their data
/// lands. All copies shared the exclusive H2D engine anyway, so the
/// batched copy finishes no later than the last absorbed copy did —
/// every downstream op starts at an equal or earlier simulated time.
///
/// Not in the default pipeline: it trades first-iteration overlap for
/// latency, a win the cost-model orderer confirms per plan (large on the
/// out-of-core streamer, where it folds the first two segment prefetches
/// into the factor upload).
pub struct BatchH2d;

impl Pass for BatchH2d {
    fn name(&self) -> &'static str {
        "batch-h2d"
    }

    fn contract(&self) -> Contract {
        Contract { trace: TraceEffect::Reschedules, commutes_with: &["slim-factors"] }
    }

    fn rewrite(&self, plan: &mut Plan) {
        rewrite_programs(plan, self.name(), |_plan, _dev, ops| {
            let Some(i) = ops.iter().position(|o| matches!(o, PlanOp::H2D { .. })) else {
                return;
            };
            let anchor_stream = match &ops[i] {
                PlanOp::H2D { stream, .. } => *stream,
                _ => unreachable!("positioned on an H2D"),
            };
            let mut blocked: Vec<StreamRef> = Vec::new();
            let mut absorbed: Vec<StreamRef> = Vec::new();
            let mut extra = 0u64;
            let mut j = i + 1;
            while j < ops.len() {
                match &ops[j] {
                    PlanOp::Alloc { .. } | PlanOp::HostResidue { .. } => j += 1,
                    PlanOp::Barrier { record, .. }
                        if record.len() == 1 && record[0] == anchor_stream =>
                    {
                        j += 1
                    }
                    PlanOp::Launch { stream, .. } => {
                        if !blocked.contains(stream) {
                            blocked.push(*stream);
                        }
                        j += 1;
                    }
                    PlanOp::H2D { stream, .. } if !blocked.contains(stream) => {
                        let PlanOp::H2D { stream, bytes, .. } = ops.remove(j) else {
                            unreachable!("matched H2D above")
                        };
                        extra += bytes;
                        if stream != anchor_stream && !absorbed.contains(&stream) {
                            absorbed.push(stream);
                        }
                    }
                    PlanOp::Prefetch { stream, .. } if !blocked.contains(stream) => {
                        let PlanOp::Prefetch { stream, slot, bytes, what, .. } = ops.remove(j)
                        else {
                            unreachable!("matched Prefetch above")
                        };
                        extra += bytes;
                        if stream != anchor_stream && !absorbed.contains(&stream) {
                            absorbed.push(stream);
                        }
                        ops.insert(j, PlanOp::Alloc { slot, bytes, what, transient: true });
                        j += 1;
                    }
                    _ => break,
                }
            }
            if extra == 0 {
                return;
            }
            if let PlanOp::H2D { bytes, .. } = &mut ops[i] {
                *bytes += extra;
            }
            if !absorbed.is_empty() {
                ops.insert(i + 1, PlanOp::Barrier { record: vec![anchor_stream], wait: absorbed });
            }
        })
    }
}
