//! Dead-op elimination: drop zero-byte copies, launches of empty
//! segments, and degenerate barrier edges.

use crate::pass::{rewrite_programs, Contract, Pass, TraceEffect};
use scalfrag_exec::{Plan, PlanOp};

/// Removes ops the interpreter would execute as no-ops:
///
/// * `H2D` / `D2H` copies of zero bytes (degenerate/empty segments) —
///   they still cost a full PCIe latency in the copy engine;
/// * `Launch`es of real (non-virtual) units whose segment has no
///   nonzeros — the kernel body is a no-op but the launch overhead and
///   SM occupancy are not;
/// * barrier self-edges (`record == [s]` waiting on `s` itself — stream
///   FIFO order already guarantees it) and barriers left with an empty
///   `record` or `wait` side.
///
/// Allocations, frees, evictions and prefetches are kept even when tiny:
/// they are pool bookkeeping the leak check and memory accounting see.
pub struct DeadOpElim;

impl Pass for DeadOpElim {
    fn name(&self) -> &'static str {
        "dead-op-elim"
    }

    fn contract(&self) -> Contract {
        Contract { trace: TraceEffect::Reschedules, commutes_with: &["slim-factors"] }
    }

    fn rewrite(&self, plan: &mut Plan) {
        rewrite_programs(plan, self.name(), |plan, dev, ops| {
            ops.into_iter()
                .filter_map(|op| match op {
                    PlanOp::H2D { bytes: 0, .. } | PlanOp::D2H { bytes: 0, .. } => None,
                    PlanOp::Launch { unit, .. }
                        if dev.units[unit].seg.nnz() == 0 && !plan.is_virtual(&dev.units[unit]) =>
                    {
                        None
                    }
                    PlanOp::Barrier { record, wait } => {
                        let wait: Vec<_> = wait
                            .into_iter()
                            .filter(|w| !(record.len() == 1 && record[0] == *w))
                            .collect();
                        if record.is_empty() || wait.is_empty() {
                            None
                        } else {
                            Some(PlanOp::Barrier { record, wait })
                        }
                    }
                    op => Some(op),
                })
                .collect()
        })
    }
}
