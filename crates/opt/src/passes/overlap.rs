//! Stream re-assignment: spread a single-stream segment chain over
//! multiple worker streams so copies overlap compute.

use crate::pass::{note_pass, Contract, NumericsEffect, Pass, TraceEffect};
use scalfrag_exec::{DeviceOps, Plan, PlanOp, StreamRef};

/// Widest stream fan-out the pass introduces (the repo's pipelined
/// builders use four streams for the same reason: beyond copy/compute
/// double-buffering the returns vanish).
const MAX_STREAMS: usize = 4;

/// Rewrites devices whose entire program runs on one worker stream —
/// `N ≥ 2` segment `(Alloc, H2D, Launch)` groups in a serial chain —
/// onto `min(N, 4)` round-robin streams, so segment `i+1`'s copy
/// overlaps segment `i`'s kernel exactly as the ScalFrag pipelined
/// schedule does. The DAG is respected by construction:
///
/// * a factors barrier (`record [w0] / wait [new streams]`) is inserted
///   after the factor upload, so re-homed kernels still order after it;
/// * a join barrier (`record [all streams] / wait [w0]`) is inserted
///   before the final D2H, so the readback still orders after every
///   kernel;
/// * mid-chain `Free`s are dropped (the buffer-reuse chain is what
///   serialized the streams) and re-issued at the program end — legal
///   only when all segment buffers fit device memory at once, which the
///   pass checks against the device spec before touching anything.
///
/// Kernel *submission* order is unchanged and the SM engine is
/// exclusive, so kernels still execute back-to-back in segment order —
/// the output stays bit-identical; only the copies move. Devices with
/// barriers, evictions, prefetches, multi-stream placement or off-stream
/// copies are left untouched (the pass is a no-op on every registered
/// builder's plan — it exists for externally built or degraded
/// single-stream schedules, and the orderer prices it like any other).
pub struct OverlapStreams;

/// Returns the rewritten `(program, worker_streams)` for `dev`, or
/// `None` when the device does not match the single-stream chain shape.
fn overlap_device(dev: &DeviceOps) -> Option<(Vec<PlanOp>, usize)> {
    if dev.worker_streams != 1 {
        return None;
    }
    let ops = &dev.program;
    // Shape gate: worker-stream traffic only, all of it on stream 0, no
    // memory-pressure ops, and readback strictly after the last launch.
    let mut launches = 0usize;
    let mut last_launch = 0usize;
    let mut first_h2d: Option<usize> = None;
    for (idx, op) in ops.iter().enumerate() {
        match op {
            PlanOp::Barrier { .. } | PlanOp::Evict { .. } | PlanOp::Prefetch { .. } => return None,
            PlanOp::Launch { stream, .. } => {
                if *stream != StreamRef::Worker(0) {
                    return None;
                }
                launches += 1;
                last_launch = idx;
            }
            PlanOp::H2D { stream, .. } | PlanOp::D2H { stream, .. } => {
                if *stream != StreamRef::Worker(0) {
                    return None;
                }
                if matches!(op, PlanOp::H2D { .. }) && first_h2d.is_none() {
                    first_h2d = Some(idx);
                }
            }
            _ => {}
        }
    }
    let target = launches.min(MAX_STREAMS);
    if target < 2 {
        return None;
    }
    let factors_at = first_h2d?;
    if !matches!(&ops[factors_at], PlanOp::H2D { label, .. } if label == "factors H2D") {
        return None;
    }
    for (idx, op) in ops.iter().enumerate() {
        if idx > last_launch {
            if !matches!(op, PlanOp::D2H { .. } | PlanOp::Free { .. }) {
                return None;
            }
        } else if matches!(op, PlanOp::D2H { .. }) {
            return None;
        }
    }
    // Dropping mid-chain frees keeps every allocation live at once.
    let total_bytes: u64 = ops
        .iter()
        .map(|op| match op {
            PlanOp::Alloc { bytes, .. } => *bytes,
            _ => 0,
        })
        .sum();
    if total_bytes > dev.spec.global_mem_bytes {
        return None;
    }

    let mut out = Vec::with_capacity(ops.len() + 2);
    let mut transient_slots = Vec::new();
    let mut ordinal = 0usize; // launches seen so far = this op's segment group
    for (idx, op) in ops.iter().enumerate() {
        let mut op = op.clone();
        if let PlanOp::Alloc { slot, transient: true, .. } = &op {
            transient_slots.push(*slot);
        }
        match &mut op {
            PlanOp::Free { .. } => continue,
            PlanOp::H2D { stream, .. } if idx > factors_at && ordinal < launches => {
                *stream = StreamRef::Worker(ordinal % target);
            }
            PlanOp::Launch { stream, .. } => {
                *stream = StreamRef::Worker(ordinal % target);
                ordinal += 1;
            }
            PlanOp::D2H { .. } => {
                out.push(PlanOp::Barrier {
                    record: (0..target).map(StreamRef::Worker).collect(),
                    wait: vec![StreamRef::Worker(0)],
                });
            }
            _ => {}
        }
        out.push(op);
        if idx == factors_at {
            out.push(PlanOp::Barrier {
                record: vec![StreamRef::Worker(0)],
                wait: (1..target).map(StreamRef::Worker).collect(),
            });
        }
    }
    for slot in transient_slots {
        out.push(PlanOp::Free { slot });
    }
    Some((out, target))
}

impl Pass for OverlapStreams {
    fn name(&self) -> &'static str {
        "overlap-streams"
    }

    fn contract(&self) -> Contract {
        Contract {
            numerics: NumericsEffect::BitIdentical,
            trace: TraceEffect::Reschedules,
            commutes_with: &[],
        }
    }

    fn apply(&self, plan: &Plan) -> Plan {
        let mut p = plan.clone();
        for d in 0..p.devices.len() {
            if let Some((ops, streams)) = overlap_device(&p.devices[d]) {
                p.devices[d].program = ops;
                p.devices[d].worker_streams = streams;
            }
        }
        note_pass(&mut p, self.name());
        p
    }
}
