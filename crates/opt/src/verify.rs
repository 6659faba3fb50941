//! The contract verifier: machine-checks a pass against its declared
//! [`Contract`](crate::pass::Contract) by replaying raw and optimized
//! plans through the interpreter.
//!
//! Three obligations are enforced here; the fourth (ULP-cleanliness of
//! the full default pipeline against the differential oracle) lives in
//! the repo-level conformance tests, which run every registered builder
//! through `run_differential` with optimized backends.

use crate::pass::{NumericsEffect, Pass, TraceEffect};
use scalfrag_exec::{run_plan, ExecMode, Plan, PlanOp, PlanTrace};

/// A broken pass obligation, named precisely enough to debug from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Applying the pass twice lowered to a different program than once.
    NotIdempotent {
        /// Offending pass.
        pass: String,
    },
    /// The contract claimed [`TraceEffect::Identical`] but the dry-run
    /// trace fingerprint moved.
    TraceChanged {
        /// Offending pass.
        pass: String,
    },
    /// The contract claimed [`TraceEffect::SameSpans`] but the span
    /// multiset moved.
    SpanSetChanged {
        /// Offending pass.
        pass: String,
    },
    /// The contract claimed [`NumericsEffect::BitIdentical`] but the
    /// functional output bits moved.
    OutputChanged {
        /// Offending pass.
        pass: String,
    },
    /// A declared commutation failed: the two application orders lowered
    /// to different programs.
    NotCommuting {
        /// First pass of the pair.
        a: String,
        /// Second pass of the pair.
        b: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NotIdempotent { pass } => write!(f, "{pass}: not idempotent"),
            Violation::TraceChanged { pass } => {
                write!(f, "{pass}: claims an identical trace but the fingerprint moved")
            }
            Violation::SpanSetChanged { pass } => {
                write!(f, "{pass}: claims the same spans but the span multiset moved")
            }
            Violation::OutputChanged { pass } => {
                write!(f, "{pass}: claims bit-identical output but the bits moved")
            }
            Violation::NotCommuting { a, b } => {
                write!(f, "{a} and {b} declare commutation but orders disagree")
            }
        }
    }
}

/// The op programs of every device — the form two plans are compared
/// in.
pub fn lowered_programs(plan: &Plan) -> Vec<Vec<PlanOp>> {
    plan.devices.iter().map(|d| d.program.clone()).collect()
}

/// A trace as an order-insensitive span multiset (sorted tuples of
/// device, stream, kind+label, bit-exact start/end).
fn span_multiset(trace: &PlanTrace) -> Vec<(usize, u32, String, u64, u64)> {
    let mut v: Vec<_> = trace
        .events
        .iter()
        .map(|e| {
            (
                e.device,
                e.stream,
                format!("{:?} {}", e.kind, e.label),
                e.start.to_bits(),
                e.end.to_bits(),
            )
        })
        .collect();
    v.sort();
    v
}

/// Whether the plan can run functionally (virtual-workload units are
/// dry-only).
fn functional_capable(plan: &Plan) -> bool {
    plan.devices.iter().all(|d| d.units.iter().all(|u| u.workload.is_none()))
}

/// Checks one pass against one plan:
///
/// 1. **Idempotence** — `apply ∘ apply` has the same programs as
///    `apply`;
/// 2. **Trace contract** — dry-runs raw vs optimized (which also runs
///    the interpreter's transient-leak check over the rewritten
///    program) and enforces the declared [`TraceEffect`];
/// 3. **Numerics contract** — functional runs raw vs optimized and
///    enforces bit-equality when the pass claims
///    [`NumericsEffect::BitIdentical`] (skipped for dry-only plans).
pub fn check_pass(pass: &dyn Pass, plan: &Plan) -> Result<(), Violation> {
    let name = || pass.name().to_string();
    let once = pass.apply(plan);
    let twice = pass.apply(&once);
    if lowered_programs(&once) != lowered_programs(&twice) {
        return Err(Violation::NotIdempotent { pass: name() });
    }
    let raw_dry = run_plan(plan, ExecMode::Dry);
    let opt_dry = run_plan(&once, ExecMode::Dry);
    match pass.contract().trace {
        TraceEffect::Identical => {
            if raw_dry.trace.fingerprint() != opt_dry.trace.fingerprint() {
                return Err(Violation::TraceChanged { pass: name() });
            }
        }
        TraceEffect::SameSpans => {
            if span_multiset(&raw_dry.trace) != span_multiset(&opt_dry.trace) {
                return Err(Violation::SpanSetChanged { pass: name() });
            }
        }
        TraceEffect::Reschedules => {}
    }
    if matches!(pass.contract().numerics, NumericsEffect::BitIdentical) && functional_capable(plan)
    {
        let raw_f = run_plan(plan, ExecMode::Functional);
        let opt_f = run_plan(&once, ExecMode::Functional);
        let raw_bits = raw_f.output.as_slice().iter().map(|v| v.to_bits());
        let opt_bits = opt_f.output.as_slice().iter().map(|v| v.to_bits());
        if !raw_bits.eq(opt_bits) {
            return Err(Violation::OutputChanged { pass: name() });
        }
    }
    Ok(())
}

/// Checks a declared commutation on one plan: `b(a(p))` and `a(b(p))`
/// must have identical programs. (Programs, not renders — the
/// provenance stamp legitimately records the two orders differently.)
pub fn check_commutation(a: &dyn Pass, b: &dyn Pass, plan: &Plan) -> Result<(), Violation> {
    let ab = b.apply(&a.apply(plan));
    let ba = a.apply(&b.apply(plan));
    if lowered_programs(&ab) != lowered_programs(&ba) {
        return Err(Violation::NotCommuting { a: a.name().to_string(), b: b.name().to_string() });
    }
    Ok(())
}
