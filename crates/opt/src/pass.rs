//! The pass framework: the [`Pass`] trait, its machine-checkable safety
//! [`Contract`] and pass [`Pipeline`]s.
//!
//! A pass is a pure `Plan -> Plan` rewrite over the op programs the
//! builders lowered (`DeviceOps::program`), so passes compose by editing
//! op vectors. Every pass stamps its name into `PlanMeta::optimizer`, so
//! an IR dump always says which rewrites produced the schedule — and the
//! verifier (see [`crate::verify`]) can hold each pass to its declared
//! contract mechanically.

use scalfrag_exec::{Plan, PlanOp};
use std::sync::Arc;

/// How a pass is allowed to change the fault-free execution trace.
///
/// The lattice is ordered weakest-claim-last; the verifier enforces each
/// level with a different check (fingerprint equality, span-multiset
/// equality, or no trace check at all).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEffect {
    /// The dry-run trace fingerprint is unchanged: same spans, same
    /// submission order, same simulated times.
    Identical,
    /// The same set of spans at the same simulated times, but submission
    /// order (and hence the order-sensitive fingerprint) may differ.
    SameSpans,
    /// Spans may merge, vanish or move in time — the pass actually
    /// changes the schedule.
    Reschedules,
}

/// How a pass is allowed to change the functional (numeric) output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumericsEffect {
    /// The output matrix is bit-for-bit identical to the raw plan's.
    /// Every current pass claims this: none reorders kernel *submission*,
    /// and the interpreter folds partials in submission order.
    BitIdentical,
    /// The output may differ within the conformance ULP tolerance.
    UlpBounded,
}

/// A pass's machine-checkable safety contract.
///
/// `crate::verify::check_pass` enforces `trace` and `numerics` by
/// replaying raw and optimized plans through the interpreter;
/// `crate::verify::check_commutation` enforces `commutes_with` by
/// program equality of both application orders.
#[derive(Clone, Copy, Debug)]
pub struct Contract {
    /// Functional-output guarantee.
    pub numerics: NumericsEffect,
    /// Trace guarantee.
    pub trace: TraceEffect,
    /// Names of passes this one commutes with (program-identical result
    /// in either application order). The relation is kept symmetric by
    /// convention and checked pairwise in the pass-algebra tests.
    pub commutes_with: &'static [&'static str],
}

/// One plan-optimizer pass.
///
/// Implementations must be *idempotent* (`apply(apply(p))` has the same
/// programs as `apply(p)`) and must uphold their [`Contract`]; both
/// are enforced in-repo by [`crate::verify::check_pass`].
pub trait Pass: Send + Sync {
    /// Stable pass name (used for provenance stamps and commutation
    /// declarations).
    fn name(&self) -> &'static str;

    /// The safety contract the verifier holds this pass to.
    fn contract(&self) -> Contract;

    /// Rewrites `plan` and returns the optimized plan. Never mutates its
    /// input.
    fn apply(&self, plan: &Plan) -> Plan;
}

/// Whether `name` is already stamped in the plan's optimizer provenance.
pub fn applied(plan: &Plan, name: &str) -> bool {
    plan.meta.optimizer.split(',').any(|p| p == name)
}

/// Appends `name` to the plan's optimizer provenance (once).
pub(crate) fn note_pass(plan: &mut Plan, name: &str) {
    if applied(plan, name) {
        return;
    }
    if !plan.meta.optimizer.is_empty() {
        plan.meta.optimizer.push(',');
    }
    plan.meta.optimizer.push_str(name);
}

/// The shared pass skeleton: rewrite each device's op program through
/// `f(plan, device, ops)`, stamp provenance.
pub(crate) fn rewrite_programs(
    plan: &Plan,
    name: &str,
    f: impl Fn(&Plan, &scalfrag_exec::DeviceOps, Vec<PlanOp>) -> Vec<PlanOp>,
) -> Plan {
    let mut p = plan.clone();
    for d in 0..p.devices.len() {
        let ops = std::mem::take(&mut p.devices[d].program);
        p.devices[d].program = f(plan, &p.devices[d], ops);
    }
    note_pass(&mut p, name);
    p
}

/// An ordered pass sequence applied left to right.
#[derive(Clone)]
pub struct Pipeline {
    name: &'static str,
    passes: Vec<Arc<dyn Pass>>,
}

impl Pipeline {
    /// Builds a named pipeline from an ordered pass list (empty = the
    /// raw, pass-free pipeline).
    pub fn new(name: &'static str, passes: Vec<Arc<dyn Pass>>) -> Self {
        Self { name, passes }
    }

    /// Pipeline name (stable across runs; used in reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The ordered passes.
    pub fn passes(&self) -> &[Arc<dyn Pass>] {
        &self.passes
    }

    /// Comma-separated pass names, or `"raw"` for the empty pipeline.
    pub fn pass_list(&self) -> String {
        if self.passes.is_empty() {
            "raw".to_string()
        } else {
            self.passes.iter().map(|p| p.name()).collect::<Vec<_>>().join(",")
        }
    }

    /// Runs every pass in order (the empty pipeline returns a copy).
    pub fn apply(&self, plan: &Plan) -> Plan {
        self.passes.iter().fold(plan.clone(), |p, pass| pass.apply(&p))
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pipeline({}: {})", self.name, self.pass_list())
    }
}
