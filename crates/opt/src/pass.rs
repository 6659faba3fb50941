//! The pass framework: the [`Pass`] trait, its machine-checkable safety
//! [`Contract`] and pass [`Pipeline`]s.
//!
//! A pass rewrites, in place, the op programs the builders lowered
//! (`DeviceOps::program`), so passes compose by editing op vectors and a
//! pipeline of them copies the plan at most once. Every pass stamps its
//! name into `PlanMeta::optimizer`, so an IR dump always says which
//! rewrites produced the schedule — and the verifier (see
//! [`crate::verify`]) can hold each pass to its declared contract
//! mechanically.

use scalfrag_exec::{Plan, PlanOp};
use std::sync::Arc;

/// How a pass is allowed to change the fault-free execution trace.
///
/// The verifier enforces each level with a different check (span-multiset
/// equality, or no trace check at all).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEffect {
    /// The same set of spans at the same simulated times, but submission
    /// order (and hence the order-sensitive fingerprint) may differ.
    SameSpans,
    /// Spans may merge, vanish or move in time — the pass actually
    /// changes the schedule.
    Reschedules,
}

/// A pass's machine-checkable safety contract.
///
/// `crate::verify::check_pass` enforces `trace` — and, for every pass,
/// a bit-identical functional output — by replaying raw and optimized
/// plans through the interpreter; `crate::verify::check_commutation`
/// enforces `commutes_with` by program equality of both application
/// orders.
#[derive(Clone, Copy, Debug)]
pub struct Contract {
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
/// programs as `apply(p)`), must keep the functional output bit-for-bit
/// identical (no pass reorders kernel *submission*, and the interpreter
/// folds partials in submission order) and must uphold their
/// [`Contract`]; all three are enforced in-repo by
/// [`crate::verify::check_pass`].
pub trait Pass: Send + Sync {
    /// Stable pass name (used for provenance stamps and commutation
    /// declarations).
    fn name(&self) -> &'static str;

    /// The safety contract the verifier holds this pass to.
    fn contract(&self) -> Contract;

    /// Rewrites `plan` in place.
    fn rewrite(&self, plan: &mut Plan);

    /// Returns a rewritten copy of `plan`, leaving it untouched — one
    /// clone, then [`Pass::rewrite`].
    fn apply(&self, plan: &Plan) -> Plan {
        let mut p = plan.clone();
        self.rewrite(&mut p);
        p
    }
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

/// The shared pass skeleton: edit each device's op program in place
/// through `f(plan, device, ops)`, stamp provenance. No pass rebuilds a
/// program: each removes, inserts or edits ops in the vector it is given.
///
/// `f` sees the plan mid-rewrite: device `d`'s program is taken out
/// (handed over as `ops`) and earlier devices' programs are already
/// rewritten. A pass may read plan-level fields and `device`, but never
/// another device's program through `plan`.
pub(crate) fn rewrite_programs(
    plan: &mut Plan,
    name: &str,
    f: impl Fn(&Plan, &scalfrag_exec::DeviceOps, &mut Vec<PlanOp>),
) {
    for d in 0..plan.devices.len() {
        let mut ops = std::mem::take(&mut plan.devices[d].program);
        f(plan, &plan.devices[d], &mut ops);
        plan.devices[d].program = ops;
    }
    note_pass(plan, name);
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

    /// Runs every pass in order over `plan` in place.
    pub fn rewrite(&self, plan: &mut Plan) {
        // Room for every pass's provenance stamp, allocated once.
        plan.meta.optimizer.reserve(self.passes.iter().map(|p| p.name().len() + 1).sum());
        for pass in &self.passes {
            pass.rewrite(plan);
        }
    }

    /// Runs every pass in order over one copy of `plan` (the empty
    /// pipeline returns the copy as is).
    pub fn apply(&self, plan: &Plan) -> Plan {
        let mut p = plan.clone();
        self.rewrite(&mut p);
        p
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pipeline({}: {})", self.name, self.pass_list())
    }
}
