//! Plan-optimizer safety over every registered builder (DESIGN.md §14).
//!
//! Three layers of proof that the passes cannot corrupt a schedule, and
//! one that each pass is worth keeping:
//!
//! 1. **Contracts, mechanically** — every pass × every registered
//!    builder through [`scalfrag::opt::check_pass`]: idempotence, the
//!    declared trace effect, dry-run leak-cleanliness and functional
//!    bit-identity.
//! 2. **Pass algebra** — every declared commutation, checked in both
//!    orders on every builder's plan; the declaration table itself must
//!    be symmetric.
//! 3. **The oracle** — all ten builders, run through the full default
//!    pipeline, must stay ULP-clean against the `f64` differential
//!    oracle over the seeded corpus; every candidate pipeline must keep
//!    the output *bit-identical* to the raw plan (the passes only move
//!    copies and bookkeeping, never kernel submission order).
//! 4. **The ablation** — every pass rewrites the program of at least one
//!    registered builder's plan over the smoke corpus.

use scalfrag::conformance::{all_plan_builders, run_differential, smoke_corpus, Backend};
use scalfrag::exec::{run_plan, ExecMode};
use scalfrag::opt::{
    all_passes, candidate_pipelines, check_commutation, check_pass, lowered_programs,
    optimize_default,
};
use scalfrag::prelude::*;
use scalfrag::tensor::gen;

fn fixture() -> (CooTensor, FactorSet) {
    let dims = [80u32, 56, 40];
    let tensor = gen::zipf_slices(&dims, 6_000, 1.1, 61);
    let factors = FactorSet::random(&dims, 8, 62);
    (tensor, factors)
}

#[test]
fn every_pass_upholds_its_contract_on_every_registered_builder() {
    let (tensor, factors) = fixture();
    for builder in all_plan_builders() {
        let plan = (builder.build)(&tensor, &factors, 0);
        for pass in all_passes() {
            if let Err(violation) = check_pass(pass.as_ref(), &plan) {
                panic!("{} on {}: {violation}", pass.name(), builder.name);
            }
        }
    }
}

#[test]
fn declared_commutations_are_symmetric_and_hold_on_every_builder() {
    let passes = all_passes();
    let by_name = |name: &str| {
        passes
            .iter()
            .find(|p| p.name() == name)
            .unwrap_or_else(|| panic!("commutation declares unknown pass `{name}`"))
    };
    // The declaration table must be symmetric: commutation is.
    let mut pairs = Vec::new();
    for a in &passes {
        for &b_name in a.contract().commutes_with {
            let b = by_name(b_name);
            assert!(
                b.contract().commutes_with.contains(&a.name()),
                "{} declares commutation with {} but not vice versa",
                a.name(),
                b_name
            );
            if a.name() < b_name {
                pairs.push((a.clone(), b.clone()));
            }
        }
    }
    let mut names: Vec<(&str, &str)> = pairs.iter().map(|(a, b)| (a.name(), b.name())).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            ("batch-h2d", "slim-factors"),
            ("coalesce-h2d", "slim-factors"),
            ("dead-op-elim", "slim-factors"),
            ("hoist-prefetch", "slim-factors"),
        ],
        "the declared commutation algebra"
    );
    let (tensor, factors) = fixture();
    for builder in all_plan_builders() {
        let plan = (builder.build)(&tensor, &factors, 0);
        for (a, b) in &pairs {
            if let Err(violation) = check_commutation(a.as_ref(), b.as_ref(), &plan) {
                panic!("on {}: {violation}", builder.name);
            }
            if let Err(violation) = check_commutation(b.as_ref(), a.as_ref(), &plan) {
                panic!("on {} (reversed): {violation}", builder.name);
            }
        }
    }
}

/// The tentpole acceptance gate: all ten registered builders, through
/// the full default pipeline, ULP-clean against the differential oracle.
#[test]
fn optimized_builders_stay_ulp_clean_against_the_oracle() {
    let backends: Vec<Backend> = all_plan_builders()
        .into_iter()
        .map(|builder| {
            let name: &'static str = Box::leak(format!("opt:{}", builder.name).into_boxed_str());
            Backend {
                name,
                run: Box::new(move |t, f, mode| {
                    let plan = optimize_default(&(builder.build)(t, f, mode));
                    assert!(
                        !plan.meta.optimizer.is_empty(),
                        "{name}: optimized plans carry provenance"
                    );
                    run_plan(&plan, ExecMode::Functional).output
                }),
            }
        })
        .collect();
    assert_eq!(backends.len(), 10, "ten registered builders expected");
    let cases: Vec<_> = smoke_corpus(17).into_iter().filter(|c| c.tensor.nnz() > 0).collect();
    assert!(cases.len() >= 3);
    let report = run_differential(&backends, &cases, 17);
    assert!(report.all_pass(), "optimized plans left ULP tolerance:\n{}", report.table());
}

/// Stronger than ULP-clean: every candidate pipeline (default and batch,
/// both pure copy/bookkeeping moves) keeps the output bit-identical to
/// the raw plan over the seeded corpus.
#[test]
fn every_candidate_pipeline_is_bit_identical_over_the_corpus() {
    let cases: Vec<_> =
        smoke_corpus(23).into_iter().filter(|c| c.tensor.nnz() > 0).take(3).collect();
    for builder in all_plan_builders() {
        for (ci, case) in cases.iter().enumerate() {
            let factors = FactorSet::random(case.tensor.dims(), case.rank, 91 + ci as u64);
            let plan = (builder.build)(&case.tensor, &factors, 0);
            let raw: Vec<u32> = run_plan(&plan, ExecMode::Functional)
                .output
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            for pipeline in candidate_pipelines() {
                let optimized = pipeline.apply(&plan);
                let got: Vec<u32> = run_plan(&optimized, ExecMode::Functional)
                    .output
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(
                    raw,
                    got,
                    "{} × pipeline `{}` on {}: output bits moved",
                    builder.name,
                    pipeline.name(),
                    case.name
                );
            }
        }
    }
}

/// The default pipeline strictly shrinks the pipelined builder's op
/// budget (the `opt --smoke` CI gate asserts the same on the bench
/// tensor) and never grows any builder's.
#[test]
fn default_pipeline_reduces_op_count_and_never_grows_it() {
    let (tensor, factors) = fixture();
    for builder in all_plan_builders() {
        let plan = (builder.build)(&tensor, &factors, 0);
        let optimized = optimize_default(&plan);
        assert!(
            optimized.total_ops() <= plan.total_ops(),
            "{}: the default pipeline only removes or merges ops",
            builder.name
        );
        if builder.name == "scalfrag-pipelined" || builder.name == "scalfrag-sync" {
            assert!(
                optimized.total_ops() < plan.total_ops(),
                "{}: coalescing must fire here",
                builder.name
            );
        }
    }
}

/// Every registered pass earns its place: over the smoke corpus at every
/// mode, each pass rewrites the program of at least one registered
/// builder's plan. The empty tensor stays in — `dead-op-elim` fires only
/// on its plans.
#[test]
fn every_pass_rewrites_some_registered_plan() {
    let builders = all_plan_builders();
    let mut plans = Vec::new();
    for (ci, case) in smoke_corpus(17).into_iter().enumerate() {
        let factors = FactorSet::random(case.tensor.dims(), case.rank, 91 + ci as u64);
        for mode in 0..case.tensor.order() {
            plans.extend(builders.iter().map(|b| (b.build)(&case.tensor, &factors, mode)));
        }
    }
    for pass in all_passes() {
        let rewritten =
            plans.iter().any(|p| lowered_programs(&pass.apply(p)) != lowered_programs(p));
        assert!(rewritten, "{} rewrites none of {} registered plans", pass.name(), plans.len());
    }
}
