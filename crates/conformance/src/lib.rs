//! # scalfrag-conformance
//!
//! The conformance harness (DESIGN.md §10): one place that answers *"do
//! all the ways this repo computes MTTKRP agree, and would their writes be
//! legal on real hardware?"*
//!
//! Three pillars:
//!
//! * **Differential oracle** — [`oracle::oracle_mttkrp`] is the slow,
//!   obviously-correct `f64`-accumulating reference; [`gen`] produces a
//!   seeded corpus spanning hyperslice-skew, fiber-skew, degenerate and
//!   dense-ish regimes; [`differential::run_differential`] executes every
//!   registered backend ([`backends`]: the five kernel formats + F-COO,
//!   and the ParTI/ScalFrag/cluster/serve/faulted execution paths)
//!   against the oracle under a per-case ULP budget, yielding a
//!   [`differential::ConformanceReport`] with per-backend max-ULP and
//!   first-divergence coordinates.
//!   [`differential::run_differential_parallel`] fans the (case, mode)
//!   units out across the `scalfrag-host` pool and folds
//!   verdict fragments in submission order — same report, real cores.
//! * **Metamorphic suite** — [`metamorphic`] is a catalogue of reusable
//!   invariants the mathematics guarantees (mode permutation, nnz shuffle,
//!   power-of-two factor scaling, rank-column permutation, segment-count
//!   and device-count invariance), each applicable to any runner.
//! * **Race checking** — [`race`] drives the gpusim simulated-race checker
//!   over every kernel's write trace and gates CI on a self-test: the
//!   deliberately-racy mutant must be caught, the shipped kernels must be
//!   clean.

#![forbid(unsafe_code)]

pub mod backends;
pub mod differential;
pub mod gen;
pub mod golden;
pub mod metamorphic;
pub mod oracle;
pub mod race;
pub mod ulp;

pub use backends::{all_plan_builders, kernel_backends, path_backends, Backend};
pub use differential::{
    run_differential, run_differential_parallel, tolerance_for, BackendVerdict, ConformanceReport,
    Divergence,
};
pub use gen::{corpus, smoke_corpus, TensorCase};
pub use golden::{combined_plan_fingerprint, print_or_assert};
pub use metamorphic::Exactness;
pub use oracle::oracle_mttkrp;
pub use race::{check_all_kernels, self_test as race_self_test, RaceVerdict};
pub use ulp::{max_ulp, ulp_diff, UlpExtremum};
