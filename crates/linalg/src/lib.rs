//! # scalfrag-linalg
//!
//! Small dense linear algebra support for the ScalFrag reproduction.
//!
//! CPD-ALS (Algorithm 1 of the paper) needs, besides the sparse MTTKRP
//! itself, a handful of *dense* operations on the factor matrices:
//!
//! * Gram matrices `Aᵀ·A` (line 3 of Algorithm 1),
//! * Hadamard products of those Gram matrices,
//! * the Moore-Penrose pseudo-inverse of the resulting `F×F` symmetric
//!   positive semi-definite matrix (line 5),
//! * the Khatri-Rao product (for validating MTTKRP on small tensors and for
//!   reconstructing a tensor from its factors when computing the CPD fit).
//!
//! All matrices here are row-major [`Mat`] with `f32` entries — the rank `F`
//! is small (8–64 in the paper's experiments) so no BLAS is needed; the
//! implementations favour clarity and are unit/property tested instead.

#![forbid(unsafe_code)]

pub mod eig;
pub mod mat;
pub mod ops;
pub mod pinv;

pub use eig::{jacobi_eigen, JacobiOptions};
pub use mat::Mat;
pub use ops::{gram, hadamard_assign, khatri_rao, khatri_rao_chain, matmul, matmul_transb};
pub use pinv::pinv_spd;

/// Tolerance used across the crate when deciding whether an eigenvalue is
/// numerically zero relative to the largest one.
pub const EIG_EPS: f32 = 1e-6;
