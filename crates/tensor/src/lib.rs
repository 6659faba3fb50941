//! # scalfrag-tensor
//!
//! Sparse tensor substrate for the ScalFrag reproduction: data formats,
//! synthetic dataset generators, feature extraction, segmentation and I/O.
//!
//! The paper (§II-D) works with the two classic sparse-tensor format
//! families. This crate implements representatives of both plus everything
//! the rest of the system needs:
//!
//! * [`CooTensor`] — the coordinate format, the paper's working format for
//!   the GPU kernels and the pipeline segmentation (§IV-C).
//! * [`CsfTensor`] — compressed sparse fiber (Smith & Karypis), the
//!   tree-based family representative.
//! * [`HiCooTensor`] — a HiCOO-lite block-compressed format (Li et al.).
//! * [`ChunkedTensor`] — fixed-nnz chunks with boundary-row carry metadata
//!   (Nisa et al.'s load-balanced layout) and [`FlycooTensor`] — one
//!   tensor copy plus per-mode remap tables (FLYCOO), the formats behind
//!   the `scalfrag-balance` kernel arms.
//! * [`gen`] — synthetic tensor generators (uniform, Zipf-skewed slices,
//!   block-clustered) and [`frostt`] — presets mirroring the ten FROSTT
//!   datasets of Table III (order, mode-size ratios, density, skew),
//!   scaled so the full evaluation runs on a laptop.
//! * [`TensorFeatures`] — the feature parameters of §IV-B
//!   (`numSlices`, `numFibers`, `sliceRatio`, `fiberRatio`,
//!   `maxNnzPerSlice`, …) feeding the adaptive launching model.
//! * [`segment`] — nnz-balanced segmentation of a COO tensor for the
//!   pipelined parallelism of §IV-C.
//! * [`io`] — FROSTT `.tns` text format reader/writer so real datasets can
//!   be dropped in.

#![forbid(unsafe_code)]

mod bucket;
pub mod chunked;
pub mod coo;
pub mod csf;
pub mod fcoo;
pub mod features;
pub mod flycoo;
pub mod frostt;
pub mod gen;
pub mod hicoo;
pub mod io;
pub mod matricize;
pub mod permute;
pub mod reorder;
pub mod segment;

pub use chunked::{BoundaryRow, ChunkedTensor};
pub use coo::CooTensor;
pub use csf::CsfTensor;
pub use fcoo::FCooTensor;
pub use features::{FeatureKey, TensorFeatures};
pub use flycoo::FlycooTensor;
pub use frostt::DatasetPreset;
pub use hicoo::HiCooTensor;
pub use permute::ModePermutation;
pub use segment::{segment_by_nnz, Segment};

/// Index type for tensor coordinates. Mode sizes in the FROSTT datasets
/// reach 28 M (`flickr`), comfortably inside `u32`, and halving the index
/// width halves both host-device traffic and cache pressure — the same
/// reason ParTI and SPLATT default to 32-bit indices.
pub type Idx = u32;

/// Value type for tensor entries and factor matrices (the paper's kernels
/// are single precision).
pub type Val = f32;
