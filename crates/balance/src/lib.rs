//! # scalfrag-balance
//!
//! The load-imbalance-immune MTTKRP kernel arms of the adaptive launcher.
//!
//! ScalFrag's slice/fiber-parallel kernels inherit the tensor's skew: on a
//! Zipf-distributed tensor one heavy slice serializes a whole block (and
//! concentrates the atomic traffic onto one output row). This crate adds
//! the two kernels that don't:
//!
//! * [`BalancedKernel`] (`balance-segscan`) — Nisa et al.'s load-balanced
//!   strategy: the mode-sorted non-zeros are cut into fixed-size chunks of
//!   [`CHUNK_LEN`] entries *regardless of slice or fiber boundaries*
//!   ([`ChunkedTensor`]), every chunk folds its interior rows locally, and
//!   rows cut by chunk boundaries are resolved by a carry chain that walks
//!   each cut row's entries in storage order. Every output row is thus one
//!   strict left-to-right fold over its entries in mode-sorted order — the
//!   same fold for *any* chunk count, so results are bit-stable across
//!   chunk counts (asserted in this crate's tests).
//! * [`FlycooKernel`] (`balance-flycoo`) — a FLYCOO-style mode-agnostic
//!   kernel: one copy of the entries plus per-mode remap tables
//!   ([`FlycooTensor`]) serve *every* MTTKRP mode of a CPD-ALS sweep with
//!   no re-sorting or re-tiling between modes, at the cost of one extra
//!   index gather per entry.
//!
//! Both kernels flush with `atomic_hotness = 0`: their write traffic is
//! spread across chunk-exclusive rows and per-chunk carry cells, so the
//! cost model's contention penalty — the term that scales with the
//! Herfindahl index of the row distribution and makes the COO/tiled arms
//! collapse on skew — simply does not apply. That is the modelled speedup
//! the `balance_bench` gate measures.
//!
//! [`KernelChoice`] names one of the four arms (these two, the ParTI COO
//! kernel and the tiled kernel). The autotuner prices an arm with
//! [`KernelChoice::duration`] and the interpreter launches it with
//! [`KernelChoice::enqueue`], at the same price. It lives here because this
//! crate already depends on every kernel it dispatches to.

#![forbid(unsafe_code)]

pub mod choice;
pub mod flycoo_kernel;
pub mod segscan;

pub use choice::KernelChoice;
pub use flycoo_kernel::FlycooKernel;
pub use segscan::BalancedKernel;

/// Entries per chunk of the load-balanced kernel. 256 matches the
/// BCSF heavy-chunk granularity: big enough that carry traffic is ≪ 1 %
/// of the entry traffic, small enough that even a single heavy slice
/// spreads over many workers.
pub const CHUNK_LEN: usize = 256;

/// Entries per partition of the FLYCOO kernel's remap walk (the same
/// granularity the F-COO differential backend uses).
pub const FLYCOO_SEG_LEN: usize = 128;
