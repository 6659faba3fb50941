//! Synthetic scaled-up presets, including tensors far past what host
//! memory can materialise.
//!
//! A ~1B-nnz COO tensor is ~16 GB of entries — generating it to prove
//! the streaming schedule works would be absurd. Instead a preset
//! describes the tensor analytically (dims, nnz, rank, skew) and builds
//! a **virtual** streaming plan: the identical op program a materialised
//! run would lower to, with each segment described by analytic
//! statistics ([`SegmentStats`]) instead of sliced entry data. Virtual
//! plans are dry-only; small presets can also
//! [`SyntheticPreset::materialize`] for functional differential checks.

use crate::stream::{assemble_plan, layout, StreamError};
use scalfrag_exec::{KernelChoice, Plan};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::{FactorSet, SegmentStats};
use scalfrag_tensor::segment::{segment_by_nnz, Segment};
use scalfrag_tensor::{gen, CooTensor, Idx};
use std::sync::Arc;

/// A synthetic third-order tensor described analytically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SyntheticPreset {
    /// Preset name (printed by the bench tool).
    pub name: &'static str,
    /// Mode sizes.
    pub dims: [Idx; 3],
    /// Non-zero count.
    pub nnz: u64,
    /// Factor rank.
    pub rank: usize,
    /// Zipf skew of the slice population (used when materialising).
    pub skew: f64,
    /// Generator seed.
    pub seed: u64,
}

/// Bytes per COO entry of a third-order tensor (three indices + value).
const ENTRY_BYTES: u64 = 3 * 4 + 4;

impl SyntheticPreset {
    /// The ~1B-nnz headline preset: ~16 GB of entries, far past any
    /// single materialisation, modest 16.8 MB output (2^18 rows).
    pub fn billion() -> Self {
        Self {
            name: "zipf-1b",
            dims: [1 << 18, 1 << 18, 1 << 18],
            nnz: 1_000_000_000,
            rank: 16,
            skew: 1.1,
            seed: 71,
        }
    }

    /// A scaled-down sibling of [`SyntheticPreset::billion`] that *can*
    /// materialise, for functional (oracle-checked) streaming runs.
    pub fn scaled() -> Self {
        Self {
            name: "zipf-200k",
            dims: [512, 384, 256],
            nnz: 200_000,
            rank: 16,
            skew: 1.1,
            seed: 71,
        }
    }

    /// COO bytes of the full entry list.
    pub fn tensor_bytes(&self) -> u64 {
        self.nnz * ENTRY_BYTES
    }

    /// Factor-matrix bytes at the preset rank.
    pub fn factors_bytes(&self) -> u64 {
        self.dims.iter().map(|&d| d as u64 * self.rank as u64 * 4).sum()
    }

    /// Output bytes for a mode-0 MTTKRP.
    pub fn out_bytes(&self) -> u64 {
        self.dims[0] as u64 * self.rank as u64 * 4
    }

    /// Total device footprint an in-core run would need: entries +
    /// factors + output.
    pub fn footprint_bytes(&self) -> u64 {
        self.tensor_bytes() + self.factors_bytes() + self.out_bytes()
    }

    /// Generates the preset's tensor (only sensible for small presets —
    /// the caller owns that judgement; ~16 bytes/nnz of host memory).
    pub fn materialize(&self) -> CooTensor {
        gen::zipf_slices(&self.dims, self.nnz as usize, self.skew, self.seed)
    }

    /// Fabricates the analytic per-segment statistics a mode-sorted
    /// Zipf-ish segment of `seg_nnz` entries would have: every entry of
    /// an output row lands in one segment (sorted order), and a segment
    /// cannot touch more distinct rows than it has entries.
    pub fn segment_stats(&self, seg_nnz: u64) -> SegmentStats {
        let mode_dim = self.dims[0] as u64;
        let nonempty = seg_nnz.min(mode_dim).max(1);
        SegmentStats {
            nnz: seg_nnz,
            order: 3,
            mode_dim,
            row_hotness: 1.0 / nonempty as f64,
            avg_nnz_per_slice: seg_nnz as f64 / nonempty as f64,
        }
    }

    /// Builds the **virtual** streaming plan for a mode-0 MTTKRP under
    /// `budget` bytes: the exact double-buffered op program of
    /// [`crate::build_streaming_plan`], with each segment carrying
    /// [`SyntheticPreset::segment_stats`] of its length. Dry-only — a
    /// functional run panics in the interpreter (there is no entry data
    /// to compute on).
    pub fn virtual_plan(&self, budget: u64) -> Result<Plan, StreamError> {
        let config = LaunchConfig::new(512, 256);
        let kernel = KernelChoice::Tiled;
        let persistent = self.factors_bytes() + self.out_bytes();
        let lay = layout(self.nnz, ENTRY_BYTES, budget, persistent)?;
        let segments: Vec<Segment> =
            if lay.k == 0 { Vec::new() } else { segment_by_nnz(self.nnz as usize, lay.k) };
        // The shard tensor carries dims only, so every unit's range lies
        // past its entries — which is what marks it virtual
        // (`Plan::is_virtual`). The factor matrices are real (dry mode
        // ignores them, but the plan type is uniform).
        let shard = Arc::new(CooTensor::new(&self.dims));
        let factors = Arc::new(FactorSet::random(&self.dims, self.rank, self.seed));
        Ok(assemble_plan(
            &DeviceSpec::rtx3090(),
            shard,
            factors,
            0,
            budget,
            segments,
            |seg| self.segment_stats(seg.nnz() as u64),
            config,
            kernel,
            &lay,
        ))
    }
}
