//! The streaming plan builder: two-slot double-buffered segment staging
//! under a byte budget, lowered as an explicit ScheduleIR op program.

use scalfrag_exec::{
    op_label, DeviceOps, KernelChoice, Plan, PlanMeta, PlanOp, Reduce, ShardDesc, ShardWork,
    StreamRef, WorkUnit,
};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::{FactorSet, SegmentStats};
use scalfrag_tensor::segment::{segment_by_nnz, Segment};
use scalfrag_tensor::CooTensor;
use std::sync::Arc;

/// Upper bound on the segment count a budget may induce: past this the
/// per-segment launch overhead dominates and the schedule degenerates
/// into a transfer benchmark — pick a larger budget instead.
pub const MAX_SEGMENTS: u64 = 4096;

/// Why a streaming plan could not be built for a budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// The budget cannot hold the persistent working set (factors +
    /// output) plus two one-entry staging slots.
    BudgetTooSmall {
        /// The rejected budget in bytes.
        budget: u64,
        /// The minimum feasible budget for this problem.
        required: u64,
    },
    /// The budget is feasible but would cut the tensor into more than
    /// [`MAX_SEGMENTS`] segments.
    TooManySegments {
        /// Segments the budget would induce.
        needed: u64,
        /// The allowed maximum.
        max: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::BudgetTooSmall { budget, required } => write!(
                f,
                "memory budget of {budget} bytes cannot hold the working set: \
                 at least {required} bytes are required (factors + output + two staging slots)"
            ),
            StreamError::TooManySegments { needed, max } => write!(
                f,
                "memory budget would cut the tensor into {needed} segments \
                 (maximum {max}); increase the budget"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// The segmentation a budget induces: `k` segments of at most
/// `entries_per_slot` entries each, staged through two slots of
/// `slot_bytes`.
pub(crate) struct StreamLayout {
    pub k: usize,
    pub entries_per_slot: u64,
    pub slot_bytes: u64,
    pub persistent_bytes: u64,
}

/// Computes the slot split for a budget, or the typed reason it cannot
/// work. `nnz == 0` yields `k == 0` (prologue-only plan).
pub(crate) fn layout(
    nnz: u64,
    entry_bytes: u64,
    budget: u64,
    persistent_bytes: u64,
) -> Result<StreamLayout, StreamError> {
    let min_budget = persistent_bytes + 2 * entry_bytes;
    if nnz == 0 {
        if budget < persistent_bytes {
            return Err(StreamError::BudgetTooSmall { budget, required: persistent_bytes });
        }
        return Ok(StreamLayout { k: 0, entries_per_slot: 0, slot_bytes: 0, persistent_bytes });
    }
    let slot_bytes = budget.saturating_sub(persistent_bytes) / 2;
    let entries_per_slot = slot_bytes / entry_bytes;
    if entries_per_slot == 0 {
        return Err(StreamError::BudgetTooSmall { budget, required: min_budget });
    }
    let k = nnz.div_ceil(entries_per_slot);
    if k > MAX_SEGMENTS {
        return Err(StreamError::TooManySegments { needed: k, max: MAX_SEGMENTS });
    }
    Ok(StreamLayout { k: k as usize, entries_per_slot, slot_bytes, persistent_bytes })
}

/// Slot ids of the explicit program: two persistent slots, two staging
/// slots that alternate across the worker streams.
const SLOT_FACTORS: usize = 0;
const SLOT_OUTPUT: usize = 1;
const SLOT_STAGE: usize = 2;

/// Assembles the double-buffered op program over the units' segments,
/// whose op labels it shares. Segment `i` runs on worker stream `i % 2` in
/// staging slot
/// `SLOT_STAGE + i % 2`; before its `Prefetch`, segment `i - 2` (the
/// slot's previous occupant, whose kernel the stream's FIFO has already
/// drained past) is evicted clean — MTTKRP segments are read-only, so no
/// write-back bytes move.
pub(crate) fn assemble_program(
    factors_bytes: u64,
    out_bytes: u64,
    units: &[WorkUnit],
    order: usize,
    cfg: LaunchConfig,
) -> Vec<PlanOp> {
    let mut ops = Vec::with_capacity(units.len() * 3 + 8);
    ops.push(PlanOp::Alloc {
        slot: SLOT_FACTORS,
        bytes: factors_bytes,
        what: "factor matrices must fit in the memory budget",
        transient: false,
    });
    ops.push(PlanOp::Alloc {
        slot: SLOT_OUTPUT,
        bytes: out_bytes,
        what: "output matrix must fit in the memory budget",
        transient: false,
    });
    ops.push(PlanOp::H2D {
        stream: StreamRef::Worker(0),
        bytes: factors_bytes,
        label: "factors H2D".into(),
    });
    ops.push(PlanOp::Barrier {
        record: vec![StreamRef::Worker(0)],
        wait: vec![StreamRef::Worker(1)],
    });
    for (i, u) in units.iter().enumerate() {
        let s = i % 2;
        let slot = SLOT_STAGE + s;
        if i >= 2 {
            ops.push(PlanOp::Evict {
                stream: StreamRef::Worker(s),
                slot,
                writeback_bytes: 0,
                label: op_label(format_args!("evict seg{}", i - 2)),
            });
        }
        ops.push(PlanOp::Prefetch {
            stream: StreamRef::Worker(s),
            slot,
            bytes: u.seg.byte_size(order) as u64,
            what: "segment must fit in the memory budget",
            label: Arc::clone(&u.h2d_label),
        });
        ops.push(PlanOp::Launch {
            stream: StreamRef::Worker(s),
            unit: i,
            grid: cfg.grid,
            block: cfg.block,
            label: Arc::clone(&u.kernel_label),
        });
    }
    ops.push(PlanOp::Barrier {
        record: vec![StreamRef::Worker(0), StreamRef::Worker(1)],
        wait: vec![StreamRef::Worker(0)],
    });
    ops.push(PlanOp::D2H {
        stream: StreamRef::Worker(0),
        bytes: out_bytes,
        label: "output D2H".into(),
    });
    // The last (up to) two resident segments leave cleanly.
    for i in (0..units.len()).rev().take(2) {
        ops.push(PlanOp::Free { slot: SLOT_STAGE + i % 2 });
    }
    ops
}

/// Assembles the full [`Plan`] around an explicit streaming program. The
/// device spec's `global_mem_bytes` is capped at the budget, so the
/// pooled allocator itself enforces the limit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_plan(
    spec: &DeviceSpec,
    shard: Arc<CooTensor>,
    factors: Arc<FactorSet>,
    mode: usize,
    rows: usize,
    order: usize,
    budget: u64,
    segments: Vec<Segment>,
    units: Vec<WorkUnit>,
    config: LaunchConfig,
    kernel: KernelChoice,
    layout: &StreamLayout,
) -> Plan {
    let rank = factors.rank();
    let factors_bytes = factors.byte_size() as u64;
    let out_bytes = (rows * rank * 4) as u64;
    let cfg = kernel.full_config(config, rank as u32);
    let program = assemble_program(factors_bytes, out_bytes, &units, order, cfg);

    let mut capped = spec.clone();
    capped.global_mem_bytes = capped.global_mem_bytes.min(budget);

    let k = segments.len();
    Plan {
        name: "oom-stream",
        mode,
        rank,
        rows,
        order,
        config,
        kernel,
        factors,
        factors_bytes,
        shards: vec![ShardDesc { index: 0, tensor: shard, rows: None }],
        devices: vec![DeviceOps {
            device: 0,
            spec: capped,
            worker_streams: 2,
            dedicated_d2h: false,
            residue: None,
            prologue_allocs: vec![
                (factors_bytes, "factor matrices must fit in the memory budget"),
                (out_bytes, "output matrix must fit in the memory budget"),
            ],
            shard_work: vec![ShardWork {
                shard: 0,
                output_alloc: None,
                units: (0..k).collect(),
                d2h: None,
            }],
            units,
            final_d2h: Some((out_bytes, "output D2H")),
            program,
        }],
        reduce: Reduce::Single,
        reduction_s: 0.0,
        cluster: None,
        meta: PlanMeta {
            segment_map: format!(
                "{k} segment(s) of <= {} nnz through 2 staging slot(s) of {} B \
                 (budget {budget} B, persistent {} B)",
                layout.entries_per_slot, layout.slot_bytes, layout.persistent_bytes
            ),
            optimizer: String::new(),
            batch_jobs: 0,
        },
    }
}

/// Builds the out-of-core streaming plan for a materialised tensor: the
/// mode-sorted entry list is cut into the fewest segments whose staging
/// fits a two-slot double buffer inside `budget` bytes alongside the
/// factor matrices and the output.
///
/// A fixed budget is bitwise deterministic: the interpreter runs
/// functional kernel bodies in submission order over the same cut.
/// Shrinking the budget re-cuts the sorted entry list, which reassociates
/// the in-row accumulation — outputs across budgets agree to the oracle's
/// ULP tolerance, not bit-for-bit.
pub fn build_streaming_plan(
    spec: &DeviceSpec,
    tensor: &CooTensor,
    factors: &FactorSet,
    mode: usize,
    budget: u64,
    config: LaunchConfig,
    kernel: KernelChoice,
) -> Result<Plan, StreamError> {
    let rank = factors.rank();
    let rows = tensor.dims()[mode] as usize;
    let order = tensor.order();
    let entry_bytes = (order * 4 + 4) as u64;
    let factors_bytes = factors.byte_size() as u64;
    let out_bytes = (rows * rank * 4) as u64;
    let persistent = factors_bytes + out_bytes;
    let lay = layout(tensor.nnz() as u64, entry_bytes, budget, persistent)?;

    let sorted = tensor.sorted_for_mode(mode);
    let segments = if lay.k == 0 { Vec::new() } else { segment_by_nnz(sorted.nnz(), lay.k) };
    let units: Vec<WorkUnit> = segments
        .iter()
        .enumerate()
        .map(|(i, seg)| WorkUnit {
            shard: 0,
            segment: i,
            seg: seg.clone(),
            alloc: None, // the explicit program stages via Prefetch/Evict
            h2d_label: op_label(format_args!("seg{i} H2D (prefetch)")),
            kernel_label: op_label(format_args!("seg{i} kernel")),
            stats: SegmentStats::compute_range(&sorted, mode, seg.start..seg.end),
        })
        .collect();
    Ok(assemble_plan(
        spec,
        Arc::new(sorted),
        Arc::new(factors.clone()),
        mode,
        rows,
        order,
        budget,
        segments,
        units,
        config,
        kernel,
        &lay,
    ))
}

/// The deterministic budget the registry/conformance entry uses: the
/// persistent working set plus a quarter of the tensor, floored at two
/// one-entry slots — small enough that every non-trivial corpus tensor
/// actually streams (multiple segments, evictions), large enough to be
/// feasible for any input.
pub fn registry_budget(tensor: &CooTensor, factors: &FactorSet, mode: usize) -> u64 {
    let entry_bytes = (tensor.order() * 4 + 4) as u64;
    let out_bytes = (tensor.dims()[mode] as usize * factors.rank() * 4) as u64;
    let persistent = factors.byte_size() as u64 + out_bytes;
    persistent + (tensor.byte_size() as u64 / 4).max(2 * entry_bytes)
}

/// The registry entry: a streaming plan under [`registry_budget`].
pub fn registry_plan(tensor: &CooTensor, factors: &FactorSet, mode: usize) -> Plan {
    build_streaming_plan(
        &DeviceSpec::rtx3090(),
        tensor,
        factors,
        mode,
        registry_budget(tensor, factors, mode),
        LaunchConfig::new(512, 256),
        KernelChoice::Tiled,
    )
    .expect("the registry budget is feasible by construction")
}
