//! The ScheduleIR: an executable description of one MTTKRP schedule.
//!
//! A [`Plan`] is built once by a *plan builder* (the `pipeline`, `cluster`
//! and `serve` crates) and executed by the single interpreter in
//! [`crate::interp`]. Each device carries a linear program of typed ops
//! ([`PlanOp`]) — `Alloc`, `Free`, `Evict`, `Prefetch`, `H2D`, `Launch`,
//! `HostResidue`, `Barrier`, `D2H` — each tagged with a stream placement
//! where it moves data; streams within a device execute their queues in
//! order, so the op list plus the barrier edges form the schedule DAG.
//! Cross-device reduction is a single analytic [`PlanOp::Reduce`] op.
//!
//! Builders lower their declarative schedule into these programs once
//! ([`Plan::lowered`]); optimizer passes rewrite them; the interpreter
//! and [`Plan::render`] both read them, so the IR dump is exactly what
//! runs.

use crate::kernel::KernelChoice;
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::{FactorSet, SegmentStats};
use scalfrag_tensor::segment::Segment;
use scalfrag_tensor::{CooTensor, Idx};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// Formats an op label straight into its shared allocation. Labels are
/// built once, at lowering, and every op, span and trace event that
/// carries one shares it. The text is rendered on the stack and copied
/// once; a label longer than the buffer goes through a `String`.
pub fn op_label(args: std::fmt::Arguments<'_>) -> Arc<str> {
    struct Stack {
        buf: [u8; 64],
        len: usize,
    }
    impl std::fmt::Write for Stack {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            let end = self.len + s.len();
            self.buf.get_mut(self.len..end).ok_or(std::fmt::Error)?.copy_from_slice(s.as_bytes());
            self.len = end;
            Ok(())
        }
    }
    let mut stack = Stack { buf: [0; 64], len: 0 };
    if stack.write_fmt(args).is_err() {
        return Arc::from(args.to_string());
    }
    Arc::from(std::str::from_utf8(&stack.buf[..stack.len]).expect("written in whole strs"))
}

/// The factor upload's label, one allocation shared by every plan.
fn factors_h2d_label() -> Arc<str> {
    static LABEL: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(LABEL.get_or_init(|| Arc::from("factors H2D")))
}

/// Whether the interpreter computes numerics or only simulates time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Kernels run their numeric bodies; the outcome carries the real
    /// MTTKRP output.
    Functional,
    /// Timing-only: identical schedule and simulated clock, zero output.
    Dry,
}

/// A stream slot within one device's plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamRef {
    /// One of the device's worker streams.
    Worker(usize),
    /// The dedicated D2H return stream (cluster plans).
    D2h,
    /// The host-task stream (hybrid residue).
    Host,
}

/// One typed op of the lowered per-device program.
///
/// Memory ops name device buffers by *slot* — a small program-local
/// handle the interpreter maps to a live pool allocation. `Alloc`/`Free`
/// are host-side bookkeeping (no timeline span); `Evict` and `Prefetch`
/// move segment bytes and therefore occupy copy-engine time like any
/// other transfer, participating in retries, dry runs and trace
/// fingerprints.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // field meanings documented per variant
pub enum PlanOp {
    /// Charge a device-memory allocation of `bytes` into `slot` (fails
    /// the plan with the `what` message if it cannot fit). `transient`
    /// buffers must be freed before the program ends — the interpreter's
    /// dry-run leak check enforces it.
    Alloc { slot: usize, bytes: u64, what: &'static str, transient: bool },
    /// Release `slot` back to the device pool (no timeline span).
    Free { slot: usize },
    /// Evict `slot` to make room for the next resident segment: an
    /// optional D2H write-back of `writeback_bytes` on `stream` (0 =
    /// clean drop, no span), then the slot's pool page is released.
    Evict { stream: StreamRef, slot: usize, writeback_bytes: u64, label: Arc<str> },
    /// (Re-)stage a segment: allocate `bytes` into the empty `slot` and
    /// H2D the payload on `stream` — the re-fetch half of an eviction.
    Prefetch { stream: StreamRef, slot: usize, bytes: u64, what: &'static str, label: Arc<str> },
    /// Host-to-device copy of `bytes` on `stream`.
    H2D { stream: StreamRef, bytes: u64, label: Arc<str> },
    /// One segment's kernel launch on `stream` with the lowered
    /// `(grid, block)`; `unit` indexes [`DeviceOps::units`].
    Launch { stream: StreamRef, unit: usize, grid: u32, block: u32, label: Arc<str> },
    /// The CPU residue of a hybrid schedule, folded concurrently on the
    /// host stream.
    HostResidue { stream: StreamRef, label: &'static str },
    /// Event edge: record on every `record` stream, wait on every `wait`
    /// stream. Events are pure ordering; they occupy no engine time.
    Barrier { record: Vec<StreamRef>, wait: Vec<StreamRef> },
    /// Device-to-host copy of `bytes` on `stream`.
    D2H { stream: StreamRef, bytes: u64, label: Arc<str> },
    /// The analytic cross-shard reduction of `seconds` (plan-level,
    /// render only).
    Reduce { seconds: f64 },
}

/// One shard of the input tensor (a single-device plan has exactly one).
#[derive(Clone, Debug)]
pub struct ShardDesc {
    /// Global shard index — also the partial-buffer slot it accumulates
    /// into and its position in the reduction fold order.
    pub index: usize,
    /// The shard's entries (mode-sorted for segmented plans).
    pub tensor: Arc<CooTensor>,
    /// Owned output row range when slice-aligned (`None` = rows may
    /// straddle shards and the full partial output returns).
    pub rows: Option<(Idx, Idx)>,
}

/// One work unit: a segment's H2D + kernel launch.
#[derive(Clone, Debug)]
pub struct WorkUnit {
    /// Index into [`Plan::shards`].
    pub shard: usize,
    /// Segment ordinal within the shard.
    pub segment: usize,
    /// The nnz range this unit covers; its H2D payload is
    /// `seg.byte_size(order)` bytes, and the lowering places it on the
    /// device's next round-robin worker stream.
    pub seg: Segment,
    /// Failure message of the per-unit segment-buffer allocation, which
    /// charges the payload's bytes (`None` when the prologue already
    /// charged it, as the sync plan does for the whole tensor).
    pub alloc: Option<&'static str>,
    /// H2D span label.
    pub h2d_label: Arc<str>,
    /// Kernel span label.
    pub kernel_label: Arc<str>,
    /// Structural statistics of the unit's entries (`seg` of its shard)
    /// for the plan's mode, computed once by the builder where it cuts
    /// the segment. Every launch prices its cost-model workload from them
    /// in O(1). A *virtual* unit (a synthetic preset too large to
    /// materialise) carries the preset's analytic statistics instead; see
    /// [`Plan::is_virtual`].
    pub stats: SegmentStats,
}

/// One shard's slice of a device program: output allocation, units, and
/// the per-shard partial-result return.
#[derive(Clone, Debug)]
pub struct ShardWork {
    /// Index into [`Plan::shards`].
    pub shard: usize,
    /// Partial-output allocation charged before the shard's units.
    pub output_alloc: Option<(u64, &'static str)>,
    /// Indices into [`DeviceOps::units`].
    pub units: Vec<usize>,
    /// Per-shard D2H `(bytes, label)` on the dedicated return stream,
    /// ordered after the shard's kernels (absent under peer reduction).
    pub d2h: Option<(u64, Arc<str>)>,
}

/// The hybrid schedule's CPU residue.
#[derive(Clone, Debug)]
pub struct ResidueWork {
    /// The sparse-slice tail folded on the host.
    pub tensor: Arc<CooTensor>,
    /// Roofline flops of the host task.
    pub flops: u64,
    /// Roofline bytes of the host task.
    pub bytes: u64,
    /// Host-task span label.
    pub label: &'static str,
}

/// One device's share of the plan.
#[derive(Clone, Debug)]
pub struct DeviceOps {
    /// Device index within the plan (names it to the fault injector).
    pub device: usize,
    /// Device model the interpreter instantiates (ignored when the caller
    /// supplies its own [`scalfrag_gpusim::Gpu`]).
    pub spec: DeviceSpec,
    /// Worker-stream count.
    pub worker_streams: usize,
    /// Whether partial results return on a dedicated D2H stream.
    pub dedicated_d2h: bool,
    /// Hybrid CPU residue, submitted before any device work.
    pub residue: Option<ResidueWork>,
    /// Allocations charged before the factor upload.
    pub prologue_allocs: Vec<(u64, &'static str)>,
    /// Every work unit of this device.
    pub units: Vec<WorkUnit>,
    /// Units grouped per shard, in execution order.
    pub shard_work: Vec<ShardWork>,
    /// Final whole-output D2H `(bytes, label)` on worker stream 0, ordered
    /// after all kernels (single-device plans).
    pub final_d2h: Option<(u64, &'static str)>,
    /// The op program the interpreter runs. Builders fill it once, from
    /// the declarative fields above ([`Plan::lowered`]) or explicitly
    /// where the generic lowering cannot express the schedule (the
    /// out-of-core streaming plan's evict/prefetch loop); optimizer
    /// passes rewrite it.
    pub program: Vec<PlanOp>,
}

/// How per-shard partial buffers combine into the output matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduce {
    /// One shard, one buffer: the output is read back directly.
    Single,
    /// Fold partials in shard-index order (copy owned row blocks, sum
    /// row-overlapping partials) — bitwise invariant to placement.
    FoldShards,
    /// Batch-fused serving plans: every shard is one *independent* job
    /// accumulating into its own buffer; nothing is folded. The canonical
    /// `output` is shard 0's matrix (the group lead) and the interpreter
    /// returns every per-job matrix in `ExecOutcome::shard_outputs`, in
    /// shard-index order. Because each job's kernels touch only its own
    /// buffer, a group of N is bit-identical per job to N solo runs.
    PerJob,
}

/// Re-placement strategy a cluster plan's policy uses for orphaned work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlaceStrategy {
    /// Orphaned shards round-robin over the survivors.
    RoundRobin,
    /// Orphaned shards go to the survivor with the earliest projected
    /// finish (current clock + bytes / speed proxy).
    Lpt,
}

/// Placement callbacks a multi-device plan carries: the strategy for
/// moving a lost device's work onto survivors, its inputs, and the
/// analytic reduction cost. Implemented by the cluster crate (it owns the
/// node/interconnect model); the interpreter stays node-agnostic.
pub trait ClusterPolicy: Send + Sync {
    /// Strategy for re-placing orphaned work.
    fn strategy(&self) -> PlaceStrategy;
    /// End-to-end speed proxy of device `d` (bytes/s), for LPT.
    fn speed_proxy(&self, d: usize) -> f64;
    /// Analytic seconds of the cross-shard reduction for a final
    /// shard-to-device assignment.
    fn reduction_s(&self, assignment: &[Vec<usize>]) -> f64;
}

/// Plan-level metadata: where the schedule came from.
#[derive(Clone, Debug, Default)]
pub struct PlanMeta {
    /// Human-readable segment map (counts, streams, split).
    pub segment_map: String,
    /// Comma-separated names of the optimizer passes applied to this plan
    /// (empty = raw builder output). Stamped by `scalfrag-opt`; rendered
    /// so an IR dump always says where its schedule came from.
    pub optimizer: String,
    /// Batch provenance: the number of serving jobs fused into this plan
    /// (0 = not a batched plan). Set by `build_batched_plan`; rendered so
    /// an IR dump always says how many jobs share the factor upload.
    pub batch_jobs: usize,
}

/// An executable MTTKRP schedule: shards, per-device programs and the
/// reduction. Built by the plan builders; executed by
/// [`crate::interp::run_plan`] and friends.
#[derive(Clone)]
pub struct Plan {
    /// Stable builder name (printed by `plan_dump`).
    pub name: &'static str,
    /// MTTKRP mode.
    pub mode: usize,
    /// Factor rank.
    pub rank: usize,
    /// Output rows (`dims[mode]`).
    pub rows: usize,
    /// Tensor order.
    pub order: usize,
    /// Base launch configuration.
    pub config: LaunchConfig,
    /// Kernel launched per segment.
    pub kernel: KernelChoice,
    /// The factor matrices.
    pub factors: Arc<FactorSet>,
    /// Factor upload bytes.
    pub factors_bytes: u64,
    /// The input shards (one for single-device plans).
    pub shards: Vec<ShardDesc>,
    /// Per-device programs.
    pub devices: Vec<DeviceOps>,
    /// How partial buffers combine.
    pub reduce: Reduce,
    /// Analytic reduction seconds for the static placement.
    pub reduction_s: f64,
    /// Placement callbacks (multi-device plans only). A device of a plan
    /// that carries them is skipped entirely (empty timeline) when it has
    /// no units; single-device plans always run their prologue.
    pub cluster: Option<Arc<dyn ClusterPolicy>>,
    /// Plan metadata.
    pub meta: PlanMeta,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("name", &self.name)
            .field("mode", &self.mode)
            .field("rank", &self.rank)
            .field("shards", &self.shards.len())
            .field("devices", &self.devices.len())
            .field("reduce", &self.reduce)
            .finish_non_exhaustive()
    }
}

impl Plan {
    /// Total work units across all devices.
    pub fn total_items(&self) -> usize {
        self.devices.iter().map(|d| d.units.len()).sum()
    }

    /// Whether `unit` is *virtual*: its range lies past its shard
    /// tensor's entries, because a virtual plan carries a dims-only shard
    /// and describes each segment by its statistics alone. Virtual units
    /// are dry-only — a functional run panics.
    pub fn is_virtual(&self, unit: &WorkUnit) -> bool {
        unit.seg.end > self.shards[unit.shard].tensor.nnz()
    }

    /// Total op count across all device programs — the op-budget metric
    /// the plan optimizer reports reductions against.
    pub fn total_ops(&self) -> usize {
        self.devices.iter().map(|d| d.program.len()).sum()
    }

    /// Lowers every device's declarative schedule into its op program —
    /// the one lowering a builder runs before handing the plan out.
    pub fn lowered(mut self) -> Self {
        for d in 0..self.devices.len() {
            let ops = self.lower_device(&self.devices[d]);
            self.devices[d].program = ops;
        }
        self
    }

    /// Lowers one device's declarative share into a linear op program.
    ///
    /// Transient per-segment buffers get `Free` ops: each worker stream
    /// keeps at most one segment buffer live (its FIFO queue guarantees
    /// the previous segment's kernel drained before the buffer is
    /// rewritten), so long plans hold `O(streams)` segment buffers
    /// instead of monotonically consuming the pool.
    pub(crate) fn lower_device(&self, dev: &DeviceOps) -> Vec<PlanOp> {
        let mut ops = Vec::new();
        let mut next_slot = 0usize;
        if let Some(res) = &dev.residue {
            ops.push(PlanOp::HostResidue { stream: StreamRef::Host, label: res.label });
        }
        for &(bytes, what) in &dev.prologue_allocs {
            ops.push(PlanOp::Alloc { slot: next_slot, bytes, what, transient: false });
            next_slot += 1;
        }
        ops.push(PlanOp::H2D {
            stream: StreamRef::Worker(0),
            bytes: self.factors_bytes,
            label: factors_h2d_label(),
        });
        // Factors travel once on stream 0; every other stream waits.
        if dev.worker_streams > 1 {
            ops.push(PlanOp::Barrier {
                record: vec![StreamRef::Worker(0)],
                wait: (1..dev.worker_streams).map(StreamRef::Worker).collect(),
            });
        }
        let cfg = self.kernel.full_config(self.config, self.rank as u32);
        let mut next_stream = 0usize;
        // The transient segment buffer each worker stream currently holds.
        let mut live_seg: Vec<Option<usize>> = vec![None; dev.worker_streams];
        // The worker streams the current shard's units run on.
        let mut used: Vec<usize> = Vec::new();
        for sw in &dev.shard_work {
            if let Some((bytes, what)) = sw.output_alloc {
                ops.push(PlanOp::Alloc { slot: next_slot, bytes, what, transient: false });
                next_slot += 1;
            }
            used.clear();
            for &ui in &sw.units {
                let u = &dev.units[ui];
                let s = next_stream % dev.worker_streams;
                next_stream += 1;
                if !used.contains(&s) {
                    used.push(s);
                }
                let bytes = u.seg.byte_size(self.order) as u64;
                if let Some(what) = u.alloc {
                    if let Some(prev) = live_seg[s].take() {
                        ops.push(PlanOp::Free { slot: prev });
                    }
                    ops.push(PlanOp::Alloc { slot: next_slot, bytes, what, transient: true });
                    live_seg[s] = Some(next_slot);
                    next_slot += 1;
                }
                ops.push(PlanOp::H2D {
                    stream: StreamRef::Worker(s),
                    bytes,
                    label: Arc::clone(&u.h2d_label),
                });
                ops.push(PlanOp::Launch {
                    stream: StreamRef::Worker(s),
                    unit: ui,
                    grid: cfg.grid,
                    block: cfg.block,
                    label: Arc::clone(&u.kernel_label),
                });
            }
            if let Some((bytes, label)) = &sw.d2h {
                // A stream's queue runs in order, so an event recorded at
                // its tail marks the completion of every kernel queued on
                // it — one event per used stream orders the shard's D2H
                // after all its kernels.
                if !used.is_empty() {
                    ops.push(PlanOp::Barrier {
                        record: used.iter().map(|&s| StreamRef::Worker(s)).collect(),
                        wait: vec![StreamRef::D2h],
                    });
                }
                ops.push(PlanOp::D2H {
                    stream: StreamRef::D2h,
                    bytes: *bytes,
                    label: Arc::clone(label),
                });
            }
        }
        if let Some((bytes, label)) = dev.final_d2h {
            if dev.worker_streams > 1 {
                ops.push(PlanOp::Barrier {
                    record: (0..dev.worker_streams).map(StreamRef::Worker).collect(),
                    wait: vec![StreamRef::Worker(0)],
                });
            }
            ops.push(PlanOp::D2H { stream: StreamRef::Worker(0), bytes, label: label.into() });
        }
        for slot in live_seg.into_iter().flatten() {
            ops.push(PlanOp::Free { slot });
        }
        ops
    }

    /// Renders the plan as a typed-op IR dump (what `plan_dump` prints).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "plan {:?}: mode {}, rank {}, {} shard(s), {} device(s), reduce {:?}",
            self.name,
            self.mode,
            self.rank,
            self.shards.len(),
            self.devices.len(),
            self.reduce,
        );
        if !self.meta.segment_map.is_empty() {
            let _ = writeln!(s, "  segment map: {}", self.meta.segment_map);
        }
        if !self.meta.optimizer.is_empty() {
            let _ = writeln!(s, "  optimizer: {}", self.meta.optimizer);
        }
        if self.meta.batch_jobs > 0 {
            let _ = writeln!(s, "  batch: {} fused job(s)", self.meta.batch_jobs);
        }
        for dev in &self.devices {
            let _ = writeln!(
                s,
                "  device {} ({}): {} worker stream(s){}",
                dev.device,
                dev.spec.name,
                dev.worker_streams,
                if dev.dedicated_d2h { " + d2h stream" } else { "" },
            );
            for op in &dev.program {
                let _ = writeln!(s, "    {}", render_op(op));
            }
        }
        if self.reduction_s > 0.0 {
            let _ = writeln!(s, "  {}", render_op(&PlanOp::Reduce { seconds: self.reduction_s }));
        }
        s
    }
}

fn render_stream(r: &StreamRef) -> String {
    match r {
        StreamRef::Worker(i) => format!("w{i}"),
        StreamRef::D2h => "d2h".to_string(),
        StreamRef::Host => "host".to_string(),
    }
}

fn render_op(op: &PlanOp) -> String {
    match op {
        PlanOp::Alloc { slot, bytes, what, transient } => format!(
            "Alloc    slot{slot} {bytes} B ({what}{})",
            if *transient { ", transient" } else { "" }
        ),
        PlanOp::Free { slot } => format!("Free     slot{slot}"),
        PlanOp::Evict { stream, slot, writeback_bytes, label } => format!(
            "Evict    [{}] slot{slot} writeback {writeback_bytes} B \"{label}\"",
            render_stream(stream)
        ),
        PlanOp::Prefetch { stream, slot, bytes, what, label } => format!(
            "Prefetch [{}] slot{slot} {bytes} B ({what}) \"{label}\"",
            render_stream(stream)
        ),
        PlanOp::H2D { stream, bytes, label } => {
            format!("H2D      [{}] {bytes} B \"{label}\"", render_stream(stream))
        }
        PlanOp::Launch { stream, grid, block, label, .. } => {
            format!("Launch   [{}] grid {grid} block {block} \"{label}\"", render_stream(stream))
        }
        PlanOp::HostResidue { stream, label } => {
            format!("HostRes  [{}] \"{label}\"", render_stream(stream))
        }
        PlanOp::Barrier { record, wait } => format!(
            "Barrier  record[{}] -> wait[{}]",
            record.iter().map(render_stream).collect::<Vec<_>>().join(","),
            wait.iter().map(render_stream).collect::<Vec<_>>().join(","),
        ),
        PlanOp::D2H { stream, bytes, label } => {
            format!("D2H      [{}] {bytes} B \"{label}\"", render_stream(stream))
        }
        PlanOp::Reduce { seconds } => format!("Reduce   {seconds:.3e} s (analytic)"),
    }
}
