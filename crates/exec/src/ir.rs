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
//! A device's program is the plan's only schedule: builders lower it
//! once ([`lower_program`]) and keep beside it only what its ops bind —
//! streams, work units, the host residue. Optimizer passes rewrite it;
//! the interpreter and [`Plan::render`] both read it, so the IR dump is
//! exactly what runs.

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
    /// `seg.byte_size(order)` bytes.
    pub seg: Segment,
    /// Structural statistics of the unit's entries (`seg` of its shard)
    /// for the plan's mode, computed once by the builder where it cuts
    /// the segment. Every launch prices its cost-model workload from them
    /// in O(1). A *virtual* unit (a synthetic preset too large to
    /// materialise) carries the preset's analytic statistics instead; see
    /// [`Plan::is_virtual`].
    pub stats: SegmentStats,
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

/// One device's share of the plan: its op program and what the ops bind.
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
    /// Hybrid CPU residue, which the program's `HostResidue` op folds.
    pub residue: Option<ResidueWork>,
    /// Every work unit of this device; `Launch` ops index into it.
    pub units: Vec<WorkUnit>,
    /// The op program the interpreter runs: the device's whole schedule.
    /// Builders lower it once ([`lower_program`], or explicitly where the
    /// generic lowering cannot express the schedule, as the out-of-core
    /// streaming plan's evict/prefetch loop); optimizer passes rewrite
    /// it.
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
/// moving a lost device's work onto survivors, its inputs, the program a
/// survivor runs it with, and the analytic reduction cost. Implemented by
/// the cluster crate (it owns the node/interconnect model and cut the
/// shards); the interpreter stays node-agnostic.
pub trait ClusterPolicy: Send + Sync {
    /// Strategy for re-placing orphaned work.
    fn strategy(&self) -> PlaceStrategy;
    /// End-to-end speed proxy of device `d` (bytes/s), for LPT.
    fn speed_proxy(&self, d: usize) -> f64;
    /// Analytic seconds of the cross-shard reduction for a final
    /// shard-to-device assignment.
    fn reduction_s(&self, assignment: &[Vec<usize>]) -> f64;
    /// The program a survivor runs for the orphaned `units` placed on it,
    /// grouped by shard: the factors re-staged, then each shard's units
    /// with its output buffer and return, lowered as the builder lowered
    /// every device's share. Its `Launch` ops index into `units`.
    fn rescue(&self, units: &[WorkUnit]) -> Vec<PlanOp>;
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
    /// Base launch configuration.
    pub config: LaunchConfig,
    /// Kernel launched per segment.
    pub kernel: KernelChoice,
    /// The factor matrices (their count is the tensor order).
    pub factors: Arc<FactorSet>,
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

/// Lowers one device's share into its op program — the one lowering
/// every generic builder calls, once per device program.
///
/// The `prologue` allocations (slots `0..`) come first, then the factor
/// upload on worker stream 0, which every other worker stream waits for.
/// Unit `i` then stages its segment (`H2D`) and launches with `launch`'s
/// grid and block on worker stream `i % worker_streams`; `labels` names
/// the two ops. With `segment_alloc`, each segment first lands in a
/// transient buffer with that failure message. Each worker stream keeps
/// at most one such buffer live (its FIFO queue guarantees the previous
/// segment's kernel drained before the buffer is rewritten), so long
/// plans hold `O(streams)` segment buffers instead of monotonically
/// consuming the pool.
///
/// Consecutive units of one shard form its share. `shard_output` gives
/// the shard's partial-output buffer `(bytes, failure message)`, charged
/// before its units, and the label of its D2H on the dedicated return
/// stream, ordered after its kernels. `final_d2h` returns the whole
/// output on worker stream 0 after every kernel.
#[allow(clippy::too_many_arguments)]
pub fn lower_program(
    factors: &FactorSet,
    prologue: &[(u64, &'static str)],
    worker_streams: usize,
    launch: LaunchConfig,
    units: &[WorkUnit],
    segment_alloc: Option<&'static str>,
    mut labels: impl FnMut(&WorkUnit) -> [Arc<str>; 2],
    mut shard_output: impl FnMut(usize) -> Option<(u64, &'static str, Option<Arc<str>>)>,
    final_d2h: Option<(u64, &'static str)>,
) -> Vec<PlanOp> {
    // Each unit adds at most seven ops (a Free, an Alloc, its H2D and
    // Launch, and its shard's Alloc, Barrier and D2H), so the program
    // never regrows.
    let mut ops = Vec::with_capacity(prologue.len() + 4 + worker_streams + 7 * units.len());
    let mut next_slot = 0usize;
    for &(bytes, what) in prologue {
        ops.push(PlanOp::Alloc { slot: next_slot, bytes, what, transient: false });
        next_slot += 1;
    }
    ops.push(PlanOp::H2D {
        stream: StreamRef::Worker(0),
        bytes: factors.byte_size() as u64,
        label: factors_h2d_label(),
    });
    // Factors travel once on stream 0; every other stream waits.
    if worker_streams > 1 {
        ops.push(PlanOp::Barrier {
            record: vec![StreamRef::Worker(0)],
            wait: (1..worker_streams).map(StreamRef::Worker).collect(),
        });
    }
    // The transient segment buffer each worker stream currently holds.
    let mut live_seg: Vec<Option<usize>> = vec![None; worker_streams];
    // The worker streams the current shard's units run on, and the D2H
    // that returns the shard after them.
    let mut used: Vec<usize> = Vec::new();
    let mut d2h: Option<(u64, Arc<str>)> = None;
    for (ui, u) in units.iter().enumerate() {
        if ui == 0 || units[ui - 1].shard != u.shard {
            close_shard(&mut ops, &used, d2h.take());
            used.clear();
            if let Some((bytes, what, label)) = shard_output(u.shard) {
                ops.push(PlanOp::Alloc { slot: next_slot, bytes, what, transient: false });
                next_slot += 1;
                d2h = label.map(|label| (bytes, label));
            }
        }
        let s = ui % worker_streams;
        if !used.contains(&s) {
            used.push(s);
        }
        let bytes = u.seg.byte_size(factors.order()) as u64;
        if let Some(what) = segment_alloc {
            if let Some(prev) = live_seg[s].take() {
                ops.push(PlanOp::Free { slot: prev });
            }
            ops.push(PlanOp::Alloc { slot: next_slot, bytes, what, transient: true });
            live_seg[s] = Some(next_slot);
            next_slot += 1;
        }
        let [h2d, kernel] = labels(u);
        ops.push(PlanOp::H2D { stream: StreamRef::Worker(s), bytes, label: h2d });
        ops.push(PlanOp::Launch {
            stream: StreamRef::Worker(s),
            unit: ui,
            grid: launch.grid,
            block: launch.block,
            label: kernel,
        });
    }
    close_shard(&mut ops, &used, d2h);
    if let Some((bytes, label)) = final_d2h {
        if worker_streams > 1 {
            ops.push(PlanOp::Barrier {
                record: (0..worker_streams).map(StreamRef::Worker).collect(),
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

/// Returns a shard's partial result on the dedicated D2H stream. A
/// stream's queue runs in order, so an event recorded at its tail marks
/// the completion of every kernel queued on it — one event per `used`
/// stream orders the D2H after all the shard's kernels.
fn close_shard(ops: &mut Vec<PlanOp>, used: &[usize], d2h: Option<(u64, Arc<str>)>) {
    let Some((bytes, label)) = d2h else { return };
    ops.push(PlanOp::Barrier {
        record: used.iter().map(|&s| StreamRef::Worker(s)).collect(),
        wait: vec![StreamRef::D2h],
    });
    ops.push(PlanOp::D2H { stream: StreamRef::D2h, bytes, label });
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
