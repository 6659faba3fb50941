//! The plan interpreter: one op loop for every run.
//!
//! [`run_plan`], [`run_plan_on`] and [`run_plan_faulted`] walk each
//! device's op program ([`DeviceOps::program`]) through the same loop —
//! fault-free or under a [`FaultInjector`], functional or dry, one device
//! or many. Fault handling is a step of executing an op:
//!
//! * Every op that moves bytes polls the injector — `H2D` and `Prefetch`
//!   as [`OpClass::H2D`], `D2H` and an `Evict` write-back as
//!   [`OpClass::D2H`] — and pays a host-side checksum scan; `Launch` and
//!   `HostResidue` poll as [`OpClass::Kernel`].
//! * A corrupted transfer or an aborted kernel is charged without its
//!   body and re-issued in place after exponential backoff, up to the
//!   policy's attempt cap. A transient outage is waited out; a permanent
//!   one (or any outage under [`RecoveryMode::NoRetry`]) ends the
//!   device's program.
//! * An op that runs out of attempts loses what depends on it: a lost
//!   input copy loses the next kernel on its stream, a lost kernel or
//!   host residue its own work, and a lost `D2H` the partial results of
//!   every shard launched on the device since the previous `D2H`.
//! * A dead device's unlaunched units move onto the survivors through the
//!   plan's [`ClusterPolicy`], which places them and lowers the program a
//!   survivor runs them with — always for a device already down at
//!   bring-up, mid-run under [`RecoveryMode::RetryReShard`] — starting no
//!   earlier than the failure was observed.
//!
//! Kernel and residue bodies run only on the attempt that succeeds, and
//! gpusim runs bodies in submission order, so a fully recovered run
//! accumulates every shard buffer in the fault-free order: it is
//! bit-identical to the fault-free run without a replay pass.
//!
//! [`ClusterPolicy`]: crate::ir::ClusterPolicy

use crate::ir::{
    ClusterPolicy, DeviceOps, ExecMode, PlaceStrategy, Plan, PlanOp, Reduce, ResidueWork,
    ShardDesc, StreamRef, WorkUnit,
};
use crate::retry::{FaultRecoveryPolicy, RecoveryMode};
use crate::trace::PlanTrace;
use parking_lot::Mutex;
use scalfrag_faults::{DeviceHealth, FaultInjector, OpClass, OpVerdict, RecoveryAction};
use scalfrag_gpusim::{Allocation, Gpu, StreamId, Timeline};
use scalfrag_kernels::{reference, AtomicF32Buffer};
use scalfrag_linalg::Mat;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Per-unit outcome of a run (trivially "1 attempt, completed" for
/// fault-free runs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnitOutcome {
    /// Global shard index.
    pub shard: usize,
    /// Segment ordinal within the shard.
    pub segment: usize,
    /// Tries its kernel and input copies took (1 = clean first try).
    pub attempts: u32,
    /// Whether the unit's kernel ultimately completed.
    pub completed: bool,
}

/// Per-device memory accounting of one interpreted plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceMemStats {
    /// Pool high-watermark of live bytes during the device's program.
    pub peak_bytes: u64,
    /// `Evict` ops executed (resident segments dropped for space).
    pub evictions: u64,
    /// `Prefetch` ops executed (segments (re-)staged into a slot).
    pub prefetches: u64,
    /// `Free` ops executed (transient buffers released mid-plan).
    pub frees: u64,
    /// Total H2D payload bytes staged (factors + segments + prefetches).
    pub staged_bytes: u64,
}

/// The result of interpreting one plan.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The MTTKRP output (zero in dry mode or where work was lost).
    pub output: Mat,
    /// The primary device's timeline (single-device plans; the batch of
    /// this run only when the caller's GPU carried earlier work).
    pub timeline: Timeline,
    /// Per-device timelines, index-aligned with the plan's device list.
    pub device_timelines: Vec<Timeline>,
    /// Per-device shard indices whose units completed there.
    pub device_shards: Vec<Vec<usize>>,
    /// The structured plan trace across all devices.
    pub trace: PlanTrace,
    /// Analytic seconds of the cross-shard reduction stage.
    pub reduction_s: f64,
    /// Per-unit accounting of every launched unit, `(shard, segment)`
    /// order.
    pub outcomes: Vec<UnitOutcome>,
    /// Ops re-issued after a fault (retries and outage waits).
    pub retries: usize,
    /// Units that completed on a device other than their original
    /// placement.
    pub replaced_items: usize,
    /// Work items that completed: units plus host residues.
    pub completed_items: usize,
    /// Work items in the plan: every launched unit plus every host
    /// residue.
    pub total_items: usize,
    /// Devices that were down at bring-up or died during the run.
    pub dead_devices: Vec<usize>,
    /// Per-device memory accounting, index-aligned with the device list.
    pub mem: Vec<DeviceMemStats>,
    /// Per-shard output matrices, shard-index order — filled only by
    /// functional runs of [`Reduce::PerJob`] plans (the batch-fused
    /// serving path reads one matrix per fused job); empty everywhere
    /// else.
    pub shard_outputs: Vec<Mat>,
}

impl ExecOutcome {
    /// End-to-end makespan: the slowest device plus the reduction stage.
    pub fn makespan(&self) -> f64 {
        self.device_timelines.iter().map(Timeline::makespan).fold(0.0, f64::max) + self.reduction_s
    }

    /// Whether every work item completed.
    pub fn all_complete(&self) -> bool {
        self.completed_items == self.total_items
    }

    /// Work items lost despite the recovery policy.
    pub fn lost_items(&self) -> usize {
        self.total_items - self.completed_items
    }
}

/// Executes a single-device plan on the caller's GPU (fault-free).
pub fn run_plan_on(gpu: &mut Gpu, plan: &Plan, mode: ExecMode) -> ExecOutcome {
    assert_eq!(plan.devices.len(), 1, "run_plan_on executes single-device plans");
    execute(plan, mode, std::slice::from_mut(gpu), None)
}

/// Executes any plan fault-free, instantiating one simulated GPU per
/// device from the plan's specs.
pub fn run_plan(plan: &Plan, mode: ExecMode) -> ExecOutcome {
    let mut gpus: Vec<Gpu> = plan.devices.iter().map(|dev| new_gpu(dev, 1.0)).collect();
    execute(plan, mode, &mut gpus, None)
}

/// Executes any plan under fault injection: the loop of [`run_plan`]
/// with `injector` polled per op and `policy` deciding retries, outage
/// waits and re-placement (see the module docs). At bring-up a
/// straggling device runs derated and, when the plan has a cluster
/// policy to move its work, a device already down receives none.
pub fn run_plan_faulted(
    plan: &Plan,
    mode: ExecMode,
    injector: &mut FaultInjector,
    policy: &FaultRecoveryPolicy,
) -> ExecOutcome {
    assert!(policy.retry.max_attempts >= 1, "at least one attempt is required");
    let mut down_at_start = Vec::with_capacity(plan.devices.len());
    let mut gpus: Vec<Gpu> = plan
        .devices
        .iter()
        .enumerate()
        .map(|(d, dev)| {
            let health = injector.health_at(d, 0.0);
            down_at_start
                .push(plan.cluster.is_some() && matches!(health, DeviceHealth::Down { .. }));
            match health {
                DeviceHealth::Straggling { derate } => new_gpu(dev, derate),
                _ => new_gpu(dev, 1.0),
            }
        })
        .collect();
    let faults = Faults { injector, policy, down_at_start, retries: 0 };
    execute(plan, mode, &mut gpus, Some(faults))
}

fn new_gpu(dev: &DeviceOps, derate: f64) -> Gpu {
    Gpu::new(if derate > 1.0 { dev.spec.clone().derated(derate) } else { dev.spec.clone() })
}

/// The injector, recovery policy and tallies of a faulted run.
struct Faults<'a> {
    injector: &'a mut FaultInjector,
    policy: &'a FaultRecoveryPolicy,
    /// Devices down at bring-up whose work the cluster policy moves.
    down_at_start: Vec<bool>,
    retries: usize,
}

/// What became of one polled op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Done,
    /// Out of attempts: the op's work is lost, the device carries on.
    Lost,
    /// The device is gone: its program ends here.
    Dead,
}

/// One unit's accounting: its outcome, original device and the device it
/// completed on.
struct UnitState {
    outcome: UnitOutcome,
    origin: usize,
    ran_on: Option<usize>,
}

/// Run-wide state: the numeric sinks and the work accounting.
struct Run<'p> {
    plan: &'p Plan,
    mode: ExecMode,
    /// Per-shard output buffers (functional runs only).
    buffers: Vec<Arc<AtomicF32Buffer>>,
    /// The host residue's output (functional runs of hybrid plans only).
    host_acc: Option<Arc<Mutex<Option<Mat>>>>,
    units: BTreeMap<(usize, usize), UnitState>,
    residues_done: usize,
    residues: usize,
    /// Shards whose partial result a lost `D2H` never returned.
    lost_shards: BTreeSet<usize>,
}

impl<'p> Run<'p> {
    fn new(plan: &'p Plan, mode: ExecMode) -> Self {
        let mut units = BTreeMap::new();
        let mut residues = 0;
        for (d, dev) in plan.devices.iter().enumerate() {
            for op in &dev.program {
                match op {
                    PlanOp::Launch { unit, .. } => {
                        let (shard, segment) = (dev.units[*unit].shard, dev.units[*unit].segment);
                        let outcome = UnitOutcome { shard, segment, attempts: 0, completed: false };
                        units.insert(
                            (shard, segment),
                            UnitState { outcome, origin: d, ran_on: None },
                        );
                    }
                    PlanOp::HostResidue { .. } => residues += 1,
                    _ => {}
                }
            }
        }
        let functional = mode == ExecMode::Functional;
        let buffers = if functional {
            plan.shards.iter().map(|_| Arc::new(Self::buffer(plan))).collect()
        } else {
            Vec::new()
        };
        let host_acc = (functional && residues > 0).then(|| Arc::new(Mutex::new(None)));
        Self {
            plan,
            mode,
            buffers,
            host_acc,
            units,
            residues_done: 0,
            residues,
            lost_shards: BTreeSet::new(),
        }
    }

    fn buffer(plan: &Plan) -> AtomicF32Buffer {
        AtomicF32Buffer::new(plan.rows * plan.rank)
    }

    /// Books a unit's tries and, when it completed, the device it ran on.
    fn settle(&mut self, u: &WorkUnit, device: usize, tries: u32, completed: bool) {
        let s = self.units.get_mut(&(u.shard, u.segment)).expect("launched units are accounted");
        s.outcome.attempts += tries;
        if completed {
            s.outcome.completed = true;
            s.ran_on = Some(device);
        }
    }
}

/// One device's live state across the programs it runs.
struct Device<'g> {
    id: usize,
    gpu: &'g mut Gpu,
    host: Option<StreamId>,
    /// The worker streams' raw ids, created consecutively.
    workers: std::ops::Range<u32>,
    d2h: Option<StreamId>,
    stats: DeviceMemStats,
    timeline: Timeline,
    dead: bool,
}

impl<'g> Device<'g> {
    /// Creates the device's streams. Creation order fixes the raw stream
    /// ids in the trace: host (hybrid residue) first, then the workers,
    /// then the dedicated D2H return stream.
    fn new(id: usize, gpu: &'g mut Gpu, dev: &DeviceOps) -> Self {
        let host = dev.residue.as_ref().map(|_| gpu.create_stream());
        let mut workers = 0..0;
        for _ in 0..dev.worker_streams {
            let s = gpu.create_stream().0;
            workers = if workers.is_empty() { s..s + 1 } else { workers.start..s + 1 };
        }
        let d2h = dev.dedicated_d2h.then(|| gpu.create_stream());
        let (stats, timeline) = (DeviceMemStats::default(), Timeline::default());
        Self { id, gpu, host, workers, d2h, stats, timeline, dead: false }
    }

    fn stream(&self, r: &StreamRef) -> StreamId {
        match r {
            StreamRef::Worker(i) => {
                assert!(*i < self.workers.len(), "plan uses worker stream {i} but declared fewer");
                StreamId(self.workers.start + *i as u32)
            }
            StreamRef::D2h => self.d2h.expect("plan uses the D2H stream but declared none"),
            StreamRef::Host => self.host.expect("plan uses the host stream but declared none"),
        }
    }

    /// Resolves every pending op into this device's timeline.
    fn sync(&mut self) {
        let batch = self.gpu.synchronize();
        if self.timeline.spans.is_empty() {
            self.timeline = batch;
        } else {
            self.timeline.spans.extend(batch.spans);
        }
    }

    /// Runs one op program; returns the units it left unlaunched when the
    /// device died.
    fn run_program(
        &mut self,
        run: &mut Run,
        units: &[WorkUnit],
        residue: Option<&ResidueWork>,
        program: &[PlanOp],
        faults: &mut Option<Faults>,
    ) -> Vec<WorkUnit> {
        let name = run.plan.name;
        // The program-local slot table: slot id → (live pool allocation,
        // transient). Transient slots must be freed by the program
        // itself; the dry-run leak check below enforces it.
        // Every lowering numbers its slots below its op count, so the table
        // never regrows.
        let mut slots: Vec<Option<(Allocation, bool)>> = Vec::with_capacity(program.len());
        // Fault bookkeeping: streams whose pending input copy was lost,
        // extra tries input copies took (both charged to the next kernel
        // on their stream), and the shards launched since the last D2H.
        let mut spoiled: Vec<StreamId> = Vec::new();
        let mut carried: BTreeMap<StreamId, u32> = BTreeMap::new();
        let mut unreturned: Vec<usize> = Vec::new();
        let mut orphans = Vec::new();
        for (i, op) in program.iter().enumerate() {
            let step = match op {
                PlanOp::Alloc { slot, bytes, what, transient } => {
                    let a = self.gpu.memory().alloc(*bytes).expect(what);
                    fill(&mut slots, *slot, (a, *transient), name);
                    Step::Done
                }
                PlanOp::Free { slot } => {
                    self.release(&mut slots, *slot, "Free", name);
                    self.stats.frees += 1;
                    Step::Done
                }
                PlanOp::Evict { stream, slot, writeback_bytes, label } => {
                    let s = self.stream(stream);
                    // Segments are read-only inputs: a lost write-back
                    // costs time, never numerics.
                    let step = match *writeback_bytes {
                        0 => Step::Done,
                        bytes => self.copy(faults, OpClass::D2H, s, bytes, label).0,
                    };
                    self.release(&mut slots, *slot, "Evict", name);
                    self.stats.evictions += 1;
                    if step == Step::Dead {
                        Step::Dead
                    } else {
                        Step::Done
                    }
                }
                PlanOp::Prefetch { stream, slot, bytes, what, label } => {
                    let a = self.gpu.memory().alloc(*bytes).expect(what);
                    fill(&mut slots, *slot, (a, true), name);
                    let s = self.stream(stream);
                    let (step, tries) = self.copy(faults, OpClass::H2D, s, *bytes, label);
                    self.stats.prefetches += 1;
                    self.stats.staged_bytes += bytes;
                    stage(&mut spoiled, &mut carried, s, step, tries)
                }
                PlanOp::H2D { stream, bytes, label } => {
                    let s = self.stream(stream);
                    let (step, tries) = self.copy(faults, OpClass::H2D, s, *bytes, label);
                    self.stats.staged_bytes += bytes;
                    stage(&mut spoiled, &mut carried, s, step, tries)
                }
                PlanOp::Launch { stream, unit, label, .. } => {
                    let u = &units[*unit];
                    let s = self.stream(stream);
                    let staged = carried.remove(&s).unwrap_or(0);
                    let (step, tries) = if let Some(k) = spoiled.iter().position(|&x| x == s) {
                        // The unit's input never arrived intact.
                        spoiled.swap_remove(k);
                        (Step::Lost, 0)
                    } else {
                        self.launch(run, faults, s, u, label)
                    };
                    run.settle(u, self.id, staged + tries, step == Step::Done);
                    if step == Step::Done && !unreturned.contains(&u.shard) {
                        unreturned.push(u.shard);
                    }
                    step
                }
                PlanOp::HostResidue { stream, .. } => {
                    let res = residue.expect("HostResidue op requires residue work");
                    let s = self.stream(stream);
                    let (plan, acc) = (run.plan, run.host_acc.as_ref());
                    let (step, _) =
                        self.attempt(faults, OpClass::Kernel, s, res.label, 0, |gpu, ok| {
                            submit_residue(gpu, s, plan, res, acc.filter(|_| ok))
                        });
                    run.residues_done += usize::from(step == Step::Done);
                    step
                }
                PlanOp::Barrier { record, wait } => {
                    for r in record {
                        let rs = self.stream(r);
                        let ev = self.gpu.record_event(rs);
                        for w in wait {
                            let ws = self.stream(w);
                            self.gpu.wait_event(ws, ev);
                        }
                    }
                    Step::Done
                }
                PlanOp::D2H { stream, bytes, label } => {
                    let s = self.stream(stream);
                    let (step, _) = self.copy(faults, OpClass::D2H, s, *bytes, label);
                    if step == Step::Lost {
                        run.lost_shards.extend(&unreturned);
                    }
                    unreturned.clear();
                    step
                }
                PlanOp::Reduce { .. } => Step::Done,
            };
            if step == Step::Dead {
                self.dead = true;
                orphans = launches(&program[i..], units);
                break;
            }
        }
        // Leak check (dry runs of completed programs): when the program
        // ends, the only live slots may be the persistent ones — a live
        // transient buffer means a plan builder forgot its Free/Evict and
        // would monotonically consume the pool on long plans.
        if run.mode == ExecMode::Dry && !self.dead {
            let leaked: Vec<usize> = (0..slots.len())
                .filter(|&i| slots[i].as_ref().is_some_and(|&(_, transient)| transient))
                .collect();
            assert!(
                leaked.is_empty(),
                "plan {name:?}: transient slots {leaked:?} still live at end of device {} program \
                 (end-of-plan live bytes must equal the persistent allocations)",
                self.id
            );
        }
        self.sync();
        self.stats.peak_bytes = self.gpu.memory().peak();
        for (a, _) in slots.into_iter().flatten() {
            self.gpu.memory().free(a);
        }
        orphans
    }

    fn release(
        &mut self,
        slots: &mut [Option<(Allocation, bool)>],
        slot: usize,
        op: &str,
        name: &str,
    ) {
        let (a, _) = slots
            .get_mut(slot)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("plan {name:?}: {op} of empty slot {slot}"));
        self.gpu.memory().free(a);
    }

    /// Issues one unit's kernel; its body accumulates into the unit's
    /// shard buffer only on the attempt that succeeds.
    fn launch(
        &mut self,
        run: &Run,
        faults: &mut Option<Faults>,
        s: StreamId,
        u: &WorkUnit,
        label: &Arc<str>,
    ) -> (Step, u32) {
        let plan = run.plan;
        let functional = run.mode == ExecMode::Functional;
        assert!(
            !(functional && plan.is_virtual(u)),
            "plan {:?}: virtual work units are dry-only (no data to compute on)",
            plan.name
        );
        let tensor = &plan.shards[u.shard].tensor;
        self.attempt(faults, OpClass::Kernel, s, label, 0, |gpu, ok| {
            plan.kernel.enqueue(
                gpu,
                s,
                plan.config,
                &u.stats,
                tensor,
                u.seg.start..u.seg.end,
                &plan.factors,
                plan.mode,
                (ok && functional).then(|| Arc::clone(&run.buffers[u.shard])),
                Arc::clone(label),
            );
        })
    }

    /// Issues one polled transfer of `bytes` (`class` H2D or D2H).
    fn copy(
        &mut self,
        faults: &mut Option<Faults>,
        class: OpClass,
        s: StreamId,
        bytes: u64,
        label: &Arc<str>,
    ) -> (Step, u32) {
        self.attempt(faults, class, s, label, bytes, |gpu, _| {
            if class == OpClass::H2D {
                gpu.h2d(s, bytes, Arc::clone(label));
            } else {
                gpu.d2h(s, bytes, Arc::clone(label));
            }
        })
    }

    /// Issues one polled op and returns what became of it and the tries
    /// it took. Fault-free, `issue` runs once with its body. Under faults
    /// every try polls the injector first: an `Ok` try issues the op with
    /// its body, a corrupted or aborted one is charged without it and
    /// retried after backoff, a transient outage is waited out, and a
    /// permanent one (or any outage under no-retry) kills the device.
    /// Transfers (`checksum_bytes > 0`) pay a host-side checksum scan
    /// per try — the ECC-style detection that catches corruption.
    fn attempt(
        &mut self,
        faults: &mut Option<Faults>,
        class: OpClass,
        stream: StreamId,
        label: &str,
        checksum_bytes: u64,
        mut issue: impl FnMut(&mut Gpu, bool),
    ) -> (Step, u32) {
        let Some(f) = faults.as_mut() else {
            issue(self.gpu, true);
            return (Step::Done, 1);
        };
        let max_attempts = f.policy.retry.max_attempts;
        let mut tries = 0u32;
        loop {
            tries += 1;
            let now = self.gpu.clock();
            if tries > 1 {
                f.retries += 1;
                let backoff = f.policy.retry.backoff_s(tries);
                if backoff > 0.0 {
                    self.gpu.stall(stream, backoff, format!("{label} backoff"));
                }
                let action = RecoveryAction::Retry { op: label.to_string(), attempt: tries };
                f.injector.record_recovery(self.id, now, action);
            }
            let ok = match f.injector.on_op(self.id, class, now) {
                OpVerdict::Ok => true,
                OpVerdict::Corrupted | OpVerdict::Aborted => false,
                OpVerdict::DeviceDown { until_s: Some(until) }
                    if f.policy.mode != RecoveryMode::NoRetry =>
                {
                    if tries >= max_attempts {
                        return (Step::Lost, tries);
                    }
                    self.sync();
                    self.gpu.advance_to(until);
                    continue;
                }
                OpVerdict::DeviceDown { .. } => return (Step::Dead, tries),
            };
            issue(self.gpu, ok);
            if checksum_bytes > 0 {
                let label = format!("{label} checksum");
                self.gpu.host_task(stream, checksum_bytes / 4, checksum_bytes, label, || {});
            }
            if ok {
                return (Step::Done, tries);
            }
            if tries >= max_attempts {
                return (Step::Lost, tries);
            }
        }
    }
}

fn fill(
    slots: &mut Vec<Option<(Allocation, bool)>>,
    slot: usize,
    a: (Allocation, bool),
    name: &str,
) {
    if slot >= slots.len() {
        slots.resize_with(slot + 1, || None);
    }
    assert!(slots[slot].is_none(), "plan {name:?}: Alloc into live slot {slot}");
    slots[slot] = Some(a);
}

/// Books an input copy against the next kernel on its stream: its extra
/// tries, and — when it ran out of attempts — the loss of that kernel.
fn stage(
    spoiled: &mut Vec<StreamId>,
    carried: &mut BTreeMap<StreamId, u32>,
    s: StreamId,
    step: Step,
    tries: u32,
) -> Step {
    if tries > 1 {
        *carried.entry(s).or_default() += tries - 1;
    }
    if step == Step::Lost {
        spoiled.push(s);
    }
    step
}

/// The units `ops` launches, in program order.
fn launches(ops: &[PlanOp], units: &[WorkUnit]) -> Vec<WorkUnit> {
    ops.iter()
        .filter_map(|op| match op {
            PlanOp::Launch { unit, .. } => Some(units[*unit].clone()),
            _ => None,
        })
        .collect()
}

/// Submits the host residue; its body folds into `host_acc` when given
/// (the attempt that succeeds in a functional run).
fn submit_residue(
    gpu: &mut Gpu,
    stream: StreamId,
    plan: &Plan,
    res: &ResidueWork,
    host_acc: Option<&Arc<Mutex<Option<Mat>>>>,
) {
    if let Some(host_acc) = host_acc {
        let tensor = Arc::clone(&res.tensor);
        let factors = Arc::clone(&plan.factors);
        let acc = Arc::clone(host_acc);
        let mode = plan.mode;
        gpu.host_task(stream, res.flops, res.bytes, res.label, move || {
            let m = reference::mttkrp_par(&tensor, &factors, mode);
            *acc.lock() = Some(m);
        });
    } else {
        gpu.host_task(stream, res.flops, res.bytes, res.label, || {});
    }
}

/// The one interpreter: every device runs its program in device order,
/// then orphaned units re-place onto survivors until none are left.
fn execute(
    plan: &Plan,
    mode: ExecMode,
    gpus: &mut [Gpu],
    mut faults: Option<Faults>,
) -> ExecOutcome {
    let mut run = Run::new(plan, mode);
    let mut devs: Vec<Device> = gpus
        .iter_mut()
        .zip(&plan.devices)
        .enumerate()
        .map(|(d, (gpu, dev))| Device::new(d, gpu, dev))
        .collect();
    let reshard = faults.as_ref().is_some_and(|f| f.policy.mode == RecoveryMode::RetryReShard);
    let mut orphans: Vec<WorkUnit> = Vec::new();
    let mut fail_clock = 0.0f64;
    for (dev, state) in plan.devices.iter().zip(devs.iter_mut()) {
        if plan.cluster.is_some() && dev.units.is_empty() {
            continue;
        }
        if faults.as_ref().is_some_and(|f| f.down_at_start[state.id]) {
            state.dead = true;
            orphans.extend(launches(&dev.program, &dev.units));
            continue;
        }
        let lost = state.run_program(
            &mut run,
            &dev.units,
            dev.residue.as_ref(),
            &dev.program,
            &mut faults,
        );
        if state.dead {
            fail_clock = fail_clock.max(state.gpu.clock());
            if reshard {
                orphans.extend(lost);
            }
        }
    }

    // Re-placement rounds: orphaned units move shard by shard onto the
    // survivors, which start them no earlier than the failure was seen.
    let mut owner: Vec<Option<usize>> = vec![None; plan.shards.len()];
    for (d, dev) in plan.devices.iter().enumerate() {
        for u in &dev.units {
            owner[u.shard] = Some(d);
        }
    }
    let mut moved = false;
    while let (Some(cluster), false) = (&plan.cluster, orphans.is_empty()) {
        let survivors: Vec<usize> = (0..devs.len()).filter(|&d| !devs[d].dead).collect();
        if survivors.is_empty() {
            break;
        }
        let mut by_shard: BTreeMap<usize, Vec<WorkUnit>> = BTreeMap::new();
        for u in orphans.drain(..) {
            by_shard.entry(u.shard).or_default().push(u);
        }
        let clocks: Vec<f64> = devs.iter().map(|s| s.gpu.clock().max(fail_clock)).collect();
        let mut extra: BTreeMap<usize, Vec<WorkUnit>> = BTreeMap::new();
        for (target, si, units) in
            place(cluster.as_ref(), &survivors, &clocks, plan.factors.order(), by_shard)
        {
            if let Some(f) = faults.as_mut() {
                let from_device = owner[si].unwrap_or(target);
                let action = RecoveryAction::ReShard { shard: si, from_device, to_device: target };
                f.injector.record_recovery(target, fail_clock, action);
            }
            owner[si] = Some(target);
            extra.entry(target).or_default().extend(units);
        }
        moved = true;
        for (target, units) in extra {
            let program = cluster.rescue(&units);
            let state = &mut devs[target];
            state.gpu.advance_to(fail_clock);
            let lost = state.run_program(&mut run, &units, None, &program, &mut faults);
            if state.dead {
                fail_clock = fail_clock.max(state.gpu.clock());
                if reshard {
                    orphans.extend(lost);
                }
            }
        }
    }

    // A shard whose partial result never returned contributes nothing.
    for &si in &run.lost_shards {
        if mode == ExecMode::Functional {
            run.buffers[si] = Arc::new(Run::buffer(plan));
        }
        for s in run.units.values_mut().filter(|s| s.outcome.shard == si) {
            s.outcome.completed = false;
            s.ran_on = None;
        }
    }
    let mut output = reduce_output(plan, &run.buffers, mode);
    if let Some(host_m) = run.host_acc.and_then(|acc| acc.lock().take()) {
        output.axpy(1.0, &host_m);
    }
    // Units iterate in shard order, so each device's list comes out sorted.
    let mut device_shards: Vec<Vec<usize>> = vec![Vec::new(); devs.len()];
    let (mut completed_items, mut replaced_items) = (run.residues_done, 0);
    for s in run.units.values() {
        if let Some(d) = s.ran_on {
            if device_shards[d].last() != Some(&s.outcome.shard) {
                device_shards[d].push(s.outcome.shard);
            }
            completed_items += 1;
            replaced_items += usize::from(d != s.origin);
        }
    }
    let reduction_s = match &plan.cluster {
        Some(cluster) if moved => {
            let mut assignment = vec![Vec::new(); devs.len()];
            for (si, d) in owner.iter().enumerate() {
                if let Some(d) = d {
                    assignment[*d].push(si);
                }
            }
            cluster.reduction_s(&assignment)
        }
        _ => plan.reduction_s,
    };
    let device_timelines: Vec<Timeline> =
        devs.iter_mut().map(|s| std::mem::take(&mut s.timeline)).collect();
    ExecOutcome {
        shard_outputs: per_job_outputs(plan, &run.buffers, mode),
        output,
        trace: PlanTrace::from_timelines(&device_timelines),
        timeline: device_timelines.first().cloned().unwrap_or_default(),
        device_timelines,
        device_shards,
        reduction_s,
        total_items: run.units.len() + run.residues,
        completed_items,
        outcomes: run.units.into_values().map(|s| s.outcome).collect(),
        retries: faults.map_or(0, |f| f.retries),
        replaced_items,
        dead_devices: devs.iter().filter(|s| s.dead).map(|s| s.id).collect(),
        mem: devs.iter().map(|s| s.stats).collect(),
    }
}

/// Places orphaned shard groups onto the survivors by the cluster
/// policy's strategy: round-robin, or LPT on the projected finish
/// (current clock + group H2D bytes of an order-`order` tensor / speed
/// proxy). Returns `(device, shard, units)` triples.
fn place(
    cluster: &dyn ClusterPolicy,
    survivors: &[usize],
    clocks: &[f64],
    order: usize,
    by_shard: BTreeMap<usize, Vec<WorkUnit>>,
) -> Vec<(usize, usize, Vec<WorkUnit>)> {
    match cluster.strategy() {
        PlaceStrategy::RoundRobin => by_shard
            .into_iter()
            .enumerate()
            .map(|(k, (si, units))| (survivors[k % survivors.len()], si, units))
            .collect(),
        PlaceStrategy::Lpt => {
            let speeds: Vec<f64> =
                survivors.iter().map(|&d| cluster.speed_proxy(d) * 1e9).collect();
            let mut load: Vec<f64> = survivors.iter().map(|&d| clocks[d]).collect();
            let bytes = |units: &[WorkUnit]| {
                units.iter().map(|u| u.seg.byte_size(order)).sum::<usize>() as f64
            };
            let mut groups: Vec<(usize, Vec<WorkUnit>)> = by_shard.into_iter().collect();
            groups.sort_by(|a, b| bytes(&b.1).total_cmp(&bytes(&a.1)).then(a.0.cmp(&b.0)));
            groups
                .into_iter()
                .map(|(si, units)| {
                    let finish: Vec<f64> =
                        (0..survivors.len()).map(|k| load[k] + bytes(&units) / speeds[k]).collect();
                    let best = (0..survivors.len())
                        .min_by(|&a, &b| finish[a].total_cmp(&finish[b]).then(a.cmp(&b)))
                        .expect("survivors is non-empty");
                    load[best] = finish[best];
                    (survivors[best], si, units)
                })
                .collect()
        }
    }
}

fn reduce_output(plan: &Plan, buffers: &[Arc<AtomicF32Buffer>], mode: ExecMode) -> Mat {
    match mode {
        ExecMode::Dry => Mat::zeros(plan.rows, plan.rank),
        ExecMode::Functional => match plan.reduce {
            Reduce::Single => Mat::from_vec(plan.rows, plan.rank, buffers[0].to_vec()),
            Reduce::FoldShards => fold_shards(&plan.shards, buffers, plan.rows, plan.rank),
            // Per-job plans never fold: the canonical output is the group
            // lead's (shard 0); the full set returns via `shard_outputs`.
            Reduce::PerJob => Mat::from_vec(plan.rows, plan.rank, buffers[0].to_vec()),
        },
    }
}

/// Materializes every per-shard buffer as its own output matrix — the
/// per-job results of a [`Reduce::PerJob`] plan. Empty unless the run is
/// functional and the plan is per-job.
fn per_job_outputs(plan: &Plan, buffers: &[Arc<AtomicF32Buffer>], mode: ExecMode) -> Vec<Mat> {
    if mode != ExecMode::Functional || plan.reduce != Reduce::PerJob {
        return Vec::new();
    }
    buffers.iter().map(|b| Mat::from_vec(plan.rows, plan.rank, b.to_vec())).collect()
}

/// Host-side fold of the per-shard partial outputs, in shard-index order.
/// Slice-aligned shards copy their disjoint row blocks (bit-preserving);
/// row-overlapping shards sum in a deterministic shard-ordered
/// accumulation.
fn fold_shards(
    shards: &[ShardDesc],
    buffers: &[Arc<AtomicF32Buffer>],
    rows: usize,
    rank: usize,
) -> Mat {
    let mut out = Mat::zeros(rows, rank);
    for shard in shards {
        let partial = buffers[shard.index].to_vec();
        match shard.rows {
            Some((lo, hi)) => {
                for r in lo as usize..=hi as usize {
                    out.row_mut(r).copy_from_slice(&partial[r * rank..(r + 1) * rank]);
                }
            }
            None => out.axpy(1.0, &Mat::from_vec(rows, rank, partial)),
        }
    }
    out
}
