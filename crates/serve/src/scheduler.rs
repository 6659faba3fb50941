//! The dispatch engine: a discrete-event loop that admits arriving jobs
//! (token-bucket rate limits, bounded queue, makespan budget), orders the
//! queue (WFQ across tenants → SLO-aware EDF within), and dispatches
//! *batch groups* — compatible queued jobs fused into one ScheduleIR plan
//! per [`crate::batch`] — onto the earliest-free active device of the
//! pool, growing and shrinking the active set via [`crate::autoscale`].
//!
//! Time is the simulated clock shared with the gpusim substrate: arrivals
//! carry simulated timestamps, service times come out of the fused plan's
//! interpreted timeline, and planning costs use the calibrated constants
//! below — so a serving run is bit-reproducible from its workload.

use crate::admission::{estimate_service_s, RejectReason, Rejected};
use crate::autoscale::Autoscaler;
use crate::batch::BatchGroup;
use crate::job::MttkrpJob;
use crate::plan_cache::PlanCache;
use crate::queue::{Pending, QosQueues, TokenBucket};
use crate::report::{JobRecord, ServeReport};
use crate::ScalFragServer;
use scalfrag_autotune::prefer_batched;
use scalfrag_core::PhaseTiming;
use scalfrag_exec::run_plan;
use scalfrag_faults::{DeviceHealth, FaultInjector, OpClass, OpVerdict, RecoveryAction};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig, SpanKind};
use scalfrag_kernels::SegmentStats;
use scalfrag_linalg::Mat;
use scalfrag_opt::Pipeline;
use scalfrag_pipeline::{lower_batched_plan, BatchedJobSpec, ExecMode, KernelChoice};
use scalfrag_tensor::{CooTensor, FeatureKey, TensorFeatures};
use std::collections::HashMap;
use std::sync::Arc;

/// Simulated cost of a plan-cache miss (s): predictor inference over the
/// launch space. Calibrated to the paper's "inference < 1 % of an MTTKRP"
/// bound at the small end of the workload range; the value is pinned by
/// `GOLDEN_SERVE_FINGERPRINT` and the benchmark's modelled digests.
pub const PLAN_MISS_S: f64 = 1.5e-4;

/// Simulated cost of a plan-cache hit (s): one hash lookup.
pub const PLAN_HIT_S: f64 = 1.0e-6;

/// Worker streams of every fused dispatch plan — the Fig. 11 operating
/// point.
const STREAMS: usize = 4;

/// Plan-cache capacity (shape classes) of a cold-started server.
const CACHE_CAPACITY: usize = 256;

/// The set of simulated devices jobs dispatch onto. Each device runs one
/// batch group at a time; the scheduler always hands the next group to
/// the *active* device that frees earliest (with autoscaling off, every
/// device is active).
#[derive(Clone, Debug)]
pub struct DevicePool {
    devices: Vec<DeviceSpec>,
}

impl DevicePool {
    /// A pool of explicitly listed (possibly heterogeneous) devices.
    pub fn from_devices(devices: Vec<DeviceSpec>) -> Self {
        assert!(!devices.is_empty(), "a pool needs at least one device");
        Self { devices }
    }

    /// A single-device pool.
    pub fn single(device: DeviceSpec) -> Self {
        Self::from_devices(vec![device])
    }

    /// A pool of `n` identical devices.
    pub fn homogeneous(device: DeviceSpec, n: usize) -> Self {
        assert!(n > 0, "a pool needs at least one device");
        Self::from_devices(vec![device; n])
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// The devices, in dispatch-preference order.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// The device plans are made against (the first — the cache stores one
    /// launch config per shape class, validated per executing device at
    /// dispatch).
    pub fn planning_device(&self) -> &DeviceSpec {
        &self.devices[0]
    }
}

/// Memoized per-(tensor handle, mode) planning artifacts. Feature
/// extraction, mode-sorting and segment statistics are O(nnz), and a
/// serving workload cycles a small catalog of tensor handles over
/// millions of jobs — the memo makes repeat planning O(1). Keys are raw
/// `Arc` addresses, which is sound here because the job stream keeps
/// every tensor alive for the whole run and the maps are only probed,
/// never iterated.
#[derive(Default)]
struct PlannerMemo {
    features: HashMap<(usize, usize), TensorFeatures>,
    /// The mode-sorted copy and its whole-tensor statistics — what a
    /// job's one launch in a fused plan covers and is priced from.
    sorted: HashMap<(usize, usize), (Arc<CooTensor>, SegmentStats)>,
}

impl PlannerMemo {
    fn features_of(&mut self, job: &MttkrpJob) -> &TensorFeatures {
        self.features
            .entry((Arc::as_ptr(&job.tensor) as usize, job.mode))
            .or_insert_with(|| TensorFeatures::extract(&job.tensor, job.mode))
    }

    /// The job's entry in a fused plan: its sorted copy plus statistics.
    fn batched_job(&mut self, job: &MttkrpJob) -> (BatchedJobSpec, SegmentStats) {
        let (tensor, stats) =
            self.sorted.entry((Arc::as_ptr(&job.tensor) as usize, job.mode)).or_insert_with(|| {
                let sorted = job.tensor.sorted_for_mode(job.mode);
                let stats = SegmentStats::compute(&sorted, job.mode);
                (Arc::new(sorted), stats)
            });
        (BatchedJobSpec { id: job.id, tensor: Arc::clone(tensor) }, *stats)
    }
}

impl ScalFragServer {
    /// Serves a whole job stream to completion and reports.
    ///
    /// Jobs are processed in arrival order (the stream is sorted by
    /// arrival time, ties broken by id, so callers may submit in any
    /// order). The loop interleaves two event kinds in simulated-time
    /// order: *arrivals* (rate limiting + admission control) and
    /// *dispatches* (queue pop → batch-group formation → fused plan →
    /// interpret on the earliest-free active device).
    pub fn run(&self, jobs: Vec<MttkrpJob>) -> ServeReport {
        self.serve(jobs, None)
    }

    /// Serves a job stream under injected faults: the same event loop as
    /// [`ScalFragServer::run`], with the injector polled at every
    /// scheduling decision.
    ///
    /// * **Dispatch** polls [`FaultInjector::on_op`] before the group
    ///   forms: a down device parks until it heals (forever, if the
    ///   failure is permanent) and the lead reroutes; an aborted kernel
    ///   charges the group's full service time and every member fails
    ///   over.
    /// * **Mid-service failures** ([`FaultInjector::fail_between`]) kill
    ///   the in-flight group at the fault time and requeue each member
    ///   (counted in [`ServeReport::resubmissions`]) while it has retry
    ///   budget ([`crate::ServerConfig::max_retries`]); past the budget a
    ///   member is rejected with [`RejectReason::DeviceFailure`].
    /// * **Stragglers** execute against a derated
    ///   [`DeviceSpec`](scalfrag_gpusim::DeviceSpec::derated).
    /// * **Admission degrades** with pool health: down devices shrink the
    ///   makespan budget via [`crate::AdmissionPolicy::degraded`].
    ///
    /// Given the same workload and fault plan the run is bit-reproducible,
    /// injector log included.
    pub fn run_with_faults(
        &self,
        jobs: Vec<MttkrpJob>,
        injector: &mut FaultInjector,
    ) -> ServeReport {
        self.serve(jobs, Some(injector))
    }

    fn serve(
        &self,
        mut jobs: Vec<MttkrpJob>,
        mut injector: Option<&mut FaultInjector>,
    ) -> ServeReport {
        jobs.sort_by(|a, b| {
            a.arrival_s.partial_cmp(&b.arrival_s).expect("finite arrivals").then(a.id.cmp(&b.id))
        });
        let mut completed: Vec<JobRecord> = Vec::with_capacity(jobs.len());
        let mut arrivals = jobs.into_iter().peekable();
        // The optimizer pipeline every dispatch's fused plan runs through.
        let passes = scalfrag_opt::default_pipeline();
        let num_devices = self.pool.num_devices();
        let max_retries = self.config.max_retries;
        let batch_window = self.config.batch_window_s.max(0.0);
        let mut free_at = vec![0.0f64; num_devices];
        let mut autoscaler = self.config.autoscale.map(Autoscaler::new);
        let mut active = match &autoscaler {
            Some(a) => a.initial_active(num_devices),
            None => vec![true; num_devices],
        };
        let mut queue = QosQueues::with_weights(&self.config.qos.tenant_weights);
        let mut buckets: HashMap<String, TokenBucket> = HashMap::new();
        let mut cache = match &self.config.warm_snapshot {
            Some(snap) => PlanCache::restore(snap)
                .expect("ServerConfig::warm_snapshot is not a valid plan-cache snapshot"),
            None => PlanCache::new(CACHE_CAPACITY),
        };
        let mut memo = PlannerMemo::default();
        let mut rejected: Vec<Rejected> = Vec::new();
        // Resubmitted jobs, sorted descending by (arrival, id, attempt) so
        // `pop()` yields the earliest; `job.arrival_s` is the resubmission
        // time, so these merge into the arrival stream like fresh jobs.
        let mut resubmit: Vec<(MttkrpJob, u32)> = Vec::new();
        let mut seq = 0u64;
        let mut resubmissions = 0usize;
        let mut dispatch_groups = 0usize;
        let mut timing_inconsistencies = 0usize;
        let mut first_inconsistent_job = None;

        while arrivals.peek().is_some() || !resubmit.is_empty() || !queue.is_empty() {
            let (dev, dev_free) = earliest_free_active(&free_at, &active);
            // The next submission event across fresh arrivals and pending
            // resubmissions (earlier time wins, then lower id).
            let fresh = arrivals.peek().map(|j| (j.arrival_s, j.id));
            let resub = resubmit.last().map(|(j, _)| (j.arrival_s, j.id));
            let take_fresh = match (fresh, resub) {
                (Some(f), Some(r)) => f <= r,
                (Some(_), None) => true,
                _ => false,
            };
            let arrival_s = if take_fresh { fresh.map(|f| f.0) } else { resub.map(|r| r.0) };
            // Admit every submission that lands before the next dispatch
            // can happen — admission state must be current when the queue
            // pops. `batch_window_s` stretches the horizon so near-future
            // arrivals may still join the group about to form (the members
            // already ready are charged the wait as `batch_wait_s`).
            let arrival_due =
                arrival_s.is_some_and(|t| queue.is_empty() || t <= dev_free + batch_window);
            if arrival_due {
                let (job, attempt) = if take_fresh {
                    (arrivals.next().expect("fresh event implies a pending arrival"), 1)
                } else {
                    resubmit.pop().expect("resub event implies non-empty resubmit list")
                };
                let now = job.arrival_s;
                if let Some(a) = autoscaler.as_mut() {
                    a.step(now, queue.len(), &mut active, &mut free_at);
                }
                // Per-tenant token bucket: the QoS gate in front of the
                // shared admission gate.
                if let Some(rate) = self.config.qos.rate_jobs_per_s {
                    if !buckets.contains_key(&job.tenant) {
                        let bucket = TokenBucket::new(rate, self.config.qos.burst);
                        buckets.insert(job.tenant.clone(), bucket);
                    }
                    let bucket = buckets.get_mut(&job.tenant).expect("inserted above");
                    if let Err(retry_after_s) = bucket.try_acquire(now) {
                        if attempt <= max_retries {
                            let mut job = job;
                            job.arrival_s += retry_after_s;
                            resubmissions += 1;
                            push_resubmission(&mut resubmit, job, attempt + 1);
                        } else {
                            rejected.push(Rejected {
                                job_id: job.id,
                                tenant: job.tenant.clone(),
                                reason: RejectReason::RateLimited { rate_jobs_per_s: rate },
                                retry_after_s,
                                arrival_s: now,
                            });
                        }
                        continue;
                    }
                }
                let est = estimate_service_s(
                    job.transfer_bytes(),
                    job.rank(),
                    self.pool.planning_device(),
                );
                let n_active = active.iter().filter(|a| **a).count().max(1);
                let residual: f64 = free_at
                    .iter()
                    .zip(&active)
                    .filter(|(_, a)| **a)
                    .map(|(&f, _)| if f.is_finite() { (f - now).max(0.0) } else { 0.0 })
                    .sum();
                let wait_est = (residual + queue.backlog_s()) / n_active as f64;
                let mean_queued =
                    if queue.is_empty() { est } else { queue.backlog_s() / queue.len() as f64 };
                let policy = match injector.as_deref_mut() {
                    Some(inj) => {
                        let healthy = (0..num_devices)
                            .filter(|&d| {
                                !matches!(inj.health_at(d, now), DeviceHealth::Down { .. })
                            })
                            .count();
                        self.config.admission.degraded(healthy, num_devices)
                    }
                    None => self.config.admission,
                };
                match policy.admit(queue.len(), wait_est, mean_queued) {
                    Ok(()) => {
                        let key =
                            FeatureKey::quantize(memo.features_of(&job), job.mode, job.rank());
                        queue.push(Pending { job, seq, est_s: est, attempt, key });
                        seq += 1;
                    }
                    Err((_reason, retry_after_s)) if attempt <= max_retries => {
                        let mut job = job;
                        job.arrival_s += retry_after_s;
                        resubmissions += 1;
                        push_resubmission(&mut resubmit, job, attempt + 1);
                    }
                    Err((reason, retry_after_s)) => rejected.push(Rejected {
                        job_id: job.id,
                        tenant: job.tenant.clone(),
                        reason,
                        retry_after_s,
                        arrival_s: job.arrival_s,
                    }),
                }
            } else {
                let lead = queue.pop().expect("dispatch branch implies non-empty queue");
                let lead_ready = dev_free.max(lead.job.arrival_s);
                if !lead_ready.is_finite() {
                    // Every active device is permanently down: drain the
                    // queue into final rejections rather than spinning.
                    rejected.push(Rejected {
                        job_id: lead.job.id,
                        tenant: lead.job.tenant.clone(),
                        reason: RejectReason::DeviceFailure { device: dev },
                        retry_after_s: f64::INFINITY,
                        arrival_s: lead.job.arrival_s,
                    });
                    continue;
                }
                let mut aborted = false;
                let mut spec = self.pool.devices()[dev].clone();
                if let Some(inj) = injector.as_deref_mut() {
                    match inj.on_op(dev, OpClass::Kernel, lead_ready) {
                        OpVerdict::DeviceDown { until_s } => {
                            // The group never formed: park the device until
                            // it heals and reroute the lead untouched.
                            free_at[dev] = until_s.unwrap_or(f64::INFINITY);
                            inj.record_recovery(
                                dev,
                                lead_ready,
                                RecoveryAction::Requeue { job: lead.job.id },
                            );
                            queue.push(lead);
                            continue;
                        }
                        OpVerdict::Aborted => aborted = true,
                        OpVerdict::Ok | OpVerdict::Corrupted => {}
                    }
                    if let DeviceHealth::Straggling { derate } = inj.health_at(dev, lead_ready) {
                        spec = spec.derated(derate);
                    }
                }
                // Group formation: drain the queue's compatible followers
                // behind the QoS pick, capped by `max_batch` — unless the
                // arm decision says this shape gains nothing from fusing.
                let max_batch = self.config.max_batch.max(1);
                let fuse = max_batch > 1
                    && prefer_batched(
                        lead.job.factors.byte_size(),
                        lead.job.tensor.byte_size(),
                        max_batch,
                    );
                let members = if fuse {
                    let mut members =
                        queue.drain_compatible(max_batch - 1, |p| BatchGroup::compatible(&lead, p));
                    members.insert(0, lead);
                    members
                } else {
                    vec![lead]
                };
                let mut group = BatchGroup::new(members);
                let group_start = group.group_start(dev_free);
                let run = self.execute_group(&group, &spec, &mut cache, &mut memo, &passes);
                let group_finish = group_start + run.plan_s + run.makespan;
                let failure = match injector.as_deref_mut() {
                    Some(inj) if !aborted => inj.fail_between(dev, group_start, group_finish),
                    _ => None,
                };
                if aborted || failure.is_some() {
                    // An abort charges the full (wasted) service time but
                    // leaves the device up; a mid-service device failure
                    // kills the whole group at the fault time and takes
                    // the device with it until it heals.
                    let (fail_s, free_again_s) = match failure {
                        Some((t, until_s)) => (t, until_s.unwrap_or(f64::INFINITY)),
                        None => (group_finish, group_finish),
                    };
                    free_at[dev] = free_again_s.max(fail_s);
                    for m in group.members {
                        if m.attempt <= max_retries {
                            if let Some(inj) = injector.as_deref_mut() {
                                inj.record_recovery(
                                    dev,
                                    fail_s,
                                    RecoveryAction::Requeue { job: m.job.id },
                                );
                            }
                            let mut job = m.job;
                            job.arrival_s = fail_s;
                            resubmissions += 1;
                            push_resubmission(&mut resubmit, job, m.attempt + 1);
                        } else {
                            rejected.push(Rejected {
                                job_id: m.job.id,
                                tenant: m.job.tenant.clone(),
                                reason: RejectReason::DeviceFailure { device: dev },
                                retry_after_s: (free_again_s - fail_s).max(1e-6),
                                arrival_s: fail_s,
                            });
                        }
                    }
                    continue;
                }
                let served = completed.len();
                run.complete(&mut group, dev, dev_free, &mut completed);
                for r in &completed[served..] {
                    if r.timing.check_consistency().is_err() {
                        timing_inconsistencies += 1;
                        first_inconsistent_job.get_or_insert(r.id);
                    }
                }
                dispatch_groups += 1;
                free_at[dev] = group_finish;
                if let Some(a) = autoscaler.as_mut() {
                    a.step(group_start, queue.len(), &mut active, &mut free_at);
                }
            }
        }

        let makespan_s = completed.iter().map(|r| r.finish_s).fold(0.0, f64::max);
        let (device_attaches, device_detaches) = match &autoscaler {
            Some(a) => (a.attaches(), a.detaches()),
            None => (0, 0),
        };
        let cache_snapshot = self.config.snapshot_cache.then(|| cache.snapshot());
        ServeReport {
            completed,
            rejected,
            cache: cache.stats(),
            makespan_s,
            peak_queue_depth: queue.peak_depth(),
            predictor_trainings: self.predictor.trainings(),
            resubmissions,
            dispatch_groups,
            device_attaches,
            device_detaches,
            timing_inconsistencies,
            first_inconsistent_job,
            cache_snapshot,
        }
    }

    /// Picks one shape class's launch configuration: cache lookup on the
    /// quantized feature key, falling back to predictor inference (§IV-B)
    /// on a miss. One call covers a whole batch group — its members share
    /// the key by construction. Returns `(config, cache_hit, plan_s)`.
    fn plan(
        &self,
        job: &MttkrpJob,
        cache: &mut PlanCache,
        memo: &mut PlannerMemo,
    ) -> (LaunchConfig, bool, f64) {
        let key = FeatureKey::quantize(memo.features_of(job), job.mode, job.rank());
        if self.config.plan_caching {
            if let Some(config) = cache.get(&key) {
                return (config, true, PLAN_HIT_S);
            }
        } else {
            cache.count_bypass();
        }
        let features = memo.features_of(job).to_vec();
        let config = self.predictor.for_rank(job.rank()).predict_from_features(&features);
        if self.config.plan_caching {
            cache.insert(key, config);
        }
        (config, false, PLAN_MISS_S)
    }

    /// Executes one batch group on the pool device whose spec is `device` —
    /// normally the pool's, but a straggling device passes a derated copy.
    ///
    /// The group becomes **one** fused ScheduleIR plan
    /// ([`lower_batched_plan`], with each member's sorted copy and
    /// statistics from the memo): the shared factor set crosses PCIe once,
    /// then each member's tensor staging, kernel and output return run as
    /// independent `job{id}`-labelled spans cycling the worker streams.
    /// `passes` (the `scalfrag-opt` default pipeline, bit-identical passes
    /// only, built once per served stream) edits the fused plan in place
    /// before interpretation, exactly like the registered `serve-batched`
    /// builder the conformance suite pins.
    ///
    /// Per-member phase accounting reads the interpreted trace back:
    /// `job{id}`-labelled spans bill that member; the remaining H2D time —
    /// the shared factor upload, plus whatever staging copy an optimizer
    /// pass folded into it — is kept apart for [`GroupRun::complete`] to
    /// split.
    fn execute_group(
        &self,
        group: &BatchGroup,
        device: &DeviceSpec,
        cache: &mut PlanCache,
        memo: &mut PlannerMemo,
        passes: &Pipeline,
    ) -> GroupRun {
        let lead = &group.lead().job;
        let (config, cache_hit, plan_s) = self.plan(lead, cache, memo);
        // A cached config may have been made against a bigger card; fall
        // back to the heuristic rather than launching an invalid one.
        let config = if config.validate(device).is_ok() {
            config
        } else {
            LaunchConfig::parti_default(lead.tensor.nnz())
        };

        let jobs: Vec<_> = group.members.iter().map(|m| memo.batched_job(&m.job)).collect();
        let mut fused = lower_batched_plan(
            device,
            &jobs,
            Arc::clone(&lead.factors),
            lead.mode,
            config,
            KernelChoice::Tiled,
            STREAMS,
        );
        passes.rewrite(&mut fused);
        let exec = if self.config.functional { ExecMode::Functional } else { ExecMode::Dry };
        let outcome = run_plan(&fused, exec);

        let mut phases = vec![Phases::default(); group.size()];
        let (mut shared_h2d, mut makespan) = (0.0f64, 0.0f64);
        for e in &outcome.trace.events {
            makespan = makespan.max(e.end);
            let dur = e.end - e.start;
            let member = job_of_label(&e.label)
                .and_then(|id| group.members.iter().position(|m| m.job.id == id));
            match member {
                Some(j) => {
                    let p = &mut phases[j];
                    match e.kind {
                        SpanKind::CopyH2D => p.h2d_s += dur,
                        SpanKind::Kernel => p.kernel_s += dur,
                        SpanKind::CopyD2H => p.d2h_s += dur,
                        SpanKind::HostTask => {}
                    }
                    p.end_s = p.end_s.max(e.end);
                }
                None => {
                    if e.kind == SpanKind::CopyH2D {
                        shared_h2d += dur;
                    }
                }
            }
        }
        GroupRun { cache_hit, plan_s, phases, shared_h2d, makespan, outputs: outcome.shard_outputs }
    }
}

/// One member's simulated phase seconds on its fused plan.
#[derive(Clone, Copy, Default)]
struct Phases {
    h2d_s: f64,
    kernel_s: f64,
    d2h_s: f64,
    /// The end of the member's last span.
    end_s: f64,
}

/// One interpreted batch group, before its members become records.
struct GroupRun {
    cache_hit: bool,
    plan_s: f64,
    /// Per member, in member order.
    phases: Vec<Phases>,
    /// H2D time no member's label claims: the shared factor upload.
    shared_h2d: f64,
    makespan: f64,
    /// Per-member outputs (functional runs only).
    outputs: Vec<Mat>,
}

impl GroupRun {
    /// Appends the served group's member records to `completed`. The shared
    /// H2D time is split across members proportionally to their tensor
    /// payload bytes. A member's `total_s` is its own last span's end on
    /// the plan timeline, so per-engine bounds keep holding; planning time
    /// is charged once to the group and shown as an equal per-member share
    /// (`plan_s / size`), keeping `total_plan_s` an honest sum. The
    /// members' tenant names and outputs move into their records.
    fn complete(
        self,
        group: &mut BatchGroup,
        dev: usize,
        dev_free: f64,
        completed: &mut Vec<JobRecord>,
    ) {
        let n = group.size();
        let group_start = group.group_start(dev_free);
        let total_bytes = group.total_tensor_bytes() as f64;
        let plan_share = self.plan_s / n as f64;
        let mut outputs = self.outputs.into_iter();
        for (j, p) in self.phases.iter().enumerate() {
            let t_ready = group.t_ready(j, dev_free);
            let batch_wait_s = group.batch_wait_s(j, dev_free);
            let m = &mut group.members[j];
            let share = if total_bytes > 0.0 {
                m.job.tensor.byte_size() as f64 / total_bytes
            } else {
                1.0 / n as f64
            };
            let timing = PhaseTiming {
                h2d_s: p.h2d_s + self.shared_h2d * share,
                kernel_s: p.kernel_s,
                d2h_s: p.d2h_s,
                host_s: 0.0,
                queue_s: (t_ready - m.job.arrival_s).max(0.0),
                batch_wait_s,
                total_s: p.end_s,
            };
            completed.push(JobRecord {
                id: m.job.id,
                tenant: std::mem::take(&mut m.job.tenant),
                priority: m.job.priority,
                device: dev,
                arrival_s: m.job.arrival_s,
                start_s: t_ready,
                finish_s: group_start + self.plan_s + p.end_s,
                plan_s: plan_share,
                cache_hit: self.cache_hit,
                timing,
                deadline_s: m.job.deadline_s,
                attempt: m.attempt,
                group_size: n,
                output: outputs.next(),
            });
        }
    }
}

/// Parses the member id out of a fused-plan op label — the `"job{id} …"`
/// labelling contract of [`lower_batched_plan`]. Labels without the
/// prefix (the shared factor upload) return `None`.
fn job_of_label(label: &str) -> Option<u64> {
    let rest = label.strip_prefix("job")?;
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Inserts a resubmission keeping the list sorted descending by
/// (arrival, id, attempt), so `pop()` always yields the earliest event
/// deterministically.
fn push_resubmission(resubmit: &mut Vec<(MttkrpJob, u32)>, job: MttkrpJob, attempt: u32) {
    resubmit.push((job, attempt));
    resubmit.sort_by(|(a, aa), (b, ba)| {
        b.arrival_s
            .partial_cmp(&a.arrival_s)
            .expect("finite resubmission times")
            .then(b.id.cmp(&a.id))
            .then(ba.cmp(aa))
    });
}

/// Index and free-time of the earliest-free *active* device (lowest index
/// wins ties, deterministically). The active set never empties: with
/// autoscaling off it is the whole pool, and the autoscaler floors the
/// shrink at `min_devices ≥ 1`.
fn earliest_free_active(free_at: &[f64], active: &[bool]) -> (usize, f64) {
    let mut best: Option<usize> = None;
    for (i, (&t, &a)) in free_at.iter().zip(active).enumerate() {
        if a && best.is_none_or(|b| t < free_at[b]) {
            best = Some(i);
        }
    }
    let b = best.expect("the active device set never empties");
    (b, free_at[b])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_constructors() {
        let p = DevicePool::homogeneous(DeviceSpec::rtx3090(), 3);
        assert_eq!(p.num_devices(), 3);
        assert_eq!(p.planning_device().name, DeviceSpec::rtx3090().name);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_pool_rejected() {
        let _ = DevicePool::from_devices(Vec::new());
    }

    #[test]
    fn earliest_free_active_prefers_lowest_index_and_skips_inactive() {
        assert_eq!(earliest_free_active(&[1.0, 1.0, 0.5], &[true; 3]), (2, 0.5));
        assert_eq!(earliest_free_active(&[1.0, 1.0], &[true; 2]), (0, 1.0));
        assert_eq!(
            earliest_free_active(&[1.0, 0.5], &[true, false]),
            (0, 1.0),
            "a parked device must never win dispatch"
        );
    }

    #[test]
    fn job_labels_parse_back_to_member_ids() {
        assert_eq!(job_of_label("job17 H2D (600 nnz)"), Some(17));
        assert_eq!(job_of_label("job3 kernel"), Some(3));
        assert_eq!(job_of_label("job900 output D2H"), Some(900));
        assert_eq!(job_of_label("factors H2D"), None);
        assert_eq!(job_of_label("job H2D"), None, "no digits, no member");
    }

    mod batched {
        use crate::admission::AdmissionPolicy;
        use crate::autoscale::AutoscalePolicy;
        use crate::queue::QosConfig;
        use crate::scheduler::DevicePool;
        use crate::workload::{synthesize, WorkloadSpec};
        use crate::{RejectReason, ScalFragServer, ServerConfig};
        use scalfrag_gpusim::DeviceSpec;

        /// A near-simultaneous burst of one shape class: everything is
        /// batch-compatible and the queue backs up behind one device.
        fn burst_spec(jobs: usize) -> WorkloadSpec {
            WorkloadSpec {
                jobs,
                tenants: 2,
                shape_classes: 1,
                variants_per_class: 1,
                base_nnz: 3_000,
                mean_interarrival_s: 1e-6,
                ..Default::default()
            }
        }

        fn loose() -> AdmissionPolicy {
            AdmissionPolicy { max_queue_depth: 256, makespan_budget_s: 10.0 }
        }

        #[test]
        fn burst_of_compatible_jobs_fuses_into_groups() {
            let server =
                ScalFragServer::builder().admission(loose()).train_tiers(vec![3_000]).build();
            let report = server.run(synthesize(&burst_spec(16)));
            assert_eq!(report.completed.len(), 16);
            assert!(
                report.dispatch_groups < 16,
                "a same-class burst must fuse ({} groups for 16 jobs)",
                report.dispatch_groups
            );
            assert!(report.completed.iter().any(|r| r.group_size > 1));
            assert!(report.mean_batch_occupancy() > 1.0);
            // Window 0: every fused member was already queued when the
            // device freed, so nobody waits on the group forming.
            assert!(report.completed.iter().all(|r| r.timing.batch_wait_s == 0.0));
            for r in &report.completed {
                assert!(r.timing.check_consistency().is_ok(), "job {}: bad timing", r.id);
            }
        }

        #[test]
        fn batch_window_admits_late_members_and_charges_the_wait() {
            let config =
                ServerConfig { admission: loose(), batch_window_s: 2e-3, ..Default::default() };
            let server = ScalFragServer::builder().config(config).train_tiers(vec![3_000]).build();
            let spec = WorkloadSpec { mean_interarrival_s: 2e-4, ..burst_spec(16) };
            let report = server.run(synthesize(&spec));
            assert_eq!(report.completed.len(), 16);
            let waited: Vec<_> = report
                .completed
                .iter()
                .filter(|r| r.group_size > 1 && r.timing.batch_wait_s > 0.0)
                .collect();
            assert!(
                !waited.is_empty(),
                "a 2ms window must let late arrivals join and charge the early members"
            );
            for r in &report.completed {
                assert!(r.timing.check_consistency().is_ok(), "job {}: bad timing", r.id);
                assert!(
                    r.finish_s >= r.start_s + r.timing.batch_wait_s,
                    "job {}: the batch wait must be inside the service window",
                    r.id
                );
            }
        }

        /// Satellite regression: the shared factor upload is charged to
        /// the members in proportion to their tensor payloads. Member 0
        /// is excluded from the comparison — its own tensor upload sits
        /// next to the factors on worker stream 0, so `coalesce-h2d`
        /// folds it into the shared (proportionally split) pool; members
        /// 1+ keep their labelled uploads.
        #[test]
        fn shared_h2d_splits_proportionally_to_tensor_bytes() {
            use crate::job::MttkrpJob;
            use scalfrag_kernels::FactorSet;
            use scalfrag_tensor::CooTensor;
            use std::sync::Arc;

            let dims = [40u32, 30, 20];
            let factors = Arc::new(FactorSet::random(&dims, 8, 3));
            let job = |id: u64, t: &Arc<CooTensor>| {
                MttkrpJob::new(id, "acme", Arc::clone(t), Arc::clone(&factors), 0).at(0.0)
            };
            let serve_trio = |a: &Arc<CooTensor>, b: &Arc<CooTensor>, c: &Arc<CooTensor>| {
                let server =
                    ScalFragServer::builder().admission(loose()).train_tiers(vec![600]).build();
                let report = server.run(vec![job(0, a), job(1, b), job(2, c)]);
                assert_eq!(report.completed.len(), 3);
                assert!(
                    report.completed.iter().all(|r| r.group_size == 3),
                    "the simultaneous trio must fuse into one group"
                );
                let h2d =
                    |id: u64| report.completed.iter().find(|r| r.id == id).unwrap().timing.h2d_s;
                (h2d(1), h2d(2))
            };

            // Same tensor handle throughout: identical payloads, so the
            // shared upload splits exactly evenly. The durations are
            // differences of span times at different trace offsets, so
            // allow rounding in the last few bits.
            let t = Arc::new(CooTensor::random_uniform(&dims, 600, 1));
            let (ha, hb) = serve_trio(&t, &t, &t);
            assert!(
                (ha - hb).abs() <= 1e-9 * ha.max(hb),
                "equal payloads must split the shared upload evenly ({ha:.9e} vs {hb:.9e})"
            );

            // 600 vs 660 nnz (seed 1 lands both in one quarter-octave
            // bucket, so the trio still fuses): the 10 % bigger payload
            // must carry the strictly bigger H2D charge — its own upload
            // AND its share of the factors both scale with bytes.
            let big = Arc::new(CooTensor::random_uniform(&dims, 660, 1));
            let (hs, hbig) = serve_trio(&t, &t, &big);
            assert!(
                hbig > hs,
                "the bigger member must be charged more H2D ({hbig:.3e} vs {hs:.3e})"
            );
        }

        #[test]
        fn max_batch_one_disables_fusion() {
            let config = ServerConfig { admission: loose(), max_batch: 1, ..Default::default() };
            let server = ScalFragServer::builder().config(config).train_tiers(vec![3_000]).build();
            let report = server.run(synthesize(&burst_spec(12)));
            assert_eq!(report.completed.len(), 12);
            assert_eq!(report.dispatch_groups, 12, "max_batch=1 must dispatch solo groups");
            assert!(report.completed.iter().all(|r| r.group_size == 1));
        }

        #[test]
        fn batched_outputs_are_bit_identical_to_solo() {
            let run = |max_batch: usize| {
                let config = ServerConfig {
                    admission: loose(),
                    functional: true,
                    max_batch,
                    ..Default::default()
                };
                ScalFragServer::builder()
                    .config(config)
                    .train_tiers(vec![3_000])
                    .build()
                    .run(synthesize(&burst_spec(8)))
            };
            let solo = run(1);
            let fused = run(8);
            assert!(
                fused.completed.iter().any(|r| r.group_size > 1),
                "the fused run must actually batch"
            );
            for f in &fused.completed {
                let s = solo
                    .completed
                    .iter()
                    .find(|r| r.id == f.id)
                    .expect("both runs complete every job");
                let (fo, so) = (f.output.as_ref().unwrap(), s.output.as_ref().unwrap());
                assert_eq!(
                    fo.as_slice(),
                    so.as_slice(),
                    "job {}: fused output must be bit-identical to solo",
                    f.id
                );
            }
        }

        #[test]
        fn rate_limited_tenants_get_typed_rejections() {
            let config = ServerConfig {
                admission: loose(),
                qos: QosConfig {
                    rate_jobs_per_s: Some(10.0),
                    burst: 2.0,
                    tenant_weights: Vec::new(),
                },
                ..Default::default()
            };
            let server = ScalFragServer::builder().config(config).train_tiers(vec![3_000]).build();
            let report = server.run(synthesize(&burst_spec(20)));
            assert!(
                report.rate_limited_rejections() > 0,
                "a burst far past 10 jobs/s must trip the bucket"
            );
            assert!(report
                .rejected
                .iter()
                .any(|r| matches!(r.reason, RejectReason::RateLimited { rate_jobs_per_s } if rate_jobs_per_s == 10.0)));
            assert_eq!(report.completed.len() + report.rejected.len(), 20);
        }

        #[test]
        fn autoscaler_attaches_under_sustained_pressure() {
            let config = ServerConfig {
                admission: loose(),
                autoscale: Some(AutoscalePolicy {
                    min_devices: 1,
                    high_watermark: 4,
                    low_watermark: 1,
                    sustain_s: 1e-6,
                    attach_delay_s: 1e-4,
                }),
                ..Default::default()
            };
            let server = ScalFragServer::builder()
                .pool(DevicePool::homogeneous(DeviceSpec::rtx3090(), 2))
                .config(config)
                .train_tiers(vec![3_000])
                .build();
            let report = server.run(synthesize(&burst_spec(32)));
            assert_eq!(report.completed.len(), 32);
            assert!(report.device_attaches >= 1, "sustained backlog must grow the pool");
            assert!(
                report.completed.iter().any(|r| r.device == 1),
                "the attached device must take work"
            );
        }
    }

    mod faulted {
        use crate::admission::AdmissionPolicy;
        use crate::scheduler::DevicePool;
        use crate::workload::{synthesize, WorkloadSpec};
        use crate::{MttkrpJob, ScalFragServer};
        use scalfrag_faults::{FaultInjector, FaultKind, FaultPlan, FaultTrigger};
        use scalfrag_gpusim::DeviceSpec;

        fn jobs(n: usize) -> Vec<MttkrpJob> {
            synthesize(&WorkloadSpec {
                jobs: n,
                shape_classes: 2,
                variants_per_class: 1,
                base_nnz: 3_000,
                ..Default::default()
            })
        }

        fn server(devices: usize, max_retries: u32) -> ScalFragServer {
            ScalFragServer::builder()
                .pool(DevicePool::homogeneous(DeviceSpec::rtx3090(), devices))
                .admission(AdmissionPolicy { max_queue_depth: 64, makespan_budget_s: 10.0 })
                .train_tiers(vec![3_000])
                .max_retries(max_retries)
                .build()
        }

        #[test]
        fn permanent_device_failure_reroutes_onto_the_survivor() {
            let plan = FaultPlan::new().fault(
                0,
                FaultTrigger::AtTime(1e-3),
                FaultKind::DeviceFail { down_s: None },
            );
            let mut inj = FaultInjector::new(plan);
            let report = server(2, 2).run_with_faults(jobs(8), &mut inj);
            assert_eq!(report.completed.len(), 8, "retries must rescue every job");
            assert!(report.rejected.is_empty());
            for r in &report.completed {
                assert!(
                    r.device != 0 || r.finish_s < 1e-3,
                    "job {} finished on the dead device after the failure",
                    r.id
                );
            }
            assert_eq!(inj.log().injected(), 1);
        }

        #[test]
        fn rejection_retries_honour_the_backoff_hint() {
            let tight = AdmissionPolicy { max_queue_depth: 64, makespan_budget_s: 2e-4 };
            // A near-simultaneous burst: the backlog budget must reject
            // part of it, and retries pick the rejects up once it drains.
            let burst = || {
                synthesize(&WorkloadSpec {
                    jobs: 12,
                    shape_classes: 2,
                    variants_per_class: 1,
                    base_nnz: 3_000,
                    mean_interarrival_s: 2e-5,
                    ..Default::default()
                })
            };
            let base = ScalFragServer::builder().admission(tight).train_tiers(vec![3_000]).build();
            let no_retry = base.run(burst());
            let retry_server = ScalFragServer::builder()
                .admission(tight)
                .train_tiers(vec![3_000])
                .max_retries(3)
                .predictor(base.trained_predictor().clone())
                .build();
            let with_retry = retry_server.run(burst());
            assert!(!no_retry.rejected.is_empty(), "the tight budget must actually bite");
            assert_eq!(no_retry.resubmissions, 0, "max_retries=0 keeps rejections final");
            assert!(with_retry.resubmissions > 0, "retries must resubmit rejected jobs");
            assert_eq!(
                with_retry.completed.len() + with_retry.rejected.len(),
                12,
                "every job terminates exactly once"
            );
            assert!(
                with_retry.completed.len() > no_retry.completed.len(),
                "resubmitting after the backoff hint must rescue jobs ({} vs {})",
                with_retry.completed.len(),
                no_retry.completed.len()
            );
            assert!(with_retry.completed.iter().any(|r| r.attempt > 1));
        }

        #[test]
        fn straggler_stretches_the_makespan_but_serves_everything() {
            let healthy = server(1, 0).run(jobs(6));
            let mut inj = FaultInjector::new(FaultPlan::new().fault(
                0,
                FaultTrigger::AtTime(0.0),
                FaultKind::Straggler { derate: 3.0 },
            ));
            let slow = server(1, 0).run_with_faults(jobs(6), &mut inj);
            assert_eq!(slow.completed.len(), healthy.completed.len());
            assert!(
                slow.makespan_s > healthy.makespan_s,
                "a 3x straggler must stretch the makespan ({} vs {})",
                slow.makespan_s,
                healthy.makespan_s
            );
        }

        #[test]
        fn all_devices_dead_drains_into_device_failure_rejections() {
            let mut inj = FaultInjector::new(FaultPlan::new().fault(
                0,
                FaultTrigger::AtTime(0.0),
                FaultKind::DeviceFail { down_s: None },
            ));
            let report = server(1, 1).run_with_faults(jobs(5), &mut inj);
            assert!(report.completed.is_empty(), "a dead pool completes nothing");
            assert!(report.device_failure_rejections() >= 1);
            assert_eq!(report.completed.len() + report.rejected.len(), 5);
        }

        #[test]
        fn faulted_serving_is_bit_reproducible() {
            let plan = || {
                FaultPlan::new()
                    .fault(
                        0,
                        FaultTrigger::AtTime(8e-4),
                        FaultKind::DeviceFail { down_s: Some(2e-3) },
                    )
                    .fault(1, FaultTrigger::AtTime(0.0), FaultKind::Straggler { derate: 1.5 })
            };
            let mut a = FaultInjector::new(plan());
            let mut b = FaultInjector::new(plan());
            let ra = server(2, 2).run_with_faults(jobs(8), &mut a);
            let rb = server(2, 2).run_with_faults(jobs(8), &mut b);
            assert_eq!(ra.fingerprint(), rb.fingerprint(), "serve fingerprints must match");
            assert_eq!(
                a.log().fingerprint(),
                b.log().fingerprint(),
                "fault logs must be identical run to run"
            );
        }

        #[test]
        fn transient_outage_parks_the_device_until_it_heals() {
            let mut inj = FaultInjector::new(FaultPlan::new().fault(
                0,
                FaultTrigger::AtTime(5e-4),
                FaultKind::DeviceFail { down_s: Some(3e-3) },
            ));
            let report = server(1, 3).run_with_faults(jobs(6), &mut inj);
            assert_eq!(report.completed.len(), 6, "a transient outage must not lose jobs");
            assert!(
                report.makespan_s >= 5e-4 + 3e-3,
                "the makespan must cover the outage window, got {}",
                report.makespan_s
            );
            assert!(inj.log().recoveries() >= 1, "the requeue must be logged");
        }
    }
}
