//! Per-tenant QoS queueing: token-bucket rate limits, weighted fair
//! queueing across tenants, and SLO-aware EDF within a tenant.
//!
//! This replaces the original priority → round-robin → EDF chain with a
//! hierarchy a production serving tier would run:
//!
//! 1. **Token bucket** ([`TokenBucket`], applied at admission) — each
//!    tenant refills at a configured rate and may burst up to the bucket
//!    capacity; a dry bucket rejects with
//!    [`crate::RejectReason::RateLimited`] and a refill-time retry hint.
//! 2. **Weighted fair queueing** — the dispatcher picks the tenant with
//!    the smallest virtual start tag (start-time fair queueing over the
//!    admission-time service estimates), so a tenant's long-run share of
//!    device time tracks its configured weight regardless of how fast it
//!    submits.
//! 3. **SLO-aware EDF** — within the chosen tenant, the job whose SLO
//!    target expires first dispatches first. The target is the job's
//!    explicit deadline when it has one, otherwise `arrival +
//!    priority-class SLO budget` ([`HIGH_SLO_S`] / [`NORMAL_SLO_S`] /
//!    [`LOW_SLO_S`]) — priority thus *derives* urgency instead of
//!    preempting fairness outright.
//!
//! Everything is deterministic: virtual-time ties break on tenant name,
//! EDF ties on admission sequence.

use crate::job::{MttkrpJob, Priority};
use scalfrag_tensor::FeatureKey;
use std::collections::{BTreeMap, VecDeque};

/// SLO budget (s) a deadline-less `High` job is held to.
pub const HIGH_SLO_S: f64 = 5e-3;
/// SLO budget (s) a deadline-less `Normal` job is held to.
pub const NORMAL_SLO_S: f64 = 5e-2;
/// SLO budget (s) a deadline-less `Low` job is held to.
pub const LOW_SLO_S: f64 = 5e-1;

/// The absolute time (s) a job's SLO expires: its deadline if explicit,
/// otherwise arrival plus the priority-class budget.
pub fn slo_target_s(job: &MttkrpJob) -> f64 {
    let budget = match job.priority {
        Priority::High => HIGH_SLO_S,
        Priority::Normal => NORMAL_SLO_S,
        Priority::Low => LOW_SLO_S,
    };
    job.deadline_s.unwrap_or(job.arrival_s + budget)
}

/// A queued job plus its bookkeeping.
#[derive(Clone)]
pub struct Pending {
    /// The job itself.
    pub job: MttkrpJob,
    /// Admission sequence number (global FIFO tie-breaker).
    pub seq: u64,
    /// Admission-time service estimate (s) — drives the backlog account
    /// and the WFQ virtual clock.
    pub est_s: f64,
    /// 1-based submission attempt: 1 on first arrival, bumped each time a
    /// rejection or device failure sends the job back through admission.
    pub attempt: u32,
    /// The quantized planning/batching key, computed once at admission —
    /// group formation compares these instead of re-extracting features.
    pub key: FeatureKey,
}

/// Per-tenant token bucket: `rate` tokens/s refill up to `burst`
/// capacity; each admission takes one token.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_s: f64,
}

impl TokenBucket {
    /// A full bucket refilling at `rate` jobs/s with `burst` capacity.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0 && burst >= 1.0, "token bucket needs rate > 0 and burst >= 1");
        Self { rate, burst, tokens: burst, last_s: 0.0 }
    }

    /// Takes one token at simulated time `now`, or returns the time (s)
    /// until the next token materialises.
    pub fn try_acquire(&mut self, now: f64) -> Result<(), f64> {
        self.tokens = (self.tokens + (now - self.last_s).max(0.0) * self.rate).min(self.burst);
        self.last_s = self.last_s.max(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            Err((1.0 - self.tokens) / self.rate)
        }
    }
}

/// Per-tenant QoS configuration of a server.
#[derive(Clone, Debug)]
pub struct QosConfig {
    /// `Some(rate)` = cap every tenant at `rate` admitted jobs/s
    /// (token-bucket, [`QosConfig::burst`] deep). `None` = no rate limit.
    pub rate_jobs_per_s: Option<f64>,
    /// Token-bucket depth (jobs) — how far a tenant may burst past its
    /// sustained rate.
    pub burst: f64,
    /// WFQ weights per tenant; unlisted tenants weigh 1.0. A weight-2
    /// tenant receives twice the device share of a weight-1 tenant under
    /// contention.
    pub tenant_weights: Vec<(String, f64)>,
}

impl Default for QosConfig {
    fn default() -> Self {
        Self { rate_jobs_per_s: None, burst: 8.0, tenant_weights: Vec::new() }
    }
}

/// One tenant's queue and WFQ state.
struct TenantQueue {
    /// The tenant's pending jobs.
    jobs: VecDeque<Pending>,
    /// Virtual finish tag of the last service charged to the tenant.
    finish_vt: f64,
    /// WFQ weight.
    weight: f64,
}

impl TenantQueue {
    /// The tenant's WFQ start tag if it dispatched next.
    fn start_tag(&self, vtime: f64) -> f64 {
        vtime.max(self.finish_vt)
    }

    /// Removes the job at `idx` and advances the tenant's virtual finish
    /// tag by one service of it, scaled by the weight.
    fn take(&mut self, idx: usize, vtime: f64) -> Pending {
        let pending = self.jobs.remove(idx).expect("index in range");
        self.finish_vt = self.start_tag(vtime) + pending.est_s / self.weight;
        pending
    }
}

/// The multi-tenant QoS queue: WFQ across tenants, SLO-aware EDF within.
#[derive(Default)]
pub struct QosQueues {
    /// Every tenant seen so far, with its queue (possibly empty) and WFQ
    /// state. A tenant stays once seen, so queueing a job allocates
    /// nothing but queue growth (BTreeMap for deterministic iteration
    /// order).
    tenants: BTreeMap<String, TenantQueue>,
    /// Configured WFQ weights (absent = 1.0).
    weights: BTreeMap<String, f64>,
    /// Global virtual clock: the start tag of the last dispatch.
    vtime: f64,
    len: usize,
    peak_depth: usize,
    backlog_s: f64,
}

impl QosQueues {
    /// An empty queue set with uniform weights.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue set with explicit WFQ weights (unlisted tenants
    /// weigh 1.0; non-positive weights are rejected).
    pub fn with_weights(weights: &[(String, f64)]) -> Self {
        let mut q = Self::default();
        for (tenant, w) in weights {
            assert!(*w > 0.0, "WFQ weight for {tenant} must be positive");
            q.weights.insert(tenant.clone(), *w);
        }
        q
    }

    /// Total queued jobs across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no job is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Highest queue depth ever observed.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Sum of the service estimates of all queued jobs (s).
    pub fn backlog_s(&self) -> f64 {
        self.backlog_s
    }

    /// Enqueues an admitted job under its tenant.
    pub fn push(&mut self, pending: Pending) {
        self.backlog_s += pending.est_s;
        self.len += 1;
        self.peak_depth = self.peak_depth.max(self.len);
        match self.tenants.get_mut(&pending.job.tenant) {
            Some(t) => t.jobs.push_back(pending),
            None => {
                let weight = self.weights.get(&pending.job.tenant).copied().unwrap_or(1.0);
                let name = pending.job.tenant.clone();
                let jobs = VecDeque::from([pending]);
                self.tenants.insert(name, TenantQueue { jobs, finish_vt: 0.0, weight });
            }
        }
    }

    /// Books one job's removal from the queue totals.
    fn dequeued(&mut self, pending: &Pending) {
        self.len -= 1;
        self.backlog_s = (self.backlog_s - pending.est_s).max(0.0);
    }

    /// Dequeues the next job per the WFQ → SLO-EDF rule and charges its
    /// service to the tenant's virtual clock.
    pub fn pop(&mut self) -> Option<Pending> {
        if self.len == 0 {
            return None;
        }
        let vtime = self.vtime;
        // 1. WFQ: the queued tenant with the smallest start tag (name-ordered
        //    iteration makes ties deterministic).
        let (_, tenant) = self
            .tenants
            .iter_mut()
            .filter(|(_, t)| !t.jobs.is_empty())
            .min_by(|(a, ta), (b, tb)| {
                ta.start_tag(vtime)
                    .partial_cmp(&tb.start_tag(vtime))
                    .expect("finite virtual time")
                    .then(a.cmp(b))
            })
            .expect("non-empty queues");
        // 2. SLO-EDF within the tenant: earliest SLO target, then FIFO.
        let best_idx = tenant
            .jobs
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                slo_target_s(&a.job)
                    .partial_cmp(&slo_target_s(&b.job))
                    .expect("finite SLO targets")
                    .then(a.seq.cmp(&b.seq))
            })
            .map(|(i, _)| i)
            .expect("tenant queue is non-empty");
        self.vtime = tenant.start_tag(vtime);
        let pending = tenant.take(best_idx, self.vtime);
        self.dequeued(&pending);
        Some(pending)
    }

    /// Removes up to `max` queued jobs matching `pred`, in admission
    /// order, charging each to its tenant's virtual clock (a batched
    /// member consumes device time exactly like a solo dispatch would).
    /// Used by batch-group formation after [`QosQueues::pop`] picks the
    /// lead.
    pub fn drain_compatible<F>(&mut self, max: usize, mut pred: F) -> Vec<Pending>
    where
        F: FnMut(&Pending) -> bool,
    {
        let mut drained = Vec::new();
        while drained.len() < max && self.len > 0 {
            // The earliest-admitted match across every tenant.
            let mut pick: Option<(u64, &mut TenantQueue, usize)> = None;
            for t in self.tenants.values_mut() {
                let first =
                    t.jobs.iter().enumerate().filter(|(_, p)| pred(p)).min_by_key(|(_, p)| p.seq);
                if let Some((i, p)) = first {
                    if pick.as_ref().is_none_or(|(seq, _, _)| p.seq < *seq) {
                        pick = Some((p.seq, t, i));
                    }
                }
            }
            let Some((_, tenant, i)) = pick else { break };
            let pending = tenant.take(i, self.vtime);
            self.dequeued(&pending);
            drained.push(pending);
        }
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use scalfrag_kernels::FactorSet;
    use scalfrag_tensor::CooTensor;
    use std::sync::Arc;

    fn job(id: u64, tenant: &str, priority: Priority, deadline: Option<f64>) -> Pending {
        job_est(id, tenant, priority, deadline, 1.0)
    }

    fn job_est(
        id: u64,
        tenant: &str,
        priority: Priority,
        deadline: Option<f64>,
        est_s: f64,
    ) -> Pending {
        let t = Arc::new(CooTensor::random_uniform(&[10, 10, 10], 50, id));
        let f = Arc::new(FactorSet::random(&[10, 10, 10], 4, id));
        let mut j = MttkrpJob::new(id, tenant, t, f, 0).with_priority(priority);
        if let Some(d) = deadline {
            j = j.with_deadline(d);
        }
        let key = FeatureKey::of(&j.tensor, 0, 4);
        Pending { job: j, seq: id, est_s, attempt: 1, key }
    }

    #[test]
    fn slo_targets_derive_from_priority_or_deadline() {
        let high = job(0, "a", Priority::High, None);
        let normal = job(1, "a", Priority::Normal, None);
        let low = job(2, "a", Priority::Low, None);
        assert!(slo_target_s(&high.job) < slo_target_s(&normal.job));
        assert!(slo_target_s(&normal.job) < slo_target_s(&low.job));
        let dl = job(3, "a", Priority::Low, Some(1e-4));
        assert_eq!(slo_target_s(&dl.job), 1e-4, "an explicit deadline wins");
    }

    #[test]
    fn slo_edf_orders_within_a_tenant() {
        let mut q = QosQueues::new();
        q.push(job(0, "a", Priority::Low, None));
        q.push(job(1, "a", Priority::High, None));
        q.push(job(2, "a", Priority::Normal, Some(1e-3)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|p| p.job.id).collect();
        // Deadline 1 ms < High SLO (5 ms) < Low SLO (500 ms).
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn fair_queueing_alternates_equal_weight_tenants() {
        let mut q = QosQueues::new();
        for id in 0..3 {
            q.push(job(id, "a", Priority::Normal, None));
        }
        for id in 3..5 {
            q.push(job(id, "b", Priority::Normal, None));
        }
        let order: Vec<String> =
            std::iter::from_fn(|| q.pop()).map(|p| p.job.tenant.clone()).collect();
        assert_eq!(order, vec!["a", "b", "a", "b", "a"]);
    }

    #[test]
    fn wfq_weights_shift_the_share() {
        // Tenant a has weight 3: over the first 4 dispatches it should
        // receive 3 slots to b's 1.
        let mut q = QosQueues::with_weights(&[("a".into(), 3.0)]);
        for id in 0..6 {
            q.push(job(id, "a", Priority::Normal, None));
        }
        for id in 6..12 {
            q.push(job(id, "b", Priority::Normal, None));
        }
        let first4: Vec<String> = (0..4).map(|_| q.pop().unwrap().job.tenant.clone()).collect();
        let a_count = first4.iter().filter(|t| *t == "a").count();
        assert_eq!(a_count, 3, "weight-3 tenant gets 3 of the first 4 slots: {first4:?}");
    }

    #[test]
    fn drain_compatible_takes_matching_jobs_in_admission_order() {
        let mut q = QosQueues::new();
        q.push(job(0, "b", Priority::Normal, None));
        q.push(job(1, "a", Priority::Normal, None));
        q.push(job(2, "b", Priority::Low, None));
        q.push(job(3, "a", Priority::Normal, None));
        let drained = q.drain_compatible(2, |p| p.job.priority == Priority::Normal);
        let ids: Vec<u64> = drained.iter().map(|p| p.job.id).collect();
        assert_eq!(ids, vec![0, 1], "admission (seq) order across tenants, capped at max");
        assert_eq!(q.len(), 2);
        assert!(q.drain_compatible(0, |_| true).is_empty());
    }

    #[test]
    fn drained_members_are_charged_like_dispatches() {
        // Tenant a gets 3 jobs batched away in one drain; tenant b then
        // deserves the next dispatches until the shares even out.
        let mut q = QosQueues::new();
        for id in 0..4 {
            q.push(job(id, "a", Priority::Normal, None));
        }
        for id in 4..6 {
            q.push(job(id, "b", Priority::Normal, None));
        }
        let lead = q.pop().unwrap();
        assert_eq!(lead.job.tenant, "a");
        let drained = q.drain_compatible(2, |p| p.job.tenant == "a");
        assert_eq!(drained.len(), 2);
        assert_eq!(
            q.pop().unwrap().job.tenant,
            "b",
            "after 3 charged services, tenant a must yield"
        );
        assert_eq!(q.pop().unwrap().job.tenant, "b");
        assert_eq!(q.pop().unwrap().job.tenant, "a");
    }

    #[test]
    fn token_bucket_limits_and_refills() {
        let mut b = TokenBucket::new(10.0, 2.0);
        assert!(b.try_acquire(0.0).is_ok());
        assert!(b.try_acquire(0.0).is_ok(), "burst of 2 admits 2 at once");
        let wait = b.try_acquire(0.0).unwrap_err();
        assert!((wait - 0.1).abs() < 1e-12, "next token is 1/rate away, got {wait}");
        assert!(b.try_acquire(0.1).is_ok(), "refilled after the hint");
        // Long idle refills to burst, never beyond.
        assert!(b.try_acquire(10.0).is_ok());
        assert!(b.try_acquire(10.0).is_ok());
        assert!(b.try_acquire(10.0).is_err(), "capacity caps the burst at 2");
    }

    #[test]
    fn bookkeeping_tracks_depth_and_backlog() {
        let mut q = QosQueues::new();
        assert!(q.is_empty());
        q.push(job(0, "a", Priority::Normal, None));
        q.push(job(1, "b", Priority::Normal, None));
        assert_eq!(q.len(), 2);
        assert_eq!(q.backlog_s(), 2.0);
        let _ = q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.backlog_s(), 1.0);
        let _ = q.pop();
        assert!(q.is_empty());
        assert_eq!(q.backlog_s(), 0.0);
        assert_eq!(q.peak_depth(), 2);
        assert!(q.pop().is_none());
    }
}
