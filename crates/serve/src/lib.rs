//! # scalfrag-serve — multi-tenant MTTKRP serving
//!
//! The serving layer turns the single-shot ScalFrag facade into a
//! request-serving system on the simulated GPU substrate:
//!
//! * **Jobs and queues** ([`job`], [`queue`]) — [`MttkrpJob`]s carry a
//!   tensor handle, mode, factors, priority class, optional deadline and a
//!   tenant; the QoS queue rate-limits each tenant with a token bucket,
//!   shares devices by weighted fair queueing, and orders within a tenant
//!   by SLO-aware earliest-deadline-first.
//! * **Admission control** ([`admission`]) — a bounded queue plus an
//!   estimated-makespan budget; overload produces typed [`Rejected`]
//!   responses with retry hints, never panics or unbounded queues.
//! * **Batch groups** ([`batch`]) — compatible queued jobs (equal
//!   quantized key, shared factor handle, same geometry and priority
//!   class) fuse into one ScheduleIR plan per dispatch: the factor set
//!   crosses PCIe once per *group* instead of once per job.
//! * **Plan cache** ([`plan_cache`]) — quantized [`FeatureKey`]s memoize
//!   the adaptive-launching verdict (§IV-B of the paper), one
//!   `LaunchConfig` per shape class, with LRU eviction, hit/miss counters
//!   and deterministic snapshot/restore for warm starts.
//! * **Scheduler** ([`scheduler`]) — a deterministic discrete-event loop
//!   over a [`DevicePool`] of (possibly heterogeneous) devices; each
//!   dispatch interprets one batch-fused plan, a solo job as a group of
//!   one, through the `scalfrag-opt` default pipeline.
//! * **Autoscaling** ([`autoscale`]) — watermark + hysteresis growth and
//!   shrink of the active device set under sustained load, reusing the
//!   fault path's park/rejoin mechanics.
//! * **Report** ([`report`]) — per-job phase timings (queue wait, batch
//!   wait, plan, H2D/kernel/D2H with the shared factor upload split
//!   proportionally), latency percentiles, throughput, batch occupancy,
//!   cache hit rate and rejection counts, with a bit-stable fingerprint
//!   for reproducibility.
//!
//! ```
//! use scalfrag_serve::{ScalFragServer, WorkloadSpec};
//!
//! // Small training tiers keep the example fast; the default covers
//! // the full ~3 K – 2 M nnz range.
//! let server = ScalFragServer::builder().train_tiers(vec![3_000, 12_000]).build();
//! let jobs = scalfrag_serve::workload::synthesize(&WorkloadSpec {
//!     jobs: 20,
//!     shape_classes: 4,
//!     ..Default::default()
//! });
//! let report = server.run(jobs);
//! assert_eq!(report.completed.len() + report.rejected.len(), 20);
//! ```

#![forbid(unsafe_code)]

pub mod admission;
pub mod autoscale;
pub mod batch;
pub mod job;
pub mod plan_cache;
pub mod queue;
pub mod report;
pub mod scheduler;
pub mod workload;

pub use admission::{estimate_service_s, AdmissionPolicy, RejectReason, Rejected};
pub use autoscale::{AutoscalePolicy, Autoscaler, ScaleEvent};
pub use batch::BatchGroup;
pub use job::{JobId, MttkrpJob, Priority};
pub use plan_cache::{CacheStats, PlanCache, SnapshotError, SNAPSHOT_VERSION};
pub use queue::{slo_target_s, QosConfig, QosQueues, TokenBucket};
pub use report::{JobRecord, ServeReport};
pub use scheduler::{DevicePool, PLAN_HIT_S, PLAN_MISS_S};
pub use workload::{synthesize, WorkloadSpec};

use scalfrag_autotune::{TrainedPredictor, TRAIN_SEED};
use scalfrag_gpusim::DeviceSpec;
use scalfrag_tensor::FeatureKey;

/// Serving-layer configuration: admission, batching, QoS, autoscaling
/// and plan-cache toggles (the ablation surface of the acceptance
/// benchmarks). Every dispatch launches the tiled kernel (§IV-A) with the
/// trained predictor's configuration (§IV-B).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Admission thresholds.
    pub admission: AdmissionPolicy,
    /// Memoize launch verdicts (`false` = the cache-off ablation: every
    /// job pays the full planning cost, misses still counted).
    pub plan_caching: bool,
    /// Compute real MTTKRP outputs (`false` = timing-only dry runs, the
    /// load-test default).
    pub functional: bool,
    /// Resubmission budget per job: a job rejected at admission (or killed
    /// by a device failure) re-enters the arrival stream after its
    /// `retry_after_s` hint, at most this many times. `0` (the default)
    /// keeps rejections final, matching the fault-free serving semantics.
    pub max_retries: u32,
    /// Largest batch group one dispatch may fuse (`1` = solo dispatches
    /// only — the batching-off ablation).
    pub max_batch: usize,
    /// How far past the dispatch device's free time the arrival horizon
    /// stretches (s): arrivals inside the window are admitted *before* the
    /// group forms so they can join it, at the cost of the earlier
    /// members' `batch_wait_s`. `0` (the default) never delays a dispatch.
    pub batch_window_s: f64,
    /// Per-tenant QoS: token-bucket rate limits and WFQ weights.
    pub qos: QosConfig,
    /// `Some(policy)` = start with `policy.min_devices` active and let the
    /// autoscaler grow/shrink the active set; `None` = the whole pool
    /// serves from the start.
    pub autoscale: Option<AutoscalePolicy>,
    /// A plan-cache snapshot ([`PlanCache::snapshot`]) to warm-start from.
    /// Restore errors panic at serve start — a bad snapshot is an operator
    /// error, not a load condition.
    pub warm_snapshot: Option<String>,
    /// Capture a [`PlanCache::snapshot`] at end of run into
    /// [`ServeReport::cache_snapshot`].
    pub snapshot_cache: bool,
    /// Predictor training tiers (`None` = autotune defaults, ~3 K – 2 M
    /// nnz).
    pub train_tiers: Option<Vec<usize>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            admission: AdmissionPolicy::default(),
            plan_caching: true,
            functional: false,
            max_retries: 0,
            max_batch: 8,
            batch_window_s: 0.0,
            qos: QosConfig::default(),
            autoscale: None,
            warm_snapshot: None,
            snapshot_cache: false,
            train_tiers: None,
        }
    }
}

/// The serving facade: a device pool, a configuration, and a shared
/// trained predictor. Construct via [`ScalFragServer::builder`], then call
/// [`ScalFragServer::run`] (defined in [`scheduler`]) on a job stream.
pub struct ScalFragServer {
    pub(crate) pool: DevicePool,
    pub(crate) config: ServerConfig,
    pub(crate) predictor: TrainedPredictor,
}

impl ScalFragServer {
    /// Starts building a server (default: one RTX 3090, default config).
    pub fn builder() -> ScalFragServerBuilder {
        ScalFragServerBuilder::default()
    }

    /// The device pool jobs dispatch onto.
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The shared predictor handle — pass it to another server (or a
    /// [`scalfrag_core`] facade) to reuse its trained models.
    pub fn trained_predictor(&self) -> &TrainedPredictor {
        &self.predictor
    }

    /// The quantized cache key a job would be planned under — exposed so
    /// tests and capacity planning can reason about shape classes.
    pub fn cache_key(&self, job: &MttkrpJob) -> FeatureKey {
        FeatureKey::of(&job.tensor, job.mode, job.rank())
    }
}

/// Builder for [`ScalFragServer`].
#[derive(Default)]
pub struct ScalFragServerBuilder {
    pool: Option<DevicePool>,
    config: Option<ServerConfig>,
    predictor: Option<TrainedPredictor>,
}

impl ScalFragServerBuilder {
    /// Serve on an explicit device pool.
    pub fn pool(mut self, pool: DevicePool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Serve on a single device.
    pub fn device(self, device: DeviceSpec) -> Self {
        self.pool(DevicePool::single(device))
    }

    /// Replace the whole configuration.
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Override admission thresholds.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.config.get_or_insert_with(ServerConfig::default).admission = admission;
        self
    }

    /// Toggle plan caching (the cache-off ablation).
    pub fn plan_caching(mut self, on: bool) -> Self {
        self.config.get_or_insert_with(ServerConfig::default).plan_caching = on;
        self
    }

    /// Toggle functional execution (real outputs vs timing-only).
    pub fn functional(mut self, on: bool) -> Self {
        self.config.get_or_insert_with(ServerConfig::default).functional = on;
        self
    }

    /// Allow each job up to `n` resubmissions after a rejection or device
    /// failure (honouring the rejection's `retry_after_s` hint).
    pub fn max_retries(mut self, n: u32) -> Self {
        self.config.get_or_insert_with(ServerConfig::default).max_retries = n;
        self
    }

    /// Cap batch groups at `n` fused jobs (`1` = solo dispatches only).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.config.get_or_insert_with(ServerConfig::default).max_batch = n;
        self
    }

    /// Stretch the arrival horizon by `window_s` so near-future arrivals
    /// can join the batch group about to form.
    pub fn batch_window_s(mut self, window_s: f64) -> Self {
        self.config.get_or_insert_with(ServerConfig::default).batch_window_s = window_s;
        self
    }

    /// Replace the per-tenant QoS configuration (rate limits + weights).
    pub fn qos(mut self, qos: QosConfig) -> Self {
        self.config.get_or_insert_with(ServerConfig::default).qos = qos;
        self
    }

    /// Enable pool autoscaling under `policy`.
    pub fn autoscale(mut self, policy: AutoscalePolicy) -> Self {
        self.config.get_or_insert_with(ServerConfig::default).autoscale = Some(policy);
        self
    }

    /// Warm-start the plan cache from a [`PlanCache::snapshot`].
    pub fn warm_snapshot(mut self, snapshot: String) -> Self {
        self.config.get_or_insert_with(ServerConfig::default).warm_snapshot = Some(snapshot);
        self
    }

    /// Capture an end-of-run cache snapshot into
    /// [`ServeReport::cache_snapshot`].
    pub fn snapshot_cache(mut self, on: bool) -> Self {
        self.config.get_or_insert_with(ServerConfig::default).snapshot_cache = on;
        self
    }

    /// Train the predictor on these nnz tiers (keeps load tests cheap).
    pub fn train_tiers(mut self, tiers: Vec<usize>) -> Self {
        self.config.get_or_insert_with(ServerConfig::default).train_tiers = Some(tiers);
        self
    }

    /// Share an existing trained predictor instead of training lazily —
    /// e.g. the handle from a [`scalfrag_core`] facade, or one shared
    /// across ablation runs so training cost never skews a comparison.
    pub fn predictor(mut self, predictor: TrainedPredictor) -> Self {
        self.predictor = Some(predictor);
        self
    }

    /// Finishes the server. Predictor models train lazily on the first
    /// job of each rank (shared handles skip even that).
    pub fn build(self) -> ScalFragServer {
        let pool = self.pool.unwrap_or_else(|| DevicePool::single(DeviceSpec::rtx3090()));
        let config = self.config.unwrap_or_default();
        let predictor = self.predictor.unwrap_or_else(|| {
            TrainedPredictor::train_once(
                pool.planning_device(),
                TRAIN_SEED,
                config.train_tiers.clone(),
            )
        });
        ScalFragServer { pool, config, predictor }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            jobs: 30,
            shape_classes: 4,
            variants_per_class: 2,
            base_nnz: 3_000,
            ..Default::default()
        }
    }

    fn fast_server() -> ScalFragServer {
        ScalFragServer::builder().train_tiers(vec![3_000, 12_000]).build()
    }

    #[test]
    fn serves_a_small_stream_end_to_end() {
        let server = fast_server();
        let jobs = synthesize(&small_spec());
        let report = server.run(jobs);
        assert_eq!(report.completed.len() + report.rejected.len(), 30);
        assert!(!report.completed.is_empty(), "a small stream must not be all-rejected");
        assert!(report.makespan_s > 0.0);
        assert!(report.throughput_jobs_per_s() > 0.0);
        // One plan lookup per fused dispatch, not per job.
        assert!(report.cache.hits + report.cache.misses >= report.dispatch_groups as u64);
        assert!(report.dispatch_groups >= 1);
        for r in &report.completed {
            assert!(r.finish_s >= r.start_s && r.start_s >= r.arrival_s);
            assert!(r.timing.check_consistency().is_ok(), "job {}: bad timing", r.id);
            assert!(r.output.is_none(), "dry mode keeps no outputs");
        }
    }

    #[test]
    fn repeated_shapes_hit_the_cache() {
        let server = fast_server();
        let report = server.run(synthesize(&small_spec()));
        assert!(
            report.cache.hits > report.cache.misses,
            "4 shape classes over 30 jobs must mostly hit: {:?}",
            report.cache
        );
        // Lazy shared training: one rank in the stream → one training.
        assert_eq!(report.predictor_trainings, 1);
    }

    #[test]
    fn functional_mode_returns_outputs() {
        let server =
            ScalFragServer::builder().functional(true).train_tiers(vec![3_000, 12_000]).build();
        let jobs = synthesize(&WorkloadSpec {
            jobs: 4,
            shape_classes: 2,
            variants_per_class: 1,
            ..Default::default()
        });
        let report = server.run(jobs);
        for r in &report.completed {
            let out = r.output.as_ref().expect("functional mode keeps outputs");
            assert!(out.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn shared_predictor_handle_reused_across_servers() {
        let a = fast_server();
        let _ = a.run(synthesize(&small_spec()));
        let b = ScalFragServer::builder()
            .predictor(a.trained_predictor().clone())
            .train_tiers(vec![3_000, 12_000])
            .build();
        let report = b.run(synthesize(&small_spec()));
        assert_eq!(
            report.predictor_trainings, 1,
            "second server must reuse the first server's models"
        );
    }

    #[test]
    fn snapshot_warm_start_turns_misses_into_hits() {
        let cold =
            ScalFragServer::builder().snapshot_cache(true).train_tiers(vec![3_000, 12_000]).build();
        let cold_report = cold.run(synthesize(&small_spec()));
        let snap = cold_report.cache_snapshot.clone().expect("snapshot_cache captures one");
        assert!(cold_report.cache.misses > 0, "a cold cache must miss first");
        let warm = ScalFragServer::builder()
            .warm_snapshot(snap)
            .predictor(cold.trained_predictor().clone())
            .train_tiers(vec![3_000, 12_000])
            .build();
        let warm_report = warm.run(synthesize(&small_spec()));
        assert_eq!(
            warm_report.cache.misses, 0,
            "every shape class was snapshotted, so the warm run never misses: {:?}",
            warm_report.cache
        );
        assert!(warm_report.cache.hits > 0);
    }

    #[test]
    fn cache_key_matches_workload_classes() {
        let server = fast_server();
        let jobs = synthesize(&small_spec());
        let distinct: std::collections::HashSet<_> =
            jobs.iter().map(|j| server.cache_key(j)).collect();
        assert!(
            distinct.len() <= 8,
            "4 classes × ≤2 key-variants expected, got {}",
            distinct.len()
        );
    }
}
