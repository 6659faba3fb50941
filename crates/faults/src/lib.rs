//! # scalfrag-faults — deterministic fault injection for the simulated stack
//!
//! Large-scale MTTKRP only makes sense on hardware where partial failures
//! are the norm: a multi-GPU node loses a card, a PCIe transfer flips bits,
//! a kernel aborts, a thermally throttled device straggles. This crate
//! gives the simulated stack a *deterministic* model of exactly those
//! events so every resilience layer above it can be tested bit-for-bit:
//!
//! * **Fault taxonomy** ([`event`]) — [`FaultKind`] covers device failure
//!   (permanent or transient with a downtime), ECC-style H2D/D2H transfer
//!   corruption (detectable via segment checksums), kernel aborts, and
//!   straggler derating. Every injected fault and every recovery action
//!   lands in a [`FaultLog`] with a stable fingerprint.
//! * **Fault plans** ([`plan`]) — a [`FaultPlan`] schedules faults per
//!   device by simulated time ([`FaultTrigger::AtTime`]) or by operation
//!   count ([`FaultTrigger::AtOp`]); [`FaultPlan::seeded_storm`] draws a
//!   whole MTBF-controlled storm from one seed.
//! * **The injector** ([`injector`]) — executors poll
//!   [`FaultInjector::on_op`] before each simulated H2D/D2H/kernel and get
//!   a typed [`OpVerdict`]; schedulers poll [`FaultInjector::health_at`]
//!   for device state ([`DeviceHealth`]). Same plan + same execution ⇒
//!   identical verdicts and an identical log.
//! * **Checksums** ([`checksum`]) — FNV-1a fingerprints of tensors,
//!   matrices and raw buffers: the detection mechanism for transfer
//!   corruption and the "zero numeric drift" witness used by the
//!   `fault_storm` bench and the recovery property tests.
//!
//! The injector is deliberately passive: it never mutates the simulator.
//! Executors decide what a verdict means (charge the op and retry, stall
//! for backoff, re-place work), which keeps timing policy reviewable in
//! one place per layer — the `scalfrag-exec` interpreter retries ops and
//! re-places a dead device's units, `scalfrag-serve` requeues jobs,
//! `scalfrag-kernels` rolls CPD-ALS back to a checkpoint.

pub mod checksum;
pub mod event;
pub mod injector;
pub mod plan;

pub use checksum::{buffer_checksum, mat_checksum, tensor_checksum};
pub use event::{FaultKind, FaultLog, LogEntry, LogRecord, RecoveryAction};
pub use injector::{DeviceHealth, FaultInjector, OpClass, OpVerdict};
pub use plan::{FaultPlan, FaultTrigger, ScheduledFault};
