//! # scalfrag-gpusim
//!
//! A deterministic GPU **execution simulator**: the hardware substrate of
//! this ScalFrag reproduction.
//!
//! The paper runs on an NVIDIA RTX 3090 with CUDA streams, asynchronous
//! copies and hand-tuned kernel launches. None of that is available to a
//! portable pure-Rust build, so this crate re-creates the *mechanisms* the
//! paper's results depend on:
//!
//! * [`DeviceSpec`] / [`HostSpec`] — parameterised hardware models with an
//!   RTX 3090 + i7-11700K preset mirroring Table II of the paper.
//! * [`LaunchConfig`] + [`occupancy`] — the `gridSize`/`blockSize` launch
//!   space and the SM occupancy rules (threads, blocks, shared memory,
//!   registers per SM) that make some configurations fast and others slow.
//! * [`cost`] — an analytic kernel timing model (memory traffic with
//!   latency-hiding efficiency, compute throughput, atomic contention,
//!   per-block scheduling overhead, wave quantisation, launch latency).
//!   This is what turns a launch configuration plus a workload description
//!   into a duration, and what gives Fig. 4 its tensor-dependent optimum.
//! * [`Gpu`] — CUDA-like streams, events, async H2D/D2H copies and kernel
//!   launches, resolved by an event-driven timeline simulation with one
//!   compute engine and dedicated H2D/D2H copy engines (PCIe).
//! * [`Timeline`] — the per-span execution record used for the time
//!   breakdowns of Fig. 5 and the overlap analysis of Fig. 10/11.
//!
//! Kernels are *functionally executed* on the host (their bodies run on
//! the `scalfrag-host` pool) so numeric results are real
//! and testable; the *simulated clock* is entirely analytic and
//! therefore deterministic.

#![forbid(unsafe_code)]

pub mod cost;
pub mod device;
pub mod gpu;
pub mod launch;
pub mod memory;
pub mod occupancy;
pub mod racecheck;
pub mod timeline;
pub mod trace;

pub use cost::{kernel_duration, CostBreakdown, KernelWorkload};
pub use device::{DeviceSpec, HostSpec};
pub use gpu::{EventId, Gpu, OpId, StreamId};
pub use launch::LaunchConfig;
pub use memory::{size_class, Allocation, MemStats, MemoryPool, OutOfMemory, MIN_CLASS_BYTES};
pub use occupancy::{occupancy, Limiter, Occupancy};
pub use racecheck::{
    block_of_item, grid_stride_thread, AccessKind, AccessLog, AddrSpace, RaceConflict, RaceReport,
    SimThread,
};
pub use timeline::{Span, SpanKind, Timeline};
