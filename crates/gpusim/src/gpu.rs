//! The simulated GPU: CUDA-like streams, events, async copies and kernel
//! launches, resolved by a deterministic event-driven timeline simulation.
//!
//! Semantics mirror the CUDA runtime subset the paper uses (§IV-C):
//!
//! * operations enqueued on one stream execute in FIFO order;
//! * the H2D copy engine, the D2H copy engine and the SM array are three
//!   independent resources — ops on *different* streams overlap freely as
//!   long as they need different engines (this is exactly what makes the
//!   segmented pipeline hide transfer time);
//! * each engine itself is exclusive and serves ops in submission order
//!   (matching the hardware copy queues; concurrent kernels are not
//!   modelled — the paper launches one MTTKRP kernel per segment, so
//!   compute-engine exclusivity is the right fidelity);
//! * events ([`Gpu::record_event`] / [`Gpu::wait_event`]) provide
//!   cross-stream ordering.
//!
//! Operations may carry a closure that is *functionally executed* on the
//! host when the simulation resolves (in submission order, which respects
//! every dependency expressible through streams and events), so numeric
//! results are real while the clock stays analytic.

use crate::cost::{kernel_duration, KernelWorkload};
use crate::device::{DeviceSpec, HostSpec};
use crate::launch::LaunchConfig;
use crate::memory::MemoryPool;
use crate::timeline::{Engine, Span, SpanKind, Timeline};
use std::sync::Arc;

/// Identifier of a stream created by [`Gpu::create_stream`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

/// Identifier of an event created by [`Gpu::record_event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// Identifier of an enqueued operation (submission order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OpId(u64);

enum OpPayload {
    Copy {
        bytes: u64,
        h2d: bool,
    },
    Kernel {
        config: LaunchConfig,
        workload: KernelWorkload,
    },
    HostTask {
        flops: u64,
        bytes: u64,
    },
    EventRecord {
        event: EventId,
    },
    /// [`Gpu::wait_event`]: the stream's later ops start no earlier than
    /// `event` completes.
    EventWait {
        event: EventId,
    },
    Stall {
        seconds: f64,
    },
}

struct PendingOp {
    id: u64,
    stream: StreamId,
    /// The span label; `None` for the ops that leave no span (event
    /// records and waits).
    label: Option<Arc<str>>,
    payload: OpPayload,
    exec: Option<Box<dyn FnOnce() + Send>>,
}

/// The simulated GPU device and its host.
pub struct Gpu {
    spec: DeviceSpec,
    host: HostSpec,
    memory: MemoryPool,
    next_op: u64,
    pending: Vec<PendingOp>,
    /// Ready time per stream, indexed by [`StreamId`].
    stream_ready: Vec<f64>,
    /// Ready time per engine, indexed by `Engine as usize`.
    engine_ready: [f64; 4],
    /// Completion time per recorded event, indexed by [`EventId`]; NaN
    /// until the event's record op resolves.
    event_time: Vec<f64>,
}

impl Gpu {
    /// Creates a GPU with the host of Table II (i7-11700K).
    pub fn new(spec: DeviceSpec) -> Self {
        let memory = MemoryPool::new(spec.global_mem_bytes);
        Self {
            spec,
            host: HostSpec::i7_11700k(),
            memory,
            next_op: 0,
            pending: Vec::new(),
            stream_ready: Vec::new(),
            engine_ready: [0.0; 4],
            event_time: Vec::new(),
        }
    }

    /// The device model.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The device memory pool (allocate segment buffers against it).
    pub fn memory(&self) -> &MemoryPool {
        &self.memory
    }

    /// Creates a new stream.
    pub fn create_stream(&mut self) -> StreamId {
        let id = StreamId(self.stream_ready.len() as u32);
        self.stream_ready.push(0.0);
        id
    }

    fn enqueue(
        &mut self,
        stream: StreamId,
        label: Option<Arc<str>>,
        payload: OpPayload,
        exec: Option<Box<dyn FnOnce() + Send>>,
    ) -> OpId {
        assert!((stream.0 as usize) < self.stream_ready.len(), "unknown stream {stream:?}");
        let id = self.next_op;
        self.next_op += 1;
        self.pending.push(PendingOp { id, stream, label, payload, exec });
        OpId(id)
    }

    /// Enqueues an asynchronous host→device copy of `bytes`.
    pub fn h2d(&mut self, stream: StreamId, bytes: u64, label: impl Into<Arc<str>>) -> OpId {
        self.enqueue(stream, Some(label.into()), OpPayload::Copy { bytes, h2d: true }, None)
    }

    /// Enqueues an H2D copy that also runs `f` when it resolves (e.g. to
    /// stage data into a device-side mirror buffer).
    pub fn h2d_exec(
        &mut self,
        stream: StreamId,
        bytes: u64,
        label: impl Into<Arc<str>>,
        f: impl FnOnce() + Send + 'static,
    ) -> OpId {
        let label = Some(label.into());
        self.enqueue(stream, label, OpPayload::Copy { bytes, h2d: true }, Some(Box::new(f)))
    }

    /// Enqueues an asynchronous device→host copy of `bytes`.
    pub fn d2h(&mut self, stream: StreamId, bytes: u64, label: impl Into<Arc<str>>) -> OpId {
        self.enqueue(stream, Some(label.into()), OpPayload::Copy { bytes, h2d: false }, None)
    }

    /// Enqueues a kernel launch with the given configuration and workload.
    ///
    /// # Panics
    /// Panics if the configuration is invalid for this device.
    pub fn launch(
        &mut self,
        stream: StreamId,
        config: LaunchConfig,
        workload: KernelWorkload,
        label: impl Into<Arc<str>>,
    ) -> OpId {
        config.validate(&self.spec).unwrap_or_else(|e| panic!("invalid launch {config}: {e}"));
        self.enqueue(stream, Some(label.into()), OpPayload::Kernel { config, workload }, None)
    }

    /// Enqueues a kernel launch whose body `f` is functionally executed when
    /// the simulation resolves (the numeric MTTKRP work).
    pub fn launch_exec(
        &mut self,
        stream: StreamId,
        config: LaunchConfig,
        workload: KernelWorkload,
        label: impl Into<Arc<str>>,
        f: impl FnOnce() + Send + 'static,
    ) -> OpId {
        config.validate(&self.spec).unwrap_or_else(|e| panic!("invalid launch {config}: {e}"));
        let label = Some(label.into());
        self.enqueue(stream, label, OpPayload::Kernel { config, workload }, Some(Box::new(f)))
    }

    /// Enqueues a host-CPU task (hybrid execution) ordered within `stream`.
    pub fn host_task(
        &mut self,
        stream: StreamId,
        flops: u64,
        bytes: u64,
        label: impl Into<Arc<str>>,
        f: impl FnOnce() + Send + 'static,
    ) -> OpId {
        let label = Some(label.into());
        self.enqueue(stream, label, OpPayload::HostTask { flops, bytes }, Some(Box::new(f)))
    }

    /// Enqueues a pure delay on `stream`: the stream's clock advances by
    /// `seconds` without occupying any engine. Models waits that burn no
    /// resource — retry backoff under fault injection.
    pub fn stall(&mut self, stream: StreamId, seconds: f64, label: impl Into<Arc<str>>) -> OpId {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "stall must be a finite non-negative delay, got {seconds}"
        );
        self.enqueue(stream, Some(label.into()), OpPayload::Stall { seconds }, None)
    }

    /// Advances every stream's ready time to at least `t` seconds (the
    /// pending queue must be resolved first). Models a device idling
    /// until an external point in simulated time — waiting out a
    /// transient fault's downtime, or starting work re-placed from a
    /// failed peer only once that failure has been observed.
    pub fn advance_to(&mut self, t: f64) {
        assert!(self.pending.is_empty(), "synchronize before advancing the clock");
        assert!(t.is_finite(), "advance target must be finite, got {t}");
        for ready in &mut self.stream_ready {
            *ready = ready.max(t);
        }
    }

    /// Current simulated clock: the latest ready time across streams and
    /// engines. Unlike a timeline's makespan (which reads recorded spans)
    /// this includes pure stalls and [`Gpu::advance_to`] jumps, which
    /// occupy no engine and leave no span.
    pub fn clock(&self) -> f64 {
        self.stream_ready.iter().chain(&self.engine_ready).fold(0.0f64, |a, &b| a.max(b))
    }

    /// Records an event on `stream`: it completes when every op enqueued on
    /// `stream` so far has completed.
    pub fn record_event(&mut self, stream: StreamId) -> EventId {
        let event = EventId(self.event_time.len() as u64);
        self.event_time.push(f64::NAN);
        self.enqueue(stream, None, OpPayload::EventRecord { event }, None);
        event
    }

    /// Makes every op enqueued on `stream` *after* this call wait for
    /// `event` (which must have been recorded already).
    ///
    /// # Panics
    /// Panics if the event has not been recorded.
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) {
        assert!(event.0 < self.event_time.len() as u64, "event {event:?} was never recorded");
        assert!((stream.0 as usize) < self.stream_ready.len(), "unknown stream {stream:?}");
        // The wait resolves in submission order like any op, but it leaves
        // no span, so it takes no op id.
        let wait = OpPayload::EventWait { event };
        self.pending.push(PendingOp {
            id: self.next_op,
            stream,
            label: None,
            payload: wait,
            exec: None,
        });
    }

    /// Seconds an engine op occupies its engine.
    fn op_duration(&self, payload: &OpPayload) -> f64 {
        match payload {
            OpPayload::Copy { bytes, h2d } => {
                let bw = if *h2d { self.spec.pcie_h2d_gbs } else { self.spec.pcie_d2h_gbs };
                self.spec.pcie_latency_us * 1e-6 + *bytes as f64 / (bw * 1e9)
            }
            OpPayload::Kernel { config, workload } => {
                let t = kernel_duration(&self.spec, config, workload).total;
                assert!(t.is_finite(), "unschedulable kernel launch {config}");
                t
            }
            OpPayload::HostTask { flops, bytes } => self.host.task_duration_s(*flops, *bytes),
            OpPayload::EventRecord { .. }
            | OpPayload::EventWait { .. }
            | OpPayload::Stall { .. } => {
                unreachable!("only engine ops have a duration")
            }
        }
    }

    /// Resolves every pending operation: computes the simulated schedule,
    /// runs the execution closures (submission order — consistent with all
    /// stream/event dependencies) and returns the timeline of *this
    /// batch*.
    pub fn synchronize(&mut self) -> Timeline {
        let mut batch = Timeline::default();
        let mut pending = std::mem::take(&mut self.pending);
        for op in pending.drain(..) {
            let s = op.stream.0 as usize;
            let (engine, kind) = match &op.payload {
                OpPayload::Copy { h2d: true, .. } => (Engine::H2D, SpanKind::CopyH2D),
                OpPayload::Copy { h2d: false, .. } => (Engine::D2H, SpanKind::CopyD2H),
                OpPayload::Kernel { .. } => (Engine::Compute, SpanKind::Kernel),
                OpPayload::HostTask { .. } => (Engine::Host, SpanKind::HostTask),
                OpPayload::EventWait { event } => {
                    let t = self.event_time[event.0 as usize];
                    assert!(!t.is_nan(), "wait on unresolved event {event:?}");
                    self.stream_ready[s] = self.stream_ready[s].max(t);
                    continue;
                }
                OpPayload::EventRecord { event } => {
                    self.event_time[event.0 as usize] = self.stream_ready[s];
                    continue;
                }
                OpPayload::Stall { seconds } => {
                    self.stream_ready[s] += seconds;
                    continue;
                }
            };
            let e = engine as usize;
            let start = self.stream_ready[s].max(self.engine_ready[e]);
            let end = start + self.op_duration(&op.payload);
            self.stream_ready[s] = end;
            self.engine_ready[e] = end;
            let label = op.label.expect("every op that occupies an engine carries a label");
            let span = Span { op: op.id, stream: op.stream.0, engine, kind, label, start, end };
            batch.spans.push(span);
            if let Some(f) = op.exec {
                f();
            }
        }
        // Keep the queue's capacity for the next batch.
        self.pending = pending;
        batch
    }

    /// Clears the simulated clock while keeping streams and memory
    /// accounting (start a fresh experiment on a warm device). Events
    /// recorded before the reset can no longer be waited on.
    pub fn reset_clock(&mut self) {
        assert!(self.pending.is_empty(), "cannot reset with pending operations");
        self.stream_ready.fill(0.0);
        self.engine_ready = [0.0; 4];
        self.event_time.fill(f64::NAN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::rtx3090())
    }

    fn small_kernel(items: u64) -> KernelWorkload {
        let mut w = KernelWorkload::empty();
        w.work_items = items;
        w.flops = items * 48;
        w.bytes_read = items * 100;
        w.item_cycles = 100.0;
        w
    }

    #[test]
    fn copy_duration_matches_bandwidth() {
        let mut g = gpu();
        let s = g.create_stream();
        g.h2d(s, 243_000_000, "h2d"); // 243 MB at 24.3 GB/s = 10 ms
        let t = g.synchronize();
        let span = &t.spans[0];
        assert!((span.duration() - (0.010 + 10e-6)).abs() < 1e-9);
    }

    #[test]
    fn same_stream_is_fifo() {
        let mut g = gpu();
        let s = g.create_stream();
        g.h2d(s, 1_000_000, "a");
        g.launch(s, LaunchConfig::new(256, 256), small_kernel(100_000), "k");
        g.d2h(s, 1_000_000, "b");
        let t = g.synchronize();
        assert!(t.validate().is_ok());
        for w in t.spans.windows(2) {
            assert!(w[1].start >= w[0].end - 1e-15, "FIFO violated");
        }
    }

    #[test]
    fn different_streams_overlap_on_different_engines() {
        let mut g = gpu();
        let s0 = g.create_stream();
        let s1 = g.create_stream();
        // Big copy on s0 and a kernel on s1: they should overlap fully.
        g.h2d(s0, 100_000_000, "copy");
        g.launch(s1, LaunchConfig::new(4096, 256), small_kernel(10_000_000), "k");
        let t = g.synchronize();
        let copy = &t.spans[0];
        let kernel = &t.spans[1];
        assert_eq!(copy.start, 0.0);
        assert_eq!(kernel.start, 0.0, "independent engines must start together");
        assert!(t.overlap_ratio() > 0.0);
    }

    #[test]
    fn same_engine_serializes_across_streams() {
        let mut g = gpu();
        let s0 = g.create_stream();
        let s1 = g.create_stream();
        g.h2d(s0, 50_000_000, "c0");
        g.h2d(s1, 50_000_000, "c1");
        let t = g.synchronize();
        assert!(t.spans[1].start >= t.spans[0].end - 1e-15, "one H2D engine only");
        assert!(t.validate().is_ok());
    }

    #[test]
    fn events_order_across_streams() {
        let mut g = gpu();
        let s0 = g.create_stream();
        let s1 = g.create_stream();
        g.h2d(s0, 100_000_000, "copy");
        let ev = g.record_event(s0);
        g.wait_event(s1, ev);
        g.launch(s1, LaunchConfig::new(256, 256), small_kernel(1_000), "k");
        let t = g.synchronize();
        let copy_end = t.spans[0].end;
        let kernel = t.spans.iter().find(|s| s.kind == SpanKind::Kernel).unwrap();
        assert!(kernel.start >= copy_end - 1e-15, "kernel must wait for the event");
    }

    #[test]
    #[should_panic(expected = "never recorded")]
    fn waiting_on_unrecorded_event_panics() {
        let mut g = gpu();
        let s = g.create_stream();
        g.wait_event(s, EventId(42));
    }

    #[test]
    fn closures_execute_in_dependency_order() {
        let mut g = gpu();
        let s0 = g.create_stream();
        let s1 = g.create_stream();
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));

        let l = Arc::clone(&log);
        g.h2d_exec(s0, 1000, "copy", move || l.lock().push("h2d"));
        let ev = g.record_event(s0);
        g.wait_event(s1, ev);
        let l = Arc::clone(&log);
        g.launch_exec(s1, LaunchConfig::new(32, 32), small_kernel(10), "k", move || {
            l.lock().push("kernel")
        });
        g.synchronize();
        assert_eq!(*log.lock(), vec!["h2d", "kernel"]);
    }

    #[test]
    fn host_tasks_run_on_their_own_engine() {
        let mut g = gpu();
        let s0 = g.create_stream();
        let s1 = g.create_stream();
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        g.host_task(s0, 1_000_000, 1_000_000, "cpu", move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        g.launch(s1, LaunchConfig::new(256, 256), small_kernel(1_000_000), "k");
        let t = g.synchronize();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        let host = t.spans.iter().find(|s| s.engine == Engine::Host).unwrap();
        let kern = t.spans.iter().find(|s| s.engine == Engine::Compute).unwrap();
        assert_eq!(host.start, 0.0);
        assert_eq!(kern.start, 0.0, "host and device work overlap");
    }

    #[test]
    fn synchronize_batches_continue_one_clock() {
        let mut g = gpu();
        let s = g.create_stream();
        g.h2d(s, 1_000_000, "a");
        let t1 = g.synchronize();
        g.h2d(s, 1_000_000, "b");
        let t2 = g.synchronize();
        assert_eq!(t1.spans.len(), 1);
        assert_eq!(t2.spans.len(), 1);
        // Second batch continues after the first on the same clock.
        assert!(t2.spans[0].start >= t1.spans[0].end - 1e-15);
        g.reset_clock();
        assert_eq!(g.clock(), 0.0);
        g.h2d(s, 1_000_000, "c");
        assert_eq!(g.synchronize().spans[0].start, 0.0, "a reset clock starts over");
    }

    #[test]
    fn a_wait_holds_across_synchronize() {
        let mut g = gpu();
        let (s0, s1) = (g.create_stream(), g.create_stream());
        g.h2d(s0, 100_000_000, "copy");
        let ev = g.record_event(s0);
        g.wait_event(s1, ev);
        let copy_end = g.synchronize().spans[0].end;
        g.launch(s1, LaunchConfig::new(256, 256), small_kernel(1_000), "k");
        assert!(g.synchronize().spans[0].start >= copy_end, "the next op waits for the event");
    }

    #[test]
    fn deterministic_schedules() {
        let run = || {
            let mut g = gpu();
            let streams: Vec<StreamId> = (0..4).map(|_| g.create_stream()).collect();
            for (i, &s) in streams.iter().enumerate() {
                g.h2d(s, 10_000_000 + i as u64 * 1000, format!("c{i}"));
                g.launch(s, LaunchConfig::new(1024, 256), small_kernel(1_000_000), format!("k{i}"));
                g.d2h(s, 1_000_000, format!("d{i}"));
            }
            g.synchronize()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stalls_delay_the_stream_without_occupying_engines() {
        let mut g = gpu();
        let s0 = g.create_stream();
        let s1 = g.create_stream();
        g.h2d(s1, 1_000_000, "other-stream");
        g.stall(s0, 0.5, "backoff");
        g.h2d(s0, 1_000_000, "after-stall");
        let t = g.synchronize();
        let delayed = t.spans.iter().find(|sp| &*sp.label == "after-stall").unwrap();
        let other = t.spans.iter().find(|sp| &*sp.label == "other-stream").unwrap();
        assert!(delayed.start >= 0.5, "stall must push the stream's next op");
        assert_eq!(other.start, 0.0, "a stall must not block the H2D engine");
        assert_eq!(t.spans.len(), 2, "stalls leave no span");
        assert!(g.clock() >= 0.5);
    }

    #[test]
    fn advance_to_jumps_every_stream_forward() {
        let mut g = gpu();
        let s0 = g.create_stream();
        let s1 = g.create_stream();
        g.h2d(s0, 1_000_000, "a");
        g.synchronize();
        let before = g.clock();
        g.advance_to(before + 1.0);
        assert!((g.clock() - (before + 1.0)).abs() < 1e-12);
        g.advance_to(0.5); // never rewinds
        assert!((g.clock() - (before + 1.0)).abs() < 1e-12);
        g.h2d(s1, 1_000_000, "b");
        let t = g.synchronize();
        assert!(t.spans[0].start >= before + 1.0, "post-jump ops start after the jump");
    }

    #[test]
    #[should_panic(expected = "synchronize before advancing")]
    fn advance_to_refuses_pending_work() {
        let mut g = gpu();
        let s = g.create_stream();
        g.h2d(s, 1_000, "a");
        g.advance_to(1.0);
    }

    #[test]
    fn pipelined_segments_beat_serial_execution() {
        // The §IV-C claim in miniature: 4 segments on 4 streams vs one
        // stream. Total work identical; pipelining must shrink makespan.
        let bytes = 100_000_000u64;
        let work = small_kernel(10_000_000);
        let cfg = LaunchConfig::new(4096, 256);

        let mut serial = gpu();
        let s = serial.create_stream();
        for i in 0..4 {
            serial.h2d(s, bytes / 4, format!("c{i}"));
            serial.launch(s, cfg, work, format!("k{i}"));
        }
        let t_serial = serial.synchronize().makespan();

        let mut piped = gpu();
        let streams: Vec<StreamId> = (0..4).map(|_| piped.create_stream()).collect();
        for (i, &st) in streams.iter().enumerate() {
            piped.h2d(st, bytes / 4, format!("c{i}"));
            piped.launch(st, cfg, work, format!("k{i}"));
        }
        let t_piped = piped.synchronize().makespan();

        assert!(t_piped < t_serial * 0.95, "pipelining should overlap: {t_piped} vs {t_serial}");
    }
}
