//! End-to-end MTTKRP execution reports — the measurements every figure of
//! the evaluation section is drawn from.

use scalfrag_exec::{ExecOutcome, Plan};
use scalfrag_gpusim::{LaunchConfig, Timeline};
use scalfrag_kernels::workload::mttkrp_flops;
use scalfrag_kernels::FactorSet;
use scalfrag_linalg::Mat;
use scalfrag_tensor::CooTensor;

/// FLOPs of one MTTKRP over `tensor` at the rank of `factors`.
pub(crate) fn call_flops(tensor: &CooTensor, factors: &FactorSet) -> u64 {
    mttkrp_flops(tensor.nnz() as u64, tensor.order() as u32, factors.rank() as u32)
}

/// Per-phase busy times of one MTTKRP execution (the Fig. 5 bars).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTiming {
    /// Host→device transfer busy time (s).
    pub h2d_s: f64,
    /// Kernel busy time (s).
    pub kernel_s: f64,
    /// Device→host transfer busy time (s).
    pub d2h_s: f64,
    /// Host-CPU task busy time (s).
    pub host_s: f64,
    /// Time spent queued before execution started (s) — zero for one-shot
    /// runs; the serving layer fills it in. Queue wait is *not* busy time:
    /// it is excluded from [`PhaseTiming::busy_s`] and
    /// [`PhaseTiming::h2d_fraction`] but included in
    /// [`PhaseTiming::total`].
    pub queue_s: f64,
    /// Time spent waiting for a batch group to close after leaving the
    /// queue (s) — zero for solo dispatch; the batch-fused serving layer
    /// fills it in for every member of a fused group. Like `queue_s` it is
    /// idle time: excluded from [`PhaseTiming::busy_s`] and
    /// [`PhaseTiming::h2d_fraction`], included in [`PhaseTiming::total`].
    pub batch_wait_s: f64,
    /// Execution makespan (s), from first phase start to last phase end —
    /// smaller than the busy sum when phases overlap. Excludes queue wait
    /// and batch wait.
    pub total_s: f64,
}

impl PhaseTiming {
    /// Extracts phase timing from a timeline (queue wait zero).
    pub fn from_timeline(t: &Timeline) -> Self {
        let (h2d_s, kernel_s, d2h_s, host_s) = t.breakdown();
        Self {
            h2d_s,
            kernel_s,
            d2h_s,
            host_s,
            queue_s: 0.0,
            batch_wait_s: 0.0,
            total_s: t.makespan(),
        }
    }

    /// Returns `self` with the queue wait filled in.
    pub fn with_queue(mut self, queue_s: f64) -> Self {
        self.queue_s = queue_s;
        self
    }

    /// Sum of all busy phases — H2D + kernel + D2H + host. Every phase is
    /// accounted for here; queue wait is idle time and deliberately not
    /// part of the sum.
    pub fn busy_s(&self) -> f64 {
        self.h2d_s + self.kernel_s + self.d2h_s + self.host_s
    }

    /// End-to-end latency: queue wait plus batch-formation wait plus
    /// execution makespan.
    pub fn total(&self) -> f64 {
        self.queue_s + self.batch_wait_s + self.total_s
    }

    /// Fraction of total busy time spent in H2D — the §III-B observation
    /// that "H2D takes up the vast majority of the time".
    pub fn h2d_fraction(&self) -> f64 {
        let busy = self.busy_s();
        if busy <= 0.0 {
            0.0
        } else {
            self.h2d_s / busy
        }
    }

    /// Structural consistency check: every phase is non-negative and
    /// finite, and the makespan is bounded below by the busiest single
    /// engine (engines are exclusive, so no engine can be busy longer than
    /// the whole execution) and above by the serialized busy sum plus
    /// dependency slack.
    pub fn check_consistency(&self) -> Result<(), String> {
        const EPS: f64 = 1e-9;
        let phases = [
            ("h2d_s", self.h2d_s),
            ("kernel_s", self.kernel_s),
            ("d2h_s", self.d2h_s),
            ("host_s", self.host_s),
            ("queue_s", self.queue_s),
            ("batch_wait_s", self.batch_wait_s),
            ("total_s", self.total_s),
        ];
        for (name, v) in phases {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} = {v} is not a finite non-negative time"));
            }
        }
        let busiest = self.h2d_s.max(self.kernel_s).max(self.d2h_s).max(self.host_s);
        if self.total_s + EPS < busiest {
            return Err(format!("makespan {} shorter than busiest engine {busiest}", self.total_s));
        }
        Ok(())
    }
}

/// The result of one end-to-end MTTKRP through a framework backend.
#[derive(Clone, Debug)]
pub struct MttkrpReport {
    /// Framework name (`"scalfrag"` / `"parti"`).
    pub backend: &'static str,
    /// Target mode.
    pub mode: usize,
    /// CPD rank.
    pub rank: usize,
    /// The launch configuration the kernel ran with.
    pub config: LaunchConfig,
    /// Number of pipeline segments used (1 = synchronous).
    pub segments: usize,
    /// Number of streams used.
    pub streams: usize,
    /// MTTKRP FLOPs.
    pub flops: u64,
    /// Phase breakdown.
    pub timing: PhaseTiming,
    /// Overlap ratio of the schedule (0 = serial).
    pub overlap_ratio: f64,
    /// The MTTKRP output (zeros for dry runs).
    pub output: Mat,
}

impl MttkrpReport {
    /// The report of one run of a single-device `plan`, in any run mode:
    /// the launch shape comes from the plan, the timing and the output
    /// (moved, not copied) from the run.
    pub fn from_run(backend: &'static str, plan: &Plan, run: ExecOutcome, flops: u64) -> Self {
        let device = &plan.devices[0];
        Self {
            backend,
            mode: plan.mode,
            rank: plan.rank,
            config: plan.kernel.full_config(plan.config, plan.rank as u32),
            segments: device.units.len(),
            streams: device.worker_streams,
            flops,
            timing: PhaseTiming::from_timeline(&run.timeline),
            overlap_ratio: run.timeline.overlap_ratio(),
            output: run.output,
        }
    }

    /// Kernel-only achieved GFLOP/s (the Fig. 9 metric).
    pub fn kernel_gflops(&self) -> f64 {
        if self.timing.kernel_s <= 0.0 {
            0.0
        } else {
            self.flops as f64 / self.timing.kernel_s / 1e9
        }
    }

    /// End-to-end achieved GFLOP/s (the Fig. 10 metric).
    pub fn e2e_gflops(&self) -> f64 {
        if self.timing.total_s <= 0.0 {
            0.0
        } else {
            self.flops as f64 / self.timing.total_s / 1e9
        }
    }

    /// One-line human-readable summary. The host phase used to be silently
    /// dropped from the breakdown; it now shows whenever a hybrid run put
    /// work on the CPU.
    pub fn summary(&self) -> String {
        let host = if self.timing.host_s > 0.0 {
            format!(" host {:.3}ms", self.timing.host_s * 1e3)
        } else {
            String::new()
        };
        format!(
            "{:<9} mode-{} {} segs={} streams={} | H2D {:.3}ms kernel {:.3}ms D2H {:.3}ms{host} | total {:.3}ms ({:.1} GF/s kernel, {:.1} GF/s e2e, overlap {:.0}%)",
            self.backend,
            self.mode,
            self.config,
            self.segments,
            self.streams,
            self.timing.h2d_s * 1e3,
            self.timing.kernel_s * 1e3,
            self.timing.d2h_s * 1e3,
            self.timing.total_s * 1e3,
            self.kernel_gflops(),
            self.e2e_gflops(),
            self.overlap_ratio * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_gpusim::{Span, SpanKind};

    fn span(kind: SpanKind, start: f64, end: f64) -> Span {
        Span { op: 0, stream: 0, kind, label: "".into(), start, end }
    }

    #[test]
    fn phase_timing_from_timeline() {
        let t = Timeline {
            spans: vec![
                span(SpanKind::CopyH2D, 0.0, 3.0),
                span(SpanKind::Kernel, 3.0, 4.0),
                span(SpanKind::CopyD2H, 4.0, 4.5),
            ],
        };
        let p = PhaseTiming::from_timeline(&t);
        assert_eq!(p.h2d_s, 3.0);
        assert_eq!(p.kernel_s, 1.0);
        assert_eq!(p.d2h_s, 0.5);
        assert_eq!(p.total_s, 4.5);
        assert!((p.h2d_fraction() - 3.0 / 4.5).abs() < 1e-12);
    }

    #[test]
    fn gflops_and_summary() {
        let r = MttkrpReport {
            backend: "scalfrag",
            mode: 0,
            rank: 16,
            config: LaunchConfig::new(1024, 256),
            segments: 4,
            streams: 4,
            flops: 2_000_000_000,
            timing: PhaseTiming {
                h2d_s: 0.01,
                kernel_s: 0.004,
                d2h_s: 0.001,
                host_s: 0.0,
                queue_s: 0.0,
                batch_wait_s: 0.0,
                total_s: 0.012,
            },
            overlap_ratio: 0.2,
            output: Mat::zeros(1, 1),
        };
        assert!((r.kernel_gflops() - 500.0).abs() < 1e-9);
        assert!((r.e2e_gflops() - 2_000.0 / 12.0).abs() < 1e-6);
        let s = r.summary();
        assert!(s.contains("scalfrag") && s.contains("segs=4"));
    }

    #[test]
    fn zero_time_is_safe() {
        let p = PhaseTiming::default();
        assert_eq!(p.h2d_fraction(), 0.0);
        assert!(p.check_consistency().is_ok());
    }

    #[test]
    fn queue_wait_extends_total_but_not_busy() {
        let t = Timeline {
            spans: vec![span(SpanKind::CopyH2D, 0.0, 2.0), span(SpanKind::Kernel, 2.0, 3.0)],
        };
        let p = PhaseTiming::from_timeline(&t).with_queue(1.5);
        assert_eq!(p.queue_s, 1.5);
        assert_eq!(p.busy_s(), 3.0, "queue wait is not busy time");
        assert_eq!(p.total_s, 3.0);
        assert_eq!(p.total(), 4.5, "end-to-end latency includes the wait");
        assert!((p.h2d_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!(p.check_consistency().is_ok());
    }

    #[test]
    fn consistency_check_catches_impossible_timings() {
        // Makespan shorter than the busiest engine is impossible.
        let bad = PhaseTiming { h2d_s: 3.0, total_s: 2.0, ..Default::default() };
        assert!(bad.check_consistency().is_err());
        let negative = PhaseTiming { kernel_s: -1.0, ..Default::default() };
        assert!(negative.check_consistency().is_err());
        let nan = PhaseTiming { queue_s: f64::NAN, ..Default::default() };
        assert!(nan.check_consistency().is_err());
        // The batch-formation wait is a phase like any other: negative or
        // non-finite values must fail the structural check.
        let neg_batch = PhaseTiming { batch_wait_s: -0.5, ..Default::default() };
        assert!(neg_batch.check_consistency().is_err());
        let inf_batch = PhaseTiming { batch_wait_s: f64::INFINITY, ..Default::default() };
        assert!(inf_batch.check_consistency().is_err());
    }

    #[test]
    fn batch_wait_extends_total_but_not_busy() {
        let t = Timeline {
            spans: vec![span(SpanKind::CopyH2D, 0.0, 2.0), span(SpanKind::Kernel, 2.0, 3.0)],
        };
        let p = PhaseTiming { batch_wait_s: 0.5, ..PhaseTiming::from_timeline(&t).with_queue(1.0) };
        assert_eq!(p.batch_wait_s, 0.5);
        assert_eq!(p.busy_s(), 3.0, "batch wait is idle time, not busy time");
        assert_eq!(p.total_s, 3.0, "makespan excludes the batch wait");
        assert_eq!(p.total(), 4.5, "end-to-end latency includes queue and batch waits");
        assert!((p.h2d_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!(p.check_consistency().is_ok());
    }

    #[test]
    fn hybrid_host_phase_shows_in_summary() {
        let mut r = MttkrpReport {
            backend: "scalfrag",
            mode: 0,
            rank: 16,
            config: LaunchConfig::new(1024, 256),
            segments: 4,
            streams: 4,
            flops: 1_000,
            timing: PhaseTiming {
                h2d_s: 0.01,
                kernel_s: 0.004,
                d2h_s: 0.001,
                host_s: 0.002,
                queue_s: 0.0,
                batch_wait_s: 0.0,
                total_s: 0.012,
            },
            overlap_ratio: 0.0,
            output: Mat::zeros(1, 1),
        };
        assert!(r.summary().contains("host"), "host phase must not be silently dropped");
        r.timing.host_s = 0.0;
        assert!(!r.summary().contains("host"));
    }
}
