//! An `nvprof`-style profiler over simulated timelines: per-label
//! aggregation, achieved-bandwidth/occupancy estimates and a formatted
//! report. Used by the harnesses and handy when tuning the cost model.

use crate::cost::{kernel_duration, CostBreakdown, KernelWorkload};
use crate::device::DeviceSpec;
use crate::launch::LaunchConfig;
use crate::timeline::{SpanKind, Timeline};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Aggregated statistics for one span label.
#[derive(Clone, Debug, PartialEq)]
pub struct LabelStats {
    /// Number of spans with this label.
    pub count: usize,
    /// Total busy seconds.
    pub total_s: f64,
    /// Minimum span duration.
    pub min_s: f64,
    /// Maximum span duration.
    pub max_s: f64,
}

impl Default for LabelStats {
    /// The empty aggregate. `min_s` starts at `+∞` so the first recorded
    /// sample always becomes the minimum — a 0.0 default would pin the
    /// minimum below every real duration.
    fn default() -> Self {
        Self { count: 0, total_s: 0.0, min_s: f64::INFINITY, max_s: 0.0 }
    }
}

impl LabelStats {
    /// Folds one span duration into the aggregate.
    pub fn record(&mut self, duration_s: f64) {
        self.count += 1;
        self.total_s += duration_s;
        self.min_s = self.min_s.min(duration_s);
        self.max_s = self.max_s.max(duration_s);
    }

    /// Mean span duration.
    pub fn avg_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64
        }
    }
}

/// A profile of one timeline.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Per-label statistics (sorted by label).
    pub by_label: BTreeMap<Arc<str>, LabelStats>,
    /// Per-kind totals.
    pub kernel_s: f64,
    /// Total H2D copy time.
    pub h2d_s: f64,
    /// Total D2H copy time.
    pub d2h_s: f64,
    /// Total host-task time.
    pub host_s: f64,
    /// End-to-end makespan.
    pub makespan_s: f64,
}

/// Builds a profile from a timeline.
pub fn profile(timeline: &Timeline) -> Profile {
    let mut p = Profile { makespan_s: timeline.makespan(), ..Default::default() };
    for span in &timeline.spans {
        let d = span.duration();
        match span.kind {
            SpanKind::Kernel => p.kernel_s += d,
            SpanKind::CopyH2D => p.h2d_s += d,
            SpanKind::CopyD2H => p.d2h_s += d,
            SpanKind::HostTask => p.host_s += d,
        }
        p.by_label.entry(span.label.clone()).or_default().record(d);
    }
    p
}

impl Profile {
    /// Formats an nvprof-like table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "makespan {:.3}ms | kernels {:.3}ms, H2D {:.3}ms, D2H {:.3}ms, host {:.3}ms\n",
            self.makespan_s * 1e3,
            self.kernel_s * 1e3,
            self.h2d_s * 1e3,
            self.d2h_s * 1e3,
            self.host_s * 1e3
        ));
        out.push_str(&format!(
            "{:<32} {:>6} {:>12} {:>12} {:>12} {:>12}\n",
            "label", "count", "total", "avg", "min", "max"
        ));
        for (label, s) in &self.by_label {
            out.push_str(&format!(
                "{:<32} {:>6} {:>10.1}µs {:>10.1}µs {:>10.1}µs {:>10.1}µs\n",
                label,
                s.count,
                s.total_s * 1e6,
                s.avg_s() * 1e6,
                s.min_s * 1e6,
                s.max_s * 1e6
            ));
        }
        out
    }
}

/// A "speed-of-light" analysis of one kernel launch: which roof binds and
/// how far from the device peaks it runs — the explanation tool for
/// Fig. 4 cells.
#[derive(Clone, Debug)]
pub struct KernelAnalysis {
    /// Cost breakdown of the launch.
    pub breakdown: CostBreakdown,
    /// Which component bounds the kernel body.
    pub bound_by: &'static str,
    /// Achieved fraction of peak memory bandwidth.
    pub bandwidth_utilisation: f64,
    /// Achieved fraction of peak FP32 throughput.
    pub compute_utilisation: f64,
}

/// Analyses one kernel launch.
pub fn analyze_kernel(
    device: &DeviceSpec,
    config: &LaunchConfig,
    workload: &KernelWorkload,
) -> KernelAnalysis {
    let b = kernel_duration(device, config, workload);
    let body = [
        (b.t_mem, "memory"),
        (b.t_compute, "compute"),
        (b.t_atomic, "atomics"),
        (b.t_serial, "serial-chain"),
    ];
    let bound_by = body
        .iter()
        .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
        .map(|&(_, n)| n)
        .unwrap_or("memory");
    let bytes = (workload.bytes_read + workload.bytes_written) as f64;
    let bandwidth_utilisation = if b.total.is_finite() && b.total > 0.0 {
        (bytes / b.total) / (device.mem_bandwidth_gbs * 1e9)
    } else {
        0.0
    };
    let compute_utilisation = if b.total.is_finite() && b.total > 0.0 {
        (workload.flops as f64 / b.total) / (device.peak_gflops() * 1e9)
    } else {
        0.0
    };
    KernelAnalysis { breakdown: b, bound_by, bandwidth_utilisation, compute_utilisation }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::Gpu;

    #[test]
    fn profile_aggregates_labels() {
        let mut gpu = Gpu::new(DeviceSpec::rtx3090());
        let s = gpu.create_stream();
        gpu.h2d(s, 10_000_000, "seg H2D");
        gpu.h2d(s, 20_000_000, "seg H2D");
        gpu.d2h(s, 1_000_000, "out D2H");
        let t = gpu.synchronize();
        let p = profile(&t);
        assert_eq!(p.by_label["seg H2D"].count, 2);
        assert!(p.by_label["seg H2D"].max_s > p.by_label["seg H2D"].min_s);
        assert!(p.h2d_s > p.d2h_s);
        assert!((p.makespan_s - t.makespan()).abs() < 1e-15);
        let rendered = p.render();
        assert!(rendered.contains("seg H2D") && rendered.contains("out D2H"));
    }

    #[test]
    fn default_label_stats_take_min_from_first_sample() {
        // Regression: `min_s` used to default to 0.0, so recording into a
        // default-constructed aggregate could never raise the minimum
        // above zero.
        let mut s = LabelStats::default();
        s.record(2.0);
        assert_eq!(s.min_s, 2.0, "first sample must become the minimum");
        assert_eq!(s.max_s, 2.0);
        s.record(3.0);
        assert_eq!(s.min_s, 2.0);
        assert_eq!(s.max_s, 3.0);
        assert_eq!(s.count, 2);
        assert!((s.avg_s() - 2.5).abs() < 1e-15);
    }

    #[test]
    fn analysis_identifies_the_binding_roof() {
        let d = DeviceSpec::rtx3090();
        let mut w = KernelWorkload::empty();
        w.work_items = 1_000_000;
        w.bytes_read = 500_000_000; // clearly memory-bound
        w.flops = 1_000;
        let a = analyze_kernel(&d, &LaunchConfig::new(4096, 256), &w);
        assert_eq!(a.bound_by, "memory");
        assert!(a.bandwidth_utilisation > 0.1 && a.bandwidth_utilisation <= 1.0);
        assert!(a.compute_utilisation < 1e-3);

        let mut w2 = KernelWorkload::empty();
        w2.work_items = 1_000_000;
        w2.flops = 50_000_000_000; // clearly compute-bound
        w2.bytes_read = 1_000;
        let a2 = analyze_kernel(&d, &LaunchConfig::new(4096, 256), &w2);
        assert_eq!(a2.bound_by, "compute");
    }

    #[test]
    fn utilisations_are_bounded() {
        let d = DeviceSpec::rtx3090();
        let mut w = KernelWorkload::empty();
        w.work_items = 10_000_000;
        w.bytes_read = 2_000_000_000;
        w.flops = 1_000_000_000;
        w.atomic_ops = 10_000_000;
        for cfg in LaunchConfig::sweep_space(&d).iter().step_by(7) {
            let a = analyze_kernel(&d, cfg, &w);
            assert!(a.bandwidth_utilisation <= 1.0 + 1e-9, "{cfg}");
            assert!(a.compute_utilisation <= 1.0 + 1e-9, "{cfg}");
        }
    }
}
