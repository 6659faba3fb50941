//! Analytic kernel timing model.
//!
//! This is the component that turns a (workload, launch configuration)
//! pair into a simulated duration, and therefore the component responsible
//! for reproducing the *shape* of the paper's Fig. 4 heatmaps:
//!
//! * **small `grid × block`** → few resident threads → memory latency is
//!   not hidden → the effective bandwidth collapses → slow;
//! * **growing `grid × block`** → the bandwidth saturation curve climbs →
//!   fast plateau;
//! * **oversized `block`** → occupancy quantisation against the per-SM
//!   thread/shared-memory limits claws performance back;
//! * **oversized `grid`** → per-block scheduling overhead accumulates,
//!   which matters exactly for the small tensors whose compute time is
//!   tiny — hence the tensor-dependent optimum the paper exploits.
//!
//! The model is a max-of-roofs (memory, compute, atomics, per-thread
//! serial chain) plus launch and scheduling overheads. It is fully
//! deterministic.

use crate::{occupancy, DeviceSpec, LaunchConfig};

/// Description of the dynamic work one kernel launch performs.
///
/// Produced by the kernel implementations in `scalfrag-kernels` from the
/// tensor/segment statistics; consumed by [`kernel_duration`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelWorkload {
    /// Independent parallel work units (for nnz-parallel MTTKRP: nnz).
    pub work_items: u64,
    /// Total floating-point operations.
    pub flops: u64,
    /// Bytes read from global memory (coalesced-equivalent).
    pub bytes_read: u64,
    /// Bytes written to global memory.
    pub bytes_written: u64,
    /// Global atomic read-modify-write operations.
    pub atomic_ops: u64,
    /// Probability that two concurrent atomics collide on the same address
    /// (a Herfindahl index of the output-row distribution, in `[0, 1]`).
    pub atomic_hotness: f64,
    /// Fraction of peak bandwidth achievable by the access pattern
    /// (1.0 = perfectly coalesced streams, ~0.25 = scattered gathers).
    pub coalescing: f64,
    /// Registers per thread (occupancy input).
    pub regs_per_thread: u32,
    /// Factor by which shared-memory staging divides the atomic traffic
    /// that reaches global memory (1.0 = no tiling).
    pub shared_tile_reduction: f64,
    /// Instruction-pipeline cost of one work item, in cycles (per-thread
    /// serial chain when the grid is too small).
    pub item_cycles: f64,
}

impl KernelWorkload {
    /// A neutral workload useful as a builder base in tests.
    pub fn empty() -> Self {
        Self {
            work_items: 0,
            flops: 0,
            bytes_read: 0,
            bytes_written: 0,
            atomic_ops: 0,
            atomic_hotness: 0.0,
            coalescing: 1.0,
            regs_per_thread: 32,
            shared_tile_reduction: 1.0,
            item_cycles: 0.0,
        }
    }
}

/// Per-component timing of one simulated kernel launch (seconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostBreakdown {
    /// Fixed launch latency.
    pub t_launch: f64,
    /// Memory-traffic roof.
    pub t_mem: f64,
    /// FP-compute roof.
    pub t_compute: f64,
    /// Atomic-serialisation roof.
    pub t_atomic: f64,
    /// Longest per-thread serial chain.
    pub t_serial: f64,
    /// Block scheduling overhead.
    pub t_sched: f64,
    /// End-to-end kernel duration.
    pub total: f64,
}

/// Cap on the modelled atomic serialisation factor; beyond ~hundreds of
/// colliding writers the L2 write-combiner in real parts flattens the curve.
const MAX_CONFLICT_DEGREE: f64 = 256.0;

/// Window of atomics in flight that can collide with each other.
const ATOMIC_WINDOW: f64 = 128.0;

/// Computes the simulated duration of one kernel launch.
///
/// Returns a breakdown whose `total` is `+∞` when the configuration cannot
/// be scheduled at all (e.g. its shared-memory request prevents any block
/// from fitting on an SM).
pub fn kernel_duration(
    device: &DeviceSpec,
    config: &LaunchConfig,
    w: &KernelWorkload,
) -> CostBreakdown {
    let occ = occupancy(device, config, w.regs_per_thread);
    let t_launch = device.kernel_launch_us * 1e-6;
    if occ.blocks_per_sm == 0 {
        return CostBreakdown {
            t_launch,
            t_mem: f64::INFINITY,
            t_compute: 0.0,
            t_atomic: 0.0,
            t_serial: 0.0,
            t_sched: 0.0,
            total: f64::INFINITY,
        };
    }
    if w.work_items == 0 {
        return CostBreakdown {
            t_launch,
            t_mem: 0.0,
            t_compute: 0.0,
            t_atomic: 0.0,
            t_serial: 0.0,
            t_sched: 0.0,
            total: t_launch,
        };
    }

    // --- Memory roof: bandwidth saturates with resident parallelism. ---
    // Threads beyond the work size contribute no useful memory parallelism.
    let useful_resident = (occ.resident_threads.min(w.work_items)) as f64;
    let mem_eff = useful_resident / (useful_resident + device.latency_hiding_threads);
    let bw = device.mem_bandwidth_gbs * 1e9 * w.coalescing.clamp(0.01, 1.0) * mem_eff;
    let t_mem = (w.bytes_read + w.bytes_written) as f64 / bw;

    // --- Compute roof: only SMs that received blocks contribute. ---
    let used_sms = (config.grid.min(device.num_sms)) as f64;
    let occ_eff = occ.ratio / (occ.ratio + 0.25); // issue-efficiency saturation
    let peak = used_sms * device.cores_per_sm as f64 * device.clock_ghz * 1e9 * 2.0;
    let t_compute = w.flops as f64 / (peak * occ_eff.max(1e-3));

    // --- Atomic roof: contention serialises colliding updates. ---
    let effective_atomics = w.atomic_ops as f64 / w.shared_tile_reduction.max(1.0);
    let concurrent = useful_resident.min(ATOMIC_WINDOW);
    let conflict_degree =
        (1.0 + w.atomic_hotness.clamp(0.0, 1.0) * concurrent).min(MAX_CONFLICT_DEGREE);
    let atomic_rate = device.atomic_gops * 1e9 * mem_eff.max(0.05);
    let t_atomic = effective_atomics * conflict_degree / atomic_rate;

    // --- Per-thread serial chain: a tiny grid leaves each thread looping
    //     over many items whose pipeline latencies cannot all overlap. ---
    let total_threads = config.total_threads().max(1);
    let items_per_thread = w.work_items.div_ceil(total_threads);
    let t_serial = items_per_thread as f64 * w.item_cycles / (device.clock_ghz * 1e9);

    // --- Block scheduling overhead: every block costs the GigaThread
    //     engine a dispatch slot; SMs absorb them in parallel. ---
    let t_sched = config.grid as f64 * device.block_sched_us * 1e-6 / device.num_sms as f64;

    let body = t_mem.max(t_compute).max(t_atomic).max(t_serial);
    CostBreakdown {
        t_launch,
        t_mem,
        t_compute,
        t_atomic,
        t_serial,
        t_sched,
        total: t_launch + body + t_sched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::rtx3090()
    }

    /// A medium MTTKRP-like workload: 1M nnz, rank 16.
    fn wl() -> KernelWorkload {
        KernelWorkload {
            work_items: 1_000_000,
            flops: 3 * 16 * 1_000_000,
            bytes_read: 212 * 1_000_000,
            bytes_written: 0,
            atomic_ops: 16 * 1_000_000,
            atomic_hotness: 1e-5,
            coalescing: 0.5,
            regs_per_thread: 40,
            shared_tile_reduction: 1.0,
            item_cycles: 120.0,
        }
    }

    #[test]
    fn tiny_launch_is_slow_medium_launch_is_fast() {
        let d = dev();
        let w = wl();
        let t_small = kernel_duration(&d, &LaunchConfig::new(32, 32), &w).total;
        let t_good = kernel_duration(&d, &LaunchConfig::new(4096, 256), &w).total;
        assert!(
            t_small > 5.0 * t_good,
            "tiny launch {t_small} should be much slower than {t_good}"
        );
    }

    #[test]
    fn huge_grid_declines_for_small_tensors() {
        let d = dev();
        let mut w = wl();
        w.work_items = 20_000; // small tensor
        w.flops = 3 * 16 * 20_000;
        w.bytes_read = 212 * 20_000;
        w.atomic_ops = 16 * 20_000;
        let t_mid = kernel_duration(&d, &LaunchConfig::new(1024, 256), &w).total;
        let t_huge = kernel_duration(&d, &LaunchConfig::new(1 << 17, 256), &w).total;
        assert!(
            t_huge > 1.3 * t_mid,
            "oversized grid {t_huge} should lose to {t_mid} on a small tensor"
        );
    }

    #[test]
    fn huge_grid_fine_for_large_tensors() {
        let d = dev();
        let mut w = wl();
        w.work_items = 100_000_000;
        w.flops = 3 * 16 * 100_000_000;
        w.bytes_read = 212 * 100_000_000;
        w.atomic_ops = 16 * 100_000_000;
        let t_mid = kernel_duration(&d, &LaunchConfig::new(1024, 256), &w).total;
        let t_huge = kernel_duration(&d, &LaunchConfig::new(1 << 17, 256), &w).total;
        // Once residency saturates, extra blocks become grid-stride loops:
        // the scheduling overhead must be negligible relative to the body.
        assert!(
            t_huge < 1.01 * t_mid,
            "oversized grid must be harmless on large tensors: {t_huge} vs {t_mid}"
        );
    }

    #[test]
    fn optimum_is_interior_not_extreme() {
        // The best configuration over the sweep must not sit at either
        // extreme of the grid axis for a small tensor — the Fig. 4 shape.
        let d = dev();
        let mut w = wl();
        w.work_items = 50_000;
        w.flops = 3 * 16 * 50_000;
        w.bytes_read = 212 * 50_000;
        w.atomic_ops = 16 * 50_000;
        let space = LaunchConfig::sweep_space(&d);
        let best = space
            .iter()
            .min_by(|a, b| {
                kernel_duration(&d, a, &w)
                    .total
                    .partial_cmp(&kernel_duration(&d, b, &w).total)
                    .unwrap()
            })
            .unwrap();
        assert!(best.grid > 32, "optimum grid should exceed the minimum");
        assert!(best.grid < (1 << 17), "optimum grid should be interior");
    }

    #[test]
    fn hot_atomics_penalise_and_tiling_recovers() {
        let d = dev();
        let cfg = LaunchConfig::new(4096, 256);
        let mut hot = wl();
        hot.atomic_hotness = 0.05; // skewed output rows
        let t_hot = kernel_duration(&d, &cfg, &hot).total;
        let t_cold = kernel_duration(&d, &cfg, &wl()).total;
        assert!(t_hot > 2.0 * t_cold, "hotness must hurt: {t_hot} vs {t_cold}");

        let mut tiled = hot;
        tiled.shared_tile_reduction = 16.0;
        let t_tiled = kernel_duration(&d, &cfg, &tiled).total;
        assert!(
            t_tiled < t_hot / 2.0,
            "shared tiling must recover atomic losses: {t_tiled} vs {t_hot}"
        );
    }

    #[test]
    fn unschedulable_config_is_infinite() {
        let d = dev();
        // 100 KB of shared memory per block with block=1024 -> but per-block
        // limit allows it; 100KB on a 128KB SM allows 1 block, so valid.
        // Use registers to make it unschedulable: 255 regs * 1024 threads.
        let cb = kernel_duration(&d, &LaunchConfig::new(64, 1024), &{
            let mut w = wl();
            w.regs_per_thread = 255;
            w
        });
        assert!(cb.total.is_infinite());
    }

    #[test]
    fn empty_workload_costs_only_launch() {
        let d = dev();
        let cb = kernel_duration(&d, &LaunchConfig::new(64, 64), &KernelWorkload::empty());
        assert!((cb.total - d.kernel_launch_us * 1e-6).abs() < 1e-12);
    }

    #[test]
    fn duration_is_deterministic() {
        let d = dev();
        let cfg = LaunchConfig::new(2048, 128);
        let a = kernel_duration(&d, &cfg, &wl());
        let b = kernel_duration(&d, &cfg, &wl());
        assert_eq!(a, b);
    }

    #[test]
    fn the_binding_roof_follows_the_workload() {
        let d = dev();
        let cfg = LaunchConfig::new(4096, 256);
        let memory_bound = KernelWorkload {
            work_items: 1_000_000,
            bytes_read: 500_000_000,
            flops: 1_000,
            ..KernelWorkload::empty()
        };
        let b = kernel_duration(&d, &cfg, &memory_bound);
        assert!(b.t_mem > b.t_compute.max(b.t_atomic).max(b.t_serial), "{b:?}");
        let compute_bound = KernelWorkload {
            work_items: 1_000_000,
            bytes_read: 1_000,
            flops: 50_000_000_000,
            ..KernelWorkload::empty()
        };
        let b = kernel_duration(&d, &cfg, &compute_bound);
        assert!(b.t_compute > b.t_mem.max(b.t_atomic).max(b.t_serial), "{b:?}");
    }

    #[test]
    fn no_launch_beats_the_device_peaks() {
        let d = dev();
        let w = KernelWorkload {
            work_items: 10_000_000,
            bytes_read: 2_000_000_000,
            flops: 1_000_000_000,
            atomic_ops: 10_000_000,
            ..KernelWorkload::empty()
        };
        let bytes = (w.bytes_read + w.bytes_written) as f64;
        for cfg in LaunchConfig::sweep_space(&d).iter().step_by(7) {
            let t = kernel_duration(&d, cfg, &w).total;
            assert!(bytes / t <= d.mem_bandwidth_gbs * 1e9 * (1.0 + 1e-9), "{cfg}");
            assert!(w.flops as f64 / t <= d.peak_gflops() * 1e9 * (1.0 + 1e-9), "{cfg}");
        }
    }

    #[test]
    fn better_coalescing_is_faster() {
        let d = dev();
        let cfg = LaunchConfig::new(4096, 256);
        let mut scattered = wl();
        scattered.coalescing = 0.15;
        let t_s = kernel_duration(&d, &cfg, &scattered).total;
        let t_c = kernel_duration(&d, &cfg, &wl()).total;
        assert!(t_s > t_c);
    }

    #[test]
    fn weaker_device_is_slower() {
        let w = wl();
        let cfg = LaunchConfig::new(4096, 256);
        let t_3090 = kernel_duration(&DeviceSpec::rtx3090(), &cfg, &w).total;
        let t_3060 = kernel_duration(&DeviceSpec::rtx3060(), &cfg, &w).total;
        assert!(t_3060 > t_3090);
    }
}
