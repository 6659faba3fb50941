//! The multi-GPU node model: a set of devices, the host they hang off,
//! and the interconnect that carries tensor shards and partial results.
//!
//! The interconnect determines two things:
//!
//! 1. the *effective* host-link bandwidth each device sees during shard
//!    transfers (per-link PCIe vs several devices contending for the
//!    host's memory bandwidth), and
//! 2. the path partial output rows take during the reduction stage
//!    (D2H + host add vs direct peer-to-peer links).

use scalfrag_gpusim::{DeviceSpec, HostSpec};

/// How the devices of a node reach the host and each other.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Interconnect {
    /// Every device owns a dedicated full-bandwidth PCIe link (idealised
    /// switch with enough host-side bandwidth for all links at once).
    PerLinkPcie,
    /// All device links funnel through `total_gbs` of shared host memory
    /// bandwidth: with `D` devices active, each link is derated to
    /// `min(pcie, total_gbs / D)` — the realistic commodity-node regime
    /// and the main source of sub-linear strong scaling.
    SharedHost {
        /// Aggregate host-side bandwidth shared by all device links, GB/s.
        total_gbs: f64,
    },
    /// NVLink-style direct device↔device lanes at `peer_gbs` on top of
    /// dedicated PCIe host links. Shard transfers behave like
    /// [`Interconnect::PerLinkPcie`]; the reduction of row-overlapping
    /// shards travels peer-to-peer instead of bouncing through the host.
    PeerLinks {
        /// Per-direction peer link bandwidth, GB/s.
        peer_gbs: f64,
    },
}

/// A simulated multi-GPU node: `N` devices + host + interconnect.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// The devices, in scheduling order (may be heterogeneous).
    pub devices: Vec<DeviceSpec>,
    /// The host CPU executing reductions and staging transfers.
    pub host: HostSpec,
    /// The transfer-contention and reduction-path model.
    pub interconnect: Interconnect,
}

impl NodeSpec {
    /// A node of `n` identical devices behind the default host
    /// (i7-11700K) with shared-host-bandwidth contention — the
    /// commodity-workstation configuration of the paper's testbed,
    /// scaled out.
    pub fn homogeneous(device: DeviceSpec, n: usize) -> Self {
        assert!(n > 0, "a node needs at least one device");
        let host = HostSpec::i7_11700k();
        let total_gbs = host.mem_bandwidth_gbs;
        Self {
            devices: vec![device; n],
            host,
            interconnect: Interconnect::SharedHost { total_gbs },
        }
    }

    /// A node of explicitly listed (possibly different) devices.
    pub fn heterogeneous(devices: Vec<DeviceSpec>) -> Self {
        assert!(!devices.is_empty(), "a node needs at least one device");
        let host = HostSpec::i7_11700k();
        let total_gbs = host.mem_bandwidth_gbs;
        Self { devices, host, interconnect: Interconnect::SharedHost { total_gbs } }
    }

    /// Replaces the interconnect model.
    pub fn with_interconnect(mut self, interconnect: Interconnect) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Number of devices in the node.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// The device spec the executor should simulate for device `idx`,
    /// with the interconnect contention folded into its PCIe bandwidth.
    pub fn effective_device(&self, idx: usize) -> DeviceSpec {
        let spec = self.devices[idx].clone();
        match self.interconnect {
            Interconnect::PerLinkPcie | Interconnect::PeerLinks { .. } => spec,
            Interconnect::SharedHost { total_gbs } => {
                let share = total_gbs / self.num_devices() as f64;
                let h2d = spec.pcie_h2d_gbs.min(share);
                let d2h = spec.pcie_d2h_gbs.min(share);
                spec.with_pcie_bandwidth(h2d, d2h)
            }
        }
    }

    /// Scheduler speed proxy for device `idx`, in effective GB/s of shard
    /// data retired end-to-end at CPD rank `rank`.
    ///
    /// The pipelined executor is transfer-bound on the host link and
    /// bandwidth-bound in the kernel, so the serial-path estimate combines
    /// both: `1 / (1/pcie_eff + γ/mem_bw)`, where γ ≈ 1.5 × rank is the
    /// kernel's device-memory traffic per transferred tensor byte
    /// (calibrated against the tiled kernel's simulated cost at rank 16).
    /// Two cards on equal links thus differ only by the kernel term —
    /// negligible at small ranks where the link binds, decisive at large
    /// ranks where the kernel does.
    pub fn device_speed_proxy(&self, idx: usize, rank: usize) -> f64 {
        let gamma = 1.5 * rank as f64;
        let eff = self.effective_device(idx);
        1.0 / (1.0 / eff.pcie_h2d_gbs + gamma / eff.mem_bandwidth_gbs)
    }

    /// Peer-link bandwidth, if the node has peer lanes.
    pub fn peer_bandwidth_gbs(&self) -> Option<f64> {
        match self.interconnect {
            Interconnect::PeerLinks { peer_gbs } => Some(peer_gbs),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_host_derates_links_by_device_count() {
        let node = NodeSpec::homogeneous(DeviceSpec::rtx3090(), 4);
        let eff = node.effective_device(0);
        // 31.2 GB/s host bandwidth over 4 devices = 7.8 GB/s per link.
        assert!((eff.pcie_h2d_gbs - 31.2 / 4.0).abs() < 1e-12);
        assert!(eff.pcie_h2d_gbs < DeviceSpec::rtx3090().pcie_h2d_gbs);
    }

    #[test]
    fn single_device_shared_host_keeps_full_pcie() {
        let node = NodeSpec::homogeneous(DeviceSpec::rtx3090(), 1);
        let eff = node.effective_device(0);
        // One device: the 31.2 GB/s pool exceeds the 24.3 GB/s link.
        assert_eq!(eff.pcie_h2d_gbs, DeviceSpec::rtx3090().pcie_h2d_gbs);
    }

    #[test]
    fn per_link_and_peer_keep_full_pcie() {
        for ic in [Interconnect::PerLinkPcie, Interconnect::PeerLinks { peer_gbs: 50.0 }] {
            let node = NodeSpec::homogeneous(DeviceSpec::rtx3090(), 4).with_interconnect(ic);
            assert_eq!(node.effective_device(3).pcie_h2d_gbs, DeviceSpec::rtx3090().pcie_h2d_gbs);
        }
    }

    #[test]
    fn heterogeneous_node_preserves_device_order() {
        let node = NodeSpec::heterogeneous(vec![DeviceSpec::rtx3090(), DeviceSpec::rtx3060()]);
        assert_eq!(node.num_devices(), 2);
        assert_eq!(node.devices[0].name, DeviceSpec::rtx3090().name);
        assert_eq!(node.devices[1].name, DeviceSpec::rtx3060().name);
        assert!(node.peer_bandwidth_gbs().is_none());
    }
}
