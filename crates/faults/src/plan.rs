//! Fault plans: the declarative, seed-reproducible schedule of what fails
//! where and when.

use crate::event::FaultKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// When a scheduled fault fires, per device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultTrigger {
    /// Fires at the first poll whose simulated time reaches `t` seconds.
    AtTime(f64),
    /// Fires at the first operation whose per-device operation index
    /// (0-based, counted across H2D/D2H/kernel polls) reaches `n`.
    AtOp(u64),
}

/// One planned fault: a device, a trigger, a kind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduledFault {
    /// Target device index.
    pub device: usize,
    /// When it fires.
    pub trigger: FaultTrigger,
    /// What fires.
    pub kind: FaultKind,
}

/// An ordered list of scheduled faults. Order matters only among faults
/// that become eligible at the same poll (earlier entries fire first);
/// everything else is governed by the triggers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The schedule.
    pub faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// An empty plan (the fault-free baseline).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one fault (builder style).
    pub fn fault(mut self, device: usize, trigger: FaultTrigger, kind: FaultKind) -> Self {
        self.faults.push(ScheduledFault { device, trigger, kind });
        self
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Draws a whole fault storm from one seed: per device, operation gaps
    /// follow a geometric-ish law with mean `mean_ops_between_faults`
    /// (the MTBF knob, in operations), truncated at `horizon_ops`. Fault
    /// kinds mix transfer corruption, kernel aborts, stragglers and device
    /// failures; `recoverable_only` replaces permanent device failures
    /// with transient ones so retry-class policies can always finish.
    ///
    /// Deterministic: same arguments ⇒ identical plan.
    pub fn seeded_storm(
        seed: u64,
        num_devices: usize,
        mean_ops_between_faults: u64,
        horizon_ops: u64,
        recoverable_only: bool,
    ) -> Self {
        assert!(num_devices > 0, "a storm needs at least one device");
        assert!(mean_ops_between_faults > 0, "MTBF must be positive");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17_5eed_u64.rotate_left(17));
        let mut faults = Vec::new();
        for device in 0..num_devices {
            let mut op = 0u64;
            loop {
                // Inverse-CDF exponential gap, rounded up so faults never
                // pile onto the same op index.
                let u: f64 = rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12);
                let gap = (-(1.0 - u).ln() * mean_ops_between_faults as f64).ceil().max(1.0);
                op = op.saturating_add(gap as u64);
                if op >= horizon_ops {
                    break;
                }
                let kind = match rng.gen_range(0u32..100) {
                    0..=39 => FaultKind::TransferCorruption,
                    40..=59 => FaultKind::KernelAbort,
                    60..=79 => FaultKind::Straggler { derate: 1.25 + rng.gen::<f64>() * 2.0 },
                    _ => {
                        let transient = recoverable_only || rng.gen::<bool>();
                        if transient {
                            // Downtime on the order of a few segment times.
                            FaultKind::DeviceFail {
                                down_s: Some(1e-4 * (1.0 + rng.gen::<f64>() * 9.0)),
                            }
                        } else {
                            FaultKind::DeviceFail { down_s: None }
                        }
                    }
                };
                faults.push(ScheduledFault { device, trigger: FaultTrigger::AtOp(op), kind });
            }
        }
        Self { faults }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_in_order() {
        let p = FaultPlan::new()
            .fault(0, FaultTrigger::AtOp(2), FaultKind::TransferCorruption)
            .fault(1, FaultTrigger::AtTime(0.5), FaultKind::KernelAbort);
        assert_eq!(p.len(), 2);
        assert_eq!(p.faults[0].device, 0);
        assert_eq!(p.faults[1].trigger, FaultTrigger::AtTime(0.5));
    }

    #[test]
    fn seeded_storm_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded_storm(7, 3, 8, 64, true);
        let b = FaultPlan::seeded_storm(7, 3, 8, 64, true);
        assert_eq!(a, b, "same seed must give the identical plan");
        let c = FaultPlan::seeded_storm(8, 3, 8, 64, true);
        assert_ne!(a, c, "different seed must change the plan");
        assert!(!a.is_empty(), "mean gap 8 over 64 ops on 3 devices should fire");
    }

    #[test]
    fn recoverable_storms_never_schedule_permanent_failures() {
        for seed in 0..16u64 {
            let p = FaultPlan::seeded_storm(seed, 4, 4, 128, true);
            let permanent =
                p.faults.iter().any(|f| f.kind == FaultKind::DeviceFail { down_s: None });
            assert!(!permanent, "seed {seed} produced a permanent failure");
        }
    }

    #[test]
    fn storm_respects_horizon_and_mtbf_scaling() {
        let dense = FaultPlan::seeded_storm(3, 2, 4, 256, true);
        let sparse = FaultPlan::seeded_storm(3, 2, 64, 256, true);
        assert!(dense.len() > sparse.len(), "shorter MTBF must mean more faults");
        for f in &dense.faults {
            match f.trigger {
                FaultTrigger::AtOp(op) => assert!(op < 256),
                FaultTrigger::AtTime(_) => panic!("storms schedule by op count"),
            }
        }
    }
}
