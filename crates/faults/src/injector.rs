//! The injector: consumes a [`FaultPlan`] against a running execution and
//! hands executors typed verdicts, while tracking per-device health and
//! the full [`FaultLog`].

use crate::event::{FaultKind, FaultLog, LogEntry, LogRecord, RecoveryAction};
use crate::plan::{FaultPlan, FaultTrigger};

/// The class of simulated operation being polled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Host-to-device transfer.
    H2D,
    /// Device-to-host transfer.
    D2H,
    /// Kernel launch.
    Kernel,
}

/// The injector's answer for one polled operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OpVerdict {
    /// The operation proceeds normally.
    Ok,
    /// The transfer completes but delivers corrupted bytes (the checksum
    /// pass will catch it; the executor pays the transfer and retries).
    Corrupted,
    /// The kernel is charged its full cost, then aborts.
    Aborted,
    /// The device is down: the operation does not run. `until_s: Some(t)`
    /// means it heals at simulated time `t`; `None` is permanent.
    DeviceDown { until_s: Option<f64> },
}

/// Current device state as seen by schedulers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeviceHealth {
    /// Accepting work at full speed.
    Healthy,
    /// Accepting work, derated by `derate` (bandwidths divided,
    /// latencies multiplied).
    Straggling {
        /// Slowdown factor, `>= 1`.
        derate: f64,
    },
    /// Not accepting work. `until_s: Some(t)` heals at `t`; `None` never.
    Down {
        /// Recovery time, if transient.
        until_s: Option<f64>,
    },
}

#[derive(Clone, Copy, Debug)]
struct DownState {
    until_s: Option<f64>,
}

/// Deterministic fault injector over one [`FaultPlan`].
///
/// Executors poll [`FaultInjector::on_op`] once per simulated operation
/// (which advances that device's operation counter) and
/// [`FaultInjector::health_at`] for scheduling decisions. Both are `&mut`
/// because observing a fault consumes it; given the same plan and the
/// same sequence of polls, every verdict — and the resulting
/// [`FaultLog`] — is identical.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    consumed: Vec<bool>,
    ops: Vec<u64>,
    down: Vec<Option<DownState>>,
    derate: Vec<Option<f64>>,
    log: FaultLog,
}

impl FaultInjector {
    /// An injector over `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let n = plan.faults.len();
        Self {
            plan,
            consumed: vec![false; n],
            ops: Vec::new(),
            down: Vec::new(),
            derate: Vec::new(),
            log: FaultLog::default(),
        }
    }

    /// An injector with nothing scheduled (the fault-free baseline).
    pub fn inert() -> Self {
        Self::new(FaultPlan::new())
    }

    fn ensure(&mut self, device: usize) {
        if device >= self.ops.len() {
            self.ops.resize(device + 1, 0);
            self.down.resize(device + 1, None);
            self.derate.resize(device + 1, None);
        }
    }

    fn trigger_fired(trigger: FaultTrigger, now_s: f64, op: Option<u64>) -> bool {
        match trigger {
            FaultTrigger::AtTime(t) => now_s >= t,
            FaultTrigger::AtOp(n) => op.is_some_and(|o| o >= n),
        }
    }

    /// Activates any pending health-state faults (device failures,
    /// stragglers) whose trigger has fired for `device`.
    fn activate_health_faults(&mut self, device: usize, now_s: f64, op: Option<u64>) {
        for i in 0..self.plan.faults.len() {
            if self.consumed[i] {
                continue;
            }
            let f = self.plan.faults[i];
            if f.device != device || !Self::trigger_fired(f.trigger, now_s, op) {
                continue;
            }
            match f.kind {
                FaultKind::DeviceFail { down_s } => {
                    self.consumed[i] = true;
                    self.down[device] = Some(DownState { until_s: down_s.map(|d| now_s + d) });
                    self.log.records.push(LogRecord {
                        device,
                        sim_time_s: now_s,
                        entry: LogEntry::Injected { kind: f.kind, op },
                    });
                }
                FaultKind::Straggler { derate } => {
                    self.consumed[i] = true;
                    // Stragglers stack multiplicatively if scheduled twice.
                    let cur = self.derate[device].unwrap_or(1.0);
                    self.derate[device] = Some(cur * derate.max(1.0));
                    self.log.records.push(LogRecord {
                        device,
                        sim_time_s: now_s,
                        entry: LogEntry::Injected { kind: f.kind, op },
                    });
                }
                FaultKind::TransferCorruption | FaultKind::KernelAbort => {}
            }
        }
    }

    /// `Some(state)` if the device is down at `now_s` (clearing expired
    /// transient outages as a side effect).
    fn down_at(&mut self, device: usize, now_s: f64) -> Option<DownState> {
        match self.down[device] {
            Some(d) => match d.until_s {
                Some(u) if now_s >= u => {
                    self.down[device] = None;
                    None
                }
                _ => Some(d),
            },
            None => None,
        }
    }

    /// Polls the injector for one simulated operation on `device` at
    /// simulated time `now_s`. Advances the device's operation counter and
    /// returns the verdict; corruption applies only to transfer classes,
    /// aborts only to kernels.
    pub fn on_op(&mut self, device: usize, class: OpClass, now_s: f64) -> OpVerdict {
        self.ensure(device);
        let op = self.ops[device];
        self.ops[device] += 1;
        self.activate_health_faults(device, now_s, Some(op));
        if let Some(d) = self.down_at(device, now_s) {
            return OpVerdict::DeviceDown { until_s: d.until_s };
        }
        for i in 0..self.plan.faults.len() {
            if self.consumed[i] {
                continue;
            }
            let f = self.plan.faults[i];
            if f.device != device || !Self::trigger_fired(f.trigger, now_s, Some(op)) {
                continue;
            }
            let verdict = match (f.kind, class) {
                (FaultKind::TransferCorruption, OpClass::H2D | OpClass::D2H) => {
                    OpVerdict::Corrupted
                }
                (FaultKind::KernelAbort, OpClass::Kernel) => OpVerdict::Aborted,
                _ => continue,
            };
            self.consumed[i] = true;
            self.log.records.push(LogRecord {
                device,
                sim_time_s: now_s,
                entry: LogEntry::Injected { kind: f.kind, op: Some(op) },
            });
            return verdict;
        }
        OpVerdict::Ok
    }

    /// Current health of `device` at simulated time `now_s`. Activates
    /// any time-triggered health faults that have come due.
    pub fn health_at(&mut self, device: usize, now_s: f64) -> DeviceHealth {
        self.ensure(device);
        self.activate_health_faults(device, now_s, None);
        if let Some(d) = self.down_at(device, now_s) {
            return DeviceHealth::Down { until_s: d.until_s };
        }
        match self.derate[device] {
            Some(f) if f > 1.0 => DeviceHealth::Straggling { derate: f },
            _ => DeviceHealth::Healthy,
        }
    }

    /// The first device failure scheduled to fire by time on `device`
    /// strictly after `t0_s` and at or before `t1_s` — how the serve
    /// scheduler discovers a device dying *during* a job's service
    /// window. Consumes the fault, marks the device down and logs it;
    /// returns `(fail_time_s, until_s)`.
    pub fn fail_between(
        &mut self,
        device: usize,
        t0_s: f64,
        t1_s: f64,
    ) -> Option<(f64, Option<f64>)> {
        self.ensure(device);
        if self.down[device].is_some() {
            return None;
        }
        let mut best: Option<(usize, f64, Option<f64>)> = None;
        for i in 0..self.plan.faults.len() {
            if self.consumed[i] {
                continue;
            }
            let f = self.plan.faults[i];
            if f.device != device {
                continue;
            }
            if let (FaultTrigger::AtTime(t), FaultKind::DeviceFail { down_s }) = (f.trigger, f.kind)
            {
                if t > t0_s && t <= t1_s && best.is_none_or(|(_, bt, _)| t < bt) {
                    best = Some((i, t, down_s));
                }
            }
        }
        let (i, t, down_s) = best?;
        self.consumed[i] = true;
        let until_s = down_s.map(|d| t + d);
        self.down[device] = Some(DownState { until_s });
        self.log.records.push(LogRecord {
            device,
            sim_time_s: t,
            entry: LogEntry::Injected { kind: self.plan.faults[i].kind, op: None },
        });
        Some((t, until_s))
    }

    /// Logs a recovery action taken by an execution layer.
    pub fn record_recovery(&mut self, device: usize, now_s: f64, action: RecoveryAction) {
        self.log.records.push(LogRecord {
            device,
            sim_time_s: now_s,
            entry: LogEntry::Recovered { action },
        });
    }

    /// The log so far.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_faults_fire_once_on_matching_class() {
        let plan = FaultPlan::new()
            .fault(0, FaultTrigger::AtOp(1), FaultKind::TransferCorruption)
            .fault(0, FaultTrigger::AtOp(2), FaultKind::KernelAbort);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.on_op(0, OpClass::H2D, 0.0), OpVerdict::Ok); // op 0
                                                                    // Op 1 is a kernel: the corruption fault is due but class-gated, so
                                                                    // it waits for the next transfer.
        assert_eq!(inj.on_op(0, OpClass::Kernel, 0.0), OpVerdict::Ok);
        assert_eq!(inj.on_op(0, OpClass::H2D, 0.0), OpVerdict::Corrupted); // op 2
        assert_eq!(inj.on_op(0, OpClass::Kernel, 0.0), OpVerdict::Aborted); // op 3
        assert_eq!(inj.on_op(0, OpClass::H2D, 0.0), OpVerdict::Ok);
        assert!(inj.consumed.iter().all(|&c| c), "both faults fired");
        assert_eq!(inj.log().injected(), 2);
    }

    #[test]
    fn transient_failure_heals_after_downtime() {
        let plan = FaultPlan::new().fault(
            0,
            FaultTrigger::AtOp(1),
            FaultKind::DeviceFail { down_s: Some(0.5) },
        );
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.on_op(0, OpClass::H2D, 1.0), OpVerdict::Ok);
        let v = inj.on_op(0, OpClass::Kernel, 1.0);
        assert_eq!(v, OpVerdict::DeviceDown { until_s: Some(1.5) });
        assert!(matches!(inj.health_at(0, 1.2), DeviceHealth::Down { .. }));
        assert_eq!(inj.health_at(0, 1.5), DeviceHealth::Healthy);
        assert_eq!(inj.on_op(0, OpClass::Kernel, 1.6), OpVerdict::Ok);
    }

    #[test]
    fn permanent_failure_never_heals_and_straggler_derates() {
        let plan = FaultPlan::new()
            .fault(1, FaultTrigger::AtTime(0.0), FaultKind::Straggler { derate: 2.0 })
            .fault(0, FaultTrigger::AtTime(1.0), FaultKind::DeviceFail { down_s: None });
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.health_at(1, 0.0), DeviceHealth::Straggling { derate: 2.0 });
        assert_eq!(inj.health_at(0, 0.5), DeviceHealth::Healthy);
        assert_eq!(inj.health_at(0, 1.0), DeviceHealth::Down { until_s: None });
        assert_eq!(inj.health_at(0, 99.0), DeviceHealth::Down { until_s: None });
        assert_eq!(inj.on_op(0, OpClass::H2D, 100.0), OpVerdict::DeviceDown { until_s: None });
    }

    #[test]
    fn fail_between_finds_midservice_failures() {
        let plan = FaultPlan::new().fault(
            0,
            FaultTrigger::AtTime(2.0),
            FaultKind::DeviceFail { down_s: Some(1.0) },
        );
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.fail_between(0, 0.0, 1.9), None);
        assert_eq!(inj.fail_between(0, 1.9, 3.0), Some((2.0, Some(3.0))));
        // Consumed: a second scan finds nothing.
        assert_eq!(inj.fail_between(0, 0.0, 10.0), None);
        assert!(matches!(inj.health_at(0, 2.5), DeviceHealth::Down { .. }));
        assert_eq!(inj.health_at(0, 3.0), DeviceHealth::Healthy);
    }

    #[test]
    fn identical_poll_sequences_give_identical_logs() {
        let plan = FaultPlan::seeded_storm(42, 2, 3, 24, true);
        let drive = |mut inj: FaultInjector| -> u64 {
            for op in 0..16u64 {
                let now = op as f64 * 0.01;
                let _ = inj.on_op(0, OpClass::H2D, now);
                let _ = inj.on_op(0, OpClass::Kernel, now);
                let _ = inj.on_op(1, OpClass::H2D, now);
                let _ = inj.health_at(1, now);
            }
            inj.log().fingerprint()
        };
        assert_eq!(drive(FaultInjector::new(plan.clone())), drive(FaultInjector::new(plan)));
    }

    #[test]
    fn inert_injector_never_intervenes() {
        let mut inj = FaultInjector::inert();
        for op in 0..32 {
            assert_eq!(inj.on_op(0, OpClass::Kernel, op as f64), OpVerdict::Ok);
        }
        assert_eq!(inj.health_at(0, 10.0), DeviceHealth::Healthy);
        assert_eq!(inj.log().records.len(), 0);
    }
}
