//! The fault taxonomy and the append-only log of injections and
//! recoveries.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// What goes wrong. The four kinds cover the failure modes that dominate
/// multi-GPU tensor workloads: whole-device loss, ECC-visible transfer
/// corruption, kernel-level aborts, and stragglers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The device stops accepting work. `down_s: Some(d)` is a transient
    /// outage that heals after `d` simulated seconds (counted from the
    /// moment the fault is observed); `None` is permanent for the run.
    DeviceFail { down_s: Option<f64> },
    /// One H2D/D2H transfer delivers corrupted bytes. Detectable: a
    /// faulted plan run checksums every transfer, so a corrupted one is
    /// retried rather than silently consumed.
    TransferCorruption,
    /// One kernel launch aborts after being charged its full cost.
    KernelAbort,
    /// The device keeps working but slows down: bandwidths divide by
    /// `derate`, fixed latencies multiply by it (`derate >= 1`).
    Straggler { derate: f64 },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::DeviceFail { down_s: Some(d) } => {
                write!(f, "transient device failure ({d:.2e}s)")
            }
            FaultKind::DeviceFail { down_s: None } => write!(f, "permanent device failure"),
            FaultKind::TransferCorruption => write!(f, "transfer corruption"),
            FaultKind::KernelAbort => write!(f, "kernel abort"),
            FaultKind::Straggler { derate } => write!(f, "straggler (derate {derate:.2}x)"),
        }
    }
}

/// What a recovery layer did about a fault. Logged next to the injections
/// so a `FaultLog` reads as a causal trace of the whole incident.
#[derive(Clone, Debug, PartialEq)]
pub enum RecoveryAction {
    /// The plan interpreter re-issued a failed op, named by its span
    /// label (`attempt` is 1-based: attempt 2 is the first retry).
    Retry { op: String, attempt: u32 },
    /// The cluster executor re-placed a shard from a dead device onto a
    /// survivor.
    ReShard { shard: usize, from_device: usize, to_device: usize },
    /// The serve scheduler put a job back in the queue (device failed at
    /// or during its service).
    Requeue { job: u64 },
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::Retry { op, attempt } => write!(f, "retry {op} (attempt {attempt})"),
            RecoveryAction::ReShard { shard, from_device, to_device } => {
                write!(f, "re-place shard {shard}: device {from_device} -> {to_device}")
            }
            RecoveryAction::Requeue { job } => write!(f, "requeue job {job}"),
        }
    }
}

/// One log line: either a fault firing or a recovery responding.
#[derive(Clone, Debug, PartialEq)]
pub enum LogEntry {
    /// A planned fault fired. `op` is the per-device operation index that
    /// observed it (`None` for health polls outside any operation).
    Injected { kind: FaultKind, op: Option<u64> },
    /// A recovery layer acted.
    Recovered { action: RecoveryAction },
}

/// A timestamped, device-attributed log record.
#[derive(Clone, Debug, PartialEq)]
pub struct LogRecord {
    /// Device the event concerns.
    pub device: usize,
    /// Simulated time of observation (s).
    pub sim_time_s: f64,
    /// What happened.
    pub entry: LogEntry,
}

/// The append-only trace of a fault-injected run. Determinism contract:
/// the same [`crate::FaultPlan`] driven by the same execution produces a
/// byte-identical log ([`FaultLog::fingerprint`] is the cheap witness).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultLog {
    /// Records in observation order.
    pub records: Vec<LogRecord>,
}

impl FaultLog {
    /// Number of faults that actually fired.
    pub fn injected(&self) -> usize {
        self.records.iter().filter(|r| matches!(r.entry, LogEntry::Injected { .. })).count()
    }

    /// Number of recovery actions recorded.
    pub fn recoveries(&self) -> usize {
        self.records.iter().filter(|r| matches!(r.entry, LogEntry::Recovered { .. })).count()
    }

    /// Order-sensitive, bit-stable fingerprint of the whole trace
    /// (timestamps hashed via `f64::to_bits`).
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.records.len().hash(&mut h);
        for r in &self.records {
            r.device.hash(&mut h);
            r.sim_time_s.to_bits().hash(&mut h);
            // Debug form is stable and covers every enum payload; f64
            // payloads print with enough digits to distinguish plans.
            format!("{:?}", r.entry).hash(&mut h);
        }
        h.finish()
    }

    /// Human-readable rendering, one record per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let line = match &r.entry {
                LogEntry::Injected { kind, op } => match op {
                    Some(op) => format!(
                        "[{:>10.6}s] dev{} op{:<4} FAULT    {kind}\n",
                        r.sim_time_s, r.device, op
                    ),
                    None => {
                        format!(
                            "[{:>10.6}s] dev{}        FAULT    {kind}\n",
                            r.sim_time_s, r.device
                        )
                    }
                },
                LogEntry::Recovered { action } => {
                    format!("[{:>10.6}s] dev{}        RECOVER  {action}\n", r.sim_time_s, r.device)
                }
            };
            out.push_str(&line);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> FaultLog {
        FaultLog {
            records: vec![
                LogRecord {
                    device: 1,
                    sim_time_s: 0.5,
                    entry: LogEntry::Injected { kind: FaultKind::TransferCorruption, op: Some(3) },
                },
                LogRecord {
                    device: 1,
                    sim_time_s: 0.6,
                    entry: LogEntry::Recovered {
                        action: RecoveryAction::Retry { op: "seg2 kernel".to_string(), attempt: 2 },
                    },
                },
            ],
        }
    }

    #[test]
    fn counts_and_kinds() {
        let log = sample_log();
        assert_eq!(log.injected(), 1);
        assert_eq!(log.recoveries(), 1);
    }

    #[test]
    fn fingerprint_is_order_and_payload_sensitive() {
        let a = sample_log();
        let mut b = a.clone();
        b.records.reverse();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.records[0].sim_time_s = 0.5000001;
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), sample_log().fingerprint());
    }

    #[test]
    fn render_mentions_every_record() {
        let text = sample_log().render();
        assert!(text.contains("FAULT"));
        assert!(text.contains("RECOVER"));
        assert!(text.contains("transfer corruption"));
    }
}
