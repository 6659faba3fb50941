//! Retry and recovery policies of a faulted run
//! ([`crate::run_plan_faulted`]).

/// Op-retry policy: capped attempts with exponential backoff.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per op (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry (s).
    pub backoff_base_s: f64,
    /// Multiplier applied per further retry.
    pub backoff_mult: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 4, backoff_base_s: 5e-5, backoff_mult: 2.0 }
    }
}

impl RetryPolicy {
    /// The ablation baseline: one attempt, no recovery.
    pub fn no_retry() -> Self {
        Self { max_attempts: 1, ..Self::default() }
    }

    /// Default backoff schedule with a custom attempt cap.
    pub fn with_attempts(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "at least one attempt is required");
        Self { max_attempts, ..Self::default() }
    }

    /// Backoff stall before `attempt` (1-based; attempt 1 pays none).
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        if attempt <= 1 {
            0.0
        } else {
            self.backoff_base_s * self.backoff_mult.powi(attempt as i32 - 2)
        }
    }
}

/// How far a run goes to keep a fault-injected run alive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Lose faulted work; abandon a device on any outage.
    NoRetry,
    /// Retry ops in place; wait out transient outages.
    Retry,
    /// [`RecoveryMode::Retry`] plus re-placement of a dead device's
    /// unfinished work onto survivors.
    RetryReShard,
}

/// The recovery policy of a faulted run: a mode plus the op retry knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRecoveryPolicy {
    /// Recovery mode.
    pub mode: RecoveryMode,
    /// Per-op retry schedule.
    pub retry: RetryPolicy,
}

impl FaultRecoveryPolicy {
    /// The ablation baseline: one attempt, no re-placement.
    pub fn no_retry() -> Self {
        Self { mode: RecoveryMode::NoRetry, retry: RetryPolicy::no_retry() }
    }

    /// In-place retries with the default backoff schedule.
    pub fn retry() -> Self {
        Self { mode: RecoveryMode::Retry, retry: RetryPolicy::default() }
    }

    /// Retries plus shard re-placement — the full recovery stack.
    pub fn retry_reshard() -> Self {
        Self { mode: RecoveryMode::RetryReShard, retry: RetryPolicy::default() }
    }

    /// Same mode with a custom retry schedule.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_exponential() {
        let p = RetryPolicy { max_attempts: 5, backoff_base_s: 1e-4, backoff_mult: 2.0 };
        assert_eq!(p.backoff_s(1), 0.0);
        assert!((p.backoff_s(2) - 1e-4).abs() < 1e-18);
        assert!((p.backoff_s(3) - 2e-4).abs() < 1e-18);
        assert!((p.backoff_s(4) - 4e-4).abs() < 1e-18);
    }
}
