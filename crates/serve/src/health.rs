//! Per-replica health tracking: consecutive-failure eviction with a timed
//! re-admission probe.
//!
//! Each fleet replica carries one [`Health`] cell — a replica-granular
//! circuit breaker. Failures recorded back-to-back trip it open
//! ([`HealthState::Evicted`]): the router stops placing traffic there.
//! After [`HealthPolicy::probe_after`] the breaker goes half-open
//! ([`HealthState::Probing`]): exactly one request is let through, and its
//! outcome decides between re-admission and another eviction window. A
//! probe whose outcome is never reported (the prober dropped its handle)
//! goes stale after another `probe_after` and may be reclaimed, so a lost
//! caller cannot wedge a replica out of rotation forever.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Eviction/re-admission knobs for one fleet.
#[derive(Debug, Clone)]
pub struct HealthPolicy {
    /// Consecutive failures that evict a healthy replica.
    pub evict_after: u32,
    /// Cooldown before an evicted replica is offered a re-admission probe
    /// (also the staleness bound on an unreported probe).
    pub probe_after: Duration,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            evict_after: 3,
            probe_after: Duration::from_millis(500),
        }
    }
}

impl HealthPolicy {
    /// Sets the consecutive-failure eviction threshold (clamped to ≥ 1).
    pub fn with_evict_after(mut self, evict_after: u32) -> Self {
        self.evict_after = evict_after.max(1);
        self
    }

    /// Sets the re-admission probe cooldown.
    pub fn with_probe_after(mut self, probe_after: Duration) -> Self {
        self.probe_after = probe_after;
        self
    }
}

/// Where a replica sits in the eviction cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// In rotation: the router places traffic here.
    Healthy,
    /// Out of rotation after too many consecutive failures.
    Evicted,
    /// Half-open: one probe request is in flight; its outcome decides
    /// between [`HealthState::Healthy`] and [`HealthState::Evicted`].
    Probing,
}

/// Point-in-time health snapshot for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Current breaker state.
    pub state: HealthState,
    /// Failures recorded since the last success.
    pub consecutive_failures: u32,
    /// Times this replica has been evicted (including failed probes).
    pub evictions: u64,
}

#[derive(Debug)]
struct Inner {
    state: HealthState,
    consecutive_failures: u32,
    evictions: u64,
    /// Eviction or probe-claim time, depending on `state`.
    since: Instant,
}

/// One replica's health cell. All transitions run under a single small
/// mutex, taken a few times per placed request.
#[derive(Debug)]
pub struct Health {
    policy: HealthPolicy,
    inner: Mutex<Inner>,
}

impl Health {
    /// A healthy cell under `policy`.
    pub fn new(policy: HealthPolicy) -> Self {
        Health {
            policy,
            inner: Mutex::new(Inner {
                state: HealthState::Healthy,
                consecutive_failures: 0,
                evictions: 0,
                since: Instant::now(),
            }),
        }
    }

    /// The policy this cell enforces.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Whether the router may place regular traffic here.
    pub fn is_healthy(&self) -> bool {
        self.inner.lock().expect("health poisoned").state == HealthState::Healthy
    }

    /// Claims the re-admission probe: an evicted replica whose cooldown
    /// elapsed (or whose previous probe went stale) transitions to
    /// [`HealthState::Probing`] and this returns `true` — the caller must
    /// route exactly one request there and report its outcome. Healthy or
    /// freshly-evicted replicas, and replicas with a live probe already in
    /// flight, return `false`.
    pub fn try_begin_probe(&self) -> bool {
        let mut inner = self.inner.lock().expect("health poisoned");
        let due = inner.since.elapsed() >= self.policy.probe_after;
        match inner.state {
            HealthState::Evicted if due => {
                inner.state = HealthState::Probing;
                inner.since = Instant::now();
                true
            }
            // A probe whose outcome never came back: reclaim it.
            HealthState::Probing if due => {
                inner.since = Instant::now();
                true
            }
            _ => false,
        }
    }

    /// Reports a served request: resets the failure streak and re-admits a
    /// probing replica. An *evicted* replica is deliberately not revived —
    /// late replies from its drained queue would otherwise flap it back
    /// into rotation; re-admission only happens through the probe.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock().expect("health poisoned");
        match inner.state {
            HealthState::Evicted => {}
            HealthState::Healthy | HealthState::Probing => {
                inner.consecutive_failures = 0;
                inner.state = HealthState::Healthy;
            }
        }
    }

    /// Reports a failed request. Returns `true` when this failure evicted
    /// the replica (threshold crossed, or a probe failed).
    pub fn record_failure(&self) -> bool {
        let mut inner = self.inner.lock().expect("health poisoned");
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        match inner.state {
            HealthState::Healthy if inner.consecutive_failures >= self.policy.evict_after => {
                inner.state = HealthState::Evicted;
                inner.since = Instant::now();
                inner.evictions += 1;
                true
            }
            HealthState::Probing => {
                inner.state = HealthState::Evicted;
                inner.since = Instant::now();
                inner.evictions += 1;
                true
            }
            _ => false,
        }
    }

    /// The current snapshot.
    pub fn snapshot(&self) -> HealthSnapshot {
        let inner = self.inner.lock().expect("health poisoned");
        HealthSnapshot {
            state: inner.state,
            consecutive_failures: inner.consecutive_failures,
            evictions: inner.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> HealthPolicy {
        HealthPolicy::default()
            .with_evict_after(3)
            .with_probe_after(Duration::from_millis(20))
    }

    #[test]
    fn consecutive_failures_evict_and_success_resets_the_streak() {
        let h = Health::new(policy());
        assert!(h.is_healthy());
        assert!(!h.record_failure());
        assert!(!h.record_failure());
        h.record_success();
        // The streak restarted: two more failures don't evict...
        assert!(!h.record_failure());
        assert!(!h.record_failure());
        assert!(h.is_healthy());
        // ...the third does.
        assert!(h.record_failure());
        assert_eq!(h.snapshot().state, HealthState::Evicted);
        assert_eq!(h.snapshot().evictions, 1);
        // Further failures (requests already in flight) don't re-count.
        assert!(!h.record_failure());
        assert_eq!(h.snapshot().evictions, 1);
    }

    #[test]
    fn probe_waits_for_cooldown_then_admits_exactly_one() {
        let h = Health::new(policy());
        for _ in 0..3 {
            h.record_failure();
        }
        assert!(!h.try_begin_probe(), "cooldown not elapsed yet");
        std::thread::sleep(Duration::from_millis(25));
        assert!(h.try_begin_probe());
        assert!(!h.try_begin_probe(), "only one live probe");
        // Failed probe: back to evicted, cooldown restarts.
        assert!(h.record_failure());
        assert_eq!(h.snapshot().evictions, 2);
        assert!(!h.try_begin_probe());
        std::thread::sleep(Duration::from_millis(25));
        assert!(h.try_begin_probe());
        // Successful probe re-admits.
        h.record_success();
        assert!(h.is_healthy());
        assert_eq!(h.snapshot().consecutive_failures, 0);
    }

    #[test]
    fn late_drain_success_does_not_revive_an_evicted_replica() {
        let h = Health::new(policy());
        for _ in 0..3 {
            h.record_failure();
        }
        // In-flight requests finishing on the dying replica's drain must
        // not flap it back into rotation.
        h.record_success();
        assert_eq!(h.snapshot().state, HealthState::Evicted);
    }

    #[test]
    fn stale_probe_is_reclaimable() {
        let h = Health::new(policy());
        for _ in 0..3 {
            h.record_failure();
        }
        std::thread::sleep(Duration::from_millis(25));
        assert!(h.try_begin_probe());
        // The prober never reports; after another cooldown the probe can
        // be claimed again instead of wedging the replica.
        std::thread::sleep(Duration::from_millis(25));
        assert!(h.try_begin_probe());
    }
}
