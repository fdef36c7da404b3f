//! Request placement over a heterogeneous fleet: predicted per-device
//! cost × live queue depth.
//!
//! The fleet prices each incoming request, in the caller's thread, on
//! every healthy replica as *estimated completion time*: the work already
//! queued there plus the request itself, at the device's predicted
//! per-image latency (the cycle simulator's `summarize_plan` figure for
//! the replica's `HardwareTarget`). A fast device with a deep backlog
//! loses to an idle slow one exactly when the arithmetic says it should.
//! The policy is a pure function over candidate snapshots so its
//! tie-breaks and ordering are unit-testable without a fleet.

/// Floor on the per-image cost (µs) so a zero/NaN prediction cannot make a
/// replica look infinitely fast.
const MIN_COST_US: f64 = 1e-3;

/// One replica's placement snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The replica's index in the fleet.
    pub replica: usize,
    /// Predicted device latency per image, microseconds (from the
    /// replica-target's plan-scheduled cycle summary).
    pub cost_per_image_us: f64,
    /// Requests admitted to the replica but not yet answered.
    pub queue_depth: u64,
}

/// Estimated time (µs) until one incoming request completes on `c`:
/// everything already queued plus the request, priced at the device's
/// per-image latency.
pub fn score(c: &Candidate) -> f64 {
    let cost = if c.cost_per_image_us.is_finite() {
        c.cost_per_image_us.max(MIN_COST_US)
    } else {
        f64::MAX
    };
    cost * (c.queue_depth as f64 + 1.0)
}

/// Ranks candidates for one request, best placement first.
/// Ties break toward the shallower queue, then the lower replica index, so
/// placement is deterministic for a given snapshot. The fleet forwards to
/// the head and fails over down the ranking.
pub fn place(candidates: &[Candidate]) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..candidates.len()).collect();
    ranked.sort_by(|&a, &b| {
        let (ca, cb) = (&candidates[a], &candidates[b]);
        score(ca)
            .total_cmp(&score(cb))
            .then(ca.queue_depth.cmp(&cb.queue_depth))
            .then(ca.replica.cmp(&cb.replica))
    });
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(replica: usize, cost_us: f64, depth: u64) -> Candidate {
        Candidate {
            replica,
            cost_per_image_us: cost_us,
            queue_depth: depth,
        }
    }

    #[test]
    fn idle_fast_device_wins() {
        let c = [cand(0, 100.0, 0), cand(1, 300.0, 0)];
        assert_eq!(place(&c), vec![0, 1]);
    }

    #[test]
    fn backlog_hands_the_batch_to_a_slower_idle_replica() {
        // 100 µs/image but 50 queued vs 300 µs/image idle: for one
        // request, 100·51 = 5100 > 300·1 = 300 — the slow replica wins.
        let c = [cand(0, 100.0, 50), cand(1, 300.0, 0)];
        assert_eq!(place(&c), vec![1, 0]);
        // With the backlog drained the fast device wins again.
        let c = [cand(0, 100.0, 0), cand(1, 300.0, 0)];
        assert_eq!(place(&c), vec![0, 1]);
    }

    #[test]
    fn ties_break_by_queue_depth_then_index() {
        // Same score (60·2 = 40·3): shallower queue first.
        let c = [cand(0, 60.0, 1), cand(1, 40.0, 2)];
        assert_eq!(score(&c[0]), score(&c[1]));
        assert_eq!(place(&c), vec![0, 1]);
        // Fully identical: index order.
        let c = [cand(1, 50.0, 2), cand(0, 50.0, 2)];
        assert_eq!(place(&c), vec![1, 0]);
    }

    #[test]
    fn degenerate_costs_never_poison_the_ranking() {
        let c = [
            cand(0, f64::NAN, 0),
            cand(1, 0.0, 0),
            cand(2, 10.0, 0),
            cand(3, f64::INFINITY, 0),
        ];
        let ranked = place(&c);
        // The zero cost clamps to the floor (beats the real 10 µs); NaN
        // and +inf sink to the tail instead of wedging the sort.
        assert_eq!(ranked[0], 1);
        assert_eq!(ranked[1], 2);
        assert_eq!(place(&[]), Vec::<usize>::new());
    }
}
