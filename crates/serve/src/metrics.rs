//! Lock-free per-model serving counters built on the shared
//! [`mixmatch_obs`] latency histogram.
//!
//! The hot path touches only relaxed atomics: one [`Instant`] stamp at
//! admission, one `elapsed()` at completion, one bucket increment — no
//! locks, no allocation, no wall-clock reads beyond the stamps. The
//! histogram type itself lives in `mixmatch_obs` (it is shared with the
//! engine and the worker pool) and is re-exported here so existing
//! callers keep compiling.
//!
//! Besides the end-to-end latency, each model tracks per-stage
//! histograms for the request lifecycle — `queue` (admission → batch
//! execution start), `coalesce` (time the batcher spent draining the
//! queue into the batch), and `execute` (engine wall time) — which are
//! also registered in [`Registry::global`] under
//! `mixmatch_request_stage_seconds` so the `METRICS` wire verb exposes
//! them as Prometheus text.
//!
//! [`Instant`]: std::time::Instant

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mixmatch_obs::Registry;

pub use mixmatch_obs::LatencyHistogram;

/// Metric name under which per-stage request latencies are registered.
pub const STAGE_METRIC: &str = "mixmatch_request_stage_seconds";

/// Live counters for one registered model. Swapping the model artifact
/// keeps its counters (they describe the serving *name*, not one weight
/// set).
#[derive(Debug)]
pub struct ModelMetrics {
    /// Requests answered successfully.
    pub completed: AtomicU64,
    /// Requests refused at admission (queue full).
    pub rejected: AtomicU64,
    /// Requests answered with an inference error.
    pub failed: AtomicU64,
    /// Batches dispatched to the engine.
    pub batches: AtomicU64,
    /// Images across all dispatched batches (`/ batches` = mean batch).
    pub batched_images: AtomicU64,
    /// Live gauge: requests admitted but not yet answered. The fleet
    /// router reads this (via [`ModelStats::queue_depth`]) to place batches
    /// on the least-loaded replica.
    pub in_flight: AtomicU64,
    /// Queue-to-reply latency of completed requests (stage `total`).
    pub latency: Arc<LatencyHistogram>,
    /// Admission → batch-execution-start wait per request.
    pub queue_wait: Arc<LatencyHistogram>,
    /// Batcher queue-drain time attributed to each request's batch.
    pub coalesce: Arc<LatencyHistogram>,
    /// Engine wall time of each request's batch.
    pub execute: Arc<LatencyHistogram>,
}

impl Default for ModelMetrics {
    /// Detached metrics, not visible in [`Registry::global`]. Servers use
    /// [`ModelMetrics::for_model`] instead so stages show up on the
    /// Prometheus page.
    fn default() -> Self {
        ModelMetrics {
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_images: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            latency: Arc::new(LatencyHistogram::new()),
            queue_wait: Arc::new(LatencyHistogram::new()),
            coalesce: Arc::new(LatencyHistogram::new()),
            execute: Arc::new(LatencyHistogram::new()),
        }
    }
}

impl ModelMetrics {
    /// Metrics whose stage histograms are shared with the global
    /// [`Registry`] under `mixmatch_request_stage_seconds{model,stage}`,
    /// so recordings show up on the `METRICS` wire page.
    pub fn for_model(model: &str) -> Self {
        let reg = Registry::global();
        let stage =
            |stage: &str| reg.histogram(STAGE_METRIC, &[("model", model), ("stage", stage)]);
        ModelMetrics {
            latency: stage("total"),
            queue_wait: stage("queue"),
            coalesce: stage("coalesce"),
            execute: stage("execute"),
            ..ModelMetrics::default()
        }
    }

    /// Immutable snapshot for reporting.
    pub fn snapshot(&self, model: &str) -> ModelStats {
        let batches = self.batches.load(Ordering::Relaxed);
        let batched_images = self.batched_images.load(Ordering::Relaxed);
        let stage = |name: &str, h: &LatencyHistogram| StageStats {
            stage: name.to_string(),
            count: h.count(),
            p50: h.percentile(50.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
        };
        ModelStats {
            model: model.to_string(),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                batched_images as f64 / batches as f64
            },
            queue_depth: self.in_flight.load(Ordering::Relaxed),
            p50: self.latency.percentile(50.0),
            p95: self.latency.percentile(95.0),
            p99: self.latency.percentile(99.0),
            p999: self.latency.percentile(99.9),
            stages: vec![
                stage("queue", &self.queue_wait),
                stage("coalesce", &self.coalesce),
                stage("execute", &self.execute),
            ],
        }
    }
}

/// Percentile summary of one request-lifecycle stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Stage name: `queue`, `coalesce`, or `execute` (the fleet router
    /// additionally records `route` directly into the global registry).
    pub stage: String,
    /// Observations recorded for this stage.
    pub count: u64,
    /// Median stage latency (bucket upper bound).
    pub p50: Duration,
    /// 95th-percentile stage latency (bucket upper bound).
    pub p95: Duration,
    /// 99th-percentile stage latency (bucket upper bound).
    pub p99: Duration,
}

/// Point-in-time serving statistics for one model name.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// The registry name.
    pub model: String,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests refused at admission (queue full).
    pub rejected: u64,
    /// Requests answered with an inference error.
    pub failed: u64,
    /// Batches dispatched to the engine.
    pub batches: u64,
    /// Mean images per dispatched batch.
    pub mean_batch: f64,
    /// Requests admitted but not yet answered at snapshot time (live
    /// gauge, not a counter).
    pub queue_depth: u64,
    /// Median queue-to-reply latency (bucket upper bound).
    pub p50: Duration,
    /// 95th-percentile latency (bucket upper bound).
    pub p95: Duration,
    /// 99th-percentile latency (bucket upper bound).
    pub p99: Duration,
    /// 99.9th-percentile latency (bucket upper bound).
    pub p999: Duration,
    /// Per-stage lifecycle breakdown (`queue`, `coalesce`, `execute`).
    pub stages: Vec<StageStats>,
}

impl ModelStats {
    /// Looks up one lifecycle stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.stage == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_computes_mean_batch() {
        let m = ModelMetrics::default();
        assert_eq!(m.snapshot("x").mean_batch, 0.0);
        m.batches.store(4, Ordering::Relaxed);
        m.batched_images.store(10, Ordering::Relaxed);
        let s = m.snapshot("x");
        assert_eq!(s.mean_batch, 2.5);
        assert_eq!(s.model, "x");
    }

    #[test]
    fn queue_depth_is_a_gauge_and_p999_resolves() {
        let m = ModelMetrics::default();
        m.in_flight.fetch_add(3, Ordering::Relaxed);
        m.in_flight.fetch_sub(1, Ordering::Relaxed);
        assert_eq!(m.snapshot("x").queue_depth, 2);
        // 999 fast observations and one slow one: p99.9 reaches the tail
        // bucket while p99 stays in the fast one.
        for _ in 0..999 {
            m.latency.record(Duration::from_micros(3));
        }
        m.latency.record(Duration::from_micros(1000));
        let s = m.snapshot("x");
        assert_eq!(s.p99, Duration::from_micros(4));
        assert_eq!(s.p999, Duration::from_micros(1024));
    }

    #[test]
    fn stage_histograms_surface_in_snapshot() {
        let m = ModelMetrics::default();
        m.queue_wait.record(Duration::from_micros(3));
        m.coalesce.record(Duration::from_micros(100));
        m.execute.record(Duration::from_millis(2));
        let s = m.snapshot("x");
        assert_eq!(s.stages.len(), 3);
        assert_eq!(s.stage("queue").unwrap().count, 1);
        assert_eq!(s.stage("queue").unwrap().p50, Duration::from_micros(4));
        assert_eq!(s.stage("coalesce").unwrap().p50, Duration::from_micros(128));
        assert_eq!(s.stage("execute").unwrap().p50, Duration::from_micros(2048));
        assert!(s.stage("route").is_none());
    }

    #[test]
    fn for_model_registers_stage_histograms_globally() {
        let m = ModelMetrics::for_model("metrics-unit-test-model");
        m.latency.record(Duration::from_micros(5));
        let snap = mixmatch_obs::Registry::global().snapshot();
        let series = snap
            .histogram(
                STAGE_METRIC,
                &[("model", "metrics-unit-test-model"), ("stage", "total")],
            )
            .expect("registered in the global registry");
        assert!(series.count >= 1);
    }
}
