//! Per-step plan profiling: where a batch's wall time actually went.
//!
//! [`BatchEngine::run_plan_profiled`](crate::engine::BatchEngine::run_plan_profiled)
//! executes a plan exactly like `run_plan` (bit-identical outputs) while
//! clocking every [`PlanStep`](crate::graph::PlanStep); the result is a
//! [`PlanProfile`] — one [`StepProfile`] per step carrying measured wall
//! time, bytes moved through the arena, the kernel tier the GEMM compiled
//! to, and (when the model is anchored to a hardware target with a cycle
//! model) the simulator's predicted per-image cost, so measured-vs-
//! predicted skew is visible per step. That skew is the input signal the
//! planned auto-tuner (ROADMAP item 4) searches against.
//!
//! Step wall times are summed across worker chunks, so they add up to CPU
//! time; `PlanProfile::total` is the batch's actual wall clock.

use std::fmt;
use std::time::Duration;

/// Measured (and optionally predicted) cost of one plan step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepProfile {
    /// Step index in plan order.
    pub index: usize,
    /// Human-readable label: the op kind plus the layer name for GEMM
    /// steps (e.g. `fused-conv conv1.weight`).
    pub label: String,
    /// Measured time summed over every image and worker (CPU time).
    pub wall: Duration,
    /// Bytes read from source buffers plus bytes written to the
    /// destination, across the whole batch (f32 elements × 4).
    pub bytes_moved: u64,
    /// The kernels the step's GEMM rows run under the layer's quantizer
    /// (`avx2`, `scalar`, `dense`, joined with `+` when rows differ),
    /// `None` for weight-free steps.
    pub tier: Option<String>,
    /// Rows on the packed `i16`-pair layout (GEMM steps; 0 otherwise).
    pub packed_rows: usize,
    /// Rows on the wide `i64` layout (GEMM steps; 0 otherwise).
    pub dense_rows: usize,
    /// The cycle simulator's predicted per-image cost, when available.
    pub predicted: Option<Duration>,
}

impl StepProfile {
    /// Measured per-image microseconds.
    pub fn measured_us_per_image(&self, images: usize) -> f64 {
        if images == 0 {
            return 0.0;
        }
        self.wall.as_secs_f64() * 1e6 / images as f64
    }
}

/// Aggregated profile of one `run_plan_profiled` batch.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProfile {
    /// One entry per plan step, in execution order.
    pub steps: Vec<StepProfile>,
    /// Images in the profiled batch.
    pub images: usize,
    /// Wall-clock time of the whole batch (fan-out included).
    pub total: Duration,
    /// Arena high-water mark: the per-worker buffer bytes the plan
    /// reserves (`buffer_sizes` sum × 4).
    pub arena_high_water_bytes: u64,
}

impl PlanProfile {
    /// Sum of the per-step walls (CPU time across workers).
    pub fn step_wall_total(&self) -> Duration {
        self.steps.iter().map(|s| s.wall).sum()
    }

    /// The flat profile as a printable table: one row per step with
    /// measured per-image cost, bytes moved, kernel tier, and the
    /// predicted cost + skew column when a prediction exists.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan profile: {} steps, {} images, total {:.3} ms, arena {} B\n",
            self.steps.len(),
            self.images,
            self.total.as_secs_f64() * 1e3,
            self.arena_high_water_bytes,
        ));
        let has_predictions = self.steps.iter().any(|s| s.predicted.is_some());
        out.push_str(&format!(
            "{:>4}  {:<28} {:>12} {:>12} {:>8} {:>12}",
            "#", "step", "us/image", "bytes", "tier", "rows p/d"
        ));
        if has_predictions {
            out.push_str(&format!(" {:>12} {:>8}", "pred us", "skew"));
        }
        out.push('\n');
        for step in &self.steps {
            let measured = step.measured_us_per_image(self.images);
            out.push_str(&format!(
                "{:>4}  {:<28} {:>12.2} {:>12} {:>8} {:>6}/{:<5}",
                step.index,
                step.label,
                measured,
                step.bytes_moved,
                step.tier.as_deref().unwrap_or("-"),
                step.packed_rows,
                step.dense_rows,
            ));
            if has_predictions {
                match step.predicted {
                    Some(pred) if pred > Duration::ZERO => {
                        let pred_us = pred.as_secs_f64() * 1e6;
                        out.push_str(&format!(" {:>12.2} {:>7.1}x", pred_us, measured / pred_us));
                    }
                    _ => out.push_str(&format!(" {:>12} {:>8}", "-", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for PlanProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(index: usize, label: &str, wall_us: u64, predicted_us: Option<u64>) -> StepProfile {
        StepProfile {
            index,
            label: label.to_string(),
            wall: Duration::from_micros(wall_us),
            bytes_moved: 1024,
            tier: (predicted_us.is_some()).then(|| "avx2".to_string()),
            packed_rows: 8,
            dense_rows: 0,
            predicted: predicted_us.map(Duration::from_micros),
        }
    }

    #[test]
    fn table_includes_skew_only_when_predictions_exist() {
        let profile = PlanProfile {
            steps: vec![step(0, "conv c1.weight", 100, None)],
            images: 2,
            total: Duration::from_micros(120),
            arena_high_water_bytes: 4096,
        };
        let text = profile.table();
        assert!(text.contains("conv c1.weight"));
        assert!(!text.contains("skew"));

        let profile = PlanProfile {
            steps: vec![step(0, "conv c1.weight", 100, Some(25))],
            images: 2,
            total: Duration::from_micros(120),
            arena_high_water_bytes: 4096,
        };
        let text = profile.table();
        assert!(text.contains("skew"));
        // 100 µs over 2 images = 50 µs/image vs 25 µs predicted = 2.0x.
        assert!(text.contains("2.0x"), "{text}");
    }

    #[test]
    fn step_wall_total_sums_steps() {
        let profile = PlanProfile {
            steps: vec![step(0, "a", 30, None), step(1, "b", 70, None)],
            images: 1,
            total: Duration::from_micros(110),
            arena_high_water_bytes: 0,
        };
        assert_eq!(profile.step_wall_total(), Duration::from_micros(100));
    }
}
