//! Exact order statistics over raw samples, and the seeded open-loop
//! arrival schedule.
//!
//! Every percentile the benchmark reports comes from here: the full list of
//! samples is kept and sorted, so a percentile is one of the measured
//! values, never a histogram bucket edge.

use std::time::Duration;

/// Raw samples of one quantity, kept whole so percentiles are exact.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least `q`% of
    /// the samples at or below it. `q` is clamped to `[0, 100]`; an empty
    /// set yields `NaN`, which the report refuses to emit.
    pub fn percentile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = ((q.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
        self.values[rank.clamp(1, n) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }
}

/// SplitMix64: a small, fully specified generator, so a schedule depends on
/// the seed alone and not on any library's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval `(0, 1)`.
    pub fn open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Due times of `round(rate × span)` arrivals spread over `[0, span)` as a
/// Poisson process conditioned on that count: exponential gaps drawn from
/// `seed`, rescaled to end at `span`. Fixing the count keeps the offered
/// load identical across seeds; only the arrival pattern changes.
pub fn poisson_schedule(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let n = (rate * span.as_secs_f64()).round() as usize;
    let mut cumulative = Vec::with_capacity(n + 1);
    let mut t = 0.0f64;
    for _ in 0..=n {
        t += -rng.open01().ln();
        cumulative.push(t);
    }
    cumulative
        .iter()
        .take(n)
        .map(|c| span.mul_f64(c / t))
        .collect()
}

/// Samples stamped with when they happened within a measured window, so a
/// statistic can be taken per slice of the window.
#[derive(Debug, Clone, Default)]
pub struct Timed(Vec<(Duration, f64)>);

impl Timed {
    pub fn push(&mut self, at: Duration, value: f64) {
        self.0.push((at, value));
    }

    pub fn extend(&mut self, other: Timed) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// All values, unsliced.
    pub fn all(&self) -> Samples {
        let mut s = Samples::new();
        for &(_, v) in &self.0 {
            s.push(v);
        }
        s
    }

    /// Splits `[0, span)` into `slices` equal parts (later samples join the
    /// last part) and groups the values by part.
    fn by_slice(&self, span: Duration, slices: usize) -> Vec<Samples> {
        let mut parts = vec![Samples::new(); slices];
        let width = span.as_secs_f64() / slices as f64;
        for &(at, v) in &self.0 {
            let i = ((at.as_secs_f64() / width) as usize).min(slices - 1);
            parts[i].push(v);
        }
        parts
    }

    /// The median across slices of each slice's `q`-th percentile: a
    /// burst of host noise confined to a minority of the slices leaves it
    /// unmoved. The window is cut into as many slices as keep at least ten
    /// samples above the percentile in each, up to `max_slices`; with too
    /// few samples for two slices this is the plain percentile. Empty
    /// slices are skipped.
    pub fn sliced_percentile(&self, span: Duration, max_slices: usize, q: f64) -> f64 {
        let beyond = self.len() as f64 * (1.0 - q.clamp(0.0, 100.0) / 100.0);
        let slices = ((beyond / 10.0) as usize).clamp(1, max_slices.max(1));
        let mut per_slice = Samples::new();
        for mut part in self.by_slice(span, slices) {
            if part.len() > 0 {
                per_slice.push(part.percentile(q));
            }
        }
        per_slice.median()
    }

    /// The median across slices of `Σ self / Σ other` per slice, where
    /// `other` holds samples stamped at the same instants as `self` (for
    /// example call times over images per call).
    pub fn sliced_ratio(&self, other: &Timed, span: Duration, slices: usize) -> f64 {
        let num = self.by_slice(span, slices);
        let den = other.by_slice(span, slices);
        let mut per_slice = Samples::new();
        for (n, d) in num.iter().zip(&den) {
            let d: f64 = d.values.iter().sum();
            if d > 0.0 {
                per_slice.push(n.values.iter().sum::<f64>() / d);
            }
        }
        per_slice.median()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentiles_are_nearest_rank_order_statistics() {
        // 1..=100 shuffled: the q-th percentile is exactly q.
        let mut values: Vec<f64> = (1..=100).map(f64::from).collect();
        values.reverse();
        values.swap(3, 70);
        let mut s = of(&values);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(1.0), 1.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        // Between ranks the next sample up is taken, never an interpolation.
        assert_eq!(s.percentile(50.5), 51.0);
    }

    #[test]
    fn percentile_of_small_sets() {
        assert_eq!(of(&[7.0]).percentile(99.0), 7.0);
        assert_eq!(of(&[3.0, 1.0]).median(), 1.0);
        assert_eq!(of(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert!(Samples::new().median().is_nan());
        // p99 of 1000 samples leaves exactly ten above it.
        let mut s = of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.percentile(99.0), 990.0);
    }

    #[test]
    fn push_after_percentile_resorts() {
        let mut s = of(&[5.0, 1.0]);
        assert_eq!(s.median(), 1.0);
        s.push(0.5);
        assert_eq!(s.median(), 1.0);
        assert_eq!(s.percentile(0.0), 0.5);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn poisson_schedule_is_deterministic_for_a_seed() {
        let span = Duration::from_secs(2);
        let a = poisson_schedule(42, 500.0, span);
        let b = poisson_schedule(42, 500.0, span);
        let c = poisson_schedule(43, 500.0, span);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000, "count is fixed at rate × span");
        assert_eq!(c.len(), 1000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(a.iter().all(|d| *d < span));
        // Gaps are exponential: about 63% are shorter than the mean gap.
        let mean = span.as_secs_f64() / 1000.0;
        let short = a
            .windows(2)
            .filter(|w| (w[1] - w[0]).as_secs_f64() < mean)
            .count();
        assert!((560..=700).contains(&short), "{short} short gaps");
    }

    #[test]
    fn sliced_statistics_ignore_a_burst_in_one_slice() {
        let span = Duration::from_secs(5);
        let mut t = Timed::default();
        let mut ones = Timed::default();
        for i in 0..500u64 {
            let at = Duration::from_millis(i * 10);
            // Slice 2 (1 s..2 s) suffers a 10x stall.
            let v = if (100..200).contains(&i) {
                10.0
            } else {
                1.0 + (i % 10) as f64 / 10.0
            };
            t.push(at, v);
            ones.push(at, 1.0);
        }
        assert_eq!(t.len(), 500);
        // 50 samples above p90 allow five slices of ten.
        assert_eq!(t.sliced_percentile(span, 5, 90.0), 1.9);
        assert_eq!(t.all().percentile(90.0), 10.0);
        // Five samples above p99 allow no slicing: the plain percentile.
        assert_eq!(t.sliced_percentile(span, 5, 99.0), 10.0);
        // Per slice, Σ values / Σ ones is that slice's mean.
        assert!((t.sliced_ratio(&ones, span, 5) - 1.45).abs() < 1e-12);
        // A sample past the span lands in the last slice.
        t.push(Duration::from_secs(9), 0.5);
        assert_eq!(t.sliced_percentile(span, 5, 0.0), 1.0);
    }

    #[test]
    fn splitmix_open01_stays_inside_the_unit_interval() {
        let mut rng = SplitMix64::new(0);
        for _ in 0..10_000 {
            let u = rng.open01();
            assert!(u > 0.0 && u < 1.0);
        }
    }
}
