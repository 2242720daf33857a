//! The one histogram type: a log-linear quantile sketch.
//!
//! Every distribution in the workspace — `Metrics` histograms (commit
//! latency, recovery, the telemetry probes, span phases) and telemetry's
//! merged lag sketch — is a [`QuantileSketch`] over non-negative `u64`
//! samples (virtual-time durations in microseconds, depths, sizes).
//! `count`, `sum`, `min`, `max` and `mean` are exact; a quantile reads its
//! bucket's lower bound, clamped to the observed `[min, max]`, so it is at
//! most 2⁻⁵ ≈ 3.1 % low and never high.

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per power-of-two
/// octave, i.e. relative error ≤ 2⁻⁵.
const SKETCH_SUB_BITS: u32 = 5;

/// A deterministic, mergeable streaming quantile sketch (HDR-style
/// log-linear buckets) over non-negative `u64` samples.
///
/// The index function is pure integer arithmetic (exponent + truncated
/// mantissa): values below 2⁶ get exact unit buckets, and each higher
/// octave 32 linear sub-buckets, so `u64::MAX` lands in bucket 1 919. The
/// bucket array grows to the highest bucket recorded. Two sketches merge by
/// element-wise addition, and merging is exact: the sketch of a union is
/// the element-wise sum of the sketches.
#[derive(Clone, Debug)]
pub struct QuantileSketch {
    /// `buckets[i]` counts samples whose bucket index is `i`.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

// Hand-written so the empty sketch's `min` sentinel is `u64::MAX`; a
// derived `Default` would start `min` at 0 and every histogram built through
// `Metrics::observe*` would report a spurious minimum of zero (and the
// quantile clamp would lose its floor).
impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

/// Log-linear bucket index: values `< 2^(SUB+1)` map to themselves
/// (exact); larger values map by exponent and the top `SUB` mantissa
/// bits. Monotone in the value, so rank queries scan buckets in order.
fn sketch_index(v: u64) -> usize {
    const SUB: u32 = SKETCH_SUB_BITS;
    if v < (1 << (SUB + 1)) {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let mantissa = (v >> (exp - SUB)) & ((1 << SUB) - 1);
    (((exp - SUB) as usize) << SUB) + mantissa as usize + (1 << SUB)
}

/// Smallest value mapping to `index` — the inverse of [`sketch_index`],
/// used as the reported quantile (then clamped to the observed range).
fn sketch_lower_bound(index: usize) -> u64 {
    const SUB: u32 = SKETCH_SUB_BITS;
    if index < (1 << (SUB + 1)) {
        return index as u64;
    }
    let i = index - (1 << SUB);
    let exp = (i >> SUB) as u32 + SUB;
    let mantissa = (i & ((1 << SUB) - 1)) as u64;
    (1u64 << exp) | (mantissa << (exp - SUB))
}

impl QuantileSketch {
    /// Empty sketch. No allocation until the first sample.
    pub fn new() -> Self {
        QuantileSketch {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let idx = sketch_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples (exact).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (exact).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Smallest recorded sample, or `None` if empty (exact).
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest recorded sample, or `None` if empty (exact).
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Quantile (`q` in `[0, 100]`), or `None` if empty.
    ///
    /// Returns the lower bound of the bucket holding the rank-`q` sample
    /// (1-based, ceil: `q = 0` is the first sample), clamped to the
    /// observed `[min, max]`; relative error ≤ 2⁻⁵.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 100.0);
        let target = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(sketch_lower_bound(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another sketch into this one (element-wise bucket addition —
    /// exact, order-independent, associative).
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact quantile of a sorted sample set under the sketch's rank rule
    /// (1-based ceil) — the differential oracle.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let target = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[target - 1]
    }

    #[test]
    fn empty_sketch_reports_none() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.quantile(50.0), None);
    }

    #[test]
    fn single_sample_everything_matches() {
        let mut s = QuantileSketch::new();
        s.record(42_000);
        assert_eq!(s.count(), 1);
        assert_eq!(s.min(), Some(42_000));
        assert_eq!(s.max(), Some(42_000));
        assert_eq!(s.mean(), Some(42_000.0));
        assert_eq!(s.quantile(0.0), Some(42_000));
        assert_eq!(s.quantile(50.0), Some(42_000));
        assert_eq!(s.quantile(100.0), Some(42_000));
    }

    #[test]
    fn mean_is_exact() {
        let mut s = QuantileSketch::new();
        for v in [10u64, 20, 30, 40, 1_000_003] {
            s.record(v);
        }
        assert_eq!(s.mean(), Some(1_000_103.0 / 5.0));
        assert_eq!(s.sum(), 1_000_103);
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        let mut s = QuantileSketch::new();
        // 5 000 and 5 001 share a bucket whose lower bound is 4 992.
        s.record(5_000);
        s.record(5_001);
        for q in [0.0, 25.0, 50.0, 75.0, 100.0] {
            assert_eq!(s.quantile(q), Some(5_000), "q={q}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = QuantileSketch::new();
        a.record(7);
        a.record(90_000);
        let before = a.clone();
        a.merge(&QuantileSketch::new());
        assert_eq!(a.buckets, before.buckets);
        assert_eq!(a.count(), before.count());
        assert_eq!(a.sum(), before.sum());
        assert_eq!(a.min(), before.min());
        assert_eq!(a.max(), before.max());
        let mut empty = QuantileSketch::new();
        empty.merge(&before);
        assert_eq!(empty.buckets, before.buckets);
        assert_eq!(empty.min(), before.min());
    }

    #[test]
    fn merge_across_storage_lengths_equals_the_union() {
        let low: Vec<u64> = (0..200).map(|i| i * 3).collect();
        let high: Vec<u64> = (0..200).map(|i| 1_000_000 + i * 7_919).collect();
        let mut union = QuantileSketch::new();
        let (mut a, mut b) = (QuantileSketch::new(), QuantileSketch::new());
        for &v in &low {
            a.record(v);
            union.record(v);
        }
        for &v in &high {
            b.record(v);
            union.record(v);
        }
        assert!(a.buckets.len() < b.buckets.len());
        // Short into long and long into short both give the union.
        let mut short_into_long = b.clone();
        short_into_long.merge(&a);
        a.merge(&b);
        for merged in [&a, &short_into_long] {
            assert_eq!(merged.buckets, union.buckets);
            assert_eq!(merged.count(), union.count());
            assert_eq!(merged.sum(), union.sum());
            assert_eq!(merged.min(), union.min());
            assert_eq!(merged.max(), union.max());
            for q in 0..=100 {
                assert_eq!(merged.quantile(q as f64), union.quantile(q as f64));
            }
        }
    }

    #[test]
    fn sketch_index_is_monotone_and_invertible() {
        let mut prev = 0usize;
        for v in 0..200_000u64 {
            let idx = sketch_index(v);
            assert!(idx >= prev, "index decreased at value {v}");
            let lb = sketch_lower_bound(idx);
            assert!(lb <= v, "lower bound {lb} exceeds member value {v}");
            assert_eq!(sketch_index(lb), idx, "lower bound left its bucket");
            prev = idx;
        }
        // The top bucket is the last of 64 unit buckets plus 58 octaves of
        // 32, and it round-trips.
        let top = sketch_index(u64::MAX);
        assert_eq!(top, 64 + 58 * 32 - 1);
        assert_eq!(sketch_index(sketch_lower_bound(top)), top);
    }

    #[test]
    fn sketch_small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..=63u64 {
            s.record(v);
        }
        for v in 0..=63u64 {
            let q = (v + 1) as f64 / 64.0 * 100.0;
            assert_eq!(s.quantile(q), Some(v), "unit buckets must be exact");
        }
    }

    #[test]
    fn sketch_relative_error_is_bounded_by_design() {
        let mut s = QuantileSketch::new();
        let sorted: Vec<u64> = (1..=100_000u64).collect();
        for &v in &sorted {
            s.record(v);
        }
        for q in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9] {
            let exact = exact_quantile(&sorted, q) as f64;
            let approx = s.quantile(q).unwrap() as f64;
            let rel = (approx - exact).abs() / exact;
            assert!(rel <= 1.0 / 32.0 + 1e-9, "q={q}: rel err {rel}");
        }
    }

    /// On 20 seeded histories the sketch quantiles stay within ε of the
    /// exact (sorted-sample) oracle, and the exact moments equal the ones
    /// computed from the samples themselves.
    #[test]
    fn sketch_matches_exact_oracle_on_seeded_histories() {
        const EPS_REL: f64 = 1.0 / 32.0 + 1e-9; // 2^-SUB by construction
        for seed in 0..20u64 {
            let mut rng = crate::SimRng::new(0xB0B0 ^ seed);
            let mut sketch = QuantileSketch::new();
            let mut samples: Vec<u64> = Vec::new();
            // Mixed-scale history: µs-scale spikes over a ms-scale body,
            // like commit→install lag under retransmissions.
            for _ in 0..4_000 {
                let v = match rng.gen_range(0u32..10) {
                    0..=5 => rng.gen_range(0u64..2_000),
                    6..=8 => rng.gen_range(2_000u64..200_000),
                    _ => rng.gen_range(200_000u64..20_000_000),
                };
                sketch.record(v);
                samples.push(v);
            }
            samples.sort_unstable();
            for q in [1.0, 25.0, 50.0, 75.0, 95.0, 99.0] {
                let exact = exact_quantile(&samples, q);
                let approx = sketch.quantile(q).unwrap();
                let rel = (approx as f64 - exact as f64).abs() / (exact.max(1) as f64);
                assert!(
                    rel <= EPS_REL,
                    "seed {seed} q={q}: sketch {approx} vs exact {exact} (rel {rel})"
                );
            }
            let sum: u128 = samples.iter().map(|&v| v as u128).sum();
            assert_eq!(sketch.count(), samples.len() as u64, "seed {seed} count");
            assert_eq!(sketch.sum(), sum, "seed {seed} sum");
            assert_eq!(sketch.min(), samples.first().copied(), "seed {seed} min");
            assert_eq!(sketch.max(), samples.last().copied(), "seed {seed} max");
            let mean = sum as f64 / samples.len() as f64;
            assert_eq!(sketch.mean(), Some(mean), "seed {seed} mean");
        }
    }

    #[test]
    fn sketch_merge_equals_single_stream() {
        let mut rng = crate::SimRng::new(7);
        let mut whole = QuantileSketch::new();
        let mut left = QuantileSketch::new();
        let mut right = QuantileSketch::new();
        for i in 0..2_000u64 {
            let v = rng.gen_range(0u64..1_000_000);
            whole.record(v);
            if i % 2 == 0 {
                left.record(v)
            } else {
                right.record(v)
            }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        merged.merge(&QuantileSketch::new()); // identity
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.sum(), whole.sum());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        for q in [10.0, 50.0, 99.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "merge is exact");
        }
    }
}
