//! Log-bucketed histogram.
//!
//! Used for latency-style quantities (virtual-time durations in
//! microseconds). Buckets grow geometrically so one histogram covers
//! microseconds through hours with bounded memory. `count`, `sum`, `min`
//! and `max` are exact; a percentile reads its bucket's lower bound, so it
//! is up to ≈7 % low — ample for reproducing the *shape* of the paper's
//! qualitative results.

/// Geometric growth factor per bucket (~7% wide buckets).
const GROWTH: f64 = 1.07;

/// A histogram of non-negative `u64` samples with geometric buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// `buckets[i]` counts samples whose bucket index is `i`.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

// Hand-written so the empty-histogram `min` sentinel is `u64::MAX` like
// `Histogram::new()`; a derived `Default` would start `min` at 0 and every
// histogram built through `Metrics::observe*` would report a spurious
// all-time minimum of zero (and percentile clamping would lose its floor).
impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        return value as usize; // 0 and 1 get exact buckets
    }
    // index 2 + floor(log_GROWTH(value)) keeps indices monotone in value.
    2 + ((value as f64).ln() / GROWTH.ln()) as usize
}

fn bucket_lower_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        1 => 1,
        // Floor keeps the invariant `bucket_lower_bound(bucket_index(v)) <= v`
        // for every v, which is what percentile() relies on.
        _ => GROWTH.powi((index - 2) as i32) as u64,
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            // Pre-size for the common case: latency samples in microseconds
            // up to ~1 s land in bucket 2 + ln(1e6)/ln(GROWTH) ≈ 206, so one
            // allocation covers them; rarer larger values still grow the Vec.
            buckets: Vec::with_capacity(208),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
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

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Approximate percentile (`q` in `[0, 100]`), or `None` if empty.
    ///
    /// Returns the lower bound of the bucket containing the `q`-th
    /// percentile sample, clamped to the observed `[min, max]` range.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 100.0);
        // Rank of the target sample (1-based, ceil) — q=0 → first sample.
        let target = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_lower_bound(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Sub-bucket resolution of [`QuantileSketch`]: 2^5 = 32 linear
/// sub-buckets per power-of-two octave, i.e. relative error ≤ 2⁻⁵.
const SKETCH_SUB_BITS: u32 = 5;

/// Number of sketch buckets: values below 2^(SUB+1) get exact unit
/// buckets; each of the remaining 64−(SUB+1) octaves contributes 2^SUB
/// linear sub-buckets. For SUB=5 that is 64 + 58·32 = 1920 buckets.
const SKETCH_BUCKETS: usize =
    (1 << (SKETCH_SUB_BITS + 1)) + (63 - SKETCH_SUB_BITS as usize) * (1 << SKETCH_SUB_BITS);

/// A deterministic, mergeable streaming quantile sketch (HDR-style
/// log-linear buckets) over non-negative `u64` samples.
///
/// Unlike [`Histogram`]'s geometric float buckets, the index function is
/// pure integer arithmetic (exponent + truncated mantissa), the bucket
/// array is **bounded** (`SKETCH_BUCKETS` entries, ~15 KiB) regardless of
/// the value range, and two sketches merge by element-wise addition —
/// merging is exact (merge-then-query ≡ query-then-never: the sketch of a
/// union is the element-wise sum of the sketches). Relative error of a
/// quantile query is ≤ 2⁻⁵ ≈ 3.1% by construction; `count`/`sum`/
/// `min`/`max` are exact. High-cardinality scale probes use this for
/// percentile reads; the per-fragment [`Histogram`]s (exact count, sum,
/// min and max; percentiles from ≈7 % geometric buckets) remain available
/// as a differential oracle.
#[derive(Clone, Debug)]
pub struct QuantileSketch {
    /// Fixed-size bucket array, lazily allocated on first record.
    buckets: Vec<u32>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

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
        if self.buckets.is_empty() {
            self.buckets = vec![0; SKETCH_BUCKETS];
        }
        self.buckets[sketch_index(value)] += 1;
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
    /// Returns the lower bound of the bucket holding the rank-`q` sample,
    /// clamped to the observed `[min, max]`; relative error ≤ 2⁻⁵. The
    /// rank rule matches [`Histogram::percentile`] (1-based ceil).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 100.0);
        let target = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c as u64;
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
        if self.buckets.is_empty() {
            self.buckets = vec![0; SKETCH_BUCKETS];
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

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentile(50.0), None);
    }

    #[test]
    fn single_sample_everything_matches() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(42));
        assert_eq!(h.max(), Some(42));
        assert_eq!(h.mean(), Some(42.0));
        assert_eq!(h.percentile(0.0), Some(42));
        assert_eq!(h.percentile(50.0), Some(42));
        assert_eq!(h.percentile(100.0), Some(42));
    }

    #[test]
    fn zero_and_one_are_exact() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        h.record(1);
        assert_eq!(h.percentile(50.0), Some(0));
        assert_eq!(h.percentile(100.0), Some(1));
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut prev = 0;
        for v in 0..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index decreased at value {v}");
            prev = idx;
        }
    }

    #[test]
    fn bucket_lower_bound_never_exceeds_member_values() {
        for v in 0..100_000u64 {
            let lb = bucket_lower_bound(bucket_index(v));
            assert!(lb <= v, "lower bound {lb} exceeds member value {v}");
        }
    }

    #[test]
    fn percentile_relative_error_bounded() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0).unwrap() as f64;
        let p99 = h.percentile(99.0).unwrap() as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.10, "p50={p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.10, "p99={p99}");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.mean(), Some(25.0));
        assert_eq!(h.sum(), 100);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        a.record(10);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(1_000));
        assert_eq!(a.sum(), 1_015);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(7);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.min(), before.min());
        assert_eq!(a.max(), before.max());
    }

    #[test]
    fn percentiles_clamp_to_observed_range() {
        let mut h = Histogram::new();
        h.record(500);
        h.record(501);
        // Bucket lower bounds are coarse, but results must stay in [min,max].
        for q in [0.0, 25.0, 50.0, 75.0, 100.0] {
            let p = h.percentile(q).unwrap();
            assert!((500..=501).contains(&p));
        }
    }

    // ---- QuantileSketch -------------------------------------------------

    /// Exact quantile of a sorted sample set under the same rank rule the
    /// sketch and histogram use (1-based ceil) — the differential oracle.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let target = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[target - 1]
    }

    #[test]
    fn sketch_empty_reports_none() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(50.0), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn sketch_index_is_monotone_and_invertible() {
        let mut prev = 0usize;
        for v in 0..200_000u64 {
            let idx = sketch_index(v);
            assert!(idx >= prev, "index decreased at value {v}");
            assert!(idx < SKETCH_BUCKETS, "index {idx} out of bounds at {v}");
            let lb = sketch_lower_bound(idx);
            assert!(lb <= v, "lower bound {lb} exceeds member value {v}");
            assert_eq!(sketch_index(lb), idx, "lower bound left its bucket");
            prev = idx;
        }
        // Extremes stay in bounds too, and the top bucket round-trips.
        let top = sketch_index(u64::MAX);
        assert!(top < SKETCH_BUCKETS);
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

    /// Satellite differential: on 20 seeded histories the sketch quantiles
    /// stay within ε of the exact (sorted-sample) oracle, and the exact
    /// moments agree with the `Histogram` oracle bit-for-bit.
    #[test]
    fn sketch_matches_exact_oracle_on_seeded_histories() {
        const EPS_REL: f64 = 1.0 / 32.0 + 1e-9; // 2^-SUB by construction
        for seed in 0..20u64 {
            let mut rng = crate::SimRng::new(0xB0B0 ^ seed);
            let mut sketch = QuantileSketch::new();
            let mut hist = Histogram::new();
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
                hist.record(v);
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
            // Exact moments agree with the exact-histogram oracle.
            assert_eq!(sketch.count(), hist.count(), "seed {seed} count");
            assert_eq!(sketch.sum(), hist.sum(), "seed {seed} sum");
            assert_eq!(sketch.min(), hist.min(), "seed {seed} min");
            assert_eq!(sketch.max(), hist.max(), "seed {seed} max");
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
