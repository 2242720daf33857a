//! Property tests for the simulation kernel, run as seeded randomized
//! loops (reproducible from the case number, no external deps).

use fragdb_sim::{Engine, QuantileSketch, SimDuration, SimRng, SimTime};

/// Events always pop in non-decreasing time order, and same-time events
/// pop in insertion order.
#[test]
fn engine_orders_events() {
    for case in 0..256u64 {
        let mut rng = SimRng::new(0x454E_4700 + case);
        let n = rng.gen_range(1..100usize);
        let delays: Vec<u64> = (0..n).map(|_| rng.gen_range(0..50u64)).collect();

        let mut e: Engine<usize> = Engine::new(0);
        for (i, &d) in delays.iter().enumerate() {
            e.schedule(SimDuration(d), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(item) = e.pop() {
            popped.push(item);
        }
        assert_eq!(popped.len(), delays.len(), "case {case}");
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: time went backwards");
            if w[0].0 == w[1].0 {
                assert!(
                    w[0].1 < w[1].1,
                    "case {case}: same-time events must be FIFO"
                );
            }
        }
    }
}

/// The histogram's quantile always lies within [min, max], and quantiles
/// are monotone in q.
#[test]
fn histogram_percentiles_are_bounded_and_monotone() {
    for case in 0..256u64 {
        let mut rng = SimRng::new(0x4849_5300 + case);
        let n = rng.gen_range(1..300usize);
        let samples: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000u64)).collect();

        let mut h = QuantileSketch::new();
        for &s in &samples {
            h.record(s);
        }
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        let mut prev = 0u64;
        for q in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let p = h.quantile(q).unwrap();
            assert!(
                p >= lo && p <= hi,
                "case {case}: p{q}={p} outside [{lo}, {hi}]"
            );
            assert!(p >= prev, "case {case}: percentiles must be monotone");
            prev = p;
        }
        assert_eq!(h.count(), samples.len() as u64, "case {case}");
        let exact_mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((h.mean().unwrap() - exact_mean).abs() < 1e-6, "case {case}");
    }
}

/// The approximate median is at most 2⁻⁵ below the same-rank sample of
/// the sorted set, and never above it.
#[test]
fn histogram_median_error_is_bounded() {
    for case in 0..256u64 {
        let mut rng = SimRng::new(0x4D45_4400 + case);
        let n = rng.gen_range(10..300usize);
        let samples: Vec<u64> = (0..n).map(|_| rng.gen_range(1..1_000_000u64)).collect();

        let mut h = QuantileSketch::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        // Rank ceil(n/2), 1-based: the sketch's rule at q = 50.
        let exact = sorted[n.div_ceil(2) - 1] as f64;
        let approx = h.quantile(50.0).unwrap() as f64;
        assert!(
            exact * (1.0 - 1.0 / 32.0) <= approx && approx <= exact,
            "case {case}: approx {approx} vs exact {exact}"
        );
    }
}

/// Merging histograms equals recording everything into one.
#[test]
fn histogram_merge_is_union() {
    for case in 0..256u64 {
        let mut rng = SimRng::new(0x4D52_4700 + case);
        let na = rng.gen_range(0..100usize);
        let nb = rng.gen_range(0..100usize);
        let a: Vec<u64> = (0..na).map(|_| rng.gen_range(0..10_000u64)).collect();
        let b: Vec<u64> = (0..nb).map(|_| rng.gen_range(0..10_000u64)).collect();

        let mut ha = QuantileSketch::new();
        let mut hb = QuantileSketch::new();
        let mut hall = QuantileSketch::new();
        for &s in &a {
            ha.record(s);
            hall.record(s);
        }
        for &s in &b {
            hb.record(s);
            hall.record(s);
        }
        ha.merge(&hb);
        assert_eq!(ha.count(), hall.count(), "case {case}");
        assert_eq!(ha.sum(), hall.sum(), "case {case}");
        assert_eq!(ha.min(), hall.min(), "case {case}");
        assert_eq!(ha.max(), hall.max(), "case {case}");
        for q in [25.0, 50.0, 95.0] {
            assert_eq!(ha.quantile(q), hall.quantile(q), "case {case}");
        }
    }
}
