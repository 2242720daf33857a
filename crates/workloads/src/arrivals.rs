//! Arrival processes and access-skew generators for workload generation.
//!
//! Besides the original Poisson/periodic schedules, this module provides
//! the PR 8 scale-workload machinery: a [`Zipf`] rank sampler that models
//! hot-key/hot-user skew over populations of millions without any O(n)
//! table, and an [`OpenLoop`] driver whose arrivals are scheduled purely
//! from the offered rate — *independent of completions* — so overload
//! shows up as growing queues and lag instead of silently throttling the
//! generator the way a closed loop would.

use fragdb_sim::{SimDuration, SimRng, SimTime};

/// Zipf(θ) sampler over ranks `0..n` by rejection-inversion.
///
/// Rank `r` is drawn with probability proportional to `1/(r+1)^θ`, so rank
/// 0 is the hottest. Uses the rejection-inversion method of Hörmann &
/// Derflinger ("Rejection-inversion to generate variates from monotone
/// discrete distributions"): O(1) setup and O(1) expected time per sample
/// for any population size — no harmonic-number table, which matters when
/// `n` is in the millions.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    /// `H(1.5) - h(1)`: upper bound of the inversion domain.
    h_x1: f64,
    /// `H(n + 0.5)`: lower bound of the inversion domain.
    h_n: f64,
    /// Acceptance shortcut threshold.
    s: f64,
}

impl Zipf {
    /// Sampler over ranks `0..n` with skew `theta` (θ > 0; θ ≈ 0.99 is the
    /// customary YCSB-style default).
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta <= 0`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "population must be non-empty");
        assert!(theta > 0.0, "skew exponent must be positive");
        let mut z = Zipf {
            n,
            theta,
            h_x1: 0.0,
            h_n: 0.0,
            s: 0.0,
        };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(n as f64 + 0.5);
        z.s = 2.0 - z.h_integral_inverse(z.h_integral(2.5) - z.h(2.0));
        z
    }

    /// Population size.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// `H(x) = ∫ t^-θ dt`, the antiderivative of the weight function,
    /// via `expm1`/`ln` so θ near 1 stays numerically stable.
    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        if (1.0 - self.theta).abs() < 1e-9 {
            log_x
        } else {
            ((1.0 - self.theta) * log_x).exp_m1() / (1.0 - self.theta)
        }
    }

    /// The weight function `h(x) = x^-θ`.
    fn h(&self, x: f64) -> f64 {
        (-self.theta * x.ln()).exp()
    }

    /// Inverse of [`Zipf::h_integral`].
    fn h_integral_inverse(&self, x: f64) -> f64 {
        if (1.0 - self.theta).abs() < 1e-9 {
            x.exp()
        } else {
            // Clamp: limited precision can push the argument below the
            // function's range end.
            let t = (x * (1.0 - self.theta)).max(-1.0);
            (t.ln_1p() / (1.0 - self.theta)).exp()
        }
    }

    /// Draw a rank in `0..n` (0 = hottest).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        loop {
            let u = self.h_n + rng.unit() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inverse(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            // Accept k if it is close enough to x (the overwhelmingly
            // common case) or if u falls inside k's exact weight slice.
            if k - x <= self.s || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as u64 - 1;
            }
        }
    }
}

/// One open-loop arrival: the instant it enters the system and the Zipf
/// rank of the simulated user issuing it (0 = hottest user).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival instant.
    pub at: SimTime,
    /// Issuing user's popularity rank in `0..users`.
    pub user: u64,
}

/// Configuration of an [`OpenLoop`] arrival stream.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopConfig {
    /// Simulated user population (Zipf-ranked; may be millions).
    pub users: u64,
    /// Zipf skew θ across users.
    pub theta: f64,
    /// Offered load in arrivals per simulated second.
    pub rate_per_sec: f64,
    /// First instant arrivals may occur at.
    pub start: SimTime,
    /// Arrivals stop at this instant (exclusive).
    pub horizon: SimTime,
}

/// Open-loop Poisson arrival stream with Zipf-distributed issuers.
///
/// "Open loop" means the next arrival depends only on the offered rate,
/// never on whether earlier requests completed: if the system falls
/// behind, arrivals keep coming and the backlog becomes measurable (peak
/// queue depth, commit→install lag) instead of the generator politely
/// waiting. Stream form — call [`OpenLoop::next_arrival`] — so a
/// million-user run never materializes its schedule.
#[derive(Clone, Debug)]
pub struct OpenLoop {
    zipf: Zipf,
    mean_gap_micros: f64,
    next_at: SimTime,
    horizon: SimTime,
    rate_per_sec: f64,
}

impl OpenLoop {
    /// Build the stream; the first arrival falls at `start` plus one
    /// exponential gap.
    ///
    /// # Panics
    /// Panics on a non-positive rate or an empty `[start, horizon)`.
    pub fn new(cfg: OpenLoopConfig, rng: &mut SimRng) -> Self {
        assert!(cfg.rate_per_sec > 0.0, "rate must be positive");
        assert!(cfg.start < cfg.horizon, "empty interval");
        let mean_gap_micros = 1e6 / cfg.rate_per_sec;
        let first = cfg.start + SimDuration(rng.exp_micros(mean_gap_micros));
        OpenLoop {
            zipf: Zipf::new(cfg.users, cfg.theta),
            mean_gap_micros,
            next_at: first,
            horizon: cfg.horizon,
            rate_per_sec: cfg.rate_per_sec,
        }
    }

    /// Offered load in arrivals per simulated second.
    pub fn offered_rate(&self) -> f64 {
        self.rate_per_sec
    }

    /// Next arrival, or `None` once the horizon is reached.
    pub fn next_arrival(&mut self, rng: &mut SimRng) -> Option<Arrival> {
        if self.next_at >= self.horizon {
            return None;
        }
        let arrival = Arrival {
            at: self.next_at,
            user: self.zipf.sample(rng),
        };
        self.next_at += SimDuration(rng.exp_micros(self.mean_gap_micros));
        Some(arrival)
    }
}

/// Materialize a whole open-loop schedule (convenience for harness
/// configs at modest scale; benches use the streaming form).
pub fn open_loop_schedule(cfg: OpenLoopConfig, rng: &mut SimRng) -> Vec<Arrival> {
    let mut stream = OpenLoop::new(cfg, rng);
    let mut out = Vec::new();
    while let Some(a) = stream.next_arrival(rng) {
        out.push(a);
    }
    out
}

/// Generate arrival instants of a Poisson process with the given rate
/// (events per second) over `[start, horizon)`.
pub fn poisson(
    rng: &mut SimRng,
    rate_per_sec: f64,
    start: SimTime,
    horizon: SimTime,
) -> Vec<SimTime> {
    assert!(rate_per_sec > 0.0, "rate must be positive");
    assert!(start < horizon, "empty interval");
    let mean_gap_micros = 1e6 / rate_per_sec;
    let mut out = Vec::new();
    let mut t = start;
    loop {
        t += fragdb_sim::SimDuration(rng.exp_micros(mean_gap_micros));
        if t >= horizon {
            break;
        }
        out.push(t);
    }
    out
}

/// Evenly spaced instants (periodic tasks like the central office scan),
/// starting at `start + period`.
pub fn periodic(period: fragdb_sim::SimDuration, start: SimTime, horizon: SimTime) -> Vec<SimTime> {
    assert!(period.micros() > 0, "period must be positive");
    let mut out = Vec::new();
    let mut t = start + period;
    while t < horizon {
        out.push(t);
        t += period;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragdb_sim::SimDuration;

    #[test]
    fn poisson_count_close_to_expectation() {
        let mut rng = SimRng::new(42);
        let times = poisson(&mut rng, 10.0, SimTime::ZERO, SimTime::from_secs(100));
        let expected = 1000.0;
        assert!(
            (times.len() as f64 - expected).abs() < expected * 0.2,
            "got {} arrivals, expected ~{expected}",
            times.len()
        );
        // Strictly increasing, within bounds.
        for w in times.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(times.iter().all(|t| *t < SimTime::from_secs(100)));
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = poisson(
            &mut SimRng::new(7),
            5.0,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let b = poisson(
            &mut SimRng::new(7),
            5.0,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn periodic_spacing() {
        let times = periodic(
            SimDuration::from_secs(10),
            SimTime::ZERO,
            SimTime::from_secs(35),
        );
        assert_eq!(
            times,
            vec![
                SimTime::from_secs(10),
                SimTime::from_secs(20),
                SimTime::from_secs(30)
            ]
        );
    }

    #[test]
    fn zipf_ranks_in_bounds_and_deterministic() {
        let z = Zipf::new(1_000_000, 0.99);
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..10_000 {
            let ra = z.sample(&mut a);
            assert!(ra < 1_000_000);
            assert_eq!(ra, z.sample(&mut b), "same seed, same stream");
        }
    }

    #[test]
    fn zipf_is_head_heavy() {
        // θ=0.99 over 1M ranks: rank 0 alone should draw a few percent of
        // samples (≈ 1/H where H ≈ 16.6), vastly above the uniform 1e-6.
        let z = Zipf::new(1_000_000, 0.99);
        let mut rng = SimRng::new(7);
        let samples = 20_000;
        let mut head = 0u64;
        let mut top8 = 0u64;
        for _ in 0..samples {
            let r = z.sample(&mut rng);
            if r == 0 {
                head += 1;
            }
            if r < 8 {
                top8 += 1;
            }
        }
        assert!(
            head as f64 / samples as f64 > 0.02,
            "rank 0 drew only {head}/{samples}"
        );
        assert!(
            top8 as f64 / samples as f64 > 0.15,
            "top-8 ranks drew only {top8}/{samples}"
        );
    }

    #[test]
    fn zipf_theta_one_and_singleton_edge_cases() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 100);
        }
        let one = Zipf::new(1, 0.5);
        assert_eq!(one.sample(&mut rng), 0);
    }

    #[test]
    fn zipf_mild_skew_still_covers_tail() {
        let z = Zipf::new(1000, 0.5);
        let mut rng = SimRng::new(11);
        let mut tail = 0u64;
        for _ in 0..5000 {
            if z.sample(&mut rng) >= 500 {
                tail += 1;
            }
        }
        assert!(tail > 100, "mild skew should still reach the tail: {tail}");
    }

    #[test]
    fn open_loop_rate_and_horizon() {
        let cfg = OpenLoopConfig {
            users: 10_000,
            theta: 0.99,
            rate_per_sec: 200.0,
            start: SimTime::from_secs(1),
            horizon: SimTime::from_secs(11),
        };
        let arrivals = open_loop_schedule(cfg, &mut SimRng::new(42));
        let expected = 2000.0;
        assert!(
            (arrivals.len() as f64 - expected).abs() < expected * 0.2,
            "got {} arrivals, expected ~{expected}",
            arrivals.len()
        );
        for w in arrivals.windows(2) {
            assert!(w[0].at <= w[1].at, "arrivals must be time-ordered");
        }
        assert!(arrivals.iter().all(|a| a.at >= SimTime::from_secs(1)));
        assert!(arrivals.iter().all(|a| a.at < SimTime::from_secs(11)));
        assert!(arrivals.iter().all(|a| a.user < 10_000));
    }

    #[test]
    fn open_loop_stream_matches_materialized_schedule() {
        let cfg = OpenLoopConfig {
            users: 1000,
            theta: 0.8,
            rate_per_sec: 50.0,
            start: SimTime::ZERO,
            horizon: SimTime::from_secs(5),
        };
        let all = open_loop_schedule(cfg, &mut SimRng::new(9));
        let mut rng = SimRng::new(9);
        let mut stream = OpenLoop::new(cfg, &mut rng);
        assert!((stream.offered_rate() - 50.0).abs() < f64::EPSILON);
        let mut streamed = Vec::new();
        while let Some(a) = stream.next_arrival(&mut rng) {
            streamed.push(a);
        }
        assert_eq!(all, streamed);
    }

    #[test]
    fn poisson_respects_start() {
        let times = poisson(
            &mut SimRng::new(1),
            100.0,
            SimTime::from_secs(5),
            SimTime::from_secs(6),
        );
        assert!(times.iter().all(|t| *t >= SimTime::from_secs(5)));
        assert!(!times.is_empty());
    }
}
