//! External load models.
//!
//! A computational grid is *non-dedicated*: other users' jobs consume CPU on
//! the nodes and bandwidth on the links, and that consumption changes over
//! time.  GRASP's whole purpose is to adapt to this "evolving external
//! pressure on the chosen resources".
//!
//! A [`LoadModel`] maps virtual time to the **fraction of the resource
//! consumed by external users**, in `[0, 1)`.  The grid turns this into
//! *availability* `1 − load`, which scales node speed and link bandwidth.
//!
//! All stochastic models are seeded and pre-sample their randomness at
//! construction time, so a given model is a pure, deterministic function of
//! time — this is what makes the experiments reproducible and the
//! simulation's virtual clock free to be queried in any order.

use crate::clock::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Upper bound used when clamping external load so that a node never becomes
/// completely unavailable (the paper's grid nodes always make *some*
/// progress; total unavailability is modelled by fault injection instead).
pub(crate) const MAX_LOAD: f64 = 0.98;

/// A deterministic mapping from virtual time to external load in `[0, MAX_LOAD]`.
pub trait LoadModel: Send + Sync {
    /// External load (fraction of the resource consumed by others) at `t`.
    fn load_at(&self, t: SimTime) -> f64;

    /// Resource availability at `t` (`1 − load`).
    fn availability_at(&self, t: SimTime) -> f64 {
        1.0 - self.load_at(t)
    }

    /// A short human-readable description used in experiment reports.
    fn describe(&self) -> String {
        "load".to_string()
    }
}

fn clamp_load(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(0.0, MAX_LOAD)
    }
}

/// Constant external load.
#[derive(Debug, Clone, Copy)]
pub struct ConstantLoad {
    level: f64,
}

impl ConstantLoad {
    /// A constant load at `level` (clamped to `[0, MAX_LOAD]`).
    pub fn new(level: f64) -> Self {
        ConstantLoad {
            level: clamp_load(level),
        }
    }

    /// An idle resource.
    pub(crate) fn idle() -> Self {
        ConstantLoad::new(0.0)
    }
}

impl LoadModel for ConstantLoad {
    fn load_at(&self, _t: SimTime) -> f64 {
        self.level
    }
    fn describe(&self) -> String {
        format!("constant({:.2})", self.level)
    }
}

/// Sinusoidal load oscillating around a mean with a given period, modelling
/// regular interference (e.g. a periodically scheduled competing job).
#[derive(Debug, Clone, Copy)]
pub struct PeriodicLoad {
    mean: f64,
    amplitude: f64,
    period_s: f64,
    phase: f64,
}

impl PeriodicLoad {
    /// Create a sinusoidal load: `mean + amplitude·sin(2π(t/period + phase))`,
    /// clamped to the valid range. `period_s` must be positive (else 1.0).
    pub fn new(mean: f64, amplitude: f64, period_s: f64, phase: f64) -> Self {
        PeriodicLoad {
            mean,
            amplitude: amplitude.abs(),
            period_s: if period_s > 0.0 { period_s } else { 1.0 },
            phase,
        }
    }
}

impl LoadModel for PeriodicLoad {
    fn load_at(&self, t: SimTime) -> f64 {
        let x = self.mean
            + self.amplitude
                * (2.0 * std::f64::consts::PI * (t.as_secs() / self.period_s + self.phase)).sin();
        clamp_load(x)
    }
    fn describe(&self) -> String {
        format!(
            "periodic(mean={:.2}, amp={:.2}, period={:.0}s)",
            self.mean, self.amplitude, self.period_s
        )
    }
}

/// A single sustained load spike over a time window — the canonical
/// "somebody started a big job on one of our nodes" scenario used by the
/// adaptation-response experiment (E7).
#[derive(Debug, Clone, Copy)]
pub struct SpikeLoad {
    baseline: f64,
    spike: f64,
    start_s: f64,
    end_s: f64,
}

impl SpikeLoad {
    /// Load is `baseline` outside `[start, end)` and `spike` inside it.
    pub fn new(baseline: f64, spike: f64, start: SimTime, end: SimTime) -> Self {
        SpikeLoad {
            baseline: clamp_load(baseline),
            spike: clamp_load(spike),
            start_s: start.as_secs(),
            end_s: end.as_secs().max(start.as_secs()),
        }
    }
}

impl LoadModel for SpikeLoad {
    fn load_at(&self, t: SimTime) -> f64 {
        let s = t.as_secs();
        if s >= self.start_s && s < self.end_s {
            self.spike
        } else {
            self.baseline
        }
    }
    fn describe(&self) -> String {
        format!(
            "spike({:.2}->{:.2} during [{:.0},{:.0})s)",
            self.baseline, self.spike, self.start_s, self.end_s
        )
    }
}

/// Bursty load: exponential-ish gaps between bursts of random height and
/// duration, pre-sampled over a horizon and repeated cyclically beyond it.
#[derive(Debug, Clone)]
pub struct BurstyLoad {
    baseline: f64,
    /// Sorted (start, end, level) burst windows within `[0, horizon)`.
    bursts: Vec<(f64, f64, f64)>,
    horizon_s: f64,
}

impl BurstyLoad {
    /// Create a bursty load.
    ///
    /// * `baseline` — load between bursts.
    /// * `burst_level` — mean load during a burst (individual bursts vary ±30 %).
    /// * `mean_gap_s` — mean idle gap between bursts.
    /// * `mean_burst_s` — mean burst duration.
    /// * `horizon_s` — length of the pre-sampled pattern (repeats after this).
    /// * `seed` — RNG seed; equal seeds give identical load functions.
    pub fn new(
        baseline: f64,
        burst_level: f64,
        mean_gap_s: f64,
        mean_burst_s: f64,
        horizon_s: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon_s = if horizon_s > 0.0 { horizon_s } else { 1000.0 };
        let mean_gap_s = mean_gap_s.max(1e-3);
        let mean_burst_s = mean_burst_s.max(1e-3);
        let mut bursts = Vec::new();
        let mut t = 0.0f64;
        while t < horizon_s {
            // Exponential gap via inverse transform on a uniform draw.
            let u: f64 = rng.gen_range(1e-9..1.0);
            let gap = -mean_gap_s * u.ln();
            let start = t + gap;
            if start >= horizon_s {
                break;
            }
            let u2: f64 = rng.gen_range(1e-9..1.0);
            let dur = -mean_burst_s * u2.ln();
            let level = clamp_load(burst_level * rng.gen_range(0.7..1.3));
            let end = (start + dur).min(horizon_s);
            bursts.push((start, end, level));
            t = end;
        }
        BurstyLoad {
            baseline: clamp_load(baseline),
            bursts,
            horizon_s,
        }
    }
}

impl LoadModel for BurstyLoad {
    fn load_at(&self, t: SimTime) -> f64 {
        let s = t.as_secs() % self.horizon_s;
        for &(start, end, level) in &self.bursts {
            if s >= start && s < end {
                return level.max(self.baseline);
            }
            if start > s {
                break;
            }
        }
        self.baseline
    }
    fn describe(&self) -> String {
        format!(
            "bursty(baseline={:.2}, {} bursts/{:.0}s)",
            self.baseline,
            self.bursts.len(),
            self.horizon_s
        )
    }
}

/// Random-walk load: a mean-reverting walk pre-sampled at a fixed step over a
/// horizon (repeating beyond it), with linear interpolation between samples.
/// This approximates the slowly wandering background utilisation observed on
/// shared cluster nodes.
#[derive(Debug, Clone)]
pub struct RandomWalkLoad {
    samples: Vec<f64>,
    step_s: f64,
}

impl RandomWalkLoad {
    /// Create a mean-reverting random-walk load.
    ///
    /// * `mean` — long-run mean load.
    /// * `volatility` — standard deviation of each step's innovation.
    /// * `step_s` — sampling step.
    /// * `horizon_s` — pattern length (repeats after this).
    /// * `seed` — RNG seed.
    pub fn new(mean: f64, volatility: f64, step_s: f64, horizon_s: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let step_s = step_s.max(1e-3);
        let horizon_s = horizon_s.max(step_s);
        let n = (horizon_s / step_s).ceil() as usize + 1;
        let mean = clamp_load(mean);
        let mut samples = Vec::with_capacity(n);
        let mut x = mean;
        // Mean reversion strength: pull 10 % of the gap back each step.
        let kappa = 0.1;
        for _ in 0..n {
            samples.push(clamp_load(x));
            // Approximate a Gaussian innovation by the sum of uniforms (Irwin–Hall).
            let g: f64 = (0..12).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() - 6.0;
            x += kappa * (mean - x) + volatility * g;
        }
        RandomWalkLoad { samples, step_s }
    }
}

impl LoadModel for RandomWalkLoad {
    fn load_at(&self, t: SimTime) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let span = (self.samples.len() - 1) as f64 * self.step_s;
        if span <= 0.0 {
            return self.samples[0];
        }
        let s = t.as_secs() % span;
        let idx = s / self.step_s;
        let lo = idx.floor() as usize;
        let hi = (lo + 1).min(self.samples.len() - 1);
        let frac = idx - lo as f64;
        clamp_load(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }
    fn describe(&self) -> String {
        format!(
            "random-walk({} samples, step {:.1}s)",
            self.samples.len(),
            self.step_s
        )
    }
}

/// Sum of several load models, clamped to the valid range.  Used to layer a
/// spike or bursts on top of a diurnal baseline.
pub struct CompositeLoad {
    parts: Vec<Box<dyn LoadModel>>,
}

impl CompositeLoad {
    /// Create an empty composite (zero load).
    pub fn new() -> Self {
        CompositeLoad { parts: Vec::new() }
    }

    /// Add a component model.
    pub fn with(mut self, model: Box<dyn LoadModel>) -> Self {
        self.parts.push(model);
        self
    }
}

impl Default for CompositeLoad {
    fn default() -> Self {
        Self::new()
    }
}

impl LoadModel for CompositeLoad {
    fn load_at(&self, t: SimTime) -> f64 {
        clamp_load(self.parts.iter().map(|m| m.load_at(t)).sum())
    }
    fn describe(&self) -> String {
        let inner: Vec<String> = self.parts.iter().map(|m| m.describe()).collect();
        format!("composite[{}]", inner.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn constant_load_is_flat_and_clamped() {
        let m = ConstantLoad::new(0.3);
        assert_eq!(m.load_at(t(0.0)), 0.3);
        assert_eq!(m.load_at(t(1e6)), 0.3);
        assert!((m.availability_at(t(5.0)) - 0.7).abs() < 1e-12);
        assert_eq!(ConstantLoad::new(2.0).load_at(t(0.0)), MAX_LOAD);
        assert_eq!(ConstantLoad::new(-1.0).load_at(t(0.0)), 0.0);
        assert_eq!(ConstantLoad::idle().load_at(t(9.9)), 0.0);
    }

    #[test]
    fn periodic_load_oscillates_within_bounds() {
        let m = PeriodicLoad::new(0.5, 0.4, 100.0, 0.0);
        let vals: Vec<f64> = (0..200).map(|i| m.load_at(t(i as f64))).collect();
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            lo < 0.2 && hi > 0.8,
            "oscillation should span the amplitude"
        );
        assert!(vals.iter().all(|&v| (0.0..=MAX_LOAD).contains(&v)));
        // Periodicity.
        assert!((m.load_at(t(12.0)) - m.load_at(t(112.0))).abs() < 1e-9);
    }

    #[test]
    fn spike_load_is_windowed() {
        let m = SpikeLoad::new(0.05, 0.9, t(10.0), t(20.0));
        assert_eq!(m.load_at(t(5.0)), 0.05);
        assert_eq!(m.load_at(t(10.0)), 0.9);
        assert_eq!(m.load_at(t(19.99)), 0.9);
        assert_eq!(m.load_at(t(20.0)), 0.05);
    }

    #[test]
    fn bursty_load_is_deterministic_per_seed() {
        let a = BurstyLoad::new(0.05, 0.8, 30.0, 10.0, 1000.0, 42);
        let b = BurstyLoad::new(0.05, 0.8, 30.0, 10.0, 1000.0, 42);
        let c = BurstyLoad::new(0.05, 0.8, 30.0, 10.0, 1000.0, 43);
        let same = (0..100).all(|i| a.load_at(t(i as f64 * 7.0)) == b.load_at(t(i as f64 * 7.0)));
        assert!(same);
        let differs =
            (0..100).any(|i| a.load_at(t(i as f64 * 7.0)) != c.load_at(t(i as f64 * 7.0)));
        assert!(
            differs,
            "different seeds should give different burst patterns"
        );
    }

    #[test]
    fn bursty_load_spends_time_at_baseline_and_in_bursts() {
        let m = BurstyLoad::new(0.05, 0.8, 20.0, 10.0, 2000.0, 7);
        let samples: Vec<f64> = (0..2000).map(|i| m.load_at(t(i as f64))).collect();
        let at_baseline = samples.iter().filter(|&&v| (v - 0.05).abs() < 1e-9).count();
        let in_burst = samples.iter().filter(|&&v| v > 0.3).count();
        assert!(at_baseline > 0, "some time must be idle");
        assert!(in_burst > 0, "some time must be bursting");
    }

    #[test]
    fn random_walk_stays_in_bounds_and_reverts_to_mean() {
        let m = RandomWalkLoad::new(0.4, 0.05, 1.0, 5000.0, 11);
        let samples: Vec<f64> = (0..5000).map(|i| m.load_at(t(i as f64))).collect();
        assert!(samples.iter().all(|&v| (0.0..=MAX_LOAD).contains(&v)));
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            (mean - 0.4).abs() < 0.15,
            "long-run mean should be near 0.4, got {mean}"
        );
    }

    #[test]
    fn random_walk_is_continuous_between_samples() {
        let m = RandomWalkLoad::new(0.3, 0.02, 10.0, 1000.0, 3);
        // Values 1 s apart within the same 10 s step should be close.
        let a = m.load_at(t(25.0));
        let b = m.load_at(t(26.0));
        assert!((a - b).abs() < 0.1);
    }

    #[test]
    fn composite_load_sums_and_clamps() {
        let m = CompositeLoad::new()
            .with(Box::new(ConstantLoad::new(0.3)))
            .with(Box::new(ConstantLoad::new(0.4)));
        assert!((m.load_at(t(0.0)) - 0.7).abs() < 1e-12);
        let over = CompositeLoad::new()
            .with(Box::new(ConstantLoad::new(0.9)))
            .with(Box::new(ConstantLoad::new(0.9)));
        assert_eq!(over.load_at(t(0.0)), MAX_LOAD);
        assert_eq!(CompositeLoad::new().load_at(t(1.0)), 0.0);
    }

    #[test]
    fn describe_strings_are_informative() {
        assert!(ConstantLoad::new(0.2).describe().contains("constant"));
        assert!(PeriodicLoad::new(0.5, 0.1, 60.0, 0.0)
            .describe()
            .contains("periodic"));
        assert!(SpikeLoad::new(0.0, 0.9, t(1.0), t(2.0))
            .describe()
            .contains("spike"));
        assert!(BurstyLoad::new(0.0, 0.5, 10.0, 5.0, 100.0, 1)
            .describe()
            .contains("bursty"));
        assert!(RandomWalkLoad::new(0.3, 0.1, 1.0, 10.0, 1)
            .describe()
            .contains("random-walk"));
        let comp = CompositeLoad::new().with(Box::new(ConstantLoad::idle()));
        assert!(comp.describe().contains("composite"));
    }
}
