//! One-step-ahead forecasters.
//!
//! Statistical calibration extrapolates node performance from recent
//! observations.  Following the Network Weather Service design that grid
//! monitors of the paper's era used, we provide a family of cheap
//! single-series predictors and an [`AdaptiveForecaster`] that continuously
//! tracks which predictor has been most accurate and delegates to it.
//!
//! Every forecaster is updated observation-by-observation via
//! [`Forecaster::observe`] and asked for a prediction of the *next* value via
//! [`Forecaster::predict`].  The built-in forecasters compute that prediction
//! once, inside `observe`, into state they own, so `predict` is a field read
//! and neither call touches the heap once the history windows are full.

use gridstats::linear_regression;
use std::collections::VecDeque;

/// A one-step-ahead predictor over a scalar series.
pub trait Forecaster: Send {
    /// Feed the next observed value.
    fn observe(&mut self, value: f64);

    /// Predict the next value; `None` until enough observations have arrived.
    fn predict(&self) -> Option<f64>;

    /// Short name used in reports (e.g. `"last"`, `"ar1"`).
    fn name(&self) -> &'static str;

    /// Reset to the initial (empty) state.
    fn reset(&mut self);
}

/// Predicts the next value to equal the last observed value.
#[derive(Debug, Clone, Default)]
pub struct LastValue {
    last: Option<f64>,
}

impl LastValue {
    /// New empty predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Forecaster for LastValue {
    fn observe(&mut self, value: f64) {
        if !value.is_nan() {
            self.last = Some(value);
        }
    }
    fn predict(&self) -> Option<f64> {
        self.last
    }
    fn name(&self) -> &'static str {
        "last"
    }
    fn reset(&mut self) {
        self.last = None;
    }
}

/// Predicts the running mean of every observation seen so far.
#[derive(Debug, Clone, Default)]
pub struct RunningMean {
    count: u64,
    sum: f64,
    prediction: Option<f64>,
}

impl RunningMean {
    /// New empty predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Forecaster for RunningMean {
    fn observe(&mut self, value: f64) {
        if !value.is_nan() {
            self.count += 1;
            self.sum += value;
            self.prediction = Some(self.sum / self.count as f64);
        }
    }
    fn predict(&self) -> Option<f64> {
        self.prediction
    }
    fn name(&self) -> &'static str {
        "running-mean"
    }
    fn reset(&mut self) {
        self.count = 0;
        self.sum = 0.0;
        self.prediction = None;
    }
}

/// Mean of the `k` most recent observations.
#[derive(Debug, Clone)]
pub struct SlidingWindowMean {
    window: VecDeque<f64>,
    k: usize,
    prediction: Option<f64>,
}

impl SlidingWindowMean {
    /// Window of size `k` (minimum 1).
    pub fn new(k: usize) -> Self {
        SlidingWindowMean {
            window: VecDeque::new(),
            k: k.max(1),
            prediction: None,
        }
    }
}

impl Forecaster for SlidingWindowMean {
    fn observe(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        if self.window.len() == self.k {
            self.window.pop_front();
        }
        self.window.push_back(value);
        self.prediction = Some(self.window.iter().sum::<f64>() / self.window.len() as f64);
    }
    fn predict(&self) -> Option<f64> {
        self.prediction
    }
    fn name(&self) -> &'static str {
        "window-mean"
    }
    fn reset(&mut self) {
        self.window.clear();
        self.prediction = None;
    }
}

/// Median of the `k` most recent observations (robust to spikes).
#[derive(Debug, Clone)]
pub struct SlidingWindowMedian {
    window: VecDeque<f64>,
    k: usize,
    /// The window, sorted; reused by every `observe`.
    sorted: Vec<f64>,
    prediction: Option<f64>,
}

impl SlidingWindowMedian {
    /// Window of size `k` (minimum 1).
    pub fn new(k: usize) -> Self {
        SlidingWindowMedian {
            window: VecDeque::new(),
            k: k.max(1),
            sorted: Vec::new(),
            prediction: None,
        }
    }
}

impl Forecaster for SlidingWindowMedian {
    fn observe(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        if self.window.len() == self.k {
            self.window.pop_front();
        }
        self.window.push_back(value);
        // `gridstats::median` (type-7 percentile at 50 %) over a reused
        // buffer: the same stable sort and the same interpolation.
        self.sorted.clear();
        self.sorted.extend(self.window.iter().copied());
        self.sorted
            .sort_by(|a, b| a.partial_cmp(b).expect("NaNs are never stored"));
        let n = self.sorted.len();
        self.prediction = Some(if n == 1 {
            self.sorted[0]
        } else {
            let rank = 0.5 * (n as f64 - 1.0);
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac
        });
    }
    fn predict(&self) -> Option<f64> {
        self.prediction
    }
    fn name(&self) -> &'static str {
        "window-median"
    }
    fn reset(&mut self) {
        self.window.clear();
        self.prediction = None;
    }
}

/// Exponentially smoothed prediction `s ← α·x + (1−α)·s`.
#[derive(Debug, Clone)]
pub struct ExponentialSmoothing {
    alpha: f64,
    state: Option<f64>,
}

impl ExponentialSmoothing {
    /// Smoothing factor `alpha` clamped to `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        ExponentialSmoothing {
            alpha: alpha.clamp(1e-3, 1.0),
            state: None,
        }
    }
}

impl Forecaster for ExponentialSmoothing {
    fn observe(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.state = Some(match self.state {
            None => value,
            Some(s) => self.alpha * value + (1.0 - self.alpha) * s,
        });
    }
    fn predict(&self) -> Option<f64> {
        self.state
    }
    fn name(&self) -> &'static str {
        "exp-smooth"
    }
    fn reset(&mut self) {
        self.state = None;
    }
}

/// First-order autoregressive predictor: fits `xₜ = β₀ + β₁·xₜ₋₁` over a
/// bounded history by least squares and extrapolates one step.
#[derive(Debug, Clone)]
pub struct Ar1Forecaster {
    history: VecDeque<f64>,
    capacity: usize,
    prediction: Option<f64>,
}

impl Ar1Forecaster {
    /// Keep at most `capacity` recent observations for the fit (minimum 4).
    pub fn new(capacity: usize) -> Self {
        Ar1Forecaster {
            history: VecDeque::new(),
            capacity: capacity.max(4),
            prediction: None,
        }
    }
}

impl Forecaster for Ar1Forecaster {
    fn observe(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        if self.history.len() == self.capacity {
            self.history.pop_front();
        }
        self.history.push_back(value);
        let n = self.history.len();
        if n < 3 {
            self.prediction = Some(value);
            return;
        }
        // The lag pairs are two overlapping views of one contiguous slice.
        let vals: &[f64] = self.history.make_contiguous();
        self.prediction = match linear_regression(&vals[..n - 1], &vals[1..]) {
            // A near-constant history makes the lag-regression denominator
            // tiny: the fitted slope explodes and the extrapolation lands
            // arbitrarily far from anything ever observed (observed in the
            // wild as a load forecast of −33 from a series of ≈0.9s).  Two
            // guards keep the predictor sane: a slope far outside the
            // stationary band means the fit is unstable (fall back to the
            // last value), and any prediction is confined to one
            // history-range width beyond the observed envelope — enough to
            // extrapolate a genuine trend, never enough to leave orbit.
            Ok(fit) if fit.slope.abs() <= 2.0 => {
                let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
                let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let range = (max - min).max(f64::EPSILON);
                Some(fit.predict(vals[n - 1]).clamp(min - range, max + range))
            }
            // Unstable or singular fit → predict the last value.
            _ => Some(value),
        };
    }
    fn predict(&self) -> Option<f64> {
        self.prediction
    }
    fn name(&self) -> &'static str {
        "ar1"
    }
    fn reset(&mut self) {
        self.history.clear();
        self.prediction = None;
    }
}

/// Tracks a set of candidate forecasters, scores each by its mean absolute
/// one-step error so far, and delegates prediction to the current best.
pub struct AdaptiveForecaster {
    candidates: Vec<Box<dyn Forecaster>>,
    abs_error_sums: Vec<f64>,
    scored_updates: u64,
    /// [`AdaptiveForecaster::best_index`] as of the latest `observe`.
    best: usize,
}

impl AdaptiveForecaster {
    /// Build from an explicit candidate set (must be non-empty; an empty set
    /// is replaced by the default set).
    pub fn new(candidates: Vec<Box<dyn Forecaster>>) -> Self {
        let candidates = if candidates.is_empty() {
            Self::default_candidates()
        } else {
            candidates
        };
        let n = candidates.len();
        AdaptiveForecaster {
            candidates,
            abs_error_sums: vec![0.0; n],
            scored_updates: 0,
            best: 0,
        }
    }

    /// The default NWS-style candidate set.
    pub fn default_candidates() -> Vec<Box<dyn Forecaster>> {
        vec![
            Box::new(LastValue::new()),
            Box::new(RunningMean::new()),
            Box::new(SlidingWindowMean::new(8)),
            Box::new(SlidingWindowMedian::new(8)),
            Box::new(ExponentialSmoothing::new(0.3)),
            Box::new(Ar1Forecaster::new(32)),
        ]
    }

    /// An adaptive forecaster over the default candidate set.
    pub fn standard() -> Self {
        Self::new(Self::default_candidates())
    }

    /// Index of the currently best candidate (lowest mean absolute error;
    /// ties broken by candidate order).
    fn best_index(&self) -> usize {
        let mut best = 0usize;
        let mut best_err = f64::INFINITY;
        for (i, &sum) in self.abs_error_sums.iter().enumerate() {
            let err = if self.scored_updates == 0 {
                0.0
            } else {
                sum / self.scored_updates as f64
            };
            if err < best_err {
                best_err = err;
                best = i;
            }
        }
        best
    }

    /// Name of the candidate currently used for predictions.
    pub fn best_name(&self) -> &'static str {
        self.candidates[self.best].name()
    }

    /// Mean absolute error of each candidate so far, in candidate order.
    pub fn candidate_errors(&self) -> Vec<(&'static str, f64)> {
        self.candidates
            .iter()
            .zip(&self.abs_error_sums)
            .map(|(c, &sum)| {
                let err = if self.scored_updates == 0 {
                    0.0
                } else {
                    sum / self.scored_updates as f64
                };
                (c.name(), err)
            })
            .collect()
    }
}

impl Forecaster for AdaptiveForecaster {
    fn observe(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        // Score each candidate's prediction against the value that actually
        // arrived, then let it see the value.
        let mut any_scored = false;
        for (i, c) in self.candidates.iter_mut().enumerate() {
            if let Some(p) = c.predict() {
                self.abs_error_sums[i] += (p - value).abs();
                any_scored = true;
            }
            c.observe(value);
        }
        if any_scored {
            self.scored_updates += 1;
        }
        self.best = self.best_index();
    }

    fn predict(&self) -> Option<f64> {
        self.candidates[self.best].predict()
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn reset(&mut self) {
        for c in &mut self.candidates {
            c.reset();
        }
        for e in &mut self.abs_error_sums {
            *e = 0.0;
        }
        self.scored_updates = 0;
        self.best = 0;
    }
}

/// Evaluate a forecaster over a series: feed the values one by one, recording
/// the absolute error of each one-step-ahead prediction.  Returns the mean
/// absolute error (`None` when no prediction could be scored).
pub fn mean_absolute_error(forecaster: &mut dyn Forecaster, series: &[f64]) -> Option<f64> {
    let mut errors = Vec::new();
    for &v in series {
        if let Some(p) = forecaster.predict() {
            errors.push((p - v).abs());
        }
        forecaster.observe(v);
    }
    gridstats::mean(&errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_value_predicts_last() {
        let mut f = LastValue::new();
        assert!(f.predict().is_none());
        f.observe(3.0);
        f.observe(5.0);
        assert_eq!(f.predict(), Some(5.0));
        f.reset();
        assert!(f.predict().is_none());
    }

    #[test]
    fn running_mean_converges() {
        let mut f = RunningMean::new();
        for v in [2.0, 4.0, 6.0] {
            f.observe(v);
        }
        assert!((f.predict().unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sliding_window_mean_forgets_old_values() {
        let mut f = SlidingWindowMean::new(2);
        for v in [100.0, 1.0, 3.0] {
            f.observe(v);
        }
        assert!((f.predict().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sliding_window_median_resists_spikes() {
        let mut f = SlidingWindowMedian::new(5);
        for v in [1.0, 1.1, 0.9, 50.0, 1.0] {
            f.observe(v);
        }
        assert!(f.predict().unwrap() < 2.0);
    }

    #[test]
    fn exponential_smoothing_tracks_shift() {
        let mut f = ExponentialSmoothing::new(0.5);
        for _ in 0..20 {
            f.observe(10.0);
        }
        assert!((f.predict().unwrap() - 10.0).abs() < 1e-6);
        for _ in 0..20 {
            f.observe(20.0);
        }
        assert!((f.predict().unwrap() - 20.0).abs() < 0.1);
    }

    #[test]
    fn ar1_extrapolates_linear_trend() {
        let mut f = Ar1Forecaster::new(32);
        // xₜ = xₜ₋₁ + 1 → AR(1) with slope 1, intercept 1.
        for v in 1..=10 {
            f.observe(v as f64);
        }
        let p = f.predict().unwrap();
        assert!((p - 11.0).abs() < 1e-6, "expected 11, got {p}");
    }

    #[test]
    fn ar1_never_leaves_the_observed_orbit_on_noisy_near_constant_series() {
        // A jittery near-constant series makes the lag-regression slope
        // explode; the prediction must stay near the observed band instead
        // of extrapolating to nonsense (a real failure: −33 forecast from a
        // series of ≈0.9 load estimates).
        let mut f = Ar1Forecaster::new(32);
        for (i, jitter) in [1e-9, -2e-9, 3e-9, -1e-9, 2e-9]
            .iter()
            .cycle()
            .take(12)
            .enumerate()
        {
            f.observe(0.92 + jitter * (i as f64 + 1.0));
        }
        let p = f.predict().unwrap();
        assert!((p - 0.92).abs() < 0.01, "prediction {p} left the orbit");
    }

    #[test]
    fn ar1_handles_constant_series() {
        let mut f = Ar1Forecaster::new(16);
        for _ in 0..10 {
            f.observe(7.0);
        }
        assert!((f.predict().unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn nan_observations_are_ignored_by_all() {
        let mut forecasters: Vec<Box<dyn Forecaster>> = AdaptiveForecaster::default_candidates();
        for f in &mut forecasters {
            f.observe(1.0);
            f.observe(f64::NAN);
            assert!(f.predict().is_some());
            assert!(!f.predict().unwrap().is_nan(), "{} produced NaN", f.name());
        }
    }

    #[test]
    fn adaptive_selects_a_good_candidate_for_trending_data() {
        let mut f = AdaptiveForecaster::standard();
        // A steadily increasing series: AR(1) (or last-value) should dominate
        // the long-run mean.
        for i in 0..200 {
            f.observe(i as f64 * 0.5);
        }
        let errs = f.candidate_errors();
        let running_mean_err = errs.iter().find(|(n, _)| *n == "running-mean").unwrap().1;
        let best_err = errs.iter().find(|(n, _)| *n == f.best_name()).unwrap().1;
        assert!(best_err < running_mean_err);
        assert!(f.predict().is_some());
    }

    #[test]
    fn adaptive_reset_clears_scores() {
        let mut f = AdaptiveForecaster::standard();
        for i in 0..20 {
            f.observe(i as f64);
        }
        f.reset();
        assert!(f.predict().is_none());
        assert!(f.candidate_errors().iter().all(|(_, e)| *e == 0.0));
    }

    #[test]
    fn adaptive_with_empty_candidates_falls_back_to_defaults() {
        let f = AdaptiveForecaster::new(Vec::new());
        assert!(!f.candidate_errors().is_empty());
    }

    #[test]
    fn mae_ranks_predictors_sensibly_on_noisy_constant() {
        // Noisy constant series: window mean should beat last-value.
        let series: Vec<f64> = (0..300)
            .map(|i| 5.0 + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let mae_last = mean_absolute_error(&mut LastValue::new(), &series).unwrap();
        let mae_mean = mean_absolute_error(&mut SlidingWindowMean::new(8), &series).unwrap();
        assert!(mae_mean < mae_last);
    }

    #[test]
    fn mae_of_empty_series_is_none() {
        assert!(mean_absolute_error(&mut LastValue::new(), &[]).is_none());
    }
}
