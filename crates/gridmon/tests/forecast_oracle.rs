//! The built-in forecasters compute each prediction inside `observe`, into
//! buffers they own.  These properties pin them, bit for bit, to a reference
//! that computes the prediction on demand the plain way: collect the window
//! into a fresh `Vec`, then call `gridstats::median` or
//! `gridstats::linear_regression` on copies of the lag pairs.

use gridmon::*;
use gridstats::{linear_regression, median};
use proptest::prelude::*;
use std::collections::VecDeque;

type Candidates = Vec<Box<dyn Forecaster>>;

/// Reference running mean: divides on demand.
#[derive(Default)]
struct RefRunningMean {
    count: u64,
    sum: f64,
}

impl Forecaster for RefRunningMean {
    fn observe(&mut self, value: f64) {
        if !value.is_nan() {
            self.count += 1;
            self.sum += value;
        }
    }
    fn predict(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }
    fn name(&self) -> &'static str {
        "running-mean"
    }
    fn reset(&mut self) {
        self.count = 0;
        self.sum = 0.0;
    }
}

/// A bounded window of the non-NaN values seen, oldest first.
struct Window {
    values: VecDeque<f64>,
    k: usize,
}

impl Window {
    fn new(k: usize) -> Self {
        Window {
            values: VecDeque::new(),
            k,
        }
    }
    fn push(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        if self.values.len() == self.k {
            self.values.pop_front();
        }
        self.values.push_back(value);
    }
}

/// Reference sliding-window mean: sums the window on demand.
struct RefWindowMean(Window);

impl Forecaster for RefWindowMean {
    fn observe(&mut self, value: f64) {
        self.0.push(value);
    }
    fn predict(&self) -> Option<f64> {
        let w = &self.0.values;
        if w.is_empty() {
            None
        } else {
            Some(w.iter().sum::<f64>() / w.len() as f64)
        }
    }
    fn name(&self) -> &'static str {
        "window-mean"
    }
    fn reset(&mut self) {
        self.0.values.clear();
    }
}

/// Reference sliding-window median: collect, then `gridstats::median`.
struct RefWindowMedian(Window);

impl Forecaster for RefWindowMedian {
    fn observe(&mut self, value: f64) {
        self.0.push(value);
    }
    fn predict(&self) -> Option<f64> {
        let vals: Vec<f64> = self.0.values.iter().copied().collect();
        median(&vals)
    }
    fn name(&self) -> &'static str {
        "window-median"
    }
    fn reset(&mut self) {
        self.0.values.clear();
    }
}

/// Reference AR(1): collect, copy the lag pairs, fit, guard.
struct RefAr1(Window);

impl Forecaster for RefAr1 {
    fn observe(&mut self, value: f64) {
        self.0.push(value);
    }
    fn predict(&self) -> Option<f64> {
        let n = self.0.values.len();
        if n < 3 {
            return self.0.values.back().copied();
        }
        let vals: Vec<f64> = self.0.values.iter().copied().collect();
        let x: Vec<f64> = vals[..n - 1].to_vec();
        let y: Vec<f64> = vals[1..].to_vec();
        match linear_regression(&x, &y) {
            Ok(fit) if fit.slope.abs() <= 2.0 => {
                let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
                let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let range = (max - min).max(f64::EPSILON);
                Some(fit.predict(vals[n - 1]).clamp(min - range, max + range))
            }
            _ => vals.last().copied(),
        }
    }
    fn name(&self) -> &'static str {
        "ar1"
    }
    fn reset(&mut self) {
        self.0.values.clear();
    }
}

/// Reference adaptive forecaster: picks the best candidate on every
/// `predict`.
struct RefAdaptive {
    candidates: Candidates,
    abs_error_sums: Vec<f64>,
    scored_updates: u64,
}

impl RefAdaptive {
    fn new(candidates: Candidates) -> Self {
        let n = candidates.len();
        RefAdaptive {
            candidates,
            abs_error_sums: vec![0.0; n],
            scored_updates: 0,
        }
    }
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
}

impl Forecaster for RefAdaptive {
    fn observe(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
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
    }
    fn predict(&self) -> Option<f64> {
        self.candidates[self.best_index()].predict()
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
    }
}

/// The default candidate set, built twice: once from the library, once from
/// the references (the unchanged last-value and smoothing predictors are
/// shared).
fn candidate_pair(k: usize, cap: usize) -> (Candidates, Candidates) {
    let fast: Candidates = vec![
        Box::new(LastValue::new()),
        Box::new(RunningMean::new()),
        Box::new(SlidingWindowMean::new(k)),
        Box::new(SlidingWindowMedian::new(k)),
        Box::new(ExponentialSmoothing::new(0.3)),
        Box::new(Ar1Forecaster::new(cap)),
    ];
    let reference: Candidates = vec![
        Box::new(LastValue::new()),
        Box::new(RefRunningMean::default()),
        Box::new(RefWindowMean(Window::new(k.max(1)))),
        Box::new(RefWindowMedian(Window::new(k.max(1)))),
        Box::new(ExponentialSmoothing::new(0.3)),
        Box::new(RefAr1(Window::new(cap.max(4)))),
    ];
    (fast, reference)
}

/// Turn drawn `(value, shape)` pairs into a series with NaN gaps, constant
/// runs (a singular AR(1) fit), near-constant jitter (an exploding slope),
/// negative values, large magnitudes and signed zeros (which compare equal
/// but differ in bits, so they pin the sort and the interpolation too).
fn series(raw: &[(f64, u8)]) -> Vec<f64> {
    let mut last = 0.5;
    raw.iter()
        .map(|&(v, shape)| {
            let x = match shape {
                0 => return f64::NAN,
                1 | 2 => last,
                3 => 0.92 + v * 1e-9,
                4 => -v,
                5 => v * 1e6,
                6 => -0.0,
                7 => 0.0,
                _ => v,
            };
            last = x;
            x
        })
        .collect()
}

/// Feed `values` to both forecasters, checking after every step that their
/// predictions agree bit for bit.
fn agree(
    fast: &mut dyn Forecaster,
    reference: &mut dyn Forecaster,
    values: &[f64],
) -> Result<(), TestCaseError> {
    let bits = |p: Option<f64>| p.map(f64::to_bits);
    prop_assert_eq!(bits(fast.predict()), bits(reference.predict()));
    for (i, &v) in values.iter().enumerate() {
        fast.observe(v);
        reference.observe(v);
        prop_assert_eq!(
            bits(fast.predict()),
            bits(reference.predict()),
            "{} after {} observations (last {}): {:?} vs {:?}",
            fast.name(),
            i + 1,
            v,
            fast.predict(),
            reference.predict()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Each changed forecaster, over short and full windows of every size.
    #[test]
    fn each_forecaster_matches_its_reference(
        raw in prop::collection::vec((0.0f64..1.0, 0u8..12), 0..120),
        k in 1usize..12,
        cap in 1usize..40,
    ) {
        let values = series(&raw);
        let (fast, reference) = candidate_pair(k, cap);
        for (mut f, mut r) in fast.into_iter().zip(reference) {
            agree(f.as_mut(), r.as_mut(), &values)?;
            // A reset forecaster starts over exactly like a fresh one.
            f.reset();
            r.reset();
            agree(f.as_mut(), r.as_mut(), &values[..values.len() / 2])?;
        }
    }

    /// The adaptive forecaster, standard and with custom window sizes: the
    /// cached best candidate is the one the reference picks on demand.
    #[test]
    fn adaptive_forecaster_matches_its_reference(
        raw in prop::collection::vec((0.0f64..1.0, 0u8..12), 0..160),
        k in 1usize..12,
        cap in 1usize..40,
    ) {
        let values = series(&raw);
        let (_, reference) = candidate_pair(8, 32);
        let mut fast = AdaptiveForecaster::standard();
        let mut reference = RefAdaptive::new(reference);
        agree(&mut fast, &mut reference, &values)?;
        let (custom_fast, custom_reference) = candidate_pair(k, cap);
        let mut fast = AdaptiveForecaster::new(custom_fast);
        let mut reference = RefAdaptive::new(custom_reference);
        agree(&mut fast, &mut reference, &values)?;
        let best = reference.best_index();
        prop_assert_eq!(fast.best_name(), reference.candidates[best].name());
        fast.reset();
        reference.reset();
        agree(&mut fast, &mut reference, &values[..values.len() / 2])?;
    }
}
