//! Black–Scholes option-pricing sweep: a fine-grained farm workload.
//!
//! Each task prices a batch of European options with the closed-form
//! Black–Scholes formula.  Individual option evaluations are tiny, which
//! makes this the *fine-grained* end of the computation/communication
//! spectrum — the regime where chunking and granularity adaptation matter
//! most.

use grasp_core::TaskSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of one European option.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct OptionParams {
    /// Spot price.
    pub(crate) spot: f64,
    /// Strike price.
    pub(crate) strike: f64,
    /// Time to maturity in years.
    pub(crate) maturity: f64,
    /// Risk-free rate.
    pub(crate) rate: f64,
    /// Volatility.
    pub(crate) volatility: f64,
    /// `true` for a call, `false` for a put.
    pub(crate) is_call: bool,
}

/// Standard normal CDF via the Abramowitz–Stegun rational approximation.
pub(crate) fn norm_cdf(x: f64) -> f64 {
    // Φ(x) = 1 − φ(x)·(a₁k + a₂k² + a₃k³ + a₄k⁴ + a₅k⁵), k = 1/(1+0.2316419·|x|)
    let a = [
        0.319381530,
        -0.356563782,
        1.781477937,
        -1.821255978,
        1.330274429,
    ];
    let l = x.abs();
    let k = 1.0 / (1.0 + 0.2316419 * l);
    let mut poly = 0.0;
    let mut kp = k;
    for &coef in &a {
        poly += coef * kp;
        kp *= k;
    }
    let pdf = (-l * l / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let cdf = 1.0 - pdf * poly;
    if x >= 0.0 {
        cdf
    } else {
        1.0 - cdf
    }
}

/// Black–Scholes price of one option.
pub(crate) fn black_scholes_price(p: &OptionParams) -> f64 {
    let sqrt_t = p.maturity.max(1e-9).sqrt();
    let d1 = ((p.spot / p.strike).ln() + (p.rate + 0.5 * p.volatility * p.volatility) * p.maturity)
        / (p.volatility.max(1e-9) * sqrt_t);
    let d2 = d1 - p.volatility * sqrt_t;
    let discount = (-p.rate * p.maturity).exp();
    if p.is_call {
        p.spot * norm_cdf(d1) - p.strike * discount * norm_cdf(d2)
    } else {
        p.strike * discount * norm_cdf(-d2) - p.spot * norm_cdf(-d1)
    }
}

/// A sweep over many options, batched into farm tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlackScholesSweep {
    /// Total number of options priced.
    pub options: usize,
    /// Options per farm task.
    pub batch_size: usize,
    /// RNG seed for option-parameter generation.
    pub seed: u64,
}

impl Default for BlackScholesSweep {
    fn default() -> Self {
        BlackScholesSweep {
            options: 100_000,
            batch_size: 500,
            seed: 13,
        }
    }
}

impl BlackScholesSweep {
    /// A small sweep suitable for unit tests.
    pub fn small() -> Self {
        BlackScholesSweep {
            options: 400,
            batch_size: 50,
            seed: 13,
        }
    }

    /// Generate the option parameters of one batch deterministically.
    pub(crate) fn batch(&self, batch_index: usize) -> Vec<OptionParams> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(batch_index as u64));
        let start = batch_index * self.batch_size;
        let count = self.batch_size.min(self.options.saturating_sub(start));
        (0..count)
            .map(|_| OptionParams {
                spot: rng.gen_range(50.0..150.0),
                strike: rng.gen_range(50.0..150.0),
                maturity: rng.gen_range(0.1..2.0),
                rate: rng.gen_range(0.0..0.08),
                volatility: rng.gen_range(0.1..0.6),
                is_call: rng.gen_bool(0.5),
            })
            .collect()
    }

    /// Price one batch (the real kernel).
    pub fn price_batch(&self, batch_index: usize) -> Vec<f64> {
        self.batch(batch_index)
            .iter()
            .map(black_scholes_price)
            .collect()
    }

    /// Number of farm tasks (batches).
    pub(crate) fn task_count(&self) -> usize {
        self.options.div_ceil(self.batch_size.max(1))
    }

    /// The sweep as abstract farm tasks: uniform work per batch, tiny
    /// parameter input, one `f64` per option back.
    pub fn as_tasks(&self, options_per_work_unit: f64) -> Vec<TaskSpec> {
        let scale = options_per_work_unit.max(1.0);
        (0..self.task_count())
            .map(|id| {
                let start = id * self.batch_size;
                let count = self.batch_size.min(self.options.saturating_sub(start));
                TaskSpec::new(
                    id,
                    count as f64 / scale,
                    (count * 48) as u64,
                    (count * 8) as u64,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_cdf_matches_known_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((norm_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((norm_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(norm_cdf(6.0) > 0.999);
    }

    #[test]
    fn call_price_matches_textbook_example() {
        // S=100, K=100, T=1, r=5 %, σ=20 % → call ≈ 10.45.
        let p = OptionParams {
            spot: 100.0,
            strike: 100.0,
            maturity: 1.0,
            rate: 0.05,
            volatility: 0.2,
            is_call: true,
        };
        assert!((black_scholes_price(&p) - 10.45).abs() < 0.05);
    }

    #[test]
    fn put_call_parity_holds() {
        let call = OptionParams {
            spot: 110.0,
            strike: 95.0,
            maturity: 0.75,
            rate: 0.03,
            volatility: 0.35,
            is_call: true,
        };
        let put = OptionParams {
            is_call: false,
            ..call
        };
        let lhs = black_scholes_price(&call) - black_scholes_price(&put);
        let rhs = call.spot - call.strike * (-call.rate * call.maturity).exp();
        assert!(
            (lhs - rhs).abs() < 1e-3,
            "put-call parity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn batches_tile_the_sweep() {
        let sweep = BlackScholesSweep::small();
        assert_eq!(sweep.task_count(), 8);
        let total: usize = (0..sweep.task_count()).map(|i| sweep.batch(i).len()).sum();
        assert_eq!(total, sweep.options);
        // Deterministic.
        assert_eq!(sweep.batch(3).len(), sweep.batch(3).len());
        assert!((sweep.price_batch(0)[0] - sweep.price_batch(0)[0]).abs() < 1e-12);
    }

    #[test]
    fn partial_final_batch_is_handled() {
        let sweep = BlackScholesSweep {
            options: 105,
            batch_size: 50,
            seed: 1,
        };
        assert_eq!(sweep.task_count(), 3);
        assert_eq!(sweep.batch(2).len(), 5);
        let tasks = sweep.as_tasks(10.0);
        assert!(tasks[2].work < tasks[0].work);
    }

    #[test]
    fn prices_are_positive_and_bounded() {
        let sweep = BlackScholesSweep::small();
        for i in 0..sweep.task_count() {
            for (price, params) in sweep.price_batch(i).iter().zip(sweep.batch(i)) {
                assert!(*price >= -1e-9);
                assert!(*price <= params.spot.max(params.strike) + 1.0);
            }
        }
    }
}
