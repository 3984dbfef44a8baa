//! Property-based tests over the statistics substrate.

use gridstats::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The mean always lies between the minimum and maximum of the sample.
    #[test]
    fn mean_is_bounded(values in prop::collection::vec(-1e9f64..1e9, 1..300)) {
        let m = mean(&values).unwrap();
        // Tolerance covers floating-point summation error at 1e9 magnitudes.
        prop_assert!(m >= min(&values).unwrap() - 1e-3);
        prop_assert!(m <= max(&values).unwrap() + 1e-3);
    }

    /// Sample variance is never negative and is zero for constant samples.
    #[test]
    fn variance_is_non_negative(values in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        prop_assert!(sample_variance(&values).unwrap() >= -1e-9);
    }

    /// Shifting every observation by a constant shifts the mean by the same
    /// constant and leaves the variance unchanged.
    #[test]
    fn shift_invariance(
        values in prop::collection::vec(-1e3f64..1e3, 2..100),
        shift in -1e3f64..1e3,
    ) {
        let shifted: Vec<f64> = values.iter().map(|v| v + shift).collect();
        let dm = mean(&shifted).unwrap() - mean(&values).unwrap();
        prop_assert!((dm - shift).abs() < 1e-6);
        let dv = sample_variance(&shifted).unwrap() - sample_variance(&values).unwrap();
        prop_assert!(dv.abs() < 1e-3);
    }

    /// The median is order-statistic: at least half the sample lies on each side.
    #[test]
    fn median_splits_the_sample(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let med = median(&values).unwrap();
        let below = values.iter().filter(|&&v| v <= med + 1e-9).count();
        let above = values.iter().filter(|&&v| v >= med - 1e-9).count();
        prop_assert!(below * 2 >= values.len());
        prop_assert!(above * 2 >= values.len());
    }

    /// Outlier rejection never removes everything and never invents samples.
    #[test]
    fn outlier_rejection_is_conservative(
        values in prop::collection::vec(-1e4f64..1e4, 1..150),
        k in 0.5f64..5.0,
    ) {
        for policy in [OutlierPolicy::None, OutlierPolicy::Iqr { k }, OutlierPolicy::Mad { k }] {
            let kept = reject_outliers(&values, policy);
            prop_assert!(!kept.is_empty());
            prop_assert!(kept.len() <= values.len());
            prop_assert!(kept.iter().all(|v| values.contains(v)));
        }
    }

    /// Argsort produces a permutation and actually sorts.
    #[test]
    fn argsort_is_a_sorting_permutation(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let order = argsort_ascending(&values);
        let mut seen = vec![false; values.len()];
        for &i in &order {
            prop_assert!(!seen[i]);
            seen[i] = true;
        }
        for w in order.windows(2) {
            prop_assert!(values[w[0]] <= values[w[1]]);
        }
    }

    /// Spearman correlation is symmetric and bounded in [-1, 1].
    #[test]
    fn spearman_is_symmetric_and_bounded(
        a in prop::collection::vec(-1e3f64..1e3, 3..80),
    ) {
        let b: Vec<f64> = a.iter().map(|v| v * 2.0 + 1.0).collect();
        if let (Some(ab), Some(ba)) = (spearman_rho(&a, &b), spearman_rho(&b, &a)) {
            prop_assert!((ab - ba).abs() < 1e-9);
            prop_assert!((-1.0..=1.0).contains(&ab));
            // b is a monotone transform of a → perfect rank correlation.
            prop_assert!((ab - 1.0).abs() < 1e-9);
        }
    }

    /// A multivariate fit on exactly planar data predicts within tolerance.
    #[test]
    fn multivariate_fit_predicts_planar_data(
        b0 in -10.0f64..10.0,
        b1 in -5.0f64..5.0,
        b2 in -5.0f64..5.0,
        n in 6usize..60,
    ) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64, ((i * 7) % 13) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| b0 + b1 * r[0] + b2 * r[1]).collect();
        let fit = multivariate_regression(&rows, &y).unwrap();
        let pred = fit.predict(&[3.5, 4.5]).unwrap();
        let expected = b0 + b1 * 3.5 + b2 * 4.5;
        prop_assert!((pred - expected).abs() < 1e-5 * (1.0 + expected.abs()));
    }
}
