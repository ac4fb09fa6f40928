//! Property tests for the aggregation types that back every recorder:
//! histogram quantiles stay within the documented bucket error of the exact
//! nearest-rank sample, merging equals recording both streams into one,
//! moving averages equal the naive window mean, and thinning keeps the
//! endpoints of a series.

use falkon_obs::metrics::{Histogram, MovingAverage, TimeSeries};
use falkon_obs::time::SimTime;
use proptest::prelude::*;

/// Samples spread over many octaves: a magnitude, cut down by a shift.
fn samples(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        (any::<u64>(), 0u32..64).prop_map(|(v, s)| v >> s),
        1..max_len,
    )
}

fn histogram(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// `count`/`min`/`max`/`mean` are exact, `quantile(1.0)` is the maximum,
/// and every quantile is at or above the exact nearest-rank sample by at
/// most 1/32 of it — the documented bound.
fn check_against_exact(h: &Histogram, all: &[u64]) -> Result<(), TestCaseError> {
    let mut sorted = all.to_vec();
    sorted.sort_unstable();
    prop_assert_eq!(h.count(), sorted.len());
    prop_assert_eq!(h.min(), sorted[0]);
    prop_assert_eq!(h.max(), sorted[sorted.len() - 1]);
    let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
    prop_assert_eq!(h.mean(), sum as f64 / sorted.len() as f64);
    prop_assert_eq!(h.quantile(1.0), h.max());
    let mut last = 0;
    for pct in 0..=100u32 {
        let q = pct as f64 / 100.0;
        let exact = sorted[((sorted.len() as f64 - 1.0) * q).round() as usize];
        let got = h.quantile(q);
        prop_assert!(
            exact <= got && got - exact <= exact / 32,
            "q{pct}: exact {exact}, histogram {got}"
        );
        prop_assert!(last <= got, "quantile not monotone at q{pct}");
        last = got;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quantiles_are_within_the_documented_error_of_exact(all in samples(300)) {
        check_against_exact(&histogram(&all), &all)?;
    }

    #[test]
    fn merge_equals_recording_both_streams_into_one(
        a in samples(200),
        b in samples(200),
        after in samples(50),
    ) {
        let mut merged = histogram(&a);
        merged.merge(&histogram(&b));
        let mut all = [a, b].concat();
        check_against_exact(&merged, &all)?;
        // Merging into an empty histogram and recording after a merge
        // keep the same exactness.
        let mut from_empty = Histogram::new();
        from_empty.merge(&merged);
        check_against_exact(&from_empty, &all)?;
        for &s in &after {
            merged.record(s);
        }
        all.extend_from_slice(&after);
        check_against_exact(&merged, &all)?;
    }

    #[test]
    fn moving_average_equals_naive_window_mean(
        values in prop::collection::vec(0u32..1_000_000, 1..100),
        window in 1usize..12,
    ) {
        let mut ma = MovingAverage::new(window);
        for (i, &v) in values.iter().enumerate() {
            let got = ma.push(v as f64);
            let start = (i + 1).saturating_sub(window);
            let tail = &values[start..=i];
            let naive = tail.iter().map(|&x| x as f64).sum::<f64>() / tail.len() as f64;
            prop_assert!(
                (got - naive).abs() < 1e-6,
                "window mean at {i}: got {got}, naive {naive}"
            );
            prop_assert!((ma.value() - naive).abs() < 1e-6);
        }
    }

    #[test]
    fn thin_preserves_endpoints_and_bound(
        values in prop::collection::vec(0u32..1_000, 1..400),
        n in 2usize..50,
    ) {
        let mut ts = TimeSeries::new();
        for (i, &v) in values.iter().enumerate() {
            ts.push(SimTime::from_micros(i as u64), v as f64);
        }
        let thinned = ts.thin(n);
        prop_assert!(!thinned.is_empty());
        prop_assert!(thinned.len() <= n.max(ts.len().min(n)));
        let first = ts.points().first().copied().unwrap();
        let last = ts.points().last().copied().unwrap();
        prop_assert_eq!(thinned.first().copied().unwrap(), first);
        prop_assert_eq!(thinned.last().copied().unwrap(), last);
        // Thinning never invents points and keeps time order.
        for w in thinned.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        for p in &thinned {
            prop_assert!(ts.points().contains(p));
        }
    }
}
