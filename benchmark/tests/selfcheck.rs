//! The self-check's verdict: quartiles as the driver takes them, and each
//! of the ways a pair of sets can fall outside a bound.

use falkon_benchmark::report::quartiles;
use falkon_benchmark::selfcheck::verdict;
use falkon_benchmark::spec::{MetricDef, END_TO_END};

fn metric(name: &str) -> MetricDef {
    *END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("an end-to-end metric")
}

/// Ten values around `centre` whose quartile distance is `spread` of it.
fn set(centre: f64, spread: f64) -> Vec<f64> {
    // Python: quantiles([-4.5 .. 4.5 step 1], n=4) = -2.75, 0, 2.75.
    (0..10)
        .map(|i| centre * (1.0 + (f64::from(i) - 4.5) * spread / 5.5))
        .collect()
}

#[test]
fn quartiles_are_those_of_pythons_statistics_quantiles() {
    let close = |(q1, q3): (f64, f64), w1: f64, w3: f64| {
        assert!(
            (q1 - w1).abs() < 1e-9 && (q3 - w3).abs() < 1e-9,
            "{q1} {q3}"
        );
    };
    // statistics.quantiles(v, n=4), first and last cut point.
    close(
        quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
        2.75,
        8.25,
    );
    close(
        quartiles(&[72.7, 75.0, 72.5, 85.9, 95.1, 89.2, 70.7, 72.7, 70.9, 74.3]),
        72.1,
        86.725,
    );
    close(quartiles(&[5.0, 1.0, 9.0]), 1.0, 9.0);
    close(quartiles(&[3.0, 1.0]), 0.5, 3.5);
}

#[test]
fn sets_that_agree_within_the_bound_pass() {
    let m = metric("tasks_per_s");
    let v = verdict(
        &m,
        &set(80_000.0, m.bound / 3.0),
        &set(79_000.0, m.bound / 3.0),
    );
    assert!(v.pass, "{v:?}");
    assert!(
        (v.worse - 1.0 / 80.0).abs() < 1e-9,
        "B is 1.25 % worse: {v:?}"
    );
    assert!((v.spread_a - m.bound / 3.0).abs() < 1e-9, "{v:?}");
}

#[test]
fn medians_further_apart_than_the_bound_are_outside() {
    for name in ["tasks_per_s", "cpu_us_per_task"] {
        let m = metric(name);
        // Far enough apart that either set is outside the bound of the other.
        let (a, b) = (set(100.0, 0.01), set(100.0 / (1.0 - m.bound - 0.02), 0.01));
        // Whichever direction is better, two sets of the same code must
        // agree: a set that is much better is as suspect as one much worse.
        let (up, down) = (verdict(&m, &a, &b), verdict(&m, &b, &a));
        assert!(!up.pass && !down.pass, "{name}: {up:?} {down:?}");
        assert_eq!(up.worse > 0.0, !m.higher_is_better, "{name}: {up:?}");
        assert_eq!(down.worse > 0.0, m.higher_is_better, "{name}: {down:?}");
    }
}

#[test]
fn a_spread_wider_than_the_bound_is_outside_except_for_setup_s() {
    let m = metric("rss_peak_mib");
    let wide = set(200.0, m.bound * 1.1);
    assert!(
        !verdict(&m, &wide, &set(200.0, 0.01)).pass,
        "set A too wide"
    );
    assert!(
        !verdict(&m, &set(200.0, 0.01), &wide).pass,
        "set B too wide"
    );
    let setup = metric("setup_s");
    let wide = set(0.4, setup.bound * 1.1);
    assert!(
        verdict(&setup, &wide, &wide).pass,
        "setup_s is held to the median rule only"
    );
}
