//! `BENCHMARK.json`, the metric tables in `spec.rs` and what a run prints
//! name exactly the same workloads and metrics.

use falkon_benchmark::json::{parse, Json};
use falkon_benchmark::spec::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing `{key}`"))
}

fn check_metrics(listed: &[Json], defs: &[MetricDef], bounded: bool) {
    assert_eq!(listed.len(), defs.len());
    for (j, d) in listed.iter().zip(defs) {
        assert_eq!(str_of(j, "name"), d.name);
        assert_eq!(str_of(j, "unit"), d.unit, "{}", d.name);
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(str_of(j, "better"), better, "{}", d.name);
        assert!(valid_name(d.name), "name `{}`", d.name);
        assert!(valid_unit(d.unit), "unit `{}`", d.unit);
        match j.get("bound").and_then(Json::as_f64) {
            Some(b) => {
                assert!(bounded, "{}: per-layer metrics have no bound", d.name);
                assert_eq!(b, d.bound, "{}", d.name);
                assert!(b > 0.0 && b <= 0.25, "{}", d.name);
            }
            None => assert!(!bounded, "{}: end-to-end metrics need a bound", d.name),
        }
    }
}

#[test]
fn benchmark_json_names_what_spec_rs_names() {
    let b = benchmark_json();
    let workloads = b
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        assert!(valid_name(str_of(w, "name")));
        let why = str_of(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    check_metrics(
        b.get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end"),
        &END_TO_END,
        true,
    );
    check_metrics(
        b.get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer"),
        &PER_LAYER,
        false,
    );
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(!setup.higher_is_better && setup.unit == "s");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    let paths = b.get("paths").and_then(Json::as_arr).expect("paths");
    assert_eq!(paths, [Json::Str("benchmark".into())]);
    let seconds = b
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds == RUN_SECONDS as f64);
}

#[test]
fn metric_names_are_used_once() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    names.extend(WORKLOADS);
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n);
}
