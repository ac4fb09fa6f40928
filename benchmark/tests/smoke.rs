//! Every workload at the quick scale, untraced and traced; the thread-group
//! and allocator plumbing; the binary's exit codes.

// A test of a benchmark reads clocks; see the note in src/lib.rs.
#![allow(clippy::disallowed_methods)]

use falkon_benchmark::alloc::{self, CountingAlloc};
use falkon_benchmark::json::{parse, Json};
use falkon_benchmark::run::{run, Options};
use falkon_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The workloads measure the whole process (CPU clock, threads, allocator),
/// so the tests of this file take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn turn() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn options(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.into(),
        seed: 5,
        seconds: 1,
        trace,
        quick: true,
    }
}

#[test]
fn every_workload_runs_at_the_quick_scale_and_reports_every_end_to_end_metric() {
    let _turn = turn();
    for w in WORKLOADS {
        let r = run(&options(w, false)).expect("known workload");
        assert!(r.correct(), "{w}: {:?}", r.problems);
        assert!(r.attempted > 0 && r.failed == 0, "{w}");
        let names: Vec<&str> = r.readings.iter().map(|m| m.def.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{w}");
        assert!(
            r.readings.iter().all(|m| m.value > 0.0),
            "{w}: {:?}",
            r.readings
        );
    }
    assert!(run(&options("no_such_workload", false)).is_none());
}

#[test]
fn a_traced_run_of_every_workload_reports_every_per_layer_metric_and_parsable_spans() {
    let _turn = turn();
    for w in WORKLOADS {
        let r = run(&options(w, true)).expect("known workload");
        assert!(r.correct(), "{w}: {:?}", r.problems);
        let names: Vec<&str> = r.readings.iter().map(|m| m.def.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{w}");
        let value = |name: &str| r.value(name).expect("reported");
        assert!(value("core.dispatcher_ns_per_task") > 0.0, "{w}");
        assert!(value("obs.retained_bytes_per_task") > 0.0, "{w}");
        assert!(value("rt.allocs_per_task") > 0.0, "{w}");
        assert_eq!(value("core.retries"), 0.0, "{w}");
        assert_eq!(value("core.duplicate_results"), 0.0, "{w}");
        if w == "repro_full" {
            assert!(value("exp.fig8_ms") > 0.0 && value("pool.jobs2_speedup") > 0.0);
        } else {
            assert!(value("proto.frames_per_task") > 0.0, "{w}");
            assert!(value("rt.server_cpu_us_per_task") > 0.0, "{w}");
            assert!(value("rt.unattributed_us_per_task") > 0.0, "{w}");
            assert_eq!(
                value("proto.seal_ns_per_task") > 0.0,
                w == "fat_secure",
                "{w}"
            );
            assert_eq!(
                value("core.forwarder_ns_per_task") > 0.0,
                w == "tier3_1k",
                "{w}"
            );
            assert_eq!(
                value("rt.turnaround_p50_us") > 0.0,
                w == "short_tasks",
                "{w}"
            );
        }

        let path = std::env::temp_dir().join(format!(
            "falkon-benchmark-spans-{w}-{}.jsonl",
            std::process::id()
        ));
        r.write_spans(&path).expect("spans written");
        let text = std::fs::read_to_string(&path).expect("spans read back");
        std::fs::remove_file(&path).ok();
        let spans: Vec<Json> = text
            .lines()
            .map(|l| parse(l).expect("span line parses"))
            .collect();
        assert!(!spans.is_empty(), "{w}");
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.get("id").and_then(Json::as_f64), Some(i as f64));
            let (start, end) = (
                s.get("start_us").and_then(Json::as_f64),
                s.get("end_us").and_then(Json::as_f64),
            );
            assert!(start <= end, "{w}: {s:?}");
            if let Some(p) = s.get("parent").and_then(Json::as_f64) {
                assert!((p as usize) < i, "{w}: a span's parent comes before it");
            }
        }
        let named = |n: &str| {
            spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some(n))
        };
        if w == "repro_full" {
            assert!(
                named("window[0]") && named("exp.fig8") && named("replay.sim"),
                "{w}"
            );
        } else {
            for n in [
                "trial",
                "setup.server_start",
                "setup.connect",
                "setup.warmup",
                "window",
                "wave[0]",
                "teardown.shutdown",
                "replay.proto",
                "replay.core",
            ] {
                assert!(named(n), "{w}: span `{n}`");
            }
        }
    }
}

#[test]
fn thread_groups_add_up_to_the_process_total_on_flat_sat() {
    let _turn = turn();
    // A real window (one 30 000-task wave), so the 20 ms sampler sees the
    // threads many times.
    let r = run(&Options {
        quick: false,
        ..options("flat_sat", true)
    })
    .expect("known workload");
    assert!(r.correct(), "{:?}", r.problems);
    let value = |name: &str| r.value(name).expect("reported");
    let groups = value("rt.server_cpu_us_per_task")
        + value("rt.peer_exec_cpu_us_per_task")
        + value("rt.peer_client_cpu_us_per_task");
    // rt.unattributed = traced cpu_us_per_task - replayed layer costs.
    let replayed_us: f64 = [
        "proto.encode_ns_per_task",
        "proto.decode_ns_per_task",
        "proto.frame_ns_per_task",
        "core.dispatcher_ns_per_task",
        "core.executor_ns_per_task",
        "core.client_ns_per_task",
        "obs.record_ns_per_task",
    ]
    .iter()
    .map(|n| value(n) / 1e3)
    .sum();
    let total = value("rt.unattributed_us_per_task") + replayed_us;
    assert!(
        (groups / total - 1.0).abs() < 0.03,
        "groups {groups:.3} us vs process {total:.3} us per task"
    );
    assert!(value("rt.threads_peak") >= 5.0);
}

#[test]
fn the_allocation_counter_counts_only_while_enabled() {
    let _turn = turn();
    let before = alloc::snapshot();
    drop(std::hint::black_box(vec![0u8; 4096]));
    assert_eq!(
        alloc::snapshot().allocs,
        before.allocs,
        "off: nothing counted"
    );
    alloc::set_enabled(true);
    let v = std::hint::black_box(vec![0u8; 4096]);
    let during = alloc::snapshot();
    drop(v);
    alloc::set_enabled(false);
    let after = alloc::snapshot();
    assert!(during.allocs > before.allocs && during.bytes >= before.bytes + 4096);
    assert!(during.retained_since(&before) >= 4096);
    assert!(
        after.retained_since(&before) < 4096,
        "freed bytes are taken off"
    );
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_falkon-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn the_binary_prints_the_result_line_last_and_exits_by_the_outcome() {
    let _turn = turn();
    let out = bench(&[
        "--workload",
        "flat_sat",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--quick",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let result = parse(stdout.lines().last().expect("output")).expect("last line is JSON");
    let Json::Obj(keys) = &result else {
        panic!("not an object")
    };
    assert_eq!(
        keys.keys().map(String::as_str).collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics")
    };
    let mut want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    want.sort_unstable();
    assert_eq!(metrics.keys().map(String::as_str).collect::<Vec<_>>(), want);
    for m in END_TO_END {
        assert_eq!(
            metrics[m.name].get("unit").and_then(Json::as_str),
            Some(m.unit)
        );
        assert!(stdout.contains(m.name), "printed by name for people too");
    }
    assert_eq!(
        bench(&["--workload", "no_such_workload", "--trace", "0"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        bench(&["--workload", "flat_sat", "--trace", "yes"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        bench(&["--selfcheck", "--workload", "flat_sat"])
            .status
            .code(),
        Some(2),
        "the self-check's runs, seeds and seconds are fixed"
    );
}
