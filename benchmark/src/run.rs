//! One benchmark run: K trials of a workload (or, traced, one plain and
//! one traced trial plus the layer replays) folded into a [`RunReport`].

use crate::alloc;
use crate::gen;
use crate::replay::{self, CoreCosts, ProtoCosts};
use crate::report::{median, quantile, RunReport};
use crate::repro::{self, Select};
use crate::spec::{
    self, MetricDef, SocketSpec, END_TO_END, FLAT_SAT, PER_LAYER, REPRO_FULL, TRIALS,
};
use crate::sys;
use crate::trial::{run_trial, span_ms, with_deadline, Abandoned, Span, Spans, TrialOutcome};
use falkon_exp::experiments::Scale;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run, split over the trials.
    pub seconds: u64,
    /// Report per-layer metrics from a traced trial and the replays.
    pub trace: bool,
    /// Smoke scale: one short trial. Never a reported number.
    pub quick: bool,
}

fn e2e(name: &str) -> MetricDef {
    *END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("end-to-end metric is declared in spec.rs")
}

fn spread_note(values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let each: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!(
        "median of K={} trials, min {min:.4} max {max:.4} [{}]",
        values.len(),
        each.join(" ")
    )
}

fn append_spans(report: &mut RunReport, spans: Vec<Span>) {
    let offset = report.spans.len();
    report.spans.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Run the workload `opts` names. `None` for an unknown workload.
pub fn run(opts: &Options) -> Option<RunReport> {
    let epoch = Instant::now();
    let stolen = sys::steal_seconds();
    let mut report = match spec::socket_spec(&opts.workload) {
        Some(s) if opts.trace => socket_traced(&s, opts, epoch),
        Some(s) => socket_untraced(&s, opts, epoch),
        None if opts.workload == REPRO_FULL => repro_run(opts, epoch),
        None => return None,
    };
    report.workload.clone_from(&opts.workload);
    report.notes.push(format!(
        "the hypervisor stole {:.2} CPU-seconds during the {:.1} s of this run",
        sys::steal_seconds() - stolen,
        epoch.elapsed().as_secs_f64()
    ));
    Some(report)
}

/// A trial's deadline: three times its expected length on a machine in a
/// slow phase, from the sizing constants. The expected length is the
/// window and warm-up at *half* the sizing rate (the VM the benchmark was
/// sized on was seen at a third of it while the hypervisor stole CPU), plus
/// 2 s of set-up and tear-down.
fn trial_limit(spec: &SocketSpec, tasks: u64) -> Duration {
    let expected = 2.0 * tasks as f64 / spec.tasks_per_budget_second as f64 + 2.0;
    Duration::from_secs_f64(3.0 * expected)
}

/// Generate a trial's inputs and run it under the watchdog. On failure the
/// trial's tasks count as failed and the reason is recorded.
fn guarded_trial(
    spec: &SocketSpec,
    opts: &Options,
    trials: u32,
    trial: u32,
    traced: bool,
    epoch: Instant,
    report: &mut RunReport,
) -> Option<TrialOutcome> {
    let window = spec.window_tasks(opts.seconds, trials, opts.quick);
    let warmup = spec.warmup_tasks(opts.quick);
    let tasks = gen::trial_tasks(spec.tasks, opts.seed, trial, warmup, window, spec.wave);
    let attempted = warmup + window;
    let limit = trial_limit(spec, attempted);
    let spec = *spec;
    let outcome = with_deadline(limit, move || {
        run_trial(spec, tasks, trial, traced, epoch, limit)
    });
    let failure = match outcome {
        Ok(Ok(t)) => {
            report.attempted += t.attempted;
            report.failed += t.failed;
            report
                .problems
                .extend(t.problems.iter().map(|p| format!("trial {trial}: {p}")));
            append_spans(report, t.spans.clone());
            return Some(t);
        }
        Ok(Err(e)) => format!("failed: {e}"),
        Err(Abandoned::TimedOut) => format!(
            "abandoned: no result within {:.1} s (3x its expected length on a slow machine)",
            limit.as_secs_f64()
        ),
        Err(Abandoned::Panicked) => "panicked".to_string(),
    };
    report.attempted += attempted;
    report.failed += attempted;
    report.problems.push(format!("trial {trial} {failure}"));
    None
}

fn push_end_to_end(report: &mut RunReport, trials: &[TrialOutcome], rss_peak_mib: f64) {
    let rate: Vec<f64> = trials.iter().map(TrialOutcome::tasks_per_s).collect();
    let cpu: Vec<f64> = trials.iter().map(TrialOutcome::cpu_us_per_task).collect();
    let setup: Vec<f64> = trials.iter().map(|t| t.setup_s).collect();
    report.push(e2e("tasks_per_s"), median(&rate), spread_note(&rate));
    report.push(e2e("cpu_us_per_task"), median(&cpu), spread_note(&cpu));
    report.push(
        e2e("rss_peak_mib"),
        rss_peak_mib,
        "VmHWM of this process when the first trial's deployment had shut down",
    );
    report.push(e2e("setup_s"), median(&setup), spread_note(&setup));
}

fn socket_untraced(spec: &SocketSpec, opts: &Options, epoch: Instant) -> RunReport {
    let mut report = RunReport::default();
    let trials = if opts.quick { 1 } else { TRIALS };
    let mut done = Vec::new();
    // Peak memory is that of one deployment in a fresh process, read after
    // the first trial: every later trial raises VmHWM by what glibc's
    // per-thread arenas kept of the deployments before it (README.md),
    // which is the allocator's luck, not the program's memory.
    let mut rss_peak_mib = 0.0;
    for trial in 0..trials {
        match guarded_trial(spec, opts, trials, trial, false, epoch, &mut report) {
            Some(t) => done.push(t),
            // A failed trial may have left threads and sockets behind;
            // later trials would not be measuring a clean system.
            None => break,
        }
        if trial == 0 {
            rss_peak_mib = sys::rss_peak_mib().unwrap_or(0.0);
        }
    }
    push_end_to_end(&mut report, &done, rss_peak_mib);
    report.notes.push(format!(
        "closed loop, 1 client, bundles of {}, {} executors, window {} tasks in waves of {}",
        spec::BUNDLE,
        spec.executors(),
        spec.window_tasks(opts.seconds, trials, opts.quick),
        spec.wave
    ));
    report
}

/// Per-layer values by name; metrics never set read 0.
struct Layers(Vec<(MetricDef, f64, String)>);

impl Layers {
    fn new() -> Layers {
        Layers(
            PER_LAYER
                .iter()
                .map(|m| (*m, 0.0, "does not apply to this workload".to_string()))
                .collect(),
        )
    }

    fn set(&mut self, name: &str, value: f64, note: &str) {
        let slot = self
            .0
            .iter_mut()
            .find(|(m, _, _)| m.name == name)
            .expect("per-layer metric is declared in spec.rs");
        slot.1 = value;
        slot.2 = note.to_string();
    }

    fn into_report(self, report: &mut RunReport) {
        for (def, value, note) in self.0 {
            report.push(def, value, note);
        }
    }
}

fn set_replays(layers: &mut Layers, proto: &ProtoCosts, core: &CoreCosts) {
    let note = "replay, median of 7 rounds over 3000 tasks";
    layers.set("proto.encode_ns_per_task", proto.encode_ns, note);
    layers.set("proto.decode_ns_per_task", proto.decode_ns, note);
    layers.set("proto.frame_ns_per_task", proto.frame_ns, note);
    layers.set("proto.seal_ns_per_task", proto.seal_ns, note);
    layers.set("proto.open_ns_per_task", proto.open_ns, note);
    set_core(layers, core);
}

fn set_core(layers: &mut Layers, core: &CoreCosts) {
    let note = "replay, median of 7 rounds over 3000 tasks";
    layers.set("core.dispatcher_ns_per_task", core.dispatcher_ns, note);
    layers.set("core.executor_ns_per_task", core.executor_ns, note);
    layers.set("core.client_ns_per_task", core.client_ns, note);
    layers.set("core.forwarder_ns_per_task", core.forwarder_ns, note);
    layers.set("obs.record_ns_per_task", core.obs_record_ns, note);
    layers.set(
        "obs.retained_bytes_per_task",
        core.obs_retained_bytes,
        "counting allocator around one replay",
    );
}

fn socket_traced(spec: &SocketSpec, opts: &Options, epoch: Instant) -> RunReport {
    let mut report = RunReport::default();
    let mut layers = Layers::new();
    // Same window as an untraced trial of the same command.
    let trials = if opts.quick { 1 } else { TRIALS };
    let plain = guarded_trial(spec, opts, trials, 0, false, epoch, &mut report);
    let traced = match plain {
        Some(_) => guarded_trial(spec, opts, trials, 1, true, epoch, &mut report),
        None => None,
    };
    if let (Some(plain), Some(traced)) = (plain, traced) {
        let l = traced.layers.as_ref().expect("traced trial has layers");
        let window = traced.window_tasks as f64;
        let total = traced.attempted as f64;
        let cpu = traced.cpu_us_per_task();
        let per_task_us = |ns: u64| ns as f64 / 1e3 / window;
        let note = "traced trial, over the window";
        layers.set(
            "rt.server_cpu_us_per_task",
            per_task_us(l.server.cpu_ns),
            note,
        );
        layers.set(
            "rt.peer_exec_cpu_us_per_task",
            per_task_us(l.peer_exec.cpu_ns),
            note,
        );
        layers.set(
            "rt.peer_client_cpu_us_per_task",
            per_task_us(l.peer_client.cpu_ns),
            note,
        );
        layers.set(
            "rt.server_wakes_per_task",
            l.server.wakes as f64 / window,
            note,
        );
        layers.set(
            "rt.peer_wakes_per_task",
            (l.peer_exec.wakes + l.peer_client.wakes) as f64 / window,
            note,
        );
        layers.set("rt.allocs_per_task", l.allocs as f64 / window, note);
        layers.set(
            "rt.alloc_bytes_per_task",
            l.alloc_bytes as f64 / window,
            note,
        );
        layers.set("rt.threads_peak", l.threads_peak as f64, note);
        let whole = "traced trial, warm-up included";
        layers.set(
            "proto.wire_bytes_per_task",
            l.wire_bytes as f64 / total,
            whole,
        );
        layers.set("proto.frames_per_task", l.frames as f64 / total, whole);
        let completed = l.stats.completed.max(1) as f64;
        layers.set(
            "core.piggyback_ratio",
            l.stats.piggybacked as f64 / completed,
            whole,
        );
        layers.set(
            "core.getwork_per_task",
            l.stats.dispatched.saturating_sub(l.stats.piggybacked) as f64 / completed,
            whole,
        );
        layers.set(
            "core.notify_per_task",
            l.stats.notifies as f64 / completed,
            whole,
        );
        layers.set("core.retries", l.stats.retries as f64, whole);
        layers.set(
            "core.duplicate_results",
            l.stats.duplicate_results as f64,
            whole,
        );
        let samples = format!("server recorder, {} samples", l.overhead_samples);
        layers.set(
            "core.queue_wait_p50_us",
            l.queue_wait_p50_us as f64,
            &samples,
        );
        layers.set("core.overhead_p50_us", l.overhead_p50_us as f64, &samples);
        layers.set("core.overhead_p99_us", l.overhead_p99_us as f64, &samples);
        if !l.turnaround_us.is_empty() {
            let samples = format!("executor probes, {} samples", l.turnaround_us.len());
            layers.set(
                "rt.turnaround_p50_us",
                quantile(&l.turnaround_us, 0.5) as f64,
                &samples,
            );
            layers.set(
                "rt.turnaround_p99_us",
                quantile(&l.turnaround_us, 0.99) as f64,
                &samples,
            );
        }
        let own = "the benchmark's span around its own call";
        let ms = |name: &str| span_ms(&traced.spans, name);
        layers.set("rt.setup_server_start_ms", ms("setup.server_start"), own);
        layers.set("rt.setup_connect_ms", ms("setup.connect"), own);
        layers.set("rt.setup_warmup_ms", ms("setup.warmup"), own);
        layers.set("rt.shutdown_ms", ms("teardown.shutdown"), own);
        // What tracing cost, counted rather than read off two trials whose
        // difference is mostly the machine's: the sampler's CPU and the
        // counted allocations at the replayed price of counting one.
        let count_ns = replay::alloc_count_ns(2);
        let tracing_ns = l.bench.cpu_ns as f64 + l.allocs as f64 * count_ns;
        layers.set(
            "trace.overhead_pct",
            tracing_ns / (traced.cpu_ns as f64 - tracing_ns) * 100.0,
            &format!(
                "sampler CPU ({:.3} us/task) + counted allocations x {count_ns:.1} ns (replayed cost of counting one), over the rest of the traced window's CPU",
                per_task_us(l.bench.cpu_ns)
            ),
        );

        // The replays run after the deployments are gone: nothing else is
        // on the CPUs.
        let mut replays = Spans::new(epoch, 2);
        let s = replays.open("replay.proto", None);
        let proto = replay::proto_costs(spec, opts.seed);
        replays.close(s);
        let s = replays.open("replay.core", None);
        let core = replay::core_costs(spec, opts.seed);
        replays.close(s);
        set_replays(&mut layers, &proto, &core);
        let s = replays.open("replay.rt", None);
        match replay::poll_wait_ns(spec.executors_per_dispatcher) {
            Ok(ns) => layers.set(
                "rt.poll_wait_ns",
                ns,
                "poll_wait over one dispatcher's descriptors, one ready",
            ),
            Err(e) => report.problems.push(format!("poll_wait replay: {e}")),
        }
        layers.set(
            "rt.inproc_us_per_task",
            replay::inproc_us_per_task(spec, opts.seed),
            "inproc::run_workload, process CPU, median of 3",
        );
        replays.close(s);
        append_spans(&mut report, replays.list);
        let replayed_us = (proto.encode_ns
            + proto.decode_ns
            + proto.frame_ns
            + proto.seal_ns
            + proto.open_ns
            + core.dispatcher_ns
            + core.executor_ns
            + core.client_ns
            + core.forwarder_ns
            + core.obs_record_ns)
            / 1e3;
        layers.set(
            "rt.unattributed_us_per_task",
            cpu - replayed_us,
            "cpu_us_per_task of the traced trial minus the replayed proto, core and obs costs",
        );
        report.notes.push(format!(
            "traced trial: {:.1} tasks/s, {cpu:.3} us CPU/task; plain trial: {:.1} tasks/s, {:.3} us CPU/task",
            traced.tasks_per_s(),
            plain.tasks_per_s(),
            plain.cpu_us_per_task()
        ));
    }
    layers.into_report(&mut report);
    report
}

/// Passes of the quick-scale set-up; their median is `setup_s`.
const QUICK_PASSES: usize = 3;

/// One full-scale pass of the timed experiments takes about this long at
/// the commit that defined the benchmark (1.9-2.7 s); `--seconds` buys
/// one pass per budget, so 5 at the contract's 15 s.
const TIMED_PASS_BUDGET_MS: u64 = 3000;

fn check_pass(report: &mut RunReport, what: &str, pass: &repro::Pass) {
    report.attempted += pass.blocks.len() as u64;
    let empty = pass.empty_blocks();
    report.failed += empty.len() as u64;
    for id in empty {
        report
            .problems
            .push(format!("{what}: `{id}` rendered nothing"));
    }
}

/// Two passes over the same experiments at one scale must render the same
/// bytes (no pinned hash: a fidelity fix must not need a benchmark edit).
fn check_identical(report: &mut RunReport, what: &str, a: &repro::Pass, b: &repro::Pass) {
    for ((id, x), (_, y)) in a.blocks.iter().zip(&b.blocks) {
        if x != y {
            report.failed += 1;
            report
                .problems
                .push(format!("{what}: `{id}` differs between two passes"));
        }
    }
}

fn pass_spans(spans: &mut Spans, name: &str, start: Instant, pass: &repro::Pass) {
    let end = start + Duration::from_secs_f64(pass.wall_s);
    let root = spans.add(name, start, end, None);
    let mut t = start;
    for &(id, ms) in &pass.ms {
        let next = t + Duration::from_secs_f64(ms / 1e3);
        spans.add(&format!("exp.{id}"), t, next, Some(root));
        t = next;
    }
}

/// One serial pass with its process CPU time and, when `counting`, what
/// the allocation counter saw.
struct TimedPass {
    pass: repro::Pass,
    /// User + system, nanosecond clock.
    cpu_ns: u64,
    /// User mode only, 10 ms ticks.
    user_s: f64,
    allocs: u64,
    alloc_bytes: u64,
}

fn timed_pass(
    report: &mut RunReport,
    spans: &mut Spans,
    name: &str,
    (scale, select): (Scale, Select),
    counting: bool,
) -> TimedPass {
    let before = alloc::snapshot();
    alloc::set_enabled(counting);
    let t = Instant::now();
    let (cpu0, user0) = (sys::process_cpu_ns(), sys::process_user_cpu_s());
    let pass = repro::run_serial(scale, select);
    let cpu_ns = sys::process_cpu_ns() - cpu0;
    let user_s = match (user0, sys::process_user_cpu_s()) {
        (Ok(u0), Ok(u1)) => u1 - u0,
        (Err(e), _) | (_, Err(e)) => {
            report.problems.push(format!("{name}: user CPU time: {e}"));
            0.0
        }
    };
    alloc::set_enabled(false);
    let after = alloc::snapshot();
    pass_spans(spans, name, t, &pass);
    check_pass(report, name, &pass);
    TimedPass {
        pass,
        cpu_ns,
        user_s,
        allocs: after.allocs - before.allocs,
        alloc_bytes: after.bytes - before.bytes,
    }
}

fn repro_run(opts: &Options, epoch: Instant) -> RunReport {
    let mut report = RunReport::default();
    let mut spans = Spans::new(epoch, 0);
    let scale = if opts.quick {
        Scale::Quick
    } else {
        Scale::Full
    };

    // Set-up: quick-scale passes over every experiment.
    let mut quick: Vec<TimedPass> = Vec::new();
    for i in 0..if opts.quick { 1 } else { QUICK_PASSES } {
        let name = format!("setup.quick[{i}]");
        let p = timed_pass(
            &mut report,
            &mut spans,
            &name,
            (Scale::Quick, Select::All),
            false,
        );
        if let Some(first) = quick.first() {
            check_identical(&mut report, &name, &first.pass, &p.pass);
        }
        quick.push(p);
    }

    if !opts.trace {
        // The endurance simulation, once: for the memory it needs, its
        // output and its user-mode CPU. Its wall time is two thirds page
        // faults, whose price is the VM's (README.md). It goes first, on a
        // heap the quick passes barely touched, so the peak it sets does
        // not depend on what the allocator kept from earlier full-scale
        // passes.
        let endurance = timed_pass(
            &mut report,
            &mut spans,
            "endurance",
            (scale, Select::Endurance),
            false,
        );
        // The window: K passes over the timed experiments.
        let passes = if opts.quick {
            2
        } else {
            (opts.seconds * 1000 / TIMED_PASS_BUDGET_MS).max(2) as usize
        };
        let mut measured: Vec<TimedPass> = Vec::new();
        for i in 0..passes {
            let name = format!("window[{i}]");
            let p = timed_pass(
                &mut report,
                &mut spans,
                &name,
                (scale, Select::Timed),
                false,
            );
            if let Some(first) = measured.first() {
                check_identical(&mut report, &name, &first.pass, &p.pass);
            }
            measured.push(p);
        }
        let n = measured[0].pass.blocks.len() as f64;
        let rate: Vec<f64> = measured.iter().map(|p| n / p.pass.wall_s).collect();
        let user: Vec<f64> = measured.iter().map(|p| p.user_s).collect();
        let setup: Vec<f64> = quick.iter().map(|p| p.pass.wall_s).collect();
        report.push(e2e("tasks_per_s"), median(&rate), spread_note(&rate));
        report.push(
            e2e("cpu_us_per_task"),
            (median(&user) + endurance.user_s) * 1e6 / (n + 1.0),
            format!(
                "user-mode CPU of the median timed pass ({} s) and of the one `{}` run ({:.2} s), per experiment",
                spread_note(&user),
                repro::ENDURANCE,
                endurance.user_s
            ),
        );
        report.push(
            e2e("rss_peak_mib"),
            sys::rss_peak_mib().unwrap_or(0.0),
            "VmHWM of this process at the end of the run",
        );
        report.push(e2e("setup_s"), median(&setup), spread_note(&setup));
        report.notes.push(format!(
            "a task is one experiment: {n} timed per pass (all but `{}`, which runs once: its wall time is the VM's page faults, its user-mode CPU is in cpu_us_per_task), serial, in process; seed unused (the experiments fix their own)",
            repro::ENDURANCE
        ));
        report.spans = spans.list;
        return report;
    }

    let mut layers = Layers::new();
    let endurance = timed_pass(
        &mut report,
        &mut spans,
        "endurance",
        (scale, Select::Endurance),
        true,
    );
    let traced = timed_pass(
        &mut report,
        &mut spans,
        "window[0]",
        (scale, Select::Timed),
        true,
    );
    let own = "the benchmark's span around run + render";
    layers.set("exp.fig8_ms", endurance.pass.ms_of(repro::ENDURANCE), own);
    let named = ["fig9", "fig3", "ablations", "fig6"];
    for id in named {
        layers.set(&format!("exp.{id}_ms"), traced.pass.ms_of(id), own);
    }
    let rest: f64 = traced
        .pass
        .ms
        .iter()
        .filter(|(id, _)| !named.contains(id))
        .map(|&(_, ms)| ms)
        .sum();
    layers.set("exp.rest_ms", rest, own);
    let n = (traced.pass.blocks.len() + endurance.pass.blocks.len()) as f64;
    let note = "counting allocator over one pass of every experiment, per experiment";
    layers.set(
        "rt.allocs_per_task",
        (traced.allocs + endurance.allocs) as f64 / n,
        note,
    );
    layers.set(
        "rt.alloc_bytes_per_task",
        (traced.alloc_bytes + endurance.alloc_bytes) as f64 / n,
        note,
    );
    // Tracing here is the allocation counter (the per-experiment spans are
    // always taken): what it counted, at the replayed price of counting.
    let count_ns = replay::alloc_count_ns(1);
    let tracing_ns = (traced.allocs + endurance.allocs) as f64 * count_ns;
    layers.set(
        "trace.overhead_pct",
        tracing_ns / ((traced.cpu_ns + endurance.cpu_ns) as f64 - tracing_ns) * 100.0,
        &format!(
            "counted allocations x {count_ns:.1} ns (replayed cost of counting one), over the rest of the counted passes' CPU"
        ),
    );

    let s = spans.open("replay.pool", None);
    let pooled_s = repro::run_pooled_s(scale, 2);
    spans.close(s);
    let serial = timed_pass(
        &mut report,
        &mut spans,
        "replay.serial",
        (scale, Select::Timed),
        false,
    );
    check_identical(&mut report, "replay.serial", &traced.pass, &serial.pass);
    layers.set(
        "pool.jobs2_speedup",
        serial.pass.wall_s / pooled_s,
        "serial pass of the timed experiments over a 2-worker pool pass of the same runs",
    );
    let s = spans.open("replay.sim", None);
    layers.set(
        "sim.event_queue_mevents_per_s",
        replay::event_queue_mevents_per_s(),
        "2M events over 50k resident timers, median of 7",
    );
    layers.set(
        "exp.simfalkon_tasks_per_s",
        replay::simfalkon_tasks_per_s(),
        "20k sleep-0 tasks on 64 simulated executors, median of 7",
    );
    spans.close(s);
    // The simulator drives the same dispatcher machine; its bare cost is
    // replayed at flat_sat's shape (64 executors, sleep-0).
    let s = spans.open("replay.core", None);
    set_core(&mut layers, &replay::core_costs(&FLAT_SAT, opts.seed));
    spans.close(s);
    layers.into_report(&mut report);
    report.spans = spans.list;
    report
}
