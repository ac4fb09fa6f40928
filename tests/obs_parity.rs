//! Cross-driver observability parity.
//!
//! The same sans-io machines run under the threaded driver and the
//! discrete-event simulator, so the same workload must produce the same
//! event accounting — identical per-kind counts and carried values — even
//! though one run takes wall time and the other virtual time. This pins
//! the tentpole property of `falkon-obs`: probes observe the machines, not
//! the drivers.

use falkon::core::executor::ExecutorConfig;
use falkon::core::forwarder::{Forwarder, ForwarderAction, ForwarderEvent};
use falkon::core::ids::InstanceId;
use falkon::core::DispatcherConfig;
use falkon::exp::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon::obs::{Counters, ObsEventKind, Recorder};
use falkon::proto::bundle::BundleConfig;
use falkon::proto::message::ExecutorId;
use falkon::proto::task::{TaskResult, TaskSpec};
use falkon::rt::forwarder::ForwarderServer;
use falkon::rt::inproc::{run_workload, InprocConfig};
use falkon::rt::tcp::{run_client, run_executor, ServerConfig};
use falkon::rt::WireMode;
use std::thread;

const N: u64 = 24;

fn tasks() -> Vec<TaskSpec> {
    (0..N).map(|i| TaskSpec::sleep(i, 0)).collect()
}

fn sim_counters() -> Counters {
    let mut sim = SimFalkon::new(SimFalkonConfig {
        executors: 1,
        bundle_size: N as usize,
        dispatcher: DispatcherConfig::default(),
        ..SimFalkonConfig::default()
    });
    sim.submit(0, tasks());
    let outcome = sim.run_until_drained();
    assert_eq!(outcome.tasks, N);
    sim.obs().counters
}

fn inproc_counters() -> Counters {
    let config = InprocConfig {
        executors: 1,
        wire: WireMode::Encoded,
        bundle: BundleConfig::of(N as usize),
        dispatcher: DispatcherConfig::default(),
        ..InprocConfig::default()
    };
    let out = run_workload(&config, tasks());
    assert_eq!(out.tasks, N);
    out.obs.counters
}

#[test]
fn sim_and_inproc_agree_on_event_accounting() {
    let sim = sim_counters();
    let rt = inproc_counters();
    // Wire bytes, socket calls and messages deferred behind a full batch
    // are the driver's to report, and the simulator neither serializes nor
    // opens a socket: every other kind is the machines' alone.
    let wire = [
        ObsEventKind::BundleEncoded,
        ObsEventKind::BundleDecoded,
        ObsEventKind::SocketRead,
        ObsEventKind::SocketWrite,
        ObsEventKind::SendDeferred,
    ];
    for kind in ObsEventKind::ALL.into_iter().filter(|k| !wire.contains(k)) {
        assert_eq!(
            sim.count(kind),
            rt.count(kind),
            "event count diverges between drivers for {}",
            kind.name()
        );
        // Duration-valued kinds measure the driver's clock (virtual vs
        // wall time) and cannot agree; every other value is a count or
        // byte size determined by the machines alone.
        if !kind.carries_duration() {
            assert_eq!(
                sim.value(kind),
                rt.value(kind),
                "carried value diverges between drivers for {}",
                kind.name()
            );
        }
    }
    // Shape of the workload itself, so the parity above is not vacuous.
    assert_eq!(sim.count(ObsEventKind::TaskDispatched), N);
    assert_eq!(sim.count(ObsEventKind::TaskCompleted), N);
    assert_eq!(sim.count(ObsEventKind::TaskStarted), N);
    assert_eq!(sim.count(ObsEventKind::ExecutorRegistered), 1);
    assert_eq!(sim.value(ObsEventKind::TaskSubmitted), N);
    assert_eq!(sim.count(ObsEventKind::BundleEncoded), 0);
}

// ---------------------------------------------------------------------------
// Forwarder parity: virtual-time machine vs the real-socket three-tier driver
// ---------------------------------------------------------------------------

const FWD_TASKS: u64 = 120;
const FWD_BUNDLE: usize = 30;
const FWD_DISPATCHERS: usize = 2;

fn fwd_tasks() -> Vec<TaskSpec> {
    (0..FWD_TASKS).map(|i| TaskSpec::sleep(i, 0)).collect()
}

/// Drive the sans-io [`Forwarder`] in virtual time: submit the workload in
/// bundles, then complete each dispatcher's share.
fn forwarder_sim_counters() -> Counters {
    let mut fwd: Forwarder<Recorder> = Forwarder::with_probe(FWD_DISPATCHERS, Recorder::new());
    let mut actions = Vec::new();
    let mut routed: Vec<Vec<TaskSpec>> = vec![Vec::new(); FWD_DISPATCHERS];
    for chunk in fwd_tasks().chunks(FWD_BUNDLE) {
        fwd.on_event(
            1_000,
            ForwarderEvent::ClientSubmit {
                instance: InstanceId(1),
                tasks: chunk.to_vec(),
            },
            &mut actions,
        );
        for act in actions.drain(..) {
            if let ForwarderAction::SubmitTo { dispatcher, tasks } = act {
                routed[dispatcher].extend(tasks);
            }
        }
    }
    for (d, tasks) in routed.into_iter().enumerate() {
        let results = tasks.iter().map(|t| TaskResult::success(t.id)).collect();
        fwd.on_event(
            2_000,
            ForwarderEvent::DispatcherResults {
                dispatcher: d,
                results,
            },
            &mut actions,
        );
        actions.clear();
    }
    assert_eq!(fwd.in_flight(), 0);
    fwd.probe().counters.clone()
}

/// The same workload shape through the real-socket three-tier deployment:
/// the driver mounts a [`Recorder`] on the identical machine, so every
/// lifecycle event below was emitted by the machine, never the driver.
fn forwarder_rt_counters() -> Counters {
    let config = ServerConfig::builder()
        .dispatcher(DispatcherConfig {
            client_notify_batch: 64,
            ..DispatcherConfig::default()
        })
        .forwarder(FWD_DISPATCHERS)
        .build()
        .expect("valid config");
    let server = ForwarderServer::start(config).expect("bind three-tier");
    let addr = server.addr;
    let mut execs = Vec::new();
    for (d, disp_addr) in server.dispatcher_addrs().iter().enumerate() {
        let disp_addr = *disp_addr;
        execs.push(thread::spawn(move || {
            run_executor(
                disp_addr,
                ExecutorId(d as u64),
                ExecutorConfig::default(),
                None,
            )
        }));
    }
    let client = run_client(addr, fwd_tasks(), BundleConfig::of(FWD_BUNDLE), None).expect("client");
    assert_eq!(client.done, FWD_TASKS);
    let (outcome, _) = server.shutdown();
    for e in execs {
        e.join().expect("executor thread").ok();
    }
    outcome.recorder.counters
}

#[test]
fn forwarder_events_agree_across_sim_and_rt() {
    let sim = forwarder_sim_counters();
    let rt = forwarder_rt_counters();
    // Bundle routing is fully deterministic: the client's bundling fixes
    // the ClientSubmit stream, and the machine routes each bundle whole.
    assert_eq!(
        (
            sim.count(ObsEventKind::BundleRouted),
            sim.value(ObsEventKind::BundleRouted)
        ),
        (
            rt.count(ObsEventKind::BundleRouted),
            rt.value(ObsEventKind::BundleRouted)
        ),
        "bundle routing diverges between drivers"
    );
    assert_eq!(
        sim.count(ObsEventKind::BundleRouted),
        FWD_TASKS.div_ceil(FWD_BUNDLE as u64),
        "one BundleRouted per client bundle"
    );
    // Result delivery value (total results funnelled back) is determined
    // by the workload; the *count* depends on how the dispatchers batch
    // their notifies, which timing owns — so only the value is pinned.
    assert_eq!(
        sim.value(ObsEventKind::ResultsRouted),
        rt.value(ObsEventKind::ResultsRouted),
        "results funnelled diverge between drivers"
    );
    assert_eq!(sim.value(ObsEventKind::ResultsRouted), FWD_TASKS);
    // A clean run has no losses in either driver.
    for kind in [
        ObsEventKind::TaskRerouted,
        ObsEventKind::DispatcherLost,
        ObsEventKind::DispatcherReadmitted,
    ] {
        assert_eq!(sim.count(kind), 0, "sim recorded spurious {}", kind.name());
        assert_eq!(rt.count(kind), 0, "rt recorded spurious {}", kind.name());
    }
}
