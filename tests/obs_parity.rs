//! Cross-driver observability parity.
//!
//! The same sans-io machines run under the socket driver and the
//! discrete-event simulator, so the same workload must produce the same
//! event accounting — identical per-kind counts and carried values — even
//! though one run takes wall time and the other virtual time. This pins
//! the tentpole property of `falkon-obs`: probes observe the machines, not
//! the drivers. Each topology is one deployment value on both sides: the
//! flat one, and three tiers (`forwarder: Some(k)`).

use falkon::core::DispatcherConfig;
use falkon::exp::simfalkon::{SimFalkon, SimFalkonConfig};
use falkon::obs::{Counters, ObsEventKind};
use falkon::proto::bundle::BundleConfig;
use falkon::proto::task::TaskSpec;
use falkon::rt::inproc::{run_workload, InprocConfig};
use falkon::rt::WireMode;

fn tasks(n: u64) -> Vec<TaskSpec> {
    (0..n).map(|i| TaskSpec::sleep(i, 0)).collect()
}

/// One executor per dispatcher, `n` tasks in bundles of `bundle`.
fn sim_counters(forwarder: Option<usize>, n: u64, bundle: usize) -> Counters {
    let mut sim = SimFalkon::new(SimFalkonConfig {
        executors: 1,
        forwarder,
        bundle_size: bundle,
        dispatcher: DispatcherConfig::default(),
        ..SimFalkonConfig::default()
    });
    sim.submit(0, tasks(n));
    let outcome = sim.run_until_drained();
    assert_eq!(outcome.tasks, n);
    assert_eq!(sim.dispatcher_stats().completed, n);
    sim.obs().counters
}

/// The same deployment on loopback sockets.
fn inproc_counters(forwarder: Option<usize>, n: u64, bundle: usize) -> Counters {
    let config = InprocConfig {
        executors: 1,
        forwarder,
        wire: WireMode::Encoded,
        bundle: BundleConfig::of(bundle),
        dispatcher: DispatcherConfig::default(),
        ..InprocConfig::default()
    };
    let out = run_workload(&config, tasks(n));
    assert_eq!(out.tasks, n);
    assert_eq!(out.stats.completed, n);
    out.obs.counters
}

/// Every kind the machines emit agrees between the drivers in count, and
/// in carried value unless that value is a duration.
fn assert_machines_agree(sim: &Counters, rt: &Counters) {
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
    assert_eq!(sim.count(ObsEventKind::BundleEncoded), 0);
}

const N: u64 = 24;

#[test]
fn sim_and_inproc_agree_on_event_accounting() {
    let sim = sim_counters(None, N, N as usize);
    assert_machines_agree(&sim, &inproc_counters(None, N, N as usize));
    // Shape of the workload itself, so the parity above is not vacuous.
    assert_eq!(sim.count(ObsEventKind::TaskDispatched), N);
    assert_eq!(sim.count(ObsEventKind::TaskCompleted), N);
    assert_eq!(sim.count(ObsEventKind::TaskStarted), N);
    assert_eq!(sim.count(ObsEventKind::ExecutorRegistered), 1);
    assert_eq!(sim.value(ObsEventKind::TaskSubmitted), N);
    assert_eq!(sim.count(ObsEventKind::BundleRouted), 0, "no forwarder");
}

const FWD_TASKS: u64 = 120;
const FWD_BUNDLE: usize = 30;
const FWD_DISPATCHERS: usize = 2;

#[test]
fn forwarder_events_agree_across_sim_and_rt() {
    let tier = Some(FWD_DISPATCHERS);
    let sim = sim_counters(tier, FWD_TASKS, FWD_BUNDLE);
    assert_machines_agree(&sim, &inproc_counters(tier, FWD_TASKS, FWD_BUNDLE));
    // Shape: the forwarder routes each client bundle whole, funnels every
    // result back, and a clean run loses no dispatcher.
    assert_eq!(
        sim.count(ObsEventKind::BundleRouted),
        FWD_TASKS.div_ceil(FWD_BUNDLE as u64),
        "one BundleRouted per client bundle"
    );
    assert_eq!(sim.value(ObsEventKind::BundleRouted), FWD_TASKS);
    assert_eq!(sim.value(ObsEventKind::ResultsRouted), FWD_TASKS);
    assert_eq!(sim.count(ObsEventKind::TaskCompleted), FWD_TASKS);
    assert_eq!(
        sim.count(ObsEventKind::ExecutorRegistered),
        FWD_DISPATCHERS as u64
    );
    for kind in [
        ObsEventKind::TaskRerouted,
        ObsEventKind::DispatcherLost,
        ObsEventKind::DispatcherReadmitted,
    ] {
        assert_eq!(sim.count(kind), 0, "spurious {}", kind.name());
    }
}
