//! The 3-tier architecture's *forwarder* tier (paper Section 6).
//!
//! Falkon's two-tier design requires the dispatcher to reach every executor
//! directly, which breaks down for private-IP clusters and caps the system
//! at one dispatcher's CPU (≈500 tasks/sec in the paper, which is why the
//! authors target "two or more orders of magnitude more executors" for
//! BlueGene/P-class machines via forwarders). A [`Forwarder`] accepts task
//! bundles from clients, routes each bundle to one of several dispatchers —
//! least-loaded first — and funnels results back to the owning client
//! instance.
//!
//! The machine alone decides where work goes when dispatchers die. A lost
//! slot is down until [`ForwarderEvent::DispatcherReadmitted`]: nothing is
//! routed to it, and its in-flight tasks move to the live slots. With every
//! slot down, bundles wait here and go to whichever slot comes up first.
//! [`crate::node::ForwarderNode`] mounts it between clients and links.

use crate::ids::{InstanceId, TaskId};
use crate::table::FxHashMap;
use crate::Micros;
use falkon_obs::{Counters, NoopProbe, ObsEvent, Probe};
use falkon_proto::task::{TaskResult, TaskSpec};
use std::collections::BTreeMap;

/// Identifies a downstream dispatcher (index into the driver's table).
pub(crate) type DispatcherIndex = usize;

/// Inputs to the forwarder.
#[derive(Clone, Debug)]
pub enum ForwarderEvent {
    /// A client asks for an instance at the forwarder tier.
    CreateInstance,
    /// A client submits a bundle.
    ClientSubmit {
        /// The client's instance at the forwarder tier.
        instance: InstanceId,
        /// The bundle.
        tasks: Vec<TaskSpec>,
    },
    /// A downstream dispatcher delivered results.
    DispatcherResults {
        /// Which dispatcher.
        dispatcher: DispatcherIndex,
        /// The completed results.
        results: Vec<TaskResult>,
    },
    /// A downstream dispatcher was lost: its slot goes down and its tasks
    /// are re-routed. Losing a slot that is already down does nothing.
    DispatcherLost {
        /// Which dispatcher.
        dispatcher: DispatcherIndex,
    },
    /// A lost dispatcher's slot serves again: it takes new work, starting
    /// with every waiting bundle. Readmitting a slot that is up does
    /// nothing.
    DispatcherReadmitted {
        /// Which dispatcher.
        dispatcher: DispatcherIndex,
    },
}

/// Outputs of the forwarder.
#[derive(Clone, Debug)]
pub enum ForwarderAction {
    /// Answer the client that asked with its new instance.
    InstanceCreated {
        /// The instance, numbered from 1.
        instance: InstanceId,
    },
    /// Forward a bundle to a dispatcher.
    SubmitTo {
        /// Destination dispatcher.
        dispatcher: DispatcherIndex,
        /// The bundle.
        tasks: Vec<TaskSpec>,
    },
    /// Deliver results to a client instance.
    DeliverResults {
        /// The owning instance.
        instance: InstanceId,
        /// The results.
        results: Vec<TaskResult>,
    },
}

/// One task accepted from a client and not yet delivered back.
struct InFlight {
    instance: InstanceId,
    /// The slot it was routed to; `None` while it waits for one to come up.
    slot: Option<DispatcherIndex>,
    /// Kept for re-routing after the slot is lost.
    spec: TaskSpec,
}

/// The forwarder state machine. See module docs.
///
/// Generic over a [`Probe`] like [`crate::dispatcher::Dispatcher`]; internal
/// [`Counters`] keep [`Forwarder::counters`] working with the default
/// [`NoopProbe`].
pub struct Forwarder<P: Probe = NoopProbe> {
    /// Tasks outstanding at each downstream slot; `None` while it is down.
    outstanding: Vec<Option<u64>>,
    in_flight: FxHashMap<TaskId, InFlight>,
    next_instance: u64,
    counters: Counters,
    probe: P,
}

impl Forwarder {
    /// Create a forwarder over `dispatchers` downstream dispatchers.
    pub fn new(dispatchers: usize) -> Forwarder {
        Forwarder::with_probe(dispatchers, NoopProbe)
    }
}

impl<P: Probe> Forwarder<P> {
    /// Create a forwarder that reports lifecycle events to `probe`. Every
    /// slot starts up.
    pub fn with_probe(dispatchers: usize, probe: P) -> Self {
        assert!(dispatchers > 0, "need at least one dispatcher");
        Forwarder {
            outstanding: vec![Some(0); dispatchers],
            in_flight: FxHashMap::default(),
            next_instance: 1,
            counters: Counters::new(),
            probe,
        }
    }

    #[inline]
    fn emit(&mut self, now: Micros, event: ObsEvent) {
        self.counters.observe(&event);
        self.probe.on_event(now, &event);
    }

    /// The internal per-kind event counters (always on, probe or not).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The mounted probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Tasks accepted and not yet delivered: downstream or waiting.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The least-loaded live slot (lowest index on ties), if any is up.
    fn least_loaded(&self) -> Option<DispatcherIndex> {
        self.outstanding
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.map(|n| (n, i)))
            .min()
            .map(|(_, i)| i)
    }

    /// Route a bundle whole to the least-loaded live slot, or keep it
    /// waiting when every slot is down.
    fn route(
        &mut self,
        now: Micros,
        instance: InstanceId,
        tasks: Vec<TaskSpec>,
        out: &mut Vec<ForwarderAction>,
    ) {
        if tasks.is_empty() {
            return;
        }
        let slot = self.least_loaded();
        for spec in &tasks {
            let entry = InFlight {
                instance,
                slot,
                spec: spec.clone(),
            };
            self.in_flight.insert(spec.id, entry);
        }
        let Some(dispatcher) = slot else { return };
        let n = tasks.len() as u64;
        self.outstanding[dispatcher] = self.outstanding[dispatcher].map(|o| o + n);
        self.emit(now, ObsEvent::BundleRouted { tasks: n });
        out.push(ForwarderAction::SubmitTo { dispatcher, tasks });
    }

    /// Take every task held at `slot` out of the books, grouped by owner
    /// in task-id order, so routing them again is deterministic.
    fn take(&mut self, slot: Option<DispatcherIndex>) -> BTreeMap<InstanceId, Vec<TaskSpec>> {
        let mut taken: Vec<(TaskId, InFlight)> =
            self.in_flight.extract_if(|_, t| t.slot == slot).collect();
        taken.sort_unstable_by_key(|&(id, _)| id);
        let mut by_instance: BTreeMap<InstanceId, Vec<TaskSpec>> = BTreeMap::new();
        for (_, t) in taken {
            by_instance.entry(t.instance).or_default().push(t.spec);
        }
        by_instance
    }

    /// Feed one event; actions are appended to `out`.
    pub fn on_event(&mut self, now: Micros, ev: ForwarderEvent, out: &mut Vec<ForwarderAction>) {
        match ev {
            ForwarderEvent::CreateInstance => {
                let instance = InstanceId(self.next_instance);
                self.next_instance += 1;
                out.push(ForwarderAction::InstanceCreated { instance });
            }
            ForwarderEvent::ClientSubmit { instance, tasks } => {
                self.route(now, instance, tasks, out);
            }
            ForwarderEvent::DispatcherResults {
                dispatcher,
                results,
            } => {
                // Group results back by owning instance.
                // BTreeMap: delivery order must not depend on hash iteration.
                let mut by_instance: BTreeMap<InstanceId, Vec<TaskResult>> = BTreeMap::new();
                for r in results {
                    let Some(t) = self.in_flight.remove(&r.id) else {
                        continue; // unknown/duplicate
                    };
                    debug_assert_eq!(t.slot, Some(dispatcher));
                    if let Some(n) = &mut self.outstanding[dispatcher] {
                        *n = n.saturating_sub(1);
                    }
                    by_instance.entry(t.instance).or_default().push(r);
                }
                for (instance, results) in by_instance {
                    self.emit(
                        now,
                        ObsEvent::ResultsRouted {
                            count: results.len() as u64,
                        },
                    );
                    out.push(ForwarderAction::DeliverResults { instance, results });
                }
            }
            ForwarderEvent::DispatcherLost { dispatcher } => {
                // A slot already down holds nothing to re-route.
                if self.outstanding[dispatcher].take().is_none() {
                    return;
                }
                self.emit(now, ObsEvent::DispatcherLost);
                for (instance, tasks) in self.take(Some(dispatcher)) {
                    self.emit(
                        now,
                        ObsEvent::TaskRerouted {
                            count: tasks.len() as u64,
                        },
                    );
                    self.route(now, instance, tasks, out);
                }
            }
            ForwarderEvent::DispatcherReadmitted { dispatcher } => {
                if self.outstanding[dispatcher].is_some() {
                    return;
                }
                self.outstanding[dispatcher] = Some(0);
                self.emit(now, ObsEvent::DispatcherReadmitted);
                // Waiting tasks exist only while every slot was down, so
                // they all go to this one.
                for (instance, tasks) in self.take(None) {
                    self.route(now, instance, tasks, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falkon_obs::ObsEventKind;

    fn step(f: &mut Forwarder, ev: ForwarderEvent) -> Vec<ForwarderAction> {
        let mut out = Vec::new();
        f.on_event(0, ev, &mut out);
        out
    }

    fn tasks(range: std::ops::Range<u64>) -> Vec<TaskSpec> {
        range.map(|i| TaskSpec::sleep(i, 0)).collect()
    }

    #[test]
    fn instances_are_numbered_from_one() {
        let mut f = Forwarder::new(2);
        let created: Vec<InstanceId> = (0..3)
            .flat_map(|_| step(&mut f, ForwarderEvent::CreateInstance))
            .map(|act| match act {
                ForwarderAction::InstanceCreated { instance } => instance,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(created, [InstanceId(1), InstanceId(2), InstanceId(3)]);
        assert_eq!(f.in_flight(), 0);
        assert_eq!(*f.counters(), Counters::new(), "no lifecycle event");
    }

    #[test]
    fn routes_to_least_loaded() {
        let mut f = Forwarder::new(3);
        let acts = step(
            &mut f,
            ForwarderEvent::ClientSubmit {
                instance: InstanceId(1),
                tasks: tasks(0..10),
            },
        );
        let first = match &acts[0] {
            ForwarderAction::SubmitTo { dispatcher, .. } => *dispatcher,
            other => panic!("unexpected {other:?}"),
        };
        // Next bundle goes elsewhere (dispatcher `first` now has 10).
        let acts = step(
            &mut f,
            ForwarderEvent::ClientSubmit {
                instance: InstanceId(1),
                tasks: tasks(10..15),
            },
        );
        match &acts[0] {
            ForwarderAction::SubmitTo { dispatcher, .. } => assert_ne!(*dispatcher, first),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(f.in_flight(), 15);
    }

    #[test]
    fn results_funnel_back_to_owner() {
        let mut f = Forwarder::new(2);
        let acts = step(
            &mut f,
            ForwarderEvent::ClientSubmit {
                instance: InstanceId(7),
                tasks: tasks(0..3),
            },
        );
        let d = match &acts[0] {
            ForwarderAction::SubmitTo { dispatcher, .. } => *dispatcher,
            other => panic!("unexpected {other:?}"),
        };
        let acts = step(
            &mut f,
            ForwarderEvent::DispatcherResults {
                dispatcher: d,
                results: (0..3).map(|i| TaskResult::success(TaskId(i))).collect(),
            },
        );
        match &acts[0] {
            ForwarderAction::DeliverResults { instance, results } => {
                assert_eq!(*instance, InstanceId(7));
                assert_eq!(results.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(f.in_flight(), 0);
        assert_eq!(f.counters().value(ObsEventKind::ResultsRouted), 3);
    }

    #[test]
    fn duplicate_results_ignored() {
        let mut f = Forwarder::new(1);
        step(
            &mut f,
            ForwarderEvent::ClientSubmit {
                instance: InstanceId(1),
                tasks: tasks(0..1),
            },
        );
        step(
            &mut f,
            ForwarderEvent::DispatcherResults {
                dispatcher: 0,
                results: vec![TaskResult::success(TaskId(0))],
            },
        );
        let acts = step(
            &mut f,
            ForwarderEvent::DispatcherResults {
                dispatcher: 0,
                results: vec![TaskResult::success(TaskId(0))],
            },
        );
        assert!(acts.is_empty());
        assert_eq!(f.counters().value(ObsEventKind::ResultsRouted), 1);
    }

    #[test]
    fn dispatcher_loss_reroutes_tasks() {
        let mut f = Forwarder::new(2);
        // Load both dispatchers.
        step(
            &mut f,
            ForwarderEvent::ClientSubmit {
                instance: InstanceId(1),
                tasks: tasks(0..4),
            },
        );
        step(
            &mut f,
            ForwarderEvent::ClientSubmit {
                instance: InstanceId(1),
                tasks: tasks(4..8),
            },
        );
        let acts = step(&mut f, ForwarderEvent::DispatcherLost { dispatcher: 0 });
        // The four tasks that were on dispatcher 0 move to dispatcher 1.
        match &acts[0] {
            ForwarderAction::SubmitTo { dispatcher, tasks } => {
                assert_eq!(*dispatcher, 1);
                assert_eq!(tasks.len(), 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(f.counters().value(ObsEventKind::TaskRerouted), 4);
        assert_eq!(f.counters().count(ObsEventKind::DispatcherLost), 1);
        assert_eq!(f.in_flight(), 8);
        // After re-admission new work can land on dispatcher 0 again.
        step(
            &mut f,
            ForwarderEvent::DispatcherReadmitted { dispatcher: 0 },
        );
        assert_eq!(f.counters().count(ObsEventKind::DispatcherReadmitted), 1);
        let acts = step(
            &mut f,
            ForwarderEvent::ClientSubmit {
                instance: InstanceId(1),
                tasks: tasks(8..9),
            },
        );
        match &acts[0] {
            ForwarderAction::SubmitTo { dispatcher, .. } => assert_eq!(*dispatcher, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn submitted_to(acts: &[ForwarderAction]) -> Vec<(DispatcherIndex, usize)> {
        acts.iter()
            .filter_map(|a| match a {
                ForwarderAction::SubmitTo { dispatcher, tasks } => Some((*dispatcher, tasks.len())),
                _ => None,
            })
            .collect()
    }

    /// Bug: with both slots lost, the backlog was routed to dead slot 0,
    /// and readmitting slot 1 left it stranded there.
    #[test]
    fn every_slot_down_keeps_bundles_for_the_first_slot_up() {
        let mut f = Forwarder::new(2);
        for range in [0..4, 4..8] {
            let tasks = tasks(range);
            let instance = InstanceId(1);
            step(&mut f, ForwarderEvent::ClientSubmit { instance, tasks });
        }
        let acts = step(&mut f, ForwarderEvent::DispatcherLost { dispatcher: 0 });
        assert_eq!(submitted_to(&acts), [(1, 4)]);
        let acts = step(&mut f, ForwarderEvent::DispatcherLost { dispatcher: 1 });
        assert!(acts.is_empty(), "routed to a dead slot: {acts:?}");
        let acts = step(
            &mut f,
            ForwarderEvent::ClientSubmit {
                instance: InstanceId(2),
                tasks: tasks(8..10),
            },
        );
        assert!(acts.is_empty(), "routed to a dead slot: {acts:?}");
        assert_eq!(f.in_flight(), 10);
        // Slot 1 comes up first and takes everything, one bundle per owner.
        let acts = step(
            &mut f,
            ForwarderEvent::DispatcherReadmitted { dispatcher: 1 },
        );
        assert_eq!(submitted_to(&acts), [(1, 8), (1, 2)]);
        let results = (0..10).map(|i| TaskResult::success(TaskId(i))).collect();
        step(
            &mut f,
            ForwarderEvent::DispatcherResults {
                dispatcher: 1,
                results,
            },
        );
        assert_eq!(f.in_flight(), 0);
        let c = f.counters();
        let lost = c.count(ObsEventKind::DispatcherLost);
        assert_eq!((lost, c.count(ObsEventKind::DispatcherReadmitted)), (2, 1));
        assert_eq!(c.value(ObsEventKind::TaskRerouted), 12);
        assert_eq!(c.value(ObsEventKind::BundleRouted), 10 + 12);
    }

    #[test]
    fn loss_and_readmission_are_idempotent() {
        let mut f = Forwarder::new(2);
        // Readmitting a slot that is up emits nothing and keeps its load.
        step(
            &mut f,
            ForwarderEvent::ClientSubmit {
                instance: InstanceId(1),
                tasks: tasks(0..4),
            },
        );
        step(
            &mut f,
            ForwarderEvent::DispatcherReadmitted { dispatcher: 0 },
        );
        assert_eq!(f.counters().count(ObsEventKind::DispatcherReadmitted), 0);
        let acts = step(
            &mut f,
            ForwarderEvent::ClientSubmit {
                instance: InstanceId(1),
                tasks: tasks(4..5),
            },
        );
        assert_eq!(submitted_to(&acts), [(1, 1)]);
        for _ in 0..2 {
            step(&mut f, ForwarderEvent::DispatcherLost { dispatcher: 0 });
        }
        for _ in 0..2 {
            step(
                &mut f,
                ForwarderEvent::DispatcherReadmitted { dispatcher: 0 },
            );
        }
        let c = f.counters();
        let lost = c.count(ObsEventKind::DispatcherLost);
        assert_eq!((lost, c.count(ObsEventKind::DispatcherReadmitted)), (1, 1));
        assert_eq!(c.value(ObsEventKind::TaskRerouted), 4);
    }

    #[test]
    #[should_panic(expected = "at least one dispatcher")]
    fn zero_dispatchers_rejected() {
        Forwarder::new(0);
    }
}

#[cfg(test)]
mod loss_regressions {
    use super::*;
    use falkon_proto::task::TaskSpec;

    /// Bug: losing a dispatcher with zero in-flight tasks left its load at
    /// 0, making the dead dispatcher the preferred target for new work.
    #[test]
    fn idle_dispatcher_loss_takes_it_out_of_routing() {
        let mut f = Forwarder::new(2);
        let mut out = Vec::new();
        // Dispatcher 0 never had work; it dies.
        f.on_event(
            0,
            ForwarderEvent::DispatcherLost { dispatcher: 0 },
            &mut out,
        );
        assert!(out.is_empty());
        // New work must go to the live dispatcher 1, not the dead 0.
        f.on_event(
            1,
            ForwarderEvent::ClientSubmit {
                instance: crate::ids::InstanceId(1),
                tasks: vec![TaskSpec::sleep(1, 0)],
            },
            &mut out,
        );
        match &out[0] {
            ForwarderAction::SubmitTo { dispatcher, .. } => assert_eq!(*dispatcher, 1),
            other => panic!("unexpected {other:?}"),
        }
        // After re-admission it participates again.
        out.clear();
        f.on_event(
            1,
            ForwarderEvent::DispatcherReadmitted { dispatcher: 0 },
            &mut out,
        );
        assert!(out.is_empty());
        f.on_event(
            2,
            ForwarderEvent::ClientSubmit {
                instance: crate::ids::InstanceId(1),
                tasks: vec![TaskSpec::sleep(2, 0)],
            },
            &mut out,
        );
        match &out[0] {
            ForwarderAction::SubmitTo { dispatcher, .. } => assert_eq!(*dispatcher, 0),
            other => panic!("unexpected {other:?}"),
        }
    }
}
