//! The Falkon provisioner (paper Sections 3.1–3.2).
//!
//! The provisioner periodically polls dispatcher state `{POLL}` and, based on
//! the resource-acquisition policy, requests executor allocations from the
//! LRM (via a GRAM4-like gateway). It tracks allocation lifecycles, enforces
//! min/max executor bounds, and — under a centralized release policy —
//! decides when to hand resources back. Under the distributed policy the
//! executors release themselves, and the provisioner ends an allocation
//! when its last executor has gone.

use crate::ids::AllocationId;
use crate::policy::{ProvisionerPolicy, ReleasePolicy};
use crate::table::DenseMap;
use crate::Micros;
use falkon_obs::{Counters, NoopProbe, ObsEvent, ObsEventKind, Probe};
use falkon_proto::message::DispatcherStatus;

/// Inputs to the provisioner state machine.
#[derive(Clone, Debug)]
pub enum ProvisionerEvent {
    /// The periodic dispatcher state snapshot (answer to `{POLL}`).
    Status {
        /// Dispatcher load.
        status: DispatcherStatus,
        /// The LRM's idle-node count, when its system functions expose one
        /// (used by the available-aware acquisition policy).
        lrm_available: Option<u32>,
    },
    /// The LRM granted an allocation (nodes are starting up).
    AllocationGranted {
        /// Which request this answers.
        allocation: AllocationId,
        /// Executors being started under it.
        executors: u32,
    },
    /// An allocation ended (wall-time expiry, release, or preemption).
    AllocationEnded {
        /// The ended allocation.
        allocation: AllocationId,
    },
    /// An executor belonging to an allocation terminated (e.g. distributed
    /// idle self-release).
    ExecutorTerminated {
        /// The allocation it belonged to.
        allocation: AllocationId,
    },
}

/// Outputs of the provisioner state machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProvisionerAction {
    /// Submit a first-level request for `executors` resources to the LRM.
    RequestAllocation {
        /// Provisioner-assigned id for correlating the grant.
        allocation: AllocationId,
        /// Number of executors requested.
        executors: u32,
        /// Requested wall time (µs).
        duration_us: Micros,
    },
    /// Cancel an allocation: a centralized release, or the last of its
    /// executors has terminated.
    ReleaseAllocation {
        /// The allocation to release.
        allocation: AllocationId,
    },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AllocState {
    /// Requested, not yet granted.
    Pending { executors: u32 },
    /// Granted and (some) executors live.
    Active { executors: u32 },
}

/// Monotonic provisioner counters (Table 4 reports allocation counts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProvisionerStats {
    /// First-level allocation requests issued.
    pub allocations_requested: u64,
    /// Allocations granted by the LRM.
    pub allocations_granted: u64,
    /// Allocations released by centralized policy.
    pub allocations_released: u64,
    /// Total executors requested.
    pub executors_requested: u64,
}

/// The Falkon provisioner state machine. See module docs.
///
/// Generic over a [`Probe`] like [`crate::Dispatcher`]; internal
/// [`Counters`] keep [`Provisioner::stats`] working with the default
/// [`NoopProbe`].
pub struct Provisioner<P: Probe = NoopProbe> {
    policy: ProvisionerPolicy,
    next_allocation: u64,
    /// Dense: the provisioner assigns allocation ids sequentially from 1.
    allocations: DenseMap<AllocationId, AllocState>,
    /// Executors across `Pending` allocations, maintained incrementally so
    /// every poll's supply computation is O(1) instead of a table scan.
    pending_sum: u32,
    /// Executors across `Active` allocations (incremental, like
    /// `pending_sum`).
    active_sum: u32,
    counters: Counters,
    probe: P,
}

impl Provisioner {
    /// Create a provisioner with the given policy.
    pub fn new(policy: ProvisionerPolicy) -> Self {
        Provisioner::with_probe(policy, NoopProbe)
    }
}

impl<P: Probe> Provisioner<P> {
    /// Create a provisioner that reports lifecycle events to `probe`.
    pub fn with_probe(policy: ProvisionerPolicy, probe: P) -> Self {
        Provisioner {
            policy,
            next_allocation: 1,
            allocations: DenseMap::new(),
            pending_sum: 0,
            active_sum: 0,
            counters: Counters::new(),
            probe,
        }
    }

    /// Drop an allocation and keep the incremental sums balanced.
    fn forget(&mut self, allocation: AllocationId) -> Option<AllocState> {
        let state = self.allocations.remove(allocation);
        match state {
            Some(AllocState::Pending { executors }) => self.pending_sum -= executors,
            Some(AllocState::Active { executors }) => self.active_sum -= executors,
            None => {}
        }
        state
    }

    #[inline]
    fn emit(&mut self, now: Micros, event: ObsEvent) {
        self.counters.observe(&event);
        self.probe.on_event(now, &event);
    }

    /// The configured policy.
    pub fn policy(&self) -> ProvisionerPolicy {
        self.policy
    }

    /// Monotonic counters — a derived view of the internal event
    /// [`Counters`].
    pub fn stats(&self) -> ProvisionerStats {
        let c = &self.counters;
        ProvisionerStats {
            allocations_requested: c.count(ObsEventKind::AllocationRequested),
            allocations_granted: c.count(ObsEventKind::AllocationGranted),
            allocations_released: c.count(ObsEventKind::AllocationReleased),
            executors_requested: c.value(ObsEventKind::AllocationRequested),
        }
    }

    /// The internal per-kind event counters (always on, probe or not).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Executors in pending (not yet granted) allocations.
    pub fn pending_executors(&self) -> u32 {
        debug_assert_eq!(
            self.pending_sum,
            self.allocations
                .values()
                .filter_map(|s| match s {
                    AllocState::Pending { executors } => Some(*executors),
                    _ => None,
                })
                .sum::<u32>()
        );
        self.pending_sum
    }

    /// Executors in granted allocations still considered live.
    pub fn active_executors(&self) -> u32 {
        debug_assert_eq!(
            self.active_sum,
            self.allocations
                .values()
                .filter_map(|s| match s {
                    AllocState::Active { executors } => Some(*executors),
                    _ => None,
                })
                .sum::<u32>()
        );
        self.active_sum
    }

    /// How often the driver should poll dispatcher state (µs).
    pub fn poll_interval_us(&self) -> Micros {
        self.policy.poll_interval_us
    }

    /// Feed one event; actions are appended to `out`.
    pub fn on_event(
        &mut self,
        now: Micros,
        ev: ProvisionerEvent,
        out: &mut Vec<ProvisionerAction>,
    ) {
        match ev {
            ProvisionerEvent::Status {
                status,
                lrm_available,
            } => {
                self.evaluate(now, status, lrm_available, out);
            }
            ProvisionerEvent::AllocationGranted {
                allocation,
                executors,
            } => {
                if let Some(state) = self.allocations.get_mut(allocation) {
                    match *state {
                        AllocState::Pending { executors: p } => self.pending_sum -= p,
                        AllocState::Active { executors: a } => self.active_sum -= a,
                    }
                    *state = AllocState::Active { executors };
                    self.active_sum += executors;
                    self.emit(
                        now,
                        ObsEvent::AllocationGranted {
                            executors: executors as u64,
                        },
                    );
                }
            }
            ProvisionerEvent::AllocationEnded { allocation } => {
                self.forget(allocation);
            }
            ProvisionerEvent::ExecutorTerminated { allocation } => {
                let Some(AllocState::Active { executors }) = self.allocations.get_mut(allocation)
                else {
                    return;
                };
                if *executors > 0 {
                    *executors -= 1;
                    self.active_sum -= 1;
                }
                if *executors == 0 {
                    // Its last executor is gone: a distributed release.
                    self.forget(allocation);
                    out.push(ProvisionerAction::ReleaseAllocation { allocation });
                }
            }
        }
    }

    /// Core acquisition/release decision, run on every status poll.
    fn evaluate(
        &mut self,
        now: Micros,
        status: DispatcherStatus,
        lrm_available: Option<u32>,
        out: &mut Vec<ProvisionerAction>,
    ) {
        // Supply is tracked entirely from allocation bookkeeping: pending
        // requests plus granted allocations' executors. Granted-but-still-
        // starting executors (JVM startup, registration in flight) are not
        // yet visible in `status.registered_executors`, and counting the
        // latter would double-request during that window.
        let supply = self.pending_executors() + self.active_executors();
        let _ = status.registered_executors;
        // Demand: one executor per outstanding task (queued + running),
        // clamped to the configured bounds.
        let demand = (status.queued_tasks + status.running_tasks)
            .min(self.policy.max_executors as u64) as u32;
        let target = demand.max(self.policy.min_executors);

        if target > supply {
            let needed = target - supply;
            for size in self.policy.acquisition.request_sizes(needed, lrm_available) {
                let id = AllocationId(self.next_allocation);
                self.next_allocation += 1;
                self.allocations
                    .insert(id, AllocState::Pending { executors: size });
                self.pending_sum += size;
                self.emit(
                    now,
                    ObsEvent::AllocationRequested {
                        executors: size as u64,
                    },
                );
                out.push(ProvisionerAction::RequestAllocation {
                    allocation: id,
                    executors: size,
                    duration_us: self.policy.allocation_duration_us,
                });
            }
        } else if let ReleasePolicy::CentralizedQueueThreshold { min_queued } = self.policy.release
        {
            // Centralized release: if demand collapsed, hand one active
            // allocation back per poll (gradual drain), respecting min.
            if status.queued_tasks < min_queued {
                let idle = status
                    .registered_executors
                    .saturating_sub(status.busy_executors);
                if idle > 0 {
                    // Deterministic choice: the smallest active allocation id
                    // whose release keeps the supply at or above the floor.
                    // `DenseMap` iterates in ascending id order, so the first
                    // match is the minimum.
                    let active_sum = self.active_sum;
                    let candidate = self
                        .allocations
                        .iter()
                        .filter_map(|(id, s)| match s {
                            AllocState::Active { executors } => Some((id, *executors)),
                            _ => None,
                        })
                        .find(|&(_, n)| active_sum.saturating_sub(n) >= self.policy.min_executors);
                    if let Some((id, _)) = candidate {
                        self.forget(id);
                        self.emit(now, ObsEvent::AllocationReleased);
                        out.push(ProvisionerAction::ReleaseAllocation { allocation: id });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AcquisitionPolicy;

    fn status(queued: u64, running: u64, registered: u64, busy: u64) -> DispatcherStatus {
        DispatcherStatus {
            queued_tasks: queued,
            running_tasks: running,
            registered_executors: registered,
            busy_executors: busy,
        }
    }

    fn step(p: &mut Provisioner, ev: ProvisionerEvent) -> Vec<ProvisionerAction> {
        let mut out = Vec::new();
        p.on_event(0, ev, &mut out);
        out
    }

    #[test]
    fn all_at_once_requests_full_deficit() {
        let mut p = Provisioner::new(ProvisionerPolicy {
            max_executors: 32,
            ..ProvisionerPolicy::default()
        });
        let acts = step(
            &mut p,
            ProvisionerEvent::Status {
                status: status(100, 0, 0, 0),
                lrm_available: None,
            },
        );
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            ProvisionerAction::RequestAllocation { executors, .. } => assert_eq!(*executors, 32),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.pending_executors(), 32);
    }

    #[test]
    fn does_not_double_request_while_pending() {
        let mut p = Provisioner::new(ProvisionerPolicy::default());
        step(
            &mut p,
            ProvisionerEvent::Status {
                status: status(100, 0, 0, 0),
                lrm_available: None,
            },
        );
        // Second poll with nothing granted yet: no new requests.
        let acts = step(
            &mut p,
            ProvisionerEvent::Status {
                status: status(100, 0, 0, 0),
                lrm_available: None,
            },
        );
        assert!(acts.is_empty());
        assert_eq!(p.stats().allocations_requested, 1);
    }

    #[test]
    fn demand_clamped_by_max() {
        let mut p = Provisioner::new(ProvisionerPolicy {
            max_executors: 8,
            ..ProvisionerPolicy::default()
        });
        let acts = step(
            &mut p,
            ProvisionerEvent::Status {
                status: status(1000, 0, 0, 0),
                lrm_available: None,
            },
        );
        match &acts[0] {
            ProvisionerAction::RequestAllocation { executors, .. } => assert_eq!(*executors, 8),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn min_executors_maintained_without_demand() {
        let mut p = Provisioner::new(ProvisionerPolicy {
            min_executors: 4,
            ..ProvisionerPolicy::default()
        });
        let acts = step(
            &mut p,
            ProvisionerEvent::Status {
                status: status(0, 0, 0, 0),
                lrm_available: None,
            },
        );
        match &acts[0] {
            ProvisionerAction::RequestAllocation { executors, .. } => assert_eq!(*executors, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn grant_moves_pending_to_active() {
        let mut p = Provisioner::new(ProvisionerPolicy::default());
        let acts = step(
            &mut p,
            ProvisionerEvent::Status {
                status: status(10, 0, 0, 0),
                lrm_available: None,
            },
        );
        let id = match &acts[0] {
            ProvisionerAction::RequestAllocation { allocation, .. } => *allocation,
            other => panic!("unexpected {other:?}"),
        };
        step(
            &mut p,
            ProvisionerEvent::AllocationGranted {
                allocation: id,
                executors: 10,
            },
        );
        assert_eq!(p.pending_executors(), 0);
        assert_eq!(p.active_executors(), 10);
        // Executors terminate one by one; allocation drops at zero.
        for _ in 0..10 {
            step(
                &mut p,
                ProvisionerEvent::ExecutorTerminated { allocation: id },
            );
        }
        assert_eq!(p.active_executors(), 0);
    }

    #[test]
    fn last_executor_out_releases_its_allocation() {
        let mut p = Provisioner::new(ProvisionerPolicy::default());
        let acts = step(
            &mut p,
            ProvisionerEvent::Status {
                status: status(3, 0, 0, 0),
                lrm_available: None,
            },
        );
        let [ProvisionerAction::RequestAllocation { allocation, .. }] = acts[..] else {
            panic!("unexpected {acts:?}");
        };
        let granted = ProvisionerEvent::AllocationGranted {
            allocation,
            executors: 3,
        };
        step(&mut p, granted);
        let terminated = || ProvisionerEvent::ExecutorTerminated { allocation };
        assert!(step(&mut p, terminated()).is_empty());
        assert!(step(&mut p, terminated()).is_empty());
        assert_eq!(
            step(&mut p, terminated()),
            [ProvisionerAction::ReleaseAllocation { allocation }]
        );
        // Forgotten: a straggler releases nothing twice, and the release
        // is not a centralized one.
        assert!(step(&mut p, terminated()).is_empty());
        assert_eq!(p.stats().allocations_released, 0);
    }

    #[test]
    fn one_at_a_time_issues_many_requests() {
        let mut p = Provisioner::new(ProvisionerPolicy {
            acquisition: AcquisitionPolicy::OneAtATime,
            max_executors: 5,
            ..ProvisionerPolicy::default()
        });
        let acts = step(
            &mut p,
            ProvisionerEvent::Status {
                status: status(5, 0, 0, 0),
                lrm_available: None,
            },
        );
        assert_eq!(acts.len(), 5);
        assert_eq!(p.stats().allocations_requested, 5);
    }

    #[test]
    fn centralized_release_drains_gradually() {
        let mut p = Provisioner::new(ProvisionerPolicy {
            release: ReleasePolicy::CentralizedQueueThreshold { min_queued: 1 },
            ..ProvisionerPolicy::default()
        });
        // Acquire, then grant.
        let acts = step(
            &mut p,
            ProvisionerEvent::Status {
                status: status(10, 0, 0, 0),
                lrm_available: None,
            },
        );
        let id = match &acts[0] {
            ProvisionerAction::RequestAllocation { allocation, .. } => *allocation,
            other => panic!("unexpected {other:?}"),
        };
        step(
            &mut p,
            ProvisionerEvent::AllocationGranted {
                allocation: id,
                executors: 10,
            },
        );
        // Queue drained, executors idle: release.
        let acts = step(
            &mut p,
            ProvisionerEvent::Status {
                status: status(0, 0, 10, 0),
                lrm_available: None,
            },
        );
        assert_eq!(
            acts,
            vec![ProvisionerAction::ReleaseAllocation { allocation: id }]
        );
        assert_eq!(p.stats().allocations_released, 1);
    }

    #[test]
    fn available_aware_respects_lrm_report() {
        let mut p = Provisioner::new(ProvisionerPolicy {
            acquisition: AcquisitionPolicy::AvailableAware,
            max_executors: 100,
            ..ProvisionerPolicy::default()
        });
        let acts = step(
            &mut p,
            ProvisionerEvent::Status {
                status: status(100, 0, 0, 0),
                lrm_available: Some(30),
            },
        );
        match &acts[0] {
            ProvisionerAction::RequestAllocation { executors, .. } => assert_eq!(*executors, 30),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn never_exceeds_max_with_supply_counted() {
        let mut p = Provisioner::new(ProvisionerPolicy {
            max_executors: 32,
            ..ProvisionerPolicy::default()
        });
        // Acquire 20, grant them (still starting: not yet registered).
        let acts = step(
            &mut p,
            ProvisionerEvent::Status {
                status: status(20, 0, 0, 0),
                lrm_available: None,
            },
        );
        let id = match &acts[0] {
            ProvisionerAction::RequestAllocation { allocation, .. } => *allocation,
            other => panic!("unexpected {other:?}"),
        };
        step(
            &mut p,
            ProvisionerEvent::AllocationGranted {
                allocation: id,
                executors: 20,
            },
        );
        // Demand spikes to 500 while the 20 are still starting: request
        // only the remaining 12 (granted-but-unregistered count as supply).
        let acts = step(
            &mut p,
            ProvisionerEvent::Status {
                status: status(500, 0, 0, 0),
                lrm_available: None,
            },
        );
        match &acts[0] {
            ProvisionerAction::RequestAllocation { executors, .. } => assert_eq!(*executors, 12),
            other => panic!("unexpected {other:?}"),
        }
    }
}
