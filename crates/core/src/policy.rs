//! The execution-model policies of paper Section 3.1.
//!
//! * **Dispatch policy** — *next-available*: each task goes to the next idle
//!   executor (implemented inside the dispatcher's idle queue; data-aware
//!   dispatch is listed as future work in the paper).
//! * **Replay policy** — re-dispatch a task whose response is missing or
//!   failed, up to a retry bound ([`ReplayPolicy`]).
//! * **Resource acquisition policy** — how many executors to request from
//!   the LRM, and in what request pattern ([`AcquisitionPolicy`], all five
//!   strategies from the paper).
//! * **Resource release policy** — centralized (provisioner decides from
//!   global state) or distributed (each executor releases itself after an
//!   idle timeout) ([`ReleasePolicy`]).

use crate::Micros;

/// Re-dispatch behaviour for lost or failed tasks.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ReplayPolicy {
    /// Maximum number of re-dispatches before the task is reported failed.
    pub max_retries: u32,
    /// Fixed slack added to the task's estimated runtime to form the
    /// response deadline (µs).
    pub timeout_slack_us: Micros,
    /// Multiplier applied to the estimated runtime when computing the
    /// deadline (≥ 1.0).
    pub runtime_factor: f64,
    /// Whether a non-zero exit code also triggers a replay (a "failed
    /// response" in the paper's terms).
    pub retry_on_failure: bool,
    /// Extra deadline slack per MiB of declared task data (µs). Staging is
    /// not part of the runtime estimate, and under shared-filesystem
    /// contention it can dwarf it; without this term every data-heavy task
    /// would be spuriously replayed.
    pub io_slack_us_per_mib: Micros,
}

impl Default for ReplayPolicy {
    fn default() -> Self {
        ReplayPolicy {
            max_retries: 3,
            timeout_slack_us: 60_000_000, // 60 s of slack
            runtime_factor: 2.0,
            retry_on_failure: false,
            io_slack_us_per_mib: 10_000_000, // 10 s per MiB: covers worst
                                             // observed shared-FS contention
        }
    }
}

impl ReplayPolicy {
    /// Deadline (µs after dispatch) for a task with the given estimated
    /// runtime. Unknown runtimes get the slack alone.
    pub(crate) fn deadline_us(&self, estimated_runtime_us: Micros) -> Micros {
        let scaled = (estimated_runtime_us as f64 * self.runtime_factor.max(1.0)) as Micros;
        scaled.saturating_add(self.timeout_slack_us)
    }

    /// Deadline for a full task spec: runtime-based deadline plus an
    /// allowance for its declared data staging.
    pub fn deadline_for(&self, spec: &falkon_proto::task::TaskSpec) -> Micros {
        let io = spec
            .data()
            .map(|d| {
                let mib = d.bytes.div_ceil(1 << 20);
                mib.saturating_mul(self.io_slack_us_per_mib)
            })
            .unwrap_or(0);
        self.deadline_us(spec.runtime_us()).saturating_add(io)
    }
}

/// The five resource-acquisition strategies of Section 3.1.
///
/// Each strategy decides, given a deficit of `needed` executors, how many
/// executors to ask the LRM for and split across how many requests.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum AcquisitionPolicy {
    /// One request for all `n` needed resources (the policy used in all of
    /// the paper's experiments).
    AllAtOnce,
    /// `n` requests for one resource each.
    OneAtATime,
    /// A series of arithmetically growing requests: `base, base+step, …`.
    Additive {
        /// Size of the first request.
        base: u32,
        /// Increment per subsequent request.
        step: u32,
    },
    /// A series of exponentially growing requests: `base, base*2, base*4, …`.
    Exponential {
        /// Size of the first request.
        base: u32,
    },
    /// Ask for `min(needed, available)` where `available` comes from LRM
    /// system functions (e.g. `showq`); falls back to all-at-once when the
    /// LRM cannot report availability.
    AvailableAware,
}

impl AcquisitionPolicy {
    /// Split a deficit of `needed` executors into LRM request sizes.
    /// `lrm_available` is the LRM's idle-node report, when known.
    pub(crate) fn request_sizes(&self, needed: u32, lrm_available: Option<u32>) -> Vec<u32> {
        if needed == 0 {
            return Vec::new();
        }
        match *self {
            AcquisitionPolicy::AllAtOnce => vec![needed],
            AcquisitionPolicy::OneAtATime => vec![1; needed as usize],
            AcquisitionPolicy::Additive { base, step } => {
                let mut out = Vec::new();
                let mut size = base.max(1);
                let mut remaining = needed;
                while remaining > 0 {
                    let take = size.min(remaining);
                    out.push(take);
                    remaining -= take;
                    size = size.saturating_add(step);
                }
                out
            }
            AcquisitionPolicy::Exponential { base } => {
                let mut out = Vec::new();
                let mut size = base.max(1);
                let mut remaining = needed;
                while remaining > 0 {
                    let take = size.min(remaining);
                    out.push(take);
                    remaining -= take;
                    size = size.saturating_mul(2);
                }
                out
            }
            AcquisitionPolicy::AvailableAware => match lrm_available {
                Some(avail) => vec![needed.min(avail.max(1))],
                None => vec![needed],
            },
        }
    }
}

/// When to release acquired resources (Section 3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReleasePolicy {
    /// Distributed: executors self-release after
    /// `ExecutorConfig::idle_release_us`. This is the policy used in the
    /// paper's provisioning experiments (idle times 15/60/120/180 s).
    DistributedIdle,
    /// Centralized: the provisioner releases one allocation whenever the
    /// dispatcher has fewer than `min_queued` queued tasks.
    CentralizedQueueThreshold {
        /// Queue-length threshold below which resources are released.
        min_queued: u64,
    },
}

/// Full provisioner configuration: bounds plus acquisition/release strategy
/// (the parameters the dispatcher initializes the provisioner with, per
/// Section 3.2).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ProvisionerPolicy {
    /// Never drop below this many executors.
    pub min_executors: u32,
    /// Never exceed this many executors.
    pub max_executors: u32,
    /// How to size LRM requests.
    pub acquisition: AcquisitionPolicy,
    /// When to let resources go.
    pub release: ReleasePolicy,
    /// Wall-time bound attached to each LRM allocation request (µs).
    pub allocation_duration_us: Micros,
    /// How often to poll dispatcher state (µs). The paper's provisioner
    /// polls periodically ({POLL} in Figure 2).
    pub poll_interval_us: Micros,
}

impl Default for ProvisionerPolicy {
    fn default() -> Self {
        ProvisionerPolicy {
            min_executors: 0,
            max_executors: 32,
            acquisition: AcquisitionPolicy::AllAtOnce,
            release: ReleasePolicy::DistributedIdle,
            allocation_duration_us: 3_600_000_000, // one hour
            poll_interval_us: 1_000_000,           // 1 s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_deadline_scales_runtime() {
        let p = ReplayPolicy {
            max_retries: 3,
            timeout_slack_us: 10,
            runtime_factor: 2.0,
            retry_on_failure: false,
            io_slack_us_per_mib: 10_000_000,
        };
        assert_eq!(p.deadline_us(100), 210);
        assert_eq!(p.deadline_us(0), 10);
    }

    #[test]
    fn replay_factor_clamped_to_one() {
        let p = ReplayPolicy {
            runtime_factor: 0.1,
            timeout_slack_us: 0,
            ..ReplayPolicy::default()
        };
        assert_eq!(p.deadline_us(100), 100);
    }

    #[test]
    fn all_at_once_single_request() {
        assert_eq!(
            AcquisitionPolicy::AllAtOnce.request_sizes(32, None),
            vec![32]
        );
        assert!(AcquisitionPolicy::AllAtOnce
            .request_sizes(0, None)
            .is_empty());
    }

    #[test]
    fn one_at_a_time_n_requests() {
        let r = AcquisitionPolicy::OneAtATime.request_sizes(5, None);
        assert_eq!(r, vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn additive_grows_arithmetically() {
        let r = AcquisitionPolicy::Additive { base: 1, step: 2 }.request_sizes(16, None);
        assert_eq!(r, vec![1, 3, 5, 7]); // 1+3+5+7 = 16
        assert_eq!(r.iter().sum::<u32>(), 16);
    }

    #[test]
    fn exponential_doubles() {
        let r = AcquisitionPolicy::Exponential { base: 1 }.request_sizes(10, None);
        assert_eq!(r, vec![1, 2, 4, 3]); // capped at the remaining deficit
        assert_eq!(r.iter().sum::<u32>(), 10);
    }

    #[test]
    fn available_aware_caps_at_lrm_report() {
        let p = AcquisitionPolicy::AvailableAware;
        assert_eq!(p.request_sizes(100, Some(40)), vec![40]);
        assert_eq!(p.request_sizes(100, None), vec![100]);
        assert_eq!(p.request_sizes(10, Some(0)), vec![1]); // at least one
    }

    /// A first request of 0 asks for one, and growth saturates rather
    /// than overflowing.
    #[test]
    fn growing_requests_start_at_one_and_saturate() {
        let additive = |base, step| AcquisitionPolicy::Additive { base, step };
        let exponential = |base| AcquisitionPolicy::Exponential { base };
        assert_eq!(additive(0, 0).request_sizes(3, None), vec![1, 1, 1]);
        assert_eq!(exponential(0).request_sizes(3, None), vec![1, 2]);
        assert_eq!(additive(1, u32::MAX).request_sizes(5, None), vec![1, 4]);
        let half = 1 << 31;
        assert_eq!(
            exponential(half).request_sizes(u32::MAX, None),
            vec![half, half - 1]
        );
    }

    #[test]
    fn request_sizes_always_sum_to_at_most_needed_or_capped() {
        for policy in [
            AcquisitionPolicy::AllAtOnce,
            AcquisitionPolicy::OneAtATime,
            AcquisitionPolicy::Additive { base: 2, step: 3 },
            AcquisitionPolicy::Exponential { base: 2 },
        ] {
            for needed in [1u32, 7, 32, 100] {
                let total: u32 = policy.request_sizes(needed, None).iter().sum();
                assert_eq!(total, needed, "{policy:?} needed={needed}");
            }
        }
    }
}

#[cfg(test)]
mod deadline_io_tests {
    use super::*;
    use falkon_proto::task::{DataAccess, DataLocation, TaskSpec};

    /// Bug class: data-heavy tasks were replayed because the deadline only
    /// covered the runtime estimate; `deadline_for` must scale with bytes.
    #[test]
    fn deadline_accounts_for_declared_data() {
        let p = ReplayPolicy::default();
        let plain = TaskSpec::sleep(1, 0);
        let heavy = TaskSpec::sleep(2, 0).with_data(
            1 << 30, // 1 GiB
            DataLocation::SharedFs,
            DataAccess::ReadWrite,
        );
        let base = p.deadline_for(&plain);
        let with_io = p.deadline_for(&heavy);
        assert_eq!(base, p.deadline_us(0));
        // 1,024 MiB × 10 s/MiB on top of the base slack.
        assert_eq!(with_io, base + 1_024 * p.io_slack_us_per_mib);
    }

    #[test]
    fn tiny_data_rounds_up_to_one_mib() {
        let p = ReplayPolicy::default();
        let t = TaskSpec::sleep(1, 0).with_data(1, DataLocation::SharedFs, DataAccess::Read);
        assert_eq!(p.deadline_for(&t), p.deadline_us(0) + p.io_slack_us_per_mib);
    }

    /// Limits as long as time saturate instead of overflowing.
    #[test]
    fn endless_slacks_saturate() {
        let p = ReplayPolicy {
            timeout_slack_us: Micros::MAX,
            io_slack_us_per_mib: Micros::MAX,
            ..ReplayPolicy::default()
        };
        let t = TaskSpec::sleep(1, 10).with_data(2 << 20, DataLocation::SharedFs, DataAccess::Read);
        assert_eq!(p.deadline_us(10), Micros::MAX);
        assert_eq!(p.deadline_for(&t), Micros::MAX);
        let io_only = ReplayPolicy {
            timeout_slack_us: 0,
            ..p
        };
        assert_eq!(io_only.deadline_for(&t), Micros::MAX);
    }
}
