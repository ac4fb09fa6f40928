//! Falkon: a Fast and Light-weight tasK executiON framework — facade crate.
//!
//! Re-exports the whole workspace so examples, integration tests and
//! downstream users have one import point.
//!
//! # Quick start
//!
//! Run a workload through a real deployment on loopback sockets:
//!
//! ```
//! use falkon::rt::inproc::{run_sleep_workload, InprocConfig};
//!
//! let out = run_sleep_workload(&InprocConfig::default(), 100, 0);
//! assert_eq!(out.tasks, 100);
//! assert!(out.throughput > 0.0);
//! ```
//!
//! Or simulate the paper's testbed in virtual time:
//!
//! ```
//! use falkon::exp::simfalkon::{SimFalkon, SimFalkonConfig};
//! use falkon::proto::task::TaskSpec;
//!
//! let mut sim = SimFalkon::new(SimFalkonConfig {
//!     executors: 64,
//!     ..SimFalkonConfig::default()
//! });
//! sim.submit(0, (0..1_000).map(|i| TaskSpec::sleep(i, 0)).collect());
//! let outcome = sim.run_until_drained();
//! assert_eq!(outcome.tasks, 1_000);
//! // Dispatcher CPU is calibrated to the paper's 487 tasks/sec.
//! assert!(outcome.throughput > 300.0 && outcome.throughput < 520.0);
//! ```

pub use falkon_core as core;
pub use falkon_exp as exp;
pub use falkon_fs as fs;
pub use falkon_lrm as lrm;
pub use falkon_obs as obs;
pub use falkon_proto as proto;
pub use falkon_rt as rt;
pub use falkon_sim as sim;
pub use falkon_workflow as workflow;
