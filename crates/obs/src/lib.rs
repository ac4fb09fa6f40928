//! Sans-io observability for the Falkon reproduction.
//!
//! Every `falkon-core` state machine emits typed, explicitly-timestamped
//! lifecycle events ([`ObsEvent`]) into a [`Probe`]. The machines themselves
//! never read a clock or touch a sink: events carry [`Micros`] stamps
//! supplied by whichever driver is running them, so the *same* event stream
//! is produced under the real-time runtime (`falkon-rt`, wall-clock-derived
//! stamps) and the discrete-event simulator (`falkon-exp`, virtual time).
//!
//! Three probe implementations cover the common cases:
//!
//! * [`NoopProbe`] — the default; compiles to nothing.
//! * [`Counters`] — per-[`ObsEventKind`] event counts and value sums. The
//!   machines keep one internally, which is what their `stats()` accessors
//!   are derived from.
//! * [`Recorder`] — counters plus fixed-size latency [`Histogram`]s;
//!   mounted by the drivers (one per thread in `falkon-rt`, merged at
//!   join) to report p50/p90/p99/max dispatch overhead.
//!
//! Wire-level byte accounting goes through [`WireTap`]: drivers report raw
//! byte counts and the tap constructs the `BundleEncoded`/`BundleDecoded`
//! events, so drivers never build [`ObsEvent`]s themselves.
//!
//! The metric primitives ([`Histogram`], [`TimeSeries`]) and the
//! virtual-time types ([`SimTime`], [`SimDuration`]) live here too;
//! `falkon-sim` re-exports them.
#![forbid(unsafe_code)]

pub mod metrics;
pub mod probe;
pub mod recorder;
pub mod time;
pub mod wiretap;

pub use metrics::{Histogram, TimeSeries};
pub use probe::{Counters, NoopProbe, ObsEvent, ObsEventKind, Probe};
pub use recorder::Recorder;
pub use time::{SimDuration, SimTime};
pub use wiretap::WireTap;

/// Microsecond-resolution timestamp attached to every observed event.
/// Matches `falkon_core::Micros`: wall-clock-derived in the real-time
/// drivers, virtual in the simulator.
pub type Micros = u64;
