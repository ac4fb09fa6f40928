//! [`WireTap`]: wire-level byte accounting as a sans-io machine.
//!
//! Transports (TCP framing, in-process channels, the simulator's modelled
//! links) know how many bytes each encoded bundle occupies, but drivers must
//! not construct [`ObsEvent`]s themselves — event provenance belongs to the
//! machines so both drivers produce identical streams (the invariant behind
//! `tests/obs_parity.rs`, checked by `tests/architecture.rs`). A
//! `WireTap` closes the gap: the driver reports raw byte counts with an
//! explicit `now`, and the tap — which lives on the sans-io side — turns
//! them into [`ObsEvent::BundleEncoded`] / [`ObsEvent::BundleDecoded`] and
//! feeds its mounted probe.

use crate::probe::{Counters, ObsEvent, Probe};
use crate::Micros;

/// Sans-io wire accounting: converts driver-reported byte counts into
/// `BundleEncoded` / `BundleDecoded` events on a mounted probe.
///
/// Defaults to a [`Counters`] probe, which is what the per-connection and
/// per-thread wire shards in `falkon-rt` use; the dispatcher thread mounts a
/// `Recorder` instead so its wire events land in the same shard as its
/// lifecycle events.
#[derive(Clone, Debug, Default)]
pub struct WireTap<P: Probe = Counters> {
    probe: P,
}

impl WireTap<Counters> {
    /// A tap aggregating into fresh [`Counters`].
    pub fn new() -> Self {
        WireTap::default()
    }
}

impl<P: Probe> WireTap<P> {
    /// A tap feeding an arbitrary probe.
    pub fn with_probe(probe: P) -> Self {
        WireTap { probe }
    }

    /// Record that one bundle was encoded to `bytes` wire bytes at `now`.
    #[inline]
    pub fn encoded(&mut self, now: Micros, bytes: u64) {
        self.probe.on_event(now, &ObsEvent::BundleEncoded { bytes });
    }

    /// Record that one bundle of `bytes` wire bytes was decoded at `now`.
    #[inline]
    pub fn decoded(&mut self, now: Micros, bytes: u64) {
        self.probe.on_event(now, &ObsEvent::BundleDecoded { bytes });
    }

    /// The mounted probe (for reading counters or merging shards).
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consume the tap, returning the mounted probe.
    pub fn into_probe(self) -> P {
        self.probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ObsEventKind;
    use crate::recorder::Recorder;

    #[test]
    fn counts_encoded_and_decoded_bytes() {
        let mut tap = WireTap::new();
        tap.encoded(10, 100);
        tap.encoded(20, 50);
        tap.decoded(30, 7);
        let c = tap.probe();
        assert_eq!(c.count(ObsEventKind::BundleEncoded), 2);
        assert_eq!(c.value(ObsEventKind::BundleEncoded), 150);
        assert_eq!(c.count(ObsEventKind::BundleDecoded), 1);
        assert_eq!(c.value(ObsEventKind::BundleDecoded), 7);
    }

    #[test]
    fn feeds_arbitrary_probe() {
        let mut tap = WireTap::with_probe(Recorder::new());
        tap.decoded(5, 64);
        let r = tap.into_probe();
        assert_eq!(r.counters.count(ObsEventKind::BundleDecoded), 1);
        assert_eq!(r.counters.value(ObsEventKind::BundleDecoded), 64);
    }
}
