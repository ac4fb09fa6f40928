//! [`WireTap`]: wire-level byte and syscall accounting as a sans-io
//! machine.
//!
//! Transports (TCP framing, the simulator's modelled links) know how many
//! bytes each encoded bundle occupies, but drivers must not construct
//! [`ObsEvent`]s themselves — event provenance belongs to the machines so
//! both drivers produce identical streams (the invariant behind
//! `tests/obs_parity.rs`, checked by `tests/architecture.rs`). A
//! `WireTap` closes the gap: the driver reports raw byte counts, and the
//! tap — which lives on the sans-io side — turns them into
//! [`ObsEvent::BundleEncoded`] / [`ObsEvent::BundleDecoded`] and counts
//! them, and counts each socket `read` and `write` call a driver reports
//! ([`ObsEventKind::SocketRead`] / [`ObsEventKind::SocketWrite`]) and each
//! message that waited for the socket ([`ObsEventKind::SendDeferred`]).

use crate::probe::{Counters, ObsEvent, ObsEventKind};

/// Sans-io wire accounting: converts driver-reported byte counts into
/// `BundleEncoded` / `BundleDecoded` events on its own [`Counters`] — one
/// tap per connection, merged into the run's
/// counters when it ends.
#[derive(Clone, Debug, Default)]
pub struct WireTap {
    counters: Counters,
}

impl WireTap {
    /// A tap aggregating into fresh [`Counters`].
    pub fn new() -> Self {
        WireTap::default()
    }

    /// Record that one bundle was encoded to `bytes` wire bytes.
    #[inline]
    pub fn encoded(&mut self, bytes: u64) {
        self.counters.observe(&ObsEvent::BundleEncoded { bytes });
    }

    /// Record that one bundle of `bytes` wire bytes was decoded.
    #[inline]
    pub fn decoded(&mut self, bytes: u64) {
        self.counters.observe(&ObsEvent::BundleDecoded { bytes });
    }

    /// Record one socket `read` call that moved `bytes`.
    #[inline]
    pub fn read(&mut self, bytes: u64) {
        self.counters.add(ObsEventKind::SocketRead, 1, bytes);
    }

    /// Record one socket `write` call that moved `bytes`.
    #[inline]
    pub fn wrote(&mut self, bytes: u64) {
        self.counters.add(ObsEventKind::SocketWrite, 1, bytes);
    }

    /// Record one message that waited behind a full batch, encoded to `bytes`.
    #[inline]
    pub fn deferred(&mut self, bytes: u64) {
        self.counters.add(ObsEventKind::SendDeferred, 1, bytes);
    }

    /// The counters so far (for reading or merging shards).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Consume the tap, returning its counters.
    pub fn into_counters(self) -> Counters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_encoded_and_decoded_bytes() {
        let mut tap = WireTap::new();
        tap.encoded(100);
        tap.encoded(50);
        tap.decoded(7);
        let c = tap.counters();
        assert_eq!(c.count(ObsEventKind::BundleEncoded), 2);
        assert_eq!(c.value(ObsEventKind::BundleEncoded), 150);
        assert_eq!(c.count(ObsEventKind::BundleDecoded), 1);
        assert_eq!(c.value(ObsEventKind::BundleDecoded), 7);
    }

    #[test]
    fn counts_socket_calls_and_the_bytes_they_moved() {
        let mut tap = WireTap::new();
        tap.read(512);
        tap.read(0);
        tap.wrote(40);
        tap.deferred(9);
        let c = tap.counters();
        assert_eq!(c.count(ObsEventKind::SocketRead), 2);
        assert_eq!(c.value(ObsEventKind::SocketRead), 512);
        assert_eq!(c.count(ObsEventKind::SocketWrite), 1);
        assert_eq!(c.value(ObsEventKind::SocketWrite), 40);
        assert_eq!(c.count(ObsEventKind::SendDeferred), 1);
        assert_eq!(c.value(ObsEventKind::SendDeferred), 9);
    }
}
