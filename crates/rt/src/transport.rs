//! Per-hop message processing: how much real work each exchange costs.
//!
//! The paper's throughput comparison hinges on what happens to every
//! message: GT4 serializes XML (expensive), GSISecureConversation
//! additionally authenticates and encrypts (2.4× more expensive). A
//! [`WireMode`] selects the equivalent treatment for our binary protocol;
//! an `Endpoint` — the in-process counterpart of [`crate::conn::Conn`] —
//! applies it symmetrically on send and receive, so the cost is paid twice
//! per hop like a real stack, and charges its own [`WireTap`] once per
//! packet each way.

use falkon_obs::{Counters, WireTap};
use falkon_proto::codec::{Codec, EfficientCodec};
use falkon_proto::error::CodecError;
use falkon_proto::message::Message;
use falkon_proto::security::{established_pair, OpenHalf, SealHalf, SecureChannel, MAC_LEN};

/// How messages are processed on each hop.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WireMode {
    /// Messages are encoded/decoded on every hop (the WS-serialization
    /// analog; what "Falkon no security" pays).
    #[default]
    Encoded,
    /// Encoded and passed through the GSISecureConversation stand-in
    /// (encrypt + MAC on send, verify + decrypt on receive).
    Secure,
}

/// One side of an in-process link: the codec, the security state when the
/// mode asks for it, and the wire counters of both directions.
pub(crate) struct Endpoint {
    codec: EfficientCodec,
    secure: Option<(SealHalf, OpenHalf)>,
    wire: WireTap,
}

impl Endpoint {
    /// Encode (and seal) a message into the packet that crosses the hop.
    pub(crate) fn pack(&mut self, msg: &Message) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.codec.encoded_len(msg) + MAC_LEN);
        self.codec.encode_append(msg, &mut bytes);
        if let Some((seal, _)) = self.secure.as_mut() {
            seal.seal_in_place(&mut bytes, 0);
        }
        self.wire.encoded(bytes.len() as u64);
        bytes
    }

    /// Open (when sealed) and decode a packet from the peer endpoint.
    pub(crate) fn unpack(&mut self, mut packet: Vec<u8>) -> Result<Message, CodecError> {
        self.wire.decoded(packet.len() as u64);
        let plain = match self.secure.as_mut() {
            Some((_, open)) => open.open_in_place(&mut packet)?,
            None => &packet,
        };
        self.codec.decode(plain)
    }

    /// Frame counts and byte totals of both directions.
    pub(crate) fn wire(&self) -> &Counters {
        self.wire.counters()
    }
}

/// Build the two endpoints of a link in the given mode.
pub(crate) fn link(mode: WireMode, psk: u64, nonce_a: u64, nonce_b: u64) -> (Endpoint, Endpoint) {
    let endpoint = |secure| Endpoint {
        codec: EfficientCodec,
        secure,
        wire: WireTap::new(),
    };
    match mode {
        WireMode::Encoded => (endpoint(None), endpoint(None)),
        WireMode::Secure => {
            let (a, b) = established_pair(psk, nonce_a, nonce_b);
            let halves = |chan: SecureChannel| chan.into_halves().expect("an established channel");
            (endpoint(Some(halves(a))), endpoint(Some(halves(b))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falkon_obs::ObsEventKind;
    use falkon_proto::message::NotifyKey;
    use falkon_proto::task::TaskSpec;

    fn sample() -> Message {
        Message::Work {
            tasks: vec![TaskSpec::sleep(1, 0), TaskSpec::sleep(2, 3)],
        }
    }

    #[test]
    fn encoded_roundtrip() {
        let (mut a, mut b) = link(WireMode::Encoded, 0, 0, 0);
        let p = a.pack(&sample());
        assert!(!p.is_empty());
        assert_eq!(b.unpack(p).unwrap(), sample());
    }

    #[test]
    fn secure_roundtrip_ordered() {
        let (mut a, mut b) = link(WireMode::Secure, 99, 1, 2);
        for i in 0..20 {
            let m = Message::Notify { key: NotifyKey(i) };
            let p = a.pack(&m);
            assert_eq!(b.unpack(p).unwrap(), m);
        }
        assert_eq!(a.wire().count(ObsEventKind::BundleEncoded), 20);
        assert_eq!(b.wire().count(ObsEventKind::BundleDecoded), 20);
    }

    #[test]
    fn secure_duplex() {
        let (mut a, mut b) = link(WireMode::Secure, 99, 1, 2);
        let p1 = a.pack(&sample());
        let p2 = b.pack(&Message::StatusPoll);
        assert_eq!(b.unpack(p1).unwrap(), sample());
        assert_eq!(a.unpack(p2).unwrap(), Message::StatusPoll);
    }

    #[test]
    fn each_pack_and_unpack_charges_one_packet_and_a_link_balances() {
        use ObsEventKind::{BundleDecoded, BundleEncoded};
        for mode in [WireMode::Encoded, WireMode::Secure] {
            let (mut a, mut b) = link(mode, 7, 1, 2);
            for (i, m) in [sample(), Message::StatusPoll, sample()].iter().enumerate() {
                let p = a.pack(m);
                assert_eq!(a.wire().count(BundleEncoded), i as u64 + 1, "{mode:?}");
                b.unpack(p).unwrap();
                assert_eq!(b.wire().count(BundleDecoded), i as u64 + 1, "{mode:?}");
            }
            // Each side charged only its own direction, and every byte
            // sent was received.
            assert_eq!(a.wire().count(BundleDecoded), 0);
            assert_eq!(b.wire().count(BundleEncoded), 0);
            let sent = a.wire().value(BundleEncoded);
            assert!(sent > 0);
            assert_eq!(sent, b.wire().value(BundleDecoded), "{mode:?}");
        }
    }
}
