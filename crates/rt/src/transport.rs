//! Per-hop message processing: how much real work each exchange costs.
//!
//! The paper's throughput comparison hinges on what happens to every
//! message: GT4 serializes XML (expensive), GSISecureConversation
//! additionally authenticates and encrypts (2.4× more expensive). A
//! [`WireMode`] selects the equivalent treatment for our binary protocol;
//! [`Endpoint`] applies it symmetrically on send and receive, so the cost
//! is paid twice per hop like a real stack.

use falkon_proto::codec::{Codec, EfficientCodec};
use falkon_proto::error::CodecError;
use falkon_proto::message::Message;
use falkon_proto::security::{OpenHalf, SealHalf, SecureChannel, MAC_LEN};

/// How messages are processed on each hop.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WireMode {
    /// Messages pass as in-memory values: zero serialization cost. The
    /// upper bound no real deployment reaches.
    #[default]
    Plain,
    /// Messages are encoded/decoded on every hop (the WS-serialization
    /// analog; what "Falkon no security" pays).
    Encoded,
    /// Encoded and passed through the GSISecureConversation stand-in
    /// (encrypt + MAC on send, verify + decrypt on receive).
    Secure,
}

/// Bytes on the wire, or an in-memory message for `Plain` mode.
pub enum Packet {
    /// In-memory pass-through.
    Value(Message),
    /// Encoded (and possibly sealed) bytes.
    Bytes(Vec<u8>),
}

/// One side of a link, holding the security state when needed.
pub struct Endpoint {
    mode: WireMode,
    secure: Option<(SealHalf, OpenHalf)>,
    codec: EfficientCodec,
    /// Messages processed (observability).
    pub sent: u64,
    /// Messages received (observability).
    pub received: u64,
}

impl Endpoint {
    /// Create an endpoint. For [`WireMode::Secure`], `secure` must be an
    /// established channel whose peer is held by the other endpoint.
    pub fn new(mode: WireMode, secure: Option<SecureChannel>) -> Endpoint {
        assert_eq!(
            mode == WireMode::Secure,
            secure.is_some(),
            "secure channel required iff mode is Secure"
        );
        Endpoint {
            mode,
            secure: secure.map(|chan| chan.into_halves().expect("an established channel")),
            codec: EfficientCodec,
            sent: 0,
            received: 0,
        }
    }

    /// Prepare a message for the wire.
    pub fn pack(&mut self, msg: Message) -> Packet {
        self.sent += 1;
        match self.mode {
            WireMode::Plain => Packet::Value(msg),
            WireMode::Encoded => Packet::Bytes(self.codec.encode(&msg)),
            WireMode::Secure => {
                // Encoded straight into the packet and sealed there.
                let mut bytes = Vec::with_capacity(self.codec.encoded_len(&msg) + MAC_LEN);
                self.codec.encode_append(&msg, &mut bytes);
                let (seal, _) = self.secure.as_mut().expect("checked in new");
                seal.seal_in_place(&mut bytes, 0);
                Packet::Bytes(bytes)
            }
        }
    }

    /// Recover a message from the wire.
    pub fn unpack(&mut self, packet: Packet) -> Result<Message, CodecError> {
        self.received += 1;
        match (self.mode, packet) {
            (WireMode::Plain, Packet::Value(m)) => Ok(m),
            (WireMode::Encoded, Packet::Bytes(b)) => self.codec.decode(&b),
            (WireMode::Secure, Packet::Bytes(mut b)) => {
                let (_, open) = self.secure.as_mut().expect("checked in new");
                self.codec.decode(open.open_in_place(&mut b)?)
            }
            _ => Err(CodecError::Truncated {
                context: "mode/packet mismatch",
            }),
        }
    }
}

/// Build the two endpoints of a link in the given mode.
pub fn link(mode: WireMode, psk: u64, nonce_a: u64, nonce_b: u64) -> (Endpoint, Endpoint) {
    match mode {
        WireMode::Secure => {
            let (a, b) = falkon_proto::security::established_pair(psk, nonce_a, nonce_b);
            (Endpoint::new(mode, Some(a)), Endpoint::new(mode, Some(b)))
        }
        _ => (Endpoint::new(mode, None), Endpoint::new(mode, None)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falkon_proto::message::NotifyKey;
    use falkon_proto::task::TaskSpec;

    fn sample() -> Message {
        Message::Work {
            tasks: vec![TaskSpec::sleep(1, 0), TaskSpec::sleep(2, 3)],
        }
    }

    #[test]
    fn plain_roundtrip() {
        let (mut a, mut b) = link(WireMode::Plain, 0, 0, 0);
        let p = a.pack(sample());
        assert_eq!(b.unpack(p).unwrap(), sample());
    }

    #[test]
    fn encoded_roundtrip() {
        let (mut a, mut b) = link(WireMode::Encoded, 0, 0, 0);
        let p = a.pack(sample());
        match &p {
            Packet::Bytes(bytes) => assert!(!bytes.is_empty()),
            _ => panic!("expected bytes"),
        }
        assert_eq!(b.unpack(p).unwrap(), sample());
    }

    #[test]
    fn secure_roundtrip_ordered() {
        let (mut a, mut b) = link(WireMode::Secure, 99, 1, 2);
        for i in 0..20 {
            let m = Message::Notify { key: NotifyKey(i) };
            let p = a.pack(m.clone());
            assert_eq!(b.unpack(p).unwrap(), m);
        }
        assert_eq!(a.sent, 20);
        assert_eq!(b.received, 20);
    }

    #[test]
    fn secure_duplex() {
        let (mut a, mut b) = link(WireMode::Secure, 99, 1, 2);
        let p1 = a.pack(sample());
        let p2 = b.pack(Message::StatusPoll);
        assert_eq!(b.unpack(p1).unwrap(), sample());
        assert_eq!(a.unpack(p2).unwrap(), Message::StatusPoll);
    }

    #[test]
    #[should_panic(expected = "secure channel required")]
    fn secure_mode_needs_channel() {
        Endpoint::new(WireMode::Secure, None);
    }
}
