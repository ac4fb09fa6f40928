//! A stand-in for GSISecureConversation.
//!
//! The paper measures Falkon at 487 tasks/sec without security and 204
//! tasks/sec with GSISecureConversation (authentication + encryption). The
//! Figure 3 reproduction's gap is the simulator's calibrated cost; what
//! this module gives the socket runtime is *real per-byte and per-message
//! work* on both ends of every exchange, through a toy authenticated-
//! encryption channel:
//!
//! * a two-message nonce-exchange handshake deriving a shared session key
//!   from a pre-shared secret (stands in for the GSI handshake), and
//! * per frame, one pass over the payload in 8-byte words: each word is
//!   xored with a xorshift64* keystream and the ciphertext word is folded
//!   into a 64-bit FNV-style tag, `h = (h ^ w) * FNV_PRIME`, keyed by the
//!   session key xor the frame counter. The last `len % 8` bytes are folded
//!   one at a time. The tag covers every ciphertext byte, and the handshake
//!   authenticates its nonce with the same fold.
//!
//! **This is not cryptographically secure** — it is a CPU-cost stand-in,
//! clearly out of scope to replace a vetted AEAD. Any single flipped bit
//! is caught, but a difference in a word's top bit never leaves the tag's
//! top bit, so such flips in two words cancel. The one pass is what the
//! secure arms of `repro measured` and the benchmark's secure workload pay.

use crate::error::CodecError;

/// Bytes of the tag appended to every sealed frame.
pub const MAC_LEN: usize = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fold one word (or one tail byte) into a tag.
fn fold(tag: u64, w: u64) -> u64 {
    (tag ^ w).wrapping_mul(FNV_PRIME)
}

/// The tag of the single word `w` under `key`: what the frame pass
/// computes for an 8-byte frame, and the handshake's MAC.
fn mac_word(key: u64, w: u64) -> u64 {
    fold(FNV_OFFSET ^ key, w)
}

/// Xorshift64* keystream generator.
struct KeyStream {
    state: u64,
}

impl KeyStream {
    fn new(key: u64, counter: u64) -> Self {
        // Never allow a zero state.
        KeyStream {
            state: (key ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1,
        }
    }

    /// The next 8 keystream bytes, as a little-endian word.
    fn next_word(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The one pass both directions share: xor `data` in place with frame
/// `counter`'s keystream, folding each ciphertext word into the tag as it
/// goes — the word written when sealing (`SEAL`), the word read when
/// opening. Returns the tag.
fn crypt<const SEAL: bool>(key: u64, counter: u64, data: &mut [u8]) -> u64 {
    let mut stream = KeyStream::new(key, counter);
    let mut tag = FNV_OFFSET ^ key ^ counter;
    let mut words = data.chunks_exact_mut(8);
    for chunk in &mut words {
        if let Some(bytes) = chunk.first_chunk_mut::<8>() {
            let w = u64::from_le_bytes(*bytes);
            let x = w ^ stream.next_word();
            tag = fold(tag, if SEAL { x } else { w });
            *bytes = x.to_le_bytes();
        }
    }
    let pad = stream.next_word().to_le_bytes();
    for (b, k) in words.into_remainder().iter_mut().zip(pad) {
        let x = *b ^ k;
        tag = fold(tag, u64::from(if SEAL { x } else { *b }));
        *b = x;
    }
    tag
}

/// One endpoint of a secured conversation.
///
/// Both sides construct with the same pre-shared secret, exchange
/// [`SecureChannel::handshake_message`]s and feed the peer's into
/// [`SecureChannel::complete_handshake`]. The established channel is then
/// torn into its [`SealHalf`]/[`OpenHalf`] pair
/// ([`SecureChannel::into_halves`]), which seal and open frames: the send
/// and receive counters are independent, so each direction can live
/// wherever its frames are written or read.
pub struct SecureChannel {
    psk: u64,
    local_nonce: u64,
    /// Both directions, once the handshake is complete.
    halves: Option<(SealHalf, OpenHalf)>,
}

/// The sending direction of an established [`SecureChannel`]: session key
/// plus the send counter. Owned by whichever thread writes frames.
pub struct SealHalf {
    key: u64,
    counter: u64,
}

impl SealHalf {
    /// Seal the plaintext already at `buf[from..]` in place and append its
    /// tag — the send path encodes straight into its outbound batch behind
    /// a frame header, then seals there. A `from` past the end seals an
    /// empty frame. Consumes one send counter.
    pub fn seal_in_place(&mut self, buf: &mut Vec<u8>, from: usize) {
        let body = buf.get_mut(from..).unwrap_or_default();
        let tag = crypt::<true>(self.key, self.counter, body);
        buf.extend_from_slice(&tag.to_le_bytes());
        self.counter += 1;
    }

    /// Seal `payload`, appending ciphertext + tag to `out` (no per-frame
    /// allocation). Consumes one send counter.
    pub fn seal_into(&mut self, payload: &[u8], out: &mut Vec<u8>) {
        let from = out.len();
        out.extend_from_slice(payload);
        self.seal_in_place(out, from);
    }
}

/// The receiving direction of an established [`SecureChannel`]: session key
/// plus the receive counter. Owned by whichever thread reads frames.
pub struct OpenHalf {
    key: u64,
    counter: u64,
}

impl OpenHalf {
    /// Verify-and-decrypt one sealed frame in place, returning the
    /// plaintext as a subslice of `sealed` — zero allocation, for unsealing
    /// a borrowed frame view straight out of the receive buffer. Consumes
    /// one receive counter only on success: a rejected frame leaves the
    /// counter, and its bytes, as they came.
    pub fn open_in_place<'a>(&mut self, sealed: &'a mut [u8]) -> Result<&'a [u8], CodecError> {
        let Some((body, tag)) = sealed.split_last_chunk_mut::<MAC_LEN>() else {
            return Err(CodecError::Truncated { context: "sealed" });
        };
        if crypt::<false>(self.key, self.counter, body) != u64::from_le_bytes(*tag) {
            // Xor the keystream back in: the ciphertext as it came.
            crypt::<true>(self.key, self.counter, body);
            return Err(CodecError::MacMismatch);
        }
        self.counter += 1;
        Ok(body)
    }
}

impl SecureChannel {
    /// Create an endpoint with a pre-shared secret and a locally chosen
    /// nonce (callers supply randomness so the crate stays deterministic
    /// under test).
    pub fn new(psk: u64, local_nonce: u64) -> Self {
        SecureChannel {
            psk,
            local_nonce,
            halves: None,
        }
    }

    /// The handshake message to send to the peer: our nonce authenticated
    /// under the pre-shared key.
    pub fn handshake_message(&self) -> Vec<u8> {
        let mut out = self.local_nonce.to_le_bytes().to_vec();
        out.extend_from_slice(&mac_word(self.psk, self.local_nonce).to_le_bytes());
        out
    }

    /// Verify the peer's handshake message and derive the session key.
    pub fn complete_handshake(&mut self, peer_msg: &[u8]) -> Result<(), CodecError> {
        let Some((nonce_bytes, mac_rest)) = peer_msg.split_first_chunk::<8>() else {
            return Err(CodecError::Truncated {
                context: "handshake",
            });
        };
        let Ok(mac_bytes) = <[u8; MAC_LEN]>::try_from(mac_rest) else {
            return Err(CodecError::Truncated {
                context: "handshake",
            });
        };
        let peer_nonce = u64::from_le_bytes(*nonce_bytes);
        if mac_word(self.psk, peer_nonce) != u64::from_le_bytes(mac_bytes) {
            return Err(CodecError::MacMismatch);
        }
        // Order-independent key derivation so both sides agree.
        let key = mac_word(self.psk, self.local_nonce ^ peer_nonce);
        self.halves = Some((SealHalf { key, counter: 0 }, OpenHalf { key, counter: 0 }));
        Ok(())
    }

    /// Tear an established channel into its two directions, each with its
    /// counter at zero, so a reader and a writer can each own one without
    /// a lock.
    pub fn into_halves(self) -> Result<(SealHalf, OpenHalf), CodecError> {
        self.halves.ok_or(CodecError::HandshakeIncomplete)
    }
}

/// Establish a pair of channels that have completed a mutual handshake —
/// convenience for tests and for replaying the seal and open costs.
#[expect(
    clippy::expect_used,
    reason = "both endpoints share one psk in one process, so the MAC check cannot fail; \
              real peers go through the fallible `complete_handshake`"
)]
pub fn established_pair(psk: u64, nonce_a: u64, nonce_b: u64) -> (SecureChannel, SecureChannel) {
    let mut a = SecureChannel::new(psk, nonce_a);
    let mut b = SecureChannel::new(psk, nonce_b);
    let ha = a.handshake_message();
    let hb = b.handshake_message();
    a.complete_handshake(&hb).expect("handshake a<-b");
    b.complete_handshake(&ha).expect("handshake b<-a");
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session_key(c: &SecureChannel) -> Option<u64> {
        c.halves.as_ref().map(|(seal, _)| seal.key)
    }

    /// Both ends of an established pair, each split into its halves.
    fn split_pair(psk: u64) -> ((SealHalf, OpenHalf), (SealHalf, OpenHalf)) {
        let (a, b) = established_pair(psk, 1, 2);
        (a.into_halves().unwrap(), b.into_halves().unwrap())
    }

    fn sealed(seal: &mut SealHalf, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        seal.seal_into(payload, &mut out);
        out
    }

    #[test]
    fn handshake_derives_matching_keys() {
        let (a, b) = established_pair(0x5ec3e7, 111, 222);
        assert!(session_key(&a).is_some());
        assert_eq!(session_key(&a), session_key(&b));
    }

    #[test]
    fn seal_open_roundtrip() {
        let ((mut seal, _), (_, mut open)) = split_pair(42);
        for i in 0..10u8 {
            let msg = vec![i; 100 + i as usize];
            let mut frame = sealed(&mut seal, &msg);
            assert_ne!(frame[..msg.len()], msg[..], "payload must be transformed");
            assert_eq!(open.open_in_place(&mut frame).unwrap(), &msg[..]);
        }
    }

    #[test]
    fn bidirectional_counters_independent() {
        let ((mut seal_a, mut open_a), (mut seal_b, mut open_b)) = split_pair(42);
        let mut s1 = sealed(&mut seal_a, b"ping");
        let mut s2 = sealed(&mut seal_b, b"pong");
        assert_eq!(open_b.open_in_place(&mut s1).unwrap(), b"ping");
        assert_eq!(open_a.open_in_place(&mut s2).unwrap(), b"pong");
    }

    #[test]
    fn tampering_detected() {
        let ((mut seal, _), (_, mut open)) = split_pair(42);
        let mut frame = sealed(&mut seal, b"secret payload");
        frame[3] ^= 0x01;
        assert_eq!(open.open_in_place(&mut frame), Err(CodecError::MacMismatch));
    }

    #[test]
    fn replay_detected_by_counter() {
        let ((mut seal, _), (_, mut open)) = split_pair(42);
        let frame = sealed(&mut seal, b"once");
        assert!(open.open_in_place(&mut frame.clone()).is_ok());
        // Replaying the same frame fails: receive counter advanced.
        assert_eq!(
            open.open_in_place(&mut frame.clone()),
            Err(CodecError::MacMismatch)
        );
    }

    #[test]
    fn wrong_psk_fails_handshake() {
        let a = SecureChannel::new(1, 10);
        let mut b = SecureChannel::new(2, 20);
        assert_eq!(
            b.complete_handshake(&a.handshake_message()),
            Err(CodecError::MacMismatch)
        );
    }

    #[test]
    fn seal_before_handshake_fails() {
        // A channel whose handshake was rejected has no halves to seal or
        // open with.
        let a = SecureChannel::new(1, 10);
        let mut b = SecureChannel::new(2, 20);
        assert!(b.complete_handshake(&a.handshake_message()).is_err());
        assert!(matches!(
            b.into_halves(),
            Err(CodecError::HandshakeIncomplete)
        ));
    }

    #[test]
    fn seal_into_appends_identically_to_seal() {
        let ((mut seal, _), _) = split_pair(42);
        let ((mut twin, _), _) = split_pair(42);
        let owned = sealed(&mut seal, b"payload bytes");
        let mut appended = vec![0xAA, 0xBB];
        twin.seal_into(b"payload bytes", &mut appended);
        assert_eq!(&appended[..2], &[0xAA, 0xBB], "prefix untouched");
        assert_eq!(&appended[2..], &owned[..]);
    }

    #[test]
    fn open_in_place_leaves_a_rejected_frame_and_counter_as_they_came() {
        let ((mut seal, _), (_, mut open)) = split_pair(42);
        for i in 0..5u8 {
            let msg = vec![i; 50 + i as usize];
            let mut frame = sealed(&mut seal, &msg);
            assert_eq!(open.open_in_place(&mut frame).unwrap(), &msg[..]);
        }
        // Tampering still detected, and the counter does not advance on
        // failure: re-opening the untampered bytes succeeds afterwards.
        let frame = sealed(&mut seal, b"tampered?");
        let mut bad = frame.clone();
        bad[0] ^= 1;
        assert_eq!(open.open_in_place(&mut bad), Err(CodecError::MacMismatch));
        bad[0] ^= 1;
        assert_eq!(bad, frame, "a rejected frame keeps its ciphertext");
        let mut good = frame;
        assert_eq!(open.open_in_place(&mut good).unwrap(), b"tampered?");
    }

    #[test]
    fn into_halves_requires_handshake() {
        assert!(SecureChannel::new(1, 1).into_halves().is_err());
    }

    /// The first `n` frames of a fixed session, each a word and a tail,
    /// sealed and in hex.
    fn known_frames(n: usize) -> Vec<String> {
        let ((mut seal, _), _) = split_pair(0x5EC);
        let hex = |b: Vec<u8>| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        (0..n)
            .map(|_| hex(sealed(&mut seal, b"falkon frame")))
            .collect()
    }

    /// The first frame of a session, sealed, is a function of the session
    /// key alone: a change to the keystream or the tag changes it.
    #[test]
    fn a_session_s_first_sealed_frame_is_a_known_answer() {
        assert_eq!(
            known_frames(1),
            ["7f4260515c26926a913088e21f771338cf895eb8"]
        );
    }

    /// The second frame's keystream and tag also fold in the frame counter:
    /// a change to how the counter is mixed in changes it.
    #[test]
    fn a_session_s_second_sealed_frame_is_a_known_answer() {
        let second = &known_frames(2)[1];
        assert_eq!(second, "bba7bfac7b38965bda75d284548770335bf152f2");
    }

    #[test]
    fn distinct_frames_use_distinct_keystreams() {
        let ((mut seal, _), _) = split_pair(42);
        let s1 = sealed(&mut seal, &[0u8; 32]);
        let s2 = sealed(&mut seal, &[0u8; 32]);
        assert_ne!(s1, s2);
    }
}
