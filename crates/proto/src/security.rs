//! A stand-in for GSISecureConversation.
//!
//! The paper measures Falkon at 487 tasks/sec without security and 204
//! tasks/sec with GSISecureConversation (authentication + encryption). What
//! matters for reproducing that comparison is that the secure path performs
//! *real per-byte and per-message work* on both ends of every exchange. This
//! module implements a toy authenticated-encryption channel:
//!
//! * a two-message nonce-exchange handshake deriving a shared session key
//!   from a pre-shared secret (stands in for the GSI handshake),
//! * a keystream cipher (xorshift-based) over the payload, and
//! * a 64-bit FNV-1a MAC over the ciphertext keyed by the session key.
//!
//! **This is not cryptographically secure** — it is a calibrated CPU-cost
//! stand-in, clearly out of scope to replace a vetted AEAD. The work per byte
//! (two passes: cipher + MAC) is what produces the ~2.4× throughput gap in
//! the Figure 3 reproduction.

use crate::error::CodecError;

/// Whether a channel runs plaintext or secured.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SecurityMode {
    /// No authentication, no encryption (paper: "no security").
    #[default]
    None,
    /// Toy authenticated encryption (paper: GSISecureConversation).
    SecureConversation,
}

const MAC_LEN: usize = 8;

fn fnv1a64(key: u64, data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ key;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
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

    fn apply(&mut self, data: &mut [u8]) {
        for chunk in data.chunks_mut(8) {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let ks = self.state.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes();
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}

/// Encrypt-and-MAC `payload` for frame `counter`, appending ciphertext +
/// MAC to `out` without disturbing bytes already there. Shared by
/// [`SecureChannel::seal_into`] and [`SealHalf::seal_into`].
fn seal_frame(key: u64, counter: u64, payload: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(payload);
    let mut mac = 0u64;
    // `start <= out.len()` always, so the slice is never `None`; written
    // this way to keep the decode-scope file free of panicking indexing.
    if let Some(body) = out.get_mut(start..) {
        KeyStream::new(key, counter).apply(body);
        mac = fnv1a64(key ^ counter, body);
    }
    out.extend_from_slice(&mac.to_le_bytes());
}

/// Verify-and-decrypt the sealed frame `counter` *in place*: the MAC is
/// checked over the ciphertext, then the keystream is applied to the same
/// bytes, and the plaintext is returned as a subslice of `sealed`. No
/// allocation — this is the zero-copy inbound path's unseal step, run
/// directly on a borrowed [`crate::frame::FrameCursor`] view. Shared by
/// [`SecureChannel::open`] and [`OpenHalf::open_in_place`].
fn open_frame_in_place(key: u64, counter: u64, sealed: &mut [u8]) -> Result<&[u8], CodecError> {
    let Some((cipher, mac_bytes)) = sealed.split_last_chunk_mut::<MAC_LEN>() else {
        return Err(CodecError::Truncated { context: "sealed" });
    };
    let mac = u64::from_le_bytes(*mac_bytes);
    if fnv1a64(key ^ counter, cipher) != mac {
        return Err(CodecError::MacMismatch);
    }
    KeyStream::new(key, counter).apply(cipher);
    Ok(cipher)
}

/// Owned-result variant of [`open_frame_in_place`] for callers whose
/// plaintext must outlive the sealed buffer.
fn open_frame(key: u64, counter: u64, sealed: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut owned = sealed.to_vec();
    let plain_len = open_frame_in_place(key, counter, &mut owned)?.len();
    owned.truncate(plain_len);
    Ok(owned)
}

/// One endpoint of a secured conversation.
///
/// Both sides construct with the same pre-shared secret, exchange
/// [`SecureChannel::handshake_message`]s, feed the peer's into
/// [`SecureChannel::complete_handshake`], then [`SecureChannel::seal`] /
/// [`SecureChannel::open`] frames. Because the send and receive counters
/// are independent, an established channel can be torn into a
/// [`SealHalf`]/[`OpenHalf`] pair ([`SecureChannel::into_halves`]) so a
/// writer thread and a reader thread can each own their direction.
pub struct SecureChannel {
    psk: u64,
    local_nonce: u64,
    session_key: Option<u64>,
    send_counter: u64,
    recv_counter: u64,
}

/// The sending direction of an established [`SecureChannel`]: session key
/// plus the send counter. Owned by whichever thread writes frames.
pub struct SealHalf {
    key: u64,
    counter: u64,
}

impl SealHalf {
    /// Seal `payload`, appending ciphertext + MAC to `out` (no per-frame
    /// allocation). Consumes one send counter.
    pub fn seal_into(&mut self, payload: &[u8], out: &mut Vec<u8>) {
        seal_frame(self.key, self.counter, payload, out);
        self.counter += 1;
    }
}

/// The receiving direction of an established [`SecureChannel`]: session key
/// plus the receive counter. Owned by whichever thread reads frames.
pub struct OpenHalf {
    key: u64,
    counter: u64,
}

impl OpenHalf {
    /// Verify-and-decrypt one sealed frame. Consumes one receive counter.
    pub fn open(&mut self, sealed: &[u8]) -> Result<Vec<u8>, CodecError> {
        let plain = open_frame(self.key, self.counter, sealed)?;
        self.counter += 1;
        Ok(plain)
    }

    /// Verify-and-decrypt one sealed frame in place, returning the
    /// plaintext as a subslice of `sealed` — zero allocation, for unsealing
    /// a borrowed frame view straight out of the receive buffer. Consumes
    /// one receive counter only on success (a tampered frame leaves the
    /// counter untouched, like [`OpenHalf::open`]).
    pub fn open_in_place<'a>(&mut self, sealed: &'a mut [u8]) -> Result<&'a [u8], CodecError> {
        let plain = open_frame_in_place(self.key, self.counter, sealed)?;
        self.counter += 1;
        Ok(plain)
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
            session_key: None,
            send_counter: 0,
            recv_counter: 0,
        }
    }

    /// The handshake message to send to the peer: our nonce authenticated
    /// under the pre-shared key.
    pub fn handshake_message(&self) -> Vec<u8> {
        let mut out = self.local_nonce.to_le_bytes().to_vec();
        let mac = fnv1a64(self.psk, &out);
        out.extend_from_slice(&mac.to_le_bytes());
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
        let mac = u64::from_le_bytes(mac_bytes);
        if fnv1a64(self.psk, nonce_bytes) != mac {
            return Err(CodecError::MacMismatch);
        }
        let peer_nonce = u64::from_le_bytes(*nonce_bytes);
        // Order-independent key derivation so both sides agree.
        let mixed = self.local_nonce ^ peer_nonce;
        self.session_key = Some(fnv1a64(self.psk, &mixed.to_le_bytes()));
        Ok(())
    }

    /// Encrypt-and-MAC a payload. Consumes a send-counter so each frame uses
    /// a distinct keystream.
    pub fn seal(&mut self, payload: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::with_capacity(payload.len() + MAC_LEN);
        self.seal_into(payload, &mut out)?;
        Ok(out)
    }

    /// Like [`SecureChannel::seal`], but appends ciphertext + MAC to `out`
    /// instead of allocating — the send path can seal straight into an
    /// outbound batch buffer.
    pub fn seal_into(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
        let key = self.session_key.ok_or(CodecError::HandshakeIncomplete)?;
        seal_frame(key, self.send_counter, payload, out);
        self.send_counter += 1;
        Ok(())
    }

    /// Verify-and-decrypt a sealed frame.
    pub fn open(&mut self, sealed: &[u8]) -> Result<Vec<u8>, CodecError> {
        let key = self.session_key.ok_or(CodecError::HandshakeIncomplete)?;
        let plain = open_frame(key, self.recv_counter, sealed)?;
        self.recv_counter += 1;
        Ok(plain)
    }

    /// Tear an established channel into its two directions so a reader and
    /// a writer thread can each own one without a lock. Counter state
    /// carries over, so frames sealed before the split still open on the
    /// peer and vice versa.
    pub fn into_halves(self) -> Result<(SealHalf, OpenHalf), CodecError> {
        let key = self.session_key.ok_or(CodecError::HandshakeIncomplete)?;
        Ok((
            SealHalf {
                key,
                counter: self.send_counter,
            },
            OpenHalf {
                key,
                counter: self.recv_counter,
            },
        ))
    }
}

/// Establish a pair of channels that have completed a mutual handshake —
/// convenience for tests and in-process deployments.
#[expect(
    clippy::expect_used,
    reason = "both endpoints share one psk in-process, so the MAC check cannot fail; \
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

    #[test]
    fn handshake_derives_matching_keys() {
        let (a, b) = established_pair(0x5ec3e7, 111, 222);
        assert!(a.session_key.is_some());
        assert_eq!(a.session_key, b.session_key);
    }

    #[test]
    fn seal_open_roundtrip() {
        let (mut a, mut b) = established_pair(42, 1, 2);
        for i in 0..10u8 {
            let msg = vec![i; 100 + i as usize];
            let sealed = a.seal(&msg).unwrap();
            assert_ne!(sealed[..msg.len()], msg[..], "payload must be transformed");
            assert_eq!(b.open(&sealed).unwrap(), msg);
        }
    }

    #[test]
    fn bidirectional_counters_independent() {
        let (mut a, mut b) = established_pair(42, 1, 2);
        let s1 = a.seal(b"ping").unwrap();
        let s2 = b.seal(b"pong").unwrap();
        assert_eq!(b.open(&s1).unwrap(), b"ping");
        assert_eq!(a.open(&s2).unwrap(), b"pong");
    }

    #[test]
    fn tampering_detected() {
        let (mut a, mut b) = established_pair(42, 1, 2);
        let mut sealed = a.seal(b"secret payload").unwrap();
        sealed[3] ^= 0x01;
        assert_eq!(b.open(&sealed), Err(CodecError::MacMismatch));
    }

    #[test]
    fn replay_detected_by_counter() {
        let (mut a, mut b) = established_pair(42, 1, 2);
        let sealed = a.seal(b"once").unwrap();
        assert!(b.open(&sealed).is_ok());
        // Replaying the same frame fails: receive counter advanced.
        assert_eq!(b.open(&sealed), Err(CodecError::MacMismatch));
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
        let mut c = SecureChannel::new(1, 1);
        assert_eq!(c.seal(b"x"), Err(CodecError::HandshakeIncomplete));
        assert_eq!(c.open(b"xxxxxxxxx"), Err(CodecError::HandshakeIncomplete));
    }

    #[test]
    fn seal_into_appends_identically_to_seal() {
        let (mut a, mut a2) = (established_pair(42, 1, 2).0, established_pair(42, 1, 2).0);
        let owned = a.seal(b"payload bytes").unwrap();
        let mut appended = vec![0xAA, 0xBB];
        a2.seal_into(b"payload bytes", &mut appended).unwrap();
        assert_eq!(&appended[..2], &[0xAA, 0xBB], "prefix untouched");
        assert_eq!(&appended[2..], &owned[..]);
    }

    #[test]
    fn split_halves_interoperate_with_whole_channel() {
        let (mut a, mut b) = established_pair(42, 1, 2);
        // Advance both directions before splitting so counters carry over.
        let pre = a.seal(b"pre-split").unwrap();
        assert_eq!(b.open(&pre).unwrap(), b"pre-split");
        let s = b.seal(b"reply").unwrap();
        assert_eq!(a.open(&s).unwrap(), b"reply");

        let (mut seal, mut open) = a.into_halves().unwrap();
        let mut framed = Vec::new();
        seal.seal_into(b"post-split", &mut framed);
        assert_eq!(b.open(&framed).unwrap(), b"post-split");
        let s2 = b.seal(b"second reply").unwrap();
        assert_eq!(open.open(&s2).unwrap(), b"second reply");
        // Tampering still detected by the split half.
        let mut bad = b.seal(b"x").unwrap();
        bad[0] ^= 1;
        assert_eq!(open.open(&bad), Err(CodecError::MacMismatch));
    }

    #[test]
    fn open_in_place_matches_open() {
        let (mut a, b) = established_pair(42, 1, 2);
        let (_, mut open) = b.into_halves().unwrap();
        for i in 0..5u8 {
            let msg = vec![i; 50 + i as usize];
            let mut sealed = a.seal(&msg).unwrap();
            assert_eq!(open.open_in_place(&mut sealed).unwrap(), &msg[..]);
        }
        // Tampering still detected, and the counter does not advance on
        // failure: re-opening the untampered bytes succeeds afterwards.
        let sealed = a.seal(b"tampered?").unwrap();
        let mut bad = sealed.clone();
        bad[0] ^= 1;
        assert_eq!(open.open_in_place(&mut bad), Err(CodecError::MacMismatch));
        let mut good = sealed;
        assert_eq!(open.open_in_place(&mut good).unwrap(), b"tampered?");
    }

    #[test]
    fn into_halves_requires_handshake() {
        assert!(SecureChannel::new(1, 1).into_halves().is_err());
    }

    #[test]
    fn distinct_frames_use_distinct_keystreams() {
        let (mut a, _) = established_pair(42, 1, 2);
        let s1 = a.seal(&[0u8; 32]).unwrap();
        let s2 = a.seal(&[0u8; 32]).unwrap();
        assert_ne!(s1, s2);
    }
}
