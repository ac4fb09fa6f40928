//! The secure-channel stand-in at its word boundaries. Sealing and opening
//! run over 8-byte words with the last `len % 8` bytes folded one at a
//! time, so every payload length 0..=17 (empty, tail only, one word, word
//! plus tail, two words, two words plus tail) and one fat-task frame of
//! 1,100 bytes is sealed and attacked here:
//!
//! * every single-bit flip anywhere in the sealed frame is rejected, the
//!   rejected bytes are left as they came, and the receive counter does not
//!   move — the intact frame opens afterwards;
//! * every truncation is rejected;
//! * the in-place seal the connection runs behind a frame header writes
//!   the same bytes as `SealHalf::seal_into`;
//! * one golden frame pins ciphertext and tag, so any change to the
//!   stand-in's bytes shows up here as a diff.

use falkon_proto::error::CodecError;
use falkon_proto::frame::{begin_frame, end_frame, write_frame};
use falkon_proto::security::{established_pair, OpenHalf, SealHalf};

fn lengths() -> impl Iterator<Item = usize> {
    (0..=17).chain([1_100])
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + 7) as u8).collect()
}

fn halves() -> (SealHalf, OpenHalf) {
    let (a, b) = established_pair(0x5EC, 1, 2);
    (a.into_halves().unwrap().0, b.into_halves().unwrap().1)
}

#[test]
fn every_bit_flip_is_rejected_and_leaves_frame_and_counter_as_they_came() {
    for len in lengths() {
        let (mut seal, mut open) = halves();
        let mut sealed = Vec::new();
        seal.seal_into(&payload(len), &mut sealed);
        for bit in 0..sealed.len() * 8 {
            let mut flipped = sealed.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let as_came = flipped.clone();
            assert_eq!(
                open.open_in_place(&mut flipped),
                Err(CodecError::MacMismatch),
                "len {len}, bit {bit}"
            );
            assert_eq!(flipped, as_came, "len {len}, bit {bit}: bytes changed");
        }
        assert_eq!(open.open_in_place(&mut sealed).unwrap(), payload(len));
    }
}

#[test]
fn every_truncation_is_rejected() {
    for len in lengths() {
        let (mut seal, mut open) = halves();
        let mut sealed = Vec::new();
        seal.seal_into(&payload(len), &mut sealed);
        for cut in 0..sealed.len() {
            let mut short = sealed[..cut].to_vec();
            assert!(
                open.open_in_place(&mut short).is_err(),
                "len {len}, cut {cut}"
            );
        }
        assert_eq!(open.open_in_place(&mut sealed).unwrap(), payload(len));
    }
}

#[test]
fn in_place_seal_behind_a_frame_header_matches_seal_into() {
    for len in lengths() {
        let (mut in_place, _) = halves();
        let (mut appended, _) = halves();
        let (mut batch, mut want) = (vec![0xAB; 3], vec![0xAB; 3]);
        // Three frames, so the counters advance in step.
        for _ in 0..3 {
            // `Conn::enqueue`: header slot, plaintext encoded behind it,
            // sealed in place, length patched.
            let pos = begin_frame(&mut batch);
            batch.extend_from_slice(&payload(len));
            in_place.seal_in_place(&mut batch, pos + 4);
            end_frame(&mut batch, pos);

            let mut sealed = Vec::new();
            appended.seal_into(&payload(len), &mut sealed);
            write_frame(&mut want, &sealed);
        }
        assert_eq!(batch, want, "len {len}");
    }
}

/// Psk 0x5EC, nonces 1 and 2, frame 0: two words and a one-byte tail.
#[test]
fn golden_sealed_frame() {
    let (mut seal, mut open) = halves();
    let plain = b"falkon task 17 B!";
    let mut sealed = Vec::new();
    seal.seal_into(plain, &mut sealed);
    let (cipher, tag) = sealed.split_at(plain.len());
    #[rustfmt::skip]
    assert_eq!(cipher, [
        127, 66, 96, 81, 92, 38, 146, 120,
        130, 34, 142, 167, 44, 11, 8, 107,
        67,
    ]);
    assert_eq!(tag, [43, 136, 146, 59, 95, 116, 62, 110]);
    assert_eq!(open.open_in_place(&mut sealed).unwrap(), plain);
}
