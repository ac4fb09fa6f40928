//! Length-delimited framing for byte streams (TCP).
//!
//! A frame is `u32 little-endian length` followed by `length` payload bytes.
//! [`FrameCursor`] consumes arbitrary chunkings of the stream and yields
//! complete frames as **borrowed views** out of its own buffer — the
//! inbound hot path never copies a frame into a fresh allocation. The
//! property tests feed it byte-by-byte and in random splits to verify
//! reassembly.
//!
//! # Buffer discipline
//!
//! The cursor owns one contiguous buffer with two indices: `start` (bytes
//! already yielded as frames) and `end` (bytes received from the stream).
//! Yielding a frame only advances `start`; the consumed prefix is reclaimed
//! by *amortized compaction* — a single `copy_within` performed only when
//! the consumed prefix is at least as large as the live tail, never per
//! frame. Each compaction moves fewer bytes than were consumed since the
//! previous one, so the total copy traffic is bounded by the total stream
//! length (amortized O(1) per byte), unlike the old per-frame
//! `Vec::drain` which re-memmoved the entire buffered tail for every frame
//! a bursty peer delivered.
//!
//! Drivers that read straight from a socket skip the intermediate read
//! buffer entirely: [`FrameCursor::space`] hands out the spare tail of the
//! buffer for the `read(2)` to fill and [`FrameCursor::commit`] marks the
//! bytes received. The storage is a plain fully-initialized `Vec<u8>` (this
//! crate is `unsafe`-free), so "spare" bytes are zeroed once on growth and
//! reused forever after.

use crate::error::CodecError;

/// Maximum payload accepted in one frame: 64 MiB, matching the codec's
/// per-field sanity limit.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Prefix `payload` with its length and append to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(payload.len() <= MAX_FRAME_LEN, "frame too large");
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Reserve a length-prefix slot in `out` for a frame whose payload will be
/// appended in place (e.g. sealed or encoded directly into the buffer),
/// returning the slot position to hand to [`end_frame`]. Together with
/// [`end_frame`] this produces byte-identical output to [`write_frame`]
/// without materialising the payload separately.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let pos = out.len();
    out.extend_from_slice(&[0u8; 4]);
    pos
}

/// Patch the length prefix reserved by [`begin_frame`] once the payload has
/// been appended. `pos` must be a value returned by `begin_frame` on this
/// buffer with no intervening truncation.
pub fn end_frame(out: &mut [u8], pos: usize) {
    let len = out.len().saturating_sub(pos + 4);
    assert!(len <= MAX_FRAME_LEN, "frame too large");
    if let Some(slot) = out.get_mut(pos..pos + 4) {
        slot.copy_from_slice(&(len as u32).to_le_bytes());
    }
}

/// Minimum spare capacity [`FrameCursor::space`] guarantees: large enough
/// that a socket read can pull a full TCP window's worth of small frames in
/// one syscall. A read into that space that returns fewer bytes than this
/// has therefore emptied the socket.
pub const MIN_READ_SPACE: usize = 64 * 1024;

/// Incremental frame reassembler yielding borrowed frame views.
///
/// See the module docs for the buffer discipline. Views are handed out
/// mutably so a secure channel can verify-and-decrypt a sealed frame in
/// place ([`crate::security::OpenHalf::open_in_place`]) without copying it
/// out first.
#[derive(Default)]
pub struct FrameCursor {
    /// Fully-initialized storage; `start..end` is the live stream window.
    buf: Vec<u8>,
    /// Bytes already yielded as frames (reclaimed by compaction).
    start: usize,
    /// Bytes received from the stream.
    end: usize,
}

impl FrameCursor {
    /// Create an empty cursor.
    pub fn new() -> Self {
        FrameCursor::default()
    }

    /// Create a cursor backed by a recycled buffer (its contents are
    /// ignored, its capacity is reused). Pairs with [`FrameCursor::into_buf`]
    /// so connection churn does not re-allocate read buffers.
    pub fn with_buf(mut buf: Vec<u8>) -> Self {
        // Storage must stay fully initialized: `resize` (not `clear`) keeps
        // every byte of the capacity we intend to hand out as `space`.
        let cap = buf.capacity();
        buf.resize(cap, 0);
        FrameCursor {
            buf,
            start: 0,
            end: 0,
        }
    }

    /// Recover the backing buffer for recycling.
    pub fn into_buf(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes currently buffered but not yet yielded as frames.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Reclaim the consumed prefix, but only when it dominates the live
    /// tail — each compaction then moves fewer bytes than were consumed
    /// since the last one, keeping the total copy traffic linear in the
    /// stream length.
    fn compact(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start >= self.end - self.start {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Spare buffer tail for a stream read to fill, at least
    /// [`MIN_READ_SPACE`] (and at least `min`) bytes long. Call
    /// [`FrameCursor::commit`] with the byte count actually read.
    pub fn space(&mut self, min: usize) -> &mut [u8] {
        self.compact();
        let need = min.max(MIN_READ_SPACE);
        if self.buf.len() - self.end < need {
            // `reserve` keeps growth amortized; `resize` zero-fills only the
            // newly exposed bytes, once — they are reused forever after.
            self.buf.reserve(self.end + need - self.buf.len());
            let cap = self.buf.capacity();
            self.buf.resize(cap, 0);
        }
        self.buf.get_mut(self.end..).unwrap_or_default()
    }

    /// Mark `n` bytes of the slice returned by [`FrameCursor::space`] as
    /// received stream bytes. Clamped to the spare region, so a buggy
    /// over-commit cannot expose bytes the stream never wrote.
    pub fn commit(&mut self, n: usize) {
        self.end = (self.end + n).min(self.buf.len());
    }

    /// Feed a chunk of stream bytes (copying convenience for callers that
    /// do not read directly into [`FrameCursor::space`]).
    pub fn feed(&mut self, chunk: &[u8]) {
        let dst = self.space(chunk.len());
        if let Some(dst) = dst.get_mut(..chunk.len()) {
            dst.copy_from_slice(chunk);
        }
        self.commit(chunk.len());
    }

    /// Yield the next complete frame as a borrowed view into the buffer,
    /// if one is fully buffered. The view stays valid until the next call
    /// that touches the cursor (the borrow checker enforces this).
    ///
    /// Returns `Err` if the stream declares a frame longer than
    /// [`MAX_FRAME_LEN`] (the connection should be dropped).
    pub fn next_frame(&mut self) -> Result<Option<&mut [u8]>, CodecError> {
        let avail = self.buf.get(self.start..self.end).unwrap_or_default();
        let Some(header) = avail.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header) as usize;
        if len > MAX_FRAME_LEN {
            return Err(CodecError::LengthOverflow {
                context: "frame",
                len: len as u64,
            });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let frame_start = self.start + 4;
        self.start = frame_start + len;
        // The range is in bounds by the length check above; `get_mut` keeps
        // this file free of panicking indexing regardless.
        Ok(self.buf.get_mut(frame_start..frame_start + len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every frame currently complete in the cursor, copied out.
    fn drain_frames(cur: &mut FrameCursor) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(f) = cur.next_frame().unwrap() {
            out.push(f.to_vec());
        }
        out
    }

    #[test]
    fn reassembles_byte_by_byte() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"abc");
        write_frame(&mut stream, b"");
        write_frame(&mut stream, &[9u8; 1000]);
        let mut cur = FrameCursor::new();
        let mut frames = Vec::new();
        for &b in &stream {
            cur.feed(&[b]);
            frames.extend(drain_frames(&mut cur));
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], b"abc");
        assert_eq!(frames[1], b"");
        assert_eq!(frames[2], vec![9u8; 1000]);
    }

    #[test]
    fn begin_end_frame_matches_write_frame() {
        let mut direct = Vec::new();
        write_frame(&mut direct, b"abc");
        write_frame(&mut direct, b"");
        let mut patched = Vec::new();
        let p = begin_frame(&mut patched);
        patched.extend_from_slice(b"abc");
        end_frame(&mut patched, p);
        let p = begin_frame(&mut patched);
        end_frame(&mut patched, p);
        assert_eq!(patched, direct);
    }

    #[test]
    fn multiple_frames_in_one_chunk() {
        let mut stream = Vec::new();
        for i in 0..10u8 {
            write_frame(&mut stream, &[i]);
        }
        let mut cur = FrameCursor::new();
        cur.feed(&stream);
        let frames = drain_frames(&mut cur);
        assert_eq!(frames.len(), 10);
        assert_eq!(frames[9], vec![9]);
    }

    #[test]
    #[should_panic(expected = "frame too large")]
    fn write_rejects_oversized_payload() {
        let mut out = Vec::new();
        // Fake a huge payload without allocating 64MiB: use a boxed slice of
        // exactly MAX+1 zeros.
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        write_frame(&mut out, &payload);
    }

    #[test]
    fn cursor_yields_borrowed_views() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"first");
        write_frame(&mut stream, b"second");
        let mut cur = FrameCursor::new();
        cur.feed(&stream);
        assert_eq!(cur.next_frame().unwrap().unwrap(), b"first");
        assert_eq!(cur.next_frame().unwrap().unwrap(), b"second");
        assert!(cur.next_frame().unwrap().is_none());
        assert_eq!(cur.buffered(), 0);
    }

    #[test]
    fn cursor_views_are_mutable_in_place() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"xxxx");
        let mut cur = FrameCursor::new();
        cur.feed(&stream);
        let view = cur.next_frame().unwrap().unwrap();
        view.copy_from_slice(b"yyyy");
        assert_eq!(view, b"yyyy");
    }

    #[test]
    fn cursor_space_commit_reads_like_a_socket() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &[7u8; 300]);
        write_frame(&mut stream, b"tail");
        // Simulate a driver copying stream chunks into `space` directly.
        let mut cur = FrameCursor::new();
        let mut fed = 0;
        let mut frames = Vec::new();
        while fed < stream.len() {
            let chunk = (stream.len() - fed).min(113);
            let dst = cur.space(chunk);
            assert!(dst.len() >= chunk);
            dst[..chunk].copy_from_slice(&stream[fed..fed + chunk]);
            cur.commit(chunk);
            fed += chunk;
            frames.extend(drain_frames(&mut cur));
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], vec![7u8; 300]);
        assert_eq!(frames[1], b"tail");
    }

    #[test]
    fn cursor_compaction_reclaims_consumed_prefix() {
        let mut cur = FrameCursor::new();
        let mut frame = Vec::new();
        write_frame(&mut frame, &[1u8; 1000]);
        // Stream many frames through a cursor; the buffer must not grow
        // linearly with the stream (compaction reclaims consumed bytes).
        for _ in 0..1000 {
            cur.feed(&frame);
            while let Some(f) = cur.next_frame().unwrap() {
                assert_eq!(f.len(), 1000);
            }
        }
        assert_eq!(cur.buffered(), 0);
        assert!(
            cur.into_buf().len() < 16 * frame.len() + MIN_READ_SPACE,
            "buffer grew without bound"
        );
    }

    #[test]
    fn cursor_recycles_buffers() {
        let mut cur = FrameCursor::new();
        let mut stream = Vec::new();
        write_frame(&mut stream, &[3u8; 500]);
        cur.feed(&stream);
        assert!(cur.next_frame().unwrap().is_some());
        let buf = cur.into_buf();
        let cap = buf.capacity();
        let mut cur2 = FrameCursor::with_buf(buf);
        assert_eq!(cur2.buffered(), 0, "recycled cursor starts empty");
        cur2.feed(&stream);
        assert_eq!(cur2.next_frame().unwrap().unwrap(), &[3u8; 500][..]);
        assert_eq!(cur2.into_buf().capacity(), cap, "capacity was reused");
    }

    #[test]
    fn cursor_oversized_frame_rejected() {
        let header = (u32::MAX).to_le_bytes();
        let mut fed = FrameCursor::new();
        fed.feed(&header);
        assert!(fed.next_frame().is_err());
        let mut read = FrameCursor::new();
        read.space(4)[..4].copy_from_slice(&header);
        read.commit(4);
        assert!(read.next_frame().is_err());
    }

    #[test]
    fn cursor_commit_clamped_to_space() {
        let mut cur = FrameCursor::new();
        let spare = cur.space(1).len();
        cur.commit(spare + 1000);
        assert_eq!(cur.buffered(), spare, "over-commit is clamped");
    }
}
