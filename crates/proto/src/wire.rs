//! Low-level binary read/write helpers shared by the codecs.
//!
//! All integers are little-endian. Strings and byte blobs are length-
//! prefixed with a u32. Every read is bounds-checked; decoding untrusted
//! input can fail but never panic.

use crate::error::CodecError;

/// Sanity cap on any single length field (strings, arrays): 64 MiB.
pub const MAX_LEN: u64 = 64 * 1024 * 1024;

/// A bounds-checked cursor over an input buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        match self.buf.get(self.pos..self.pos + n) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(CodecError::Truncated { context }),
        }
    }

    /// A fixed-size `take`, for the scalar readers: the length check and the
    /// array conversion are one fallible step, so no panic is reachable.
    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], CodecError> {
        let b = self.take(N, context)?;
        <[u8; N]>::try_from(b).map_err(|_| CodecError::Truncated { context })
    }

    pub fn u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        self.array::<1>(context).map(|[b]| b)
    }

    pub fn u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array(context)?))
    }

    pub fn u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array(context)?))
    }

    pub fn i32(&mut self, context: &'static str) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.array(context)?))
    }

    /// Length-prefixed array count, validated against [`MAX_LEN`].
    pub fn len(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let n = self.u32(context)? as u64;
        if n > MAX_LEN {
            return Err(CodecError::LengthOverflow { context, len: n });
        }
        Ok(n as usize)
    }

    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], CodecError> {
        let n = self.len(context)?;
        self.take(n, context)
    }

    pub fn string(&mut self, context: &'static str) -> Result<String, CodecError> {
        let b = self.bytes(context)?;
        std::str::from_utf8(b)
            .map(|s| s.to_string())
            .map_err(|_| CodecError::InvalidUtf8 { context })
    }

    /// A borrowed, UTF-8-validated view of a length-prefixed string: lets
    /// decode paths inspect (e.g. intern) the text before deciding whether
    /// to allocate.
    pub fn str_slice(&mut self, context: &'static str) -> Result<&'a str, CodecError> {
        let b = self.bytes(context)?;
        std::str::from_utf8(b).map_err(|_| CodecError::InvalidUtf8 { context })
    }

    pub fn opt_string(&mut self, context: &'static str) -> Result<Option<String>, CodecError> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(self.string(context)?)),
            tag => Err(CodecError::UnknownTag { context, tag }),
        }
    }

    pub fn opt_u64(&mut self, context: &'static str) -> Result<Option<u64>, CodecError> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(context)?)),
            tag => Err(CodecError::UnknownTag { context, tag }),
        }
    }

    /// Fail if any input remains unconsumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            })
        } else {
            Ok(())
        }
    }
}

/// A growable output buffer abstraction so the efficient and the Axis-style
/// codecs can share one encoding routine while differing in append behaviour.
pub trait Sink {
    /// Append raw bytes.
    fn put(&mut self, data: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }
    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
    fn put_i32(&mut self, v: i32) {
        self.put(&v.to_le_bytes());
    }
    fn put_len(&mut self, n: usize) {
        // A hard check: silently truncating `n as u32` in release builds
        // would corrupt the stream for any array above 4 GiB elements.
        assert!(n as u64 <= MAX_LEN, "length {n} exceeds protocol maximum");
        self.put_u32(n as u32);
    }
    fn put_bytes(&mut self, b: &[u8]) {
        self.put_len(b.len());
        self.put(b);
    }
    fn put_string(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
    fn put_opt_string(&mut self, s: Option<&str>) {
        match s {
            None => self.put_u8(0),
            Some(s) => {
                self.put_u8(1);
                self.put_string(s);
            }
        }
    }
    fn put_opt_u64(&mut self, v: &Option<u64>) {
        match v {
            None => self.put_u8(0),
            Some(v) => {
                self.put_u8(1);
                self.put_u64(*v);
            }
        }
    }
}

/// The standard amortized-growth sink: a plain `Vec<u8>` appends in place,
/// so a driver-owned scratch buffer can be reused across encodes without
/// reallocating. Scalar puts are overridden so each compiles to a single
/// fixed-width store, and `put_bytes` reserves header + payload in one
/// step so every length-prefixed field costs one growth check, not two.
impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, data: &[u8]) {
        self.extend_from_slice(data);
    }

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_i32(&mut self, v: i32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_bytes(&mut self, b: &[u8]) {
        self.reserve(4 + b.len());
        // `put_len` keeps the MAX_LEN check in one place; its u32 append
        // and the payload append below both land in the reserved space.
        self.put_len(b.len());
        self.extend_from_slice(b);
    }
}

/// A sink that discards bytes and counts them — sizes a message without
/// materialising it.
#[derive(Default)]
pub struct CountSink {
    /// Bytes that would have been written.
    pub len: usize,
}

impl Sink for CountSink {
    fn put(&mut self, data: &[u8]) {
        self.len += data.len();
    }
}

/// A sink that reallocates to *exactly* the new size and copies the entire
/// existing contents on every append — the grow-able array behaviour of the
/// Axis XML serialization stack called out in paper Section 4.3. Appending n
/// items costs O(n²) byte copies, which is what bends the Figure 5 bundling
/// curve downward past ~300 tasks per bundle.
#[derive(Default)]
pub struct GrowByCopySink {
    /// Accumulated output.
    pub buf: Vec<u8>,
    /// Total bytes copied due to reallocation (observability for tests).
    pub bytes_copied: u64,
}

impl Sink for GrowByCopySink {
    fn put(&mut self, data: &[u8]) {
        // Allocate a fresh exact-size buffer and copy everything, like a
        // naive `Arrays.copyOf`-per-append implementation.
        let mut next = Vec::with_capacity(self.buf.len() + data.len());
        next.extend_from_slice(&self.buf);
        next.extend_from_slice(data);
        self.bytes_copied += self.buf.len() as u64;
        self.buf = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut s = Vec::new();
        s.put_u8(7);
        s.put_u32(0xDEAD_BEEF);
        s.put_u64(u64::MAX);
        s.put_i32(-42);
        let mut r = Reader::new(&s);
        assert_eq!(r.u8("t").unwrap(), 7);
        assert_eq!(r.u32("t").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("t").unwrap(), u64::MAX);
        assert_eq!(r.i32("t").unwrap(), -42);
        r.finish().unwrap();
    }

    #[test]
    fn roundtrip_strings_and_options() {
        let mut s = Vec::new();
        s.put_string("héllo");
        s.put_opt_string(None);
        s.put_opt_string(Some("x"));
        s.put_opt_u64(&Some(9));
        s.put_opt_u64(&None);
        let mut r = Reader::new(&s);
        assert_eq!(r.string("t").unwrap(), "héllo");
        assert_eq!(r.opt_string("t").unwrap(), None);
        assert_eq!(r.opt_string("t").unwrap(), Some("x".into()));
        assert_eq!(r.opt_u64("t").unwrap(), Some(9));
        assert_eq!(r.opt_u64("t").unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_input_errors() {
        let mut s = Vec::new();
        s.put_u64(1);
        let mut r = Reader::new(&s[..4]);
        assert!(matches!(r.u64("ctx"), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut s = Vec::new();
        s.put_u32(u32::MAX); // length far above MAX_LEN
        let mut r = Reader::new(&s);
        assert!(matches!(
            r.len("arr"),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut s = Vec::new();
        s.put_bytes(&[0xFF, 0xFE]);
        let mut r = Reader::new(&s);
        assert!(matches!(r.string("s"), Err(CodecError::InvalidUtf8 { .. })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            r.finish(),
            Err(CodecError::TrailingBytes { remaining: 3 })
        ));
    }

    #[test]
    fn grow_by_copy_is_quadratic_in_copies() {
        let mut s = GrowByCopySink::default();
        for _ in 0..100 {
            s.put(&[0u8; 10]);
        }
        // Copies: 0 + 10 + 20 + ... + 990 = 49_500
        assert_eq!(s.bytes_copied, 49_500);
        assert_eq!(s.buf.len(), 1_000);
        // Same logical output as the plain Vec sink
        let mut v = Vec::new();
        for _ in 0..100 {
            v.put(&[0u8; 10]);
        }
        assert_eq!(s.buf, v);
    }
}
