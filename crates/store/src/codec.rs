//! The little-endian binary codec all artifact payloads are written with,
//! plus the decode error type the whole stack reports corruption through.
//!
//! [`Reader`] tracks the byte offset and the logical *section* it is decoding
//! so every failure says where the artifact broke — `"HNSW"+0x1a4: truncated
//! (need 8, have 3)` instead of a bare "buffer truncated". Every accessor is
//! total: corrupt input yields `Err`, never a panic, and length prefixes are
//! validated against the bytes actually remaining before any allocation, so
//! a flipped length byte cannot balloon into an OOM.

use std::fmt;

/// What went wrong while decoding, without location context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// The buffer ended before the structure was complete.
    Truncated {
        /// Bytes the decoder needed at this point.
        needed: usize,
        /// Bytes that were actually left.
        available: usize,
    },
    /// An enum discriminant had no defined meaning.
    BadDiscriminant(u8),
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A section checksum did not match its payload.
    ChecksumMismatch {
        /// Checksum recorded in the frame header.
        stored: u32,
        /// Checksum computed over the payload as read.
        computed: u32,
    },
    /// A structurally impossible value (reason attached).
    Invalid(&'static str),
}

/// A decode failure, located: which section of the artifact, and at which
/// byte offset within it, the corruption was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Logical section name (e.g. `"MODL"`, `"HNSW"`, or `"container"` for
    /// the framing itself).
    pub section: &'static str,
    /// Byte offset within that section where decoding failed.
    pub offset: usize,
    /// The failure itself.
    pub kind: DecodeErrorKind,
}

impl DecodeError {
    /// Construct an error at an explicit location.
    pub fn new(kind: DecodeErrorKind, section: &'static str, offset: usize) -> Self {
        Self {
            section,
            offset,
            kind,
        }
    }

    /// True when the failure is a checksum mismatch (the class the loader
    /// may degrade on rather than reject).
    pub fn is_checksum_mismatch(&self) -> bool {
        matches!(self.kind, DecodeErrorKind::ChecksumMismatch { .. })
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "section {:?} at byte {:#x}: ", self.section, self.offset)?;
        match &self.kind {
            DecodeErrorKind::BadMagic => write!(f, "bad magic bytes"),
            DecodeErrorKind::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeErrorKind::Truncated { needed, available } => {
                write!(f, "truncated (need {needed} bytes, have {available})")
            }
            DecodeErrorKind::BadDiscriminant(d) => write!(f, "bad discriminant {d}"),
            DecodeErrorKind::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            DecodeErrorKind::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            DecodeErrorKind::Invalid(why) => write!(f, "invalid value: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only writer for the codec (little-endian, length-prefixed).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, no prefix.
    pub fn put_slice(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// `u32`, little-endian.
    pub fn put_u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `u64`, little-endian.
    pub fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f32`, little-endian.
    pub fn put_f32_le(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// String with a `u32` byte-length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32_le(s.len() as u32);
        self.put_slice(s.as_bytes());
    }

    /// `f32` slice with a `u64` element-count prefix.
    pub fn put_f32s(&mut self, xs: &[f32]) {
        self.put_u64_le(xs.len() as u64);
        for &x in xs {
            self.put_f32_le(x);
        }
    }
}

/// Cursor over an encoded payload that locates every failure.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    /// Read `buf`, attributing errors to `section`.
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            section,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when everything has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current byte offset within the section.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Build an error at the current offset.
    pub fn error(&self, kind: DecodeErrorKind) -> DecodeError {
        DecodeError::new(kind, self.section, self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(self.error(DecodeErrorKind::Truncated {
                needed: n,
                available: self.remaining(),
            }));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// `u32`, little-endian.
    pub fn u32_le(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// `u64`, little-endian.
    pub fn u64_le(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `f32`, little-endian.
    pub fn f32_le(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Consume and verify a 4-byte magic header.
    pub fn expect_magic(&mut self, magic: &[u8; 4]) -> Result<(), DecodeError> {
        let at = self.pos;
        let got = self.take(4)?;
        if got != magic {
            return Err(DecodeError::new(DecodeErrorKind::BadMagic, self.section, at));
        }
        Ok(())
    }

    /// Consume a version byte and require it to equal `supported`.
    pub fn expect_version(&mut self, supported: u8) -> Result<(), DecodeError> {
        let at = self.pos;
        let v = self.u8()?;
        if v != supported {
            return Err(DecodeError::new(
                DecodeErrorKind::BadVersion(v),
                self.section,
                at,
            ));
        }
        Ok(())
    }

    /// A `u64` element count, validated so `count * bytes_per_item` fits in
    /// the bytes remaining. Rejecting oversized counts *before* allocating
    /// is what keeps a corrupt length byte from becoming an OOM.
    pub fn count(&mut self, bytes_per_item: usize) -> Result<usize, DecodeError> {
        let at = self.pos;
        let n = self.u64_le()?;
        let per = bytes_per_item.max(1) as u64;
        if n > (self.remaining() as u64) / per {
            return Err(DecodeError::new(
                DecodeErrorKind::Truncated {
                    needed: usize::try_from(n.saturating_mul(per)).unwrap_or(usize::MAX),
                    available: self.remaining(),
                },
                self.section,
                at,
            ));
        }
        Ok(n as usize)
    }

    /// Like [`Self::count`] but for `u32` prefixes.
    pub fn count_u32(&mut self, bytes_per_item: usize) -> Result<usize, DecodeError> {
        let at = self.pos;
        let n = self.u32_le()? as u64;
        let per = bytes_per_item.max(1) as u64;
        if n > (self.remaining() as u64) / per {
            return Err(DecodeError::new(
                DecodeErrorKind::Truncated {
                    needed: usize::try_from(n.saturating_mul(per)).unwrap_or(usize::MAX),
                    available: self.remaining(),
                },
                self.section,
                at,
            ));
        }
        Ok(n as usize)
    }

    /// String with a `u32` byte-length prefix.
    pub fn str_prefixed(&mut self) -> Result<String, DecodeError> {
        let n = self.count_u32(1)?;
        let at = self.pos;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| DecodeError::new(DecodeErrorKind::BadUtf8, self.section, at))
    }

    /// `f32` vector with a `u64` element-count prefix.
    pub fn f32s(&mut self) -> Result<Vec<f32>, DecodeError> {
        let n = self.count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f32_le()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_strings() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(u64::MAX - 1);
        w.put_f32_le(1.5);
        w.put_str("héllo");
        w.put_f32s(&[0.0, -2.25, 3.0]);
        let bytes = w.into_vec();

        let mut r = Reader::new(&bytes, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32_le().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64_le().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32_le().unwrap(), 1.5);
        assert_eq!(r.str_prefixed().unwrap(), "héllo");
        assert_eq!(r.f32s().unwrap(), vec![0.0, -2.25, 3.0]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_reports_section_and_offset() {
        let mut w = Writer::new();
        w.put_u32_le(1);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes, "VECS");
        r.u8().unwrap();
        let err = r.u64_le().unwrap_err();
        assert_eq!(err.section, "VECS");
        assert_eq!(err.offset, 1);
        assert_eq!(
            err.kind,
            DecodeErrorKind::Truncated {
                needed: 8,
                available: 3
            }
        );
    }

    #[test]
    fn oversized_count_is_rejected_without_allocating() {
        let mut w = Writer::new();
        w.put_u64_le(u64::MAX); // claims ~1.8e19 elements
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes, "test");
        let err = r.f32s().unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Truncated { .. }));
        assert_eq!(err.offset, 0);
    }

    #[test]
    fn bad_utf8_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.put_u32_le(2);
        w.put_slice(&[0xFF, 0xFE]);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes, "test");
        assert_eq!(r.str_prefixed().unwrap_err().kind, DecodeErrorKind::BadUtf8);
    }

    #[test]
    fn magic_and_version_checks() {
        let mut w = Writer::new();
        w.put_slice(b"DJXX");
        w.put_u8(9);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes, "file");
        assert_eq!(
            r.clone().expect_magic(b"DJAR").unwrap_err().kind,
            DecodeErrorKind::BadMagic
        );
        r.expect_magic(b"DJXX").unwrap();
        assert_eq!(
            r.expect_version(1).unwrap_err().kind,
            DecodeErrorKind::BadVersion(9)
        );
    }
}
