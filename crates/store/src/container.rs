//! The framed artifact container (`DJAR`): named sections, each with
//! byte-length framing and a CRC-32 over its payload, every payload on an
//! aligned file offset so it can be mapped zero-copy (DESIGN.md §8).
//!
//! All integers little-endian:
//!
//! ```text
//! "DJAR" | version=2 u8 | section_count u32 | directory_crc32 u32
//! then per section:
//!   name [u8;4] | payload_len u64 | crc32 u32 | pad_len u32
//!   | zero pad (pad_len bytes) | payload bytes
//! ```
//!
//! Each payload begins at a file offset that is a multiple of
//! [`SECTION_ALIGN`] (64). `pad_len` is *derived*, not free: it must equal
//! exactly the distance from the end of the frame header to the next
//! 64-byte boundary, and [`Container::parse`] re-derives and checks it, so
//! a flipped pad byte is structural corruption, never a silent shift.
//! Because `mmap(2)` bases are page-aligned and 4096 ≡ 0 (mod 64), a
//! 64-byte-aligned file offset is a 64-byte-aligned address in a mapping —
//! which is what lets `f32`/`u32` planes be reinterpreted in place with no
//! decode pass ([`Container::section_range`] + `deepjoin_store::Mmap`).
//! Any other version byte is rejected with `BadVersion`.
//!
//! `directory_crc32` covers the concatenated `(name, payload_len, pad_len)`
//! frame headers. Without it, a single flipped bit in a
//! section *name* would make that section silently vanish — a loader could
//! then mistake "the index section is damaged" for "this artifact was
//! saved without an index" and degrade without ever reporting it. The
//! per-section payload CRCs are deliberately *not* covered: a damaged
//! checksum field is equivalent to a damaged payload and should degrade
//! only its own section.
//!
//! Parsing is two-phase by design. [`Container::parse`] validates the
//! *framing* only — magic, version, directory integrity, and that every
//! declared frame fits in the file — so a torn write or truncation surfaces
//! as a structural [`DecodeError`] naming the section it cut into. Payload
//! *integrity* is checked per section by [`Container::section`], which lets
//! a loader treat a corrupt optional section (a damaged index) differently
//! from a corrupt mandatory one (the model weights): graceful degradation
//! instead of all-or-nothing loading.

use crate::codec::{DecodeError, DecodeErrorKind, Reader, Writer};
use crate::crc32::crc32;

/// Container magic bytes.
pub const CONTAINER_MAGIC: &[u8; 4] = b"DJAR";
/// Container format version.
pub const CONTAINER_VERSION: u8 = 2;
/// Payload alignment guaranteed by the layout, in bytes. 64 covers
/// every plane element type in the stack (f32, u32, u64) with headroom
/// for cache-line-aligned SIMD loads.
pub const SECTION_ALIGN: usize = 64;

/// Fixed per-section frame overhead: name + length + checksum + pad length.
const FRAME_HEADER: usize = 4 + 8 + 4 + 4;

/// Builds a container by appending named sections.
#[derive(Debug, Default)]
pub struct ContainerBuilder {
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl ContainerBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a section. Names are 4 ASCII bytes by convention (`b"MODL"`);
    /// duplicate names are allowed but only the first is addressable.
    pub fn section(mut self, name: [u8; 4], payload: Vec<u8>) -> Self {
        self.sections.push((name, payload));
        self
    }

    /// Serialize the container, every payload starting on a
    /// [`SECTION_ALIGN`]-byte file offset.
    pub fn build(self) -> Vec<u8> {
        // Lay frames out once to learn every pad, since the directory CRC
        // covers them.
        let mut offset = 4 + 1 + 4 + 4; // magic + version + count + dir crc
        let mut pads = Vec::with_capacity(self.sections.len());
        for (_, payload) in &self.sections {
            let header_end = offset + FRAME_HEADER;
            let pad = pad_to(header_end, SECTION_ALIGN);
            pads.push(pad as u32);
            offset = header_end + pad + payload.len();
        }
        let mut w = Writer::with_capacity(offset);
        w.put_slice(CONTAINER_MAGIC);
        w.put_u8(CONTAINER_VERSION);
        w.put_u32_le(self.sections.len() as u32);
        w.put_u32_le(crc32(&directory_bytes(
            self.sections
                .iter()
                .zip(&pads)
                .map(|((n, p), &pad)| (*n, p.len(), pad)),
        )));
        for ((name, payload), &pad) in self.sections.iter().zip(&pads) {
            w.put_slice(name);
            w.put_u64_le(payload.len() as u64);
            w.put_u32_le(crc32(payload));
            w.put_u32_le(pad);
            w.put_slice(&vec![0u8; pad as usize]);
            debug_assert_eq!(w.len() % SECTION_ALIGN, 0, "payload must start aligned");
            w.put_slice(payload);
        }
        w.into_vec()
    }
}

/// Zero-pad distance from `offset` up to the next multiple of `align`.
fn pad_to(offset: usize, align: usize) -> usize {
    (align - offset % align) % align
}

/// The byte string the directory CRC covers: every frame's name, payload
/// length and pad length, in file order.
fn directory_bytes(frames: impl Iterator<Item = ([u8; 4], usize, u32)>) -> Vec<u8> {
    let mut dir = Vec::new();
    for (name, len, pad) in frames {
        dir.extend_from_slice(&name);
        dir.extend_from_slice(&(len as u64).to_le_bytes());
        dir.extend_from_slice(&pad.to_le_bytes());
    }
    dir
}

/// One parsed (but not yet integrity-checked) section frame.
#[derive(Debug, Clone)]
struct Frame {
    name: [u8; 4],
    /// Payload position within the container bytes.
    start: usize,
    len: usize,
    stored_crc: u32,
    pad: u32,
}

/// The CRC-verified byte range of one section's payload within the
/// container file — the handle a zero-copy loader turns into typed slices
/// over an open mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionRange {
    /// Absolute byte offset of the payload within the container bytes.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// A parsed container over borrowed bytes.
#[derive(Debug)]
pub struct Container<'a> {
    bytes: &'a [u8],
    frames: Vec<Frame>,
}

impl<'a> Container<'a> {
    /// Parse a container's framing. Fails (with section/offset context) if
    /// the magic, version, or any frame header is damaged, if a frame
    /// claims more bytes than the file holds — the signature of a torn
    /// write — or if a pad length disagrees with the alignment rule.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes, "container");
        r.expect_magic(CONTAINER_MAGIC)?;
        r.expect_version(CONTAINER_VERSION)?;
        let n = r.count_u32(FRAME_HEADER)?;
        let stored_dir_crc = r.u32_le()?;
        let mut frames = Vec::with_capacity(n);
        for _ in 0..n {
            let name: [u8; 4] = r.bytes(4)?.try_into().unwrap();
            let len = r.count(1)?;
            let stored_crc = r.u32_le()?;
            let at = r.offset();
            let pad = r.u32_le()?;
            // pad is fully determined by the header-end offset; any other
            // value is corruption, not a layout choice.
            if pad as usize != pad_to(r.offset(), SECTION_ALIGN) {
                return Err(DecodeError::new(
                    DecodeErrorKind::Invalid("section pad disagrees with alignment rule"),
                    "container",
                    at,
                ));
            }
            r.bytes(pad as usize)?;
            let start = r.offset();
            r.bytes(len)?;
            frames.push(Frame {
                name,
                start,
                len,
                stored_crc,
                pad,
            });
        }
        let computed = crc32(&directory_bytes(
            frames.iter().map(|f| (f.name, f.len, f.pad)),
        ));
        if computed != stored_dir_crc {
            return Err(DecodeError::new(
                DecodeErrorKind::ChecksumMismatch {
                    stored: stored_dir_crc,
                    computed,
                },
                "container",
                5,
            ));
        }
        Ok(Self { bytes, frames })
    }

    /// Names of all sections, in file order.
    pub fn section_names(&self) -> Vec<[u8; 4]> {
        self.frames.iter().map(|f| f.name).collect()
    }

    /// `(name, payload bytes)` for every section in file order, without
    /// checking payload integrity — for size reporting (`dj info`).
    pub fn section_sizes(&self) -> Vec<([u8; 4], usize)> {
        self.frames.iter().map(|f| (f.name, f.len)).collect()
    }

    /// Fetch a section's payload, verifying its checksum.
    ///
    /// * `None` — no such section.
    /// * `Some(Err(_))` — present but its payload fails the CRC; the error
    ///   carries the section name and `ChecksumMismatch` detail.
    /// * `Some(Ok(payload))` — intact.
    pub fn section(&self, name: [u8; 4], label: &'static str) -> Option<Result<&'a [u8], DecodeError>> {
        let f = self.frames.iter().find(|f| f.name == name)?;
        let payload = &self.bytes[f.start..f.start + f.len];
        let computed = crc32(payload);
        if computed != f.stored_crc {
            return Some(Err(DecodeError::new(
                DecodeErrorKind::ChecksumMismatch {
                    stored: f.stored_crc,
                    computed,
                },
                label,
                0,
            )));
        }
        Some(Ok(payload))
    }

    /// Like [`Container::section`], but returning the payload's byte
    /// *range* within the container instead of the slice — the zero-copy
    /// entry point: validate once against the parsed bytes, then carve the
    /// same range out of an `Arc<Mmap>` of the whole file. The returned
    /// `offset` is a multiple of [`SECTION_ALIGN`].
    pub fn section_range(
        &self,
        name: [u8; 4],
        label: &'static str,
    ) -> Option<Result<SectionRange, DecodeError>> {
        let f = self.frames.iter().find(|f| f.name == name)?;
        Some(match self.section(name, label)? {
            Ok(_) => Ok(SectionRange {
                offset: f.start,
                len: f.len,
            }),
            Err(e) => Err(e),
        })
    }

    /// A section's payload range **without** re-computing its CRC. Only for
    /// reopening a file this process already fully verified and that is
    /// provably unchanged (same device/inode/mtime/size): skipping the CRC
    /// avoids paging the whole mapping back in, which is what makes a hot
    /// remap O(ms) instead of O(file size).
    pub fn section_range_trusted(&self, name: [u8; 4]) -> Option<SectionRange> {
        let f = self.frames.iter().find(|f| f.name == name)?;
        Some(SectionRange {
            offset: f.start,
            len: f.len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        ContainerBuilder::new()
            .section(*b"MODL", vec![1, 2, 3, 4, 5])
            .section(*b"HNSW", vec![9; 100])
            .build()
    }

    #[test]
    fn roundtrip_sections() {
        let bytes = sample();
        let c = Container::parse(&bytes).unwrap();
        assert_eq!(c.section_names(), vec![*b"MODL", *b"HNSW"]);
        assert_eq!(
            c.section_sizes(),
            vec![(*b"MODL", 5), (*b"HNSW", 100)]
        );
        assert_eq!(c.section(*b"MODL", "MODL").unwrap().unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(c.section(*b"HNSW", "HNSW").unwrap().unwrap(), &[9u8; 100][..]);
        assert!(c.section(*b"VECS", "VECS").is_none());
        for name in [*b"MODL", *b"HNSW"] {
            let range = c.section_range(name, "sect").unwrap().unwrap();
            assert_eq!(range.offset % SECTION_ALIGN, 0, "{name:?} misaligned");
        }
    }

    #[test]
    fn aligned_layout_holds_for_many_payload_sizes() {
        // Alignment must survive arbitrary predecessor payload lengths.
        for sizes in [[0usize, 1], [1, 63], [63, 64], [64, 65], [100, 7], [4096, 1]] {
            let bytes = ContainerBuilder::new()
                .section(*b"AAAA", vec![0xAA; sizes[0]])
                .section(*b"BBBB", vec![0xBB; sizes[1]])
                .build();
            let c = Container::parse(&bytes).unwrap();
            for name in [*b"AAAA", *b"BBBB"] {
                let range = c.section_range(name, "sect").unwrap().unwrap();
                assert_eq!(range.offset % SECTION_ALIGN, 0, "{sizes:?}");
            }
            assert_eq!(
                c.section(*b"AAAA", "AAAA").unwrap().unwrap(),
                vec![0xAA; sizes[0]]
            );
            assert_eq!(
                c.section(*b"BBBB", "BBBB").unwrap().unwrap(),
                vec![0xBB; sizes[1]]
            );
        }
    }

    #[test]
    fn section_range_matches_section_bytes() {
        let bytes = sample();
        let c = Container::parse(&bytes).unwrap();
        let r = c.section_range(*b"HNSW", "HNSW").unwrap().unwrap();
        assert_eq!(
            &bytes[r.offset..r.offset + r.len],
            c.section(*b"HNSW", "HNSW").unwrap().unwrap()
        );
    }

    #[test]
    fn truncation_at_every_offset_never_panics() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let res = Container::parse(&bytes[..cut]);
            assert!(res.is_err(), "prefix of {cut} bytes must not parse");
        }
        assert!(Container::parse(&bytes).is_ok());
    }

    #[test]
    fn bit_flip_in_payload_is_a_checksum_mismatch() {
        let mut bytes = sample();
        let last = bytes.len() - 1; // inside the HNSW payload
        bytes[last] ^= 0x40;
        let c = Container::parse(&bytes).unwrap();
        // MODL untouched, HNSW corrupt.
        assert!(c.section(*b"MODL", "MODL").unwrap().is_ok());
        let err = c.section(*b"HNSW", "HNSW").unwrap().unwrap_err();
        assert!(err.is_checksum_mismatch());
        assert_eq!(err.section, "HNSW");
        // The range accessor reports the same verdict.
        assert!(c.section_range(*b"HNSW", "HNSW").unwrap().is_err());
    }

    #[test]
    fn oversized_frame_length_is_structural_corruption() {
        let mut bytes = sample();
        // First frame's length field: magic + ver + count + dir crc + name.
        let len_at = 4 + 1 + 4 + 4 + 4;
        bytes[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = Container::parse(&bytes).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::Truncated { .. }));
        assert_eq!(err.section, "container");
    }

    #[test]
    fn bit_flip_in_a_section_name_fails_the_directory_check() {
        let mut bytes = sample();
        // First frame's name: magic + ver + count + dir crc.
        let name_at = 4 + 1 + 4 + 4;
        assert_eq!(&bytes[name_at..name_at + 4], b"MODL");
        bytes[name_at] ^= 0x01;
        // Without the directory CRC this would parse fine and `MODL`
        // would just be "absent" — indistinguishable from a real save.
        let err = Container::parse(&bytes).unwrap_err();
        assert!(err.is_checksum_mismatch());
        assert_eq!(err.section, "container");
    }

    #[test]
    fn corrupt_pad_length_is_structural_corruption() {
        let mut bytes = sample();
        // First frame's pad field: magic + ver + count + dir crc + name
        // + len + crc.
        let pad_at = 4 + 1 + 4 + 4 + 4 + 8 + 4;
        bytes[pad_at] ^= 0x04;
        let err = Container::parse(&bytes).unwrap_err();
        // Either the derived-pad rule or (if the shift cascades) a later
        // structural check fires; it must never parse as valid.
        assert_eq!(err.section, "container");
    }

    #[test]
    fn unknown_container_version_is_rejected() {
        // Version 1 is the unpadded layout, which is not read: it must fail
        // at the version byte, never be misparsed as padded frames.
        for version in [1u8, 9] {
            let mut bytes = sample();
            bytes[4] = version;
            let err = Container::parse(&bytes).unwrap_err();
            assert_eq!(err.kind, DecodeErrorKind::BadVersion(version));
            assert_eq!((err.section, err.offset), ("container", 4));
        }
    }

    #[test]
    fn empty_container_is_valid() {
        let bytes = ContainerBuilder::new().build();
        let c = Container::parse(&bytes).unwrap();
        assert!(c.section_names().is_empty());
    }
}
