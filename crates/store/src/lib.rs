//! # deepjoin-store
//!
//! The durable artifact layer of the DeepJoin stack. The offline half of the
//! system (fine-tune + index) hands the online half (ANN serving) its state
//! exclusively through on-disk snapshots — lake corpora, trained models,
//! HNSW indexes — so those snapshots are the contract between the two
//! halves, and this crate is what makes the contract trustworthy:
//!
//! * [`codec`] — the little-endian binary codec every payload uses, with a
//!   [`codec::Reader`] that attributes each failure to a section and byte
//!   offset, and validates length prefixes before allocating;
//! * [`container`] — the framed `DJAR` container: named, 64-byte-aligned
//!   sections with byte-length framing and per-section CRC-32, so loaders
//!   can tell *which part* of an artifact is damaged and degrade instead of
//!   refusing;
//! * [`crc32`] — the checksum (IEEE 802.3);
//! * [`io`] — [`io::ArtifactIo`] and the crash-safe [`io::StdIo`]
//!   (temp file + fsync + atomic rename);
//! * [`mmap`] — read-only `mmap(2)` of artifact files (raw `extern "C"`,
//!   no libc crate): the zero-copy backing for container sections;
//! * [`faults`] — injection of torn writes, read truncation, bit flips,
//!   ENOSPC, and deterministic crash (kill) points, so every load and
//!   recovery path can be proven panic-free under corruption;
//! * [`wal`] — the `DJWL` write-ahead journal live lake mutations are
//!   logged through before touching memory, with committed-prefix replay.

#![warn(missing_docs)]

pub mod codec;
pub mod container;
pub mod crc32;
pub mod faults;
pub mod io;
pub mod mmap;
pub mod wal;

pub use codec::{DecodeError, DecodeErrorKind, Reader, Writer};
pub use container::{Container, ContainerBuilder, SectionRange, SECTION_ALIGN};
pub use crc32::crc32;
pub use mmap::Mmap;
pub use faults::{Fault, FaultyIo, KillPointIo, MemIo};
pub use io::{ArtifactIo, SharedIo, StdIo};
pub use wal::{Wal, WalOpen, WalRecord};
