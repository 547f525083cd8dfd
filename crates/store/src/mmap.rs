//! Read-only memory mapping of artifact files — the zero-copy backing for
//! DJAR container sections (DESIGN.md §8).
//!
//! [`Mmap::open`] maps a whole file `PROT_READ`/`MAP_PRIVATE` via raw
//! `mmap(2)` through `extern "C"` declarations — the same zero-dependency
//! route the serve crate takes for `signal(2)`; no libc crate. The mapping
//! base is page-aligned (4096 on every supported platform), so any payload
//! placed at a 64-byte-aligned *file* offset is 64-byte-aligned in
//! *memory* — the property the container layout exists to provide, and
//! what lets `f32`/`u32` planes be reinterpreted in place.
//!
//! The pages are demand-paged from the kernel page cache: opening a 100 GB
//! artifact costs a metadata syscall, not a read, and N serving processes
//! mapping the same snapshot share one physical copy. Dropping the `Mmap`
//! unmaps. The struct is `Send + Sync` (the memory is never written).
//!
//! A mapped file being truncated by another process would turn reads past
//! the new EOF into `SIGBUS`; the stack never rewrites an artifact in
//! place (every writer goes through temp + atomic rename), so a mapping
//! always covers an immutable inode.

use std::fs::File;
use std::io;
use std::ops::Deref;
use std::path::Path;

/// A read-only memory-mapped file.
#[derive(Debug)]
pub struct Mmap {
    ptr: *mut u8,
    len: usize,
}

// The mapping is PROT_READ and owned for the struct's lifetime: shared
// references to immutable memory are safe across threads.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

#[cfg(unix)]
mod sys {
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
    }
}

impl Mmap {
    /// Map `path` read-only in its entirety.
    ///
    /// A zero-length file yields a valid empty mapping (no `mmap(2)` call —
    /// the kernel rejects zero-length maps). Errors carry the usual
    /// `io::Error` OS context.
    #[cfg(unix)]
    pub fn open(path: &Path) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space"))?;
        if len == 0 {
            return Ok(Self {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
            });
        }
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        // MAP_FAILED is (void*)-1.
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // `file` closes here; the mapping keeps the inode's pages alive.
        Ok(Self { ptr, len })
    }

    /// Portable fallback: read the file into an anonymous heap buffer.
    /// Same API and lifetime semantics, none of the sharing benefits.
    #[cfg(not(unix))]
    pub fn open(path: &Path) -> io::Result<Self> {
        let bytes = std::fs::read(path)?.into_boxed_slice();
        let len = bytes.len();
        let ptr = Box::into_raw(bytes) as *mut u8;
        Ok(Self { ptr, len })
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mapped file was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // Safety: ptr/len describe a live PROT_READ mapping (or a dangling
        // pointer with len 0, which from_raw_parts permits).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl AsRef<[u8]> for Mmap {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        #[cfg(unix)]
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
        #[cfg(not(unix))]
        unsafe {
            drop(Box::from_raw(std::slice::from_raw_parts_mut(self.ptr, self.len)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("djmmap-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn maps_file_contents_exactly() {
        let path = temp_path("contents");
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let map = Mmap::open(&path).unwrap();
        assert_eq!(map.len(), data.len());
        assert_eq!(&*map, &data[..]);
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_as_empty_slice() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(&*map, &[] as &[u8]);
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Mmap::open(Path::new("/nonexistent/deepjoin-nope.djar")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn mapping_base_is_page_aligned() {
        let path = temp_path("aligned");
        std::fs::write(&path, vec![7u8; 4096 * 3 + 17]).unwrap();
        let map = Mmap::open(&path).unwrap();
        assert_eq!(map.as_ref().as_ptr() as usize % 4096, 0);
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapping_is_shareable_across_threads() {
        let path = temp_path("threads");
        std::fs::write(&path, vec![3u8; 1 << 16]).unwrap();
        let map = std::sync::Arc::new(Mmap::open(&path).unwrap());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = map.clone();
            handles.push(std::thread::spawn(move || {
                m.iter().map(|&b| b as u64).sum::<u64>()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 3 * (1u64 << 16));
        }
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    // --- fault paths for mapped containers (DESIGN.md §8) ---

    fn aligned_artifact() -> Vec<u8> {
        use crate::container::ContainerBuilder;
        let a: Vec<u8> = (0..300u32).flat_map(|i| i.to_le_bytes()).collect();
        let b: Vec<u8> = (0..150u32).map(|i| (i % 256) as u8).collect();
        ContainerBuilder::new()
            .section(*b"VECS", a)
            .section(*b"HNSW", b)
            .build()
    }

    #[test]
    fn truncated_file_mid_section_errors_cleanly_through_a_mapping() {
        use crate::container::Container;
        let good = aligned_artifact();
        let path = temp_path("trunc");
        for cut in (0..good.len()).step_by(7).chain([good.len() - 1]) {
            std::fs::write(&path, &good[..cut]).unwrap();
            let map = Mmap::open(&path).unwrap();
            // Parse and every section read must return a structured error
            // or validated bytes — never panic, never fault.
            if let Ok(c) = Container::parse(&map) {
                for name in [*b"VECS", *b"HNSW"] {
                    if let Some(Ok(payload)) = c.section(name, "sect") {
                        let _ = payload.len();
                    }
                }
            }
        }
        // The untruncated file still round-trips through the mapping.
        std::fs::write(&path, &good).unwrap();
        let map = Mmap::open(&path).unwrap();
        let c = Container::parse(&map).unwrap();
        assert!(c.section(*b"VECS", "VECS").unwrap().is_ok());
        assert!(c.section(*b"HNSW", "HNSW").unwrap().is_ok());
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_under_an_open_mapping_is_caught_on_the_next_open() {
        use crate::container::Container;
        let good = aligned_artifact();
        let path = temp_path("flip");
        std::fs::write(&path, &good).unwrap();

        // An open mapping pins the artifact while it is corrupted on disk
        // (in production every writer goes through rename, so this models
        // silent storage decay, not a writer). The mapping itself stays
        // readable — the length never changed, so no fault is possible —
        // and a *fresh* open re-validates and rejects the damaged section.
        let held = Mmap::open(&path).unwrap();
        let payload_mid = {
            let c = Container::parse(&held).unwrap();
            let r = c.section_range(*b"VECS", "VECS").unwrap().unwrap();
            r.offset + r.len / 2
        };
        let mut bad = good.clone();
        bad[payload_mid] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();

        let _pinned_sum: u64 = held.iter().map(|&b| b as u64).sum();

        let fresh = Mmap::open(&path).unwrap();
        let c = Container::parse(&fresh).unwrap();
        assert!(
            c.section(*b"VECS", "VECS").unwrap().is_err(),
            "flipped payload byte must fail the section CRC"
        );
        // The undamaged trailing section still reads.
        assert!(c.section(*b"HNSW", "HNSW").unwrap().is_ok());
        drop((held, fresh));
        std::fs::remove_file(&path).unwrap();
    }
}
