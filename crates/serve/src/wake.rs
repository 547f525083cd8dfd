//! Wake-driven waiting: `poll(2)` over a handful of descriptors plus a
//! pipe-backed [`Latch`], so the accept loop and every connection thread
//! sleep in the kernel until there is something to do — no periodic
//! wakeups, no sliced socket timeouts.
//!
//! `poll` and `fcntl` come through raw `extern "C"` declarations (no libc
//! crate — the idiom of `deepjoin_store::mmap` and the server's signal
//! handlers); the pipe itself is `std::io::pipe`, which owns and closes
//! both ends.

use std::io::{self, PipeReader, PipeWriter, Read as _};
use std::os::fd::{AsRawFd, RawFd};
use std::time::Instant;

mod sys {
    pub const POLLIN: i16 = 1;
    pub const F_GETFL: i32 = 3;
    pub const F_SETFL: i32 = 4;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub const O_NONBLOCK: i32 = 0o4000;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub const O_NONBLOCK: i32 = 0x0004;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub type Nfds = std::ffi::c_uint;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
        pub fn fcntl(fd: i32, cmd: i32, ...) -> i32;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
}

/// Most descriptors one [`wait`] call watches (the accept loop's three).
const MAX_FDS: usize = 3;

/// A level-triggered broadcast flag that `poll` can wait on: a pipe that
/// [`Latch::trip`] writes one byte into. While the byte sits there the
/// read end is readable, so every waiter — present and future — wakes
/// immediately. A drain latch is never cleared; a latch used as a wake-up
/// (SIGHUP) is [`Latch::clear`]ed by its single consumer.
pub struct Latch {
    rd: PipeReader,
    wr: PipeWriter,
}

impl Latch {
    /// An untripped latch (two descriptors, both non-blocking and
    /// close-on-exec).
    pub fn new() -> io::Result<Latch> {
        let (rd, wr) = io::pipe()?;
        for fd in [rd.as_raw_fd(), wr.as_raw_fd()] {
            // SAFETY: `fd` is an open descriptor owned by `rd`/`wr`;
            // F_GETFL/F_SETFL take and return plain integers.
            let ok = unsafe {
                let flags = sys::fcntl(fd, sys::F_GETFL, 0);
                flags >= 0 && sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) >= 0
            };
            if !ok {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(Latch { rd, wr })
    }

    /// Trip the latch. Idempotent: a full pipe (tens of thousands of
    /// trips) just means it is already tripped, and the non-blocking write
    /// end never stalls the caller.
    pub fn trip(&self) {
        trip_raw(self.write_fd());
    }

    /// The descriptor a signal handler may hand to [`trip_raw`].
    pub fn write_fd(&self) -> RawFd {
        self.wr.as_raw_fd()
    }

    /// The descriptor to pass to [`wait`]: readable once tripped.
    pub fn fd(&self) -> RawFd {
        self.rd.as_raw_fd()
    }

    /// True once tripped (and not cleared since).
    pub fn is_tripped(&self) -> bool {
        matches!(wait(&[self.fd()], Some(Instant::now())), Ok(1))
    }

    /// Swallow every pending trip.
    pub fn clear(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rd).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// [`Latch::trip`] by raw descriptor — one `write(2)`, which is
/// async-signal-safe, so a signal handler can call it. Negative
/// descriptors are ignored.
pub fn trip_raw(fd: RawFd) {
    if fd >= 0 {
        let byte = 1u8;
        // SAFETY: writes one byte from a live stack variable; a stale or
        // full descriptor makes the call fail, which is ignored.
        unsafe {
            sys::write(fd, &byte, 1);
        }
    }
}

/// Block until one of `fds` (at most three) is readable — or hung up, or
/// in error, which the caller's next `read`/`accept` reports — or until
/// `deadline` passes (`None` waits forever). Returns a bitmask: bit `i` is
/// set when `fds[i]` is ready, and 0 means the deadline passed first.
/// Signal interruptions are retried against the same deadline.
pub fn wait(fds: &[RawFd], deadline: Option<Instant>) -> io::Result<u32> {
    assert!(
        fds.len() <= MAX_FDS,
        "wait() watches at most {MAX_FDS} descriptors"
    );
    let mut set = [sys::PollFd {
        fd: -1,
        events: sys::POLLIN,
        revents: 0,
    }; MAX_FDS];
    for (slot, &fd) in set.iter_mut().zip(fds) {
        slot.fd = fd;
    }
    loop {
        let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        // Round up: a sub-millisecond remainder must sleep, not spin.
        let timeout_ms = match left {
            Some(left) => left.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32,
            None => -1,
        };
        // SAFETY: `set` is a live array of `fds.len() <= MAX_FDS`
        // initialised entries; poll writes only their `revents`.
        let rc = unsafe { sys::poll(set.as_mut_ptr(), fds.len() as sys::Nfds, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        let ready = set
            .iter()
            .enumerate()
            .filter(|(_, p)| p.revents != 0)
            .fold(0u32, |mask, (i, _)| mask | 1 << i);
        // A zero return before the deadline only happens when the wait
        // was clamped to i32::MAX milliseconds: go round again.
        if ready != 0 || deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(ready);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_tripped_latch_wakes_every_waiter_and_stays_tripped() {
        let latch = Latch::new().unwrap();
        assert!(!latch.is_tripped());
        let start = Instant::now();
        assert_eq!(
            wait(&[latch.fd()], Some(start + Duration::from_millis(30))).unwrap(),
            0
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..4)
                .map(|_| s.spawn(|| wait(&[latch.fd()], None).unwrap()))
                .collect();
            latch.trip();
            for w in waiters {
                assert_eq!(w.join().unwrap(), 1);
            }
        });
        // Level-triggered: later waiters see it too, repeated trips are
        // harmless, and only clear() resets it.
        latch.trip();
        trip_raw(latch.write_fd());
        trip_raw(-1);
        assert!(latch.is_tripped());
        assert_eq!(wait(&[latch.fd()], None).unwrap(), 1);
        latch.clear();
        assert!(!latch.is_tripped());
    }

    #[test]
    fn wait_reports_which_descriptor_is_ready() {
        let (a, b) = (Latch::new().unwrap(), Latch::new().unwrap());
        b.trip();
        assert_eq!(wait(&[a.fd(), b.fd()], None).unwrap(), 0b10);
        a.trip();
        assert_eq!(wait(&[a.fd(), b.fd()], None).unwrap(), 0b11);
    }

    #[test]
    fn a_latch_survives_more_trips_than_the_pipe_holds() {
        let latch = Latch::new().unwrap();
        for _ in 0..100_000 {
            latch.trip();
        }
        assert!(latch.is_tripped());
        latch.clear();
        assert!(!latch.is_tripped());
    }
}
