//! # peats-poll
//!
//! `poll(2)` for `std` sockets — the one thing `peats-net`'s mailbox needs
//! that `std` cannot do: wait on several descriptors at once. The whole
//! surface is [`PollFd`] and [`wait`]; the one foreign call behind them is
//! the only `unsafe` code in the workspace (every other crate forbids it,
//! `scripts/check_unsafe.sh` holds the line).
//!
//! `poll`, not `epoll`: a node watches 5–9 descriptors, so there is no
//! registration state worth keeping in the kernel, and the set is passed
//! whole on every call — nothing to keep in step with the connections as
//! they come and go.
//!
//! Unix only.

#![cfg(unix)]
// The workspace denies `unsafe_code`; this crate is where the exception
// lives.
#![allow(unsafe_code)]
#![warn(missing_docs)]

use std::io;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short};
use std::time::{Duration, Instant};

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs and macOS.
#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::os::raw::c_uint;

/// `POLLIN`: the same bit on every unix.
const POLLIN: c_short = 0x001;

/// One descriptor to wait on: C's `struct pollfd`, field for field.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for input. The entry holds the descriptor's number,
    /// not the descriptor: waiting on one that was closed meanwhile is
    /// reported as ready, and the read that follows fails.
    pub fn readable(fd: &impl AsRawFd) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported anything for this descriptor:
    /// input, end of stream, hang-up or an error — every case in which a
    /// `read` (or `accept`) returns at once and says which.
    pub fn is_ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor of `fds` is ready or `timeout` has passed,
/// and returns how many are ready (`0`: timed out); [`PollFd::is_ready`]
/// says which. `timeout` rounds *up* to `poll`'s millisecond, so a wait
/// never returns early, and a zero timeout only looks. A wait cut short by
/// a signal is resumed for the time that is left.
///
/// # Errors
///
/// The error of `poll(2)` other than `EINTR`: more descriptors than the
/// process may open (`EINVAL`), or no memory for the kernel's tables.
pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let nfds = NfdsT::try_from(fds.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many descriptors"))?;
    resuming(timeout, |millis| {
        // SAFETY: `fds` is an exclusive borrow of `nfds` initialized
        // `PollFd`s, and `PollFd` is `#[repr(C)]` with `struct pollfd`'s
        // three fields, so the kernel reads and writes exactly the memory
        // the borrow covers; it keeps no pointer past the call. A stale or
        // negative descriptor number is reported in `revents` or skipped,
        // never dereferenced.
        let ready = unsafe { poll(fds.as_mut_ptr(), nfds, millis) };
        usize::try_from(ready).map_err(|_| io::Error::last_os_error())
    })
}

/// Runs `attempt` with `timeout` in whole milliseconds, rounded up, and
/// again with what is left of it for as long as it reports
/// [`io::ErrorKind::Interrupted`].
fn resuming(
    timeout: Duration,
    mut attempt: impl FnMut(c_int) -> io::Result<usize>,
) -> io::Result<usize> {
    let start = Instant::now();
    let mut left = timeout;
    loop {
        let millis = left.as_nanos().div_ceil(1_000_000);
        match attempt(c_int::try_from(millis).unwrap_or(c_int::MAX)) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                left = timeout.saturating_sub(start.elapsed());
            }
            done => return done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    #[test]
    fn an_idle_descriptor_times_out_on_time_never_early() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::readable(&a)];
        // Sub-millisecond timeouts round up to one millisecond.
        for timeout in [Duration::from_micros(300), Duration::from_millis(5)] {
            let spent = (0..10)
                .map(|_| {
                    let start = Instant::now();
                    assert_eq!(wait(&mut fds, timeout).unwrap(), 0);
                    assert!(!fds[0].is_ready());
                    start.elapsed()
                })
                .min()
                .expect("10 rounds");
            assert!(spent >= timeout, "{timeout:?} returned after {spent:?}");
            // The quickest of 10 rounds, so the scheduler's worst moments
            // are left out: the rounding adds under a millisecond, waking
            // up about as much again.
            let late = spent - timeout;
            assert!(
                late < Duration::from_millis(2),
                "{timeout:?} ran {late:?} over"
            );
        }
    }

    #[test]
    fn a_zero_timeout_only_looks() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::readable(&a)];
        let start = Instant::now();
        assert_eq!(wait(&mut fds, Duration::ZERO).unwrap(), 0);
        assert!(start.elapsed() < Duration::from_millis(1));
        b.write_all(b"x").unwrap();
        assert_eq!(wait(&mut fds, Duration::ZERO).unwrap(), 1);
    }

    #[test]
    fn reports_which_descriptors_have_input_and_which_hung_up() {
        let (quiet, _quiet_peer) = UnixStream::pair().unwrap();
        let (loud, mut loud_peer) = UnixStream::pair().unwrap();
        let (closed, closed_peer) = UnixStream::pair().unwrap();
        let mut fds = [
            PollFd::readable(&quiet),
            PollFd::readable(&loud),
            PollFd::readable(&closed),
        ];
        loud_peer.write_all(b"x").unwrap();
        drop(closed_peer);
        assert_eq!(wait(&mut fds, Duration::from_secs(5)).unwrap(), 2);
        assert!(!fds[0].is_ready());
        assert!(fds[1].is_ready(), "input");
        assert!(fds[2].is_ready(), "end of stream");
        // Readiness is a level, not an edge: unread input is reported again.
        assert_eq!(wait(&mut fds, Duration::ZERO).unwrap(), 2);
    }

    #[test]
    fn input_ends_a_long_wait_at_once() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            b.write_all(b"x").unwrap();
            b
        });
        let start = Instant::now();
        let mut fds = [PollFd::readable(&a)];
        assert_eq!(wait(&mut fds, Duration::from_secs(30)).unwrap(), 1);
        assert!(start.elapsed() < Duration::from_secs(5));
        writer.join().unwrap();
    }

    #[test]
    fn no_descriptors_is_a_sleep() {
        let start = Instant::now();
        assert_eq!(wait(&mut [], Duration::from_millis(3)).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(3));
    }

    fn interrupted() -> io::Error {
        io::Error::from(io::ErrorKind::Interrupted)
    }

    /// A signal cannot be raised from safe code, so the retry rule is
    /// tested on the loop `wait` runs its call in.
    #[test]
    fn an_interrupted_wait_resumes_with_the_time_that_is_left() {
        let timeout = Duration::from_millis(40);
        let mut offered = Vec::new();
        let done = resuming(timeout, |millis| {
            offered.push(millis);
            if offered.len() < 3 {
                std::thread::sleep(Duration::from_millis(5));
                return Err(interrupted());
            }
            Ok(1)
        });
        assert_eq!(done.unwrap(), 1);
        assert_eq!(offered[0], 40);
        assert!(offered[1] <= 35 && offered[2] <= 30, "{offered:?}");
        assert!(offered[2] < offered[1], "{offered:?}");

        // Interrupted until the time is up: the last attempt only looks,
        // and its answer stands.
        let start = Instant::now();
        let mut last = -1;
        let done = resuming(Duration::from_millis(10), |millis| {
            last = millis;
            if millis > 0 {
                std::thread::sleep(Duration::from_millis(4));
                return Err(interrupted());
            }
            Ok(0)
        });
        assert_eq!((done.unwrap(), last), (0, 0));
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn other_errors_are_returned_and_huge_timeouts_clamp() {
        let failed = resuming(Duration::ZERO, |_| Err(io::Error::from_raw_os_error(22)));
        assert_eq!(failed.unwrap_err().raw_os_error(), Some(22));
        let mut offered = 0;
        resuming(Duration::MAX, |millis| {
            offered = millis;
            Ok(0)
        })
        .unwrap();
        assert_eq!(offered, c_int::MAX);
        // 1 ns rounds up to a whole millisecond.
        resuming(Duration::from_nanos(1), |millis| {
            offered = millis;
            Ok(0)
        })
        .unwrap();
        assert_eq!(offered, 1);
    }
}
