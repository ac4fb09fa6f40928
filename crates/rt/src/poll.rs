//! Minimal libc socket bindings shared by every event-loop in this crate:
//! `poll(2)` for readiness waits and `listen(2)` for accept-queue sizing.
//!
//! `std` already links libc on every unix target, so declaring the two
//! symbols we need avoids a dependency. This is the crate's only foreign
//! syscall surface — every socket wait in the crate is the one
//! [`poll_wait`] call in [`crate::engine`] — which keeps the workspace
//! down to two `unsafe` sites (and two `// SAFETY:` audit points) for
//! foreign I/O. No atomics live here: the bindings are pure syscall
//! wrappers.
#![cfg(unix)]

/// There is data to read.
pub const POLLIN: i16 = 0x001;
/// Writing is now possible.
pub(crate) const POLLOUT: i16 = 0x004;

/// One registered fd, `struct pollfd` layout.
#[repr(C)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: i32,
    /// Requested readiness events.
    pub events: i16,
    /// Returned readiness events.
    pub revents: i16,
}

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = u32;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: std::os::raw::c_int) -> i32;
    fn listen(fd: std::os::raw::c_int, backlog: std::os::raw::c_int) -> i32;
}

/// Accept-queue depth for the dispatcher listeners. A whole executor fleet
/// dials at once (1000+ connections), and `connect(2)` returns as soon as
/// the kernel finishes the handshake — *not* when userspace calls
/// `accept(2)` — so even a serial dialer outruns the accept thread and
/// piles completed handshakes into the queue. `std`'s hardcoded backlog of
/// 128 overflows under that pile-up, the kernel drops the next SYN, and
/// the dialer stalls a full second in retransmit. Deep enough for the
/// largest fleet the benchmarks dial; the kernel clamps to `somaxconn`.
pub(crate) const LISTEN_BACKLOG: i32 = 4096;

/// Deepen an already-listening socket's accept queue. Linux re-applies
/// `listen(2)` on a listening fd by updating the backlog in place, which
/// lets us keep `std`'s safe bind path and fix only the queue depth.
#[allow(unsafe_code)]
pub(crate) fn set_backlog(listener: &std::net::TcpListener, backlog: i32) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    // SAFETY: `listener` owns a valid, open, listening socket fd for the
    // duration of the call, and `listen(2)` on a listening socket only
    // resizes its accept queue — no memory is passed or retained.
    let rc = unsafe { listen(listener.as_raw_fd(), backlog) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Block until a registered fd is ready (`timeout_ms < 0` = forever),
/// retrying on `EINTR`.
#[allow(unsafe_code)]
pub fn poll_wait(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` PollFd for the whole call, and `nfds` is its
        // exact length, matching the poll(2) contract.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}
