//! The reactor's one `unsafe` island: `epoll` and `eventfd` declared
//! against the libc that `std` already links, each call wrapped into an
//! `io::Result`. Nothing else in `psguard-siena` uses `unsafe`; the crate
//! lints `deny` it and only this module carries `#[allow(unsafe_code)]`
//! (the xtask `unsafe-island` rule keeps it that way).
//!
//! The constants are Linux's asm-generic values (x86_64, aarch64, riscv).
#![allow(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("psguard-siena's TCP reactor needs epoll: there is no poller backend for this OS");

use std::fs::File;
use std::io;
use std::os::fd::{AsRawFd, BorrowedFd, FromRawFd, OwnedFd, RawFd};

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
pub(crate) const EPOLLET: u32 = 1 << 31;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const CLOEXEC: i32 = 0o2_000_000;
const EFD_NONBLOCK: i32 = 0o4000;

/// The kernel's `struct epoll_event`: packed on x86_64 only, as in
/// `<sys/epoll.h>`. Fields are read by value, never by reference.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EpollEvent {
    pub(crate) events: u32,
    pub(crate) data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// A negative return is `-1` with the cause in `errno`.
fn check(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Takes ownership of a descriptor a successful call just returned.
fn owned(fd: RawFd) -> OwnedFd {
    // SAFETY: `fd` was returned by a successful `epoll_create1`/`eventfd`
    // call just now, so it is open and nothing else owns it.
    unsafe { OwnedFd::from_raw_fd(fd) }
}

/// A new close-on-exec epoll instance.
pub(crate) fn epoll_new() -> io::Result<OwnedFd> {
    // SAFETY: takes only an integer flag and touches no memory of ours.
    check(unsafe { epoll_create1(CLOEXEC) }).map(owned)
}

/// Adds `fd` to `ep`, reporting `events` under `data`.
pub(crate) fn epoll_add(
    ep: &OwnedFd,
    fd: BorrowedFd<'_>,
    events: u32,
    data: u64,
) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    // SAFETY: both descriptors are open for the duration of the call
    // (borrowed), and `ev` is a live `epoll_event` the kernel only reads.
    check(unsafe { epoll_ctl(ep.as_raw_fd(), EPOLL_CTL_ADD, fd.as_raw_fd(), &mut ev) }).map(drop)
}

/// Removes `fd` from `ep`; its token is never reported again.
pub(crate) fn epoll_del(ep: &OwnedFd, fd: BorrowedFd<'_>) -> io::Result<()> {
    let mut ev = EpollEvent::default();
    // SAFETY: as in `epoll_add`; kernels before 2.6.9 require a non-null
    // event pointer even for a delete, so one is passed.
    check(unsafe { epoll_ctl(ep.as_raw_fd(), EPOLL_CTL_DEL, fd.as_raw_fd(), &mut ev) }).map(drop)
}

/// Waits up to `timeout_ms` (`-1`: forever) for events on `ep`, filling
/// the front of `out`. Returns how many were filled; an interrupted wait
/// reports none.
pub(crate) fn epoll_wait_into(
    ep: &OwnedFd,
    out: &mut [EpollEvent],
    timeout_ms: i32,
) -> io::Result<usize> {
    let max = i32::try_from(out.len()).unwrap_or(i32::MAX);
    // BLOCKING-OK: the reactor's one sanctioned blocking site. A worker
    // or client reactor sleeps here until the kernel or a `PollWaker`
    // has work for it, or its nearest timer is due.
    // SAFETY: `out` is a live, exclusively borrowed buffer of `max`
    // `epoll_event`s; the kernel writes at most `max` of them.
    match check(unsafe { epoll_wait(ep.as_raw_fd(), out.as_mut_ptr(), max, timeout_ms) }) {
        Ok(n) => Ok(usize::try_from(n).unwrap_or(0)),
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
        Err(e) => Err(e),
    }
}

/// A new nonblocking, close-on-exec eventfd with counter zero, as a
/// `File`: its 8-byte `read`/`write` go through safe `std` I/O.
pub(crate) fn eventfd_new() -> io::Result<File> {
    // SAFETY: takes only integers and touches no memory of ours.
    check(unsafe { eventfd(0, CLOEXEC | EFD_NONBLOCK) }).map(|fd| File::from(owned(fd)))
}
