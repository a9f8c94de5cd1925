//! A minimal `epoll(7)` readiness facade for the event-driven server.
//!
//! There is no `libc` crate in this dependency-free workspace, so — as
//! with [`crate::signal`] — the linux implementation declares the four
//! syscall wrappers it needs (`epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! plus `pipe2`/`write`/`read`/`close` for the self-pipe waker) against
//! the always-linked platform libc. Everything else in the server builds
//! on `std` (`TcpListener::set_nonblocking`, `AsRawFd`).
//!
//! The facade is deliberately small:
//!
//! - [`Poller`]: level-triggered registration ([`Interest`]) of raw fds
//!   under a caller-chosen `u64` token, and a blocking [`Poller::wait`]
//!   with a millisecond timeout;
//! - [`Waker`]: a cloneable, thread-safe handle that makes `wait` return
//!   by writing one byte to a nonblocking self-pipe whose read end is
//!   registered like any other fd. Worker threads use it to hand
//!   completed responses back to the event loop; the signal watcher uses
//!   it to start the drain.
//!
//! Level-triggered mode keeps the state machines simple: a readable or
//! writable fd keeps reporting until it is drained, so a short read or
//! partial write never strands a connection.
//!
//! On non-linux targets [`Poller::new`] returns
//! [`std::io::ErrorKind::Unsupported`]; the serving stack is linux-only
//! (the CI and deployment targets), while the rest of the crate —
//! client, schema, json — stays portable.

/// Readiness interest for a registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable.
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Self = Self {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITE: Self = Self {
        readable: false,
        writable: true,
    };
    /// Read + write interest.
    pub const BOTH: Self = Self {
        readable: true,
        writable: true,
    };
}

/// One readiness event from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (or peer-closed/error — treated as readable so the owner
    /// observes the EOF/error on its next read).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

pub use imp::{Poller, Waker};

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod imp {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::Arc;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const O_NONBLOCK: i32 = 0o4000;
    const O_CLOEXEC: i32 = 0o2000000;

    /// `struct epoll_event`. The kernel ABI packs this to 12 bytes on
    /// x86-64; other linux targets use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    // SAFETY: these signatures match the epoll(7), pipe2(2), and
    // read/write/close(2) prototypes from the always-linked platform
    // libc exactly (i32 fds/flags, pointer + length buffers, isize
    // byte counts), so the declarations cannot introduce ABI mismatch.
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn pipe2(fds: *mut i32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    fn last_error() -> io::Error {
        io::Error::last_os_error()
    }

    fn mask_of(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    /// An owned epoll instance plus the self-pipe waker fds.
    #[derive(Debug)]
    pub struct Poller {
        epfd: i32,
        wake_rx: i32,
        wake_tx: Arc<WakeFd>,
    }

    /// Owns the pipe's write end; shared by every [`Waker`] clone.
    #[derive(Debug)]
    struct WakeFd(i32);

    impl Drop for WakeFd {
        fn drop(&mut self) {
            // SAFETY: fd is owned by this struct and closed exactly once.
            unsafe { close(self.0) };
        }
    }

    /// Wakes a blocked [`Poller::wait`] from any thread.
    #[derive(Debug, Clone)]
    pub struct Waker {
        fd: Arc<WakeFd>,
    }

    impl Waker {
        /// Makes the next (or current) [`Poller::wait`] return. Safe to
        /// call from any thread; a full pipe means a wake-up is already
        /// pending, so `EAGAIN` is success.
        pub fn wake(&self) {
            let byte = 1u8;
            // SAFETY: fd is a valid nonblocking pipe write end for the
            // lifetime of the Arc; a 1-byte write cannot overrun `byte`.
            unsafe { write(self.fd.0, &byte, 1) };
        }
    }

    impl Poller {
        /// The token [`Poller::wait`] reports for waker notifications.
        pub const WAKE_TOKEN: u64 = u64::MAX;

        /// Creates the epoll instance and its self-pipe.
        ///
        /// # Errors
        /// Propagates `epoll_create1`/`pipe2` failures (fd exhaustion).
        pub fn new() -> io::Result<Self> {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(last_error());
            }
            let mut fds = [0i32; 2];
            // SAFETY: `fds` is a valid out-buffer for exactly two fds.
            if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } < 0 {
                let err = last_error();
                // SAFETY: epfd was just created and is owned here.
                unsafe { close(epfd) };
                return Err(err);
            }
            let [rx, tx] = fds;
            let poller = Self {
                epfd,
                wake_rx: rx,
                wake_tx: Arc::new(WakeFd(tx)),
            };
            poller.register(rx, Self::WAKE_TOKEN, Interest::READ)?;
            Ok(poller)
        }

        /// A cloneable waker for this poller.
        pub fn waker(&self) -> Waker {
            Waker {
                fd: Arc::clone(&self.wake_tx),
            }
        }

        /// Registers `fd` (level-triggered) under `token`.
        ///
        /// # Errors
        /// Propagates `epoll_ctl` failures.
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Changes the interest set of a registered fd.
        ///
        /// # Errors
        /// Propagates `epoll_ctl` failures.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Removes a registered fd.
        ///
        /// # Errors
        /// Propagates `epoll_ctl` failures.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask_of(interest),
                data: token,
            };
            // SAFETY: `ev` is a valid epoll_event for the duration of the
            // call; the kernel copies it before returning.
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(last_error());
            }
            Ok(())
        }

        /// Blocks until an fd is ready or `timeout_ms` elapses (`None` =
        /// wait indefinitely), appending events to `out`. Waker
        /// notifications are drained internally and reported as
        /// [`Poller::WAKE_TOKEN`] events.
        ///
        /// # Errors
        /// Propagates `epoll_wait` failures; `EINTR` is surfaced as an
        /// empty event set so callers can re-check shutdown flags.
        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: Option<u32>) -> io::Result<()> {
            let mut raw = [EpollEvent { events: 0, data: 0 }; 64];
            let timeout = timeout_ms.map_or(-1i32, |t| t.min(i32::MAX as u32) as i32);
            // SAFETY: `raw` is a valid out-buffer of 64 epoll_events.
            let n = unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), 64, timeout) };
            if n < 0 {
                let err = last_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in raw.iter().take(n as usize) {
                let (events, token) = (ev.events, ev.data);
                if token == Self::WAKE_TOKEN {
                    self.drain_wake_pipe();
                }
                out.push(Event {
                    token,
                    // Errors/hang-ups surface as readable so the owner's
                    // next read observes them.
                    readable: events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    writable: events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }

        fn drain_wake_pipe(&self) {
            let mut sink = [0u8; 64];
            loop {
                // SAFETY: `sink` is a valid 64-byte out-buffer; the pipe
                // read end is owned by this poller and nonblocking.
                let n = unsafe { read(self.wake_rx, sink.as_mut_ptr(), sink.len()) };
                if n <= 0 {
                    break; // Empty (EAGAIN) or closed: fully drained.
                }
            }
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: both fds are owned by this struct and closed once;
            // the write end closes when the last Waker Arc drops.
            unsafe {
                close(self.wake_rx);
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;

    /// Unsupported on non-linux targets: [`Poller::new`] fails.
    #[derive(Debug)]
    pub struct Poller {
        _private: (),
    }

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "hl-serve's event loop requires epoll (linux)",
        )
    }

    /// Inert waker for the non-linux stub.
    #[derive(Debug, Clone)]
    pub struct Waker;

    impl Waker {
        /// No-op.
        pub fn wake(&self) {}
    }

    impl Poller {
        /// The token [`Poller::wait`] reports for waker notifications.
        pub const WAKE_TOKEN: u64 = u64::MAX;

        /// Always fails: the event-driven server requires epoll.
        ///
        /// # Errors
        /// Always `io::ErrorKind::Unsupported`.
        pub fn new() -> io::Result<Self> {
            Err(unsupported())
        }

        /// Unreachable in practice (construction always fails); returns
        /// the inert waker rather than panicking.
        pub fn waker(&self) -> Waker {
            Waker
        }

        /// Unreachable in practice (construction always fails).
        ///
        /// # Errors
        /// Always `io::ErrorKind::Unsupported`.
        pub fn register(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable in practice (construction always fails).
        ///
        /// # Errors
        /// Always `io::ErrorKind::Unsupported`.
        pub fn modify(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable in practice (construction always fails).
        ///
        /// # Errors
        /// Always `io::ErrorKind::Unsupported`.
        pub fn deregister(&self, _fd: RawFd) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable in practice (construction always fails).
        ///
        /// # Errors
        /// Always `io::ErrorKind::Unsupported`.
        pub fn wait(&self, _out: &mut Vec<Event>, _timeout_ms: Option<u32>) -> io::Result<()> {
            Err(unsupported())
        }
    }
}

#[cfg(test)]
mod tests {
    #[cfg(target_os = "linux")]
    mod linux {
        use crate::epoll::*;
        use std::io::Write as _;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;
        use std::time::{Duration, Instant};

        #[test]
        fn timeout_expires_without_events() {
            let poller = Poller::new().unwrap();
            let mut events = Vec::new();
            let t0 = Instant::now();
            poller.wait(&mut events, Some(20)).unwrap();
            assert!(events.is_empty());
            assert!(t0.elapsed() >= Duration::from_millis(15));
        }

        #[test]
        fn waker_wakes_from_another_thread() {
            let poller = Poller::new().unwrap();
            let waker = poller.waker();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                waker.wake();
            });
            let mut events = Vec::new();
            poller.wait(&mut events, Some(5000)).unwrap();
            handle.join().unwrap();
            assert!(events.iter().any(|e| e.token == Poller::WAKE_TOKEN));
            // The pipe is drained: the next wait times out instead of
            // spinning on a stale byte.
            events.clear();
            poller.wait(&mut events, Some(10)).unwrap();
            assert!(events.iter().all(|e| e.token != Poller::WAKE_TOKEN));
        }

        #[test]
        fn readable_socket_reports_its_token() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let poller = Poller::new().unwrap();
            listener.set_nonblocking(true).unwrap();
            poller
                .register(listener.as_raw_fd(), 7, Interest::READ)
                .unwrap();
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(b"x").unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, Some(5000)).unwrap();
            assert!(events.iter().any(|e| e.token == 7 && e.readable));
            // Interest can be switched off and the fd removed.
            poller
                .modify(listener.as_raw_fd(), 7, Interest::WRITE)
                .unwrap();
            poller.deregister(listener.as_raw_fd()).unwrap();
        }
    }
}
