//! Hand-rolled syscall shims for the reactor.
//!
//! The build environment has no crates.io access, so everything here goes
//! through the libc already linked into every Rust binary, declared by
//! hand in the workspace's one `extern "C"` block. Only the subset the
//! reactor and the socket fabric need is wrapped: `epoll` for readiness,
//! `eventfd` for cross-thread wakeups, nonblocking TCP connect
//! (`EINPROGRESS` + `SO_ERROR`), the `SO_REUSEADDR` UDP bind of the
//! discovery socket, and `RLIMIT_NOFILE` queries for the CN057 capacity
//! lint and the connection-scale bench.

#![allow(clippy::missing_safety_doc)]

use std::io;

#[cfg(target_os = "linux")]
pub use linux::*;

#[cfg(target_os = "linux")]
mod linux {
    use std::io;
    use std::net::{SocketAddrV4, TcpStream, UdpSocket};
    use std::os::fd::{AsRawFd, FromRawFd, RawFd};

    // The kernel packs epoll_event on x86_64 (and only there); getting
    // this wrong silently corrupts the user-data token.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    impl EpollEvent {
        pub const fn zeroed() -> EpollEvent {
            EpollEvent { events: 0, data: 0 }
        }

        pub fn token(&self) -> u64 {
            self.data
        }

        pub fn readable(&self) -> bool {
            self.events & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0
        }

        pub fn writable(&self) -> bool {
            self.events & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0
        }
    }

    #[repr(C)]
    struct Rlimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn connect(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn getsockopt(fd: i32, level: i32, name: i32, value: *mut u8, len: *mut u32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    }

    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_DGRAM: i32 = 2;
    const SOCK_NONBLOCK: i32 = 0o4000;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    const SO_ERROR: i32 = 4;
    const EINPROGRESS: i32 = 115;
    const EINTR: i32 = 4;
    const RLIMIT_NOFILE: i32 = 7;

    /// A level-triggered epoll instance. Tokens are caller-chosen u64s
    /// carried back verbatim in each event's user data.
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events, data: token };
            if unsafe { epoll_ctl(self.fd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Wait for readiness; `timeout_ms < 0` blocks indefinitely.
        /// `EINTR` retries internally so callers never see it.
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            loop {
                let n = unsafe {
                    epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
                };
                if n >= 0 {
                    return Ok(n as usize);
                }
                let err = io::Error::last_os_error();
                if err.raw_os_error() != Some(EINTR) {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    /// A nonblocking eventfd: the reactor's cross-thread wakeup doorbell.
    /// Any thread may `ring` it; the owning shard registers it in its
    /// epoll set and `drain`s it on wake.
    pub struct EventFd {
        fd: RawFd,
    }

    impl EventFd {
        pub fn new() -> io::Result<EventFd> {
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EventFd { fd })
        }

        pub fn as_raw_fd(&self) -> RawFd {
            self.fd
        }

        /// Add 1 to the counter, waking any epoll_wait watching the fd.
        /// A full counter (EAGAIN) already guarantees a pending wakeup.
        pub fn ring(&self) {
            let one: u64 = 1;
            unsafe { write(self.fd, &one as *const u64 as *const u8, 8) };
        }

        /// Reset the counter so the next `ring` edge-triggers a fresh
        /// readiness event (the fd is level-triggered until drained).
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    /// Begin a nonblocking TCP connect. Returns the socket (already
    /// `SOCK_NONBLOCK`) and whether the connect completed immediately
    /// (loopback often does); otherwise the caller waits for `EPOLLOUT`
    /// and checks [`take_socket_error`].
    pub fn connect_nonblocking(addr: SocketAddrV4) -> io::Result<(TcpStream, bool)> {
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // The ephemeral port this socket draws outlives it in
            // `TIME_WAIT`, and a listener's `bind(0)` (std sets the option)
            // may only reuse a port whose remnants all had it set too.
            // Best effort: a connect without it is still a connect.
            let one: i32 = 1;
            setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one as *const i32 as *const u8, 4);
            let sa = SockaddrIn {
                sin_family: AF_INET as u16,
                sin_port: addr.port().to_be(),
                sin_addr: u32::from_ne_bytes(addr.ip().octets()),
                sin_zero: [0; 8],
            };
            let rc = connect(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32);
            if rc == 0 {
                return Ok((TcpStream::from_raw_fd(fd), true));
            }
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(EINPROGRESS) {
                return Ok((TcpStream::from_raw_fd(fd), false));
            }
            close(fd);
            Err(err)
        }
    }

    /// Create a UDP socket bound to `0.0.0.0:port` with `SO_REUSEADDR`, so
    /// several processes on one host can share the discovery port.
    /// `std::net` cannot set socket options before bind.
    pub fn bind_reuse(port: u16) -> io::Result<UdpSocket> {
        unsafe {
            let fd = socket(AF_INET, SOCK_DGRAM, 0);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            let one: i32 = 1;
            if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one as *const i32 as *const u8, 4) < 0 {
                let err = io::Error::last_os_error();
                close(fd);
                return Err(err);
            }
            let sa = SockaddrIn {
                sin_family: AF_INET as u16,
                sin_port: port.to_be(),
                sin_addr: 0, // INADDR_ANY
                sin_zero: [0; 8],
            };
            if bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) < 0 {
                let err = io::Error::last_os_error();
                close(fd);
                return Err(err);
            }
            Ok(UdpSocket::from_raw_fd(fd))
        }
    }

    /// Fetch-and-clear `SO_ERROR`: the verdict of a nonblocking connect
    /// once the socket reports writable.
    pub fn take_socket_error(stream: &TcpStream) -> io::Result<()> {
        let mut err: i32 = 0;
        let mut len: u32 = 4;
        let rc = unsafe {
            getsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_ERROR,
                &mut err as *mut i32 as *mut u8,
                &mut len,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        if err != 0 {
            return Err(io::Error::from_raw_os_error(err));
        }
        Ok(())
    }

    /// The process's `RLIMIT_NOFILE` as `(soft, hard)`.
    pub fn fd_limits() -> io::Result<(u64, u64)> {
        let mut rl = Rlimit { rlim_cur: 0, rlim_max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut rl) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((rl.rlim_cur, rl.rlim_max))
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::net::{Ipv4Addr, TcpListener};

        #[test]
        fn outbound_sockets_carry_so_reuseaddr() {
            let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
            let port = listener.local_addr().unwrap().port();
            let (stream, _) =
                connect_nonblocking(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port)).unwrap();
            let (mut set, mut len) = (0i32, 4u32);
            let rc = unsafe {
                getsockopt(
                    stream.as_raw_fd(),
                    SOL_SOCKET,
                    SO_REUSEADDR,
                    &mut set as *mut i32 as *mut u8,
                    &mut len,
                )
            };
            assert_eq!((rc, set), (0, 1));
        }
    }
}

// Non-Linux hosts compile but cannot run a reactor: every entry point
// reports `Unsupported`, mirroring how the socket fabric is Linux-first.
#[cfg(not(target_os = "linux"))]
pub use fallback::*;

#[cfg(not(target_os = "linux"))]
mod fallback {
    use std::io;
    use std::net::{SocketAddrV4, TcpStream, UdpSocket};

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "cn-reactor requires Linux epoll"))
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;

    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    impl EpollEvent {
        pub const fn zeroed() -> EpollEvent {
            EpollEvent { events: 0, data: 0 }
        }
        pub fn token(&self) -> u64 {
            self.data
        }
        pub fn readable(&self) -> bool {
            false
        }
        pub fn writable(&self) -> bool {
            false
        }
    }

    pub struct Epoll;

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            unsupported()
        }
        pub fn add(&self, _fd: i32, _events: u32, _token: u64) -> io::Result<()> {
            unsupported()
        }
        pub fn modify(&self, _fd: i32, _events: u32, _token: u64) -> io::Result<()> {
            unsupported()
        }
        pub fn delete(&self, _fd: i32) -> io::Result<()> {
            unsupported()
        }
        pub fn wait(&self, _events: &mut [EpollEvent], _timeout_ms: i32) -> io::Result<usize> {
            unsupported()
        }
    }

    pub struct EventFd;

    impl EventFd {
        pub fn new() -> io::Result<EventFd> {
            unsupported()
        }
        pub fn as_raw_fd(&self) -> i32 {
            -1
        }
        pub fn ring(&self) {}
        pub fn drain(&self) {}
    }

    pub fn connect_nonblocking(_addr: SocketAddrV4) -> io::Result<(TcpStream, bool)> {
        unsupported()
    }

    pub fn bind_reuse(_port: u16) -> io::Result<UdpSocket> {
        unsupported()
    }

    pub fn take_socket_error(_stream: &TcpStream) -> io::Result<()> {
        Ok(())
    }

    pub fn fd_limits() -> io::Result<(u64, u64)> {
        unsupported()
    }
}

/// Whether an I/O error is the nonblocking "try again later" class.
pub fn is_would_block(err: &io::Error) -> bool {
    matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted)
}
