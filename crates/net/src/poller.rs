//! Readiness polling behind one API: epoll on Linux, `poll(2)`
//! everywhere else (and selectable at construction for tests, so the
//! fallback stays exercised on Linux too).
//!
//! Level-triggered semantics on both backends: an event repeats every
//! wait until the condition is consumed. The event loop re-arms
//! interest explicitly after every state change, which keeps the two
//! backends behaviorally identical and avoids the classic
//! edge-triggered starvation bugs (a connection whose buffer was not
//! fully drained never waking again).

use crate::sys;
use std::io;
use std::time::Duration;

/// What a registered descriptor wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable.
    pub readable: bool,
    /// Wake when writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: usize,
    /// Readable (or peer hung up — reads will observe EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hangup condition; the owner should read to EOF and close.
    pub hangup: bool,
}

/// Which backend a [`Poller`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollerKind {
    /// `epoll(7)` — O(ready) wakeups; Linux only.
    Epoll,
    /// `poll(2)` — O(registered) per wait; portable fallback.
    Poll,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll { epfd: i32 },
    Poll {
        /// Registered descriptors: `(fd, token, interest)`.
        entries: Vec<(i32, usize, Interest)>,
    },
}

/// A readiness poller over raw file descriptors.
///
/// The poller never owns a descriptor: callers keep their
/// `TcpListener`/`TcpStream`s alive for as long as the registration
/// and must deregister before closing.
pub struct Poller {
    backend: Backend,
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd } = self.backend {
            sys::sys_close(epfd);
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_mask(interest: Interest) -> u32 {
    let mut m = sys::EPOLLRDHUP;
    if interest.readable {
        m |= sys::EPOLLIN;
    }
    if interest.writable {
        m |= sys::EPOLLOUT;
    }
    m
}

impl Poller {
    /// The platform's preferred backend: epoll on Linux, `poll(2)`
    /// elsewhere.
    ///
    /// # Errors
    /// Propagates epoll-instance creation failures.
    pub fn new() -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        {
            Self::with_kind(PollerKind::Epoll)
        }
        #[cfg(not(target_os = "linux"))]
        {
            Self::with_kind(PollerKind::Poll)
        }
    }

    /// A poller on an explicit backend ([`PollerKind::Epoll`] fails off
    /// Linux).
    ///
    /// # Errors
    /// Propagates epoll-instance creation failures; `Unsupported` for
    /// epoll off Linux.
    pub fn with_kind(kind: PollerKind) -> io::Result<Self> {
        match kind {
            PollerKind::Epoll => {
                #[cfg(target_os = "linux")]
                {
                    let epfd = sys::sys_epoll_create()?;
                    Ok(Self {
                        backend: Backend::Epoll { epfd },
                    })
                }
                #[cfg(not(target_os = "linux"))]
                {
                    Err(io::Error::new(
                        io::ErrorKind::Unsupported,
                        "epoll is Linux-only",
                    ))
                }
            }
            PollerKind::Poll => Ok(Self {
                backend: Backend::Poll {
                    entries: Vec::new(),
                },
            }),
        }
    }

    /// The backend in use.
    pub fn kind(&self) -> PollerKind {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => PollerKind::Epoll,
            Backend::Poll { .. } => PollerKind::Poll,
        }
    }

    /// Start watching `fd` under `token`.
    ///
    /// # Errors
    /// Propagates `epoll_ctl` failures.
    pub fn register(&mut self, fd: i32, token: usize, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => sys::sys_epoll_ctl(
                *epfd,
                sys::EPOLL_CTL_ADD,
                fd,
                epoll_mask(interest),
                token as u64,
            ),
            Backend::Poll { entries } => {
                entries.push((fd, token, interest));
                Ok(())
            }
        }
    }

    /// Change what `fd` is woken for.
    ///
    /// # Errors
    /// Propagates `epoll_ctl` failures.
    pub fn reregister(&mut self, fd: i32, token: usize, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => sys::sys_epoll_ctl(
                *epfd,
                sys::EPOLL_CTL_MOD,
                fd,
                epoll_mask(interest),
                token as u64,
            ),
            Backend::Poll { entries } => {
                for e in entries.iter_mut() {
                    if e.0 == fd {
                        e.1 = token;
                        e.2 = interest;
                        return Ok(());
                    }
                }
                Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
            }
        }
    }

    /// Stop watching `fd`. Call before closing the descriptor.
    pub fn deregister(&mut self, fd: i32) {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let _ = sys::sys_epoll_ctl(*epfd, sys::EPOLL_CTL_DEL, fd, 0, 0);
            }
            Backend::Poll { entries } => entries.retain(|e| e.0 != fd),
        }
    }

    /// Block for readiness, appending to `out` (cleared first). An
    /// `Interrupted` wait returns an empty event set rather than an
    /// error, so callers' loops stay signal-tolerant.
    ///
    /// # Errors
    /// Propagates non-EINTR wait failures.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => i32::try_from(d.as_millis().max(1)).unwrap_or(i32::MAX),
        };
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
                let n = match sys::sys_epoll_wait(*epfd, &mut events, timeout_ms) {
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                    Err(e) => return Err(e),
                };
                for ev in &events[..n] {
                    // Copy out of the (possibly packed) struct before use.
                    let mask = ev.events;
                    let token = ev.data as usize;
                    out.push(Event {
                        token,
                        readable: mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                        writable: mask & sys::EPOLLOUT != 0,
                        hangup: mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                    });
                }
                Ok(())
            }
            Backend::Poll { entries } => {
                let mut fds: Vec<sys::PollFd> = entries
                    .iter()
                    .map(|&(fd, _, interest)| {
                        let mut events = 0;
                        if interest.readable {
                            events |= sys::POLLIN;
                        }
                        if interest.writable {
                            events |= sys::POLLOUT;
                        }
                        sys::PollFd {
                            fd,
                            events,
                            revents: 0,
                        }
                    })
                    .collect();
                let n = match sys::sys_poll(&mut fds, timeout_ms) {
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                    Err(e) => return Err(e),
                };
                if n > 0 {
                    for (pfd, &(_, token, _)) in fds.iter().zip(entries.iter()) {
                        if pfd.revents == 0 {
                            continue;
                        }
                        out.push(Event {
                            token,
                            readable: pfd.revents & (sys::POLLIN | sys::POLLHUP) != 0,
                            writable: pfd.revents & sys::POLLOUT != 0,
                            hangup: pfd.revents & (sys::POLLERR | sys::POLLHUP) != 0,
                        });
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn backend_round_trip(kind: PollerKind) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::with_kind(kind).unwrap();
        poller
            .register(listener.as_raw_fd(), 7, Interest::READ)
            .unwrap();

        // Nothing pending: a short wait times out empty.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());

        // A connection attempt makes the listener readable.
        let mut client = TcpStream::connect(addr).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Accept it; watch the server side for data.
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller
            .register(server.as_raw_fd(), 9, Interest::READ)
            .unwrap();
        client.write_all(b"hi").unwrap();
        let mut got = false;
        for _ in 0..50 {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.token == 9 && e.readable) {
                got = true;
                break;
            }
        }
        assert!(got, "server side never became readable");

        // Reregister for write: an idle socket is immediately writable.
        poller
            .reregister(server.as_raw_fd(), 9, Interest::WRITE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.writable));

        poller.deregister(server.as_raw_fd());
        poller.deregister(listener.as_raw_fd());
    }

    #[test]
    fn poll_backend_round_trips() {
        backend_round_trip(PollerKind::Poll);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_backend_round_trips() {
        backend_round_trip(PollerKind::Epoll);
    }
}
