//! The connection front end every client-facing socket runs through.
//!
//! `serve` and the gateway speak the same framed protocol, so they share
//! one front door: this module owns everything between `accept()` and a
//! complete request payload, and everything that keeps a connection from
//! outliving a drain. A binary supplies only a [`Service`] — its drain
//! flag and a per-frame handler — and gets:
//!
//! * **Accept backoff.** Persistent accept errors (e.g. EMFILE under fd
//!   exhaustion) back off instead of spinning the acceptor at 100% CPU.
//! * **Nodelay and bounded writes.** Every accepted socket disables Nagle
//!   (frames are small request/response pairs; Nagle + delayed ACK would
//!   add ~40ms per round trip) and gets a write timeout, so a client that
//!   stops reading its replies cannot wedge a handler.
//! * **Polled reads with a read timeout.** A frame is read in 100 ms
//!   poll ticks that re-check the drain flag and the
//!   [`Limits::read_timeout`] deadline: an idle connection notices a drain
//!   within a tick, and a stalled or half-open client gets a protocol
//!   `error` instead of pinning a thread forever.
//! * **Budgets and oversize refusals.** Per-connection frame and byte
//!   budgets, and announced lengths over [`wire::MAX_FRAME_BYTES`], are
//!   refused with an `error` frame naming the limit before the close.
//! * **Tracked handlers, joined on drain.** Connection threads are
//!   registered and [`Frontend::join`] joins every one, so every final
//!   frame reaches the kernel before the process can exit.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use retypd_core::fxhash::FxHashMap;
use retypd_core::sync::atomic::{AtomicU64, Ordering};
use retypd_core::sync::thread::JoinHandle;
use retypd_core::sync::{Arc, Mutex};

use crate::wire::{self, Response};

/// What one binary plugs into the shared front end.
pub trait Service: Send + Sync + 'static {
    /// Whether a drain has begun. Must be sticky: once `true`, the
    /// acceptor exits at its next wake-up and idle connections close.
    fn draining(&self) -> bool;

    /// Handles one request frame that passed the budgets, writing its
    /// reply frame(s) to `conn`. Returns `false` to close the connection.
    fn frame(&self, conn: &mut TcpStream, payload: Vec<u8>) -> bool;

    /// Called once per accepted connection, before its first read.
    fn opened(&self) {}

    /// Called once per connection on every exit path, a panicking
    /// [`Service::frame`] included.
    fn closed(&self) {}
}

/// Per-connection limits. The defaults are the ones `serve` ships with
/// and the gateway runs on.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// How long a connection may sit idle (or stall mid-frame) before it
    /// gets a protocol `error` and is closed; `None` disables the timeout.
    /// The same value (or 30 s when disabled) bounds blocking writes.
    pub read_timeout: Option<Duration>,
    /// Cap on cumulative frames one connection may send; `None` disables.
    pub max_frames_per_conn: Option<u64>,
    /// Cap on cumulative bytes (payloads plus their 4-byte prefixes) one
    /// connection may send; `None` disables.
    pub max_bytes_per_conn: Option<u64>,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            read_timeout: Some(Duration::from_secs(30)),
            max_frames_per_conn: Some(100_000),
            max_bytes_per_conn: Some(1 << 30),
        }
    }
}

/// One poll tick: how often a blocked read re-checks the drain flag and
/// the configured read deadline. Bounds how long a drain waits on an idle
/// connection.
const READ_POLL: Duration = Duration::from_millis(100);

/// Once a drain begins, a connection mid-frame gets this long to finish
/// before the handler gives up and closes — the backstop that keeps the
/// drain join bounded even with `read_timeout` disabled.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Blocking writes are always bounded: the configured read timeout, or
/// this when reads are unbounded.
const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Pause after a failed `accept()` before retrying.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Live connection handlers. The acceptor inserts `None` *before*
/// spawning (so a handler that finishes instantly can deregister without
/// racing the insert) and fills in the handle right after.
struct Conns {
    live: Mutex<FxHashMap<u64, Option<JoinHandle<()>>>>,
    next: AtomicU64,
}

/// A running front end: the acceptor thread and its connection registry.
pub struct Frontend {
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Conns>,
}

impl Frontend {
    /// Starts the acceptor on `listener`; every accepted connection runs
    /// on its own tracked thread that reads frames into `service`.
    ///
    /// # Errors
    ///
    /// Fails if the listener has no local address or the acceptor thread
    /// cannot be spawned.
    pub fn start<S: Service>(
        listener: TcpListener,
        limits: Limits,
        service: Arc<S>,
    ) -> std::io::Result<Frontend> {
        let addr = listener.local_addr()?;
        let conns = Arc::new(Conns {
            live: Mutex::new(FxHashMap::default()),
            next: AtomicU64::new(0),
        });
        let acceptor = {
            let conns = Arc::clone(&conns);
            retypd_core::sync::thread::Builder::new()
                .name("retypd-acceptor".into())
                .spawn(move || acceptor_main(listener, limits, service, conns))?
        };
        Ok(Frontend {
            addr,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the acceptor to exit (it does once the service drains
    /// and [`wake`] nudges it), then joins every connection handler.
    /// Handlers notice the drain within one 100 ms poll tick, so this
    /// is bounded; afterwards every final reply frame has been handed to
    /// the kernel. Idempotent.
    pub fn join(&mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // With the acceptor gone no new connection can register.
        let handles: Vec<JoinHandle<()>> = self
            .conns
            .live
            .lock()
            .expect("connection registry")
            .drain()
            .filter_map(|(_, handle)| handle)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Nudges an acceptor out of `accept()` after its service began draining.
/// A bind to 0.0.0.0/[::] is not a connectable destination everywhere, so
/// the nudge aims at loopback on the same port; residual failure (e.g.
/// ephemeral-port exhaustion) leaves the acceptor parked until the next
/// real connection, which also observes the drain and lets it exit.
pub fn wake(addr: SocketAddr) {
    let mut nudge = addr;
    if nudge.ip().is_unspecified() {
        nudge.set_ip(match nudge.ip() {
            std::net::IpAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            std::net::IpAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&nudge, Duration::from_secs(1));
}

fn acceptor_main<S: Service>(
    listener: TcpListener,
    limits: Limits,
    service: Arc<S>,
    conns: Arc<Conns>,
) {
    for stream in listener.incoming() {
        if service.draining() {
            return;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => {
                retypd_core::sync::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        stream.set_nodelay(true).ok();
        stream
            .set_write_timeout(Some(limits.read_timeout.unwrap_or(DEFAULT_WRITE_TIMEOUT)))
            .ok();
        let id = conns.next.fetch_add(1, Ordering::Relaxed);
        conns
            .live
            .lock()
            .expect("connection registry")
            .insert(id, None);
        let (service, own) = (Arc::clone(&service), Arc::clone(&conns));
        let spawned = retypd_core::sync::thread::Builder::new()
            .name("retypd-conn".into())
            .spawn(move || {
                serve_conn(stream, limits, &*service);
                // Deregister after the last write: if the drain's sweep
                // already took this handle, the removal is a no-op and the
                // join covers us; either way nothing runs after this line.
                own.live.lock().expect("connection registry").remove(&id);
            });
        let mut live = conns.live.lock().expect("connection registry");
        match spawned {
            // The handler may already have deregistered itself; only fill
            // in the handle if the entry is still live.
            Ok(handle) => {
                if let Some(slot) = live.get_mut(&id) {
                    *slot = Some(handle);
                }
            }
            Err(_) => {
                live.remove(&id);
            }
        }
    }
}

/// Outcome of a polled frame read.
enum PolledRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// Clean EOF between frames.
    Eof,
    /// The server is draining and this connection is between frames with
    /// nothing pending: close without a reply — an unsolicited frame would
    /// desynchronize a request/response client.
    DrainIdle,
    /// No byte arrived within the configured read timeout (idle or
    /// stalled mid-frame): answer with a protocol error, then close.
    TimedOut,
    /// The peer announced a frame over [`wire::MAX_FRAME_BYTES`]: refuse
    /// it politely (the stream is desynchronized afterwards).
    Oversized(usize),
    /// Truncated frame or socket error: just close.
    Broken,
}

/// Reads one frame in [`READ_POLL`] ticks (the socket's read timeout is
/// already set to one tick): every tick re-checks the drain flag and the
/// `read_timeout` deadline. Once draining, a connection with no request
/// already pending closes at the frame boundary, so a client that keeps
/// sending (a health probe every 50 ms, say) cannot hold the drain join
/// open by never letting a tick go idle.
fn read_frame_polled(
    stream: &mut TcpStream,
    read_timeout: Option<Duration>,
    service: &impl Service,
) -> PolledRead {
    if service.draining() && !has_pending(stream) {
        return PolledRead::DrainIdle;
    }
    let deadline = read_timeout.map(|t| Instant::now() + t);
    let mut drain_deadline: Option<Instant> = None;
    let mut len_buf = [0u8; 4];
    // `None` while the 4-byte prefix is being read; `Some(total)` after.
    let mut expected: Option<usize> = None;
    let mut payload: Vec<u8> = Vec::new();
    let mut filled = 0usize;
    loop {
        let read = match expected {
            None => std::io::Read::read(stream, &mut len_buf[filled..]),
            Some(total) => {
                // Grow the buffer only as bytes actually arrive: a peer
                // that *announces* a near-cap frame and then trickles (or
                // never sends) it must not cost the announced allocation
                // up front.
                if filled == payload.len() {
                    let take = (total - filled).min(wire::READ_CHUNK);
                    payload.resize(filled + take, 0);
                }
                std::io::Read::read(stream, &mut payload[filled..])
            }
        };
        match read {
            Ok(0) => {
                // EOF: clean only between frames.
                return if expected.is_none() && filled == 0 {
                    PolledRead::Eof
                } else {
                    PolledRead::Broken
                };
            }
            Ok(n) => {
                filled += n;
                match expected {
                    None => {
                        if filled < 4 {
                            continue;
                        }
                        let len = u32::from_be_bytes(len_buf) as usize;
                        if len > wire::MAX_FRAME_BYTES {
                            return PolledRead::Oversized(len);
                        }
                        if len == 0 {
                            return PolledRead::Frame(Vec::new());
                        }
                        expected = Some(len);
                        filled = 0;
                    }
                    Some(total) => {
                        if filled == total {
                            return PolledRead::Frame(payload);
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Poll tick. Only an *idle* connection (no frame byte yet)
                // may be closed promptly by a drain; a frame in flight is
                // a request that still deserves its (polite) refusal —
                // but only for [`DRAIN_GRACE`], so a client stalled
                // mid-frame cannot hold the drain join hostage even when
                // `read_timeout` is disabled.
                if service.draining() {
                    if expected.is_none() && filled == 0 {
                        return PolledRead::DrainIdle;
                    }
                    let cutoff =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                    if Instant::now() >= cutoff {
                        return PolledRead::Broken;
                    }
                }
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return PolledRead::TimedOut;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return PolledRead::Broken,
        }
    }
}

/// Whether a byte is already waiting on the socket; never blocks.
fn has_pending(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let pending = matches!(stream.peek(&mut [0u8; 1]), Ok(n) if n > 0);
    let _ = stream.set_nonblocking(false);
    pending
}

/// Writes a protocol `error` frame, ignoring failure: the connection is
/// about to close either way.
fn refuse(stream: &mut TcpStream, why: String) {
    let _ = wire::write_frame(stream, &Response::Error(why).encode());
}

/// One connection's life: polled reads, budgets, refusals, and handing
/// every admitted frame to the service.
fn serve_conn(mut stream: TcpStream, limits: Limits, service: &impl Service) {
    service.opened();
    // Report the close on every exit path, a handler panic included — the
    // opened/closed pair is how a leak would show.
    struct Closed<'a, S: Service>(&'a S);
    impl<S: Service> Drop for Closed<'_, S> {
        fn drop(&mut self) {
            self.0.closed();
        }
    }
    let _closed = Closed(service);
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut frames_used = 0u64;
    let mut bytes_used = 0u64;
    loop {
        let payload = match read_frame_polled(&mut stream, limits.read_timeout, service) {
            PolledRead::Frame(p) => p,
            PolledRead::Eof | PolledRead::DrainIdle | PolledRead::Broken => return,
            PolledRead::TimedOut => {
                // A stalled client gets told why before the close, when
                // the socket still accepts writes.
                let secs = limits.read_timeout.unwrap_or_default().as_secs();
                refuse(
                    &mut stream,
                    format!("read timed out after {secs}s; closing connection"),
                );
                return;
            }
            PolledRead::Oversized(len) => {
                // Only the 4-byte prefix was consumed, so say why before
                // hanging up instead of a bare connection reset.
                refuse(
                    &mut stream,
                    format!("peer announced {len}-byte frame, over cap"),
                );
                // The refused payload is typically still arriving; closing
                // with unread received data sends an RST that would
                // destroy the reply in flight. Briefly shed the incoming
                // bytes (bounded, so a firehosing peer cannot pin the
                // thread) to let the error frame flush first.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
                let deadline = Instant::now() + Duration::from_millis(250);
                let mut sink = [0u8; 8192];
                while Instant::now() < deadline {
                    match std::io::Read::read(&mut stream, &mut sink) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                }
                return;
            }
        };
        // Cumulative budgets: the frame that crosses a cap is refused with
        // an error naming the exhausted limit, then the connection closes.
        frames_used += 1;
        bytes_used += 4 + payload.len() as u64;
        if let Some(limit) = limits.max_frames_per_conn.filter(|&l| frames_used > l) {
            refuse(
                &mut stream,
                format!(
                    "per-connection frame budget of {limit} frames exhausted; closing connection"
                ),
            );
            return;
        }
        if let Some(limit) = limits.max_bytes_per_conn.filter(|&l| bytes_used > l) {
            refuse(
                &mut stream,
                format!(
                    "per-connection byte budget of {limit} bytes exhausted; closing connection"
                ),
            );
            return;
        }
        if !service.frame(&mut stream, payload) {
            return;
        }
    }
}
