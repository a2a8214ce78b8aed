//! The one TCP front: whoever terminates client connections — a
//! [`crate::server::Server`] or a [`crate::router::RouterFrontend`] — hands
//! a [`Handler`] to [`Front::spawn`] and gets the same connection handling.
//!
//! * **acceptor** — one thread on a nonblocking listener; stops once the
//!   handler is draining. Finished connection threads and dead sockets are
//!   reaped as new ones arrive, so both lists stay bounded.
//! * **connection threads** (one per connection) — poll the socket through
//!   [`FrameReader`] with a [`POLL_TICK`] read timeout, so they notice a
//!   drain and enforce the idle timeout between reads; decode each frame
//!   and hand the request to the handler. An undecodable payload gets one
//!   typed `BadRequest` and the connection is closed.
//! * **drain** — a draining handler refuses new work with `ShuttingDown`,
//!   and the connection keeps reading so that it can: what the peer sent
//!   before it could know is still answered with a typed error. Closing the
//!   socket over unread requests would make the kernel reset the
//!   connection, and the peer would get an I/O error where the protocol
//!   promises a typed one, possibly ahead of admitted jobs' responses it has
//!   not read yet. The grace ends with the first quiet tick — or, for a peer
//!   that keeps sending, after [`WRITE_TIMEOUT`], when a stalled write would.
//!
//! Response frames are written, as encoded, under a per-connection mutex
//! with a write timeout, so a stalled peer can never hang whoever answers
//! it.

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pc_sync::Mutex;

use crate::wire::{
    decode_request, response_frame, ErrorCode, FrameProgress, FrameReader, Request, Response,
    MAX_FRAME,
};

/// Read-timeout tick of the polling connection loops: how soon a quiet
/// connection notices a drain.
const POLL_TICK: Duration = Duration::from_millis(20);
/// How long the acceptor sleeps when nobody is connecting.
const ACCEPT_TICK: Duration = Duration::from_millis(10);
/// Socket write timeout (a stalled peer fails the write instead of hanging
/// its writer), and the longest a draining connection keeps answering.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// One accepted connection's write half. The connection thread and anyone
/// the handler passed the `Arc` to send through this; the mutex serializes
/// whole frames.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) wlock: Mutex<()>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn { stream, wlock: Mutex::new(()) }
    }

    /// Writes one pre-encoded frame. On failure the socket is shut down so
    /// the reader exits promptly instead of serving a half-dead peer.
    fn send(&self, frame: &[u8]) -> io::Result<()> {
        let _g = self.wlock.lock();
        let mut w = &self.stream;
        w.write_all(frame).inspect_err(|_| self.cut())
    }

    /// Encodes and writes one response. An answer whose payload passes
    /// [`MAX_FRAME`], which the peer's frame reader would refuse, goes as a
    /// typed `BadRequest` that names its size instead, and the connection
    /// stays up. A failed write means the peer is gone; the request is
    /// complete either way and the reader notices the shut-down socket on
    /// its next poll.
    pub(crate) fn respond(&self, resp: &Response) {
        let mut frame = response_frame(resp);
        let payload = frame.len() - 4;
        if payload > MAX_FRAME {
            let cap = format!("an answer of {payload} bytes passes the {MAX_FRAME}-byte frame cap");
            frame = response_frame(&Response::error(resp.id, ErrorCode::BadRequest, cap));
        }
        let _ = self.send(&frame);
    }

    /// Cuts the socket, both directions, now.
    fn cut(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// What a connection's lifecycle reports to its handler (for counters).
pub(crate) enum ConnEvent {
    /// A connection was accepted.
    Accepted,
    /// A connection was closed after the idle timeout without a frame.
    IdleClosed,
    /// A payload did not decode; the peer got `BadRequest` and a close.
    Undecodable,
}

/// What terminates the connections of a [`Front`].
pub(crate) trait Handler: Send + Sync + 'static {
    /// Handles one decoded request on the connection's thread. The reply
    /// (every request gets exactly one) goes through `conn`, now or — if the
    /// handler queues the work — later.
    fn request(&self, conn: &Arc<Conn>, req: Request);

    /// True once the handler is draining: the front stops accepting, and
    /// `request` is expected to answer `ShuttingDown`.
    fn draining(&self) -> bool;

    /// A connection event, for handlers that count them.
    fn event(&self, _event: ConnEvent) {}
}

/// Connection threads and the write halves of live connections.
#[derive(Default)]
struct Live {
    threads: Vec<JoinHandle<()>>,
    /// Weak: the connection thread and queued jobs own the `Arc`s.
    socks: Vec<Weak<Conn>>,
}

/// A bound listener with its acceptor and connection threads.
pub(crate) struct Front {
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    live: Arc<Mutex<Live>>,
}

impl Front {
    /// Binds `addr` and starts accepting; every connection is closed after
    /// `idle_timeout` without a complete frame.
    pub(crate) fn spawn<H: Handler>(
        addr: &str,
        idle_timeout: Duration,
        handler: Arc<H>,
    ) -> io::Result<Front> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let live = Arc::new(Mutex::new(Live::default()));
        let acceptor = {
            let live = Arc::clone(&live);
            std::thread::spawn(move || accept_loop(&listener, &handler, &live, idle_timeout))
        };
        Ok(Front { addr, acceptor: Some(acceptor), live })
    }

    /// The bound address (useful with an ephemeral port).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Cuts every live client socket at once (a process kill, as the peers
    /// see it).
    pub(crate) fn cut_all(&self) {
        for conn in self.live.lock().socks.iter().filter_map(Weak::upgrade) {
            conn.cut();
        }
    }

    /// Joins the acceptor and every connection thread. They exit once the
    /// handler is draining, so the caller starts the drain first.
    pub(crate) fn join(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        loop {
            let Some(thread) = self.live.lock().threads.pop() else { break };
            let _ = thread.join();
        }
    }
}

fn accept_loop<H: Handler>(
    listener: &TcpListener,
    handler: &Arc<H>,
    live: &Mutex<Live>,
    idle_timeout: Duration,
) {
    while !handler.draining() {
        let Ok((stream, _peer)) = listener.accept() else {
            // Nobody there (`WouldBlock`), or a transient accept failure.
            std::thread::sleep(ACCEPT_TICK);
            continue;
        };
        handler.event(ConnEvent::Accepted);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL_TICK));
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let conn = Arc::new(Conn::new(stream));
        let sock = Arc::downgrade(&conn);
        let thread = {
            let handler = Arc::clone(handler);
            std::thread::spawn(move || conn_loop(&*handler, conn, idle_timeout))
        };
        let mut live = live.lock();
        live.threads.retain(|t| !t.is_finished());
        live.socks.retain(|s| s.strong_count() > 0);
        live.threads.push(thread);
        live.socks.push(sock);
    }
}

fn conn_loop(handler: &impl Handler, conn: Arc<Conn>, idle_timeout: Duration) {
    let mut reader = FrameReader::new(MAX_FRAME);
    let mut last_activity = Instant::now();
    let mut seen_bytes = 0u64;
    // When this connection first saw the handler draining.
    let mut draining_since: Option<Instant> = None;
    loop {
        if handler.draining() {
            let since = *draining_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= WRITE_TIMEOUT {
                return;
            }
        }
        match reader.poll(&mut (&conn.stream)) {
            Ok(FrameProgress::Frame(payload)) => {
                last_activity = Instant::now();
                match decode_request(&payload) {
                    Ok(req) => handler.request(&conn, req),
                    Err(e) => {
                        // The framing survives a bad payload, but a peer
                        // sending garbage gets one typed error and a close.
                        handler.event(ConnEvent::Undecodable);
                        conn.respond(&Response::error(0, ErrorCode::BadRequest, e.to_string()));
                        return;
                    }
                }
            }
            Ok(FrameProgress::Pending) => {
                if draining_since.is_some() {
                    // Quiet: the peer has nothing more on the wire. Queued
                    // jobs still hold the `Conn` and write their responses
                    // before the socket finally closes.
                    return;
                }
                if reader.bytes_read() != seen_bytes {
                    seen_bytes = reader.bytes_read();
                    last_activity = Instant::now();
                } else if last_activity.elapsed() >= idle_timeout {
                    // Peer went silent (possibly mid-frame): reclaim the
                    // connection instead of leaking it.
                    handler.event(ConnEvent::IdleClosed);
                    conn.cut();
                    return;
                }
            }
            Ok(FrameProgress::Eof) | Err(_) => return,
        }
    }
}
