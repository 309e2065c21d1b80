//! Session serving: stdin/stdout streams and the nonblocking TCP event
//! loop.
//!
//! [`serve_stream`] drives one protocol session over any `BufRead`/`Write`
//! pair (the stdin mode of `xseed-serve`). [`TcpServer`] is the
//! production front end: a single-threaded **epoll event loop** (via the
//! [`netpoll`] crate — hand-rolled, no external deps) multiplexing every
//! connection over nonblocking sockets, so ten thousand mostly-idle
//! optimizer sessions cost ten thousand small buffers, not ten thousand
//! threads. The loop thread reads lines, runs each through the protocol
//! handler synchronously, and shuttles bytes: every `EST` and `BATCH` is
//! estimated on the loop thread itself, because a [`Service`] estimates
//! on its caller's thread. Idle and drain deadlines cost the loop
//! nothing per wakeup: it keeps a lower bound on the earliest one and
//! walks its connections only once that has passed.
//!
//! Per connection the loop keeps a read buffer and a write buffer, which
//! buys the semantics a blocking thread-per-connection design gets for
//! free — without the threads:
//!
//! * **pipelining** — a client may send many request lines in one
//!   write; replies come back in order, batched into as few writes as the
//!   socket accepts;
//! * **partial lines** — bytes accumulate until a `\n` completes a
//!   request (bounded by the 64 KiB line cap below);
//! * **slow consumers** — replies the client has not drained sit in the
//!   write buffer; past a high-water mark the loop stops *reading* from
//!   that connection (backpressure) instead of buffering without bound,
//!   and resumes once the client catches up;
//! * **half-closed sockets** — a client that shuts down its write side
//!   after pipelining requests still receives every reply before the
//!   server closes.
//!
//! The loop enforces the same bounds as its thread-per-connection
//! predecessor, with identical wire behavior:
//!
//! * a **connection limit** ([`ServerConfig::max_connections`]): a client
//!   arriving past the limit receives one structured
//!   `OVERLOADED connections=<n> max=<m>` line and is disconnected. The
//!   loop keeps the refused socket open for a moment, reading and
//!   dropping what the client still sends, so the client sees a clean
//!   EOF rather than a reset;
//! * an **idle-session timeout** ([`ServerConfig::idle_timeout`]): a
//!   connection that sends nothing for the configured duration receives
//!   `ERR idle timeout, closing` and is dropped;
//! * a **request-line length cap** (64 KiB): a line that long with no
//!   newline gets `ERR request line exceeds … bytes, closing`.
//!
//! New with the event loop is **per-client fairness**
//! ([`ServerConfig::client_rate`] / [`ServerConfig::client_burst`], off
//! by default): each connection gets its own token bucket
//! ([`crate::limiter`]), and a request arriving to an empty bucket is
//! answered `OVERLOADED rate=<r> burst=<b>` without executing — so one
//! flooding client exhausts only its own budget while every other
//! session keeps its full rate. Sheds are counted in `STATS`
//! (`rate_limited=`) and shed *episodes* appear in the trace ring
//! (`rate_limit_on`/`rate_limit_off`, subject `conn-<token>`).
//!
//! All bounds compose with the admission budget inside
//! [`crate::service`]: the connection limit caps *who may talk*, the
//! client rate caps *how often each may ask*, the admission budget caps
//! *how many queries may run at once*, and everything past any bound
//! degrades into an explicit protocol reply instead of an unbounded
//! queue. See `docs/OPERATIONS.md` ("Sizing the network tier").
//!
//! Sessions also carry the feedback loop: `FEEDBACK`/`MAINTAIN` lines
//! route through the same [`crate::Service`], so every connected client
//! shares one set of self-maintaining synopses — a rebuild triggered by
//! one session's feedback serves every other session's next estimate.

use crate::limiter::RateLimiter;
use crate::protocol::{handle_line, ProtocolOptions, Response};
use crate::service::Service;
use crate::trace::TraceKind;
use netpoll::{Interest, Poller};
use std::collections::HashMap;
use std::io::{BufRead, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a [`TcpServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; arrivals past the limit
    /// are refused with an `OVERLOADED connections=…` line. Clamped to at
    /// least 1.
    pub max_connections: usize,
    /// Close a session after this long without a complete request line
    /// (`None` = never). The client is told (`ERR idle timeout, closing`)
    /// before the socket closes.
    pub idle_timeout: Option<Duration>,
    /// Per-client token-bucket rate, requests per second (`None` = no
    /// limit, the default). Each connection refills independently.
    pub client_rate: Option<f64>,
    /// Per-client bucket depth, requests (defaults to the rate — one
    /// second of budget — and is clamped to at least one token). Only
    /// meaningful with `client_rate`.
    pub client_burst: Option<f64>,
    /// Per-session protocol policy (filesystem loads, builtin scale caps,
    /// document limits).
    pub options: ProtocolOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            idle_timeout: Some(Duration::from_secs(300)),
            client_rate: None,
            client_burst: None,
            options: ProtocolOptions::remote(),
        }
    }
}

/// Drives one protocol session: reads request lines from `input`, writes
/// one reply line per request to `output`, returns on `QUIT`, EOF, or an
/// I/O error. This is the stdin mode of `xseed-serve`; TCP sessions go
/// through [`TcpServer`]'s event loop instead.
pub fn serve_stream(
    service: &Service,
    options: &ProtocolOptions,
    input: impl BufRead,
    mut output: impl Write,
) {
    for line in input.lines() {
        let Ok(line) = line else { return };
        if !write_response(&mut output, handle_line(service, &line, options)) {
            return;
        }
    }
}

/// Writes one response; `false` when the session should end (client quit
/// or the socket went away).
fn write_response(output: &mut impl Write, response: Response) -> bool {
    match response {
        Response::Line(reply) => writeln!(output, "{reply}")
            .and_then(|()| output.flush())
            .is_ok(),
        Response::Silent => true,
        Response::Quit => {
            let _ = writeln!(output, "OK bye");
            let _ = output.flush();
            false
        }
    }
}

/// The nonblocking TCP front end. See the module docs.
pub struct TcpServer {
    listener: TcpListener,
    config: ServerConfig,
}

impl TcpServer {
    /// Binds `addr` (e.g. `127.0.0.1:7878`; port 0 picks a free port).
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Self> {
        Ok(TcpServer {
            listener: TcpListener::bind(addr)?,
            config,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the event loop forever, serving every connection multiplexed
    /// over one poller. Requests run synchronously on the loop thread,
    /// `EST` and `BATCH` estimates included. Returns only if the poller
    /// or listener fails fatally at setup; accept-time errors are
    /// reported on stderr and survived.
    pub fn run(&self, service: Arc<Service>) -> std::io::Result<()> {
        EventLoop::new(&self.listener, self.config.clone(), service)?.run()
    }
}

/// Longest request line a TCP session may send. Far above any legitimate
/// request (the longest verb is a `BATCH` of a few hundred queries), and
/// it bounds the per-session read buffer: without a cap, a client
/// trickling bytes with no `\n` would grow the read buffer without limit
/// *and* dodge the idle timeout (each byte arrives "in time").
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Pending-reply bytes past which the loop stops reading from a
/// connection until the client drains (slow-consumer backpressure). One
/// reply can still exceed this — the buffer grows to hold whatever the
/// requests already admitted produce — but no new requests are read
/// while over the mark.
const WRITE_HIGH_WATER: usize = 256 * 1024;

/// How long a session whose protocol life is over (QUIT, idle timeout,
/// oversized line, half-close) may take to drain its final buffered
/// replies before the socket is closed regardless.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// How long a refused connection may linger, its input read and dropped,
/// before it is closed regardless.
const REFUSAL_LINGER: Duration = Duration::from_secs(1);

/// The poller token of the listening socket; connections count up from 1.
const LISTENER_TOKEN: u64 = 0;

/// Set in the poller token of a lingering refused connection, so events
/// for it never reach the connection table.
const LINGER_TOKEN: u64 = 1 << 63;

/// Per-connection state in the event loop.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet consumed as complete request lines.
    read_buf: Vec<u8>,
    /// Reply bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    sent: usize,
    /// Last time a read delivered bytes (arms the idle timeout).
    last_activity: Instant,
    /// This connection's token bucket ([`RateLimiter::Unlimited`] when
    /// the server has no `client_rate`).
    limiter: RateLimiter,
    /// Currently inside a rate-limit shed episode (for the
    /// `rate_limit_on`/`rate_limit_off` trace transitions).
    limited: bool,
    /// The client closed its write side; remaining complete lines are
    /// served, then the connection drains and closes.
    peer_eof: bool,
    /// Set when the session is over (QUIT, timeout, oversize, EOF):
    /// deadline by which the final flush must finish.
    draining: Option<Instant>,
    /// Interest currently registered with the poller.
    interest: Interest,
}

/// A refused connection kept open after its `OVERLOADED` line: the loop
/// reads and drops what the client sends until EOF, so bytes arriving
/// after the refusal are not answered with a reset.
struct Lingering {
    stream: TcpStream,
    /// Bytes read and dropped so far.
    dropped: usize,
    /// When the socket is closed regardless.
    until: Instant,
}

/// Reads and drops whatever a refused socket has, without blocking.
/// Returns `true` while the socket may keep lingering: no EOF, no error,
/// and fewer than one request line's worth of bytes dropped.
fn drop_input(stream: &mut TcpStream, dropped: &mut usize) -> bool {
    let mut sink = [0u8; 4096];
    while *dropped < MAX_LINE_BYTES {
        match stream.read(&mut sink) {
            Ok(0) => return false,
            Ok(n) => *dropped += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    false
}

/// The instant `conn` must be dealt with without client I/O: its drain
/// grace expiring, or else its idle timeout.
fn deadline(conn: &Conn, idle_timeout: Option<Duration>) -> Option<Instant> {
    conn.draining
        .or_else(|| idle_timeout.map(|idle| conn.last_activity + idle))
}

/// Lowers the event loop's deadline floor to `deadline` if it is earlier.
fn lower_floor(floor: &mut Option<Instant>, deadline: Instant) {
    *floor = Some(floor.map_or(deadline, |floor| floor.min(deadline)));
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.sent
    }

    fn push_reply(&mut self, line: &str) {
        self.write_buf.extend_from_slice(line.as_bytes());
        self.write_buf.push(b'\n');
    }
}

/// The single-threaded epoll loop: owns the listener, the poller, and
/// every connection's buffers. See the module docs for the design.
struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    service: Arc<Service>,
    config: ServerConfig,
    conns: HashMap<u64, Conn>,
    /// Refused connections still reading their client's input, keyed by
    /// poller token (with [`LINGER_TOKEN`] set); at most
    /// `max_connections` of them.
    lingering: HashMap<u64, Lingering>,
    /// A lower bound on the earliest idle, drain or linger deadline of
    /// any connection (`None`: no connection has one). Lowered when a
    /// connection is accepted, starts draining or starts lingering; a
    /// connection's idle deadline only moves later, so the bound stays
    /// valid until it passes, and only then does the loop walk every
    /// connection.
    deadline_floor: Option<Instant>,
    next_token: u64,
    /// Whether the previous accept was refused, so the trace ring records
    /// the transition into (and out of) connection shedding rather than
    /// one event per refused client.
    refusing: bool,
    /// Prototype bucket cloned into each new connection, plus the exact
    /// refusal line; `None` when no client rate is configured.
    limiter_template: RateLimiter,
    overloaded_reply: Option<String>,
    /// Monotonic origin for the limiter's nanosecond clock.
    started: Instant,
    max_connections: usize,
}

impl EventLoop {
    fn new(
        listener: &TcpListener,
        config: ServerConfig,
        service: Arc<Service>,
    ) -> std::io::Result<EventLoop> {
        let listener = listener.try_clone()?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        let limiter_template = RateLimiter::from_config(config.client_rate, config.client_burst);
        let overloaded_reply = match &limiter_template {
            RateLimiter::Unlimited => None,
            RateLimiter::Bucket(bucket) => {
                service.arm_rate_limiter();
                Some(format!(
                    "OVERLOADED rate={} burst={}",
                    bucket.rate(),
                    bucket.burst()
                ))
            }
        };
        let max_connections = config.max_connections.max(1);
        Ok(EventLoop {
            poller,
            listener,
            service,
            config,
            conns: HashMap::new(),
            lingering: HashMap::new(),
            deadline_floor: None,
            next_token: LISTENER_TOKEN + 1,
            refusing: false,
            limiter_template,
            overloaded_reply,
            started: Instant::now(),
            max_connections,
        })
    }

    fn run(&mut self) -> std::io::Result<()> {
        let mut events = Vec::new();
        loop {
            let timeout = self
                .deadline_floor
                .map(|deadline| deadline.saturating_duration_since(Instant::now()));
            self.poller.wait(&mut events, timeout)?;
            for event in &events {
                if event.token == LISTENER_TOKEN {
                    self.accept_ready();
                    continue;
                }
                if event.token & LINGER_TOKEN != 0 {
                    self.linger_ready(event.token);
                    continue;
                }
                if event.error {
                    self.close(event.token);
                    continue;
                }
                // Read before write: a hangup may still carry pipelined
                // request bytes to serve.
                if event.readable || event.hangup {
                    self.read_ready(event.token);
                }
                if event.writable {
                    self.write_ready(event.token);
                }
            }
            self.sweep_deadlines();
        }
    }

    /// Once the deadline floor has passed: expires idle sessions (with a
    /// goodbye), force-closes draining sessions whose grace ran out and
    /// refused connections whose linger ran out, and resets the floor to
    /// the earliest deadline left. Before that, no deadline can be due
    /// and the call costs one comparison.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        if self.deadline_floor.is_none_or(|floor| now < floor) {
            return;
        }
        let expired: Vec<u64> = self
            .lingering
            .iter()
            .filter(|(_, lingering)| now >= lingering.until)
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            self.end_linger(token);
        }
        let mut idle = Vec::new();
        let mut dead = Vec::new();
        for (&token, conn) in &self.conns {
            match (conn.draining, self.config.idle_timeout) {
                (Some(drain), _) if now >= drain => dead.push(token),
                (None, Some(limit)) if now >= conn.last_activity + limit => idle.push(token),
                _ => {}
            }
        }
        for token in dead {
            self.close(token);
        }
        for token in idle {
            if let Some(conn) = self.conns.get_mut(&token) {
                // Idle too long (or a partial line stalled past the
                // timeout): tell the client and hang up.
                conn.push_reply("ERR idle timeout, closing");
                conn.read_buf.clear();
                conn.draining = Some(now + DRAIN_GRACE);
                self.flush(token);
            }
        }
        let idle_timeout = self.config.idle_timeout;
        self.deadline_floor = self
            .conns
            .values()
            .filter_map(|conn| deadline(conn, idle_timeout))
            .chain(self.lingering.values().map(|lingering| lingering.until))
            .min();
    }

    /// Accepts every pending connection (level-triggered, so stopping at
    /// `WouldBlock` is safe). Arrivals past the connection limit get one
    /// structured refusal line and are refused ([`EventLoop::refuse`]).
    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Transient conditions (a client resetting between
                    // SYN and accept, fd exhaustion) resolve themselves;
                    // the pause keeps a persistent error from spinning
                    // hot, and the loop simply retries on the next wake.
                    eprintln!("xseed-serve: accept failed (continuing): {e}");
                    std::thread::sleep(Duration::from_millis(100));
                    return;
                }
            };
            if self.conns.len() >= self.max_connections {
                self.refuse(stream);
                if !self.refusing {
                    self.refusing = true;
                    if let Some(obs) = self.service.obs() {
                        obs.trace().record(TraceKind::ShedOn, "connections");
                    }
                }
                continue;
            }
            if self.refusing {
                self.refusing = false;
                if let Some(obs) = self.service.obs() {
                    obs.trace().record(TraceKind::ShedOff, "connections");
                }
            }
            // Replies go out as soon as they are ready: with Nagle on, a
            // pipelined reply could wait for the client's delayed ACK.
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .add(stream.as_raw_fd(), token, Interest::READABLE)
                .is_err()
            {
                continue;
            }
            let conn = Conn {
                stream,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                sent: 0,
                last_activity: Instant::now(),
                limiter: self.limiter_template.clone(),
                limited: false,
                peer_eof: false,
                draining: None,
                interest: Interest::READABLE,
            };
            if let Some(idle_at) = deadline(&conn, self.config.idle_timeout) {
                lower_floor(&mut self.deadline_floor, idle_at);
            }
            self.conns.insert(token, conn);
        }
    }

    /// Refuses a connection past the limit loudly: one structured line,
    /// then a clean close. The socket is still blocking here, but a
    /// one-line write to a fresh socket's empty send buffer cannot stall.
    /// Closing a socket whose input is unread makes the kernel answer with
    /// a reset, and a client that sent its request first, or sends after
    /// reading the line, could then read `ECONNRESET` or fail a write with
    /// `EPIPE`. So the write half is shut down after the line, and the
    /// socket lingers in the poller, outside the connection table and its
    /// limit: the loop reads and drops its input until EOF, one request
    /// line's worth of bytes, or [`REFUSAL_LINGER`]. At most
    /// `max_connections` refusals linger at once; past that, what has
    /// already arrived is dropped and the socket closes at once.
    fn refuse(&mut self, mut stream: TcpStream) {
        let line = format!(
            "OVERLOADED connections={} max={}\n",
            self.conns.len(),
            self.max_connections
        );
        let _ = stream.write_all(line.as_bytes());
        let _ = stream.shutdown(Shutdown::Write);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let mut dropped = 0;
        if !drop_input(&mut stream, &mut dropped) || self.lingering.len() >= self.max_connections {
            return;
        }
        let token = LINGER_TOKEN | self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(stream.as_raw_fd(), token, Interest::READABLE)
            .is_err()
        {
            return;
        }
        let until = Instant::now() + REFUSAL_LINGER;
        lower_floor(&mut self.deadline_floor, until);
        self.lingering.insert(
            token,
            Lingering {
                stream,
                dropped,
                until,
            },
        );
    }

    /// Drops what a lingering refused connection sent; closes it at EOF,
    /// on an error, or once it has sent a request line's worth.
    fn linger_ready(&mut self, token: u64) {
        let Some(lingering) = self.lingering.get_mut(&token) else {
            return;
        };
        if !drop_input(&mut lingering.stream, &mut lingering.dropped) {
            self.end_linger(token);
        }
    }

    fn end_linger(&mut self, token: u64) {
        if let Some(lingering) = self.lingering.remove(&token) {
            let _ = self.poller.remove(lingering.stream.as_raw_fd());
        }
    }

    /// Reads whatever the socket has, then serves every complete request
    /// line that arrived.
    fn read_ready(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.draining.is_some() || !conn.interest.readable {
            // Draining sessions and backpressured connections ignore new
            // bytes; level-triggered epoll will resurface them if the
            // connection ever reads again.
            return;
        }
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&scratch[..n]);
                    conn.last_activity = Instant::now();
                    // Stop pulling once a flood has buffered a full
                    // line-cap's worth; what we have is processed first
                    // and level-triggered readiness re-fires for the rest.
                    if conn.read_buf.len() > MAX_LINE_BYTES {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        self.process_lines(token);
    }

    /// Consumes complete lines from the connection's read buffer, running
    /// each through the rate limiter and the protocol handler in order.
    fn process_lines(&mut self, token: u64) {
        let now_ns = self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut consumed = 0;
        while conn.draining.is_none() {
            let rest = &conn.read_buf[consumed..];
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                if rest.len() >= MAX_LINE_BYTES {
                    conn.push_reply(&format!(
                        "ERR request line exceeds {MAX_LINE_BYTES} bytes, closing"
                    ));
                    consumed = conn.read_buf.len();
                    conn.draining = Some(Instant::now() + DRAIN_GRACE);
                }
                break;
            };
            if nl >= MAX_LINE_BYTES {
                conn.push_reply(&format!(
                    "ERR request line exceeds {MAX_LINE_BYTES} bytes, closing"
                ));
                consumed = conn.read_buf.len();
                conn.draining = Some(Instant::now() + DRAIN_GRACE);
                break;
            }
            let line = &rest[..nl];
            let line = match line.last() {
                Some(b'\r') => &line[..nl - 1],
                _ => line,
            };
            let Ok(line) = std::str::from_utf8(line) else {
                // Mirrors the blocking server: a non-UTF-8 request line
                // ends the session without a reply.
                self.close(token);
                return;
            };
            let line = line.to_owned();
            consumed += nl + 1;
            // Blank lines and comments are free: they do no work and
            // get no reply, and shedding one would inject an OVERLOADED
            // line where stdin sessions print silence. QUIT/EXIT are
            // never shed either — the limiter guards estimation work,
            // and a throttled client hanging up promptly is exactly the
            // behavior we want from it.
            let verb = line.split_whitespace().next().unwrap_or("");
            let is_noise = verb.is_empty() || verb.starts_with('#');
            let is_quit = matches!(verb, "QUIT" | "EXIT");
            if !is_noise && !is_quit && !conn.limiter.admit(now_ns) {
                conn.push_reply(self.overloaded_reply.as_deref().unwrap_or(""));
                self.service.note_rate_limited();
                if !conn.limited {
                    conn.limited = true;
                    if let Some(obs) = self.service.obs() {
                        obs.trace()
                            .record(TraceKind::RateLimitOn, &format!("conn-{token}"));
                    }
                }
                continue;
            }
            if !is_noise && conn.limited {
                conn.limited = false;
                if let Some(obs) = self.service.obs() {
                    obs.trace()
                        .record(TraceKind::RateLimitOff, &format!("conn-{token}"));
                }
            }
            match handle_line(&self.service, &line, &self.config.options) {
                Response::Line(reply) => conn.push_reply(&reply),
                Response::Silent => {}
                Response::Quit => {
                    conn.push_reply("OK bye");
                    consumed = conn.read_buf.len();
                    conn.draining = Some(Instant::now() + DRAIN_GRACE);
                }
            }
        }
        conn.read_buf.drain(..consumed);
        if conn.peer_eof && conn.draining.is_none() {
            // Half-close: no further requests can arrive (an incomplete
            // trailing line is dropped); serve what was pipelined, flush,
            // close.
            conn.read_buf.clear();
            conn.draining = Some(Instant::now() + DRAIN_GRACE);
        }
        if let Some(drain_at) = conn.draining {
            lower_floor(&mut self.deadline_floor, drain_at);
        }
        self.flush(token);
    }

    fn write_ready(&mut self, token: u64) {
        self.flush(token);
    }

    /// Pushes buffered reply bytes into the socket, closes finished
    /// draining sessions, and re-registers interest to match what is
    /// left to do.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.sent < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.sent..]) {
                Ok(0) => {
                    self.close(token);
                    return;
                }
                Ok(n) => conn.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        if conn.sent == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.sent = 0;
            if conn.draining.is_some() {
                self.close(token);
                return;
            }
        } else if conn.sent > MAX_LINE_BYTES {
            // Reclaim the flushed prefix of a large in-flight buffer so a
            // slow consumer cannot pin already-delivered bytes.
            conn.write_buf.drain(..conn.sent);
            conn.sent = 0;
        }
        let want = Interest {
            readable: conn.draining.is_none()
                && !conn.peer_eof
                && conn.pending_write() < WRITE_HIGH_WATER,
            writable: conn.pending_write() > 0,
        };
        if want != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.remove(conn.stream.as_raw_fd());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::service::ServiceConfig;
    use xseed_core::{XseedConfig, XseedSynopsis};

    fn service() -> Arc<Service> {
        let catalog = Arc::new(Catalog::new());
        catalog.insert(
            "fig2",
            XseedSynopsis::build_from_xml(xmlkit::samples::FIGURE2_XML, XseedConfig::default())
                .unwrap(),
        );
        Arc::new(Service::new(catalog, ServiceConfig::with_workers(1)))
    }

    #[test]
    fn serve_stream_runs_a_session_to_quit() {
        let service = service();
        let input = b"EST fig2 /a/c/s\nQUIT\nEST fig2 //p\n";
        let mut output = Vec::new();
        serve_stream(&service, &ProtocolOptions::local(), &input[..], &mut output);
        assert_eq!(String::from_utf8(output).unwrap(), "OK 5\nOK bye\n");
    }

    #[test]
    fn serve_stream_runs_the_feedback_loop() {
        let service = service();
        let input = b"LOAD fig4 builtin:figure4 retain\n\
                      MAINTAIN fig4 error-mass=4\n\
                      FEEDBACK fig4 20 /a/b/d/e\n\
                      EST fig4 /a/b/d/e\nQUIT\n";
        let mut output = Vec::new();
        serve_stream(&service, &ProtocolOptions::local(), &input[..], &mut output);
        let output = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = output.lines().collect();
        assert_eq!(lines.len(), 5, "{output}");
        assert!(lines[2].contains("rebuild=done"), "{output}");
        assert_eq!(lines[3], "OK 20", "post-rebuild estimate is exact");
    }

    #[test]
    fn serve_stream_stops_at_eof() {
        let service = service();
        let mut output = Vec::new();
        serve_stream(
            &service,
            &ProtocolOptions::local(),
            &b"# just a comment\n"[..],
            &mut output,
        );
        assert!(output.is_empty());
    }

    #[test]
    fn accepted_connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut event_loop = EventLoop::new(&listener, ServerConfig::default(), service()).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while event_loop.conns.is_empty() && Instant::now() < deadline {
            event_loop.accept_ready();
            std::thread::sleep(Duration::from_millis(1));
        }
        let conn = event_loop
            .conns
            .values()
            .next()
            .expect("connection accepted");
        assert!(conn.stream.nodelay().unwrap());
    }

    #[test]
    fn default_config_has_no_rate_limit() {
        let config = ServerConfig::default();
        assert!(config.client_rate.is_none() && config.client_burst.is_none());
        assert_eq!(
            RateLimiter::from_config(config.client_rate, config.client_burst),
            RateLimiter::Unlimited
        );
    }
}
