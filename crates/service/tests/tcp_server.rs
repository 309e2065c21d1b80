//! The nonblocking TCP event loop, exercised over real sockets:
//! pipelining, half-closed sessions, slow-consumer backpressure,
//! connection limiting with the structured `OVERLOADED` refusal and its
//! lingering close, per-client rate-limiter fairness, idle-session
//! timeouts, a high-connection idle soak, and the remote-session security
//! policy.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use xseed_service::{Catalog, MaintenancePolicy, ServerConfig, Service, ServiceConfig, TcpServer};

/// Starts a server on an ephemeral port and leaks its accept thread (it
/// blocks in `accept` for the life of the test process).
fn spawn_server(config: ServerConfig) -> std::net::SocketAddr {
    let catalog = Arc::new(Catalog::new());
    catalog.insert(
        "fig2",
        xseed_core::XseedSynopsis::build_from_xml(
            xmlkit::samples::FIGURE2_XML,
            xseed_core::XseedConfig::default(),
        )
        .unwrap(),
    );
    let service = Arc::new(Service::new(catalog, ServiceConfig::with_workers(2)));
    let server = TcpServer::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = server.run(service);
    });
    addr
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        line.trim_end().to_string()
    }

    /// Reads a line, returning `None` on clean EOF.
    fn recv_eof(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(e) => panic!("read failed: {e}"),
        }
    }

    /// Reads one full reply, following the `OK metrics lines=<n>` /
    /// `OK trace n=<k>` multi-line headers.
    fn recv_reply(&mut self) -> String {
        let header = self.recv();
        let extra: usize = if let Some(rest) = header.strip_prefix("OK metrics lines=") {
            rest.trim().parse().expect("metrics line count")
        } else if let Some(rest) = header.strip_prefix("OK trace n=") {
            rest.split_whitespace()
                .next()
                .unwrap_or("0")
                .parse()
                .expect("trace event count")
        } else {
            0
        };
        let mut reply = header;
        for _ in 0..extra {
            reply.push('\n');
            reply.push_str(&self.recv());
        }
        reply
    }
}

#[test]
fn sessions_roundtrip_and_fs_load_stays_denied() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr);
    client.send("EST fig2 /a/c/s");
    assert_eq!(client.recv(), "OK 5");
    client.send("BATCH fig2 /a/c/s ; //p");
    assert_eq!(client.recv(), "OK n=2 5 17");
    // Network sessions cannot read server files unless --allow-fs-load.
    client.send("LOAD x /etc/hostname");
    assert!(client.recv().starts_with("ERR filesystem LOAD"));
    // The gate covers snapshot writes and reads too: SAVE would let a
    // client write server-side files, LOAD file: read them.
    client.send("SAVE fig2 /tmp/fig2.xsnap");
    assert!(client.recv().starts_with("ERR filesystem SAVE"));
    client.send("LOAD x file:/tmp/fig2.xsnap");
    assert!(client.recv().starts_with("ERR filesystem LOAD"));
    client.send("QUIT");
    assert_eq!(client.recv(), "OK bye");
    assert_eq!(client.recv_eof(), None);
}

#[test]
fn connections_past_the_limit_are_refused_and_slots_are_released() {
    let addr = spawn_server(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });
    // First client occupies the only slot (a completed round trip proves
    // the session is fully admitted, not racing the accept loop).
    let mut first = Client::connect(addr);
    first.send("EST fig2 //p");
    assert_eq!(first.recv(), "OK 17");

    // The second connection gets one structured refusal line, then EOF.
    let mut second = Client::connect(addr);
    assert_eq!(second.recv(), "OVERLOADED connections=1 max=1");
    assert_eq!(second.recv_eof(), None);

    // Closing the first session frees its slot; a new client is admitted
    // (the slot releases when the session thread notices EOF, so poll).
    first.send("QUIT");
    assert_eq!(first.recv(), "OK bye");
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut third = Client::connect(addr);
        third.send("EST fig2 /a/c/s");
        match third.recv_eof() {
            Some(reply) if reply == "OK 5" => break,
            Some(reply) => assert!(reply.starts_with("OVERLOADED"), "{reply}"),
            None => {}
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slot was never released"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_refused_client_that_sent_first_reads_the_line_then_a_clean_eof() {
    // fig4 is retained under a tight maintenance bound, so one FEEDBACK
    // queues a HET rebuild that its session waits for.
    let catalog = Arc::new(Catalog::new());
    let doc = Arc::new(xmlkit::samples::figure4_document());
    catalog.insert_retained(
        "fig4",
        xseed_core::XseedSynopsis::build(&doc, xseed_core::XseedConfig::default()),
        doc,
        MaintenancePolicy::ErrorMassBound(1.0),
    );
    let service = Arc::new(Service::new(catalog, ServiceConfig::with_workers(2)));
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = TcpServer::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let loop_service = service.clone();
    std::thread::spawn(move || {
        let _ = server.run(loop_service);
    });

    // Hold the event loop: with maintenance paused, the first session's
    // FEEDBACK waits for its rebuild, so the loop accepts nobody until
    // the pause is released.
    let pause = service.pause_maintenance();
    pause.wait_until_paused();
    let mut first = Client::connect(addr);
    first.send("FEEDBACK fig4 20 /a/b/d/e");
    while service.stats().feedback_applied == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // So the refused client's request has arrived before the loop accepts
    // and closes it. Closing with it unread would reset the connection,
    // and the client would read `ECONNRESET` after the line instead of EOF.
    let mut second = Client::connect(addr);
    second.send("EST fig4 /a/b/d/e");
    std::thread::sleep(Duration::from_millis(50));
    pause.resume();
    assert!(first.recv().starts_with("OK "));
    assert_eq!(
        second.recv_eof().as_deref(),
        Some("OVERLOADED connections=1 max=1")
    );
    assert_eq!(second.recv_eof(), None);
}

#[test]
fn a_refused_client_that_sends_after_the_line_reads_a_clean_eof() {
    let addr = spawn_server(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });
    let mut first = Client::connect(addr);
    first.send("EST fig2 //p");
    assert_eq!(first.recv(), "OK 17");

    // The refused client reads its line, then sends a request in two
    // writes. The server must still be reading (and dropping) its input:
    // had it closed the socket, the first write would draw a reset and
    // the second would fail with `EPIPE`.
    let mut second = Client::connect(addr);
    assert_eq!(second.recv(), "OVERLOADED connections=1 max=1");
    second
        .writer
        .write_all(b"EST fig2 ")
        .expect("first write after the refusal");
    std::thread::sleep(Duration::from_millis(10));
    second
        .writer
        .write_all(b"/a/c/s\n")
        .expect("second write after the refusal");
    second.writer.shutdown(Shutdown::Write).unwrap();
    assert_eq!(second.recv_eof(), None);

    // The lingering refusal took no slot from the admitted session.
    first.send("EST fig2 /a/c/s");
    assert_eq!(first.recv(), "OK 5");
}

#[test]
fn oversized_request_lines_are_rejected_and_the_session_closed() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr);
    client.send("EST fig2 /a/c/s");
    assert_eq!(client.recv(), "OK 5");
    // Fill the whole 64 KiB line cap without a newline: the server must
    // cut the session off with a structured error instead of buffering
    // without bound. (Sending exactly the cap keeps the server's close
    // clean — a client streaming *past* the cap gets the same refusal
    // but may see a connection reset instead of the reply, since the
    // server won't read the excess.)
    let chunk = vec![b'x'; 16 * 1024];
    for _ in 0..4 {
        client.writer.write_all(&chunk).unwrap();
    }
    let reply = client.recv();
    assert!(
        reply.starts_with("ERR request line exceeds"),
        "got: {reply}"
    );
    assert_eq!(client.recv_eof(), None);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr);
    // One write carrying a whole session: the loop must serve every line
    // in arrival order, not just the first per readiness event.
    client
        .writer
        .write_all(b"EST fig2 /a/c/s\nEST fig2 //p\nBATCH fig2 /a/c/s ; //p\nSTATS\nQUIT\n")
        .unwrap();
    assert_eq!(client.recv(), "OK 5");
    assert_eq!(client.recv(), "OK 17");
    assert_eq!(client.recv(), "OK n=2 5 17");
    assert!(client.recv().starts_with("OK workers="));
    assert_eq!(client.recv(), "OK bye");
    assert_eq!(client.recv_eof(), None);
}

#[test]
fn half_closed_sessions_still_get_their_replies() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr);
    client
        .writer
        .write_all(b"EST fig2 /a/c/s\nEST fig2 //p\n")
        .unwrap();
    // Shut down our sending half before reading anything: the server
    // sees EOF but must serve the pipelined requests and drain the
    // replies before hanging up, instead of dropping the session.
    client.writer.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(client.recv(), "OK 5");
    assert_eq!(client.recv(), "OK 17");
    assert_eq!(client.recv_eof(), None);
}

#[test]
fn a_slow_consumer_is_paused_not_dropped() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr);
    // Size one METRICS reply, then pipeline enough of them to overflow
    // the server's 256 KiB write high-water mark many times over while
    // we deliberately read nothing.
    client.send("METRICS");
    let sample = client.recv_reply();
    let requests = 2 * 1024 * 1024 / sample.len().max(1) + 16;
    let mut burst = String::new();
    for _ in 0..requests {
        burst.push_str("METRICS\n");
    }
    client.writer.write_all(burst.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // Backpressure must pause the session, not kill it: every reply
    // arrives, whole and in order, once we start draining.
    // recv_reply reads exactly the announced number of exposition lines,
    // so a torn or reordered reply would desynchronize the stream and
    // fail the next header assertion.
    for _ in 0..requests {
        let reply = client.recv_reply();
        assert!(reply.starts_with("OK metrics lines="), "got: {reply}");
    }
    client.send("QUIT");
    assert_eq!(client.recv(), "OK bye");
    assert_eq!(client.recv_eof(), None);
}

#[test]
fn a_flooding_client_is_shed_while_neighbors_keep_their_budget() {
    let addr = spawn_server(ServerConfig {
        // A rate this low cannot mint a visible fraction of a token
        // within the test's runtime, so admissions are exactly the burst
        // and everything after is a deterministic shed.
        client_rate: Some(0.001),
        client_burst: Some(5.0),
        ..ServerConfig::default()
    });
    let mut flood = Client::connect(addr);
    for i in 0..25 {
        flood.send("EST fig2 //p");
        let reply = flood.recv();
        if i < 5 {
            assert_eq!(reply, "OK 17", "request {i}");
        } else {
            assert_eq!(reply, "OVERLOADED rate=0.001 burst=5", "request {i}");
        }
    }
    // The flood spent only its own bucket: a well-behaved neighbor's
    // budget is untouched and its shed count stays zero.
    let mut good = Client::connect(addr);
    for _ in 0..3 {
        good.send("EST fig2 /a/c/s");
        assert_eq!(good.recv(), "OK 5");
    }
    good.send("STATS");
    let stats = good.recv();
    assert!(stats.starts_with("OK workers="), "got: {stats}");
    assert!(stats.contains(" rate_limited=20 "), "got: {stats}");
    good.send("TRACE 50");
    let trace = good.recv_reply();
    // One shed episode costs one ring slot, attributed to the flooding
    // connection's token — and only that connection's.
    assert!(
        trace.contains("event=rate_limit_on doc=conn-1"),
        "got: {trace}"
    );
    assert!(!trace.contains("doc=conn-2"), "got: {trace}");
    // The neighbor used 5 of its 5 tokens (3 ESTs, STATS, TRACE): still
    // never shed. The flooding session stays connected too — shed, not
    // dropped.
    flood.send("QUIT");
    assert_eq!(flood.recv(), "OK bye");
}

/// Resident-set size of this process in bytes, from `/proc/self/statm`.
fn resident_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read statm");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .expect("statm resident field")
        .parse()
        .expect("statm resident pages");
    pages * 4096
}

#[test]
fn five_thousand_idle_connections_soak_in_one_process() {
    const CONNS: usize = 5_000;
    // Client and server halves live in this one test process, so the fd
    // budget is ~2x the connection count plus slack. GitHub runners
    // default to a 1024 soft limit; raise it toward the hard limit and
    // skip (loudly) if that still is not enough.
    let limit = netpoll::raise_nofile_limit(4 * CONNS as u64).unwrap_or(0);
    if limit < 2 * CONNS as u64 + 512 {
        eprintln!("skipping idle soak: fd limit {limit} is too low for {CONNS} connections");
        return;
    }
    let addr = spawn_server(ServerConfig {
        max_connections: CONNS + 16,
        ..ServerConfig::default()
    });
    let before = resident_bytes();
    let mut conns: Vec<TcpStream> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}"));
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        conns.push(stream);
    }
    // Sampled sessions prove the fully-loaded loop still serves: every
    // 500th connection does a real estimate round trip.
    for stream in conns.iter_mut().step_by(500) {
        stream.write_all(b"EST fig2 /a/c/s\n").unwrap();
        let mut reply = [0u8; 16];
        let mut got = 0;
        while !reply[..got].contains(&b'\n') {
            let n = stream.read(&mut reply[got..]).expect("read reply");
            assert!(n > 0, "server hung up mid-soak");
            got += n;
        }
        assert_eq!(&reply[..got], b"OK 5\n");
    }
    // An idle connection is a map entry plus empty buffers — a few
    // hundred bytes — so 5k of them must cost single-digit MiBs. The
    // bound is generous (other tests in this process allocate too) but
    // still catches any per-connection preallocation regression.
    let grown = resident_bytes().saturating_sub(before);
    assert!(
        grown < 64 * 1024 * 1024,
        "5k idle connections grew RSS by {} MiB",
        grown / (1024 * 1024)
    );
    drop(conns);
}

#[test]
fn idle_sessions_time_out_with_a_goodbye() {
    let addr = spawn_server(ServerConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr);
    client.send("EST fig2 /a/c/s");
    assert_eq!(client.recv(), "OK 5");
    // Say nothing past the idle timeout: the server announces the close
    // and hangs up.
    assert_eq!(client.recv(), "ERR idle timeout, closing");
    assert_eq!(client.recv_eof(), None);
}

#[test]
fn a_quit_session_that_never_reads_is_force_closed_after_its_drain_grace() {
    // The server's drain grace (`DRAIN_GRACE` in server.rs); every idle
    // deadline sits at the default 300 s idle timeout, minutes away.
    const DRAIN_GRACE: Duration = Duration::from_secs(5);
    let addr = spawn_server(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    let mut stuck = Client::connect(addr);
    let mut neighbour = Client::connect(addr);
    for client in [&mut stuck, &mut neighbour] {
        client.send("EST fig2 /a/c/s");
        assert_eq!(client.recv(), "OK 5");
    }
    // One 16 KiB write the server reads whole: 2,000 METRICS requests
    // whose ~8 MiB of replies overflow what the kernel buffers between
    // the sockets while this client reads nothing, then QUIT. The session
    // is over, but its final flush can never finish.
    let mut burst = "METRICS\n".repeat(2_000);
    burst.push_str("QUIT\n");
    stuck.writer.write_all(burst.as_bytes()).unwrap();
    let quit_sent = std::time::Instant::now();

    // Both slots stay taken until the stuck session is force-closed; a
    // probe admitted afterwards proves the slot was released.
    loop {
        let mut probe = Client::connect(addr);
        // A refused probe may see its request reset instead of the
        // refusal line when too many refusals already linger.
        let _ = writeln!(probe.writer, "EST fig2 /a/c/s");
        let mut reply = String::new();
        match probe.reader.read_line(&mut reply) {
            Ok(_) if reply == "OK 5\n" => break,
            Ok(_) => assert!(
                reply.is_empty() || reply == "OVERLOADED connections=2 max=2\n",
                "{reply}"
            ),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
        }
        assert!(
            quit_sent.elapsed() < 3 * DRAIN_GRACE,
            "the stuck session was not closed within its drain grace"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // The socket was closed before its replies drained: the stream ends
    // (or resets) without the final `OK bye`.
    let mut delivered = Vec::new();
    let _ = stuck.reader.read_to_end(&mut delivered);
    assert!(
        !delivered.ends_with(b"OK bye\n"),
        "every reply was delivered, so the session never had to be forced"
    );
    // The neighbour was never touched.
    neighbour.send("EST fig2 //p");
    assert_eq!(neighbour.recv(), "OK 17");
}
