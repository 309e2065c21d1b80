//! The client side: the daemon as a child process, loopback connections
//! with `TCP_NODELAY`, the closed-loop load generator, and readings of the
//! daemon taken from outside (`STATS json`, `/proc`).

use crate::stats::{vm_hwm_kb, SchedStat};
use netpoll::{Event, Interest, Poller};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Instant;

/// A running `xseed-serve --tcp 127.0.0.1:0 --workers 2 --allow-fs-load`.
/// Dropping it kills the process and waits for it to end.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's later log lines never meet a closed pipe.
    _stderr: BufReader<ChildStderr>,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts the daemon and waits until it reports its listening address.
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--tcp", "127.0.0.1:0", "--workers", "2", "--allow-fs-load"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stderr.read_line(&mut line);
            if !matches!(read, Ok(n) if n > 0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("xseed-serve listening on ") {
                break addr
                    .parse()
                    .map_err(|e| format!("bad listening address '{addr}': {e}"))?;
            }
        };
        Ok(Daemon {
            child,
            _stderr: stderr,
            addr,
        })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Per-thread scheduler counters, grouped by thread role.
    pub fn threads(&self) -> ThreadGroups {
        ThreadGroups::read(self.pid())
    }

    /// Peak resident set size in MB (`VmHWM`).
    pub fn rss_peak_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .ok()
            .and_then(|s| vm_hwm_kb(&s))
            .map_or(0.0, |kb| kb as f64 / 1024.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Scheduler counters of the daemon's threads, summed per role: the
/// event loop (the main thread), the `xseed-worker-*` pool and the
/// `xseed-maintenance` thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadGroups {
    /// The event-loop thread.
    pub event_loop: SchedStat,
    /// Every estimation worker.
    pub workers: SchedStat,
    /// The maintenance thread.
    pub maintenance: SchedStat,
    /// Every thread of the process.
    pub total: SchedStat,
}

impl ThreadGroups {
    fn read(pid: u32) -> ThreadGroups {
        let mut groups = ThreadGroups::default();
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
            return groups;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
            let Some(stat) = std::fs::read_to_string(dir.join("schedstat"))
                .ok()
                .and_then(|s| SchedStat::parse(&s))
            else {
                continue;
            };
            groups.total = groups.total.plus(stat);
            let comm = comm.trim();
            if task.file_name().to_string_lossy() == pid.to_string() {
                groups.event_loop = groups.event_loop.plus(stat);
            } else if comm.starts_with("xseed-worker") {
                groups.workers = groups.workers.plus(stat);
            } else if comm.starts_with("xseed-maintenan") {
                // `comm` keeps 15 bytes of "xseed-maintenance".
                groups.maintenance = groups.maintenance.plus(stat);
            }
        }
        groups
    }

    /// Group-wise `self - earlier`.
    pub fn since(self, earlier: ThreadGroups) -> ThreadGroups {
        ThreadGroups {
            event_loop: self.event_loop.since(earlier.event_loop),
            workers: self.workers.since(earlier.workers),
            maintenance: self.maintenance.since(earlier.maintenance),
            total: self.total.since(earlier.total),
        }
    }
}

/// One loopback connection with `TCP_NODELAY`, read line by line.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            chunk: vec![0; 16 * 1024],
        })
    }

    /// A second handle on the same socket, for a sender thread.
    pub fn writer(&self) -> Result<TcpStream, String> {
        self.stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        send_line(&mut self.stream, line)
    }

    /// One blocking request/reply exchange.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        loop {
            if let Some(reply) = self.next_line() {
                return Ok(reply);
            }
            self.fill()?;
        }
    }

    /// Reads whatever the socket has (blocking until at least one byte).
    pub fn fill(&mut self) -> Result<(), String> {
        match self.stream.read(&mut self.chunk) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&self.chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// The next complete reply line already received, if any.
    pub fn next_line(&mut self) -> Option<String> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
        self.buf.drain(..=end);
        Some(line)
    }

    fn fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }
}

/// Writes `line` and its newline in one call.
pub fn send_line(stream: &mut TcpStream, line: &str) -> Result<(), String> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    stream.write_all(&bytes).map_err(|e| format!("write: {e}"))
}

/// A poller over a set of connections, each registered under its index.
pub struct ConnPoller {
    poller: Poller,
    events: Vec<Event>,
}

impl ConnPoller {
    /// Registers every connection for readability.
    pub fn new(conns: &[Conn]) -> Result<ConnPoller, String> {
        let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
        for (i, conn) in conns.iter().enumerate() {
            poller
                .add(conn.fd(), i as u64, Interest::READABLE)
                .map_err(|e| format!("poller add: {e}"))?;
        }
        Ok(ConnPoller {
            poller,
            events: Vec::new(),
        })
    }

    /// Waits for readable connections (at most `timeout`; `None` blocks),
    /// reads each once, and returns their indices with the arrival time.
    pub fn wait(
        &mut self,
        conns: &mut [Conn],
        timeout: Option<std::time::Duration>,
    ) -> Result<(Vec<usize>, Instant), String> {
        self.poller
            .wait(&mut self.events, timeout)
            .map_err(|e| format!("poll: {e}"))?;
        let arrived = Instant::now();
        let mut ready = Vec::with_capacity(self.events.len());
        for event in &self.events {
            let i = event.token as usize;
            conns[i].fill()?;
            ready.push(i);
        }
        Ok((ready, arrived))
    }
}

/// Runs requests from `next` in a closed loop over every connection with
/// one request outstanding on each, from the calling thread alone. Each
/// reply is passed to `done` with its round trip in microseconds and its
/// arrival time. Stops when `next` returns `None` and every connection is
/// idle.
pub fn closed_loop<R>(
    conns: &mut [Conn],
    mut next: impl FnMut() -> Option<(R, String)>,
    mut done: impl FnMut(R, &str, f64, Instant),
) -> Result<(), String> {
    let mut poller = ConnPoller::new(conns)?;
    let mut outstanding: Vec<Option<(R, Instant)>> = conns.iter().map(|_| None).collect();
    let mut send_next = |conn: &mut Conn, slot: &mut Option<(R, Instant)>| -> Result<(), String> {
        if let Some((req, line)) = next() {
            let sent = Instant::now();
            conn.send(&line)?;
            *slot = Some((req, sent));
        }
        Ok(())
    };
    for (conn, slot) in conns.iter_mut().zip(outstanding.iter_mut()) {
        send_next(conn, slot)?;
    }
    while outstanding.iter().any(Option::is_some) {
        let (ready, arrived) = poller.wait(conns, None)?;
        for i in ready {
            while let Some(reply) = conns[i].next_line() {
                let (req, sent) = outstanding[i]
                    .take()
                    .ok_or("reply without a request in flight")?;
                let rtt_us = arrived.duration_since(sent).as_secs_f64() * 1e6;
                done(req, &reply, rtt_us, arrived);
                send_next(&mut conns[i], &mut outstanding[i])?;
            }
        }
    }
    Ok(())
}

/// The daemon's counters from one `STATS json` request.
pub fn stats_json(conn: &mut Conn) -> Result<String, String> {
    let reply = conn.request("STATS json")?;
    reply
        .strip_prefix("OK ")
        .map(str::to_string)
        .ok_or_else(|| format!("STATS json failed: {reply}"))
}
