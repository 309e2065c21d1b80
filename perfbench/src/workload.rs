//! The three workloads, run end to end against a spawned daemon.
//!
//! * `est_point` — `EST <doc> <q>` over the hot set in a closed loop,
//!   one request outstanding on each of 2 connections, one client
//!   thread; every 4th request is `EST … mode=bound`. Every cache hits
//!   and the estimate is a few µs of a ~50 µs round trip, so the event
//!   loop, the protocol layer and the handoff to the workers do the
//!   work: a change there shows here and hardly at all in `est_batch`.
//! * `est_batch` — the same hot set as `BATCH <doc> q1 ; … ; q64`, each
//!   batch from one document's stratified shuffle (so every batch has
//!   the same SP/BP/CP mix), documents taking turns, closed loop over 2
//!   connections. The wire cost is paid once per 64 estimates and every
//!   plan is cached, so the core estimator (frontier-memo replay), the
//!   batch executor and the fan-out across workers do the work.
//! * `mixed_rw` — an open loop of 4,000 `EST`/s over the cold set (about
//!   5× the plan cache) beside 200 `FEEDBACK xmark …`/s, with `xmark`
//!   retained and `MAINTAIN xmark every=10`, so every 10th write rebuilds
//!   the HET. The only workload where plan-cache misses, parsing,
//!   compiling, catalog publication and HET rebuilds do the work, and
//!   where pipelined replies and loop stalls show. Reads run beside
//!   writes, so a gain for one that costs the other shows.

use crate::check::{Reference, Replay, Tally};
use crate::client::{closed_loop, send_line, stats_json, Conn, ConnPoller, Daemon, ThreadGroups};
use crate::inputs::{shuffle, stratified_shuffle, Class, Inputs, Query, XMARK};
use crate::stats::{geometric_mean, median, q_error, Cut, Figures, Summary};
use std::path::Path;
use std::time::{Duration, Instant};

/// Queries per `BATCH` request.
pub const BATCH: usize = 64;
/// `mixed_rw` read rate, requests per second.
const READ_RATE: u64 = 4000;
/// `mixed_rw` write rate, requests per second.
const WRITE_RATE: u64 = 200;
/// Length of the `FEEDBACK` probe that follows the closed-loop workloads'
/// timed phase, as a share of that phase: long enough that its best
/// windows, like the reads', come from a quiet stretch of the machine.
const PROBE_SHARE: f64 = 0.5;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A `mixed_rw` run is invalid when its sender fell behind: half its
/// requests later than this, µs …
const MAX_LATE_P50_US: f64 = 1000.0;
/// … or one in a hundred later than this.
const MAX_LATE_P99_US: f64 = 20_000.0;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hot-set point and bound estimates, closed loop.
    EstPoint,
    /// Hot-set 64-query batches, closed loop.
    EstBatch,
    /// Cold-set reads beside feedback writes, open loop.
    MixedRw,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "est_point" => Some(Workload::EstPoint),
            "est_batch" => Some(Workload::EstBatch),
            "mixed_rw" => Some(Workload::MixedRw),
            _ => None,
        }
    }
}

/// Which query list a read indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Set {
    /// [`Streams::hot`].
    Hot,
    /// [`Streams::cold`].
    Cold,
}

/// One request, by index into the workload's query lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// `EST`, point or bound mode.
    Est {
        /// List the index refers to.
        set: Set,
        /// Index into that list.
        q: usize,
        /// `mode=bound`.
        bound: bool,
    },
    /// `BATCH` of [`BATCH`] queries of one document's batch list,
    /// starting at `start` and wrapping around.
    Batch {
        /// Document index.
        doc: usize,
        /// First position in the document's batch list.
        start: usize,
    },
    /// The `k`-th `FEEDBACK` of the write cycle.
    Feedback {
        /// Position in the (cyclic) write list.
        k: usize,
    },
}

impl Req {
    /// Whether the request is a read (`EST`/`BATCH`).
    pub fn is_read(self) -> bool {
        !matches!(self, Req::Feedback { .. })
    }

    /// Estimates the request answers.
    pub fn estimates(self) -> u64 {
        match self {
            Req::Est { .. } => 1,
            Req::Batch { .. } => BATCH as u64,
            Req::Feedback { .. } => 0,
        }
    }
}

/// The query lists a workload's requests index.
pub struct Streams {
    /// Catalog names, by document index.
    pub names: Vec<&'static str>,
    /// The hot set in generation order (post-run pass, q-error).
    pub hot: Vec<Query>,
    /// A seeded permutation of `hot` (warm-up and `est_point` order).
    pub hot_order: Vec<usize>,
    /// Per document, its hot queries stratified-shuffled (`est_batch`),
    /// followed by their first `BATCH - 1` again so that every batch,
    /// wrapping or not, is one slice.
    batches: Vec<Vec<Query>>,
    /// The `BATCH` line of every start position, rendered once.
    batch_lines: Vec<Vec<String>>,
    /// The cold set, shuffled (`mixed_rw` reads; empty otherwise).
    pub cold: Vec<Query>,
    /// The write cycle: `xmark`'s hot SP and BP queries with exact counts.
    pub writes: Vec<(Query, u64)>,
    /// Exact counts of `hot`.
    pub hot_exact: Vec<u64>,
}

impl Streams {
    /// Orders the inputs for `workload` with `seed`.
    pub fn new(inputs: &Inputs, workload: Workload, seed: u64) -> Streams {
        let hot = inputs.hot.clone();
        let mut hot_order: Vec<usize> = (0..hot.len()).collect();
        shuffle(&mut hot_order, seed);
        let batches: Vec<Vec<Query>> = (0..inputs.docs.len())
            .map(|d| {
                let own: Vec<Query> = hot.iter().filter(|q| q.doc == d).cloned().collect();
                let mut list = stratified_shuffle(&own, seed.wrapping_add(100 + d as u64));
                list.extend_from_within(..BATCH - 1);
                list
            })
            .collect();
        let batch_lines = batches
            .iter()
            .enumerate()
            .map(|(d, list)| {
                (0..list.len() + 1 - BATCH)
                    .map(|start| {
                        let texts: Vec<&str> = list[start..start + BATCH]
                            .iter()
                            .map(|q| q.text.as_str())
                            .collect();
                        format!("BATCH {} {}", inputs.docs[d].name, texts.join(" ; "))
                    })
                    .collect()
            })
            .collect();
        let mut cold = Vec::new();
        if workload == Workload::MixedRw {
            cold = inputs.cold_set();
            shuffle(&mut cold, seed.wrapping_add(7));
        }
        let hot_exact = inputs.exact_counts(&hot);
        let writes = hot
            .iter()
            .zip(&hot_exact)
            .filter(|(q, _)| q.doc == XMARK && q.class != Class::Complex)
            .map(|(q, &n)| (q.clone(), n))
            .collect();
        Streams {
            names: inputs.docs.iter().map(|d| d.name).collect(),
            hot,
            hot_order,
            batches,
            batch_lines,
            cold,
            writes,
            hot_exact,
        }
    }

    /// The query an `EST` refers to.
    pub fn query(&self, set: Set, q: usize) -> &Query {
        match set {
            Set::Hot => &self.hot[q],
            Set::Cold => &self.cold[q],
        }
    }

    /// Distinct start positions of `doc`'s batches: its hot query count.
    fn batch_starts(&self, doc: usize) -> usize {
        self.batch_lines[doc].len()
    }

    /// The queries of a `BATCH`.
    pub fn batch(&self, doc: usize, start: usize) -> &[Query] {
        &self.batches[doc][start..start + BATCH]
    }

    /// The write of a `FEEDBACK`.
    pub fn write(&self, k: usize) -> &(Query, u64) {
        &self.writes[k % self.writes.len()]
    }

    /// The request line of `req`.
    pub fn line(&self, req: Req) -> String {
        match req {
            Req::Est { set, q, bound } => {
                let query = self.query(set, q);
                let mode = if bound { "mode=bound " } else { "" };
                format!("EST {} {mode}{}", self.names[query.doc], query.text)
            }
            Req::Batch { doc, start } => self.batch_lines[doc][start].clone(),
            Req::Feedback { k } => {
                let (query, actual) = self.write(k);
                format!("FEEDBACK {} {actual} {}", self.names[XMARK], query.text)
            }
        }
    }

    /// The `i`-th request of a closed-loop workload's endless stream.
    pub fn closed_request(&self, workload: Workload, i: usize) -> Req {
        match workload {
            Workload::EstBatch => {
                let docs = self.batches.len();
                let doc = i % docs;
                Req::Batch {
                    doc,
                    start: (i / docs * BATCH) % self.batch_starts(doc),
                }
            }
            _ => Req::Est {
                set: Set::Hot,
                q: self.hot_order[i % self.hot_order.len()],
                bound: i % 4 == 3,
            },
        }
    }

    /// One untimed pass over the hot set in the workload's request form.
    pub fn warm_up(&self, workload: Workload) -> Vec<Req> {
        match workload {
            Workload::EstPoint => (0..self.hot.len())
                .map(|i| self.closed_request(workload, i))
                .collect(),
            Workload::EstBatch => {
                let rounds = (0..self.batches.len())
                    .map(|d| self.batch_starts(d).div_ceil(BATCH))
                    .max();
                (0..rounds.unwrap_or(0) * self.batches.len())
                    .map(|i| self.closed_request(workload, i))
                    .collect()
            }
            Workload::MixedRw => self
                .hot_order
                .iter()
                .map(|&q| Req::Est {
                    set: Set::Hot,
                    q,
                    bound: false,
                })
                .collect(),
        }
    }

    /// The `mixed_rw` schedule for `seconds`: each request with its due
    /// offset, reads and writes evenly spaced at their rates. Reads and
    /// writes share one connection, as in one optimizer session, so the
    /// daemon handles them in schedule order.
    pub fn open_schedule(&self, seconds: u64) -> Vec<(Duration, Req)> {
        let at = |n: u64, rate: u64| Duration::from_nanos(n * 1_000_000_000 / rate);
        let mut schedule: Vec<(Duration, Req)> = (0..READ_RATE * seconds)
            .map(|i| {
                let q = i as usize % self.cold.len();
                (
                    at(i, READ_RATE),
                    Req::Est {
                        set: Set::Cold,
                        q,
                        bound: false,
                    },
                )
            })
            .collect();
        schedule.extend(
            (0..WRITE_RATE * seconds).map(|k| (at(k, WRITE_RATE), Req::Feedback { k: k as usize })),
        );
        // Stable: a write due with a read goes after it.
        schedule.sort_by_key(|&(due, _)| due);
        schedule
    }
}

/// The request lines that set a workload's daemon up.
pub fn setup_lines(inputs: &Inputs, workload: Workload) -> Vec<String> {
    let mixed = workload == Workload::MixedRw;
    let mut lines: Vec<String> = inputs
        .docs
        .iter()
        .enumerate()
        .map(|(i, d)| d.load_line(mixed && i == XMARK))
        .collect();
    if mixed {
        lines.push(format!("MAINTAIN {} every=10", inputs.docs[XMARK].name));
    }
    lines
}

/// What the untraced run measured.
pub struct Outcome {
    /// Checked replies.
    pub tally: Tally,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Estimates answered per second of the timed phase.
    pub est_per_s: f64,
    /// Read latency, µs.
    pub reads: Summary,
    /// Write latency, µs.
    pub writes: Summary,
    /// Daemon CPU per estimate, µs.
    pub cpu_us_per_est: f64,
    /// Daemon peak RSS, MB.
    pub rss_peak_mb: f64,
    /// Geometric-mean q-error of the post-run pass.
    pub qerr_gmean: f64,
    /// Daemon threads' scheduler counters over the timed phase.
    pub threads: ThreadGroups,
    /// `STATS json` before and after the timed phase.
    pub stats: (String, String),
    /// Requests answered in the timed phase.
    pub requests: u64,
    /// How late the `mixed_rw` sender ran at p99, µs (0 for closed loops).
    pub late_p99_us: f64,
}

struct Served {
    daemon: Daemon,
    conns: Vec<Conn>,
    setup_replies: Vec<String>,
}

/// Runs `workload` end to end: set-ups, timed phase, post-run pass and
/// write probe, every reply checked.
pub fn run(
    bin: &Path,
    inputs: &Inputs,
    streams: &Streams,
    reference: &mut Reference,
    workload: Workload,
    seconds: u64,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let lines = setup_lines(inputs, workload);
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        drop(served.take());
        let started = Instant::now();
        let s = set_up(bin, &lines, streams, reference, workload, &mut tally)?;
        setups.push(started.elapsed().as_secs_f64());
        served = Some(s);
    }
    let Served {
        daemon,
        mut conns,
        setup_replies,
    } = served.expect("at least one set-up");

    let replay = Replay::new();
    for (line, got) in lines.iter().zip(&setup_replies) {
        tally.check(line, got, &replay.apply(line));
    }

    let stats_before = stats_json(&mut conns[0])?;
    let threads_before = daemon.threads();
    let timed = match workload {
        Workload::MixedRw => {
            let conn = &mut conns[0];
            open_phase(
                conn, &daemon, streams, &replay, reference, seconds, &mut tally,
            )?
        }
        _ => closed_phase(
            &mut conns, &daemon, streams, reference, workload, seconds, &mut tally,
        )?,
    };
    let threads = daemon.threads().since(threads_before);
    let stats_after = stats_json(&mut conns[0])?;

    // Post-run pass over the hot set, in generation order.
    let mut replies = vec![String::new(); streams.hot.len()];
    let mut next = 0..streams.hot.len();
    closed_loop(
        &mut conns,
        || {
            let q = next.next()?;
            let req = Req::Est {
                set: Set::Hot,
                q,
                bound: false,
            };
            Some((q, streams.line(req)))
        },
        |q, reply, _, _| replies[q] = reply.to_string(),
    )?;
    let mut qerrs = Vec::with_capacity(replies.len());
    for (i, reply) in replies.iter().enumerate() {
        let q = &streams.hot[i];
        let want = if workload == Workload::MixedRw {
            replay.est_reply(streams.names[q.doc], q)
        } else {
            reference.est_reply(q, false)
        };
        tally.check(
            &streams.line(Req::Est {
                set: Set::Hot,
                q: i,
                bound: false,
            }),
            reply,
            &want,
        );
        let est: f64 = reply
            .strip_prefix("OK ")
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN);
        qerrs.push(q_error(est, streams.hot_exact[i]));
    }

    let writes = match timed.writes {
        Some(writes) => writes,
        None => {
            let probe = Duration::from_secs_f64(seconds as f64 * PROBE_SHARE);
            write_probe(&mut conns[..1], streams, &replay, probe, &mut tally)?
        }
    };
    let rss_peak_mb = daemon.rss_peak_mb();
    drop(conns);
    drop(daemon);

    Ok(Outcome {
        tally,
        setup_s: median(&setups),
        est_per_s: timed.reads.rate,
        reads: timed.reads.latency,
        writes,
        cpu_us_per_est: timed.reads.cpu_us,
        rss_peak_mb,
        qerr_gmean: geometric_mean(&qerrs),
        threads,
        stats: (stats_before, stats_after),
        requests: timed.requests,
        late_p99_us: timed.late_p99_us,
    })
}

/// Starts a daemon, sends the set-up lines, and runs the warm-up pass.
fn set_up(
    bin: &Path,
    lines: &[String],
    streams: &Streams,
    reference: &mut Reference,
    workload: Workload,
    tally: &mut Tally,
) -> Result<Served, String> {
    let daemon = Daemon::spawn(bin)?;
    let mut conns = vec![Conn::connect(daemon.addr)?, Conn::connect(daemon.addr)?];
    let mut setup_replies = Vec::new();
    for line in lines {
        let reply = conns[0].request(line)?;
        if !reply.starts_with("OK ") {
            return Err(format!("`{line}` failed: {reply}"));
        }
        setup_replies.push(reply);
    }
    let mut warm = streams.warm_up(workload).into_iter();
    closed_loop(
        &mut conns,
        || warm.next().map(|req| (req, streams.line(req))),
        |req, reply, _, _| check_read(streams, reference, req, reply, tally),
    )?;
    Ok(Served {
        daemon,
        conns,
        setup_replies,
    })
}

/// Checks a read of a document nothing writes to against the reference.
fn check_read(
    streams: &Streams,
    reference: &mut Reference,
    req: Req,
    reply: &str,
    tally: &mut Tally,
) {
    let body = match req {
        Req::Est { set, q, bound } => reference.est_body(streams.query(set, q), bound),
        Req::Batch { doc, start } => reference.batch_body((doc, start), streams.batch(doc, start)),
        Req::Feedback { .. } => unreachable!("reads only"),
    };
    if reply.strip_prefix("OK ") == Some(body) {
        tally.attempted += 1;
    } else {
        let want = format!("OK {body}");
        tally.check(&streams.line(req), reply, &want);
    }
}

/// Length of the windows a timed phase is cut into.
const WINDOW: Duration = Duration::from_millis(250);

struct Timed {
    requests: u64,
    reads: Figures,
    writes: Option<Summary>,
    late_p99_us: f64,
}

/// Marks the phase at `at` when a window boundary has passed.
fn cut_if_due(cuts: &mut Vec<Cut>, daemon: &Daemon, at: Instant, done: usize) {
    if cuts.last().is_none_or(|last| at >= last.at + WINDOW) {
        cuts.push(Cut {
            at,
            done,
            cpu_ns: daemon.threads().total.cpu_ns,
        });
    }
}

fn closed_phase(
    conns: &mut [Conn],
    daemon: &Daemon,
    streams: &Streams,
    reference: &mut Reference,
    workload: Workload,
    seconds: u64,
    tally: &mut Tally,
) -> Result<Timed, String> {
    let (mut read_us, mut weights, mut cuts) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    cut_if_due(&mut cuts, daemon, started, 0);
    let deadline = started + Duration::from_secs(seconds);
    let mut i = 0;
    closed_loop(
        conns,
        || {
            if Instant::now() >= deadline {
                return None;
            }
            let req = streams.closed_request(workload, i);
            i += 1;
            Some((req, streams.line(req)))
        },
        |req, reply, us, arrived| {
            cut_if_due(&mut cuts, daemon, arrived, read_us.len());
            read_us.push(us);
            weights.push(req.estimates());
            check_read(streams, reference, req, reply, tally);
        },
    )?;
    Ok(Timed {
        requests: read_us.len() as u64,
        reads: Figures::from_windows(&cuts, &read_us, &weights),
        writes: None,
        late_p99_us: 0.0,
    })
}

/// Closed-loop `FEEDBACK` probe after the timed phase of a read-only
/// workload, for `length`: apply-only writes (the document is not
/// retained, so none rebuilds), each reply checked against the replay.
fn write_probe(
    conns: &mut [Conn],
    streams: &Streams,
    replay: &Replay,
    length: Duration,
    tally: &mut Tally,
) -> Result<Summary, String> {
    let (mut latencies, mut replies) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + length;
    let mut next = 0..;
    closed_loop(
        conns,
        || {
            let k = next.next().filter(|_| Instant::now() < deadline)?;
            Some((k, streams.line(Req::Feedback { k })))
        },
        |_, reply, us, _| {
            latencies.push(us);
            replies.push(reply.to_string());
        },
    )?;
    for (k, got) in replies.iter().enumerate() {
        let line = streams.line(Req::Feedback { k });
        tally.check(&line, got, &replay.apply(&line));
    }
    Ok(Summary::windowed(&latencies))
}

/// The `mixed_rw` open loop over one connection: a sender thread sleeps
/// until each request's due time and sends it; this thread timestamps
/// each reply as it arrives. Latency counts from the due time, so a stall
/// also charges the requests queued behind it. Replies come back in
/// request order, so each read is checked against exactly the writes
/// before it: `xmark` reads against the replay, the others against the
/// reference.
fn open_phase(
    conn: &mut Conn,
    daemon: &Daemon,
    streams: &Streams,
    replay: &Replay,
    reference: &mut Reference,
    seconds: u64,
    tally: &mut Tally,
) -> Result<Timed, String> {
    let schedule = streams.open_schedule(seconds);
    let lines: Vec<String> = schedule.iter().map(|&(_, req)| streams.line(req)).collect();
    let mut writer = conn.writer()?;
    let conns = std::slice::from_mut(conn);
    let mut poller = ConnPoller::new(conns)?;
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + schedule.last().map_or(Duration::ZERO, |s| s.0);
    let mut arrivals: Vec<(String, Instant)> = Vec::with_capacity(schedule.len());
    let mut cuts = Vec::new();
    cut_if_due(&mut cuts, daemon, start, 0);
    let sent = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> Result<Vec<Instant>, String> {
            let mut sent = Vec::with_capacity(schedule.len());
            for (&(due, _), line) in schedule.iter().zip(&lines) {
                let due = start + due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                sent.push(Instant::now());
                send_line(&mut writer, line)?;
            }
            Ok(sent)
        });
        let give_up = end + Duration::from_secs(30);
        let received = (|| {
            while arrivals.len() < schedule.len() && Instant::now() < give_up {
                let (_, arrived) = poller.wait(conns, Some(Duration::from_millis(100)))?;
                cut_if_due(&mut cuts, daemon, arrived, arrivals.len());
                while let Some(reply) = conns[0].next_line() {
                    arrivals.push((reply, arrived));
                }
            }
            Ok::<(), String>(())
        })();
        let sent = sender.join().expect("sender thread panicked");
        received.and(sent)
    })?;

    let late_us: Vec<f64> = schedule
        .iter()
        .zip(&sent)
        .map(|(&(due, _), &at)| at.saturating_duration_since(start + due).as_secs_f64() * 1e6)
        .collect();
    let late = Summary::of(&late_us);
    if late.p50 > MAX_LATE_P50_US || late.p99 > MAX_LATE_P99_US {
        return Err(format!(
            "run invalid: the sender fell behind its schedule (late p50 {:.0} µs, p99 {:.0} µs)",
            late.p50, late.p99
        ));
    }

    let (mut read_us, mut write_us) = (Vec::new(), Vec::new());
    // Reads completed before each arrival index, to cut the reads alone.
    let mut reads_before = Vec::with_capacity(arrivals.len() + 1);
    for ((&(due, req), line), (reply, arrived)) in schedule.iter().zip(&lines).zip(&arrivals) {
        let latency = arrived.duration_since(start + due).as_secs_f64() * 1e6;
        reads_before.push(read_us.len());
        match req {
            Req::Feedback { .. } => {
                write_us.push(latency);
                tally.check(line, reply, &replay.apply(line));
            }
            Req::Est { set, q, .. } => {
                read_us.push(latency);
                let query = streams.query(set, q);
                if query.doc == XMARK {
                    tally.check(line, reply, &replay.est_reply(streams.names[XMARK], query));
                } else {
                    check_read(streams, reference, req, reply, tally);
                }
            }
            Req::Batch { .. } => unreachable!("mixed_rw sends no batches"),
        }
    }
    tally.missing((schedule.len() - arrivals.len()) as u64, "timed");
    // Writes never answered are replayed anyway, so the post-run pass
    // compares against the state the daemon was asked to reach.
    for (&(_, req), line) in schedule.iter().zip(&lines).skip(arrivals.len()) {
        if !req.is_read() {
            replay.apply(line);
        }
    }

    reads_before.push(read_us.len());
    for cut in &mut cuts {
        cut.done = reads_before[cut.done];
    }
    Ok(Timed {
        requests: arrivals.len() as u64,
        reads: Figures::from_windows(&cuts, &read_us, &vec![1; read_us.len()]),
        writes: Some(Summary::windowed(&write_us)),
        late_p99_us: late.p99,
    })
}
