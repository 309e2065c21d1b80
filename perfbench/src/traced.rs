//! The traced run: per-layer metrics, measured in process.
//!
//! The workload's own requests are replayed once per depth, each depth on
//! its own freshly loaded and warmed service so its cache state matches
//! the untraced run: through a socket to an in-process `TcpServer`, then
//! `protocol::handle_line`, then the `Service` call it dispatches, then
//! `PlanCache::get_or_parse` with the snapshot estimate (or the catalog
//! calls of a write), then `QueryPlan::parse`. Every call is wrapped in a
//! span (name, start, end, parent layer, request id); spans stay in
//! memory and are written out when the run ends. A layer's self time is
//! its span minus its child spans for the same request id, reported as
//! the median over requests. The set-up layers and the core estimator
//! are timed the same way on their own. Counter and thread rows come
//! from the untraced run, read from outside the daemon.
//!
//! | metric | measured as | should move | on |
//! |---|---|---|---|
//! | `server.self_us` | socket round trip minus `handle_line` | `rtt_p50_us`, `cpu_us_per_est` | est_point, mixed_rw |
//! | `protocol.self_us` | `handle_line` minus its `Service` call | `rtt_p50_us` | est_point |
//! | `service.self_us` | `Service::{estimate, estimate_bound, estimate_batch}` minus plan lookup and snapshot estimate | `rtt_p50_us`, `cpu_us_per_est` | est_point |
//! | `plan_cache.lookup_us` | `PlanCache::get_or_parse` (`_batch` for batches) | `rtt_p50_us` | mixed_rw (misses), est_point (hits) |
//! | `xpathkit.parse_us` | `QueryPlan::parse` of the request's queries | `rtt_p50_us` | mixed_rw |
//! | `core.compile_us` | `estimate_plan` on an unseen plan minus the same call warm | `rtt_p50_us` | mixed_rw |
//! | `core.estimate_us`, `core.bound_us` | warm `estimate_plan`, `estimate_plan_bound` | `rtt_p50_us` (small share) | est_point |
//! | `core.batch_us_per_query` | `matcher_for_batch(64)` + `estimate_plan`, per plan | `est_per_s`, `rtt_p50_us` | est_batch |
//! | `catalog.feedback_us` | `Catalog::record_feedback` | `write_p50_us` | mixed_rw |
//! | `catalog.rebuild_ms`, `het.build_ms` | `Catalog::rebuild_het_retained`, `XseedSynopsis::rebuild_het` | `write_p99_us`, `rtt_p99_us` | mixed_rw |
//! | `xmlkit.parse_ms`, `core.build_from_xml_ms`, `core.kernel_build_ms`, `catalog.insert_us` | per file, summed over the three | `setup_s` | all |
//! | `core.synopsis_kb` | sum of `XseedSynopsis::size_bytes` | `rss_peak_mb` | all |
//! | `plan_cache.hit_ratio`, `core.compiled_hit_ratio` | `STATS json` deltas over the timed phase | `rtt_p50_us` | ≈1 est_point/est_batch, ≈0 mixed_rw |
//! | `service.steals_per_batch`, `service.shed`, `catalog.rebuilds` | `STATS json` deltas | `rtt_p99_us` (est_batch); shed must be 0; `write_p99_us` (mixed_rw, writes ÷ 10) | as named |
//! | `thread.loop.cpu_us`, `thread.loop.wait_us` | event-loop thread on-CPU and run-queue time per request | `cpu_us_per_est`, `rtt_p50_us`, `rtt_p99_us` | est_point, mixed_rw |
//! | `thread.workers.cpu_us`, `thread.workers.wait_us`, `thread.workers.slices` | the same for the workers, plus timeslices, per request | `cpu_us_per_est`, `rtt_p50_us` | est_point (handoff), est_batch (work) |
//! | `thread.maintenance.cpu_ms_per_rebuild` | maintenance thread CPU ÷ rebuilds | `write_p99_us` | mixed_rw |
//! | `client.late_p99_us` | sender lateness against the due time | run validity | mixed_rw |
//! | `traced.unattributed_us`, `traced.overhead_us` | traced round trip minus the self times; minus the untraced `rtt_p50_us` | must stay small | all |

use crate::check::Replay;
use crate::client::Conn;
use crate::inputs::{Inputs, Query, XMARK};
use crate::stats::{json_u64, json_u64_all, median};
use crate::workload::{setup_lines, Outcome, Req, Streams, Workload, BATCH};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xmlkit::tree::Document;
use xpathkit::QueryPlan;
use xseed_core::XseedSynopsis;
use xseed_service::{Catalog, MaintenancePolicy, ServerConfig, TcpServer};

/// The per-layer metrics, with their units, in output order.
pub const LAYER_METRICS: [(&str, &str); 31] = [
    ("server.self_us", "us"),
    ("protocol.self_us", "us"),
    ("service.self_us", "us"),
    ("plan_cache.lookup_us", "us"),
    ("xpathkit.parse_us", "us"),
    ("core.compile_us", "us"),
    ("core.estimate_us", "us"),
    ("core.bound_us", "us"),
    ("core.batch_us_per_query", "us"),
    ("catalog.feedback_us", "us"),
    ("catalog.rebuild_ms", "ms"),
    ("het.build_ms", "ms"),
    ("xmlkit.parse_ms", "ms"),
    ("core.build_from_xml_ms", "ms"),
    ("core.kernel_build_ms", "ms"),
    ("catalog.insert_us", "us"),
    ("core.synopsis_kb", "KiB"),
    ("plan_cache.hit_ratio", "ratio"),
    ("core.compiled_hit_ratio", "ratio"),
    ("service.steals_per_batch", "ratio"),
    ("service.shed", "count"),
    ("catalog.rebuilds", "count"),
    ("thread.loop.cpu_us", "us"),
    ("thread.loop.wait_us", "us"),
    ("thread.workers.cpu_us", "us"),
    ("thread.workers.wait_us", "us"),
    ("thread.workers.slices", "count"),
    ("thread.maintenance.cpu_ms_per_rebuild", "ms"),
    ("client.late_p99_us", "us"),
    ("traced.unattributed_us", "us"),
    ("traced.overhead_us", "us"),
];

/// Reads replayed per depth on the closed-loop workloads.
const TRACE_READS: usize = 2000;
/// Batches replayed per depth on `est_batch`.
const TRACE_BATCHES: usize = 300;
/// Probe writes replayed per depth on the closed-loop workloads.
const TRACE_WRITES: usize = 200;
/// Seconds of the `mixed_rw` schedule replayed per depth.
const TRACE_OPEN_SECONDS: u64 = 1;
/// Repetitions of the stand-alone set-up and rebuild probes.
const PROBE_REPS: usize = 3;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// The layer that made the call, if traced.
    pub parent: Option<&'static str>,
    /// Request (or probe) id; spans of one request share it.
    pub id: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Records spans in memory.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            id,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        out
    }

    /// Durations of the spans named `name`, µs by request id (spans of
    /// one id add up).
    pub fn durations_us(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.id).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1000.0;
        }
        out
    }

    /// Duration of the most recent span, µs.
    pub fn last_us(&self) -> f64 {
        self.spans
            .last()
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1000.0)
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut text = String::new();
        for s in &self.spans {
            text.push_str(&format!(
                "{{\"name\":\"{}\",\"parent\":{},\"id\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.id,
                s.start_ns,
                s.end_ns
            ));
        }
        text
    }
}

/// Median over request ids of `parent` minus every child with the same
/// id; ids missing a child are skipped.
pub fn self_time(parent: &BTreeMap<u64, f64>, children: &[&BTreeMap<u64, f64>]) -> f64 {
    let diffs: Vec<f64> = parent
        .iter()
        .filter_map(|(id, &total)| {
            children
                .iter()
                .try_fold(total, |left, child| Some(left - child.get(id)?))
        })
        .collect();
    median(&diffs)
}

fn median_of(map: &BTreeMap<u64, f64>) -> f64 {
    median(&map.values().copied().collect::<Vec<_>>())
}

/// The requests the traced run replays: the start of the workload's own
/// stream, then (closed-loop workloads) the start of its write probe.
fn sample(streams: &Streams, workload: Workload) -> Vec<Req> {
    match workload {
        Workload::MixedRw => streams
            .open_schedule(TRACE_OPEN_SECONDS)
            .into_iter()
            .map(|(_, req)| req)
            .collect(),
        _ => {
            let reads = if workload == Workload::EstBatch {
                TRACE_BATCHES
            } else {
                TRACE_READS
            };
            (0..reads)
                .map(|i| streams.closed_request(workload, i))
                .chain((0..TRACE_WRITES).map(|k| Req::Feedback { k }))
                .collect()
        }
    }
}

/// A freshly loaded service, warmed like the untraced daemon.
fn fresh(inputs: &Inputs, streams: &Streams, workload: Workload) -> Replay {
    let replay = Replay::new();
    for line in setup_lines(inputs, workload) {
        replay.apply(&line);
    }
    for req in streams.warm_up(workload) {
        replay.apply(&streams.line(req));
    }
    replay
}

fn texts(streams: &Streams, req: Req) -> (usize, Vec<Query>) {
    match req {
        Req::Est { set, q, .. } => {
            let query = streams.query(set, q).clone();
            (query.doc, vec![query])
        }
        Req::Batch { doc, start } => (doc, streams.batch(doc, start).to_vec()),
        Req::Feedback { k } => (XMARK, vec![streams.write(k).0.clone()]),
    }
}

/// Runs the traced replay and returns every per-layer metric.
pub fn run(
    inputs: &Inputs,
    streams: &Streams,
    workload: Workload,
    untraced: &Outcome,
    spans_out: &Path,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let reqs = sample(streams, workload);
    let mut t = Tracer::new();

    // Depth 1: the socket, to an in-process event loop.
    {
        let replay = fresh(inputs, streams, workload);
        let server = TcpServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                options: replay.options().clone(),
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("bind in-process server: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let service = replay.service().clone();
        // The event loop has no shutdown hook; the thread idles once the
        // connection closes and ends with the process.
        std::thread::spawn(move || server.run(service));
        let mut conn = Conn::connect(addr)?;
        for (id, &req) in reqs.iter().enumerate() {
            let line = streams.line(req);
            t.span("server", None, id as u64, || conn.request(&line))?;
        }
    }
    // Depth 2: the protocol layer.
    {
        let replay = fresh(inputs, streams, workload);
        for (id, &req) in reqs.iter().enumerate() {
            let line = streams.line(req);
            t.span("protocol", Some("server"), id as u64, || {
                replay.apply(&line)
            });
        }
    }
    // Depth 3: the service call the protocol layer dispatches.
    {
        let replay = fresh(inputs, streams, workload);
        let service = replay.service();
        for (id, &req) in reqs.iter().enumerate() {
            let (doc, queries) = texts(streams, req);
            let doc = streams.names[doc];
            let parent = Some("protocol");
            let id = id as u64;
            let ok = match req {
                Req::Est { bound: false, .. } => t.span("service", parent, id, || {
                    service.estimate(doc, &queries[0].text).is_ok()
                }),
                Req::Est { bound: true, .. } => t.span("service", parent, id, || {
                    service.estimate_bound(doc, &queries[0].text).is_ok()
                }),
                Req::Batch { .. } => {
                    let refs: Vec<&str> = queries.iter().map(|q| q.text.as_str()).collect();
                    t.span("service", parent, id, || {
                        service.estimate_batch(doc, &refs).is_ok()
                    })
                }
                Req::Feedback { k } => {
                    let actual = streams.write(k).1;
                    t.span("service", parent, id, || {
                        match service.feedback(doc, &queries[0].text, actual, None) {
                            Ok(fb) => fb.rebuild.is_none_or(|ticket| ticket.wait().is_ok()),
                            Err(_) => false,
                        }
                    })
                }
            };
            if !ok {
                return Err(format!("traced service call failed: {}", streams.line(req)));
            }
        }
    }
    // Depth 4: plan lookup, then the snapshot estimate or the catalog.
    {
        let replay = fresh(inputs, streams, workload);
        let service = replay.service();
        let catalog = service.catalog();
        for (id, &req) in reqs.iter().enumerate() {
            let (doc, queries) = texts(streams, req);
            let doc = streams.names[doc];
            let id = id as u64;
            let refs: Vec<&str> = queries.iter().map(|q| q.text.as_str()).collect();
            let parent = Some("service");
            let plans = t
                .span("plan_cache", parent, id, || {
                    if refs.len() == 1 {
                        service.plan_cache().get_or_parse(refs[0]).map(|p| vec![p])
                    } else {
                        service.plan_cache().get_or_parse_batch(&refs)
                    }
                })
                .map_err(|e| format!("traced plan lookup failed: {e}"))?;
            let snapshot = catalog.snapshot(doc).ok_or("traced document missing")?;
            match req {
                Req::Est { bound, .. } => {
                    t.span("core", parent, id, || {
                        if bound {
                            snapshot.estimate_plan_bound(&plans[0]).bound
                        } else {
                            snapshot.estimate_plan(&plans[0])
                        }
                    });
                }
                Req::Batch { .. } => {
                    t.span("core", parent, id, || {
                        let mut matcher = snapshot.matcher_for_batch(BATCH);
                        plans.iter().map(|p| matcher.estimate_plan(p)).sum::<f64>()
                    });
                }
                Req::Feedback { k } => {
                    let actual = streams.write(k).1;
                    let fb = t
                        .span("catalog.feedback", parent, id, || {
                            catalog.record_feedback(doc, plans[0].expr(), actual, None)
                        })
                        .ok_or("traced feedback: document missing")?;
                    if fb.rebuild_due {
                        t.span("catalog.rebuild", parent, id, || {
                            catalog.rebuild_het_retained(doc)
                        })
                        .map_err(|e| format!("traced rebuild failed: {e}"))?;
                    }
                }
            }
        }
    }
    // Depth 5: the parser.
    for (id, &req) in reqs.iter().enumerate() {
        let (_, queries) = texts(streams, req);
        t.span("parse", Some("plan_cache"), id as u64, || {
            queries.iter().all(|q| QueryPlan::parse(&q.text).is_ok())
        });
    }

    let mut m = BTreeMap::new();
    let reads: Vec<u64> = (0..reqs.len() as u64)
        .filter(|&i| reqs[i as usize].is_read())
        .collect();
    let writes: Vec<u64> = (0..reqs.len() as u64)
        .filter(|&i| !reqs[i as usize].is_read())
        .collect();
    let only = |map: BTreeMap<u64, f64>, ids: &[u64]| -> BTreeMap<u64, f64> {
        ids.iter()
            .filter_map(|id| Some((*id, *map.get(id)?)))
            .collect()
    };
    let server = only(t.durations_us("server"), &reads);
    let protocol = only(t.durations_us("protocol"), &reads);
    let service = only(t.durations_us("service"), &reads);
    let plan_cache = only(t.durations_us("plan_cache"), &reads);
    let core = only(t.durations_us("core"), &reads);
    let parse = only(t.durations_us("parse"), &reads);
    let layers = [
        ("server.self_us", self_time(&server, &[&protocol])),
        ("protocol.self_us", self_time(&protocol, &[&service])),
        (
            "service.self_us",
            self_time(&service, &[&plan_cache, &core]),
        ),
        ("plan_cache.lookup_us", median_of(&plan_cache)),
    ];
    let attributed: f64 = layers.iter().map(|l| l.1).sum::<f64>() + median_of(&core);
    m.extend(layers);
    m.insert("xpathkit.parse_us", median_of(&parse));
    m.insert("traced.unattributed_us", median_of(&server) - attributed);
    m.insert(
        "traced.overhead_us",
        median_of(&server) - untraced.reads.p50,
    );
    m.insert(
        "catalog.feedback_us",
        median_of(&only(t.durations_us("catalog.feedback"), &writes)),
    );

    core_probes(&mut t, inputs, streams, &reqs, &mut m)?;
    setup_probes(&mut t, inputs, &mut m)?;
    counter_rows(untraced, &mut m);

    std::fs::write(spans_out, t.to_jsonl())
        .map_err(|e| format!("write {}: {e}", spans_out.display()))?;
    Ok(m)
}

/// The core estimator alone, on fresh reference snapshots, over the
/// queries of the sampled reads.
fn core_probes(
    t: &mut Tracer,
    inputs: &Inputs,
    streams: &Streams,
    reqs: &[Req],
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let snapshots = inputs
        .docs
        .iter()
        .map(|d| XseedSynopsis::build_from_xml(&d.xml, d.config()).map(|s| s.snapshot()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("probe build: {e}"))?;
    let queries: Vec<Query> = reqs
        .iter()
        .filter(|r| r.is_read())
        .flat_map(|&r| texts(streams, r).1)
        .take(TRACE_READS)
        .collect();
    let mut by_doc: Vec<Vec<QueryPlan>> = vec![Vec::new(); snapshots.len()];
    for (id, q) in queries.iter().enumerate() {
        let snap = &snapshots[q.doc];
        let plan = QueryPlan::parse(&q.text).map_err(|e| e.to_string())?;
        let id = id as u64;
        t.span("core.cold", None, id, || snap.estimate_plan(&plan));
        t.span("core.warm", Some("core.cold"), id, || {
            snap.estimate_plan(&plan)
        });
        t.span("core.bound", None, id, || snap.estimate_plan_bound(&plan));
        by_doc[q.doc].push(plan);
    }
    m.insert(
        "core.compile_us",
        self_time(
            &t.durations_us("core.cold"),
            &[&t.durations_us("core.warm")],
        ),
    );
    m.insert("core.estimate_us", median_of(&t.durations_us("core.warm")));
    m.insert("core.bound_us", median_of(&t.durations_us("core.bound")));
    let mut per_query = Vec::new();
    for (doc, plans) in by_doc.iter().enumerate() {
        // One untimed pass builds the snapshot's frontier memo.
        let mut warm = snapshots[doc].matcher_for_batch(BATCH);
        plans.iter().for_each(|p| {
            warm.estimate_plan(p);
        });
        for chunk in plans.chunks_exact(BATCH) {
            let id = per_query.len() as u64;
            t.span("core.batch", None, id, || {
                let mut matcher = snapshots[doc].matcher_for_batch(BATCH);
                chunk.iter().map(|p| matcher.estimate_plan(p)).sum::<f64>()
            });
            per_query.push(t.last_us() / BATCH as f64);
        }
    }
    m.insert("core.batch_us_per_query", median(&per_query));
    Ok(())
}

/// Construction layers, per file, summed over the three documents, and
/// the HET rebuild alone.
fn setup_probes(
    t: &mut Tracer,
    inputs: &Inputs,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let mut sums = [0.0f64; 4];
    let mut synopsis_bytes = 0;
    for (d, doc) in inputs.docs.iter().enumerate() {
        let mut reps: [Vec<f64>; 4] = Default::default();
        for rep in 0..PROBE_REPS {
            let id = (d * PROBE_REPS + rep) as u64;
            t.span("xmlkit.parse", Some("setup"), id, || {
                Document::parse_str(&doc.xml)
            })
            .map_err(|e| e.to_string())?;
            reps[0].push(t.last_us() / 1000.0);
            let synopsis = t
                .span("core.build_from_xml", Some("setup"), id, || {
                    XseedSynopsis::build_from_xml(&doc.xml, doc.config())
                })
                .map_err(|e| e.to_string())?;
            reps[1].push(t.last_us() / 1000.0);
            t.span("core.kernel_build", Some("setup"), id, || {
                XseedSynopsis::build(&doc.doc, doc.config())
            });
            reps[2].push(t.last_us() / 1000.0);
            if rep == 0 {
                synopsis_bytes += synopsis.size_bytes();
            }
            let catalog = Catalog::new();
            t.span("catalog.insert", Some("setup"), id, || {
                catalog.insert(doc.name, synopsis)
            });
            reps[3].push(t.last_us());
        }
        for (sum, rep) in sums.iter_mut().zip(&reps) {
            *sum += median(rep);
        }
    }
    m.insert("xmlkit.parse_ms", sums[0]);
    m.insert("core.build_from_xml_ms", sums[1]);
    m.insert("core.kernel_build_ms", sums[2]);
    m.insert("catalog.insert_us", sums[3]);
    m.insert("core.synopsis_kb", synopsis_bytes as f64 / 1024.0);

    let xmark = &inputs.docs[XMARK];
    let document = Arc::new(xmark.doc.clone());
    for rep in 0..PROBE_REPS as u64 {
        let mut synopsis = XseedSynopsis::build(&xmark.doc, xmark.config());
        t.span("het.build", Some("catalog.rebuild"), rep, || {
            synopsis.rebuild_het(&xmark.doc)
        });
        let catalog = Catalog::new();
        catalog.insert_retained(
            xmark.name,
            XseedSynopsis::build(&xmark.doc, xmark.config()),
            document.clone(),
            MaintenancePolicy::Manual,
        );
        t.span("catalog.rebuild_probe", None, rep, || {
            catalog.rebuild_het_retained(xmark.name)
        })
        .map_err(|e| format!("rebuild probe: {e}"))?;
    }
    m.insert(
        "het.build_ms",
        median_of(&t.durations_us("het.build")) / 1000.0,
    );
    m.insert(
        "catalog.rebuild_ms",
        median_of(&t.durations_us("catalog.rebuild_probe")) / 1000.0,
    );
    Ok(())
}

/// Rows read from outside the daemon during the untraced timed phase.
fn counter_rows(o: &Outcome, m: &mut BTreeMap<&'static str, f64>) {
    let (before, after) = (&o.stats.0, &o.stats.1);
    let delta = |key: &str| json_u64(after, key).saturating_sub(json_u64(before, key)) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (hits, misses) = (delta("plan_hits"), delta("plan_misses"));
    m.insert("plan_cache.hit_ratio", ratio(hits, hits + misses));
    // Compiled caches live per snapshot: a document republished during
    // the phase (new epoch) counts from zero again.
    let per_doc = |key: &str| -> f64 {
        let (was, now) = (json_u64_all(before, key), json_u64_all(after, key));
        let (e0, e1) = (json_u64_all(before, "epoch"), json_u64_all(after, "epoch"));
        (0..now.len())
            .map(|i| match (e0.get(i), e1.get(i), was.get(i)) {
                (Some(a), Some(b), Some(&w)) if a == b => now[i].saturating_sub(w),
                _ => now[i],
            } as f64)
            .sum()
    };
    let (hits, misses) = (per_doc("compiled_hits"), per_doc("compiled_misses"));
    m.insert("core.compiled_hit_ratio", ratio(hits, hits + misses));
    m.insert(
        "service.steals_per_batch",
        ratio(delta("steals"), delta("batches")),
    );
    m.insert("service.shed", delta("shed"));
    let rebuilds = delta("rebuilds_triggered");
    m.insert("catalog.rebuilds", rebuilds);
    let per_req = |ns: u64| ratio(ns as f64 / 1000.0, o.requests as f64);
    let th = &o.threads;
    m.insert("thread.loop.cpu_us", per_req(th.event_loop.cpu_ns));
    m.insert("thread.loop.wait_us", per_req(th.event_loop.wait_ns));
    m.insert("thread.workers.cpu_us", per_req(th.workers.cpu_ns));
    m.insert("thread.workers.wait_us", per_req(th.workers.wait_ns));
    m.insert(
        "thread.workers.slices",
        ratio(th.workers.slices as f64, o.requests as f64),
    );
    m.insert(
        "thread.maintenance.cpu_ms_per_rebuild",
        ratio(th.maintenance.cpu_ns as f64 / 1e6, rebuilds),
    );
    m.insert("client.late_p99_us", o.late_p99_us);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_the_median_of_per_request_differences() {
        let parent: BTreeMap<u64, f64> = [(0, 10.0), (1, 20.0), (2, 30.0), (3, 5.0)].into();
        let a: BTreeMap<u64, f64> = [(0, 4.0), (1, 4.0), (2, 4.0)].into();
        let b: BTreeMap<u64, f64> = [(0, 1.0), (1, 2.0), (2, 3.0)].into();
        // id 3 has no children recorded and is skipped.
        assert_eq!(self_time(&parent, &[&a, &b]), 14.0);
        assert_eq!(self_time(&parent, &[]), 10.0);
    }

    #[test]
    fn spans_of_one_id_add_up_and_serialize() {
        let mut t = Tracer::new();
        t.span("x", None, 1, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        t.span("x", Some("y"), 1, || ());
        let d = t.durations_us("x");
        assert_eq!(d.len(), 1);
        assert!(d[&1] >= 1000.0);
        assert!(t.last_us() < d[&1]);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":\"y\""));
    }
}
