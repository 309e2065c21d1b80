//! The line protocol spoken by `xseed-serve`.
//!
//! One request per line, one `OK …` / `ERR …` / `OVERLOADED …` response
//! line per request — trivially drivable from a shell pipe, `nc`, or an
//! optimizer sidecar:
//!
//! ```text
//! LOAD <name> <spec> [recursive] [retain]   register a document
//! SAVE <name> <path>                        persist a snapshot to disk
//! EST <name> <query>                        estimate one query
//! BATCH <name> <q1> ; <q2> ; …              estimate a batch (one snapshot pass)
//! FEEDBACK <name> <actual> [base=<n>] <q>   feed back an observed cardinality
//! MAINTAIN <name> <policy>                  set the maintenance policy
//! STATS [json]                              service + catalog counters
//! METRICS                                   Prometheus-style text exposition
//! TRACE [n]                                 replay the last n service events
//! HELP                                      command summary
//! QUIT                                      close the session
//! ```
//!
//! `STATS` emits `key=value` pairs; `STATS json` emits the same counters
//! as one JSON object (`docs` becomes an array of per-document objects),
//! so monitoring scrapers don't have to parse the flat form. With
//! observability on (the default), `STATS` also reports the global
//! q-error percentiles of served estimates, `METRICS` exposes every
//! per-stage latency histogram (p50/p90/p99/max) plus global and
//! per-document q-error in Prometheus text format, and `TRACE [n]`
//! replays the last `n` recorded state changes (loads, saves, rebuilds,
//! quarantines, shed transitions, pauses) from the event trace ring.
//!
//! `<spec>` is either a filesystem path to an XML document,
//! `file:<path>` to restore a snapshot written by `SAVE`, or
//! `builtin:<dataset>[@scale]` for the synthetic evaluation datasets
//! (`xmark`, `dblp`, `treebank`, `swissprot`, `tpch`, `xbench`), e.g.
//! `builtin:xmark@0.1`, or one of the paper's fixed sample documents
//! (`builtin:figure2`, `builtin:figure4` — no `@scale`). The optional
//! `recursive` flag (implied for the builtin Treebank) selects the
//! paper's highly-recursive configuration; `retain` keeps the source
//! document in the catalog so `FEEDBACK`-driven maintenance can rebuild
//! the HET without an operator (see `docs/OPERATIONS.md`).
//!
//! `FEEDBACK` routes an executed query's observed cardinality back into
//! the synopsis (the paper's Figure 1 feedback arrow): the reply carries
//! the recorded outcome (`simple` / `correlated` / `unsupported`), the
//! estimate the synopsis held, the exposed error, and — when the
//! document's `MAINTAIN` policy declared the drift due — the result of
//! the automatic HET rebuild the maintenance thread ran
//! (`rebuild=done`). `MAINTAIN` sets that policy: `manual` (default),
//! `error-mass=<x>` (rebuild once accumulated `|estimated − actual|`
//! reaches `x`), or `every=<n>` (rebuild every `n` applied feedbacks).
//!
//! `EST`/`BATCH` requests that admission control sheds (admission budget
//! exhausted — see [`crate::service`]) get a structured
//! `OVERLOADED queued=<n> capacity=<n>` reply instead of `ERR`: the
//! request was well-formed and retryable, the server just refused to
//! run it. The complete grammar, every reply form, and the security
//! notes live in `docs/PROTOCOL.md`.

use crate::catalog::{MaintenancePolicy, SnapshotError};
use crate::metrics::{format_milli_q, HistogramSnapshot, Stage};
use crate::service::{Service, ServiceError};
use crate::trace::TraceKind;
use datagen::Dataset;
use std::fmt::Write as _;
use std::sync::Arc;
use xmlkit::tree::Document;
use xseed_core::{XseedConfig, XseedSynopsis};

/// Outcome of one protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to send back to the client.
    Line(String),
    /// Nothing to send (blank line or `#` comment).
    Silent,
    /// The client asked to close the session.
    Quit,
}

impl Response {
    fn ok(body: impl std::fmt::Display) -> Response {
        Response::Line(format!("OK {body}"))
    }

    fn err(body: impl std::fmt::Display) -> Response {
        Response::Line(format!("ERR {body}"))
    }

    /// The reply for a [`ServiceError`]: sheds become the structured
    /// `OVERLOADED` form (retryable, not a client mistake), everything
    /// else is an `ERR`.
    fn service_err(err: ServiceError) -> Response {
        match err {
            ServiceError::Overloaded { queued, capacity } => {
                Response::Line(format!("OVERLOADED queued={queued} capacity={capacity}"))
            }
            other => Response::err(other),
        }
    }

    /// The reply text, if any.
    pub fn text(&self) -> Option<&str> {
        match self {
            Response::Line(s) => Some(s),
            Response::Silent | Response::Quit => None,
        }
    }
}

const HELP: &str = "commands: LOAD <name> <path|builtin:dataset[@scale]|file:snapshot.xsnap> \
                    [recursive] [retain] [partitions=<n>] | SAVE <name> <path> | \
                    EST <name> [mode=bound] <query> | BATCH <name> <q1> ; <q2> ; ... | \
                    FEEDBACK <name> <actual> [base=<n>] <query> | \
                    MAINTAIN <name> <manual|error-mass=<x>|every=<n>> | STATS [json] | \
                    METRICS | TRACE [n] | HELP | QUIT";

/// Per-session protocol policy.
#[derive(Debug, Clone)]
pub struct ProtocolOptions {
    /// Permit `LOAD <name> <path>` reads from the server's filesystem.
    /// Local (stdin) sessions allow this; network sessions must opt in
    /// explicitly (`--allow-fs-load`), since it lets any connected client
    /// read server-side files into a synopsis.
    pub allow_fs_load: bool,
    /// Maximum number of catalog documents `LOAD` may create in this
    /// session's catalog (`None` = unlimited). Re-LOADing an existing
    /// name never counts against it. Bounds total server memory a
    /// network client can pin by looping `LOAD` with fresh names.
    pub max_documents: Option<usize>,
    /// When set, every `LOAD` in this session retains its document and
    /// arms this maintenance policy — the daemon's
    /// `--maintain-error-mass` flag turns a whole deployment
    /// self-maintaining without per-document `MAINTAIN` calls. `None`
    /// (the default) loads with [`MaintenancePolicy::Manual`] and retains
    /// only on the explicit `retain` flag.
    pub auto_maintenance: Option<MaintenancePolicy>,
    /// Default worker count for partitioned synopsis construction
    /// (`--build-partitions`). A per-LOAD `partitions=<n>` flag overrides
    /// it; `None` (or 1) builds monolithically. Partitioned builds are
    /// bit-identical to monolithic ones, so this only changes build
    /// latency, never estimates.
    pub build_partitions: Option<usize>,
}

impl ProtocolOptions {
    /// Policy for a trusted local session (filesystem loads allowed).
    pub fn local() -> Self {
        ProtocolOptions {
            allow_fs_load: true,
            max_documents: None,
            auto_maintenance: None,
            build_partitions: None,
        }
    }

    /// Policy for a network session: no filesystem loads, a capped
    /// document count.
    pub fn remote() -> Self {
        ProtocolOptions {
            allow_fs_load: false,
            max_documents: Some(64),
            auto_maintenance: None,
            build_partitions: None,
        }
    }
}

impl Default for ProtocolOptions {
    fn default() -> Self {
        ProtocolOptions::local()
    }
}

/// Handles one protocol line against `service` under `options`. Empty
/// lines and `#` comments get no reply.
pub fn handle_line(service: &Service, line: &str, options: &ProtocolOptions) -> Response {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Response::Silent;
    }
    let (command, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    match command.to_ascii_uppercase().as_str() {
        "LOAD" => handle_load(service, rest, options),
        "SAVE" => handle_save(service, rest, options),
        "EST" => handle_est(service, rest),
        "BATCH" => handle_batch(service, rest),
        "FEEDBACK" => handle_feedback(service, rest),
        "MAINTAIN" => handle_maintain(service, rest),
        "STATS" => handle_stats(service, rest),
        "METRICS" => handle_metrics(service, rest),
        "TRACE" => handle_trace(service, rest),
        "HELP" => Response::ok(HELP),
        "QUIT" | "EXIT" => Response::Quit,
        other => Response::err(format_args!("unknown command '{other}' ({HELP})")),
    }
}

fn handle_load(service: &Service, args: &str, options: &ProtocolOptions) -> Response {
    let mut parts = args.split_whitespace();
    let (Some(name), Some(spec)) = (parts.next(), parts.next()) else {
        return Response::err("LOAD needs: LOAD <name> <path|builtin:dataset[@scale]>");
    };
    let mut recursive = false;
    // An auto-maintenance session retains every load so its policy can
    // actually fire; otherwise retention is per-LOAD opt-in.
    let mut retain = options.auto_maintenance.is_some();
    let mut explicit_partitions: Option<usize> = None;
    for flag in parts {
        match flag.to_ascii_lowercase().as_str() {
            "recursive" => recursive = true,
            "retain" => retain = true,
            other => match other.strip_prefix("partitions=") {
                Some(n) => match n.parse::<usize>() {
                    Ok(n) if n >= 1 => explicit_partitions = Some(n),
                    _ => {
                        return Response::err(format_args!(
                            "bad partitions value '{n}' (want an integer >= 1)"
                        ))
                    }
                },
                None => return Response::err(format_args!("unknown LOAD flag '{other}'")),
            },
        }
    }
    // The session default applies wherever a synopsis is actually built;
    // an explicit flag wins. Bit-compatibility of the partitioned builder
    // means this choice is invisible in every estimate.
    let partitions = explicit_partitions
        .or(options.build_partitions)
        .unwrap_or(1)
        .max(1);
    // Fast-path rejection before generating/parsing anything; the
    // authoritative (atomic) check happens inside `insert_full` below.
    if let Some(max) = options.max_documents {
        let catalog = service.catalog();
        if catalog.snapshot(name).is_none() && catalog.len() >= max {
            return Response::err(format_args!(
                "catalog document limit reached ({max}); re-LOAD an existing name instead"
            ));
        }
    }

    // `file:` specs restore a saved snapshot instead of building from XML;
    // the snapshot carries its own config, epoch, and (optionally) the
    // retained document, so the recursive/retain flags don't apply.
    if let Some(path) = spec.strip_prefix("file:") {
        if explicit_partitions.is_some() {
            return Response::err(
                "partitions= does not apply to file: snapshots (they restore a \
                 previously built synopsis, nothing is rebuilt)",
            );
        }
        if !options.allow_fs_load {
            return Response::err(
                "filesystem LOAD is disabled for this session (use builtin:… \
                 or start the server with --allow-fs-load)",
            );
        }
        return match service.load_snapshot(name, std::path::Path::new(path), options.max_documents)
        {
            Ok((snapshot, restored)) => {
                let mut body = format!(
                    "loaded name={name} epoch={} vertices={} elements={}",
                    snapshot.epoch(),
                    snapshot.frozen().vertex_count(),
                    snapshot.frozen().element_count(),
                );
                if restored {
                    body.push_str(" retained=yes");
                }
                Response::ok(body)
            }
            Err(SnapshotError::CatalogFull) => {
                let max = options.max_documents.unwrap_or(0);
                Response::err(format_args!(
                    "catalog document limit reached ({max}); re-LOAD an existing name instead"
                ))
            }
            Err(e) => Response::err(format_args!("cannot load snapshot '{path}': {e}")),
        };
    }

    let build = |doc: &Document, config: XseedConfig| {
        if partitions > 1 {
            XseedSynopsis::build_partitioned(doc, config, partitions)
        } else {
            XseedSynopsis::build(doc, config)
        }
    };
    let (synopsis, document) = if let Some(builtin) = spec.strip_prefix("builtin:") {
        match build_builtin(builtin, recursive) {
            Ok((doc, config)) => {
                let synopsis = build(&doc, config);
                (synopsis, retain.then(|| Arc::new(doc)))
            }
            Err(e) => return Response::err(e),
        }
    } else {
        if !options.allow_fs_load {
            return Response::err(
                "filesystem LOAD is disabled for this session (use builtin:… \
                 or start the server with --allow-fs-load)",
            );
        }
        let path = std::path::Path::new(spec);
        let read =
            crate::persist::ensure_regular_file(path).and_then(|()| std::fs::read_to_string(path));
        let xml = match read {
            Ok(xml) => xml,
            Err(e) => return Response::err(format_args!("cannot read '{spec}': {e}")),
        };
        let config = if recursive {
            XseedConfig::recursive_document()
        } else {
            XseedConfig::default()
        };
        if retain || partitions > 1 {
            // Retention — and partitioned construction, which needs random
            // access to root-child subtrees — require the materialized
            // document, so parse into a tree instead of the SAX-only path.
            match Document::parse_str(&xml) {
                Ok(doc) => {
                    let synopsis = build(&doc, config);
                    (synopsis, retain.then(|| Arc::new(doc)))
                }
                Err(e) => return Response::err(format_args!("cannot parse '{spec}': {e}")),
            }
        } else {
            match XseedSynopsis::build_from_xml(&xml, config) {
                Ok(s) => (s, None),
                Err(e) => return Response::err(format_args!("cannot parse '{spec}': {e}")),
            }
        }
    };

    let retained = document.is_some();
    let policy = options
        .auto_maintenance
        .unwrap_or(MaintenancePolicy::Manual);
    let snapshot =
        match service
            .catalog()
            .insert_full(name, synopsis, options.max_documents, document, policy)
        {
            Some(snapshot) => snapshot,
            None => {
                let max = options.max_documents.unwrap_or(0);
                return Response::err(format_args!(
                    "catalog document limit reached ({max}); re-LOAD an existing name instead"
                ));
            }
        };
    if let Some(obs) = service.obs() {
        obs.trace().record(TraceKind::Load, name);
    }
    let mut body = format!(
        "loaded name={name} epoch={} vertices={} elements={}",
        snapshot.epoch(),
        snapshot.frozen().vertex_count(),
        snapshot.frozen().element_count(),
    );
    if retained {
        body.push_str(" retained=yes");
    }
    // Monolithic loads keep the historical reply shape so committed
    // transcripts stay stable; parallel builds advertise the worker count.
    if partitions > 1 {
        body.push_str(&format!(" partitions={partitions}"));
    }
    Response::ok(body)
}

/// Upper bound accepted for `builtin:<dataset>@<scale>`, bounding the
/// memory a single LOAD can make the generator allocate.
const MAX_BUILTIN_SCALE: f64 = 4.0;

fn build_builtin(spec: &str, recursive: bool) -> Result<(Document, XseedConfig), String> {
    let (name, scale) = match spec.split_once('@') {
        Some((n, s)) => {
            let scale: f64 = s
                .parse()
                .map_err(|_| format!("bad builtin scale '{s}' (want e.g. 0.1)"))?;
            (n, Some(scale))
        }
        None => (spec, None),
    };
    // The paper's fixed sample documents: tiny, deterministic, and with
    // known kernel misestimates — ideal for feedback/maintenance demos.
    let sample = match name.to_ascii_lowercase().as_str() {
        "figure2" => Some(xmlkit::samples::figure2_document()),
        "figure4" => Some(xmlkit::samples::figure4_document()),
        _ => None,
    };
    if let Some(doc) = sample {
        if scale.is_some() {
            return Err(format!("builtin sample '{name}' takes no @scale"));
        }
        let config = if recursive {
            XseedConfig::recursive_for_size(doc.element_count())
        } else {
            XseedConfig::default()
        };
        return Ok((doc, config));
    }
    let scale = scale.unwrap_or(0.1);
    if !scale.is_finite() || scale <= 0.0 || scale > MAX_BUILTIN_SCALE {
        return Err(format!(
            "builtin scale {scale} out of range (0, {MAX_BUILTIN_SCALE}]"
        ));
    }
    let dataset = match name.to_ascii_lowercase().as_str() {
        "xmark" => Dataset::XMark10,
        "dblp" => Dataset::Dblp,
        "treebank" => Dataset::TreebankSmall,
        "swissprot" => Dataset::SwissProt,
        "tpch" => Dataset::Tpch,
        "xbench" => Dataset::XBench,
        other => {
            return Err(format!(
                "unknown builtin '{other}' \
                 (xmark|dblp|treebank|swissprot|tpch|xbench|figure2|figure4)"
            ))
        }
    };
    let doc = dataset.generate_scaled(scale);
    let config = if recursive || dataset.is_highly_recursive() {
        XseedConfig::recursive_for_size(doc.element_count())
    } else {
        XseedConfig::default()
    };
    Ok((doc, config))
}

/// `SAVE <name> <path>`: persists the document's synopsis (and retained
/// document, if any) as a crash-safe snapshot file. Filesystem writes are
/// a bigger hazard than reads, so the verb sits behind the same
/// `allow_fs_load` gate as path-based `LOAD`.
fn handle_save(service: &Service, args: &str, options: &ProtocolOptions) -> Response {
    let mut parts = args.split_whitespace();
    let (Some(name), Some(path)) = (parts.next(), parts.next()) else {
        return Response::err("SAVE needs: SAVE <name> <path>");
    };
    if parts.next().is_some() {
        return Response::err("SAVE needs: SAVE <name> <path>");
    }
    if !options.allow_fs_load {
        return Response::err(
            "filesystem SAVE is disabled for this session \
             (start the server with --allow-fs-load)",
        );
    }
    match service.save_snapshot(name, std::path::Path::new(path)) {
        Ok(bytes) => Response::ok(format!("saved name={name} bytes={bytes}")),
        Err(SnapshotError::UnknownDocument(_)) => {
            Response::err(format_args!("unknown document '{name}'"))
        }
        Err(e) => Response::err(format_args!("cannot save '{path}': {e}")),
    }
}

fn handle_est(service: &Service, args: &str) -> Response {
    let Some((name, rest)) = args.split_once(char::is_whitespace) else {
        return Response::err("EST needs: EST <name> [mode=bound] <query>");
    };
    let rest = rest.trim();
    if let Some(moded) = rest.strip_prefix("mode=") {
        let Some((mode, query)) = moded.split_once(char::is_whitespace) else {
            return Response::err("EST needs: EST <name> [mode=bound] <query>");
        };
        if mode != "bound" {
            return Response::err(format_args!("unknown EST mode '{mode}' (supported: bound)"));
        }
        return match service.estimate_bound(name, query.trim()) {
            Ok(be) => Response::ok(format_args!(
                "est={} bound={}",
                Est(be.estimate),
                Est(be.bound)
            )),
            Err(e) => Response::service_err(e),
        };
    }
    match service.estimate(name, rest) {
        Ok(est) => Response::ok(Est(est)),
        Err(e) => Response::service_err(e),
    }
}

fn handle_batch(service: &Service, args: &str) -> Response {
    let Some((name, rest)) = args.split_once(char::is_whitespace) else {
        return Response::err("BATCH needs: BATCH <name> <q1> ; <q2> ; ...");
    };
    let queries: Vec<&str> = rest
        .split(';')
        .map(str::trim)
        .filter(|q| !q.is_empty())
        .collect();
    if queries.is_empty() {
        return Response::err("BATCH needs at least one query");
    }
    match service.estimate_batch(name, &queries) {
        Ok(estimates) => {
            // Formatted in place: no `String` per estimate and no second
            // copy of the body.
            let mut reply = String::with_capacity(16 + 24 * estimates.len());
            let _ = write!(reply, "OK n={}", estimates.len());
            for est in estimates {
                let _ = write!(reply, " {}", Est(est));
            }
            Response::Line(reply)
        }
        Err(e) => Response::service_err(e),
    }
}

/// `FEEDBACK <name> <actual> [base=<n>] <query>` — the Figure 1 feedback
/// arrow on the wire. When the feedback crosses the document's
/// maintenance policy the handler waits for the triggered rebuild, so
/// the reply (and any subsequent `EST`/`STATS` in the same session) is
/// deterministic: `rebuild=done` means the republished synopsis already
/// answers from the rebuilt HET.
fn handle_feedback(service: &Service, args: &str) -> Response {
    const USAGE: &str = "FEEDBACK needs: FEEDBACK <name> <actual> [base=<n>] <query>";
    let Some((name, rest)) = args.split_once(char::is_whitespace) else {
        return Response::err(USAGE);
    };
    let rest = rest.trim();
    let Some((actual_text, rest)) = rest.split_once(char::is_whitespace) else {
        return Response::err(USAGE);
    };
    let Ok(actual) = actual_text.parse::<u64>() else {
        return Response::err(format_args!(
            "bad FEEDBACK actual '{actual_text}' (want a non-negative integer)"
        ));
    };
    let mut query = rest.trim();
    let mut base = None;
    if let Some(base_rest) = query.strip_prefix("base=") {
        let Some((base_text, q)) = base_rest.split_once(char::is_whitespace) else {
            return Response::err(USAGE);
        };
        let Ok(parsed) = base_text.parse::<u64>() else {
            return Response::err(format_args!(
                "bad FEEDBACK base '{base_text}' (want a non-negative integer)"
            ));
        };
        base = Some(parsed);
        query = q.trim();
    }
    if query.is_empty() {
        return Response::err(USAGE);
    }
    match service.feedback(name, query, actual, base) {
        Ok(fb) => {
            let mut body = format!(
                "feedback outcome={} estimated={} actual={} error={}",
                fb.report.outcome,
                Est(fb.report.estimated),
                fb.report.actual,
                Est(fb.report.error),
            );
            match fb.rebuild {
                Some(ticket) => match ticket.wait() {
                    Ok((stats, epoch)) => {
                        let _ = write!(
                            body,
                            " rebuild=done entries={} epoch={epoch}",
                            stats.simple_entries + stats.correlated_entries
                        );
                    }
                    Err(e) => {
                        let _ = write!(body, " rebuild=failed ({e}) epoch={}", fb.epoch);
                    }
                },
                None => {
                    let _ = write!(body, " rebuild=none epoch={}", fb.epoch);
                }
            }
            Response::ok(body)
        }
        Err(e) => Response::service_err(e),
    }
}

/// `MAINTAIN <name> manual|error-mass=<x>|every=<n>` — arms (or disarms)
/// the document's automatic-rebuild policy.
fn handle_maintain(service: &Service, args: &str) -> Response {
    const USAGE: &str = "MAINTAIN needs: MAINTAIN <name> <manual|error-mass=<x>|every=<n>>";
    let Some((name, spec)) = args.split_once(char::is_whitespace) else {
        return Response::err(USAGE);
    };
    let spec = spec.trim();
    let policy = if spec.eq_ignore_ascii_case("manual") {
        MaintenancePolicy::Manual
    } else if let Some(bound_text) = spec.strip_prefix("error-mass=") {
        match bound_text.parse::<f64>() {
            Ok(bound) if bound.is_finite() && bound > 0.0 => {
                MaintenancePolicy::ErrorMassBound(bound)
            }
            _ => {
                return Response::err(format_args!(
                    "bad MAINTAIN error-mass bound '{bound_text}' (want a positive number)"
                ))
            }
        }
    } else if let Some(count_text) = spec.strip_prefix("every=") {
        match count_text.parse::<u64>() {
            Ok(count) if count > 0 => MaintenancePolicy::FeedbackCount(count),
            _ => {
                return Response::err(format_args!(
                    "bad MAINTAIN schedule '{count_text}' (want a positive integer)"
                ))
            }
        }
    } else {
        return Response::err(USAGE);
    };
    if !service.catalog().set_maintenance_policy(name, policy) {
        return Response::err(format_args!("unknown document '{name}'"));
    }
    let retained = service.catalog().retained_document(name).is_some();
    Response::ok(format!(
        "maintenance name={name} policy={} retained={}",
        policy_token(policy),
        if retained { "yes" } else { "no" },
    ))
}

/// The stable wire token for a maintenance policy.
fn policy_token(policy: MaintenancePolicy) -> String {
    match policy {
        MaintenancePolicy::Manual => "manual".to_string(),
        MaintenancePolicy::ErrorMassBound(bound) => format!("error-mass:{}", Est(bound)),
        MaintenancePolicy::FeedbackCount(count) => format!("every:{count}"),
    }
}

fn handle_stats(service: &Service, args: &str) -> Response {
    match args.trim() {
        "" => handle_stats_flat(service),
        mode if mode.eq_ignore_ascii_case("json") => handle_stats_json(service),
        other => Response::err(format_args!(
            "unknown STATS mode '{other}' (use STATS or STATS json)"
        )),
    }
}

fn handle_stats_flat(service: &Service) -> Response {
    let stats = service.stats();
    let infos = service.catalog().info();
    let error_mass: f64 = infos.iter().map(|i| i.error_mass).sum();
    // `steals` stays on the wire as a constant 0 in all three renderings:
    // the service has no worker pool to steal between, and clients and
    // transcripts still read the key.
    let mut body = format!(
        "workers={} uptime_secs={} executed={} batches={} steals=0 accepted={} shed={} \
         queued={} peak_queued={} queue_capacity={} feedback_applied={} feedback_ignored={} \
         rebuilds_triggered={} error_mass={}",
        stats.workers,
        stats.uptime_secs,
        stats.executed,
        stats.batches,
        stats.accepted,
        stats.shed,
        stats.queued,
        stats.peak_queued,
        stats.queue_capacity,
        stats.feedback_applied,
        stats.feedback_ignored,
        stats.rebuilds_triggered,
        Est(error_mass),
    );
    // Served-accuracy percentiles (q-error, milli-resolution) — present
    // only when the observability layer is on.
    if let Some(obs) = service.obs() {
        let q = obs.q_error();
        let _ = write!(
            body,
            " qerr_count={} qerr_p50={} qerr_p90={} qerr_p99={}",
            q.count(),
            format_milli_q(q.percentile(0.5)),
            format_milli_q(q.percentile(0.9)),
            format_milli_q(q.percentile(0.99)),
        );
    }
    // Per-client rate-limiter sheds — present only when a network front
    // end armed the limiter (`--client-rate`), like the qerr keys above.
    if let Some(rate_limited) = stats.rate_limited {
        let _ = write!(body, " rate_limited={rate_limited}");
    }
    let _ = write!(
        body,
        " plan_hits={} plan_misses={} plan_entries={} persist_saves={} persist_loads={} \
         persist_load_failures={} quarantined={} docs={}",
        stats.plan_cache.hits,
        stats.plan_cache.misses,
        stats.plan_cache.entries,
        stats.persist_saves,
        stats.persist_loads,
        stats.persist_load_failures,
        stats.quarantined,
        infos.len(),
    );
    for info in &infos {
        let _ = write!(
            body,
            " doc:{}@{}[vertices={},elements={},bytes={},compiled_hits={},compiled_misses={},\
             error_mass={},rebuilds={}]",
            info.name,
            info.epoch,
            info.vertices,
            info.elements,
            info.size_bytes,
            info.compiled_hits,
            info.compiled_misses,
            Est(info.error_mass),
            info.rebuilds,
        );
    }
    Response::Line(format!("OK {body}"))
}

/// `STATS json`: the same counters as the flat form, as one JSON object.
/// Serialized by hand (the workspace has no serde); every key mirrors its
/// `key=value` twin, and the per-document trailer becomes a `docs` array.
fn handle_stats_json(service: &Service) -> Response {
    let stats = service.stats();
    let infos = service.catalog().info();
    let error_mass: f64 = infos.iter().map(|i| i.error_mass).sum();
    let mut body = format!(
        "{{\"workers\":{},\"uptime_secs\":{},\"executed\":{},\"batches\":{},\"steals\":0,\
         \"accepted\":{},\"shed\":{},\"queued\":{},\"peak_queued\":{},\"queue_capacity\":{},\
         \"feedback_applied\":{},\"feedback_ignored\":{},\"rebuilds_triggered\":{},\
         \"error_mass\":{}",
        stats.workers,
        stats.uptime_secs,
        stats.executed,
        stats.batches,
        stats.accepted,
        stats.shed,
        stats.queued,
        stats.peak_queued,
        stats.queue_capacity,
        stats.feedback_applied,
        stats.feedback_ignored,
        stats.rebuilds_triggered,
        Est(error_mass),
    );
    if let Some(obs) = service.obs() {
        let q = obs.q_error();
        let _ = write!(
            body,
            ",\"qerr\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            q.count(),
            format_milli_q(q.percentile(0.5)),
            format_milli_q(q.percentile(0.9)),
            format_milli_q(q.percentile(0.99)),
        );
    }
    if let Some(rate_limited) = stats.rate_limited {
        let _ = write!(body, ",\"rate_limited\":{rate_limited}");
    }
    let _ = write!(
        body,
        ",\"plan_hits\":{},\"plan_misses\":{},\"plan_entries\":{},\"persist_saves\":{},\
         \"persist_loads\":{},\"persist_load_failures\":{},\"quarantined\":{},\"docs\":[",
        stats.plan_cache.hits,
        stats.plan_cache.misses,
        stats.plan_cache.entries,
        stats.persist_saves,
        stats.persist_loads,
        stats.persist_load_failures,
        stats.quarantined,
    );
    for (i, info) in infos.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{{\"name\":\"{}\",\"epoch\":{},\"vertices\":{},\"elements\":{},\"bytes\":{},\
             \"compiled_hits\":{},\"compiled_misses\":{},\"error_mass\":{},\"rebuilds\":{}}}",
            json_escape(&info.name),
            info.epoch,
            info.vertices,
            info.elements,
            info.size_bytes,
            info.compiled_hits,
            info.compiled_misses,
            Est(info.error_mass),
            info.rebuilds,
        );
    }
    body.push_str("]}");
    Response::Line(format!("OK {body}"))
}

/// `METRICS`: Prometheus-style text exposition of every observability
/// family — uptime, the service counters, per-stage latency histograms
/// (p50/p90/p99/max/count), and global + per-document q-error. The reply
/// is one `OK metrics lines=<n>` header followed by `n` exposition
/// lines, so line-oriented clients know exactly how much to read.
fn handle_metrics(service: &Service, args: &str) -> Response {
    if !args.trim().is_empty() {
        return Response::err("METRICS takes no arguments");
    }
    let Some(obs) = service.obs() else {
        return Response::err("observability is disabled (restart without --no-observability)");
    };
    let stats = service.stats();
    let infos = service.catalog().info();
    let mut body = String::new();
    let _ = writeln!(body, "# TYPE xseed_uptime_seconds gauge");
    let _ = writeln!(body, "xseed_uptime_seconds {}", stats.uptime_secs);
    for (name, value) in [
        ("workers", stats.workers as u64),
        ("documents", infos.len() as u64),
        ("queued", stats.queued as u64),
        ("peak_queued", stats.peak_queued as u64),
        ("queue_capacity", stats.queue_capacity as u64),
    ] {
        let _ = writeln!(body, "# TYPE xseed_{name} gauge");
        let _ = writeln!(body, "xseed_{name} {value}");
    }
    for (name, value) in [
        ("executed", stats.executed),
        ("batches", stats.batches),
        ("steals", 0),
        ("accepted", stats.accepted),
        ("shed", stats.shed),
        ("feedback_applied", stats.feedback_applied),
        ("feedback_ignored", stats.feedback_ignored),
        ("rebuilds", stats.rebuilds_triggered),
        ("plan_cache_hits", stats.plan_cache.hits),
        ("plan_cache_misses", stats.plan_cache.misses),
        ("persist_saves", stats.persist_saves),
        ("persist_loads", stats.persist_loads),
        ("persist_load_failures", stats.persist_load_failures),
        ("quarantined", stats.quarantined),
        ("trace_events", obs.trace().recorded()),
    ] {
        let _ = writeln!(body, "# TYPE xseed_{name}_total counter");
        let _ = writeln!(body, "xseed_{name}_total {value}");
    }
    // Armed-only family, mirroring the STATS key: absent entirely on
    // daemons without --client-rate.
    if let Some(rate_limited) = stats.rate_limited {
        let _ = writeln!(body, "# TYPE xseed_rate_limited_total counter");
        let _ = writeln!(body, "xseed_rate_limited_total {rate_limited}");
    }
    let _ = writeln!(body, "# TYPE xseed_stage_latency_ns summary");
    for stage in Stage::ALL {
        let snap = obs.latency(stage);
        let stage = stage.name();
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            let _ = writeln!(
                body,
                "xseed_stage_latency_ns{{stage=\"{stage}\",quantile=\"{label}\"}} {}",
                snap.percentile(q)
            );
        }
        let _ = writeln!(
            body,
            "xseed_stage_latency_ns_max{{stage=\"{stage}\"}} {}",
            snap.max()
        );
        let _ = writeln!(
            body,
            "xseed_stage_latency_ns_count{{stage=\"{stage}\"}} {}",
            snap.count()
        );
    }
    let _ = writeln!(body, "# TYPE xseed_q_error summary");
    push_q_error(&mut body, "scope=\"global\"", &obs.q_error());
    // Per-document accuracy, only for documents that have actually been
    // graded — silent docs would add all-zero rows for every load.
    for info in &infos {
        if !info.q_error.is_empty() {
            let label = format!("doc=\"{}\"", json_escape(&info.name));
            push_q_error(&mut body, &label, &info.q_error);
        }
    }
    let lines = body.lines().count();
    Response::Line(format!("OK metrics lines={lines}\n{}", body.trim_end()))
}

/// Appends one q-error family (quantiles, max, count) for `label`.
fn push_q_error(body: &mut String, label: &str, snap: &HistogramSnapshot) {
    for (q, tag) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
        let _ = writeln!(
            body,
            "xseed_q_error{{{label},quantile=\"{tag}\"}} {}",
            format_milli_q(snap.percentile(q))
        );
    }
    let _ = writeln!(
        body,
        "xseed_q_error_max{{{label}}} {}",
        format_milli_q(snap.max())
    );
    let _ = writeln!(body, "xseed_q_error_count{{{label}}} {}", snap.count());
}

/// `TRACE [n]`: replays the last `n` (default 16) recorded service
/// events, oldest first. One `OK trace n=<k> capacity=<c>` header, then
/// `k` lines of `trace seq=… t=+…ms event=… doc=…`.
fn handle_trace(service: &Service, args: &str) -> Response {
    let args = args.trim();
    let n = if args.is_empty() {
        16
    } else {
        match args.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                return Response::err(format_args!(
                    "bad TRACE count '{args}' (want a positive integer)"
                ))
            }
        }
    };
    let Some(obs) = service.obs() else {
        return Response::err("observability is disabled (restart without --no-observability)");
    };
    let ring = obs.trace();
    let events = ring.last(n);
    let mut body = format!("trace n={} capacity={}", events.len(), ring.capacity());
    for event in &events {
        let _ = write!(
            body,
            "\ntrace seq={} t=+{}ms event={} doc={}",
            event.seq,
            event.at_ms,
            event.kind.name(),
            event.subject,
        );
    }
    Response::ok(body)
}

/// Escapes a string for embedding in a JSON string literal (document
/// names come from client-supplied LOAD arguments).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An estimate on the wire: integral values print without a trailing
/// ".0", fractional ones keep full precision (Rust's shortest round-trip
/// form). Formatting through this wrapper writes the digits straight into
/// the reply being built, with no `String` per value.
struct Est(f64);

impl std::fmt::Display for Est {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let est = self.0;
        if est.fract() == 0.0 && est.abs() < 1e15 {
            write!(f, "{}", est as i64)
        } else {
            write!(f, "{est}")
        }
    }
}

/// Convenience for driving a whole scripted session (used by tests and
/// the CI smoke run): feeds each line to [`handle_line`], returning the
/// responses up to and including the first `QUIT`.
pub fn run_script(service: &Service, script: &str) -> Vec<String> {
    let options = ProtocolOptions::local();
    let mut out = Vec::new();
    for line in script.lines() {
        match handle_line(service, line, &options) {
            Response::Line(reply) => out.push(reply),
            Response::Silent => {}
            Response::Quit => {
                out.push("OK bye".to_string());
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::service::ServiceConfig;
    use std::sync::Arc;

    fn fig2_catalog() -> Arc<Catalog> {
        let catalog = Arc::new(Catalog::new());
        catalog.insert(
            "fig2",
            XseedSynopsis::build_from_xml(xmlkit::samples::FIGURE2_XML, XseedConfig::default())
                .unwrap(),
        );
        catalog
    }

    fn service() -> Service {
        Service::new(fig2_catalog(), ServiceConfig::with_workers(2))
    }

    fn reply(service: &Service, line: &str) -> String {
        handle_line(service, line, &ProtocolOptions::local())
            .text()
            .unwrap()
            .to_string()
    }

    #[test]
    fn est_and_batch_roundtrip() {
        let service = service();
        assert_eq!(reply(&service, "EST fig2 /a/c/s"), "OK 5");
        let batch = reply(&service, "BATCH fig2 /a/c/s ; //p ; /a/zzz");
        assert_eq!(batch, "OK n=3 5 17 0");
        assert!(reply(&service, "EST fig2 /a/c/s[t]/p").starts_with("OK 3.6"));
    }

    #[test]
    fn est_mode_bound_roundtrip() {
        let service = service();
        // The bound reply carries both values; //* bounds exactly at the
        // 36-node document, and /a/c/s is integral in both modes.
        assert_eq!(
            reply(&service, "EST fig2 mode=bound /a/c/s"),
            "OK est=5 bound=5"
        );
        assert_eq!(
            reply(&service, "EST fig2 mode=bound //*"),
            "OK est=36 bound=36"
        );
        let pred = reply(&service, "EST fig2 mode=bound /a/c/s[t]/p");
        assert!(pred.starts_with("OK est=3.6 bound="), "{pred}");
        // Absent labels bound to zero; point mode is untouched.
        assert_eq!(
            reply(&service, "EST fig2 mode=bound /a/zzz"),
            "OK est=0 bound=0"
        );
        assert_eq!(reply(&service, "EST fig2 /a/c/s"), "OK 5");
        // ERR rows: unknown mode, missing query, unknown document.
        assert!(
            reply(&service, "EST fig2 mode=exact /a").starts_with("ERR unknown EST mode 'exact'")
        );
        assert!(reply(&service, "EST fig2 mode=bound").starts_with("ERR EST needs"));
        assert!(reply(&service, "EST nope mode=bound /a").starts_with("ERR unknown document"));
        assert!(reply(&service, "HELP").contains("mode=bound"));
    }

    #[test]
    fn load_builtin_and_estimate() {
        let service = service();
        let loaded = reply(&service, "LOAD bank builtin:treebank@0.02");
        assert!(
            loaded.starts_with("OK loaded name=bank epoch=0"),
            "{loaded}"
        );
        let est = reply(&service, "EST bank //S");
        assert!(est.starts_with("OK "), "{est}");
        assert!(reply(&service, "LOAD x builtin:nope").starts_with("ERR "));
        assert!(reply(&service, "LOAD x builtin:xmark@huh").starts_with("ERR "));
        assert!(reply(&service, "LOAD x /no/such/file.xml").starts_with("ERR "));
    }

    #[test]
    fn load_partitions_flag_builds_bit_identical_synopses() {
        let service = service();
        // Monolithic reply shape is unchanged; partitioned loads echo the
        // worker count.
        let mono = reply(&service, "LOAD mono builtin:figure4");
        assert!(mono.starts_with("OK loaded name=mono"), "{mono}");
        assert!(!mono.contains("partitions="), "{mono}");
        let part = reply(&service, "LOAD part builtin:figure4 partitions=4");
        assert!(part.ends_with(" partitions=4"), "{part}");
        // partitions=1 is the monolithic build — no suffix.
        let one = reply(&service, "LOAD one builtin:figure4 partitions=1");
        assert!(!one.contains("partitions="), "{one}");
        // Same vertices/elements header, and bit-identical estimates.
        let stats = |r: &str| r.split_once(" epoch=").unwrap().1.to_string();
        assert_eq!(stats(&mono), stats(&part).replace(" partitions=4", ""));
        for q in ["/a/b/d", "//e", "/a/b/d[f]/e", "//*"] {
            assert_eq!(
                reply(&service, &format!("EST mono {q}")),
                reply(&service, &format!("EST part {q}")),
                "{q}"
            );
        }
        // A session-wide default applies without a per-LOAD flag.
        let defaulted = ProtocolOptions {
            build_partitions: Some(3),
            ..ProtocolOptions::local()
        };
        let d = handle_line(&service, "LOAD dflt builtin:figure4", &defaulted);
        assert!(d.text().unwrap().ends_with(" partitions=3"), "{d:?}");
        assert_eq!(
            reply(&service, "EST mono /a/b/d[f]/e"),
            reply(&service, "EST dflt /a/b/d[f]/e")
        );
    }

    #[test]
    fn load_partitions_flag_rejects_bad_values_and_snapshot_restores() {
        let service = service();
        assert!(reply(&service, "LOAD x builtin:figure2 partitions=0")
            .starts_with("ERR bad partitions value '0'"));
        assert!(reply(&service, "LOAD x builtin:figure2 partitions=zap")
            .starts_with("ERR bad partitions value 'zap'"));
        assert!(reply(&service, "LOAD x builtin:figure2 partitionz=2")
            .starts_with("ERR unknown LOAD flag"));
        assert!(reply(&service, "LOAD x file:/tmp/nope.xsnap partitions=2")
            .starts_with("ERR partitions= does not apply to file: snapshots"));
    }

    #[test]
    fn errors_and_help_and_quit() {
        let service = service();
        assert!(reply(&service, "EST nope /a").starts_with("ERR unknown document"));
        assert!(reply(&service, "EST fig2 /[").starts_with("ERR parse error"));
        assert!(reply(&service, "BATCH fig2").starts_with("ERR "));
        assert!(reply(&service, "FROB x").starts_with("ERR unknown command"));
        assert!(reply(&service, "HELP").contains("BATCH"));
        let local = ProtocolOptions::local();
        assert_eq!(handle_line(&service, "# comment", &local), Response::Silent);
        assert_eq!(handle_line(&service, "   ", &local), Response::Silent);
        assert_eq!(handle_line(&service, "QUIT", &local), Response::Quit);
        assert_eq!(handle_line(&service, "quit", &local), Response::Quit);
    }

    #[test]
    fn remote_sessions_cannot_read_server_files_or_oversize_builtins() {
        let service = service();
        let remote = ProtocolOptions::remote();
        let denied = handle_line(&service, "LOAD x /etc/hostname", &remote);
        assert!(denied.text().unwrap().starts_with("ERR filesystem LOAD"));
        let oversized = handle_line(&service, "LOAD x builtin:xmark@100000", &remote);
        assert!(oversized.text().unwrap().contains("out of range"));
        let nan = handle_line(&service, "LOAD x builtin:xmark@NaN", &remote);
        assert!(nan.text().unwrap().starts_with("ERR "));
        // In-range builtins still load remotely.
        let ok = handle_line(&service, "LOAD x builtin:xmark@0.05", &remote);
        assert!(ok.text().unwrap().starts_with("OK loaded"), "{ok:?}");
    }

    #[test]
    fn save_and_load_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("xseed-protocol-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("fig2.xsnap");
        let service = service();
        let est_before = reply(&service, "EST fig2 /a/c/s[t]/p");

        let saved = reply(&service, &format!("SAVE fig2 {}", path.display()));
        assert!(saved.starts_with("OK saved name=fig2 bytes="), "{saved}");
        let loaded = reply(&service, &format!("LOAD copy file:{}", path.display()));
        assert!(
            loaded.starts_with("OK loaded name=copy epoch=0"),
            "{loaded}"
        );
        assert_eq!(reply(&service, "EST copy /a/c/s[t]/p"), est_before);

        assert!(reply(&service, "SAVE nope /tmp/x.xsnap").starts_with("ERR unknown document"));
        assert!(reply(&service, "SAVE fig2").starts_with("ERR SAVE needs"));
        let missing = reply(&service, "LOAD x file:/no/such/snap.xsnap");
        assert!(missing.starts_with("ERR cannot load snapshot"), "{missing}");
        let stats = reply(&service, "STATS");
        assert!(stats.contains("persist_saves=1"), "{stats}");
        assert!(stats.contains("persist_loads=1"), "{stats}");
        assert!(stats.contains("persist_load_failures=1"), "{stats}");
        assert!(stats.contains("quarantined=0"), "{stats}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fs_loads_refuse_anything_but_a_regular_file() {
        // A device would be read forever and a directory cannot be read:
        // both path forms must answer one ERR before opening the file.
        let service = service();
        let dir = std::env::temp_dir();
        let dir = dir.display();
        for (spec, prefix) in [
            ("/dev/zero".to_string(), "ERR cannot read '/dev/zero'"),
            (format!("{dir} retain"), "ERR cannot read '"),
            (format!("{dir}"), "ERR cannot read '"),
            (
                "file:/dev/zero".to_string(),
                "ERR cannot load snapshot '/dev/zero'",
            ),
            (format!("file:{dir}"), "ERR cannot load snapshot '"),
        ] {
            let got = reply(&service, &format!("LOAD x {spec}"));
            assert!(got.starts_with(prefix), "LOAD x {spec}: {got}");
            assert!(
                got.ends_with(": not a regular file"),
                "LOAD x {spec}: {got}"
            );
        }
        assert!(reply(&service, "EST x /a").starts_with("ERR unknown document"));
    }

    #[test]
    fn remote_sessions_cannot_save_or_load_snapshots() {
        let service = service();
        let remote = ProtocolOptions::remote();
        let save = handle_line(&service, "SAVE fig2 /tmp/fig2.xsnap", &remote);
        assert!(
            save.text().unwrap().starts_with("ERR filesystem SAVE"),
            "{save:?}"
        );
        let load = handle_line(&service, "LOAD x file:/tmp/fig2.xsnap", &remote);
        assert!(
            load.text().unwrap().starts_with("ERR filesystem LOAD"),
            "{load:?}"
        );
    }

    #[test]
    fn remote_sessions_cannot_grow_the_catalog_without_bound() {
        let service = service();
        let capped = ProtocolOptions {
            max_documents: Some(2),
            ..ProtocolOptions::remote()
        };
        // One slot left (fig2 is pre-loaded).
        let ok = handle_line(&service, "LOAD extra builtin:dblp@0.02", &capped);
        assert!(ok.text().unwrap().starts_with("OK loaded"), "{ok:?}");
        let denied = handle_line(&service, "LOAD third builtin:dblp@0.02", &capped);
        assert!(
            denied
                .text()
                .unwrap()
                .starts_with("ERR catalog document limit"),
            "{denied:?}"
        );
        // Replacing an existing name is always allowed.
        let replaced = handle_line(&service, "LOAD extra builtin:dblp@0.02", &capped);
        assert!(
            replaced.text().unwrap().starts_with("OK loaded"),
            "{replaced:?}"
        );
    }

    #[test]
    fn feedback_and_maintain_drive_an_auto_rebuild() {
        let service = service();
        let loaded = reply(&service, "LOAD fig4 builtin:figure4 retain");
        assert!(loaded.ends_with("retained=yes"), "{loaded}");
        assert_eq!(
            reply(&service, "MAINTAIN fig4 error-mass=4"),
            "OK maintenance name=fig4 policy=error-mass:4 retained=yes"
        );
        // The kernel misestimates the correlated Figure 4 path; feeding
        // the truth back crosses the bound and the handler waits for the
        // triggered rebuild, so the follow-up estimate is exact.
        let fb = reply(&service, "FEEDBACK fig4 20 /a/b/d/e");
        assert!(fb.starts_with("OK feedback outcome=simple"), "{fb}");
        assert!(fb.contains(" actual=20 "), "{fb}");
        assert!(fb.contains(" rebuild=done "), "{fb}");
        assert_eq!(reply(&service, "EST fig4 /a/b/d/e"), "OK 20");
        let stats = reply(&service, "STATS");
        assert!(stats.contains("feedback_applied=1"), "{stats}");
        assert!(stats.contains("rebuilds_triggered=1"), "{stats}");
        assert!(stats.contains("error_mass=0"), "{stats}");
        assert!(stats.contains(",rebuilds=1]"), "{stats}");
    }

    #[test]
    fn feedback_without_policy_updates_without_rebuild() {
        let service = service();
        // Correlated feedback with an explicit base path cardinality.
        let fb = reply(&service, "FEEDBACK fig2 4 base=9 /a/c/s[t]/p");
        assert!(fb.starts_with("OK feedback outcome=correlated"), "{fb}");
        assert!(fb.contains(" rebuild=none "), "{fb}");
        // Unsupported shapes are reported and counted but change nothing.
        let ignored = reply(&service, "FEEDBACK fig2 2 //s//p");
        assert!(
            ignored.starts_with("OK feedback outcome=unsupported"),
            "{ignored}"
        );
        let stats = reply(&service, "STATS");
        assert!(
            stats.contains("feedback_applied=1 feedback_ignored=1"),
            "{stats}"
        );
        assert!(stats.contains("rebuilds_triggered=0"), "{stats}");
    }

    #[test]
    fn feedback_and_maintain_reject_malformed_requests() {
        let service = service();
        assert!(reply(&service, "FEEDBACK fig2").starts_with("ERR FEEDBACK needs"));
        assert!(reply(&service, "FEEDBACK fig2 7").starts_with("ERR FEEDBACK needs"));
        assert!(reply(&service, "FEEDBACK fig2 x /a").starts_with("ERR bad FEEDBACK actual"));
        assert!(reply(&service, "FEEDBACK fig2 7 base=x /a").starts_with("ERR bad FEEDBACK base"));
        assert!(reply(&service, "FEEDBACK fig2 7 base=2").starts_with("ERR FEEDBACK needs"));
        assert!(reply(&service, "FEEDBACK nope 7 /a").starts_with("ERR unknown document"));
        assert!(reply(&service, "FEEDBACK fig2 7 /[").starts_with("ERR parse error"));
        assert!(reply(&service, "MAINTAIN fig2").starts_with("ERR MAINTAIN needs"));
        assert!(reply(&service, "MAINTAIN fig2 bogus").starts_with("ERR MAINTAIN needs"));
        assert!(reply(&service, "MAINTAIN fig2 error-mass=-1").starts_with("ERR bad MAINTAIN"));
        assert!(reply(&service, "MAINTAIN fig2 every=0").starts_with("ERR bad MAINTAIN"));
        assert!(reply(&service, "MAINTAIN nope manual").starts_with("ERR unknown document"));
        // A policy without retention arms but reports it cannot fire.
        assert_eq!(
            reply(&service, "MAINTAIN fig2 every=3"),
            "OK maintenance name=fig2 policy=every:3 retained=no"
        );
    }

    #[test]
    fn builtin_samples_load_without_scale() {
        let service = service();
        let loaded = reply(&service, "LOAD f2 builtin:figure2");
        assert!(loaded.starts_with("OK loaded name=f2"), "{loaded}");
        assert!(!loaded.contains("retained"), "{loaded}");
        assert_eq!(reply(&service, "EST f2 /a/c/s"), "OK 5");
        assert!(reply(&service, "LOAD f4 builtin:figure4@0.5")
            .starts_with("ERR builtin sample 'figure4' takes no @scale"));
    }

    #[test]
    fn auto_maintenance_sessions_retain_and_rebuild_every_load() {
        let service = service();
        let auto = ProtocolOptions {
            auto_maintenance: Some(MaintenancePolicy::ErrorMassBound(4.0)),
            ..ProtocolOptions::local()
        };
        let loaded = handle_line(&service, "LOAD fig4 builtin:figure4", &auto);
        assert!(
            loaded.text().unwrap().ends_with("retained=yes"),
            "{loaded:?}"
        );
        let fb = handle_line(&service, "FEEDBACK fig4 20 /a/b/d/e", &auto);
        assert!(fb.text().unwrap().contains("rebuild=done"), "{fb:?}");
    }

    #[test]
    fn stats_reports_docs() {
        let service = service();
        let _ = reply(&service, "EST fig2 //p");
        let stats = reply(&service, "STATS");
        assert!(stats.contains("workers=2"), "{stats}");
        assert!(stats.contains("doc:fig2@0"), "{stats}");
        assert!(stats.contains("executed=1"), "{stats}");
        assert!(stats.contains("accepted=1 shed=0 queued=0"), "{stats}");
        assert!(stats.contains("queue_capacity=1024"), "{stats}");
        assert!(stats.contains("compiled_hits="), "{stats}");
    }

    #[test]
    fn bound_estimates_count_as_executed_work() {
        let service = service();
        assert_eq!(
            reply(&service, "EST fig2 mode=bound /a/c/s"),
            "OK est=5 bound=5"
        );
        // Admitted, executed and released: in-flight work
        // (accepted − executed) reads zero.
        let stats = reply(&service, "STATS");
        assert!(stats.contains(" executed=1 batches=1 "), "{stats}");
        assert!(stats.contains(" accepted=1 shed=0 queued=0 "), "{stats}");
        let json = reply(&service, "STATS json");
        assert!(json.contains("\"executed\":1,\"batches\":1,"), "{json}");
        let metrics = reply(&service, "METRICS");
        assert!(metrics.contains("\nxseed_executed_total 1\n"), "{metrics}");
        assert!(metrics.contains("\nxseed_batches_total 1\n"), "{metrics}");
    }

    #[test]
    fn stats_json_mirrors_flat_counters() {
        let service = service();
        let _ = reply(&service, "EST fig2 //p");
        let json = reply(&service, "STATS json");
        assert!(json.starts_with("OK {"), "{json}");
        assert!(json.ends_with('}'), "{json}");
        // Same counters as the flat form, structurally embedded.
        assert!(json.contains("\"workers\":2"), "{json}");
        assert!(json.contains("\"executed\":1"), "{json}");
        assert!(json.contains("\"queue_capacity\":1024"), "{json}");
        assert!(
            json.contains("\"docs\":[{\"name\":\"fig2\",\"epoch\":0,"),
            "{json}"
        );
        assert!(json.contains("\"compiled_misses\":"), "{json}");
        // Braces and brackets balance (no serde, so guard the hand-rolled
        // serializer against drift).
        let body = json.strip_prefix("OK ").unwrap();
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = body.matches(open).count();
            let closes = body.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close} in {json}");
        }
        // Mode is case-insensitive; anything else is an error.
        assert!(reply(&service, "STATS JSON").starts_with("OK {"));
        assert!(reply(&service, "STATS xml").starts_with("ERR unknown STATS mode"));
    }

    #[test]
    fn stats_json_escapes_document_names() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\tnl\n"), "tab\\u0009nl\\u000a");
    }

    #[test]
    fn overloaded_batches_get_the_structured_reply() {
        let service = Service::new(
            fig2_catalog(),
            ServiceConfig::with_workers(1).with_queue_capacity(4),
        );
        // A batch larger than the whole queue budget can never be
        // admitted: the shed is deterministic and structured.
        let shed = reply(&service, "BATCH fig2 //p ; //p ; //p ; //p ; //p");
        assert_eq!(shed, "OVERLOADED queued=0 capacity=4");
        // The counters show the pressure; a fitting batch still runs.
        assert!(reply(&service, "STATS").contains("shed=5"));
        assert_eq!(reply(&service, "BATCH fig2 //p ; //p"), "OK n=2 17 17");
    }

    #[test]
    fn stats_reports_uptime_and_qerr() {
        let service = service();
        let fb = reply(&service, "FEEDBACK fig2 20 /a/c/s");
        assert!(fb.starts_with("OK feedback outcome=simple"), "{fb}");
        // fig2 holds /a/c/s = 5 exactly, so q = 20/5 = 4.0 → milli-q
        // 4000 → bucket upper edge 4095 — deterministic on the wire.
        let stats = reply(&service, "STATS");
        assert!(stats.contains(" uptime_secs="), "{stats}");
        assert!(
            stats.contains("qerr_count=1 qerr_p50=4.095 qerr_p90=4.095 qerr_p99=4.095"),
            "{stats}"
        );
        let json = reply(&service, "STATS json");
        assert!(json.contains("\"uptime_secs\":"), "{json}");
        assert!(
            json.contains("\"qerr\":{\"count\":1,\"p50\":4.095,\"p90\":4.095,\"p99\":4.095}"),
            "{json}"
        );
    }

    #[test]
    fn metrics_exposes_stage_latency_and_q_error() {
        let service = service();
        let _ = reply(&service, "EST fig2 /a/c/s");
        let _ = reply(&service, "FEEDBACK fig2 20 /a/c/s");
        let metrics = reply(&service, "METRICS");
        let mut lines = metrics.lines();
        let header = lines.next().unwrap();
        let declared: usize = header
            .strip_prefix("OK metrics lines=")
            .expect(header)
            .parse()
            .unwrap();
        assert_eq!(lines.count(), declared, "{metrics}");
        assert!(metrics.contains("xseed_uptime_seconds "), "{metrics}");
        assert!(metrics.contains("xseed_executed_total 1"), "{metrics}");
        assert!(
            metrics.contains("xseed_stage_latency_ns{stage=\"estimate\",quantile=\"0.5\"} "),
            "{metrics}"
        );
        assert!(
            metrics.contains("xseed_stage_latency_ns_count{stage=\"estimate\"} 1"),
            "{metrics}"
        );
        // Every stage is present even before it ever fires.
        assert!(
            metrics.contains("xseed_stage_latency_ns_count{stage=\"het_rebuild\"} 0"),
            "{metrics}"
        );
        assert!(
            metrics.contains("xseed_q_error{scope=\"global\",quantile=\"0.99\"} 4.095"),
            "{metrics}"
        );
        // The graded document gets its own q-error rows.
        assert!(
            metrics.contains("xseed_q_error{doc=\"fig2\",quantile=\"0.5\"} 4.095"),
            "{metrics}"
        );
        assert!(
            metrics.contains("xseed_q_error_count{doc=\"fig2\"} 1"),
            "{metrics}"
        );
        assert!(reply(&service, "METRICS json").starts_with("ERR METRICS takes no"));
    }

    #[test]
    fn compile_stage_counts_every_compiled_cache_miss() {
        // Point, bound, and batched estimates each time a compiled-cache
        // miss into the compile stage, so its sample count is the summed
        // per-document compiled_misses.
        let service = service();
        assert!(reply(&service, "LOAD f4 builtin:figure4").starts_with("OK "));
        for line in [
            "EST fig2 /a/c/s",
            "EST fig2 /a/c/s",
            "EST fig2 mode=bound //p",
            "EST fig2 mode=bound //p",
            "EST f4 mode=bound /a/b/d[f]/e",
            "BATCH fig2 /a/c/s ; //s//p ; /a/c/s[t]/p",
            "BATCH f4 /a/c/d/f ; //d[e][f]",
        ] {
            assert!(reply(&service, line).starts_with("OK "), "{line}");
        }
        let stats = reply(&service, "STATS");
        let misses: u64 = stats
            .split("compiled_misses=")
            .skip(1)
            .map(|rest| {
                let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
                digits.unwrap().parse::<u64>().unwrap()
            })
            .sum();
        assert_eq!(misses, 7, "{stats}");
        let metrics = reply(&service, "METRICS");
        let compiles = metrics
            .lines()
            .find_map(|l| l.strip_prefix("xseed_stage_latency_ns_count{stage=\"compile\"} "))
            .expect("compile stage row");
        assert_eq!(compiles, misses.to_string(), "{metrics}");
    }

    #[test]
    fn trace_replays_recent_events() {
        let service = service();
        let _ = reply(&service, "LOAD f4 builtin:figure4 retain");
        let _ = reply(&service, "MAINTAIN f4 error-mass=1");
        let fb = reply(&service, "FEEDBACK f4 20 /a/b/d/e");
        assert!(fb.contains("rebuild=done"), "{fb}");
        let trace = reply(&service, "TRACE");
        assert!(trace.starts_with("OK trace n=2 capacity=256"), "{trace}");
        assert!(trace.contains("event=load doc=f4"), "{trace}");
        assert!(trace.contains("event=rebuild doc=f4"), "{trace}");
        // Bounded replay and argument validation.
        let one = reply(&service, "TRACE 1");
        assert!(one.starts_with("OK trace n=1 "), "{one}");
        assert!(one.contains("event=rebuild"), "{one}");
        assert!(reply(&service, "TRACE zero").starts_with("ERR bad TRACE count"));
        assert!(reply(&service, "TRACE 0").starts_with("ERR bad TRACE count"));
    }

    #[test]
    fn observability_off_disables_the_obs_surface() {
        let service = Service::new(
            fig2_catalog(),
            ServiceConfig::with_workers(1).with_observability(false),
        );
        assert_eq!(reply(&service, "EST fig2 /a/c/s"), "OK 5");
        assert!(reply(&service, "METRICS").starts_with("ERR observability is disabled"));
        assert!(reply(&service, "TRACE").starts_with("ERR observability is disabled"));
        let stats = reply(&service, "STATS");
        assert!(!stats.contains("qerr_"), "{stats}");
        assert!(stats.contains(" uptime_secs="), "uptime stays: {stats}");
        assert!(!reply(&service, "STATS json").contains("\"qerr\""));
    }

    #[test]
    fn scripted_session_runs_to_quit() {
        let service = service();
        let replies = run_script(&service, "EST fig2 /a/c/s\nSTATS\nQUIT\nEST fig2 //p\n");
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[0], "OK 5");
        assert_eq!(replies[2], "OK bye");
    }
}
