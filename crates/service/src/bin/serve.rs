//! `xseed-serve` — the XSEED estimation daemon.
//!
//! Speaks the line protocol of [`xseed_service::protocol`] over stdin
//! (default) or TCP (`--tcp ADDR`, every connection multiplexed onto one
//! nonblocking epoll event loop, all sharing one admission budget and
//! catalog). Requests are estimated on the thread that reads them; the
//! only other thread is the HET maintenance thread. The complete
//! protocol reference lives in `docs/PROTOCOL.md`, the tuning guide in
//! `docs/OPERATIONS.md`, the system tour in `docs/ARCHITECTURE.md`.
//!
//! ```text
//! xseed-serve [--workers N] [--queue-capacity Q] [--tcp ADDR]
//!             [--max-connections C] [--idle-timeout SECS]
//!             [--client-rate R] [--client-burst B]
//!             [--allow-fs-load] [--maintain-error-mass X]
//!             [--build-partitions N] [--snapshot-dir DIR]
//!             [--no-observability]
//! ```
//!
//! * `--workers N` — expected concurrent callers (default: the CPU
//!   count). Sizes the admission budget (`N × Q` queries) and the plan
//!   cache's and latency histograms' shards; it starts no threads.
//! * `--queue-capacity Q` — admission budget per worker, in queries
//!   (default 1024); a request the free budget cannot cover gets an
//!   `OVERLOADED` reply.
//! * `--tcp ADDR` — serve TCP instead of stdin, e.g. `127.0.0.1:7878`.
//! * `--max-connections C` — TCP sessions served concurrently (default
//!   64); excess connections are refused with one `OVERLOADED` line.
//! * `--idle-timeout SECS` — close TCP sessions idle for this long
//!   (default 300; 0 disables).
//! * `--client-rate R` — per-connection token-bucket rate limit, request
//!   lines per second (fractional allowed; default off). A client past
//!   its budget gets `OVERLOADED rate=… burst=…` per excess request
//!   while every other connection keeps its own untouched budget; sheds
//!   are counted in `STATS` (`rate_limited=`) and traced
//!   (`rate_limit_on`/`rate_limit_off`). TCP only.
//! * `--client-burst B` — bucket depth in requests (default: the rate,
//!   i.e. one second of budget; clamped to ≥ 1). Requires
//!   `--client-rate`.
//! * `--allow-fs-load` — permit `LOAD <name> <path>` filesystem reads for
//!   TCP sessions (stdin sessions always may; see the security note in
//!   `docs/PROTOCOL.md`).
//! * `--maintain-error-mass X` — make every `LOAD` retain its document
//!   and rebuild the HET automatically once `FEEDBACK` accumulates `X`
//!   absolute error (per document). Without it, retention and policies
//!   are per-document (`LOAD … retain` + `MAINTAIN`); see
//!   `docs/OPERATIONS.md` for sizing the bound.
//! * `--build-partitions N` — build every loaded synopsis with `N`
//!   parallel partition workers (per-LOAD `partitions=<n>` overrides).
//!   Partitioned builds are bit-identical to monolithic ones, so the flag
//!   changes build latency only, never estimates; see `docs/OPERATIONS.md`
//!   ("Partitioned construction") for measured speedups.
//! * `--snapshot-dir DIR` — warm-start from `DIR` at boot: every
//!   `*.xsnap` snapshot that decodes is served under its file stem;
//!   every one that doesn't is quarantined (renamed to `.corrupt`,
//!   logged, counted in `STATS`). The boot itself is never refused.
//!   The directory is created if missing.
//! * `--no-observability` — skip allocating the metrics/trace layer:
//!   `METRICS` and `TRACE` answer `ERR observability is disabled`, and
//!   `STATS` omits the q-error keys. On by default because the recording
//!   cost is a handful of relaxed atomic adds per request; see
//!   `docs/OPERATIONS.md` ("Reading the metrics").
//!
//! Example session:
//!
//! ```text
//! $ printf 'LOAD demo builtin:xmark@0.05\nEST demo //item\nQUIT\n' | xseed-serve
//! OK loaded name=demo epoch=0 vertices=… elements=…
//! OK …
//! OK bye
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use xseed_service::protocol::ProtocolOptions;
use xseed_service::{
    serve_stream, Catalog, MaintenancePolicy, ServerConfig, Service, ServiceConfig, TcpServer,
};

struct Args {
    workers: Option<usize>,
    queue_capacity: Option<usize>,
    tcp: Option<String>,
    max_connections: usize,
    idle_timeout_secs: u64,
    client_rate: Option<f64>,
    client_burst: Option<f64>,
    allow_fs_load: bool,
    maintain_error_mass: Option<f64>,
    build_partitions: Option<usize>,
    snapshot_dir: Option<String>,
    observability: bool,
}

const USAGE: &str = "usage: xseed-serve [--workers N] [--queue-capacity Q] [--tcp ADDR] \
                     [--max-connections C] [--idle-timeout SECS] [--client-rate R] \
                     [--client-burst B] [--allow-fs-load] [--maintain-error-mass X] \
                     [--build-partitions N] [--snapshot-dir DIR] [--no-observability]";

/// `Ok(None)` means `--help` was requested.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workers: None,
        queue_capacity: None,
        tcp: None,
        max_connections: 64,
        idle_timeout_secs: 300,
        client_rate: None,
        client_burst: None,
        allow_fs_load: false,
        maintain_error_mass: None,
        build_partitions: None,
        snapshot_dir: None,
        observability: true,
    };
    let mut it = std::env::args().skip(1);
    let parse = |flag: &str, value: Option<String>| -> Result<u64, String> {
        let v = value.ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad {flag} value '{v}'"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => args.workers = Some(parse("--workers", it.next())? as usize),
            "--queue-capacity" => {
                args.queue_capacity = Some(parse("--queue-capacity", it.next())? as usize)
            }
            "--tcp" => args.tcp = Some(it.next().ok_or("--tcp needs an address")?),
            "--max-connections" => {
                args.max_connections = parse("--max-connections", it.next())? as usize
            }
            "--idle-timeout" => args.idle_timeout_secs = parse("--idle-timeout", it.next())?,
            "--client-rate" => {
                let flag = "--client-rate";
                let v = it.next().ok_or(format!("{flag} needs a value"))?;
                let rate: f64 = v.parse().map_err(|_| format!("bad {flag} value '{v}'"))?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(format!("bad {flag} value '{v}' (want a positive number)"));
                }
                args.client_rate = Some(rate);
            }
            "--client-burst" => {
                let flag = "--client-burst";
                let v = it.next().ok_or(format!("{flag} needs a value"))?;
                let burst: f64 = v.parse().map_err(|_| format!("bad {flag} value '{v}'"))?;
                if !burst.is_finite() || burst < 1.0 {
                    return Err(format!("bad {flag} value '{v}' (want a number >= 1)"));
                }
                args.client_burst = Some(burst);
            }
            "--allow-fs-load" => args.allow_fs_load = true,
            "--maintain-error-mass" => {
                let flag = "--maintain-error-mass";
                let v = it.next().ok_or(format!("{flag} needs a value"))?;
                let bound: f64 = v.parse().map_err(|_| format!("bad {flag} value '{v}'"))?;
                if !bound.is_finite() || bound <= 0.0 {
                    return Err(format!("bad {flag} value '{v}' (want a positive number)"));
                }
                args.maintain_error_mass = Some(bound);
            }
            "--build-partitions" => {
                let n = parse("--build-partitions", it.next())? as usize;
                if n == 0 {
                    return Err("bad --build-partitions value '0' (want >= 1)".to_string());
                }
                args.build_partitions = Some(n);
            }
            "--snapshot-dir" => {
                args.snapshot_dir = Some(it.next().ok_or("--snapshot-dir needs a directory")?)
            }
            "--no-observability" => args.observability = false,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.client_burst.is_some() && args.client_rate.is_none() {
        return Err("--client-burst needs --client-rate".to_string());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let mut config = match args.workers {
        Some(n) => ServiceConfig::with_workers(n),
        None => ServiceConfig::default(),
    };
    if let Some(q) = args.queue_capacity {
        config = config.with_queue_capacity(q);
    }
    config = config.with_observability(args.observability);
    eprintln!(
        "xseed-serve: admission budget {} worker(s) x {} queries; type HELP for commands",
        config.workers, config.queue_capacity
    );
    let service = Arc::new(Service::new(Arc::new(Catalog::new()), config));
    if let Some(dir) = &args.snapshot_dir {
        // Warm start is graceful degradation by design: healthy snapshots
        // are served, corrupt ones are quarantined and logged, and even a
        // directory-level failure only costs the warm start — never the
        // boot.
        match xseed_service::warm_start(service.catalog(), std::path::Path::new(dir)) {
            Ok(warm) => {
                service.note_warm_start(&warm);
                eprintln!(
                    "xseed-serve: warm start from {dir}: {} snapshot(s) restored, \
                     {} quarantined",
                    warm.loaded.len(),
                    warm.quarantined.len()
                );
            }
            Err(e) => eprintln!("xseed-serve: warm start from {dir} failed: {e}"),
        }
    }
    let auto_maintenance = args
        .maintain_error_mass
        .map(MaintenancePolicy::ErrorMassBound);
    if let Some(MaintenancePolicy::ErrorMassBound(bound)) = auto_maintenance {
        eprintln!(
            "xseed-serve: self-maintenance armed — every LOAD retains its document \
             and rebuilds the HET at {bound} accumulated error"
        );
    }

    match args.tcp {
        Some(addr) => {
            // Network sessions only read server files when explicitly
            // allowed; builtin dataset scales stay capped either way.
            let mut options = ProtocolOptions::remote();
            options.allow_fs_load = args.allow_fs_load;
            options.auto_maintenance = auto_maintenance;
            options.build_partitions = args.build_partitions;
            if let Some(rate) = args.client_rate {
                eprintln!(
                    "xseed-serve: per-client rate limit armed — {rate} request(s)/sec, \
                     burst {}",
                    args.client_burst.unwrap_or(rate).max(1.0)
                );
            }
            let server_config = ServerConfig {
                max_connections: args.max_connections,
                idle_timeout: (args.idle_timeout_secs > 0)
                    .then(|| Duration::from_secs(args.idle_timeout_secs)),
                client_rate: args.client_rate,
                client_burst: args.client_burst,
                options,
            };
            let server = match TcpServer::bind(&addr, server_config) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match server.local_addr() {
                Ok(local) => eprintln!("xseed-serve listening on {local}"),
                Err(e) => eprintln!("xseed-serve listening (address unavailable: {e})"),
            }
            if let Err(e) = server.run(service) {
                eprintln!("tcp server error: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => {
            let stdin = std::io::stdin();
            let mut options = ProtocolOptions::local();
            options.auto_maintenance = auto_maintenance;
            options.build_partitions = args.build_partitions;
            serve_stream(&service, &options, stdin.lock(), std::io::stdout().lock());
        }
    }
    ExitCode::SUCCESS
}
