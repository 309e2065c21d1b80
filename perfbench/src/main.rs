//! # perfbench — the `xseed-serve` daemon, end to end and layer by layer
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload est_point|est_batch|mixed_rw --seed N --seconds S --trace 0|1
//! ```
//!
//! The command builds `xseed-serve` from the repository it sits in
//! (honouring `CARGO_TARGET_DIR`), generates its inputs from `--seed`
//! under `.perfbench/`, and for the chosen workload:
//!
//! 1. starts the real daemon as a child process five times
//!    (`--tcp 127.0.0.1:0 --workers 2 --allow-fs-load`, every other flag
//!    at its default), and times each start-up through its `LOAD`s,
//!    `MAINTAIN` and one warm-up pass (`setup_s` is the median);
//! 2. drives the last one over loopback TCP for `--seconds` — one client
//!    process, at most 2 threads and 2 connections, `TCP_NODELAY` on
//!    every client socket — reading `STATS json` and
//!    `/proc/<pid>/task/*/schedstat` before and after, and the daemon's
//!    CPU time at every quarter-second window;
//! 3. runs a post-run pass over the hot set (q-error against exact NoK
//!    counts) and, on the closed-loop workloads, a `FEEDBACK` probe;
//! 4. with `--trace 1`, replays the workload's requests in process, one
//!    layer deeper at a time, and reports per-layer metrics instead
//!    (see `traced.rs` for the layer-to-metric table).
//!
//! Every reply is checked bit for bit (see `check.rs`); one mismatch
//! makes the command exit non-zero without a result. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (name → value and unit). A human-readable table with
//! sample counts goes to standard error, and each run's calibration
//! reading is appended to `.perfbench/runs.jsonl`.
//!
//! ## End-to-end metrics
//!
//! The timed phase is cut into quarter-second windows. Latency
//! percentiles, throughput and CPU per estimate are computed per window,
//! and the run reports each at the best tenth of its windows: other
//! tenants of a shared machine take its CPUs in episodes of seconds to
//! minutes, and the best tenth measures the daemon rather than them.
//! `FEEDBACK` latency is windowed the same way by 1,000 requests.
//!
//! | name | unit | definition |
//! |---|---|---|
//! | `setup_s` | s | spawn until listening, every `LOAD`/`MAINTAIN` acknowledged and one warm-up pass answered; median of 5 |
//! | `est_per_s` | 1/s | estimates answered per second of the timed phase (a `BATCH` counts 64); on `mixed_rw` it should equal the offered 4,000/s |
//! | `rtt_p50_us`, `rtt_p99_us` | us | read latency at the client; on `mixed_rw` from the due time |
//! | `write_p50_us`, `write_p99_us` | us | `FEEDBACK` latency: `mixed_rw`'s timed writes (10 % rebuild, so p99 sits in the rebuild mode), or, on the closed-loop workloads, an apply-only closed-loop probe run after the timed phase for half its length |
//! | `cpu_us_per_est` | us | daemon CPU over the timed phase (all threads' `schedstat`) ÷ estimates answered |
//! | `rss_peak_mb` | MB | the daemon's `VmHWM` at the end of the run |
//! | `qerr_gmean` | ratio | geometric-mean q-error of the post-run pass, inputs clamped to ≥ 1; identical in every run of the same code |
//! | `ok_ratio` | ratio | replies that were `OK` and bit-equal to the model ÷ requests attempted; any shortfall fails the run, so a printed result always reads 1 |
//!
//! ## Behaviours this benchmark keeps visible
//!
//! These are defects of the daemon, measured on a 2-vCPU VM during the
//! benchmark's design. The benchmark neither works around them nor hides
//! them, so a later change can claim each against the named metrics.
//!
//! * **Nagle on accepted sockets.** The daemon never sets `TCP_NODELAY`
//!   on accepted connections, so pipelined replies wait on Nagle and
//!   delayed ACKs. On `mixed_rw` the slowest read took about 43 ms in 3
//!   of 5 runs; setting the option in a throwaway build cut read p50 to
//!   123–144 µs and removed those stalls. Claim against `mixed_rw`
//!   `rtt_p50_us`/`rtt_p99_us` and `server.self_us`.
//! * **Two worker wakeups per single-query job.** `Shared::push` notifies
//!   the owning worker and a sibling. Per `EST` the workers used 2.0
//!   timeslices, about 13 µs of CPU and about 12 µs of run-queue wait,
//!   while the event loop used 21–23 µs of CPU. Claim against
//!   `est_point` `rtt_p50_us`/`cpu_us_per_est` and
//!   `thread.workers.slices`/`thread.workers.wait_us`.
//! * **The event loop blocks on `FEEDBACK` rebuilds.** A write that
//!   triggers a rebuild holds the whole loop until the HET is rebuilt;
//!   `mixed_rw` read p99 was about 4 ms. Claim against `mixed_rw`
//!   `rtt_p99_us`/`write_p99_us` and `thread.maintenance.cpu_ms_per_rebuild`.
//!
//! ## Steadiness
//!
//! The VM drifts: one DBLP kernel build ranged 17.6–34.7 ms over 90 s,
//! and the calibration reading this command records beside every run
//! (best of 3 DBLP kernel builds, before and after; never used to scale
//! a metric) moves by as much between runs. Hence the windows above, the
//! five set-ups, batches drawn from a stratified shuffle so batch latency
//! is unimodal, and a `mixed_rw` sender that sleeps until each due time
//! instead of polling with millisecond timeouts, reporting its own
//! lateness as `client.late_p99_us`.
//!
//! `est_point` and `est_batch` are the workloads `BENCHMARK.json` lists.
//! `mixed_rw` runs by hand only: on a 2-vCPU VM its read p50 flips from
//! run to run between the two steady states the Nagle defect below
//! allows — about 152 µs in one and about 317 µs in the other four of
//! five 20-second runs of identical code — which no bound of at most 25 %
//! can hold. Its layers stay measured: the traced run of every workload
//! times parsing, compiling, feedback and HET rebuilds on their own.

mod check;
mod client;
mod inputs;
mod stats;
mod traced;
mod workload;

use check::Reference;
use inputs::Inputs;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Outcome, Streams, Workload};
use xseed_core::{XseedConfig, XseedSynopsis};

const USAGE: &str = "usage: perfbench --workload est_point|est_batch|mixed_rw --seed N \
                     --seconds S --trace 0|1 [--inject-wrong-reference]";

/// The end-to-end metrics, with their units, in output order.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("est_per_s", "1/s"),
    ("rtt_p50_us", "us"),
    ("rtt_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("cpu_us_per_est", "us"),
    ("rss_peak_mb", "MB"),
    ("qerr_gmean", "ratio"),
    ("ok_ratio", "ratio"),
];

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    inject_wrong_reference: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut inject_wrong_reference = false;
    while let Some(flag) = it.next() {
        if flag == "--inject-wrong-reference" {
            inject_wrong_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} '{value}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        inject_wrong_reference,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository");
    let bin = build_daemon(root)?;
    // Inputs are named relative to the repository root, so `LOAD` lines
    // stay free of whatever spaces the checkout's path holds; the daemon
    // inherits this directory.
    std::env::set_current_dir(root).map_err(|e| format!("cd {}: {e}", root.display()))?;
    let work = Path::new(".perfbench");
    let inputs = Inputs::generate(work).map_err(|e| format!("inputs: {e}"))?;
    let calibration_before = calibrate(&inputs);
    let streams = Streams::new(&inputs, args.workload, args.seed);
    // The dblp hot queries are checked by every workload's warm-up.
    let wrong = args
        .inject_wrong_reference
        .then(|| inputs.hot.iter().find(|q| q.doc == 1))
        .flatten();
    let mut reference = Reference::new(&inputs.docs, wrong)?;
    let outcome = workload::run(
        &bin,
        &inputs,
        &streams,
        &mut reference,
        args.workload,
        args.seconds,
    )?;
    let failed = outcome.tally.failed;
    let layers = if args.trace && failed == 0 {
        let spans = work.join(format!("spans-{}-{}.jsonl", args.name, args.seed));
        Some(traced::run(
            &inputs,
            &streams,
            args.workload,
            &outcome,
            &spans,
        )?)
    } else {
        None
    };
    let calibration_after = calibrate(&inputs);
    eprintln!(
        "perfbench: calibration (best of 3 DBLP kernel builds) {calibration_before:.2} ms \
         before, {calibration_after:.2} ms after"
    );
    log_run(work, args, &outcome, calibration_before, calibration_after)?;
    if failed > 0 {
        return Err(format!(
            "{failed} of {} replies failed the correctness gate",
            outcome.tally.attempted
        ));
    }

    let attempted = outcome.tally.attempted;
    let metrics: Vec<(&str, f64, &str)> = match &layers {
        Some(layers) => traced::LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, layers[name], unit))
            .collect(),
        None => END_TO_END
            .iter()
            .map(|&(name, unit)| (name, end_to_end(&outcome, name), unit))
            .collect(),
    };
    report(&outcome, &metrics);
    let mut json = String::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{json}}}}}"
    ))
}

fn end_to_end(o: &Outcome, name: &str) -> f64 {
    match name {
        "setup_s" => o.setup_s,
        "est_per_s" => o.est_per_s,
        "rtt_p50_us" => o.reads.p50,
        "rtt_p99_us" => o.reads.p99,
        "write_p50_us" => o.writes.p50,
        "write_p99_us" => o.writes.p99,
        "cpu_us_per_est" => o.cpu_us_per_est,
        "rss_peak_mb" => o.rss_peak_mb,
        "qerr_gmean" => o.qerr_gmean,
        "ok_ratio" => (o.tally.attempted - o.tally.failed) as f64 / o.tally.attempted.max(1) as f64,
        other => unreachable!("unknown metric {other}"),
    }
}

/// The metrics with their sample counts, for people.
fn report(o: &Outcome, metrics: &[(&str, f64, &str)]) {
    let mut table = String::new();
    for (name, value, unit) in metrics {
        let samples = match *name {
            "rtt_p50_us" | "rtt_p99_us" => format!("  (n={})", o.reads.n),
            "write_p50_us" | "write_p99_us" => format!("  (n={})", o.writes.n),
            _ => String::new(),
        };
        let _ = writeln!(table, "  {name:<40} {value:>14.3} {unit}{samples}");
    }
    eprint!("{table}");
}

/// Builds the daemon from the repository's own workspace and returns its
/// absolute path.
fn build_daemon(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "xseed-service"])
        .args(["--bin", "xseed-serve", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building xseed-serve failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("target"));
    let bin = target.join("release").join("xseed-serve");
    std::fs::canonicalize(&bin).map_err(|e| format!("{}: {e}", bin.display()))
}

/// Best of three single-threaded DBLP kernel builds, ms: a reading of how
/// fast the machine is right now.
fn calibrate(inputs: &Inputs) -> f64 {
    let dblp = &inputs.docs[1].doc;
    (0..3)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(XseedSynopsis::build(dblp, XseedConfig::default()));
            started.elapsed().as_secs_f64() * 1000.0
        })
        .fold(f64::INFINITY, f64::min)
}

/// Appends the run's calibration readings beside its identity.
fn log_run(work: &Path, args: &Args, o: &Outcome, before: f64, after: f64) -> Result<(), String> {
    use std::io::Write;
    let line = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"calibration_before_ms\":{before},\"calibration_after_ms\":{after},\
         \"attempted\":{},\"failed\":{}}}\n",
        args.name, args.seed, args.seconds, args.trace, o.tally.attempted, o.tally.failed
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(work.join("runs.jsonl"))
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("run log: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let a = args(&[
            "--workload",
            "mixed_rw",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::MixedRw, 9, 3, true)
        );
        assert!(!a.inject_wrong_reference);
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "est_point",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "est_point", "--seconds", "1", "--trace", "0"]).is_err());
    }
}
