//! Small numeric and text helpers: percentiles with their sample counts,
//! the q-error, and readers for the daemon's `STATS json` line and the
//! kernel's `/proc` files.

/// A latency distribution reduced to the figures the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). Empty input gives zeros.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 0.50),
            p99: percentile(&sorted, 0.99),
        }
    }
}

/// Where in the sorted per-window figures a run's figure is read: the
/// best tenth. Other tenants of a shared machine take its CPUs in
/// episodes of seconds to minutes; the best tenth of a run's windows
/// measures the program rather than its neighbours, yet a single lucky
/// window cannot set the figure.
const BEST_SHARE: f64 = 0.1;

/// The best-tenth value of per-window figures where lower is better.
pub fn best_low(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, BEST_SHARE)
}

/// The best-tenth value of per-window figures where higher is better.
pub fn best_high(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 1.0 - BEST_SHARE)
}

/// Samples per window when a phase is cut by count: enough for a p99
/// with ten samples beyond it.
const WINDOW_SAMPLES: usize = 1000;

impl Summary {
    /// Percentiles per window of [`WINDOW_SAMPLES`] consecutive samples,
    /// each read at the best tenth of the windows; `n` counts every
    /// sample. A trailing partial window is dropped unless it is the only
    /// one.
    pub fn windowed(samples: &[f64]) -> Summary {
        let windows: Vec<Summary> = samples
            .chunks(WINDOW_SAMPLES)
            .filter(|w| w.len() == WINDOW_SAMPLES || samples.len() < WINDOW_SAMPLES)
            .map(Summary::of)
            .collect();
        Summary {
            n: samples.len(),
            p50: best_low(&windows.iter().map(|w| w.p50).collect::<Vec<_>>()),
            p99: best_low(&windows.iter().map(|w| w.p99).collect::<Vec<_>>()),
        }
    }
}

/// A mark in a timed phase: when it was taken, how many requests had
/// completed, and the daemon's CPU time so far.
#[derive(Debug, Clone, Copy)]
pub struct Cut {
    /// When the mark was taken.
    pub at: std::time::Instant,
    /// Requests completed before it.
    pub done: usize,
    /// Daemon CPU time, ns, summed over its threads.
    pub cpu_ns: u64,
}

/// The end-to-end figures of a timed phase cut into windows of wall
/// time, each read at the best tenth of its per-window values.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Figures {
    /// Latency percentiles, µs, with the count of every sample.
    pub latency: Summary,
    /// Estimates answered per second.
    pub rate: f64,
    /// Daemon CPU per estimate, µs.
    pub cpu_us: f64,
}

impl Figures {
    /// Figures from the `cuts` of a phase, each request's latency (µs)
    /// and the estimates it answered, both in completion order.
    pub fn from_windows(cuts: &[Cut], latencies: &[f64], weights: &[u64]) -> Figures {
        let (mut p50, mut p99, mut rate, mut cpu) = (vec![], vec![], vec![], vec![]);
        for pair in cuts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let estimates: u64 = weights[a.done..b.done].iter().sum();
            let seconds = b.at.duration_since(a.at).as_secs_f64();
            if estimates == 0 || seconds <= 0.0 {
                continue;
            }
            let window = Summary::of(&latencies[a.done..b.done]);
            p50.push(window.p50);
            p99.push(window.p99);
            rate.push(estimates as f64 / seconds);
            cpu.push(b.cpu_ns.saturating_sub(a.cpu_ns) as f64 / 1000.0 / estimates as f64);
        }
        Figures {
            latency: Summary {
                n: latencies.len(),
                p50: best_low(&p50),
                p99: best_low(&p99),
            },
            rate: best_high(&rate),
            cpu_us: best_low(&cpu),
        }
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of all samples at or below it. Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of any slice (nearest rank). Empty input gives 0.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// The q-error of one estimate, with both inputs clamped to at least 1
/// exactly as the daemon's own `q_error_milli` clamps them.
pub fn q_error(estimated: f64, actual: u64) -> f64 {
    let est = estimated.max(1.0);
    let act = (actual as f64).max(1.0);
    (est / act).max(act / est)
}

/// Geometric mean. Summation runs in input order, so equal inputs give a
/// bit-identical result.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Every unsigned integer value of `"key":<n>` in a flat JSON text, in
/// order of appearance (the `docs` array of `STATS json` repeats its keys
/// once per document).
pub fn json_u64_all(json: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let digits: &str = &rest[..rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len())];
        if let Ok(v) = digits.parse() {
            out.push(v);
        }
    }
    out
}

/// The first unsigned integer value of `"key":<n>`; 0 when absent.
pub fn json_u64(json: &str, key: &str) -> u64 {
    json_u64_all(json, key).first().copied().unwrap_or(0)
}

/// A thread's `/proc/<pid>/task/<tid>/schedstat` line: nanoseconds on
/// CPU, nanoseconds runnable but waiting for a CPU, and timeslices run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Time spent running.
    pub cpu_ns: u64,
    /// Time spent on a run queue waiting to run.
    pub wait_ns: u64,
    /// Number of timeslices run on a CPU.
    pub slices: u64,
}

impl SchedStat {
    /// Parses the three space-separated fields.
    pub fn parse(text: &str) -> Option<SchedStat> {
        let mut it = text.split_whitespace().map(str::parse::<u64>);
        Some(SchedStat {
            cpu_ns: it.next()?.ok()?,
            wait_ns: it.next()?.ok()?,
            slices: it.next()?.ok()?,
        })
    }

    /// Field-wise `self - earlier`, saturating at 0.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            slices: self.slices.saturating_sub(earlier.slices),
        }
    }

    /// Field-wise sum.
    pub fn plus(self, other: SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns + other.cpu_ns,
            wait_ns: self.wait_ns + other.wait_ns,
            slices: self.slices + other.slices,
        }
    }
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in kB.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_and_carry_their_count() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.p99, 198.0);
        assert_eq!(Summary::of(&[7.0]).p99, 7.0);
        assert_eq!(Summary::of(&[]), Summary::default());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn figures_are_read_at_the_best_tenth_of_their_windows() {
        // Twenty windows of 1,000 samples; five suffer a burst.
        let mut samples = vec![10.0; 20_000];
        samples[5_000..10_000].iter_mut().for_each(|s| *s = 500.0);
        samples[0] = 1.0;
        let w = Summary::windowed(&samples);
        assert_eq!((w.n, w.p50, w.p99), (20_000, 10.0, 10.0));
        assert_eq!(Summary::of(&samples).p99, 500.0);
        assert_eq!(Summary::windowed(&[3.0, 1.0, 2.0]).p50, 2.0);
        assert_eq!(best_low(&[5.0, 1.0, 4.0, 2.0, 3.0]), 1.0);
        assert_eq!(best_high(&[5.0, 1.0, 4.0, 2.0, 3.0]), 5.0);

        // Ten one-second windows of 100 requests; one is stretched to 4 s.
        // (The length of a window does not matter to the reduction.)
        let t0 = std::time::Instant::now();
        let cuts: Vec<Cut> = (0..=10u64)
            .map(|w| Cut {
                at: t0 + std::time::Duration::from_secs(w + (w > 3) as u64 * 3),
                done: 100 * w as usize,
                cpu_ns: 2_000_000 * w,
            })
            .collect();
        let f = Figures::from_windows(&cuts, &vec![7.0; 1000], &vec![2; 1000]);
        assert_eq!(f.latency.n, 1000);
        assert_eq!(f.latency.p50, 7.0);
        assert!((f.rate - 200.0).abs() < 1e-9, "{}", f.rate);
        assert!((f.cpu_us - 10.0).abs() < 1e-9, "{}", f.cpu_us);
    }

    #[test]
    fn q_error_clamps_like_the_daemon() {
        assert_eq!(q_error(0.0, 0), 1.0);
        assert_eq!(q_error(0.25, 4), 4.0);
        assert_eq!(q_error(10.0, 0), 10.0);
        assert_eq!(q_error(2.0, 8), 4.0);
        for (est, actual) in [(0.0, 0), (0.5, 3), (17.25, 4), (3.0, 3000)] {
            let milli = xseed_service::q_error_milli(est, actual);
            assert_eq!((q_error(est, actual) * 1000.0) as u64, milli);
        }
    }

    #[test]
    fn geometric_mean_of_powers() {
        assert!((geometric_mean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn stats_json_fields_parse_including_repeated_document_keys() {
        let json = "{\"workers\":2,\"steals\":17,\"plan_hits\":900,\"docs\":[\
                    {\"name\":\"a\",\"compiled_hits\":5,\"compiled_misses\":1},\
                    {\"name\":\"b\",\"compiled_hits\":7,\"compiled_misses\":0}]}";
        assert_eq!(json_u64(json, "steals"), 17);
        assert_eq!(json_u64(json, "plan_hits"), 900);
        assert_eq!(json_u64(json, "absent"), 0);
        assert_eq!(json_u64_all(json, "compiled_hits"), vec![5, 7]);
    }

    #[test]
    fn proc_files_parse() {
        let s = SchedStat::parse("3408463 1261853 5\n").unwrap();
        assert_eq!((s.cpu_ns, s.wait_ns, s.slices), (3408463, 1261853, 5));
        let earlier = SchedStat::parse("3000000 1000000 2").unwrap();
        assert_eq!(s.since(earlier).slices, 3);
        assert_eq!(earlier.since(s), SchedStat::default());
        assert!(SchedStat::parse("12 x 3").is_none());
        let status = "Name:\txseed-serve\nVmPeak:\t  9000 kB\nVmHWM:\t    1320 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(1320));
        assert_eq!(vm_hwm_kb("Name: x\n"), None);
    }
}
