//! Hand-rolled observability metrics: lock-free log-bucketed latency
//! histograms, online q-error accuracy tracking, and the [`Obs`] registry
//! the service threads record into.
//!
//! The workspace has no registry access, so there is no metrics crate to
//! lean on; the histogram here is the classic HdrHistogram-lite shape
//! used by production servers:
//!
//! * **Power-of-two buckets.** A recorded value lands in the bucket
//!   indexed by its bit length (`64 − leading_zeros`), so bucket `i`
//!   covers `[2^(i−1), 2^i)` and 64 buckets span the whole `u64` range —
//!   nanosecond latencies from sub-microsecond parses to multi-second
//!   rebuilds fit one fixed array with ≤2× relative error.
//! * **Per-thread shards of relaxed atomics.** Each recording thread is
//!   assigned a shard on first use (a thread-local slot index), and a
//!   record is **one relaxed `fetch_add`** on that shard's bucket — no
//!   locks, no CAS loops, no false sharing between threads on different
//!   shards. The hot path of a timed stage is therefore one
//!   `Instant::now()` pair plus one atomic increment — and the batched
//!   per-query stages amortize even that: one pair times a whole batch
//!   and `n` samples of the batch mean land with a single `fetch_add`
//!   ([`Obs::record_amortized`]), so per-query cost is ~zero clock reads.
//! * **Merge at read time.** [`Histogram::snapshot`] sums the shards into
//!   a plain [`HistogramSnapshot`]; percentiles, counts, and the max are
//!   derived from the merged buckets. Readers are rare (a `STATS` or
//!   `METRICS` request), so the read path pays the O(shards × buckets)
//!   walk instead of the write path paying anything.
//!
//! Reported percentiles are the **upper edge of the bucket holding the
//! true quantile**: for a quantile landing in bucket `i` the report is
//! `2^i − 1`, which is ≥ the true value and < 2× it — "within one log
//! bucket", the contract the property tests pin.
//!
//! **Q-error** (`max(est/actual, actual/est)`, the grading metric of the
//! cardinality-estimation benchmark literature) reuses the same histogram
//! with values in **milli-q** (`q × 1000` as an integer, inputs clamped to
//! ≥ 1 so empty results don't divide by zero). Because bucket edges are
//! fixed integers, the reported q-error percentiles are a deterministic
//! function of the feedback stream — the session transcripts assert them
//! byte-for-byte.

use crate::trace::TraceRing;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Number of log2 buckets; covers the full `u64` value range.
pub const BUCKETS: usize = 64;

/// Capacity of the service's event trace ring (see [`TraceRing`]).
pub const TRACE_CAPACITY: usize = 256;

/// The instrumented pipeline stages, from wire to disk. Each owns one
/// latency histogram in [`Obs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `QueryPlan::parse` of a query text (plan-cache miss path).
    Parse,
    /// A whole plan-cache lookup (`get_or_parse`), hit or miss.
    PlanLookup,
    /// Compiling a plan into the snapshot's compiled-query cache
    /// (compiled-cache miss path).
    Compile,
    /// One query's estimate, batched or not, on the thread that called
    /// the [`crate::Service`].
    Estimate,
    /// One whole multi-query `BATCH`, run on the calling thread.
    BatchChunk,
    /// One `FEEDBACK` observation applied through the catalog.
    FeedbackApply,
    /// One automatic HET rebuild run by the maintenance thread.
    HetRebuild,
    /// One snapshot written to disk (`SAVE`).
    SnapshotSave,
    /// One snapshot restored from disk (`LOAD … file:` / warm start).
    SnapshotLoad,
}

impl Stage {
    /// Every stage, in wire order (the order `METRICS` emits).
    pub const ALL: [Stage; 9] = [
        Stage::Parse,
        Stage::PlanLookup,
        Stage::Compile,
        Stage::Estimate,
        Stage::BatchChunk,
        Stage::FeedbackApply,
        Stage::HetRebuild,
        Stage::SnapshotSave,
        Stage::SnapshotLoad,
    ];

    /// The stable wire label (the `stage="…"` value in `METRICS`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::PlanLookup => "plan_lookup",
            Stage::Compile => "compile",
            Stage::Estimate => "estimate",
            Stage::BatchChunk => "batch_chunk",
            Stage::FeedbackApply => "feedback_apply",
            Stage::HetRebuild => "het_rebuild",
            Stage::SnapshotSave => "snapshot_save",
            Stage::SnapshotLoad => "snapshot_load",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::PlanLookup => 1,
            Stage::Compile => 2,
            Stage::Estimate => 3,
            Stage::BatchChunk => 4,
            Stage::FeedbackApply => 5,
            Stage::HetRebuild => 6,
            Stage::SnapshotSave => 7,
            Stage::SnapshotLoad => 8,
        }
    }
}

/// One shard of buckets. Shards are written by distinct threads, so the
/// per-bucket atomics are uncontended in the steady state.
struct HistShard {
    buckets: [AtomicU64; BUCKETS],
}

impl HistShard {
    fn new() -> Self {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Process-wide counter handing each recording thread a distinct slot;
/// a histogram maps the slot onto its shards by modulo.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn thread_slot() -> usize {
    THREAD_SLOT.with(|slot| {
        let v = slot.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
        slot.set(v);
        v
    })
}

/// The bucket index of a value: its bit length, so bucket 0 holds exactly
/// 0 and bucket `i ≥ 1` holds `[2^(i−1), 2^i)`; everything ≥ `2^63`
/// clamps into the top bucket.
fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The largest value bucket `i` can hold (`2^i − 1`; `u64::MAX` for the
/// top bucket, which also absorbs everything ≥ `2^63`).
fn bucket_upper(index: usize) -> u64 {
    if index >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A lock-free log-bucketed histogram. See the module docs.
pub struct Histogram {
    shards: Box<[HistShard]>,
}

impl Histogram {
    /// Creates a histogram with `shards` write shards (clamped to ≥ 1).
    /// Size it to the number of threads expected to record concurrently;
    /// extra threads share shards correctly, just with more contention.
    pub fn new(shards: usize) -> Self {
        Histogram {
            shards: (0..shards.max(1)).map(|_| HistShard::new()).collect(),
        }
    }

    /// Records one value: a single relaxed `fetch_add` on the calling
    /// thread's shard.
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical values with one `fetch_add` — the amortized
    /// form batch stages use (one timing pair for a whole batch, `n`
    /// samples of the mean).
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let shard = &self.shards[thread_slot() % self.shards.len()];
        shard.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating past ~584 years).
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Merges every shard into one point-in-time snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for shard in self.shards.iter() {
            for (bucket, count) in merged.buckets.iter_mut().zip(shard.buckets.iter()) {
                *bucket += count.load(Ordering::Relaxed);
            }
        }
        merged
    }
}

/// A merged, read-side view of a [`Histogram`] — also usable standalone
/// as a plain (non-atomic) histogram for state already behind a lock
/// (the catalog's per-document q-error tracking).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Records one value into the snapshot (single-threaded form).
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
    }

    /// Adds every count of `other` into `self`. Merging is commutative
    /// and associative and preserves totals exactly (pinned by the
    /// property tests).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (into, from) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *into += from;
        }
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The quantile `q` (in `(0, 1]`): the upper edge of the bucket
    /// holding the true quantile, i.e. ≥ the true value and < 2× it.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Upper bound of the largest recorded value (upper edge of the
    /// highest non-empty bucket); 0 for an empty histogram.
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(bucket_upper)
            .unwrap_or(0)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&c| c == 0)
    }
}

/// The q-error of a served estimate against its observed cardinality, in
/// **milli-q** (`max(est/actual, actual/est) × 1000`, inputs clamped to
/// ≥ 1). A perfect estimate is 1000; integer milli-q keeps the histogram
/// deterministic on the wire.
pub fn q_error_milli(estimated: f64, actual: u64) -> u64 {
    let est = estimated.max(1.0);
    let act = (actual as f64).max(1.0);
    let q = (est / act).max(act / est);
    (q * 1000.0).min(u64::MAX as f64) as u64
}

/// Formats a milli-q value as its decimal q-error (`1023` → `"1.023"`);
/// pure integer arithmetic so the wire form is deterministic.
pub fn format_milli_q(milli: u64) -> String {
    format!("{}.{:03}", milli / 1000, milli % 1000)
}

/// The service's observability registry: per-stage latency histograms,
/// the global q-error histogram, the event trace ring, and the start
/// instant they are all measured against. Created once per [`Service`]
/// when [`ServiceConfig::observability`] is on and shared by every
/// thread; absent entirely (an `Option`) when off, so the disabled cost
/// is one pointer null check per would-be sample.
///
/// [`Service`]: crate::Service
/// [`ServiceConfig::observability`]: crate::ServiceConfig
pub struct Obs {
    start: Instant,
    latency: [Histogram; Stage::ALL.len()],
    q_error: Histogram,
    trace: TraceRing,
}

impl Obs {
    /// Creates a registry whose histograms carry `shards` write shards
    /// each (size to the number of threads expected to record at once:
    /// the service's callers plus its maintenance thread).
    pub fn new(shards: usize) -> Self {
        let start = Instant::now();
        Obs {
            start,
            latency: std::array::from_fn(|_| Histogram::new(shards)),
            q_error: Histogram::new(shards),
            trace: TraceRing::new(TRACE_CAPACITY, start),
        }
    }

    /// Records one stage timing.
    pub fn record(&self, stage: Stage, elapsed: Duration) {
        self.latency[stage.index()].record_duration(elapsed);
    }

    /// Records `n` samples of `total / n` — the amortized form for
    /// per-query stages on batched paths: one `Instant` pair covers the
    /// whole batch, so observability costs no clock reads per query, at
    /// the price of flattening within-batch tails to the batch mean
    /// (batch-to-batch variation still lands in distinct buckets).
    pub fn record_amortized(&self, stage: Stage, total: Duration, n: u64) {
        if n == 0 {
            return;
        }
        let mean = (total.as_nanos() / n as u128).min(u64::MAX as u128) as u64;
        self.latency[stage.index()].record_n(mean, n);
    }

    /// Folds one served-accuracy observation (an applied `FEEDBACK`) into
    /// the global q-error histogram.
    pub fn record_q_error(&self, estimated: f64, actual: u64) {
        self.q_error.record(q_error_milli(estimated, actual));
    }

    /// Merged view of one stage's latency histogram.
    pub fn latency(&self, stage: Stage) -> HistogramSnapshot {
        self.latency[stage.index()].snapshot()
    }

    /// Merged view of the global q-error histogram (milli-q values).
    pub fn q_error(&self) -> HistogramSnapshot {
        self.q_error.snapshot()
    }

    /// The event trace ring.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Time since the registry (≈ the service) started.
    pub fn uptime(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_index_and_upper_bracket_every_value() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_index(1u64 << 62), 63);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn top_bucket_absorbs_the_high_range() {
        let mut snap = HistogramSnapshot::default();
        snap.record(u64::MAX);
        snap.record(1u64 << 63);
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.max(), u64::MAX);
        assert_eq!(snap.percentile(0.5), u64::MAX);
    }

    #[test]
    fn percentiles_of_a_known_distribution() {
        let mut snap = HistogramSnapshot::default();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            snap.record(v);
        }
        assert_eq!(snap.count(), 10);
        assert_eq!(snap.percentile(0.5), 1);
        assert_eq!(snap.percentile(0.9), 1);
        // The p99 rank (ceil(9.9) = 10) is the 1000 sample: bucket 10,
        // upper edge 1023.
        assert_eq!(snap.percentile(0.99), 1023);
        assert_eq!(snap.max(), 1023);
        assert!(!snap.is_empty());
        assert_eq!(HistogramSnapshot::default().percentile(0.5), 0);
        assert_eq!(HistogramSnapshot::default().max(), 0);
    }

    #[test]
    fn q_error_is_symmetric_clamped_and_formats() {
        assert_eq!(q_error_milli(10.0, 10), 1000);
        assert_eq!(q_error_milli(5.0, 10), 2000);
        assert_eq!(q_error_milli(10.0, 5), 2000);
        // Zero-cardinality observations clamp instead of dividing by zero.
        assert_eq!(q_error_milli(0.0, 0), 1000);
        assert_eq!(q_error_milli(0.0, 7), 7000);
        assert_eq!(format_milli_q(1000), "1.000");
        assert_eq!(format_milli_q(1023), "1.023");
        assert_eq!(format_milli_q(12345), "12.345");
        assert_eq!(format_milli_q(0), "0.000");
    }

    #[test]
    fn concurrent_records_lose_no_samples() {
        // 8 threads × 10_000 records against an intentionally undersized
        // shard array (forcing shard sharing): the merged count must be
        // exact — relaxed atomics may reorder, but fetch_add never drops.
        let hist = std::sync::Arc::new(Histogram::new(4));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let hist = hist.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        hist.record(t * 31 + i % 4096);
                    }
                })
            })
            .collect();
        for handle in threads {
            handle.join().unwrap();
        }
        assert_eq!(hist.snapshot().count(), 80_000);
    }

    #[test]
    fn obs_records_stages_independently() {
        let obs = Obs::new(2);
        obs.record(Stage::Parse, Duration::from_nanos(500));
        obs.record(Stage::Parse, Duration::from_nanos(700));
        obs.record(Stage::HetRebuild, Duration::from_millis(3));
        assert_eq!(obs.latency(Stage::Parse).count(), 2);
        assert_eq!(obs.latency(Stage::HetRebuild).count(), 1);
        assert_eq!(obs.latency(Stage::Estimate).count(), 0);
        obs.record_q_error(7.0, 20);
        assert_eq!(obs.q_error().count(), 1);
        // Every stage has a distinct index and wire name.
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Shard merges commute and totals are exact: recording a value
        /// set through any split into two histograms and merging (in
        /// either order) equals recording it all into one.
        #[test]
        fn merge_is_associative_and_exact(
            left in prop::collection::vec(0u64..1_000_000_000, 0..80),
            right in prop::collection::vec(0u64..1_000_000_000, 0..80),
        ) {
            let mut a = HistogramSnapshot::default();
            for &v in &left { a.record(v); }
            let mut b = HistogramSnapshot::default();
            for &v in &right { b.record(v); }

            let mut whole = HistogramSnapshot::default();
            for &v in left.iter().chain(right.iter()) { whole.record(v); }

            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            prop_assert_eq!(&ab, &whole);
            prop_assert_eq!(ab.count(), (left.len() + right.len()) as u64);
        }

        /// Reported percentiles are within one log bucket of the true
        /// quantile: `true ≤ reported ≤ 2 × true` (with the zero case
        /// exact).
        #[test]
        fn percentiles_stay_within_one_bucket(
            samples in prop::collection::vec(0u64..1_000_000_000, 1..120),
        ) {
            let mut snap = HistogramSnapshot::default();
            for &v in &samples { snap.record(v); }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.9, 0.99] {
                let rank = ((q * sorted.len() as f64).ceil() as usize)
                    .clamp(1, sorted.len());
                let truth = sorted[rank - 1];
                let reported = snap.percentile(q);
                prop_assert!(reported >= truth,
                    "p{q}: reported {reported} below true {truth}");
                prop_assert!(reported <= truth.saturating_mul(2),
                    "p{q}: reported {reported} beyond one bucket of {truth}");
            }
            let true_max = *sorted.last().unwrap();
            prop_assert!(snap.max() >= true_max);
            prop_assert!(snap.max() <= true_max.saturating_mul(2));
        }
    }
}
