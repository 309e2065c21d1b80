//! The estimation service: admission control and feedback over the
//! catalog.
//!
//! A [`Service`] estimates **on the calling thread**. XSEED estimates cost
//! microseconds, so handing one to another thread would add a queue push,
//! a wake-up and a reply channel while the caller sat idle; every
//! [`Service::estimate`], [`Service::estimate_bound`] and
//! [`Service::estimate_batch`] therefore resolves its snapshot (an `Arc`
//! clone) and plan (sharded LRU lookup) and runs right where it was
//! called. The only thread the service owns is the maintenance thread.
//!
//! All three run through one private executor: one
//! [`xseed_core::StreamingMatcher`] from [`SynopsisSnapshot::matcher`]
//! per request, so a batch keeps the matcher's scratch buffers warm, and
//! each plan goes through the snapshot's compiled-query cache, so a
//! plan-cache hit pays neither the parse nor the compile. A plan's first
//! estimate on a snapshot replays the snapshot's frontier memo, which the
//! first estimate after an epoch bump builds and every thread then
//! shares; its repeats read the answer that replay stored in the
//! compiled query.
//!
//! ## Backpressure and admission control
//!
//! The service admits at most `workers × queue_capacity` queries at once
//! (see [`ServiceConfig`]). Admission is one counter of reserved queries:
//! a request's cost (1 for a single estimate or feedback, the query count
//! for a batch) is reserved before anything runs and released when the
//! request finishes. When the free budget cannot cover the cost, the
//! request is **shed**: the caller gets [`ServiceError::Overloaded`]
//! immediately (the daemon turns it into the protocol's `OVERLOADED`
//! reply) and nothing runs. Batches are admitted all-or-nothing, so a
//! client never receives a truncated result. [`Service::reserve`] takes
//! the same budget for as long as its [`Reservation`] lives. The
//! accepted/shed/queued/peak-queued counters are surfaced through
//! [`Service::stats`] (and the `STATS` protocol verb) so operators can
//! see pressure before it becomes failure.
//!
//! ## Feedback and self-maintenance
//!
//! [`Service::feedback`] closes the paper's Figure 1 loop: an observed
//! cardinality is routed through the catalog's feedback path (HET entry
//! updated, epoch bumped, fresh snapshot published — in-flight readers
//! untouched), and when the document's [`crate::MaintenancePolicy`]
//! declares the accumulated error mass due, the service's **maintenance
//! thread** rebuilds the HET from the retained document in the
//! background. The thread is owned by the service (shutdown-safe:
//! dropping the service releases it) and pausable
//! ([`Service::pause_maintenance`]); callers that need the rebuild's
//! result synchronously wait on the returned [`RebuildTicket`]. Outcomes
//! are counted (`feedback_applied` / `feedback_ignored` /
//! `rebuilds_triggered` in [`ServiceStats`]).

use crate::catalog::{Catalog, CatalogFeedbackBatch, FeedbackItem, RebuildError, SnapshotError};
use crate::metrics::{Obs, Stage};
use crate::persist::WarmStart;
use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::trace::TraceKind;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xpathkit::{ParseError, QueryPlan};
use xseed_core::{
    BoundedEstimate, FeedbackOutcome, FeedbackReport, HetBuildStats, StreamingMatcher,
    SynopsisSnapshot,
};

/// Interval at which an idle or paused maintenance thread re-checks the
/// shutdown flag. Pushes notify the thread, so this only bounds how long
/// a shutdown racing a sleep goes unnoticed, and is long enough that an
/// idle daemon stays essentially asleep.
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// Errors surfaced by [`Service`] calls.
#[derive(Debug)]
pub enum ServiceError {
    /// The named document is not registered in the catalog.
    UnknownDocument(String),
    /// The query text failed to parse.
    Parse(ParseError),
    /// The request was shed by admission control: the free budget could
    /// not cover its cost. Nothing ran; retrying after a backoff is safe.
    /// `queued` is the number of queries reserved at shed time,
    /// `capacity` the whole budget (`workers × queue_capacity`).
    Overloaded {
        /// Queries reserved when the shed happened.
        queued: usize,
        /// Total budget the service will accept.
        capacity: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownDocument(name) => write!(f, "unknown document '{name}'"),
            ServiceError::Parse(err) => write!(f, "parse error: {err}"),
            ServiceError::Overloaded { queued, capacity } => write!(
                f,
                "overloaded: {queued} queries queued against a budget of {capacity}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ParseError> for ServiceError {
    fn from(err: ParseError) -> Self {
        ServiceError::Parse(err)
    }
}

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Expected concurrent callers, clamped to at least 1. Sizes the
    /// admission budget (`workers × queue_capacity` queries), the plan
    /// cache's shards and the latency histograms' shards; no thread is
    /// started per worker.
    pub workers: usize,
    /// Admission budget per worker, **in queries** (a batch of `n`
    /// queries costs `n`), clamped to at least 1. Requests the free
    /// budget cannot cover are shed with [`ServiceError::Overloaded`]
    /// instead of piling up without bound; a single batch larger than the
    /// whole budget can never be admitted. See the module docs.
    pub queue_capacity: usize,
    /// Whether the observability layer (per-stage latency histograms,
    /// q-error tracking, the event trace ring — see [`crate::metrics`])
    /// is enabled. On by default; when off, no [`Obs`] registry is
    /// allocated and every would-be sample is a null-pointer check, so
    /// the disabled cost is ≈0 (pinned by the bench's `obs_off` rows).
    pub observability: bool,
}

impl ServiceConfig {
    /// A configuration sized for `workers` concurrent callers, with
    /// defaults for the per-worker budget and observability.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers: workers.max(1),
            queue_capacity: 1024,
            observability: true,
        }
    }

    /// Sets the per-worker admission budget (builder style).
    pub fn with_queue_capacity(mut self, queries: usize) -> Self {
        self.queue_capacity = queries.max(1);
        self
    }

    /// Enables or disables the observability layer (builder style).
    pub fn with_observability(mut self, enabled: bool) -> Self {
        self.observability = enabled;
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServiceConfig::with_workers(workers)
    }
}

/// Admission state and the estimation counters of [`ServiceStats`].
struct Admission {
    /// Queries held by live [`Reservation`]s.
    reserved: AtomicUsize,
    /// The whole budget: `workers × queue_capacity` queries.
    capacity: usize,
    accepted: AtomicU64,
    shed: AtomicU64,
    peak_queued: AtomicUsize,
    executed: AtomicU64,
    batches: AtomicU64,
    /// Whether the last admission decision was a shed — drives the
    /// `shed_on`/`shed_off` *transition* events in the trace ring (the
    /// ring records bursts, not every rejected request).
    shedding: AtomicBool,
}

/// Budget held by [`Service::reserve`]; dropping it releases the budget.
#[must_use = "dropping a Reservation releases its budget at once"]
pub struct Reservation<'a> {
    reserved: &'a AtomicUsize,
    queries: usize,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.reserved.fetch_sub(self.queries, Ordering::Relaxed);
    }
}

/// One queued maintenance action.
enum MaintenanceWork {
    /// Rebuild `name`'s HET from its retained document.
    Rebuild {
        name: String,
        /// Receives the outcome; a dropped receiver means nobody waits.
        done: mpsc::Sender<Result<(HetBuildStats, u64), RebuildError>>,
    },
    /// Parks the maintenance thread until released (see
    /// [`Service::pause_maintenance`]).
    Fence {
        reached: mpsc::Sender<()>,
        release: mpsc::Receiver<()>,
    },
}

/// State shared between the maintenance thread and the service front end.
struct MaintenanceShared {
    jobs: Mutex<VecDeque<MaintenanceWork>>,
    ready: Condvar,
    shutdown: AtomicBool,
    /// Feedbacks whose outcome was simple/correlated (applied to a HET).
    feedback_applied: AtomicU64,
    /// Feedbacks whose shape the HET cannot store.
    feedback_ignored: AtomicU64,
    /// Automatic rebuilds completed by the maintenance thread.
    rebuilds_triggered: AtomicU64,
    /// The observability registry; `None` when the layer is disabled.
    obs: Option<Arc<Obs>>,
}

impl MaintenanceShared {
    fn push(&self, work: MaintenanceWork) {
        self.jobs
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .push_back(work);
        self.ready.notify_one();
    }

    fn note_outcome(&self, outcome: FeedbackOutcome) {
        match outcome {
            FeedbackOutcome::Unsupported => self.feedback_ignored.fetch_add(1, Ordering::Relaxed),
            _ => self.feedback_applied.fetch_add(1, Ordering::Relaxed),
        };
    }
}

fn maintenance_loop(catalog: Arc<Catalog>, shared: Arc<MaintenanceShared>) {
    loop {
        let work = shared
            .jobs
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .pop_front();
        match work {
            Some(MaintenanceWork::Rebuild { name, done }) => {
                // Shutdown drains queued rebuilds *without executing
                // them*: a multi-second build must not hold up
                // `Service::drop`, and waiters get an honest answer.
                let result = if shared.shutdown.load(Ordering::Acquire) {
                    Err(RebuildError::ShutDown)
                } else {
                    let started = Instant::now();
                    let result = catalog
                        .rebuild_het_retained_auto(&name)
                        .map(|(stats, snapshot)| (stats, snapshot.epoch()));
                    if let Some(obs) = &shared.obs {
                        obs.record(Stage::HetRebuild, started.elapsed());
                    }
                    result
                };
                if result.is_ok() {
                    shared.rebuilds_triggered.fetch_add(1, Ordering::Relaxed);
                    if let Some(obs) = &shared.obs {
                        obs.trace().record(TraceKind::Rebuild, &name);
                    }
                }
                // A dropped receiver just means nobody waited.
                let _ = done.send(result);
                continue;
            }
            Some(MaintenanceWork::Fence { reached, release }) => {
                if let Some(obs) = &shared.obs {
                    obs.trace().record(TraceKind::Pause, "maintenance");
                }
                drop(reached);
                // Held until the pause guard releases — but never past
                // shutdown, so dropping the service cannot hang the join.
                loop {
                    match release.recv_timeout(SHUTDOWN_POLL) {
                        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => break,
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            if shared.shutdown.load(Ordering::Acquire) {
                                break;
                            }
                        }
                    }
                }
                if let Some(obs) = &shared.obs {
                    obs.trace().record(TraceKind::Resume, "maintenance");
                }
                continue;
            }
            None => {}
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let guard = shared
            .jobs
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        if guard.is_empty() && !shared.shutdown.load(Ordering::Acquire) {
            // Bounded wait so a shutdown flag set between the check and
            // the sleep is still noticed promptly.
            let _ = shared
                .ready
                .wait_timeout(guard, SHUTDOWN_POLL)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }
}

/// A handle to an automatic rebuild the maintenance thread owes; resolve
/// it with [`RebuildTicket::wait`] for a synchronous view (the protocol
/// layer does, so `FEEDBACK` replies and subsequent `STATS` are
/// deterministic), or drop it to let the rebuild finish in the
/// background.
pub struct RebuildTicket {
    rx: mpsc::Receiver<Result<(HetBuildStats, u64), RebuildError>>,
}

impl RebuildTicket {
    /// Blocks until the maintenance thread finishes the rebuild,
    /// returning the build statistics and the epoch of the snapshot it
    /// published. `Err` carries why the rebuild could not run (the
    /// document was removed or its retention released in the meantime, or
    /// the service shut down first).
    pub fn wait(self) -> Result<(HetBuildStats, u64), RebuildError> {
        match self.rx.recv() {
            Ok(result) => result,
            // The maintenance thread dropped the sender without answering:
            // shutdown won the race. The entry (if any) is unchanged.
            Err(mpsc::RecvError) => Err(RebuildError::ShutDown),
        }
    }
}

/// Result of one [`Service::feedback`] call.
pub struct ServiceFeedback {
    /// What the synopsis recorded (outcome, prior estimate, error).
    pub report: FeedbackReport,
    /// Epoch published by the feedback itself (unchanged for unsupported
    /// shapes; a triggered rebuild publishes a later one — see `rebuild`).
    pub epoch: u64,
    /// Present when this feedback crossed the document's maintenance
    /// policy: the rebuild is already queued on the maintenance thread.
    pub rebuild: Option<RebuildTicket>,
}

/// Result of one [`Service::feedback_batch`] call.
pub struct ServiceFeedbackBatch {
    /// Per-item reports, in input order.
    pub reports: Vec<FeedbackReport>,
    /// Epoch of the single snapshot published after the whole batch.
    pub epoch: u64,
    /// Present when the batch crossed the document's maintenance policy.
    pub rebuild: Option<RebuildTicket>,
}

/// A point-in-time view of the service counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// [`ServiceConfig::workers`].
    pub workers: usize,
    /// Per-worker admission budget, in queries.
    pub queue_capacity: usize,
    /// Queries estimated since startup ([`Service::estimate`],
    /// [`Service::estimate_bound`], [`Service::estimate_batch`]).
    pub executed: u64,
    /// Estimation jobs run since startup: a single estimate is a 1-query
    /// job, and a batch is one job.
    pub batches: u64,
    /// Queries admitted by admission control since startup.
    pub accepted: u64,
    /// Queries shed with [`ServiceError::Overloaded`] since startup.
    pub shed: u64,
    /// Queries currently holding admission budget.
    pub queued: usize,
    /// High-water mark of [`ServiceStats::queued`] since startup.
    pub peak_queued: usize,
    /// Feedbacks applied to a HET (simple or correlated) via
    /// [`Service::feedback`] / [`Service::feedback_batch`].
    pub feedback_applied: u64,
    /// Feedbacks ignored (unsupported query shapes).
    pub feedback_ignored: u64,
    /// Automatic HET rebuilds completed by the maintenance thread.
    pub rebuilds_triggered: u64,
    /// Snapshots saved successfully ([`Service::save_snapshot`]).
    pub persist_saves: u64,
    /// Snapshots loaded successfully ([`Service::load_snapshot`] plus
    /// warm-start restores).
    pub persist_loads: u64,
    /// Snapshot loads that failed (protocol `LOAD … file:` plus corrupt
    /// warm-start files).
    pub persist_load_failures: u64,
    /// Snapshot files renamed to `.corrupt` by a warm-start scan.
    pub quarantined: u64,
    /// Requests shed by the TCP front end's per-client token-bucket rate
    /// limiter. `None` until a front end arms the limiter
    /// ([`Service::arm_rate_limiter`]) — `STATS`/`METRICS` omit the key
    /// entirely when the feature is off, `Some(0)` means armed but never
    /// tripped.
    pub rate_limited: Option<u64>,
    /// Plan-cache counters.
    pub plan_cache: PlanCacheStats,
    /// Whole seconds since the service started.
    pub uptime_secs: u64,
}

/// Lifetime snapshot-persistence counters (see [`ServiceStats`]).
#[derive(Default)]
struct PersistCounters {
    saves: AtomicU64,
    loads: AtomicU64,
    load_failures: AtomicU64,
    quarantined: AtomicU64,
}

/// Counters fed by the network front end ([`crate::server`]): the event
/// loop reports per-client rate-limit sheds here so the protocol layer
/// surfaces them through `STATS`/`METRICS` next to the admission-control
/// counters. `armed` gates reporting — a daemon without `--client-rate`
/// never shows the key, keeping default transcripts stable.
#[derive(Default)]
struct NetCounters {
    rate_limited: AtomicU64,
    armed: AtomicBool,
}

/// The estimation service. See the module docs.
pub struct Service {
    catalog: Arc<Catalog>,
    plans: PlanCache,
    workers: usize,
    queue_capacity: usize,
    admission: Admission,
    maintenance: Arc<MaintenanceShared>,
    persist: PersistCounters,
    net: NetCounters,
    maintenance_handle: Option<JoinHandle<()>>,
    /// Kept outside [`Obs`] so `uptime_secs` reports even with
    /// observability off.
    started: Instant,
    obs: Option<Arc<Obs>>,
}

/// Total plan-cache capacity, in plans, spread over the cache shards.
const PLAN_CACHE_CAPACITY: usize = 4096;

/// Plan-cache shards per worker, keeping shard contention negligible.
const PLAN_CACHE_SHARDS_PER_WORKER: usize = 4;

impl Service {
    /// Starts a service reading from `catalog`, with its maintenance
    /// thread.
    pub fn new(catalog: Arc<Catalog>, config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let queue_capacity = config.queue_capacity.max(1);
        // Shard the histograms for the threads that record concurrently:
        // the expected callers plus the maintenance thread and one spare.
        let obs = config
            .observability
            .then(|| Arc::new(Obs::new(workers + 2)));
        let maintenance = Arc::new(MaintenanceShared {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            feedback_applied: AtomicU64::new(0),
            feedback_ignored: AtomicU64::new(0),
            rebuilds_triggered: AtomicU64::new(0),
            obs: obs.clone(),
        });
        let maintenance_handle = {
            let catalog = catalog.clone();
            let maintenance = maintenance.clone();
            std::thread::Builder::new()
                .name("xseed-maintenance".to_string())
                .spawn(move || maintenance_loop(catalog, maintenance))
                .expect("spawn maintenance thread")
        };
        Service {
            catalog,
            plans: PlanCache::new(workers * PLAN_CACHE_SHARDS_PER_WORKER, PLAN_CACHE_CAPACITY)
                .with_obs(obs.clone()),
            workers,
            queue_capacity,
            admission: Admission {
                reserved: AtomicUsize::new(0),
                capacity: workers.saturating_mul(queue_capacity),
                accepted: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                peak_queued: AtomicUsize::new(0),
                executed: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                shedding: AtomicBool::new(false),
            },
            maintenance,
            persist: PersistCounters::default(),
            net: NetCounters::default(),
            maintenance_handle: Some(maintenance_handle),
            started: Instant::now(),
            obs,
        }
    }

    /// The observability registry, when [`ServiceConfig::observability`]
    /// is on. The protocol layer reads histograms and the trace ring
    /// through this (`METRICS`, `TRACE`, the q-error keys of `STATS`).
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// Marks the per-client rate limiter as configured. Called once by a
    /// network front end that was started with a client rate; from then
    /// on [`ServiceStats::rate_limited`] is `Some` and the `rate_limited`
    /// key appears in `STATS`/`METRICS` (as zero until a client trips
    /// it). Daemons without a limiter never show the key.
    pub fn arm_rate_limiter(&self) {
        self.net.armed.store(true, Ordering::Relaxed);
    }

    /// Counts one request shed by the per-client rate limiter (the
    /// `OVERLOADED rate=…` reply path of [`crate::server`]).
    pub fn note_rate_limited(&self) {
        self.net.rate_limited.fetch_add(1, Ordering::Relaxed);
    }

    /// Saves the named document's snapshot to `path` (see
    /// [`Catalog::save_snapshot`]); successful saves are counted in
    /// [`ServiceStats::persist_saves`]. Returns the snapshot size in
    /// bytes.
    pub fn save_snapshot(&self, name: &str, path: &std::path::Path) -> Result<u64, SnapshotError> {
        let started = Instant::now();
        let bytes = self.catalog.save_snapshot(name, path)?;
        self.persist.saves.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.record(Stage::SnapshotSave, started.elapsed());
            obs.trace().record(TraceKind::Save, name);
        }
        Ok(bytes)
    }

    /// Loads a snapshot file into the catalog under `name` (see
    /// [`Catalog::load_snapshot`]), counting the outcome in
    /// [`ServiceStats::persist_loads`] /
    /// [`ServiceStats::persist_load_failures`]. Returns the published
    /// snapshot and whether a spilled document was restored.
    pub fn load_snapshot(
        &self,
        name: &str,
        path: &std::path::Path,
        max_documents: Option<usize>,
    ) -> Result<(SynopsisSnapshot, bool), SnapshotError> {
        let started = Instant::now();
        match self.catalog.load_snapshot(name, path, max_documents) {
            Ok(loaded) => {
                self.persist.loads.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = &self.obs {
                    obs.record(Stage::SnapshotLoad, started.elapsed());
                    obs.trace().record(TraceKind::Load, name);
                }
                Ok(loaded)
            }
            Err(e) => {
                self.persist.load_failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Folds a boot-time [`crate::persist::warm_start`] result into the
    /// persistence counters: restored snapshots count as loads, and each
    /// quarantined file counts as both a load failure and a quarantine.
    pub fn note_warm_start(&self, warm: &WarmStart) {
        self.persist
            .loads
            .fetch_add(warm.loaded.len() as u64, Ordering::Relaxed);
        self.persist
            .load_failures
            .fetch_add(warm.quarantined.len() as u64, Ordering::Relaxed);
        self.persist
            .quarantined
            .fetch_add(warm.quarantined.len() as u64, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            for name in &warm.loaded {
                obs.trace().record(TraceKind::Load, name);
            }
            for file in &warm.quarantined {
                obs.trace().record(TraceKind::Quarantine, file);
            }
        }
    }

    /// The catalog this service estimates from.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The shared plan cache.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }
    /// [`ServiceConfig::workers`], clamped to at least 1.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn resolve(&self, doc: &str) -> Result<SynopsisSnapshot, ServiceError> {
        self.catalog
            .snapshot(doc)
            .ok_or_else(|| ServiceError::UnknownDocument(doc.to_string()))
    }

    /// Reserves `queries` of admission budget, all or nothing, for as
    /// long as the returned [`Reservation`] lives. When the free budget
    /// cannot cover them the call sheds with [`ServiceError::Overloaded`]
    /// and counts them in [`ServiceStats::shed`]; otherwise they count in
    /// [`ServiceStats::accepted`], and in [`ServiceStats::queued`] until
    /// the reservation drops. Every estimate and feedback reserves its
    /// cost here, so a flooding client sheds instead of consuming
    /// unbounded CPU; a caller holding a reservation leaves that much
    /// less budget to everyone else.
    pub fn reserve(&self, queries: usize) -> Result<Reservation<'_>, ServiceError> {
        let admission = &self.admission;
        let reserved =
            admission
                .reserved
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                    (queries <= admission.capacity.saturating_sub(held)).then_some(held + queries)
                });
        match reserved {
            Ok(held) => {
                admission
                    .accepted
                    .fetch_add(queries as u64, Ordering::Relaxed);
                admission
                    .peak_queued
                    .fetch_max(held + queries, Ordering::Relaxed);
                // Trace the end of a shed burst; outside one this costs a
                // relaxed load.
                if let Some(obs) = &self.obs {
                    if admission.shedding.load(Ordering::Relaxed)
                        && admission.shedding.swap(false, Ordering::Relaxed)
                    {
                        obs.trace().record(TraceKind::ShedOff, "admission");
                    }
                }
                Ok(Reservation {
                    reserved: &admission.reserved,
                    queries,
                })
            }
            Err(held) => {
                admission.shed.fetch_add(queries as u64, Ordering::Relaxed);
                if let Some(obs) = &self.obs {
                    if !admission.shedding.swap(true, Ordering::Relaxed) {
                        obs.trace().record(TraceKind::ShedOn, "admission");
                    }
                }
                Err(ServiceError::Overloaded {
                    queued: held,
                    capacity: admission.capacity,
                })
            }
        }
    }

    /// Estimates one query on the calling thread. It reserves one query
    /// of admission budget for its duration, sheds with
    /// [`ServiceError::Overloaded`] when the service is saturated, and
    /// counts in [`ServiceStats::executed`] and [`ServiceStats::batches`].
    pub fn estimate(&self, doc: &str, query: &str) -> Result<f64, ServiceError> {
        let snapshot = self.resolve(doc)?;
        let plan = self.plans.get_or_parse(query)?;
        let estimates = self.execute(&snapshot, &[plan], StreamingMatcher::estimate_plan_timed)?;
        Ok(estimates[0])
    }

    /// Estimates one query in **bound mode**: the point estimate paired
    /// with a guaranteed upper bound on the true cardinality (see
    /// [`xseed_core::StreamingMatcher::estimate_bound`]), with the same
    /// admission control and counters as [`Service::estimate`].
    pub fn estimate_bound(&self, doc: &str, query: &str) -> Result<BoundedEstimate, ServiceError> {
        let snapshot = self.resolve(doc)?;
        let plan = self.plans.get_or_parse(query)?;
        let bounded = self.execute(
            &snapshot,
            &[plan],
            StreamingMatcher::estimate_plan_bound_timed,
        )?;
        Ok(bounded[0])
    }

    /// Runs `plans` against `snapshot` as one job on the calling thread,
    /// through one matcher, with `estimate` answering each plan: reserves
    /// their cost, counts the queries in `executed` and one job in
    /// `batches`, and releases the reservation.
    ///
    /// With observability on, each compiled-cache miss is timed into
    /// [`Stage::Compile`] (`estimate` reports it, timed inside the
    /// cache's miss closure so the cache counters see one lookup per
    /// estimate). One `Instant` pair around the whole job records
    /// `plans.len()` [`Stage::Estimate`] samples of the per-query mean
    /// with the compile time subtracted, so the two stages partition the
    /// work and the per-query hot path reads no clock
    /// ([`Obs::record_amortized`]); a job of more than one query also
    /// records one [`Stage::BatchChunk`] sample. With observability off
    /// no clock is read outside compilation.
    fn execute<'s, T>(
        &self,
        snapshot: &'s SynopsisSnapshot,
        plans: &[Arc<QueryPlan>],
        estimate: impl Fn(&mut StreamingMatcher<'s>, &QueryPlan) -> (T, Option<Duration>),
    ) -> Result<Vec<T>, ServiceError> {
        let n = plans.len();
        let _reservation = self.reserve(n)?;
        let mut matcher = snapshot.matcher();
        let timer = self.obs.as_ref().map(|obs| (obs, Instant::now()));
        let mut compile_total = Duration::ZERO;
        let results = plans
            .iter()
            .map(|plan| {
                let (result, compile_time) = estimate(&mut matcher, plan);
                if let (Some((obs, _)), Some(compile_time)) = (timer, compile_time) {
                    obs.record(Stage::Compile, compile_time);
                    compile_total += compile_time;
                }
                result
            })
            .collect();
        if let Some((obs, started)) = timer {
            let elapsed = started.elapsed();
            obs.record_amortized(
                Stage::Estimate,
                elapsed.saturating_sub(compile_total),
                n as u64,
            );
            if n > 1 {
                obs.record(Stage::BatchChunk, elapsed);
            }
        }
        self.admission
            .executed
            .fetch_add(n as u64, Ordering::Relaxed);
        self.admission.batches.fetch_add(1, Ordering::Relaxed);
        Ok(results)
    }

    /// Folds one applied feedback observation into the global q-error
    /// histogram — the served-accuracy grading of `STATS`/`METRICS`.
    /// Unsupported shapes carry no usable prior estimate and are skipped.
    fn note_q_error(&self, report: &FeedbackReport, actual: u64) {
        if let Some(obs) = &self.obs {
            if report.outcome != FeedbackOutcome::Unsupported {
                obs.record_q_error(report.estimated, actual);
            }
        }
    }

    /// Enqueues an automatic rebuild of `doc` on the maintenance thread.
    fn enqueue_rebuild(&self, doc: &str) -> RebuildTicket {
        let (tx, rx) = mpsc::channel();
        self.maintenance.push(MaintenanceWork::Rebuild {
            name: doc.to_string(),
            done: tx,
        });
        RebuildTicket { rx }
    }

    /// Feeds back the observed cardinality of an executed query — the
    /// paper's Figure 1 arrow from the optimizer back to the HET, through
    /// the serving layer. The query resolves through the plan cache, the
    /// prior estimate and classification run lock-free against the
    /// published snapshot, and the observation applies under the catalog
    /// entry's writer lock (epoch bump + fresh snapshot; unsupported
    /// shapes change nothing). The work runs on the calling thread but is
    /// **admission-controlled** like an estimate: it reserves one query of
    /// budget for its duration and sheds with
    /// [`ServiceError::Overloaded`] when the service is saturated. When
    /// the document's maintenance policy declares the drift due, a
    /// rebuild is queued on the maintenance thread and the returned
    /// [`RebuildTicket`] resolves when it completes. `base` is the
    /// cardinality of the same path without predicates, when known (see
    /// [`xseed_core::het::feedback::record_feedback`]).
    pub fn feedback(
        &self,
        doc: &str,
        query: &str,
        actual: u64,
        base: Option<u64>,
    ) -> Result<ServiceFeedback, ServiceError> {
        let plan = self.plans.get_or_parse(query)?;
        let reservation = self.reserve(1)?;
        let started = Instant::now();
        let result = self
            .catalog
            .record_feedback(doc, plan.expr(), actual, base)
            .ok_or_else(|| ServiceError::UnknownDocument(doc.to_string()));
        if let Some(obs) = &self.obs {
            obs.record(Stage::FeedbackApply, started.elapsed());
        }
        drop(reservation);
        let fb = result?;
        self.maintenance.note_outcome(fb.report.outcome);
        self.note_q_error(&fb.report, actual);
        let rebuild = fb.rebuild_due.then(|| self.enqueue_rebuild(doc));
        Ok(ServiceFeedback {
            report: fb.report,
            epoch: fb.epoch,
            rebuild,
        })
    }

    /// Feeds back a whole batch of observations in one catalog update
    /// (one snapshot publication for the batch; see
    /// [`crate::Catalog::record_feedback_batch`]). The maintenance policy
    /// is evaluated once over the batch's accumulated error mass.
    /// Admission-controlled like an estimate batch: the whole batch
    /// reserves its query count and sheds all-or-nothing.
    pub fn feedback_batch(
        &self,
        doc: &str,
        items: &[(&str, u64, Option<u64>)],
    ) -> Result<ServiceFeedbackBatch, ServiceError> {
        let items = items
            .iter()
            .map(|&(query, actual, base)| {
                Ok(FeedbackItem {
                    query: self.plans.get_or_parse(query)?,
                    actual,
                    base,
                })
            })
            .collect::<Result<Vec<_>, ServiceError>>()?;
        let reservation = self.reserve(items.len())?;
        let started = Instant::now();
        let result = self
            .catalog
            .record_feedback_batch(doc, &items)
            .ok_or_else(|| ServiceError::UnknownDocument(doc.to_string()));
        if let Some(obs) = &self.obs {
            obs.record(Stage::FeedbackApply, started.elapsed());
        }
        drop(reservation);
        let batch: CatalogFeedbackBatch = result?;
        for (report, item) in batch.reports.iter().zip(&items) {
            self.maintenance.note_outcome(report.outcome);
            self.note_q_error(report, item.actual);
        }
        let rebuild = batch.rebuild_due.then(|| self.enqueue_rebuild(doc));
        Ok(ServiceFeedbackBatch {
            reports: batch.reports,
            epoch: batch.epoch,
            rebuild,
        })
    }

    /// Pauses the maintenance thread: a fence is enqueued and the thread
    /// parks on it until the returned guard drops, so tests can pile up
    /// feedback triggers and observe rebuilds draining deterministically.
    /// Rebuild jobs queued behind the fence stay queued. Shutdown
    /// overrides the fence: dropping the [`Service`] while a guard is
    /// alive releases the parked thread within its 50 ms shutdown poll
    /// instead of hanging the join.
    pub fn pause_maintenance(&self) -> WorkerPause {
        let (reached_tx, reached_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        self.maintenance.push(MaintenanceWork::Fence {
            reached: reached_tx,
            release: release_rx,
        });
        WorkerPause {
            _release: release_tx,
            reached: reached_rx,
        }
    }

    /// Estimates a batch of queries against one snapshot of `doc` as
    /// shared-memo snapshot passes, on the calling thread, which waits for
    /// the results anyway. Results come back in input order. The whole
    /// batch is resolved against a single epoch: a concurrent update to
    /// `doc` never mixes epochs within one batch. The batch counts as one
    /// job.
    ///
    /// Admission is all-or-nothing and happens before anything runs: the
    /// batch reserves its query count, and either the free budget covers
    /// it and the batch runs whole, or nothing runs and the call sheds
    /// with [`ServiceError::Overloaded`]. A batch larger than the whole
    /// budget therefore always sheds — split it client side.
    pub fn estimate_batch(&self, doc: &str, queries: &[&str]) -> Result<Vec<f64>, ServiceError> {
        let snapshot = self.resolve(doc)?;
        let plans = self.plans.get_or_parse_batch(queries)?;
        if plans.is_empty() {
            return Ok(Vec::new());
        }
        self.execute(&snapshot, &plans, StreamingMatcher::estimate_plan_timed)
    }

    /// Current service counters.
    pub fn stats(&self) -> ServiceStats {
        let admission = &self.admission;
        ServiceStats {
            workers: self.workers,
            queue_capacity: self.queue_capacity,
            executed: admission.executed.load(Ordering::Relaxed),
            batches: admission.batches.load(Ordering::Relaxed),
            accepted: admission.accepted.load(Ordering::Relaxed),
            shed: admission.shed.load(Ordering::Relaxed),
            queued: admission.reserved.load(Ordering::Relaxed),
            peak_queued: admission.peak_queued.load(Ordering::Relaxed),
            feedback_applied: self.maintenance.feedback_applied.load(Ordering::Relaxed),
            feedback_ignored: self.maintenance.feedback_ignored.load(Ordering::Relaxed),
            rebuilds_triggered: self.maintenance.rebuilds_triggered.load(Ordering::Relaxed),
            persist_saves: self.persist.saves.load(Ordering::Relaxed),
            persist_loads: self.persist.loads.load(Ordering::Relaxed),
            persist_load_failures: self.persist.load_failures.load(Ordering::Relaxed),
            quarantined: self.persist.quarantined.load(Ordering::Relaxed),
            rate_limited: self
                .net
                .armed
                .load(Ordering::Relaxed)
                .then(|| self.net.rate_limited.load(Ordering::Relaxed)),
            plan_cache: self.plans.stats(),
            uptime_secs: self.started.elapsed().as_secs(),
        }
    }
}

/// Guard returned by [`Service::pause_maintenance`]. The maintenance
/// thread resumes when the guard is dropped (or [`WorkerPause::resume`]
/// is called).
pub struct WorkerPause {
    _release: mpsc::Sender<()>,
    reached: mpsc::Receiver<()>,
}

impl WorkerPause {
    /// Blocks until the thread has actually reached the fence (i.e. it is
    /// parked and will run nothing queued behind it).
    pub fn wait_until_paused(&self) {
        // The thread *drops* its end on arrival; RecvError is the signal.
        let _ = self.reached.recv();
    }

    /// Resumes the thread (equivalent to dropping the guard).
    pub fn resume(self) {}
}

impl Drop for Service {
    fn drop(&mut self) {
        self.maintenance.shutdown.store(true, Ordering::Release);
        self.maintenance.ready.notify_all();
        if let Some(handle) = self.maintenance_handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xseed_core::{XseedConfig, XseedSynopsis};

    fn fig2_service(workers: usize) -> Service {
        fig2_service_with(ServiceConfig::with_workers(workers))
    }

    /// A catalog holding the Figure 4 document as `fig4`, retained under
    /// an error-mass maintenance bound.
    fn fig4_catalog(bound: f64) -> Arc<Catalog> {
        let catalog = Arc::new(Catalog::new());
        let doc = Arc::new(xmlkit::samples::figure4_document());
        catalog.insert_retained(
            "fig4",
            XseedSynopsis::build(&doc, XseedConfig::default()),
            doc,
            crate::catalog::MaintenancePolicy::ErrorMassBound(bound),
        );
        catalog
    }

    #[test]
    fn estimate_matches_direct_synopsis() {
        let service = fig2_service(2);
        let direct =
            XseedSynopsis::build_from_xml(xmlkit::samples::FIGURE2_XML, XseedConfig::default())
                .unwrap();
        for q in ["/a/c/s", "//s//p", "/a/c/s[t]/p", "//*"] {
            let got = service.estimate("fig2", q).unwrap();
            let expected = direct.estimate(&xpathkit::parse(q).unwrap());
            assert!((got - expected).abs() < 1e-9, "{q}");
        }
        let stats = service.stats();
        assert_eq!(stats.executed, 4);
        assert_eq!(stats.plan_cache.misses, 4);
    }

    #[test]
    fn batch_preserves_input_order() {
        let service = fig2_service(4);
        let queries: Vec<String> = ["/a/c/s", "//s//p", "/a/c/s[t]/p", "//*", "/a/*", "//p"]
            .iter()
            .cycle()
            .take(1541)
            .map(|q| q.to_string())
            .collect();
        let refs: Vec<&str> = queries.iter().map(|s| s.as_str()).collect();
        let before = service.stats().batches;
        let batch = service.estimate_batch("fig2", &refs).unwrap();
        assert_eq!(service.stats().batches - before, 1, "a batch is one job");
        assert_eq!(batch.len(), refs.len());
        for (q, got) in refs.iter().zip(&batch) {
            let single = service.estimate("fig2", q).unwrap();
            assert!((single - got).abs() < 1e-9, "{q}");
        }
        assert!(service.estimate_batch("fig2", &[]).unwrap().is_empty());
    }

    #[test]
    fn unknown_document_and_parse_errors() {
        let service = fig2_service(1);
        assert!(matches!(
            service.estimate("nope", "/a"),
            Err(ServiceError::UnknownDocument(_))
        ));
        assert!(matches!(
            service.estimate("fig2", "/["),
            Err(ServiceError::Parse(_))
        ));
    }

    #[test]
    fn repeated_queries_parse_once() {
        let service = fig2_service(4);
        for _ in 0..64 {
            service.estimate("fig2", "//s//p").unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.executed, 64);
        assert_eq!(stats.plan_cache.misses, 1);
        assert_eq!(stats.plan_cache.hits, 63);
    }

    #[test]
    fn estimate_bound_through_service() {
        let service = fig2_service(2);
        for q in ["/a/c/s", "//s//p", "/a/c/s[t]/p", "//*", "/a/zzz"] {
            let point = service.estimate("fig2", q).unwrap();
            let be = service.estimate_bound("fig2", q).unwrap();
            assert!((be.estimate - point).abs() < 1e-9, "{q}");
            assert!(be.bound >= be.estimate, "{q}");
        }
        // //* bounds exactly at the document size (per-label totals are
        // exact), the bound of an absent label is exactly zero, and
        // unknown documents still error.
        assert_eq!(service.estimate_bound("fig2", "//*").unwrap().bound, 36.0);
        assert_eq!(service.estimate_bound("fig2", "/a/zzz").unwrap().bound, 0.0);
        assert!(matches!(
            service.estimate_bound("nope", "/a"),
            Err(ServiceError::UnknownDocument(_))
        ));
    }

    fn fig2_service_with(config: ServiceConfig) -> Service {
        let catalog = Arc::new(Catalog::new());
        catalog.insert(
            "fig2",
            XseedSynopsis::build_from_xml(xmlkit::samples::FIGURE2_XML, XseedConfig::default())
                .unwrap(),
        );
        Service::new(catalog, config)
    }

    #[test]
    fn batch_exceeding_total_budget_sheds_whole() {
        let service = fig2_service_with(ServiceConfig::with_workers(2).with_queue_capacity(4));
        let queries: Vec<&str> = std::iter::repeat_n("/a/c/s", 20).collect();
        let err = service.estimate_batch("fig2", &queries).unwrap_err();
        assert!(
            matches!(err, ServiceError::Overloaded { capacity: 8, .. }),
            "{err}"
        );
        let stats = service.stats();
        assert_eq!(stats.shed, 20);
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.queued, 0, "shed batches must release reservations");
        // A batch that fits still runs.
        assert_eq!(
            service.estimate_batch("fig2", &queries[..4]).unwrap().len(),
            4
        );
        assert_eq!(service.stats().accepted, 4);
    }

    #[test]
    fn held_budget_makes_sheds_deterministic() {
        let service = fig2_service_with(ServiceConfig::with_workers(1).with_queue_capacity(2));
        let held = service.reserve(2).unwrap();
        for _ in 0..3 {
            assert!(matches!(
                service.estimate("fig2", "/a/c/s"),
                Err(ServiceError::Overloaded {
                    queued: 2,
                    capacity: 2
                })
            ));
        }
        let stats = service.stats();
        assert_eq!((stats.accepted, stats.shed), (2, 3));
        assert_eq!((stats.queued, stats.peak_queued), (2, 2));

        drop(held);
        assert_eq!(service.stats().queued, 0);
        assert!((service.estimate("fig2", "/a/c/s").unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn feedback_applies_and_triggers_auto_rebuild() {
        let catalog = fig4_catalog(1.0);
        let service = Service::new(catalog, ServiceConfig::with_workers(2));

        let before = service.estimate("fig4", "/a/b/d/e").unwrap();
        assert!((before - 20.0).abs() > 1e-6, "kernel estimate is inexact");

        let fb = service.feedback("fig4", "/a/b/d/e", 20, None).unwrap();
        assert_eq!(fb.report.outcome, xseed_core::FeedbackOutcome::SimplePath);
        assert!((fb.report.estimated - before).abs() < 1e-9);
        let ticket = fb.rebuild.expect("error mass crossed the bound");
        let (stats, epoch) = ticket.wait().expect("rebuild runs");
        assert!(stats.simple_entries > 0);
        assert!(epoch > fb.epoch);

        // Post-rebuild the fed-back query (and its correlated siblings)
        // answer exactly, and the counters saw everything.
        assert!((service.estimate("fig4", "/a/b/d/e").unwrap() - 20.0).abs() < 1e-9);
        let unsupported = service.feedback("fig4", "//e//f", 3, None).unwrap();
        assert_eq!(
            unsupported.report.outcome,
            xseed_core::FeedbackOutcome::Unsupported
        );
        assert!(unsupported.rebuild.is_none());
        let stats = service.stats();
        assert_eq!(stats.feedback_applied, 1);
        assert_eq!(stats.feedback_ignored, 1);
        assert_eq!(stats.rebuilds_triggered, 1);
        assert!(matches!(
            service.feedback("missing", "/a", 1, None),
            Err(ServiceError::UnknownDocument(_))
        ));
        assert!(matches!(
            service.feedback("fig4", "/[", 1, None),
            Err(ServiceError::Parse(_))
        ));
    }

    #[test]
    fn feedback_batch_counts_and_publishes_once() {
        let catalog = fig4_catalog(1.0);
        let service = Service::new(catalog.clone(), ServiceConfig::with_workers(1));
        let batch = service
            .feedback_batch(
                "fig4",
                &[
                    ("/a/b/d/e", 20, None),
                    ("/a/c/d/f", 10, None),
                    ("//e//f", 3, None),
                ],
            )
            .unwrap();
        assert_eq!(batch.reports.len(), 3);
        // The triggered rebuild may already have published a newer epoch
        // by the time we look, so "published once" is a lower bound here.
        assert!(catalog.snapshot("fig4").unwrap().epoch() >= batch.epoch);
        let (_, epoch) = batch
            .rebuild
            .expect("batch crossed the bound")
            .wait()
            .unwrap();
        assert!(epoch > batch.epoch);
        let stats = service.stats();
        assert_eq!(stats.feedback_applied, 2);
        assert_eq!(stats.feedback_ignored, 1);
        assert_eq!(stats.rebuilds_triggered, 1);
    }

    #[test]
    fn feedback_is_admission_controlled() {
        // Hold the whole budget: feedback must shed like an estimate
        // would, and must not leak budget when it runs.
        let service = fig2_service_with(ServiceConfig::with_workers(1).with_queue_capacity(2));
        let held = service.reserve(2).unwrap();
        assert!(matches!(
            service.feedback("fig2", "/a/c/s", 5, None),
            Err(ServiceError::Overloaded { .. })
        ));
        assert!(matches!(
            service.feedback_batch("fig2", &[("/a/c/s", 5, None)]),
            Err(ServiceError::Overloaded { .. })
        ));
        // Single estimates take budget too.
        assert!(matches!(
            service.estimate("fig2", "/a/c/s"),
            Err(ServiceError::Overloaded { .. })
        ));
        assert!(matches!(
            service.estimate_bound("fig2", "/a/c/s"),
            Err(ServiceError::Overloaded { .. })
        ));
        let shed_before = service.stats().shed;
        assert_eq!(shed_before, 4);
        drop(held);
        // Budget free: feedback and single estimates admit and release
        // their reservations.
        let fb = service.feedback("fig2", "/a/c/s", 5, None).unwrap();
        assert_eq!(fb.report.outcome, xseed_core::FeedbackOutcome::SimplePath);
        assert!((service.estimate("fig2", "/a/c/s").unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(service.estimate_bound("fig2", "/a/c/s").unwrap().bound, 5.0);
        assert_eq!(service.stats().queued, 0, "inline work releases its budget");
    }

    #[test]
    fn estimates_are_bit_exact_and_counted_once() {
        const QUERY: &str = "/a/c/s[t]/p";
        // The whole default budget of two workers (2 × 1,024 queries).
        let queries: Vec<&str> = ["/a/c/s", "//s//p", "/a/c/s[t]/p", "//*"]
            .into_iter()
            .cycle()
            .take(2048)
            .collect();
        let service = fig2_service(2);
        let snapshot = service.catalog().snapshot("fig2").unwrap();
        let mut matcher = snapshot.matcher();
        let parse = |q: &str| xpathkit::parse(q).unwrap();
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let expected: Vec<f64> = queries
            .iter()
            .map(|q| matcher.estimate(&parse(q)))
            .collect();

        let point = service.estimate("fig2", QUERY).unwrap();
        assert_eq!(point.to_bits(), matcher.estimate(&parse(QUERY)).to_bits());
        let bounded = service.estimate_bound("fig2", QUERY).unwrap();
        assert_eq!(bounded, matcher.estimate_bound(&parse(QUERY)));
        let batch = service.estimate_batch("fig2", &queries).unwrap();
        assert_eq!(bits(&batch), bits(&expected));

        let stats = service.stats();
        let n = 2 + queries.len() as u64;
        assert_eq!((stats.accepted, stats.executed), (n, n));
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.queued, 0);
        let obs = service.obs().expect("observability is on by default");
        assert_eq!(obs.latency(Stage::BatchChunk).count(), 1);
    }

    #[test]
    fn batches_up_to_the_total_queue_budget_are_admitted() {
        // The budget is one count of `workers × queue_capacity` queries,
        // so an idle service admits any batch up to the whole of it, also
        // one larger than a single worker's share (1,100 > 300, 5 > 4).
        for (workers, queue_capacity, fits, whole) in [(4, 300, 1100, 1200), (2, 4, 5, 8)] {
            let service = fig2_service_with(
                ServiceConfig::with_workers(workers).with_queue_capacity(queue_capacity),
            );
            let batch = |n: usize| {
                let queries: Vec<&str> = ["/a/c/s", "//s//p"].into_iter().cycle().take(n).collect();
                service.estimate_batch("fig2", &queries)
            };
            assert_eq!(batch(fits).unwrap().len(), fits);
            assert_eq!(batch(whole).unwrap().len(), whole);
            match batch(whole + 1) {
                Err(ServiceError::Overloaded { queued, capacity }) => {
                    assert_eq!((queued, capacity), (0, whole));
                }
                other => panic!("a batch past the budget must shed: {other:?}"),
            }
            let stats = service.stats();
            assert_eq!(stats.accepted, (fits + whole) as u64);
            assert_eq!(stats.shed, whole as u64 + 1);
            assert_eq!(stats.queued, 0);
        }
    }

    #[test]
    fn pause_maintenance_defers_rebuilds_until_released() {
        let catalog = fig4_catalog(0.5);
        let service = Service::new(catalog.clone(), ServiceConfig::with_workers(1));
        let pause = service.pause_maintenance();
        pause.wait_until_paused();

        let fb = service.feedback("fig4", "/a/b/d/e", 20, None).unwrap();
        let ticket = fb.rebuild.expect("bound crossed");
        // The rebuild is queued but cannot run while paused.
        assert_eq!(service.stats().rebuilds_triggered, 0);
        assert_eq!(catalog.info()[0].rebuilds, 0);
        pause.resume();
        let (_, epoch) = ticket.wait().expect("rebuild after release");
        assert!(epoch > fb.epoch);
        assert_eq!(service.stats().rebuilds_triggered, 1);
    }

    #[test]
    fn dropping_the_service_releases_a_paused_maintenance_thread() {
        let service = fig2_service(1);
        let pause = service.pause_maintenance();
        pause.wait_until_paused();
        drop(service);
        drop(pause);
    }

    #[test]
    fn rebuild_ticket_reports_missing_retention() {
        let catalog = fig4_catalog(0.5);
        let service = Service::new(catalog.clone(), ServiceConfig::with_workers(1));
        let pause = service.pause_maintenance();
        pause.wait_until_paused();
        let fb = service.feedback("fig4", "/a/b/d/e", 20, None).unwrap();
        let ticket = fb.rebuild.expect("bound crossed");
        // The document vanishes before the maintenance thread gets there.
        assert!(catalog.release_document("fig4"));
        pause.resume();
        assert_eq!(
            ticket.wait(),
            Err(crate::catalog::RebuildError::NotRetained)
        );
        assert_eq!(service.stats().rebuilds_triggered, 0);
    }

    #[test]
    fn estimates_span_epochs_consistently() {
        let service = fig2_service(2);
        let before = service.estimate("fig2", "/a/zzz").unwrap();
        assert_eq!(before, 0.0);
        let (grafted, _) = service
            .catalog()
            .update("fig2", |syn| {
                let root = syn.kernel().name(syn.kernel().root().unwrap()).to_string();
                let subtree = xmlkit::Document::parse_str("<zzz/>").unwrap();
                syn.kernel_mut().add_subtree(&[root.as_str()], &subtree)
            })
            .unwrap();
        grafted.unwrap();
        let after = service.estimate("fig2", "/a/zzz").unwrap();
        assert!((after - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_answer_outlives_its_snapshot() {
        // `/a/c/s/p` is no simple path the HET holds, so its estimates go
        // through the compiled cache and replay the memo (or read the
        // compiled query's answer cells) instead of taking the HET fast
        // path. A FEEDBACK of a wrong actual for `/a/c/s` (5 nodes, fed
        // back as 7) puts an entry into the HET that the replay reads at
        // `/a/c/s`; a re-LOAD under the same name then brings the plain
        // kernel back. Each publishes a snapshot with different answers,
        // while the service's plan cache keeps handing out the same plan.
        const QUERY: &str = "/a/c/s/p";
        let expr = xpathkit::parse(QUERY).unwrap();
        let service = fig2_service(1);
        let bits = |b: BoundedEstimate| (b.estimate.to_bits(), b.bound.to_bits());
        let served = |service: &Service| {
            let point = service.estimate("fig2", QUERY).unwrap();
            let bounded = service.estimate_bound("fig2", QUERY).unwrap();
            // The repeats read the answer cells the first calls filled.
            let repeat = service.estimate("fig2", QUERY).unwrap();
            assert_eq!(repeat.to_bits(), point.to_bits());
            let repeat = service.estimate_bound("fig2", QUERY).unwrap();
            assert_eq!(bits(repeat), bits(bounded));
            let snapshot = service.catalog().snapshot("fig2").unwrap();
            assert_eq!(point.to_bits(), snapshot.estimate(&expr).to_bits());
            let fresh = snapshot.matcher().estimate_bound(&expr);
            assert_eq!(bits(bounded), bits(fresh));
            let stats = snapshot.compiled_cache_stats();
            assert_eq!((stats.misses, stats.hits), (1, 3), "all four looked up");
            (point.to_bits(), bits(bounded))
        };

        let loaded = served(&service);
        let fb = service.feedback("fig2", "/a/c/s", 7, None).unwrap();
        assert_eq!(fb.report.outcome, xseed_core::FeedbackOutcome::SimplePath);
        let fed_back = served(&service);
        assert_ne!(fed_back.0, loaded.0, "the HET entry moves the estimate");

        service.catalog().insert(
            "fig2",
            XseedSynopsis::build_from_xml(xmlkit::samples::FIGURE2_XML, XseedConfig::default())
                .unwrap(),
        );
        let reloaded = served(&service);
        assert_ne!(reloaded.0, fed_back.0, "the re-LOAD drops the HET entry");
        assert_eq!(reloaded, loaded);
    }
}
