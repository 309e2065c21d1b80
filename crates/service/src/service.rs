//! The estimation service: a worker pool over the catalog.
//!
//! A [`Service`] owns `N` worker threads. Each worker has its **own**
//! request queue (a mutex + condvar pair — sharded, so submitters and
//! workers touching different queues never contend), and requests are
//! spread round-robin across the queues. An idle worker first drains its
//! own queue, then **steals** from the back of its siblings' queues before
//! sleeping, so one hot queue cannot strand work while other workers idle.
//!
//! Requests are resolved on the submitting thread — catalog snapshot
//! lookup (an `Arc` clone) and plan-cache lookup (sharded LRU) are both
//! cheap — so a queued job is entirely self-contained: snapshot + plan +
//! reply channel. Workers therefore never touch the catalog and are
//! immune to concurrent `LOAD`s/updates: they estimate against whatever
//! epoch the request was resolved at. [`Service::submit`] /
//! [`Service::submit_pinned`] queue a single query and return without
//! waiting; they are the only way work reaches the pool.
//!
//! Every estimate, batched or single, replays the snapshot's frontier
//! memo, which the first estimate after an epoch bump builds and every
//! thread then shares; a batch runs through one matcher (see
//! [`crate::batch`]).
//!
//! Work whose caller waits for it ([`Service::estimate`],
//! [`Service::estimate_bound`], [`Service::estimate_batch`]) does **not**
//! queue: handing it to a worker would add a queue push, condvar
//! wake-ups and a reply channel while the caller sat idle, and splitting
//! a batch across two workers did not beat one thread reliably on two
//! cores.
//! It runs on the calling thread instead, under the same admission
//! budget and counters as a queued job.
//!
//! ## Backpressure and admission control
//!
//! Every queue is **bounded**: [`ServiceConfig::queue_capacity`] queries
//! per worker. Admission happens on the submitting thread *before*
//! anything is enqueued — a request's cost (1 for a single estimate, the
//! query count for a batch) is reserved against a queue's remaining
//! budget, falling back to sibling queues when the preferred one is full.
//! When no queue can take it, the request is **shed**: the submitter gets
//! [`ServiceError::Overloaded`] immediately (the daemon turns it into the
//! protocol's `OVERLOADED` reply), nothing is partially enqueued, and
//! in-flight work is untouched. Batches are admitted all-or-nothing: a
//! partially reserved batch releases its reservations and sheds whole, so
//! a client never receives a truncated result. The
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
//! dropping the service releases it) and pausable like a worker
//! ([`Service::pause_maintenance`]); callers that need the rebuild's
//! result synchronously wait on the returned [`RebuildTicket`]. Outcomes
//! are counted (`feedback_applied` / `feedback_ignored` /
//! `rebuilds_triggered` in [`ServiceStats`]).

use crate::batch::{execute_batch_observed, FeedbackItem};
use crate::catalog::{Catalog, CatalogFeedbackBatch, RebuildError, SnapshotError};
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
use xseed_core::SynopsisSnapshot;
use xseed_core::{BoundedEstimate, FeedbackOutcome, FeedbackReport, HetBuildStats};

/// How work run on the calling thread reserves budget: `n` queries are
/// spread over `min(workers, ceil(n / RESERVE_PIECE))` queues, all or
/// nothing — the split `BATCH` admission has always used, which the shed
/// tests and `OVERLOADED` transcripts pin. With a queue budget of at
/// least `RESERVE_PIECE` queries, every batch of up to
/// `workers × queue_capacity` queries fits an idle service.
const RESERVE_PIECE: usize = 8;

/// Fallback interval at which an idle worker re-checks its siblings'
/// queues for stealable work. Pushes notify the target queue *and* one
/// sibling (see [`Shared::push`]), so steal latency is normally condvar
/// wake-up time; this poll only backstops the case where every notified
/// worker was already busy, and is long enough that an idle daemon stays
/// essentially asleep.
const STEAL_POLL: Duration = Duration::from_millis(50);

/// Errors surfaced by [`Service`] calls.
#[derive(Debug)]
pub enum ServiceError {
    /// The named document is not registered in the catalog.
    UnknownDocument(String),
    /// The query text failed to parse.
    Parse(ParseError),
    /// The request was shed by admission control: no worker queue had
    /// room for its cost. Nothing was enqueued; retrying after a backoff
    /// is safe. `queued` is the total number of queries queued across all
    /// workers at shed time, `capacity` the total queue budget
    /// (`workers × queue_capacity`).
    Overloaded {
        /// Queries queued across all worker queues when the shed happened.
        queued: usize,
        /// Total queue budget the service will accept.
        capacity: usize,
    },
    /// The worker pool shut down before answering.
    Disconnected,
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
            ServiceError::Disconnected => write!(f, "service workers shut down"),
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
    /// Worker threads (and request-queue shards). Clamped to at least 1.
    pub workers: usize,
    /// Queue budget per worker, **in queries** (a batch of `n` queries
    /// costs `n`), clamped to at least 1. Requests beyond the budget are
    /// shed with [`ServiceError::Overloaded`] instead of growing queues
    /// without bound; a single batch larger than one queue's budget can
    /// never be admitted. See the module docs.
    pub queue_capacity: usize,
    /// Whether the observability layer (per-stage latency histograms,
    /// q-error tracking, the event trace ring — see [`crate::metrics`])
    /// is enabled. On by default; when off, no [`Obs`] registry is
    /// allocated and every would-be sample is a null-pointer check, so
    /// the disabled cost is ≈0 (pinned by the bench's `obs_off` rows).
    pub observability: bool,
}

impl ServiceConfig {
    /// A configuration with `workers` worker threads and defaults for the
    /// queue budget and observability.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers: workers.max(1),
            queue_capacity: 1024,
            observability: true,
        }
    }

    /// Sets the per-worker queue budget (builder style).
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

/// One self-contained unit of work: estimate `plan` against `snapshot`
/// and send the result to `reply`.
struct Job {
    snapshot: SynopsisSnapshot,
    plan: Arc<QueryPlan>,
    reply: mpsc::Sender<f64>,
}

/// A queued entry: an estimation job, or a fence pausing the worker that
/// reaches it (see [`Service::pause_worker`]).
enum Work {
    Estimate(Job),
    Fence {
        /// Signalled (by dropping) when the worker reaches the fence.
        reached: mpsc::Sender<()>,
        /// The worker blocks here until the pause guard drops its sender.
        release: mpsc::Receiver<()>,
    },
}

struct QueueShard {
    jobs: Mutex<VecDeque<Work>>,
    ready: Condvar,
    /// Queries reserved against this queue's budget (queued jobs plus
    /// admission reservations not yet pushed). Fences cost nothing.
    depth: AtomicUsize,
}

struct Shared {
    queues: Vec<QueueShard>,
    /// Per-queue admission budget, in queries.
    queue_capacity: usize,
    shutdown: AtomicBool,
    steals: AtomicU64,
    batches: AtomicU64,
    accepted: AtomicU64,
    shed: AtomicU64,
    peak_queued: AtomicUsize,
    executed: Vec<AtomicU64>,
    /// The observability registry; `None` when the layer is disabled.
    obs: Option<Arc<Obs>>,
    /// Whether the last admission decision was a shed — drives the
    /// `shed_on`/`shed_off` *transition* events in the trace ring (the
    /// ring records bursts, not every rejected request).
    shedding: AtomicBool,
}

impl Shared {
    /// Reserves `cost` queries of `queue`'s budget; `false` when it does
    /// not fit. Admission is the *only* path that grows a queue, so the
    /// bound holds regardless of worker/stealer interleavings.
    fn try_reserve(&self, queue: usize, cost: usize) -> bool {
        self.queues[queue]
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                (cost <= self.queue_capacity.saturating_sub(depth)).then_some(depth + cost)
            })
            .is_ok()
    }

    fn release(&self, queue: usize, cost: usize) {
        self.queues[queue].depth.fetch_sub(cost, Ordering::Relaxed);
    }

    fn release_all(&self, placements: &[(usize, usize)]) {
        for &(queue, cost) in placements {
            self.release(queue, cost);
        }
    }

    fn total_queued(&self) -> usize {
        self.queues
            .iter()
            .map(|q| q.depth.load(Ordering::Relaxed))
            .sum()
    }

    fn note_peak(&self) {
        self.peak_queued
            .fetch_max(self.total_queued(), Ordering::Relaxed);
    }

    /// Finds a queue with room for `cost`, preferring `preferred` and —
    /// unless `pinned` — falling back to siblings. Reserves the budget on
    /// success; the caller must then `push` (or `release` on abort).
    fn admit(&self, preferred: usize, cost: usize, pinned: bool) -> Option<usize> {
        let n = self.queues.len();
        let preferred = preferred % n;
        if self.try_reserve(preferred, cost) {
            return Some(preferred);
        }
        if !pinned {
            for offset in 1..n {
                let queue = (preferred + offset) % n;
                if self.try_reserve(queue, cost) {
                    return Some(queue);
                }
            }
        }
        None
    }

    fn push(&self, queue: usize, work: Work) {
        let shard = &self.queues[queue];
        shard
            .jobs
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .push_back(work);
        shard.ready.notify_one();
        // Also wake one sibling: if the owner is mid-job, the neighbour
        // steals immediately instead of waiting out its fallback poll.
        if self.queues.len() > 1 {
            self.queues[(queue + 1) % self.queues.len()]
                .ready
                .notify_one();
        }
    }

    fn pop_own(&self, worker: usize) -> Option<Work> {
        let work = self.queues[worker]
            .jobs
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .pop_front();
        if let Some(Work::Estimate(_)) = &work {
            self.release(worker, 1);
        }
        work
    }

    /// Steals from the back of a sibling queue (the opposite end from the
    /// owner, minimizing contention and keeping stolen work coarse).
    /// Fences are never stolen — they pause the queue's *owner* — so a
    /// victim whose back entry is a fence is skipped.
    fn steal(&self, thief: usize) -> Option<Work> {
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (thief + offset) % n;
            let mut jobs = self.queues[victim]
                .jobs
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            if matches!(jobs.back(), Some(Work::Estimate(_))) {
                let work = jobs.pop_back();
                drop(jobs);
                if let Some(Work::Estimate(_)) = &work {
                    self.release(victim, 1);
                }
                self.steals.fetch_add(1, Ordering::Relaxed);
                return work;
            }
        }
        None
    }

    /// Marks an admission-control shed, tracing the off→on transition.
    fn note_shed(&self) {
        if let Some(obs) = &self.obs {
            if !self.shedding.swap(true, Ordering::Relaxed) {
                obs.trace().record(TraceKind::ShedOn, "admission");
            }
        }
    }

    /// Marks a successful admission, tracing the on→off transition. The
    /// steady-state (non-shedding) cost is one relaxed load.
    fn note_admitted(&self) {
        if let Some(obs) = &self.obs {
            if self.shedding.load(Ordering::Relaxed) && self.shedding.swap(false, Ordering::Relaxed)
            {
                obs.trace().record(TraceKind::ShedOff, "admission");
            }
        }
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
    /// Parks the maintenance thread until released (mirrors the worker
    /// fence of [`Service::pause_worker`]).
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
                    match release.recv_timeout(STEAL_POLL) {
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
                .wait_timeout(guard, STEAL_POLL)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }
}

fn worker_loop(shared: Arc<Shared>, id: usize) {
    loop {
        match shared.pop_own(id).or_else(|| shared.steal(id)) {
            Some(Work::Estimate(job)) => {
                let plans = std::slice::from_ref(&job.plan);
                let result = execute_batch_observed(&job.snapshot, plans, &shared.obs)[0];
                shared.executed[id].fetch_add(1, Ordering::Relaxed);
                shared.batches.fetch_add(1, Ordering::Relaxed);
                // A dropped receiver just means the caller gave up waiting.
                let _ = job.reply.send(result);
                continue;
            }
            Some(Work::Fence { reached, release }) => {
                if let Some(obs) = &shared.obs {
                    obs.trace()
                        .record(TraceKind::Pause, &format!("worker-{id}"));
                }
                drop(reached);
                // Held until the pause guard drops its sender — but never
                // past shutdown, so dropping the Service while a guard is
                // alive cannot hang the join in [`Service::drop`].
                loop {
                    match release.recv_timeout(STEAL_POLL) {
                        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => break,
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            if shared.shutdown.load(Ordering::Acquire) {
                                break;
                            }
                        }
                    }
                }
                if let Some(obs) = &shared.obs {
                    obs.trace()
                        .record(TraceKind::Resume, &format!("worker-{id}"));
                }
                continue;
            }
            None => {}
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let shard = &shared.queues[id];
        let guard = shard
            .jobs
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        if guard.is_empty() && !shared.shutdown.load(Ordering::Acquire) {
            // Bounded wait: our own queue wakes us via the condvar, but
            // stealable work lands on sibling queues without notifying us.
            let _ = shard
                .ready
                .wait_timeout(guard, STEAL_POLL)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }
}

/// A handle to an estimate submitted with [`Service::submit`]; resolve it
/// with [`PendingEstimate::wait`].
pub struct PendingEstimate {
    rx: mpsc::Receiver<f64>,
}

impl PendingEstimate {
    /// Blocks until the worker pool answers.
    pub fn wait(self) -> Result<f64, ServiceError> {
        self.rx.recv().map_err(|_| ServiceError::Disconnected)
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
    /// Worker thread count.
    pub workers: usize,
    /// Per-worker queue budget, in queries.
    pub queue_capacity: usize,
    /// Estimates executed per queue slot (index = worker id). Queued work
    /// counts in the slot of the worker that ran it; work run on the
    /// calling thread ([`Service::estimate`], [`Service::estimate_bound`],
    /// [`Service::estimate_batch`]) counts in the slot of the first queue
    /// whose budget it reserved.
    pub executed: Vec<u64>,
    /// Jobs a worker took from a sibling's queue.
    pub steals: u64,
    /// Jobs executed in total: a single estimate, inline or queued, is a
    /// 1-query job, and a batch is one job.
    pub batches: u64,
    /// Queries admitted by admission control since startup.
    pub accepted: u64,
    /// Queries shed with [`ServiceError::Overloaded`] since startup.
    pub shed: u64,
    /// Queries currently queued (reserved budget) across all workers.
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

impl ServiceStats {
    /// Total estimates executed across all workers.
    pub fn total_executed(&self) -> u64 {
        self.executed.iter().sum()
    }
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

/// The multi-threaded estimation service. See the module docs.
pub struct Service {
    catalog: Arc<Catalog>,
    plans: Arc<PlanCache>,
    shared: Arc<Shared>,
    maintenance: Arc<MaintenanceShared>,
    persist: PersistCounters,
    net: NetCounters,
    handles: Vec<JoinHandle<()>>,
    maintenance_handle: Option<JoinHandle<()>>,
    next_queue: AtomicUsize,
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
    /// Starts a service with `config.workers` worker threads reading from
    /// `catalog`.
    pub fn new(catalog: Arc<Catalog>, config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        // Shard the histograms for the threads that record concurrently:
        // the workers plus the submitter-side stages (parse, plan lookup,
        // single estimates, feedback) and the maintenance thread.
        let obs = config
            .observability
            .then(|| Arc::new(Obs::new(workers + 2)));
        let shared = Arc::new(Shared {
            queues: (0..workers)
                .map(|_| QueueShard {
                    jobs: Mutex::new(VecDeque::new()),
                    ready: Condvar::new(),
                    depth: AtomicUsize::new(0),
                })
                .collect(),
            queue_capacity: config.queue_capacity.max(1),
            shutdown: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            peak_queued: AtomicUsize::new(0),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            obs: obs.clone(),
            shedding: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("xseed-worker-{id}"))
                    .spawn(move || worker_loop(shared, id))
                    .expect("spawn estimation worker")
            })
            .collect();
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
            plans: Arc::new(
                PlanCache::new(workers * PLAN_CACHE_SHARDS_PER_WORKER, PLAN_CACHE_CAPACITY)
                    .with_obs(obs.clone()),
            ),
            shared,
            maintenance,
            persist: PersistCounters::default(),
            net: NetCounters::default(),
            handles,
            maintenance_handle: Some(maintenance_handle),
            next_queue: AtomicUsize::new(0),
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

    /// Worker thread count.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    fn resolve(&self, doc: &str) -> Result<SynopsisSnapshot, ServiceError> {
        self.catalog
            .snapshot(doc)
            .ok_or_else(|| ServiceError::UnknownDocument(doc.to_string()))
    }

    /// Submits one query for estimation against `doc`'s current snapshot,
    /// round-robined onto a worker queue (falling back to siblings when
    /// the preferred queue is full). Returns immediately;
    /// [`ServiceError::Overloaded`] when every queue's budget is
    /// exhausted.
    pub fn submit(&self, doc: &str, query: &str) -> Result<PendingEstimate, ServiceError> {
        let queue = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.workers();
        self.submit_inner(queue, doc, query, false)
    }

    /// Like [`Service::submit`], but pinned to a specific worker queue —
    /// callers with document-affinity (or tests exercising the stealing
    /// path) can direct related requests at one shard. Pinned requests do
    /// not fall back: a full pinned queue sheds immediately.
    pub fn submit_pinned(
        &self,
        queue: usize,
        doc: &str,
        query: &str,
    ) -> Result<PendingEstimate, ServiceError> {
        self.submit_inner(queue, doc, query, true)
    }

    fn submit_inner(
        &self,
        queue: usize,
        doc: &str,
        query: &str,
        pinned: bool,
    ) -> Result<PendingEstimate, ServiceError> {
        let snapshot = self.resolve(doc)?;
        let plan = self.plans.get_or_parse(query)?;
        let Some(queue) = self.shared.admit(queue, 1, pinned) else {
            return Err(self.shed(1));
        };
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        self.shared.note_admitted();
        self.shared.note_peak();
        let (tx, rx) = mpsc::channel();
        self.shared.push(
            queue,
            Work::Estimate(Job {
                snapshot,
                plan,
                reply: tx,
            }),
        );
        Ok(PendingEstimate { rx })
    }

    /// Records a shed of `cost` queries and builds the overload error.
    fn shed(&self, cost: usize) -> ServiceError {
        self.shared.shed.fetch_add(cost as u64, Ordering::Relaxed);
        self.shared.note_shed();
        ServiceError::Overloaded {
            queued: self.shared.total_queued(),
            capacity: self.shared.queue_capacity * self.workers(),
        }
    }

    /// Pauses the worker that owns `queue`: a fence is enqueued (bypassing
    /// the queue budget) and the worker parks on it until the returned
    /// guard is dropped. Jobs queued behind the fence stay queued — on a
    /// multi-worker service siblings may steal them, so pausing *all*
    /// workers quiesces the pool for maintenance. Used by the overload
    /// tests to make shedding deterministic.
    ///
    /// Shutdown overrides the fence: dropping the [`Service`] while a
    /// guard is alive releases the parked worker (within the fence's
    /// poll interval) instead of hanging the join.
    pub fn pause_worker(&self, queue: usize) -> WorkerPause {
        let (reached_tx, reached_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        self.shared.push(
            queue % self.workers(),
            Work::Fence {
                reached: reached_tx,
                release: release_rx,
            },
        );
        WorkerPause {
            _release: release_tx,
            reached: reached_rx,
        }
    }

    /// Estimates one query **on the calling thread**: the caller blocks
    /// for the answer anyway, so the estimate skips the worker queues
    /// and runs exactly what a worker runs for a one-plan job. It is
    /// admission-controlled like queued work — it reserves one query of
    /// queue budget for its duration and sheds with
    /// [`ServiceError::Overloaded`] when the service is saturated — and
    /// counts in [`ServiceStats::executed`] and [`ServiceStats::batches`].
    /// Callers that want the worker pool to cap the CPU spent on
    /// estimation use [`Service::submit`] instead.
    pub fn estimate(&self, doc: &str, query: &str) -> Result<f64, ServiceError> {
        let snapshot = self.resolve(doc)?;
        let plan = self.plans.get_or_parse(query)?;
        self.run_inline(&snapshot, &[plan], |snapshot, plans| {
            execute_batch_observed(snapshot, plans, &self.obs)[0]
        })
    }

    /// Estimates one query in **bound mode**: the point estimate paired
    /// with a guaranteed upper bound on the true cardinality (see
    /// [`xseed_core::StreamingMatcher::estimate_bound`]). Runs on the
    /// calling thread through the snapshot's compiled-query cache, with
    /// the same admission control and counters as [`Service::estimate`].
    /// A compiled-cache miss is timed into [`Stage::Compile`] and left out
    /// of [`Stage::Estimate`], as for point estimates.
    pub fn estimate_bound(&self, doc: &str, query: &str) -> Result<BoundedEstimate, ServiceError> {
        let snapshot = self.resolve(doc)?;
        let plan = self.plans.get_or_parse(query)?;
        self.run_inline(&snapshot, &[plan], |snapshot, plans| {
            let mut matcher = snapshot.matcher();
            let started = Instant::now();
            let (bounded, compiled) = matcher.estimate_plan_bound_timed(&plans[0]);
            if let Some(obs) = &self.obs {
                let compile_time = compiled.unwrap_or_default();
                if compiled.is_some() {
                    obs.record(Stage::Compile, compile_time);
                }
                obs.record(
                    Stage::Estimate,
                    started.elapsed().saturating_sub(compile_time),
                );
            }
            bounded
        })
    }

    /// Runs `plans` as one job on the calling thread: reserves their cost
    /// (see `RESERVE_PIECE`), runs `estimate`, then counts the queries in
    /// the first reserved queue's `executed` slot, one job in `batches`,
    /// and for more than one query one [`Stage::BatchChunk`] sample, and
    /// releases the reservation.
    fn run_inline<T>(
        &self,
        snapshot: &SynopsisSnapshot,
        plans: &[Arc<QueryPlan>],
        estimate: impl FnOnce(&SynopsisSnapshot, &[Arc<QueryPlan>]) -> T,
    ) -> Result<T, ServiceError> {
        let n = plans.len();
        let placements = self.reserve(n, self.workers().min(n.div_ceil(RESERVE_PIECE)))?;
        let chunk_timer = self
            .obs
            .as_ref()
            .filter(|_| n > 1)
            .map(|obs| (obs, Instant::now()));
        let result = estimate(snapshot, plans);
        if let Some((obs, started)) = chunk_timer {
            obs.record(Stage::BatchChunk, started.elapsed());
        }
        if let Some(&(queue, _)) = placements.first() {
            self.shared.executed[queue].fetch_add(n as u64, Ordering::Relaxed);
        }
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        self.shared.release_all(&placements);
        Ok(result)
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

    /// Reserves `cost` queries of admission budget split into `pieces`
    /// near-equal parts on consecutive round-robin queues (each falling
    /// back to siblings), all or nothing: when a part fits nowhere, every
    /// part already reserved is released and the whole cost sheds with
    /// [`ServiceError::Overloaded`]. The same backpressure guards queued
    /// work and work run on the calling thread (estimates, feedback), so a
    /// flooding client sheds instead of consuming unbounded CPU. Returns
    /// the `(queue, cost)` parts; the caller releases them.
    fn reserve(&self, cost: usize, pieces: usize) -> Result<Vec<(usize, usize)>, ServiceError> {
        let piece = cost.div_ceil(pieces);
        let base = self.next_queue.fetch_add(pieces, Ordering::Relaxed);
        let mut placements = Vec::with_capacity(pieces);
        let mut left = cost;
        while left > 0 {
            let part = piece.min(left);
            let Some(queue) = self.shared.admit(base + placements.len(), part, false) else {
                self.shared.release_all(&placements);
                return Err(self.shed(cost));
            };
            placements.push((queue, part));
            left -= part;
        }
        self.shared
            .accepted
            .fetch_add(cost as u64, Ordering::Relaxed);
        self.shared.note_admitted();
        self.shared.note_peak();
        Ok(placements)
    }

    /// Feeds back the observed cardinality of an executed query — the
    /// paper's Figure 1 arrow from the optimizer back to the HET, through
    /// the serving layer. The query resolves through the plan cache, the
    /// prior estimate and classification run lock-free against the
    /// published snapshot, and the observation applies under the catalog
    /// entry's writer lock (epoch bump + fresh snapshot; unsupported
    /// shapes change nothing). The work runs on the calling thread but is
    /// **admission-controlled** like an estimate: it reserves one query of
    /// queue budget for its duration and sheds with
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
        let placements = self.reserve(1, 1)?;
        let started = Instant::now();
        let result = self
            .catalog
            .record_feedback(doc, plan.expr(), actual, base)
            .ok_or_else(|| ServiceError::UnknownDocument(doc.to_string()));
        if let Some(obs) = &self.obs {
            obs.record(Stage::FeedbackApply, started.elapsed());
        }
        self.shared.release_all(&placements);
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
        let placements = self.reserve(items.len(), 1)?;
        let started = Instant::now();
        let result = self
            .catalog
            .record_feedback_batch(doc, &items)
            .ok_or_else(|| ServiceError::UnknownDocument(doc.to_string()));
        if let Some(obs) = &self.obs {
            obs.record(Stage::FeedbackApply, started.elapsed());
        }
        self.shared.release_all(&placements);
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
    /// Rebuild jobs queued behind the fence stay queued; shutdown
    /// overrides the fence exactly like [`Service::pause_worker`].
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
    /// batch's cost is spread over `min(workers, ceil(n / 8))` queue
    /// budgets, and either every part fits and the batch runs whole, or
    /// nothing runs and the call sheds with [`ServiceError::Overloaded`].
    /// A batch larger than the total queue budget therefore always sheds
    /// — split it client side.
    pub fn estimate_batch(&self, doc: &str, queries: &[&str]) -> Result<Vec<f64>, ServiceError> {
        let snapshot = self.resolve(doc)?;
        let plans = self.plans.get_or_parse_batch(queries)?;
        if plans.is_empty() {
            return Ok(Vec::new());
        }
        self.run_inline(&snapshot, &plans, |snapshot, plans| {
            execute_batch_observed(snapshot, plans, &self.obs)
        })
    }

    /// Current service counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            workers: self.workers(),
            queue_capacity: self.shared.queue_capacity,
            executed: self
                .shared
                .executed
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            steals: self.shared.steals.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            queued: self.shared.total_queued(),
            peak_queued: self.shared.peak_queued.load(Ordering::Relaxed),
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

/// Guard returned by [`Service::pause_worker`]. The paused worker resumes
/// when the guard is dropped (or [`WorkerPause::resume`] is called).
pub struct WorkerPause {
    _release: mpsc::Sender<()>,
    reached: mpsc::Receiver<()>,
}

impl WorkerPause {
    /// Blocks until the worker has actually reached the fence (i.e. it is
    /// parked and will execute nothing queued behind it).
    pub fn wait_until_paused(&self) {
        // The worker *drops* its end on arrival; RecvError is the signal.
        let _ = self.reached.recv();
    }

    /// Resumes the worker (equivalent to dropping the guard).
    pub fn resume(self) {}
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.maintenance.shutdown.store(true, Ordering::Release);
        for shard in &self.shared.queues {
            shard.ready.notify_all();
        }
        self.maintenance.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
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
        assert_eq!(stats.total_executed(), 4);
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
        // Errors render.
        assert!(format!("{}", ServiceError::Disconnected).contains("shut down"));
    }

    #[test]
    fn pinned_submissions_are_stolen_by_idle_workers() {
        let service = fig2_service(4);
        // Pile everything onto worker 0's queue; with 4 workers the
        // siblings must steal at least some of it.
        let pending: Vec<PendingEstimate> = (0..64)
            .map(|_| service.submit_pinned(0, "fig2", "//s//p").unwrap())
            .collect();
        for p in pending {
            p.wait().unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.total_executed(), 64);
        assert!(
            stats.steals > 0 || stats.executed[0] == 64,
            "either siblings stole or worker 0 drained everything: {stats:?}"
        );
        // On a multi-queue pile-up the plan cache should have one miss.
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
    fn paused_worker_makes_sheds_deterministic() {
        let service = fig2_service_with(ServiceConfig::with_workers(1).with_queue_capacity(2));
        let pause = service.pause_worker(0);
        pause.wait_until_paused();

        let mut pending = Vec::new();
        let mut sheds = 0;
        for _ in 0..5 {
            match service.submit("fig2", "/a/c/s") {
                Ok(p) => pending.push(p),
                Err(ServiceError::Overloaded { queued, capacity }) => {
                    assert_eq!((queued, capacity), (2, 2));
                    sheds += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert_eq!((pending.len(), sheds), (2, 3));
        let stats = service.stats();
        assert_eq!((stats.accepted, stats.shed), (2, 3));
        assert_eq!((stats.queued, stats.peak_queued), (2, 2));

        pause.resume();
        for p in pending {
            assert!((p.wait().unwrap() - 5.0).abs() < 1e-9);
        }
        assert_eq!(service.stats().queued, 0);
    }

    #[test]
    fn dropping_the_service_releases_a_live_fence() {
        let service = fig2_service_with(ServiceConfig::with_workers(1));
        let pause = service.pause_worker(0);
        pause.wait_until_paused();
        // Shutdown must override the fence: this would hang forever if
        // the parked worker only listened to the guard.
        drop(service);
        drop(pause);
    }

    #[test]
    fn siblings_steal_past_a_fence() {
        let service = fig2_service_with(ServiceConfig::with_workers(2));
        let pause = service.pause_worker(0);
        pause.wait_until_paused();
        // Work pinned behind the fence is stolen by the idle sibling.
        let pending: Vec<PendingEstimate> = (0..8)
            .map(|_| service.submit_pinned(0, "fig2", "//p").unwrap())
            .collect();
        for p in pending {
            assert!((p.wait().unwrap() - 17.0).abs() < 1e-9);
        }
        let stats = service.stats();
        assert_eq!(stats.executed[0], 0, "paused worker must not execute");
        assert_eq!(stats.executed[1], 8);
        drop(pause);
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
        // Fill the whole queue budget with a fenced worker: feedback must
        // shed like an estimate would, and must not leak budget when it
        // runs.
        let service = fig2_service_with(ServiceConfig::with_workers(1).with_queue_capacity(2));
        let pause = service.pause_worker(0);
        pause.wait_until_paused();
        let _a = service.submit("fig2", "/a/c/s").unwrap();
        let _b = service.submit("fig2", "/a/c/s").unwrap();
        assert!(matches!(
            service.feedback("fig2", "/a/c/s", 5, None),
            Err(ServiceError::Overloaded { .. })
        ));
        assert!(matches!(
            service.feedback_batch("fig2", &[("/a/c/s", 5, None)]),
            Err(ServiceError::Overloaded { .. })
        ));
        // Single estimates run on the calling thread but take budget too.
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
        pause.resume();
        _a.wait().unwrap();
        _b.wait().unwrap();
        // Budget drained: feedback and single estimates admit and release
        // their reservations.
        let fb = service.feedback("fig2", "/a/c/s", 5, None).unwrap();
        assert_eq!(fb.report.outcome, xseed_core::FeedbackOutcome::SimplePath);
        assert!((service.estimate("fig2", "/a/c/s").unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(service.estimate_bound("fig2", "/a/c/s").unwrap().bound, 5.0);
        assert_eq!(service.stats().queued, 0, "inline work releases its budget");
    }

    #[test]
    fn single_estimates_never_wait_for_a_worker() {
        const QUERY: &str = "/a/c/s[t]/p";
        let unfenced = fig2_service(2);
        let expected = (
            unfenced.estimate("fig2", QUERY).unwrap(),
            unfenced.estimate_bound("fig2", QUERY).unwrap(),
        );

        let service = Arc::new(fig2_service(2));
        let pauses: Vec<WorkerPause> = (0..2).map(|q| service.pause_worker(q)).collect();
        for pause in &pauses {
            pause.wait_until_paused();
        }
        let before = service.stats();
        // A helper thread makes the calls, so a single estimate that did
        // wait on a fenced worker fails the timeout below instead of
        // hanging the test.
        let (tx, rx) = mpsc::channel();
        let helper = {
            let service = service.clone();
            std::thread::spawn(move || {
                let point = service.estimate("fig2", QUERY).unwrap();
                let bounded = service.estimate_bound("fig2", QUERY).unwrap();
                let _ = tx.send((point, bounded));
            })
        };
        let (point, bounded) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("single estimates must not wait for a worker");
        helper.join().unwrap();
        assert_eq!(point.to_bits(), expected.0.to_bits());
        assert_eq!(bounded, expected.1);

        let after = service.stats();
        assert_eq!(after.accepted - before.accepted, 2);
        assert_eq!(after.total_executed() - before.total_executed(), 2);
        assert_eq!(after.batches - before.batches, 2);
        assert_eq!(after.queued, 0);
        drop(pauses);
    }

    #[test]
    fn batches_never_wait_for_a_worker() {
        // The whole default budget of two workers (2 × 1,024 queries).
        let queries: Vec<&str> = ["/a/c/s", "//s//p", "/a/c/s[t]/p", "//*"]
            .into_iter()
            .cycle()
            .take(2048)
            .collect();
        let expected = fig2_service(2).estimate_batch("fig2", &queries).unwrap();

        let service = Arc::new(fig2_service(2));
        let pauses: Vec<WorkerPause> = (0..2).map(|q| service.pause_worker(q)).collect();
        for pause in &pauses {
            pause.wait_until_paused();
        }
        let before = service.stats();
        let (tx, rx) = mpsc::channel();
        let helper = {
            let service = service.clone();
            let queries = queries.clone();
            std::thread::spawn(move || {
                let _ = tx.send(service.estimate_batch("fig2", &queries).unwrap());
            })
        };
        let batch = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a batch must not wait for a worker");
        helper.join().unwrap();
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&batch), bits(&expected));

        let after = service.stats();
        let n = queries.len() as u64;
        assert_eq!(after.accepted - before.accepted, n);
        assert_eq!(after.total_executed() - before.total_executed(), n);
        assert_eq!(after.batches - before.batches, 1);
        assert_eq!(after.steals, before.steals);
        assert_eq!(after.queued, 0);
        let obs = service.obs().expect("observability is on by default");
        assert_eq!(obs.latency(Stage::BatchChunk).count(), 1);
        drop(pauses);
    }

    #[test]
    fn batches_up_to_the_total_queue_budget_are_admitted() {
        // 4 workers × 300 queries: a batch spreads over every queue, so it
        // is admitted up to the whole budget even though no single queue
        // holds more than 300.
        let service = fig2_service_with(ServiceConfig::with_workers(4).with_queue_capacity(300));
        let batch = |n: usize| {
            let queries: Vec<&str> = ["/a/c/s", "//s//p"].into_iter().cycle().take(n).collect();
            service.estimate_batch("fig2", &queries)
        };
        assert_eq!(batch(1100).unwrap().len(), 1100);
        assert_eq!(batch(1200).unwrap().len(), 1200);
        assert!(matches!(
            batch(1201),
            Err(ServiceError::Overloaded {
                queued: 0,
                capacity: 1200
            })
        ));
        let stats = service.stats();
        assert_eq!(stats.accepted, 2300);
        assert_eq!(stats.shed, 1201);
        assert_eq!(stats.queued, 0);
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
}
