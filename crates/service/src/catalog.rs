//! The synopsis catalog: many named documents, epoch-versioned snapshots.
//!
//! A [`Catalog`] is the shared registry an estimation service reads from.
//! The name map itself is only ever held briefly (insert/lookup/remove of
//! `Arc`'d entries); each entry carries its own locks, so work on one
//! document never stalls another:
//!
//! * the **read path** ([`Catalog::snapshot`]) clones the entry's
//!   published [`SynopsisSnapshot`] under a brief per-entry read lock and
//!   then never synchronizes again — estimation itself is lock-free;
//! * the **write path** ([`Catalog::update`]) runs the mutation and the
//!   snapshot rebuild (including the kernel re-freeze) under that entry's
//!   mutex only, then swaps the published snapshot in one brief write.
//!   In-flight estimates holding the previous snapshot simply finish
//!   against the epoch they started with;
//! * **monitoring** ([`Catalog::info`]) reads only published state, so it
//!   never waits behind an update or a long HET rebuild.
//!
//! Registration takes an already built synopsis
//! (`XseedSynopsis::build` or `build_from_xml`): [`Catalog::insert`],
//! [`Catalog::insert_retained`] to keep the source document, or the
//! general [`Catalog::insert_full`], which adds a document cap and is
//! what `LOAD` and snapshot restore use.
//!
//! Epochs never regress for a name: re-registering a document under an
//! existing name ([`Catalog::insert`]) advances the new synopsis past the
//! replaced entry's epoch — and removed names remember their last epoch —
//! so `(name, epoch)` remains a valid staleness key across swaps,
//! including remove + re-insert.
//!
//! ## Self-maintenance
//!
//! Each entry optionally **retains its source document**
//! ([`Catalog::insert_retained`]), carries a [`MaintenancePolicy`], and
//! accumulates the absolute-error mass that query feedback
//! ([`Catalog::record_feedback`]) exposes. When the policy decides the
//! synopsis has drifted far enough *and* the document is retained, the
//! feedback result reports `rebuild_due` — the serving layer's
//! maintenance thread then calls [`Catalog::rebuild_het_retained`], which
//! rebuilds the HET from the retained document (no caller-supplied
//! document needed) with the entry's configured
//! [`xseed_core::CandidateStrategy`] and resets the drift accounting.

use crate::metrics::{q_error_milli, HistogramSnapshot};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};
use xmlkit::tree::Document;
use xpathkit::ast::PathExpr;
use xpathkit::QueryPlan;
use xseed_core::{
    BselThresholdStrategy, CandidateContext, CandidateStrategy, FeedbackOutcome, FeedbackReport,
    SynopsisSnapshot, XseedSynopsis,
};

/// When the catalog should consider a synopsis due for an automatic HET
/// rebuild. Tracked per document; evaluated after every applied feedback.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MaintenancePolicy {
    /// Never triggers automatically; [`Catalog::rebuild_het_retained`] /
    /// [`Catalog::rebuild_het`] remain available. The default.
    #[default]
    Manual,
    /// Due when the accumulated absolute-error mass from feedback
    /// (`Σ |estimated − actual|` since the last rebuild) reaches the
    /// bound.
    ErrorMassBound(f64),
    /// Due every `n` applied feedbacks (a count schedule for workloads
    /// where per-query error magnitudes are not comparable).
    FeedbackCount(u64),
}

/// Per-entry maintenance accounting, behind its own lock so feedback
/// bookkeeping never contends with the read path.
struct MaintenanceState {
    /// The retained source document, if any.
    document: Option<Arc<Document>>,
    policy: MaintenancePolicy,
    /// Strategy handed to automatic rebuilds.
    strategy: Arc<dyn CandidateStrategy + Send + Sync>,
    /// `Σ |estimated − actual|` of applied feedback since the last rebuild.
    error_mass: f64,
    /// Applied feedbacks since the last rebuild (drives
    /// [`MaintenancePolicy::FeedbackCount`]).
    feedback_since_rebuild: u64,
    /// Lifetime counters, surfaced through [`DocumentInfo`].
    feedback_applied: u64,
    feedback_ignored: u64,
    rebuilds: u64,
    /// A rebuild has been reported due but has not completed yet;
    /// suppresses duplicate triggers while feedback keeps arriving.
    rebuild_pending: bool,
    /// Q-error histogram (milli-q) of this document's applied feedback —
    /// served accuracy the way the cardinality-estimation benchmarks
    /// grade it. Plain counts: it lives under this state's lock, which
    /// every applied feedback already takes.
    q_error: HistogramSnapshot,
}

impl MaintenanceState {
    fn new(document: Option<Arc<Document>>, policy: MaintenancePolicy) -> Self {
        MaintenanceState {
            document,
            policy,
            strategy: Arc::new(BselThresholdStrategy),
            error_mass: 0.0,
            feedback_since_rebuild: 0,
            feedback_applied: 0,
            feedback_ignored: 0,
            rebuilds: 0,
            rebuild_pending: false,
            q_error: HistogramSnapshot::default(),
        }
    }

    /// Whether the policy says a rebuild is due right now. Requires a
    /// retained document (nothing to rebuild from otherwise) and no
    /// rebuild already pending.
    fn due(&self) -> bool {
        if self.document.is_none() || self.rebuild_pending {
            return false;
        }
        match self.policy {
            MaintenancePolicy::Manual => false,
            MaintenancePolicy::ErrorMassBound(bound) => self.error_mass >= bound,
            MaintenancePolicy::FeedbackCount(n) => n > 0 && self.feedback_since_rebuild >= n,
        }
    }

    /// Accounts one feedback report; returns `true` when this report made
    /// a rebuild due (and marks it pending so it is reported only once).
    fn note(&mut self, report: &FeedbackReport) -> bool {
        if report.outcome == FeedbackOutcome::Unsupported {
            self.feedback_ignored += 1;
            return false;
        }
        self.feedback_applied += 1;
        self.feedback_since_rebuild += 1;
        self.error_mass += report.error;
        self.q_error
            .record(q_error_milli(report.estimated, report.actual));
        let due = self.due();
        if due {
            self.rebuild_pending = true;
        }
        due
    }

    /// Settles the drift accounting after a completed rebuild that
    /// consumed `consumed_mass` error mass over `consumed_feedbacks`
    /// feedbacks (the values read when the rebuild started). Subtracting
    /// rather than zeroing preserves drift from feedback that raced in
    /// *after* the rebuild captured its document — that drift applies to
    /// the rebuilt table and must keep counting toward the next trigger.
    fn note_rebuilt(&mut self, consumed_mass: f64, consumed_feedbacks: u64) {
        self.error_mass = (self.error_mass - consumed_mass).max(0.0);
        self.feedback_since_rebuild = self
            .feedback_since_rebuild
            .saturating_sub(consumed_feedbacks);
        self.rebuilds += 1;
        self.rebuild_pending = false;
    }
}

/// Adapter letting a shared strategy handle drive
/// [`XseedSynopsis::rebuild_het_with_strategy`] (which takes the strategy
/// by value) without giving up the catalog's stored `Arc`.
#[derive(Debug, Clone)]
struct SharedStrategy(Arc<dyn CandidateStrategy + Send + Sync>);

impl CandidateStrategy for SharedStrategy {
    fn select(&self, ctx: &CandidateContext<'_>) -> Vec<nokstore::PathTreeNodeId> {
        self.0.select(ctx)
    }
}

/// What an entry publishes to readers: the snapshot plus the byte size of
/// its kernel, so [`Catalog::info`] never needs the writer lock. Sizing a
/// kernel serializes it, so a publish measures it only when it carries a
/// new kernel; HET and config publishes (feedback, rebuilds) carry the
/// size over.
struct Published {
    snapshot: SynopsisSnapshot,
    kernel_bytes: usize,
}

struct Entry {
    /// The build/update side, locked only by writers.
    synopsis: Mutex<XseedSynopsis>,
    /// The read side: swapped atomically when an update publishes.
    published: RwLock<Published>,
    /// Retention + maintenance accounting; see [`MaintenanceState`].
    maintenance: Mutex<MaintenanceState>,
}

impl Entry {
    fn read_published(&self) -> std::sync::RwLockReadGuard<'_, Published> {
        self.published
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    fn published(&self) -> SynopsisSnapshot {
        self.read_published().snapshot.clone()
    }

    fn maintenance(&self) -> std::sync::MutexGuard<'_, MaintenanceState> {
        self.maintenance
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

/// A concurrent registry of named synopses. See the module docs.
#[derive(Default)]
pub struct Catalog {
    entries: RwLock<HashMap<String, Arc<Entry>>>,
    /// Per-name publication ledger: the highest epoch ever published for
    /// each name. Every publish (insert *or* update) claims its epoch
    /// through this one lock, so two racing publishes — even an update
    /// racing an insert that detaches its entry — can never hand out the
    /// same `(name, epoch)` for different synopsis states, and the
    /// staleness key survives remove + re-insert.
    ledger: Mutex<HashMap<String, u64>>,
}

/// Summary of one catalog entry, as reported by [`Catalog::info`].
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentInfo {
    /// The entry's name.
    pub name: String,
    /// Epoch of the published snapshot.
    pub epoch: u64,
    /// Synopsis-graph vertices in the published snapshot.
    pub vertices: usize,
    /// Elements of the summarized document(s).
    pub elements: u64,
    /// Total synopsis footprint (kernel + resident HET) in bytes.
    pub size_bytes: usize,
    /// Hits of the published snapshot's compiled-query cache.
    pub compiled_hits: u64,
    /// Misses (compilations) of the published snapshot's compiled-query
    /// cache.
    pub compiled_misses: u64,
    /// Whether the source document is retained for automatic rebuilds.
    pub retained: bool,
    /// The entry's maintenance policy.
    pub policy: MaintenancePolicy,
    /// Accumulated absolute-error mass since the last rebuild.
    pub error_mass: f64,
    /// Feedbacks applied (simple or correlated) over the entry's lifetime.
    pub feedback_applied: u64,
    /// Feedbacks ignored (unsupported shapes) over the entry's lifetime.
    pub feedback_ignored: u64,
    /// HET rebuilds performed through the maintenance path.
    pub rebuilds: u64,
    /// Q-error histogram (milli-q values) of this document's applied
    /// feedback; empty until feedback arrives.
    pub q_error: HistogramSnapshot,
}

/// Result of routing one feedback observation through
/// [`Catalog::record_feedback`].
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogFeedback {
    /// What the synopsis recorded (outcome, prior estimate, error mass).
    pub report: FeedbackReport,
    /// Epoch of the snapshot published by this feedback (unchanged when
    /// the shape was unsupported).
    pub epoch: u64,
    /// The entry's maintenance policy declared a rebuild due — exactly
    /// once per crossing: further feedback keeps accumulating but will
    /// not re-report until [`Catalog::rebuild_het_retained`] completes.
    pub rebuild_due: bool,
}

/// One observed cardinality in a feedback batch
/// ([`Catalog::record_feedback_batch`], [`crate::Service::feedback_batch`]):
/// the executed query (a cached plan, so repeated feedback skips the
/// parser) plus what the execution engine actually saw. `base` is the
/// cardinality of the same path without predicates, when known — it lets
/// branching feedback derive an exact correlated selectivity (see
/// [`xseed_core::het::feedback::record_feedback`]).
#[derive(Debug, Clone)]
pub struct FeedbackItem {
    /// The executed query.
    pub query: Arc<QueryPlan>,
    /// The observed cardinality.
    pub actual: u64,
    /// Cardinality of the predicate-free base path, if known.
    pub base: Option<u64>,
}

/// Result of one feedback batch ([`Catalog::record_feedback_batch`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogFeedbackBatch {
    /// Per-item reports, in input order.
    pub reports: Vec<FeedbackReport>,
    /// Epoch of the single snapshot published after the whole batch.
    pub epoch: u64,
    /// See [`CatalogFeedback::rebuild_due`]; evaluated once after the
    /// whole batch is accounted.
    pub rebuild_due: bool,
}

/// Why [`Catalog::rebuild_het_retained`] (or a queued automatic rebuild)
/// could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebuildError {
    /// The name is not registered.
    UnknownDocument,
    /// The entry exists but retains no source document to rebuild from.
    NotRetained,
    /// The service shut down before the maintenance thread answered.
    ShutDown,
    /// The entry that triggered the rebuild was replaced (re-`LOAD`ed)
    /// before the rebuild ran; the fresh entry starts clean and owes no
    /// rebuild.
    Superseded,
}

impl std::fmt::Display for RebuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebuildError::UnknownDocument => f.write_str("unknown document"),
            RebuildError::NotRetained => f.write_str("document not retained"),
            RebuildError::ShutDown => f.write_str("service shut down before the rebuild ran"),
            RebuildError::Superseded => f.write_str("document replaced before the rebuild ran"),
        }
    }
}

impl std::error::Error for RebuildError {}

/// Errors from [`Catalog::save_snapshot`] / [`Catalog::load_snapshot`].
#[derive(Debug)]
pub enum SnapshotError {
    /// The named document is not registered.
    UnknownDocument(String),
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The snapshot bytes did not decode (see [`xseed_core::PersistError`]).
    Decode(xseed_core::PersistError),
    /// The spilled document XML in the snapshot did not parse back.
    Document(xmlkit::Error),
    /// The catalog's document cap rejected the load.
    CatalogFull,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnknownDocument(name) => write!(f, "unknown document '{name}'"),
            SnapshotError::Io(e) => write!(f, "{e}"),
            SnapshotError::Decode(e) => write!(f, "{e}"),
            SnapshotError::Document(e) => write!(f, "retained document invalid: {e}"),
            SnapshotError::CatalogFull => write!(f, "catalog document limit reached"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<xseed_core::PersistError> for SnapshotError {
    fn from(e: xseed_core::PersistError) -> Self {
        SnapshotError::Decode(e)
    }
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    fn entry(&self, name: &str) -> Option<Arc<Entry>> {
        self.entries
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
            .get(name)
            .cloned()
    }

    /// Claims a publication epoch for `name`: raises the synopsis past
    /// every epoch previously published under the name (when the synopsis
    /// state changed or lags the ledger) and records the claim. The first
    /// publication of a fresh name keeps the synopsis' own epoch.
    fn claim_epoch(&self, name: &str, synopsis: &mut XseedSynopsis, state_changed: bool) {
        let mut ledger = self
            .ledger
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        if let Some(&last) = ledger.get(name) {
            if state_changed || synopsis.epoch() < last {
                synopsis.advance_epoch(last + 1);
            }
        }
        ledger.insert(name.to_string(), synopsis.epoch());
    }

    /// Registers (or replaces) a synopsis under `name` and publishes its
    /// snapshot, which is also returned. When replacing, the new synopsis
    /// is advanced past the replaced entry's epoch so observers keyed on
    /// `(name, epoch)` see the swap. The initial freeze happens outside
    /// the name-map lock.
    pub fn insert(&self, name: &str, synopsis: XseedSynopsis) -> SynopsisSnapshot {
        self.insert_full(name, synopsis, None, None, MaintenancePolicy::Manual)
            .expect("uncapped insert cannot be rejected")
    }

    /// Like [`Catalog::insert`], but also retains `document` so
    /// feedback-driven maintenance ([`Catalog::rebuild_het_retained`])
    /// can rebuild the entry's HET without the caller re-supplying it.
    /// `document` must be the document `synopsis` summarizes. The entry
    /// keeps the `Arc` itself, so retaining never copies the document.
    pub fn insert_retained(
        &self,
        name: &str,
        synopsis: XseedSynopsis,
        document: Arc<Document>,
        policy: MaintenancePolicy,
    ) -> SynopsisSnapshot {
        self.insert_full(name, synopsis, None, Some(document), policy)
            .expect("uncapped insert cannot be rejected")
    }

    /// The general registration path: optional capacity cap, optional
    /// retained document, and the initial maintenance policy. Replacing a
    /// name starts its maintenance accounting fresh (the synopsis the old
    /// counters described is gone). With `max_documents`, a *new* name is
    /// refused (`None`) once the catalog holds that many entries, while
    /// replacing an existing name always succeeds; the capacity check and
    /// the map insert happen under one write lock, so concurrent sessions
    /// cannot race past the cap.
    pub fn insert_full(
        &self,
        name: &str,
        mut synopsis: XseedSynopsis,
        max_documents: Option<usize>,
        document: Option<Arc<Document>>,
        policy: MaintenancePolicy,
    ) -> Option<SynopsisSnapshot> {
        // Claiming through the ledger makes the epoch unique for the name
        // even against racing publishes; the freeze inside `snapshot()`
        // and the kernel sizing then run outside the name-map lock. If
        // two inserts race, the last map write wins the published slot
        // (both epochs stay distinct, so stale keys never collide). A
        // claim for an insert the cap then rejects is harmless: the
        // ledger only pushes later epochs upward.
        self.claim_epoch(name, &mut synopsis, true);
        let snapshot = synopsis.snapshot();
        let kernel_bytes = synopsis.kernel_size_bytes();
        let mut entries = self
            .entries
            .write()
            .unwrap_or_else(|poison| poison.into_inner());
        if let Some(max) = max_documents {
            if !entries.contains_key(name) && entries.len() >= max {
                return None;
            }
        }
        entries.insert(
            name.to_string(),
            Arc::new(Entry {
                synopsis: Mutex::new(synopsis),
                published: RwLock::new(Published {
                    snapshot: snapshot.clone(),
                    kernel_bytes,
                }),
                maintenance: Mutex::new(MaintenanceState::new(document, policy)),
            }),
        );
        Some(snapshot)
    }

    /// The published snapshot of `name`, if registered. This is the read
    /// path: the returned snapshot is self-contained and lock-free.
    pub fn snapshot(&self, name: &str) -> Option<SynopsisSnapshot> {
        self.entry(name).map(|e| e.published())
    }

    /// Applies `mutate` to the synopsis registered under `name`, then
    /// rebuilds and publishes a fresh snapshot (bumping the epoch if the
    /// mutation invalidated estimate state). Returns the mutation's result
    /// and the newly published snapshot. Only this entry's locks are
    /// taken — readers and writers of other documents are unaffected, and
    /// in-flight estimates holding the previous snapshot finish
    /// undisturbed. If `name` is concurrently replaced via
    /// [`Catalog::insert`], the replacement wins the published slot.
    pub fn update<R>(
        &self,
        name: &str,
        mutate: impl FnOnce(&mut XseedSynopsis) -> R,
    ) -> Option<(R, SynopsisSnapshot)> {
        let entry = self.entry(name)?;
        Some(self.update_entry(name, &entry, mutate))
    }

    /// The body of [`Catalog::update`], operating on an already-resolved
    /// entry. Maintenance paths that captured an entry (its retained
    /// document, its drift accounting) go through this so a concurrent
    /// re-registration of `name` can never make them mutate a *different*
    /// entry than the one their captured state belongs to — a rebuild
    /// racing a re-`LOAD` then updates the detached old entry (harmless:
    /// nothing serves it) instead of corrupting the fresh one.
    fn update_entry<R>(
        &self,
        name: &str,
        entry: &Arc<Entry>,
        mutate: impl FnOnce(&mut XseedSynopsis) -> R,
    ) -> (R, SynopsisSnapshot) {
        let mut synopsis = entry
            .synopsis
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        let epoch_before = synopsis.epoch();
        let result = mutate(&mut synopsis);
        let state_changed = synopsis.epoch() != epoch_before;
        // Claim the published epoch through the ledger so a racing
        // publish (e.g. an insert replacing this name) can never share it.
        self.claim_epoch(name, &mut synopsis, state_changed);
        // Rebuild (re-freeze) and publish while still holding this
        // entry's mutex: racing updates therefore publish in mutation
        // order, and a slower earlier update can never overwrite a newer
        // published snapshot. The write lock itself is held only for the
        // swap.
        let snapshot = synopsis.snapshot();
        // A publish that kept the frozen kernel kept the kernel. Both
        // snapshots hold their `Arc`, so equal addresses mean one kernel.
        let unchanged = {
            let current = entry.read_published();
            std::ptr::eq(current.snapshot.frozen(), snapshot.frozen())
                .then_some(current.kernel_bytes)
        };
        let kernel_bytes = unchanged.unwrap_or_else(|| synopsis.kernel_size_bytes());
        *entry
            .published
            .write()
            .unwrap_or_else(|poison| poison.into_inner()) = Published {
            snapshot: snapshot.clone(),
            kernel_bytes,
        };
        drop(synopsis);
        (result, snapshot)
    }

    /// Rebuilds the hyper-edge table of `name` from `doc`'s exact
    /// statistics using the streaming builder and republishes: the epoch
    /// bumps (the HET swap invalidates estimate state) and a fresh
    /// snapshot is installed, while readers keep estimating from the
    /// previously published snapshot for the whole (potentially long)
    /// build — the construction runs under this entry's writer mutex
    /// only, and the published slot's write lock is held just for the
    /// final swap. `doc` must be the document the synopsis summarizes.
    /// Returns the build statistics and the new snapshot, or `None` when
    /// the name is not registered.
    pub fn rebuild_het(
        &self,
        name: &str,
        doc: &Document,
    ) -> Option<(xseed_core::HetBuildStats, SynopsisSnapshot)> {
        self.update(name, |synopsis| synopsis.rebuild_het(doc))
    }

    /// Rebuilds the hyper-edge table of `name` from its **retained**
    /// document — the self-driving form of [`Catalog::rebuild_het`] — with
    /// the entry's configured candidate strategy, then resets the entry's
    /// drift accounting (error mass, feedback schedule) and counts the
    /// rebuild. Readers keep estimating from the previously published
    /// snapshot for the whole build, exactly like a caller-supplied
    /// rebuild.
    pub fn rebuild_het_retained(
        &self,
        name: &str,
    ) -> Result<(xseed_core::HetBuildStats, SynopsisSnapshot), RebuildError> {
        self.rebuild_het_retained_inner(name, false)
    }

    /// The queued-trigger form of [`Catalog::rebuild_het_retained`]: runs
    /// only when the resolved entry still owes a rebuild
    /// (`rebuild_pending`). A re-`LOAD` between the trigger and the
    /// maintenance thread getting to the job installs a fresh entry with
    /// clean accounting — rebuilding it would be pure waste (or worse,
    /// would misreport its retention), so the job answers
    /// [`RebuildError::Superseded`] instead.
    pub(crate) fn rebuild_het_retained_auto(
        &self,
        name: &str,
    ) -> Result<(xseed_core::HetBuildStats, SynopsisSnapshot), RebuildError> {
        self.rebuild_het_retained_inner(name, true)
    }

    fn rebuild_het_retained_inner(
        &self,
        name: &str,
        require_pending: bool,
    ) -> Result<(xseed_core::HetBuildStats, SynopsisSnapshot), RebuildError> {
        let entry = self.entry(name).ok_or(RebuildError::UnknownDocument)?;
        if require_pending && !entry.maintenance().rebuild_pending {
            return Err(RebuildError::Superseded);
        }
        let (doc, strategy, consumed_mass, consumed_feedbacks) = {
            let mut m = entry.maintenance();
            let Some(doc) = m.document.clone() else {
                // A pending trigger cannot complete without a document;
                // clear it so retention re-arms the policy cleanly.
                m.rebuild_pending = false;
                return Err(RebuildError::NotRetained);
            };
            (
                doc,
                SharedStrategy(m.strategy.clone()),
                m.error_mass,
                m.feedback_since_rebuild,
            )
        };
        // Update through the captured entry, not by name: a concurrent
        // re-`LOAD` must never get its fresh synopsis rebuilt from this
        // (now stale) retained document.
        let result = self.update_entry(name, &entry, |synopsis| {
            synopsis.rebuild_het_with_strategy(&doc, strategy)
        });
        entry
            .maintenance()
            .note_rebuilt(consumed_mass, consumed_feedbacks);
        Ok(result)
    }

    /// Routes one observed cardinality through the synopsis' feedback
    /// path. The prior estimate and the shape classification run against
    /// the **published snapshot, lock-free** — the recorded estimate is
    /// exactly what this feedback's client was served, unsupported shapes
    /// never touch the writer lock at all, and only the cheap HET insert
    /// runs under exclusive access (epoch bump + fresh snapshot;
    /// in-flight readers finish on their epoch). The entry's maintenance
    /// accounting absorbs the exposed error and reports — once per
    /// crossing — when its policy declares a rebuild due. Returns `None`
    /// when `name` is not registered.
    pub fn record_feedback(
        &self,
        name: &str,
        expr: &PathExpr,
        actual: u64,
        base_cardinality: Option<u64>,
    ) -> Option<CatalogFeedback> {
        let entry = self.entry(name)?;
        let published = entry.published();
        let estimated = published.estimate(expr);
        // Classified against the *published* names so the unsupported
        // shortcut stays lock-free; `apply_feedback` re-derives the shape
        // under the writer lock against the live synopsis' names, so the
        // recorded keys always match the state being mutated.
        if xseed_core::het::feedback::classify(published.names(), expr)
            == FeedbackOutcome::Unsupported
        {
            let report = FeedbackReport {
                outcome: FeedbackOutcome::Unsupported,
                estimated,
                actual,
                error: (estimated - actual as f64).abs(),
            };
            entry.maintenance().note(&report);
            return Some(CatalogFeedback {
                report,
                epoch: published.epoch(),
                rebuild_due: false,
            });
        }
        let (report, snapshot) = self.update_entry(name, &entry, |synopsis| {
            synopsis.apply_feedback(expr, estimated, actual, base_cardinality)
        });
        let rebuild_due = entry.maintenance().note(&report);
        Some(CatalogFeedback {
            report,
            epoch: snapshot.epoch(),
            rebuild_due,
        })
    }

    /// Applies a whole batch of feedback observations under **one** entry
    /// update: any number of applied items costs a single snapshot
    /// publication (readers see the batch atomically, never a partially
    /// applied prefix), and the maintenance policy is evaluated once with
    /// the batch's whole error mass absorbed. Unlike
    /// [`Catalog::record_feedback`], each item's prior estimate reflects
    /// the items applied before it (sequential refinement within the
    /// batch). Returns `None` when `name` is not registered.
    pub fn record_feedback_batch(
        &self,
        name: &str,
        items: &[FeedbackItem],
    ) -> Option<CatalogFeedbackBatch> {
        let entry = self.entry(name)?;
        let (reports, snapshot) = self.update_entry(name, &entry, |synopsis| {
            synopsis.record_feedback_batch_reports(
                items
                    .iter()
                    .map(|item| (item.query.expr(), item.actual, item.base)),
            )
        });
        let rebuild_due = {
            let mut m = entry.maintenance();
            let mut due = false;
            // Every report must be accounted (no short-circuiting);
            // `note` marks the pending flag on the first crossing, so
            // later items cannot re-trigger within the batch.
            for report in &reports {
                due |= m.note(report);
            }
            due
        };
        Some(CatalogFeedbackBatch {
            reports,
            epoch: snapshot.epoch(),
            rebuild_due,
        })
    }

    /// Sets the maintenance policy of `name`; `false` when unregistered.
    /// Takes effect for the next feedback — an already-pending rebuild
    /// trigger is unaffected.
    pub fn set_maintenance_policy(&self, name: &str, policy: MaintenancePolicy) -> bool {
        match self.entry(name) {
            Some(entry) => {
                entry.maintenance().policy = policy;
                true
            }
            None => false,
        }
    }

    /// Sets the candidate strategy automatic rebuilds of `name` use;
    /// `false` when unregistered.
    pub fn set_rebuild_strategy(
        &self,
        name: &str,
        strategy: impl CandidateStrategy + Send + Sync + 'static,
    ) -> bool {
        match self.entry(name) {
            Some(entry) => {
                entry.maintenance().strategy = Arc::new(strategy);
                true
            }
            None => false,
        }
    }

    /// The retained source document of `name`, if any.
    pub fn retained_document(&self, name: &str) -> Option<Arc<Document>> {
        self.entry(name)?.maintenance().document.clone()
    }

    /// Writes the named entry's full state — kernel, HET, config, epoch,
    /// and (when retained) the source document as XML — to `path` as a
    /// crash-safe snapshot (temp file + fsync + atomic rename; see
    /// [`crate::persist`]). Returns the snapshot size in bytes.
    ///
    /// The maintenance lock and the synopsis lock are taken one after the
    /// other, never together, matching the ordering discipline of the
    /// rest of the catalog.
    pub fn save_snapshot(&self, name: &str, path: &std::path::Path) -> Result<u64, SnapshotError> {
        let entry = self
            .entry(name)
            .ok_or_else(|| SnapshotError::UnknownDocument(name.to_string()))?;
        let document_xml = {
            let maintenance = entry.maintenance();
            maintenance
                .document
                .as_ref()
                .map(|doc| xmlkit::writer::to_string(doc))
        };
        let bytes = {
            let synopsis = entry
                .synopsis
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            xseed_core::persist::encode_snapshot(
                synopsis.kernel(),
                synopsis.het(),
                synopsis.config(),
                synopsis.epoch(),
                document_xml.as_deref(),
            )
        };
        crate::persist::write_snapshot_file(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Reads a snapshot file and registers it under `name` (see
    /// [`Catalog::install_snapshot`]). Returns the published snapshot and
    /// whether a spilled document was restored into retention.
    pub fn load_snapshot(
        &self,
        name: &str,
        path: &std::path::Path,
        max_documents: Option<usize>,
    ) -> Result<(SynopsisSnapshot, bool), SnapshotError> {
        crate::persist::ensure_regular_file(path)?;
        let bytes = std::fs::read(path)?;
        self.install_snapshot(name, &bytes, max_documents)
    }

    /// Decodes snapshot bytes and registers the reassembled synopsis under
    /// `name`, restoring its saved epoch exactly (a fresh name) or
    /// advancing past the name's published history (a re-load) — epochs
    /// never regress either way. A spilled document goes back into
    /// retention, so maintenance resumes where it left off; the policy
    /// restarts as [`MaintenancePolicy::Manual`] (policies are a serving
    /// decision, not snapshot state).
    pub fn install_snapshot(
        &self,
        name: &str,
        bytes: &[u8],
        max_documents: Option<usize>,
    ) -> Result<(SynopsisSnapshot, bool), SnapshotError> {
        let parts = xseed_core::persist::decode_snapshot(bytes)?;
        let document = match &parts.document_xml {
            Some(xml) => Some(Arc::new(
                Document::parse_str(xml).map_err(SnapshotError::Document)?,
            )),
            None => None,
        };
        let retained = document.is_some();
        let synopsis =
            XseedSynopsis::from_parts(parts.kernel, parts.het, parts.config, parts.epoch);
        let snapshot = self
            .insert_full(
                name,
                synopsis,
                max_documents,
                document,
                MaintenancePolicy::Manual,
            )
            .ok_or(SnapshotError::CatalogFull)?;
        Ok((snapshot, retained))
    }

    /// Retains (or replaces) the source document of an already-registered
    /// entry; `false` when unregistered. `doc` must be the document the
    /// synopsis summarizes.
    pub fn retain_document(&self, name: &str, doc: Arc<Document>) -> bool {
        match self.entry(name) {
            Some(entry) => {
                entry.maintenance().document = Some(doc);
                true
            }
            None => false,
        }
    }

    /// Drops the retained document of `name` (reclaiming its memory;
    /// automatic rebuilds disarm until a document is retained again).
    /// Returns `true` when a document was actually dropped.
    pub fn release_document(&self, name: &str) -> bool {
        match self.entry(name) {
            Some(entry) => entry.maintenance().document.take().is_some(),
            None => false,
        }
    }

    /// Removes an entry; returns `true` if it existed. Snapshots already
    /// handed out keep working — removal only unpublishes the name. The
    /// ledger keeps the name's publication history, so a future
    /// re-registration still publishes a strictly later epoch.
    pub fn remove(&self, name: &str) -> bool {
        self.entries
            .write()
            .unwrap_or_else(|poison| poison.into_inner())
            .remove(name)
            .is_some()
    }

    /// Number of registered documents.
    pub fn len(&self) -> usize {
        self.entries
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
            .len()
    }

    /// Returns `true` when no documents are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-entry summaries, sorted by name. Reads only what each entry
    /// published, so it never waits behind an in-progress update or HET
    /// rebuild of that entry.
    pub fn info(&self) -> Vec<DocumentInfo> {
        let entries: Vec<(String, Arc<Entry>)> = self
            .entries
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
            .iter()
            .map(|(name, e)| (name.clone(), e.clone()))
            .collect();
        let mut out: Vec<DocumentInfo> = entries
            .into_iter()
            .map(|(name, e)| {
                let (snapshot, kernel_bytes) = {
                    let published = e.read_published();
                    (published.snapshot.clone(), published.kernel_bytes)
                };
                let size_bytes =
                    kernel_bytes + snapshot.het().map_or(0, |het| het.resident_bytes());
                let compiled = snapshot.compiled_cache_stats();
                let m = e.maintenance();
                DocumentInfo {
                    name,
                    epoch: snapshot.epoch(),
                    vertices: snapshot.frozen().vertex_count(),
                    elements: snapshot.frozen().element_count(),
                    size_bytes,
                    compiled_hits: compiled.hits,
                    compiled_misses: compiled.misses,
                    retained: m.document.is_some(),
                    policy: m.policy,
                    error_mass: m.error_mass,
                    feedback_applied: m.feedback_applied,
                    feedback_ignored: m.feedback_ignored,
                    rebuilds: m.rebuilds,
                    q_error: m.q_error.clone(),
                }
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpathkit::parse;
    use xseed_core::XseedConfig;

    fn from_xml(xml: &str) -> XseedSynopsis {
        XseedSynopsis::build_from_xml(xml, XseedConfig::default()).unwrap()
    }

    fn sample_catalog() -> Catalog {
        let catalog = Catalog::new();
        catalog.insert("fig2", from_xml(xmlkit::samples::FIGURE2_XML));
        catalog
    }

    /// Registers the Figure 4 document as `fig4`, retained for rebuilds;
    /// returns the retained document.
    fn insert_fig4_retained(
        catalog: &Catalog,
        config: XseedConfig,
        policy: MaintenancePolicy,
    ) -> Arc<Document> {
        let doc = Arc::new(xmlkit::samples::figure4_document());
        catalog.insert_retained(
            "fig4",
            XseedSynopsis::build(&doc, config),
            doc.clone(),
            policy,
        );
        doc
    }

    #[test]
    fn insert_snapshot_roundtrip() {
        let catalog = sample_catalog();
        assert_eq!(catalog.len(), 1);
        assert!(!catalog.is_empty());
        let snap = catalog.snapshot("fig2").unwrap();
        assert_eq!(snap.epoch(), 0);
        assert!((snap.estimate(&parse("/a/c/s").unwrap()) - 5.0).abs() < 1e-9);
        assert!(catalog.snapshot("missing").is_none());
    }

    #[test]
    fn update_publishes_new_epoch_and_preserves_old_snapshots() {
        let catalog = sample_catalog();
        let old = catalog.snapshot("fig2").unwrap();

        let (_, fresh) = catalog
            .update("fig2", |syn| {
                let root = syn.kernel().name(syn.kernel().root().unwrap()).to_string();
                let subtree = xmlkit::Document::parse_str("<zzz/>").unwrap();
                syn.kernel_mut().add_subtree(&[root.as_str()], &subtree)
            })
            .unwrap();

        assert!(fresh.epoch() > old.epoch());
        let q = parse("/a/zzz").unwrap();
        assert_eq!(old.estimate(&q), 0.0);
        assert!((fresh.estimate(&q) - 1.0).abs() < 1e-9);
        // The catalog now serves the fresh snapshot.
        assert_eq!(catalog.snapshot("fig2").unwrap().epoch(), fresh.epoch());
        assert!(catalog.update("missing", |_| ()).is_none());
    }

    #[test]
    fn replacing_an_entry_never_regresses_its_epoch() {
        let catalog = sample_catalog();
        // Advance fig2 to epoch 3 through updates.
        for _ in 0..3 {
            let _ = catalog.update("fig2", |syn| syn.config_mut().card_threshold = 0.0);
        }
        assert_eq!(catalog.snapshot("fig2").unwrap().epoch(), 3);
        // Re-LOADing the name with a brand-new synopsis (epoch 0 on its
        // own) must publish a *later* epoch, not reset to 0.
        let replaced = catalog.insert("fig2", from_xml("<a><b/></a>"));
        assert_eq!(replaced.epoch(), 4);
        let snap = catalog.snapshot("fig2").unwrap();
        assert_eq!(snap.epoch(), 4);
        // And it really is the new document.
        assert!((snap.estimate(&parse("/a/b").unwrap()) - 1.0).abs() < 1e-9);
        assert_eq!(snap.estimate(&parse("/a/c/s").unwrap()), 0.0);
    }

    #[test]
    fn remove_then_reinsert_still_advances_epoch() {
        let catalog = sample_catalog();
        let _ = catalog.update("fig2", |syn| syn.config_mut().card_threshold = 0.0);
        let _ = catalog.update("fig2", |syn| syn.config_mut().card_threshold = 0.0);
        assert_eq!(catalog.snapshot("fig2").unwrap().epoch(), 2);
        assert!(catalog.remove("fig2"));
        assert!(catalog.snapshot("fig2").is_none());
        // Re-registering the name publishes a strictly later epoch even
        // though the entry was gone in between.
        let snap = catalog.insert("fig2", from_xml("<a><b/></a>"));
        assert_eq!(snap.epoch(), 3);
    }

    #[test]
    fn rebuild_het_bumps_epoch_and_keeps_old_snapshots_serving() {
        let catalog = Catalog::new();
        let doc = xmlkit::samples::figure4_document();
        catalog.insert(
            "fig4",
            XseedSynopsis::build(&doc, XseedConfig::default().with_bsel_threshold(0.99)),
        );
        let old = catalog.snapshot("fig4").unwrap();
        let q = parse("/a/b/d/e").unwrap();
        let kernel_only = old.estimate(&q);

        let (stats, fresh) = catalog.rebuild_het("fig4", &doc).unwrap();
        assert!(stats.simple_entries > 0);
        assert!(fresh.epoch() > old.epoch());
        assert!(fresh.het().is_some());
        // In-flight readers of the old snapshot are undisturbed; the new
        // snapshot answers the simple path exactly (20 = actual |/a/b/d/e|).
        assert_eq!(old.estimate(&q).to_bits(), kernel_only.to_bits());
        assert!((fresh.estimate(&q) - 20.0).abs() < 1e-9);
        assert_eq!(catalog.snapshot("fig4").unwrap().epoch(), fresh.epoch());
        assert!(catalog.rebuild_het("missing", &doc).is_none());
    }

    #[test]
    fn feedback_updates_het_and_accumulates_error_mass() {
        let catalog = Catalog::new();
        insert_fig4_retained(&catalog, XseedConfig::default(), MaintenancePolicy::Manual);
        assert!(catalog.retained_document("fig4").is_some());
        let expr = parse("/a/b/d/e").unwrap();
        let before = catalog.snapshot("fig4").unwrap();

        let fb = catalog.record_feedback("fig4", &expr, 20, None).unwrap();
        assert_eq!(fb.report.outcome, xseed_core::FeedbackOutcome::SimplePath);
        assert!(fb.report.error > 1e-6);
        assert!(!fb.rebuild_due, "manual policy never triggers");
        assert!(fb.epoch > before.epoch());
        // The published snapshot answers the fed-back query exactly; the
        // pre-feedback snapshot is untouched.
        let after = catalog.snapshot("fig4").unwrap();
        assert!((after.estimate(&expr) - 20.0).abs() < 1e-9);
        assert!((before.estimate(&expr) - fb.report.estimated).abs() < 1e-12);

        let info = &catalog.info()[0];
        assert!(info.retained);
        assert_eq!(info.policy, MaintenancePolicy::Manual);
        assert_eq!(info.feedback_applied, 1);
        assert_eq!(info.feedback_ignored, 0);
        assert!((info.error_mass - fb.report.error).abs() < 1e-12);
        // The published size counts the HET entry the feedback added.
        let (writer_side, _) = catalog.update("fig4", |syn| syn.size_bytes()).unwrap();
        assert_eq!(info.size_bytes, writer_side);

        // Unsupported feedback neither bumps the epoch nor adds mass.
        let ignored = catalog
            .record_feedback("fig4", &parse("//e//f").unwrap(), 3, None)
            .unwrap();
        assert_eq!(
            ignored.report.outcome,
            xseed_core::FeedbackOutcome::Unsupported
        );
        assert_eq!(ignored.epoch, fb.epoch);
        let info = &catalog.info()[0];
        assert_eq!(info.feedback_ignored, 1);
        assert!((info.error_mass - fb.report.error).abs() < 1e-12);
        assert!(catalog.record_feedback("missing", &expr, 1, None).is_none());
    }

    #[test]
    fn error_mass_policy_reports_due_once_and_rebuild_resets() {
        let catalog = Catalog::new();
        insert_fig4_retained(
            &catalog,
            XseedConfig::default(),
            MaintenancePolicy::ErrorMassBound(1.0),
        );
        let expr = parse("/a/b/d/e").unwrap();
        let fb = catalog.record_feedback("fig4", &expr, 20, None).unwrap();
        assert!(fb.report.error >= 1.0, "figure 4 drift crosses the bound");
        assert!(fb.rebuild_due, "crossing the bound reports due");
        // Further feedback does not re-report while the rebuild is pending.
        let again = catalog
            .record_feedback("fig4", &parse("/a/c/d/f").unwrap(), 10, None)
            .unwrap();
        assert!(!again.rebuild_due);

        let epoch_before = catalog.snapshot("fig4").unwrap().epoch();
        let (stats, fresh) = catalog.rebuild_het_retained("fig4").unwrap();
        assert!(stats.simple_entries > 0);
        assert!(fresh.epoch() > epoch_before);
        // The rebuild answers the fed-back query exactly and resets drift.
        assert!((fresh.estimate(&expr) - 20.0).abs() < 1e-9);
        let info = &catalog.info()[0];
        assert_eq!(info.rebuilds, 1);
        assert_eq!(info.error_mass, 0.0);
        // The policy re-arms: new drift can trigger again.
        let fb = catalog.record_feedback("fig4", &expr, 1, None).unwrap();
        assert!(fb.rebuild_due, "post-rebuild drift re-triggers");
    }

    #[test]
    fn feedback_count_policy_and_retention_controls() {
        let catalog = sample_catalog();
        assert!(catalog.retained_document("fig2").is_none());
        assert!(catalog.set_maintenance_policy("fig2", MaintenancePolicy::FeedbackCount(2)));
        let expr = parse("/a/c/s").unwrap();
        // Without a retained document the schedule cannot arm.
        let fb = catalog.record_feedback("fig2", &expr, 9, None).unwrap();
        let fb2 = catalog.record_feedback("fig2", &expr, 9, None).unwrap();
        assert!(!fb.rebuild_due && !fb2.rebuild_due);
        assert_eq!(
            catalog.rebuild_het_retained("fig2").err(),
            Some(RebuildError::NotRetained)
        );
        assert_eq!(
            catalog.rebuild_het_retained("missing").err(),
            Some(RebuildError::UnknownDocument)
        );

        // Retain late: the schedule arms on the next applied feedback.
        let doc = xmlkit::Document::parse_str(xmlkit::samples::FIGURE2_XML).unwrap();
        assert!(catalog.retain_document("fig2", Arc::new(doc)));
        let fb = catalog.record_feedback("fig2", &expr, 9, None).unwrap();
        assert!(fb.rebuild_due, "count schedule crossed with retention");
        assert!(catalog.rebuild_het_retained("fig2").is_ok());
        // Releasing the document disarms future triggers.
        assert!(catalog.release_document("fig2"));
        assert!(!catalog.release_document("fig2"));
        let fb = catalog.record_feedback("fig2", &expr, 9, None).unwrap();
        let fb2 = catalog.record_feedback("fig2", &expr, 9, None).unwrap();
        assert!(!fb.rebuild_due && !fb2.rebuild_due);
        assert!(!catalog.set_maintenance_policy("missing", MaintenancePolicy::Manual));
        assert!(!catalog.retain_document(
            "missing",
            Arc::new(xmlkit::Document::parse_str("<a/>").unwrap())
        ));
    }

    #[test]
    fn feedback_batch_applies_under_one_epoch() {
        let catalog = Catalog::new();
        insert_fig4_retained(
            &catalog,
            XseedConfig::default(),
            MaintenancePolicy::ErrorMassBound(1.0),
        );
        let epoch_before = catalog.snapshot("fig4").unwrap().epoch();
        let items: Vec<FeedbackItem> = [
            ("/a/b/d/e", 20u64, None),
            ("/a/c/d/f", 10, None),
            ("//e//f", 1, None), // unsupported, ignored
        ]
        .iter()
        .map(|(q, actual, base)| FeedbackItem {
            query: Arc::new(xpathkit::QueryPlan::parse(q).unwrap()),
            actual: *actual,
            base: *base,
        })
        .collect();
        let batch = catalog.record_feedback_batch("fig4", &items).unwrap();
        assert_eq!(batch.reports.len(), 3);
        assert!(batch.epoch > epoch_before);
        assert_eq!(
            catalog.snapshot("fig4").unwrap().epoch(),
            batch.epoch,
            "whole batch publishes exactly one snapshot"
        );
        assert!(batch.rebuild_due, "batch error mass crossed the bound");
        let info = &catalog.info()[0];
        assert_eq!(info.feedback_applied, 2);
        assert_eq!(info.feedback_ignored, 1);
        let snap = catalog.snapshot("fig4").unwrap();
        assert!((snap.estimate(&parse("/a/b/d/e").unwrap()) - 20.0).abs() < 1e-9);
        assert!((snap.estimate(&parse("/a/c/d/f").unwrap()) - 10.0).abs() < 1e-9);
        assert!(catalog.record_feedback_batch("missing", &items).is_none());
    }

    #[test]
    fn auto_rebuild_is_superseded_by_a_concurrent_reload() {
        let catalog = Catalog::new();
        insert_fig4_retained(
            &catalog,
            XseedConfig::default(),
            MaintenancePolicy::ErrorMassBound(1.0),
        );
        let fb = catalog
            .record_feedback("fig4", &parse("/a/b/d/e").unwrap(), 20, None)
            .unwrap();
        assert!(fb.rebuild_due);
        // A re-LOAD replaces the entry before the queued rebuild runs:
        // the fresh entry owes nothing, so the auto path must refuse
        // (while the explicit operator path still works).
        insert_fig4_retained(
            &catalog,
            XseedConfig::default(),
            MaintenancePolicy::ErrorMassBound(1.0),
        );
        assert_eq!(
            catalog.rebuild_het_retained_auto("fig4").err(),
            Some(RebuildError::Superseded)
        );
        assert_eq!(catalog.info()[0].rebuilds, 0, "fresh entry untouched");
        assert!(catalog.rebuild_het_retained("fig4").is_ok());
    }

    #[test]
    fn insert_retained_keeps_the_arc_without_cloning() {
        let catalog = Catalog::new();
        let doc = Arc::new(xmlkit::samples::figure4_document());
        catalog.insert_retained(
            "fig4",
            XseedSynopsis::build(&doc, XseedConfig::default()),
            doc.clone(),
            MaintenancePolicy::Manual,
        );
        let retained = catalog.retained_document("fig4").unwrap();
        assert!(Arc::ptr_eq(&doc, &retained), "the Arc itself is retained");
        assert!(catalog.rebuild_het_retained("fig4").is_ok());
    }

    #[test]
    fn rebuild_settlement_preserves_racing_drift() {
        // Drift noted between a rebuild's start and its settlement must
        // survive: note_rebuilt subtracts what the rebuild consumed
        // instead of zeroing.
        let mut m = MaintenanceState::new(None, MaintenancePolicy::Manual);
        let report = |error: f64| FeedbackReport {
            outcome: xseed_core::FeedbackOutcome::SimplePath,
            estimated: 0.0,
            actual: 0,
            error,
        };
        m.note(&report(10.0));
        let (consumed_mass, consumed_feedbacks) = (m.error_mass, m.feedback_since_rebuild);
        // A feedback races in while the rebuild runs.
        m.note(&report(3.0));
        m.note_rebuilt(consumed_mass, consumed_feedbacks);
        assert!((m.error_mass - 3.0).abs() < 1e-12, "racing drift survives");
        assert_eq!(m.feedback_since_rebuild, 1);
        assert_eq!(m.rebuilds, 1);
    }

    #[test]
    fn rebuild_strategy_is_configurable() {
        let catalog = Catalog::new();
        insert_fig4_retained(
            &catalog,
            XseedConfig::default().with_bsel_threshold(0.99),
            MaintenancePolicy::Manual,
        );
        assert!(catalog.set_rebuild_strategy("fig4", xseed_core::TopKErrorStrategy { k: 1 }));
        let (stats, _) = catalog.rebuild_het_retained("fig4").unwrap();
        assert!(stats.candidate_nodes <= 1, "strategy bounds candidates");
        assert!(!catalog.set_rebuild_strategy("missing", xseed_core::BselThresholdStrategy));
    }

    #[test]
    fn info_reports_entries() {
        let catalog = sample_catalog();
        catalog.insert("tiny", from_xml("<r><x/></r>"));
        let info = catalog.info();
        assert_eq!(info.len(), 2);
        assert_eq!(info[0].name, "fig2");
        assert_eq!(info[1].name, "tiny");
        assert!(info[0].vertices > 0);
        assert!(info[0].elements > 0);
        assert!(info[0].size_bytes > 0);
        assert!(catalog.remove("tiny"));
        assert!(!catalog.remove("tiny"));
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn info_does_not_wait_for_an_update_in_progress() {
        use std::sync::mpsc;
        use std::time::Duration;

        let catalog = Arc::new(sample_catalog());
        let before = catalog.info()[0].size_bytes;
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let writer = {
            let catalog = catalog.clone();
            std::thread::spawn(move || {
                catalog.update("fig2", |syn| {
                    entered_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                    let root = syn.kernel().name(syn.kernel().root().unwrap()).to_string();
                    let subtree = xmlkit::Document::parse_str("<zzz><yyy/></zzz>").unwrap();
                    syn.kernel_mut().add_subtree(&[root.as_str()], &subtree)
                });
            })
        };
        entered_rx.recv().unwrap();
        let (info_tx, info_rx) = mpsc::channel();
        let reader = {
            let catalog = catalog.clone();
            std::thread::spawn(move || {
                let _ = info_tx.send(catalog.info());
            })
        };
        let during = info_rx.recv_timeout(Duration::from_secs(10));
        // Release the writer before asserting, so a failure cannot leave
        // it parked.
        release_tx.send(()).unwrap();
        writer.join().unwrap();
        reader.join().unwrap();
        let during = during.expect("info() waited for the update to finish");
        assert_eq!(during[0].size_bytes, before, "pre-update size");

        // The update grew the kernel, so its publish re-measured it.
        let after = catalog.info()[0].size_bytes;
        assert!(after > before);
        let (writer_side, _) = catalog.update("fig2", |syn| syn.size_bytes()).unwrap();
        assert_eq!(after, writer_side);
    }
}
