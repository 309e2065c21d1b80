//! # xseed-service — concurrent multi-synopsis estimation over shared snapshots
//!
//! The XSEED paper pitches estimation fast enough to sit inside a query
//! optimizer's hot loop; this crate is the serving layer that turns the
//! single-threaded `FrozenKernel` + `StreamingMatcher` pipeline into a
//! multi-document, multi-threaded estimation *service* — the daemon shape
//! that DBMS cardinality-estimation benchmarks (and summary-as-a-service
//! estimators) measure:
//!
//! * [`catalog`] — a [`Catalog`] of named synopses (XMark, DBLP, Treebank,
//!   user-loaded documents) that publishes epoch-versioned
//!   [`xseed_core::SynopsisSnapshot`]s. Callers build a synopsis
//!   (`XseedSynopsis::build` or `build_from_xml`) and register it with
//!   [`Catalog::insert`], or with [`Catalog::insert_retained`] to keep the
//!   source `Arc<Document>` for feedback-driven HET rebuilds. Readers
//!   clone an `Arc` and never lock again; writers mutate the synopsis and
//!   publish a fresh snapshot, so in-flight estimates keep answering from
//!   their own consistent pre-update state.
//! * [`plan_cache`] — a sharded LRU [`PlanCache`] from query text to
//!   parsed-and-classified [`xpathkit::QueryPlan`]s, so repeated queries
//!   skip the parser across all calling threads without a global lock.
//! * [`service`] — the [`Service`] front end: estimates, single or
//!   batched, run on the calling thread over catalog snapshots, one
//!   matcher per request replaying the snapshot's shared frontier memo
//!   (the traveler's expansion recorded once per epoch) or reading a
//!   repeated plan's stored answer, under one
//!   **bounded** admission budget that sheds excess load with
//!   [`ServiceError::Overloaded`]; a maintenance thread rebuilds HETs
//!   that feedback has marked due.
//! * [`protocol`] — the line protocol (`LOAD` / `EST` / `BATCH` / `STATS`)
//!   spoken by the `xseed-serve` binary, including the structured
//!   `OVERLOADED` shed reply (full reference: `docs/PROTOCOL.md`).
//! * [`server`] — the session front ends: stdin streams and the
//!   nonblocking TCP event loop (a hand-rolled epoll poller from the
//!   `netpoll` crate multiplexing every connection on one thread, with
//!   pipelining, slow-consumer backpressure, a connection limit, an
//!   idle-session timeout, and the per-client [`limiter`]).
//! * [`limiter`] — per-connection token-bucket rate limiting (the
//!   `OVERLOADED rate=…` fairness reply; off by default).
//! * [`persist`] — crash-safe snapshot files (`SAVE` / `LOAD … file:`)
//!   and the `--snapshot-dir` warm start that restores a catalog at boot,
//!   quarantining corrupt files instead of refusing to serve.
//! * [`metrics`] / [`trace`] — the observability layer: hand-rolled
//!   lock-free log-bucketed latency histograms over every pipeline stage
//!   (parse → plan lookup → compile → estimate → rebuild → persistence),
//!   online q-error tracking from `FEEDBACK` observations, and a
//!   fixed-size event trace ring — surfaced by `STATS`, the
//!   Prometheus-style `METRICS` verb, and `TRACE [n]`.
//!
//! ## Architecture
//!
//! The end-to-end tour of the whole system (parse → caches → streaming
//! estimate → HET → catalog epochs → admission → event loop →
//! persistence → observability), with the per-crate map, lives in
//! `docs/ARCHITECTURE.md`; what follows is the serving-layer slice.
//!
//! A request travels left to right on the thread that read it; every
//! stage is bounded, and each box on the estimate path is lock-free or
//! sharded:
//!
//! ```text
//!  clients                    calling thread
//! ┌──────────┐  conn limit   ┌──────────────┐  budget  ┌──────────────────┐
//! │ stdin /  │──────────────▶│ resolve:     │────────▶ │ estimate / batch │
//! │ TCP      │  idle timeout │  snapshot    │  short?  │ (frontier-memo   │
//! │ sessions │               │  (Arc clone) │  OVER-   │  replay)         │
//! └──────────┘               │  plan cache  │  LOADED  └────────┬─────────┘
//!                            │  reserve     │                   │
//!                            └──────┬───────┘                   │
//!                                   │ resolve                   │ estimate
//!                            ┌──────▼───────────────────────────▼──────────┐
//!                            │ Catalog: name → epoch-versioned snapshot    │
//!                            │  SynopsisSnapshot = frozen CSR kernel + HET │
//!                            │   + config + shared FrontierMemo            │
//!                            │   + per-snapshot CompiledPlanCache          │
//!                            └─────────────────────────────────────────────┘
//! ```
//!
//! A request resolves its snapshot (`Arc` clone) and plan (sharded-LRU
//! plan-cache lookup) before it runs, so a `LOAD`/update publishes a
//! fresh epoch while in-flight estimates finish on the epoch they started
//! with. An `EST` (point or bound), a `BATCH` or a `FEEDBACK` reserves
//! its cost in queries against one admission budget before anything runs
//! — excess load degrades into an immediate structured `OVERLOADED` reply
//! rather than an unbounded backlog — and then runs on the calling
//! thread, which waits for the answer anyway. On the hot path, a
//! plan-cache hit also hits the snapshot's compiled-query cache,
//! skipping label resolution, and a plan already estimated on the
//! snapshot reads the answer stored in its compiled entry, skipping the
//! replay; epoch bumps invalidate both for free because a new snapshot
//! starts with a new cache.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use xseed_service::{Catalog, Service, ServiceConfig};
//! use xseed_core::{XseedConfig, XseedSynopsis};
//!
//! let catalog = Arc::new(Catalog::new());
//! let doc = xmlkit::Document::parse_str(
//!     "<lib><book><title/><author/></book><book><title/></book></lib>",
//! ).unwrap();
//! catalog.insert("lib", XseedSynopsis::build(&doc, XseedConfig::default()));
//!
//! let service = Service::new(catalog, ServiceConfig::with_workers(2));
//! let est = service.estimate("lib", "/lib/book/title").unwrap();
//! assert!((est - 2.0).abs() < 1e-9);
//! let batch = service
//!     .estimate_batch("lib", &["/lib/book", "/lib/book[author]/title"])
//!     .unwrap();
//! assert_eq!(batch.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod limiter;
pub mod metrics;
pub mod persist;
pub mod plan_cache;
pub mod protocol;
pub mod server;
pub mod service;
pub mod trace;

pub use catalog::{
    Catalog, CatalogFeedback, CatalogFeedbackBatch, DocumentInfo, FeedbackItem, MaintenancePolicy,
    RebuildError, SnapshotError,
};
pub use limiter::{RateLimiter, TokenBucket};
pub use metrics::{format_milli_q, q_error_milli, Histogram, HistogramSnapshot, Obs, Stage};
pub use persist::{warm_start, write_snapshot_file, WarmStart, SNAPSHOT_EXTENSION};
pub use plan_cache::{PlanCache, PlanCacheStats};
pub use protocol::{handle_line, run_script, ProtocolOptions, Response};
pub use server::{serve_stream, ServerConfig, TcpServer};
pub use service::{
    RebuildTicket, Reservation, Service, ServiceConfig, ServiceError, ServiceFeedback,
    ServiceFeedbackBatch, ServiceStats, WorkerPause,
};
pub use trace::{TraceEvent, TraceKind, TraceRing};
