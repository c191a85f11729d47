//! Embedded concurrent query/ingest service for MithriLog.
//!
//! The core crate exposes a single-caller facade: one query at a time owns
//! the whole datapath. Production log stores multiplex many concurrent
//! searches over shared storage, and the paper's accelerator sustains
//! wire-speed filtering precisely so that one device can serve many
//! analysts. This crate turns the parallel datapath into that shared,
//! multi-tenant resource:
//!
//! * **admission control** — a bounded submission queue with explicit
//!   [`SubmitError::Rejected`] errors, so overload degrades predictably
//!   instead of piling up unbounded work;
//! * **fair scheduling** — FIFO within priority classes
//!   ([`Priority::High`] before [`Priority::Normal`] before
//!   [`Priority::Low`]), with per-query page (deadline) budgets that
//!   convert overruns into the existing degraded-read partial-result path
//!   rather than hangs;
//! * **cross-query page sharing** — concurrently admitted queries run as
//!   one shared scan ([`MithriLog::query_shared`]): overlapping page plans
//!   are read and LZAH-decompressed once and fanned out to every waiting
//!   query's compiled filter, with cost attribution split by share count;
//! * **concurrent ingest** — [`ServiceHandle::ingest`] builds a batch's
//!   page frames (compression + page analysis) on the submitting thread,
//!   beside whatever the scheduler is running; the scheduler only applies
//!   the finished frames, alone between waves, so the CPU-heavy half never
//!   stops the world; [`ServiceConfig::retain_segments`] bounds the store
//!   by dropping the oldest sealed segments crash-consistently after each
//!   ingest;
//! * **multi-device topologies** — the scheduler always drives a
//!   [`mithrilog_shard::ShardedLog`] of one or more devices, whose
//!   scatter-gather results stay byte-identical to a single-device run
//!   (`mithrilog serve --shards N`); a bare [`mithrilog::MithriLog`]
//!   handed to [`Service::spawn`] is adopted as a one-shard topology;
//! * **per-tenant fairness** — jobs may carry a tenant tag: tagged queries
//!   interleave round-robin across tenants within each priority lane,
//!   [`ServiceConfig::tenant_max_queued`] caps how much of the shared
//!   queue one tenant can occupy, [`ServiceConfig::tenant_page_budget`]
//!   bounds each tagged query's scan, and `STATS` reports per-tenant and
//!   per-shard counters;
//! * **front-ends** — the in-process [`ServiceHandle`] API, and a TCP line
//!   protocol ([`protocol`], [`server`]) the CLI exposes as
//!   `mithrilog serve`;
//! * **fault domains** — per-query modeled-time deadlines that clip plans
//!   into honest partial results, mid-scan cancellation at page
//!   granularity, panic isolation (a poisoned wave fails only its own
//!   jobs), an online scrub lane that verifies pages during idle gaps and
//!   quarantines bad ones, and per-connection timeouts/line bounds on the
//!   TCP front-end.
//!
//! Determinism is preserved end to end: for a fixed snapshot, every
//! query's outcome is byte-identical to running it alone — batching changes
//! only the physical read count, reported separately per wave.
//!
//! [`MithriLog::query_shared`]: mithrilog::MithriLog::query_shared
//!
//! # Example
//!
//! ```
//! use mithrilog::{MithriLog, SystemConfig};
//! use mithrilog_service::{JobOutput, Priority, Service, ServiceConfig};
//!
//! let mut system = MithriLog::new(SystemConfig::for_tests());
//! system.ingest(b"RAS KERNEL FATAL data storage interrupt\n")?;
//! let service = Service::spawn(system, ServiceConfig::default());
//! let handle = service.handle();
//! let id = handle.submit_str("FATAL", Priority::Normal).unwrap();
//! match handle.wait(id).unwrap() {
//!     JobOutput::Query { outcome, .. } => assert_eq!(outcome.lines.len(), 1),
//!     other => panic!("expected a query result, got {other:?}"),
//! }
//! service.shutdown();
//! # Ok::<(), mithrilog::MithriLogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod server;
mod service;

pub use mithrilog_shard::ShardRow;
pub use service::{
    JobId, JobOutput, JobStatus, Priority, Service, ServiceConfig, ServiceHandle, ServiceStats,
    SubmitError, TenantStats, WaitError,
};
