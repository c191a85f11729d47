//! MithriLog: a near-storage accelerated log analytics system
//! (MICRO '21), reproduced as a functional software model plus an analytic
//! hardware timing model.
//!
//! This crate is the facade tying the substrates together into the full
//! system of the paper's Figure 2:
//!
//! * **ingest** — log text is LZAH-compressed into independently
//!   decompressible 4 KB page frames (`mithrilog-compress`), appended to
//!   the simulated SSD (`mithrilog-storage`), and indexed by the
//!   in-storage inverted index (`mithrilog-index`);
//! * **query** — a union-of-intersections query (`mithrilog-query`) is
//!   compiled onto the cuckoo-hash filter (`mithrilog-filter`); the index
//!   plans the page set; pages stream through decompression and the filter
//!   pipeline; matching lines return to the host. Every access is costed by
//!   the device performance model, and the accelerator timing model
//!   (`mithrilog-sim`) converts the work into modeled elapsed time.
//!
//! # Example
//!
//! ```
//! use mithrilog::{MithriLog, SystemConfig};
//!
//! let mut system = MithriLog::new(SystemConfig::default());
//! let log = "\
//! RAS KERNEL INFO cache parity error corrected\n\
//! RAS KERNEL FATAL data storage interrupt\n\
//! RAS APP FATAL ciod: Error loading program\n";
//! system.ingest(log.as_bytes())?;
//! let outcome = system.query_str("FATAL AND NOT ciod:")?;
//! assert_eq!(outcome.lines.len(), 1);
//! assert!(outcome.lines[0].contains("data storage interrupt"));
//! # Ok::<(), mithrilog::MithriLogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmaps;
mod cache;
mod config;
mod control;
mod error;
mod exec;
mod le;
mod outcome;
mod system;

pub use cache::{CachedPage, PageCache};
pub use config::SystemConfig;
pub use control::CancelToken;
pub use error::MithriLogError;
pub use outcome::{
    DegradedRead, IndexRecovery, IngestReport, PlanExplain, QueryOutcome, RecoveryReport,
    RetentionReport, ScanAttribution, SegmentExplain, SegmentSummary, SharedBatchOutcome,
    SharedScanReport,
};
pub use system::{MithriLog, PreparedIngest, QueryRequest};
