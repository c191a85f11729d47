//! Simulated page-addressed SSD for MithriLog.
//!
//! The paper's prototype is four BlueDBM flash cards behind two FPGAs,
//! presenting 4.8 GB/s of *internal* bandwidth but only 3.1 GB/s of PCIe
//! bandwidth to the host — the asymmetry near-storage computation exploits.
//! This crate substitutes that hardware with:
//!
//! * a functional page store ([`MemStore`] in RAM, [`FileStore`] on disk)
//!   holding fixed-size pages addressed by [`PageId`];
//! * an explicit, documented performance model ([`DevicePerfModel`]) with
//!   the prototype's latency/bandwidth/channel parameters, used to convert
//!   access traces into modeled elapsed time;
//! * [`SimSsd`], which pairs the two and keeps a [`CostLedger`] of every
//!   access so higher layers can report both functional results and modeled
//!   device time;
//! * an integrity layer: per-page CRC32 checksums verified on every read
//!   (surfacing silent corruption as [`StorageError::Corrupt`]), bounded
//!   retries of transient read failures per [`RetryPolicy`], and a
//!   full-device [`SimSsd::scrub`] scan producing a [`ScrubReport`];
//! * concurrency: shared-access read handles ([`SsdReader`]) let N workers
//!   (the paper's N filter pipelines on parallel flash channels) scan
//!   disjoint page batches at once, each charging a private [`CostLedger`]
//!   merged back afterwards ([`SimSsd::merge_ledger`]);
//! * deterministic fault injection ([`FaultyStore`] driven by a seeded
//!   [`FaultPlan`]) for reproducible corruption and recovery drills;
//! * crash consistency: a dual-slot, CRC-protected [`Superblock`] flipped
//!   write-new-then-swap at each commit, a backward-chained journal of
//!   [`CommitRecord`] manifests, explicit [`PageStore::sync`] barriers,
//!   and deterministic power-loss injection ([`CrashStore`] driven by a
//!   [`CrashPlan`]) that freezes the store at exactly the bytes a real
//!   crash would leave — including torn tail writes.
//!
//! # Example
//!
//! ```
//! use mithrilog_storage::{DevicePerfModel, MemStore, SimSsd};
//!
//! let mut ssd = SimSsd::new(MemStore::new(4096), DevicePerfModel::bluedbm_prototype());
//! let id = ssd.append(b"hello page")?;
//! let page = ssd.read(id)?;
//! assert_eq!(&page[..10], b"hello page");
//! assert_eq!(ssd.ledger().pages_read, 1);
//! # Ok::<(), mithrilog_storage::StorageError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crash;
mod crc;
mod device;
mod error;
mod faults;
mod journal;
mod perf;
mod rng;
mod superblock;

pub use crash::{CrashHandle, CrashPlan, CrashStore};
pub use crc::{crc32, crc32_padded, Crc32};
pub use device::{
    CorruptPage, FileStore, MemStore, PageId, PageStore, RetryPolicy, ScrubReport, ScrubSlice,
    SimSsd, SsdReader,
};
pub use error::{ConfigError, StorageError};
pub use faults::{FaultKind, FaultPlan, FaultyStore, InjectedFault};
pub use journal::{
    append_commit, append_record, replay as replay_journal, CommitRecord, DropRecord,
    JournalRecord, SealRecord,
};
pub use perf::{CostLedger, DevicePerfModel, Link};
pub use superblock::{
    append_blob, format_device, read_active as read_active_superblock, read_blob,
    write_commit as write_superblock_commit, CheckpointRef, Superblock,
};
