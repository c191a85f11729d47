use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use bytes::Bytes;
use parking_lot::Mutex;

use std::collections::BTreeSet;

use crate::crc::{crc32, crc32_padded};
use crate::error::{ConfigError, StorageError};
use crate::perf::{CostLedger, DevicePerfModel};
use crate::superblock::Superblock;

/// Identifier of one fixed-size page on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// The raw page number.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A page-granular storage backend.
///
/// Writes shorter than a page are zero-padded; the page size is fixed at
/// construction. Implementations must be usable from `&self` for reads so a
/// query path can run while holding shared references.
pub trait PageStore: Send + Sync {
    /// Page size in bytes.
    fn page_bytes(&self) -> usize;

    /// Pages currently allocated.
    fn page_count(&self) -> u64;

    /// Reads page `id` in full.
    ///
    /// # Errors
    ///
    /// [`StorageError::OutOfRange`] if `id` is unallocated; I/O errors for
    /// file-backed stores.
    fn read_page(&self, id: PageId) -> Result<Bytes, StorageError>;

    /// Appends `data` as a new page (zero-padded), returning its id.
    ///
    /// # Errors
    ///
    /// [`StorageError::Oversized`] if `data` exceeds one page; I/O errors
    /// for file-backed stores.
    fn append_page(&mut self, data: &[u8]) -> Result<PageId, StorageError>;

    /// Overwrites an existing page (used by index snapshots).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PageStore::read_page`] and
    /// [`PageStore::append_page`].
    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError>;

    /// Durability barrier: every write issued before this call is persisted
    /// before any write issued after it. [`FileStore`] maps this to
    /// `File::sync_all`; [`MemStore`] is a no-op (RAM is its durable
    /// medium); crash-injection wrappers use it as the flush point of their
    /// simulated volatile write cache.
    ///
    /// # Errors
    ///
    /// I/O errors for file-backed stores; [`StorageError::Crashed`] from
    /// crash-injection wrappers.
    fn sync(&mut self) -> Result<(), StorageError>;

    /// Discards every page with id ≥ `pages`, shrinking the extent. A
    /// `pages` at or beyond the current extent is a no-op. Used by recovery
    /// to drop the uncommitted tail after a crash.
    ///
    /// # Errors
    ///
    /// I/O errors for file-backed stores.
    fn truncate(&mut self, pages: u64) -> Result<(), StorageError>;
}

/// In-memory page store: the default functional backend.
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    pages: Vec<Bytes>,
    page_bytes: usize,
}

impl MemStore {
    /// Creates an empty store with the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is zero.
    pub fn new(page_bytes: usize) -> Self {
        assert!(page_bytes > 0, "page size must be positive");
        MemStore {
            pages: Vec::new(),
            page_bytes,
        }
    }

    fn pad(&self, data: &[u8]) -> Result<Bytes, StorageError> {
        if data.len() > self.page_bytes {
            return Err(StorageError::Oversized {
                got: data.len(),
                page_bytes: self.page_bytes,
            });
        }
        let mut buf = vec![0u8; self.page_bytes];
        buf[..data.len()].copy_from_slice(data);
        Ok(Bytes::from(buf))
    }
}

impl PageStore for MemStore {
    fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    fn read_page(&self, id: PageId) -> Result<Bytes, StorageError> {
        self.pages
            .get(id.0 as usize)
            .cloned()
            .ok_or(StorageError::OutOfRange {
                page: id.0,
                extent: self.pages.len() as u64,
            })
    }

    fn append_page(&mut self, data: &[u8]) -> Result<PageId, StorageError> {
        let page = self.pad(data)?;
        self.pages.push(page);
        Ok(PageId(self.pages.len() as u64 - 1))
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        if id.0 as usize >= self.pages.len() {
            return Err(StorageError::OutOfRange {
                page: id.0,
                extent: self.pages.len() as u64,
            });
        }
        let page = self.pad(data)?;
        self.pages[id.0 as usize] = page;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    fn truncate(&mut self, pages: u64) -> Result<(), StorageError> {
        if (pages as usize) < self.pages.len() {
            self.pages.truncate(pages as usize);
        }
        Ok(())
    }
}

/// File-backed page store for corpora larger than RAM.
#[derive(Debug)]
pub struct FileStore {
    file: Mutex<File>,
    page_bytes: usize,
    page_count: u64,
}

impl FileStore {
    /// Creates (truncating) a file-backed store at `path`.
    ///
    /// Refuses to truncate a file that already carries a valid MithriLog
    /// superblock — an existing store must be opened with
    /// [`FileStore::open`] or deleted explicitly first.
    ///
    /// # Errors
    ///
    /// [`StorageError::InvalidSuperblock`] if `path` holds a formatted
    /// store; otherwise propagates file creation errors.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is zero.
    pub fn create(path: &Path, page_bytes: usize) -> Result<Self, StorageError> {
        assert!(page_bytes > 0, "page size must be positive");
        if let Ok(mut existing) = File::open(path) {
            if let Some((sb, _)) = Self::probe_superblock(&mut existing) {
                return Err(StorageError::InvalidSuperblock(format!(
                    "refusing to truncate {}: it holds a formatted store \
                     (sequence {}, {} committed pages); open it with \
                     FileStore::open or delete it first",
                    path.display(),
                    sb.sequence,
                    sb.committed_pages
                )));
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileStore {
            file: Mutex::new(file),
            page_bytes,
            page_count: 0,
        })
    }

    /// Opens an existing formatted store at `path`, discovering the page
    /// size from the superblock instead of trusting the caller.
    ///
    /// Either superblock slot may be torn (a crash during a superblock flip
    /// is survivable by design), so slot 0 at offset 0 is tried first and
    /// then slot 1 is probed at every supported power-of-two page size. A
    /// trailing partial page (torn tail append) is excluded from the extent.
    ///
    /// # Errors
    ///
    /// [`StorageError::InvalidSuperblock`] if no slot validates; I/O errors
    /// from opening the file.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut file = file;
        let (_, page_bytes) = Self::probe_superblock(&mut file).ok_or_else(|| {
            StorageError::InvalidSuperblock(format!(
                "{}: no valid superblock in either slot",
                path.display()
            ))
        })?;
        let len = file.metadata()?.len();
        let page_count = len / page_bytes as u64;
        Ok(FileStore {
            file: Mutex::new(file),
            page_bytes,
            page_count,
        })
    }

    /// Tries to find a valid superblock in `file`: slot 0 at offset 0, then
    /// slot 1 at offset `p` for each supported page size `p`. Returns the
    /// decoded superblock and the store's page size.
    fn probe_superblock(file: &mut File) -> Option<(Superblock, usize)> {
        let mut read_at = |offset: u64| -> Option<Superblock> {
            let mut buf = [0u8; Superblock::HEADER_BYTES];
            file.seek(SeekFrom::Start(offset)).ok()?;
            file.read_exact(&mut buf).ok()?;
            Superblock::decode(&buf).ok()
        };
        if let Some(sb) = read_at(0) {
            let pb = sb.page_bytes as usize;
            return Some((sb, pb));
        }
        for &pb in Superblock::CANDIDATE_PAGE_SIZES {
            if let Some(sb) = read_at(pb as u64) {
                if sb.page_bytes as usize == pb {
                    return Some((sb, pb));
                }
            }
        }
        None
    }
}

impl PageStore for FileStore {
    fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    fn page_count(&self) -> u64 {
        self.page_count
    }

    fn read_page(&self, id: PageId) -> Result<Bytes, StorageError> {
        if id.0 >= self.page_count {
            return Err(StorageError::OutOfRange {
                page: id.0,
                extent: self.page_count,
            });
        }
        let mut buf = vec![0u8; self.page_bytes];
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id.0 * self.page_bytes as u64))?;
        file.read_exact(&mut buf)?;
        Ok(Bytes::from(buf))
    }

    fn append_page(&mut self, data: &[u8]) -> Result<PageId, StorageError> {
        if data.len() > self.page_bytes {
            return Err(StorageError::Oversized {
                got: data.len(),
                page_bytes: self.page_bytes,
            });
        }
        let mut buf = vec![0u8; self.page_bytes];
        buf[..data.len()].copy_from_slice(data);
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(self.page_count * self.page_bytes as u64))?;
        file.write_all(&buf)?;
        let id = PageId(self.page_count);
        self.page_count += 1;
        Ok(id)
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        if id.0 >= self.page_count {
            return Err(StorageError::OutOfRange {
                page: id.0,
                extent: self.page_count,
            });
        }
        if data.len() > self.page_bytes {
            return Err(StorageError::Oversized {
                got: data.len(),
                page_bytes: self.page_bytes,
            });
        }
        let mut buf = vec![0u8; self.page_bytes];
        buf[..data.len()].copy_from_slice(data);
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id.0 * self.page_bytes as u64))?;
        file.write_all(&buf)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.file.lock().sync_all()?;
        Ok(())
    }

    fn truncate(&mut self, pages: u64) -> Result<(), StorageError> {
        if pages < self.page_count {
            self.file.lock().set_len(pages * self.page_bytes as u64)?;
            self.page_count = pages;
        }
        Ok(())
    }
}

/// How the device handles transient read failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total read attempts per page, including the first. Must be ≥ 1.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    /// Checks the policy's invariants: at least one read attempt.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when `max_attempts` is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_attempts < 1 {
            return Err(ConfigError::new(
                "retry policy must allow at least one read attempt (max_attempts >= 1)",
            ));
        }
        Ok(())
    }
}

impl Default for RetryPolicy {
    /// Real controllers retry a handful of times with shifted read voltages
    /// before declaring a page unreadable; three attempts models that.
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

/// One corrupt page found by [`SimSsd::scrub`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptPage {
    /// The corrupt page.
    pub page: u64,
    /// Checksum recorded at write time.
    pub expected: u32,
    /// Checksum of the data read back.
    pub got: u32,
}

/// Result of an integrity scan ([`SimSsd::scrub`], [`SimSsd::scrub_slice`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Pages examined (the scanned extent, including quarantine skips).
    pub pages_checked: u64,
    /// Pages whose checksum did not match.
    pub corrupt: Vec<CorruptPage>,
    /// Pages that stayed unreadable after exhausting read retries.
    pub unreadable: Vec<u64>,
    /// Pages with no recorded checksum (written behind the device's back);
    /// their integrity cannot be judged.
    pub unverified: Vec<u64>,
    /// Transient read retries spent during the scan.
    pub retries: u64,
    /// Pages this scan newly added to the quarantine (every corrupt or
    /// retry-exhausted page), sorted.
    pub quarantined: Vec<u64>,
    /// Pages skipped because they were already quarantined by an earlier
    /// scan; no flash access was paid for them.
    pub already_quarantined: u64,
    /// Pruning-bitmap sidecars dropped because they failed verification
    /// (bad CRC, undecodable, or wrong geometry). The device itself never
    /// sets this; higher layers that scrub their sidecars fold it in. A
    /// dropped sidecar costs performance (plans fall back to conservative
    /// page sets), never correctness.
    pub bitmaps_dropped: u64,
}

impl ScrubReport {
    /// Whether every checked page verified clean and nothing sits in
    /// quarantine.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && self.unreadable.is_empty() && self.already_quarantined == 0
    }

    /// Folds another slice's findings into this report (used to aggregate
    /// the bounded slices of an online scrub into one pass-level report).
    pub fn merge(&mut self, other: &ScrubReport) {
        self.pages_checked += other.pages_checked;
        self.corrupt.extend_from_slice(&other.corrupt);
        self.unreadable.extend_from_slice(&other.unreadable);
        self.unverified.extend_from_slice(&other.unverified);
        self.retries += other.retries;
        self.quarantined.extend_from_slice(&other.quarantined);
        self.already_quarantined += other.already_quarantined;
        self.bitmaps_dropped += other.bitmaps_dropped;
    }
}

impl std::fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scrubbed {} pages: {} corrupt, {} unreadable, {} unverified, \
             {} retries, {} quarantined",
            self.pages_checked,
            self.corrupt.len(),
            self.unreadable.len(),
            self.unverified.len(),
            self.retries,
            self.quarantined.len()
        )
    }
}

/// Outcome of one bounded scrub slice ([`SimSsd::scrub_slice`]): the
/// findings plus the cursor an online scrub lane resumes from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubSlice {
    /// Integrity findings for the pages in this slice.
    pub report: ScrubReport,
    /// The page id the next slice should start from.
    pub next: u64,
    /// Whether this slice reached the end of the device — the pass is
    /// complete and `next` has wrapped to page 0.
    pub complete: bool,
}

/// A simulated SSD: a [`PageStore`] plus a [`DevicePerfModel`] and a
/// [`CostLedger`] recording every access for modeled-time reporting.
///
/// The device also keeps a per-page CRC32 sidecar — modeling the out-of-band
/// area flash controllers use for integrity metadata — and verifies it on
/// every read, surfacing silent corruption as [`StorageError::Corrupt`].
/// Transient read failures are retried per the [`RetryPolicy`], with each
/// re-read charged to the ledger.
#[derive(Debug)]
pub struct SimSsd<S> {
    store: S,
    model: DevicePerfModel,
    ledger: CostLedger,
    crc: Vec<Option<u32>>,
    retry: RetryPolicy,
    /// Pages a scrub found corrupt or unreadable: reads fail up front with
    /// [`StorageError::Quarantined`] — no flash access, no retries — until
    /// the page is rewritten through the device.
    quarantine: BTreeSet<u64>,
}

impl<S: PageStore> SimSsd<S> {
    /// Wraps a store with a performance model.
    ///
    /// Pages already present in `store` have no recorded checksum and read
    /// unverified until rewritten through the device.
    pub fn new(store: S, model: DevicePerfModel) -> Self {
        let crc = vec![None; usize::try_from(store.page_count()).unwrap_or(usize::MAX)];
        SimSsd {
            store,
            model,
            ledger: CostLedger::default(),
            crc,
            retry: RetryPolicy::default(),
            quarantine: BTreeSet::new(),
        }
    }

    /// Replaces the transient-read retry policy.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when the policy fails [`RetryPolicy::validate`]; the
    /// previous policy stays in effect.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) -> Result<(), ConfigError> {
        retry.validate()?;
        self.retry = retry;
        Ok(())
    }

    /// The transient-read retry policy in effect.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The performance model in use.
    pub fn model(&self) -> &DevicePerfModel {
        &self.model
    }

    /// Access counters accumulated so far.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Resets the access counters.
    pub fn clear_ledger(&mut self) {
        self.ledger.clear();
    }

    /// The underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the underlying store.
    ///
    /// Writes made here bypass the checksum sidecar — they model corruption
    /// happening behind the controller's back, and a later [`SimSsd::read`]
    /// of an affected page reports [`StorageError::Corrupt`]. Intended for
    /// fault drills and tests.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.store.page_bytes()
    }

    /// Pages allocated.
    pub fn page_count(&self) -> u64 {
        self.store.page_count()
    }

    /// Appends a page.
    ///
    /// # Errors
    ///
    /// See [`PageStore::append_page`].
    pub fn append(&mut self, data: &[u8]) -> Result<PageId, StorageError> {
        let checksum = crc32_padded(data, self.store.page_bytes());
        let id = self.store.append_page(data)?;
        self.record_crc(id, checksum);
        self.ledger.pages_written += 1;
        self.ledger.bytes_written += data.len() as u64;
        Ok(id)
    }

    /// Overwrites a page.
    ///
    /// # Errors
    ///
    /// See [`PageStore::write_page`].
    pub fn write(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        let checksum = crc32_padded(data, self.store.page_bytes());
        self.store.write_page(id, data)?;
        self.record_crc(id, checksum);
        self.ledger.pages_written += 1;
        self.ledger.bytes_written += data.len() as u64;
        Ok(())
    }

    /// Reads a page as part of a bandwidth-bound batch, verifying its
    /// checksum and retrying transient failures per the [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// See [`PageStore::read_page`]; additionally [`StorageError::Corrupt`]
    /// if the page fails verification, or [`StorageError::TransientRead`]
    /// if retries are exhausted.
    pub fn read(&mut self, id: PageId) -> Result<Bytes, StorageError> {
        self.read_with(id, false)
    }

    /// Reads a page as one step of a dependent chain (latency-exposed, e.g.
    /// linked-list traversal in the inverted index).
    ///
    /// # Errors
    ///
    /// See [`SimSsd::read`].
    pub fn read_dependent(&mut self, id: PageId) -> Result<Bytes, StorageError> {
        self.read_with(id, true)
    }

    /// Issues a durability barrier to the underlying store and charges it
    /// to the ledger.
    ///
    /// # Errors
    ///
    /// See [`PageStore::sync`].
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.store.sync()?;
        self.ledger.syncs += 1;
        Ok(())
    }

    /// Discards every page with id ≥ `pages` (and its checksum sidecar and
    /// quarantine entries). Used by recovery to drop an uncommitted tail.
    ///
    /// # Errors
    ///
    /// See [`PageStore::truncate`].
    pub fn truncate(&mut self, pages: u64) -> Result<(), StorageError> {
        self.store.truncate(pages)?;
        let keep = usize::try_from(pages).unwrap_or(usize::MAX);
        if keep < self.crc.len() {
            self.crc.truncate(keep);
        }
        let _dropped = self.quarantine.split_off(&pages);
        Ok(())
    }

    /// The quarantined pages, sorted.
    pub fn quarantined_pages(&self) -> Vec<u64> {
        self.quarantine.iter().copied().collect()
    }

    /// Whether `page` is quarantined.
    pub fn is_quarantined(&self, page: u64) -> bool {
        self.quarantine.contains(&page)
    }

    /// Manually quarantines `page` (operational tooling and drills); a
    /// rewrite through the device lifts the quarantine.
    pub fn quarantine_page(&mut self, page: u64) {
        self.quarantine.insert(page);
    }

    /// The checksum sidecar entry for `page`: `Some` for pages written
    /// through the device, `None` for pre-existing pages (written before
    /// mount, or behind the device's back) whose integrity is unverifiable.
    pub fn page_crc(&self, page: u64) -> Option<u32> {
        self.crc.get(usize::try_from(page).ok()?).copied().flatten()
    }

    fn read_with(&mut self, id: PageId, dependent: bool) -> Result<Bytes, StorageError> {
        checked_read(
            &self.store,
            &self.crc,
            &self.quarantine,
            self.retry,
            &mut self.ledger,
            id,
            dependent,
        )
    }

    /// A shared-access read handle: N readers taken from the same device can
    /// scan concurrently (the paper's parallel flash channels feeding N
    /// filter pipelines), each charging a private [`CostLedger`]. Merge the
    /// per-reader ledgers back with [`SimSsd::merge_ledger`] once the scan
    /// joins; the merged totals equal a sequential scan's exactly.
    pub fn reader(&self) -> SsdReader<'_, S> {
        SsdReader {
            store: &self.store,
            crc: &self.crc,
            quarantine: &self.quarantine,
            retry: self.retry,
            ledger: CostLedger::default(),
        }
    }

    /// Folds a reader's (or any worker's) ledger into the device ledger.
    pub fn merge_ledger(&mut self, delta: &CostLedger) {
        self.ledger.merge(delta);
    }

    fn record_crc(&mut self, id: PageId, checksum: u32) {
        let idx = id.0 as usize;
        if idx >= self.crc.len() {
            self.crc.resize(idx + 1, None);
        }
        self.crc[idx] = Some(checksum);
        // A rewrite through the device carries fresh, verified content:
        // the quarantine is lifted.
        self.quarantine.remove(&id.0);
    }

    /// Scans the whole device, verifying every page's checksum, and returns
    /// a corruption report. Reads (and transient retries) are charged to the
    /// ledger like any other access — a scrub is a real full-device scan.
    /// Corrupt and retry-exhausted pages are quarantined (see
    /// [`SimSsd::scrub_slice`]): a full scrub is one unbounded slice.
    pub fn scrub(&mut self) -> ScrubReport {
        self.scrub_slice(0, u64::MAX).report
    }

    /// Scrubs a bounded slice of the device: at most `max_pages` pages
    /// starting at page `start`, wrapping `start` into range. The building
    /// block of an *online* scrub — a service interleaves slices with query
    /// waves instead of stalling on a full pass.
    ///
    /// Every corrupt or retry-exhausted page found is added to the
    /// quarantine, so later reads fail up front ([`StorageError::Quarantined`])
    /// with zero flash charges instead of re-paying retries per query.
    /// Already-quarantined pages are counted and skipped without a read;
    /// unverified pages (no recorded checksum) cannot be judged and are
    /// never quarantined.
    pub fn scrub_slice(&mut self, start: u64, max_pages: u64) -> ScrubSlice {
        let extent = self.page_count();
        if extent == 0 {
            return ScrubSlice {
                complete: true,
                ..ScrubSlice::default()
            };
        }
        let start = start.min(extent);
        let end = start.saturating_add(max_pages).min(extent);
        let mut report = ScrubReport {
            pages_checked: end - start,
            ..ScrubReport::default()
        };
        for page in start..end {
            self.scrub_one(page, &mut report);
        }
        let complete = end >= extent;
        ScrubSlice {
            report,
            next: if complete { 0 } else { end },
            complete,
        }
    }

    /// Scrubs an explicit page set — the segment-scoped integrity scan. A
    /// sealed segment is its own fault domain, so its pages can be verified
    /// (and quarantined on failure) without touching the rest of the device.
    /// Same charging and quarantine semantics as [`SimSsd::scrub_slice`];
    /// out-of-range ids are counted as unreadable without a flash access.
    pub fn scrub_pages(&mut self, pages: &[u64]) -> ScrubReport {
        let extent = self.page_count();
        let mut report = ScrubReport {
            pages_checked: pages.len() as u64,
            ..ScrubReport::default()
        };
        for &page in pages {
            if page >= extent {
                report.unreadable.push(page);
                continue;
            }
            self.scrub_one(page, &mut report);
        }
        report
    }

    /// Checks one page for [`SimSsd::scrub_slice`] / [`SimSsd::scrub_pages`]:
    /// reads it through the verifying path, records the finding, and
    /// quarantines it on corruption or retry exhaustion.
    fn scrub_one(&mut self, page: u64, report: &mut ScrubReport) {
        if self.quarantine.contains(&page) {
            report.already_quarantined += 1;
            return;
        }
        let id = PageId(page);
        let retries_before = self.ledger.retries;
        match self.read(id) {
            Ok(_) => {
                if self.crc.get(page as usize).copied().flatten().is_none() {
                    report.unverified.push(page);
                }
            }
            Err(StorageError::Corrupt {
                page,
                expected,
                got,
            }) => {
                report.corrupt.push(CorruptPage {
                    page,
                    expected,
                    got,
                });
                self.quarantine.insert(page);
                report.quarantined.push(page);
            }
            Err(_) => {
                report.unreadable.push(page);
                self.quarantine.insert(page);
                report.quarantined.push(page);
            }
        }
        report.retries += self.ledger.retries - retries_before;
    }
}

/// Shared read path: the transient-retry loop plus checksum verification,
/// charging `ledger`. Used both by the device's own `&mut self` reads and by
/// [`SsdReader`] handles for concurrent `&self` access, so the two paths
/// cannot drift apart.
fn checked_read<S: PageStore>(
    store: &S,
    crc: &[Option<u32>],
    quarantine: &BTreeSet<u64>,
    retry: RetryPolicy,
    ledger: &mut CostLedger,
    id: PageId,
    dependent: bool,
) -> Result<Bytes, StorageError> {
    // The controller consults its quarantine table before issuing any flash
    // command: a quarantined page costs nothing — no read, no retries.
    if quarantine.contains(&id.0) {
        return Err(StorageError::Quarantined { page: id.0 });
    }
    let mut attempt = 0;
    loop {
        attempt += 1;
        match store.read_page(id) {
            Ok(page) => {
                ledger.pages_read += 1;
                if dependent {
                    ledger.dependent_visits += 1;
                }
                ledger.bytes_read += page.len() as u64;
                if let Some(&Some(expected)) = crc.get(id.0 as usize) {
                    let got = crc32(&page);
                    if got != expected {
                        return Err(StorageError::Corrupt {
                            page: id.0,
                            expected,
                            got,
                        });
                    }
                }
                return Ok(page);
            }
            Err(e) if e.is_transient() && attempt < retry.max_attempts => {
                // Each re-read pays a full flash access in the model.
                ledger.retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// A shared-access read handle onto a [`SimSsd`], created with
/// [`SimSsd::reader`].
///
/// The handle borrows the store, the checksum sidecar, and the retry policy
/// immutably — [`PageStore`] reads are `&self` — and accumulates access
/// costs into a private [`CostLedger`]. That lets N workers (the paper's N
/// filter pipelines, each fed by its own flash channel) read disjoint page
/// batches concurrently without contending on the device ledger; each
/// worker's ledger is folded back with [`SimSsd::merge_ledger`] after the
/// scan joins. Reads through a handle carry the same semantics as
/// [`SimSsd::read`]: checksum verification and bounded transient retries.
#[derive(Debug)]
pub struct SsdReader<'a, S> {
    store: &'a S,
    crc: &'a [Option<u32>],
    quarantine: &'a BTreeSet<u64>,
    retry: RetryPolicy,
    ledger: CostLedger,
}

impl<S: PageStore> SsdReader<'_, S> {
    /// Reads a page as part of a bandwidth-bound batch; see [`SimSsd::read`].
    ///
    /// # Errors
    ///
    /// See [`SimSsd::read`].
    pub fn read(&mut self, id: PageId) -> Result<Bytes, StorageError> {
        checked_read(
            self.store,
            self.crc,
            self.quarantine,
            self.retry,
            &mut self.ledger,
            id,
            false,
        )
    }

    /// Reads a page as one step of a dependent chain; see
    /// [`SimSsd::read_dependent`].
    ///
    /// # Errors
    ///
    /// See [`SimSsd::read`].
    pub fn read_dependent(&mut self, id: PageId) -> Result<Bytes, StorageError> {
        checked_read(
            self.store,
            self.crc,
            self.quarantine,
            self.retry,
            &mut self.ledger,
            id,
            true,
        )
    }

    /// Whether `id` is quarantined: reading it would fail up front with
    /// [`StorageError::Quarantined`] and charge nothing. Scan paths check
    /// this *before* any cache lookup so cached and uncached runs stay
    /// byte-identical.
    pub fn is_quarantined(&self, id: PageId) -> bool {
        self.quarantine.contains(&id.0)
    }

    /// Costs charged through this handle so far.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Consumes the handle, returning its accumulated costs for merging via
    /// [`SimSsd::merge_ledger`].
    pub fn into_ledger(self) -> CostLedger {
        self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::Link;

    #[test]
    fn memstore_append_read_roundtrip() {
        let mut s = MemStore::new(4096);
        let a = s.append_page(b"alpha").unwrap();
        let b = s.append_page(b"beta").unwrap();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert_eq!(s.page_count(), 2);
        let page = s.read_page(a).unwrap();
        assert_eq!(&page[..5], b"alpha");
        assert!(page[5..].iter().all(|&x| x == 0), "zero padding expected");
        assert_eq!(page.len(), 4096);
    }

    #[test]
    fn memstore_out_of_range_and_oversized() {
        let mut s = MemStore::new(64);
        assert!(matches!(
            s.read_page(PageId(0)),
            Err(StorageError::OutOfRange { .. })
        ));
        assert!(matches!(
            s.append_page(&[0u8; 65]),
            Err(StorageError::Oversized { .. })
        ));
    }

    #[test]
    fn memstore_overwrite() {
        let mut s = MemStore::new(64);
        let id = s.append_page(b"old").unwrap();
        s.write_page(id, b"new").unwrap();
        assert_eq!(&s.read_page(id).unwrap()[..3], b"new");
        assert!(matches!(
            s.write_page(PageId(7), b"x"),
            Err(StorageError::OutOfRange { .. })
        ));
    }

    #[test]
    fn filestore_roundtrip() {
        let dir = std::env::temp_dir().join("mithrilog-filestore-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        let mut s = FileStore::create(&path, 512).unwrap();
        let ids: Vec<PageId> = (0..10)
            .map(|i| s.append_page(format!("page-{i}").as_bytes()).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            let page = s.read_page(*id).unwrap();
            assert_eq!(
                &page[..6.min(page.len())],
                format!("page-{i}").as_bytes()[..6].as_ref()
            );
        }
        s.write_page(ids[3], b"rewritten").unwrap();
        assert_eq!(&s.read_page(ids[3]).unwrap()[..9], b"rewritten");
        assert!(s.read_page(PageId(10)).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simssd_ledger_tracks_reads_and_writes() {
        let mut ssd = SimSsd::new(MemStore::new(4096), DevicePerfModel::bluedbm_prototype());
        let id = ssd.append(b"data").unwrap();
        ssd.read(id).unwrap();
        ssd.read(id).unwrap();
        ssd.read_dependent(id).unwrap();
        let l = ssd.ledger();
        assert_eq!(l.pages_written, 1);
        assert_eq!(l.pages_read, 3);
        assert_eq!(l.dependent_visits, 1);
        assert_eq!(l.bytes_read, 3 * 4096);
    }

    #[test]
    fn simssd_modeled_time_reflects_access_pattern() {
        let mut ssd = SimSsd::new(MemStore::new(4096), DevicePerfModel::bluedbm_prototype());
        let id = ssd.append(b"x").unwrap();
        for _ in 0..100 {
            ssd.read_dependent(id).unwrap();
        }
        let chained = ssd.ledger().modeled_read_time(ssd.model(), Link::Internal);
        ssd.clear_ledger();
        for _ in 0..100 {
            ssd.read(id).unwrap();
        }
        let batched = ssd.ledger().modeled_read_time(ssd.model(), Link::Internal);
        assert!(
            chained > batched * 10,
            "dependent chains must be far slower: {chained:?} vs {batched:?}"
        );
    }

    #[test]
    fn clear_ledger_resets() {
        let mut ssd = SimSsd::new(MemStore::new(64), DevicePerfModel::default());
        ssd.append(b"x").unwrap();
        ssd.clear_ledger();
        assert_eq!(*ssd.ledger(), CostLedger::default());
    }

    #[test]
    fn reader_matches_device_reads_and_merges_ledger() {
        let mut ssd = SimSsd::new(MemStore::new(4096), DevicePerfModel::bluedbm_prototype());
        let ids: Vec<PageId> = (0..8)
            .map(|i| ssd.append(format!("page {i}").as_bytes()).unwrap())
            .collect();
        ssd.clear_ledger();
        let mut reader = ssd.reader();
        for (i, id) in ids.iter().enumerate() {
            let page = reader.read(*id).unwrap();
            assert_eq!(&page[..6], format!("page {i}").as_bytes());
        }
        reader.read_dependent(ids[0]).unwrap();
        let delta = reader.into_ledger();
        assert_eq!(delta.pages_read, 9);
        assert_eq!(delta.dependent_visits, 1);
        assert_eq!(ssd.ledger().pages_read, 0, "reader charges privately");
        ssd.merge_ledger(&delta);
        assert_eq!(ssd.ledger().pages_read, 9);
        assert_eq!(ssd.ledger().dependent_visits, 1);
    }

    #[test]
    fn concurrent_readers_sum_to_sequential_ledger() {
        let mut ssd = SimSsd::new(MemStore::new(512), DevicePerfModel::default());
        for i in 0..32 {
            ssd.append(format!("page {i}").as_bytes()).unwrap();
        }
        ssd.clear_ledger();
        let deltas: Vec<CostLedger> = std::thread::scope(|scope| {
            let ssd = &ssd;
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    scope.spawn(move || {
                        let mut reader = ssd.reader();
                        for page in (w..32).step_by(4) {
                            reader.read(PageId(page)).unwrap();
                        }
                        reader.into_ledger()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for delta in &deltas {
            ssd.merge_ledger(delta);
        }
        assert_eq!(ssd.ledger().pages_read, 32);
        assert_eq!(ssd.ledger().bytes_read, 32 * 512);
    }

    #[test]
    fn reader_sees_corruption_and_retries_like_the_device() {
        use crate::faults::{FaultKind, FaultPlan, FaultyStore};
        let plan = FaultPlan::seeded(5)
            .with_scheduled(0, FaultKind::BitRot { bit: 17 })
            .with_scheduled(1, FaultKind::TransientRead { failures: 2 });
        let store = FaultyStore::new(MemStore::new(64), plan);
        let mut ssd = SimSsd::new(store, DevicePerfModel::default());
        let rotten = ssd.append(b"rotten").unwrap();
        let flaky = ssd.append(b"flaky").unwrap();
        let mut reader = ssd.reader();
        assert!(matches!(
            reader.read(rotten),
            Err(StorageError::Corrupt { page: 0, .. })
        ));
        assert_eq!(&reader.read(flaky).unwrap()[..5], b"flaky");
        assert_eq!(reader.ledger().retries, 2);
        assert_eq!(reader.ledger().pages_read, 2);
    }

    #[test]
    fn corruption_behind_the_controller_is_detected() {
        let mut ssd = SimSsd::new(MemStore::new(64), DevicePerfModel::default());
        let good = ssd.append(b"good page").unwrap();
        let bad = ssd.append(b"doomed page").unwrap();
        // Writing through the raw store skips the checksum sidecar.
        ssd.store_mut().write_page(bad, b"smashed").unwrap();
        assert!(ssd.read(good).is_ok());
        match ssd.read(bad) {
            Err(StorageError::Corrupt {
                page,
                expected,
                got,
            }) => {
                assert_eq!(page, bad.0);
                assert_ne!(expected, got);
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        // Rewriting through the device restores integrity.
        ssd.write(bad, b"healed").unwrap();
        assert_eq!(&ssd.read(bad).unwrap()[..6], b"healed");
    }

    #[test]
    fn preexisting_pages_read_unverified() {
        let mut store = MemStore::new(64);
        store.append_page(b"legacy").unwrap();
        let mut ssd = SimSsd::new(store, DevicePerfModel::default());
        assert!(
            ssd.read(PageId(0)).is_ok(),
            "no checksum -> no verification"
        );
        let report = ssd.scrub();
        assert_eq!(report.unverified, vec![0]);
        assert!(report.is_clean());
    }

    #[test]
    fn transient_reads_are_retried_and_charged() {
        use crate::faults::{FaultKind, FaultPlan, FaultyStore};
        let plan = FaultPlan::seeded(1).with_scheduled(0, FaultKind::TransientRead { failures: 2 });
        let store = FaultyStore::new(MemStore::new(64), plan);
        let mut ssd = SimSsd::new(store, DevicePerfModel::default());
        let id = ssd.append(b"flaky but fine").unwrap();
        // Default policy allows 3 attempts: 2 failures + 1 success.
        let page = ssd.read(id).unwrap();
        assert_eq!(&page[..5], b"flaky");
        assert_eq!(ssd.ledger().retries, 2);
        assert_eq!(ssd.ledger().pages_read, 1);
        // The retries show up in modeled time as two extra flash accesses.
        let t = ssd.ledger().modeled_read_time(ssd.model(), Link::Internal);
        assert!(t >= ssd.model().read_latency * 3);
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        use crate::faults::{FaultKind, FaultPlan, FaultyStore};
        let plan =
            FaultPlan::seeded(2).with_scheduled(0, FaultKind::TransientRead { failures: 10 });
        let store = FaultyStore::new(MemStore::new(64), plan);
        let mut ssd = SimSsd::new(store, DevicePerfModel::default());
        let id = ssd.append(b"very flaky").unwrap();
        assert!(matches!(
            ssd.read(id),
            Err(StorageError::TransientRead { page: 0 })
        ));
        assert_eq!(ssd.ledger().retries, 2, "3 attempts = 2 retries");
        // A stricter policy fails faster; a later read drains the episode.
        ssd.set_retry_policy(RetryPolicy::none()).unwrap();
        assert!(ssd.read(id).is_err());
        assert_eq!(ssd.ledger().retries, 2, "no-retry policy charges nothing");
    }

    #[test]
    fn zero_attempt_retry_policy_is_a_config_error() {
        let mut ssd = SimSsd::new(MemStore::new(64), DevicePerfModel::default());
        let err = ssd
            .set_retry_policy(RetryPolicy { max_attempts: 0 })
            .unwrap_err();
        assert!(err.to_string().contains("at least one"), "{err}");
        assert_eq!(
            ssd.retry_policy(),
            RetryPolicy::default(),
            "a rejected policy must leave the previous one in effect"
        );
    }

    #[test]
    fn scrub_quarantines_and_quarantined_reads_charge_nothing() {
        use crate::faults::{FaultKind, FaultPlan, FaultyStore};
        let plan = FaultPlan::seeded(11)
            .with_scheduled(1, FaultKind::BitRot { bit: 3 })
            .with_scheduled(3, FaultKind::TransientRead { failures: 100 });
        let store = FaultyStore::new(MemStore::new(64), plan);
        let mut ssd = SimSsd::new(store, DevicePerfModel::default());
        for i in 0..5 {
            ssd.append(format!("page {i}").as_bytes()).unwrap();
        }
        let report = ssd.scrub();
        assert_eq!(report.quarantined, vec![1, 3], "corrupt + retry-exhausted");
        assert_eq!(ssd.quarantined_pages(), vec![1, 3]);

        // Repeat reads of a quarantined page fail up front with no flash
        // access: zero reads, zero retries on the ledger.
        let before = *ssd.ledger();
        for _ in 0..3 {
            assert!(matches!(
                ssd.read(PageId(3)),
                Err(StorageError::Quarantined { page: 3 })
            ));
        }
        assert_eq!(*ssd.ledger(), before, "quarantined reads are free");

        // A second scrub skips the quarantine without reading.
        let again = ssd.scrub();
        assert_eq!(again.already_quarantined, 2);
        assert!(again.quarantined.is_empty());
        assert!(!again.is_clean());
    }

    #[test]
    fn rewrite_lifts_the_quarantine() {
        let mut ssd = SimSsd::new(MemStore::new(64), DevicePerfModel::default());
        let id = ssd.append(b"doomed").unwrap();
        ssd.quarantine_page(id.0);
        assert!(matches!(
            ssd.read(id),
            Err(StorageError::Quarantined { .. })
        ));
        ssd.write(id, b"healed").unwrap();
        assert!(!ssd.is_quarantined(id.0));
        assert_eq!(&ssd.read(id).unwrap()[..6], b"healed");
        assert!(ssd.scrub().is_clean());
    }

    #[test]
    fn scrub_slices_cover_the_device_and_wrap() {
        use crate::faults::{FaultKind, FaultPlan, FaultyStore};
        let plan = FaultPlan::seeded(13).with_scheduled(6, FaultKind::BitRot { bit: 0 });
        let store = FaultyStore::new(MemStore::new(64), plan);
        let mut ssd = SimSsd::new(store, DevicePerfModel::default());
        for i in 0..8 {
            ssd.append(format!("page {i}").as_bytes()).unwrap();
        }
        let mut cursor = 0;
        let mut merged = ScrubReport::default();
        let mut slices = 0;
        loop {
            let slice = ssd.scrub_slice(cursor, 3);
            merged.merge(&slice.report);
            slices += 1;
            if slice.complete {
                assert_eq!(slice.next, 0, "a completed pass wraps the cursor");
                break;
            }
            cursor = slice.next;
        }
        assert_eq!(slices, 3, "8 pages in slices of 3");
        assert_eq!(merged.pages_checked, 8);
        let corrupt: Vec<u64> = merged.corrupt.iter().map(|c| c.page).collect();
        assert_eq!(corrupt, vec![6]);
        assert_eq!(merged.quarantined, vec![6]);
    }

    #[test]
    fn truncate_prunes_the_quarantine() {
        let mut ssd = SimSsd::new(MemStore::new(64), DevicePerfModel::default());
        for i in 0..4 {
            ssd.append(format!("page {i}").as_bytes()).unwrap();
        }
        ssd.quarantine_page(1);
        ssd.quarantine_page(3);
        ssd.truncate(2).unwrap();
        assert_eq!(ssd.quarantined_pages(), vec![1]);
    }

    #[test]
    fn scrub_finds_exactly_the_rotten_pages() {
        use crate::faults::{FaultKind, FaultPlan, FaultyStore};
        let plan = FaultPlan::seeded(3)
            .with_scheduled(2, FaultKind::BitRot { bit: 40 })
            .with_scheduled(5, FaultKind::BitRot { bit: 9 });
        let store = FaultyStore::new(MemStore::new(64), plan);
        let mut ssd = SimSsd::new(store, DevicePerfModel::default());
        for i in 0..8 {
            ssd.append(format!("page {i}").as_bytes()).unwrap();
        }
        let report = ssd.scrub();
        assert_eq!(report.pages_checked, 8);
        let corrupt: Vec<u64> = report.corrupt.iter().map(|c| c.page).collect();
        assert_eq!(corrupt, vec![2, 5]);
        assert!(report.unreadable.is_empty());
        assert!(report.unverified.is_empty());
        assert!(!report.is_clean());
        assert!(report.to_string().contains("2 corrupt"), "{report}");
    }
}
