//! The host side of one device: [`MithriLog`] and its state, split by seam.
//!
//! * `mount` — formatting, mounting with crash recovery and index
//!   rebuilds;
//! * `ingest` — page frames, sealing and the journaled commit;
//! * `checkpoint` — the checkpoint chain's blob format: full checkpoints,
//!   deltas, and restoring a chain at mount;
//! * `plan` — the wave planner (index probe, bitmap pruning, clips);
//! * `query` — shared scans and outcome assembly;
//! * `scrub` — integrity scans, sidecar checks and retention.

use std::collections::BTreeMap;

use mithrilog_index::InvertedIndex;
use mithrilog_storage::{
    CheckpointRef, Crc32, MemStore, PageId, PageStore, SealRecord, SimSsd, Superblock,
};
use mithrilog_tokenizer::{DatapathStats, ScatterGather, Tokenizer};

use crate::bitmaps::{PageMarks, SegmentBitmaps};
use crate::cache::PageCache;
use crate::config::SystemConfig;
#[cfg(doc)]
use crate::outcome::QueryOutcome;
use crate::outcome::SegmentSummary;

mod checkpoint;
mod ingest;
mod mount;
mod plan;
mod query;
mod scrub;

pub use ingest::PreparedIngest;
pub use query::QueryRequest;

/// A complete MithriLog system: simulated accelerated SSD + index + host
/// software (paper Figure 2).
///
/// Generic over the page-store backend: [`MemStore`] by default, or a
/// [`FileStore`](mithrilog_storage::FileStore) for corpora larger than RAM
/// (see [`MithriLog::with_store`]).
#[derive(Debug)]
pub struct MithriLog<S = MemStore> {
    config: SystemConfig,
    ssd: SimSsd<S>,
    index: InvertedIndex,
    tokenizer: Tokenizer,
    /// Live data pages in ingest order, so ascending by id — the one record
    /// of them: each sealed segment is the next run of its page count,
    /// oldest first, and the open segment is the tail after the sealed
    /// runs (see [`MithriLog::runs`]). Index and leaf pages interleave on
    /// the same device but are tracked by the index itself.
    data_pages: Vec<PageId>,
    /// Data pages retention has dropped since the store was formatted:
    /// with `data_pages`, every data page this device ever committed.
    data_pages_dropped: u64,
    total_raw_bytes: u64,
    total_lines: u64,
    total_compressed_bytes: u64,
    stats: DatapathStats,
    scatter: ScatterGather,
    /// Logical clock for automatic snapshots (advances with ingested
    /// lines; callers with real timestamps use [`MithriLog::snapshot_at`]).
    logical_clock: u64,
    /// The durably committed superblock; everything the store holds beyond
    /// `superblock.committed_pages` is an uncommitted tail.
    superblock: Superblock,
    /// Work accumulated since the last commit, acknowledged only once the
    /// superblock flip lands.
    pending: PendingCommit,
    /// Cross-wave cache of decompressed data pages (`None` when
    /// `page_cache_bytes` is 0), keyed by page id. Pages are append-only, so
    /// an entry goes stale only when its page dies or may change:
    /// retention removes the dropped pages' entries and
    /// [`MithriLog::device_mut`] clears the cache.
    page_cache: Option<PageCache>,
    /// Sealed, immutable segments, oldest first (ids ascend in seal order).
    segments: Vec<Segment>,
    /// The single open segment new pages append into.
    open: OpenSegment,
    /// Next segment id to allocate; ids are monotonic and never reused,
    /// even after a retention drop.
    next_segment_id: u64,
    /// Durable locations of segment bitmap sidecars, keyed by segment id.
    /// Persisted in the checkpoint; a segment with in-memory bitmaps but
    /// no ref gets its sidecar appended at the next commit.
    bitmap_refs: BTreeMap<u64, BitmapRef>,
    /// Checkpoint deltas chained behind the newest full checkpoint, which
    /// the superblock's checkpoint reaches through predecessor refs; `None`
    /// when the next commit must write a full one (no checkpoint yet, the
    /// index was rebuilt from pages, or a commit failed part-way).
    deltas_since_full: Option<u64>,
}

/// Durable location of one segment's bitmap sidecar blob: a checksummed
/// page run appended before the owning commit's checkpoint (see
/// [`append_blob`](mithrilog_storage::append_blob)). Corruption here only
/// costs pruning power — the segment plans conservatively until its bitmaps
/// are rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BitmapRef {
    segment_id: u64,
    blob: CheckpointRef,
}

/// One sealed segment: an immutable run of data pages with its own CRC
/// summary and totals — the store's fault and retention domain. Its pages
/// are the `pages` entries of `data_pages` after the earlier segments'.
#[derive(Debug)]
struct Segment {
    id: u64,
    /// CRC32 over the little-endian per-page CRC32s, in page order.
    crc: u32,
    pages: usize,
    lines: u64,
    raw_bytes: u64,
    compressed_bytes: u64,
    /// The pruning bitmaps frozen at seal time (`None` when bitmaps are
    /// disabled or the persisted sidecar failed validation — the planner
    /// then treats every page of the segment as alive).
    bitmaps: Option<SegmentBitmaps>,
}

/// A segment's CRC summary: CRC32 over the little-endian per-page CRC32s,
/// in page order — what sealing records and verification recomputes.
fn crc_summary(page_crcs: impl IntoIterator<Item = u32>) -> u32 {
    let mut summary = Crc32::new();
    for crc in page_crcs {
        summary.update(&crc.to_le_bytes());
    }
    summary.finalize()
}

/// The open segment: the live pages after the sealed runs accumulate
/// until `segment_pages` is reached, then the whole run seals. Totals are
/// aggregates — recovery reconstructs them exactly as Σcommits − Σdrops −
/// Σactive seals.
#[derive(Debug, Default)]
struct OpenSegment {
    lines: u64,
    raw_bytes: u64,
    compressed_bytes: u64,
    /// Per-page pruning marks, parallel to the open pages (empty when
    /// bitmaps are disabled). Frozen into [`SegmentBitmaps`] at seal time;
    /// the open segment itself is never pruned.
    page_marks: Vec<PageMarks>,
}

/// Uncommitted ingest work: the delta the next journal record will
/// describe. It is cleared only once a commit's superblock flip lands, so
/// a failed commit's work rides the next one.
#[derive(Debug, Default)]
struct PendingCommit {
    data_pages: Vec<u64>,
    lines: u64,
    raw_bytes: u64,
    compressed_bytes: u64,
    /// Segments sealed since the last commit; journaled (sequence filled
    /// in) right after the commit record.
    seals: Vec<SealRecord>,
    /// Segment ids dropped by retention since the last commit.
    drops: Vec<u64>,
}

impl<S: PageStore> MithriLog<S> {
    /// The live pages as consecutive runs of `data_pages`: each sealed
    /// segment's, oldest first, then the open segment's (`None`).
    fn runs(&self) -> impl Iterator<Item = (Option<&Segment>, &[PageId])> {
        let mut rest = self.data_pages.as_slice();
        let sealed = self.segments.iter().map(Some);
        sealed.chain([None]).map(move |seg| {
            let (run, tail) = rest.split_at(seg.map_or(rest.len(), |s| s.pages));
            rest = tail;
            (seg, run)
        })
    }

    /// The open segment's pages: the tail after the sealed runs.
    fn open_pages(&self) -> &[PageId] {
        let sealed: usize = self.segments.iter().map(|s| s.pages).sum();
        &self.data_pages[sealed..]
    }

    /// Sealed segment `id` and its pages, or `None` for an unknown id.
    fn sealed_run(&self, id: u64) -> Option<(&Segment, &[PageId])> {
        self.runs()
            .find_map(|(seg, run)| seg.filter(|s| s.id == id).map(|s| (s, run)))
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Total raw bytes ingested.
    pub fn raw_bytes(&self) -> u64 {
        self.total_raw_bytes
    }

    /// Total lines ingested.
    pub fn lines(&self) -> u64 {
        self.total_lines
    }

    /// Number of data pages stored.
    pub fn data_page_count(&self) -> u64 {
        self.data_pages.len() as u64
    }

    /// Overall LZAH compression ratio achieved so far.
    pub fn compression_ratio(&self) -> f64 {
        if self.total_compressed_bytes == 0 {
            1.0
        } else {
            self.total_raw_bytes as f64 / self.total_compressed_bytes as f64
        }
    }

    /// Datapath statistics accumulated at ingest (Figure 13 inputs).
    pub fn datapath_stats(&self) -> &DatapathStats {
        &self.stats
    }

    /// The inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The simulated device, for inspection (access ledger, page counts).
    pub fn device(&self) -> &SimSsd<S> {
        &self.ssd
    }

    /// Mutable device access, for operational tooling (scrubbing,
    /// corruption drills, ledger resets). Overwriting data pages behind the
    /// system's back (via `device_mut().store_mut()`) is detected by the
    /// page checksums: affected pages are skipped by queries and reported in
    /// [`QueryOutcome::degraded`] — exactly what a corruption drill should
    /// observe. Handing out mutable access also clears the page cache, so
    /// a drill's overwrites can never be masked by cached pre-corruption
    /// text.
    pub fn device_mut(&mut self) -> &mut SimSsd<S> {
        if let Some(cache) = &self.page_cache {
            cache.clear();
        }
        &mut self.ssd
    }

    /// Summaries of the sealed segments, oldest first.
    pub fn sealed_segments(&self) -> Vec<SegmentSummary> {
        self.runs()
            .filter_map(|(seg, run)| seg.map(|s| (s, run)))
            .map(|(s, run)| SegmentSummary {
                id: s.id,
                pages: run.len() as u64,
                first_page: run.first().map_or(0, |p| p.0),
                last_page: run.last().map_or(0, |p| p.0),
                has_bitmaps: s.bitmaps.is_some(),
                lines: s.lines,
                raw_bytes: s.raw_bytes,
                compressed_bytes: s.compressed_bytes,
                crc: s.crc,
            })
            .collect()
    }

    /// Number of sealed segments currently live.
    pub fn sealed_segment_count(&self) -> u64 {
        self.segments.len() as u64
    }

    /// Data pages in the (not yet sealed) open segment.
    pub fn open_segment_pages(&self) -> u64 {
        self.open_pages().len() as u64
    }

    /// The ids of the data pages, in ingest order.
    pub fn data_pages(&self) -> &[PageId] {
        &self.data_pages
    }

    /// Data pages retention has dropped since the store was formatted
    /// (mount recounts them from the journal's drop records). With
    /// [`MithriLog::data_page_count`] they count every data page this
    /// device ever committed.
    pub fn data_pages_dropped(&self) -> u64 {
        self.data_pages_dropped
    }

    /// Durable locations of the persisted segment bitmap sidecars:
    /// `(segment_id, first_page, page_count)` per sealed segment whose
    /// sidecar blob is on the device. Exposed so fault-injection tests and
    /// diagnostics can target the sidecar pages precisely.
    pub fn bitmap_sidecar_locations(&self) -> Vec<(u64, u64, u64)> {
        self.bitmap_refs
            .values()
            .map(|r| (r.segment_id, r.blob.first_page, r.blob.page_count))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) const LOG: &str = "\
RAS KERNEL INFO instruction cache parity error corrected\n\
RAS KERNEL FATAL data storage interrupt\n\
RAS APP FATAL ciod: Error loading /g/g24/user/program\n\
pbs_mom: scan_for_exiting, job 4161 task 1 terminated\n\
RAS KERNEL INFO generating core.2275\n";

    pub(super) fn system_with(log: &str) -> MithriLog {
        let mut s = MithriLog::new(SystemConfig::for_tests());
        s.ingest(log.as_bytes()).unwrap();
        s
    }

    /// A test config with tiny segments so sealing exercises in-module.
    pub(super) fn segmented_config(segment_pages: u64) -> SystemConfig {
        SystemConfig {
            segment_pages,
            ..SystemConfig::for_tests()
        }
    }
}
