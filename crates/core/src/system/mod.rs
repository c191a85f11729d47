//! The host side of one device: [`MithriLog`] and its state, split by seam.
//!
//! * `mount` — formatting, mounting with crash recovery, checkpoint loads
//!   and index rebuilds;
//! * `ingest` — page frames, sealing and the journaled commit;
//! * `plan` — the wave planner (index probe, bitmap pruning, clips);
//! * `query` — shared scans and outcome assembly;
//! * `scrub` — integrity scans, sidecar checks and retention.

use std::collections::{BTreeMap, HashMap};

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

mod ingest;
mod mount;
mod plan;
mod query;
mod scrub;

pub use ingest::PreparedIngest;
pub use query::QueryRequest;

const CHECKPOINT_MAGIC: &[u8; 4] = b"MLCK";
const CHECKPOINT_VERSION: u32 = 2;

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
    /// Data pages in ingest order (index/leaf pages interleave on the same
    /// device but are tracked by the index itself).
    data_pages: Vec<PageId>,
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
    /// `page_cache_bytes` is 0). Entries are keyed per page by the owning
    /// segment's generation (see `page_gens`), so invalidation is
    /// per-segment instead of store-wide.
    page_cache: Option<PageCache>,
    /// Sealed, immutable segments, oldest first (ids ascend in seal order).
    segments: Vec<Segment>,
    /// The single open segment new pages append into.
    open: OpenSegment,
    /// Next segment id to allocate; ids are monotonic and never reused,
    /// even after a retention drop.
    next_segment_id: u64,
    /// Next cache generation to allocate. Generations are unique across
    /// segments and across invalidation events, so a retired generation can
    /// never be observed again.
    next_generation: u64,
    /// Live page → cache generation of its owning segment. Doubles as the
    /// set of live data pages: retention removes dropped pages, so stale
    /// index postings to dropped pages are filtered at plan time.
    page_gens: HashMap<u64, u64>,
    /// Durable locations of segment bitmap sidecars, keyed by segment id.
    /// Persisted in the checkpoint; a segment with in-memory bitmaps but
    /// no ref gets its sidecar appended at the next commit.
    bitmap_refs: BTreeMap<u64, BitmapRef>,
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
/// summary, totals, and cache generation — the store's fault and retention
/// domain.
#[derive(Debug)]
struct Segment {
    id: u64,
    /// CRC32 over the little-endian per-page CRC32s, in page order.
    crc: u32,
    pages: Vec<PageId>,
    lines: u64,
    raw_bytes: u64,
    compressed_bytes: u64,
    generation: u64,
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

/// The open segment: pages accumulate here until `segment_pages` is
/// reached, then the whole run seals. Totals are aggregates — recovery
/// reconstructs them exactly as Σcommits − Σdrops − Σactive seals.
#[derive(Debug)]
struct OpenSegment {
    pages: Vec<PageId>,
    lines: u64,
    raw_bytes: u64,
    compressed_bytes: u64,
    generation: u64,
    /// Per-page pruning marks, parallel to `pages` (empty when bitmaps are
    /// disabled). Frozen into [`SegmentBitmaps`] at seal time; the open
    /// segment itself is never pruned.
    page_marks: Vec<PageMarks>,
}

impl OpenSegment {
    fn new(generation: u64) -> Self {
        OpenSegment {
            pages: Vec::new(),
            lines: 0,
            raw_bytes: 0,
            compressed_bytes: 0,
            generation,
            page_marks: Vec::new(),
        }
    }
}

/// Uncommitted ingest work: the delta the next journal record will describe.
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
    /// observe. Handing out mutable access also retires every segment's
    /// page-cache generation, so a drill's overwrites can never be masked
    /// by cached pre-corruption text.
    pub fn device_mut(&mut self) -> &mut SimSsd<S> {
        self.invalidate_cache_generations();
        &mut self.ssd
    }

    /// Retires every segment's cache generation (sealed and open): each
    /// gets a fresh, never-used generation and the page map is rebuilt, so
    /// nothing cached before this call can be observed again.
    fn invalidate_cache_generations(&mut self) {
        for seg in &mut self.segments {
            seg.generation = self.next_generation;
            self.next_generation += 1;
        }
        self.open.generation = self.next_generation;
        self.next_generation += 1;
        self.page_gens.clear();
        for seg in &self.segments {
            for p in &seg.pages {
                self.page_gens.insert(p.0, seg.generation);
            }
        }
        for p in &self.open.pages {
            self.page_gens.insert(p.0, self.open.generation);
        }
    }

    /// Summaries of the sealed segments, oldest first.
    pub fn sealed_segments(&self) -> Vec<SegmentSummary> {
        self.segments
            .iter()
            .map(|s| SegmentSummary {
                id: s.id,
                pages: s.pages.len() as u64,
                first_page: s.pages.first().map_or(0, |p| p.0),
                last_page: s.pages.last().map_or(0, |p| p.0),
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
        self.open.pages.len() as u64
    }

    /// The ids of the data pages, in ingest order.
    pub fn data_pages(&self) -> &[PageId] {
        &self.data_pages
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
