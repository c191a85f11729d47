use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::time::{Duration, Instant};

use mithrilog_compress::{Codec, Lzah};
use mithrilog_filter::FilterPipeline;
use mithrilog_index::{InvertedIndex, QueryPlan};
use mithrilog_query::{parse, Query};
use mithrilog_sim::{AcceleratorConfig, DatasetInputs, Throughput, ThroughputModel};
use mithrilog_storage::{
    append_commit, append_record, crc32, format_device, read_active_superblock, replay_journal,
    write_superblock_commit, CheckpointRef, CommitRecord, Crc32, DropRecord, FileStore,
    JournalRecord, Link, MemStore, PageId, PageStore, SealRecord, SimSsd, Superblock,
};
use mithrilog_tokenizer::{DatapathStats, ScatterGather, Tokenizer};

use crate::bitmaps::{PageFacts, PageMarks, SegmentBitmaps};
use crate::cache::PageCache;
use crate::config::SystemConfig;
use crate::error::MithriLogError;
use crate::exec::{self, page_is_skippable, CacheView, Engine, GenMap};
use crate::outcome::{
    DegradedRead, IndexRecovery, IngestReport, PlanExplain, QueryOutcome, RecoveryReport,
    RetentionReport, ScanAttribution, SegmentExplain, SegmentSummary, SharedBatchOutcome,
    SharedScanReport,
};

const CHECKPOINT_MAGIC: &[u8; 4] = b"MLCK";
const CHECKPOINT_VERSION: u32 = 2;

/// One query in a shared batch ([`MithriLog::query_shared`]): the parsed
/// query plus the per-query execution constraints a multi-tenant service
/// attaches — an optional time window and an optional page (deadline)
/// budget.
///
/// A request is a complete, self-contained description of one execution:
/// running it alone and running it inside a batch produce byte-identical
/// outcomes (see [`MithriLog::query_shared`] for the exact contract).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The query to execute.
    pub query: Query,
    /// Restrict the scan to the snapshot-clock interval `[t1, t2]`
    /// (see [`MithriLog::query_time_range`]).
    pub time_range: Option<(u64, u64)>,
    /// Deadline budget: at most this many planned data pages are scanned.
    /// Overruns are clipped from the tail of the plan and reported in
    /// [`DegradedRead::budget_clipped`] — a partial result instead of an
    /// unbounded scan.
    pub page_budget: Option<u64>,
    /// Modeled-time deadline. Converted into a page allowance using the
    /// device performance model (deadline ÷ modeled per-page read time) and
    /// applied to the plan *before* scanning — after `page_budget` — so the
    /// same request replays byte-identically anywhere. Clipped pages are
    /// reported in [`DegradedRead::deadline_clipped`]. `Duration::ZERO`
    /// yields an immediately clipped but well-formed partial result.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation, checked at page boundaries by the scan
    /// datapath. Cancelling mid-wave stops the scan within one page per
    /// worker; the pages already scanned are charged exactly as usual.
    pub cancel: Option<crate::CancelToken>,
}

impl QueryRequest {
    /// A request with no window and no budget — exactly what
    /// [`MithriLog::query`] executes.
    pub fn new(query: Query) -> Self {
        QueryRequest {
            query,
            time_range: None,
            page_budget: None,
            deadline: None,
            cancel: None,
        }
    }

    /// Parses `text` into an unconstrained request.
    ///
    /// # Errors
    ///
    /// Returns parse errors.
    pub fn parse(text: &str) -> Result<Self, MithriLogError> {
        Ok(Self::new(parse(text)?))
    }

    /// Sets the time window.
    #[must_use]
    pub fn with_time_range(mut self, t1: u64, t2: u64) -> Self {
        self.time_range = Some((t1, t2));
        self
    }

    /// Sets the page (deadline) budget.
    #[must_use]
    pub fn with_page_budget(mut self, pages: u64) -> Self {
        self.page_budget = Some(pages);
        self
    }

    /// Sets the modeled-time deadline (see [`QueryRequest::deadline`]).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token (see [`QueryRequest::cancel`]).
    #[must_use]
    pub fn with_cancel(mut self, cancel: crate::CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

fn take_u32(bytes: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = bytes.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*head), rest))
}

fn take_u64(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let (head, rest) = bytes.split_first_chunk::<8>()?;
    Some((u64::from_le_bytes(*head), rest))
}

fn take_section(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = take_u64(bytes)?;
    let len = usize::try_from(len).ok()?;
    (rest.len() >= len).then(|| rest.split_at(len))
}

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

/// Durable location of one segment's bitmap sidecar blob: raw device pages
/// appended before the owning commit's checkpoint, validated by byte length
/// and CRC at load time. Corruption here only costs pruning power — the
/// segment plans conservatively until its bitmaps are rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BitmapRef {
    segment_id: u64,
    first_page: u64,
    page_count: u64,
    byte_len: u64,
    crc: u32,
}

/// One request's share of a wave plan (see `MithriLog::plan_wave`): the
/// final page set, what the request's own clips dropped from it, the
/// as-if-solo probe ledger, and the per-segment pruning classification.
struct PlannedQuery {
    /// Pages to scan: ascending, deduplicated, already clipped to the
    /// request's time window, page budget and deadline.
    pages: Vec<PageId>,
    budget_clipped: u64,
    deadline_clipped: u64,
    plan_ledger: mithrilog_storage::CostLedger,
    used_index: bool,
    index_fallback: bool,
    segments: Vec<SegmentExplain>,
}

impl PlannedQuery {
    fn pruned_by_index(&self) -> u64 {
        self.segments.iter().map(|s| s.pruned_by_index).sum()
    }

    fn pruned_by_bitmap(&self) -> u64 {
        self.segments.iter().map(|s| s.pruned_by_bitmap).sum()
    }

    fn pruned_by_both(&self) -> u64 {
        self.segments.iter().map(|s| s.pruned_by_both).sum()
    }
}

/// A planned wave: one `PlannedQuery` per input query plus the batched
/// probe's demanded-vs-physical accounting.
struct WavePlan {
    queries: Vec<PlannedQuery>,
    probe_report: mithrilog_index::BatchProbeReport,
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

/// The CPU-heavy half of an ingest, computed without touching the system:
/// LZAH page frames plus each frame's page facts (distinct tokens,
/// pruning marks, datapath statistics), taken in one token walk.
///
/// Splitting ingest into [`PreparedIngest::build`] (pure, `&config` only)
/// and [`MithriLog::apply_ingest`] (serial, `&mut self`) lets a service
/// overlap compression and tokenization of incoming text with a running
/// query wave, then apply the finished frames in one short exclusive
/// section. `MithriLog::ingest(text)` is exactly
/// `apply_ingest(&PreparedIngest::build(config, text))`, so the two paths
/// produce byte-identical stores.
#[derive(Debug)]
pub struct PreparedIngest<'a> {
    text: Cow<'a, [u8]>,
    frames: Vec<PreparedFrame>,
}

/// One compressed page frame plus everything `apply_ingest` needs to index
/// and account for it without re-tokenizing.
#[derive(Debug)]
struct PreparedFrame {
    /// The LZAH-compressed page payload.
    data: Vec<u8>,
    /// The frame's raw-text range within `PreparedIngest::text`.
    raw_range: Range<usize>,
    lines: u64,
    /// The page's analysis, with token ranges relative to the frame's raw
    /// text. Computed here, in the pure half, so overlapped ingest stays
    /// byte-identical to direct ingest.
    facts: PageFacts,
}

impl<'a> PreparedIngest<'a> {
    /// Compresses and tokenizes `text` into apply-ready page frames.
    ///
    /// Pure in `(config, text)`: no device or index access, so it can run
    /// on any thread while the owning system serves queries. Compression
    /// stripes across the configured worker pool with input-dependent shard
    /// boundaries, so the frame layout is byte-identical for every thread
    /// count.
    pub fn build(config: &SystemConfig, text: Cow<'a, [u8]>) -> Self {
        let shards = exec::compress_paged_striped(
            &text,
            config.lzah,
            config.device.page_bytes,
            config.resolved_query_threads(),
        );
        let tokenizer = Tokenizer::new(config.tokenizer.clone());
        let mut frames = Vec::new();
        let mut offset = 0usize;
        for frame in shards.iter().flat_map(|paged| paged.pages()) {
            let raw_range = offset..offset + frame.raw_len();
            offset += frame.raw_len();
            let facts = PageFacts::of(&tokenizer, config.bitmap_buckets, &text[raw_range.clone()]);
            frames.push(PreparedFrame {
                data: frame.data().to_vec(),
                raw_range,
                lines: frame.lines() as u64,
                facts,
            });
        }
        PreparedIngest { text, frames }
    }

    /// Raw bytes of the prepared text.
    pub fn raw_bytes(&self) -> u64 {
        self.text.len() as u64
    }

    /// Number of page frames the apply step will append.
    pub fn frame_count(&self) -> u64 {
        self.frames.len() as u64
    }

    /// The routing key of frame `index`: its first raw line. A multi-device
    /// shard layer hashes this to place the frame; because frames (and
    /// their keys) are a pure function of `(config, text)`, every replica
    /// derives the same placement.
    ///
    /// # Panics
    ///
    /// When `index >= frame_count()`.
    pub fn frame_key(&self, index: usize) -> &[u8] {
        let slice = &self.text[self.frames[index].raw_range.clone()];
        slice.split(|b| *b == b'\n').next().unwrap_or(slice)
    }

    /// Splits the prepared frames into `shards` independent prepared
    /// ingests, sending frame `i` to `routes[i]`, preserving relative frame
    /// order within each shard. The frame payloads are reused byte-for-byte
    /// (never recompressed), so the k-th frame routed to a shard lands
    /// there exactly as it would have landed on a single device — the
    /// invariant the shard layer's order-preserving merge rests on.
    ///
    /// # Panics
    ///
    /// When `routes.len() != frame_count()` or any route is `>= shards`.
    pub fn partition(&self, routes: &[usize], shards: usize) -> Vec<PreparedIngest<'static>> {
        assert_eq!(
            routes.len(),
            self.frames.len(),
            "one route per prepared frame"
        );
        let mut parts: Vec<(Vec<u8>, Vec<PreparedFrame>)> =
            (0..shards).map(|_| (Vec::new(), Vec::new())).collect();
        for (frame, &shard) in self.frames.iter().zip(routes) {
            let (text, frames) = &mut parts[shard];
            let start = text.len();
            text.extend_from_slice(&self.text[frame.raw_range.clone()]);
            frames.push(PreparedFrame {
                data: frame.data.clone(),
                raw_range: start..text.len(),
                lines: frame.lines,
                facts: frame.facts.clone(),
            });
        }
        parts
            .into_iter()
            .map(|(text, frames)| PreparedIngest {
                text: Cow::Owned(text),
                frames,
            })
            .collect()
    }
}

impl MithriLog<MemStore> {
    /// Creates an empty system on an in-memory device.
    pub fn new(config: SystemConfig) -> Self {
        let store = MemStore::new(config.device.page_bytes);
        Self::with_store(store, config)
            .expect("formatting a fresh MemStore with matching page size cannot fail")
    }
}

impl MithriLog<FileStore> {
    /// Creates an empty file-backed system at `path`, formatting the store.
    ///
    /// # Errors
    ///
    /// Refuses to overwrite an existing formatted store (mount those with
    /// [`MithriLog::open`]); propagates file and formatting errors.
    pub fn create(path: &std::path::Path, config: SystemConfig) -> Result<Self, MithriLogError> {
        let store = FileStore::create(path, config.device.page_bytes)?;
        Self::with_store(store, config)
    }

    /// Mounts an existing file-backed store at `path`, running crash
    /// recovery (see [`MithriLog::open_store`]). The store's page size is
    /// discovered from its superblock and must match `config`.
    ///
    /// # Errors
    ///
    /// See [`FileStore::open`] and [`MithriLog::open_store`].
    pub fn open(
        path: &std::path::Path,
        config: SystemConfig,
    ) -> Result<(Self, RecoveryReport), MithriLogError> {
        let store = FileStore::open(path)?;
        Self::open_store(store, config)
    }
}

impl<S: PageStore> MithriLog<S> {
    /// Creates an empty system on an explicit page store (e.g. a
    /// [`FileStore`](mithrilog_storage::FileStore) for corpora larger than
    /// RAM, or a [`FaultyStore`](mithrilog_storage::FaultyStore) for fault
    /// drills), formatting it: the dual-slot superblock is written and
    /// synced before the system is usable.
    ///
    /// The store must be empty — an existing formatted store is mounted
    /// with [`MithriLog::open_store`] instead, never silently reformatted.
    ///
    /// # Errors
    ///
    /// [`MithriLogError::Config`] if the store's page size differs from the
    /// configured device page size or the store is not empty; storage
    /// errors from formatting.
    pub fn with_store(store: S, config: SystemConfig) -> Result<Self, MithriLogError> {
        config.validate().map_err(MithriLogError::Config)?;
        if store.page_bytes() != config.device.page_bytes {
            return Err(MithriLogError::Config(format!(
                "store page size ({} bytes) must match the device model ({} bytes)",
                store.page_bytes(),
                config.device.page_bytes
            )));
        }
        if store.page_count() != 0 {
            return Err(MithriLogError::Config(format!(
                "store already holds {} pages; mount it with open_store \
                 instead of reformatting",
                store.page_count()
            )));
        }
        let page_bytes = config.device.page_bytes;
        let mut ssd = SimSsd::new(store, config.device);
        ssd.set_retry_policy(config.retry)
            .map_err(|e| MithriLogError::Config(e.to_string()))?;
        let superblock = format_device(&mut ssd)?;
        Ok(MithriLog {
            ssd,
            index: InvertedIndex::with_page_bytes(config.index, page_bytes),
            tokenizer: Tokenizer::new(config.tokenizer.clone()),
            data_pages: Vec::new(),
            total_raw_bytes: 0,
            total_lines: 0,
            total_compressed_bytes: 0,
            stats: DatapathStats::new(),
            scatter: ScatterGather::new(config.tokenizer.lanes),
            logical_clock: 0,
            superblock,
            pending: PendingCommit::default(),
            page_cache: Self::build_page_cache(&config),
            segments: Vec::new(),
            open: OpenSegment::new(0),
            next_segment_id: 0,
            next_generation: 1,
            page_gens: HashMap::new(),
            bitmap_refs: BTreeMap::new(),
            config,
        })
    }

    /// Mounts an existing formatted store, running crash recovery: the
    /// active superblock is validated, the uncommitted tail beyond the
    /// committed frontier is truncated away (including any torn write a
    /// power loss left), the journal manifest chain is replayed to
    /// reconstruct the committed data pages and totals, and the index is
    /// loaded from its committed checkpoint — or rebuilt from the data
    /// pages when the checkpoint is missing or fails validation.
    ///
    /// Recovery itself commits nothing: the rebuilt in-memory state becomes
    /// durable at the next commit, and crashing again before then simply
    /// repeats the same recovery.
    ///
    /// # Errors
    ///
    /// [`MithriLogError::Storage`] when no superblock slot validates or the
    /// committed region is corrupt; [`MithriLogError::Config`] when the
    /// store's page size disagrees with `config`.
    pub fn open_store(
        store: S,
        config: SystemConfig,
    ) -> Result<(Self, RecoveryReport), MithriLogError> {
        config.validate().map_err(MithriLogError::Config)?;
        if store.page_bytes() != config.device.page_bytes {
            return Err(MithriLogError::Config(format!(
                "store page size ({} bytes) must match the device model ({} bytes)",
                store.page_bytes(),
                config.device.page_bytes
            )));
        }
        let mut ssd = SimSsd::new(store, config.device);
        ssd.set_retry_policy(config.retry)
            .map_err(|e| MithriLogError::Config(e.to_string()))?;
        let superblock = read_active_superblock(&mut ssd)?;
        if superblock.page_bytes as usize != config.device.page_bytes {
            return Err(MithriLogError::Config(format!(
                "store was formatted with {}-byte pages but the device model \
                 uses {}-byte pages",
                superblock.page_bytes, config.device.page_bytes
            )));
        }

        // Estimate the acknowledged-never lines in the tail we are about to
        // discard: any tail page that decompresses was an in-flight data
        // page. (Index/journal pages in the tail do not decompress.)
        let codec = Lzah::new(config.lzah);
        let physical = ssd.page_count();
        let mut uncommitted_lines = 0u64;
        for page in superblock.committed_pages..physical {
            if let Ok(raw) = ssd.read(PageId(page)) {
                if let Ok(text) = codec.decompress(&raw) {
                    uncommitted_lines += text
                        .split(|b| *b == b'\n')
                        .filter(|l| !l.is_empty())
                        .count() as u64;
                }
            }
        }
        ssd.truncate(superblock.committed_pages)?;

        // Replay the journal: commits rebuild the committed pages and
        // totals in ingest order; seals and drops rebuild the segment map.
        let records = replay_journal(&mut ssd, superblock.journal_head)?;
        let mut commit_pages: Vec<PageId> = Vec::new();
        let mut commits_replayed = 0u64;
        let mut total_lines = 0u64;
        let mut total_raw_bytes = 0u64;
        let mut total_compressed_bytes = 0u64;
        let mut seals: BTreeMap<u64, SealRecord> = BTreeMap::new();
        let mut drops: BTreeSet<u64> = BTreeSet::new();
        for record in records {
            match record {
                JournalRecord::Commit(commit) => {
                    commits_replayed += 1;
                    commit_pages.extend(commit.data_pages.iter().map(|&p| PageId(p)));
                    total_lines += commit.lines;
                    total_raw_bytes += commit.raw_bytes;
                    total_compressed_bytes += commit.compressed_bytes;
                }
                JournalRecord::Seal(seal) => {
                    seals.insert(seal.segment_id, seal);
                }
                JournalRecord::Drop(drop) => {
                    drops.extend(drop.segments);
                }
            }
        }

        // Dropped segments leave the store entirely: their pages and totals
        // are subtracted, so a drop that was acknowledged (the superblock
        // flipped past its record) can never resurrect.
        let mut dropped_pages: HashSet<u64> = HashSet::new();
        for id in &drops {
            let seal = seals.get(id).ok_or_else(|| {
                MithriLogError::Recovery(format!(
                    "journal drops segment {id} but no seal record describes it"
                ))
            })?;
            dropped_pages.extend(seal.pages.iter().copied());
            total_lines -= seal.lines;
            total_raw_bytes -= seal.raw_bytes;
            total_compressed_bytes -= seal.compressed_bytes;
        }
        let data_pages: Vec<PageId> = commit_pages
            .into_iter()
            .filter(|p| !dropped_pages.contains(&p.0))
            .collect();

        // Active sealed segments, oldest first; each gets a fresh cache
        // generation (a mount is an invalidation event).
        let mut next_generation = 1u64;
        let mut next_segment_id = 0u64;
        let mut page_gens: HashMap<u64, u64> = HashMap::new();
        let mut sealed_pages: HashSet<u64> = HashSet::new();
        let mut segments: Vec<Segment> = Vec::new();
        let mut sealed_totals = [0u64; 3];
        for (id, seal) in &seals {
            next_segment_id = next_segment_id.max(id + 1);
            if drops.contains(id) {
                continue;
            }
            let generation = next_generation;
            next_generation += 1;
            for p in &seal.pages {
                page_gens.insert(*p, generation);
                sealed_pages.insert(*p);
            }
            sealed_totals[0] += seal.raw_bytes;
            sealed_totals[1] += seal.lines;
            sealed_totals[2] += seal.compressed_bytes;
            segments.push(Segment {
                id: *id,
                crc: seal.crc,
                pages: seal.pages.iter().map(|&p| PageId(p)).collect(),
                lines: seal.lines,
                raw_bytes: seal.raw_bytes,
                compressed_bytes: seal.compressed_bytes,
                generation,
                bitmaps: None,
            });
        }

        // The open segment is whatever committed pages no active seal
        // claims; its totals follow exactly by subtraction.
        let open_pages: Vec<PageId> = data_pages
            .iter()
            .filter(|p| !sealed_pages.contains(&p.0))
            .copied()
            .collect();
        let open_generation = next_generation;
        next_generation += 1;
        for p in &open_pages {
            page_gens.insert(p.0, open_generation);
        }
        let open = OpenSegment {
            pages: open_pages,
            raw_bytes: total_raw_bytes - sealed_totals[0],
            lines: total_lines - sealed_totals[1],
            compressed_bytes: total_compressed_bytes - sealed_totals[2],
            generation: open_generation,
            page_marks: Vec::new(),
        };

        let restored = superblock
            .checkpoint
            .and_then(|ckpt| Self::load_checkpoint(&mut ssd, &config, &ckpt))
            .filter(|(_, _, _, _, totals)| {
                *totals == [total_raw_bytes, total_lines, total_compressed_bytes]
            });
        let index_recovery = if restored.is_some() {
            IndexRecovery::Checkpoint
        } else {
            IndexRecovery::Rebuilt
        };
        let (index, stats, scatter, mut bitmap_refs, logical_clock) = match restored {
            Some((index, stats, scatter, refs, _)) => (index, stats, scatter, refs, total_lines),
            None => (
                InvertedIndex::with_page_bytes(config.index, config.device.page_bytes),
                DatapathStats::new(),
                ScatterGather::new(config.tokenizer.lanes),
                BTreeMap::new(),
                total_lines,
            ),
        };

        // Attach persisted segment bitmaps, validating each sidecar blob:
        // a failed CRC/decode drops that segment's bitmaps (conservative
        // planning) and is reported — degraded, never lying. A mount with
        // bitmaps disabled discards the directory outright.
        let active_ids: HashSet<u64> = segments.iter().map(|s| s.id).collect();
        bitmap_refs.retain(|id, _| active_ids.contains(id));
        let mut segment_bitmaps_dropped = 0u64;
        if config.bitmap_buckets == 0 {
            bitmap_refs.clear();
        } else {
            for seg in &mut segments {
                if let Some(bref) = bitmap_refs.get(&seg.id).copied() {
                    match Self::load_segment_bitmaps(&mut ssd, &config, &bref, seg.pages.len()) {
                        Some(bitmaps) => seg.bitmaps = Some(bitmaps),
                        None => {
                            segment_bitmaps_dropped += 1;
                            bitmap_refs.remove(&seg.id);
                        }
                    }
                }
            }
        }

        let report = RecoveryReport {
            superblock_sequence: superblock.sequence,
            committed_pages: superblock.committed_pages,
            uncommitted_pages_discarded: physical - superblock.committed_pages,
            commits_replayed,
            data_pages_recovered: data_pages.len() as u64,
            lines_recovered: total_lines,
            uncommitted_lines_discarded: uncommitted_lines,
            segments_recovered: segments.len() as u64,
            segments_dropped: drops.len() as u64,
            index: index_recovery,
            segment_bitmaps_dropped,
        };

        let mut system = MithriLog {
            ssd,
            index,
            tokenizer: Tokenizer::new(config.tokenizer.clone()),
            data_pages,
            total_raw_bytes,
            total_lines,
            total_compressed_bytes,
            stats,
            scatter,
            logical_clock,
            superblock,
            pending: PendingCommit::default(),
            page_cache: Self::build_page_cache(&config),
            segments,
            open,
            next_segment_id,
            // Recovery counts as an invalidation event: every segment got a
            // fresh generation above, past anything cached before.
            next_generation,
            page_gens,
            bitmap_refs,
            config,
        };
        if report.index == IndexRecovery::Rebuilt {
            system.reindex_from_pages()?;
        } else if system.config.bitmap_buckets > 0 {
            // The open segment's marks are never persisted (it has no
            // sidecar until it seals); rebuild them from its pages so a
            // seal after this mount still freezes complete bitmaps.
            system.rebuild_open_marks()?;
        }
        Ok((system, report))
    }

    fn build_page_cache(config: &SystemConfig) -> Option<PageCache> {
        (config.page_cache_bytes > 0).then(|| PageCache::new(config.page_cache_bytes))
    }

    /// The cache view scans run against: the cache (when configured) plus
    /// the per-page generation map, so each page is keyed by its owning
    /// segment's generation.
    fn cache_view(&self) -> CacheView<'_> {
        self.page_cache
            .as_ref()
            .map(|c| (c, GenMap::PerPage(&self.page_gens)))
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Overrides the worker count for subsequent queries and ingests
    /// (`0` = one worker per modeled flash channel). Changing it never
    /// changes results — the datapath is byte-identical for every thread
    /// count — only wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics if `threads` exceeds [`SystemConfig::MAX_QUERY_THREADS`];
    /// callers taking untrusted input should validate with
    /// [`SystemConfig::checked_query_threads`] first.
    pub fn set_query_threads(&mut self, threads: usize) {
        assert!(
            threads <= SystemConfig::MAX_QUERY_THREADS,
            "query_threads {} exceeds the {} maximum",
            threads,
            SystemConfig::MAX_QUERY_THREADS
        );
        self.config.query_threads = threads;
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

    /// Scans the whole device, verifying every page checksum, and returns a
    /// corruption report (see [`SimSsd::scrub`]). Pages that fail
    /// verification are quarantined: subsequent reads fail up front with
    /// zero charges until the page is rewritten.
    pub fn scrub(&mut self) -> mithrilog_storage::ScrubReport {
        let mut report = self.ssd.scrub();
        report.bitmaps_dropped += self.verify_sidecars();
        report
    }

    /// Re-validates every persisted pruning-bitmap sidecar against its
    /// checkpoint directory entry (CRC, decode, geometry). A sidecar that
    /// fails is dropped — the segment's in-memory bitmaps are cleared and
    /// its directory entry removed, so planning falls back to the
    /// conservative page set (degrade, don't lie) and the next commit
    /// persists a fresh sidecar if the bitmaps are ever rebuilt. Returns
    /// the number of sidecars dropped.
    fn verify_sidecars(&mut self) -> u64 {
        let mut dropped = 0u64;
        let refs: Vec<BitmapRef> = self.bitmap_refs.values().copied().collect();
        for bref in refs {
            let seg_pages = self
                .segments
                .iter()
                .find(|s| s.id == bref.segment_id)
                .map(|s| s.pages.len());
            let Some(seg_pages) = seg_pages else {
                // Directory entry for a segment that no longer exists;
                // defensive cleanup, not a verification failure.
                self.bitmap_refs.remove(&bref.segment_id);
                continue;
            };
            let ok =
                Self::load_segment_bitmaps(&mut self.ssd, &self.config, &bref, seg_pages).is_some();
            if !ok {
                dropped += 1;
                self.bitmap_refs.remove(&bref.segment_id);
                if let Some(seg) = self.segments.iter_mut().find(|s| s.id == bref.segment_id) {
                    seg.bitmaps = None;
                }
            }
        }
        dropped
    }

    /// Verifies one bounded slice of the device, for incremental (online)
    /// scrubbing between foreground work (see [`SimSsd::scrub_slice`]).
    /// Like [`MithriLog::scrub`], failing pages are quarantined.
    pub fn scrub_slice(&mut self, start: u64, max_pages: u64) -> mithrilog_storage::ScrubSlice {
        self.ssd.scrub_slice(start, max_pages)
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

    /// Verifies one sealed segment end to end: every member page is read
    /// back and the recomputed CRC summary compared against the seal-time
    /// one. `None` for an unknown (never sealed, or already dropped) id;
    /// `Some(false)` when any page is unreadable or the summary mismatches.
    pub fn verify_segment(&mut self, id: u64) -> Option<bool> {
        let (pages, want) = {
            let seg = self.segments.iter().find(|s| s.id == id)?;
            (seg.pages.clone(), seg.crc)
        };
        let mut summary = Crc32::new();
        for page in &pages {
            match self.ssd.read(*page) {
                Ok(raw) => summary.update(&crc32(&raw).to_le_bytes()),
                Err(_) => return Some(false),
            }
        }
        Some(summary.finalize() == want)
    }

    /// Scrubs exactly one sealed segment's pages (see
    /// [`SimSsd::scrub_pages`]): failing pages are quarantined, shrinking
    /// the blast radius to queries that demand this segment. `None` for an
    /// unknown id.
    pub fn scrub_segment(&mut self, id: u64) -> Option<mithrilog_storage::ScrubReport> {
        let pages: Vec<u64> = self
            .segments
            .iter()
            .find(|s| s.id == id)?
            .pages
            .iter()
            .map(|p| p.0)
            .collect();
        Some(self.ssd.scrub_pages(&pages))
    }

    /// Quarantines every page of one sealed segment — the operational
    /// response to a failed [`MithriLog::verify_segment`]. Only queries
    /// whose plans demand this segment's pages degrade (reported per query
    /// in [`DegradedRead::skipped_pages`]); everything else is untouched.
    /// Returns the number of pages quarantined, or `None` for an unknown
    /// id.
    pub fn quarantine_segment(&mut self, id: u64) -> Option<u64> {
        let pages: Vec<PageId> = self.segments.iter().find(|s| s.id == id)?.pages.clone();
        for page in &pages {
            self.ssd.quarantine_page(page.0);
        }
        Some(pages.len() as u64)
    }

    /// Drops the oldest sealed segments until at most `keep_segments`
    /// remain, crash-consistently: the drop is journaled and acknowledged
    /// by the same two-barrier commit protocol as ingest, so recovery
    /// either sees the whole drop or none of it — a dropped segment never
    /// resurrects, and a crash before the flip leaves every segment
    /// intact. The open segment is never droppable.
    ///
    /// Dropped pages leave the live-page map immediately: plans stop
    /// including them and their cache entries are unreachable. The
    /// inverted index keeps its (now stale) postings until the next
    /// rebuild — plan-time filtering makes that a pure size overhead,
    /// never a correctness issue. Like any log-structured store, the
    /// physical pages are not reclaimed by the simulated device.
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the commit.
    pub fn apply_retention(
        &mut self,
        keep_segments: u64,
    ) -> Result<RetentionReport, MithriLogError> {
        let keep = usize::try_from(keep_segments).unwrap_or(usize::MAX);
        let mut report = RetentionReport::default();
        if self.segments.len() <= keep {
            report.segments_retained = self.segments.len() as u64;
            return Ok(report);
        }
        let drop_count = self.segments.len() - keep;
        let dropped: Vec<Segment> = self.segments.drain(..drop_count).collect();
        let mut dropped_pages: HashSet<u64> = HashSet::new();
        for seg in &dropped {
            report.segments_dropped += 1;
            report.pages_dropped += seg.pages.len() as u64;
            report.lines_dropped += seg.lines;
            report.raw_bytes_dropped += seg.raw_bytes;
            self.total_lines -= seg.lines;
            self.total_raw_bytes -= seg.raw_bytes;
            self.total_compressed_bytes -= seg.compressed_bytes;
            for p in &seg.pages {
                self.page_gens.remove(&p.0);
                dropped_pages.insert(p.0);
            }
            self.pending.drops.push(seg.id);
            self.bitmap_refs.remove(&seg.id);
        }
        self.data_pages.retain(|p| !dropped_pages.contains(&p.0));
        report.segments_retained = self.segments.len() as u64;
        self.commit()?;
        Ok(report)
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
            .map(|r| (r.segment_id, r.first_page, r.page_count))
            .collect()
    }

    /// The modeled accelerator throughput for the ingested corpus
    /// (Figure 14's per-dataset bar).
    pub fn modeled_throughput(&self) -> Throughput {
        let util = {
            let occ = self.scatter.occupancy();
            if occ.lines == 0 {
                1.0
            } else {
                occ.utilization
            }
        };
        let inputs = DatasetInputs::from_stats(&self.stats, self.compression_ratio(), util);
        ThroughputModel::new(AcceleratorConfig {
            storage_internal_gbps: self.config.device.internal_bw / 1e9,
            ..AcceleratorConfig::prototype()
        })
        .effective_throughput(&inputs)
    }

    /// Ingests a batch of log text: compress → store → index.
    ///
    /// Compression runs on the same worker pool as the query datapath (the
    /// paper compresses on ingest with the same per-pipeline hardware): the
    /// input splits at line boundaries into fixed-size shards whose
    /// boundaries depend only on the input, so the resulting page layout is
    /// byte-identical for every thread count.
    ///
    /// Pages are append-only, so an ingest never invalidates cached text of
    /// existing pages — the page cache stays warm across ingests. Once the
    /// open segment reaches [`SystemConfig::segment_pages`] pages it seals:
    /// the run becomes an immutable, CRC-summarized [`SegmentSummary`]
    /// journaled by the same commit that makes its pages durable.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn ingest(&mut self, text: &[u8]) -> Result<IngestReport, MithriLogError> {
        let prep = PreparedIngest::build(&self.config, Cow::Borrowed(text));
        self.apply_ingest(&prep)
    }

    /// Applies frames prepared by [`PreparedIngest::build`]: append → index
    /// → account → seal-check, then one journaled commit. The serial,
    /// device-touching half of an ingest; byte-identical to
    /// [`MithriLog::ingest`] of the same text.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn apply_ingest(
        &mut self,
        prep: &PreparedIngest<'_>,
    ) -> Result<IngestReport, MithriLogError> {
        let mut report = IngestReport {
            raw_bytes: 0,
            lines: 0,
            data_pages: 0,
            compressed_bytes: 0,
        };
        for frame in &prep.frames {
            let page = self.ssd.append(&frame.data)?;
            self.data_pages.push(page);
            self.pending.data_pages.push(page.0);
            self.page_gens.insert(page.0, self.open.generation);
            self.open.pages.push(page);
            self.open.page_marks.extend(frame.facts.marks.clone());
            self.fold_page(page, &prep.text[frame.raw_range.clone()], &frame.facts)?;

            report.raw_bytes += frame.raw_range.len() as u64;
            report.lines += frame.lines;
            report.data_pages += 1;
            report.compressed_bytes += frame.data.len() as u64;
            self.open.raw_bytes += frame.raw_range.len() as u64;
            self.open.lines += frame.lines;
            self.open.compressed_bytes += frame.data.len() as u64;

            self.logical_clock += frame.lines;
            if self.index.should_snapshot() {
                let watermark = PageId(self.ssd.page_count());
                self.index
                    .snapshot(&mut self.ssd, self.logical_clock, watermark)?;
            }
            if self.open.pages.len() as u64 >= self.config.segment_pages {
                self.seal_open();
            }
        }
        self.total_raw_bytes += report.raw_bytes;
        self.total_lines += report.lines;
        self.total_compressed_bytes += report.compressed_bytes;
        self.pending.lines += report.lines;
        self.pending.raw_bytes += report.raw_bytes;
        self.pending.compressed_bytes += report.compressed_bytes;
        self.commit()?;
        Ok(report)
    }

    /// Folds one analysed page into the index and the throughput model —
    /// the step ingest and reindex share, so both leave the same state.
    fn fold_page(
        &mut self,
        page: PageId,
        text: &[u8],
        facts: &PageFacts,
    ) -> Result<(), MithriLogError> {
        self.index
            .insert_page_tokens(&mut self.ssd, page, facts.distinct(text))?;
        self.stats.merge(&facts.stats);
        self.scatter.schedule_text(&self.tokenizer, text);
        Ok(())
    }

    /// Seals the whole open segment: the run of open pages becomes an
    /// immutable [`Segment`] with a CRC summary over its per-page CRC32s,
    /// keeping its cache generation (sealing changes nothing about the
    /// pages, so cached text stays live), and a [`SealRecord`] is queued
    /// for the next commit. A fresh open segment takes over with a new
    /// generation.
    fn seal_open(&mut self) {
        let pages = std::mem::take(&mut self.open.pages);
        let crc = self.segment_crc(&pages);
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        let generation = self.open.generation;
        let marks = std::mem::take(&mut self.open.page_marks);
        // Freeze the pruning bitmaps only when every page carries marks —
        // a partially-marked run (bitmaps enabled mid-life) stays
        // conservative rather than lying about the unmarked pages.
        let bitmaps = (self.config.bitmap_buckets > 0 && marks.len() == pages.len())
            .then(|| SegmentBitmaps::build(self.config.bitmap_buckets, &marks));
        let seg = Segment {
            id,
            crc,
            pages,
            lines: std::mem::take(&mut self.open.lines),
            raw_bytes: std::mem::take(&mut self.open.raw_bytes),
            compressed_bytes: std::mem::take(&mut self.open.compressed_bytes),
            generation,
            bitmaps,
        };
        self.open = OpenSegment::new(self.next_generation);
        self.next_generation += 1;
        self.pending.seals.push(SealRecord {
            // The sealing commit's sequence is not known yet; commit()
            // stamps it when the record is journaled.
            sequence: 0,
            segment_id: seg.id,
            crc: seg.crc,
            pages: seg.pages.iter().map(|p| p.0).collect(),
            lines: seg.lines,
            raw_bytes: seg.raw_bytes,
            compressed_bytes: seg.compressed_bytes,
        });
        self.segments.push(seg);
    }

    /// The seal-time CRC summary of a page run: CRC32 over the
    /// little-endian per-page CRC32s in page order — computed from the
    /// device's checksum sidecar without re-reading data. Pages whose
    /// sidecar entry is cold (appended before the last mount) are read
    /// once; an unreadable page contributes a zero placeholder so sealing
    /// never fails — a later [`MithriLog::verify_segment`] correctly flags
    /// the segment instead.
    fn segment_crc(&mut self, pages: &[PageId]) -> u32 {
        let mut summary = Crc32::new();
        for page in pages {
            let crc = match self.ssd.page_crc(page.0) {
                Some(c) => c,
                None => self.ssd.read(*page).map(|raw| crc32(&raw)).unwrap_or(0),
            };
            summary.update(&crc.to_le_bytes());
        }
        summary.finalize()
    }

    /// Runs the journaled commit protocol, making everything ingested since
    /// the last commit durable:
    ///
    /// 1. seal the index pools (no later allocation may rewrite a page at
    ///    or below the new committed frontier);
    /// 2. append the index checkpoint pages;
    /// 3. append the journal manifest record for this commit;
    /// 4. **sync barrier 1** — payload durable before the superblock moves;
    /// 5. write the superblock into the inactive slot and **sync barrier
    ///    2** — the atomic flip that acknowledges the commit.
    ///
    /// A crash anywhere before barrier 2 completes leaves the previous
    /// superblock active and the whole commit in the discardable tail.
    fn commit(&mut self) -> Result<(), MithriLogError> {
        self.index.seal_storage();
        self.persist_segment_bitmaps()?;
        let blob = self.checkpoint_blob();
        let page_bytes = self.config.device.page_bytes;
        let ckpt = CheckpointRef {
            first_page: self.ssd.page_count(),
            page_count: blob.len().div_ceil(page_bytes) as u64,
            byte_len: blob.len() as u64,
            crc: crc32(&blob),
        };
        for chunk in blob.chunks(page_bytes) {
            self.ssd.append(chunk)?;
        }
        let sequence = self.superblock.sequence + 1;
        let record = CommitRecord {
            sequence,
            data_pages: std::mem::take(&mut self.pending.data_pages),
            lines: self.pending.lines,
            raw_bytes: self.pending.raw_bytes,
            compressed_bytes: self.pending.compressed_bytes,
        };
        let mut head = append_commit(&mut self.ssd, self.superblock.journal_head, &record)?;
        // Segment transitions ride the same commit: seal and drop records
        // chain behind the commit record, all under one superblock flip —
        // a crash anywhere before barrier 2 discards them together.
        for mut seal in std::mem::take(&mut self.pending.seals) {
            seal.sequence = sequence;
            head = append_record(&mut self.ssd, Some(head), &JournalRecord::Seal(seal))?;
        }
        if !self.pending.drops.is_empty() {
            let drop = DropRecord {
                sequence,
                segments: std::mem::take(&mut self.pending.drops),
            };
            head = append_record(&mut self.ssd, Some(head), &JournalRecord::Drop(drop))?;
        }
        self.ssd.sync()?; // barrier 1: payload before the flip
        let sb = Superblock {
            format_version: Superblock::FORMAT_VERSION,
            page_bytes: page_bytes as u32,
            sequence: record.sequence,
            committed_pages: self.ssd.page_count(),
            journal_head: Some(head),
            checkpoint: Some(ckpt),
        };
        write_superblock_commit(&mut self.ssd, &sb)?; // barrier 2
        self.superblock = sb;
        self.pending = PendingCommit::default();
        Ok(())
    }

    /// Appends the sidecar blob of every sealed segment whose bitmaps are
    /// not yet durable (fresh seals, or rebuilds after a dropped sidecar),
    /// recording each blob's location and CRC for the checkpoint. Runs
    /// before the checkpoint blob is built so the refs it serializes are
    /// complete; the pages ride the same commit as the seal record.
    fn persist_segment_bitmaps(&mut self) -> Result<(), MithriLogError> {
        let page_bytes = self.config.device.page_bytes;
        for seg in &self.segments {
            let Some(bitmaps) = &seg.bitmaps else {
                continue;
            };
            if self.bitmap_refs.contains_key(&seg.id) {
                continue;
            }
            let blob = bitmaps.to_bytes();
            let bref = BitmapRef {
                segment_id: seg.id,
                first_page: self.ssd.page_count(),
                page_count: blob.len().div_ceil(page_bytes) as u64,
                byte_len: blob.len() as u64,
                crc: crc32(&blob),
            };
            for chunk in blob.chunks(page_bytes) {
                self.ssd.append(chunk)?;
            }
            self.bitmap_refs.insert(seg.id, bref);
        }
        Ok(())
    }

    /// Serializes the host-side state a mount cannot reconstruct from the
    /// journal alone: the index, the datapath statistics, the scatter
    /// schedule, the segment bitmap sidecar directory, and the running
    /// totals for cross-checking.
    fn checkpoint_blob(&self) -> Vec<u8> {
        let mut blob = Vec::new();
        blob.extend_from_slice(CHECKPOINT_MAGIC);
        blob.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        blob.extend_from_slice(&self.total_raw_bytes.to_le_bytes());
        blob.extend_from_slice(&self.total_lines.to_le_bytes());
        blob.extend_from_slice(&self.total_compressed_bytes.to_le_bytes());
        for section in [
            self.index.checkpoint_bytes(),
            self.stats.to_bytes(),
            self.scatter.to_bytes(),
            self.bitmap_refs_bytes(),
        ] {
            blob.extend_from_slice(&(section.len() as u64).to_le_bytes());
            blob.extend_from_slice(&section);
        }
        blob
    }

    /// Serializes the sidecar directory: one fixed-width entry per durable
    /// segment bitmap blob, ascending by segment id.
    fn bitmap_refs_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.bitmap_refs.len() * 36);
        out.extend_from_slice(&(self.bitmap_refs.len() as u64).to_le_bytes());
        for bref in self.bitmap_refs.values() {
            out.extend_from_slice(&bref.segment_id.to_le_bytes());
            out.extend_from_slice(&bref.first_page.to_le_bytes());
            out.extend_from_slice(&bref.page_count.to_le_bytes());
            out.extend_from_slice(&bref.byte_len.to_le_bytes());
            out.extend_from_slice(&bref.crc.to_le_bytes());
        }
        out
    }

    /// Parses the sidecar directory section of a checkpoint. Entries must
    /// ascend strictly by segment id and consume the section exactly.
    fn parse_bitmap_refs(bytes: &[u8]) -> Option<BTreeMap<u64, BitmapRef>> {
        let (count, mut rest) = take_u64(bytes)?;
        let mut refs = BTreeMap::new();
        let mut last: Option<u64> = None;
        for _ in 0..count {
            if rest.len() < 36 {
                return None;
            }
            let segment_id = u64::from_le_bytes(rest[..8].try_into().ok()?);
            let first_page = u64::from_le_bytes(rest[8..16].try_into().ok()?);
            let page_count = u64::from_le_bytes(rest[16..24].try_into().ok()?);
            let byte_len = u64::from_le_bytes(rest[24..32].try_into().ok()?);
            let crc = u32::from_le_bytes(rest[32..36].try_into().ok()?);
            rest = &rest[36..];
            if last.is_some_and(|l| l >= segment_id) {
                return None;
            }
            last = Some(segment_id);
            refs.insert(
                segment_id,
                BitmapRef {
                    segment_id,
                    first_page,
                    page_count,
                    byte_len,
                    crc,
                },
            );
        }
        if !rest.is_empty() {
            return None;
        }
        Some(refs)
    }

    /// Reads and validates the checkpoint blob `ckpt` points at. Any
    /// failure — unreadable pages, CRC mismatch, malformed sections,
    /// parameter drift — returns `None` and recovery falls back to a full
    /// reindex; the checkpoint is an optimization, never a correctness
    /// dependency.
    #[allow(clippy::type_complexity)]
    fn load_checkpoint(
        ssd: &mut SimSsd<S>,
        config: &SystemConfig,
        ckpt: &CheckpointRef,
    ) -> Option<(
        InvertedIndex,
        DatapathStats,
        ScatterGather,
        BTreeMap<u64, BitmapRef>,
        [u64; 3],
    )> {
        let mut blob = Vec::with_capacity(ckpt.byte_len as usize);
        for page in ckpt.first_page..ckpt.first_page + ckpt.page_count {
            blob.extend_from_slice(&ssd.read(PageId(page)).ok()?);
        }
        if (ckpt.byte_len as usize) > blob.len() {
            return None;
        }
        blob.truncate(ckpt.byte_len as usize);
        if crc32(&blob) != ckpt.crc {
            return None;
        }
        let rest = blob.strip_prefix(CHECKPOINT_MAGIC)?;
        let (version, mut rest) = take_u32(rest)?;
        if version != CHECKPOINT_VERSION {
            return None;
        }
        let mut totals = [0u64; 3];
        for t in &mut totals {
            let (v, r) = take_u64(rest)?;
            *t = v;
            rest = r;
        }
        let (index_bytes, rest) = take_section(rest)?;
        let (stats_bytes, rest) = take_section(rest)?;
        let (scatter_bytes, rest) = take_section(rest)?;
        let (refs_bytes, rest) = take_section(rest)?;
        if !rest.is_empty() {
            return None;
        }
        let index =
            InvertedIndex::restore_checkpoint(config.index, config.device.page_bytes, index_bytes)?;
        let stats = DatapathStats::from_bytes(stats_bytes)?;
        let scatter = ScatterGather::from_bytes(scatter_bytes)?;
        if scatter.lanes() != config.tokenizer.lanes {
            return None;
        }
        let refs = Self::parse_bitmap_refs(refs_bytes)?;
        Some((index, stats, scatter, refs, totals))
    }

    /// Loads one segment's bitmap sidecar from its durable ref, validating
    /// byte length, CRC, decode, and geometry against the live segment.
    /// Any failure returns `None`: the segment plans conservatively.
    fn load_segment_bitmaps(
        ssd: &mut SimSsd<S>,
        config: &SystemConfig,
        bref: &BitmapRef,
        segment_pages: usize,
    ) -> Option<SegmentBitmaps> {
        let mut blob = Vec::with_capacity(bref.byte_len as usize);
        for page in bref.first_page..bref.first_page + bref.page_count {
            blob.extend_from_slice(&ssd.read(PageId(page)).ok()?);
        }
        if (bref.byte_len as usize) > blob.len() {
            return None;
        }
        blob.truncate(bref.byte_len as usize);
        if crc32(&blob) != bref.crc {
            return None;
        }
        let bitmaps = SegmentBitmaps::from_bytes(&blob)?;
        if bitmaps.buckets() != config.bitmap_buckets || bitmaps.pages() != segment_pages {
            return None;
        }
        Some(bitmaps)
    }

    /// Rebuilds the in-memory index (and the rest of the host-side state)
    /// by rescanning the data pages — the recovery path after a host
    /// restart, where the paper's in-memory hash table is lost and only the
    /// pages survive on the device.
    ///
    /// The device keeps its existing pages; a fresh index is constructed
    /// over them (old in-storage index nodes become garbage, as in any
    /// log-structured design). Query results before and after a rebuild are
    /// identical (covered by the recovery integration test).
    ///
    /// # Errors
    ///
    /// Propagates storage and decompression errors from the rescan.
    pub fn rebuild_index(&mut self) -> Result<(), MithriLogError> {
        self.reindex_from_pages()?;
        self.commit()
    }

    /// The reindex body shared by [`MithriLog::rebuild_index`] and the
    /// recovery fallback: rescans every data page, reconstructing the
    /// index, statistics and pruning bitmaps. Does not commit.
    ///
    /// The store totals are left alone: the live counters (or, at mount,
    /// the journal) already hold them, and page text cannot reproduce the
    /// ingest-time line count, which counts blank lines and a line longer
    /// than a page once.
    fn reindex_from_pages(&mut self) -> Result<(), MithriLogError> {
        let codec = Lzah::new(self.config.lzah);
        self.index =
            InvertedIndex::with_page_bytes(self.config.index, self.config.device.page_bytes);
        self.stats = DatapathStats::new();
        self.scatter = ScatterGather::new(self.config.tokenizer.lanes);
        let buckets = self.config.bitmap_buckets;
        let mut marks_by_page: HashMap<u64, PageMarks> = HashMap::new();
        for page in self.data_pages.clone() {
            let text = codec.decompress(&self.ssd.read(page)?)?;
            let facts = PageFacts::of(&self.tokenizer, buckets, &text);
            self.fold_page(page, &text, &facts)?;
            marks_by_page.extend(facts.marks.map(|m| (page.0, m)));
        }
        // Rebuild the pruning bitmaps from the same rescan: sealed
        // segments re-freeze deterministically (byte-identical to their
        // seal-time sidecars), the open segment gets its marks back. The
        // fresh sidecars become durable at the next commit.
        if buckets > 0 {
            for seg in &mut self.segments {
                let marks: Option<Vec<PageMarks>> = seg
                    .pages
                    .iter()
                    .map(|p| marks_by_page.remove(&p.0))
                    .collect();
                seg.bitmaps = marks.map(|m| SegmentBitmaps::build(buckets, &m));
            }
            self.open.page_marks = self
                .open
                .pages
                .iter()
                .filter_map(|p| marks_by_page.remove(&p.0))
                .collect();
        }
        Ok(())
    }

    /// Recomputes the open segment's per-page marks from its pages — the
    /// mount path's counterpart to the marks [`PreparedIngest::build`]
    /// accumulates during normal ingest.
    fn rebuild_open_marks(&mut self) -> Result<(), MithriLogError> {
        let codec = Lzah::new(self.config.lzah);
        let mut marks = Vec::with_capacity(self.open.pages.len());
        for page in self.open.pages.clone() {
            let text = codec.decompress(&self.ssd.read(page)?)?;
            marks.extend(PageFacts::of(&self.tokenizer, self.config.bitmap_buckets, &text).marks);
        }
        self.open.page_marks = marks;
        Ok(())
    }

    /// Takes an explicit index snapshot with a caller-supplied timestamp.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn snapshot_at(&mut self, timestamp: u64) -> Result<(), MithriLogError> {
        let watermark = PageId(self.ssd.page_count());
        self.index.snapshot(&mut self.ssd, timestamp, watermark)?;
        self.commit()
    }

    /// Parses and executes a query.
    ///
    /// # Errors
    ///
    /// Returns parse errors, storage errors, or decompression errors.
    pub fn query_str(&mut self, query_text: &str) -> Result<QueryOutcome, MithriLogError> {
        self.query_request(QueryRequest::parse(query_text)?)
    }

    /// Executes a query restricted to the time interval `[t1, t2]` using
    /// the index's snapshot watermarks (§6.3 coarse time-based indexing):
    /// the page plan is clipped to the page-id window bracketing the
    /// interval, so untouched epochs cost nothing.
    ///
    /// Timestamps use whatever clock snapshots were taken with
    /// ([`MithriLog::snapshot_at`], or the ingested-lines logical clock for
    /// automatic snapshots).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MithriLog::query`].
    pub fn query_time_range(
        &mut self,
        query: &Query,
        t1: u64,
        t2: u64,
    ) -> Result<QueryOutcome, MithriLogError> {
        self.query_request(QueryRequest::new(query.clone()).with_time_range(t1, t2))
    }

    /// Executes a query end to end: index plan → page stream →
    /// decompress → token filter → matching lines.
    ///
    /// If the query cannot be compiled onto the hardware filter (too many
    /// sets/tokens or cuckoo placement failure), it transparently falls
    /// back to software evaluation, as the paper prescribes; the outcome's
    /// `offloaded` flag records which path ran.
    ///
    /// Storage faults degrade the query instead of failing it: corrupt or
    /// persistently unreadable data pages are skipped (reported in
    /// [`QueryOutcome::degraded`] together with an estimate of the lines
    /// lost), transient read errors are retried by the device, and a corrupt
    /// *index* page downgrades the plan to a filtered full scan — complete
    /// results, just without pruning.
    ///
    /// # Errors
    ///
    /// Propagates parse errors and non-survivable storage errors
    /// (out-of-range access, host I/O failure).
    pub fn query(&mut self, query: &Query) -> Result<QueryOutcome, MithriLogError> {
        self.query_request(QueryRequest::new(query.clone()))
    }

    /// A solo query is a wave of one: same planner, same scan kernel, same
    /// outcome assembly as any other wave.
    fn query_request(&mut self, request: QueryRequest) -> Result<QueryOutcome, MithriLogError> {
        let mut wave = self.query_shared(std::slice::from_ref(&request))?;
        Ok(wave.outcomes.pop().expect("one outcome per request"))
    }

    /// Executes a batch of concurrently admitted queries as **one shared
    /// scan**: the union of the batch's page plans is read and
    /// LZAH-decompressed once per distinct page, and each page's text is
    /// fanned out to every query that planned it — the paper's single flash
    /// stream amortized across multiple pattern matchers.
    ///
    /// # Determinism contract
    ///
    /// For each request, the returned [`QueryOutcome`] is byte-identical to
    /// executing the same request alone on the same snapshot: matched
    /// lines, `offloaded`, `used_index`, `pages_scanned`, `bytes_filtered`,
    /// `lines_scanned`, the degraded-read report, and the per-query cost
    /// ledger (charged *as if solo* — every planned page in full) never
    /// depend on what else is in the batch. What concurrency changes is
    /// reported separately: the device ledger records only the physical
    /// reads (each union page once, with the avoided duplicates in
    /// [`CostLedger::shared_reads`]), and the [`SharedScanReport`] splits
    /// each shared page's cost evenly across its sharers. The one
    /// as-if-solo approximation: a transient-read episode on a shared page
    /// drains once, so retry counts mirror a solo run against a fresh
    /// fault plan, not against a device whose episodes other queries in the
    /// batch already drained.
    ///
    /// [`CostLedger::shared_reads`]: mithrilog_storage::CostLedger
    ///
    /// # Errors
    ///
    /// Propagates non-survivable storage errors (out-of-range access, host
    /// I/O failure) batch-wide; survivable faults degrade the affected
    /// queries exactly as in [`MithriLog::query`].
    pub fn query_shared(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<SharedBatchOutcome, MithriLogError> {
        let wall_start = Instant::now();
        let wave = self.plan_wave(requests)?;
        let pipelines: Vec<Option<FilterPipeline>> = requests
            .iter()
            .map(|req| {
                FilterPipeline::compile_with(
                    &req.query,
                    self.config.filter,
                    self.config.tokenizer.clone(),
                )
                .ok()
            })
            .collect();
        let fan_queries: Vec<exec::FanQuery<'_>> = requests
            .iter()
            .zip(&pipelines)
            .zip(&wave.queries)
            .map(|((req, pipeline), planned)| exec::FanQuery {
                engine: match pipeline {
                    Some(p) => Engine::Hardware(p),
                    None => Engine::Software(&req.query),
                },
                pages: &planned.pages,
                cancel: req.cancel.as_ref(),
            })
            .collect();
        // The parallel datapath: union pages striped across the worker
        // pool, each worker running its own read → decompress → filter
        // pipeline with a private cost ledger (see `exec`). The device
        // records only physical work plus the shared-read and cache-hit
        // counters; each query is charged as if solo below.
        let fan = exec::scan_wave(
            &self.ssd,
            self.config.lzah,
            &fan_queries,
            self.config.resolved_query_threads(),
            self.cache_view(),
        );
        self.ssd.merge_ledger(&fan.device_ledger);
        if let Some(e) = fan.error {
            return Err(e.into());
        }

        let wall_time = wall_start.elapsed();
        let mut report = SharedScanReport {
            unique_pages_read: fan.union_pages,
            shared_reads_avoided: fan.device_ledger.shared_reads,
            cache_hits: fan.device_ledger.cache_hits,
            cache_bytes_saved: fan.device_ledger.cache_bytes_saved,
            probe_node_visits_demanded: wave.probe_report.node_visits_demanded,
            probe_node_visits_physical: wave.probe_report.node_visits_physical,
            attribution: Vec::with_capacity(requests.len()),
            ..SharedScanReport::default()
        };
        let mut outcomes = Vec::with_capacity(requests.len());
        for ((planned, scan), pipeline) in wave.queries.iter().zip(fan.queries).zip(&pipelines) {
            let attribution = ScanAttribution {
                pruned_by_index: planned.pruned_by_index(),
                pruned_by_bitmap: planned.pruned_by_bitmap(),
                pruned_by_both: planned.pruned_by_both(),
                ..scan.attribution
            };
            report.demanded_page_reads += attribution.planned_pages;
            report.pages_pruned_by_index += attribution.pruned_by_index;
            report.pages_pruned_by_bitmap += attribution.pruned_by_bitmap;
            report.pages_pruned_by_both += attribution.pruned_by_both;
            report.attribution.push(attribution);

            // Planning charges (the as-if-solo probe replay; the physical
            // walk already sits on the device ledger) plus the scan's.
            let mut ledger = planned.plan_ledger;
            ledger.merge(&scan.ledger);
            // Estimate what the lost pages held from *this query's*
            // observed line density when at least one page was scanned; the
            // global average (which counts pages from other epochs) is only
            // a fallback for the nothing-was-scanned case.
            let lost =
                scan.skipped_pages.len() as u64 + planned.budget_clipped + planned.deadline_clipped;
            let estimated_missed_lines = if lost == 0 {
                0
            } else if scan.pages_filtered > 0 {
                scan.lines_scanned.div_ceil(scan.pages_filtered) * lost
            } else {
                self.avg_lines_per_page() * lost
            };
            let modeled_time = self.model_query_time(&ledger, scan.bytes_filtered, &scan.lines);
            outcomes.push(QueryOutcome {
                lines: scan.lines,
                line_pages: scan.line_pages,
                offloaded: pipeline.is_some(),
                used_index: planned.used_index,
                pages_scanned: planned.pages.len() as u64,
                bytes_filtered: scan.bytes_filtered,
                lines_scanned: scan.lines_scanned,
                ledger,
                modeled_time,
                wall_time,
                degraded: DegradedRead {
                    skipped_pages: scan.skipped_pages,
                    retries: ledger.retries,
                    estimated_missed_lines,
                    index_fallback: planned.index_fallback,
                    budget_clipped: planned.budget_clipped,
                    deadline_clipped: planned.deadline_clipped,
                },
            });
        }
        Ok(SharedBatchOutcome {
            outcomes,
            shared: report,
        })
    }

    /// Plans a wave of requests through one batched index probe plus the
    /// per-segment pruning bitmaps, then clips each plan to its request's
    /// own time window, page budget and deadline
    /// ([`MithriLog::clip_to_request`]). The single request → final-plan
    /// path: a solo query, a wave and [`MithriLog::explain`] all plan here.
    ///
    /// * Every query that wants the index (per
    ///   [`MithriLog::index_probe_is_worthwhile`]) joins a single
    ///   level-wise traversal ([`InvertedIndex::probe_batch`]): shared hash
    ///   entries are walked once physically while each query's ledger is
    ///   replayed as if it probed alone, so per-query ledgers are
    ///   byte-identical to solo runs and the saved walks are credited to
    ///   the device ledger as shared reads — the same demanded-vs-physical
    ///   split the scan fan-out uses.
    /// * With [`SystemConfig::bitmap_buckets`] > 0 (and `use_index` on),
    ///   every sealed segment's frozen bitmaps classify each live page:
    ///   kept, pruned by the index plan, pruned by the bitmaps (a positive
    ///   term absent from the page, or a negated term saturating it), or
    ///   both. Bitmap pruning never skips a page that could hold a matching
    ///   line (see `crate::bitmaps`), so outcomes stay byte-identical; the
    ///   open segment and segments without bitmaps are never pruned.
    ///
    /// # Errors
    ///
    /// Propagates non-survivable probe errors; survivable (skippable) ones
    /// degrade the affected query to a filtered full scan.
    fn plan_wave(&mut self, requests: &[QueryRequest]) -> Result<WavePlan, MithriLogError> {
        let wants_probe: Vec<bool> = requests
            .iter()
            .map(|r| self.config.use_index && self.index_probe_is_worthwhile(&r.query))
            .collect();
        let probing: Vec<&Query> = requests
            .iter()
            .zip(&wants_probe)
            .filter(|(_, w)| **w)
            .map(|(r, _)| &r.query)
            .collect();
        let (probed, probe_report) = if probing.is_empty() {
            (Vec::new(), mithrilog_index::BatchProbeReport::default())
        } else {
            self.index.probe_batch(&mut self.ssd, &probing)
        };
        // Entry walks demanded by several queries were paid once; credit
        // the difference on the device ledger as shared reads so the
        // demanded-vs-physical story stays consistent batch-wide.
        let saved = probe_report.node_visits_saved();
        if saved > 0 {
            let credit = mithrilog_storage::CostLedger {
                shared_reads: saved,
                ..Default::default()
            };
            self.ssd.merge_ledger(&credit);
        }
        let bitmaps_on = self.config.use_index && self.config.bitmap_buckets > 0;
        let mut probed_iter = probed.into_iter();
        let mut planned = Vec::with_capacity(requests.len());
        for (req, wants) in requests.iter().zip(&wants_probe) {
            let query = &req.query;
            let mut plan_ledger = mithrilog_storage::CostLedger::default();
            let mut index_fallback = false;
            let plan = if *wants {
                let p = probed_iter
                    .next()
                    .expect("one probed plan per probing query");
                plan_ledger = p.ledger;
                match p.plan {
                    Ok(plan) => plan,
                    // A corrupt/unreadable index page costs only the
                    // pruning: fall back to scanning everything through
                    // the filter.
                    Err(e) if page_is_skippable(&e) => {
                        index_fallback = true;
                        QueryPlan::FullScan
                    }
                    Err(e) => return Err(e.into()),
                }
            } else {
                QueryPlan::FullScan
            };
            let (mut pages, used_index): (Vec<PageId>, bool) = match &plan {
                QueryPlan::Pages(p) => (p.clone(), true),
                QueryPlan::FullScan => (self.data_pages.clone(), false),
            };
            if used_index {
                // The index may still hold postings to retention-dropped
                // pages; plans only ever scan live pages.
                pages.retain(|p| self.page_gens.contains_key(&p.0));
            }
            // Classify every live page against the index plan and the
            // segment bitmaps; the sealed + open segments partition the
            // live pages exactly.
            let index_set: Option<HashSet<u64>> =
                used_index.then(|| pages.iter().map(|p| p.0).collect());
            let mut dead: HashSet<u64> = HashSet::new();
            let mut segments: Vec<SegmentExplain> = Vec::with_capacity(self.segments.len() + 1);
            for seg in &self.segments {
                let alive = if bitmaps_on {
                    seg.bitmaps.as_ref().map(|bm| bm.alive_pages(query))
                } else {
                    None
                };
                let mut row = SegmentExplain {
                    segment_id: Some(seg.id),
                    live_pages: seg.pages.len() as u64,
                    planned_pages: 0,
                    pruned_by_index: 0,
                    pruned_by_bitmap: 0,
                    pruned_by_both: 0,
                    has_bitmaps: seg.bitmaps.is_some(),
                };
                for (i, p) in seg.pages.iter().enumerate() {
                    let in_index = index_set.as_ref().is_none_or(|s| s.contains(&p.0));
                    let bitmap_alive = alive.as_ref().is_none_or(|a| a.get(i));
                    if !bitmap_alive {
                        dead.insert(p.0);
                    }
                    match (in_index, bitmap_alive) {
                        (true, true) => row.planned_pages += 1,
                        (true, false) => row.pruned_by_bitmap += 1,
                        (false, true) => row.pruned_by_index += 1,
                        (false, false) => row.pruned_by_both += 1,
                    }
                }
                segments.push(row);
            }
            let mut open_row = SegmentExplain {
                segment_id: None,
                live_pages: self.open.pages.len() as u64,
                planned_pages: 0,
                pruned_by_index: 0,
                pruned_by_bitmap: 0,
                pruned_by_both: 0,
                has_bitmaps: false,
            };
            for p in &self.open.pages {
                if index_set.as_ref().is_none_or(|s| s.contains(&p.0)) {
                    open_row.planned_pages += 1;
                } else {
                    open_row.pruned_by_index += 1;
                }
            }
            segments.push(open_row);
            if !dead.is_empty() {
                pages.retain(|p| !dead.contains(&p.0));
            }
            let (budget_clipped, deadline_clipped) = self.clip_to_request(&mut pages, req);
            planned.push(PlannedQuery {
                pages,
                budget_clipped,
                deadline_clipped,
                plan_ledger,
                used_index,
                index_fallback,
                segments,
            });
        }
        Ok(WavePlan {
            queries: planned,
            probe_report,
        })
    }

    /// Clips a planned page list to its request: the time window first
    /// (the page-id range bracketing `[t1, t2]` on the snapshot clock), then
    /// the page budget, then the modeled-time deadline — returning
    /// `(budget_clipped, deadline_clipped)`. The deadline is converted into
    /// a page allowance with the device performance model, so every clip
    /// depends only on the request, the snapshots and the model: the same
    /// request replays byte-identically anywhere.
    fn clip_to_request(&self, pages: &mut Vec<PageId>, req: &QueryRequest) -> (u64, u64) {
        if let Some((t1, t2)) = req.time_range {
            let (lo, hi) = self.index.time_slice(t1, t2);
            pages.retain(|p| lo.is_none_or(|l| *p >= l) && hi.is_none_or(|h| *p < h));
        }
        let mut clip = |allowance: Option<u64>| {
            let keep = allowance
                .map_or(usize::MAX, |a| usize::try_from(a).unwrap_or(usize::MAX))
                .min(pages.len());
            let clipped = (pages.len() - keep) as u64;
            pages.truncate(keep);
            clipped
        };
        let budget_clipped = clip(req.page_budget);
        let deadline_clipped = clip(req.deadline.map(|d| self.deadline_page_allowance(d)));
        (budget_clipped, deadline_clipped)
    }

    /// Explains how one request would be planned — index decision, batched
    /// probe, bitmap pruning, window and deadline clips — without scanning
    /// a single data page.
    ///
    /// The probe itself runs for real (and is charged to the device ledger
    /// honestly), because the plan *is* its result; the data-page scan is
    /// what's skipped. Per-segment rows classify every live page; the
    /// pruning counts are taken before the window/budget/deadline clips,
    /// which only shorten the final plan
    /// ([`PlanExplain::planned_pages`]).
    ///
    /// # Errors
    ///
    /// Propagates non-survivable storage errors from the probe, exactly
    /// like [`MithriLog::query`].
    pub fn explain(&mut self, req: &QueryRequest) -> Result<PlanExplain, MithriLogError> {
        let wave = self.plan_wave(std::slice::from_ref(req))?;
        let planned = wave
            .queries
            .into_iter()
            .next()
            .expect("plan_wave returns one plan per request");
        Ok(PlanExplain {
            used_index: planned.used_index,
            index_fallback: planned.index_fallback,
            live_pages: self.data_pages.len() as u64,
            planned_pages: planned.pages.len() as u64,
            budget_clipped: planned.budget_clipped,
            deadline_clipped: planned.deadline_clipped,
            segments: planned.segments,
        })
    }

    /// How many data pages a modeled-time deadline affords: the deadline
    /// divided by the modeled per-page internal read time. A pure function
    /// of the deadline and the device model — never of wall-clock time or
    /// load — so deadline-clipped plans replay byte-identically anywhere. A
    /// zero per-page time (a degenerate model) means the deadline never
    /// binds.
    fn deadline_page_allowance(&self, deadline: Duration) -> u64 {
        let per_page = self.config.device.parallel_read_time(1, Link::Internal);
        if per_page.is_zero() {
            return u64::MAX;
        }
        u64::try_from(deadline.as_nanos() / per_page.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Average ingested lines per data page, rounded up — the extrapolation
    /// basis for estimating what a skipped page cost.
    fn avg_lines_per_page(&self) -> u64 {
        let pages = self.data_pages.len() as u64;
        if pages == 0 {
            0
        } else {
            self.total_lines.div_ceil(pages)
        }
    }

    /// Cost-based planner gate: probing the index pays latency-exposed root
    /// visits and leaf-node reads for *every* positive token, while a full
    /// scan streams data pages at internal bandwidth. Using only the
    /// index's in-memory counters (no storage access), skip the probe when
    /// its modeled cost already exceeds the full scan — which happens for
    /// broad multi-template unions whose page sets cover most of the corpus
    /// anyway (§7.4.2 shows full scans are cheap for MithriLog).
    fn index_probe_is_worthwhile(&self, query: &Query) -> bool {
        let model = &self.config.device;
        let total_pages = self.data_pages.len() as u64;
        if total_pages == 0 {
            return true; // nothing to scan either way
        }
        // One dependent visit stalls the stream for latency × bandwidth
        // worth of pages.
        let visit_page_equiv = (model.read_latency.as_secs_f64() * model.internal_bw
            / model.page_bytes as f64)
            .max(1.0);
        let mut planned_cost = 0.0;
        for set in query.sets() {
            let probes = self.index.probe_selection(set);
            if probes.is_empty() {
                // A negative-only set forces a full scan regardless.
                return false;
            }
            let mut set_min = u64::MAX;
            for token in probes {
                let est = self.index.estimated_pages(token.as_bytes());
                let (roots, leaves) = self.index.estimated_lookup_reads(token.as_bytes());
                planned_cost += roots as f64 * visit_page_equiv + leaves as f64;
                set_min = set_min.min(est);
            }
            planned_cost += set_min as f64;
        }
        planned_cost < total_pages as f64
    }

    /// Modeled prototype time for one query: the index's latency-bound root
    /// chain, then the pipelined page stream (storage supply overlapped
    /// with accelerator drain), then the result transfer to host over PCIe.
    fn model_query_time(
        &self,
        ledger: &mithrilog_storage::CostLedger,
        bytes_filtered: u64,
        lines: &[String],
    ) -> Duration {
        let model = &self.config.device;
        let chain = model.dependent_chain_time(ledger.dependent_visits);
        let bulk_pages = ledger.pages_read.saturating_sub(ledger.dependent_visits);
        let supply = model.parallel_read_time(bulk_pages, Link::Internal);
        let accel_gbps = self.modeled_throughput().total_gbps.max(1e-9);
        let drain = Duration::from_secs_f64(bytes_filtered as f64 / (accel_gbps * 1e9));
        let result_bytes: u64 = lines.iter().map(|l| l.len() as u64 + 1).sum();
        let host = model.stream_time(result_bytes, Link::External);
        chain + supply.max(drain) + host
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: &str = "\
RAS KERNEL INFO instruction cache parity error corrected\n\
RAS KERNEL FATAL data storage interrupt\n\
RAS APP FATAL ciod: Error loading /g/g24/user/program\n\
pbs_mom: scan_for_exiting, job 4161 task 1 terminated\n\
RAS KERNEL INFO generating core.2275\n";

    fn system_with(log: &str) -> MithriLog {
        let mut s = MithriLog::new(SystemConfig::for_tests());
        s.ingest(log.as_bytes()).unwrap();
        s
    }

    #[test]
    fn ingest_reports_counts_and_compression() {
        let mut s = MithriLog::new(SystemConfig::for_tests());
        let big: String = LOG.repeat(100);
        let r = s.ingest(big.as_bytes()).unwrap();
        assert_eq!(r.raw_bytes, big.len() as u64);
        assert_eq!(r.lines, 500);
        assert!(r.data_pages >= 1);
        assert!(r.compression_ratio() > 2.0);
        assert_eq!(s.lines(), 500);
        assert_eq!(s.raw_bytes(), big.len() as u64);
    }

    #[test]
    fn simple_query_end_to_end() {
        let mut s = system_with(LOG);
        let o = s.query_str("FATAL").unwrap();
        assert_eq!(o.match_count(), 2);
        assert!(o.offloaded);
        assert!(o.lines.iter().all(|l| l.contains("FATAL")));
    }

    #[test]
    fn negation_query_end_to_end() {
        let mut s = system_with(LOG);
        let o = s.query_str("FATAL AND NOT ciod:").unwrap();
        assert_eq!(o.match_count(), 1);
        assert!(o.lines[0].contains("data storage interrupt"));
    }

    #[test]
    fn results_agree_with_reference_on_larger_corpus() {
        let big: String = LOG.repeat(200);
        let mut s = system_with(&big);
        for qs in [
            "KERNEL AND INFO",
            "pbs_mom: OR ciod:",
            "RAS AND NOT FATAL",
            "NOT RAS",
        ] {
            let o = s.query_str(qs).unwrap();
            let q = parse(qs).unwrap();
            let want = big.lines().filter(|l| q.matches_line(l)).count() as u64;
            assert_eq!(o.match_count(), want, "query {qs:?}");
        }
    }

    #[test]
    fn index_prunes_pages_for_selective_queries() {
        // Many pages, but the rare token lives in only a few. Uses the
        // default-size index: the tiny test index saturates its 256 entries
        // on this corpus's thousands of distinct tokens and stops pruning.
        let mut text = String::new();
        for i in 0..3000 {
            if i == 1500 {
                text.push_str("unique-needle-token appears here\n");
            }
            text.push_str(&format!("filler line number {i} with routine content\n"));
        }
        let mut s = MithriLog::new(SystemConfig::default());
        s.ingest(text.as_bytes()).unwrap();
        assert!(s.data_page_count() > 5);
        let o = s.query_str("unique-needle-token").unwrap();
        assert_eq!(o.match_count(), 1);
        assert!(o.used_index);
        assert!(
            o.pages_scanned < s.data_page_count() / 2,
            "index should prune: scanned {} of {}",
            o.pages_scanned,
            s.data_page_count()
        );
    }

    #[test]
    fn negative_only_query_full_scans_but_is_correct() {
        let mut s = system_with(LOG);
        let o = s.query_str("NOT RAS").unwrap();
        assert!(!o.used_index);
        assert_eq!(o.match_count(), 1);
        assert!(o.lines[0].starts_with("pbs_mom:"));
    }

    #[test]
    fn full_scan_config_never_uses_index() {
        let mut s = MithriLog::new(SystemConfig {
            use_index: false,
            ..SystemConfig::for_tests()
        });
        s.ingest(LOG.repeat(50).as_bytes()).unwrap();
        let o = s.query_str("FATAL").unwrap();
        assert!(!o.used_index);
        assert_eq!(o.lines_scanned, 250);
    }

    #[test]
    fn oversized_query_falls_back_to_software() {
        let mut s = system_with(LOG);
        // 9 OR-terms exceed the 8 flag pairs.
        let q = Query::any_of((0..9).map(|i| format!("t{i}")).collect::<Vec<_>>())
            .or(Query::all_of(["FATAL"]));
        let o = s.query(&q).unwrap();
        assert!(!o.offloaded, "10 sets cannot compile onto 8 flag pairs");
        assert_eq!(o.match_count(), 2, "software fallback is still correct");
    }

    #[test]
    fn modeled_time_is_positive_and_scales_with_work() {
        let mut s = system_with(&LOG.repeat(500));
        let selective = s.query_str("nonexistent-token-xyz").unwrap();
        let full = s.query_str("NOT nonexistent-token-xyz").unwrap();
        assert!(full.modeled_time > selective.modeled_time);
        assert!(full.modeled_time > Duration::ZERO);
    }

    #[test]
    fn modeled_throughput_lands_in_paper_band() {
        let mut s = system_with(&LOG.repeat(2000));
        let t = s.modeled_throughput();
        assert!(
            t.total_gbps > 8.0 && t.total_gbps <= 12.8,
            "modeled {:.2} GB/s ({})",
            t.total_gbps,
            t.bound_by
        );
        let _ = s.query_str("RAS").unwrap();
    }

    #[test]
    fn snapshots_happen_automatically() {
        let mut s = MithriLog::new(SystemConfig {
            index: mithrilog_index::IndexParams {
                snapshot_leaf_pages: 1,
                ..mithrilog_index::IndexParams::small()
            },
            ..SystemConfig::for_tests()
        });
        s.ingest(LOG.repeat(400).as_bytes()).unwrap();
        assert!(!s.index().snapshots().is_empty());
        // Queries still work after snapshots.
        let o = s.query_str("FATAL AND NOT ciod:").unwrap();
        assert_eq!(o.match_count(), 400);
    }

    #[test]
    fn multiple_ingest_batches_accumulate() {
        let mut s = MithriLog::new(SystemConfig::for_tests());
        s.ingest(b"alpha event one\n").unwrap();
        s.ingest(b"beta event two\n").unwrap();
        let o = s.query_str("event").unwrap();
        assert_eq!(o.match_count(), 2);
        assert_eq!(s.lines(), 2);
    }

    #[test]
    fn time_range_query_clips_to_snapshot_windows() {
        let mut s = MithriLog::new(SystemConfig::for_tests());
        // "Day 1": only INFO lines; snapshot; "day 2": only FATAL lines.
        s.ingest(
            "RAS KERNEL INFO cache parity error corrected\n"
                .repeat(200)
                .as_bytes(),
        )
        .unwrap();
        s.snapshot_at(100).unwrap();
        s.ingest(
            "RAS KERNEL FATAL data storage interrupt\n"
                .repeat(200)
                .as_bytes(),
        )
        .unwrap();
        s.snapshot_at(200).unwrap();

        let q = parse("RAS").unwrap();
        // Whole history: both days.
        assert_eq!(s.query(&q).unwrap().match_count(), 400);
        // Day 1 only.
        let day1 = s.query_time_range(&q, 0, 100).unwrap();
        assert_eq!(day1.match_count(), 200);
        assert!(day1.lines.iter().all(|l| l.contains("INFO")));
        // Day 2 only.
        let day2 = s.query_time_range(&q, 101, 250).unwrap();
        assert_eq!(day2.match_count(), 200);
        assert!(day2.lines.iter().all(|l| l.contains("FATAL")));
        // Interval after all snapshots: unbounded above, still day 2 data.
        let tail = s.query_time_range(&q, 201, 999).unwrap();
        assert_eq!(tail.match_count(), 0, "no data ingested after t=200");
    }

    #[test]
    fn planner_gate_skips_index_for_broad_unions() {
        // A union of hot tokens that appear on essentially every page: the
        // index probe would pay chain latency for no pruning, so the
        // cost-based gate must choose a full scan.
        let mut s = system_with(&LOG.repeat(500));
        let broad = Query::any_of(["RAS", "KERNEL", "FATAL", "INFO", "pbs_mom:"]);
        let o = s.query(&broad).unwrap();
        assert!(!o.used_index, "broad union should full-scan");
        // A needle token still goes through the index.
        let needle = s.query_str("nonexistent-needle-xyz").unwrap();
        assert!(needle.used_index);
        assert_eq!(needle.pages_scanned, 0);
    }

    #[test]
    fn shared_batch_is_byte_identical_to_solo_runs() {
        let mut s = system_with(&LOG.repeat(300));
        let requests = vec![
            QueryRequest::parse("FATAL").unwrap(),
            QueryRequest::parse("KERNEL AND INFO").unwrap(),
            QueryRequest::parse("pbs_mom: OR ciod:").unwrap(),
        ];
        let solo: Vec<QueryOutcome> = requests
            .iter()
            .map(|r| s.query(&r.query).unwrap())
            .collect();
        let batch = s.query_shared(&requests).unwrap();
        assert_eq!(batch.outcomes.len(), 3);
        for (got, want) in batch.outcomes.iter().zip(&solo) {
            assert_eq!(got.lines, want.lines);
            assert_eq!(got.offloaded, want.offloaded);
            assert_eq!(got.used_index, want.used_index);
            assert_eq!(got.pages_scanned, want.pages_scanned);
            assert_eq!(got.bytes_filtered, want.bytes_filtered);
            assert_eq!(got.lines_scanned, want.lines_scanned);
            assert_eq!(got.ledger, want.ledger);
            assert_eq!(got.degraded, want.degraded);
        }
        // Full-scan-heavy batch: the shared scan reads each page once.
        assert!(batch.shared.demanded_page_reads > batch.shared.unique_pages_read);
        assert_eq!(
            batch.shared.shared_reads_avoided,
            batch.shared.demanded_page_reads - batch.shared.unique_pages_read
        );
        // Attribution sums back to the physical reads.
        let attributed: f64 = batch
            .shared
            .attribution
            .iter()
            .map(|a| a.attributed_page_cost)
            .sum();
        assert!((attributed - batch.shared.unique_pages_read as f64).abs() < 1e-9);
    }

    #[test]
    fn page_budget_clips_deterministically() {
        let mut s = system_with(&LOG.repeat(300));
        let pages = s.data_page_count();
        assert!(pages > 3, "need several pages");
        let req = QueryRequest::parse("RAS").unwrap().with_page_budget(2);
        let clipped = s.query_shared(std::slice::from_ref(&req)).unwrap();
        let o = &clipped.outcomes[0];
        assert_eq!(o.pages_scanned, 2);
        assert_eq!(o.degraded.budget_clipped, pages - 2);
        assert!(o.degraded.is_lossy());
        assert!(o.degraded.estimated_missed_lines > 0);
        // Deterministic: the same budgeted request repeats byte-identically.
        let again = s.query_shared(std::slice::from_ref(&req)).unwrap();
        assert_eq!(again.outcomes[0].lines, o.lines);
        assert_eq!(again.outcomes[0].degraded, o.degraded);
    }

    #[test]
    fn deadline_clips_deterministically_and_reports_honestly() {
        let mut s = system_with(&LOG.repeat(300));
        let pages = s.data_page_count();
        assert!(pages > 3, "need several pages");
        // A deadline worth exactly two modeled page reads.
        let per_page = s.config().device.parallel_read_time(1, Link::Internal);
        assert!(!per_page.is_zero());
        let req = QueryRequest::parse("RAS")
            .unwrap()
            .with_deadline(per_page * 2);
        let clipped = s.query_shared(std::slice::from_ref(&req)).unwrap();
        let o = &clipped.outcomes[0];
        assert_eq!(o.pages_scanned, 2);
        assert_eq!(o.degraded.deadline_clipped, pages - 2);
        assert_eq!(o.degraded.budget_clipped, 0);
        assert!(o.degraded.is_lossy());
        assert!(o.degraded.estimated_missed_lines > 0);
        // Deterministic: the same deadline replays byte-identically — the
        // clip depends on the model, never on wall-clock time or load.
        let again = s.query_shared(std::slice::from_ref(&req)).unwrap();
        assert_eq!(again.outcomes[0].lines, o.lines);
        assert_eq!(again.outcomes[0].degraded, o.degraded);
        assert_eq!(again.outcomes[0].ledger, o.ledger);
    }

    #[test]
    fn zero_deadline_yields_a_well_formed_empty_result() {
        let mut s = system_with(&LOG.repeat(50));
        let pages = s.data_page_count();
        let req = QueryRequest::parse("RAS")
            .unwrap()
            .with_deadline(Duration::ZERO);
        let out = s.query_shared(std::slice::from_ref(&req)).unwrap();
        let o = &out.outcomes[0];
        assert!(o.lines.is_empty());
        assert_eq!(o.pages_scanned, 0);
        assert_eq!(o.degraded.deadline_clipped, pages);
        assert!(o.degraded.is_lossy());
        assert_eq!(o.ledger.pages_read, 0, "nothing was scanned");
    }

    #[test]
    fn deadline_stacks_after_the_page_budget() {
        let mut s = system_with(&LOG.repeat(900));
        let pages = s.data_page_count();
        assert!(pages > 4);
        let per_page = s.config().device.parallel_read_time(1, Link::Internal);
        // Budget keeps 4 pages, then the deadline affords only 2 of those.
        let req = QueryRequest::parse("RAS")
            .unwrap()
            .with_page_budget(4)
            .with_deadline(per_page * 2);
        let out = s.query_shared(std::slice::from_ref(&req)).unwrap();
        let o = &out.outcomes[0];
        assert_eq!(o.pages_scanned, 2);
        assert_eq!(o.degraded.budget_clipped, pages - 4);
        assert_eq!(o.degraded.deadline_clipped, 2);
    }

    #[test]
    fn cancelled_request_in_a_batch_leaves_live_requests_exact() {
        let mut s = system_with(&LOG.repeat(200));
        let live = QueryRequest::parse("FATAL").unwrap();
        let solo = s.query_shared(std::slice::from_ref(&live)).unwrap();
        let token = crate::CancelToken::new();
        token.cancel();
        let doomed = QueryRequest::parse("RAS").unwrap().with_cancel(token);
        let batch = s.query_shared(&[live, doomed]).unwrap();
        // The live query is byte-identical to running alone.
        assert_eq!(batch.outcomes[0].lines, solo.outcomes[0].lines);
        assert_eq!(batch.outcomes[0].ledger, solo.outcomes[0].ledger);
        // The cancelled query scanned and was charged nothing.
        assert!(batch.outcomes[1].lines.is_empty());
        assert_eq!(batch.outcomes[1].ledger.pages_read, 0);
    }

    #[test]
    fn quarantined_shared_page_is_not_counted_as_an_avoided_read() {
        // No index, no cache: every demanded read is a data-page read.
        let mut s = MithriLog::new(SystemConfig {
            use_index: false,
            page_cache_bytes: 0,
            ..SystemConfig::for_tests()
        });
        s.ingest(LOG.repeat(300).as_bytes()).unwrap();
        let pages = s.data_page_count();
        assert!(pages > 3, "need several pages");
        let victim = s.data_pages()[1].0;
        s.device_mut().quarantine_page(victim);

        let before = *s.device().ledger();
        let wave = [
            QueryRequest::parse("FATAL").unwrap(),
            QueryRequest::parse("KERNEL").unwrap(),
        ];
        let batch = s.query_shared(&wave).unwrap();
        let device = s.device().ledger().since(&before);
        for o in &batch.outcomes {
            assert_eq!(o.degraded.skipped_pages, vec![victim]);
            assert_eq!(o.ledger.pages_read, pages - 1, "the skip costs nothing");
        }
        // The quarantined slot issued no read for either query, so the
        // device's demand view equals the two as-if-solo ledgers summed.
        let as_if_solo: u64 = batch.outcomes.iter().map(|o| o.ledger.pages_read).sum();
        assert_eq!(device.demanded_reads(), as_if_solo);
        assert_eq!(batch.shared.shared_reads_avoided, pages - 1);
    }

    #[test]
    fn empty_system_returns_no_matches() {
        let mut s = MithriLog::new(SystemConfig::for_tests());
        let o = s.query_str("anything").unwrap();
        assert_eq!(o.match_count(), 0);
        assert_eq!(o.pages_scanned, 0);
        assert!(!o.degraded.is_degraded());
    }

    #[test]
    fn mismatched_page_size_is_a_config_error() {
        let config = SystemConfig::for_tests();
        let store = MemStore::new(config.device.page_bytes * 2);
        match MithriLog::with_store(store, config) {
            Err(MithriLogError::Config(reason)) => {
                assert!(reason.contains("page size"), "{reason}");
            }
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_data_page_is_skipped_and_reported() {
        let mut s = system_with(&LOG.repeat(100));
        let pages = s.data_pages().to_vec();
        assert!(
            pages.len() >= 2,
            "need several pages for a meaningful drill"
        );
        let victim = pages[0];
        // Smash the page behind the controller's back: checksum stays stale.
        s.device_mut()
            .store_mut()
            .write_page(victim, b"smashed beyond recognition")
            .unwrap();

        let o = s.query_str("FATAL").unwrap();
        assert_eq!(o.degraded.skipped_pages, vec![victim.0]);
        assert!(o.degraded.is_lossy());
        assert!(o.degraded.estimated_missed_lines > 0);
        assert!(
            o.match_count() < 200,
            "some of the 200 FATAL lines lived on the smashed page"
        );
        assert!(o.match_count() > 0, "surviving pages still match");

        // The scrub sees exactly the same page.
        let report = s.scrub();
        let corrupt: Vec<u64> = report.corrupt.iter().map(|c| c.page).collect();
        assert_eq!(corrupt, vec![victim.0]);
    }

    #[test]
    fn clean_queries_report_no_degradation() {
        let mut s = system_with(&LOG.repeat(50));
        let o = s.query_str("FATAL").unwrap();
        assert!(!o.degraded.is_degraded());
        assert_eq!(o.degraded, crate::outcome::DegradedRead::default());
        assert!(s.scrub().is_clean());
    }

    /// A test config with tiny segments so sealing exercises in-module.
    fn segmented_config(segment_pages: u64) -> SystemConfig {
        SystemConfig {
            segment_pages,
            ..SystemConfig::for_tests()
        }
    }

    #[test]
    fn open_segment_seals_at_the_configured_cadence() {
        let mut s = MithriLog::new(segmented_config(2));
        s.ingest(LOG.repeat(300).as_bytes()).unwrap();
        let pages = s.data_page_count();
        assert!(pages >= 4, "need several pages, got {pages}");
        assert_eq!(s.sealed_segment_count(), pages / 2);
        assert_eq!(s.open_segment_pages(), pages % 2);
        let summaries = s.sealed_segments();
        assert_eq!(summaries.len() as u64, pages / 2);
        for (i, seg) in summaries.iter().enumerate() {
            assert_eq!(seg.id, i as u64, "ids ascend in seal order");
            assert_eq!(seg.pages, 2);
            assert!(seg.lines > 0);
        }
        // Segment totals plus the open remainder cover the whole store.
        let sealed_lines: u64 = summaries.iter().map(|seg| seg.lines).sum();
        assert!(sealed_lines <= s.lines());
        // Sealing changed nothing about query results.
        let o = s.query_str("FATAL").unwrap();
        assert_eq!(o.match_count(), 600);
    }

    #[test]
    fn prepared_ingest_is_byte_identical_to_direct_ingest() {
        let text = LOG.repeat(120);
        let mut direct = MithriLog::new(segmented_config(3));
        let direct_report = direct.ingest(text.as_bytes()).unwrap();

        let mut staged = MithriLog::new(segmented_config(3));
        let prep = PreparedIngest::build(staged.config(), Cow::Owned(text.clone().into_bytes()));
        assert_eq!(prep.raw_bytes(), text.len() as u64);
        assert_eq!(prep.frame_count(), direct_report.data_pages);
        let staged_report = staged.apply_ingest(&prep).unwrap();

        assert_eq!(staged_report, direct_report);
        assert_eq!(staged.data_pages(), direct.data_pages());
        assert_eq!(staged.sealed_segments(), direct.sealed_segments());
        assert_eq!(
            staged.device().page_count(),
            direct.device().page_count(),
            "identical device page layout"
        );
        for q in ["FATAL", "KERNEL AND INFO", "NOT RAS"] {
            let a = staged.query_str(q).unwrap();
            let b = direct.query_str(q).unwrap();
            assert_eq!(a.lines, b.lines, "query {q:?}");
            assert_eq!(a.ledger, b.ledger, "query {q:?}");
        }
    }

    #[test]
    fn page_cache_stays_warm_across_ingests() {
        let mut s = MithriLog::new(segmented_config(2));
        s.ingest(LOG.repeat(200).as_bytes()).unwrap();
        let _ = s.query_str("FATAL").unwrap(); // warm the cache
        let warm = s.query_str("FATAL").unwrap();
        assert_eq!(
            warm.ledger.pages_read,
            s.data_page_count(),
            "as-if-solo ledger charges every planned page"
        );
        let hits_before = s.device().ledger().cache_hits;
        assert!(hits_before > 0, "second scan should hit the cache");

        // Ingest appends; it must not retire cached text of old pages.
        s.ingest(LOG.repeat(50).as_bytes()).unwrap();
        let after = s.query_str("FATAL").unwrap();
        let new_hits = s.device().ledger().cache_hits - hits_before;
        assert!(
            new_hits > 0,
            "cache survived the ingest: {new_hits} hits after"
        );
        assert_eq!(after.match_count(), 500);
    }

    /// Ingests one-page fillers until the open segment seals, so the next
    /// era starts on a segment boundary. Bounded: each filler appends one
    /// page, so at most `segment_pages` iterations.
    fn seal_era_boundary(s: &mut MithriLog, filler: &str) {
        while s.open_segment_pages() != 0 {
            s.ingest(filler.as_bytes()).unwrap();
        }
    }

    #[test]
    fn retention_drops_oldest_segments_and_queries_stay_exact() {
        let mut s = MithriLog::new(segmented_config(2));
        // Two eras with distinct tokens, each spanning whole segments.
        let era1: String = (0..3000)
            .map(|i| format!("old-era event number {i}\n"))
            .collect();
        s.ingest(era1.as_bytes()).unwrap();
        seal_era_boundary(&mut s, "old-era filler line\n");
        let old_segments = s.sealed_segment_count();
        assert!(old_segments >= 2);
        let era2: String = (0..3000)
            .map(|i| format!("new-era event number {i}\n"))
            .collect();
        s.ingest(era2.as_bytes()).unwrap();
        let total = s.sealed_segment_count();
        let lines_before = s.lines();

        // Keep only the newest segments: every old-era page must go.
        let keep = total - old_segments;
        let report = s.apply_retention(keep).unwrap();
        assert_eq!(report.segments_dropped, old_segments);
        assert_eq!(report.segments_retained, keep);
        assert!(report.pages_dropped > 0);
        assert!(report.lines_dropped > 0);
        assert_eq!(s.lines(), lines_before - report.lines_dropped);
        assert_eq!(s.sealed_segment_count(), keep);

        // Old-era content is gone even though the index still holds stale
        // postings: plans filter to live pages.
        let old = s.query_str("old-era").unwrap();
        assert_eq!(old.match_count(), 0);
        assert!(!old.degraded.is_degraded(), "retention is not degradation");
        // New-era content is byte-identical to before the drop.
        let new = s.query_str("new-era").unwrap();
        assert_eq!(new.match_count(), 3000);

        // A second pass with the same target is a no-op without a commit.
        let sequence = s.superblock.sequence;
        let again = s.apply_retention(keep).unwrap();
        assert_eq!(again.segments_dropped, 0);
        assert_eq!(again.segments_retained, keep);
        assert_eq!(s.superblock.sequence, sequence, "no-op passes don't commit");
    }

    #[test]
    fn verify_segment_catches_corruption_and_quarantine_is_scoped() {
        // The default-size index: the tiny test index saturates on this
        // corpus and stops pruning, and an unpruned bystander plan would
        // demand the quarantined segment too.
        let mut s = MithriLog::new(SystemConfig {
            segment_pages: 2,
            ..SystemConfig::default()
        });
        let era1: String = (0..1500)
            .map(|i| format!("victim content number {i}\n"))
            .collect();
        s.ingest(era1.as_bytes()).unwrap();
        seal_era_boundary(&mut s, "victim filler line\n");
        let era2: String = (0..1500)
            .map(|i| format!("bystander content number {i}\n"))
            .collect();
        s.ingest(era2.as_bytes()).unwrap();
        let summaries = s.sealed_segments();
        assert!(summaries.len() >= 2);
        for seg in &summaries {
            assert_eq!(s.verify_segment(seg.id), Some(true), "segment {}", seg.id);
        }
        assert_eq!(s.verify_segment(9999), None);

        // Smash one page of the first segment behind the controller's back.
        let victim_seg = summaries[0].id;
        let victim_page = s.segments[0].pages[0];
        s.device_mut()
            .store_mut()
            .write_page(victim_page, b"smashed")
            .unwrap();
        assert_eq!(s.verify_segment(victim_seg), Some(false));

        // Segment-scoped scrub quarantines only that segment's bad page.
        let scrub = s.scrub_segment(victim_seg).unwrap();
        assert_eq!(scrub.corrupt.len(), 1);
        assert_eq!(scrub.corrupt[0].page, victim_page.0);

        // Operationally retire the whole segment: only queries demanding
        // its pages degrade.
        let quarantined = s.quarantine_segment(victim_seg).unwrap();
        assert_eq!(quarantined, summaries[0].pages);
        let hit = s.query_str("victim").unwrap();
        assert!(hit.degraded.is_lossy());
        assert_eq!(
            hit.degraded.skipped_pages.len() as u64,
            quarantined,
            "every quarantined page shows up as skipped"
        );
        let bystander = s.query_str("bystander").unwrap();
        assert!(
            !bystander.degraded.is_degraded(),
            "quarantine degrades only queries that demand the segment"
        );
        assert_eq!(bystander.match_count(), 1500);
    }
}
