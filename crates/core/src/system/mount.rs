use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use mithrilog_compress::{Codec, Lzah};
use mithrilog_index::InvertedIndex;
use mithrilog_storage::{
    format_device, read_active_superblock, read_blob, replay_journal, CheckpointRef, FileStore,
    JournalRecord, MemStore, PageId, PageStore, SealRecord, SimSsd, Superblock,
};
use mithrilog_tokenizer::{DatapathStats, ScatterGather, Tokenizer};

#[cfg(doc)]
use super::PreparedIngest;
use super::{
    BitmapRef, MithriLog, OpenSegment, PendingCommit, Segment, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
use crate::bitmaps::{PageFacts, PageMarks, SegmentBitmaps};
use crate::cache::PageCache;
use crate::config::SystemConfig;
use crate::error::MithriLogError;
use crate::le::{take_section, take_u32, take_u64};
use crate::outcome::{IndexRecovery, RecoveryReport};

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
    /// [`FileStore`] for corpora larger than RAM, or a
    /// [`FaultyStore`](mithrilog_storage::FaultyStore) for fault drills),
    /// formatting it: the dual-slot superblock is written and synced before
    /// the system is usable.
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
        let mut ssd = Self::device_for(store, &config)?;
        if ssd.page_count() != 0 {
            return Err(MithriLogError::Config(format!(
                "store already holds {} pages; mount it with open_store \
                 instead of reformatting",
                ssd.page_count()
            )));
        }
        let superblock = format_device(&mut ssd)?;
        Ok(Self::empty(ssd, config, superblock))
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
        let mut ssd = Self::device_for(store, &config)?;
        let superblock = read_active_superblock(&mut ssd)?;
        if superblock.page_bytes as usize != config.device.page_bytes {
            return Err(MithriLogError::Config(format!(
                "store was formatted with {}-byte pages but the device model \
                 uses {}-byte pages",
                superblock.page_bytes, config.device.page_bytes
            )));
        }
        let mut system = Self::empty(ssd, config, superblock);
        let committed = system.superblock.committed_pages;

        // Estimate the acknowledged-never lines in the tail we are about to
        // discard: any tail page that decompresses was an in-flight data
        // page. (Index/journal pages in the tail do not decompress.)
        let codec = Lzah::new(system.config.lzah);
        let physical = system.ssd.page_count();
        let mut uncommitted_lines = 0u64;
        for page in committed..physical {
            if let Ok(raw) = system.ssd.read(PageId(page)) {
                if let Ok(text) = codec.decompress(&raw) {
                    uncommitted_lines += text
                        .split(|b| *b == b'\n')
                        .filter(|l| !l.is_empty())
                        .count() as u64;
                }
            }
        }
        system.ssd.truncate(committed)?;

        // Replay the journal: commits rebuild the committed pages and
        // totals in ingest order; seals and drops rebuild the segment map.
        let records = replay_journal(&mut system.ssd, system.superblock.journal_head)?;
        let mut commit_pages: Vec<PageId> = Vec::new();
        let mut commits_replayed = 0u64;
        let mut seals: BTreeMap<u64, SealRecord> = BTreeMap::new();
        let mut drops: BTreeSet<u64> = BTreeSet::new();
        for record in records {
            match record {
                JournalRecord::Commit(commit) => {
                    commits_replayed += 1;
                    commit_pages.extend(commit.data_pages.iter().map(|&p| PageId(p)));
                    system.total_lines += commit.lines;
                    system.total_raw_bytes += commit.raw_bytes;
                    system.total_compressed_bytes += commit.compressed_bytes;
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
            system.total_lines -= seal.lines;
            system.total_raw_bytes -= seal.raw_bytes;
            system.total_compressed_bytes -= seal.compressed_bytes;
        }
        system.data_pages = commit_pages
            .into_iter()
            .filter(|p| !dropped_pages.contains(&p.0))
            .collect();
        system.logical_clock = system.total_lines;

        // Active sealed segments, oldest first; each gets a fresh cache
        // generation. Recovery counts as an invalidation event: every
        // generation is past anything cached before.
        let mut sealed_pages: HashSet<u64> = HashSet::new();
        let mut sealed_totals = [0u64; 3];
        for (id, seal) in &seals {
            system.next_segment_id = system.next_segment_id.max(id + 1);
            if drops.contains(id) {
                continue;
            }
            let generation = system.next_generation;
            system.next_generation += 1;
            for p in &seal.pages {
                system.page_gens.insert(*p, generation);
                sealed_pages.insert(*p);
            }
            sealed_totals[0] += seal.raw_bytes;
            sealed_totals[1] += seal.lines;
            sealed_totals[2] += seal.compressed_bytes;
            system.segments.push(Segment {
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
        let open_pages: Vec<PageId> = system
            .data_pages
            .iter()
            .filter(|p| !sealed_pages.contains(&p.0))
            .copied()
            .collect();
        let open_generation = system.next_generation;
        system.next_generation += 1;
        for p in &open_pages {
            system.page_gens.insert(p.0, open_generation);
        }
        system.open = OpenSegment {
            pages: open_pages,
            raw_bytes: system.total_raw_bytes - sealed_totals[0],
            lines: system.total_lines - sealed_totals[1],
            compressed_bytes: system.total_compressed_bytes - sealed_totals[2],
            generation: open_generation,
            page_marks: Vec::new(),
        };

        let index_recovery = match system.restore_checkpoint() {
            Some(()) => IndexRecovery::Checkpoint,
            None => IndexRecovery::Rebuilt,
        };

        // Attach persisted segment bitmaps, validating each sidecar blob:
        // a failed CRC/decode drops that segment's bitmaps (conservative
        // planning) and is reported — degraded, never lying. A mount with
        // bitmaps disabled discards the directory outright.
        if system.config.bitmap_buckets == 0 {
            system.bitmap_refs.clear();
        }
        let segment_bitmaps_dropped = system.check_sidecars();

        let report = RecoveryReport {
            superblock_sequence: system.superblock.sequence,
            committed_pages: committed,
            uncommitted_pages_discarded: physical - committed,
            commits_replayed,
            data_pages_recovered: system.data_pages.len() as u64,
            lines_recovered: system.total_lines,
            uncommitted_lines_discarded: uncommitted_lines,
            segments_recovered: system.segments.len() as u64,
            segments_dropped: drops.len() as u64,
            index: index_recovery,
            segment_bitmaps_dropped,
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

    /// The checks and device setup every constructor shares: a valid
    /// config, a store whose page size matches the device model, and the
    /// configured retry policy. Touches no page.
    fn device_for(store: S, config: &SystemConfig) -> Result<SimSsd<S>, MithriLogError> {
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
        Ok(ssd)
    }

    /// An empty system on `ssd` at `superblock` — the one place the struct
    /// is assembled. A format uses it as is; a mount then fills in the
    /// state it recovers.
    fn empty(ssd: SimSsd<S>, config: SystemConfig, superblock: Superblock) -> Self {
        MithriLog {
            ssd,
            index: InvertedIndex::with_page_bytes(config.index, config.device.page_bytes),
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
            page_cache: (config.page_cache_bytes > 0)
                .then(|| PageCache::new(config.page_cache_bytes)),
            segments: Vec::new(),
            open: OpenSegment::new(0),
            next_segment_id: 0,
            next_generation: 1,
            page_gens: HashMap::new(),
            bitmap_refs: BTreeMap::new(),
            config,
        }
    }

    /// Restores the index, the datapath statistics, the scatter schedule
    /// and the sidecar directory from the committed checkpoint. Any
    /// failure — no checkpoint, unreadable pages, CRC mismatch, malformed
    /// sections, parameter drift, totals that disagree with the journal —
    /// returns `None` with nothing restored, and recovery falls back to a
    /// full reindex; the checkpoint is an optimization, never a
    /// correctness dependency.
    fn restore_checkpoint(&mut self) -> Option<()> {
        let blob = read_blob(&mut self.ssd, &self.superblock.checkpoint?)?;
        let mut rest = blob.strip_prefix(CHECKPOINT_MAGIC)?;
        if take_u32(&mut rest)? != CHECKPOINT_VERSION {
            return None;
        }
        for total in [
            self.total_raw_bytes,
            self.total_lines,
            self.total_compressed_bytes,
        ] {
            if take_u64(&mut rest)? != total {
                return None;
            }
        }
        let index_bytes = take_section(&mut rest)?;
        let stats_bytes = take_section(&mut rest)?;
        let scatter_bytes = take_section(&mut rest)?;
        let refs_bytes = take_section(&mut rest)?;
        if !rest.is_empty() {
            return None;
        }
        let page_bytes = self.config.device.page_bytes;
        let index = InvertedIndex::restore_checkpoint(self.config.index, page_bytes, index_bytes)?;
        let stats = DatapathStats::from_bytes(stats_bytes)?;
        let scatter = ScatterGather::from_bytes(scatter_bytes)?;
        if scatter.lanes() != self.config.tokenizer.lanes {
            return None;
        }
        let refs = parse_bitmap_refs(refs_bytes)?;
        (self.index, self.stats, self.scatter, self.bitmap_refs) = (index, stats, scatter, refs);
        Some(())
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
        self.index =
            InvertedIndex::with_page_bytes(self.config.index, self.config.device.page_bytes);
        self.stats = DatapathStats::new();
        self.scatter = ScatterGather::new(self.config.tokenizer.lanes);
        let mut marks_by_page: HashMap<u64, PageMarks> = HashMap::new();
        for page in self.data_pages.clone() {
            let (text, facts) = self.analyse_page(page)?;
            self.fold_page(page, &text, &facts)?;
            marks_by_page.extend(facts.marks.map(|m| (page.0, m)));
        }
        // Rebuild the pruning bitmaps from the same rescan: sealed
        // segments re-freeze deterministically (byte-identical to their
        // seal-time sidecars), the open segment gets its marks back. The
        // fresh sidecars become durable at the next commit.
        let buckets = self.config.bitmap_buckets;
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
        let mut marks = Vec::with_capacity(self.open.pages.len());
        for page in self.open.pages.clone() {
            marks.extend(self.analyse_page(page)?.1.marks);
        }
        self.open.page_marks = marks;
        Ok(())
    }

    /// Reads, decodes and analyses one data page: the page step of every
    /// rescan, yielding the same [`PageFacts`] ingest computed for it.
    fn analyse_page(&mut self, page: PageId) -> Result<(Vec<u8>, PageFacts), MithriLogError> {
        let text = Lzah::new(self.config.lzah).decompress(&self.ssd.read(page)?)?;
        let facts = PageFacts::of(&self.tokenizer, self.config.bitmap_buckets, &text);
        Ok((text, facts))
    }
}

/// Parses the sidecar directory section of a checkpoint. Entries must
/// ascend strictly by segment id and consume the section exactly.
fn parse_bitmap_refs(mut bytes: &[u8]) -> Option<BTreeMap<u64, BitmapRef>> {
    let count = take_u64(&mut bytes)?;
    let mut refs = BTreeMap::new();
    for _ in 0..count {
        let segment_id = take_u64(&mut bytes)?;
        let blob = CheckpointRef {
            first_page: take_u64(&mut bytes)?,
            page_count: take_u64(&mut bytes)?,
            byte_len: take_u64(&mut bytes)?,
            crc: take_u32(&mut bytes)?,
        };
        if refs
            .last_key_value()
            .is_some_and(|(&last, _)| last >= segment_id)
        {
            return None;
        }
        refs.insert(segment_id, BitmapRef { segment_id, blob });
    }
    bytes.is_empty().then_some(refs)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
