use std::collections::{BTreeMap, BTreeSet};

use mithrilog_compress::{Codec, Lzah};
use mithrilog_index::InvertedIndex;
use mithrilog_storage::{
    format_device, read_active_superblock, replay_journal, FileStore, JournalRecord, MemStore,
    PageId, PageStore, SealRecord, SimSsd, Superblock,
};
use mithrilog_tokenizer::{DatapathStats, ScatterGather, Tokenizer};

#[cfg(doc)]
use super::PreparedIngest;
use super::{MithriLog, OpenSegment, PendingCommit, Segment};
use crate::bitmaps::{PageFacts, PageMarks, SegmentBitmaps};
use crate::cache::PageCache;
use crate::config::SystemConfig;
use crate::error::MithriLogError;
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
    /// committed region is corrupt; [`MithriLogError::Recovery`] when a
    /// seal record does not list the next run of committed pages or a drop
    /// names an unsealed segment; [`MithriLogError::Config`] when the
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

        // Seals claim consecutive runs of the committed pages in seal
        // order. A dropped segment's run and totals leave the store
        // entirely, so a drop that was acknowledged (the superblock flipped
        // past its record) can never resurrect; a kept one's run becomes a
        // segment, and the pages after the last run are the open segment.
        if let Some(id) = drops.iter().find(|id| !seals.contains_key(id)) {
            return Err(MithriLogError::Recovery(format!(
                "journal drops segment {id} but no seal record describes it"
            )));
        }
        let mut rest = commit_pages.as_slice();
        let mut sealed_totals = [0u64; 3];
        for (&id, seal) in &seals {
            let run = rest
                .get(..seal.pages.len())
                .filter(|run| run.iter().map(|p| p.0).eq(seal.pages.iter().copied()))
                .ok_or_else(|| {
                    MithriLogError::Recovery(format!(
                        "seal of segment {id} does not list the next run of committed pages"
                    ))
                })?;
            rest = &rest[run.len()..];
            system.next_segment_id = id + 1;
            if drops.contains(&id) {
                system.data_pages_dropped += run.len() as u64;
                system.total_lines -= seal.lines;
                system.total_raw_bytes -= seal.raw_bytes;
                system.total_compressed_bytes -= seal.compressed_bytes;
                continue;
            }
            system.data_pages.extend_from_slice(run);
            sealed_totals[0] += seal.raw_bytes;
            sealed_totals[1] += seal.lines;
            sealed_totals[2] += seal.compressed_bytes;
            system.segments.push(Segment {
                id,
                crc: seal.crc,
                pages: run.len(),
                lines: seal.lines,
                raw_bytes: seal.raw_bytes,
                compressed_bytes: seal.compressed_bytes,
                bitmaps: None,
            });
        }
        system.data_pages.extend_from_slice(rest);
        system.logical_clock = system.total_lines;
        // The open segment's totals follow exactly by subtraction.
        system.open = OpenSegment {
            raw_bytes: system.total_raw_bytes - sealed_totals[0],
            lines: system.total_lines - sealed_totals[1],
            compressed_bytes: system.total_compressed_bytes - sealed_totals[2],
            page_marks: Vec::new(),
        };

        let (index_recovery, checkpoint_deltas_applied) = match system.restore_checkpoint() {
            Some(deltas) => (IndexRecovery::Checkpoint, deltas),
            None => (IndexRecovery::Rebuilt, 0),
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
            checkpoint_deltas_applied,
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
            data_pages_dropped: 0,
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
            open: OpenSegment::default(),
            next_segment_id: 0,
            bitmap_refs: BTreeMap::new(),
            deltas_since_full: None,
            config,
        }
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
    ///
    /// The rebuilt index keeps the snapshot list (its watermarks are
    /// data-page ids, which a rescan does not change), and the next commit
    /// writes a full checkpoint: the rebuilt index shares no entries with
    /// the durable chain.
    fn reindex_from_pages(&mut self) -> Result<(), MithriLogError> {
        self.index = self.index.emptied_keeping_snapshots();
        self.deltas_since_full = None;
        self.stats = DatapathStats::new();
        self.scatter = ScatterGather::new(self.config.tokenizer.lanes);
        let mut marks: Vec<Option<PageMarks>> = Vec::with_capacity(self.data_pages.len());
        for page in self.data_pages.clone() {
            let (text, facts) = self.analyse_page(page)?;
            self.fold_page(page, &text, &facts)?;
            marks.push(facts.marks);
        }
        // Rebuild the pruning bitmaps from the same rescan: sealed
        // segments re-freeze deterministically (byte-identical to their
        // seal-time sidecars), the open segment gets its marks back. The
        // fresh sidecars become durable at the next commit.
        let buckets = self.config.bitmap_buckets;
        if buckets > 0 {
            let mut marks = marks.into_iter();
            for seg in &mut self.segments {
                let run: Vec<Option<PageMarks>> = marks.by_ref().take(seg.pages).collect();
                let run: Option<Vec<PageMarks>> = run.into_iter().collect();
                seg.bitmaps = run.map(|m| SegmentBitmaps::build(buckets, &m));
            }
            self.open.page_marks = marks.flatten().collect();
        }
        Ok(())
    }

    /// Recomputes the open segment's per-page marks from its pages — the
    /// mount path's counterpart to the marks [`PreparedIngest::build`]
    /// accumulates during normal ingest.
    fn rebuild_open_marks(&mut self) -> Result<(), MithriLogError> {
        let pages = self.open_pages().to_vec();
        let mut marks = Vec::with_capacity(pages.len());
        for page in pages {
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
