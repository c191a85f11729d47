use std::borrow::Cow;
use std::ops::Range;

use mithrilog_compress::{PageFrame, PagedLog};
use mithrilog_storage::{
    append_blob, append_commit, append_record, crc32, write_superblock_commit, CommitRecord,
    DropRecord, JournalRecord, PageId, PageStore, SealRecord, Superblock,
};
use mithrilog_tokenizer::Tokenizer;

use super::{crc_summary, BitmapRef, MithriLog, PendingCommit, Segment};
use crate::bitmaps::{PageFacts, SegmentBitmaps};
use crate::config::SystemConfig;
use crate::error::MithriLogError;
use crate::exec;
use crate::outcome::IngestReport;
#[cfg(doc)]
use crate::outcome::SegmentSummary;

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
    /// The LZAH-compressed page.
    frame: PageFrame,
    /// The frame's raw-text range within `PreparedIngest::text`.
    raw_range: Range<usize>,
    /// The page's analysis, with token ranges relative to the frame's raw
    /// text. Computed here, in the pure half, so overlapped ingest stays
    /// byte-identical to direct ingest.
    facts: PageFacts,
}

impl<'a> PreparedIngest<'a> {
    /// Compresses and tokenizes `text` into apply-ready page frames on the
    /// configured worker pool ([`SystemConfig::resolved_query_threads`]).
    ///
    /// Pure in `(config, text)`: no device or index access, so it can run
    /// on any thread while the owning system serves queries.
    pub fn build(config: &SystemConfig, text: Cow<'a, [u8]>) -> Self {
        Self::build_on(config, config.resolved_query_threads(), text)
    }

    /// [`PreparedIngest::build`] on `threads` workers, for a caller that
    /// owns a larger thread budget than one device's pool (a multi-device
    /// layer builds one batch for all of its devices).
    ///
    /// Compression stripes across the workers with input-dependent shard
    /// boundaries, so the frame layout is byte-identical for every thread
    /// count; page analysis then stripes the frames across the same workers
    /// in contiguous runs of at least a few pages, joined in page order.
    pub fn build_on(config: &SystemConfig, threads: usize, text: Cow<'a, [u8]>) -> Self {
        let shards =
            exec::compress_paged_striped(&text, config.lzah, config.device.page_bytes, threads);
        let mut offset = 0usize;
        let pages: Vec<(PageFrame, Range<usize>)> = shards
            .into_iter()
            .flat_map(PagedLog::into_pages)
            .map(|frame| {
                let raw_range = offset..offset + frame.raw_len();
                offset = raw_range.end;
                (frame, raw_range)
            })
            .collect();
        let tokenizer = Tokenizer::new(config.tokenizer.clone());
        let workers = threads.min(pages.len() / exec::MIN_ANALYSIS_PAGES_PER_WORKER);
        let facts = exec::map_striped(&pages, workers, |(_, range)| {
            PageFacts::of(&tokenizer, config.bitmap_buckets, &text[range.clone()])
        });
        let frames = pages
            .into_iter()
            .zip(facts)
            .map(|((frame, raw_range), facts)| PreparedFrame {
                frame,
                raw_range,
                facts,
            })
            .collect();
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
}

impl<S: PageStore> MithriLog<S> {
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
        self.apply_ingest_frames(prep, 0..prep.frames.len())
    }

    /// Applies the frames of `prep` whose indices `frames` yields, in that
    /// order, exactly as [`MithriLog::apply_ingest`] applies all of them:
    /// a shard applies its share of a routed batch straight from the one
    /// shared [`PreparedIngest`], copying no frame.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    ///
    /// # Panics
    ///
    /// When an index is `>= prep.frame_count()`.
    pub fn apply_ingest_frames(
        &mut self,
        prep: &PreparedIngest<'_>,
        frames: impl IntoIterator<Item = usize>,
    ) -> Result<IngestReport, MithriLogError> {
        let mut report = IngestReport::default();
        for prepared in frames.into_iter().map(|i| &prep.frames[i]) {
            let PreparedFrame {
                frame,
                raw_range,
                facts,
            } = prepared;
            let lines = frame.lines() as u64;
            let compressed = frame.data().len() as u64;
            let page = self.ssd.append(frame.data())?;
            self.data_pages.push(page);
            self.pending.data_pages.push(page.0);
            self.open.page_marks.extend(facts.marks.clone());
            self.fold_page(page, &prep.text[raw_range.clone()], facts)?;

            report.raw_bytes += raw_range.len() as u64;
            report.lines += lines;
            report.data_pages += 1;
            report.compressed_bytes += compressed;
            self.open.raw_bytes += raw_range.len() as u64;
            self.open.lines += lines;
            self.open.compressed_bytes += compressed;

            self.logical_clock += lines;
            if self.index.should_snapshot() {
                let watermark = PageId(self.ssd.page_count());
                self.index
                    .snapshot(&mut self.ssd, self.logical_clock, watermark)?;
            }
            if self.open_pages().len() as u64 >= self.config.segment_pages {
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
    pub(super) fn fold_page(
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

    /// Seals the whole open segment: the open pages become an immutable
    /// [`Segment`] with a CRC summary over their per-page CRC32s (sealing
    /// changes nothing about the pages, so cached text stays live), and a
    /// [`SealRecord`] is queued for the next commit. A fresh open segment
    /// takes over the (empty) tail.
    ///
    /// The CRC summary comes from the device's checksum sidecar without
    /// re-reading data. Pages whose sidecar entry is cold (appended before
    /// the last mount) are read once; an unreadable page contributes a zero
    /// placeholder so sealing never fails — a later
    /// [`MithriLog::verify_segment`] correctly flags the segment instead.
    fn seal_open(&mut self) {
        let pages: Vec<u64> = self.open_pages().iter().map(|p| p.0).collect();
        let ssd = &mut self.ssd;
        let crc = crc_summary(pages.iter().map(|&page| {
            ssd.page_crc(page)
                .unwrap_or_else(|| ssd.read(PageId(page)).map(|raw| crc32(&raw)).unwrap_or(0))
        }));
        let open = std::mem::take(&mut self.open);
        // Freeze the pruning bitmaps only when every page carries marks —
        // a partially-marked run (bitmaps enabled mid-life) stays
        // conservative rather than lying about the unmarked pages.
        let bitmaps = (self.config.bitmap_buckets > 0 && open.page_marks.len() == pages.len())
            .then(|| SegmentBitmaps::build(self.config.bitmap_buckets, &open.page_marks));
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        self.segments.push(Segment {
            id,
            crc,
            pages: pages.len(),
            lines: open.lines,
            raw_bytes: open.raw_bytes,
            compressed_bytes: open.compressed_bytes,
            bitmaps,
        });
        self.pending.seals.push(SealRecord {
            // The sealing commit's sequence is not known yet; commit()
            // stamps it when the record is journaled.
            sequence: 0,
            segment_id: id,
            crc,
            pages,
            lines: open.lines,
            raw_bytes: open.raw_bytes,
            compressed_bytes: open.compressed_bytes,
        });
    }

    /// Runs the journaled commit protocol, making everything ingested since
    /// the last commit durable:
    ///
    /// 1. seal the index pools: each writes its part-filled node page from
    ///    its write buffer (a full page was written when it filled), and no
    ///    later allocation may rewrite a page at or below the new committed
    ///    frontier;
    /// 2. append the checkpoint blob: a **full** checkpoint when this commit
    ///    seals a segment, the store has no checkpoint to chain onto (a
    ///    fresh store, or the index was rebuilt from pages),
    ///    [`SystemConfig::segment_pages`] deltas already follow the last
    ///    full one, or a delta would list half the live index entries or
    ///    more; otherwise a **delta** holding the index entries changed
    ///    since the previous blob, the small sections in full, and that
    ///    blob's ref;
    /// 3. append the journal manifest record for this commit;
    /// 4. **sync barrier 1** — payload durable before the superblock moves;
    /// 5. write the superblock, pointing at the new blob, into the inactive
    ///    slot and **sync barrier 2** — the atomic flip that acknowledges
    ///    the commit.
    ///
    /// A crash anywhere before barrier 2 completes leaves the previous
    /// superblock active and the whole commit, its blob included, in the
    /// discardable tail. A commit that fails keeps its pending pages, seals
    /// and drops, so the next commit to succeed journals them too.
    pub(super) fn commit(&mut self) -> Result<(), MithriLogError> {
        self.index.seal_storage(&mut self.ssd)?;
        self.persist_segment_bitmaps()?;
        // Taking the blob clears the index's dirty set, so a commit that
        // fails from here on leaves the next one to write a full checkpoint.
        let chain = self.deltas_since_full.take();
        let onto = match (chain, self.superblock.checkpoint) {
            (Some(deltas), Some(prev))
                if deltas < self.config.segment_pages
                    && self.pending.seals.is_empty()
                    && self.index.delta_is_small() =>
            {
                Some((deltas, prev))
            }
            _ => None,
        };
        let blob = self.checkpoint_blob(onto.map(|(_, prev)| prev));
        let ckpt = append_blob(&mut self.ssd, &blob)?;
        let sequence = self.superblock.sequence + 1;
        let record = CommitRecord {
            sequence,
            data_pages: self.pending.data_pages.clone(),
            lines: self.pending.lines,
            raw_bytes: self.pending.raw_bytes,
            compressed_bytes: self.pending.compressed_bytes,
        };
        let mut head = append_commit(&mut self.ssd, self.superblock.journal_head, &record)?;
        // Segment transitions ride the same commit: seal and drop records
        // chain behind the commit record, all under one superblock flip —
        // a crash anywhere before barrier 2 discards them together.
        for seal in &self.pending.seals {
            let seal = SealRecord {
                sequence,
                ..seal.clone()
            };
            head = append_record(&mut self.ssd, Some(head), &JournalRecord::Seal(seal))?;
        }
        if !self.pending.drops.is_empty() {
            let drop = DropRecord {
                sequence,
                segments: self.pending.drops.clone(),
            };
            head = append_record(&mut self.ssd, Some(head), &JournalRecord::Drop(drop))?;
        }
        self.ssd.sync()?; // barrier 1: payload before the flip
        let sb = Superblock {
            format_version: Superblock::FORMAT_VERSION,
            page_bytes: self.config.device.page_bytes as u32,
            sequence: record.sequence,
            committed_pages: self.ssd.page_count(),
            journal_head: Some(head),
            checkpoint: Some(ckpt),
        };
        write_superblock_commit(&mut self.ssd, &sb)?; // barrier 2
        self.superblock = sb;
        self.pending = PendingCommit::default();
        self.deltas_since_full = Some(onto.map_or(0, |(deltas, _)| deltas + 1));
        Ok(())
    }

    /// Appends the sidecar blob of every sealed segment whose bitmaps are
    /// not yet durable (fresh seals, or rebuilds after a dropped sidecar),
    /// recording each blob's location and CRC for the checkpoint. Runs
    /// before the checkpoint blob is built so the refs it serializes are
    /// complete; the pages ride the same commit as the seal record.
    fn persist_segment_bitmaps(&mut self) -> Result<(), MithriLogError> {
        for seg in &self.segments {
            let Some(bitmaps) = &seg.bitmaps else {
                continue;
            };
            if self.bitmap_refs.contains_key(&seg.id) {
                continue;
            }
            let blob = append_blob(&mut self.ssd, &bitmaps.to_bytes())?;
            let segment_id = seg.id;
            self.bitmap_refs
                .insert(segment_id, BitmapRef { segment_id, blob });
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::checkpoint::{CHECKPOINT_MAGIC, DELTA_MAGIC};
    use crate::system::tests::{segmented_config, LOG};

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

    /// The blob the superblock points at: its magic and page count.
    fn newest_blob(s: &mut MithriLog) -> ([u8; 4], u64) {
        let at = s.superblock.checkpoint.expect("a committed checkpoint");
        let blob = mithrilog_storage::read_blob(&mut s.ssd, &at).expect("readable blob");
        (blob[..4].try_into().expect("magic"), at.page_count)
    }

    #[test]
    fn a_one_line_commit_writes_a_delta_a_tenth_the_size_of_the_full_checkpoint() {
        // Segments larger than the text, so no commit here seals.
        let mut s = MithriLog::new(SystemConfig {
            segment_pages: 1024,
            ..SystemConfig::default()
        });
        let text: String = (0..20_000u64)
            .map(|i| {
                format!(
                    "RAS KERNEL INFO node-{} rack-{} job {} user{} task {i}\n",
                    i % 9_973,
                    i % 311,
                    i * 7,
                    i % 577
                )
            })
            .collect();
        assert!(text.len() >= 1 << 20);
        s.ingest(text.as_bytes()).unwrap();
        let (magic, full_pages) = newest_blob(&mut s);
        assert_eq!(&magic, CHECKPOINT_MAGIC, "a store's first commit is full");
        for i in 0..3 {
            let full = s.superblock.checkpoint;
            s.ingest(format!("RAS KERNEL FATAL one more line {i}\n").as_bytes())
                .unwrap();
            let (magic, delta_pages) = newest_blob(&mut s);
            assert_eq!(&magic, DELTA_MAGIC, "commit {i} sealed nothing");
            assert!(
                delta_pages * 10 < full_pages,
                "delta of {delta_pages} pages against a {full_pages}-page full checkpoint"
            );
            assert_ne!(s.superblock.checkpoint, full);
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
}
