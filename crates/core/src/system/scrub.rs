use mithrilog_storage::{crc32, read_blob, PageStore};

use super::{crc_summary, MithriLog};
use crate::bitmaps::SegmentBitmaps;
use crate::error::MithriLogError;
#[cfg(doc)]
use crate::outcome::DegradedRead;
use crate::outcome::RetentionReport;
#[cfg(doc)]
use mithrilog_storage::SimSsd;

impl<S: PageStore> MithriLog<S> {
    /// Scans the whole device, verifying every page checksum and every
    /// bitmap sidecar, and returns a corruption report (see
    /// [`SimSsd::scrub`]). Pages that fail verification are quarantined:
    /// subsequent reads fail up front with zero charges until the page is
    /// rewritten. Exactly an online pass run to completion: one unbounded
    /// [`MithriLog::scrub_slice`].
    pub fn scrub(&mut self) -> mithrilog_storage::ScrubReport {
        self.scrub_slice(0, u64::MAX).report
    }

    /// Validates every sidecar the directory lists against its live
    /// segment (byte length, CRC, decode, geometry). A valid sidecar
    /// attaches to a segment that holds no bitmaps yet (a mount); a failing
    /// one is dropped — directory entry and in-memory bitmaps both — so
    /// planning falls back to the conservative page set (degrade, don't
    /// lie) and the next commit persists a fresh sidecar if the bitmaps are
    /// ever rebuilt. Entries for segments that no longer exist are
    /// discarded uncounted. Returns the number of sidecars dropped.
    pub(super) fn check_sidecars(&mut self) -> u64 {
        let segments = &self.segments;
        self.bitmap_refs
            .retain(|id, _| segments.binary_search_by_key(id, |s| s.id).is_ok());
        let buckets = self.config.bitmap_buckets;
        let mut dropped = 0;
        for seg in &mut self.segments {
            let Some(bref) = self.bitmap_refs.get(&seg.id) else {
                continue;
            };
            let pages = seg.pages;
            let loaded = read_blob(&mut self.ssd, &bref.blob)
                .and_then(|blob| SegmentBitmaps::from_bytes(&blob))
                .filter(|b| b.buckets() == buckets && b.pages() == pages);
            match loaded {
                Some(bitmaps) => {
                    seg.bitmaps.get_or_insert(bitmaps);
                }
                None => {
                    dropped += 1;
                    self.bitmap_refs.remove(&seg.id);
                    seg.bitmaps = None;
                }
            }
        }
        dropped
    }

    /// Verifies one bounded slice of the device, for incremental (online)
    /// scrubbing between foreground work (see [`SimSsd::scrub_slice`]).
    /// Like [`MithriLog::scrub`], failing pages are quarantined, and the
    /// slice that completes a pass also re-validates the bitmap sidecars,
    /// counting the ones it drops in `report.bitmaps_dropped`.
    pub fn scrub_slice(&mut self, start: u64, max_pages: u64) -> mithrilog_storage::ScrubSlice {
        let mut slice = self.ssd.scrub_slice(start, max_pages);
        if slice.complete {
            slice.report.bitmaps_dropped += self.check_sidecars();
        }
        slice
    }

    /// Verifies one sealed segment end to end: every member page is read
    /// back and the recomputed CRC summary compared against the seal-time
    /// one. `None` for an unknown (never sealed, or already dropped) id;
    /// `Some(false)` when any page is unreadable or the summary mismatches.
    pub fn verify_segment(&mut self, id: u64) -> Option<bool> {
        let (seg, run) = self.sealed_run(id)?;
        let (crc, run) = (seg.crc, run.to_vec());
        let crcs: Option<Vec<u32>> = run
            .iter()
            .map(|page| self.ssd.read(*page).ok().map(|raw| crc32(&raw)))
            .collect();
        Some(crcs.is_some_and(|crcs| crc_summary(crcs) == crc))
    }

    /// Scrubs exactly one sealed segment's pages (see
    /// [`SimSsd::scrub_pages`]): failing pages are quarantined, shrinking
    /// the blast radius to queries that demand this segment. `None` for an
    /// unknown id.
    pub fn scrub_segment(&mut self, id: u64) -> Option<mithrilog_storage::ScrubReport> {
        let pages: Vec<u64> = self.sealed_run(id)?.1.iter().map(|p| p.0).collect();
        Some(self.ssd.scrub_pages(&pages))
    }

    /// Quarantines every page of one sealed segment — the operational
    /// response to a failed [`MithriLog::verify_segment`]. Only queries
    /// whose plans demand this segment's pages degrade (reported per query
    /// in [`DegradedRead::skipped_pages`]); everything else is untouched.
    /// Returns the number of pages quarantined, or `None` for an unknown
    /// id.
    pub fn quarantine_segment(&mut self, id: u64) -> Option<u64> {
        let pages = self.sealed_run(id)?.1.to_vec();
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
    /// Dropped pages leave `data_pages` immediately: plans stop including
    /// them, and their cache entries are removed, so dead text never holds
    /// the cache's budget and a cached page is never stale. The inverted
    /// index keeps its (now stale) postings until the next rebuild —
    /// plan-time filtering makes that a pure size overhead, never a
    /// correctness issue. Like any log-structured store, the physical pages
    /// are not reclaimed by the simulated device.
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
        // The dropped segments are the oldest, so their runs are exactly
        // the first live data pages.
        let mut dropped_pages = 0;
        for seg in self.segments.drain(..drop_count) {
            dropped_pages += seg.pages;
            report.segments_dropped += 1;
            report.pages_dropped += seg.pages as u64;
            self.data_pages_dropped += seg.pages as u64;
            report.lines_dropped += seg.lines;
            report.raw_bytes_dropped += seg.raw_bytes;
            self.total_lines -= seg.lines;
            self.total_raw_bytes -= seg.raw_bytes;
            self.total_compressed_bytes -= seg.compressed_bytes;
            self.pending.drops.push(seg.id);
            self.bitmap_refs.remove(&seg.id);
        }
        for p in self.data_pages.drain(..dropped_pages) {
            if let Some(cache) = &self.page_cache {
                cache.remove(p.0);
            }
        }
        report.segments_retained = self.segments.len() as u64;
        self.commit()?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::system::tests::segmented_config;
    use crate::system::QueryRequest;

    /// Ingests one-page fillers until the open segment seals, so the next
    /// era starts on a segment boundary. Bounded: each filler appends one
    /// page, so at most `segment_pages` iterations.
    fn seal_era_boundary(s: &mut MithriLog, filler: &str) {
        while s.open_segment_pages() != 0 {
            s.ingest(filler.as_bytes()).unwrap();
        }
    }

    #[test]
    fn live_pages_ascend_as_segments_through_retention_and_remount() {
        // A default-size index, so a rare token plans from the index (the
        // tiny test index saturates on thousands of distinct tokens).
        let config = SystemConfig {
            segment_pages: 2,
            ..SystemConfig::default()
        };
        let mut s = MithriLog::new(config.clone());
        let log: String = std::iter::once("the oldest needle\n".to_string())
            .chain((0..3000).map(|i| format!("event number {i} on node {}\n", i % 17)))
            .collect();
        s.ingest(log.as_bytes()).unwrap();
        s.ingest(b"a short tail for the open segment\n").unwrap();
        assert!(s.sealed_segment_count() >= 3);
        assert!(s.open_segment_pages() > 0);
        let needle = QueryRequest::parse("needle").unwrap();
        assert_eq!(s.query_str("needle").unwrap().match_count(), 1);

        let report = s.apply_retention(1).unwrap();
        assert!(report.pages_dropped > 0);
        assert_eq!(s.sealed_segment_count(), 1);
        // The index still posts the needle's dropped page; no plan takes it.
        let plan = s.explain(&needle).unwrap();
        assert!(plan.used_index);
        assert_eq!(plan.planned_pages, 0);

        let store = s.device().store().clone();
        let (mounted, _) = MithriLog::open_store(store, config).unwrap();
        assert_eq!(mounted.data_pages, s.data_pages);
        assert_eq!(mounted.sealed_segments(), s.sealed_segments());
        assert!(mounted.data_pages.windows(2).all(|w| w[0] < w[1]));
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
    fn retention_removes_the_dropped_pages_cache_entries() {
        let mut s = MithriLog::new(segmented_config(2));
        let era1: String = (0..3000)
            .map(|i| format!("old-era event number {i}\n"))
            .collect();
        s.ingest(era1.as_bytes()).unwrap();
        seal_era_boundary(&mut s, "old-era filler line\n");
        let old_pages = s.data_page_count();
        let era2: String = (0..3000)
            .map(|i| format!("new-era event number {i}\n"))
            .collect();
        s.ingest(era2.as_bytes()).unwrap();

        // A full scan caches every live page (the default cache holds them).
        let everything = s.query_str("NOT zz-absent-zz").unwrap();
        let cache = s.page_cache.as_ref().unwrap();
        assert_eq!(cache.entries() as u64, s.data_page_count());
        let cached_bytes = cache.bytes();
        assert_eq!(cached_bytes, everything.bytes_filtered);

        let keep = s.sealed_segment_count() - old_pages / 2;
        let report = s.apply_retention(keep).unwrap();
        assert_eq!(report.pages_dropped, old_pages);
        let cache = s.page_cache.as_ref().unwrap();
        assert_eq!(cache.entries() as u64, s.data_page_count());
        assert_eq!(
            cache.bytes(),
            cached_bytes - report.raw_bytes_dropped,
            "a dropped page's text leaves the cache with it"
        );
        // What is left still serves: a repeat scan reads no page.
        let before = *s.device().ledger();
        s.query_str("NOT zz-absent-zz").unwrap();
        assert_eq!(s.device().ledger().since(&before).pages_read, 0);
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
        let victim_page = s.data_pages[0];
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
