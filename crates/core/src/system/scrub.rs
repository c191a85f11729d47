use std::collections::HashSet;

use mithrilog_storage::{crc32, read_blob, PageId, PageStore};

use super::{crc_summary, MithriLog, Segment};
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
        let live: HashSet<u64> = self.segments.iter().map(|s| s.id).collect();
        self.bitmap_refs.retain(|id, _| live.contains(id));
        let buckets = self.config.bitmap_buckets;
        let mut dropped = 0;
        for seg in &mut self.segments {
            let Some(bref) = self.bitmap_refs.get(&seg.id) else {
                continue;
            };
            let pages = seg.pages.len();
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
        let seg = self.segments.iter().find(|s| s.id == id)?;
        let crcs: Option<Vec<u32>> = seg
            .pages
            .iter()
            .map(|page| self.ssd.read(*page).ok().map(|raw| crc32(&raw)))
            .collect();
        Some(crcs.is_some_and(|crcs| crc_summary(crcs) == seg.crc))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::system::tests::segmented_config;

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
