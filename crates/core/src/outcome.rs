use std::time::Duration;

use mithrilog_storage::CostLedger;

/// Report of one ingest call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Raw bytes ingested.
    pub raw_bytes: u64,
    /// Lines ingested.
    pub lines: u64,
    /// Data pages written.
    pub data_pages: u64,
    /// Compressed bytes across the new data pages (before page padding).
    pub compressed_bytes: u64,
}

impl IngestReport {
    /// Compression ratio achieved for this batch.
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.compressed_bytes as f64
        }
    }

    /// Accumulates another batch's report (a multi-device layer sums its
    /// members' shares of one routed batch). The exhaustive destructuring
    /// makes a field added to the report a compile error here instead of a
    /// silently dropped sum.
    pub fn merge(&mut self, other: &IngestReport) {
        let IngestReport {
            raw_bytes,
            lines,
            data_pages,
            compressed_bytes,
        } = *other;
        self.raw_bytes += raw_bytes;
        self.lines += lines;
        self.data_pages += data_pages;
        self.compressed_bytes += compressed_bytes;
    }
}

/// How recovery-on-mount obtained the in-memory index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexRecovery {
    /// The committed checkpoint validated and was loaded directly.
    Checkpoint,
    /// The checkpoint was absent or invalid; the index was rebuilt by
    /// rescanning every committed data page.
    Rebuilt,
}

/// Report of one recovery-on-mount ([`MithriLog::open`] /
/// [`MithriLog::open_store`]).
///
/// [`MithriLog::open`]: crate::MithriLog::open
/// [`MithriLog::open_store`]: crate::MithriLog::open_store
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the superblock the mount selected.
    pub superblock_sequence: u64,
    /// The committed frontier: pages below this id survived; the store was
    /// truncated to exactly this extent.
    pub committed_pages: u64,
    /// Pages beyond the committed frontier that were discarded — the
    /// uncommitted tail a crash left behind (including any torn write).
    pub uncommitted_pages_discarded: u64,
    /// Commits reconstructed from the journal manifest chain.
    pub commits_replayed: u64,
    /// Data pages recovered across all replayed commits.
    pub data_pages_recovered: u64,
    /// Acknowledged log lines recovered (every line whose ingest call
    /// returned success before the crash).
    pub lines_recovered: u64,
    /// Estimated log lines in the discarded tail — lines that were being
    /// ingested when the crash hit and were never acknowledged.
    pub uncommitted_lines_discarded: u64,
    /// Sealed segments recovered live from the journal (seal records minus
    /// retention drops).
    pub segments_recovered: u64,
    /// Sealed segments whose journaled retention drop was honored — their
    /// pages and totals were excluded, never resurrected.
    pub segments_dropped: u64,
    /// How the in-memory index was obtained.
    pub index: IndexRecovery,
    /// Checkpoint deltas applied on top of the full checkpoint (0 when the
    /// index was rebuilt). Commits write a full checkpoint at least every
    /// [`SystemConfig::segment_pages`] commits, which bounds this count.
    ///
    /// [`SystemConfig::segment_pages`]: crate::SystemConfig::segment_pages
    pub checkpoint_deltas_applied: u64,
    /// Segment bitmap sidecars that failed their CRC or decode at mount
    /// and were dropped: those segments plan conservatively (full page
    /// set) until their bitmaps are rebuilt — degraded, never lying.
    pub segment_bitmaps_dropped: u64,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered to commit {}: {} committed pages ({} data pages, \
             {} lines, {} sealed segments, {} dropped) over {} commits; \
             discarded {} uncommitted pages (~{} unacknowledged lines); \
             index {}",
            self.superblock_sequence,
            self.committed_pages,
            self.data_pages_recovered,
            self.lines_recovered,
            self.segments_recovered,
            self.segments_dropped,
            self.commits_replayed,
            self.uncommitted_pages_discarded,
            self.uncommitted_lines_discarded,
            match self.index {
                IndexRecovery::Checkpoint => "loaded from checkpoint",
                IndexRecovery::Rebuilt => "rebuilt from data pages",
            }
        )?;
        if self.index == IndexRecovery::Checkpoint {
            write!(f, " + {} deltas", self.checkpoint_deltas_applied)?;
        }
        if self.segment_bitmaps_dropped > 0 {
            write!(
                f,
                "; {} segment bitmap sidecar(s) dropped (corrupt)",
                self.segment_bitmaps_dropped
            )?;
        }
        Ok(())
    }
}

/// Summary of one sealed, immutable segment: its identity, extent, totals,
/// and CRC summary ([`MithriLog::sealed_segments`]).
///
/// [`MithriLog::sealed_segments`]: crate::MithriLog::sealed_segments
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentSummary {
    /// Monotonic segment id (never reused, even after a retention drop).
    pub id: u64,
    /// Member data pages.
    pub pages: u64,
    /// First member data-page id (0 when the segment is empty).
    pub first_page: u64,
    /// Last member data-page id (0 when the segment is empty).
    pub last_page: u64,
    /// Whether this segment carries token-bitmap sidecars the wave planner
    /// can prune with (dropped when a scrub finds them corrupt).
    pub has_bitmaps: bool,
    /// Lines held by this segment.
    pub lines: u64,
    /// Raw bytes held by this segment.
    pub raw_bytes: u64,
    /// Compressed bytes across this segment's pages.
    pub compressed_bytes: u64,
    /// CRC32 over the segment's per-page CRC32s (little-endian, in page
    /// order) — the seal-time summary [`MithriLog::verify_segment`] checks.
    ///
    /// [`MithriLog::verify_segment`]: crate::MithriLog::verify_segment
    pub crc: u32,
}

/// Report of one retention pass ([`MithriLog::apply_retention`]): whole
/// sealed segments dropped crash-consistently, oldest first.
///
/// [`MithriLog::apply_retention`]: crate::MithriLog::apply_retention
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetentionReport {
    /// Sealed segments dropped by this pass.
    pub segments_dropped: u64,
    /// Sealed segments still live after the pass (the open segment is never
    /// droppable and is not counted).
    pub segments_retained: u64,
    /// Data pages retired with the dropped segments.
    pub pages_dropped: u64,
    /// Lines retired with the dropped segments.
    pub lines_dropped: u64,
    /// Raw bytes retired with the dropped segments.
    pub raw_bytes_dropped: u64,
}

impl RetentionReport {
    /// Accumulates another pass's report (a multi-device layer sums its
    /// members' reports). The exhaustive destructuring makes a field added
    /// to the report a compile error here instead of a silently dropped sum.
    pub fn merge(&mut self, other: &RetentionReport) {
        let RetentionReport {
            segments_dropped,
            segments_retained,
            pages_dropped,
            lines_dropped,
            raw_bytes_dropped,
        } = *other;
        self.segments_dropped += segments_dropped;
        self.segments_retained += segments_retained;
        self.pages_dropped += pages_dropped;
        self.lines_dropped += lines_dropped;
        self.raw_bytes_dropped += raw_bytes_dropped;
    }
}

impl std::fmt::Display for RetentionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dropped {} sealed segments ({} pages, {} lines, {} raw bytes); \
             {} sealed segments retained",
            self.segments_dropped,
            self.pages_dropped,
            self.lines_dropped,
            self.raw_bytes_dropped,
            self.segments_retained
        )
    }
}

/// Summary of the recovery actions a query needed, populated when storage
/// faults were encountered and survived.
///
/// A query over a corpus with corrupt or unreadable pages completes with the
/// data that could be recovered; this summary reports what was lost so the
/// caller can judge the result's completeness instead of getting nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradedRead {
    /// Data pages skipped because they were corrupt, unreadable after
    /// retries, or failed to decompress, in scan order.
    pub skipped_pages: Vec<u64>,
    /// Transient read retries spent (successful recoveries — these pages
    /// were *not* skipped, just slower).
    pub retries: u64,
    /// Estimate of matching-candidate lines lost with the skipped pages,
    /// extrapolated from the line density this query actually observed on
    /// the pages it did scan (falling back to the corpus-wide average only
    /// when every planned page was skipped).
    pub estimated_missed_lines: u64,
    /// The index plan could not be read (corrupt index page) and the query
    /// fell back to a filtered full scan. Results are complete — only the
    /// pruning was lost.
    pub index_fallback: bool,
    /// Planned pages dropped from the tail of the scan because the query's
    /// page (deadline) budget ran out. The query completed with partial
    /// results instead of overrunning; the dropped pages contribute to
    /// [`DegradedRead::estimated_missed_lines`].
    pub budget_clipped: u64,
    /// Planned pages dropped from the tail of the scan because they did not
    /// fit inside the query's modeled-time deadline
    /// ([`QueryRequest::deadline`]). Like [`DegradedRead::budget_clipped`],
    /// an honest partial result: the clip is applied to the plan before
    /// scanning, so the same request replays byte-identically.
    ///
    /// [`QueryRequest::deadline`]: crate::QueryRequest::deadline
    pub deadline_clipped: u64,
}

impl DegradedRead {
    /// Sets [`DegradedRead::estimated_missed_lines`]: every lost page
    /// (skipped or clipped) is charged this read's observed line density,
    /// `lines_scanned` over `pages_filtered`; when no page was filtered, the
    /// store's average, `total_lines` over `total_pages`, stands in. A
    /// single device and a sharded topology both estimate here, so the two
    /// agree to the line.
    pub fn estimate_missed_lines(
        &mut self,
        lines_scanned: u64,
        pages_filtered: u64,
        total_lines: u64,
        total_pages: u64,
    ) {
        let lost = self.skipped_pages.len() as u64 + self.budget_clipped + self.deadline_clipped;
        let per_page = if pages_filtered > 0 {
            lines_scanned.div_ceil(pages_filtered)
        } else if total_pages > 0 {
            total_lines.div_ceil(total_pages)
        } else {
            0
        };
        self.estimated_missed_lines = per_page * lost;
    }

    /// Whether anything at all was lost or recovered around.
    pub fn is_degraded(&self) -> bool {
        !self.skipped_pages.is_empty()
            || self.index_fallback
            || self.retries > 0
            || self.budget_clipped > 0
            || self.deadline_clipped > 0
    }

    /// Whether the result set may be incomplete (pages were skipped or
    /// clipped by a page budget or deadline).
    pub fn is_lossy(&self) -> bool {
        !self.skipped_pages.is_empty() || self.budget_clipped > 0 || self.deadline_clipped > 0
    }
}

impl std::fmt::Display for DegradedRead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} pages skipped (~{} lines lost), {} retries{}{}{}",
            self.skipped_pages.len(),
            self.estimated_missed_lines,
            self.retries,
            if self.budget_clipped > 0 {
                format!(", {} pages clipped by deadline budget", self.budget_clipped)
            } else {
                String::new()
            },
            if self.deadline_clipped > 0 {
                format!(", {} pages clipped by deadline", self.deadline_clipped)
            } else {
                String::new()
            },
            if self.index_fallback {
                ", index unreadable -> full scan"
            } else {
                ""
            }
        )
    }
}

/// Result of one query execution.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Matching log lines, in storage order.
    pub lines: Vec<String>,
    /// Source data-page id of each matching line, parallel to `lines`.
    /// Within one device this is non-decreasing (lines come out in storage
    /// order); a multi-device shard layer uses it to map each line back to
    /// its global ingest position and merge shard outcomes into the exact
    /// order a single-device run would produce.
    pub line_pages: Vec<u64>,
    /// Whether the query was offloaded to the hardware filter model
    /// (`false` = software fallback after a failed compile).
    pub offloaded: bool,
    /// Whether the index pruned pages (`false` = full scan).
    pub used_index: bool,
    /// Data pages scanned.
    pub pages_scanned: u64,
    /// Decompressed bytes pushed through the filter.
    pub bytes_filtered: u64,
    /// Lines examined by the filter.
    pub lines_scanned: u64,
    /// Device access ledger for this query (index + data reads).
    pub ledger: CostLedger,
    /// Modeled device + accelerator time for this query on the prototype
    /// hardware (index chain latency + max of storage supply and filter
    /// drain).
    pub modeled_time: Duration,
    /// Wall-clock time of the software execution of the functional model.
    pub wall_time: Duration,
    /// Recovery summary: what was skipped or retried. Check
    /// [`DegradedRead::is_lossy`] before treating the result as complete.
    pub degraded: DegradedRead,
}

/// Per-query cost attribution within one shared (cross-query) scan.
///
/// Shared pages are read and decompressed once and fanned out to every
/// query that planned them; the physical cost of such a page is split
/// evenly across its sharers, so the attributions of a batch always sum to
/// the physical reads actually issued.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScanAttribution {
    /// Data pages this query planned (after any window/budget clipping).
    pub planned_pages: u64,
    /// Planned pages no other query in the batch wanted (charged in full).
    pub exclusive_pages: u64,
    /// Planned pages at least one other query also wanted.
    pub shared_pages: u64,
    /// Attributed physical page reads: one per exclusive page plus
    /// `1/share_count` per shared page. Fractional by construction.
    pub attributed_page_cost: f64,
    /// Live pages the index probe alone removed from this query's plan
    /// (pages the segment bitmaps would still have scanned).
    pub pruned_by_index: u64,
    /// Live pages the segment bitmaps alone removed (pages the index plan
    /// still demanded).
    pub pruned_by_bitmap: u64,
    /// Live pages both mechanisms independently removed.
    pub pruned_by_both: u64,
}

impl ScanAttribution {
    /// Accumulates the same query's attribution on another device: every
    /// field is an additive count.
    pub fn merge(&mut self, other: &ScanAttribution) {
        let ScanAttribution {
            planned_pages,
            exclusive_pages,
            shared_pages,
            attributed_page_cost,
            pruned_by_index,
            pruned_by_bitmap,
            pruned_by_both,
        } = *other;
        self.planned_pages += planned_pages;
        self.exclusive_pages += exclusive_pages;
        self.shared_pages += shared_pages;
        self.attributed_page_cost += attributed_page_cost;
        self.pruned_by_index += pruned_by_index;
        self.pruned_by_bitmap += pruned_by_bitmap;
        self.pruned_by_both += pruned_by_both;
    }
}

/// Accounting for one shared scan over a batch of concurrently admitted
/// queries ([`MithriLog::query_shared`]).
///
/// [`MithriLog::query_shared`]: crate::MithriLog::query_shared
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SharedScanReport {
    /// Total per-query page demand: the reads the batch would have issued
    /// run one query at a time.
    pub demanded_page_reads: u64,
    /// Distinct data pages the shared scan actually read.
    pub unique_pages_read: u64,
    /// Duplicate reads the fan-out avoided
    /// (`demanded_page_reads - unique_pages_read` when the scan completes).
    pub shared_reads_avoided: u64,
    /// Union pages served from the cross-wave decompressed-page cache
    /// instead of flash. Like `shared_reads_avoided`, a purely physical
    /// saving: per-query outcomes and ledgers are unaffected.
    pub cache_hits: u64,
    /// Raw page bytes those cache hits kept off the device.
    pub cache_bytes_saved: u64,
    /// Union pages a flooding wave read and did not cache: a wave whose
    /// planned pages hold more text than the cache only fills its free
    /// room, so a scan larger than the cache cannot flush it.
    pub cache_declined: u64,
    /// Live pages removed from plans by the index probe alone, summed over
    /// the batch (see [`ScanAttribution::pruned_by_index`]).
    pub pages_pruned_by_index: u64,
    /// Live pages removed by the segment bitmaps alone, summed over the
    /// batch. This is the mechanism that turns negative-only full scans
    /// into partial scans.
    pub pages_pruned_by_bitmap: u64,
    /// Live pages both mechanisms independently removed, summed.
    pub pages_pruned_by_both: u64,
    /// Index node reads the batch's queries would have paid probing solo
    /// (per-query as-if-solo probe charges, summed).
    pub probe_node_visits_demanded: u64,
    /// Index node reads the deduplicated batch probe actually issued.
    pub probe_node_visits_physical: u64,
    /// Per-query attribution, in batch submission order.
    pub attribution: Vec<ScanAttribution>,
}

impl SharedScanReport {
    /// Accumulates the same batch's report from another device: counters
    /// sum, and the per-query attributions sum row by row.
    pub fn merge(&mut self, other: &SharedScanReport) {
        let SharedScanReport {
            demanded_page_reads,
            unique_pages_read,
            shared_reads_avoided,
            cache_hits,
            cache_bytes_saved,
            cache_declined,
            pages_pruned_by_index,
            pages_pruned_by_bitmap,
            pages_pruned_by_both,
            probe_node_visits_demanded,
            probe_node_visits_physical,
            attribution,
        } = other;
        self.demanded_page_reads += demanded_page_reads;
        self.unique_pages_read += unique_pages_read;
        self.shared_reads_avoided += shared_reads_avoided;
        self.cache_hits += cache_hits;
        self.cache_bytes_saved += cache_bytes_saved;
        self.cache_declined += cache_declined;
        self.pages_pruned_by_index += pages_pruned_by_index;
        self.pages_pruned_by_bitmap += pages_pruned_by_bitmap;
        self.pages_pruned_by_both += pages_pruned_by_both;
        self.probe_node_visits_demanded += probe_node_visits_demanded;
        self.probe_node_visits_physical += probe_node_visits_physical;
        if self.attribution.len() < attribution.len() {
            self.attribution
                .resize(attribution.len(), ScanAttribution::default());
        }
        for (mine, theirs) in self.attribution.iter_mut().zip(attribution) {
            mine.merge(theirs);
        }
    }

    /// Index node reads the batched probe avoided versus solo probes.
    pub fn probe_node_visits_saved(&self) -> u64 {
        self.probe_node_visits_demanded
            .saturating_sub(self.probe_node_visits_physical)
    }
}

impl std::fmt::Display for SharedScanReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} queries demanded {} page reads, served by {} unique reads \
             ({} duplicates avoided, {} cache hits, {} left uncached by a \
             flooding wave); planner pruned \
             {} pages by index, {} by bitmap, {} by both; batched probe \
             saved {} index node visits",
            self.attribution.len(),
            self.demanded_page_reads,
            self.unique_pages_read,
            self.shared_reads_avoided,
            self.cache_hits,
            self.cache_declined,
            self.pages_pruned_by_index,
            self.pages_pruned_by_bitmap,
            self.pages_pruned_by_both,
            self.probe_node_visits_saved()
        )
    }
}

/// Result of executing a batch of queries as one shared scan
/// ([`MithriLog::query_shared`]).
///
/// [`MithriLog::query_shared`]: crate::MithriLog::query_shared
#[derive(Debug, Clone)]
pub struct SharedBatchOutcome {
    /// One outcome per request, in submission order — each byte-identical
    /// to running that request alone (see `query_shared` for the exact
    /// contract).
    pub outcomes: Vec<QueryOutcome>,
    /// Shared-read accounting for the batch, reported separately from the
    /// per-query outcomes precisely because it is what concurrency changes.
    pub shared: SharedScanReport,
}

/// One segment's row in a [`PlanExplain`]: how the planner treated the
/// segment's live pages for this query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentExplain {
    /// Segment id, or `None` for the open (unsealed) segment, which never
    /// has bitmaps and is never bitmap-pruned.
    pub segment_id: Option<u64>,
    /// Live pages the segment contributes to the scan universe.
    pub live_pages: u64,
    /// Pages of this segment the final plan will scan.
    pub planned_pages: u64,
    /// Pages removed by the index probe alone.
    pub pruned_by_index: u64,
    /// Pages removed by the segment bitmaps alone.
    pub pruned_by_bitmap: u64,
    /// Pages both mechanisms independently removed.
    pub pruned_by_both: u64,
    /// Whether the segment currently has usable bitmaps (false for the
    /// open segment, segments sealed with bitmaps disabled, and segments
    /// whose sidecar was dropped as corrupt).
    pub has_bitmaps: bool,
}

/// The planner's verdict for one query, produced without running the scan
/// ([`MithriLog::explain`]): which pages would be read and which mechanism
/// pruned the rest. Probing the index charges the device exactly as a real
/// plan would; no data page is touched.
///
/// [`MithriLog::explain`]: crate::MithriLog::explain
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanExplain {
    /// Whether the index probe produced a page-list plan.
    pub used_index: bool,
    /// Whether an index probe failed and the planner fell back to a full
    /// scan of the live pages.
    pub index_fallback: bool,
    /// Live data pages in the scan universe (all sealed segments plus the
    /// open segment; retention-dropped pages excluded).
    pub live_pages: u64,
    /// Pages the plan will scan after index and bitmap pruning and the
    /// time-window clip (before any budget/deadline clip).
    pub planned_pages: u64,
    /// Pages the plan would drop to honor the page budget.
    pub budget_clipped: u64,
    /// Further pages the plan would drop to honor the deadline.
    pub deadline_clipped: u64,
    /// Per-segment breakdown, oldest segment first, open segment last.
    pub segments: Vec<SegmentExplain>,
}

impl PlanExplain {
    /// Total pages removed by the index probe alone.
    pub fn pruned_by_index(&self) -> u64 {
        self.segments.iter().map(|s| s.pruned_by_index).sum()
    }

    /// Total pages removed by the segment bitmaps alone.
    pub fn pruned_by_bitmap(&self) -> u64 {
        self.segments.iter().map(|s| s.pruned_by_bitmap).sum()
    }

    /// Total pages both mechanisms independently removed.
    pub fn pruned_by_both(&self) -> u64 {
        self.segments.iter().map(|s| s.pruned_by_both).sum()
    }
}

impl std::fmt::Display for PlanExplain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "plan: {} of {} live pages ({}index), pruned {} by index / {} \
             by bitmap / {} by both, clipped {} by budget + {} by deadline",
            self.planned_pages,
            self.live_pages,
            if self.used_index {
                if self.index_fallback {
                    "fallback from "
                } else {
                    ""
                }
            } else {
                "no "
            },
            self.pruned_by_index(),
            self.pruned_by_bitmap(),
            self.pruned_by_both(),
            self.budget_clipped,
            self.deadline_clipped,
        )?;
        for seg in &self.segments {
            writeln!(
                f,
                "  segment {}: {}/{} pages planned, pruned {} index / {} \
                 bitmap / {} both{}",
                seg.segment_id
                    .map_or_else(|| "open".to_string(), |id| id.to_string()),
                seg.planned_pages,
                seg.live_pages,
                seg.pruned_by_index,
                seg.pruned_by_bitmap,
                seg.pruned_by_both,
                if seg.has_bitmaps { "" } else { " (no bitmaps)" },
            )?;
        }
        Ok(())
    }
}

impl QueryOutcome {
    /// Matching line count.
    pub fn match_count(&self) -> u64 {
        self.lines.len() as u64
    }

    /// Effective throughput against the original dataset size, using the
    /// modeled hardware time (the paper's §7.4.2 metric).
    pub fn effective_throughput_gbps(&self, dataset_bytes: u64) -> f64 {
        if self.modeled_time.is_zero() {
            return f64::INFINITY;
        }
        dataset_bytes as f64 / self.modeled_time.as_secs_f64() / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_ratio() {
        let r = IngestReport {
            raw_bytes: 1000,
            lines: 10,
            data_pages: 1,
            compressed_bytes: 250,
        };
        assert!((r.compression_ratio() - 4.0).abs() < 1e-12);
        let empty = IngestReport {
            raw_bytes: 0,
            lines: 0,
            data_pages: 0,
            compressed_bytes: 0,
        };
        assert_eq!(empty.compression_ratio(), 1.0);
    }

    #[test]
    fn throughput_uses_modeled_time() {
        let o = QueryOutcome {
            lines: vec![],
            line_pages: vec![],
            offloaded: true,
            used_index: true,
            pages_scanned: 0,
            bytes_filtered: 0,
            lines_scanned: 0,
            ledger: CostLedger::default(),
            modeled_time: Duration::from_millis(100),
            wall_time: Duration::ZERO,
            degraded: DegradedRead::default(),
        };
        assert!((o.effective_throughput_gbps(1_000_000_000) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn recovery_report_display_covers_both_index_paths() {
        let mut r = RecoveryReport {
            superblock_sequence: 3,
            committed_pages: 40,
            uncommitted_pages_discarded: 5,
            commits_replayed: 3,
            data_pages_recovered: 20,
            lines_recovered: 1000,
            uncommitted_lines_discarded: 12,
            segments_recovered: 2,
            segments_dropped: 1,
            segment_bitmaps_dropped: 0,
            index: IndexRecovery::Checkpoint,
            checkpoint_deltas_applied: 4,
        };
        let s = r.to_string();
        assert!(s.contains("commit 3"), "{s}");
        assert!(s.contains("loaded from checkpoint + 4 deltas"), "{s}");
        assert!(s.contains("2 sealed segments, 1 dropped"), "{s}");
        assert!(s.contains("checkpoint"), "{s}");
        assert!(!s.contains("bitmap sidecar"), "{s}");
        r.index = IndexRecovery::Rebuilt;
        assert!(r.to_string().contains("rebuilt"), "{r}");
        r.segment_bitmaps_dropped = 2;
        assert!(r.to_string().contains("2 segment bitmap sidecar"), "{r}");
    }

    #[test]
    fn retention_report_display() {
        let r = RetentionReport {
            segments_dropped: 2,
            segments_retained: 3,
            pages_dropped: 16,
            lines_dropped: 400,
            raw_bytes_dropped: 12_000,
        };
        let s = r.to_string();
        assert!(s.contains("dropped 2 sealed segments"), "{s}");
        assert!(s.contains("3 sealed segments retained"), "{s}");
    }

    #[test]
    fn report_merges_sum_every_counter_and_attribution_row() {
        let attr = ScanAttribution {
            planned_pages: 4,
            exclusive_pages: 1,
            shared_pages: 3,
            attributed_page_cost: 2.5,
            pruned_by_index: 5,
            pruned_by_bitmap: 6,
            pruned_by_both: 7,
        };
        let one = SharedScanReport {
            demanded_page_reads: 8,
            unique_pages_read: 5,
            shared_reads_avoided: 3,
            cache_hits: 2,
            cache_bytes_saved: 8192,
            cache_declined: 4,
            pages_pruned_by_index: 10,
            pages_pruned_by_bitmap: 12,
            pages_pruned_by_both: 14,
            probe_node_visits_demanded: 9,
            probe_node_visits_physical: 6,
            attribution: vec![attr, attr],
        };
        let mut sum = SharedScanReport::default();
        sum.merge(&one);
        assert_eq!(sum, one, "merging into an empty report copies it");
        sum.merge(&one);
        assert_eq!(sum.demanded_page_reads, 16);
        assert_eq!(sum.cache_declined, 8);
        assert_eq!(sum.probe_node_visits_saved(), 6);
        assert_eq!(sum.attribution.len(), 2);
        assert_eq!(sum.attribution[1].pruned_by_both, 14);
        assert_eq!(sum.attribution[1].attributed_page_cost, 5.0);

        let pass = RetentionReport {
            segments_dropped: 1,
            segments_retained: 2,
            pages_dropped: 3,
            lines_dropped: 4,
            raw_bytes_dropped: 5,
        };
        let mut total = pass;
        total.merge(&pass);
        assert_eq!(total.segments_retained, 4);
        assert_eq!(total.raw_bytes_dropped, 10);
    }

    #[test]
    fn degraded_read_classification() {
        let clean = DegradedRead::default();
        assert!(!clean.is_degraded() && !clean.is_lossy());
        let retried = DegradedRead {
            retries: 2,
            ..DegradedRead::default()
        };
        assert!(retried.is_degraded() && !retried.is_lossy());
        let lossy = DegradedRead {
            skipped_pages: vec![4, 9],
            estimated_missed_lines: 80,
            ..DegradedRead::default()
        };
        assert!(lossy.is_lossy());
        assert!(lossy.to_string().contains("2 pages skipped"), "{lossy}");
        let fallback = DegradedRead {
            index_fallback: true,
            ..DegradedRead::default()
        };
        assert!(fallback.is_degraded() && !fallback.is_lossy());
        assert!(fallback.to_string().contains("full scan"));
        let deadline = DegradedRead {
            deadline_clipped: 3,
            ..DegradedRead::default()
        };
        assert!(deadline.is_degraded() && deadline.is_lossy());
        assert!(
            deadline.to_string().contains("3 pages clipped by deadline"),
            "{deadline}"
        );
    }
}
