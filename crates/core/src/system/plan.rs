use std::collections::HashSet;
use std::time::Duration;

use mithrilog_index::QueryPlan;
use mithrilog_query::Query;
use mithrilog_storage::{Link, PageId, PageStore};

use super::{MithriLog, QueryRequest};
#[cfg(doc)]
use crate::config::SystemConfig;
use crate::error::MithriLogError;
use crate::exec::page_is_skippable;
use crate::outcome::{PlanExplain, SegmentExplain};
#[cfg(doc)]
use mithrilog_index::InvertedIndex;

/// One request's share of a wave plan (see `MithriLog::plan_wave`): the
/// final page set, what the request's own clips dropped from it, the
/// as-if-solo probe ledger, and the per-segment pruning classification.
pub(super) struct PlannedQuery {
    /// Pages to scan: ascending, deduplicated, already clipped to the
    /// request's time window, page budget and deadline.
    pub(super) pages: Vec<PageId>,
    pub(super) budget_clipped: u64,
    pub(super) deadline_clipped: u64,
    pub(super) plan_ledger: mithrilog_storage::CostLedger,
    pub(super) used_index: bool,
    pub(super) index_fallback: bool,
    pub(super) segments: Vec<SegmentExplain>,
}

impl PlannedQuery {
    pub(super) fn pruned_by_index(&self) -> u64 {
        self.segments.iter().map(|s| s.pruned_by_index).sum()
    }

    pub(super) fn pruned_by_bitmap(&self) -> u64 {
        self.segments.iter().map(|s| s.pruned_by_bitmap).sum()
    }

    pub(super) fn pruned_by_both(&self) -> u64 {
        self.segments.iter().map(|s| s.pruned_by_both).sum()
    }
}

/// A planned wave: one `PlannedQuery` per input query plus the batched
/// probe's demanded-vs-physical accounting.
pub(super) struct WavePlan {
    pub(super) queries: Vec<PlannedQuery>,
    pub(super) probe_report: mithrilog_index::BatchProbeReport,
}

impl<S: PageStore> MithriLog<S> {
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
    pub(super) fn plan_wave(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<WavePlan, MithriLogError> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::system::tests::{system_with, LOG};
    use mithrilog_query::parse;

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
}
