use std::time::{Duration, Instant};

use mithrilog_filter::FilterPipeline;
use mithrilog_query::{parse, Query};
use mithrilog_sim::{AcceleratorConfig, DatasetInputs, Throughput, ThroughputModel};
use mithrilog_storage::{Link, PageStore};

use super::MithriLog;
use crate::error::MithriLogError;
use crate::exec::{self, CacheView, Engine};
use crate::outcome::{
    DegradedRead, QueryOutcome, ScanAttribution, SharedBatchOutcome, SharedScanReport,
};

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

impl<S: PageStore> MithriLog<S> {
    /// The cache view scans run against: the cache (when configured) and
    /// the store's average decoded bytes per live data page, which sizes a
    /// wave against the cache.
    fn cache_view(&self) -> Option<CacheView<'_>> {
        self.page_cache.as_ref().map(|cache| CacheView {
            cache,
            page_bytes: self.total_raw_bytes / (self.data_pages.len() as u64).max(1),
        })
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
            cache_declined: fan.cache_declined,
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
            let modeled_time = self.model_query_time(&ledger, scan.bytes_filtered, &scan.lines);
            let mut degraded = DegradedRead {
                skipped_pages: scan.skipped_pages,
                retries: ledger.retries,
                estimated_missed_lines: 0,
                index_fallback: planned.index_fallback,
                budget_clipped: planned.budget_clipped,
                deadline_clipped: planned.deadline_clipped,
            };
            // Estimate what the lost pages held from *this query's*
            // observed line density when at least one page was scanned; the
            // global average (which counts pages from other epochs) is only
            // a fallback for the nothing-was-scanned case.
            degraded.estimate_missed_lines(
                scan.lines_scanned,
                scan.pages_filtered,
                self.total_lines,
                self.data_pages.len() as u64,
            );
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
                degraded,
            });
        }
        Ok(SharedBatchOutcome {
            outcomes,
            shared: report,
        })
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
    use crate::config::SystemConfig;
    use crate::system::tests::{system_with, LOG};

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
    fn mutable_device_access_empties_the_cache() {
        let mut s = system_with(&LOG.repeat(300));
        s.query_str("NOT zz-absent-zz").unwrap();
        let cache = s.page_cache.as_ref().unwrap();
        assert_eq!(cache.entries() as u64, s.data_page_count());
        assert!(cache.bytes() > 0);
        // The device may have changed under every entry: nothing stays.
        s.device_mut();
        let cache = s.page_cache.as_ref().unwrap();
        assert_eq!((cache.entries(), cache.bytes()), (0, 0));
        // The next scan fills it again.
        s.query_str("NOT zz-absent-zz").unwrap();
        let cache = s.page_cache.as_ref().unwrap();
        assert_eq!(cache.entries() as u64, s.data_page_count());
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
}
