//! The storage backend the scheduler drives: one [`MithriLog`] device, or
//! a multi-device [`ShardedLog`] topology behind the same job queue.
//!
//! The scheduler never touches a device directly — every wave goes through
//! [`ServiceBackend`], so the whole service stack (admission control, fair
//! scheduling, shared scans, ingest frames applied as submitters built
//! them, scrub lane, panic isolation, the TCP front-end) works identically
//! over one device and over N. The single-device impl is the trivial
//! delegation; the sharded impl routes ingest frames by tenant/line key
//! and merges scatter-gather query results into single-device-identical
//! outcomes (see [`mithrilog_shard`]).

use mithrilog::{
    IngestReport, MithriLog, PlanExplain, PreparedIngest, QueryRequest, RetentionReport,
    SharedBatchOutcome, SystemConfig,
};
use mithrilog_shard::{ShardRow, ShardedLog};
use mithrilog_storage::{PageStore, ScrubReport, ScrubSlice};

/// What the service scheduler needs from a log store. Errors are rendered
/// strings: the scheduler only ever reports them to the submitting client,
/// never branches on them.
pub trait ServiceBackend: Send + 'static {
    /// The system configuration (shared by every device behind the
    /// backend), cloned once at spawn so submitters build ingest frames
    /// exactly as the backend would.
    fn config(&self) -> &SystemConfig;

    /// Executes one wave of queries as a shared scan.
    ///
    /// # Errors
    ///
    /// The rendered device error that failed the wave.
    fn query_shared(&mut self, requests: &[QueryRequest]) -> Result<SharedBatchOutcome, String>;

    /// Applies already-prepared ingest frames. `tenant` is the routing tag
    /// for sharded backends; a single device ignores it.
    ///
    /// # Errors
    ///
    /// The rendered device error that failed the apply.
    fn apply_prepared(
        &mut self,
        tenant: Option<&str>,
        prep: &PreparedIngest<'_>,
    ) -> Result<IngestReport, String>;

    /// Plans a query — index decision, pruning, clips — without scanning
    /// any data page.
    ///
    /// # Errors
    ///
    /// The rendered planning error (including "unsupported on this
    /// topology" for multi-shard explains).
    fn explain(&mut self, request: &QueryRequest) -> Result<PlanExplain, String>;

    /// Verifies every page, quarantining failures.
    fn scrub(&mut self) -> ScrubReport;

    /// Verifies a bounded slice of pages starting at an opaque cursor the
    /// backend itself issued (`0` starts a pass).
    fn scrub_slice(&mut self, cursor: u64, max_pages: u64) -> ScrubSlice;

    /// Drops the oldest sealed segments until at most `keep` remain (per
    /// device, for sharded backends).
    ///
    /// # Errors
    ///
    /// The rendered device error that failed the retention pass.
    fn apply_retention(&mut self, keep: u64) -> Result<RetentionReport, String>;

    /// Sealed segments held, summed across devices.
    fn sealed_segment_count(&self) -> u64;

    /// Per-device observability rows (a single row for a solo device),
    /// surfaced through `STATS` as `shard.<k>.*`.
    fn shard_rows(&self) -> Vec<ShardRow>;
}

impl<S> ServiceBackend for MithriLog<S>
where
    S: PageStore + Send + 'static,
{
    fn config(&self) -> &SystemConfig {
        MithriLog::config(self)
    }

    fn query_shared(&mut self, requests: &[QueryRequest]) -> Result<SharedBatchOutcome, String> {
        MithriLog::query_shared(self, requests).map_err(|e| e.to_string())
    }

    fn apply_prepared(
        &mut self,
        _tenant: Option<&str>,
        prep: &PreparedIngest<'_>,
    ) -> Result<IngestReport, String> {
        self.apply_ingest(prep).map_err(|e| e.to_string())
    }

    fn explain(&mut self, request: &QueryRequest) -> Result<PlanExplain, String> {
        MithriLog::explain(self, request).map_err(|e| e.to_string())
    }

    fn scrub(&mut self) -> ScrubReport {
        MithriLog::scrub(self)
    }

    fn scrub_slice(&mut self, cursor: u64, max_pages: u64) -> ScrubSlice {
        MithriLog::scrub_slice(self, cursor, max_pages)
    }

    fn apply_retention(&mut self, keep: u64) -> Result<RetentionReport, String> {
        MithriLog::apply_retention(self, keep).map_err(|e| e.to_string())
    }

    fn sealed_segment_count(&self) -> u64 {
        MithriLog::sealed_segment_count(self)
    }

    fn shard_rows(&self) -> Vec<ShardRow> {
        let ledger = self.device().ledger();
        vec![ShardRow {
            shard: 0,
            lines: self.lines(),
            data_pages: self.data_page_count(),
            raw_bytes: self.raw_bytes(),
            sealed_segments: MithriLog::sealed_segment_count(self),
            pages_read: ledger.pages_read,
            bytes_read: ledger.bytes_read,
            retries: ledger.retries,
            modeled_gbps: self.modeled_throughput().total_gbps,
        }]
    }
}

impl<S> ServiceBackend for ShardedLog<S>
where
    S: PageStore + Send + 'static,
{
    fn config(&self) -> &SystemConfig {
        ShardedLog::config(self)
    }

    fn query_shared(&mut self, requests: &[QueryRequest]) -> Result<SharedBatchOutcome, String> {
        ShardedLog::query_shared(self, requests).map_err(|e| e.to_string())
    }

    fn apply_prepared(
        &mut self,
        tenant: Option<&str>,
        prep: &PreparedIngest<'_>,
    ) -> Result<IngestReport, String> {
        ShardedLog::apply_prepared(self, tenant, prep).map_err(|e| e.to_string())
    }

    fn explain(&mut self, request: &QueryRequest) -> Result<PlanExplain, String> {
        ShardedLog::explain(self, request).map_err(|e| e.to_string())
    }

    fn scrub(&mut self) -> ScrubReport {
        ShardedLog::scrub(self)
    }

    fn scrub_slice(&mut self, cursor: u64, max_pages: u64) -> ScrubSlice {
        ShardedLog::scrub_slice(self, cursor, max_pages)
    }

    fn apply_retention(&mut self, keep: u64) -> Result<RetentionReport, String> {
        ShardedLog::apply_retention(self, keep).map_err(|e| e.to_string())
    }

    fn sealed_segment_count(&self) -> u64 {
        ShardedLog::sealed_segment_count(self)
    }

    fn shard_rows(&self) -> Vec<ShardRow> {
        ShardedLog::shard_rows(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithrilog_shard::{RouteMode, ShardOptions};

    const LOG: &str = "\
RAS KERNEL INFO instruction cache parity error corrected\n\
RAS KERNEL FATAL data storage interrupt\n\
RAS APP FATAL ciod: Error loading /g/g24/user/program\n";

    /// Both backends answer the same trait calls with the same logical
    /// results for the same lines.
    #[test]
    fn solo_and_sharded_backends_agree_through_the_trait() {
        let corpus: String = (0..64).map(|i| format!("node-{i:04} {LOG}")).collect();
        let mut solo = MithriLog::new(SystemConfig::for_tests());
        solo.ingest(corpus.as_bytes()).unwrap();
        let mut sharded = ShardedLog::new(
            SystemConfig::for_tests(),
            ShardOptions {
                shards: 2,
                mode: RouteMode::LineHash,
                salt: 0x5eed,
            },
        );
        sharded.ingest(corpus.as_bytes()).unwrap();

        fn lines_via_trait<B: ServiceBackend>(backend: &mut B, query: &str) -> Vec<String> {
            let request = QueryRequest::parse(query).unwrap();
            let mut batch = backend
                .query_shared(std::slice::from_ref(&request))
                .unwrap();
            batch.outcomes.remove(0).lines
        }
        let solo_lines = lines_via_trait(&mut solo, "FATAL AND NOT ciod:");
        let sharded_lines = lines_via_trait(&mut sharded, "FATAL AND NOT ciod:");
        assert_eq!(solo_lines, sharded_lines);
        assert_eq!(
            ServiceBackend::shard_rows(&solo).len(),
            1,
            "a solo device reports one row"
        );
        let rows = ServiceBackend::shard_rows(&sharded);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows.iter().map(|r| r.lines).sum::<u64>(),
            solo.lines(),
            "sharded rows conserve line totals"
        );
    }
}
