use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use std::borrow::Cow;

use mithrilog::{
    CancelToken, IngestReport, PlanExplain, PreparedIngest, QueryOutcome, QueryRequest,
    RetentionReport, ScanAttribution, SharedScanReport, SystemConfig,
};
use mithrilog_shard::{ShardError, ShardRow, ShardedLog};
use mithrilog_storage::{PageStore, ScrubReport};

/// Identifier of a submitted job, unique for the lifetime of the service.
pub type JobId = u64;

/// Scheduling class of a submitted query. Within a class, jobs run in
/// strict submission (FIFO) order; across classes, every queued
/// higher-priority job runs before any lower-priority one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Interactive queries: dashboards, incident triage.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Batch/background queries that should never starve the others.
    Low,
}

impl Priority {
    /// All classes, highest first — the scheduler's drain order.
    pub const CLASSES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Queue index of this class.
    fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Parses the protocol spelling (`high` / `normal` / `low`).
    pub fn parse(text: &str) -> Option<Priority> {
        match text {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }

    /// The protocol spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded submission queue is full. Overload is surfaced here, at
    /// admission, instead of as unbounded queueing delay.
    Rejected {
        /// `true` when the rejection was due to the queue being at
        /// capacity (currently the only cause, kept explicit so callers
        /// can distinguish future admission policies).
        queue_full: bool,
        /// Jobs queued at the time of rejection.
        queue_len: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The query text did not parse.
    Parse(String),
    /// The service has been shut down.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected {
                queue_len,
                capacity,
                ..
            } => write!(f, "queue full ({queue_len}/{capacity} jobs queued)"),
            SubmitError::Parse(reason) => write!(f, "parse error: {reason}"),
            SubmitError::Closed => write!(f, "service is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why [`ServiceHandle::wait_timeout`] returned without an output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitError {
    /// The job had not settled when the timeout expired — it is still
    /// queued or running; poll or wait again.
    TimedOut,
    /// The job failed with this reason.
    Failed(String),
    /// The job was cancelled.
    Cancelled,
    /// The id was never issued.
    Unknown,
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitError::TimedOut => write!(f, "timed out waiting for the job"),
            WaitError::Failed(reason) => write!(f, "job failed: {reason}"),
            WaitError::Cancelled => write!(f, "job was cancelled"),
            WaitError::Unknown => write!(f, "unknown job"),
        }
    }
}

impl std::error::Error for WaitError {}

/// Result payload of a finished job.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// A query completed.
    Query {
        /// The outcome, byte-identical to a solo run of the same request.
        outcome: Box<QueryOutcome>,
        /// This query's share-count cost attribution within its wave.
        attribution: ScanAttribution,
    },
    /// A plan-only explain completed: how the request *would* execute —
    /// index decision, per-segment pruning, deadline clips — without a
    /// single data page scanned.
    Explain(Box<PlanExplain>),
    /// An ingest batch completed.
    Ingest(IngestReport),
    /// A full-device scrub pass completed. Pages that failed verification
    /// are now quarantined: queries skip them deterministically (reported
    /// as degraded reads) without re-paying read retries.
    Scrub(ScrubReport),
}

/// Observable state of a submitted job.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Admitted, waiting in its priority queue.
    Pending,
    /// Currently executing in a wave.
    Running,
    /// Finished successfully.
    Done(JobOutput),
    /// Failed with a non-survivable error.
    Failed(String),
    /// Cancelled — either while still queued, or mid-scan via the job's
    /// cancellation token (the scan stopped within one page per worker).
    Cancelled,
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bound on jobs queued awaiting execution (admission control).
    /// Submissions beyond this are rejected with
    /// [`SubmitError::Rejected`].
    pub max_queue: usize,
    /// Concurrency limit: at most this many queries execute together in
    /// one shared-scan wave.
    pub max_batch: usize,
    /// Page (deadline) budget applied to queries that do not carry their
    /// own: at most this many planned pages are scanned before the query
    /// returns partial results via the degraded-read path. `None` = no
    /// default budget.
    pub default_page_budget: Option<u64>,
    /// Modeled-time deadline applied to queries that do not carry their
    /// own (see [`QueryRequest::deadline`]): the plan is clipped to what
    /// the deadline affords and the remainder is reported in
    /// `DegradedRead::deadline_clipped`. `None` = no default deadline.
    pub default_deadline: Option<Duration>,
    /// Online scrub: when the scheduler is otherwise idle, verify this many
    /// pages per slice, quarantining any that fail, until a full pass over
    /// the device completes (re-armed by every ingest). `0` disables the
    /// scrub lane (the default). Foreground work always preempts the next
    /// slice.
    pub scrub_batch: u64,
    /// Retention target: after every successful ingest, drop the oldest
    /// sealed segments until at most this many remain (crash-consistent;
    /// see [`mithrilog::MithriLog::apply_retention`]). `None` disables
    /// retention.
    pub retain_segments: Option<u64>,
    /// Per-tenant admission cap: at most this many jobs from one tenant
    /// may be queued at once. Submissions beyond it are rejected with
    /// [`SubmitError::Rejected`] (`queue_full: false`), so one tenant
    /// saturating its own allowance cannot consume the whole shared queue
    /// and starve everyone else's admission. Untagged jobs are exempt.
    /// `None` disables the cap.
    pub tenant_max_queued: Option<usize>,
    /// Page budget applied to tenant-tagged queries that do not carry
    /// their own, *before* [`ServiceConfig::default_page_budget`]: a
    /// per-tenant scan allowance whose overruns surface as honest
    /// degraded reads. `None` falls through to the default budget.
    pub tenant_page_budget: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_queue: 64,
            max_batch: 16,
            default_page_budget: None,
            default_deadline: None,
            scrub_batch: 0,
            retain_segments: None,
            tenant_max_queued: None,
            tenant_page_budget: None,
        }
    }
}

/// Service counters, cumulative since spawn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs that failed with a hard error.
    pub failed: u64,
    /// Jobs cancelled before running.
    pub cancelled: u64,
    /// Jobs currently queued.
    pub queued: u64,
    /// Shared-scan waves executed.
    pub waves: u64,
    /// Page reads the waves' queries demanded (sum of per-query plans).
    pub demanded_page_reads: u64,
    /// Distinct page reads the waves actually issued.
    pub unique_pages_read: u64,
    /// Duplicate reads avoided by cross-query page sharing.
    pub shared_reads_avoided: u64,
    /// Union pages served from the cross-wave decompressed-page cache.
    pub cache_hits: u64,
    /// Raw page bytes those cache hits kept off the device.
    pub cache_bytes_saved: u64,
    /// Waves that panicked mid-execution. The panic is contained to the
    /// wave: its jobs fail with an internal error and the scheduler keeps
    /// serving every other job.
    pub waves_poisoned: u64,
    /// Online scrub slices executed between waves.
    pub scrub_slices: u64,
    /// Pages verified by scrubs (online slices and full passes).
    pub pages_scrubbed: u64,
    /// Pages scrubs newly quarantined.
    pub pages_quarantined: u64,
    /// Pages the wave planner pruned via the index plan alone (see
    /// [`SharedScanReport::pages_pruned_by_index`]).
    pub pages_pruned_by_index: u64,
    /// Pages pruned via the per-segment token bitmaps alone.
    pub pages_pruned_by_bitmap: u64,
    /// Pages both the index and the bitmaps would have pruned.
    pub pages_pruned_by_both: u64,
    /// Index node visits the batched probe saved versus each query probing
    /// alone (demanded minus physical walks).
    pub probe_node_visits_saved: u64,
    /// Segment bitmap sidecars dropped by scrubs because they failed
    /// verification; planning fell back to conservative page sets.
    pub bitmaps_dropped: u64,
    /// Ingests applied since spawn. Every ingest's frames are built on its
    /// submitting thread, beside whatever the scheduler is running, so
    /// every applied ingest counts; the name is kept for compatibility
    /// with existing `STATS` readers.
    pub ingests_overlapped: u64,
    /// Segments sealed by ingests since spawn.
    pub segments_sealed: u64,
    /// Sealed segments dropped by retention since spawn.
    pub segments_dropped: u64,
}

/// Per-tenant counters, cumulative since spawn. Only jobs submitted with a
/// tenant tag are counted; untagged jobs appear solely in [`ServiceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Jobs admitted for this tenant.
    pub submitted: u64,
    /// Submissions rejected — by the shared queue bound or by the
    /// per-tenant cap ([`ServiceConfig::tenant_max_queued`]).
    pub rejected: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs that failed with a hard error.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs currently queued.
    pub queued: u64,
    /// Data pages this tenant's completed queries scanned (as-if-solo).
    pub pages_scanned: u64,
    /// Matched lines returned to this tenant.
    pub lines_returned: u64,
}

enum JobKind {
    Query(Box<QueryRequest>, Priority, Option<String>),
    /// Plan-only: the request is planned (index probe, bitmap pruning,
    /// clips) but no data page is scanned.
    Explain(Box<QueryRequest>, Priority),
    /// Page frames the submitter already built; the scheduler only
    /// applies them.
    Ingest(Box<PreparedIngest<'static>>, Option<String>),
    /// A full-device scrub pass; runs alone, like an ingest.
    Scrub,
}

struct Job {
    kind: Option<JobKind>,
    status: JobStatus,
    /// Shared with the request handed to the datapath (query jobs), so a
    /// running job can be cancelled mid-scan.
    cancel: CancelToken,
    /// The tenant tag the job was submitted under, kept past the claim so
    /// settling can account it.
    tenant: Option<String>,
}

#[derive(Default)]
struct State {
    /// One FIFO lane per priority class, holding job ids.
    lanes: [VecDeque<JobId>; 3],
    jobs: HashMap<JobId, Job>,
    next_id: JobId,
    queued: usize,
    closed: bool,
    stats: ServiceStats,
    /// Per-tenant counters for tagged jobs, keyed by tenant name.
    tenants: BTreeMap<String, TenantStats>,
    /// Last published per-device observability rows (one row for a
    /// one-shard log), refreshed by the scheduler after every wave.
    shard_rows: Vec<ShardRow>,
}

impl State {
    fn tenant_mut(&mut self, tenant: &str) -> &mut TenantStats {
        self.tenants.entry(tenant.to_string()).or_default()
    }
}

/// The terminal result of job `id`, or `None` while it is still queued or
/// running.
fn settled(state: &State, id: JobId) -> Option<Result<JobOutput, WaitError>> {
    match state.jobs.get(&id).map(|job| &job.status) {
        None => Some(Err(WaitError::Unknown)),
        Some(JobStatus::Done(out)) => Some(Ok(out.clone())),
        Some(JobStatus::Failed(reason)) => Some(Err(WaitError::Failed(reason.clone()))),
        Some(JobStatus::Cancelled) => Some(Err(WaitError::Cancelled)),
        Some(JobStatus::Pending | JobStatus::Running) => None,
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signalled on every submission, completion, cancellation and close.
    changed: Condvar,
    config: ServiceConfig,
    /// The log's system configuration, cloned at spawn, so submitters
    /// build ingest frames exactly as the log would.
    system: SystemConfig,
}

/// Cloneable handle for submitting and tracking jobs. All methods are safe
/// to call from any thread; the handle outliving the [`Service`] is fine —
/// submissions after shutdown return [`SubmitError::Closed`].
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

/// The running service: a scheduler thread that owns a [`ShardedLog`]
/// topology and executes admitted jobs in shared-scan waves.
pub struct Service {
    handle: ServiceHandle,
    scheduler: Option<JoinHandle<()>>,
}

impl ServiceHandle {
    /// Submits a query request. Returns the job id on admission.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Rejected`] when the bounded queue is full,
    /// [`SubmitError::Closed`] after shutdown.
    pub fn submit(&self, request: QueryRequest, priority: Priority) -> Result<JobId, SubmitError> {
        self.submit_tagged(request, priority, None)
    }

    /// Submits a query under a tenant tag. Tagged queries inherit the
    /// per-tenant page budget ([`ServiceConfig::tenant_page_budget`])
    /// before the default, count against the tenant's admission cap
    /// ([`ServiceConfig::tenant_max_queued`]), and are scheduled fairly
    /// against other tenants in the same priority lane.
    ///
    /// # Errors
    ///
    /// Every [`ServiceHandle::submit`] condition, plus
    /// [`SubmitError::Rejected`] with `queue_full: false` when the
    /// tenant's own allowance is exhausted.
    pub fn submit_tagged(
        &self,
        mut request: QueryRequest,
        priority: Priority,
        tenant: Option<&str>,
    ) -> Result<JobId, SubmitError> {
        if request.page_budget.is_none() {
            request.page_budget = tenant
                .and(self.shared.config.tenant_page_budget)
                .or(self.shared.config.default_page_budget);
        }
        if request.deadline.is_none() {
            request.deadline = self.shared.config.default_deadline;
        }
        // Every query job carries a cancellation token shared with the
        // request the datapath scans with, so [`ServiceHandle::cancel`]
        // reaches even a job already running in a wave. A token the caller
        // attached is kept (and shared), not replaced.
        let cancel = request.cancel.get_or_insert_with(CancelToken::new).clone();
        self.admit(
            JobKind::Query(Box::new(request), priority, tenant.map(str::to_string)),
            cancel,
        )
    }

    /// Parses and submits a query.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Parse`] on bad query text, plus every
    /// [`ServiceHandle::submit`] condition.
    pub fn submit_str(&self, query: &str, priority: Priority) -> Result<JobId, SubmitError> {
        self.submit_str_tagged(query, priority, None)
    }

    /// Parses and submits a query under a tenant tag (see
    /// [`ServiceHandle::submit_tagged`]).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Parse`] on bad query text, plus every
    /// [`ServiceHandle::submit_tagged`] condition.
    pub fn submit_str_tagged(
        &self,
        query: &str,
        priority: Priority,
        tenant: Option<&str>,
    ) -> Result<JobId, SubmitError> {
        let request = QueryRequest::parse(query).map_err(|e| SubmitError::Parse(e.to_string()))?;
        self.submit_tagged(request, priority, tenant)
    }

    /// Submits a plan-only explain of a query request: the request is
    /// planned exactly as a real run would be — index decision, batched
    /// probe, bitmap pruning, window and deadline clips — but no data page
    /// is scanned. Settles as [`JobOutput::Explain`].
    ///
    /// # Errors
    ///
    /// Same admission conditions as [`ServiceHandle::submit`].
    pub fn submit_explain(
        &self,
        mut request: QueryRequest,
        priority: Priority,
    ) -> Result<JobId, SubmitError> {
        if request.page_budget.is_none() {
            request.page_budget = self.shared.config.default_page_budget;
        }
        if request.deadline.is_none() {
            request.deadline = self.shared.config.default_deadline;
        }
        self.admit(
            JobKind::Explain(Box::new(request), priority),
            CancelToken::new(),
        )
    }

    /// Parses and submits a plan-only explain.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Parse`] on bad query text, plus every
    /// [`ServiceHandle::submit_explain`] condition.
    pub fn submit_explain_str(
        &self,
        query: &str,
        priority: Priority,
    ) -> Result<JobId, SubmitError> {
        let request = QueryRequest::parse(query).map_err(|e| SubmitError::Parse(e.to_string()))?;
        self.submit_explain(request, priority)
    }

    /// Submits an ingest batch (admitted through the same bounded queue at
    /// [`Priority::Normal`]). The calling thread first builds the batch's
    /// page frames ([`PreparedIngest::build`]: compression and page
    /// analysis) with no service lock held, so the build runs beside
    /// whatever the scheduler is doing. The scheduler only applies the
    /// finished frames, alone and between waves: queries admitted before
    /// the ingest observe the pre-ingest snapshot, queries admitted after
    /// it the post-ingest one, and none observes a half-applied ingest.
    ///
    /// A build that panics unwinds the calling thread before admission:
    /// the scheduler is never reached and no service lock is held, so
    /// nothing needs catching. A rejected submission has still paid for
    /// its build.
    ///
    /// # Errors
    ///
    /// Same admission conditions as [`ServiceHandle::submit`].
    pub fn ingest(&self, text: Vec<u8>) -> Result<JobId, SubmitError> {
        self.ingest_tagged(text, None)
    }

    /// Submits an ingest batch under a tenant tag. On a topology running
    /// in tenant routing mode the tag pins the whole batch to the
    /// tenant's home shard; the tag also counts against the tenant's
    /// admission cap.
    ///
    /// # Errors
    ///
    /// Same admission conditions as [`ServiceHandle::submit_tagged`].
    pub fn ingest_tagged(&self, text: Vec<u8>, tenant: Option<&str>) -> Result<JobId, SubmitError> {
        let prep = PreparedIngest::build(&self.shared.system, Cow::Owned(text));
        self.admit(
            JobKind::Ingest(Box::new(prep), tenant.map(str::to_string)),
            CancelToken::new(),
        )
    }

    /// Submits a full-device scrub pass (admitted through the same bounded
    /// queue; runs alone, like an ingest). Pages that fail verification are
    /// quarantined — subsequent queries skip them deterministically as
    /// degraded reads instead of re-paying read retries — until they are
    /// rewritten.
    ///
    /// # Errors
    ///
    /// Same admission conditions as [`ServiceHandle::submit`].
    pub fn submit_scrub(&self) -> Result<JobId, SubmitError> {
        self.admit(JobKind::Scrub, CancelToken::new())
    }

    fn admit(&self, kind: JobKind, cancel: CancelToken) -> Result<JobId, SubmitError> {
        let tenant = match &kind {
            JobKind::Query(_, _, tenant) | JobKind::Ingest(_, tenant) => tenant.clone(),
            JobKind::Explain(..) | JobKind::Scrub => None,
        };
        let mut state = self.shared.state.lock().expect("service state poisoned");
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.queued >= self.shared.config.max_queue {
            state.stats.rejected += 1;
            if let Some(tenant) = &tenant {
                state.tenant_mut(tenant).rejected += 1;
            }
            return Err(SubmitError::Rejected {
                queue_full: true,
                queue_len: state.queued,
                capacity: self.shared.config.max_queue,
            });
        }
        // The per-tenant cap bounds how much of the shared queue one tenant
        // can occupy: a saturating tenant exhausts its own allowance and is
        // turned away while everyone else still gets admitted.
        if let (Some(tenant), Some(cap)) = (&tenant, self.shared.config.tenant_max_queued) {
            let queued = state.tenant_mut(tenant).queued as usize;
            if queued >= cap {
                state.stats.rejected += 1;
                state.tenant_mut(tenant).rejected += 1;
                return Err(SubmitError::Rejected {
                    queue_full: false,
                    queue_len: queued,
                    capacity: cap,
                });
            }
        }
        let id = state.next_id;
        state.next_id += 1;
        let lane = match &kind {
            JobKind::Query(_, priority, _) | JobKind::Explain(_, priority) => priority.lane(),
            JobKind::Ingest(..) | JobKind::Scrub => Priority::Normal.lane(),
        };
        state.jobs.insert(
            id,
            Job {
                kind: Some(kind),
                status: JobStatus::Pending,
                cancel,
                tenant: tenant.clone(),
            },
        );
        state.lanes[lane].push_back(id);
        state.queued += 1;
        state.stats.submitted += 1;
        state.stats.queued = state.queued as u64;
        if let Some(tenant) = &tenant {
            let stats = state.tenant_mut(tenant);
            stats.submitted += 1;
            stats.queued += 1;
        }
        self.shared.changed.notify_all();
        Ok(id)
    }

    /// Current status of a job, or `None` for an unknown id.
    pub fn poll(&self, id: JobId) -> Option<JobStatus> {
        let state = self.shared.state.lock().expect("service state poisoned");
        state.jobs.get(&id).map(|j| j.status.clone())
    }

    /// Blocks until the job leaves the queue/run states, returning its
    /// output.
    ///
    /// # Errors
    ///
    /// The failure message for failed jobs, `"cancelled"` for cancelled
    /// jobs, `"unknown job"` for an id never issued.
    pub fn wait(&self, id: JobId) -> Result<JobOutput, String> {
        let mut state = self.shared.state.lock().expect("service state poisoned");
        loop {
            match settled(&state, id) {
                Some(Ok(out)) => return Ok(out),
                Some(Err(WaitError::Failed(reason))) => return Err(reason),
                Some(Err(WaitError::Cancelled)) => return Err("cancelled".into()),
                Some(Err(other)) => return Err(other.to_string()),
                None => {}
            }
            state = self
                .shared
                .changed
                .wait(state)
                .expect("service state poisoned");
        }
    }

    /// Like [`ServiceHandle::wait`], but gives up after `timeout` with
    /// [`WaitError::TimedOut`] (the would-block flavor of waiting) instead
    /// of blocking a caller forever behind a long wave.
    ///
    /// # Errors
    ///
    /// [`WaitError::TimedOut`] when the job has not settled within
    /// `timeout`; otherwise the same terminal states as
    /// [`ServiceHandle::wait`], as typed [`WaitError`] variants.
    pub fn wait_timeout(&self, id: JobId, timeout: Duration) -> Result<JobOutput, WaitError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("service state poisoned");
        loop {
            // Checked once more after the deadline passes: the change may
            // have landed exactly at it.
            if let Some(result) = settled(&state, id) {
                return result;
            }
            let Some(remaining) = deadline
                .checked_duration_since(Instant::now())
                .filter(|r| !r.is_zero())
            else {
                return Err(WaitError::TimedOut);
            };
            state = self
                .shared
                .changed
                .wait_timeout(state, remaining)
                .expect("service state poisoned")
                .0;
        }
    }

    /// Cancels a pending or running job. A queued job is removed
    /// immediately; a running query's cancellation token is tripped, so its
    /// scan stops within one page per worker — the pages it already scanned
    /// are charged as usual, and the job settles as
    /// [`JobStatus::Cancelled`] when its wave ends. Returns `true` when
    /// cancellation took effect, `false` for a job that already settled (or
    /// an unknown id).
    pub fn cancel(&self, id: JobId) -> bool {
        let mut state = self.shared.state.lock().expect("service state poisoned");
        let Some(job) = state.jobs.get_mut(&id) else {
            return false;
        };
        match job.status {
            JobStatus::Pending => {
                job.status = JobStatus::Cancelled;
                job.kind = None;
                let tenant = job.tenant.clone();
                state.queued -= 1;
                state.stats.cancelled += 1;
                state.stats.queued = state.queued as u64;
                if let Some(tenant) = &tenant {
                    let stats = state.tenant_mut(tenant);
                    stats.cancelled += 1;
                    stats.queued = stats.queued.saturating_sub(1);
                }
                self.shared.changed.notify_all();
                true
            }
            JobStatus::Running => {
                // Cooperative: the wave observes the token at the next page
                // boundary; wave completion marks the job cancelled.
                job.cancel.cancel();
                true
            }
            _ => false,
        }
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let state = self.shared.state.lock().expect("service state poisoned");
        state.stats
    }

    /// A snapshot of the per-tenant counters, keyed by tenant name. Only
    /// tenant-tagged jobs are counted.
    pub fn tenant_stats(&self) -> BTreeMap<String, TenantStats> {
        let state = self.shared.state.lock().expect("service state poisoned");
        state.tenants.clone()
    }

    /// A snapshot of the per-device observability rows the scheduler last
    /// published: what each shard holds and what it has been charged. A
    /// one-shard log reports one row.
    pub fn shard_stats(&self) -> Vec<ShardRow> {
        let state = self.shared.state.lock().expect("service state poisoned");
        state.shard_rows.clone()
    }

    /// Whether the service has been shut down.
    pub fn is_closed(&self) -> bool {
        let state = self.shared.state.lock().expect("service state poisoned");
        state.closed
    }
}

impl Service {
    /// Starts the service: spawns the scheduler thread, which takes
    /// ownership of `log` and executes admitted jobs in shared-scan waves
    /// until [`Service::shutdown`]. `log` is a [`ShardedLog`] topology, or
    /// a bare [`mithrilog::MithriLog`] device adopted as a one-shard
    /// topology (see [`ShardedLog`]'s `From` impl): outcomes name pages by
    /// global frame ordinal either way.
    pub fn spawn<S>(log: impl Into<ShardedLog<S>>, config: ServiceConfig) -> Service
    where
        S: PageStore + 'static,
    {
        assert!(config.max_queue > 0, "max_queue must be at least 1");
        assert!(config.max_batch > 0, "max_batch must be at least 1");
        let log = log.into();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                shard_rows: log.shard_rows(),
                ..State::default()
            }),
            changed: Condvar::new(),
            config,
            system: log.config().clone(),
        });
        let scheduler_shared = Arc::clone(&shared);
        let scheduler = std::thread::Builder::new()
            .name("mithrilog-scheduler".into())
            .spawn(move || scheduler_loop(log, &scheduler_shared))
            .expect("failed to spawn the scheduler thread");
        Service {
            handle: ServiceHandle { shared },
            scheduler: Some(scheduler),
        }
    }

    /// A cloneable handle for submitting and tracking jobs.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Stops accepting submissions, drains nothing further (queued jobs
    /// are failed with `"service is shut down"`), and joins the scheduler
    /// thread.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut state = self.handle.shared.state.lock().expect("state poisoned");
            state.closed = true;
            self.handle.shared.changed.notify_all();
        }
        if let Some(thread) = self.scheduler.take() {
            // Wave panics are caught inside the loop, so the scheduler only
            // dies on a defect in the loop itself; shutdown still completes
            // (pending jobs were already failed or will simply never run).
            let _ = thread.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// One unit of work claimed from the queues while holding the lock.
enum Wave {
    /// A batch of queries scanned together.
    Queries(Vec<(JobId, QueryRequest)>),
    /// Built frames to apply alone, with the tenant tag that routes them
    /// to shards.
    Ingest(JobId, Box<PreparedIngest<'static>>, Option<String>),
    /// A plan-only explain; runs alone, so its (real, charged) index probe
    /// lands between waves deterministically.
    Explain(JobId, Box<QueryRequest>),
    /// A client-requested full-device scrub pass; runs alone.
    Scrub(JobId),
    /// Nothing runnable; the caller should wait for a change.
    Idle,
    Shutdown,
}

/// Selects up to `budget` query jobs from the contiguous run of queries at
/// the front of `lane`, round-robin over tenants: each sweep takes at most
/// one job per tenant (untagged jobs pass through in submission order), so
/// a tenant that filled the lane first cannot starve another tenant's
/// already-admitted queries — they interleave into the same wave. With no
/// tenant tags every sweep takes everything, which is exactly the old
/// strict-FIFO claim. Selected ids are removed from the lane; the jobs
/// left behind keep their relative order.
fn claim_fair_queries(state: &mut State, lane: usize, budget: usize) -> Vec<JobId> {
    let mut window: Vec<(JobId, Option<String>)> = Vec::new();
    for &id in &state.lanes[lane] {
        match state.jobs.get(&id).and_then(|j| j.kind.as_ref()) {
            // Cancelled in place: invisible here, dropped from the lane
            // when it reaches the front.
            None => continue,
            Some(JobKind::Query(_, _, tenant)) => window.push((id, tenant.clone())),
            // The window ends at the first barrier job (ingest, explain,
            // scrub): whatever sits behind it must observe its effects.
            Some(_) => break,
        }
    }
    let mut chosen: Vec<JobId> = Vec::with_capacity(window.len().min(budget));
    let mut taken = vec![false; window.len()];
    while chosen.len() < budget {
        let before = chosen.len();
        let mut served: Vec<&str> = Vec::new();
        for (slot, (id, tenant)) in window.iter().enumerate() {
            if taken[slot] {
                continue;
            }
            if let Some(tenant) = tenant.as_deref() {
                if served.contains(&tenant) {
                    continue;
                }
                served.push(tenant);
            }
            taken[slot] = true;
            chosen.push(*id);
            if chosen.len() == budget {
                break;
            }
        }
        if chosen.len() == before {
            break;
        }
    }
    for id in &chosen {
        let pos = state.lanes[lane]
            .iter()
            .position(|queued| queued == id)
            .expect("chosen id came from this lane");
        state.lanes[lane].remove(pos);
    }
    chosen
}

/// Claims the next wave in (priority, FIFO) order: the head of the highest
/// non-empty lane decides. Queries accumulate up to `max_batch` across
/// lanes (a half-filled wave never waits for stragglers — determinism
/// requires batching only what is already admitted), interleaved fairly
/// across tenants within each lane ([`claim_fair_queries`]). A barrier job
/// (ingest, explain, scrub) ends a non-empty wave, so whatever was
/// admitted after it observes its effects; at the front of an empty wave
/// it runs alone.
fn claim_wave(state: &mut State, max_batch: usize) -> Wave {
    if state.closed {
        return Wave::Shutdown;
    }
    let mut wave: Vec<(JobId, QueryRequest)> = Vec::new();
    'lanes: for class in Priority::CLASSES {
        let lane = class.lane();
        loop {
            // Cancelled jobs were emptied in place; drop them from the lane.
            while let Some(&id) = state.lanes[lane].front() {
                if state.jobs.get(&id).and_then(|j| j.kind.as_ref()).is_some() {
                    break;
                }
                state.lanes[lane].pop_front();
            }
            let Some(&id) = state.lanes[lane].front() else {
                break;
            };
            let kind = state
                .jobs
                .get(&id)
                .and_then(|j| j.kind.as_ref())
                .expect("front job is live");
            match kind {
                JobKind::Query(..) => {
                    if wave.len() == max_batch {
                        break 'lanes;
                    }
                    for id in claim_fair_queries(state, lane, max_batch - wave.len()) {
                        let job = state.jobs.get_mut(&id).expect("claimed job exists");
                        job.status = JobStatus::Running;
                        let Some(JobKind::Query(request, _, tenant)) = job.kind.take() else {
                            unreachable!("the fair claim only picks queries");
                        };
                        state.queued -= 1;
                        if let Some(tenant) = &tenant {
                            let stats = state.tenant_mut(tenant);
                            stats.queued = stats.queued.saturating_sub(1);
                        }
                        wave.push((id, *request));
                    }
                    // Loop: the lane front is now the barrier that ended
                    // the window (or leftover queries once the wave is
                    // full, caught by the max_batch check above).
                }
                JobKind::Ingest(..) | JobKind::Explain(..) | JobKind::Scrub => {
                    if !wave.is_empty() {
                        break 'lanes;
                    }
                    state.lanes[lane].pop_front();
                    let job = state.jobs.get_mut(&id).expect("claimed job exists");
                    job.status = JobStatus::Running;
                    let kind = job.kind.take().expect("front job is live");
                    let tenant = job.tenant.clone();
                    state.queued -= 1;
                    state.stats.queued = state.queued as u64;
                    if let Some(tenant) = &tenant {
                        let stats = state.tenant_mut(tenant);
                        stats.queued = stats.queued.saturating_sub(1);
                    }
                    return match kind {
                        JobKind::Ingest(prep, tenant) => Wave::Ingest(id, prep, tenant),
                        JobKind::Explain(request, _) => Wave::Explain(id, request),
                        JobKind::Scrub => Wave::Scrub(id),
                        JobKind::Query(..) => unreachable!("kind checked above"),
                    };
                }
            }
        }
    }
    if wave.is_empty() {
        return Wave::Idle;
    }
    state.stats.queued = state.queued as u64;
    Wave::Queries(wave)
}

/// What applying an ingest produced: the report, the number of segments
/// it sealed, and the retention pass that followed it (if one is
/// configured) — or the error / caught panic that stopped it.
type IngestOutcome = Result<
    Result<(IngestReport, u64, Option<RetentionReport>), ShardError>,
    Box<dyn std::any::Any + Send>,
>;

/// Applies built ingest frames under panic isolation, then the configured
/// retention pass. Retention failure fails the job: the ingested data is
/// durable, but the store could not honor its retention contract and the
/// client must hear about it.
fn run_ingest<S: PageStore>(
    log: &mut ShardedLog<S>,
    retain: Option<u64>,
    tenant: Option<&str>,
    prep: &PreparedIngest<'_>,
) -> IngestOutcome {
    catch_unwind(AssertUnwindSafe(|| {
        let sealed_before = log.sealed_segment_count();
        let report = log.apply_prepared(tenant, prep)?;
        let sealed = log.sealed_segment_count() - sealed_before;
        let retention = match retain {
            Some(keep) => Some(log.apply_retention(keep)?),
            None => None,
        };
        Ok((report, sealed, retention))
    }))
}

/// Settles an ingest job from its outcome, folding segment counters into
/// the stats and re-arming the online scrub pass when the device changed.
fn settle_ingest(shared: &Shared, id: JobId, outcome: IngestOutcome, scrub_done: &mut bool) {
    let mut state = shared.state.lock().expect("service state poisoned");
    match outcome {
        Ok(Ok((report, sealed, retention))) => {
            let job = state.jobs.get_mut(&id).expect("running job exists");
            job.status = JobStatus::Done(JobOutput::Ingest(report));
            let tenant = job.tenant.clone();
            state.stats.completed += 1;
            if let Some(tenant) = &tenant {
                state.tenant_mut(tenant).completed += 1;
            }
            state.stats.segments_sealed += sealed;
            state.stats.ingests_overlapped += 1;
            if let Some(retention) = retention {
                state.stats.segments_dropped += retention.segments_dropped;
            }
            // New pages to verify (and rewritten pages left quarantine):
            // re-arm the online scrub pass.
            *scrub_done = false;
        }
        Ok(Err(e)) => {
            fail_job(&mut state, id, e.to_string());
            *scrub_done = false;
        }
        Err(payload) => {
            state.stats.waves_poisoned += 1;
            fail_job(&mut state, id, internal_error(&*payload));
        }
    }
    shared.changed.notify_all();
}

/// Settles job `id` as failed with `reason`, dropping its payload. Every
/// failure settles here, so the service's and the tenant's `failed`
/// counters always move together.
fn fail_job(state: &mut State, id: JobId, reason: String) {
    let job = state.jobs.get_mut(&id).expect("failed job exists");
    job.status = JobStatus::Failed(reason);
    job.kind = None;
    let tenant = job.tenant.clone();
    state.stats.failed += 1;
    if let Some(tenant) = &tenant {
        state.tenant_mut(tenant).failed += 1;
    }
}

/// Renders a caught panic payload as a job failure message.
fn internal_error(payload: &(dyn std::any::Any + Send)) -> String {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "panic of unknown type"
    };
    format!("internal error: {message}")
}

/// Publishes the log's current per-device rows for
/// [`ServiceHandle::shard_stats`] and the `STATS` verb.
fn publish_shard_rows<S: PageStore>(log: &ShardedLog<S>, shared: &Shared) {
    let rows = log.shard_rows();
    let mut state = shared.state.lock().expect("service state poisoned");
    state.shard_rows = rows;
}

fn scheduler_loop<S: PageStore>(mut log: ShardedLog<S>, shared: &Shared) {
    // Online scrub lane state: the resume cursor within the current pass,
    // and whether a pass over the whole device has completed since the last
    // ingest. Scheduler-local — it never needs the service lock.
    let mut scrub_cursor: u64 = 0;
    let mut scrub_done = false;
    loop {
        let mut run_scrub_slice = false;
        let wave = {
            let mut state = shared.state.lock().expect("service state poisoned");
            loop {
                match claim_wave(&mut state, shared.config.max_batch) {
                    Wave::Idle => {
                        // Idle time funds the online scrub: verify one
                        // bounded slice, then come back for real work.
                        // Foreground jobs always preempt the next slice.
                        if shared.config.scrub_batch > 0 && !scrub_done {
                            run_scrub_slice = true;
                            break Wave::Idle;
                        }
                        state = shared.changed.wait(state).expect("service state poisoned");
                    }
                    other => break other,
                }
            }
        };
        // The lock is dropped while the wave executes: submissions, polls
        // and cancellations of *queued* jobs proceed concurrently.
        match wave {
            Wave::Idle => {
                debug_assert!(
                    run_scrub_slice,
                    "idle without scrub handled inside the lock"
                );
                let batch = shared.config.scrub_batch;
                // The scrub lane is a fault domain of its own: a page whose
                // read panics (firmware-bug drill) poisons only this slice.
                // The pass is disarmed until the next ingest re-arms it, so
                // the lane cannot hot-loop on the same poisonous page.
                match catch_unwind(AssertUnwindSafe(|| log.scrub_slice(scrub_cursor, batch))) {
                    Ok(slice) => {
                        scrub_cursor = slice.next;
                        scrub_done = slice.complete;
                        let mut state = shared.state.lock().expect("service state poisoned");
                        state.stats.scrub_slices += 1;
                        state.stats.pages_scrubbed += slice.report.pages_checked;
                        state.stats.pages_quarantined += slice.report.quarantined.len() as u64;
                        state.stats.bitmaps_dropped += slice.report.bitmaps_dropped;
                    }
                    Err(_) => {
                        scrub_done = true;
                        let mut state = shared.state.lock().expect("service state poisoned");
                        state.stats.waves_poisoned += 1;
                    }
                }
            }
            Wave::Shutdown => {
                let mut state = shared.state.lock().expect("service state poisoned");
                for lane in &mut state.lanes {
                    lane.clear();
                }
                let orphaned: Vec<JobId> = state
                    .jobs
                    .iter()
                    .filter(|(_, j)| matches!(j.status, JobStatus::Pending))
                    .map(|(id, _)| *id)
                    .collect();
                for id in orphaned {
                    fail_job(&mut state, id, SubmitError::Closed.to_string());
                }
                state.queued = 0;
                state.stats.queued = 0;
                for tenant in state.tenants.values_mut() {
                    tenant.queued = 0;
                }
                shared.changed.notify_all();
                return;
            }
            Wave::Ingest(id, prep, tenant) => {
                // A panic while applying (a device fault drill, a defect
                // in the datapath) fails only this job; the scheduler — and
                // every other job — survives. The system state is sound
                // after an unwind: scoped scan threads are joined before
                // the panic propagates, the page cache recovers poisoned
                // locks, and pages are append-only, so cached text of
                // already-committed pages stays valid.
                let outcome = run_ingest(
                    &mut log,
                    shared.config.retain_segments,
                    tenant.as_deref(),
                    &prep,
                );
                settle_ingest(shared, id, outcome, &mut scrub_done);
                publish_shard_rows(&log, shared);
            }
            Wave::Explain(id, request) => {
                // Plan-only: the probe runs (and is charged) for real, the
                // data-page scan never happens. Same panic isolation as any
                // other lone job.
                let result = catch_unwind(AssertUnwindSafe(|| log.explain(&request)));
                let mut state = shared.state.lock().expect("service state poisoned");
                match result {
                    Ok(Ok(explain)) => {
                        let job = state.jobs.get_mut(&id).expect("running job exists");
                        job.status = JobStatus::Done(JobOutput::Explain(Box::new(explain)));
                        state.stats.completed += 1;
                    }
                    Ok(Err(e)) => fail_job(&mut state, id, e.to_string()),
                    Err(payload) => {
                        state.stats.waves_poisoned += 1;
                        fail_job(&mut state, id, internal_error(&*payload));
                    }
                }
                shared.changed.notify_all();
            }
            Wave::Scrub(id) => {
                let result = catch_unwind(AssertUnwindSafe(|| log.scrub()));
                let mut state = shared.state.lock().expect("service state poisoned");
                match result {
                    Ok(report) => {
                        state.stats.pages_scrubbed += report.pages_checked;
                        state.stats.pages_quarantined += report.quarantined.len() as u64;
                        state.stats.bitmaps_dropped += report.bitmaps_dropped;
                        state.stats.completed += 1;
                        let job = state.jobs.get_mut(&id).expect("running job exists");
                        job.status = JobStatus::Done(JobOutput::Scrub(report));
                        // A full pass covered everything the online lane
                        // still owed.
                        scrub_done = true;
                        scrub_cursor = 0;
                    }
                    Err(payload) => {
                        state.stats.waves_poisoned += 1;
                        fail_job(&mut state, id, internal_error(&*payload));
                    }
                }
                shared.changed.notify_all();
            }
            Wave::Queries(wave) => {
                let requests: Vec<QueryRequest> = wave.iter().map(|(_, r)| r.clone()).collect();
                // Panic isolation: a wave that panics (e.g. an injected
                // firmware panic surfacing through a scan worker) fails
                // only its own queries. AssertUnwindSafe is sound here —
                // scoped worker threads are joined before the unwind
                // crosses the system, and the page cache recovers poisoned
                // locks — so the scheduler keeps serving every other job.
                let result = catch_unwind(AssertUnwindSafe(|| log.query_shared(&requests)));
                let mut state = shared.state.lock().expect("service state poisoned");
                let failure = match result {
                    Ok(Ok(batch)) => {
                        state.stats.waves += 1;
                        state.stats.demanded_page_reads += batch.shared.demanded_page_reads;
                        state.stats.unique_pages_read += batch.shared.unique_pages_read;
                        state.stats.shared_reads_avoided += batch.shared.shared_reads_avoided;
                        state.stats.cache_hits += batch.shared.cache_hits;
                        state.stats.cache_bytes_saved += batch.shared.cache_bytes_saved;
                        state.stats.pages_pruned_by_index += batch.shared.pages_pruned_by_index;
                        state.stats.pages_pruned_by_bitmap += batch.shared.pages_pruned_by_bitmap;
                        state.stats.pages_pruned_by_both += batch.shared.pages_pruned_by_both;
                        state.stats.probe_node_visits_saved +=
                            batch.shared.probe_node_visits_saved();
                        let SharedScanReport { attribution, .. } = batch.shared;
                        for (((id, _), outcome), attribution) in
                            wave.iter().zip(batch.outcomes).zip(attribution)
                        {
                            let job = state.jobs.get_mut(id).expect("running job exists");
                            let tenant = job.tenant.clone();
                            if job.cancel.is_cancelled() {
                                // Cancelled mid-wave: the scan stopped at a
                                // page boundary and the partial outcome is
                                // discarded.
                                job.status = JobStatus::Cancelled;
                                state.stats.cancelled += 1;
                                if let Some(tenant) = &tenant {
                                    state.tenant_mut(tenant).cancelled += 1;
                                }
                            } else {
                                let pages_scanned = outcome.pages_scanned;
                                let lines_returned = outcome.lines.len() as u64;
                                job.status = JobStatus::Done(JobOutput::Query {
                                    outcome: Box::new(outcome),
                                    attribution,
                                });
                                state.stats.completed += 1;
                                if let Some(tenant) = &tenant {
                                    let stats = state.tenant_mut(tenant);
                                    stats.completed += 1;
                                    stats.pages_scanned += pages_scanned;
                                    stats.lines_returned += lines_returned;
                                }
                            }
                        }
                        None
                    }
                    // A non-survivable device error fails the whole wave —
                    // the same error a solo run would surface.
                    Ok(Err(e)) => Some(e.to_string()),
                    Err(payload) => {
                        state.stats.waves_poisoned += 1;
                        Some(internal_error(&*payload))
                    }
                };
                if let Some(reason) = failure {
                    for (id, _) in &wave {
                        fail_job(&mut state, *id, reason.clone());
                    }
                }
                shared.changed.notify_all();
                drop(state);
                publish_shard_rows(&log, shared);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithrilog::MithriLog;

    const LOG: &str = "\
RAS KERNEL INFO instruction cache parity error corrected\n\
RAS KERNEL FATAL data storage interrupt\n\
RAS APP FATAL ciod: Error loading /g/g24/user/program\n\
pbs_mom: scan_for_exiting, job 4161 task 1 terminated\n\
RAS KERNEL INFO generating core.2275\n";

    fn service_with(log: &str, config: ServiceConfig) -> Service {
        let mut system = MithriLog::new(SystemConfig::for_tests());
        system.ingest(log.as_bytes()).unwrap();
        Service::spawn(system, config)
    }

    fn query_lines(out: JobOutput) -> Vec<String> {
        match out {
            JobOutput::Query { outcome, .. } => outcome.lines,
            other => panic!("expected a query output, got {other:?}"),
        }
    }

    #[test]
    fn submit_wait_roundtrip() {
        let service = service_with(LOG, ServiceConfig::default());
        let handle = service.handle();
        let id = handle.submit_str("FATAL", Priority::Normal).unwrap();
        let lines = query_lines(handle.wait(id).unwrap());
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.contains("FATAL")));
        service.shutdown();
    }

    #[test]
    fn parse_errors_are_rejected_at_submit() {
        let service = service_with(LOG, ServiceConfig::default());
        let handle = service.handle();
        assert!(matches!(
            handle.submit_str("AND AND", Priority::Normal),
            Err(SubmitError::Parse(_))
        ));
        service.shutdown();
    }

    #[test]
    fn queue_bound_rejects_overload() {
        // A full queue must reject, not block or grow.
        let config = ServiceConfig {
            max_queue: 2,
            ..ServiceConfig::default()
        };
        let service = service_with(LOG, config);
        let handle = service.handle();
        let mut admitted = Vec::new();
        let mut rejected = 0usize;
        for _ in 0..50 {
            match handle.submit_str("FATAL", Priority::Low) {
                Ok(id) => admitted.push(id),
                Err(SubmitError::Rejected {
                    queue_full,
                    capacity,
                    ..
                }) => {
                    assert!(queue_full);
                    assert_eq!(capacity, 2);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(
            rejected > 0,
            "50 rapid submissions must overflow capacity 2"
        );
        for id in admitted {
            let _ = handle.wait(id);
        }
        assert_eq!(handle.stats().rejected, rejected as u64);
        service.shutdown();
    }

    #[test]
    fn cancel_is_only_effective_before_running() {
        let service = service_with(LOG, ServiceConfig::default());
        let handle = service.handle();
        let id = handle.submit_str("FATAL", Priority::Normal).unwrap();
        let _ = handle.wait(id);
        assert!(!handle.cancel(id), "a finished job cannot be cancelled");
        assert!(!handle.cancel(9999), "unknown ids cannot be cancelled");
        // The pool is not wedged: new work still completes.
        let id2 = handle.submit_str("INFO", Priority::High).unwrap();
        assert_eq!(query_lines(handle.wait(id2).unwrap()).len(), 2);
        service.shutdown();
    }

    #[test]
    fn default_page_budget_applies_to_unbudgeted_queries() {
        let config = ServiceConfig {
            default_page_budget: Some(0),
            ..ServiceConfig::default()
        };
        let service = service_with(&LOG.repeat(100), config);
        let handle = service.handle();
        let id = handle.submit_str("FATAL", Priority::Normal).unwrap();
        match handle.wait(id).unwrap() {
            JobOutput::Query { outcome, .. } => {
                assert_eq!(outcome.pages_scanned, 0);
                assert!(outcome.degraded.budget_clipped > 0);
                assert!(outcome.degraded.is_lossy());
            }
            other => panic!("expected a query output, got {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn ingest_jobs_run_through_the_same_queue() {
        let service = service_with(LOG, ServiceConfig::default());
        let handle = service.handle();
        let ingest = handle
            .ingest(b"EXTRA KERNEL FATAL injected line\n".to_vec())
            .unwrap();
        match handle.wait(ingest).unwrap() {
            JobOutput::Ingest(report) => assert_eq!(report.lines, 1),
            other => panic!("expected an ingest output, got {other:?}"),
        }
        let id = handle.submit_str("injected", Priority::Normal).unwrap();
        assert_eq!(query_lines(handle.wait(id).unwrap()).len(), 1);
        service.shutdown();
    }

    #[test]
    fn explain_jobs_plan_without_scanning() {
        let service = service_with(&LOG.repeat(200), ServiceConfig::default());
        let handle = service.handle();
        let id = handle
            .submit_explain_str("FATAL AND NOT ciod:", Priority::Normal)
            .unwrap();
        match handle.wait(id).unwrap() {
            JobOutput::Explain(explain) => {
                assert!(explain.live_pages > 0);
                assert!(explain.planned_pages <= explain.live_pages);
                let last = explain.segments.last().expect("open segment row");
                assert_eq!(last.segment_id, None, "open segment renders last");
            }
            other => panic!("expected an explain output, got {other:?}"),
        }
        let stats = handle.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.waves, 0, "an explain never runs a scan wave");
        // The scheduler is not wedged: a real query still completes.
        let q = handle.submit_str("FATAL", Priority::Normal).unwrap();
        assert!(!query_lines(handle.wait(q).unwrap()).is_empty());
        service.shutdown();
    }

    #[test]
    fn shutdown_fails_queued_jobs_and_closes_submissions() {
        let service = service_with(LOG, ServiceConfig::default());
        let handle = service.handle();
        service.shutdown();
        assert!(handle.is_closed());
        assert!(matches!(
            handle.submit_str("FATAL", Priority::Normal),
            Err(SubmitError::Closed)
        ));
    }

    #[test]
    fn stats_count_waves_and_sharing() {
        let service = service_with(&LOG.repeat(200), ServiceConfig::default());
        let handle = service.handle();
        let ids: Vec<JobId> = (0..4)
            .map(|_| handle.submit_str("NOT FATAL", Priority::Normal).unwrap())
            .collect();
        for id in ids {
            handle.wait(id).unwrap();
        }
        let stats = handle.stats();
        assert_eq!(stats.completed, 4);
        assert!(stats.waves >= 1);
        assert!(stats.demanded_page_reads >= stats.unique_pages_read);
        service.shutdown();
    }

    /// Builds a [`State`] with the given jobs already admitted, in order,
    /// for driving [`claim_wave`] deterministically.
    fn queued_state(kinds: Vec<JobKind>) -> State {
        let mut state = State::default();
        for kind in kinds {
            let lane = match &kind {
                JobKind::Query(_, priority, _) | JobKind::Explain(_, priority) => priority.lane(),
                JobKind::Ingest(..) | JobKind::Scrub => Priority::Normal.lane(),
            };
            let tenant = match &kind {
                JobKind::Query(_, _, tenant) | JobKind::Ingest(_, tenant) => tenant.clone(),
                _ => None,
            };
            let id = state.next_id;
            state.next_id += 1;
            if let Some(tenant) = &tenant {
                state.tenant_mut(tenant).queued += 1;
            }
            state.jobs.insert(
                id,
                Job {
                    kind: Some(kind),
                    status: JobStatus::Pending,
                    cancel: CancelToken::new(),
                    tenant,
                },
            );
            state.lanes[lane].push_back(id);
            state.queued += 1;
        }
        state
    }

    fn query_kind(q: &str) -> JobKind {
        JobKind::Query(
            Box::new(QueryRequest::parse(q).unwrap()),
            Priority::Normal,
            None,
        )
    }

    fn tenant_query_kind(q: &str, tenant: &str) -> JobKind {
        JobKind::Query(
            Box::new(QueryRequest::parse(q).unwrap()),
            Priority::Normal,
            Some(tenant.to_string()),
        )
    }

    /// A job that runs alone: `"ingest"`, `"explain"` or `"scrub"`.
    fn barrier_kind(name: &str) -> JobKind {
        match name {
            "ingest" => {
                let prep =
                    PreparedIngest::build(&SystemConfig::for_tests(), Cow::Borrowed(b"line\n"));
                JobKind::Ingest(Box::new(prep), Some("acme".to_string()))
            }
            "explain" => JobKind::Explain(
                Box::new(QueryRequest::parse("FATAL").unwrap()),
                Priority::Normal,
            ),
            _ => JobKind::Scrub,
        }
    }

    /// What a claim took: the wave's kind and the job ids in it.
    fn claimed(wave: Wave) -> (&'static str, Vec<JobId>) {
        match wave {
            Wave::Queries(wave) => ("queries", wave.iter().map(|(id, _)| *id).collect()),
            Wave::Ingest(id, ..) => ("ingest", vec![id]),
            Wave::Explain(id, _) => ("explain", vec![id]),
            Wave::Scrub(id) => ("scrub", vec![id]),
            Wave::Idle => ("idle", Vec::new()),
            Wave::Shutdown => ("shutdown", Vec::new()),
        }
    }

    #[test]
    fn claim_wave_runs_every_barrier_alone_ahead_of_and_behind_queries() {
        // Ingest, explain and scrub share one rule: a barrier ends a
        // non-empty wave and otherwise runs alone, and a query admitted
        // after it waits for the next wave, so it observes the barrier.
        for name in ["ingest", "explain", "scrub"] {
            let mut ahead = queued_state(vec![barrier_kind(name), query_kind("FATAL")]);
            assert_eq!(claimed(claim_wave(&mut ahead, 16)), (name, vec![0]));
            assert_eq!(claimed(claim_wave(&mut ahead, 16)), ("queries", vec![1]));

            let mut behind = queued_state(vec![
                query_kind("FATAL"),
                query_kind("INFO"),
                barrier_kind(name),
                query_kind("KERNEL"),
            ]);
            assert_eq!(
                claimed(claim_wave(&mut behind, 16)),
                ("queries", vec![0, 1]),
                "{name} ends the wave"
            );
            assert_eq!(claimed(claim_wave(&mut behind, 16)), (name, vec![2]));
            assert_eq!(claimed(claim_wave(&mut behind, 16)), ("queries", vec![3]));
            assert_eq!(claimed(claim_wave(&mut behind, 16)), ("idle", vec![]));
            assert_eq!(behind.queued, 0);
            assert!(behind.tenants.values().all(|t| t.queued == 0), "{name}");
        }
    }

    #[test]
    fn claim_wave_interleaves_tenants_round_robin() {
        // Tenant A filled the lane first; tenant B's single query must not
        // wait behind all of A's. Round-robin: one per tenant per sweep.
        let mut state = queued_state(vec![
            tenant_query_kind("FATAL", "acme"),
            tenant_query_kind("INFO", "acme"),
            tenant_query_kind("KERNEL", "acme"),
            tenant_query_kind("ciod:", "beta"),
        ]);
        assert_eq!(
            claimed(claim_wave(&mut state, 2)),
            ("queries", vec![0, 3]),
            "the first sweep serves one query per tenant"
        );
        // The rest of tenant A drains in FIFO order afterwards.
        assert_eq!(claimed(claim_wave(&mut state, 16)), ("queries", vec![1, 2]));
        assert_eq!(state.queued, 0);
    }

    #[test]
    fn claim_wave_without_tenants_stays_strict_fifo() {
        let mut state = queued_state(vec![
            query_kind("FATAL"),
            query_kind("INFO"),
            query_kind("KERNEL"),
        ]);
        assert_eq!(
            claimed(claim_wave(&mut state, 2)),
            ("queries", vec![0, 1]),
            "untagged claims are submission-ordered"
        );
    }

    #[test]
    fn tenant_cap_rejects_saturation_but_admits_other_tenants() {
        let config = ServiceConfig {
            tenant_max_queued: Some(2),
            max_queue: 64,
            ..ServiceConfig::default()
        };
        let service = service_with(&LOG.repeat(50), config);
        let handle = service.handle();
        // Tenant A floods: only the cap's worth is admitted at once.
        let mut flood_admitted = Vec::new();
        let mut flood_rejected = 0usize;
        for _ in 0..20 {
            match handle.submit_str_tagged("FATAL", Priority::Low, Some("flood")) {
                Ok(id) => flood_admitted.push(id),
                Err(SubmitError::Rejected {
                    queue_full,
                    capacity,
                    ..
                }) => {
                    assert!(!queue_full, "the tenant cap is not the shared queue bound");
                    assert_eq!(capacity, 2);
                    flood_rejected += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(flood_rejected > 0, "a flooding tenant must hit its cap");
        // Another tenant (and untagged work) is still admitted and runs.
        let other = handle
            .submit_str_tagged("FATAL", Priority::Low, Some("steady"))
            .unwrap();
        let untagged = handle.submit_str("FATAL", Priority::Low).unwrap();
        assert!(!query_lines(handle.wait(other).unwrap()).is_empty());
        assert!(!query_lines(handle.wait(untagged).unwrap()).is_empty());
        for id in flood_admitted {
            let _ = handle.wait(id);
        }
        let tenants = handle.tenant_stats();
        assert_eq!(tenants["flood"].rejected, flood_rejected as u64);
        assert_eq!(tenants["steady"].completed, 1);
        assert!(tenants["steady"].lines_returned > 0);
        assert_eq!(tenants["flood"].queued, 0, "all settled");
        service.shutdown();
    }

    #[test]
    fn tenant_page_budget_applies_before_the_default() {
        let config = ServiceConfig {
            tenant_page_budget: Some(0),
            default_page_budget: None,
            ..ServiceConfig::default()
        };
        let service = service_with(&LOG.repeat(100), config);
        let handle = service.handle();
        let tagged = handle
            .submit_str_tagged("FATAL", Priority::Normal, Some("capped"))
            .unwrap();
        match handle.wait(tagged).unwrap() {
            JobOutput::Query { outcome, .. } => {
                assert_eq!(outcome.pages_scanned, 0);
                assert!(outcome.degraded.budget_clipped > 0);
            }
            other => panic!("expected a query output, got {other:?}"),
        }
        // An untagged query is not constrained by the tenant budget.
        let free = handle.submit_str("FATAL", Priority::Normal).unwrap();
        match handle.wait(free).unwrap() {
            JobOutput::Query { outcome, .. } => assert!(outcome.pages_scanned > 0),
            other => panic!("expected a query output, got {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn shard_rows_are_published_for_a_solo_backend() {
        let service = service_with(LOG, ServiceConfig::default());
        let handle = service.handle();
        let id = handle.submit_str("FATAL", Priority::Normal).unwrap();
        let _ = handle.wait(id).unwrap();
        let rows = handle.shard_stats();
        assert_eq!(rows.len(), 1, "a solo device reports one row");
        assert_eq!(rows[0].shard, 0);
        assert_eq!(rows[0].lines, 5);
        service.shutdown();
    }

    #[test]
    fn overlapped_ingest_keeps_query_outcomes_byte_identical_to_solo_runs() {
        // The second ingest is built on this thread while the scheduler
        // may still be applying the first or scanning the query. Queries
        // are ordered against ingests by admission alone: the one admitted
        // before the second ingest equals a solo run against the pre-ingest
        // snapshot of a fresh replica, the one admitted after it the
        // post-ingest snapshot — never a torn in-between.
        let base = LOG.repeat(50);
        let busy_text = LOG.repeat(400);
        let extra = "EXTRA KERNEL FATAL overlapped line\n";
        // Replicas mirror the service's exact ingest order: base (at
        // spawn), the busy batch, then the overlapped line.
        let mut pre = MithriLog::new(SystemConfig::for_tests());
        pre.ingest(base.as_bytes()).unwrap();
        pre.ingest(busy_text.as_bytes()).unwrap();
        let solo_pre = pre.query_str("FATAL").unwrap().lines;
        let mut post = MithriLog::new(SystemConfig::for_tests());
        post.ingest(base.as_bytes()).unwrap();
        post.ingest(busy_text.as_bytes()).unwrap();
        post.ingest(extra.as_bytes()).unwrap();
        let solo_post = post.query_str("FATAL").unwrap().lines;
        assert_ne!(solo_pre, solo_post);

        let service = service_with(&base, ServiceConfig::default());
        let handle = service.handle();
        let busy = handle.ingest(busy_text.into_bytes()).unwrap();
        let query = handle.submit_str("FATAL", Priority::Normal).unwrap();
        let ingest = handle.ingest(extra.as_bytes().to_vec()).unwrap();
        let trailing = handle.submit_str("FATAL", Priority::Normal).unwrap();

        handle.wait(busy).unwrap();
        let observed = query_lines(handle.wait(query).unwrap());
        assert_eq!(
            observed, solo_pre,
            "a query admitted before an ingest never observes it"
        );
        match handle.wait(ingest).unwrap() {
            JobOutput::Ingest(report) => assert_eq!(report.lines, 1),
            other => panic!("expected an ingest output, got {other:?}"),
        }
        // A query admitted after the ingest observes the ingested line.
        let after = query_lines(handle.wait(trailing).unwrap());
        assert_eq!(after, solo_post);
        let stats = handle.stats();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.ingests_overlapped, 2, "every applied ingest counts");
        service.shutdown();
    }

    #[test]
    fn retention_config_drops_segments_as_ingests_land() {
        let config = ServiceConfig {
            retain_segments: Some(2),
            ..ServiceConfig::default()
        };
        let system = MithriLog::new(SystemConfig {
            segment_pages: 2,
            ..SystemConfig::for_tests()
        });
        let service = Service::spawn(system, config);
        let handle = service.handle();
        for round in 0..6 {
            let text = format!("round {round} line\n").repeat(400);
            let id = handle.ingest(text.into_bytes()).unwrap();
            handle.wait(id).unwrap();
        }
        let stats = handle.stats();
        assert!(stats.segments_sealed >= 3, "tiny segments must have sealed");
        assert!(
            stats.segments_dropped > 0,
            "retention must have dropped past the keep target"
        );
        assert!(stats.segments_dropped < stats.segments_sealed);
        service.shutdown();
    }

    #[test]
    fn wait_timeout_distinguishes_every_error_path() {
        let service = service_with(LOG, ServiceConfig::default());
        let handle = service.handle();
        assert!(matches!(
            handle.wait_timeout(9999, Duration::from_millis(1)),
            Err(WaitError::Unknown)
        ));
        // Occupy the scheduler so the probe jobs stay pending.
        let busy = handle.ingest(LOG.repeat(800).into_bytes()).unwrap();
        let timed = handle.submit_str("FATAL", Priority::Low).unwrap();
        assert!(matches!(
            handle.wait_timeout(timed, Duration::ZERO),
            Err(WaitError::TimedOut)
        ));
        let doomed = handle.submit_str("FATAL", Priority::Low).unwrap();
        assert!(handle.cancel(doomed));
        assert!(matches!(
            handle.wait_timeout(doomed, Duration::from_secs(5)),
            Err(WaitError::Cancelled)
        ));
        let _ = handle.wait(busy);
        let _ = handle.wait(timed);
        // Shutdown fails whatever is still pending; wait_timeout reports it.
        let orphan = handle.submit_str("FATAL", Priority::Low).unwrap();
        service.shutdown();
        match handle.wait_timeout(orphan, Duration::from_secs(5)) {
            Err(WaitError::Failed(reason)) => assert!(reason.contains("shut down")),
            // The scheduler may have raced the orphan to completion before
            // shutdown closed the queue — that is not an error path.
            Ok(_) => {}
            other => panic!("expected a failure, got {other:?}"),
        }
    }
}
