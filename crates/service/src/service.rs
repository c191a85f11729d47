use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use std::borrow::Cow;

use mithrilog::{
    CancelToken, IngestReport, PlanExplain, PreparedIngest, QueryOutcome, QueryRequest,
    ScanAttribution, SystemConfig,
};
use mithrilog_shard::{ShardRow, ShardedLog};
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
    /// Admission control turned the job away. Overload is surfaced here, at
    /// admission, instead of as unbounded queueing delay.
    Rejected {
        /// `true` when the shared queue was at capacity
        /// ([`ServiceConfig::max_queue`]); `false` when the submitting
        /// tenant's own cap ([`ServiceConfig::tenant_max_queued`]) was.
        queue_full: bool,
        /// Jobs queued at the time of rejection: in the shared queue, or
        /// the tenant's own when `queue_full` is `false`.
        queue_len: usize,
        /// The capacity that was reached.
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
                queue_full: true,
                queue_len,
                capacity,
            } => write!(f, "queue full ({queue_len}/{capacity} jobs queued)"),
            SubmitError::Rejected {
                queue_full: false,
                queue_len,
                capacity,
            } => write!(
                f,
                "tenant cap reached ({queue_len}/{capacity} of the tenant's jobs queued)"
            ),
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
    /// Jobs cancelled: while queued, or as a query stopped mid-scan.
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
    /// Union pages flooding waves read and did not cache (see
    /// [`mithrilog::SharedScanReport::cache_declined`]).
    pub cache_declined: u64,
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
    /// [`mithrilog::SharedScanReport::pages_pruned_by_index`]).
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

/// A job's payload: what the scheduler runs once it claims the job.
enum JobKind {
    /// A query, scanned together with the other queries of its wave.
    Query(Box<QueryRequest>),
    /// Plan-only: the request is planned (index probe, bitmap pruning,
    /// clips) but no data page is scanned.
    Explain(Box<QueryRequest>),
    /// Page frames the submitter already built; the scheduler only
    /// applies them.
    Ingest(Box<PreparedIngest<'static>>),
    /// A full-device scrub pass.
    Scrub,
}

struct Job {
    /// The payload while the job is queued; [`State::claim`] takes it.
    kind: Option<JobKind>,
    status: JobStatus,
    /// The priority lane the job was admitted into.
    lane: usize,
    /// The tenant tag the job was submitted under.
    tenant: Option<String>,
    /// A query's cancellation token, shared with the request it scans
    /// with. Only a query reads its token while it runs.
    cancel: Option<CancelToken>,
}

/// The scheduler's bookkeeping. Every job walks one lifecycle through three
/// operations: [`State::admit`] puts it in a lane, [`State::claim`] takes
/// it out as `Running`, and [`State::settle`] gives it its terminal status.
/// They are the only places the queue and settle counters move, and they
/// need no thread, so the lifecycle is tested on a bare `State`.
#[derive(Default)]
struct State {
    /// One FIFO lane per priority class, holding the queued jobs' ids.
    lanes: [VecDeque<JobId>; 3],
    jobs: HashMap<JobId, Job>,
    next_id: JobId,
    closed: bool,
    stats: ServiceStats,
    /// Per-tenant counters for tagged jobs, keyed by tenant name.
    tenants: BTreeMap<String, TenantStats>,
    /// Last published per-device observability rows (one row for a
    /// one-shard log), refreshed by the scheduler after every wave.
    shard_rows: Vec<ShardRow>,
}

impl State {
    /// Admits a job into its priority lane, or says why not: the only way a
    /// job enters the service. A query gets a cancellation token shared
    /// with the request it scans with; a token the caller attached is kept.
    fn admit(
        &mut self,
        config: &ServiceConfig,
        mut kind: JobKind,
        priority: Priority,
        tenant: Option<&str>,
    ) -> Result<JobId, SubmitError> {
        if self.closed {
            return Err(SubmitError::Closed);
        }
        let queued = self.stats.queued as usize;
        let own = tenant
            .and_then(|t| self.tenants.get(t))
            .map_or(0, |t| t.queued as usize);
        // The per-tenant cap bounds how much of the shared queue one tenant
        // can occupy: a saturating tenant exhausts its own allowance and is
        // turned away while everyone else still gets admitted.
        let rejection = match config.tenant_max_queued {
            _ if queued >= config.max_queue => Some((true, queued, config.max_queue)),
            Some(cap) if tenant.is_some() && own >= cap => Some((false, own, cap)),
            _ => None,
        };
        if let Some((queue_full, queue_len, capacity)) = rejection {
            self.stats.rejected += 1;
            if let Some(tenant) = tenant {
                self.tenants.entry(tenant.into()).or_default().rejected += 1;
            }
            return Err(SubmitError::Rejected {
                queue_full,
                queue_len,
                capacity,
            });
        }
        let cancel = match &mut kind {
            JobKind::Query(request) => {
                Some(request.cancel.get_or_insert_with(CancelToken::new).clone())
            }
            _ => None,
        };
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                kind: Some(kind),
                status: JobStatus::Pending,
                lane: priority.lane(),
                tenant: tenant.map(str::to_string),
                cancel,
            },
        );
        self.lanes[priority.lane()].push_back(id);
        self.stats.submitted += 1;
        self.stats.queued += 1;
        if let Some(tenant) = tenant {
            let stats = self.tenants.entry(tenant.into()).or_default();
            stats.submitted += 1;
            stats.queued += 1;
        }
        Ok(id)
    }

    /// Takes queued job `id` out of its lane as `Running` and hands back its
    /// payload: the only `Pending` → `Running` transition, and the only
    /// place the queue counters fall.
    fn claim(&mut self, id: JobId) -> JobKind {
        let job = self.jobs.get_mut(&id).expect("claimed job exists");
        let kind = job.kind.take().expect("only a queued job is claimed");
        job.status = JobStatus::Running;
        let lane = &mut self.lanes[job.lane];
        lane.remove(
            lane.iter()
                .position(|&queued| queued == id)
                .expect("queued in its lane"),
        );
        self.stats.queued -= 1;
        if let Some(tenant) = &job.tenant {
            self.tenants
                .get_mut(tenant)
                .expect("admitted tenant")
                .queued -= 1;
        }
        kind
    }

    /// Gives claimed job `id` its terminal status: the only place `Done`,
    /// `Failed` or `Cancelled` is decided and the settle counters move.
    /// `result` is `None` for a job cancelled while queued. A query whose
    /// token tripped while it ran stopped at a page boundary: its partial
    /// outcome is discarded and it settles `Cancelled`.
    fn settle(&mut self, id: JobId, result: Option<Result<JobOutput, String>>) {
        let job = self.jobs.get_mut(&id).expect("settled job exists");
        assert!(
            matches!(job.status, JobStatus::Running),
            "job {id} settles once, after its claim"
        );
        let stopped = job.cancel.take().is_some_and(|token| token.is_cancelled());
        job.status = match result {
            Some(Ok(output)) if !stopped => JobStatus::Done(output),
            Some(Err(reason)) => JobStatus::Failed(reason),
            Some(Ok(_)) | None => JobStatus::Cancelled,
        };
        // An untagged job counts only service-wide.
        let mut untagged = TenantStats::default();
        let tenant = match &job.tenant {
            Some(tenant) => self.tenants.get_mut(tenant).expect("admitted tenant"),
            None => &mut untagged,
        };
        match &job.status {
            JobStatus::Done(output) => {
                self.stats.completed += 1;
                tenant.completed += 1;
                if let JobOutput::Query { outcome, .. } = output {
                    tenant.pages_scanned += outcome.pages_scanned;
                    tenant.lines_returned += outcome.lines.len() as u64;
                }
            }
            JobStatus::Failed(_) => {
                self.stats.failed += 1;
                tenant.failed += 1;
            }
            _ => {
                self.stats.cancelled += 1;
                tenant.cancelled += 1;
            }
        }
    }

    /// Settles each job of a finished wave, and publishes the scheduler's
    /// wave counters (`waves`, page reads, scrub and segment counts) beside
    /// the lifecycle counters, which only this `State` moves.
    fn settle_wave(&mut self, results: WaveResults, waves: &ServiceStats) {
        let own = self.stats;
        self.stats = ServiceStats {
            submitted: own.submitted,
            rejected: own.rejected,
            completed: own.completed,
            failed: own.failed,
            cancelled: own.cancelled,
            queued: own.queued,
            ..*waves
        };
        for (id, result) in results {
            self.settle(id, Some(result));
        }
    }

    /// Cancels job `id`, as [`ServiceHandle::cancel`] documents.
    fn cancel(&mut self, id: JobId) -> bool {
        let Some(job) = self.jobs.get(&id) else {
            return false;
        };
        match (&job.status, &job.cancel) {
            (JobStatus::Pending, _) => {
                self.claim(id);
                self.settle(id, None);
                true
            }
            (JobStatus::Running, Some(token)) => {
                // Cooperative: the scan observes the token at its next page
                // boundary, and settle reads it when the wave ends.
                token.cancel();
                true
            }
            _ => false,
        }
    }

    /// Closes admission and fails every queued job with "service is shut
    /// down". A wave already running settles as usual.
    fn close(&mut self) {
        self.closed = true;
        let queued: Vec<JobId> = self.lanes.iter().flatten().copied().collect();
        for id in queued {
            self.claim(id);
            self.settle(id, Some(Err(SubmitError::Closed.to_string())));
        }
    }
}

/// Claims the next wave in (priority, FIFO) order: the head of the
/// highest non-empty lane decides. Queries accumulate up to `max_batch`
/// across lanes (a half-filled wave never waits for stragglers —
/// determinism requires batching only what is already admitted),
/// interleaved fairly across tenants within each lane
/// ([`claim_fair_queries`]). A barrier job (ingest, explain, scrub)
/// ends a non-empty wave, so whatever was admitted after it observes
/// its effects; at the front of an empty wave it runs alone. `None` when
/// nothing is queued.
fn claim_wave(state: &mut State, max_batch: usize) -> Option<Wave> {
    let mut wave: Vec<(JobId, QueryRequest)> = Vec::new();
    'lanes: for class in Priority::CLASSES {
        let lane = class.lane();
        while let Some(&id) = state.lanes[lane].front() {
            if !matches!(state.jobs[&id].kind, Some(JobKind::Query(_))) {
                if !wave.is_empty() {
                    break 'lanes;
                }
                let tenant = state.jobs[&id].tenant.clone();
                return Some(Wave::Alone(id, state.claim(id), tenant));
            }
            if wave.len() == max_batch {
                break 'lanes;
            }
            for id in claim_fair_queries(state, lane, max_batch - wave.len()) {
                let JobKind::Query(request) = state.claim(id) else {
                    unreachable!("the fair claim only picks queries");
                };
                wave.push((id, *request));
            }
            // Loop: the lane front is now the barrier that ended the window
            // (or leftover queries once the wave is full, caught above).
        }
    }
    (!wave.is_empty()).then_some(Wave::Queries(wave))
}

/// Whether job `id` is still queued or running. Unlike [`settled`], it
/// clones no output, so waiters can test it on every wakeup.
fn in_flight(state: &State, id: JobId) -> bool {
    let status = state.jobs.get(&id).map(|job| &job.status);
    matches!(status, Some(JobStatus::Pending | JobStatus::Running))
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
        request: QueryRequest,
        priority: Priority,
        tenant: Option<&str>,
    ) -> Result<JobId, SubmitError> {
        let request = self.with_defaults(request, tenant);
        self.admit(JobKind::Query(Box::new(request)), priority, tenant)
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
        request: QueryRequest,
        priority: Priority,
    ) -> Result<JobId, SubmitError> {
        let request = self.with_defaults(request, None);
        self.admit(JobKind::Explain(Box::new(request)), priority, None)
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
        self.admit(JobKind::Ingest(Box::new(prep)), Priority::Normal, tenant)
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
        self.admit(JobKind::Scrub, Priority::Normal, None)
    }

    /// Fills in the page budget (a tagged request's tenant budget first)
    /// and the deadline a request does not carry itself.
    fn with_defaults(&self, mut request: QueryRequest, tenant: Option<&str>) -> QueryRequest {
        let config = &self.shared.config;
        if request.page_budget.is_none() {
            request.page_budget = tenant
                .and(config.tenant_page_budget)
                .or(config.default_page_budget);
        }
        request.deadline = request.deadline.or(config.default_deadline);
        request
    }

    fn admit(
        &self,
        kind: JobKind,
        priority: Priority,
        tenant: Option<&str>,
    ) -> Result<JobId, SubmitError> {
        let mut state = self.shared.state.lock().expect("service state poisoned");
        let id = state.admit(&self.shared.config, kind, priority, tenant)?;
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
        let state = self.shared.state.lock().expect("service state poisoned");
        let state = (self.shared.changed)
            .wait_while(state, |state| in_flight(state, id))
            .expect("service state poisoned");
        match settled(&state, id).expect("waited until settled") {
            Ok(out) => Ok(out),
            Err(WaitError::Failed(reason)) => Err(reason),
            Err(WaitError::Cancelled) => Err("cancelled".into()),
            Err(other) => Err(other.to_string()),
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
        let state = self.shared.state.lock().expect("service state poisoned");
        let (state, _) = (self.shared.changed)
            .wait_timeout_while(state, timeout, |state| in_flight(state, id))
            .expect("service state poisoned");
        // Checked once more after the timeout: the change may have landed
        // exactly at it.
        settled(&state, id).unwrap_or(Err(WaitError::TimedOut))
    }

    /// Cancels a queued job or a running query. A queued job settles as
    /// [`JobStatus::Cancelled`] immediately; a running query's cancellation
    /// token is tripped, so its scan stops within one page per worker — the
    /// pages it already scanned are charged as usual, and the job settles
    /// as [`JobStatus::Cancelled`] when its wave ends. Returns `true` when
    /// cancellation took effect; `false` for a running ingest, explain or
    /// scrub (they run to completion), a job that already settled, or an
    /// unknown id.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut state = self.shared.state.lock().expect("service state poisoned");
        let cancelled = state.cancel(id);
        self.shared.changed.notify_all();
        cancelled
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
            state.close();
            self.handle.shared.changed.notify_all();
        }
        if let Some(thread) = self.scheduler.take() {
            // Wave panics are caught inside the loop, so the scheduler only
            // dies on a defect in the loop itself; shutdown still completes
            // (queued jobs were already failed by the close).
            let _ = thread.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// One unit of work the scheduler runs: claimed from the lanes while
/// holding the lock, or an online scrub slice when they are empty.
enum Wave {
    /// A batch of queries scanned together.
    Queries(Vec<(JobId, QueryRequest)>),
    /// A barrier job (ingest, explain or scrub), run alone between waves,
    /// with the tenant tag that routes an ingest to shards.
    Alone(JobId, JobKind, Option<String>),
    /// One online scrub slice, run in an idle gap.
    ScrubSlice,
}

impl Wave {
    /// The jobs this wave settles, in claim order.
    fn ids(&self) -> Vec<JobId> {
        match self {
            Wave::Queries(jobs) => jobs.iter().map(|(id, _)| *id).collect(),
            Wave::Alone(id, ..) => vec![*id],
            Wave::ScrubSlice => Vec::new(),
        }
    }
}

/// Each job's result from one wave, in claim order.
type WaveResults = Vec<(JobId, Result<JobOutput, String>)>;

/// Selects up to `budget` query jobs from the contiguous run of queries at
/// the front of `lane`, round-robin over tenants: sweep `k` takes each
/// tenant's `k`-th query (untagged queries all go in the first sweep), in
/// submission order within a sweep, so a tenant that filled the lane first
/// cannot starve another tenant's already-admitted queries — they
/// interleave into the same wave. With no tenant tags this is exactly the
/// strict-FIFO claim.
fn claim_fair_queries(state: &State, lane: usize, budget: usize) -> Vec<JobId> {
    let mut ahead: HashMap<&str, usize> = HashMap::new();
    let mut window: Vec<(usize, JobId)> = Vec::new();
    for &id in &state.lanes[lane] {
        let job = &state.jobs[&id];
        match &job.kind {
            Some(JobKind::Query(_)) => {
                let sweep = job.tenant.as_deref().map_or(0, |tenant| {
                    let count = ahead.entry(tenant).or_default();
                    *count += 1;
                    *count - 1
                });
                window.push((sweep, id));
            }
            // The window ends at the first barrier job (ingest, explain,
            // scrub): whatever sits behind it must observe its effects.
            _ => break,
        }
    }
    // A stable sort keeps submission order within each sweep.
    window.sort_by_key(|&(sweep, _)| sweep);
    window.iter().take(budget).map(|&(_, id)| id).collect()
}

/// The online scrub lane: the resume cursor within the current pass, and
/// whether a pass over the whole device has completed since the last
/// ingest. Scheduler-local — it never needs the service lock.
#[derive(Default)]
struct ScrubLane {
    cursor: u64,
    done: bool,
}

fn scheduler_loop<S: PageStore>(mut log: ShardedLog<S>, shared: &Shared) {
    let config = &shared.config;
    let mut scrub = ScrubLane::default();
    // The counters only waves move; [`State::settle_wave`] publishes them.
    let mut wave_stats = ServiceStats::default();
    loop {
        let wave = {
            let mut state = shared.state.lock().expect("service state poisoned");
            loop {
                // The close already failed every queued job.
                if state.closed {
                    return;
                }
                match claim_wave(&mut state, config.max_batch) {
                    Some(wave) => break wave,
                    // Idle time funds the online scrub: verify one bounded
                    // slice, then come back for real work. Foreground jobs
                    // always preempt the next slice.
                    None if config.scrub_batch > 0 && !scrub.done => break Wave::ScrubSlice,
                    None => state = shared.changed.wait(state).expect("service state poisoned"),
                }
            }
        };
        // The lock is dropped while the wave executes: submissions, polls
        // and cancellations proceed concurrently.
        let ids = wave.ids();
        // The scheduler's one panic boundary. A panic escaping the datapath
        // (an injected firmware panic surfacing through a scan worker, a
        // defect) fails only this wave's jobs; the scheduler keeps serving
        // every other job. `AssertUnwindSafe` is sound: scoped scan threads
        // are joined before the unwind crosses the system, the page cache
        // recovers poisoned locks, and pages are append-only, so cached
        // text of already-committed pages stays valid.
        let results = catch_unwind(AssertUnwindSafe(|| {
            execute(&mut log, wave, &mut scrub, &mut wave_stats, config)
        }))
        .unwrap_or_else(|payload| poisoned(ids, &*payload, &mut wave_stats));
        let rows = log.shard_rows();
        let mut state = shared.state.lock().expect("service state poisoned");
        state.settle_wave(results, &wave_stats);
        state.shard_rows = rows;
        shared.changed.notify_all();
    }
}

/// The results of a wave that panicked: each of its jobs fails with the
/// panic message as an internal error, and the wave counts in
/// `waves_poisoned`.
fn poisoned(ids: Vec<JobId>, payload: &(dyn Any + Send), stats: &mut ServiceStats) -> WaveResults {
    let message = (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("panic of unknown type");
    stats.waves_poisoned += 1;
    fail_all(ids, &format!("internal error: {message}"))
}

/// Fails every job of a wave with the same reason.
fn fail_all(ids: Vec<JobId>, reason: &str) -> WaveResults {
    ids.into_iter().map(|id| (id, Err(reason.into()))).collect()
}

/// Runs one claimed wave against the log, adding what it did to the wave
/// counters in `stats`.
fn execute<S: PageStore>(
    log: &mut ShardedLog<S>,
    wave: Wave,
    scrub: &mut ScrubLane,
    stats: &mut ServiceStats,
    config: &ServiceConfig,
) -> WaveResults {
    match wave {
        Wave::Queries(jobs) => {
            let (ids, requests): (Vec<JobId>, Vec<QueryRequest>) = jobs.into_iter().unzip();
            let batch = match log.query_shared(&requests) {
                Ok(batch) => batch,
                // A non-survivable device error fails the whole wave — the
                // same error a solo run would surface.
                Err(e) => return fail_all(ids, &e.to_string()),
            };
            let shared = batch.shared;
            stats.waves += 1;
            stats.demanded_page_reads += shared.demanded_page_reads;
            stats.unique_pages_read += shared.unique_pages_read;
            stats.shared_reads_avoided += shared.shared_reads_avoided;
            stats.cache_hits += shared.cache_hits;
            stats.cache_bytes_saved += shared.cache_bytes_saved;
            stats.cache_declined += shared.cache_declined;
            stats.pages_pruned_by_index += shared.pages_pruned_by_index;
            stats.pages_pruned_by_bitmap += shared.pages_pruned_by_bitmap;
            stats.pages_pruned_by_both += shared.pages_pruned_by_both;
            stats.probe_node_visits_saved += shared.probe_node_visits_saved();
            ids.into_iter()
                .zip(batch.outcomes)
                .zip(shared.attribution)
                .map(|((id, outcome), attribution)| {
                    let outcome = Box::new(outcome);
                    (
                        id,
                        Ok(JobOutput::Query {
                            outcome,
                            attribution,
                        }),
                    )
                })
                .collect()
        }
        Wave::Alone(id, kind, tenant) => {
            let result = match kind {
                // Plan-only: the probe runs (and is charged) for real, the
                // data-page scan never happens.
                JobKind::Explain(request) => log
                    .explain(&request)
                    .map(|plan| JobOutput::Explain(Box::new(plan))),
                // The built frames, then the configured retention pass. A
                // retention failure fails the job: the ingested data is
                // durable, but the store could not honor its retention
                // contract and the client must hear about it.
                JobKind::Ingest(prep) => {
                    let sealed_before = log.sealed_segment_count();
                    let applied = log
                        .apply_prepared(tenant.as_deref(), &prep)
                        .and_then(|report| {
                            let sealed = log.sealed_segment_count() - sealed_before;
                            if let Some(keep) = config.retain_segments {
                                stats.segments_dropped +=
                                    log.apply_retention(keep)?.segments_dropped;
                            }
                            stats.segments_sealed += sealed;
                            stats.ingests_overlapped += 1;
                            Ok(JobOutput::Ingest(report))
                        });
                    // Applied or refused, the device may have changed (new
                    // pages to verify, rewritten pages out of quarantine):
                    // re-arm the online scrub.
                    scrub.done = false;
                    applied
                }
                JobKind::Scrub => {
                    let report = log.scrub();
                    count_scrub(stats, &report);
                    // A full pass covered everything the online lane owed.
                    scrub.cursor = 0;
                    scrub.done = true;
                    Ok(JobOutput::Scrub(report))
                }
                JobKind::Query(_) => unreachable!("queries run in shared waves"),
            };
            vec![(id, result.map_err(|e| e.to_string()))]
        }
        Wave::ScrubSlice => {
            // Disarmed before it runs: a slice whose read panics (the
            // firmware-bug drill) leaves the pass off until the next ingest
            // re-arms it, so the lane cannot hot-loop on one bad page.
            scrub.done = true;
            let slice = log.scrub_slice(scrub.cursor, config.scrub_batch);
            scrub.cursor = slice.next;
            scrub.done = slice.complete;
            stats.scrub_slices += 1;
            count_scrub(stats, &slice.report);
            Vec::new()
        }
    }
}

/// Counts the pages a scrub (a full pass or an online slice) verified.
fn count_scrub(stats: &mut ServiceStats, report: &ScrubReport) {
    stats.pages_scrubbed += report.pages_checked;
    stats.pages_quarantined += report.quarantined.len() as u64;
    stats.bitmaps_dropped += report.bitmaps_dropped;
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

    /// A job to admit: its payload and tenant tag. Every test job is
    /// admitted at [`Priority::Normal`].
    type Admission = (JobKind, Option<&'static str>);

    /// Builds a [`State`] with the given jobs already admitted, in order,
    /// for driving [`State::claim_wave`] deterministically.
    fn queued_state(jobs: Vec<Admission>) -> State {
        let mut state = State::default();
        for (kind, tenant) in jobs {
            state
                .admit(&ServiceConfig::default(), kind, Priority::Normal, tenant)
                .expect("the default config admits every test job");
        }
        state
    }

    fn query_kind(q: &str) -> Admission {
        (
            JobKind::Query(Box::new(QueryRequest::parse(q).unwrap())),
            None,
        )
    }

    fn tenant_query_kind(q: &str, tenant: &'static str) -> Admission {
        (
            JobKind::Query(Box::new(QueryRequest::parse(q).unwrap())),
            Some(tenant),
        )
    }

    /// A job that runs alone: `"ingest"`, `"explain"` or `"scrub"`.
    fn barrier_kind(name: &str) -> Admission {
        match name {
            "ingest" => {
                let prep =
                    PreparedIngest::build(&SystemConfig::for_tests(), Cow::Borrowed(b"line\n"));
                (JobKind::Ingest(Box::new(prep)), Some("acme"))
            }
            "explain" => (
                JobKind::Explain(Box::new(QueryRequest::parse("FATAL").unwrap())),
                None,
            ),
            _ => (JobKind::Scrub, None),
        }
    }

    /// What a claim took: the wave's kind and the job ids in it.
    fn claimed(wave: Option<Wave>) -> (&'static str, Vec<JobId>) {
        let name = match &wave {
            None => "idle",
            Some(Wave::Queries(_)) => "queries",
            Some(Wave::Alone(_, JobKind::Ingest(_), _)) => "ingest",
            Some(Wave::Alone(_, JobKind::Explain(_), _)) => "explain",
            Some(Wave::Alone(_, JobKind::Scrub, _)) => "scrub",
            Some(Wave::Alone(_, JobKind::Query(_), _)) => "lone query",
            Some(Wave::ScrubSlice) => "scrub slice",
        };
        (name, wave.map_or_else(Vec::new, |wave| wave.ids()))
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
            assert_eq!(behind.stats.queued, 0);
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
        assert_eq!(state.stats.queued, 0);
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
    fn cancelling_a_running_barrier_job_is_too_late() {
        // Only a query reads a cancellation token while it runs. A claimed
        // ingest, explain or scrub runs to completion, so cancelling it
        // must say so instead of reporting a cancel that never happens.
        for name in ["ingest", "explain", "scrub"] {
            let mut state = queued_state(vec![barrier_kind(name)]);
            let (kind, ids) = claimed(claim_wave(&mut state, 16));
            assert_eq!((kind, &ids), (name, &vec![0]));
            assert!(!state.cancel(0), "a running {name} cannot be cancelled");
            let output = JobOutput::Scrub(ScrubReport::default());
            state.settle_wave(vec![(0, Ok(output))], &ServiceStats::default());
            assert!(
                matches!(state.jobs[&0].status, JobStatus::Done(_)),
                "{name}"
            );
            assert_eq!((state.stats.completed, state.stats.cancelled), (1, 0));
        }
    }

    /// A job's terminal status as a comparable tag, or `None` while it is
    /// queued or running.
    fn terminal(status: &JobStatus) -> Option<String> {
        match status {
            JobStatus::Pending | JobStatus::Running => None,
            JobStatus::Done(_) => Some("done".into()),
            JobStatus::Failed(reason) => Some(format!("failed: {reason}")),
            JobStatus::Cancelled => Some("cancelled".into()),
        }
    }

    /// The lifecycle invariants, checked after every step: the queue
    /// counters match the lanes, every admitted job is accounted exactly
    /// once, and a settled job never changes again.
    fn check_lifecycle(state: &State, settled: &mut HashMap<JobId, String>) {
        let queued: Vec<JobId> = state.lanes.iter().flatten().copied().collect();
        let pending = |job: &Job| matches!(job.status, JobStatus::Pending);
        let running = |job: &Job| matches!(job.status, JobStatus::Running);
        assert!(queued.iter().all(|id| pending(&state.jobs[id])));
        assert_eq!(
            state.jobs.values().filter(|j| pending(j)).count(),
            queued.len()
        );
        let stats = state.stats;
        assert_eq!(stats.queued, queued.len() as u64);
        let untagged = queued
            .iter()
            .filter(|id| state.jobs[*id].tenant.is_none())
            .count() as u64;
        let tagged: u64 = state.tenants.values().map(|t| t.queued).sum();
        assert_eq!(stats.queued, tagged + untagged);
        let in_flight = state.jobs.values().filter(|j| running(j)).count() as u64;
        assert_eq!(
            stats.submitted,
            stats.completed + stats.failed + stats.cancelled + stats.queued + in_flight,
            "{stats:?}"
        );
        for (name, tenant) in &state.tenants {
            let in_flight = (state.jobs.values())
                .filter(|j| running(j) && j.tenant.as_deref() == Some(name.as_str()))
                .count() as u64;
            let settled = tenant.completed + tenant.failed + tenant.cancelled;
            assert_eq!(
                tenant.submitted,
                settled + tenant.queued + in_flight,
                "{name}"
            );
        }
        for (id, job) in &state.jobs {
            match (settled.get(id), terminal(&job.status)) {
                (Some(was), now) => assert_eq!(Some(was), now.as_ref(), "job {id} left its end"),
                (None, Some(now)) => {
                    settled.insert(*id, now);
                }
                (None, None) => {}
            }
        }
    }

    #[test]
    fn lifecycle_counters_hold_under_random_steps() {
        // Seeded random walks over the whole lifecycle, no threads: admit
        // (4 kinds × 3 priorities × untagged or 3 tenants, small enough
        // bounds that both rejections happen), cancel (queued, running,
        // settled and unknown ids), claim, settle (ok, error or panic) and
        // close, with every invariant checked after every step.
        let config = ServiceConfig {
            max_queue: 6,
            tenant_max_queued: Some(2),
            ..ServiceConfig::default()
        };
        let tenants = [None, Some("a"), Some("b"), Some("c")];
        let request = QueryRequest::parse("FATAL").unwrap();
        let system = SystemConfig::for_tests();
        let mut rng = proptest::prelude::TestRng::from_name("lifecycle");
        let mut steps = 0;
        let mut seen = [0u64; 6];
        while steps < 10_000 {
            let mut state = State::default();
            let mut wave_stats = ServiceStats::default();
            let mut running: Vec<JobId> = Vec::new();
            let mut settled: HashMap<JobId, String> = HashMap::new();
            for _ in 0..rng.in_range(&(1..300)) {
                steps += 1;
                match rng.below(100) {
                    0..=44 => {
                        let kind = match rng.below(4) {
                            0 => JobKind::Query(Box::new(request.clone())),
                            1 => JobKind::Explain(Box::new(request.clone())),
                            2 => JobKind::Ingest(Box::new(PreparedIngest::build(
                                &system,
                                Cow::Borrowed(b"line\n"),
                            ))),
                            _ => JobKind::Scrub,
                        };
                        let priority = Priority::CLASSES[rng.below(3)];
                        let closed = state.closed;
                        match state.admit(&config, kind, priority, tenants[rng.below(4)]) {
                            Ok(_) => assert!(!closed),
                            Err(SubmitError::Closed) => assert!(closed),
                            Err(SubmitError::Rejected { queue_full, .. }) => {
                                seen[usize::from(queue_full)] += 1;
                            }
                            Err(other) => panic!("unexpected admission error: {other}"),
                        }
                    }
                    45..=64 => {
                        let id = rng.below(state.next_id as usize + 2) as JobId;
                        let before = state
                            .jobs
                            .get(&id)
                            .map(|j| (j.status.clone(), j.cancel.is_some()));
                        let took = state.cancel(id);
                        let after = state.jobs.get(&id).map(|j| j.status.clone());
                        match before {
                            Some((JobStatus::Pending, _)) => {
                                seen[2] += 1;
                                assert!(took && matches!(after, Some(JobStatus::Cancelled)));
                            }
                            Some((JobStatus::Running, query)) => {
                                seen[3] += 1;
                                assert_eq!(took, query, "only a running query can be cancelled");
                                assert!(matches!(after, Some(JobStatus::Running)));
                            }
                            _ => assert!(!took, "a settled or unknown job cannot be cancelled"),
                        }
                    }
                    65..=79 if running.is_empty() => {
                        if let Some(wave) = claim_wave(&mut state, rng.in_range(&(1..4))) {
                            running = wave.ids();
                            assert!(!running.is_empty());
                        }
                    }
                    65..=97 if !running.is_empty() => {
                        let ids = std::mem::take(&mut running);
                        let results = match rng.below(3) {
                            0 => ids
                                .into_iter()
                                .map(|id| (id, Ok(JobOutput::Ingest(IngestReport::default()))))
                                .collect(),
                            1 => fail_all(ids, "device error"),
                            _ => {
                                seen[4] += 1;
                                poisoned(ids, &"injected panic", &mut wave_stats)
                            }
                        };
                        state.settle_wave(results, &wave_stats);
                    }
                    98 | 99 => {
                        seen[5] += 1;
                        state.close();
                    }
                    _ => {}
                }
                check_lifecycle(&state, &mut settled);
            }
            assert_eq!(state.stats.waves_poisoned, wave_stats.waves_poisoned);
        }
        // Every branch the walk is meant to cover was taken.
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
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
