//! What every workload shares: run parameters, the measurement window, the
//! end-to-end accumulators and the answer check.

use std::path::PathBuf;
use std::time::Instant;

use mithrilog::{MithriLog, QueryOutcome, SystemConfig};
use mithrilog_query::Query;
use mithrilog_storage::PageStore;

use crate::inputs::{self, Answer};
use crate::report::RunResult;
use crate::stats;
use crate::trace::Tracer;

/// Initial-load batch size of the query workloads.
pub const LOAD_BATCH: usize = 1 << 20;
/// Passes (or rounds) every run completes however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub host_cpus: usize,
    /// Client threads / connections: `min(host_cpus, 4)`.
    pub clients: usize,
    /// `SystemConfig::query_threads` of every store: `clients` untraced
    /// (1 on `serve_mixed`, whose callers are its threads), 1 traced (so
    /// self-time arithmetic is exact).
    pub query_threads: usize,
    /// Where traces and scratch stores go (`benchmark/out`).
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn config(&self) -> SystemConfig {
        SystemConfig {
            query_threads: self.query_threads,
            ..SystemConfig::default()
        }
    }
}

/// The timed part of a run: passes start while it is open.
pub struct Window {
    start: Instant,
    seconds: f64,
    pub passes: usize,
}

impl Window {
    pub fn open(seconds: f64) -> Self {
        Window {
            start: Instant::now(),
            seconds,
            passes: 0,
        }
    }

    /// Takes `secs` of untimed preparation back out of the window.
    pub fn exclude(&mut self, secs: f64) {
        self.start += std::time::Duration::from_secs_f64(secs);
    }

    /// Whether another pass should start; counts it when so, and moves
    /// the caller to the next CPU (see [`move_to_cpu`]).
    pub fn next_pass(&mut self) -> bool {
        let go = self.passes < MIN_PASSES || self.start.elapsed().as_secs_f64() < self.seconds;
        if go {
            move_to_cpu(self.passes);
            self.passes += 1;
        }
        go
    }
}

/// Moves the calling thread to the `turn`-th CPU it may run on (modulo how
/// many there are) and then lifts the restriction again, so threads the
/// pass spawns still go wherever the scheduler likes.
///
/// The CPUs of a small virtual machine are not equally fast, and a thread
/// that is alone in its process stays where it was first put: without
/// this, a single-threaded workload measures whichever CPU it happened to
/// land on, and its metrics fall into two clusters a fifth apart.
#[cfg(target_os = "linux")]
fn move_to_cpu(turn: usize) {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16;
    let mut allowed = [0u64; WORDS];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of `bytes` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let cpus: Vec<usize> = (0..WORDS * 64)
        .filter(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect();
    if cpus.len() < 2 {
        return;
    }
    let target = cpus[turn % cpus.len()];
    let mut only = [0u64; WORDS];
    only[target / 64] = 1 << (target % 64);
    // SAFETY: both masks are live buffers of `bytes` bytes the kernel only
    // reads; a refused call leaves the thread where it was, which is fine.
    unsafe {
        sched_setaffinity(0, bytes, only.as_ptr());
        sched_setaffinity(0, bytes, allowed.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
fn move_to_cpu(_turn: usize) {}

/// Builds an unchanging workload's store with `load`, twice: the first
/// load warms the process up (page faults, clock ramp) and only its
/// failures are kept. The workload loads once more after every pass, so
/// that `setup_s` and the ingest metrics sample the whole run: the machine
/// flips between two speeds over seconds, and loads bunched at the start
/// would all see one of them.
pub fn first_setup<T>(e2e: &mut E2e, mut load: impl FnMut(&mut E2e) -> T) -> T {
    let mut warm_up = E2e::default();
    drop(load(&mut warm_up));
    e2e.attempted += warm_up.attempted;
    e2e.failed += warm_up.failed;
    load(e2e)
}

/// End-to-end samples of one run, reduced to the nine metrics at the end.
#[derive(Debug, Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    /// Per-query (or per-wave) latency of the pass under way.
    pub query_ms: Vec<f64>,
    /// Median and 95th percentile of each finished pass.
    pass_p50_ms: Vec<f64>,
    pass_p95_ms: Vec<f64>,
    query_samples: usize,
    /// Correct queries per wall second, one value per pass.
    pub pass_qps: Vec<f64>,
    /// Per-batch ingest latency, submit to acknowledged.
    pub ingest_ms: Vec<f64>,
    /// Raw MB acknowledged per wall second, one value per batch.
    pub ingest_mbps: Vec<f64>,
    pub modeled_us_sum: f64,
    pub modeled_queries: u64,
    pub stored_bytes_per_raw_byte: f64,
    peak_rss_mb: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl E2e {
    /// Counts one operation and whether it went wrong.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one ingested batch of `bytes` acknowledged after `secs`.
    pub fn ingest(&mut self, bytes: usize, secs: f64, ok: bool) {
        self.ingest_ms.push(secs * 1e3);
        self.ingest_mbps.push(bytes as f64 / 1e6 / secs);
        self.op(ok);
    }

    /// Marks the end of a pass or round: reduces its latencies to their
    /// quantiles. Peak memory is read at the end of the first pass: later
    /// ones repeat it, and how many fit in `--seconds` must not move the
    /// metric.
    pub fn pass_done(&mut self) {
        self.peak_rss_mb.get_or_insert_with(peak_rss_mb);
        let lat = stats::sorted(&mut self.query_ms);
        self.pass_p50_ms.push(stats::percentile(lat, 0.50));
        self.pass_p95_ms.push(stats::percentile(lat, 0.95));
        self.query_samples += lat.len();
        self.query_ms.clear();
    }

    pub fn modeled(&mut self, outcome: &QueryOutcome) {
        self.modeled_us_sum += outcome.modeled_time.as_secs_f64() * 1e6;
        self.modeled_queries += 1;
    }

    pub fn finish(mut self, run: &mut RunResult) {
        run.attempted = self.attempted;
        run.failed = self.failed;
        run.set("setup_s", stats::midmean(&mut self.setup_s));
        run.set("queries_per_s", stats::midmean(&mut self.pass_qps));
        run.set("query_p50_ms", stats::midmean(&mut self.pass_p50_ms));
        run.set("query_p95_ms", stats::midmean(&mut self.pass_p95_ms));
        run.set("ingest_mb_per_s", stats::midmean(&mut self.ingest_mbps));
        run.set("ingest_p50_ms", stats::midmean(&mut self.ingest_ms));
        run.set(
            "modeled_us_per_query",
            self.modeled_us_sum / self.modeled_queries as f64,
        );
        run.set("stored_bytes_per_raw_byte", self.stored_bytes_per_raw_byte);
        run.set("peak_rss_mb", self.peak_rss_mb.expect("a pass was run"));
        if stats::supported_tail(self.query_samples).is_none_or(|p| p < 0.95) {
            eprintln!(
                "{}: query_p95_ms rests on {} samples; p95 wants ten beyond it",
                run.workload, self.query_samples
            );
        }
        for name in ["query_p50_ms", "query_p95_ms"] {
            run.samples.insert(name, self.query_samples);
        }
        run.samples.insert("ingest_p50_ms", self.ingest_ms.len());
        run.samples.insert("queries_per_s", self.pass_qps.len());
        run.samples
            .insert("ingest_mb_per_s", self.ingest_mbps.len());
        run.samples.insert("setup_s", self.setup_s.len());
    }
}

/// Ends a traced run: counts its operations into `run` and writes its
/// spans to `out/trace_<workload>.json`.
pub fn finish_traced(ctx: &Ctx, tracer: &Tracer, e2e: &E2e, run: &mut RunResult) {
    run.attempted = e2e.attempted;
    run.failed = e2e.failed;
    let path = ctx.out_dir.join(format!("trace_{}.json", run.workload));
    std::fs::write(&path, tracer.to_json(run.workload))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Device pages × page size ÷ raw bytes ingested: data, index, journal,
/// checkpoints and sidecars all count.
pub fn stored_ratio<'a, S: PageStore + 'a>(devices: impl Iterator<Item = &'a MithriLog<S>>) -> f64 {
    let (mut stored, mut raw) = (0u64, 0u64);
    for d in devices {
        stored += d.device().page_count() * d.device().page_bytes() as u64;
        raw += d.raw_bytes();
    }
    stored as f64 / raw as f64
}

/// The distinct queries of a workload with their oracle answers, and the
/// order one pass issues them in.
pub struct QuerySet {
    pub queries: Vec<Query>,
    pub texts: Vec<String>,
    pub answers: Vec<Answer>,
    pub order: Vec<usize>,
}

impl QuerySet {
    /// `queries` checked by the oracle over `text`, issued `ops` times per
    /// pass in a seeded order.
    pub fn new(
        queries: Vec<Query>,
        text: &[u8],
        ops: usize,
        rng: &mut mithrilog_query::batch::SplitMix64,
    ) -> Self {
        assert!(!queries.is_empty(), "the bank left no query to send");
        QuerySet {
            texts: queries.iter().map(Query::to_string).collect(),
            answers: inputs::oracle(text, &queries, &[]),
            order: inputs::op_order(queries.len(), ops, rng),
            queries,
        }
    }

    pub fn digest(&self) -> u64 {
        inputs::op_list_digest(self.order.iter().map(|&i| self.texts[i].as_str()))
    }
}

/// Whether `outcome` is the answer the oracle gave. The line count is
/// compared on every call; the digest of the returned lines only when
/// `full` (once per distinct query, outside timed regions).
pub fn correct(outcome: &QueryOutcome, want: &Answer, full: bool) -> bool {
    !outcome.degraded.is_lossy()
        && outcome.lines.len() as u64 == want.lines
        && (!full || Answer::of(outcome.lines.iter().map(String::as_str)) == *want)
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}
