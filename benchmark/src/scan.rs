//! `scan_cold` and `probe_warm`: one caller querying an in-process
//! `MithriLog<MemStore>`. The two differ only in corpus, cache size and
//! which bank queries they send — so one stresses the page path (read,
//! CRC, decode, tokenise, filter) and the other the planning path (parse,
//! plan, index probes, bitmap pruning, result assembly).

use std::time::Instant;

use mithrilog::{MithriLog, QueryOutcome, SystemConfig};
use mithrilog_loggen::DatasetProfile;
use mithrilog_query::batch::SplitMix64;
use mithrilog_storage::{MemStore, PageStore};

use crate::harness::{self, correct, timed, Ctx, E2e, QuerySet, Window, LOAD_BATCH};
use crate::inputs::{self, Class, MB};
use crate::layers::{self, mean, PageCosts, QueryCosts};
use crate::report::RunResult;
use crate::stats;
use crate::trace::{Tracer, ROOT};

pub struct Spec {
    pub name: &'static str,
    pub profile: DatasetProfile,
    pub bytes: usize,
    /// `page_cache_bytes`; `None` keeps the 32 MiB default.
    pub cache_bytes: Option<u64>,
    pub class: Class,
    /// Distinct queries at most.
    pub distinct: usize,
    /// Ops in one pass.
    pub ops: usize,
}

/// Bgl2 8 MB against a 4 MiB cache: the working set is twice the cache
/// and scans are cyclic, so no page is ever served from it.
pub const SCAN_COLD: Spec = Spec {
    name: "scan_cold",
    profile: DatasetProfile::Bgl2,
    bytes: 8 * MB,
    cache_bytes: Some(4 << 20),
    class: Class::FullScan,
    distinct: 32,
    ops: 32,
};

/// Liberty2 16 MB in the default 32 MiB cache: every page arrives decoded.
pub const PROBE_WARM: Spec = Spec {
    name: "probe_warm",
    profile: DatasetProfile::Liberty2,
    bytes: 16 * MB,
    cache_bytes: None,
    class: Class::Selective,
    distinct: 48,
    ops: 192,
};

fn config(ctx: &Ctx, spec: &Spec) -> SystemConfig {
    let mut config = ctx.config();
    if let Some(bytes) = spec.cache_bytes {
        config.page_cache_bytes = bytes;
    }
    config
}

/// Sends query `i` as op `op`: timed, counted and checked by line count.
/// Returns its latency in ms and, unless it failed outright, its outcome.
fn one_query<S: PageStore>(
    sys: &mut MithriLog<S>,
    set: &QuerySet,
    (op, i): (usize, usize),
    tracer: &mut Tracer,
    e2e: &mut E2e,
) -> (f64, Option<QueryOutcome>) {
    let (secs, outcome) = tracer.timed("core.query", op as u32, ROOT, || {
        sys.query_str(&set.texts[i])
    });
    e2e.query_ms.push(secs * 1e3);
    e2e.op(outcome
        .as_ref()
        .is_ok_and(|o| correct(o, &set.answers[i], false)));
    if let Ok(outcome) = &outcome {
        e2e.modeled(outcome);
    }
    (secs * 1e3, outcome.ok())
}

/// One pass over `set.order`. Returns correct queries per wall second.
pub fn query_pass<S: PageStore>(
    sys: &mut MithriLog<S>,
    set: &QuerySet,
    tracer: &mut Tracer,
    e2e: &mut E2e,
) -> f64 {
    let start = Instant::now();
    let failed_before = e2e.failed;
    for (op, &i) in set.order.iter().enumerate() {
        one_query(sys, set, (op, i), tracer, e2e);
    }
    let good = set.order.len() as u64 - (e2e.failed - failed_before);
    good as f64 / start.elapsed().as_secs_f64()
}

/// Pages a query scanned and the decoded bytes it filtered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scanned {
    pub pages: u64,
    pub bytes: u64,
}

/// Runs every distinct query once, untimed: the full answer check (line
/// count and digest against the oracle) and the warm-up. Returns what each
/// query scanned.
pub fn check_pass<S: PageStore>(
    sys: &mut MithriLog<S>,
    set: &QuerySet,
    e2e: &mut E2e,
) -> Vec<Scanned> {
    set.texts
        .iter()
        .zip(&set.answers)
        .map(|(text, want)| {
            let outcome = sys.query_str(text);
            e2e.op(outcome.as_ref().is_ok_and(|o| correct(o, want, true)));
            outcome.map_or(Scanned::default(), |o| Scanned {
                pages: o.pages_scanned,
                bytes: o.bytes_filtered,
            })
        })
        .collect()
}

/// Median of `traced[i] / untraced[i] - 1` over ops issued in the same
/// order with tracing on and off.
pub fn overhead_share(traced: &[f64], untraced: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = traced.iter().zip(untraced).map(|(t, u)| t / u).collect();
    stats::median(&mut ratios) - 1.0
}

/// What the traced passes of a `MithriLog` workload measured.
pub struct TracedOps {
    /// `(distinct query, span ms)` of every traced op.
    pub ops: Vec<(usize, f64)>,
    /// Share of the data pages scanned that the page cache did not hold.
    pub miss_share: f64,
}

/// Two passes in which every op runs twice back to back, traced and
/// untraced in alternating order (so drift cancels inside each pair), and
/// the device-ledger metrics of the two.
pub fn traced_passes<S: PageStore>(
    sys: &mut MithriLog<S>,
    set: &QuerySet,
    tracer: &mut Tracer,
    e2e: &mut E2e,
    run: &mut RunResult,
) -> TracedOps {
    let mut out = TracedOps {
        ops: Vec::new(),
        miss_share: 0.0,
    };
    let (mut untraced_ms, mut model_to_wall) = (Vec::new(), Vec::new());
    let mut pages_scanned = 0u64;
    let before = *sys.device().ledger();
    for pass in 0..2 {
        for (op, &i) in set.order.iter().enumerate() {
            let traced_first = (op + pass) % 2 == 0;
            for traced in [traced_first, !traced_first] {
                tracer.set_enabled(traced);
                let (ms, outcome) = one_query(sys, set, (op, i), tracer, e2e);
                let Some(outcome) = outcome else { continue };
                pages_scanned += outcome.pages_scanned;
                if traced {
                    out.ops.push((i, ms));
                    model_to_wall.push(outcome.modeled_time.as_secs_f64() * 1e3 / ms);
                } else {
                    untraced_ms.push(ms);
                }
            }
        }
    }
    tracer.set_enabled(true);
    let ledger = sys.device().ledger().since(&before);
    layers::ledger_metrics(&ledger, 4 * set.order.len(), run);
    run.set("sim.model_to_wall_ratio", mean(model_to_wall.into_iter()));
    let traced_ms: Vec<f64> = out.ops.iter().map(|o| o.1).collect();
    run.set(
        "trace.overhead_share",
        overhead_share(&traced_ms, &untraced_ms),
    );
    // Index node reads are device reads too, but only data pages can hit.
    out.miss_share = 1.0 - ledger.cache_hits as f64 / pages_scanned.max(1) as f64;
    out
}

/// `core.query_ms` and what of it the replayed layer costs do not explain.
pub fn attribute(
    traced: &TracedOps,
    scanned: &[Scanned],
    page: PageCosts,
    queries: &[QueryCosts],
    run: &mut RunResult,
) {
    let self_ms = traced.ops.iter().map(|&(i, ms)| {
        let (q, s) = (&queries[i], &scanned[i]);
        let fetch_us = s.pages as f64 * traced.miss_share * (page.read_us + page.decode_us);
        let filter_us = s.bytes as f64 * q.filter_us_per_byte;
        ms - (q.parse_us + q.compile_us + q.plan_us + fetch_us + filter_us) / 1e3
    });
    run.set("core.exec_self_ms", mean(self_ms));
    run.set("core.query_ms", mean(traced.ops.iter().map(|o| o.1)));
    run.samples.insert("core.query_ms", traced.ops.len());
}

/// Generates the corpus and loads it into a fresh store in 1 MB batches.
fn load(ctx: &Ctx, spec: &Spec, e2e: &mut E2e) -> (Vec<u8>, MithriLog<MemStore>) {
    let start = Instant::now();
    let text = inputs::corpus(spec.profile, spec.bytes, ctx.seed);
    let mut sys = MithriLog::new(config(ctx, spec));
    for batch in inputs::line_batches(&text, LOAD_BATCH) {
        let (secs, report) = timed(|| sys.ingest(batch));
        e2e.ingest(batch.len(), secs, report.is_ok());
    }
    e2e.setup_s.push(start.elapsed().as_secs_f64());
    (text, sys)
}

/// The workload's distinct queries with their oracle answers, in the
/// seed's order.
fn query_set(ctx: &Ctx, spec: &Spec, text: &[u8]) -> QuerySet {
    let queries = match spec.class {
        Class::FullScan => {
            let mut queries = inputs::bank(spec.profile).full_scan;
            queries.truncate(spec.distinct);
            queries
        }
        Class::Selective => inputs::selective(text, spec.distinct, inputs::WIDEST),
    };
    QuerySet::new(queries, text, spec.ops, &mut SplitMix64::new(ctx.seed))
}

pub fn run(ctx: &Ctx, spec: &Spec) -> RunResult {
    let mut run = RunResult::new(spec.name, ctx.seed, ctx.trace);
    let mut e2e = E2e::default();
    if ctx.trace {
        return run_traced(ctx, spec, run, e2e);
    }
    let (text, mut sys) = harness::first_setup(&mut e2e, |e2e| load(ctx, spec, e2e));
    let set = query_set(ctx, spec, &text);
    run.op_digest = set.digest();
    check_pass(&mut sys, &set, &mut e2e);

    let mut tracer = Tracer::new(false);
    let mut window = Window::open(ctx.seconds);
    while window.next_pass() {
        let qps = query_pass(&mut sys, &set, &mut tracer, &mut e2e);
        e2e.pass_qps.push(qps);
        e2e.pass_done();
        drop(load(ctx, spec, &mut e2e));
    }
    e2e.stored_bytes_per_raw_byte = harness::stored_ratio(std::iter::once(&sys));
    e2e.finish(&mut run);
    run
}

fn run_traced(ctx: &Ctx, spec: &Spec, mut run: RunResult, mut e2e: E2e) -> RunResult {
    let mut tracer = Tracer::new(true);
    let text = layers::traced_corpus(spec.profile, spec.bytes, ctx.seed, &mut tracer, &mut run);
    let config = config(ctx, spec);
    let batches = inputs::line_batches(&text, LOAD_BATCH);
    let mut sys = MithriLog::new(config.clone());
    layers::traced_ingest(
        &mut sys,
        &config,
        &batches,
        &mut tracer,
        &mut run,
        |sys, prep| {
            sys.apply_ingest(prep).expect("a clean device ingests");
        },
        |sys| *sys.device().ledger(),
    );
    let set = query_set(ctx, spec, &text);
    run.op_digest = set.digest();
    let pages_scanned = check_pass(&mut sys, &set, &mut e2e);
    let traced = traced_passes(&mut sys, &set, &mut tracer, &mut e2e, &mut run);

    let mirror = sys.device().store().clone();
    let (page, costs) = layers::replay_store(
        &mut sys,
        mirror,
        &set.texts,
        &batches,
        &mut tracer,
        &mut run,
    );
    attribute(&traced, &pages_scanned, page, &costs, &mut run);

    harness::finish_traced(ctx, &tracer, &e2e, &mut run);
    run
}
