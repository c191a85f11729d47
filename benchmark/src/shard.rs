//! `shard_scatter`: one caller issuing two-request waves of high-match
//! queries through `ShardedLog::query_shared`. The only workload where
//! scatter, the k-way ordinal merge and bulk line materialisation carry
//! the cost.

use std::time::Instant;

use mithrilog::{QueryRequest, SharedBatchOutcome};
use mithrilog_loggen::DatasetProfile;
use mithrilog_query::batch::SplitMix64;
use mithrilog_query::parse;
use mithrilog_shard::{RouteMode, ShardError, ShardOptions, ShardedLog};
use mithrilog_storage::{CostLedger, MemStore};

use crate::harness::{self, correct, timed, Ctx, E2e, QuerySet, Window, LOAD_BATCH};
use crate::inputs::{self, MB};
use crate::layers::{self, mean};
use crate::report::RunResult;
use crate::scan;
use crate::trace::{Tracer, ROOT};

pub const NAME: &str = "shard_scatter";
const PROFILE: DatasetProfile = DatasetProfile::Bgl2;
const BYTES: usize = 4 * MB;
/// Between 45 % and 75 % of all lines match each of these.
const QUERIES: [&str; 3] = ["NOT FATAL", "KERNEL", "error OR failed OR FATAL"];
/// The distinct waves: every pair of the three queries.
const WAVES: [[usize; 2]; 3] = [[0, 1], [2, 0], [1, 2]];
const WAVES_PER_PASS: usize = 24;
/// Times each distinct wave is replayed, whole and shard by shard.
const REPLAYS: usize = 4;

fn new_store(ctx: &Ctx) -> ShardedLog<MemStore> {
    // One worker per shard: parallelism, where there is any, comes from
    // the scatter and not from inside a device.
    let mut config = ctx.config();
    config.query_threads = 1;
    ShardedLog::new(
        config,
        ShardOptions {
            shards: ctx.clients as u32,
            mode: RouteMode::LineHash,
            salt: 42,
        },
    )
}

fn load(ctx: &Ctx, e2e: &mut E2e) -> (Vec<u8>, ShardedLog<MemStore>) {
    let start = Instant::now();
    let text = inputs::corpus(PROFILE, BYTES, ctx.seed);
    let mut store = new_store(ctx);
    for batch in inputs::line_batches(&text, LOAD_BATCH) {
        let (secs, report) = timed(|| store.ingest(batch));
        e2e.ingest(batch.len(), secs, report.is_ok());
    }
    e2e.setup_s.push(start.elapsed().as_secs_f64());
    (text, store)
}

/// The three fixed queries with their oracle answers; `order` indexes
/// [`WAVES`].
fn query_set(ctx: &Ctx, text: &[u8]) -> QuerySet {
    let queries = QUERIES
        .iter()
        .map(|q| parse(q).expect("fixed query"))
        .collect();
    let mut set = QuerySet::new(queries, text, 0, &mut SplitMix64::new(ctx.seed));
    set.order = inputs::op_order(WAVES.len(), WAVES_PER_PASS, &mut SplitMix64::new(ctx.seed));
    set
}

fn op_digest(set: &QuerySet) -> u64 {
    let waves: Vec<String> = set
        .order
        .iter()
        .map(|&w| format!("{} | {}", QUERIES[WAVES[w][0]], QUERIES[WAVES[w][1]]))
        .collect();
    inputs::op_list_digest(waves.iter().map(String::as_str))
}

fn requests(set: &QuerySet, wave: usize) -> Result<Vec<QueryRequest>, ShardError> {
    WAVES[wave]
        .iter()
        .map(|&q| QueryRequest::parse(&set.texts[q]).map_err(|e| ShardError::Config(e.to_string())))
        .collect()
}

/// Sends one wave and checks both answers.
fn send(
    store: &mut ShardedLog<MemStore>,
    set: &QuerySet,
    wave: usize,
    full: bool,
    e2e: &mut E2e,
) -> Option<SharedBatchOutcome> {
    let batch = requests(set, wave)
        .and_then(|reqs| store.query_shared(&reqs))
        .ok();
    for (slot, &q) in WAVES[wave].iter().enumerate() {
        let outcome = batch.as_ref().map(|b| &b.outcomes[slot]);
        e2e.op(outcome.is_some_and(|o| correct(o, &set.answers[q], full)));
    }
    batch
}

/// Sends `wave` as op `op`, timed; returns its latency in ms and, unless
/// it failed outright, its outcomes.
fn one_wave(
    store: &mut ShardedLog<MemStore>,
    set: &QuerySet,
    (op, wave): (usize, usize),
    tracer: &mut Tracer,
    e2e: &mut E2e,
) -> (f64, Option<SharedBatchOutcome>) {
    let (secs, batch) = tracer.timed("shard.query_shared", op as u32, ROOT, || {
        send(store, set, wave, false, e2e)
    });
    e2e.query_ms.push(secs * 1e3);
    if let Some(batch) = &batch {
        batch.outcomes.iter().for_each(|o| e2e.modeled(o));
    }
    (secs * 1e3, batch)
}

/// One pass of waves; returns correct queries per wall second.
fn wave_pass(
    store: &mut ShardedLog<MemStore>,
    set: &QuerySet,
    tracer: &mut Tracer,
    e2e: &mut E2e,
) -> f64 {
    let start = Instant::now();
    let failed_before = e2e.failed;
    for (op, &wave) in set.order.iter().enumerate() {
        one_wave(store, set, (op, wave), tracer, e2e);
    }
    let good = (2 * set.order.len()) as u64 - (e2e.failed - failed_before);
    good as f64 / start.elapsed().as_secs_f64()
}

/// The shards' device ledgers, summed.
pub fn ledger(store: &ShardedLog<MemStore>) -> CostLedger {
    let mut sum = CostLedger::default();
    (0..store.shard_count()).for_each(|i| sum.merge(store.shard(i).device().ledger()));
    sum
}

pub fn run(ctx: &Ctx) -> RunResult {
    let mut run = RunResult::new(NAME, ctx.seed, ctx.trace);
    let mut e2e = E2e::default();
    if ctx.trace {
        return run_traced(ctx, run, e2e);
    }
    let (text, mut store) = harness::first_setup(&mut e2e, |e2e| load(ctx, e2e));
    let set = query_set(ctx, &text);
    run.op_digest = op_digest(&set);
    for wave in 0..WAVES.len() {
        send(&mut store, &set, wave, true, &mut e2e);
    }

    let mut tracer = Tracer::new(false);
    let mut window = Window::open(ctx.seconds);
    while window.next_pass() {
        let qps = wave_pass(&mut store, &set, &mut tracer, &mut e2e);
        e2e.pass_qps.push(qps);
        e2e.pass_done();
        drop(load(ctx, &mut e2e));
    }
    e2e.stored_bytes_per_raw_byte =
        harness::stored_ratio((0..store.shard_count()).map(|i| store.shard(i)));
    e2e.finish(&mut run);
    run
}

fn run_traced(ctx: &Ctx, mut run: RunResult, mut e2e: E2e) -> RunResult {
    let mut tracer = Tracer::new(true);
    let text = layers::traced_corpus(PROFILE, BYTES, ctx.seed, &mut tracer, &mut run);
    let mut store = new_store(ctx);
    let config = store.config().clone();
    let batches = inputs::line_batches(&text, LOAD_BATCH);
    layers::traced_ingest(
        &mut store,
        &config,
        &batches,
        &mut tracer,
        &mut run,
        |store, prep| {
            store
                .apply_prepared(None, prep)
                .expect("clean devices ingest");
        },
        ledger,
    );
    let set = query_set(ctx, &text);
    run.op_digest = op_digest(&set);
    for wave in 0..WAVES.len() {
        send(&mut store, &set, wave, true, &mut e2e);
    }

    // Two passes in which every wave runs twice back to back, traced and
    // untraced in alternating order, so drift cancels inside each pair.
    let (mut traced_ms, mut untraced_ms, mut model_to_wall) = (Vec::new(), Vec::new(), Vec::new());
    let before = ledger(&store);
    for pass in 0..2 {
        for (op, &wave) in set.order.iter().enumerate() {
            let traced_first = (op + pass) % 2 == 0;
            for traced in [traced_first, !traced_first] {
                tracer.set_enabled(traced);
                let (ms, batch) = one_wave(&mut store, &set, (op, wave), &mut tracer, &mut e2e);
                let Some(batch) = batch else { continue };
                if traced {
                    traced_ms.push(ms);
                    let modeled = batch.outcomes.iter().map(|o| o.modeled_time.as_secs_f64());
                    model_to_wall.push(modeled.fold(0.0, f64::max) * 1e3 / ms);
                } else {
                    untraced_ms.push(ms);
                }
            }
        }
    }
    tracer.set_enabled(true);
    let delta = ledger(&store).since(&before);
    layers::ledger_metrics(&delta, 4 * 2 * set.order.len(), &mut run);
    run.set(
        "sim.model_to_wall_ratio",
        mean(model_to_wall.iter().copied()),
    );
    run.set("shard.query_shared_ms", mean(traced_ms.iter().copied()));
    run.samples.insert("shard.query_shared_ms", traced_ms.len());
    run.set(
        "trace.overhead_share",
        scan::overhead_share(&traced_ms, &untraced_ms),
    );

    // Each distinct wave sent whole and then to each shard alone, back to
    // back (so drift cancels): what the scatter adds to, or saves from,
    // the sum of its shards.
    let replay = tracer.begin("replay", 0, ROOT);
    let shards = store.shard_count();
    let (mut overlap, mut merge_ms) = (Vec::new(), Vec::new());
    let mut pages = vec![0u64; shards];
    for wave in 0..WAVES.len() {
        let reqs = requests(&set, wave).expect("fixed queries parse");
        let op = wave as u32;
        for _ in 0..REPLAYS {
            let (whole_s, batch) = tracer.timed("shard.query_shared", op, replay, || {
                store.query_shared(&reqs)
            });
            batch.expect("clean shards answer");
            let mut shard_sum_s = 0.0;
            for (i, shard_pages) in pages.iter_mut().enumerate() {
                let (secs, batch) = tracer.timed("shard.shard_query", op, replay, || {
                    store.shard_mut(i).query_shared(&reqs)
                });
                let batch = batch.expect("a clean shard answers");
                *shard_pages += batch.outcomes.iter().map(|o| o.pages_scanned).sum::<u64>();
                shard_sum_s += secs;
            }
            overlap.push(shard_sum_s / whole_s);
            merge_ms.push((whole_s - shard_sum_s) * 1e3);
        }
    }
    run.set("shard.scatter_overlap", mean(overlap.into_iter()));
    run.set("shard.merge_self_ms", mean(merge_ms.into_iter()));
    let max_pages = pages.iter().copied().max().unwrap_or(0) as f64;
    run.set(
        "shard.page_skew",
        max_pages * shards as f64 / pages.iter().sum::<u64>().max(1) as f64,
    );

    tracer.end(replay);

    // The page- and query-level layers, replayed over shard 0's pages.
    let mirror = store.shard(0).device().store().clone();
    let shard0 = store.shard_mut(0);
    layers::replay_store(shard0, mirror, &set.texts, &batches, &mut tracer, &mut run);

    harness::finish_traced(ctx, &tracer, &e2e, &mut run);
    run
}
