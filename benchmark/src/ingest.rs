//! `ingest_stream`: rounds of a fresh file-backed store fed Spirit2 as
//! 512 KB line-aligned batches by one caller, each batch committed with the
//! store's own two-barrier `sync_all` protocol. After a round the store is
//! dropped, reopened with `MithriLog::open`, queried, and checked to hold
//! every acknowledged line.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mithrilog::{MithriLog, SystemConfig};
use mithrilog_loggen::DatasetProfile;
use mithrilog_query::batch::SplitMix64;
use mithrilog_query::parse;
use mithrilog_storage::FileStore;

use crate::harness::{self, timed, Ctx, E2e, QuerySet, Window};
use crate::inputs::{self, MB};
use crate::layers;
use crate::report::RunResult;
use crate::scan;
use crate::trace::Tracer;

pub const NAME: &str = "ingest_stream";
const PROFILE: DatasetProfile = DatasetProfile::Spirit2;
const BYTES: usize = 16 * MB;
const BATCH: usize = 512 * 1024;
const DISTINCT: usize = 32;
const OPS: usize = 64;
/// Matches every line that lacks a token no generated corpus holds: the
/// durability check reads back every acknowledged line through it.
const EVERY_LINE: &str = "NOT bench-e2e-absent-token";

/// A scratch directory under `out/`, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(ctx: &Ctx) -> Self {
        let dir = ctx.out_dir.join(format!("tmp.{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Drops `sys`, reopens the store and checks recovery lost nothing.
fn reopen(
    sys: MithriLog<FileStore>,
    path: &Path,
    config: &SystemConfig,
    lines: u64,
    e2e: &mut E2e,
) -> MithriLog<FileStore> {
    drop(sys);
    let (sys, report) = MithriLog::open(path, config.clone()).expect("a committed store reopens");
    e2e.op(report.lines_recovered == lines && report.uncommitted_pages_discarded == 0);
    sys
}

/// The selective bank queries, plus [`EVERY_LINE`] last, which only the
/// check sends.
fn query_set(ctx: &Ctx, text: &[u8]) -> QuerySet {
    let mut queries = inputs::selective(text, DISTINCT, inputs::WIDEST);
    let sent = queries.len();
    queries.push(parse(EVERY_LINE).expect("fixed query"));
    let mut rng = SplitMix64::new(ctx.seed);
    let mut set = QuerySet::new(queries, text, 0, &mut rng);
    set.order = inputs::op_order(sent, OPS, &mut rng);
    set
}

/// The full answer check of every distinct query, and of every line.
fn check(
    sys: &mut MithriLog<FileStore>,
    set: &QuerySet,
    lines: u64,
    e2e: &mut E2e,
) -> Vec<scan::Scanned> {
    let pages = scan::check_pass(sys, set, e2e);
    let every = set.answers.last().expect("EVERY_LINE is last");
    e2e.op(every.lines == lines);
    pages
}

pub fn run(ctx: &Ctx) -> RunResult {
    let mut run = RunResult::new(NAME, ctx.seed, ctx.trace);
    let mut e2e = E2e::default();
    let scratch = Scratch::new(ctx);
    let config = ctx.config();
    if ctx.trace {
        return run_traced(ctx, &scratch.0, &config, run, e2e);
    }
    let mut tracer = Tracer::new(false);
    let mut set: Option<QuerySet> = None;
    let mut window = Window::open(ctx.seconds);
    while window.next_pass() {
        let path = scratch.0.join(format!("round{}.store", window.passes));
        let start = Instant::now();
        let text = inputs::corpus(PROFILE, BYTES, ctx.seed);
        let mut sys = MithriLog::create(&path, config.clone()).expect("scratch store");
        e2e.setup_s.push(start.elapsed().as_secs_f64());

        for batch in inputs::line_batches(&text, BATCH) {
            let (secs, report) = timed(|| sys.ingest(batch));
            e2e.ingest(batch.len(), secs, report.is_ok());
        }
        e2e.stored_bytes_per_raw_byte = harness::stored_ratio(std::iter::once(&sys));

        let lines = sys.lines();
        let mut sys = reopen(sys, &path, &config, lines, &mut e2e);
        let set = set.get_or_insert_with(|| {
            let (secs, set) = timed(|| query_set(ctx, &text));
            window.exclude(secs);
            set
        });
        run.op_digest = set.digest();
        let qps = scan::query_pass(&mut sys, set, &mut tracer, &mut e2e);
        e2e.pass_qps.push(qps);
        check(&mut sys, set, lines, &mut e2e);
        drop(sys);
        let _ = std::fs::remove_file(&path);
        e2e.pass_done();
    }
    e2e.finish(&mut run);
    run
}

fn run_traced(
    ctx: &Ctx,
    dir: &Path,
    config: &SystemConfig,
    mut run: RunResult,
    mut e2e: E2e,
) -> RunResult {
    let mut tracer = Tracer::new(true);
    let text = layers::traced_corpus(PROFILE, BYTES, ctx.seed, &mut tracer, &mut run);
    let path = dir.join("traced.store");
    let mut sys = MithriLog::create(&path, config.clone()).expect("scratch store");
    let batches = inputs::line_batches(&text, BATCH);
    layers::traced_ingest(
        &mut sys,
        config,
        &batches,
        &mut tracer,
        &mut run,
        |sys, prep| {
            sys.apply_ingest(prep).expect("a clean device ingests");
        },
        |sys| *sys.device().ledger(),
    );
    let lines = sys.lines();
    let mut sys = reopen(sys, &path, config, lines, &mut e2e);
    let set = query_set(ctx, &text);
    run.op_digest = set.digest();
    let pages_scanned = check(&mut sys, &set, lines, &mut e2e);
    let traced = scan::traced_passes(&mut sys, &set, &mut tracer, &mut e2e, &mut run);

    let mirror = FileStore::open(&path).expect("a second handle onto the store");
    let sent = &set.texts[..set.texts.len() - 1];
    let (page, costs) =
        layers::replay_store(&mut sys, mirror, sent, &batches, &mut tracer, &mut run);
    scan::attribute(&traced, &pages_scanned, page, &costs, &mut run);

    harness::finish_traced(ctx, &tracer, &e2e, &mut run);
    run
}
