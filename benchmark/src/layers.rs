//! Per-layer costs of the traced run, measured from outside: each layer's
//! public function is replayed over the workload's own stored pages and
//! queries, and timed. The unit costs (per page, per query, per lookup)
//! are what a layer-local optimisation moves; the workloads scale them by
//! the pages each query scanned to attribute a top-level span.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::hint::black_box;

use mithrilog::{MithriLog, PreparedIngest, QueryRequest, SystemConfig};
use mithrilog_compress::{compress_paged, Lzah, LzahScratch};
use mithrilog_filter::{FilterPipeline, HashFilter};
use mithrilog_index::InvertedIndex;
use mithrilog_loggen::DatasetProfile;
use mithrilog_query::{parse, Query};
use mithrilog_storage::{crc32, CostLedger, PageStore, SimSsd};
use mithrilog_tokenizer::Tokenizer;

use crate::report::RunResult;
use crate::trace::{SpanId, Tracer};

/// Page × query pairs the filter replay visits at most; pages are sampled
/// with a fixed stride beyond it, so the replay stays under a second.
const FILTER_REPLAY_PAIRS: usize = 40_000;

/// Cost of one data page on the read path, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageCosts {
    pub read_us: f64,
    pub decode_us: f64,
}

/// Costs of one distinct query outside the page loop, and its filter cost
/// per decoded byte (pages differ in how much text they hold, and a
/// selective plan picks the less compressible ones).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryCosts {
    pub parse_us: f64,
    pub compile_us: f64,
    pub plan_us: f64,
    pub filter_us_per_byte: f64,
}

pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Replays the read path over every data page of `sys`: device read with
/// CRC verification, bare CRC, LZAH decode into a reused scratch, and
/// tokenisation of the decoded text. Returns the per-page costs and the
/// decoded pages.
fn replay_pages<S: PageStore>(
    sys: &MithriLog<S>,
    tracer: &mut Tracer,
    root: SpanId,
    run: &mut RunResult,
) -> (PageCosts, Vec<Vec<u8>>) {
    let pages = sys.data_pages();
    let n = pages.len() as f64;

    let mut reader = sys.device().reader();
    let (read_s, raw) = tracer.timed("storage.read", 0, root, || {
        pages
            .iter()
            .map(|&p| {
                reader
                    .read(p)
                    .expect("a clean device reads every data page")
            })
            .collect::<Vec<_>>()
    });
    run.set("storage.read_us_per_page", read_s * 1e6 / n);
    run.set("storage.retries", reader.ledger().retries as f64);

    let stored_bytes: usize = raw.iter().map(|p| p.len()).sum();
    let (crc_s, _) = tracer.timed("storage.crc", 0, root, || {
        raw.iter().fold(0u32, |acc, p| acc ^ crc32(black_box(p)))
    });
    run.set("storage.crc_mb_per_s", stored_bytes as f64 / 1e6 / crc_s);

    let codec = Lzah::new(sys.config().lzah);
    let mut scratch = LzahScratch::new();
    let (decode_s, decoded_bytes) = tracer.timed("compress.decode", 0, root, || {
        raw.iter()
            .map(|p| {
                let text = codec.decompress_into(black_box(p), &mut scratch);
                text.expect("a clean page decodes").len()
            })
            .sum::<usize>()
    });
    run.set("compress.decode_us_per_page", decode_s * 1e6 / n);
    let decoded: Vec<Vec<u8>> = raw
        .iter()
        .map(|p| {
            codec
                .decompress_into(p, &mut scratch)
                .expect("decodes")
                .to_vec()
        })
        .collect();

    let tokenizer = Tokenizer::new(sys.config().tokenizer.clone());
    let (tok_s, _) = tracer.timed("tokenizer.tokenize", 0, root, || {
        decoded
            .iter()
            .map(|text| {
                tokenizer
                    .tokenize_text(black_box(text))
                    .map(|w| w.len())
                    .sum::<usize>()
            })
            .sum::<usize>()
    });
    run.set(
        "tokenizer.tokenize_mb_per_s",
        decoded_bytes as f64 / 1e6 / tok_s,
    );

    let costs = PageCosts {
        read_us: read_s * 1e6 / n,
        decode_us: decode_s * 1e6 / n,
    };
    (costs, decoded)
}

/// Replays the per-query layers for every distinct query text: parse,
/// filter compile, plan (`explain`, which probes the index for real but
/// scans no data page) and the filter over the decoded pages.
fn replay_queries<S: PageStore>(
    sys: &mut MithriLog<S>,
    texts: &[String],
    decoded: &[Vec<u8>],
    tracer: &mut Tracer,
    root: SpanId,
    run: &mut RunResult,
) -> Vec<QueryCosts> {
    let config = sys.config().clone();
    let stride = (decoded.len() * texts.len())
        .div_ceil(FILTER_REPLAY_PAIRS)
        .max(1);
    let sample: Vec<&Vec<u8>> = decoded.iter().step_by(stride).collect();
    let sample_bytes = sample.iter().map(|p| p.len()).sum::<usize>() as f64;
    let mut costs = Vec::with_capacity(texts.len());
    let (mut planned, mut by_index, mut by_bitmap) = (0u64, 0u64, 0u64);
    let (mut kept, mut scanned) = (0u64, 0u64);
    for (op, text) in texts.iter().enumerate() {
        let op = op as u32;
        let (parse_s, query) = tracer.timed("query.parse", op, root, || parse(black_box(text)));
        let query = query.expect("bank queries parse");
        let (plan_s, explain) = tracer.timed("core.plan", op, root, || {
            sys.explain(&QueryRequest::new(query.clone()))
        });
        let explain = explain.expect("a clean device plans");
        planned += explain.planned_pages;
        by_index += explain.pruned_by_index();
        by_bitmap += explain.pruned_by_bitmap();

        let (compile_s, pipeline) = tracer.timed("filter.compile", op, root, || {
            FilterPipeline::compile_with(&query, config.filter, config.tokenizer.clone())
        });
        // A query too large for the cuckoo table runs in software inside
        // the system; the hardware-filter replay has nothing to time.
        let filter_us_per_byte = pipeline.ok().map_or(0.0, |pipeline| {
            let mut filter = HashFilter::new(pipeline.compiled());
            let mut ranges = Vec::new();
            let (filter_s, _) = tracer.timed("filter.filter", op, root, || {
                for page in &sample {
                    let stats = pipeline.filter_text_with_stats_into(
                        black_box(page),
                        &mut filter,
                        &mut ranges,
                    );
                    kept += stats.lines_kept;
                    scanned += stats.lines_in;
                }
            });
            filter_s * 1e6 / sample_bytes
        });
        costs.push(QueryCosts {
            parse_us: parse_s * 1e6,
            compile_us: compile_s * 1e6,
            plan_us: plan_s * 1e6,
            filter_us_per_byte,
        });
    }
    let n = texts.len() as f64;
    run.set("query.parse_us", mean(costs.iter().map(|c| c.parse_us)));
    run.set("core.plan_us", mean(costs.iter().map(|c| c.plan_us)));
    run.set(
        "filter.compile_us",
        mean(costs.iter().map(|c| c.compile_us)),
    );
    let hardware = costs
        .iter()
        .map(|c| c.filter_us_per_byte)
        .filter(|&c| c > 0.0);
    run.set(
        "filter.filter_us_per_page",
        mean(hardware) * sample_bytes / sample.len() as f64,
    );
    run.set(
        "filter.lines_kept_share",
        kept as f64 / scanned.max(1) as f64,
    );
    run.set("core.pages_planned_per_query", planned as f64 / n);
    run.set("core.pages_pruned_by_index", by_index as f64 / n);
    run.set("core.pages_pruned_by_bitmap", by_bitmap as f64 / n);
    costs
}

/// Replays `InvertedIndex::lookup` for every distinct token the planner
/// would probe for `queries`. `ssd` is a second handle onto the pages
/// `index` lives on (the system under test keeps its own device private
/// while its index is borrowed).
fn replay_index<S: PageStore>(
    index: &InvertedIndex,
    ssd: &mut SimSsd<S>,
    queries: &[Query],
    tracer: &mut Tracer,
    root: SpanId,
    run: &mut RunResult,
) {
    let tokens: BTreeSet<&str> = queries
        .iter()
        .flat_map(|q| q.sets())
        .flat_map(|set| index.probe_selection(set))
        .collect();
    if tokens.is_empty() {
        return;
    }
    let before = *ssd.ledger();
    let (lookup_s, _) = tracer.timed("index.lookup", 0, root, || {
        for token in &tokens {
            black_box(
                index
                    .lookup(ssd, token.as_bytes())
                    .expect("index pages read"),
            );
        }
    });
    let n = tokens.len() as f64;
    run.set("index.lookup_us", lookup_s * 1e6 / n);
    run.set(
        "index.node_reads_per_lookup",
        ssd.ledger().since(&before).pages_read as f64 / n,
    );
}

/// Replays the bare encoder over the ingest batches.
fn replay_encode(
    batches: &[&[u8]],
    config: &SystemConfig,
    tracer: &mut Tracer,
    root: SpanId,
    run: &mut RunResult,
) {
    let raw: usize = batches.iter().map(|b| b.len()).sum();
    let (encode_s, compressed) = tracer.timed("compress.encode", 0, root, || {
        batches
            .iter()
            .map(|b| {
                compress_paged(black_box(b), config.lzah, config.device.page_bytes)
                    .compressed_bytes()
            })
            .sum::<usize>()
    });
    run.set("compress.encode_mb_per_s", raw as f64 / 1e6 / encode_s);
    run.set("compress.ratio", raw as f64 / compressed as f64);
}

/// Ingests `batches` as the two halves the service overlaps —
/// `PreparedIngest::build` (compress + tokenise) and `apply` (device
/// write, index, journal, checkpoint) — each under its own span, and
/// reports their costs with the device-ledger delta `apply` caused.
pub fn traced_ingest<T>(
    target: &mut T,
    config: &SystemConfig,
    batches: &[&[u8]],
    tracer: &mut Tracer,
    run: &mut RunResult,
    apply: impl Fn(&mut T, &PreparedIngest<'_>),
    ledger: impl Fn(&T) -> CostLedger,
) {
    let before = ledger(target);
    let (mut build_ms, mut apply_ms) = (Vec::new(), Vec::new());
    for (op, batch) in batches.iter().enumerate() {
        let op = op as u32;
        let top = tracer.begin("core.ingest", op, crate::trace::ROOT);
        let (build_s, prep) = tracer.timed("core.ingest_build", op, top, || {
            PreparedIngest::build(config, Cow::Borrowed(batch))
        });
        let (apply_s, ()) = tracer.timed("core.ingest_apply", op, top, || apply(target, &prep));
        tracer.end(top);
        build_ms.push(build_s * 1e3);
        apply_ms.push(apply_s * 1e3);
    }
    let written = ledger(target).since(&before);
    let raw_mb = batches.iter().map(|b| b.len()).sum::<usize>() as f64 / 1e6;
    let quarter = (apply_ms.len() / 4).max(1);
    run.set("core.ingest_build_ms", mean(build_ms.iter().copied()));
    run.set("core.ingest_apply_ms", mean(apply_ms.iter().copied()));
    run.set(
        "core.ingest_apply_growth",
        mean(apply_ms[apply_ms.len() - quarter..].iter().copied())
            / mean(apply_ms[..quarter].iter().copied()),
    );
    run.set(
        "storage.pages_written_per_mb",
        written.pages_written as f64 / raw_mb,
    );
    run.set(
        "storage.syncs_per_batch",
        written.syncs as f64 / batches.len() as f64,
    );
}

/// Generates the corpus of a traced run under a `loggen.generate` span.
pub fn traced_corpus(
    profile: DatasetProfile,
    bytes: usize,
    seed: u64,
    tracer: &mut Tracer,
    run: &mut RunResult,
) -> Vec<u8> {
    let (gen_s, text) = tracer.timed("loggen.generate", 0, crate::trace::ROOT, || {
        crate::inputs::corpus(profile, bytes, seed)
    });
    run.set("loggen.generate_s", gen_s);
    text
}

/// The device-ledger metrics of `queries` queries that charged `delta`.
pub fn ledger_metrics(delta: &CostLedger, queries: usize, run: &mut RunResult) {
    let queries = queries as f64;
    run.set(
        "storage.pages_read_per_query",
        delta.pages_read as f64 / queries,
    );
    run.set(
        "core.cache_hit_share",
        delta.cache_hits as f64 / delta.demanded_reads().max(1) as f64,
    );
    run.set(
        "core.cache_bytes_saved_per_query",
        delta.cache_bytes_saved as f64 / queries,
    );
}

/// Every page- and query-level layer replayed over `sys` under one
/// `replay` span: the read path over its data pages, parse / plan /
/// compile / filter for each of `texts`, index lookups through `mirror` (a
/// second handle onto the pages `sys` lives on — the system keeps its own
/// device private while its index is borrowed) and the encoder over
/// `batches`.
pub fn replay_store<S: PageStore, M: PageStore>(
    sys: &mut MithriLog<S>,
    mirror: M,
    texts: &[String],
    batches: &[&[u8]],
    tracer: &mut Tracer,
    run: &mut RunResult,
) -> (PageCosts, Vec<QueryCosts>) {
    let replay = tracer.begin("replay", 0, crate::trace::ROOT);
    let (page, decoded) = replay_pages(sys, tracer, replay, run);
    let costs = replay_queries(sys, texts, &decoded, tracer, replay, run);
    drop(decoded);
    let queries: Vec<Query> = texts
        .iter()
        .map(|t| parse(t).expect("bank queries parse"))
        .collect();
    let mut mirror = SimSsd::new(mirror, sys.config().device);
    replay_index(sys.index(), &mut mirror, &queries, tracer, replay, run);
    replay_encode(batches, sys.config(), tracer, replay, run);
    tracer.end(replay);
    (page, costs)
}
