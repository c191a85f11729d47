//! Design-choice ablations (datapath width, cuckoo placement, LZAH
//! newline realignment, index node sizing, near-storage placement) and the
//! model rows of wave planning, shard scaling and pipeline scaling.

use mithrilog::{MithriLog, QueryRequest, SystemConfig};
use mithrilog_compress::{Codec, Lzah, LzahConfig};
use mithrilog_filter::{CuckooTable, TokenHasher};
use mithrilog_index::{IndexParams, InvertedIndex};
use mithrilog_loggen::DatasetProfile;
use mithrilog_shard::{RouteMode, ShardOptions, ShardedLog};
use mithrilog_sim::{AcceleratorConfig, DatasetInputs, ThroughputModel, MITHRILOG_PLATFORM};
use mithrilog_storage::{DevicePerfModel, Link, MemStore, PageId, SimSsd};
use mithrilog_tokenizer::{DatapathStats, TokenizerConfig};

use crate::paper::model_inputs;
use crate::registry::ensure;
use crate::{f2, num, Args, TableReport};

/// Word widths swept by the datapath ablation; the paper picked 16 bytes.
const WIDTHS: [usize; 3] = [8, 16, 32];

/// Datapath width (§7.4.1): useful-bit share, amplification and the hash
/// filters needed per pipeline at 8, 16 and 32 bytes.
pub fn ablate_datapath(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    let mut rows = Vec::new();
    for ds in args.datasets() {
        for width in WIDTHS {
            let stats = DatapathStats::of_text(&TokenizerConfig::with_word_bytes(width), ds.text());
            let amp = stats.amplification();
            rows.push(vec![
                ds.name().to_string(),
                format!("{width} B"),
                format!("{:.1}%", stats.useful_ratio() * 100.0),
                format!("{amp:.2}x"),
                // One word per cycle at 200 MHz.
                f2(width as f64 * 0.2),
                // Hash filters that absorb the tokenized stream at wire speed.
                (amp.ceil() as usize).to_string(),
            ]);
        }
    }
    r.table(
        "Datapath width ablation",
        "Dataset | Width | Useful bits | Amplification | GB/s per pipeline | Hash filters needed",
        rows,
    );
    r
}

/// Wider words waste more of the datapath on padding.
pub fn ablate_datapath_shape(r: &TableReport) -> Result<(), String> {
    let useful = r.tables[0].column("Useful bits");
    let falls = |d: &[f64]| d.windows(2).all(|w| w[1] < w[0]);
    ensure(useful.chunks(WIDTHS.len()).all(falls), || {
        format!("useful bits {useful:?} do not fall with width")
    })
}

/// Cuckoo versus single-hash placement (§4.2.1): success probability
/// over 200 random token sets per load on a 256-row table.
pub fn ablate_cuckoo(_: &Args) -> TableReport {
    const ROWS: usize = 256;
    const TRIALS: usize = 200;
    let mut r = TableReport::default();
    let mut rows = Vec::new();
    for load_pct in [25usize, 40, 50, 60, 75, 90] {
        let n = ROWS * load_pct / 100;
        let (mut cuckoo_ok, mut single_ok) = (0, 0);
        for trial in 0..TRIALS {
            let tokens: Vec<String> = (0..n).map(|i| format!("trial{trial}-token{i}")).collect();
            let mut table = CuckooTable::new(ROWS, 16);
            cuckoo_ok += usize::from(
                tokens
                    .iter()
                    .all(|t| table.insert(t.as_bytes(), 0, false).is_ok()),
            );
            // A single-hash table fails on the first row collision.
            let hasher = TokenHasher::new(ROWS);
            let mut used = vec![false; ROWS];
            single_ok += usize::from(
                tokens
                    .iter()
                    .all(|t| !std::mem::replace(&mut used[hasher.h1(t.as_bytes())], true)),
            );
        }
        let pct = |ok: usize| format!("{:.1}%", ok as f64 / TRIALS as f64 * 100.0);
        rows.push(vec![
            format!("{load_pct}%"),
            n.to_string(),
            pct(cuckoo_ok),
            pct(single_ok),
        ]);
    }
    r.table(
        "Placement success probability (256 rows, 200 trials per load)",
        "Load | Tokens | Cuckoo | Single-hash",
        rows,
    );
    r
}

/// At the paper's 0.5 provisioning cuckoo placement almost always
/// succeeds, and it never does worse than a single hash.
pub fn ablate_cuckoo_shape(r: &TableReport) -> Result<(), String> {
    let t = &r.tables[0];
    let (load, cuckoo) = (t.column("Load"), t.column("Cuckoo"));
    let single = t.column("Single-hash");
    for i in 0..load.len() {
        ensure(cuckoo[i] >= single[i], || {
            format!("single-hash beats cuckoo at {}% load", load[i])
        })?;
        ensure(load[i] > 50.0 || cuckoo[i] >= 80.0, || {
            format!("cuckoo succeeds only {}% at {}% load", cuckoo[i], load[i])
        })?;
    }
    Ok(())
}

/// LZAH newline realignment (§5): whole-file ratio with and without it.
pub fn ablate_lzah_newline(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    let with = Lzah::new(LzahConfig::default());
    let without = Lzah::new(LzahConfig {
        newline_realign: false,
        ..LzahConfig::default()
    });
    let rows = args
        .datasets()
        .iter()
        .map(|ds| {
            let (on, off) = (with.ratio(ds.text()), without.ratio(ds.text()));
            vec![
                ds.name().to_string(),
                format!("{}x", f2(on)),
                format!("{}x", f2(off)),
                format!("+{:.0}%", (on / off - 1.0) * 100.0),
            ]
        })
        .collect();
    r.table(
        "LZAH compression ratio with/without newline realignment",
        "Dataset | Realign on | Realign off | Reclaimed",
        rows,
    );
    r
}

/// Realignment improves the ratio on every dataset.
pub fn ablate_lzah_newline_shape(r: &TableReport) -> Result<(), String> {
    let t = &r.tables[0];
    let (on, off) = (t.column("Realign on"), t.column("Realign off"));
    ensure(on.iter().zip(&off).all(|(a, b)| a > b), || {
        format!("realignment does not help: on {on:?}, off {off:?}")
    })
}

/// Index structure (§6.1–6.2): whether one latency-bound visit stream per
/// node size saturates the device, and two-choice entry sharing measured
/// on a deliberately tiny hash table.
pub fn ablate_index(_: &Args) -> TableReport {
    let mut r = TableReport::default();
    let model = DevicePerfModel::bluedbm_prototype();
    let rows = [
        ("naive list, 16-entry nodes", 16u64),
        ("naive list, 128-entry nodes", 128),
        ("tree-of-lists, 16x16 (paper)", 256),
        ("tree-of-lists, 32x32", 1024),
    ]
    .iter()
    .map(|&(name, pages_per_visit)| {
        let pages_per_sec = model.dependent_visits_per_sec() * pages_per_visit as f64;
        let gbps = pages_per_sec * model.page_bytes as f64 / 1e9;
        let saturates = if gbps >= model.internal_bw / 1e9 {
            "yes"
        } else {
            "no"
        };
        vec![
            name.to_string(),
            pages_per_visit.to_string(),
            format!("{pages_per_sec:.0}"),
            f2(gbps),
            saturates.to_string(),
        ]
    })
    .collect();
    r.table(
        "Index node sizing: can one latency-bound visit stream saturate the device?",
        "Design | Pages/visit | Pages/s | GB/s | Saturates 4.8 GB/s",
        rows,
    );

    let mut ssd = SimSsd::new(MemStore::new(4096), DevicePerfModel::default());
    let mut idx = InvertedIndex::new(IndexParams {
        hash_bits: 6,
        ..IndexParams::small()
    });
    for p in 0..2000u64 {
        idx.insert_page_tokens(&mut ssd, PageId(p), [b"hot-token".as_slice()])
            .expect("insert");
        if p % 100 == 0 {
            let t = format!("cold-{p}");
            idx.insert_page_tokens(&mut ssd, PageId(p), [t.as_bytes()])
                .expect("insert");
        }
    }
    ssd.clear_ledger();
    let mut rows = Vec::new();
    for token in ["hot-token", "cold-0"] {
        let pages = idx
            .lookup(&mut ssd, token.as_bytes())
            .expect("lookup")
            .len();
        rows.push(vec![token.to_string(), pages.to_string()]);
    }
    let t = ssd.ledger().modeled_read_time(&model, Link::Internal);
    r.note(format!(
        "Both lookups together cost {:.1} us of modeled device time.",
        t.as_secs_f64() * 1e6
    ));
    r.table(
        "Two-choice sharing on a 64-entry table: candidate pages per lookup",
        "Token | Candidate pages",
        rows,
    );
    r
}

/// 16×16 trees are the smallest nodes that keep the device saturated; a
/// naive 16-entry list does not.
pub fn ablate_index_shape(r: &TableReport) -> Result<(), String> {
    let t = &r.tables[0];
    ensure(
        t.row("tree-of-lists, 16x16 (paper)")[4] == "yes"
            && t.row("naive list, 16-entry nodes")[4] == "no",
        || "16x16 trees should saturate the device and 16-entry lists not".to_string(),
    )
}

/// Near-storage placement × compression (§1, §3): the same filter engine
/// fed by PCIe or the internal path, raw or LZAH-compressed.
pub fn ablate_near_storage(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    r.note(format!(
        "Feeds: PCIe {} GB/s vs internal {} GB/s; compression multiplies the feed.",
        f2(MITHRILOG_PLATFORM.external_gbps),
        f2(MITHRILOG_PLATFORM.internal_gbps)
    ));
    let mut rows = Vec::new();
    for ds in args.datasets() {
        let inputs = model_inputs(&ds);
        let gbps = |feed_gbps: f64, compressed: bool| {
            ThroughputModel::new(AcceleratorConfig {
                storage_internal_gbps: feed_gbps,
                ..AcceleratorConfig::prototype()
            })
            .effective_throughput(&DatasetInputs {
                compression_ratio: if compressed {
                    inputs.compression_ratio
                } else {
                    1.0
                },
                ..inputs
            })
            .total_gbps
        };
        let (host, near) = (
            MITHRILOG_PLATFORM.external_gbps,
            MITHRILOG_PLATFORM.internal_gbps,
        );
        rows.push(vec![
            ds.name().to_string(),
            f2(gbps(host, false)),
            f2(gbps(near, false)),
            f2(gbps(host, true)),
            f2(gbps(near, true)),
            format!("{}x", f2(gbps(near, true) / gbps(host, false))),
        ]);
    }
    r.table(
        "Effective filtering throughput (GB/s) under each configuration",
        "Dataset | Host + raw | Near + raw | Host + LZAH | Near + LZAH (paper) | Combined gain",
        rows,
    );
    r
}

/// Near-storage placement plus LZAH is at least as fast as every other
/// configuration, and strictly faster than a raw PCIe feed.
pub fn ablate_near_storage_shape(r: &TableReport) -> Result<(), String> {
    for row in &r.tables[0].rows {
        let cells: Vec<f64> = row[1..5].iter().map(|c| num(c)).collect();
        ensure(
            cells.iter().all(|&c| c <= cells[3]) && cells[3] > cells[0],
            || format!("{}: near + LZAH is not the best feed", row[0]),
        )?;
    }
    Ok(())
}

/// `plan_savings` queries per profile; the flag marks negations whose term
/// is on every line (`RAS` on BGL, the constant `Jun` date on Liberty2),
/// which bitmap sidecars must prune.
const PLAN_QUERIES: [(DatasetProfile, &[(&str, bool)]); 2] = [
    (
        DatasetProfile::Bgl2,
        &[
            ("NOT RAS", true),
            ("FATAL AND NOT RAS", true),
            ("NOT FATAL", false),
            ("FATAL", false),
            ("ciod: AND FATAL", false),
            ("ciod: AND NOT RAS", true),
        ],
    ),
    (
        DatasetProfile::Liberty2,
        &[
            ("NOT Jun", true),
            ("Failed AND NOT Jun", true),
            ("NOT root", false),
            ("Failed", false),
            ("Failed OR Accepted", false),
        ],
    ),
];

/// Wave planning: per-segment token bitmaps against the full-scan planner
/// (an identical replica with `bitmap_buckets: 0`), and one batched wave
/// walking each distinct probe token once against summed solo probes.
/// Every replica and the wave must return byte-identical lines.
pub fn plan_savings(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    let mut rows = Vec::new();
    let mut batches = Vec::new();
    for (profile, queries) in PLAN_QUERIES {
        let ds = args.dataset(profile);
        // Small segments so the corpus seals many segments with frozen
        // sidecars; the open tail is never bitmap-pruned.
        let bitmap_config = SystemConfig {
            segment_pages: 32,
            ..SystemConfig::default()
        };
        let mut seed = MithriLog::new(SystemConfig {
            bitmap_buckets: 0,
            ..bitmap_config.clone()
        });
        seed.ingest(ds.text()).expect("ingest");
        let mut bitmapped = MithriLog::new(bitmap_config);
        bitmapped.ingest(ds.text()).expect("ingest");

        let mut solo_lines = Vec::new();
        let mut negated = [0u128; 4];
        for &(q, saturating) in queries {
            let a = seed.query_str(q).expect("query");
            let b = bitmapped.query_str(q).expect("query");
            assert_eq!(a.lines, b.lines, "{q:?}: bitmap replica diverged");
            let us = |o: &mithrilog::QueryOutcome| o.modeled_time.as_micros();
            if saturating {
                let add = [
                    a.pages_scanned.into(),
                    b.pages_scanned.into(),
                    us(&a),
                    us(&b),
                ];
                negated.iter_mut().zip(add).for_each(|(n, x)| *n += x);
            }
            rows.push(vec![
                ds.name().to_string(),
                q.to_string(),
                if saturating { "yes" } else { "no" }.to_string(),
                b.lines.len().to_string(),
                a.pages_scanned.to_string(),
                b.pages_scanned.to_string(),
                us(&a).to_string(),
                us(&b).to_string(),
            ]);
            solo_lines.push(b.lines);
        }

        let requests: Vec<QueryRequest> = queries
            .iter()
            .map(|(q, _)| QueryRequest::parse(q).expect("parse"))
            .collect();
        let wave = bitmapped.query_shared(&requests).expect("wave");
        for (o, solo) in wave.outcomes.iter().zip(&solo_lines) {
            assert_eq!(&o.lines, solo, "{}: batched run diverged", ds.name());
        }
        let s = &wave.shared;
        batches.push(vec![
            ds.name().to_string(),
            bitmapped.data_page_count().to_string(),
            s.probe_node_visits_demanded.to_string(),
            s.probe_node_visits_physical.to_string(),
            s.pages_pruned_by_index.to_string(),
            s.pages_pruned_by_bitmap.to_string(),
            s.pages_pruned_by_both.to_string(),
            negated[0].to_string(),
            negated[1].to_string(),
            format!("{:.2}x", negated[2] as f64 / negated[3].max(1) as f64),
        ]);
    }
    r.table(
        "Solo queries: full-scan planner vs bitmap planner (segments of 32 pages)",
        "Dataset | Query | Saturating | Matches | Seed pages | Bitmap pages \
         | Seed modeled us | Bitmap modeled us",
        rows,
    );
    r.table(
        "One wave of the same queries on the bitmap replica",
        "Dataset | Data pages | Probe visits demanded | Probe visits physical \
         | Pruned by index | Pruned by bitmap | Pruned by both \
         | Negated seed pages | Negated bitmap pages | Negated modeled speedup",
        batches,
    );
    r
}

/// Bitmaps prune every saturating negation strictly, and the batched
/// wave walks fewer probe nodes than the summed solo demand.
pub fn plan_savings_shape(r: &TableReport) -> Result<(), String> {
    for row in r.tables[0].rows.iter().filter(|row| row[2] == "yes") {
        ensure(num(&row[5]) < num(&row[4]), || {
            format!("{} {:?}: bitmaps did not prune", row[0], row[1])
        })?;
    }
    let t = &r.tables[1];
    let (demanded, physical) = (
        t.column("Probe visits demanded"),
        t.column("Probe visits physical"),
    );
    ensure(demanded.iter().zip(&physical).all(|(d, p)| p < d), || {
        format!("batched probes saved nothing: {demanded:?} vs {physical:?}")
    })
}

/// The full-scan query both scaling curves run.
const SCALING_QUERY: &str = "error OR failed OR FATAL";

/// Shard scaling (§8): the same full-scan query over 1, 2 and 4
/// independent modeled devices. Aggregate GB/s divides the raw bytes by
/// the merged modeled time (the slowest shard), so skew shows as
/// sub-linear scaling. Every topology must return the 1-shard lines.
pub fn shard_scaling(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    let ds = args.dataset(DatasetProfile::Liberty2);
    let mut rows = Vec::new();
    let mut per_shard = Vec::new();
    let mut one_shard: Option<(f64, Vec<String>)> = None;
    for shards in [1u32, 2, 4] {
        let mut sharded = ShardedLog::new(
            SystemConfig::full_scan_only(),
            ShardOptions {
                shards,
                mode: RouteMode::LineHash,
                salt: 42,
            },
        );
        sharded.ingest(ds.text()).expect("ingest");
        let o = sharded.query_str(SCALING_QUERY).expect("query");
        let modeled = o.modeled_time.as_secs_f64().max(1e-12);
        let (t1, lines) = one_shard.get_or_insert_with(|| (modeled, o.lines.clone()));
        assert_eq!(lines, &o.lines, "{shards} shards diverged from 1 shard");
        rows.push(vec![
            shards.to_string(),
            format!("{modeled:.6}"),
            f2(ds.text().len() as f64 / 1e9 / modeled),
            format!("{:.3}", *t1 / modeled),
            o.match_count().to_string(),
            o.pages_scanned.to_string(),
        ]);
        per_shard.extend(sharded.shard_rows().iter().map(|s| {
            vec![
                shards.to_string(),
                s.shard.to_string(),
                s.lines.to_string(),
                s.data_pages.to_string(),
                s.pages_read.to_string(),
                s.bytes_read.to_string(),
                f2(s.modeled_gbps),
            ]
        }));
    }
    r.table(
        "Shard scaling: one full-scan query over N devices (Liberty2)",
        "Shards | Modeled s | Aggregate GB/s | Speedup | Matches | Pages scanned",
        rows,
    );
    r.table(
        "Per-shard as-if-solo rows",
        "Shards | Shard | Lines | Data pages | Pages read | Bytes read | As-if-solo GB/s",
        per_shard,
    );
    r
}

/// Adding devices never slows the merged scan, and once the scan outweighs
/// the fixed per-query latency (400 pages or more) four devices deliver at
/// least 3x.
pub fn shard_scaling_shape(r: &TableReport) -> Result<(), String> {
    let t = &r.tables[0];
    let (speedup, pages) = (t.column("Speedup"), t.column("Pages scanned"));
    ensure(
        speedup.windows(2).all(|w| w[1] >= w[0]) && speedup[2] > 1.0,
        || format!("speedups {speedup:?} do not grow with shards"),
    )?;
    ensure(pages[0] < 400.0 || speedup[2] >= 3.0, || {
        format!("4 shards give {}x over {} pages", speedup[2], pages[0])
    })
}

/// Pipeline scaling (§7.4.1): the modeled throughput of 1/2/4/8 filter
/// pipelines on one device, from the ingested corpus's paged ratio and
/// datapath statistics. Wall-clock scaling belongs to `bench_e2e`.
pub fn parallel_scaling(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    let ds = args.dataset(DatasetProfile::Liberty2);
    let mut system = MithriLog::new(SystemConfig::full_scan_only());
    system.ingest(ds.text()).expect("ingest");
    let model = ThroughputModel::new(AcceleratorConfig {
        storage_internal_gbps: system.config().device.internal_bw / 1e9,
        ..AcceleratorConfig::prototype()
    });
    let inputs = DatasetInputs {
        compression_ratio: system.compression_ratio(),
        tokenized_amplification: system.datapath_stats().amplification(),
        lane_utilization: 1.0,
    };
    let rows = model
        .pipeline_scaling(&inputs, &[1, 2, 4, 8])
        .iter()
        .map(|p| {
            vec![
                p.pipelines.to_string(),
                f2(p.modeled_gbps),
                format!("{:.3}", p.modeled_speedup),
                format!("{:.3}", p.efficiency),
                p.bound_by.to_string(),
            ]
        })
        .collect();
    r.table(
        &format!(
            "Pipeline scaling on Liberty2 ({} data pages, paged LZAH ratio {:.3})",
            system.data_page_count(),
            system.compression_ratio()
        ),
        "Pipelines | Modeled GB/s | Speedup | Efficiency | Bound by",
        rows,
    );
    r
}

/// Each pipeline adds throughput until storage supply binds; efficiency
/// never exceeds one.
pub fn parallel_scaling_shape(r: &TableReport) -> Result<(), String> {
    let t = &r.tables[0];
    let (speedup, eff) = (t.column("Speedup"), t.column("Efficiency"));
    ensure(
        speedup.windows(2).all(|w| w[1] >= w[0]) && eff.iter().all(|&e| e <= 1.0 + 1e-9),
        || format!("speedups {speedup:?} / efficiencies {eff:?} are not a scaling curve"),
    )
}
