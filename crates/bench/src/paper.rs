//! The paper's evaluation (§7): Tables 1–8 and Figures 13–16, each a
//! function from [`Args`] to a [`TableReport`] plus the one shape check
//! EXPERIMENTS.md reads off it.

use std::time::{Duration, Instant};

use mithrilog::{MithriLog, SystemConfig};
use mithrilog_baseline::{
    effective_throughput_gbps, time_query, IndexedEngine, LogTable, ScanEngine, SplunkCostModel,
};
use mithrilog_compress::{Codec, Gzf, Lz4, Lzah, Lzrw1, Snappy};
use mithrilog_ftree::TemplateLibrary;
use mithrilog_loggen::{Dataset, DatasetProfile};
use mithrilog_query::Query;
use mithrilog_sim::{
    codec_resource_table, hare_comparison, pipeline_resource_table, AcceleratorConfig,
    DatasetInputs, PowerModel, ThroughputModel, COMPARISON_PLATFORM, MITHRILOG_PLATFORM,
};
use mithrilog_tokenizer::{DatapathStats, ScatterGather, Tokenizer, TokenizerConfig};

use crate::registry::ensure;
use crate::{f2, ftree_config, num, query_bank, Args, TableReport};

const DATASETS: [&str; 4] = ["BGL2", "Liberty2", "Spirit2", "Thunderbird"];

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Table 1: lines, size and FT-tree template count per dataset.
pub fn table1(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    r.note("Paper (full HPC4): lines 4.7M/265.5M/272.2M/211.2M, sizes 0.7/30/38/30 GB, templates 93/197/241/125");
    let rows = args
        .datasets()
        .iter()
        .map(|ds| {
            vec![
                ds.name().to_string(),
                format!("{:.3}", ds.lines() as f64 / 1e6),
                f2(ds.text().len() as f64 / 1e9),
                TemplateLibrary::extract(ds.text(), &ftree_config())
                    .len()
                    .to_string(),
            ]
        })
        .collect();
    r.table(
        "Table 1: dataset statistics",
        "Dataset | Lines (M) | Size (GB) | Templates",
        rows,
    );
    r
}

/// FT-tree finds dozens of templates or more in every corpus.
pub fn table1_shape(r: &TableReport) -> Result<(), String> {
    let templates = r.tables[0].column("Templates");
    ensure(templates.iter().all(|&t| t >= 32.0), || {
        format!("expected >= 32 templates per dataset, got {templates:?}")
    })
}

/// Table 2: chip resources of the pipeline on a VC707 (published
/// synthesis, percentages recomputed from the device capacity).
pub fn table2(_: &Args) -> TableReport {
    let mut r = TableReport::default();
    let pct = |n: u64, f: f64| format!("{n} ({:.1}%)", f * 100.0);
    let rows = pipeline_resource_table()
        .iter()
        .map(|m| {
            vec![
                m.module.to_string(),
                pct(m.luts.into(), m.lut_fraction()),
                pct(m.ramb36.into(), m.ramb36_fraction()),
                pct(m.ramb18.into(), m.ramb18_fraction()),
            ]
        })
        .collect();
    r.table(
        "Table 2: chip resources",
        "Module | LUTs | RAMB36 | RAMB18",
        rows,
    );
    r
}

/// The whole design fits the chip: the total row is under 100 % of every
/// resource and is the largest row.
pub fn table2_shape(r: &TableReport) -> Result<(), String> {
    let t = &r.tables[0];
    let total = t.row("Total");
    for (c, h) in t.headers.iter().enumerate().skip(1) {
        let pct = |cell: &str| num(cell.split('(').nth(1).unwrap_or(""));
        ensure(pct(&total[c]) < 100.0, || format!("{h} total over 100 %"))?;
        ensure(t.column(h).iter().all(|&v| v <= num(&total[c])), || {
            format!("a module exceeds the {h} total")
        })?;
    }
    Ok(())
}

/// Table 3: the compared platforms and the internal/external bandwidth
/// differential the near-storage placement exploits.
pub fn table3(_: &Args) -> TableReport {
    let mut r = TableReport::default();
    let (m, c) = (MITHRILOG_PLATFORM, COMPARISON_PLATFORM);
    let ratio = f2(m.internal_external_ratio());
    let rows = [
        ["Computation", m.computation, c.computation].map(String::from),
        [
            "Storage BW (external)".into(),
            format!("{} GB/s (PCIe)", f2(m.external_gbps)),
            format!("{} GB/s", f2(c.external_gbps)),
        ],
        [
            "Storage BW (internal)".into(),
            format!("{} GB/s", f2(m.internal_gbps)),
            "n/a (no near-storage path)".into(),
        ],
        ["Internal/external ratio".into(), ratio, "1.00".into()],
    ];
    r.table(
        "Table 3: compared platforms",
        " | MithriLog | Comparison",
        rows.map(Vec::from).to_vec(),
    );
    r
}

/// The internal path is faster than PCIe, inside the 1.8× Samsung
/// publishes for the SmartSSD.
pub fn table3_shape(r: &TableReport) -> Result<(), String> {
    let ratio = num(&r.tables[0].row("Internal/external ratio")[1]);
    ensure(ratio > 1.0 && ratio <= 1.8, || {
        format!("internal/external ratio {ratio} outside (1, 1.8]")
    })
}

/// Table 4: FPGA codec resource efficiency and the §7.4.3 HARE
/// arithmetic, plus this host's software codecs on the Spirit2 corpus
/// (throughput measured, ratio exact).
pub fn table4(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    let h = hare_comparison();
    r.note(format!(
        "§7.4.3: HARE+LZRW ≈ {:.0} KLUT per GB/s vs MithriLog+LZAH ≈ {:.0} KLUT per GB/s ({:.1}x better)",
        h.hare_kluts_per_gbps,
        h.mithrilog_kluts_per_gbps,
        h.hare_kluts_per_gbps / h.mithrilog_kluts_per_gbps
    ));
    let rows = codec_resource_table()
        .iter()
        .map(|c| {
            vec![
                c.algorithm.to_string(),
                f2(c.gbps),
                f2(c.kluts),
                format!("{:.3}", c.gbps_per_klut()),
                c.source.to_string(),
            ]
        })
        .collect();
    r.table(
        "Table 4: FPGA codec efficiency",
        "Algorithm | GB/s | KLUT | GB/s/KLUT | Source",
        rows,
    );

    let corpus = args.dataset(DatasetProfile::Spirit2).into_text();
    let mb_per_s = |d: Duration| f2(corpus.len() as f64 / d.as_secs_f64() / 1e6);
    let rows = codecs()
        .iter()
        .map(|c| {
            let t0 = Instant::now();
            let packed = c.compress(&corpus);
            let compress = mb_per_s(t0.elapsed());
            let t0 = Instant::now();
            let out = c.decompress(&packed).expect("round trip");
            let decompress = mb_per_s(t0.elapsed());
            assert_eq!(out, corpus, "{} round trip", c.name());
            let ratio = f2(corpus.len() as f64 / packed.len() as f64);
            vec![c.name().to_string(), compress, decompress, ratio]
        })
        .collect();
    r.table(
        "Software codec throughput on Spirit2 profile (this machine)",
        "Codec | Compress MB/s | Decompress MB/s | Ratio",
        rows,
    );
    r
}

/// LZAH's ratio is below the LZ4-class codecs, and LZAH leads them on
/// GB/s/KLUT.
pub fn table4_shape(r: &TableReport) -> Result<(), String> {
    let fpga = &r.tables[0];
    let soft = &r.tables[1];
    for other in ["LZ4", "Snappy"] {
        let eff = |a: &str| num(&fpga.row(a)[3]);
        ensure(eff("LZAH") > eff(other), || {
            format!("LZAH does not lead {other} on GB/s/KLUT")
        })?;
        let ratio = |a: &str| num(&soft.row(a)[3]);
        ensure(ratio("LZAH") < ratio(other), || {
            format!("LZAH's ratio is not below {other}'s")
        })?;
    }
    Ok(())
}

fn codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(Lzah::default()),
        Box::new(Lzrw1::new()),
        Box::new(Lz4::new()),
        Box::new(Snappy::new()),
        Box::new(Gzf::new()),
    ]
}

/// Table 5: whole-file compression ratios of every codec on every dataset.
pub fn table5(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    r.note("Paper: LZAH 2.63/3.85/6.60/7.35, LZRW1 4.39/5.79/6.00/3.89, LZ4 5.95/27.27/27.14/9.68, Gzip 11.82/47.93/45.04/15.79");
    let sets = args.datasets();
    let rows = codecs()
        .iter()
        .map(|c| {
            let mut row = vec![c.name().to_string()];
            row.extend(sets.iter().map(|ds| format!("{}x", f2(c.ratio(ds.text())))));
            row
        })
        .collect();
    r.table(
        "Table 5: compression effectiveness",
        "Algorithm | BGL2 | Liberty2 | Spirit2 | Thunderbird",
        rows,
    );
    r
}

/// The general-purpose codecs out-compress LZAH on every dataset.
pub fn table5_shape(r: &TableReport) -> Result<(), String> {
    let t = &r.tables[0];
    for d in DATASETS {
        let col = t.column(d);
        ensure(
            col[1..].iter().filter(|&&x| x > col[0]).count() >= 3,
            || format!("{d}: LZ4, Snappy and Gzf should all out-compress LZAH"),
        )?;
    }
    Ok(())
}

/// The modeled full-scan throughput of the accelerator over `ds`, GB/s:
/// the same for every query (§7.4.2).
fn modeled_scan_gbps(ds: &Dataset) -> f64 {
    let mut system = MithriLog::new(SystemConfig::full_scan_only());
    system.ingest(ds.text()).expect("ingest");
    system.modeled_throughput().total_gbps
}

/// Measured full-scan throughput of the MonetDB-style engine, per query.
fn scan_gbps(engine: &ScanEngine, table: &LogTable, queries: &[Query], bytes: u64) -> Vec<f64> {
    queries
        .iter()
        .map(|q| {
            let m = time_query(|| engine.count_matches(table, q));
            effective_throughput_gbps(bytes, m.elapsed)
        })
        .collect()
}

/// Table 6: mean effective throughput of 1-, 2- and 8-query batches,
/// scanning the whole dataset per query: the scan engine measured on this
/// host (12 worker threads, as in the paper), MithriLog modeled.
pub fn table6(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    r.note("Paper: MonetDB falls from ~0.6-2.8 (1q) to ~0.05-0.58 (8q); MithriLog constant at 11.2-11.8.");
    let engine = ScanEngine::new();
    let mut scan = Vec::new();
    let mut accel = Vec::new();
    for ds in args.datasets() {
        let bank = query_bank(&ds, args.seed);
        let table = LogTable::from_text(ds.text());
        let bytes = ds.text().len() as u64;
        scan.push(
            [&bank.singles, &bank.pairs, &bank.eights]
                .map(|qs| mean(&scan_gbps(&engine, &table, qs, bytes))),
        );
        accel.push(modeled_scan_gbps(&ds));
    }
    let mut rows = Vec::new();
    for (b, batch) in ["1", "2", "8"].iter().enumerate() {
        let mut s = vec![format!("ScanEngine{batch}")];
        s.extend(scan.iter().map(|d| f2(d[b])));
        let mut m = vec![format!("MithriLog{batch}")];
        m.extend(accel.iter().map(|&a| f2(a)));
        rows.push(s);
        rows.push(m);
    }
    let mut avg = vec!["Avg. improvement".to_string()];
    avg.extend(
        scan.iter()
            .zip(&accel)
            .map(|(s, &a)| format!("{}x", f2(mean(&s.map(|x| a / x))))),
    );
    rows.push(avg);
    r.table(
        "Table 6: average effective throughput of batched queries (GB/s)",
        "System | BGL2 | Liberty2 | Spirit2 | Thunderbird",
        rows,
    );
    r
}

/// MithriLog's throughput is flat across 1/2/8-query batches, while
/// ScanEngine8 < ScanEngine1.
pub fn table6_shape(r: &TableReport) -> Result<(), String> {
    let t = &r.tables[0];
    for (c, d) in DATASETS.iter().enumerate() {
        let cell = |row: &str| num(&t.row(row)[c + 1]);
        ensure(
            cell("MithriLog1") == cell("MithriLog2") && cell("MithriLog2") == cell("MithriLog8"),
            || format!("{d}: MithriLog throughput varies with batch size"),
        )?;
        ensure(cell("ScanEngine8") < cell("ScanEngine1"), || {
            format!("{d}: ScanEngine8 is not slower than ScanEngine1")
        })?;
    }
    Ok(())
}

/// One query of the §7.5 bank on both end-to-end engines.
struct QueryTime {
    class: &'static str,
    splunk: Duration,
    mithrilog: Duration,
    fetched_lines: u64,
    pages: u64,
    full_scan: bool,
}

/// Runs the whole bank through the Splunk-style indexed engine (exact
/// fetch work, paper-calibrated cost model, ÷12 threads) and MithriLog
/// (modeled device time of the functional run), asserting both return the
/// same matches.
fn end_to_end(ds: &Dataset, seed: u64) -> Vec<QueryTime> {
    let bank = query_bank(ds, seed);
    let model = SplunkCostModel::paper_calibrated();
    let table = LogTable::from_text(ds.text());
    let splunk = IndexedEngine::build(&table);
    let mut system = MithriLog::new(SystemConfig::default());
    system.ingest(ds.text()).expect("ingest");
    let mut out = Vec::new();
    for (class, queries) in bank.classes() {
        for q in queries {
            let run = splunk.execute(&table, q);
            let o = system.query(q).expect("query");
            assert_eq!(
                o.match_count(),
                run.match_count(),
                "engines disagree on {q}"
            );
            out.push(QueryTime {
                class,
                splunk: model.modeled_time(run.fetched_bytes),
                mithrilog: o.modeled_time,
                fetched_lines: run.fetched_lines,
                pages: o.pages_scanned,
                full_scan: !o.used_index,
            });
        }
    }
    out
}

fn ratio(splunk: Duration, mithrilog: Duration) -> f64 {
    splunk.as_secs_f64() / mithrilog.as_secs_f64().max(1e-12)
}

/// Table 7: total end-to-end time over the full query bank, MithriLog vs
/// the Splunk-style engine, overall and per query class.
pub fn table7(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    r.note("Paper: 9.93 / 352.26 / 201.20 / 86.32 (total-time ratio per dataset)");
    let mut rows = Vec::new();
    for ds in args.datasets() {
        let runs = end_to_end(&ds, args.seed);
        let total = |class: Option<&str>| {
            runs.iter()
                .filter(|q| class.is_none_or(|c| q.class == c))
                .fold((Duration::ZERO, Duration::ZERO), |(s, m), q| {
                    (s + q.splunk, m + q.mithrilog)
                })
        };
        let (s, m) = total(None);
        let mut row = vec![
            ds.name().to_string(),
            runs.len().to_string(),
            format!("{:.3}", s.as_secs_f64()),
            format!("{:.3}", m.as_secs_f64()),
            format!("{}x", f2(ratio(s, m))),
        ];
        for class in ["singles", "pairs", "eights", "negative-heavy"] {
            let (s, m) = total(Some(class));
            row.push(format!("{:.1}x", ratio(s, m)));
        }
        rows.push(row);
    }
    r.table(
        "Table 7: total end-to-end time over the full query bank",
        "Dataset | Queries | Splunk-model s (/12) | MithriLog s (modeled) | Improvement \
         | singles | pairs | eights | negative-heavy",
        rows,
    );
    r
}

/// MithriLog wins every query class on every dataset.
pub fn table7_shape(r: &TableReport) -> Result<(), String> {
    let t = &r.tables[0];
    for h in &t.headers[4..] {
        let col = t.column(h);
        ensure(col.iter().all(|&x| x > 1.0), || {
            format!("MithriLog does not win {h} everywhere: {col:?}")
        })?;
    }
    Ok(())
}

/// Table 8: estimated power breakdown of the two platforms.
pub fn table8(_: &Args) -> TableReport {
    let mut r = TableReport::default();
    let m = PowerModel::paper();
    let (a, b) = (m.mithrilog(), m.software());
    let row = |label: &str, x: f64, y: f64| vec![label.to_string(), f2(x), f2(y)];
    r.table(
        "Table 8: power breakdown",
        "Component | MithriLog | Software",
        vec![
            row("CPU+Memory (W)", a.cpu_memory_w, b.cpu_memory_w),
            row("Total Storage (W)", a.storage_w, b.storage_w),
            row("2x FPGA (W)", a.fpga_w, b.fpga_w),
            row("Total (W)", a.total_w(), b.total_w()),
        ],
    );
    r.table(
        "Performance/watt improvement at a measured speedup",
        "Speedup | Perf/W improvement",
        [5.0, 10.0, 20.0]
            .iter()
            .map(|&s| {
                vec![
                    format!("{s:.0}x"),
                    format!("{}x", f2(m.efficiency_improvement(s))),
                ]
            })
            .collect(),
    );
    r
}

/// The accelerated platform draws less power in total, so perf/W improves
/// by more than the speedup.
pub fn table8_shape(r: &TableReport) -> Result<(), String> {
    let total = r.tables[0].row("Total (W)");
    ensure(num(&total[1]) < num(&total[2]), || {
        "MithriLog draws more power than the software platform".to_string()
    })?;
    let t = &r.tables[1];
    let gains = t.column("Perf/W improvement");
    ensure(
        t.column("Speedup").iter().zip(&gains).all(|(s, g)| g > s),
        || format!("perf/W gains {gains:?} do not exceed the speedups"),
    )
}

/// Figure 13: useful (non-padding) share of the 16-byte tokenized
/// datapath per dataset.
pub fn fig13(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    r.note("Paper: roughly 50% useful across the four datasets.");
    let cfg = TokenizerConfig::default();
    let rows = args
        .datasets()
        .iter()
        .map(|ds| {
            let stats = DatapathStats::of_text(&cfg, ds.text());
            vec![
                ds.name().to_string(),
                format!("{:.1}%", stats.useful_ratio() * 100.0),
                format!("{:.2}x", stats.amplification()),
                format!("{:.1}", stats.mean_token_len()),
                format!("{:.0}%", stats.fraction_tokens_at_most(16) * 100.0),
            ]
        })
        .collect();
    r.table(
        "Figure 13: tokenized datapath utilization",
        "Dataset | Useful bits | Amplification | Mean token len | Tokens <= 16B",
        rows,
    );
    r
}

/// About half the datapath carries useful bytes: the ~2× amplification
/// that motivates two hash filters per pipeline.
pub fn fig13_shape(r: &TableReport) -> Result<(), String> {
    let amp = r.tables[0].column("Amplification");
    ensure(amp.iter().all(|&a| (1.5..2.5).contains(&a)), || {
        format!("amplification {amp:?} outside [1.5, 2.5)")
    })
}

/// The model inputs a dataset hands the throughput model: its whole-file
/// LZAH ratio, tokenized amplification and lane balance.
pub(crate) fn model_inputs(ds: &Dataset) -> DatasetInputs {
    let cfg = TokenizerConfig::default();
    let stats = DatapathStats::of_text(&cfg, ds.text());
    let mut sg = ScatterGather::new(cfg.lanes);
    sg.schedule_text(&Tokenizer::new(cfg), ds.text());
    DatasetInputs::from_stats(
        &stats,
        Lzah::default().ratio(ds.text()),
        sg.occupancy().utilization,
    )
}

/// Figure 14: modeled effective throughput of the four filter pipelines
/// per dataset, and the stage that binds it.
pub fn fig14(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    r.note("Paper: 11-12 GB/s on all datasets; BGL2 storage-bound at 12.62 GB/s of decompressed supply.");
    let model = ThroughputModel::new(AcceleratorConfig::prototype());
    let rows = args
        .datasets()
        .iter()
        .map(|ds| {
            let inputs = model_inputs(ds);
            let t = model.effective_throughput(&inputs);
            vec![
                ds.name().to_string(),
                f2(t.total_gbps),
                t.bound_by.to_string(),
                f2(inputs.compression_ratio),
                f2(inputs.tokenized_amplification),
                format!("{:.1}%", inputs.lane_utilization * 100.0),
                f2(t.storage_gbps),
                f2(t.filter_gbps),
            ]
        })
        .collect();
    r.table(
        "Figure 14: modeled filter-engine throughput (GB/s)",
        "Dataset | Total GB/s | Bound by | LZAH ratio | Amplif. | Lane util \
         | Storage ceil | Filter ceil",
        rows,
    );
    r
}

/// Every dataset runs at several times the PCIe link, and the
/// lowest-ratio dataset is the one bound by storage supply.
pub fn fig14_shape(r: &TableReport) -> Result<(), String> {
    let t = &r.tables[0];
    let total = t.column("Total GB/s");
    ensure(
        total
            .iter()
            .all(|&g| g > 3.0 * MITHRILOG_PLATFORM.external_gbps),
        || format!("throughput {total:?} not above 3x PCIe"),
    )?;
    let ratios = t.column("LZAH ratio");
    let lowest = (0..ratios.len())
        .min_by(|&a, &b| ratios[a].total_cmp(&ratios[b]))
        .expect("rows");
    ensure(t.rows[lowest][2] == "storage", || {
        format!("{} (lowest ratio) is not storage-bound", t.rows[lowest][0])
    })
}

/// An ASCII histogram over Figure 15's non-linear throughput axis.
fn histogram(label: &str, gbps: &[f64]) -> String {
    const EDGES: [f64; 10] = [0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 13.0];
    let mut out = format!("  {label}");
    for (i, &lo) in EDGES.iter().enumerate() {
        let hi = EDGES.get(i + 1).copied().unwrap_or(f64::INFINITY);
        let n = gbps.iter().filter(|&&v| lo <= v && v < hi).count();
        if n > 0 {
            let bar = "#".repeat(n.min(50));
            out.push_str(&format!(
                "\n    [{lo:>6.2} - {hi:>6.2}) GB/s | {bar:<50} {n}"
            ));
        }
    }
    out
}

/// Figure 15: per-query throughput distributions of the scan engine
/// (measured) against MithriLog (modeled, constant) for single, 2-way and
/// 8-way batches.
pub fn fig15(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    let engine = ScanEngine::new();
    let mut rows = Vec::new();
    for ds in args.datasets() {
        let bank = query_bank(&ds, args.seed);
        let table = LogTable::from_text(ds.text());
        let bytes = ds.text().len() as u64;
        let accel = modeled_scan_gbps(&ds);
        r.note(format!("--- {} ---", ds.name()));
        for (label, queries) in [
            ("single queries", &bank.singles),
            ("2-query combinations", &bank.pairs),
            ("8-query combinations", &bank.eights),
        ] {
            let mut tp = scan_gbps(&engine, &table, queries, bytes);
            let n = tp.len();
            r.note(histogram(&format!("ScanEngine, {label} (n={n})"), &tp));
            r.note(histogram(
                &format!("MithriLog,  {label} (n={n})"),
                &vec![accel; n],
            ));
            tp.sort_by(f64::total_cmp);
            rows.push(vec![
                ds.name().to_string(),
                label.to_string(),
                n.to_string(),
                format!("{:.3}", tp[0]),
                format!("{:.3}", tp[n / 2]),
                format!("{:.3}", tp[n - 1]),
                format!("{accel:.3}"),
            ]);
        }
    }
    r.table(
        "Figure 15 summary: scan-engine throughput distribution vs MithriLog (GB/s)",
        "Dataset | Batch | Queries | Scan min | Scan median | Scan max | MithriLog",
        rows,
    );
    r
}

/// The scan engine's distribution moves left as combinations grow, while
/// MithriLog is one constant bucket above it.
pub fn fig15_shape(r: &TableReport) -> Result<(), String> {
    let t = &r.tables[0];
    let (median, max, accel) = (
        t.column("Scan median"),
        t.column("Scan max"),
        t.column("MithriLog"),
    );
    for (d, name) in DATASETS.iter().enumerate() {
        let p = 3 * d;
        ensure(median[p + 2] < median[p], || {
            format!("{name}: scan median does not fall from singles to 8-way")
        })?;
        ensure(
            accel[p] == accel[p + 1] && accel[p + 1] == accel[p + 2],
            || format!("{name}: MithriLog is not constant"),
        )?;
        ensure((p..p + 3).all(|i| accel[i] > max[i]), || {
            format!("{name}: MithriLog does not sit above the scan engine")
        })?;
    }
    Ok(())
}

/// Figure 16: per-query modeled time, Splunk-style engine vs MithriLog,
/// over the full query bank, plus per-dataset summaries.
pub fn fig16(args: &Args) -> TableReport {
    let mut r = TableReport::default();
    let mut scatter = Vec::new();
    let mut summary = Vec::new();
    for ds in args.datasets() {
        let runs = end_to_end(&ds, args.seed);
        let ratios: Vec<f64> = runs.iter().map(|q| ratio(q.splunk, q.mithrilog)).collect();
        let sub_second = runs
            .iter()
            .filter(|q| q.splunk.as_secs_f64() < 1.0 && q.mithrilog.as_secs_f64() < 1.0)
            .count();
        summary.push(vec![
            ds.name().to_string(),
            runs.len().to_string(),
            ratios.iter().filter(|&&x| x > 1.0).count().to_string(),
            format!("{:.1}", ratios.iter().fold(0.0f64, |a, &b| a.max(b))),
            runs.iter().filter(|q| q.full_scan).count().to_string(),
            sub_second.to_string(),
        ]);
        scatter.extend(runs.iter().map(|q| {
            vec![
                ds.name().to_string(),
                q.class.to_string(),
                format!("{:.4}", q.splunk.as_secs_f64() * 1e3),
                format!("{:.4}", q.mithrilog.as_secs_f64() * 1e3),
                q.fetched_lines.to_string(),
                q.pages.to_string(),
                u8::from(q.full_scan).to_string(),
            ]
        }));
    }
    r.table(
        "Figure 16 summary: per-query scatter statistics",
        "Dataset | Queries | MithriLog faster | Max ratio | Full scans | Sub-second both",
        summary,
    );
    r.table(
        "Figure 16: per-query modeled time (Splunk-model /12 vs MithriLog)",
        "Dataset | Class | Splunk ms | MithriLog ms | Splunk fetched lines \
         | MithriLog pages | Full scan",
        scatter,
    );
    r
}

/// The negative-heavy queries are the slow cluster: on every dataset
/// their mean Splunk-model time exceeds that of every other class.
pub fn fig16_shape(r: &TableReport) -> Result<(), String> {
    let t = &r.tables[1];
    let splunk = t.column("Splunk ms");
    for d in DATASETS {
        let class_mean = |class: &str| {
            let xs: Vec<f64> = t
                .rows
                .iter()
                .zip(&splunk)
                .filter(|(row, _)| row[0] == d && row[1] == class)
                .map(|(_, &x)| x)
                .collect();
            mean(&xs)
        };
        let neg = class_mean("negative-heavy");
        for class in ["singles", "pairs", "eights"] {
            ensure(neg > class_mean(class), || {
                format!("{d}: negative-heavy queries are not slower than {class}")
            })?;
        }
    }
    Ok(())
}
