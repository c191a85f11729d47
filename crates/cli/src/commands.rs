//! Implementations of the CLI subcommands.

use std::error::Error;
use std::fs;
use std::time::Instant;

use mithrilog::{MithriLog, MithriLogError, SystemConfig};
use mithrilog_analytics::{RateSpikeDetector, TemplateCounts, TimeHistogram};
use mithrilog_compress::{Codec, Lzah};
use mithrilog_filter::FilterPipeline;
use mithrilog_ftree::{FtreeConfig, TemplateLibrary};
use mithrilog_loggen::{generate, DatasetProfile, DatasetSpec};
use mithrilog_service::{JobOutput, Priority, Service, ServiceBackend, ServiceConfig};
use mithrilog_shard::{RouteMode, ShardOptions, ShardedLog};
use mithrilog_storage::{CrashPlan, CrashStore, FaultPlan, FaultyStore, MemStore, StorageError};

type CliResult = Result<(), Box<dyn Error>>;

fn read_log(path: &str) -> Result<Vec<u8>, Box<dyn Error>> {
    Ok(fs::read(path).map_err(|e| format!("cannot read {path:?}: {e}"))?)
}

fn ingest(text: &[u8]) -> Result<MithriLog, Box<dyn Error>> {
    ingest_with_threads(text, None)
}

fn ingest_with_threads(text: &[u8], threads: Option<usize>) -> Result<MithriLog, Box<dyn Error>> {
    ingest_with_opts(text, threads, None)
}

fn ingest_with_opts(
    text: &[u8],
    threads: Option<usize>,
    page_cache: Option<usize>,
) -> Result<MithriLog, Box<dyn Error>> {
    let config = SystemConfig {
        query_threads: SystemConfig::checked_query_threads(threads.unwrap_or(0))?,
        page_cache_bytes: page_cache.map_or(SystemConfig::DEFAULT_PAGE_CACHE_BYTES, |b| b as u64),
        ..SystemConfig::default()
    };
    let mut system = MithriLog::new(config);
    let t0 = Instant::now();
    let report = system.ingest(text)?;
    eprintln!(
        "ingested {} lines / {} bytes into {} pages ({:.2}x LZAH) in {:.2?}",
        report.lines,
        report.raw_bytes,
        report.data_pages,
        report.compression_ratio(),
        t0.elapsed()
    );
    Ok(system)
}

/// `mithrilog query <logfile> [--threads <n>] [--page-cache <bytes>]
/// [--explain] <query...>`
///
/// `--threads` sets the parallel datapath's worker count (0 or omitted =
/// one worker per modeled flash channel; values above
/// [`SystemConfig::MAX_QUERY_THREADS`] are rejected). `--page-cache` sets
/// the decompressed-page cache budget in bytes (0 disables; omitted = the
/// 32 MiB default). Results are byte-identical for every value of either
/// flag; only physical device traffic and wall-clock time change.
/// `--explain` prints how the query would be planned — index decision,
/// per-segment bitmap pruning, clips — without scanning any data page.
pub fn query(args: &[String]) -> CliResult {
    let (threads, args) = take_usize_flag(args, "--threads")?;
    let (page_cache, args) = take_usize_flag(&args, "--page-cache")?;
    let (explain, args) = take_bool_flag(&args, "--explain");
    let (path, query_text) = split_path_query(&args, "query")?;
    let text = read_log(path)?;
    let mut system = ingest_with_opts(&text, threads, page_cache)?;
    if explain {
        let request = mithrilog::QueryRequest::parse(&query_text)?;
        let plan = system.explain(&request)?;
        println!("{plan}");
        return Ok(());
    }
    let outcome = system.query_str(&query_text)?;
    for line in &outcome.lines {
        println!("{line}");
    }
    eprintln!(
        "\n{} matching lines | offloaded: {} | index used: {} | pages scanned: {}/{} | \
         threads: {} | modeled device time: {:?} | wall: {:?}",
        outcome.match_count(),
        outcome.offloaded,
        outcome.used_index,
        outcome.pages_scanned,
        system.data_page_count(),
        system.config().resolved_query_threads(),
        outcome.modeled_time,
        outcome.wall_time,
    );
    if outcome.degraded.is_degraded() {
        eprintln!("DEGRADED: {}", outcome.degraded);
    }
    Ok(())
}

/// What a scrub drill concluded about the device, mapped by `main` onto
/// the documented exit codes: clean → 0, corruption found → 2 (operational
/// errors exit 1 like every other command).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubOutcome {
    /// Every page checksum verified.
    Clean,
    /// At least one corrupt page was found (and matched the fault plan).
    CorruptionFound,
}

/// `mithrilog scrub <logfile> [--flip-rate <p>] [--seed <n>] [--online]`
///
/// A fault drill: the log is ingested onto a device whose backing store
/// rots one random bit per written page with probability `p` (default 0.02,
/// deterministic per seed). A full scrub then verifies every page checksum;
/// its findings are compared against the faults actually injected, and a
/// sample degraded query shows recovery in action.
///
/// With `--online` the scrub runs through the concurrent service's idle
/// lane instead: the system is handed to a service whose scheduler
/// verifies pages in bounded slices between waves, quarantining corrupt
/// ones, and the sample query then shows quarantined pages being skipped
/// deterministically as a degraded read.
///
/// Exits 0 when the scrub finds the device clean, 2 when corruption was
/// found (so scripts and CI can gate on device health), and 1 on
/// operational errors — see [`ScrubOutcome`].
pub fn scrub(args: &[String]) -> Result<ScrubOutcome, Box<dyn Error>> {
    let online = args.iter().any(|a| a == "--online");
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: mithrilog scrub <logfile> [--flip-rate <p>] [--seed <n>] [--online]")?;
    let flip_rate = parse_f64_flag(args, "--flip-rate")?.unwrap_or(0.02);
    if !(0.0..=1.0).contains(&flip_rate) {
        return Err("--flip-rate must be in [0, 1]".into());
    }
    let seed = parse_flag(args, "--seed")?.unwrap_or(42) as u64;
    let text = read_log(path)?;

    let config = SystemConfig::default();
    let plan = FaultPlan::seeded(seed).with_bit_rot_rate(flip_rate);
    let store = FaultyStore::new(MemStore::new(config.device.page_bytes), plan);
    let mut system = MithriLog::with_store(store, config)?;
    let report = system.ingest(&text)?;
    eprintln!(
        "ingested {} lines into {} data pages (bit-rot rate {flip_rate}, seed {seed})",
        report.lines, report.data_pages
    );
    if online {
        return scrub_online(system);
    }

    let scrub = system.scrub();
    println!("{scrub}");
    let found: Vec<u64> = scrub.corrupt.iter().map(|c| c.page).collect();
    let planted = system.device().store().corrupted_pages();
    for c in &scrub.corrupt {
        println!(
            "  page {:>6}: checksum {:#010x}, expected {:#010x}",
            c.page, c.got, c.expected
        );
    }
    if found == planted {
        println!(
            "detection: scrub found exactly the {} pages the fault plan corrupted",
            planted.len()
        );
    } else {
        return Err(format!(
            "detection mismatch: scrub found {found:?}, fault plan corrupted {planted:?}"
        )
        .into());
    }

    let outcome = system.query_str("error OR failed OR FATAL")?;
    println!(
        "sample degraded query: {} matches from {} pages; {}",
        outcome.match_count(),
        outcome.pages_scanned,
        outcome.degraded
    );
    Ok(if found.is_empty() {
        ScrubOutcome::Clean
    } else {
        ScrubOutcome::CorruptionFound
    })
}

/// The `mithrilog scrub --online` drill: hand the faulted system to the
/// concurrent service, let its idle-time scrub lane verify every page in
/// bounded slices, then show quarantined pages being skipped
/// deterministically by a sample query.
fn scrub_online(system: MithriLog<FaultyStore<MemStore>>) -> Result<ScrubOutcome, Box<dyn Error>> {
    use std::time::Duration;
    let planted = system.device().store().corrupted_pages();
    let total_pages = system.device().page_count();
    let service = Service::spawn(
        system,
        ServiceConfig {
            scrub_batch: 64,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();

    // The scheduler is idle, so the scrub lane runs immediately; wait for
    // one full pass over the device (bounded — a wedged lane is an error,
    // not a hang).
    let deadline = Instant::now() + Duration::from_secs(60);
    let stats = loop {
        let stats = handle.stats();
        if stats.pages_scrubbed >= total_pages {
            break stats;
        }
        if Instant::now() > deadline {
            service.shutdown();
            return Err("online scrub did not complete a full pass in time".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    println!(
        "online scrub: {} pages verified across {} idle slices; {} quarantined",
        stats.pages_scrubbed, stats.scrub_slices, stats.pages_quarantined
    );
    if stats.pages_quarantined != planted.len() as u64 {
        service.shutdown();
        return Err(format!(
            "detection mismatch: online scrub quarantined {} pages, fault plan \
             corrupted {:?}",
            stats.pages_quarantined, planted
        )
        .into());
    }
    println!(
        "detection: online scrub quarantined exactly the {} pages the fault plan corrupted",
        planted.len()
    );

    // Quarantined pages are skipped up front, at zero cost, deterministically.
    let id = handle
        .submit_str("error OR failed OR FATAL", Priority::Normal)
        .map_err(|e| e.to_string())?;
    match handle.wait(id).map_err(|e| e.to_string())? {
        JobOutput::Query { outcome, .. } => println!(
            "sample degraded query: {} matches from {} pages; {}",
            outcome.match_count(),
            outcome.pages_scanned,
            outcome.degraded
        ),
        other => {
            service.shutdown();
            return Err(format!("expected a query result, got {other:?}").into());
        }
    }
    service.shutdown();
    Ok(if planted.is_empty() {
        ScrubOutcome::Clean
    } else {
        ScrubOutcome::CorruptionFound
    })
}

/// `mithrilog recover <storefile>` — mount an existing on-disk store,
/// running crash recovery, and print the [`RecoveryReport`].
///
/// `mithrilog recover --self-check [--points <k>] [--seed <n>]` — a
/// bounded, in-memory crash-matrix drill over a generated loggen corpus:
/// `k` evenly spaced power-loss points are injected into a batched ingest
/// and each surviving store is remounted, asserting that no acknowledged
/// line is lost and no partial batch is visible.
///
/// [`RecoveryReport`]: mithrilog::RecoveryReport
pub fn recover(args: &[String]) -> CliResult {
    if args.first().is_some_and(|a| a == "--self-check") {
        return crash_self_check(args);
    }
    let path = args.first().ok_or(
        "usage: mithrilog recover <storefile> | \
         mithrilog recover --self-check [--points <k>] [--seed <n>]",
    )?;
    let t0 = Instant::now();
    let (system, report) = MithriLog::open(std::path::Path::new(path), SystemConfig::default())?;
    println!("{report}");
    println!(
        "mounted in {:.2?}: {} lines / {} raw bytes across {} data pages \
         ({:.2}x LZAH)",
        t0.elapsed(),
        system.lines(),
        system.raw_bytes(),
        system.data_page_count(),
        system.compression_ratio()
    );
    Ok(())
}

/// The bounded crash-matrix drill behind `mithrilog recover --self-check`.
fn crash_self_check(args: &[String]) -> CliResult {
    let points = parse_flag(args, "--points")?.unwrap_or(16).max(1) as u64;
    let seed = parse_flag(args, "--seed")?.unwrap_or(0xC0FFEE) as u64;
    let config = SystemConfig::for_tests();
    let text = generate(&DatasetSpec {
        profile: DatasetProfile::Bgl2,
        target_bytes: 120_000,
        seed: 11,
    })
    .into_text();
    let batches = batch_lines(&text, 8);
    let is_crash =
        |e: &MithriLogError| matches!(e, MithriLogError::Storage(StorageError::Crashed { .. }));

    // Baseline with the power held up, to size the matrix: batch line
    // boundaries (the only legal recovered states) and the total op count.
    let mut boundaries = Vec::new();
    let total_ops = {
        let store = CrashStore::new(MemStore::new(config.device.page_bytes), CrashPlan::never());
        let mut system = MithriLog::with_store(store, config.clone())?;
        let mut acc = 0u64;
        for batch in &batches {
            acc += system.ingest(batch)?.lines;
            boundaries.push(acc);
        }
        system.device().store().ops()
    };

    let step = (total_ops / points).max(1);
    let mut checked = 0u64;
    for op in (1..=total_ops).step_by(step as usize).chain([total_ops]) {
        let plan = CrashPlan::crash_at(op).with_seed(seed);
        let (store, handle) =
            CrashStore::with_handle(MemStore::new(config.device.page_bytes), plan);
        let mut acked = 0u64;
        match MithriLog::with_store(store, config.clone()) {
            Ok(mut system) => {
                for batch in &batches {
                    match system.ingest(batch) {
                        Ok(report) => acked += report.lines,
                        Err(e) if is_crash(&e) => break,
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            Err(e) if !is_crash(&e) => return Err(e.into()),
            Err(_) => {}
        }
        match MithriLog::open_store(handle.snapshot(), config.clone()) {
            Ok((system, report)) => {
                let recovered = system.lines();
                let next = boundaries
                    .iter()
                    .copied()
                    .find(|&b| b > acked)
                    .unwrap_or(acked);
                if recovered != acked && recovered != next {
                    return Err(format!(
                        "SELF-CHECK FAILED at crash op {op}: recovered \
                         {recovered} lines, acked {acked} (report: {report})"
                    )
                    .into());
                }
                println!(
                    "crash at op {op:>4}: acked {acked:>4}, recovered \
                     {recovered:>4} — ok ({report})"
                );
            }
            Err(e) if acked == 0 => {
                println!("crash at op {op:>4}: pre-format crash, store unmountable — ok ({e})");
            }
            Err(e) => {
                return Err(format!(
                    "SELF-CHECK FAILED at crash op {op}: {acked} lines were \
                     acked but the store no longer mounts: {e}"
                )
                .into());
            }
        }
        checked += 1;
    }
    println!(
        "self-check passed: {checked} of {total_ops} crash points verified \
         (seed {seed}); no acknowledged line lost, no partial batch visible"
    );
    Ok(())
}

/// Splits `text` into `n` chunks on line boundaries.
fn batch_lines(text: &[u8], n: usize) -> Vec<&[u8]> {
    let target = text.len().div_ceil(n);
    let mut out = Vec::new();
    let mut start = 0;
    while start < text.len() {
        let mut end = (start + target).min(text.len());
        while end < text.len() && text[end] != b'\n' {
            end += 1;
        }
        if end < text.len() {
            end += 1;
        }
        out.push(&text[start..end]);
        start = end;
    }
    out
}

/// `mithrilog tag <logfile> [-n <k>]`
pub fn tag(args: &[String]) -> CliResult {
    let path = args
        .first()
        .ok_or("usage: mithrilog tag <logfile> [-n <k>]")?;
    let k = parse_flag(args, "-n")?.unwrap_or(8);
    let text = read_log(path)?;
    let library = TemplateLibrary::extract(&text, &default_ftree());
    if library.is_empty() {
        return Err("no templates extractable from this corpus".into());
    }
    let ids: Vec<usize> = (0..library.len().min(k)).collect();
    let joined = library.joined_query(&ids);
    let pipeline = FilterPipeline::compile(&joined)?;
    let counts = TemplateCounts::scan(&pipeline, &text);
    println!(
        "traffic by template ({} of {} templates tagged):",
        ids.len(),
        library.len()
    );
    for (set, n) in counts.ranking() {
        let t = &library.templates()[ids[set]];
        println!(
            "  #{:<4} {:>8} lines ({:>5.1}%)  {:?}",
            t.id(),
            n,
            n as f64 / counts.total() as f64 * 100.0,
            t.tokens()
        );
    }
    println!(
        "  untagged: {} lines ({:.1}%)",
        counts.unmatched(),
        counts.unmatched() as f64 / counts.total() as f64 * 100.0
    );
    Ok(())
}

/// `mithrilog stats <logfile>`
pub fn stats(args: &[String]) -> CliResult {
    let path = args.first().ok_or("usage: mithrilog stats <logfile>")?;
    let text = read_log(path)?;
    let system = ingest(&text)?;
    let stats = system.datapath_stats();
    println!("lines:               {}", system.lines());
    println!("raw bytes:           {}", system.raw_bytes());
    println!("data pages:          {}", system.data_page_count());
    println!("paged LZAH ratio:    {:.2}x", system.compression_ratio());
    println!("whole-file LZAH:     {:.2}x", Lzah::default().ratio(&text));
    println!("tokens:              {}", stats.tokens());
    println!("mean token length:   {:.1} B", stats.mean_token_len());
    println!("datapath useful:     {:.1}%", stats.useful_ratio() * 100.0);
    println!("tokenized amplif.:   {:.2}x", stats.amplification());
    println!("mean line length:    {:.1} B", stats.mean_line_len());
    println!("line length CV:      {:.2}", stats.line_len_cv());
    let t = system.modeled_throughput();
    println!(
        "modeled accelerator: {:.2} GB/s (bound by {})",
        t.total_gbps, t.bound_by
    );
    Ok(())
}

/// `mithrilog spikes <logfile> [--threads <n>] <query...>`
pub fn spikes(args: &[String]) -> CliResult {
    let (threads, args) = take_usize_flag(args, "--threads")?;
    let (path, query_text) = split_path_query(&args, "spikes")?;
    let text = read_log(path)?;
    let mut system = ingest_with_threads(&text, threads)?;
    let outcome = system.query_str(&query_text)?;
    eprintln!("{} events match {:?}", outcome.match_count(), query_text);
    let mut histogram = TimeHistogram::new(60);
    histogram.record_lines(outcome.lines.iter().map(String::as_str));
    if histogram.total() == 0 {
        return Err("no matching lines carry an epoch token (expected HPC4 line format)".into());
    }
    println!(
        "histogram: {} one-minute buckets, mean {:.1} events/bucket",
        histogram.bucket_count(),
        histogram.mean_rate()
    );
    let spikes = RateSpikeDetector::new(2.5).detect(&histogram);
    if spikes.is_empty() {
        println!("no rate spikes above z=2.5");
    }
    for s in spikes {
        println!(
            "SPIKE at epoch {} ({} events, z={:.1})",
            s.bucket_start, s.count, s.z_score
        );
    }
    Ok(())
}

/// `mithrilog gen <profile> <mb> <out>`
pub fn gen(args: &[String]) -> CliResult {
    let [profile, mb, out] = args else {
        return Err(
            "usage: mithrilog gen <bgl2|liberty2|spirit2|thunderbird> <mb> <outfile>".into(),
        );
    };
    let profile = match profile.to_ascii_lowercase().as_str() {
        "bgl2" => DatasetProfile::Bgl2,
        "liberty2" => DatasetProfile::Liberty2,
        "spirit2" => DatasetProfile::Spirit2,
        "thunderbird" => DatasetProfile::Thunderbird,
        other => return Err(format!("unknown profile {other:?}").into()),
    };
    let mb: f64 = mb.parse().map_err(|_| "size must be a number (MB)")?;
    let ds = generate(&DatasetSpec {
        profile,
        target_bytes: (mb * 1_000_000.0) as usize,
        seed: 42,
    });
    fs::write(out, ds.text())?;
    println!(
        "wrote {} lines / {} bytes of {} to {out}",
        ds.lines(),
        ds.text().len(),
        ds.name()
    );
    Ok(())
}

/// `mithrilog serve <logfile> [--port <p>] [--threads <n>]
/// [--max-queue <n>] [--max-batch <n>] [--budget <n>]
/// [--page-cache <bytes>] [--deadline <micros>] [--scrub-batch <pages>]
/// [--retain <segments>] [--shards <n>] [--route-mode <line-hash|tenant>]
/// [--route-salt <n>] [--tenant-queue <n>] [--tenant-budget <pages>]`
///
/// Ingests the log, then serves the concurrent query service's line
/// protocol on a loopback TCP port (`--port 0` or omitted = an ephemeral
/// port). The bound port is announced on stdout as `LISTENING <port>`
/// before the first connection is accepted, so scripts can wait for it.
/// Runs until a client sends `SHUTDOWN`.
///
/// `--max-queue` bounds the admission queue (overload is rejected, not
/// queued), `--max-batch` caps the queries per shared-scan wave,
/// `--budget` applies a default page (deadline) budget to queries that
/// carry none, and `--page-cache` sets the cross-wave decompressed-page
/// cache budget in bytes (0 disables; omitted = the 32 MiB default —
/// repeated queries across waves are served from host memory instead of
/// re-reading flash, visible as `cache_hits` in `STATS`).
///
/// `--deadline` applies a default modeled-time deadline (microseconds) to
/// queries that carry none: each plan is clipped to what the device model
/// can read in that time, reported honestly as a degraded read.
/// `--scrub-batch` turns on the online scrub lane: whenever the scheduler
/// is idle it verifies that many pages per slice, quarantining any that
/// fail, until a full pass completes (re-armed by every ingest).
/// `--retain` keeps at most that many sealed segments, dropping the
/// oldest crash-consistently after each ingest. Anything left over once
/// the flags are taken, other than the one log path, is a usage error.
///
/// `--shards <n>` serves the log from `n` fully independent modeled
/// devices behind the same port: ingest frames are routed
/// deterministically (`--route-mode line-hash|tenant`, `--route-salt
/// <n>`), queries scatter to every shard and gather into
/// single-device-identical results, and `STATS` gains per-shard
/// `shard.<k>.*` rows. `--tenant-queue <n>` caps how many queued jobs a
/// single tenant tag may hold (excess is rejected with the tenant's own
/// queue depth, so one tenant cannot monopolize admission), and
/// `--tenant-budget <n>` applies a page budget to tenant-tagged queries
/// before the `--budget` default.
pub fn serve(args: &[String]) -> CliResult {
    let (threads, args) = take_usize_flag(args, "--threads")?;
    let (port, args) = take_usize_flag(&args, "--port")?;
    let (max_queue, args) = take_usize_flag(&args, "--max-queue")?;
    let (max_batch, args) = take_usize_flag(&args, "--max-batch")?;
    let (budget, args) = take_usize_flag(&args, "--budget")?;
    let (page_cache, args) = take_usize_flag(&args, "--page-cache")?;
    let (deadline, args) = take_usize_flag(&args, "--deadline")?;
    let (scrub_batch, args) = take_usize_flag(&args, "--scrub-batch")?;
    let (retain, args) = take_usize_flag(&args, "--retain")?;
    let (shards, args) = take_usize_flag(&args, "--shards")?;
    let (route_mode, args) = take_str_flag(&args, "--route-mode")?;
    let (route_salt, args) = take_usize_flag(&args, "--route-salt")?;
    let (tenant_queue, args) = take_usize_flag(&args, "--tenant-queue")?;
    let (tenant_budget, args) = take_usize_flag(&args, "--tenant-budget")?;
    let path = only_path(
        &args,
        "usage: mithrilog serve <logfile> [--port <p>] [--threads <n>] \
         [--max-queue <n>] [--max-batch <n>] [--budget <n>] \
         [--page-cache <bytes>] [--deadline <micros>] [--scrub-batch <pages>] \
         [--retain <segments>] [--shards <n>] [--route-mode <line-hash|tenant>] \
         [--route-salt <n>] [--tenant-queue <n>] [--tenant-budget <pages>]",
    )?;
    let port = u16::try_from(port.unwrap_or(0)).map_err(|_| "--port must fit in 16 bits")?;
    let shards = shards.unwrap_or(1);
    if shards == 0 {
        return Err("--shards wants at least 1 device".into());
    }
    let mode = match route_mode.as_deref() {
        None => RouteMode::LineHash,
        Some(text) => RouteMode::parse(text)
            .ok_or_else(|| format!("--route-mode {text:?} is not line-hash or tenant"))?,
    };
    let text = read_log(path)?;
    let config = ServiceConfig {
        max_queue: max_queue.unwrap_or(ServiceConfig::default().max_queue),
        max_batch: max_batch.unwrap_or(ServiceConfig::default().max_batch),
        default_page_budget: budget.map(|b| b as u64),
        default_deadline: deadline.map(|us| std::time::Duration::from_micros(us as u64)),
        scrub_batch: scrub_batch.map_or(0, |b| b as u64),
        retain_segments: retain.map(|n| n as u64),
        tenant_max_queued: tenant_queue,
        tenant_page_budget: tenant_budget.map(|b| b as u64),
    };
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))?;
    if shards == 1 {
        let system = ingest_with_opts(&text, threads, page_cache)?;
        serve_listener(listener, system, config)
    } else {
        let system_config = SystemConfig {
            query_threads: SystemConfig::checked_query_threads(threads.unwrap_or(0))?,
            page_cache_bytes: page_cache
                .map_or(SystemConfig::DEFAULT_PAGE_CACHE_BYTES, |b| b as u64),
            ..SystemConfig::default()
        };
        let opts = ShardOptions {
            shards: u32::try_from(shards).map_err(|_| "--shards must fit in 32 bits")?,
            mode,
            salt: route_salt.unwrap_or(0) as u64,
        };
        let mut sharded = ShardedLog::new(system_config, opts);
        let t0 = Instant::now();
        let report = sharded.ingest(&text)?;
        eprintln!(
            "ingested {} lines / {} bytes into {} pages across {} shards ({:.2}x LZAH) in {:.2?}",
            report.lines,
            report.raw_bytes,
            report.data_pages,
            shards,
            report.compression_ratio(),
            t0.elapsed()
        );
        serve_listener(listener, sharded, config)
    }
}

/// `mithrilog segments <storefile>`
///
/// Mounts an existing on-disk store (running crash recovery) and lists
/// every sealed segment: id, member data-page range, line count, the
/// seal-time CRC summary, and whether the segment still carries
/// token-bitmap sidecars the wave planner can prune with.
pub fn segments(args: &[String]) -> CliResult {
    let path = args
        .first()
        .ok_or("usage: mithrilog segments <storefile>")?;
    let (system, recovery) = MithriLog::open(std::path::Path::new(path), SystemConfig::default())?;
    println!("{recovery}");
    let sealed = system.sealed_segments();
    println!(
        "{} sealed segments, {} pages open, {} lines total",
        sealed.len(),
        system.open_segment_pages(),
        system.lines()
    );
    for segment in sealed {
        println!(
            "  segment {:>4}: pages {}..{} ({:>4}), {:>7} lines, crc {:#010x}, bitmaps {}",
            segment.id,
            segment.first_page,
            segment.last_page,
            segment.pages,
            segment.lines,
            segment.crc,
            if segment.has_bitmaps { "yes" } else { "no" }
        );
    }
    Ok(())
}

/// `mithrilog retention <storefile> --keep <segments>`
///
/// Mounts an existing on-disk store (running crash recovery), then drops
/// the oldest sealed segments until at most `--keep` remain. The drop is
/// journaled and committed through the same two-barrier protocol as an
/// ingest, so a crash mid-way either keeps or drops each segment whole —
/// a remount never sees half a retention pass. The open (unsealed)
/// segment is never dropped.
pub fn retention(args: &[String]) -> CliResult {
    let (keep, args) = take_usize_flag(args, "--keep")?;
    let path = args
        .first()
        .ok_or("usage: mithrilog retention <storefile> --keep <segments>")?;
    let keep = keep.ok_or("usage: mithrilog retention <storefile> --keep <segments>")? as u64;
    let (mut system, recovery) =
        MithriLog::open(std::path::Path::new(path), SystemConfig::default())?;
    println!("{recovery}");
    let before = system.sealed_segments();
    println!(
        "mounted: {} sealed segments, {} pages open, {} lines total",
        before.len(),
        system.open_segment_pages(),
        system.lines()
    );
    let report = system.apply_retention(keep)?;
    println!("{report}");
    for segment in system.sealed_segments() {
        println!(
            "  segment {:>4}: {} pages, {} lines, crc {:#010x}",
            segment.id, segment.pages, segment.lines, segment.crc
        );
    }
    Ok(())
}

/// The serve loop behind [`serve`], split out so tests (and embedders) can
/// bring their own listener: announces the bound port, runs the service
/// and the TCP front-end until `SHUTDOWN`, then shuts the service down.
fn serve_listener<B: ServiceBackend>(
    listener: std::net::TcpListener,
    system: B,
    config: ServiceConfig,
) -> CliResult {
    use std::io::Write;
    let port = listener.local_addr()?.port();
    let service = Service::spawn(system, config);
    println!("LISTENING {port}");
    std::io::stdout().flush()?;
    let result = mithrilog_service::server::serve(listener, &service.handle());
    service.shutdown();
    result?;
    eprintln!("serve: shut down cleanly");
    Ok(())
}

fn split_path_query<'a>(
    args: &'a [String],
    cmd: &str,
) -> Result<(&'a str, String), Box<dyn Error>> {
    let (path, rest) = args
        .split_first()
        .ok_or_else(|| format!("usage: mithrilog {cmd} <logfile> <query...>"))?;
    if rest.is_empty() {
        return Err(format!("usage: mithrilog {cmd} <logfile> <query...>").into());
    }
    Ok((path, rest.join(" ")))
}

/// Removes `flag <value>` from `args`, returning the parsed value and the
/// remaining arguments — for flags that may appear anywhere among
/// positional arguments that are later joined (query text).
fn take_usize_flag(
    args: &[String],
    flag: &str,
) -> Result<(Option<usize>, Vec<String>), Box<dyn Error>> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok((None, args.to_vec()));
    };
    let v = args
        .get(pos + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    let v: usize = v.parse().map_err(|_| format!("{flag} needs an integer"))?;
    let mut rest = args.to_vec();
    rest.drain(pos..=pos + 1);
    Ok((Some(v), rest))
}

/// Removes `flag <value>` from `args`, returning the raw string value and
/// the remaining arguments.
fn take_str_flag(
    args: &[String],
    flag: &str,
) -> Result<(Option<String>, Vec<String>), Box<dyn Error>> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok((None, args.to_vec()));
    };
    let v = args
        .get(pos + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?
        .clone();
    let mut rest = args.to_vec();
    rest.drain(pos..=pos + 1);
    Ok((Some(v), rest))
}

/// The one positional argument left once a command's flags are taken: a
/// usage error when there is none, and an error naming the first stray
/// argument (an unknown flag before a second positional) when there is
/// anything else.
fn only_path<'a>(args: &'a [String], usage: &str) -> Result<&'a str, Box<dyn Error>> {
    let stray = args
        .iter()
        .find(|a| a.starts_with("--"))
        .or_else(|| args.get(1));
    match (args.first(), stray) {
        (Some(path), None) => Ok(path),
        (None, _) => Err(usage.into()),
        (Some(_), Some(stray)) => Err(format!("unexpected argument {stray:?}\n{usage}").into()),
    }
}

/// Removes a value-less `flag` from `args`, returning whether it was
/// present and the remaining arguments.
fn take_bool_flag(args: &[String], flag: &str) -> (bool, Vec<String>) {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return (false, args.to_vec());
    };
    let mut rest = args.to_vec();
    rest.remove(pos);
    (true, rest)
}

fn parse_flag(args: &[String], flag: &str) -> Result<Option<usize>, Box<dyn Error>> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        let v = args
            .get(pos + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        return Ok(Some(
            v.parse().map_err(|_| format!("{flag} needs an integer"))?,
        ));
    }
    Ok(None)
}

fn parse_f64_flag(args: &[String], flag: &str) -> Result<Option<f64>, Box<dyn Error>> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        let v = args
            .get(pos + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        return Ok(Some(
            v.parse().map_err(|_| format!("{flag} needs a number"))?,
        ));
    }
    Ok(None)
}

fn default_ftree() -> FtreeConfig {
    FtreeConfig {
        min_support: 8,
        max_children: 24,
        max_depth: 12,
        min_leaf_fraction: 0.0002,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// A fresh corpus file per call: tests run on parallel threads in one
    /// process and each removes its file when done.
    fn temp_log() -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join("mithrilog-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("log-{}-{n}.txt", std::process::id()));
        let ds = generate(&DatasetSpec {
            profile: DatasetProfile::Liberty2,
            target_bytes: 150_000,
            seed: 99,
        });
        std::fs::write(&path, ds.text()).unwrap();
        path
    }

    #[test]
    fn split_path_query_joins_arguments() {
        let args = strs(&["file.log", "failed", "AND", "NOT", "ok"]);
        let (path, q) = split_path_query(&args, "query").unwrap();
        assert_eq!(path, "file.log");
        assert_eq!(q, "failed AND NOT ok");
        assert!(split_path_query(&strs(&["file.log"]), "query").is_err());
        assert!(split_path_query(&[], "query").is_err());
    }

    #[test]
    fn parse_flag_extracts_values() {
        let args = strs(&["x.log", "-n", "12"]);
        assert_eq!(parse_flag(&args, "-n").unwrap(), Some(12));
        assert_eq!(parse_flag(&strs(&["x.log"]), "-n").unwrap(), None);
        assert!(parse_flag(&strs(&["-n"]), "-n").is_err());
        assert!(parse_flag(&strs(&["-n", "abc"]), "-n").is_err());
    }

    #[test]
    fn query_command_end_to_end() {
        let path = temp_log();
        let args = strs(&[path.to_str().unwrap(), "session", "AND", "opened"]);
        query(&args).expect("query command");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_command_explain_flag_plans_without_scanning() {
        let path = temp_log();
        let args = strs(&[
            path.to_str().unwrap(),
            "--explain",
            "session",
            "AND",
            "opened",
        ]);
        query(&args).expect("query --explain command");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn take_usize_flag_extracts_and_removes() {
        let args = strs(&["x.log", "--threads", "4", "failed", "AND", "ok"]);
        let (threads, rest) = take_usize_flag(&args, "--threads").unwrap();
        assert_eq!(threads, Some(4));
        assert_eq!(rest, strs(&["x.log", "failed", "AND", "ok"]));
        let (none, same) = take_usize_flag(&rest, "--threads").unwrap();
        assert_eq!(none, None);
        assert_eq!(same, rest);
        assert!(take_usize_flag(&strs(&["--threads"]), "--threads").is_err());
        assert!(take_usize_flag(&strs(&["--threads", "x"]), "--threads").is_err());
    }

    #[test]
    fn serve_rejects_stray_arguments_by_name() {
        assert_eq!(only_path(&strs(&["x.log"]), "usage").unwrap(), "x.log");
        assert_eq!(only_path(&[], "usage").unwrap_err().to_string(), "usage");
        for (args, stray) in [
            (&["x.log", "--no-overlap"][..], "--no-overlap"),
            (&["--shard", "2", "x.log"][..], "--shard"),
            (&["x.log", "y.log"][..], "y.log"),
        ] {
            let err = serve(&strs(args)).unwrap_err().to_string();
            assert!(
                err.starts_with(&format!(
                    "unexpected argument {stray:?}\nusage: mithrilog serve"
                )),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn query_command_accepts_threads_flag() {
        let path = temp_log();
        for threads in ["1", "4"] {
            let args = strs(&[
                path.to_str().unwrap(),
                "--threads",
                threads,
                "session",
                "AND",
                "opened",
            ]);
            query(&args).expect("query with --threads");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_command_accepts_page_cache_flag() {
        let path = temp_log();
        // 0 disables the cache; a small budget enables it. Results are
        // byte-identical either way, so both must simply succeed.
        for cache in ["0", "1048576"] {
            let args = strs(&[
                path.to_str().unwrap(),
                "--page-cache",
                cache,
                "session",
                "AND",
                "opened",
            ]);
            query(&args).expect("query with --page-cache");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_and_tag_commands_end_to_end() {
        let path = temp_log();
        stats(&strs(&[path.to_str().unwrap()])).expect("stats command");
        tag(&strs(&[path.to_str().unwrap(), "-n", "4"])).expect("tag command");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spikes_command_end_to_end() {
        let path = temp_log();
        spikes(&strs(&[path.to_str().unwrap(), "session"])).expect("spikes command");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gen_command_writes_profile() {
        let dir = std::env::temp_dir().join("mithrilog-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join(format!("gen-{}.log", std::process::id()));
        gen(&strs(&["bgl2", "0.05", out.to_str().unwrap()])).expect("gen command");
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.lines().all(|l| l.contains(" RAS ")));
        assert!(gen(&strs(&["nosuch", "1", "/tmp/x"])).is_err());
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let e = query(&strs(&["/definitely/not/here.log", "x"])).unwrap_err();
        assert!(e.to_string().contains("cannot read"));
    }

    #[test]
    fn scrub_command_end_to_end() {
        let path = temp_log();
        // Aggressive rot so the drill definitely corrupts some pages — and
        // reports it, so `main` can exit 2.
        let outcome = scrub(&strs(&[
            path.to_str().unwrap(),
            "--flip-rate",
            "0.2",
            "--seed",
            "7",
        ]))
        .expect("scrub command");
        assert_eq!(outcome, ScrubOutcome::CorruptionFound);
        // Clean device: scrub succeeds, finding nothing (exit 0).
        let outcome =
            scrub(&strs(&[path.to_str().unwrap(), "--flip-rate", "0"])).expect("clean scrub");
        assert_eq!(outcome, ScrubOutcome::Clean);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scrub_online_end_to_end() {
        let path = temp_log();
        // The online lane quarantines the same pages the offline drill
        // finds corrupt, and the sample query reports the skips honestly.
        let outcome = scrub(&strs(&[
            path.to_str().unwrap(),
            "--flip-rate",
            "0.2",
            "--seed",
            "7",
            "--online",
        ]))
        .expect("online scrub");
        assert_eq!(outcome, ScrubOutcome::CorruptionFound);
        let outcome = scrub(&strs(&[
            path.to_str().unwrap(),
            "--flip-rate",
            "0",
            "--online",
        ]))
        .expect("clean online scrub");
        assert_eq!(outcome, ScrubOutcome::Clean);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_command_mounts_an_existing_store() {
        let dir = std::env::temp_dir().join("mithrilog-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join(format!("store-{}.mlog", std::process::id()));
        let _ = std::fs::remove_file(&store);
        {
            let mut system = MithriLog::create(&store, SystemConfig::default()).unwrap();
            system.ingest(b"alpha event one\nbeta event two\n").unwrap();
        }
        recover(&strs(&[store.to_str().unwrap()])).expect("recover command");
        std::fs::remove_file(&store).ok();
        // A missing store is a clean error, not a fresh format.
        assert!(recover(&strs(&[store.to_str().unwrap()])).is_err());
        assert!(recover(&[]).is_err());
    }

    #[test]
    fn retention_command_drops_segments_durably() {
        let dir = std::env::temp_dir().join("mithrilog-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join(format!("retain-{}.mlog", std::process::id()));
        let _ = std::fs::remove_file(&store);
        let config = SystemConfig {
            segment_pages: 2,
            ..SystemConfig::default()
        };
        {
            let mut system = MithriLog::create(&store, config.clone()).unwrap();
            for round in 0..8 {
                let text = format!("retention round {round} event line\n").repeat(200);
                system.ingest(text.as_bytes()).unwrap();
            }
            assert!(system.sealed_segment_count() >= 4);
        }
        retention(&strs(&[store.to_str().unwrap(), "--keep", "2"])).expect("retention command");
        // The drop is durable: a fresh mount sees at most 2 sealed segments.
        let (system, _) = MithriLog::open(&store, config).unwrap();
        assert!(system.sealed_segment_count() <= 2);
        assert!(system.lines() > 0, "retained data still mounts");
        std::fs::remove_file(&store).ok();
        // Missing flags and files are clean errors.
        assert!(retention(&[]).is_err());
        assert!(retention(&strs(&[store.to_str().unwrap(), "--keep", "2"])).is_err());
    }

    #[test]
    fn recover_self_check_passes_a_bounded_matrix() {
        recover(&strs(&["--self-check", "--points", "3"])).expect("self-check");
    }

    #[test]
    fn query_rejects_absurd_thread_counts() {
        let path = temp_log();
        let args = strs(&[path.to_str().unwrap(), "--threads", "100000", "session"]);
        let e = query(&args).unwrap_err();
        assert!(e.to_string().contains("1024"), "{e}");
        // The bound itself is accepted... by the validator; actually
        // spawning 1024 workers is pointlessly slow, so only validate.
        assert!(SystemConfig::checked_query_threads(1024).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_command_speaks_the_line_protocol() {
        use std::io::{BufRead, BufReader, Write};
        let path = temp_log();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut response = |request: &str| -> Vec<String> {
                writer.write_all(request.as_bytes()).unwrap();
                let mut lines = Vec::new();
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    let line = line.trim_end_matches('\n').to_string();
                    if line == "." {
                        return lines;
                    }
                    lines.push(line);
                }
            };
            assert_eq!(response("SUBMIT q=session AND opened\n"), vec!["OK id=0"]);
            let done = response("WAIT 0\n");
            assert!(done[0].starts_with("OK done kind=query"), "{done:?}");
            let stats = response("STATS\n");
            assert!(stats.contains(&"completed=1".to_string()), "{stats:?}");
            assert_eq!(response("SHUTDOWN\n"), vec!["OK bye"]);
        });
        let text = read_log(path.to_str().unwrap()).unwrap();
        let system = ingest(&text).unwrap();
        serve_listener(listener, system, ServiceConfig::default()).expect("serve loop");
        client.join().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(serve(&[]).is_err());
        assert!(serve(&strs(&["--port", "99999999", "x.log"])).is_err());
        let path = temp_log();
        let e = serve(&strs(&[path.to_str().unwrap(), "--threads", "4096"])).unwrap_err();
        assert!(e.to_string().contains("1024"), "{e}");
        let e = serve(&strs(&[path.to_str().unwrap(), "--shards", "0"])).unwrap_err();
        assert!(e.to_string().contains("--shards"), "{e}");
        let e = serve(&strs(&[path.to_str().unwrap(), "--route-mode", "nope"])).unwrap_err();
        assert!(e.to_string().contains("--route-mode"), "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_listener_serves_a_sharded_topology() {
        use std::io::{BufRead, BufReader, Write};
        let path = temp_log();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut response = |request: &str| -> Vec<String> {
                writer.write_all(request.as_bytes()).unwrap();
                let mut lines = Vec::new();
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    let line = line.trim_end_matches('\n').to_string();
                    if line == "." {
                        return lines;
                    }
                    lines.push(line);
                }
            };
            assert_eq!(
                response("SUBMIT tenant=acme q=session AND opened\n"),
                vec!["OK id=0"]
            );
            let done = response("WAIT 0\n");
            assert!(done[0].starts_with("OK done kind=query"), "{done:?}");
            let stats = response("STATS\n");
            assert!(stats.contains(&"shards=2".to_string()), "{stats:?}");
            assert!(
                stats.iter().any(|l| l.starts_with("shard.1.lines=")),
                "{stats:?}"
            );
            assert!(
                stats.contains(&"tenant.acme.completed=1".to_string()),
                "{stats:?}"
            );
            assert_eq!(response("SHUTDOWN\n"), vec!["OK bye"]);
        });
        let text = read_log(path.to_str().unwrap()).unwrap();
        let mut sharded = ShardedLog::new(
            SystemConfig::default(),
            ShardOptions {
                shards: 2,
                mode: RouteMode::LineHash,
                salt: 7,
            },
        );
        sharded.ingest(&text).unwrap();
        serve_listener(listener, sharded, ServiceConfig::default()).expect("serve loop");
        client.join().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segments_command_lists_sealed_segments() {
        let dir = std::env::temp_dir().join("mithrilog-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join(format!("segments-{}.mlog", std::process::id()));
        let _ = std::fs::remove_file(&store);
        let config = SystemConfig {
            segment_pages: 2,
            ..SystemConfig::default()
        };
        {
            let mut system = MithriLog::create(&store, config).unwrap();
            for round in 0..4 {
                let text = format!("segments round {round} event line\n").repeat(200);
                system.ingest(text.as_bytes()).unwrap();
            }
            assert!(system.sealed_segment_count() >= 2);
        }
        segments(&strs(&[store.to_str().unwrap()])).expect("segments command");
        std::fs::remove_file(&store).ok();
        // A missing store and missing args are clean errors.
        assert!(segments(&strs(&[store.to_str().unwrap()])).is_err());
        assert!(segments(&[]).is_err());
    }

    #[test]
    fn scrub_rejects_bad_rates() {
        let path = temp_log();
        assert!(scrub(&strs(&[path.to_str().unwrap(), "--flip-rate", "1.5"])).is_err());
        assert!(scrub(&strs(&[path.to_str().unwrap(), "--flip-rate", "nope"])).is_err());
        assert!(scrub(&[]).is_err());
        std::fs::remove_file(&path).ok();
    }
}
