//! Per-segment token bitmaps: negated-term pruning must never change a
//! query's result — only how many pages the planner reads to produce it.
//!
//! The contract (DESIGN.md, "Wave planner"): a sealed page may be skipped
//! only on *proof* — a positive term whose hash bucket is unset (the term
//! cannot be on the page) or a negated term byte-equal to a token present
//! on every line of the page (every line is disqualified). The observable
//! consequence, tested here against a `bitmap_buckets: 0` replica that
//! replays the seed full-scan planner: byte-identical lines on clean
//! devices, under all four fault modes (bit rot, torn writes, transient
//! reads, crashes), and strictly fewer pages scanned whenever a negated
//! term saturates the corpus. Corrupt sidecars must degrade the plan back
//! to conservative scanning — counted, never lied about.

use mithrilog::{MithriLog, SystemConfig};
use mithrilog_loggen::{generate, DatasetProfile, DatasetSpec};
use mithrilog_storage::{
    CrashPlan, CrashStore, FaultKind, FaultPlan, FaultyStore, MemStore, PageStore,
};
use proptest::prelude::*;

/// Segments seal every 16 pages so a modest corpus freezes several bitmap
/// sidecars (the default 256 would leave everything in the open segment).
const SEGMENT_PAGES: u64 = 16;

fn bitmap_config() -> SystemConfig {
    SystemConfig {
        segment_pages: SEGMENT_PAGES,
        ..SystemConfig::for_tests()
    }
}

/// The seed planner: identical except the bitmaps are never built, so
/// negative-only queries full-scan.
fn seed_config() -> SystemConfig {
    SystemConfig {
        bitmap_buckets: 0,
        ..bitmap_config()
    }
}

fn corpus(target_bytes: usize) -> Vec<u8> {
    generate(&DatasetSpec {
        profile: DatasetProfile::Bgl2,
        target_bytes,
        seed: 7,
    })
    .into_text()
}

/// Queries mixing saturating negations (`RAS` is on every BGL line),
/// non-saturating negations, and positive controls.
const QUERIES: [&str; 6] = [
    "NOT RAS",
    "FATAL AND NOT RAS",
    "NOT FATAL",
    "KERNEL AND NOT FATAL",
    "FATAL",
    "RAS OR KERNEL",
];

#[test]
fn negated_queries_prune_pages_and_stay_byte_identical() {
    let text = corpus(250_000);
    let mut seed = MithriLog::new(seed_config());
    seed.ingest(&text).unwrap();
    let mut bitmapped = MithriLog::new(bitmap_config());
    bitmapped.ingest(&text).unwrap();
    assert!(
        !bitmapped.bitmap_sidecar_locations().is_empty(),
        "corpus must seal at least one segment with a persisted sidecar"
    );

    for q in QUERIES {
        let want = seed.query_str(q).unwrap();
        let got = bitmapped.query_str(q).unwrap();
        assert_eq!(got.lines, want.lines, "query {q:?} diverged from seed");
        assert!(
            got.pages_scanned <= want.pages_scanned,
            "query {q:?}: pruning may never add pages"
        );
    }

    // The saturating negation is the headline: the seed full-scans, the
    // bitmaps reduce the scan to the open (unsealed) tail.
    let full = seed.query_str("NOT RAS").unwrap();
    let pruned = bitmapped.query_str("NOT RAS").unwrap();
    assert!(
        pruned.pages_scanned < full.pages_scanned,
        "saturating negation must prune: {} vs {}",
        pruned.pages_scanned,
        full.pages_scanned
    );
}

/// Data pages of a clean probe ingest. Data pages are appended before each
/// commit's metadata, so their ids are identical whether or not sidecar
/// blobs ride the commit — the same schedule hits the same data both ways.
fn probe_data_pages(text: &[u8]) -> Vec<u64> {
    let mut probe = MithriLog::new(bitmap_config());
    probe.ingest(text).unwrap();
    probe.data_pages().iter().map(|p| p.0).collect()
}

fn faulted_system(
    config: SystemConfig,
    text: &[u8],
    schedule: &[(u64, FaultKind)],
) -> MithriLog<FaultyStore<MemStore>> {
    let mut plan = FaultPlan::seeded(99);
    for &(page, kind) in schedule {
        plan = plan.with_scheduled(page, kind);
    }
    let store = FaultyStore::new(MemStore::new(config.device.page_bytes), plan);
    let mut system = MithriLog::with_store(store, config).unwrap();
    system.ingest(text).unwrap();
    system
}

/// Bit rot, torn writes, and transient reads on data pages: the pruned
/// planner must return exactly the lines the full-scan planner returns.
/// (A corrupt page the bitmaps prove non-matching may legally go unvisited
/// — the full scan skips it with zero surviving lines either way.)
#[test]
fn bitmap_pruning_matches_full_scan_under_data_faults() {
    let text = corpus(250_000);
    let data_pages = probe_data_pages(&text);
    assert!(data_pages.len() >= 10);
    let schedule = vec![
        (data_pages[1], FaultKind::BitRot { bit: 5 }),
        (data_pages[3], FaultKind::TransientRead { failures: 2 }),
        (data_pages[6], FaultKind::TransientRead { failures: 50 }),
        (data_pages[9], FaultKind::TornWrite { valid_bytes: 100 }),
    ];

    let mut degraded_seen = false;
    for q in QUERIES {
        let want = faulted_system(seed_config(), &text, &schedule)
            .query_str(q)
            .unwrap();
        let got = faulted_system(bitmap_config(), &text, &schedule)
            .query_str(q)
            .unwrap();
        assert_eq!(
            got.lines, want.lines,
            "query {q:?} diverged from the faulted full scan"
        );
        assert!(
            got.pages_scanned <= want.pages_scanned,
            "query {q:?}: pruning may never add pages under faults"
        );
        degraded_seen |= !want.degraded.skipped_pages.is_empty() || want.degraded.retries > 0;
    }
    assert!(degraded_seen, "the fault schedule must actually bite");
}

/// Crash mode: power dies mid-workload; the surviving bytes are mounted
/// twice — once with bitmaps enabled (sidecars loaded, pruning active),
/// once with `bitmap_buckets: 0` (directory discarded, full scans). Both
/// mounts see the same recovered prefix and must agree byte for byte.
#[test]
fn crash_recovered_mount_prunes_identically_to_full_scan_mount() {
    let text = corpus(250_000);
    let batches: Vec<&[u8]> = split_lines(&text, 6);

    // Size the op space with the power held up.
    let (store, handle) = CrashStore::with_handle(
        MemStore::new(bitmap_config().device.page_bytes),
        CrashPlan::never(),
    );
    let mut baseline = MithriLog::with_store(store, bitmap_config()).unwrap();
    for b in &batches {
        baseline.ingest(b).unwrap();
    }
    let total_ops = baseline.device().store().ops();
    drop(baseline);
    let _ = handle;

    let mut pruning_mount_seen = false;
    for frac in [2, 3, 6, 7] {
        let crash_op = total_ops * frac / 8;
        let (store, handle) = CrashStore::with_handle(
            MemStore::new(bitmap_config().device.page_bytes),
            CrashPlan::crash_at(crash_op).with_seed(0xC0FFEE),
        );
        let mut system = MithriLog::with_store(store, bitmap_config())
            .map(Some)
            .unwrap_or(None);
        if let Some(sys) = system.as_mut() {
            for b in &batches {
                if sys.ingest(b).is_err() {
                    break;
                }
            }
        }
        drop(system);
        let durable = handle.snapshot();

        let Ok((mut pruned, _)) = MithriLog::open_store(durable.clone(), bitmap_config()) else {
            continue; // crash before the first commit: nothing to mount
        };
        let (mut full, _) = MithriLog::open_store(durable, seed_config()).unwrap();
        assert_eq!(pruned.lines(), full.lines(), "mounts see the same prefix");
        for q in QUERIES {
            let want = full.query_str(q).unwrap();
            let got = pruned.query_str(q).unwrap();
            assert_eq!(
                got.lines, want.lines,
                "crash@{crash_op} query {q:?}: pruned mount diverged"
            );
        }
        if !pruned.bitmap_sidecar_locations().is_empty() {
            pruning_mount_seen = true;
            let want = full.query_str("NOT RAS").unwrap();
            let got = pruned.query_str("NOT RAS").unwrap();
            assert!(
                got.pages_scanned < want.pages_scanned,
                "crash@{crash_op}: recovered sidecars must still prune"
            );
        }
    }
    assert!(
        pruning_mount_seen,
        "at least one crash point must recover a sealed segment's sidecar"
    );
}

fn split_lines(text: &[u8], parts: usize) -> Vec<&[u8]> {
    let target = text.len().div_ceil(parts);
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

/// A sidecar corrupted *on disk* fails its CRC at mount: the segment's
/// bitmaps are dropped (counted in the recovery report), the plan goes
/// conservative, and every result stays correct.
#[test]
fn corrupt_sidecar_at_mount_degrades_not_lies() {
    let text = corpus(250_000);
    let (store, handle) = CrashStore::with_handle(
        MemStore::new(bitmap_config().device.page_bytes),
        CrashPlan::never(),
    );
    let mut system = MithriLog::with_store(store, bitmap_config()).unwrap();
    system.ingest(&text).unwrap();
    let sidecars = system.bitmap_sidecar_locations();
    assert!(!sidecars.is_empty(), "need a persisted sidecar to corrupt");
    let pruned_before = system.query_str("NOT RAS").unwrap().pages_scanned;
    drop(system);

    let mut durable = handle.snapshot();
    let (_, first_page, page_count) = sidecars[0];
    let page_bytes = bitmap_config().device.page_bytes;
    for p in first_page..first_page + page_count {
        durable
            .write_page(mithrilog_storage::PageId(p), &vec![0xA5u8; page_bytes])
            .unwrap();
    }

    let (mut recovered, report) = MithriLog::open_store(durable, bitmap_config()).unwrap();
    assert!(
        report.segment_bitmaps_dropped >= 1,
        "the mount must count the corrupt sidecar: {report}"
    );
    // The dropped segment now scans conservatively: more pages than the
    // fully-bitmapped system, but never a wrong line.
    let mut clean = MithriLog::new(bitmap_config());
    clean.ingest(&text).unwrap();
    for q in QUERIES {
        let want = clean.query_str(q).unwrap();
        let got = recovered.query_str(q).unwrap();
        assert_eq!(got.lines, want.lines, "query {q:?} lied after the drop");
    }
    let after = recovered.query_str("NOT RAS").unwrap().pages_scanned;
    assert!(
        after > pruned_before,
        "the dropped segment must plan conservatively ({after} vs {pruned_before})"
    );
}

/// The same corruption found *online*: `scrub()` re-validates every
/// sidecar, drops the broken one, and reports it in
/// [`ScrubReport::bitmaps_dropped`](mithrilog_storage::ScrubReport).
#[test]
fn corrupt_sidecar_at_scrub_degrades_not_lies() {
    let text = corpus(250_000);
    let mut system = MithriLog::new(bitmap_config());
    system.ingest(&text).unwrap();
    let sidecars = system.bitmap_sidecar_locations();
    assert!(!sidecars.is_empty(), "need a persisted sidecar to corrupt");
    let pruned_before = system.query_str("NOT RAS").unwrap().pages_scanned;

    let (_, first_page, page_count) = sidecars[0];
    let page_bytes = system.device().page_bytes();
    for p in first_page..first_page + page_count {
        system
            .device_mut()
            .store_mut()
            .write_page(mithrilog_storage::PageId(p), &vec![0xA5u8; page_bytes])
            .unwrap();
    }

    let report = system.scrub();
    assert!(
        report.bitmaps_dropped >= 1,
        "scrub must count the corrupt sidecar: {report:?}"
    );
    // A second scrub finds nothing new: the ref is gone, not re-counted.
    assert_eq!(system.scrub().bitmaps_dropped, 0);

    let mut clean = MithriLog::new(bitmap_config());
    clean.ingest(&text).unwrap();
    for q in QUERIES {
        let want = clean.query_str(q).unwrap();
        let got = system.query_str(q).unwrap();
        assert_eq!(got.lines, want.lines, "query {q:?} lied after the drop");
    }
    let after = system.query_str("NOT RAS").unwrap().pages_scanned;
    assert!(
        after > pruned_before,
        "the dropped segment must plan conservatively ({after} vs {pruned_before})"
    );
}

/// The same corruption found by bounded `scrub_slice` calls alone, the way
/// a service's idle lane scrubs: the slice that completes the pass checks
/// the sidecars and counts the broken one.
#[test]
fn corrupt_sidecar_at_online_scrub_slice_is_dropped() {
    let text = corpus(250_000);
    let mut system = MithriLog::new(bitmap_config());
    system.ingest(&text).unwrap();
    let sidecars = system.bitmap_sidecar_locations();
    assert!(!sidecars.is_empty(), "need a persisted sidecar to corrupt");
    let pruned_before = system.query_str("NOT RAS").unwrap().pages_scanned;

    let (_, first_page, page_count) = sidecars[0];
    let page_bytes = system.device().page_bytes();
    for p in first_page..first_page + page_count {
        system
            .device_mut()
            .store_mut()
            .write_page(mithrilog_storage::PageId(p), &vec![0xA5u8; page_bytes])
            .unwrap();
    }

    let mut cursor = 0;
    let mut dropped = 0;
    let mut slices = 0;
    loop {
        let slice = system.scrub_slice(cursor, 8);
        dropped += slice.report.bitmaps_dropped;
        slices += 1;
        assert!(slices < 10_000, "the scrub pass must terminate");
        if slice.complete {
            break;
        }
        cursor = slice.next;
    }
    assert!(slices > 1, "the pass must take several slices");
    assert!(
        dropped >= 1,
        "the online pass must count the corrupt sidecar"
    );
    assert_eq!(
        system.bitmap_sidecar_locations().len(),
        sidecars.len() - 1,
        "the broken sidecar's ref is gone"
    );
    let after = system.query_str("NOT RAS").unwrap().pages_scanned;
    assert!(
        after > pruned_before,
        "the dropped segment must plan conservatively ({after} vs {pruned_before})"
    );
}

// ---------------------------------------------------------------------------
// Property: pruning never skips a page holding a matching line. Random
// corpora over a tiny token alphabet (so 8 hash buckets collide hard),
// with optional hot tokens stamped on every line (saturating) and empty
// lines mixed in; random conjunctions with random negations. The
// bitmapped replica must return exactly the full-scan replica's lines.
// ---------------------------------------------------------------------------

const ALPHABET: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "hot"];

fn line_strategy() -> impl Strategy<Value = Vec<usize>> {
    // Token indices for one line; empty = blank line.
    proptest::collection::vec(0..ALPHABET.len(), 0..5)
}

fn query_strategy() -> impl Strategy<Value = Vec<(usize, bool)>> {
    proptest::collection::vec((0..ALPHABET.len(), any::<bool>()), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pruning_never_skips_a_matching_page(
        lines in proptest::collection::vec(line_strategy(), 20..200),
        saturate_hot in any::<bool>(),
        queries in proptest::collection::vec(query_strategy(), 1..4),
    ) {
        let mut text = String::new();
        for tokens in &lines {
            if saturate_hot {
                text.push_str("hot ");
            }
            for &t in tokens {
                text.push_str(ALPHABET[t]);
                text.push(' ');
            }
            text.push('\n');
        }
        // Tiny segments and few buckets: seals fast, collides hard.
        let bm_config = SystemConfig {
            segment_pages: 4,
            bitmap_buckets: 8,
            ..SystemConfig::for_tests()
        };
        let fs_config = SystemConfig { bitmap_buckets: 0, ..bm_config.clone() };
        let mut bitmapped = MithriLog::new(bm_config);
        bitmapped.ingest(text.as_bytes()).unwrap();
        let mut full = MithriLog::new(fs_config);
        full.ingest(text.as_bytes()).unwrap();

        for q in &queries {
            let text_q: Vec<String> = q
                .iter()
                .map(|&(t, neg)| {
                    if neg { format!("NOT {}", ALPHABET[t]) } else { ALPHABET[t].to_string() }
                })
                .collect();
            let text_q = text_q.join(" AND ");
            let want = full.query_str(&text_q).unwrap();
            let got = bitmapped.query_str(&text_q).unwrap();
            prop_assert_eq!(
                &got.lines,
                &want.lines,
                "query {:?} diverged under pruning",
                text_q
            );
            prop_assert!(
                got.pages_scanned <= want.pages_scanned,
                "query {:?}: pruning added pages",
                text_q
            );
        }
    }
}
