//! Checkpoint chains: commits that seal nothing write a delta of the index
//! entries they changed, chained to the last full checkpoint, and a mount
//! follows the chain back.
//!
//! * **remount ≡ live** — after every commit of a run that mixes seals,
//!   snapshots and retention, a mount of a copy of the store loads the
//!   chain and holds the live system's index byte for byte, with the same
//!   lines and ledgers on a fixed query bank;
//! * **snapshots survive a rebuild** — `rebuild_index` keeps the snapshot
//!   watermarks, so time-range queries keep their windows;
//! * **crash sweep** — power loss at every store operation of such a run
//!   reopens to an acknowledged step boundary whose index equals the live
//!   one there, after applying at most `segment_pages` deltas.

use mithrilog::{IndexRecovery, MithriLog, MithriLogError, SystemConfig};
use mithrilog_index::IndexParams;
use mithrilog_loggen::{generate, DatasetProfile, DatasetSpec};
use mithrilog_query::parse;
use mithrilog_storage::{CrashPlan, CrashStore, MemStore, PageStore, StorageError};

/// Shred seed for sync-point crashes (how the volatile cache tears).
const SHRED_SEED: u64 = 0xD1FF;

/// Retention target for the interleaved passes.
const KEEP: u64 = 1;

/// Queries whose lines and ledgers a remount must reproduce.
const BANK: [&str; 4] = ["FATAL", "KERNEL AND INFO", "NOT RAS", "ciod: OR pbs_mom:"];

/// Small segments, frequent automatic snapshots, and a hash table large
/// enough that a small batch dirties well under half of it, so the run
/// writes full checkpoints and deltas alike.
fn config() -> SystemConfig {
    SystemConfig {
        segment_pages: 3,
        index: IndexParams {
            hash_bits: 10,
            snapshot_leaf_pages: 1,
            ..IndexParams::small()
        },
        ..SystemConfig::for_tests()
    }
}

/// One acknowledged unit of work; each commits exactly once.
#[derive(Clone, Copy, Debug)]
enum Step {
    Ingest(usize),
    /// Ingests [`LINE`] alone: one page, a handful of index entries.
    Line,
    Snapshot(u64),
    Retain,
}

const LINE: &[u8] = b"RAS KERNEL FATAL chain probe line\n";

/// Ingests of small batches, with a run of back-to-back snapshots (each
/// commit changes nothing, so the chain grows to its cap) and retention
/// passes between them. After the first snapshot, a snapshot right after
/// a one-line ingest flushes only that line's entries: it writes entries
/// an earlier commit buffered, in a commit small enough to be a delta.
fn steps(batches: usize) -> Vec<Step> {
    let mut out = Vec::new();
    for i in 0..batches {
        out.push(Step::Ingest(i));
        if i % 4 == 1 {
            out.push(Step::Snapshot(1_000 + i as u64));
        }
        if i == 1 {
            out.extend([Step::Line, Step::Snapshot(1_500)]);
        }
        if i % 5 == 4 {
            out.push(Step::Retain);
        }
        if i == 6 {
            out.extend((0..5).map(|t| Step::Snapshot(2_000 + t)));
        }
    }
    out
}

fn corpus(bytes: usize) -> Vec<u8> {
    generate(&DatasetSpec {
        profile: DatasetProfile::Bgl2,
        target_bytes: bytes,
        seed: 44,
    })
    .into_text()
}

/// Splits `text` into `n` batches on line boundaries.
fn batches(text: &[u8], n: usize) -> Vec<&[u8]> {
    let target = text.len().div_ceil(n);
    let mut out = Vec::new();
    let mut start = 0;
    while start < text.len() {
        let mut end = (start + target).min(text.len());
        while end < text.len() && text[end] != b'\n' {
            end += 1;
        }
        end = (end + 1).min(text.len());
        out.push(&text[start..end]);
        start = end;
    }
    out
}

fn apply<S: PageStore>(
    system: &mut MithriLog<S>,
    step: Step,
    batches: &[&[u8]],
) -> Result<(), MithriLogError> {
    match step {
        Step::Ingest(i) => system.ingest(batches[i]).map(|_| ()),
        Step::Line => system.ingest(LINE).map(|_| ()),
        Step::Snapshot(t) => system.snapshot_at(t),
        Step::Retain => system.apply_retention(KEEP).map(|_| ()),
    }
}

/// What a mount must reproduce of a step boundary: the line count, the
/// index checkpoint, and every bank query's lines.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    lines: u64,
    index: Vec<u8>,
    answers: Vec<Vec<String>>,
}

fn observe<S: PageStore>(system: &mut MithriLog<S>) -> Observed {
    Observed {
        lines: system.lines(),
        index: system.index().checkpoint_bytes(),
        answers: BANK
            .iter()
            .map(|q| system.query_str(q).unwrap().lines)
            .collect(),
    }
}

#[test]
fn remount_after_every_commit_equals_the_live_system() {
    let config = config();
    let text = corpus(60_000);
    let batches = batches(&text, 14);
    let mut live = MithriLog::new(config.clone());
    let mut chains = Vec::new();
    for step in steps(batches.len()) {
        let sealed = live.sealed_segment_count();
        apply(&mut live, step, &batches).unwrap();
        let (mut mounted, report) =
            MithriLog::open_store(live.device().store().clone(), config.clone()).unwrap();
        assert_eq!(report.index, IndexRecovery::Checkpoint, "after {step:?}");
        if live.sealed_segment_count() > sealed {
            assert_eq!(report.checkpoint_deltas_applied, 0, "{step:?} sealed");
        }
        assert_eq!(
            mounted.index().checkpoint_bytes(),
            live.index().checkpoint_bytes(),
            "after {step:?}: remounted index differs from the live one"
        );
        assert_eq!(mounted.index().snapshots(), live.index().snapshots());
        for q in BANK {
            let a = live.query_str(q).unwrap();
            let b = mounted.query_str(q).unwrap();
            assert_eq!(a.lines, b.lines, "after {step:?}: query {q:?}");
            assert_eq!(a.ledger, b.ledger, "after {step:?}: query {q:?}");
        }
        chains.push(report.checkpoint_deltas_applied);
    }
    assert!(
        live.sealed_segment_count() > 0 && live.data_pages_dropped() > 0,
        "the run must seal and drop segments"
    );
    let cap = config.segment_pages;
    assert!(chains.iter().all(|&d| d <= cap), "{chains:?}");
    assert!(chains.contains(&0), "no full checkpoint: {chains:?}");
    assert!(
        chains.contains(&cap),
        "no chain reached its cap: {chains:?}"
    );
}

#[test]
fn rebuild_index_keeps_snapshots_for_time_range_queries() {
    let config = SystemConfig::for_tests();
    let info: String = (0..200)
        .map(|i| format!("RAS KERNEL INFO cache parity corrected {i}\n"))
        .collect();
    let fatal: String = (0..200)
        .map(|i| format!("RAS KERNEL FATAL data storage interrupt {i}\n"))
        .collect();
    let mut system = MithriLog::new(config.clone());
    system.ingest(info.as_bytes()).unwrap();
    system.snapshot_at(100).unwrap();
    system.ingest(fatal.as_bytes()).unwrap();
    system.snapshot_at(200).unwrap();
    let ras = parse("RAS").unwrap();
    let window = |s: &mut MithriLog| s.query_time_range(&ras, 0, 100).unwrap().lines;

    let before = window(&mut system);
    assert_eq!(before.len(), 200);
    assert!(before.iter().all(|l| l.contains("INFO")));

    let (mut mounted, _) =
        MithriLog::open_store(system.device().store().clone(), config.clone()).unwrap();
    assert_eq!(window(&mut mounted), before, "after a remount");

    system.rebuild_index().unwrap();
    let after = window(&mut system);
    assert_eq!(after.len(), before.len(), "after rebuild_index");
    assert_eq!(after, before, "after rebuild_index");
    assert_eq!(system.index().snapshots().len(), 2);
    let (mut mounted, report) =
        MithriLog::open_store(system.device().store().clone(), config).unwrap();
    assert_eq!(report.index, IndexRecovery::Checkpoint);
    assert_eq!(
        window(&mut mounted),
        before,
        "after a remount of the rebuild"
    );
}

/// Store operations one commit may spend beyond two per page it adds:
/// the two sync barriers and the superblock write into its slot.
const COMMIT_FIXED_OPS: u64 = 3;

#[test]
fn one_ingest_and_one_snapshot_write_each_added_page_at_most_twice() {
    let config = config();
    let text = corpus(8_000);
    let batches = batches(&text, 2);
    let store = CrashStore::new(MemStore::new(config.device.page_bytes), CrashPlan::never());
    let mut system = MithriLog::with_store(store, config).unwrap();
    // A snapshot after an ingest flushes every entry the ingest buffered
    // into leaf and root nodes: the commit that writes the most node pages
    // for the fewest data pages.
    let steps = [Step::Ingest(0), Step::Snapshot(10)];
    for step in steps {
        let ops = system.device().store().ops();
        let pages = system.device().page_count();
        apply(&mut system, step, &batches).unwrap();
        let ops = system.device().store().ops() - ops;
        let added = system.device().page_count() - pages;
        assert!(added > 0, "{step:?} added no page");
        // Each added page is appended once and written at most once more
        // (a node page, when it fills or at the pool seal).
        assert!(
            ops <= 2 * added + COMMIT_FIXED_OPS,
            "{step:?}: {ops} store operations to add {added} pages"
        );
    }
}

fn is_crash(e: &MithriLogError) -> bool {
    matches!(e, MithriLogError::Storage(StorageError::Crashed { .. }))
}

#[test]
fn crash_at_every_operation_reopens_to_an_acknowledged_chain() {
    let config = config();
    let text = corpus(8_000);
    let batches = batches(&text, 6);
    let steps = [
        Step::Ingest(0),
        Step::Snapshot(10),
        Step::Ingest(1),
        Step::Ingest(2),
        Step::Snapshot(20),
        Step::Snapshot(21),
        Step::Snapshot(22),
        Step::Snapshot(23),
        Step::Snapshot(24),
        Step::Ingest(3),
        Step::Ingest(4),
        Step::Ingest(5),
        Step::Retain,
    ];

    // Baseline with the power held up: the op count, and what every step
    // boundary looks like — the only states a reopen may surface.
    let store = CrashStore::new(MemStore::new(config.device.page_bytes), CrashPlan::never());
    let mut live = MithriLog::with_store(store, config.clone()).unwrap();
    let mut states = vec![observe(&mut live)];
    for &step in &steps {
        apply(&mut live, step, &batches).unwrap();
        states.push(observe(&mut live));
    }
    assert!(
        live.data_pages_dropped() > 0,
        "retention must drop a segment"
    );
    let total_ops = live.device().store().ops();
    drop(live);

    let mut max_deltas = 0;
    for op in 1..=total_ops {
        let plan = CrashPlan::crash_at(op).with_seed(SHRED_SEED);
        let (store, handle) =
            CrashStore::with_handle(MemStore::new(config.device.page_bytes), plan);
        let mut acked = 0usize;
        if let Ok(mut system) = MithriLog::with_store(store, config.clone()) {
            for &step in &steps {
                match apply(&mut system, step, &batches) {
                    Ok(()) => acked += 1,
                    Err(e) if is_crash(&e) => break,
                    Err(e) => panic!("op {op}: only the planned crash may fail a step: {e}"),
                }
            }
        }
        let Ok((mut system, report)) = MithriLog::open_store(handle.snapshot(), config.clone())
        else {
            assert_eq!(acked, 0, "op {op}: mount failed after steps were acked");
            continue;
        };
        assert!(
            report.checkpoint_deltas_applied <= config.segment_pages,
            "op {op}: {report}"
        );
        max_deltas = max_deltas.max(report.checkpoint_deltas_applied);
        let got = observe(&mut system);
        let matches = |i: usize| states.get(i) == Some(&got);
        assert!(
            matches(acked) || matches(acked + 1),
            "op {op}: reopened to no acknowledged prefix ({acked} steps acked; {report})"
        );
    }
    assert_eq!(
        max_deltas, config.segment_pages,
        "the sweep must reach the cap"
    );
}
