//! Crash-matrix acceptance harness for the journaled commit protocol.
//!
//! A [`CrashStore`] kills the power at operation `k`; the matrix runs the
//! same batched ingest for *every* `k` from 1 to the workload's total
//! operation count and remounts whatever survived. The recovery contract
//! under test:
//!
//! * **no acknowledged line lost** — every line whose ingest batch
//!   returned `Ok` before the crash is present after recovery;
//! * **no partial line visible** — the recovered corpus is an exact
//!   whole-batch prefix of the input, never a torn batch. The in-flight
//!   batch may legitimately survive *in full* without its `Ok` (the crash
//!   ate the acknowledgement after barrier 2 landed, the classic
//!   durable-but-unacked outcome), but never partially;
//! * **deterministic** — the same crash point and shred seed produce the
//!   same [`RecoveryReport`], byte for byte.

use mithrilog::{MithriLog, MithriLogError, RecoveryReport, SystemConfig};
use mithrilog_loggen::{generate, DatasetProfile, DatasetSpec};
use mithrilog_storage::{CrashPlan, CrashStore, MemStore, StorageError};

/// Ingest batches per run: each batch is one commit, so the matrix covers
/// crash points inside and between several complete commit cycles.
const BATCHES: usize = 8;

/// Shred seed for sync-point crashes (how the volatile cache tears).
const SHRED_SEED: u64 = 0xC0FFEE;

fn corpus() -> Vec<u8> {
    let text = generate(&DatasetSpec {
        profile: DatasetProfile::Bgl2,
        target_bytes: 120_000,
        seed: 11,
    })
    .into_text();
    assert!(text.len() >= 100_000, "matrix corpus must be >= 100 KB");
    text
}

/// Splits the corpus into `BATCHES` chunks on line boundaries, so batch
/// acknowledgement is a whole-line guarantee.
fn batches(text: &[u8]) -> Vec<&[u8]> {
    let target = text.len().div_ceil(BATCHES);
    let mut out = Vec::new();
    let mut start = 0;
    while start < text.len() {
        let mut end = (start + target).min(text.len());
        while end < text.len() && text[end] != b'\n' {
            end += 1;
        }
        if end < text.len() {
            end += 1; // keep the newline with its line
        }
        out.push(&text[start..end]);
        start = end;
    }
    out
}

fn is_crash(e: &MithriLogError) -> bool {
    matches!(e, MithriLogError::Storage(StorageError::Crashed { .. }))
}

/// Outcome of one ingest run that died at a planned crash point.
struct CrashRun {
    /// Lines acknowledged (their ingest batch returned `Ok`) pre-crash.
    acked_lines: u64,
    /// The durable store frozen at the bytes that survived the power loss.
    durable: MemStore,
}

/// Runs the batched ingest against a crash-planned store until the power
/// dies, returning the acknowledged line count and the surviving bytes.
fn run_until_crash(config: &SystemConfig, text: &[u8], plan: CrashPlan) -> CrashRun {
    let store = MemStore::new(config.device.page_bytes);
    let (store, handle) = CrashStore::with_handle(store, plan);
    let mut acked_lines = 0u64;
    let mut crashed = false;
    match MithriLog::with_store(store, config.clone()) {
        Ok(mut system) => {
            for batch in batches(text) {
                match system.ingest(batch) {
                    Ok(report) => acked_lines += report.lines,
                    Err(e) if is_crash(&e) => {
                        crashed = true;
                        break;
                    }
                    Err(e) => panic!("only the planned crash may fail ingest: {e}"),
                }
            }
        }
        Err(e) if is_crash(&e) => crashed = true,
        Err(e) => panic!("only the planned crash may fail formatting: {e}"),
    }
    assert!(crashed, "plan {plan:?} must fire within the workload");
    CrashRun {
        acked_lines,
        durable: handle.snapshot(),
    }
}

/// Remounts the surviving bytes; `None` means recovery refused the store.
fn recover(config: &SystemConfig, run: &CrashRun) -> Option<(MithriLog<MemStore>, RecoveryReport)> {
    MithriLog::open_store(run.durable.clone(), config.clone()).ok()
}

#[test]
fn crash_matrix_loses_no_acked_line_and_shows_no_partial_line() {
    let text = corpus();
    let config = SystemConfig::for_tests();
    let all_lines: Vec<&[u8]> = text
        .split(|b| *b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    // Cumulative line counts at each batch boundary: the only states a
    // recovered store may legally surface.
    let boundaries: Vec<u64> = batches(&text)
        .iter()
        .scan(0u64, |acc, b| {
            *acc += b.split(|x| *x == b'\n').filter(|l| !l.is_empty()).count() as u64;
            Some(*acc)
        })
        .collect();

    // Baseline: the same workload with the power held up, to size the
    // matrix. Every later plan crashes strictly inside this op count.
    let store = MemStore::new(config.device.page_bytes);
    let mut baseline =
        MithriLog::with_store(CrashStore::new(store, CrashPlan::never()), config.clone()).unwrap();
    for batch in batches(&text) {
        baseline.ingest(batch).unwrap();
    }
    assert_eq!(baseline.lines(), all_lines.len() as u64);
    let total_ops = baseline.device().store().ops();
    assert!(total_ops > 40, "workload too small for a meaningful matrix");
    drop(baseline);

    for op in 1..=total_ops {
        let plan = CrashPlan::crash_at(op).with_seed(SHRED_SEED);
        let run = run_until_crash(&config, &text, plan);
        let Some((mut system, report)) = recover(&config, &run) else {
            // The store may be unmountable only if the crash predates the
            // initial format's completion — before anything was acked.
            assert_eq!(
                run.acked_lines, 0,
                "crash at op {op}: mount failed after lines were acked"
            );
            continue;
        };

        // No acknowledged line lost, and nothing but whole batches
        // recovered: the line count must sit on a batch boundary at or one
        // batch past the acked prefix (the one past = the crash ate the
        // acknowledgement after the commit already landed).
        let recovered = system.lines();
        let next_boundary = boundaries
            .iter()
            .copied()
            .find(|&b| b > run.acked_lines)
            .unwrap_or(run.acked_lines);
        assert!(
            recovered == run.acked_lines || recovered == next_boundary,
            "crash at op {op}: recovered {recovered} lines, acked \
             {acked}, next batch boundary {next_boundary} ({report})",
            acked = run.acked_lines,
        );
        assert_eq!(report.lines_recovered, recovered);

        // No partial line visible: the recovered corpus is exactly the
        // first `recovered` ingested lines, in order. (A full dump via a
        // token no line contains: NOT matches everything.)
        let dump = system.query_str("NOT zz-no-such-token-zz").unwrap();
        assert!(!dump.degraded.is_lossy(), "crash at op {op}: lossy dump");
        assert_eq!(dump.match_count(), recovered, "crash at op {op}");
        for (i, line) in dump.lines.iter().enumerate() {
            assert_eq!(
                line.as_bytes(),
                all_lines[i],
                "crash at op {op}: line {i} is not the ingested line"
            );
        }

        // The recovered system keeps working: ingest the rest and the
        // corpus completes as if the crash never happened.
        let mut remaining = recovered as usize;
        for batch in batches(&text) {
            let lines = batch
                .split(|b| *b == b'\n')
                .filter(|l| !l.is_empty())
                .count();
            if remaining >= lines {
                remaining -= lines;
                continue;
            }
            assert_eq!(remaining, 0, "acks are whole batches");
            system.ingest(batch).unwrap();
        }
        assert_eq!(
            system.lines(),
            all_lines.len() as u64,
            "crash at op {op}: resumed ingest must complete the corpus"
        );
    }
}

#[test]
fn crash_recovery_report_is_deterministic_per_seed() {
    let text = corpus();
    let config = SystemConfig::for_tests();

    let store = MemStore::new(config.device.page_bytes);
    let mut baseline =
        MithriLog::with_store(CrashStore::new(store, CrashPlan::never()), config.clone()).unwrap();
    for batch in batches(&text) {
        baseline.ingest(batch).unwrap();
    }
    let total_ops = baseline.device().store().ops();
    drop(baseline);

    // Sample the matrix (endpoints plus a stride) and replay each crash
    // point twice: identical acks, identical surviving bytes, identical
    // recovery report.
    let sampled: Vec<u64> = (1..=total_ops).step_by(7).chain([total_ops]).collect();
    for op in sampled {
        let plan = CrashPlan::crash_at(op).with_seed(SHRED_SEED);
        let a = run_until_crash(&config, &text, plan);
        let b = run_until_crash(&config, &text, plan);
        assert_eq!(a.acked_lines, b.acked_lines, "op {op}: acks diverged");
        let ra = recover(&config, &a).map(|(_, r)| r);
        let rb = recover(&config, &b).map(|(_, r)| r);
        assert_eq!(ra, rb, "op {op}: recovery report diverged");
    }

    // A different shred seed may leave different torn bytes, but recovery
    // still lands on a committed frontier: the acked lines, or the whole
    // in-flight batch when the torn cache kept the superblock flip (the
    // durable-but-unacked outcome the module doc allows), nothing else.
    let plan = CrashPlan::crash_at(total_ops).with_seed(SHRED_SEED ^ 0x5A5A);
    let run = run_until_crash(&config, &text, plan);
    let (system, _) = recover(&config, &run).expect("late crash leaves a mountable store");
    let next_boundary = batches(&text)
        .iter()
        .scan(0u64, |acc, b| {
            *acc += b.split(|x| *x == b'\n').filter(|l| !l.is_empty()).count() as u64;
            Some(*acc)
        })
        .find(|&b| b > run.acked_lines)
        .unwrap_or(run.acked_lines);
    let recovered = system.lines();
    assert!(
        recovered == run.acked_lines || recovered == next_boundary,
        "late crash: recovered {recovered} lines, acked {acked}, next batch \
         boundary {next_boundary}",
        acked = run.acked_lines,
    );
}
