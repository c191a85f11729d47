//! Chaos soak: the concurrent service under a submit/cancel/ingest storm
//! while the device injects each fault mode in turn — bit rot, torn
//! writes, transient read episodes, and read panics — with deadlines and
//! the online scrub lane enabled.
//!
//! Three invariants, per DESIGN.md "Fault domains":
//!
//! 1. **No wedge** — every admitted job settles within a bound; a
//!    scheduler that died or deadlocked shows up as a `WAIT` timeout.
//! 2. **No panic escape** — a poisoned wave fails only its own jobs; the
//!    service keeps answering submissions and `STATS` afterwards, and
//!    shuts down cleanly.
//! 3. **Determinism through chaos** — any query outcome that is not lossy
//!    (no pages skipped or clipped) returns byte-identical lines to a solo
//!    run on a clean replica: faults either surface honestly in the
//!    degraded report or change nothing at all.
//!
//! The default run is a bounded smoke (a few hundred jobs per mode) so CI
//! stays fast; the bench-side `service_load --storm` scales the same shape
//! up under load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use mithrilog::{MithriLog, SystemConfig};
use mithrilog_loggen::{generate, Dataset, DatasetProfile, DatasetSpec};
use mithrilog_service::{JobOutput, Priority, Service, ServiceConfig, ServiceStats, WaitError};
use mithrilog_storage::{FaultKind, FaultPlan, FaultyStore, MemStore};

/// Positive-only queries: lines ingested mid-soak (which match none of
/// these tokens) cannot perturb the match sets, so non-lossy outcomes stay
/// comparable to the pre-soak baseline.
const QUERIES: [&str; 4] = [
    "FATAL",
    "error OR failed",
    "error AND KERNEL",
    "failed OR FATAL",
];

/// A line that matches no soak query — ingest churn without output churn.
const QUIET_LINE: &[u8] = b"1117838570 2005.06.03 soak quiet heartbeat line\n";

fn corpus() -> Dataset {
    generate(&DatasetSpec {
        profile: DatasetProfile::Bgl2,
        target_bytes: 150_000,
        seed: 7,
    })
}

fn baseline_lines(text: &[u8]) -> Vec<Vec<String>> {
    let mut clean = MithriLog::new(SystemConfig::default());
    clean.ingest(text).unwrap();
    QUERIES
        .iter()
        .map(|q| clean.query_str(q).unwrap().lines)
        .collect()
}

/// Data pages of a clean probe ingest (identical layout to faulted runs).
fn probe_data_pages(text: &[u8]) -> Vec<u64> {
    let mut probe = MithriLog::new(SystemConfig::default());
    probe.ingest(text).unwrap();
    probe.data_pages().iter().map(|p| p.0).collect()
}

/// Asserts every cumulative `STATS` counter is non-decreasing between two
/// samples taken mid-storm (`queued` is a gauge and legitimately falls).
fn assert_stats_monotonic(mode: &str, prev: &ServiceStats, next: &ServiceStats) {
    let cumulative = |s: &ServiceStats| {
        [
            ("submitted", s.submitted),
            ("rejected", s.rejected),
            ("completed", s.completed),
            ("failed", s.failed),
            ("cancelled", s.cancelled),
            ("waves", s.waves),
            ("demanded_page_reads", s.demanded_page_reads),
            ("unique_pages_read", s.unique_pages_read),
            ("shared_reads_avoided", s.shared_reads_avoided),
            ("cache_hits", s.cache_hits),
            ("cache_bytes_saved", s.cache_bytes_saved),
            ("waves_poisoned", s.waves_poisoned),
            ("scrub_slices", s.scrub_slices),
            ("pages_scrubbed", s.pages_scrubbed),
            ("pages_quarantined", s.pages_quarantined),
            ("ingests_overlapped", s.ingests_overlapped),
            ("segments_sealed", s.segments_sealed),
            ("segments_dropped", s.segments_dropped),
        ]
    };
    for ((name, before), (_, after)) in cumulative(prev).into_iter().zip(cumulative(next)) {
        assert!(
            after >= before,
            "{mode}: counter {name} went backwards mid-storm ({before} -> {after})"
        );
    }
}

/// Raises the flag when dropped, on the normal path and while unwinding.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// One soak round: a fault schedule, a storm, and the three invariants.
fn soak(mode: &str, schedule: &[(u64, FaultKind)], failures_allowed: bool) {
    let ds = corpus();
    let baseline = baseline_lines(ds.text());

    let config = SystemConfig::default();
    let mut plan = FaultPlan::seeded(99);
    for &(page, kind) in schedule {
        plan = plan.with_scheduled(page, kind);
    }
    let store = FaultyStore::new(MemStore::new(config.device.page_bytes), plan);
    let mut system = MithriLog::with_store(store, config).unwrap();
    system.ingest(ds.text()).unwrap();

    let service = Service::spawn(
        system,
        ServiceConfig {
            max_queue: 512,
            max_batch: 4,
            scrub_batch: 16,
            ..ServiceConfig::default()
        },
    );
    let handle = Arc::new(service.handle());

    // The storm: 3 submitter threads × 24 jobs, every 4th cancelled
    // immediately, every 6th under a tight deadline, with ingest churn
    // interleaved. Ids are collected with their query index for the
    // byte-identity check. A monitor thread samples `STATS` throughout:
    // every cumulative counter must be monotonic under concurrency — a
    // decrease means a lost update or a torn read under the storm.
    //
    // `submit` does not block, so the storm is over when every job has
    // settled, not when the submitters return: the settle loop runs inside
    // the scope and the monitor samples through execution. Its first sample
    // is taken before the first submission (the barrier), its last after
    // the last job settled, so it always has two to compare.
    let storm_over = AtomicBool::new(false);
    let first_sample = Barrier::new(2);
    let settled = std::thread::scope(|scope| {
        let monitor = {
            let handle = Arc::clone(&handle);
            let (storm_over, first_sample) = (&storm_over, &first_sample);
            scope.spawn(move || {
                let mut prev = ServiceStats::default();
                let mut samples = 0u64;
                loop {
                    let done = storm_over.load(Ordering::Acquire);
                    let stats = handle.stats();
                    assert_stats_monotonic(mode, &prev, &stats);
                    prev = stats;
                    samples += 1;
                    if samples == 1 {
                        first_sample.wait();
                    }
                    if done {
                        return samples;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        first_sample.wait();
        // Releases the monitor however this closure is left: an assertion
        // failing below must fail the test, not hang the scope's join.
        let storm = SetOnDrop(&storm_over);
        let workers: Vec<_> = (0..3)
            .map(|c| {
                let handle = Arc::clone(&handle);
                scope.spawn(move || {
                    let mut ids = Vec::new();
                    for i in 0..24 {
                        if i % 8 == 5 {
                            if let Ok(id) = handle.ingest(QUIET_LINE.to_vec()) {
                                ids.push((id, None));
                            }
                            continue;
                        }
                        let qi = (c + i) % QUERIES.len();
                        let pri = [Priority::High, Priority::Normal, Priority::Low][i % 3];
                        let mut request = mithrilog::QueryRequest::parse(QUERIES[qi]).unwrap();
                        if i % 6 == 2 {
                            request = request.with_deadline(Duration::from_micros(300));
                        }
                        let Ok(id) = handle.submit(request, pri) else {
                            continue; // admission rejection is a legal outcome
                        };
                        if i % 4 == 1 {
                            handle.cancel(id);
                        }
                        ids.push((id, Some(qi)));
                    }
                    ids
                })
            })
            .collect();
        let submitted: Vec<Vec<(u64, Option<usize>)>> =
            workers.into_iter().map(|w| w.join().unwrap()).collect();

        // Invariant 1: every job settles within a bound. Invariant 3:
        // settled non-lossy query outcomes are byte-identical to the clean
        // baseline.
        let mut settled = 0u64;
        for (id, qi) in submitted.into_iter().flatten() {
            match handle.wait_timeout(id, Duration::from_secs(120)) {
                Ok(JobOutput::Query { outcome, .. }) => {
                    settled += 1;
                    if let Some(qi) = qi {
                        if !outcome.degraded.is_lossy() {
                            assert_eq!(
                                outcome.lines, baseline[qi],
                                "{mode}: non-lossy outcome for {:?} diverged from solo",
                                QUERIES[qi]
                            );
                        }
                    }
                }
                Ok(_) => settled += 1,
                Err(WaitError::Cancelled) => settled += 1,
                Err(WaitError::Failed(reason)) => {
                    settled += 1;
                    assert!(
                        failures_allowed && reason.contains("internal error"),
                        "{mode}: unexpected hard failure: {reason}"
                    );
                }
                Err(e) => panic!("{mode}: job {id} wedged the service: {e}"),
            }
        }
        drop(storm);
        let samples = monitor.join().unwrap();
        assert!(samples > 1, "{mode}: the stats monitor never sampled");
        settled
    });
    assert!(settled > 0, "{mode}: nothing ran");

    // Invariant 2: the service still answers after the storm — a fresh
    // submission completes and the stats are coherent. In the read-panic
    // mode the poisonous page sits at the device's tail, so a
    // budget-clipped plan steers clear of it and must complete.
    let mut request = mithrilog::QueryRequest::parse(QUERIES[0]).unwrap();
    if failures_allowed {
        request.page_budget = Some(2);
    }
    let id = handle.submit(request, Priority::High).unwrap();
    match handle.wait_timeout(id, Duration::from_secs(120)) {
        Ok(JobOutput::Query { .. }) => {}
        other => panic!("{mode}: post-storm submission did not complete: {other:?}"),
    }
    let stats = handle.stats();
    assert_eq!(stats.queued, 0, "{mode}: {stats:?}");
    assert!(stats.waves > 0, "{mode}: {stats:?}");
    if !failures_allowed {
        assert_eq!(stats.failed, 0, "{mode}: {stats:?}");
        assert_eq!(stats.waves_poisoned, 0, "{mode}: {stats:?}");
    }
    service.shutdown();
}

#[test]
fn soak_bit_rot() {
    let pages = probe_data_pages(corpus().text());
    let schedule: Vec<_> = pages
        .iter()
        .step_by(7)
        .map(|&p| (p, FaultKind::BitRot { bit: 9 }))
        .collect();
    soak("bit-rot", &schedule, false);
}

#[test]
fn soak_torn_writes() {
    let pages = probe_data_pages(corpus().text());
    let schedule: Vec<_> = pages
        .iter()
        .step_by(9)
        .map(|&p| (p, FaultKind::TornWrite { valid_bytes: 100 }))
        .collect();
    soak("torn-write", &schedule, false);
}

#[test]
fn soak_transient_reads() {
    let pages = probe_data_pages(corpus().text());
    let mut schedule: Vec<_> = pages
        .iter()
        .step_by(5)
        .map(|&p| (p, FaultKind::TransientRead { failures: 1 }))
        .collect();
    // One page that never recovers: retries exhaust, the scrub lane
    // quarantines it mid-soak, later queries skip it at zero cost.
    schedule.push((
        pages[pages.len() / 2],
        FaultKind::TransientRead { failures: u32::MAX },
    ));
    soak("transient-read", &schedule, false);
}

#[test]
fn soak_read_panics() {
    let pages = probe_data_pages(corpus().text());
    // The poisonous page panics every read: waves touching it fail with an
    // internal error; everything else keeps working around it.
    let schedule = [(pages[pages.len() - 1], FaultKind::ReadPanic)];
    soak("read-panic", &schedule, true);
}
