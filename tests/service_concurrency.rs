//! Concurrent query service: determinism under concurrency and faults,
//! bounded-queue admission, and cross-query page sharing.
//!
//! The contract (DESIGN.md, "Concurrent query service"): for a fixed
//! snapshot, every query's outcome is **byte-identical** to running it
//! alone on a fresh, identically faulted system — however many queries run
//! concurrently, however the scheduler partitions them into waves. Only
//! `wall_time` may differ; what concurrency changes (physical reads
//! avoided by page-sharing fan-out) is reported separately.

use std::sync::Arc;

use mithrilog::{MithriLog, QueryOutcome, QueryRequest, SystemConfig};
use mithrilog_loggen::{generate, Dataset, DatasetProfile, DatasetSpec};
use mithrilog_service::{JobOutput, Priority, Service, ServiceConfig, SubmitError};
use mithrilog_storage::{FaultKind, FaultPlan, FaultyStore, MemStore};

fn corpus(target_bytes: usize) -> Dataset {
    generate(&DatasetSpec {
        profile: DatasetProfile::Bgl2,
        target_bytes,
        seed: 7,
    })
}

/// Builds a faulted system over `text`; deterministic ingest means every
/// call lays out the identical device, so fresh systems are exact replicas.
fn faulted_system(text: &[u8], schedule: &[(u64, FaultKind)]) -> MithriLog<FaultyStore<MemStore>> {
    let config = SystemConfig::default();
    let mut plan = FaultPlan::seeded(99);
    for &(page, kind) in schedule {
        plan = plan.with_scheduled(page, kind);
    }
    let store = FaultyStore::new(MemStore::new(config.device.page_bytes), plan);
    let mut system = MithriLog::with_store(store, config).unwrap();
    system.ingest(text).unwrap();
    system
}

/// Data pages of a clean probe ingest (identical layout to faulted runs).
fn probe_data_pages(text: &[u8]) -> Vec<u64> {
    let mut probe = MithriLog::new(SystemConfig::default());
    probe.ingest(text).unwrap();
    probe.data_pages().iter().map(|p| p.0).collect()
}

/// Everything except wall-clock must be identical.
fn assert_outcomes_identical(a: &QueryOutcome, b: &QueryOutcome, context: &str) {
    assert_eq!(a.lines, b.lines, "{context}: matched lines");
    assert_eq!(a.offloaded, b.offloaded, "{context}: offload path");
    assert_eq!(a.used_index, b.used_index, "{context}: plan kind");
    assert_eq!(a.pages_scanned, b.pages_scanned, "{context}: plan size");
    assert_eq!(a.bytes_filtered, b.bytes_filtered, "{context}: bytes");
    assert_eq!(a.lines_scanned, b.lines_scanned, "{context}: lines scanned");
    assert_eq!(a.ledger, b.ledger, "{context}: cost ledger");
    assert_eq!(a.modeled_time, b.modeled_time, "{context}: modeled time");
    assert_eq!(a.degraded, b.degraded, "{context}: degraded report");
}

const QUERIES: [&str; 5] = [
    "FATAL",
    "KERNEL AND NOT FATAL",
    "RAS OR KERNEL OR INFO OR FATAL",
    "NOT KERNEL",
    "t0 OR t1 OR t2 OR t3 OR t4 OR t5 OR t6 OR t7 OR t8 OR FATAL",
];

/// One shared-scan batch under every fault mode — including transient-read
/// episodes, which drain exactly once per page in a single wave — versus
/// each query solo on its own fresh replica.
#[test]
fn shared_batch_under_faults_is_byte_identical_to_solo_runs() {
    let ds = corpus(400_000);
    let data_pages = probe_data_pages(ds.text());
    assert!(data_pages.len() >= 9);
    let schedule = vec![
        (data_pages[1], FaultKind::BitRot { bit: 5 }),
        (data_pages[3], FaultKind::TransientRead { failures: 2 }),
        (data_pages[5], FaultKind::TransientRead { failures: 50 }),
        (data_pages[8], FaultKind::TornWrite { valid_bytes: 100 }),
    ];

    let solo: Vec<QueryOutcome> = QUERIES
        .iter()
        .map(|q| faulted_system(ds.text(), &schedule).query_str(q).unwrap())
        .collect();

    let requests: Vec<QueryRequest> = QUERIES
        .iter()
        .map(|q| QueryRequest::parse(q).unwrap())
        .collect();
    let mut shared_system = faulted_system(ds.text(), &schedule);
    let batch = shared_system.query_shared(&requests).unwrap();

    for ((q, got), want) in QUERIES.iter().zip(&batch.outcomes).zip(&solo) {
        assert_outcomes_identical(got, want, &format!("query {q:?} in shared batch"));
    }
    // The drill actually bit: skips and retries present somewhere.
    assert!(batch
        .outcomes
        .iter()
        .any(|o| !o.degraded.skipped_pages.is_empty()));
    assert!(batch.outcomes.iter().any(|o| o.degraded.retries > 0));
    // Overlapping full scans shared physical reads.
    assert!(batch.shared.unique_pages_read < batch.shared.demanded_page_reads);
    assert_eq!(
        batch.shared.shared_reads_avoided,
        batch.shared.demanded_page_reads - batch.shared.unique_pages_read
    );
}

/// The acceptance drill: 8 concurrent queries over overlapping page
/// ranges issue strictly fewer device page reads than the 8 solo runs
/// summed, while every query's matched lines are byte-identical to its
/// solo run.
#[test]
fn eight_concurrent_overlapping_queries_share_reads() {
    let ds = corpus(300_000);
    let queries = [
        "FATAL",
        "KERNEL",
        "RAS OR KERNEL",
        "NOT KERNEL",
        "INFO",
        "KERNEL AND NOT FATAL",
        "RAS OR INFO OR FATAL",
        "NOT FATAL",
    ];

    // Solo baseline: each query on its own fresh system, device reads
    // measured per run and summed.
    let mut solo_lines = Vec::new();
    let mut solo_device_reads = 0u64;
    for q in queries {
        let mut system = MithriLog::new(SystemConfig::default());
        system.ingest(ds.text()).unwrap();
        let before = *system.device().ledger();
        let outcome = system.query_str(q).unwrap();
        solo_device_reads += system.device().ledger().since(&before).pages_read;
        solo_lines.push(outcome.lines);
    }

    // Concurrent: one shared batch on one system.
    let mut system = MithriLog::new(SystemConfig::default());
    system.ingest(ds.text()).unwrap();
    let requests: Vec<QueryRequest> = queries
        .iter()
        .map(|q| QueryRequest::parse(q).unwrap())
        .collect();
    let before = *system.device().ledger();
    let batch = system.query_shared(&requests).unwrap();
    let concurrent_device_reads = system.device().ledger().since(&before).pages_read;

    for ((q, got), want) in queries.iter().zip(&batch.outcomes).zip(&solo_lines) {
        assert_eq!(
            &got.lines, want,
            "query {q:?}: matched lines must be byte-identical"
        );
    }
    assert!(
        concurrent_device_reads < solo_device_reads,
        "8 overlapping queries must issue strictly fewer device page reads \
         concurrently ({concurrent_device_reads}) than solo summed ({solo_device_reads})"
    );
    assert!(batch.shared.shared_reads_avoided > 0);
    // The device ledger's demand view reconciles: physical + avoided =
    // what the batch's queries asked for.
    assert_eq!(
        batch.shared.unique_pages_read + batch.shared.shared_reads_avoided,
        batch.shared.demanded_page_reads
    );
}

/// Multi-threaded submission through the service under persistent faults
/// (bit rot, torn write — wave-partition-independent failure modes): every
/// result byte-identical to a fresh solo replica, whatever waves formed.
#[test]
fn threaded_submissions_through_service_match_solo_runs() {
    let ds = corpus(250_000);
    let data_pages = probe_data_pages(ds.text());
    let schedule = vec![
        (data_pages[1], FaultKind::BitRot { bit: 3 }),
        (data_pages[4], FaultKind::TornWrite { valid_bytes: 64 }),
    ];

    let solo: Vec<QueryOutcome> = QUERIES
        .iter()
        .map(|q| faulted_system(ds.text(), &schedule).query_str(q).unwrap())
        .collect();

    let service = Service::spawn(
        faulted_system(ds.text(), &schedule),
        ServiceConfig {
            max_queue: 64,
            max_batch: 8,
            default_page_budget: None,
            ..ServiceConfig::default()
        },
    );
    let handle = Arc::new(service.handle());

    // 4 submitter threads × 3 rounds of the battery each, interleaved.
    let submitters: Vec<_> = (0..4)
        .map(|t| {
            let handle = Arc::clone(&handle);
            std::thread::spawn(move || {
                let mut results = Vec::new();
                for round in 0..3 {
                    for (i, q) in QUERIES.iter().enumerate() {
                        let priority = match (t + round + i) % 3 {
                            0 => Priority::High,
                            1 => Priority::Normal,
                            _ => Priority::Low,
                        };
                        let id = handle.submit_str(q, priority).unwrap();
                        let output = handle.wait(id).unwrap();
                        results.push((i, output));
                    }
                }
                results
            })
        })
        .collect();

    for submitter in submitters {
        for (i, output) in submitter.join().unwrap() {
            let JobOutput::Query { outcome, .. } = output else {
                panic!("expected a query output");
            };
            assert_outcomes_identical(
                &outcome,
                &solo[i],
                &format!("query {:?} submitted concurrently", QUERIES[i]),
            );
        }
    }
    let stats = handle.stats();
    assert_eq!(stats.completed, 4 * 3 * QUERIES.len() as u64);
    assert_eq!(stats.failed, 0);
    service.shutdown();
}

/// Ingest beside queries, ordered by admission alone: queries admitted
/// before an ingest return exactly their solo pre-ingest lines and queries
/// admitted after it exactly their solo post-ingest lines, however the
/// submitter's build and the scheduler's waves happen to interleave.
#[test]
fn queries_observe_an_ingest_exactly_when_admitted_after_it() {
    let ds = corpus(200_000);
    let queries = ["FATAL", "KERNEL", "RAS OR INFO"];
    // One line every query matches, then filler none does, so the build
    // has real work to do while the wave ahead of it scans.
    let mut batch = b"RAS KERNEL FATAL INFO injected line\n".to_vec();
    batch.extend(b"quiet heartbeat ok\n".repeat(20_000));
    let solo = |batches: &[&[u8]]| -> Vec<Vec<String>> {
        let mut system = MithriLog::new(SystemConfig::default());
        for batch in batches {
            system.ingest(batch).unwrap();
        }
        queries
            .iter()
            .map(|q| system.query_str(q).unwrap().lines)
            .collect()
    };
    let pre = solo(&[ds.text()]);
    let post = solo(&[ds.text(), &batch]);
    for (pre, post) in pre.iter().zip(&post) {
        assert_ne!(pre, post, "every query sees the ingested line");
    }

    let mut system = MithriLog::new(SystemConfig::default());
    system.ingest(ds.text()).unwrap();
    let service = Service::spawn(system, ServiceConfig::default());
    let handle = service.handle();
    let submit_all = || -> Vec<_> {
        queries
            .iter()
            .map(|q| handle.submit_str(q, Priority::Normal).unwrap())
            .collect()
    };
    let before = submit_all();
    let ingest = handle.ingest(batch.clone()).unwrap();
    let after = submit_all();
    for (ids, want, when) in [(before, &pre, "before"), (after, &post, "after")] {
        for ((id, want), q) in ids.into_iter().zip(want).zip(queries) {
            let JobOutput::Query { outcome, .. } = handle.wait(id).unwrap() else {
                panic!("expected a query output");
            };
            assert_eq!(&outcome.lines, want, "{q:?} admitted {when} the ingest");
        }
    }
    let JobOutput::Ingest(report) = handle.wait(ingest).unwrap() else {
        panic!("expected an ingest output");
    };
    assert_eq!(report.raw_bytes, batch.len() as u64);
    let stats = handle.stats();
    assert_eq!(stats.completed, 2 * queries.len() as u64 + 1);
    assert_eq!(stats.ingests_overlapped, 1, "every applied ingest counts");
    service.shutdown();
}

/// Overload: a bounded queue rejects with an explicit error instead of
/// queueing without bound, and the pool keeps serving afterwards.
#[test]
fn overload_is_rejected_and_the_pool_recovers() {
    let ds = corpus(150_000);
    let mut system = MithriLog::new(SystemConfig::default());
    system.ingest(ds.text()).unwrap();
    let service = Service::spawn(
        system,
        ServiceConfig {
            max_queue: 4,
            max_batch: 2,
            default_page_budget: None,
            ..ServiceConfig::default()
        },
    );
    let handle = Arc::new(service.handle());

    // 8 threads spam submissions; admission must never exceed the bound.
    let spammers: Vec<_> = (0..8)
        .map(|_| {
            let handle = Arc::clone(&handle);
            std::thread::spawn(move || {
                let mut admitted = Vec::new();
                let mut rejected = 0u64;
                for _ in 0..20 {
                    match handle.submit_str("NOT KERNEL", Priority::Low) {
                        Ok(id) => admitted.push(id),
                        Err(SubmitError::Rejected {
                            queue_full,
                            queue_len,
                            capacity,
                        }) => {
                            assert!(queue_full);
                            assert!(queue_len >= capacity, "{queue_len} < {capacity}");
                            rejected += 1;
                        }
                        Err(other) => panic!("unexpected submit error: {other}"),
                    }
                }
                (admitted, rejected)
            })
        })
        .collect();

    let mut total_rejected = 0;
    let mut all_admitted = Vec::new();
    for spammer in spammers {
        let (admitted, rejected) = spammer.join().unwrap();
        all_admitted.extend(admitted);
        total_rejected += rejected;
    }
    assert!(
        total_rejected > 0,
        "160 rapid submissions against capacity 4 must overflow"
    );
    // Every admitted job settles — the pool is never wedged by overload.
    for id in all_admitted {
        handle.wait(id).expect("admitted job completes");
    }
    assert_eq!(handle.stats().rejected, total_rejected);
    let id = handle.submit_str("FATAL", Priority::High).unwrap();
    handle.wait(id).unwrap();
    service.shutdown();
}

/// Cancellation and deadline budgets: neither leaves the worker pool
/// wedged, budget overruns become degraded partial results (never hangs),
/// and cancel races resolve to exactly one of cancelled/completed.
#[test]
fn cancel_and_deadline_budgets_never_wedge_the_pool() {
    let ds = corpus(200_000);
    let mut system = MithriLog::new(SystemConfig::default());
    system.ingest(ds.text()).unwrap();
    let total_pages = system.data_page_count();
    assert!(total_pages > 4);
    let service = Service::spawn(
        system,
        ServiceConfig {
            max_queue: 64,
            max_batch: 4,
            default_page_budget: None,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();

    // Flood with low-priority jobs, then cancel half of them while the
    // scheduler races through waves.
    let ids: Vec<_> = (0..24)
        .map(|_| handle.submit_str("NOT KERNEL", Priority::Low).unwrap())
        .collect();
    for id in ids.iter().step_by(2) {
        handle.cancel(*id); // racing the scheduler: either outcome is legal
    }
    for id in &ids {
        match handle.wait(*id) {
            Ok(JobOutput::Query { .. }) => {}
            Ok(other) => panic!("expected a query output, got {other:?}"),
            Err(reason) => assert_eq!(reason, "cancelled"),
        }
    }

    // A deadline budget clips the plan tail into a partial result.
    let budgeted = QueryRequest::parse("NOT KERNEL")
        .unwrap()
        .with_page_budget(2);
    let id = handle.submit(budgeted, Priority::High).unwrap();
    let JobOutput::Query { outcome, .. } = handle.wait(id).unwrap() else {
        panic!("expected a query output");
    };
    assert_eq!(outcome.pages_scanned, 2);
    assert_eq!(outcome.degraded.budget_clipped, total_pages - 2);
    assert!(outcome.degraded.is_lossy());

    // The pool still serves ordinary work afterwards.
    let id = handle.submit_str("FATAL", Priority::Normal).unwrap();
    let JobOutput::Query { outcome, .. } = handle.wait(id).unwrap() else {
        panic!("expected a query output");
    };
    assert!(outcome.match_count() > 0 || outcome.lines.is_empty());
    let stats = handle.stats();
    assert_eq!(stats.completed + stats.cancelled, 24 + 2);
    service.shutdown();
}
