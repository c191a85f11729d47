//! Service fault domains: deadlines, mid-scan cancellation, panic
//! isolation, and quarantine — any query, connection, or page can fail
//! without collateral damage.
//!
//! The contract (DESIGN.md, "Fault domains"): a cancelled query stops at a
//! page boundary and charges nothing further; a deadline clips the plan
//! deterministically (modeled time, not wall-clock) so the same request
//! replays byte-identically on a replica; a panicking wave fails only its
//! own jobs while the scheduler keeps serving; quarantined pages are
//! skipped up front at zero cost, with zero retry charges on every repeat.

use std::sync::Arc;
use std::time::Duration;

use mithrilog::{CancelToken, MithriLog, QueryRequest, SystemConfig};
use mithrilog_loggen::{generate, Dataset, DatasetProfile, DatasetSpec};
use mithrilog_service::{JobOutput, JobStatus, Priority, Service, ServiceConfig, WaitError};
use mithrilog_shard::{RouteMode, ShardOptions, ShardedLog};
use mithrilog_storage::{FaultKind, FaultPlan, FaultyStore, MemStore};

fn corpus(target_bytes: usize) -> Dataset {
    generate(&DatasetSpec {
        profile: DatasetProfile::Bgl2,
        target_bytes,
        seed: 7,
    })
}

fn clean_system(text: &[u8]) -> MithriLog {
    let mut system = MithriLog::new(SystemConfig::default());
    system.ingest(text).unwrap();
    system
}

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

#[test]
fn cancel_then_wait_reports_cancelled() {
    let ds = corpus(60_000);
    let service = Service::spawn(clean_system(ds.text()), ServiceConfig::default());
    let handle = service.handle();

    // Stuff the lane with work so later submissions sit Pending long
    // enough to cancel deterministically.
    let blockers: Vec<_> = (0..4)
        .map(|_| handle.submit_str("NOT KERNEL", Priority::High).unwrap())
        .collect();
    let id = handle
        .submit_str("error OR failed OR FATAL", Priority::Low)
        .unwrap();
    assert!(handle.cancel(id), "a pending job is cancellable");
    assert!(matches!(
        handle.wait_timeout(id, Duration::from_secs(30)),
        Err(WaitError::Cancelled)
    ));
    for b in blockers {
        handle.wait_timeout(b, Duration::from_secs(30)).unwrap();
    }
    assert_eq!(handle.stats().cancelled, 1);
    service.shutdown();
}

#[test]
fn cancel_races_the_wave_claim_without_wedging() {
    let ds = corpus(300_000);
    let service = Service::spawn(
        clean_system(ds.text()),
        ServiceConfig {
            max_queue: 256,
            max_batch: 4,
            ..ServiceConfig::default()
        },
    );
    let handle = Arc::new(service.handle());

    // One thread floods submissions, another cancels every other id as
    // fast as it can — racing the scheduler's wave claim on purpose.
    let ids: Vec<_> = (0..48)
        .map(|_| {
            handle
                .submit_str("error OR failed OR FATAL", Priority::Normal)
                .unwrap()
        })
        .collect();
    let canceller = {
        let handle = Arc::clone(&handle);
        let targets: Vec<_> = ids.iter().copied().step_by(2).collect();
        std::thread::spawn(move || {
            for id in targets {
                handle.cancel(id);
            }
        })
    };
    canceller.join().unwrap();

    // Every job settles: Done, or Cancelled — never wedged, never Failed.
    for id in &ids {
        match handle.wait_timeout(*id, Duration::from_secs(60)) {
            Ok(_) | Err(WaitError::Cancelled) => {}
            other => panic!("job {id} did not settle cleanly: {other:?}"),
        }
    }
    let stats = handle.stats();
    assert_eq!(stats.completed + stats.cancelled, 48, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    service.shutdown();
}

#[test]
fn mid_wave_cancellation_stops_a_running_query() {
    // A big corpus so waves take long enough to catch in flight.
    let ds = corpus(1_500_000);
    let service = Service::spawn(
        clean_system(ds.text()),
        ServiceConfig {
            max_batch: 1,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();

    // Attach our own token so cancellation can land mid-scan regardless of
    // how fast the wave claim won the race.
    let mut cancelled_while_running = false;
    for _ in 0..8 {
        let token = CancelToken::new();
        let request = QueryRequest::parse("NOT KERNEL")
            .unwrap()
            .with_cancel(token.clone());
        let id = handle.submit(request, Priority::Normal).unwrap();
        // Spin until the scheduler claims it, then cancel mid-wave.
        loop {
            match handle.poll(id) {
                Some(JobStatus::Running) => {
                    cancelled_while_running |= handle.cancel(id);
                    break;
                }
                Some(JobStatus::Pending) => std::hint::spin_loop(),
                _ => break, // settled before we caught it — try again
            }
        }
        match handle.wait_timeout(id, Duration::from_secs(60)) {
            Ok(_) | Err(WaitError::Cancelled) => {}
            other => panic!("cancelled job did not settle: {other:?}"),
        }
        if cancelled_while_running {
            break;
        }
    }
    assert!(
        cancelled_while_running,
        "never caught a wave mid-flight in 8 attempts"
    );

    // The service is unharmed: the next query runs to completion.
    let id = handle.submit_str("FATAL", Priority::Normal).unwrap();
    assert!(matches!(
        handle.wait_timeout(id, Duration::from_secs(60)),
        Ok(JobOutput::Query { .. })
    ));
    service.shutdown();
}

#[test]
fn zero_deadline_yields_a_well_formed_empty_result() {
    let ds = corpus(80_000);
    let service = Service::spawn(clean_system(ds.text()), ServiceConfig::default());
    let handle = service.handle();
    let request = QueryRequest::parse("error OR failed OR FATAL")
        .unwrap()
        .with_deadline(Duration::ZERO);
    let id = handle.submit(request, Priority::Normal).unwrap();
    let JobOutput::Query { outcome, .. } = handle.wait(id).unwrap() else {
        panic!("expected a query output");
    };
    assert_eq!(outcome.pages_scanned, 0, "nothing fits in a zero deadline");
    assert!(outcome.lines.is_empty());
    assert!(outcome.degraded.is_degraded());
    assert!(outcome.degraded.deadline_clipped > 0);
    service.shutdown();
}

#[test]
fn deadline_clipped_results_match_an_uncached_solo_replica() {
    let ds = corpus(400_000);
    let deadline = Duration::from_micros(200);

    // Replica A: solo run on a fresh system with the page cache disabled.
    let mut solo = MithriLog::new(SystemConfig {
        page_cache_bytes: 0,
        ..SystemConfig::default()
    });
    solo.ingest(ds.text()).unwrap();
    let request = QueryRequest::parse("error OR failed OR FATAL")
        .unwrap()
        .with_deadline(deadline);
    let solo_outcome = solo
        .query_shared(std::slice::from_ref(&request))
        .unwrap()
        .outcomes
        .remove(0);
    assert!(
        solo_outcome.degraded.deadline_clipped > 0,
        "deadline must bite for this test to mean anything: {:?}",
        solo_outcome.degraded
    );

    // Replica B: the same request through the service (cache enabled,
    // concurrent scheduler) — with a default deadline it must not override.
    let service = Service::spawn(
        clean_system(ds.text()),
        ServiceConfig {
            default_deadline: Some(Duration::from_secs(10)),
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();
    let id = handle.submit(request, Priority::Normal).unwrap();
    let JobOutput::Query { outcome, .. } = handle.wait(id).unwrap() else {
        panic!("expected a query output");
    };
    service.shutdown();

    assert_eq!(outcome.lines, solo_outcome.lines);
    assert_eq!(outcome.pages_scanned, solo_outcome.pages_scanned);
    assert_eq!(outcome.ledger, solo_outcome.ledger);
    assert_eq!(outcome.degraded, solo_outcome.degraded);
    assert_eq!(outcome.modeled_time, solo_outcome.modeled_time);
}

#[test]
fn default_deadline_applies_only_to_requests_without_one() {
    let ds = corpus(400_000);
    let tight = Duration::from_micros(200);
    let service = Service::spawn(
        clean_system(ds.text()),
        ServiceConfig {
            default_deadline: Some(tight),
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();

    // No explicit deadline: the default clips the plan.
    let id = handle
        .submit_str("error OR failed OR FATAL", Priority::Normal)
        .unwrap();
    let JobOutput::Query { outcome, .. } = handle.wait(id).unwrap() else {
        panic!("expected a query output");
    };
    assert!(
        outcome.degraded.deadline_clipped > 0,
        "{:?}",
        outcome.degraded
    );

    // An explicit generous deadline wins over the tight default.
    let request = QueryRequest::parse("error OR failed OR FATAL")
        .unwrap()
        .with_deadline(Duration::from_secs(10));
    let id = handle.submit(request, Priority::Normal).unwrap();
    let JobOutput::Query { outcome, .. } = handle.wait(id).unwrap() else {
        panic!("expected a query output");
    };
    assert_eq!(
        outcome.degraded.deadline_clipped, 0,
        "{:?}",
        outcome.degraded
    );
    service.shutdown();
}

#[test]
fn a_panicking_wave_fails_only_its_own_jobs() {
    let ds = corpus(120_000);
    let pages = probe_data_pages(ds.text());
    let doomed = *pages.last().unwrap();
    let system = faulted_system(ds.text(), &[(doomed, FaultKind::ReadPanic)]);
    let service = Service::spawn(system, ServiceConfig::default());
    let handle = service.handle();

    // A full scan reads the doomed page: the wave panics, the job fails
    // with an internal error — and nothing else dies.
    let id = handle.submit_str("NOT KERNEL", Priority::Normal).unwrap();
    match handle.wait_timeout(id, Duration::from_secs(60)) {
        Err(WaitError::Failed(reason)) => {
            assert!(reason.contains("internal error"), "{reason}");
        }
        other => panic!("expected an internal-error failure, got {other:?}"),
    }
    let stats = handle.stats();
    assert_eq!(stats.waves_poisoned, 1, "{stats:?}");

    // The scheduler survived: a budget-clipped query that stays clear of
    // the doomed tail page completes, and STATS keeps answering.
    let mut request = QueryRequest::parse("error OR failed OR FATAL").unwrap();
    request.page_budget = Some(2);
    let id = handle.submit(request, Priority::Normal).unwrap();
    assert!(matches!(
        handle.wait_timeout(id, Duration::from_secs(60)),
        Ok(JobOutput::Query { .. })
    ));
    let stats = handle.stats();
    assert_eq!(stats.failed, 1, "{stats:?}");
    assert_eq!(stats.completed, 1, "{stats:?}");
    service.shutdown();
}

#[test]
fn a_panic_on_a_scatter_thread_fails_only_its_own_wave() {
    let ds = corpus(120_000);
    let config = SystemConfig::default();
    let options = ShardOptions {
        shards: 2,
        mode: RouteMode::LineHash,
        salt: 0x5eed,
    };
    // Shard 1 runs on a spawned scoped thread; doom its last data page.
    let mut probe = ShardedLog::new(config.clone(), options);
    probe.ingest(ds.text()).unwrap();
    let doomed = probe.shard(1).data_pages().last().unwrap().0;
    let stores = [
        FaultPlan::seeded(99),
        FaultPlan::seeded(99).with_scheduled(doomed, FaultKind::ReadPanic),
    ]
    .into_iter()
    .map(|plan| FaultyStore::new(MemStore::new(config.device.page_bytes), plan))
    .collect();
    let mut system = ShardedLog::with_stores(stores, config, options.mode, options.salt).unwrap();
    system.ingest(ds.text()).unwrap();
    let service = Service::spawn(system, ServiceConfig::default());
    let handle = service.handle();

    // A full scan reads the doomed page on shard 1's thread: the panic
    // crosses back to the scheduler, which fails the wave and survives.
    let id = handle.submit_str("NOT KERNEL", Priority::Normal).unwrap();
    match handle.wait_timeout(id, Duration::from_secs(60)) {
        Err(WaitError::Failed(reason)) => {
            assert!(reason.contains("internal error"), "{reason}");
        }
        other => panic!("expected an internal-error failure, got {other:?}"),
    }
    let stats = handle.stats();
    assert_eq!(stats.waves_poisoned, 1, "{stats:?}");

    let mut request = QueryRequest::parse("error OR failed OR FATAL").unwrap();
    request.page_budget = Some(2);
    let id = handle.submit(request, Priority::Normal).unwrap();
    assert!(matches!(
        handle.wait_timeout(id, Duration::from_secs(60)),
        Ok(JobOutput::Query { .. })
    ));
    let stats = handle.stats();
    assert_eq!(stats.failed, 1, "{stats:?}");
    assert_eq!(stats.completed, 1, "{stats:?}");
    service.shutdown();
}

#[test]
fn quarantined_pages_cost_zero_retries_on_every_repeat() {
    let ds = corpus(120_000);
    let pages = probe_data_pages(ds.text());
    // The service names pages by global frame ordinal: the position in
    // `pages`.
    let doomed_ordinal = pages.len() as u64 / 2;
    let doomed = pages[doomed_ordinal as usize];
    // A page that never stops failing: retries exhaust, scrub quarantines.
    let system = faulted_system(
        ds.text(),
        &[(doomed, FaultKind::TransientRead { failures: u32::MAX })],
    );
    // Idle lane off: this test exercises the explicit SCRUB verb.
    let service = Service::spawn(system, ServiceConfig::default());
    let handle = service.handle();

    // SCRUB quarantines the page (charging its own retry budget once).
    let id = handle.submit_scrub().unwrap();
    let JobOutput::Scrub(report) = handle.wait_timeout(id, Duration::from_secs(60)).unwrap() else {
        panic!("expected a scrub report");
    };
    assert_eq!(report.quarantined, vec![doomed], "{report:?}");

    // Repeat queries: the quarantined page is skipped up front — zero
    // retries charged, every run identical.
    let mut outcomes = Vec::new();
    for _ in 0..3 {
        let id = handle
            .submit_str("error OR failed OR FATAL", Priority::Normal)
            .unwrap();
        let JobOutput::Query { outcome, .. } =
            handle.wait_timeout(id, Duration::from_secs(60)).unwrap()
        else {
            panic!("expected a query output");
        };
        assert_eq!(outcome.ledger.retries, 0, "{:?}", outcome.ledger);
        assert_eq!(outcome.degraded.retries, 0, "{:?}", outcome.degraded);
        assert!(
            outcome.degraded.skipped_pages.contains(&doomed_ordinal),
            "{:?}",
            outcome.degraded
        );
        outcomes.push(outcome);
    }
    assert_eq!(outcomes[0].lines, outcomes[1].lines);
    assert_eq!(outcomes[0].degraded, outcomes[2].degraded);
    service.shutdown();
}

#[test]
fn online_scrub_lane_quarantines_during_idle_time() {
    let ds = corpus(120_000);
    let pages = probe_data_pages(ds.text());
    let doomed = pages[1];
    let system = faulted_system(
        ds.text(),
        &[(doomed, FaultKind::TransientRead { failures: u32::MAX })],
    );
    let total_pages = system.device().page_count();
    let service = Service::spawn(
        system,
        ServiceConfig {
            scrub_batch: 16,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();

    // The scheduler is idle, so the lane sweeps the device on its own;
    // wait (bounded) for one full pass.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let stats = loop {
        let stats = handle.stats();
        if stats.pages_scrubbed >= total_pages {
            break stats;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "online scrub never completed a pass: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(stats.scrub_slices >= total_pages.div_ceil(16), "{stats:?}");
    assert_eq!(stats.pages_quarantined, 1, "{stats:?}");

    // Foreground queries now skip the quarantined page deterministically.
    let id = handle
        .submit_str("error OR failed OR FATAL", Priority::Normal)
        .unwrap();
    let JobOutput::Query { outcome, .. } = handle.wait(id).unwrap() else {
        panic!("expected a query output");
    };
    // Global frame ordinal 1 is `pages[1]`.
    assert!(outcome.degraded.skipped_pages.contains(&1));
    assert_eq!(outcome.ledger.retries, 0);
    service.shutdown();
}
