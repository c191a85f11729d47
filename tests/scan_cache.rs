//! Page-cache correctness acceptance tests.
//!
//! The decompressed-page cache is a purely physical optimization: query
//! outcomes — matched lines, as-if-solo cost ledgers, modeled times, and
//! degraded-read reports — must be byte-identical with the cache on or
//! off, under every fault-injection mode. These tests run the same query
//! sequence on a cached and an uncached system built from the same seeded
//! fault plan and compare everything except wall-clock time.
//!
//! Scans larger than the cache are the scan-resistance case: such a wave
//! only fills the cache's free room and never evicts, so repeated full
//! scans keep hitting what the first one cached, and a flood leaves what a
//! selective query cached in place — with outcomes still byte-identical to
//! an uncached replica.
//!
//! The staleness tests prove the explicit invalidation of the page-id
//! key: ingest is append-only, so the cache stays warm across it and the
//! new line is still observed; mutable device access (a corruption drill)
//! clears the cache, so nothing cached before it survives.

use mithrilog::{MithriLog, QueryOutcome, SystemConfig};
use mithrilog_loggen::{generate, Dataset, DatasetProfile, DatasetSpec};
use mithrilog_storage::{FaultKind, FaultPlan, FaultyStore, MemStore};

fn corpus() -> Dataset {
    generate(&DatasetSpec {
        profile: DatasetProfile::Bgl2,
        target_bytes: 400_000,
        seed: 11,
    })
}

fn config(page_cache_bytes: u64) -> SystemConfig {
    SystemConfig {
        page_cache_bytes,
        ..SystemConfig::default()
    }
}

fn faulted_system(plan: FaultPlan, page_cache_bytes: u64) -> MithriLog<FaultyStore<MemStore>> {
    let config = config(page_cache_bytes);
    let store = FaultyStore::new(MemStore::new(config.device.page_bytes), plan);
    let mut system = MithriLog::with_store(store, config).unwrap();
    system.ingest(corpus().text()).unwrap();
    system
}

/// Everything a query observed except wall-clock time (the one
/// legitimately nondeterministic field).
fn observed(o: &QueryOutcome) -> impl std::fmt::Debug + PartialEq {
    (
        o.lines.clone(),
        o.offloaded,
        o.used_index,
        o.pages_scanned,
        o.bytes_filtered,
        o.lines_scanned,
        o.ledger,
        o.modeled_time,
        o.degraded.clone(),
    )
}

/// The data page ids of the deterministic test corpus, learned from a
/// clean build so fault plans can target specific data pages.
fn data_page_ids() -> Vec<u64> {
    let system = faulted_system(FaultPlan::seeded(0), 0);
    system.data_pages().iter().map(|p| p.0).collect()
}

#[test]
fn cached_outcomes_are_byte_identical_under_every_fault_mode() {
    let p = data_page_ids();
    assert!(p.len() > 10, "corpus must span enough data pages");
    type PlanFactory = Box<dyn Fn() -> FaultPlan>;
    let plans: Vec<(&str, PlanFactory)> = vec![
        ("clean", Box::new(|| FaultPlan::seeded(17))),
        (
            "bit-rot",
            Box::new({
                let p1 = p[1];
                move || FaultPlan::seeded(17).with_scheduled(p1, FaultKind::BitRot { bit: 5 })
            }),
        ),
        (
            "transient-recoverable",
            Box::new({
                let p3 = p[3];
                move || {
                    FaultPlan::seeded(17)
                        .with_scheduled(p3, FaultKind::TransientRead { failures: 2 })
                }
            }),
        ),
        (
            "transient-exhausting",
            Box::new({
                let p5 = p[5];
                move || {
                    FaultPlan::seeded(17)
                        .with_scheduled(p5, FaultKind::TransientRead { failures: 50 })
                }
            }),
        ),
        (
            "torn-write",
            Box::new({
                let p8 = p[8];
                move || {
                    FaultPlan::seeded(17)
                        .with_scheduled(p8, FaultKind::TornWrite { valid_bytes: 100 })
                }
            }),
        ),
    ];
    // Repeated and varied queries: the second round runs against a warm
    // cache on the cached system and must change nothing observable.
    let queries = ["FATAL OR error", "NOT KERNEL", "FATAL OR error", "INFO"];

    for (mode, plan) in &plans {
        let mut cached = faulted_system(plan(), SystemConfig::DEFAULT_PAGE_CACHE_BYTES);
        let mut uncached = faulted_system(plan(), 0);
        for (round, q) in queries.iter().enumerate() {
            let before = *cached.device().ledger();
            let a = cached.query_str(q).unwrap();
            let b = uncached.query_str(q).unwrap();
            assert_eq!(
                observed(&a),
                observed(&b),
                "{mode}: round {round} query {q:?} must not depend on the cache"
            );
            // On a clean device the repeated query finds every data page
            // it scans in the cache.
            if *mode == "clean" && round == 2 {
                let served = cached.device().ledger().since(&before).cache_hits;
                assert_eq!(served, a.pages_scanned, "clean repeat of {q:?}");
            }
        }
        let ledger = cached.device().ledger();
        assert!(
            ledger.cache_hits > 0,
            "{mode}: repeated queries must actually hit the cache"
        );
        assert_eq!(
            uncached.device().ledger().cache_hits,
            0,
            "{mode}: a disabled cache records no hits"
        );
        // The physical saving reconciles: what the cached system demanded
        // equals what it read plus what the cache served.
        assert_eq!(
            ledger.pages_read + ledger.cache_hits + ledger.shared_reads,
            uncached.device().ledger().demanded_reads(),
            "{mode}: demand must reconcile across cache on/off"
        );
    }
}

#[test]
fn ingest_keeps_the_cache_warm_and_new_lines_are_observed() {
    let needle = "zz-staleness-needle-zz appeared after the first ingest\n";
    let mut system = MithriLog::new(config(SystemConfig::DEFAULT_PAGE_CACHE_BYTES));
    system.ingest(corpus().text()).unwrap();

    // Warm the cache over the whole corpus.
    let before = system.query_str("NOT zz-absent-token-zz").unwrap();
    let warm = system.query_str("NOT zz-absent-token-zz").unwrap();
    assert_eq!(observed(&before), observed(&warm));
    assert!(
        system.device().ledger().cache_hits > 0,
        "the repeated full scan must be served from the cache"
    );

    // Ingest is append-only: existing pages are immutable, so their cached
    // text stays live — and the freshly appended line is still observed
    // because the new page has never been cached.
    system.ingest(needle.as_bytes()).unwrap();
    let hits_before = system.device().ledger().cache_hits;
    let after = system.query_str("NOT zz-absent-token-zz").unwrap();
    assert!(
        system.device().ledger().cache_hits > hits_before,
        "the post-ingest scan keeps consuming pre-ingest cache entries"
    );
    assert_eq!(
        after.lines.len(),
        before.lines.len() + 1,
        "the post-ingest scan must observe the new line"
    );
    assert!(after
        .lines
        .iter()
        .any(|l| l.contains("zz-staleness-needle")));

    // Cached and uncached systems still agree after the ingest.
    let again = system.query_str("NOT zz-absent-token-zz").unwrap();
    assert_eq!(observed(&again), observed(&after));
}

#[test]
fn mutable_device_access_clears_the_cache() {
    let mut system = MithriLog::new(config(SystemConfig::DEFAULT_PAGE_CACHE_BYTES));
    system.ingest(corpus().text()).unwrap();
    let _ = system.query_str("NOT zz-absent-token-zz").unwrap();
    let _ = system.query_str("NOT zz-absent-token-zz").unwrap();
    assert!(system.device().ledger().cache_hits > 0);

    // A corruption drill takes mutable device access: the cache is
    // cleared, so no pre-drill text can mask the overwrite.
    let hits_before = {
        let ssd = system.device_mut();
        ssd.ledger().cache_hits
    };
    let refetched = system.query_str("NOT zz-absent-token-zz").unwrap();
    assert_eq!(
        system.device().ledger().cache_hits,
        hits_before,
        "a post-drill scan must not consume pre-drill cache entries"
    );
    assert!(!refetched.lines.is_empty());
}

#[test]
fn scans_larger_than_the_cache_keep_what_they_cached() {
    let p = data_page_ids();
    // The store holds more than four times the cache's budget, so every
    // full scan is a flooding wave.
    let raw = faulted_system(FaultPlan::seeded(0), 0).raw_bytes();
    let cache_bytes = raw / 5;
    type PlanFactory = Box<dyn Fn() -> FaultPlan>;
    let plans: Vec<(&str, PlanFactory)> = vec![
        ("clean", Box::new(|| FaultPlan::seeded(17))),
        (
            "bit-rot",
            Box::new({
                let p1 = p[1];
                move || FaultPlan::seeded(17).with_scheduled(p1, FaultKind::BitRot { bit: 5 })
            }),
        ),
        (
            "transient-read",
            Box::new({
                let p3 = p[3];
                move || {
                    FaultPlan::seeded(17)
                        .with_scheduled(p3, FaultKind::TransientRead { failures: 2 })
                }
            }),
        ),
    ];
    let full_scan = "NOT zz-absent-token-zz";
    for (mode, plan) in &plans {
        let mut cached = faulted_system(plan(), cache_bytes);
        let mut uncached = faulted_system(plan(), 0);
        for round in 0..3 {
            let before = *cached.device().ledger();
            let a = cached.query_str(full_scan).unwrap();
            let b = uncached.query_str(full_scan).unwrap();
            assert_eq!(
                observed(&a),
                observed(&b),
                "{mode}: full scan {round} must not depend on the cache"
            );
            assert!(a.bytes_filtered > 4 * cache_bytes, "{mode}: a flood");
            let hits = cached.device().ledger().since(&before).cache_hits;
            if *mode == "clean" && round > 0 {
                assert!(hits > 0, "clean full scan {round} must hit the cache");
            }
        }
        let ledger = cached.device().ledger();
        assert_eq!(
            ledger.pages_read + ledger.cache_hits + ledger.shared_reads,
            uncached.device().ledger().demanded_reads(),
            "{mode}: demand must reconcile across cache on/off"
        );
    }

    // A selective query's pages, cached before a flood, outlive it.
    let mut system = faulted_system(FaultPlan::seeded(17), cache_bytes);
    let selective = "1117838570";
    let hits_of = |system: &mut MithriLog<_>| {
        let before = *system.device().ledger();
        let o = system.query_str(selective).unwrap();
        (
            o.pages_scanned,
            system.device().ledger().since(&before).cache_hits,
        )
    };
    let (pages, cold) = hits_of(&mut system);
    assert_eq!(cold, 0);
    assert!(
        pages > 0 && pages < p.len() as u64 / 10,
        "selective ({pages})"
    );
    assert_eq!(
        hits_of(&mut system),
        (pages, pages),
        "warm before the flood"
    );
    for _ in 0..2 {
        system.query_str(full_scan).unwrap();
    }
    assert_eq!(
        hits_of(&mut system),
        (pages, pages),
        "a flood must not evict what a selective query cached"
    );
}
