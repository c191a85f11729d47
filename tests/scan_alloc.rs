//! Steady-state allocation accounting for the scan hot path.
//!
//! A counting `#[global_allocator]` (vendored here — the library crates
//! forbid unsafe code, but an integration-test binary is its own crate
//! root) measures heap allocations across a whole query. After a warm-up
//! query establishes scratch capacity, a no-match full scan must allocate
//! O(1) per query — strictly fewer allocations than it scans pages. The
//! pre-scratch path allocated at least a decoder table and an output
//! buffer per page, so this bound fails loudly on any regression that
//! reintroduces per-page allocation. The same bound holds for a wave: the
//! solo query *is* a wave of one, and a four-request wave builds its page
//! union and fans every page out without allocating per page either. The
//! LZAH decode kernel on its own, with a reused scratch, allocates nothing
//! per frame.
//!
//! This file intentionally holds a single `#[test]`: the allocator count
//! is global to the test binary, and a concurrently running test would
//! pollute the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mithrilog::{MithriLog, QueryRequest, SystemConfig};
use mithrilog_compress::{compress_paged, Codec, Lzah, LzahConfig, LzahScratch};
use mithrilog_loggen::{generate, DatasetProfile, DatasetSpec};

/// Counts every allocation (fresh, zeroed, and growth reallocations) and
/// delegates the actual memory management to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_scan_allocates_o1_per_query_not_per_page() {
    // Single inline worker (no thread-spawn allocations), no index (force
    // the full-scan hot path), no cache (inserting into the cache copies
    // page text by design — this test isolates the scan kernel itself).
    let config = SystemConfig {
        use_index: false,
        query_threads: 1,
        page_cache_bytes: 0,
        ..SystemConfig::default()
    };
    let ds = generate(&DatasetSpec {
        profile: DatasetProfile::Bgl2,
        target_bytes: 2_000_000,
        seed: 3,
    });
    let mut system = MithriLog::new(config);
    system.ingest(ds.text()).unwrap();
    let pages = system.data_page_count();
    assert!(pages > 100, "corpus must span enough pages ({pages})");

    // Warm-up: establishes decoder-table/word/output capacity in the
    // worker scratch and promotes the store's page buffers to shared
    // handles. A no-match query keeps the output path out of the picture.
    let query = "zz-no-such-token-zz";
    let warm = system.query_str(query).unwrap();
    assert_eq!(warm.match_count(), 0);
    assert_eq!(warm.pages_scanned, pages);

    // Steady state: one full query, measured end to end (parse, plan,
    // compile, scan, outcome assembly). The per-query fixed allocations
    // are dozens; anything proportional to the page count means the page
    // loop regressed.
    let before = allocations();
    let outcome = system.query_str(query).unwrap();
    let delta = allocations() - before;
    assert_eq!(outcome.match_count(), 0);
    assert_eq!(outcome.pages_scanned, pages);
    assert!(
        delta < pages,
        "a steady-state no-match scan of {pages} pages allocated {delta} \
         times — the page loop must not allocate per page"
    );

    // A wave of four full scans shares every page: building the union,
    // tracking who is interested in which page and collecting per-slot
    // results must all stay O(1) allocations per query, not per page.
    let wave: Vec<QueryRequest> = (0..4)
        .map(|i| QueryRequest::parse(&format!("zz-no-such-token-{i}-zz")).unwrap())
        .collect();
    let warm = system.query_shared(&wave).unwrap();
    assert_eq!(warm.shared.unique_pages_read, pages);
    let before = allocations();
    let batch = system.query_shared(&wave).unwrap();
    let delta = allocations() - before;
    assert_eq!(batch.shared.unique_pages_read, pages);
    assert_eq!(batch.shared.shared_reads_avoided, 3 * pages);
    assert!(batch.outcomes.iter().all(|o| o.match_count() == 0));
    assert!(
        delta < pages,
        "a steady-state 4-request no-match wave over {pages} union pages \
         allocated {delta} times — the fan-out must not allocate per page"
    );

    // The decode kernel alone, frame by frame: a reused scratch decodes
    // every frame without allocating, while the allocating path (a fresh
    // table and output per frame) allocates at least twice per frame —
    // the control that shows the counter sees per-frame allocation.
    let lzah = LzahConfig::default();
    let codec = Lzah::new(lzah);
    let frames: Vec<Vec<u8>> = compress_paged(ds.text(), lzah, 4096)
        .pages()
        .iter()
        .map(|f| f.data().to_vec())
        .collect();
    let mut scratch = LzahScratch::new();
    for frame in &frames {
        let reused = codec.decompress_into(frame, &mut scratch).unwrap().to_vec();
        assert_eq!(reused, codec.decompress(frame).unwrap());
    }
    let before = allocations();
    for frame in &frames {
        let text = codec.decompress_into(frame, &mut scratch).unwrap();
        assert!(!text.is_empty());
    }
    let reused = allocations() - before;
    let before = allocations();
    for frame in &frames {
        assert!(!codec.decompress(frame).unwrap().is_empty());
    }
    let fresh = allocations() - before;
    let n = frames.len() as u64;
    assert_eq!(reused, 0, "decompress_into allocated over {n} warm frames");
    assert!(
        fresh >= 2 * n,
        "decompress allocated only {fresh} times for {n} frames"
    );
}
