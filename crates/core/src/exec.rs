//! The scan executor: one kernel for every query (paper §5, Figure 7).
//!
//! The prototype has one datapath — flash pages → LZAH decode → N token
//! filters — however many queries are loaded, and so does this module:
//! [`scan_wave`] is the only page-scan entry point. It reads and
//! decompresses each distinct page of the wave's page plans once and fans
//! the text out to every query that planned it. A solo query is a wave of
//! one: its plan *is* the union and every page fans out to one filter.
//!
//! **Worker pool.** The union is striped round-robin over a fixed pool of
//! scoped worker threads, one per modeled flash channel
//! (`SystemConfig::query_threads`): slot *i* rides channel `i mod N`,
//! exactly how pages interleave across channels on the device. Each worker
//! owns a complete pipeline replica — a private [`SsdReader`] with its own
//! cost ledger, an LZAH codec and decoder workspace, one [`HashFilter`] per
//! hardware-engine query — and appends what it finds to flat per-worker
//! buffers. Workers never exchange state mid-scan; one worker runs inline.
//!
//! **Determinism invariant:** every query's result is byte-identical for
//! every worker count and every wave it could have ridden in. Three
//! properties guarantee it:
//!
//! 1. slot outcomes (matched lines, skip decisions, retry counts) are pure
//!    per-page functions — no cross-page or cross-query state exists;
//! 2. plans ascend by page id, so walking the union in slot order visits
//!    every query's pages in that query's plan order;
//! 3. ledger counters are additive: each query is charged, as if solo, the
//!    exact cost of every slot it was live on, in any merge order.
//!
//! What sharing changes is physical only and lives on the device ledger:
//! each union page is read once, the duplicates avoided are counted in
//! `shared_reads`, and pages served by the [`PageCache`] in
//! `cache_hits`/`cache_bytes_saved` (a hit still charges the consumer the
//! full read it replaced).
//!
//! **Allocation-free page loop:** scratch and output buffers are reused
//! across a worker's slots, so after warm-up a page with no matches is
//! scanned without a heap allocation, for any number of queries; a page
//! with k matches allocates exactly the k output `String`s.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;
use std::thread;

use mithrilog_compress::{compress_paged, Lzah, LzahConfig, LzahScratch, PagedLog};
use mithrilog_filter::{FilterPipeline, HashFilter};
use mithrilog_query::Query;
use mithrilog_storage::{CostLedger, PageId, PageStore, SimSsd, SsdReader, StorageError};

use crate::cache::PageCache;
use crate::control::CancelToken;
use crate::outcome::ScanAttribution;

/// Whether a storage error is survivable by skipping the affected page:
/// corruption, exhausted transient retries, and quarantined pages lose one
/// page of data; anything else (out-of-range access, host I/O failure) is a
/// real bug or environment failure and must propagate.
pub(crate) fn page_is_skippable(e: &StorageError) -> bool {
    matches!(
        e,
        StorageError::Corrupt { .. }
            | StorageError::TransientRead { .. }
            | StorageError::Quarantined { .. }
    )
}

/// The filtering engine a query scans with: the compiled hardware pipeline
/// when the query fit the filter's resources, or the software evaluator
/// otherwise. Both are read-only here and shared by every worker; the
/// mutable per-line state of the hardware model is the [`HashFilter`] each
/// worker keeps per query.
pub(crate) enum Engine<'q> {
    /// Offloaded path: the cuckoo-hash filter model.
    Hardware(&'q FilterPipeline),
    /// Fallback path: reference software evaluation of the query AST.
    Software(&'q Query),
}

/// The page cache view a scan runs against; `None` in its place means
/// caching is disabled.
#[derive(Clone, Copy)]
pub(crate) struct CacheView<'c> {
    pub cache: &'c PageCache,
    /// The store's average decoded bytes per live data page: a wave whose
    /// union holds more than the cache's capacity of them floods it.
    pub page_bytes: u64,
}

impl CacheView<'_> {
    /// Whether a wave over `union_pages` distinct pages holds more decoded
    /// text than the cache. Such a wave would, under LRU, evict every page
    /// before its next use, so it only fills free room.
    fn floods(&self, union_pages: usize) -> bool {
        union_pages as u64 * self.page_bytes > self.cache.capacity()
    }

    /// Stores one decompressed page: an LRU insert, or a fill of free room
    /// when the wave is `flooding`. Returns whether a flooding wave
    /// declined the page.
    fn store(&self, flooding: bool, page: u64, text: &[u8], raw_len: u64) -> bool {
        if flooding {
            return !self.cache.fill(page, text, raw_len);
        }
        self.cache.insert(page, Arc::new(text.to_vec()), raw_len);
        false
    }
}

/// The filter half of a page scan: run `engine` over decompressed `text`,
/// filling `ranges` with the matched line ranges (cleared first) and
/// returning the number of lines examined. Pure in `text`, so a page fanned
/// out to N queries (or served from the cache) yields exactly what N solo
/// scans would have.
fn filter_page_into<'q>(
    engine: &Engine<'q>,
    text: &[u8],
    filter: &mut Option<HashFilter<'q>>,
    ranges: &mut Vec<Range<usize>>,
) -> u64 {
    match engine {
        Engine::Hardware(pipeline) => {
            let filter = filter
                .as_mut()
                .expect("hardware scratch carries a hash filter");
            pipeline
                .filter_text_with_stats_into(text, filter, ranges)
                .lines_in
        }
        Engine::Software(query) => {
            ranges.clear();
            let mut lines_scanned = 0u64;
            let mut offset = 0usize;
            for line in text.split(|b| *b == b'\n') {
                let start = offset;
                offset += line.len() + 1;
                if line.is_empty() {
                    continue;
                }
                lines_scanned += 1;
                // Log lines are overwhelmingly valid UTF-8: evaluate
                // borrowed. The lossy copy is reserved for invalid lines,
                // where replacement characters cannot introduce matches the
                // byte view lacks (query tokens are valid UTF-8).
                let matched = match std::str::from_utf8(line) {
                    Ok(s) => query.matches_line(s),
                    Err(_) => query.matches_line(&String::from_utf8_lossy(line)),
                };
                if matched {
                    ranges.push(start..start + line.len());
                }
            }
            lines_scanned
        }
    }
}

/// One query's contribution to a wave: its filtering engine, its page plan,
/// and an optional cancellation token. A query whose token trips mid-wave
/// drops out of every subsequent union slot — it is neither filtered nor
/// charged for pages it never reached, and a slot every planner has
/// abandoned is not read at all.
pub(crate) struct FanQuery<'q> {
    /// The filtering engine this query scans with.
    pub engine: Engine<'q>,
    /// The query's page plan: ascending page ids, no duplicates.
    pub pages: &'q [PageId],
    /// Cooperative cancellation, checked at each union-slot boundary.
    pub cancel: Option<&'q CancelToken>,
}

impl FanQuery<'_> {
    fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }
}

/// One query's result of a wave scan.
#[derive(Default)]
pub(crate) struct FanoutQueryScan {
    /// Matching lines in this query's plan order, materialized once.
    pub lines: Vec<String>,
    /// Source page id of each matching line, parallel to `lines`. The
    /// attribution lets a multi-device merge reconstruct global storage
    /// order without re-scanning.
    pub line_pages: Vec<u64>,
    /// Skipped page ids, in this query's plan order.
    pub skipped_pages: Vec<u64>,
    /// Lines examined across this query's scanned pages.
    pub lines_scanned: u64,
    /// Decompressed bytes this query's filter consumed.
    pub bytes_filtered: u64,
    /// Pages that decompressed and were filtered for this query.
    pub pages_filtered: u64,
    /// As-if-solo charges: every page this query reached is charged in
    /// full, exactly as a solo uncached scan would have, even when the
    /// physical read was shared or served from the cache. The savings live
    /// on the device ledger instead.
    pub ledger: CostLedger,
    /// How this query's plan overlapped the rest of the wave (the
    /// `pruned_*` fields are the planner's and stay zero here).
    pub attribution: ScanAttribution,
}

/// Merged result of a wave scan.
pub(crate) struct FanoutResult {
    /// One scan result per input query, in input order.
    pub queries: Vec<FanoutQueryScan>,
    /// Distinct pages across the wave's plans.
    pub union_pages: u64,
    /// Physical device charges: each union page read once, plus
    /// `shared_reads` counting every duplicate read the fan-out avoided and
    /// the cache-hit counters. Fold into the device with
    /// [`SimSsd::merge_ledger`].
    pub device_ledger: CostLedger,
    /// Union pages a flooding wave read, decoded and did not cache (see
    /// [`CacheView`]); 0 for every other wave.
    pub cache_declined: u64,
    /// First non-survivable storage error, by union position, so it does
    /// not depend on worker interleaving. The ledger above still accounts
    /// every read issued before workers stopped.
    pub error: Option<StorageError>,
}

/// The union of a wave's page plans as flat arrays: the distinct pages in
/// ascending order and, per page, the indexes of the queries that planned
/// it (`members[offsets[i]..offsets[i + 1]]`, ascending).
struct Union<'p> {
    pages: Cow<'p, [PageId]>,
    offsets: Vec<usize>,
    members: Vec<usize>,
}

impl<'p> Union<'p> {
    /// K-way merge of the (ascending, deduplicated) plans.
    fn of(queries: &[FanQuery<'p>]) -> Self {
        for fq in queries {
            assert!(
                fq.pages.windows(2).all(|w| w[0] < w[1]),
                "page plans ascend without duplicates"
            );
        }
        if let [only] = queries {
            // A fan of one: the plan is the union and query 0 is every
            // slot's only member, so nothing is built.
            return Union {
                pages: Cow::Borrowed(only.pages),
                offsets: Vec::new(),
                members: Vec::new(),
            };
        }
        let longest = queries.iter().map(|fq| fq.pages.len()).max().unwrap_or(0);
        let mut pages = Vec::with_capacity(longest);
        let mut offsets = Vec::with_capacity(longest + 1);
        let mut members = Vec::with_capacity(queries.iter().map(|fq| fq.pages.len()).sum());
        let mut cursors = vec![0usize; queries.len()];
        offsets.push(0);
        while let Some(&page) = queries
            .iter()
            .zip(&cursors)
            .filter_map(|(fq, &c)| fq.pages.get(c))
            .min()
        {
            for (q, (fq, c)) in queries.iter().zip(&mut cursors).enumerate() {
                if fq.pages.get(*c) == Some(&page) {
                    members.push(q);
                    *c += 1;
                }
            }
            pages.push(page);
            offsets.push(members.len());
        }
        Union {
            pages: Cow::Owned(pages),
            offsets,
            members,
        }
    }

    fn members(&self, slot: usize) -> &[usize] {
        if self.offsets.is_empty() {
            &[0]
        } else {
            &self.members[self.offsets[slot]..self.offsets[slot + 1]]
        }
    }
}

/// How a union slot ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    /// The page was read (or served from the cache), decompressed and
    /// filtered for every live member.
    Scanned,
    /// A read was issued but the page is survivably lost (corrupt,
    /// unreadable after retries, or undecompressible): every live member
    /// skips it and pays what the attempt cost.
    Lost,
    /// No read was issued for anyone: the page is quarantined, or every
    /// member was cancelled before the slot came up. Costs nothing.
    Unread,
}

/// One processed union slot.
struct SlotOut {
    kind: SlotKind,
    /// The exact device cost of loading the page — what a solo scan of it
    /// pays. A cache hit replays the read it replaced.
    cost: CostLedger,
    /// Decompressed length of the page (0 unless scanned).
    bytes: u64,
    /// Members live when the slot ran; that many `FanOut`s follow in the
    /// worker's `fans`.
    live: usize,
}

/// One live member's share of a slot.
struct FanOut {
    query: usize,
    lines_scanned: u64,
    /// Matched lines; that many `String`s follow in the worker's `lines`.
    matched: usize,
}

/// What one worker produced, flat and in the order it visited its slots.
struct WorkerOut {
    slots: Vec<SlotOut>,
    fans: Vec<FanOut>,
    lines: Vec<String>,
    /// Physical charges: the reader's ledger plus the cache-hit counters.
    physical: CostLedger,
    /// Decoded pages the flooding wave's cache fill declined.
    declined: u64,
    error: Option<(usize, StorageError)>,
}

impl WorkerOut {
    /// Records a slot that produced no text for its live members.
    fn skip(&mut self, done: SlotOut, live: &[usize]) {
        self.fans.extend(live.iter().map(|&query| FanOut {
            query,
            lines_scanned: 0,
            matched: 0,
        }));
        self.slots.push(done);
    }
}

/// One pipeline replica: the reader, codec and per-query filter state a
/// worker reuses across its slots, plus its output buffers.
struct Worker<'a, 'q, S> {
    queries: &'a [FanQuery<'q>],
    cache: Option<CacheView<'a>>,
    /// Whether this wave floods the cache ([`CacheView::floods`]).
    flooding: bool,
    reader: SsdReader<'a, S>,
    codec: Lzah,
    lzah: LzahScratch,
    /// One [`HashFilter`] per hardware-engine query.
    filters: Vec<Option<HashFilter<'q>>>,
    ranges: Vec<Range<usize>>,
    /// The slot's members not cancelled when it came up.
    live: Vec<usize>,
    out: WorkerOut,
}

impl<'a, 'q, S: PageStore> Worker<'a, 'q, S> {
    fn new(
        ssd: &'a SimSsd<S>,
        lzah: LzahConfig,
        queries: &'a [FanQuery<'q>],
        cache: Option<CacheView<'a>>,
        flooding: bool,
        slots: usize,
    ) -> Self {
        Worker {
            queries,
            cache,
            flooding,
            reader: ssd.reader(),
            codec: Lzah::new(lzah),
            lzah: LzahScratch::new(),
            filters: queries
                .iter()
                .map(|fq| match &fq.engine {
                    Engine::Hardware(pipeline) => Some(HashFilter::new(pipeline.compiled())),
                    Engine::Software(_) => None,
                })
                .collect(),
            ranges: Vec::new(),
            live: Vec::new(),
            out: WorkerOut {
                slots: Vec::with_capacity(slots),
                fans: Vec::with_capacity(slots),
                lines: Vec::new(),
                physical: CostLedger::default(),
                declined: 0,
                error: None,
            },
        }
    }

    /// One worker step: (cache lookup →) read → decompress → filter one
    /// union page for its live members. Pure in the page id given the
    /// device contents — the cache serves only text a fresh read of the
    /// same page would produce — so neither striping nor the
    /// company a query keeps can change its results.
    fn scan_slot(&mut self, page: PageId, members: &[usize]) -> Result<(), StorageError> {
        let Worker {
            queries,
            cache,
            flooding,
            reader,
            codec,
            lzah,
            filters,
            ranges,
            live,
            out,
        } = self;
        live.clear();
        live.extend(members.iter().filter(|&&q| !queries[q].is_cancelled()));
        let mut done = SlotOut {
            kind: SlotKind::Unread,
            cost: CostLedger::default(),
            bytes: 0,
            live: live.len(),
        };
        // Quarantine is checked before the cache: a scrub may quarantine a
        // page after its text was cached, and the skip must match what an
        // uncached read would produce (an up-front `Quarantined` error with
        // zero charges) so cached and uncached runs stay byte-identical.
        if live.is_empty() || reader.is_quarantined(page) {
            out.skip(done, live);
            return Ok(());
        }
        let cached = cache.and_then(|c| c.cache.get(page.0));
        let text: &[u8] = if let Some(hit) = &cached {
            out.physical.cache_hits += 1;
            out.physical.cache_bytes_saved += hit.raw_len;
            done.cost.pages_read = 1;
            done.cost.bytes_read = hit.raw_len;
            &hit.text
        } else {
            let before = *reader.ledger();
            let read = reader.read(page);
            done.cost = reader.ledger().since(&before);
            let decoded = match read {
                // Corruption the checksum missed (or pages written before
                // the sidecar existed) still gets caught by the decoder's
                // consistency checks; one bad page is not worth the wave.
                Ok(raw) => codec.decompress_into(&raw, lzah).ok().inspect(|text| {
                    if let Some(c) = cache {
                        out.declined +=
                            u64::from(c.store(*flooding, page.0, text, raw.len() as u64));
                    }
                }),
                Err(e) if page_is_skippable(&e) => None,
                Err(e) => return Err(e),
            };
            let Some(text) = decoded else {
                done.kind = SlotKind::Lost;
                out.skip(done, live);
                return Ok(());
            };
            text
        };
        done.kind = SlotKind::Scanned;
        done.bytes = text.len() as u64;
        // Matched lines are materialized here, so page text never outlives
        // the slot.
        for &query in live.iter() {
            let lines_scanned =
                filter_page_into(&queries[query].engine, text, &mut filters[query], ranges);
            out.lines.extend(
                ranges
                    .iter()
                    .map(|r| String::from_utf8_lossy(&text[r.clone()]).into_owned()),
            );
            out.fans.push(FanOut {
                query,
                lines_scanned,
                matched: ranges.len(),
            });
        }
        out.slots.push(done);
        Ok(())
    }
}

/// Scans the union of the queries' page plans, reading and decompressing
/// each distinct page once and fanning its text out to every query that
/// planned it (the paper's single flash stream feeding multiple pattern
/// matchers). Union slots are striped across `threads` workers;
/// `threads == 1` runs the identical per-slot code inline.
///
/// **Caching:** hits are taken whatever the wave's size. Misses are
/// inserted LRU, unless the union holds more text than the cache
/// ([`CacheView`]): then they only fill free room, so the wave cannot flush
/// what it and earlier waves cached. The decision is made once per wave.
///
/// **Determinism:** each query's output is byte-identical to scanning its
/// plan alone, for any `threads >= 1` — see the module docs. A cancelled
/// query stops within one union slot per worker and is charged only for
/// pages it actually reached; live co-batched queries are unaffected,
/// because a slot's cost and filter output never depend on how many queries
/// fanned from it.
pub(crate) fn scan_wave<'q, S: PageStore>(
    ssd: &SimSsd<S>,
    lzah: LzahConfig,
    queries: &[FanQuery<'q>],
    threads: usize,
    cache: Option<CacheView<'_>>,
) -> FanoutResult {
    let union = Union::of(queries);
    let union_len = union.pages.len();
    let workers = threads.max(1).min(union_len.max(1));
    let flooding = cache.is_some_and(|c| c.floods(union_len));
    let run = |w: usize| {
        let slots = union_len.div_ceil(workers);
        let mut worker = Worker::new(ssd, lzah, queries, cache, flooding, slots);
        for slot in (w..union_len).step_by(workers) {
            if let Err(e) = worker.scan_slot(union.pages[slot], union.members(slot)) {
                worker.out.error = Some((slot, e));
                break;
            }
        }
        worker.out.physical.merge(&worker.reader.into_ledger());
        worker.out
    };
    let mut outs: Vec<WorkerOut> = if workers == 1 {
        vec![run(0)]
    } else {
        thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || run(w))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scan worker panicked"))
                .collect()
        })
    };

    let error = outs
        .iter_mut()
        .filter_map(|out| out.error.take())
        .min_by_key(|(slot, _)| *slot);
    let mut device_ledger = CostLedger::default();
    let mut cache_declined = 0;
    let mut streams = Vec::with_capacity(workers);
    for out in outs {
        device_ledger.merge(&out.physical);
        cache_declined += out.declined;
        streams.push((
            out.slots.into_iter(),
            out.fans.into_iter(),
            out.lines.into_iter(),
        ));
    }

    // Assembly walks the union once. Plans ascend, so appending in slot
    // order leaves every query's lines and skips in its own plan order;
    // lines were materialized inside the page loop and only move here.
    let mut scans: Vec<FanoutQueryScan> =
        queries.iter().map(|_| FanoutQueryScan::default()).collect();
    for (slot, page) in union.pages.iter().enumerate() {
        // A shared page's physical cost splits evenly across the plans that
        // hold it, whether or not their queries were still live.
        let sharers = union.members(slot);
        for &q in sharers {
            let attr = &mut scans[q].attribution;
            attr.planned_pages += 1;
            if sharers.len() == 1 {
                attr.exclusive_pages += 1;
                attr.attributed_page_cost += 1.0;
            } else {
                attr.shared_pages += 1;
                attr.attributed_page_cost += 1.0 / sharers.len() as f64;
            }
        }
        let (slots, fans, lines) = &mut streams[slot % workers];
        // A worker that stopped on a hard error never reached its later
        // slots; the whole wave fails via `error`, so nothing to merge.
        let Some(done) = slots.next() else { continue };
        // A page fanned to k live queries saved k-1 physical reads — but
        // only if a read was issued (or served from the cache) at all.
        if done.kind != SlotKind::Unread {
            device_ledger.shared_reads += done.live as u64 - 1;
        }
        for fan in fans.by_ref().take(done.live) {
            let scan = &mut scans[fan.query];
            scan.ledger.merge(&done.cost);
            if done.kind == SlotKind::Scanned {
                scan.lines_scanned += fan.lines_scanned;
                scan.bytes_filtered += done.bytes;
                scan.pages_filtered += 1;
                let total = scan.line_pages.len() + fan.matched;
                scan.line_pages.resize(total, page.0);
                scan.lines.extend(lines.by_ref().take(fan.matched));
            } else {
                scan.skipped_pages.push(page.0);
            }
        }
    }

    FanoutResult {
        queries: scans,
        union_pages: union_len as u64,
        device_ledger,
        cache_declined,
        error: error.map(|(_, e)| e),
    }
}

/// Byte target for one ingest compression shard. Shard boundaries are a
/// deterministic function of the input alone — never of the worker count —
/// so the device page layout is identical no matter how many threads
/// compress it (seeded fault plans and the determinism tests rely on that).
/// One shard spans hundreds of 4 KB pages, amortizing the per-shard codec
/// reset to noise; inputs below the target compress exactly as before the
/// pool existed.
const COMPRESS_SHARD_BYTES: usize = 1 << 20;

/// Fewest pages one ingest page-analysis worker takes. Spawning and joining
/// a scoped worker costs ≈ 50 µs on a 2-CPU host, about half the analysis
/// of one 13 KB Spirit2 page, and stalls the calling thread besides; eight
/// pages keep that overhead small. A batch of fewer pages per thread is
/// analysed on fewer threads (a handful of pages on the caller alone).
pub(crate) const MIN_ANALYSIS_PAGES_PER_WORKER: usize = 8;

/// Compresses `text` into page-sized LZAH frames using up to `threads`
/// workers: the input splits at line boundaries into fixed-size shards,
/// each shard compresses independently (pages already reset the codec's
/// hash table, so sharding costs no compression ratio), and the shards
/// return in input order. Concatenating every shard's pages yields frames
/// whose `raw_len`s tile `text` exactly, like a single `compress_paged`.
pub(crate) fn compress_paged_striped(
    text: &[u8],
    config: LzahConfig,
    page_bytes: usize,
    threads: usize,
) -> Vec<PagedLog> {
    let shards = shard_at_lines(text, COMPRESS_SHARD_BYTES);
    map_striped(&shards, threads, |shard| {
        compress_paged(shard, config, page_bytes)
    })
}

/// Maps `f` over `items` on up to `threads` workers, each taking one
/// contiguous run of items (the calling thread takes the first), and
/// returns the results in item order — so the output never depends on the
/// thread count.
pub(crate) fn map_striped<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    let mut runs = items.chunks(items.len().div_ceil(workers));
    let first = runs.next().expect("two workers have items");
    thread::scope(|scope| {
        let rest: Vec<_> = runs
            .map(|run| scope.spawn(move || run.iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out: Vec<R> = Vec::with_capacity(items.len());
        out.extend(first.iter().map(f));
        for handle in rest {
            out.extend(handle.join().expect("striped worker panicked"));
        }
        out
    })
}

/// Splits `text` into chunks of roughly `target` bytes, never inside a
/// line. A single line longer than `target` stays whole in its shard.
fn shard_at_lines(text: &[u8], target: usize) -> Vec<&[u8]> {
    let mut shards = Vec::new();
    let mut start = 0usize;
    while start < text.len() {
        let mut end = (start + target).min(text.len());
        while end < text.len() && text[end - 1] != b'\n' {
            end += 1;
        }
        shards.push(&text[start..end]);
        start = end;
    }
    if shards.is_empty() {
        shards.push(text);
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithrilog_compress::Codec;
    use mithrilog_storage::{DevicePerfModel, MemStore};

    fn ssd_with_pages(texts: &[&str]) -> (SimSsd<MemStore>, Vec<PageId>) {
        let config = LzahConfig::default();
        let mut ssd = SimSsd::new(MemStore::new(4096), DevicePerfModel::bluedbm_prototype());
        let mut pages = Vec::new();
        for t in texts {
            let paged = compress_paged(t.as_bytes(), config, 4096);
            for frame in paged.pages() {
                pages.push(ssd.append(frame.data()).unwrap());
            }
        }
        (ssd, pages)
    }

    fn numbered_pages(n: usize, line: impl Fn(usize) -> String) -> (SimSsd<MemStore>, Vec<PageId>) {
        let texts: Vec<String> = (0..n).map(line).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        ssd_with_pages(&refs)
    }

    fn hardware<'q>(pipeline: &'q FilterPipeline, pages: &'q [PageId]) -> FanQuery<'q> {
        FanQuery {
            engine: Engine::Hardware(pipeline),
            pages,
            cancel: None,
        }
    }

    /// A view that never floods: every miss is an LRU insert.
    fn lru_view(cache: &PageCache) -> Option<CacheView<'_>> {
        Some(CacheView {
            cache,
            page_bytes: 0,
        })
    }

    /// A wave of one: the query's scan plus the device-bound ledger.
    fn solo(
        ssd: &SimSsd<MemStore>,
        query: FanQuery<'_>,
        threads: usize,
        cache: Option<CacheView<'_>>,
    ) -> (FanoutQueryScan, CostLedger) {
        let mut fan = scan_wave(ssd, LzahConfig::default(), &[query], threads, cache);
        assert!(fan.error.is_none());
        assert_eq!(fan.device_ledger.shared_reads, 0, "nobody to share with");
        (fan.queries.remove(0), fan.device_ledger)
    }

    #[test]
    fn parallel_scan_matches_sequential_exactly() {
        let (ssd, pages) = numbered_pages(12, |i| {
            format!("alpha event {i}\nbeta event {i}\ngamma noise {i}\n")
        });
        let query = mithrilog_query::parse("event AND NOT beta").unwrap();
        let pipeline = FilterPipeline::compile(&query).unwrap();
        let (seq, _) = solo(&ssd, hardware(&pipeline, &pages), 1, None);
        for threads in [2, 3, 4, 8] {
            let (par, _) = solo(&ssd, hardware(&pipeline, &pages), threads, None);
            assert_eq!(par.lines, seq.lines, "{threads} threads");
            assert_eq!(par.line_pages, seq.line_pages);
            assert_eq!(par.lines_scanned, seq.lines_scanned);
            assert_eq!(par.bytes_filtered, seq.bytes_filtered);
            assert_eq!(par.ledger, seq.ledger);
            assert_eq!(par.skipped_pages, seq.skipped_pages);
        }
        assert_eq!(seq.lines.len(), 12);
        assert!(seq.lines[0].contains("alpha event 0"));
    }

    #[test]
    fn fanout_matches_solo_scans_and_dedupes_device_reads() {
        let (ssd, pages) = numbered_pages(10, |i| {
            format!("alpha event {i}\nbeta event {i}\ngamma noise {i}\n")
        });
        let qa = mithrilog_query::parse("alpha").unwrap();
        let qb = mithrilog_query::parse("event AND NOT beta").unwrap();
        let pa = FilterPipeline::compile(&qa).unwrap();
        let pb = FilterPipeline::compile(&qb).unwrap();
        // Overlapping plans: A wants pages [0..8), B wants [4..10), and C
        // planned nothing at all.
        let (plan_a, plan_b) = (&pages[..8], &pages[4..]);
        let (solo_a, _) = solo(&ssd, hardware(&pa, plan_a), 3, None);
        let (solo_b, _) = solo(&ssd, hardware(&pb, plan_b), 3, None);
        for threads in [1, 3, 8] {
            let fan = scan_wave(
                &ssd,
                LzahConfig::default(),
                &[
                    hardware(&pa, plan_a),
                    hardware(&pb, plan_b),
                    hardware(&pa, &[]),
                ],
                threads,
                None,
            );
            assert!(fan.error.is_none());
            for (got, want) in fan.queries.iter().zip([&solo_a, &solo_b]) {
                assert_eq!(got.lines, want.lines, "{threads} threads");
                assert_eq!(got.line_pages, want.line_pages);
                assert_eq!(got.lines_scanned, want.lines_scanned);
                assert_eq!(got.bytes_filtered, want.bytes_filtered);
                assert_eq!(got.skipped_pages, want.skipped_pages);
                // As-if-solo charges match the solo ledger exactly.
                assert_eq!(got.ledger, want.ledger);
            }
            assert!(fan.queries[2].lines.is_empty());
            assert_eq!(fan.queries[2].ledger, CostLedger::default());
            // Physically: 10 distinct pages read once; the 4 overlapping
            // pages each saved one duplicate read.
            assert_eq!(fan.union_pages, 10);
            assert_eq!(fan.device_ledger.pages_read, 10);
            assert_eq!(fan.device_ledger.shared_reads, 4);
            assert_eq!(fan.device_ledger.demanded_reads(), 14);
            // The attribution splits each shared page between its plans.
            let a = &fan.queries[0].attribution;
            assert_eq!((a.exclusive_pages, a.shared_pages), (4, 4));
            assert!((a.attributed_page_cost - 6.0).abs() < 1e-12);
            let b = &fan.queries[1].attribution;
            assert_eq!((b.planned_pages, b.exclusive_pages), (6, 2));
        }
    }

    #[test]
    fn software_engine_agrees_with_hardware_engine() {
        let (ssd, pages) = numbered_pages(6, |i| {
            format!("RAS KERNEL INFO ok {i}\nRAS KERNEL FATAL bad {i}\n")
        });
        let query = mithrilog_query::parse("FATAL").unwrap();
        let pipeline = FilterPipeline::compile(&query).unwrap();
        let software = FanQuery {
            engine: Engine::Software(&query),
            pages: &pages,
            cancel: None,
        };
        let (hw, _) = solo(&ssd, hardware(&pipeline, &pages), 3, None);
        let (sw, _) = solo(&ssd, software, 3, None);
        assert_eq!(hw.lines, sw.lines);
        assert_eq!(hw.lines_scanned, sw.lines_scanned);
    }

    #[test]
    fn engines_agree_on_invalid_utf8_lines() {
        // Lines with invalid UTF-8 bytes around valid tokens: the software
        // engine's borrowed fast path must fall back to the lossy copy and
        // agree with the hardware engine byte-for-byte.
        let mut text = Vec::new();
        text.extend_from_slice(b"RAS KERNEL FATAL broken \xff\xfe sensor\n");
        text.extend_from_slice(b"RAS KERNEL INFO fine \xf0\x28\x8c\x28 reading\n");
        text.extend_from_slice(b"RAS KERNEL FATAL clean line\n");
        let mut ssd = SimSsd::new(MemStore::new(4096), DevicePerfModel::bluedbm_prototype());
        let mut pages = Vec::new();
        for frame in compress_paged(&text, LzahConfig::default(), 4096).pages() {
            pages.push(ssd.append(frame.data()).unwrap());
        }
        let query = mithrilog_query::parse("FATAL").unwrap();
        let pipeline = FilterPipeline::compile(&query).unwrap();
        let software = FanQuery {
            engine: Engine::Software(&query),
            pages: &pages,
            cancel: None,
        };
        let (hw, _) = solo(&ssd, hardware(&pipeline, &pages), 1, None);
        let (sw, _) = solo(&ssd, software, 1, None);
        assert_eq!(hw.lines, sw.lines);
        assert_eq!(hw.lines_scanned, sw.lines_scanned);
        assert_eq!(sw.lines.len(), 2);
        assert!(sw.lines[0].contains('\u{FFFD}'), "lossy replacement kept");
    }

    #[test]
    fn cache_hits_leave_results_and_solo_ledgers_identical() {
        let (ssd, pages) = numbered_pages(8, |i| format!("alpha event {i}\nbeta event {i}\n"));
        let query = mithrilog_query::parse("alpha").unwrap();
        let pipeline = FilterPipeline::compile(&query).unwrap();
        let (cold, _) = solo(&ssd, hardware(&pipeline, &pages), 3, None);

        let cache = PageCache::new(1 << 20);
        let view = lru_view(&cache);
        let (warm_up, physical) = solo(&ssd, hardware(&pipeline, &pages), 3, view);
        assert_eq!(warm_up.lines, cold.lines);
        assert_eq!(warm_up.ledger, cold.ledger, "cold cache: identical run");
        assert_eq!(physical.cache_hits, 0);

        let (warm, physical) = solo(&ssd, hardware(&pipeline, &pages), 3, view);
        assert_eq!(warm.lines, cold.lines);
        assert_eq!(warm.lines_scanned, cold.lines_scanned);
        assert_eq!(warm.bytes_filtered, cold.bytes_filtered);
        // As-if-solo ledger is byte-identical; the physical ledger shows
        // every read served from the cache instead of the device.
        assert_eq!(warm.ledger, cold.ledger);
        assert_eq!(physical.pages_read, 0);
        assert_eq!(physical.cache_hits, pages.len() as u64);
        assert_eq!(physical.cache_bytes_saved, cold.ledger.bytes_read);
        assert_eq!(physical.demanded_reads(), cold.ledger.pages_read);
    }

    #[test]
    fn fanout_cache_hits_preserve_solo_accounting() {
        let (ssd, pages) = numbered_pages(10, |i| format!("alpha event {i}\nbeta event {i}\n"));
        let qa = mithrilog_query::parse("alpha").unwrap();
        let qb = mithrilog_query::parse("beta").unwrap();
        let pa = FilterPipeline::compile(&qa).unwrap();
        let pb = FilterPipeline::compile(&qb).unwrap();
        let lzah = LzahConfig::default();
        let queries = [hardware(&pa, &pages[..8]), hardware(&pb, &pages[4..])];
        let cold = scan_wave(&ssd, lzah, &queries, 3, None);

        let cache = PageCache::new(1 << 20);
        let view = lru_view(&cache);
        let warm_up = scan_wave(&ssd, lzah, &queries, 3, view);
        let warm = scan_wave(&ssd, lzah, &queries, 3, view);
        for run in [&warm_up, &warm] {
            for (got, want) in run.queries.iter().zip(&cold.queries) {
                assert_eq!(got.lines, want.lines);
                assert_eq!(got.ledger, want.ledger, "as-if-solo must not move");
            }
        }
        // Fully warm: zero physical reads, one hit per union page, and the
        // same demanded total (10 union + 4 overlap) as the cold run.
        assert_eq!(warm.device_ledger.pages_read, 0);
        assert_eq!(warm.device_ledger.cache_hits, 10);
        assert_eq!(warm.device_ledger.shared_reads, 4);
        assert_eq!(warm.device_ledger.demanded_reads(), 14);
        assert_eq!(cold.device_ledger.demanded_reads(), 14);
    }

    #[test]
    fn a_flooding_wave_fills_free_room_and_never_evicts() {
        let (ssd, pages) = numbered_pages(24, |i| format!("alpha event {i}\nbeta event {i}\n"));
        let query = mithrilog_query::parse("alpha").unwrap();
        let pipeline = FilterPipeline::compile(&query).unwrap();
        let (cold, _) = solo(&ssd, hardware(&pipeline, &pages), 3, None);
        let text_bytes = cold.bytes_filtered / pages.len() as u64;

        // Room for about one page per cache shard: 24 pages flood it.
        let cache = PageCache::new(8 * (text_bytes + text_bytes / 2));
        let view = Some(CacheView {
            cache: &cache,
            page_bytes: text_bytes,
        });
        // A page the wave does not plan, cached before it, outlives it.
        let resident = pages[0];
        let rest = &pages[1..];
        solo(&ssd, hardware(&pipeline, &[resident]), 1, view);
        assert_eq!(cache.entries(), 1);
        for threads in [1, 3] {
            let entries = cache.entries() as u64;
            let fan = scan_wave(
                &ssd,
                LzahConfig::default(),
                &[hardware(&pipeline, rest)],
                threads,
                view,
            );
            assert!(fan.error.is_none());
            assert_eq!(fan.queries[0].lines, cold.lines[1..]);
            let hits = fan.device_ledger.cache_hits;
            assert_eq!(
                fan.device_ledger.pages_read + hits,
                rest.len() as u64,
                "{threads} threads"
            );
            // Every miss was either cached in free room or declined.
            let filled = cache.entries() as u64 - entries;
            assert_eq!(fan.cache_declined + filled, fan.device_ledger.pages_read);
            assert!(fan.cache_declined > 0, "the wave is bigger than the cache");
            assert!(cache.bytes() <= cache.capacity());
            assert!(cache.get(resident.0).is_some(), "{threads} threads");
        }
        // The repeat found what the first flood cached.
        let again = scan_wave(
            &ssd,
            LzahConfig::default(),
            &[hardware(&pipeline, rest)],
            1,
            view,
        );
        assert_eq!(again.device_ledger.cache_hits, cache.entries() as u64 - 1);
        // A wave that fits the cache inserts LRU and declines nothing.
        let fits = scan_wave(
            &ssd,
            LzahConfig::default(),
            &[hardware(&pipeline, &pages[..4])],
            1,
            view,
        );
        assert_eq!(fits.cache_declined, 0);
    }

    #[test]
    fn pre_cancelled_scan_visits_no_pages() {
        let (ssd, pages) = numbered_pages(6, |i| format!("alpha event {i}\n"));
        let query = mithrilog_query::parse("alpha").unwrap();
        let pipeline = FilterPipeline::compile(&query).unwrap();
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            let cancelled = FanQuery {
                cancel: Some(&token),
                ..hardware(&pipeline, &pages)
            };
            let (out, physical) = solo(&ssd, cancelled, threads, None);
            assert!(out.lines.is_empty(), "{threads} threads");
            assert_eq!(out.pages_filtered, 0);
            assert_eq!(out.ledger, CostLedger::default());
            assert_eq!(physical, CostLedger::default(), "no read was issued");
        }
    }

    #[test]
    fn quarantined_pages_skip_at_zero_cost_even_with_a_warm_cache() {
        let (mut ssd, pages) = numbered_pages(4, |i| format!("alpha event {i}\n"));
        let query = mithrilog_query::parse("alpha").unwrap();
        let pipeline = FilterPipeline::compile(&query).unwrap();

        // Warm the cache with every page, then quarantine one of them.
        let cache = PageCache::new(1 << 20);
        let view = lru_view(&cache);
        solo(&ssd, hardware(&pipeline, &pages), 1, view);
        let victim = pages[1];
        ssd.quarantine_page(victim.0);

        // Cached and uncached runs agree: the quarantined page is skipped
        // with zero charges in both, even though its text is still cached.
        let (cached, _) = solo(&ssd, hardware(&pipeline, &pages), 1, view);
        let (uncached, _) = solo(&ssd, hardware(&pipeline, &pages), 1, None);
        assert_eq!(cached.skipped_pages, vec![victim.0]);
        assert_eq!(cached.lines, uncached.lines);
        assert_eq!(cached.skipped_pages, uncached.skipped_pages);
        assert_eq!(cached.ledger, uncached.ledger, "as-if-solo must agree");
        assert_eq!(uncached.ledger.pages_read, pages.len() as u64 - 1);

        // Two queries sharing every page: the quarantined slot issued no
        // read for anyone, so it is not an avoided read either — demanded
        // reads equal what the two would have charged run one at a time.
        let pair = [hardware(&pipeline, &pages), hardware(&pipeline, &pages)];
        for cache in [None, view] {
            let fan = scan_wave(&ssd, LzahConfig::default(), &pair, 1, cache);
            assert!(fan.error.is_none());
            for got in &fan.queries {
                assert_eq!(got.lines, uncached.lines);
                assert_eq!(got.skipped_pages, uncached.skipped_pages);
                assert_eq!(got.ledger, uncached.ledger);
            }
            assert_eq!(fan.device_ledger.shared_reads, pages.len() as u64 - 1);
            assert_eq!(
                fan.device_ledger.demanded_reads(),
                2 * uncached.ledger.pages_read
            );
        }
    }

    #[test]
    fn cancelled_fanout_query_leaves_live_queries_byte_identical() {
        let (ssd, pages) = numbered_pages(10, |i| format!("alpha event {i}\nbeta event {i}\n"));
        let qa = mithrilog_query::parse("alpha").unwrap();
        let qb = mithrilog_query::parse("beta").unwrap();
        let pa = FilterPipeline::compile(&qa).unwrap();
        let pb = FilterPipeline::compile(&qb).unwrap();
        let (solo_a, _) = solo(&ssd, hardware(&pa, &pages), 3, None);

        // Query B is cancelled before the wave starts; A shares every page.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let fan = scan_wave(
            &ssd,
            LzahConfig::default(),
            &[
                hardware(&pa, &pages),
                FanQuery {
                    cancel: Some(&cancelled),
                    ..hardware(&pb, &pages)
                },
            ],
            3,
            None,
        );
        assert!(fan.error.is_none());
        // The live query is byte-identical to its solo run.
        assert_eq!(fan.queries[0].lines, solo_a.lines);
        assert_eq!(fan.queries[0].ledger, solo_a.ledger);
        // The cancelled query scanned nothing and was charged nothing.
        assert!(fan.queries[1].lines.is_empty());
        assert_eq!(fan.queries[1].ledger, CostLedger::default());
        // No duplicate reads were saved: only one query was live per slot.
        assert_eq!(fan.device_ledger.shared_reads, 0);
        assert_eq!(fan.device_ledger.pages_read, pages.len() as u64);
    }

    #[test]
    fn sharded_compression_tiles_the_input_exactly() {
        let mut text = Vec::new();
        for i in 0..40_000 {
            text.extend_from_slice(
                format!("log line number {i} with some routine text\n").as_bytes(),
            );
        }
        assert!(text.len() > COMPRESS_SHARD_BYTES, "must span shards");
        for threads in [1, 2, 4] {
            let shards = compress_paged_striped(&text, LzahConfig::default(), 4096, threads);
            let mut rebuilt = Vec::new();
            for frame in shards.iter().flat_map(|p| p.pages()) {
                rebuilt.extend_from_slice(&Lzah::default().decompress(frame.data()).unwrap());
            }
            assert_eq!(rebuilt, text, "{threads} threads");
        }
        // Layout is a function of the input, not of the worker count.
        let one = compress_paged_striped(&text, LzahConfig::default(), 4096, 1);
        let four = compress_paged_striped(&text, LzahConfig::default(), 4096, 4);
        let frames = |logs: &[PagedLog]| {
            logs.iter()
                .flat_map(|p| p.pages())
                .map(|f| f.data().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(frames(&one), frames(&four));
    }

    #[test]
    fn small_inputs_compress_identically_to_the_unsharded_path() {
        let text = b"alpha\nbeta\ngamma\n".repeat(50);
        let sharded = compress_paged_striped(&text, LzahConfig::default(), 4096, 4);
        let direct = compress_paged(&text, LzahConfig::default(), 4096);
        assert_eq!(sharded.len(), 1);
        let a: Vec<Vec<u8>> = sharded[0]
            .pages()
            .iter()
            .map(|f| f.data().to_vec())
            .collect();
        let b: Vec<Vec<u8>> = direct.pages().iter().map(|f| f.data().to_vec()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn shard_boundaries_respect_lines() {
        let text = b"0123456789\nabcdefghij\nklmnopqrst\n".repeat(10);
        let shards = shard_at_lines(&text, 40);
        assert!(shards.len() > 1);
        let rebuilt: Vec<u8> = shards.concat();
        assert_eq!(rebuilt, text);
        for shard in &shards {
            assert_eq!(*shard.last().unwrap(), b'\n');
        }
    }
}
