use mithrilog_storage::{PageId, PageStore, SimSsd, StorageError};

use crate::node::{NodeAddr, NodePool};
use crate::params::IndexParams;
use crate::wire::{get_u64, get_usize, put_u64};

/// One in-memory hash table entry (paper Figure 11): a small buffer of
/// data-page addresses plus the head of the in-storage linked list of trees.
#[derive(Debug, Clone, Default)]
struct MemEntry {
    /// Pending data-page addresses (≤ `buffer_entries`).
    buffer: Vec<u64>,
    /// Leaf nodes awaiting a root (≤ `node_entries`).
    pending_leaves: Vec<NodeAddr>,
    /// Head of the linked list of root nodes (newest first).
    head: Option<NodeAddr>,
    /// Total pages ever pushed — the two-choice insertion counter.
    total_pages: u64,
    /// Most recent page pushed, for consecutive-duplicate suppression.
    last_page: Option<u64>,
}

/// A timestamped flush event enabling coarse time-range queries (§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Timestamp supplied by the caller (e.g. seconds since epoch).
    pub timestamp: u64,
    /// All data pages with id below this watermark were ingested before the
    /// snapshot.
    pub watermark: u64,
}

/// The in-storage inverted index. See the [crate documentation](crate) for
/// the structure.
#[derive(Debug)]
pub struct InvertedIndex {
    params: IndexParams,
    entries: Vec<MemEntry>,
    leaf_pool: NodePool,
    root_pool: NodePool,
    snapshots: Vec<Snapshot>,
    leaf_pages_at_last_snapshot: u64,
    tokens_indexed: u64,
    /// Parallel to `entries`: written since the last checkpoint or delta
    /// was taken ([`InvertedIndex::take_checkpoint`],
    /// [`InvertedIndex::take_delta`]).
    dirty: Vec<bool>,
}

const PAGE_BYTES_DEFAULT: usize = 4096;

/// True when an entry is indistinguishable from its default state and can
/// be omitted from a checkpoint.
fn entry_is_empty(e: &MemEntry) -> bool {
    e.buffer.is_empty()
        && e.pending_leaves.is_empty()
        && e.head.is_none()
        && e.total_pages == 0
        && e.last_page.is_none()
}

fn hash_token(token: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in token {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 31;
    h.wrapping_mul(0x94D0_49BB_1331_11EB)
}

impl InvertedIndex {
    /// Creates an empty index with `params`, assuming 4 KB device pages.
    pub fn new(params: IndexParams) -> Self {
        Self::with_page_bytes(params, PAGE_BYTES_DEFAULT)
    }

    /// Creates an empty index for a device with `page_bytes` pages.
    pub fn with_page_bytes(params: IndexParams, page_bytes: usize) -> Self {
        let leaf_bytes = params.node_entries * 8;
        let root_bytes = 16 + params.node_entries * 8;
        InvertedIndex {
            entries: vec![MemEntry::default(); params.entries()],
            leaf_pool: NodePool::new(leaf_bytes, page_bytes),
            root_pool: NodePool::new(root_bytes, page_bytes),
            snapshots: Vec::new(),
            leaf_pages_at_last_snapshot: 0,
            tokens_indexed: 0,
            dirty: vec![false; params.entries()],
            params,
        }
    }

    /// An empty index with the same parameters and page size that keeps
    /// this index's snapshot list: what a rescan of the data pages starts
    /// from. Snapshot watermarks are data-page ids, which a rescan does
    /// not change, so time-range queries keep their windows.
    pub fn emptied_keeping_snapshots(&self) -> Self {
        InvertedIndex {
            snapshots: self.snapshots.clone(),
            ..Self::with_page_bytes(self.params, self.leaf_pool.page_bytes())
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &IndexParams {
        &self.params
    }

    /// Tokens indexed so far (insertion events, after per-page dedup).
    pub fn tokens_indexed(&self) -> u64 {
        self.tokens_indexed
    }

    /// Snapshots taken so far, oldest first.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Approximate in-memory footprint in bytes — the metric the paper
    /// keeps near 256 MB at scale.
    pub fn memory_footprint(&self) -> usize {
        let per_entry = self.params.buffer_entries * 8
            + self.params.node_entries * 8
            + 8  // head
            + 8  // total_pages
            + 8; // last_page
        self.entries.len() * per_entry
    }

    fn candidate_entries(&self, token: &[u8]) -> (usize, usize) {
        let mask = (self.entries.len() - 1) as u64;
        let a = (hash_token(token, 0xCBF2_9CE4_8422_2325) & mask) as usize;
        let b = (hash_token(token, 0x9AE1_6A3B_2F90_404F) & mask) as usize;
        (a, b)
    }

    /// Indexes the distinct tokens of one data page.
    ///
    /// Each token goes to whichever of its two candidate entries holds
    /// fewer total pages (§6.2). Consecutive duplicates of the same page in
    /// one entry are suppressed.
    ///
    /// # Errors
    ///
    /// Propagates device errors from leaf/root flushes.
    pub fn insert_page_tokens<'a, S, I>(
        &mut self,
        ssd: &mut SimSsd<S>,
        page: PageId,
        tokens: I,
    ) -> Result<(), StorageError>
    where
        S: PageStore,
        I: IntoIterator<Item = &'a [u8]>,
    {
        for token in tokens {
            let (a, b) = self.candidate_entries(token);
            let target = if self.entries[b].total_pages < self.entries[a].total_pages {
                b
            } else {
                a
            };
            self.insert_into_entry(ssd, target, page.0)?;
            self.tokens_indexed += 1;
        }
        Ok(())
    }

    fn insert_into_entry<S: PageStore>(
        &mut self,
        ssd: &mut SimSsd<S>,
        idx: usize,
        page: u64,
    ) -> Result<(), StorageError> {
        let entry = &mut self.entries[idx];
        if entry.last_page == Some(page) {
            return Ok(());
        }
        entry.buffer.push(page);
        entry.last_page = Some(page);
        entry.total_pages += 1;
        self.dirty[idx] = true;
        if entry.buffer.len() >= self.params.buffer_entries {
            self.flush_buffer(ssd, idx)?;
        }
        Ok(())
    }

    /// Writes the entry's buffer out as a leaf node; gathers a root when
    /// enough leaves accumulated.
    fn flush_buffer<S: PageStore>(
        &mut self,
        ssd: &mut SimSsd<S>,
        idx: usize,
    ) -> Result<(), StorageError> {
        let n = self.params.node_entries;
        let buffer = std::mem::take(&mut self.entries[idx].buffer);
        if buffer.is_empty() {
            return Ok(());
        }
        let mut node = vec![0u8; n * 8];
        for (i, slot) in node.chunks_mut(8).enumerate() {
            let v = buffer.get(i).copied().unwrap_or(u64::MAX);
            slot.copy_from_slice(&v.to_le_bytes());
        }
        let leaf = self.leaf_pool.alloc(ssd, &node)?;
        self.entries[idx].pending_leaves.push(leaf);
        self.dirty[idx] = true;
        if self.entries[idx].pending_leaves.len() >= n {
            self.gather_root(ssd, idx)?;
        }
        Ok(())
    }

    /// Prepends a root node over the entry's pending leaves.
    fn gather_root<S: PageStore>(
        &mut self,
        ssd: &mut SimSsd<S>,
        idx: usize,
    ) -> Result<(), StorageError> {
        let n = self.params.node_entries;
        let leaves = std::mem::take(&mut self.entries[idx].pending_leaves);
        if leaves.is_empty() {
            return Ok(());
        }
        let mut node = vec![0u8; 16 + n * 8];
        node[..8].copy_from_slice(&NodeAddr::raw_or_none(self.entries[idx].head).to_le_bytes());
        node[8..16].copy_from_slice(&(leaves.len() as u64).to_le_bytes());
        for (i, slot) in node[16..].chunks_mut(8).enumerate() {
            let v = leaves.get(i).map_or(u64::MAX, |a| a.to_raw());
            slot.copy_from_slice(&v.to_le_bytes());
        }
        let root = self.root_pool.alloc(ssd, &node)?;
        self.entries[idx].head = Some(root);
        self.dirty[idx] = true;
        Ok(())
    }

    /// Estimated number of data pages listed for `token`, from the
    /// in-memory two-choice counters alone (no storage access). An upper
    /// bound on the token's own list (entries are shared), available for
    /// cost-based planning before paying any chain latency.
    pub fn estimated_pages(&self, token: &[u8]) -> u64 {
        let (a, b) = self.candidate_entries(token);
        self.entries[a].total_pages.min(self.entries[b].total_pages)
    }

    /// Index pages a full lookup of `token` would read: one dependent root
    /// visit per tree plus one leaf-node read per buffer flush, across both
    /// candidate entries (the probe reads both, §6.2).
    pub fn estimated_lookup_reads(&self, token: &[u8]) -> (u64, u64) {
        let (a, b) = self.candidate_entries(token);
        let mut roots = 0u64;
        let mut leaves = 0u64;
        for idx in if a == b { vec![a] } else { vec![a, b] } {
            let per_leaf = self.params.buffer_entries.max(1) as u64;
            let per_root = per_leaf * self.params.node_entries.max(1) as u64;
            let total = self.entries[idx].total_pages;
            leaves += total / per_leaf;
            roots += total / per_root;
        }
        (roots, leaves)
    }

    /// Returns every data page that *may* contain `token`, in chronological
    /// (ascending page id) order, deduplicated.
    ///
    /// The list is a superset: entries are shared between tokens, so the
    /// downstream filter engine discards the false positives (§6.2).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn lookup<S: PageStore>(
        &self,
        ssd: &mut SimSsd<S>,
        token: &[u8],
    ) -> Result<Vec<PageId>, StorageError> {
        let (a, b) = self.candidate_entries(token);
        let mut pages = self.collect_entry(ssd, a)?;
        if b != a {
            pages.extend(self.collect_entry(ssd, b)?);
        }
        pages.sort_unstable();
        pages.dedup();
        Ok(pages.into_iter().map(PageId).collect())
    }

    fn collect_entry<S: PageStore>(
        &self,
        ssd: &mut SimSsd<S>,
        idx: usize,
    ) -> Result<Vec<u64>, StorageError> {
        let entry = &self.entries[idx];
        let mut pages: Vec<u64> = entry.buffer.clone();
        for leaf in &entry.pending_leaves {
            pages.extend(self.read_leaf(ssd, *leaf)?);
        }
        // Walk the root chain: each hop is a dependent (latency-exposed)
        // read, each root's leaves are an independent parallel batch.
        let mut cur = entry.head;
        while let Some(root) = cur {
            let node = self.root_pool.read_dependent(ssd, root)?;
            let next = u64::from_le_bytes(node[..8].try_into().expect("8 bytes"));
            let count = u64::from_le_bytes(node[8..16].try_into().expect("8 bytes")) as usize;
            for i in 0..count.min(self.params.node_entries) {
                let raw =
                    u64::from_le_bytes(node[16 + i * 8..24 + i * 8].try_into().expect("8 bytes"));
                if let Some(leaf) = NodeAddr::from_raw(raw) {
                    pages.extend(self.read_leaf(ssd, leaf)?);
                }
            }
            cur = NodeAddr::from_raw(next);
        }
        Ok(pages)
    }

    /// The two candidate entry indices for `token` (batch planner hook).
    pub(crate) fn candidate_entries_for(&self, token: &[u8]) -> (usize, usize) {
        self.candidate_entries(token)
    }

    /// Walks one entry physically (batch planner hook): buffer, pending
    /// leaves, then the root chain — identical to the solo lookup path.
    pub(crate) fn collect_entry_walk<S: PageStore>(
        &self,
        ssd: &mut SimSsd<S>,
        idx: usize,
    ) -> Result<Vec<u64>, StorageError> {
        self.collect_entry(ssd, idx)
    }

    fn read_leaf<S: PageStore>(
        &self,
        ssd: &mut SimSsd<S>,
        leaf: NodeAddr,
    ) -> Result<Vec<u64>, StorageError> {
        let node = self.leaf_pool.read(ssd, leaf)?;
        Ok(node
            .chunks(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .filter(|&v| v != u64::MAX)
            .collect())
    }

    /// Whether enough leaf pages accumulated since the last snapshot that
    /// the caller should take one (§6.3).
    pub fn should_snapshot(&self) -> bool {
        self.leaf_pool.pages_allocated() - self.leaf_pages_at_last_snapshot
            >= self.params.snapshot_leaf_pages
    }

    /// Flushes the whole in-memory table to storage and records a
    /// timestamped watermark for time-range queries.
    ///
    /// `watermark` is the current data-page frontier (typically
    /// `ssd.page_count()` before the snapshot's own index writes).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn snapshot<S: PageStore>(
        &mut self,
        ssd: &mut SimSsd<S>,
        timestamp: u64,
        watermark: PageId,
    ) -> Result<(), StorageError> {
        for idx in 0..self.entries.len() {
            if !self.entries[idx].buffer.is_empty() {
                self.flush_buffer(ssd, idx)?;
            }
            if !self.entries[idx].pending_leaves.is_empty() {
                self.gather_root(ssd, idx)?;
            }
        }
        self.snapshots.push(Snapshot {
            timestamp,
            watermark: watermark.0,
        });
        self.leaf_pages_at_last_snapshot = self.leaf_pool.pages_allocated();
        Ok(())
    }

    /// Seals both node pools: each writes its buffered, part-filled page
    /// once, and no future allocation rewrites a page below the current
    /// device frontier. Called at the start of a durability commit, before
    /// serializing the checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn seal_storage<S: PageStore>(&mut self, ssd: &mut SimSsd<S>) -> Result<(), StorageError> {
        self.leaf_pool.seal(ssd)?;
        self.root_pool.seal(ssd)
    }

    /// Serializes the complete in-memory index state (hash-table entries,
    /// node pools, snapshots, counters) into a checkpoint blob.
    ///
    /// Call [`InvertedIndex::seal_storage`] first: the blob captures pool
    /// cursors, and a restored unsealed pool would rewrite committed pages
    /// in place. Restore with [`InvertedIndex::restore_checkpoint`].
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        // Only non-default entries are stored; at realistic scales the vast
        // majority of the hash table is untouched.
        self.encode(|idx| !entry_is_empty(&self.entries[idx]))
    }

    /// [`InvertedIndex::checkpoint_bytes`], clearing the dirty set: the
    /// base a chain of [`InvertedIndex::take_delta`] blobs builds on.
    pub fn take_checkpoint(&mut self) -> Vec<u8> {
        let blob = self.checkpoint_bytes();
        self.dirty.fill(false);
        blob
    }

    /// Serializes the header (parameters, counters, snapshots, node pools)
    /// and only the entries written since the last checkpoint or delta was
    /// taken, in the checkpoint's per-entry encoding, and clears the dirty
    /// set. [`InvertedIndex::apply_delta`] replays it onto the index the
    /// previous blob restores. Call [`InvertedIndex::seal_storage`] first.
    pub fn take_delta(&mut self) -> Vec<u8> {
        let blob = self.encode(|idx| self.dirty[idx]);
        self.dirty.fill(false);
        blob
    }

    /// Whether a delta taken now would list fewer than half the entries a
    /// full checkpoint lists. A larger delta saves little over the full
    /// checkpoint yet still adds a link to the chain a mount reads.
    pub fn delta_is_small(&self) -> bool {
        let (mut live, mut dirty) = (0usize, 0usize);
        for (e, &written) in self.entries.iter().zip(&self.dirty) {
            live += usize::from(!entry_is_empty(e));
            dirty += usize::from(written);
        }
        dirty * 2 < live
    }

    /// The one blob layout checkpoints and deltas share: the header, then
    /// every entry `listed` selects, ascending by index.
    fn encode(&self, listed: impl Fn(usize) -> bool) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::from(self.params.hash_bits));
        put_u64(&mut buf, self.params.buffer_entries as u64);
        put_u64(&mut buf, self.params.node_entries as u64);
        put_u64(&mut buf, self.params.snapshot_leaf_pages);
        put_u64(&mut buf, self.params.probe_budget as u64);
        put_u64(&mut buf, self.tokens_indexed);
        put_u64(&mut buf, self.leaf_pages_at_last_snapshot);
        put_u64(&mut buf, self.snapshots.len() as u64);
        for s in &self.snapshots {
            put_u64(&mut buf, s.timestamp);
            put_u64(&mut buf, s.watermark);
        }
        self.leaf_pool.encode_into(&mut buf);
        self.root_pool.encode_into(&mut buf);
        let listed: Vec<usize> = (0..self.entries.len()).filter(|&idx| listed(idx)).collect();
        put_u64(&mut buf, listed.len() as u64);
        for idx in listed {
            let e = &self.entries[idx];
            put_u64(&mut buf, idx as u64);
            put_u64(&mut buf, NodeAddr::raw_or_none(e.head));
            put_u64(&mut buf, e.total_pages);
            put_u64(&mut buf, e.last_page.unwrap_or(u64::MAX));
            put_u64(&mut buf, e.buffer.len() as u64);
            for &p in &e.buffer {
                put_u64(&mut buf, p);
            }
            put_u64(&mut buf, e.pending_leaves.len() as u64);
            for &l in &e.pending_leaves {
                put_u64(&mut buf, l.to_raw());
            }
        }
        buf
    }

    /// Rebuilds an index from a checkpoint blob written by
    /// [`InvertedIndex::checkpoint_bytes`].
    ///
    /// Returns `None` when the blob is malformed or was written under
    /// different parameters or page size — the caller falls back to a full
    /// reindex from the data pages.
    pub fn restore_checkpoint(
        params: IndexParams,
        page_bytes: usize,
        bytes: &[u8],
    ) -> Option<Self> {
        Self::with_page_bytes(params, page_bytes).apply_delta(bytes)
    }

    /// Applies a blob written by [`InvertedIndex::take_delta`] (or a whole
    /// checkpoint): the header replaces this index's counters, snapshots
    /// and node pools, and each listed entry is overwritten; every other
    /// entry is left as it is. Leaves the dirty set alone.
    ///
    /// Returns `None` when the blob is malformed or was written under
    /// different parameters or page size.
    pub fn apply_delta(mut self, bytes: &[u8]) -> Option<Self> {
        let cur = &mut &bytes[..];
        let echo = [
            get_u64(cur)?,
            get_u64(cur)?,
            get_u64(cur)?,
            get_u64(cur)?,
            get_u64(cur)?,
        ];
        let params = self.params;
        let want = [
            u64::from(params.hash_bits),
            params.buffer_entries as u64,
            params.node_entries as u64,
            params.snapshot_leaf_pages,
            params.probe_budget as u64,
        ];
        if echo != want {
            return None;
        }
        let tokens_indexed = get_u64(cur)?;
        let leaf_pages_at_last_snapshot = get_u64(cur)?;
        let snapshot_count = get_usize(cur)?;
        let mut snapshots = Vec::new();
        for _ in 0..snapshot_count {
            snapshots.push(Snapshot {
                timestamp: get_u64(cur)?,
                watermark: get_u64(cur)?,
            });
        }
        let leaf_pool = NodePool::decode_from(cur)?;
        let root_pool = NodePool::decode_from(cur)?;
        let page_bytes = self.leaf_pool.page_bytes();
        if leaf_pool.node_bytes() != params.node_entries * 8
            || root_pool.node_bytes() != 16 + params.node_entries * 8
            || leaf_pool.page_bytes() != page_bytes
            || root_pool.page_bytes() != page_bytes
        {
            return None;
        }
        let listed = get_usize(cur)?;
        let mut prev_idx = None;
        for _ in 0..listed {
            let idx = get_usize(cur)?;
            if idx >= self.entries.len() || prev_idx.is_some_and(|p| idx <= p) {
                return None;
            }
            prev_idx = Some(idx);
            let mut entry = MemEntry {
                head: NodeAddr::from_raw(get_u64(cur)?),
                total_pages: get_u64(cur)?,
                last_page: match get_u64(cur)? {
                    u64::MAX => None,
                    p => Some(p),
                },
                ..MemEntry::default()
            };
            let buffer_len = get_usize(cur)?;
            if buffer_len > params.buffer_entries {
                return None;
            }
            for _ in 0..buffer_len {
                entry.buffer.push(get_u64(cur)?);
            }
            let pending_len = get_usize(cur)?;
            if pending_len > params.node_entries {
                return None;
            }
            for _ in 0..pending_len {
                entry
                    .pending_leaves
                    .push(NodeAddr::from_raw(get_u64(cur)?)?);
            }
            self.entries[idx] = entry;
        }
        if !cur.is_empty() {
            return None;
        }
        self.tokens_indexed = tokens_indexed;
        self.leaf_pages_at_last_snapshot = leaf_pages_at_last_snapshot;
        self.snapshots = snapshots;
        self.leaf_pool = leaf_pool;
        self.root_pool = root_pool;
        Some(self)
    }

    /// Returns the page-id window `[lo, hi)` that may contain data from the
    /// time interval `[t1, t2]`, based on snapshot watermarks. `None` bounds
    /// mean "unbounded on that side".
    pub fn time_slice(&self, t1: u64, t2: u64) -> (Option<PageId>, Option<PageId>) {
        let lo = self
            .snapshots
            .iter()
            .rev()
            .find(|s| s.timestamp <= t1)
            .map(|s| PageId(s.watermark));
        let hi = self
            .snapshots
            .iter()
            .find(|s| s.timestamp >= t2)
            .map(|s| PageId(s.watermark));
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithrilog_storage::{DevicePerfModel, MemStore};

    fn ssd() -> SimSsd<MemStore> {
        SimSsd::new(MemStore::new(4096), DevicePerfModel::default())
    }

    fn small_index() -> InvertedIndex {
        InvertedIndex::new(IndexParams::small())
    }

    #[test]
    fn single_insert_lookup() {
        let mut ssd = ssd();
        let mut idx = small_index();
        idx.insert_page_tokens(&mut ssd, PageId(42), [b"FATAL".as_slice()])
            .unwrap();
        assert_eq!(idx.lookup(&mut ssd, b"FATAL").unwrap(), vec![PageId(42)]);
        assert_eq!(idx.tokens_indexed(), 1);
    }

    #[test]
    fn absent_token_may_return_empty() {
        let mut ssd = ssd();
        let mut idx = small_index();
        idx.insert_page_tokens(&mut ssd, PageId(1), [b"present".as_slice()])
            .unwrap();
        // A token whose entries were never touched returns nothing.
        // (Collisions could make this non-empty; with one insertion and 256
        // entries the probability is ~1/128, and the hash is deterministic,
        // so this specific pair is stable.)
        assert!(
            idx.lookup(&mut ssd, b"definitely-absent-token")
                .unwrap()
                .len()
                <= 1
        );
    }

    #[test]
    fn lookup_is_a_superset_under_collisions() {
        // Many tokens, few entries: collisions guaranteed. Every page that
        // contained the token must be returned (no false negatives).
        let mut ssd = ssd();
        let mut idx = small_index();
        for p in 0..200u64 {
            let t1 = format!("tok-{}", p % 50);
            let t2 = format!("other-{}", p % 31);
            idx.insert_page_tokens(&mut ssd, PageId(p), [t1.as_bytes(), t2.as_bytes()])
                .unwrap();
        }
        for t in 0..50u64 {
            let token = format!("tok-{t}");
            let got = idx.lookup(&mut ssd, token.as_bytes()).unwrap();
            for p in 0..200u64 {
                if p % 50 == t {
                    assert!(got.contains(&PageId(p)), "page {p} lost for token {token}");
                }
            }
        }
    }

    #[test]
    fn results_are_sorted_and_deduped() {
        let mut ssd = ssd();
        let mut idx = small_index();
        for p in (0..100u64).rev() {
            idx.insert_page_tokens(&mut ssd, PageId(p), [b"x".as_slice()])
                .unwrap();
        }
        let got = idx.lookup(&mut ssd, b"x").unwrap();
        let mut sorted = got.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(got, sorted);
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn consecutive_duplicate_pages_are_suppressed() {
        let mut ssd = ssd();
        let mut idx = small_index();
        // Same page indexed twice in a row for the same token.
        idx.insert_page_tokens(&mut ssd, PageId(5), [b"dup".as_slice()])
            .unwrap();
        idx.insert_page_tokens(&mut ssd, PageId(5), [b"dup".as_slice()])
            .unwrap();
        assert_eq!(idx.lookup(&mut ssd, b"dup").unwrap(), vec![PageId(5)]);
    }

    #[test]
    fn buffer_overflow_spills_to_leaves_and_roots() {
        let mut ssd = ssd();
        let mut idx = small_index(); // buffer 4, node 4 → root after 16 pages
        for p in 0..100u64 {
            idx.insert_page_tokens(&mut ssd, PageId(p), [b"hot".as_slice()])
                .unwrap();
        }
        let got = idx.lookup(&mut ssd, b"hot").unwrap();
        assert_eq!(got.len(), 100, "all pages must survive spilling");
        assert_eq!(got[0], PageId(0));
        assert_eq!(got[99], PageId(99));
        // Ledger must show dependent root-chain visits.
        assert!(ssd.ledger().dependent_visits > 0);
    }

    #[test]
    fn two_choice_insertion_balances_hot_entries() {
        let mut ssd = ssd();
        let mut idx = small_index();
        // One very hot token: its two candidate entries should share load
        // roughly evenly thanks to the lesser-loaded choice rule.
        for p in 0..400u64 {
            idx.insert_page_tokens(&mut ssd, PageId(p), [b"hot".as_slice()])
                .unwrap();
        }
        let (a, b) = idx.candidate_entries(b"hot");
        assert_ne!(a, b, "test token must have distinct candidates");
        let ta = idx.entries[a].total_pages;
        let tb = idx.entries[b].total_pages;
        assert!(ta > 0 && tb > 0, "both entries used: {ta} vs {tb}");
        let ratio = ta.max(tb) as f64 / ta.min(tb) as f64;
        assert!(ratio < 1.5, "imbalance {ta} vs {tb}");
    }

    #[test]
    fn snapshot_flushes_and_preserves_lookups() {
        let mut ssd = ssd();
        let mut idx = small_index();
        for p in 0..10u64 {
            idx.insert_page_tokens(&mut ssd, PageId(p), [b"t".as_slice()])
                .unwrap();
        }
        idx.snapshot(&mut ssd, 1000, PageId(10)).unwrap();
        // Buffers now empty but lookups unchanged.
        let got = idx.lookup(&mut ssd, b"t").unwrap();
        assert_eq!(got.len(), 10);
        // More inserts after the snapshot still work.
        for p in 10..20u64 {
            idx.insert_page_tokens(&mut ssd, PageId(p), [b"t".as_slice()])
                .unwrap();
        }
        assert_eq!(idx.lookup(&mut ssd, b"t").unwrap().len(), 20);
        assert_eq!(idx.snapshots().len(), 1);
    }

    #[test]
    fn time_slice_brackets_with_watermarks() {
        let mut ssd = ssd();
        let mut idx = small_index();
        idx.snapshot(&mut ssd, 100, PageId(10)).unwrap();
        idx.snapshot(&mut ssd, 200, PageId(25)).unwrap();
        idx.snapshot(&mut ssd, 300, PageId(60)).unwrap();
        let (lo, hi) = idx.time_slice(150, 250);
        assert_eq!(lo, Some(PageId(10)));
        assert_eq!(hi, Some(PageId(60)));
        let (lo, hi) = idx.time_slice(50, 99);
        assert_eq!(lo, None);
        assert_eq!(hi, Some(PageId(10)));
        let (lo, hi) = idx.time_slice(301, 400);
        assert_eq!(lo, Some(PageId(60)));
        assert_eq!(hi, None);
    }

    #[test]
    fn memory_footprint_scales_with_entries() {
        let small = InvertedIndex::new(IndexParams::small()).memory_footprint();
        let default = InvertedIndex::new(IndexParams::default()).memory_footprint();
        assert!(default > small * 100);
        // Paper-scale footprint lands in the hundreds of MB as published.
        let paper = IndexParams::paper_scale();
        let approx = paper.entries() * (paper.buffer_entries * 8 + paper.node_entries * 8 + 24);
        assert!(approx > 200_000_000 && approx < 400_000_000, "{approx}");
    }

    #[test]
    fn checkpoint_round_trips_and_preserves_lookups() {
        let mut ssd = ssd();
        let mut idx = small_index();
        for p in 0..120u64 {
            let tok = format!("tok-{}", p % 13);
            idx.insert_page_tokens(&mut ssd, PageId(p), [tok.as_bytes(), b"hot".as_slice()])
                .unwrap();
        }
        idx.snapshot(&mut ssd, 500, PageId(60)).unwrap();
        for p in 120..150u64 {
            idx.insert_page_tokens(&mut ssd, PageId(p), [b"hot".as_slice()])
                .unwrap();
        }
        idx.seal_storage(&mut ssd).unwrap();
        let blob = idx.checkpoint_bytes();
        let restored =
            InvertedIndex::restore_checkpoint(*idx.params(), 4096, &blob).expect("valid blob");
        assert_eq!(restored.tokens_indexed(), idx.tokens_indexed());
        assert_eq!(restored.snapshots(), idx.snapshots());
        for t in 0..13u64 {
            let token = format!("tok-{t}");
            assert_eq!(
                restored.lookup(&mut ssd, token.as_bytes()).unwrap(),
                idx.lookup(&mut ssd, token.as_bytes()).unwrap(),
                "lookup diverged for {token}"
            );
        }
        assert_eq!(
            restored.lookup(&mut ssd, b"hot").unwrap(),
            idx.lookup(&mut ssd, b"hot").unwrap()
        );
    }

    #[test]
    fn restored_index_keeps_ingesting_without_touching_old_pages() {
        let mut ssd = ssd();
        let mut idx = small_index();
        for p in 0..40u64 {
            idx.insert_page_tokens(&mut ssd, PageId(p), [b"t".as_slice()])
                .unwrap();
        }
        idx.seal_storage(&mut ssd).unwrap();
        let blob = idx.checkpoint_bytes();
        let frontier = ssd.page_count();
        let before: Vec<Vec<u8>> = (0..frontier)
            .map(|p| ssd.read(PageId(p)).unwrap().to_vec())
            .collect();
        let mut restored =
            InvertedIndex::restore_checkpoint(*idx.params(), 4096, &blob).expect("valid blob");
        for p in 40..120u64 {
            restored
                .insert_page_tokens(&mut ssd, PageId(p), [b"t".as_slice()])
                .unwrap();
        }
        assert_eq!(restored.lookup(&mut ssd, b"t").unwrap().len(), 120);
        for (p, old) in before.iter().enumerate() {
            assert_eq!(
                &ssd.read(PageId(p as u64)).unwrap(),
                old,
                "sealed page {p} was rewritten after restore"
            );
        }
    }

    #[test]
    fn restore_rejects_mismatched_params_or_garbage() {
        let mut ssd = ssd();
        let mut idx = small_index();
        for p in 0..20u64 {
            idx.insert_page_tokens(&mut ssd, PageId(p), [b"t".as_slice()])
                .unwrap();
        }
        idx.seal_storage(&mut ssd).unwrap();
        let blob = idx.checkpoint_bytes();
        assert!(InvertedIndex::restore_checkpoint(*idx.params(), 4096, &blob).is_some());
        // Different parameters must force the reindex fallback.
        let other = IndexParams {
            probe_budget: idx.params().probe_budget + 1,
            ..*idx.params()
        };
        assert!(InvertedIndex::restore_checkpoint(other, 4096, &blob).is_none());
        // Different page size: pool cursors would be meaningless.
        assert!(InvertedIndex::restore_checkpoint(*idx.params(), 8192, &blob).is_none());
        // Truncation and trailing garbage are both rejected.
        assert!(
            InvertedIndex::restore_checkpoint(*idx.params(), 4096, &blob[..blob.len() - 3])
                .is_none()
        );
        let mut long = blob.clone();
        long.push(0);
        assert!(InvertedIndex::restore_checkpoint(*idx.params(), 4096, &long).is_none());
    }

    #[test]
    fn a_full_checkpoint_plus_deltas_restores_the_live_index_exactly() {
        let mut ssd = ssd();
        let mut idx = small_index();
        for p in 0..60u64 {
            let tok = format!("tok-{}", p % 17);
            idx.insert_page_tokens(&mut ssd, PageId(p), [tok.as_bytes(), b"hot".as_slice()])
                .unwrap();
        }
        idx.seal_storage(&mut ssd).unwrap();
        let full = idx.take_checkpoint();
        let mut deltas = Vec::new();
        for round in 0..3u64 {
            for p in 60 + round * 20..80 + round * 20 {
                let tok = format!("late-{}", p % (3 + round));
                idx.insert_page_tokens(&mut ssd, PageId(p), [tok.as_bytes()])
                    .unwrap();
            }
            if round == 1 {
                let watermark = PageId(ssd.page_count());
                idx.snapshot(&mut ssd, 900, watermark).unwrap();
            }
            idx.seal_storage(&mut ssd).unwrap();
            deltas.push(idx.take_delta());
        }
        let mut restored =
            InvertedIndex::restore_checkpoint(*idx.params(), 4096, &full).expect("valid blob");
        for delta in &deltas {
            restored = restored.apply_delta(delta).expect("valid delta");
        }
        assert_eq!(restored.checkpoint_bytes(), idx.checkpoint_bytes());
        assert_eq!(restored.snapshots(), idx.snapshots());
        // A snapshot that only gathers leaves an earlier delta already
        // carried still writes those entries' heads.
        for p in 200..216u64 {
            idx.insert_page_tokens(&mut ssd, PageId(p), [b"solo".as_slice()])
                .unwrap();
        }
        idx.seal_storage(&mut ssd).unwrap();
        deltas.push(idx.take_delta());
        let watermark = PageId(ssd.page_count());
        idx.snapshot(&mut ssd, 950, watermark).unwrap();
        idx.seal_storage(&mut ssd).unwrap();
        deltas.push(idx.take_delta());
        let mut restored =
            InvertedIndex::restore_checkpoint(*idx.params(), 4096, &full).expect("valid blob");
        for delta in &deltas {
            restored = restored.apply_delta(delta).expect("valid delta");
        }
        assert_eq!(restored.checkpoint_bytes(), idx.checkpoint_bytes());
        // A delta carries only what changed: with nothing written since the
        // last blob it is the header alone, smaller than any full blob.
        idx.seal_storage(&mut ssd).unwrap();
        let empty = idx.take_delta();
        assert!(empty.len() < deltas[0].len() && deltas[0].len() < full.len());
        assert_eq!(
            restored
                .apply_delta(&empty)
                .expect("header-only delta")
                .checkpoint_bytes(),
            idx.checkpoint_bytes()
        );
    }

    #[test]
    fn apply_delta_rejects_garbage_and_foreign_params() {
        let mut ssd = ssd();
        let mut idx = small_index();
        idx.insert_page_tokens(&mut ssd, PageId(1), [b"t".as_slice()])
            .unwrap();
        idx.seal_storage(&mut ssd).unwrap();
        let delta = idx.take_delta();
        let base = || small_index();
        assert!(base().apply_delta(&delta).is_some());
        assert!(base().apply_delta(&delta[..delta.len() - 1]).is_none());
        let mut long = delta.clone();
        long.push(0);
        assert!(base().apply_delta(&long).is_none());
        let other = InvertedIndex::new(IndexParams {
            probe_budget: 9,
            ..IndexParams::small()
        });
        assert!(other.apply_delta(&delta).is_none());
    }

    #[test]
    fn emptied_index_keeps_only_the_snapshot_list() {
        let mut ssd = ssd();
        let mut idx = small_index();
        idx.insert_page_tokens(&mut ssd, PageId(3), [b"t".as_slice()])
            .unwrap();
        idx.snapshot(&mut ssd, 100, PageId(4)).unwrap();
        let fresh = idx.emptied_keeping_snapshots();
        assert_eq!(fresh.snapshots(), idx.snapshots());
        assert_eq!(fresh.tokens_indexed(), 0);
        assert!(fresh.lookup(&mut ssd, b"t").unwrap().is_empty());
    }

    #[test]
    fn should_snapshot_triggers_on_leaf_page_growth() {
        let mut ssd = ssd();
        let mut idx = InvertedIndex::new(IndexParams {
            snapshot_leaf_pages: 1,
            ..IndexParams::small()
        });
        assert!(!idx.should_snapshot());
        // Enough inserts on one token to force a leaf page allocation.
        for p in 0..8u64 {
            idx.insert_page_tokens(&mut ssd, PageId(p), [b"t".as_slice()])
                .unwrap();
        }
        assert!(idx.should_snapshot());
        idx.snapshot(&mut ssd, 1, PageId(8)).unwrap();
        assert!(!idx.should_snapshot());
    }
}
