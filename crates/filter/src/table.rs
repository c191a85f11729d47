use crate::error::QueryCompileError;
use crate::hash::TokenHasher;

/// Maximum cuckoo evictions before declaring a placement loop.
///
/// Hash-table theory puts the expected eviction chain length at O(1) below
/// 0.5 load; 128 kicks is far beyond any non-looping chain on a 256-row
/// table.
const MAX_KICKS: usize = 128;

/// One row of the cuckoo hash table (paper Figure 5).
///
/// Stores the first datapath word of the token inline, an optional offset
/// into the overflow table for longer tokens, and one `(valid, negative)`
/// flag pair per intersection set, packed as two bitmasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntry {
    /// First `word_bytes` of the token, zero padded.
    prefix: Vec<u8>,
    /// Total token length in bytes.
    total_len: usize,
    /// Offset of the first overflow word, if `total_len > word_bytes`.
    overflow: Option<usize>,
    /// Bit `i` set ⇒ this token participates in intersection set `i`.
    valid_mask: u64,
    /// Bit `i` set ⇒ the token is negated (`¬`) in intersection set `i`.
    negative_mask: u64,
    /// Prefix-tree extension (paper §4.3): if set, the token only counts
    /// when it appears at exactly this zero-based column of the line.
    column: Option<u32>,
}

impl TableEntry {
    /// The inline token prefix (zero padded to the datapath width).
    pub fn prefix(&self) -> &[u8] {
        &self.prefix
    }

    /// Full token length in bytes.
    pub fn total_len(&self) -> usize {
        self.total_len
    }

    /// Offset into the overflow table, if the token spills.
    pub fn overflow_offset(&self) -> Option<usize> {
        self.overflow
    }

    /// Per-set participation mask.
    pub fn valid_mask(&self) -> u64 {
        self.valid_mask
    }

    /// Per-set negation mask (subset of [`TableEntry::valid_mask`]).
    pub fn negative_mask(&self) -> u64 {
        self.negative_mask
    }

    /// Expected column for prefix-tree templates (`None` = any column).
    pub fn column(&self) -> Option<u32> {
        self.column
    }
}

/// One word of the overflow table, flagged if it terminates its token.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OverflowWord {
    bytes: Vec<u8>,
    len: usize,
    last: bool,
}

/// A slot of the table: empty or holding an entry.
pub type Slot = Option<TableEntry>;

/// The cuckoo hash table encoding one or more queries (paper §4.2.2).
///
/// # Example
///
/// ```
/// use mithrilog_filter::CuckooTable;
///
/// let mut t = CuckooTable::new(256, 16);
/// t.insert(b"FATAL", 0, false)?;
/// t.insert(b"recovered", 0, true)?;
/// let hit = t.lookup(b"FATAL").expect("present");
/// assert_eq!(hit.1.valid_mask(), 0b1);
/// assert_eq!(hit.1.negative_mask(), 0b0);
/// assert!(t.lookup(b"absent").is_none());
/// # Ok::<(), mithrilog_filter::QueryCompileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CuckooTable {
    slots: Vec<Slot>,
    overflow: Vec<OverflowWord>,
    hasher: TokenHasher,
    word_bytes: usize,
    occupied: usize,
    /// Reject masks over the stored tokens, tested before any hashing:
    /// entry `b` has bit [`len_bit`]`(n)` set iff some stored token starts
    /// with byte `b` and is `n` bytes long. Nearly every token of a log page
    /// is not a query term, and nearly all of those fail this one load.
    first_byte_lens: [u64; 256],
}

/// Bit of a token length in a reject mask; lengths of 63 and up share the
/// top bit, so the mask saturates instead of wrapping.
#[inline]
fn len_bit(len: usize) -> u64 {
    1 << len.min(63)
}

impl CuckooTable {
    /// Creates an empty table with `rows` slots and `word_bytes` wide words.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `word_bytes` is zero.
    pub fn new(rows: usize, word_bytes: usize) -> Self {
        assert!(word_bytes > 0, "word width must be positive");
        CuckooTable {
            slots: vec![None; rows],
            overflow: Vec::new(),
            hasher: TokenHasher::new(rows),
            word_bytes,
            occupied: 0,
            first_byte_lens: [0; 256],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied rows.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Load factor (occupied / rows).
    pub fn load(&self) -> f64 {
        self.occupied as f64 / self.slots.len() as f64
    }

    /// Number of words in the overflow table.
    pub fn overflow_words(&self) -> usize {
        self.overflow.len()
    }

    /// Datapath word width in bytes.
    pub fn word_bytes(&self) -> usize {
        self.word_bytes
    }

    /// The hasher used for placement and lookup.
    pub fn hasher(&self) -> &TokenHasher {
        &self.hasher
    }

    /// Returns the slot contents of `row` (for the engine's bitmap logic).
    pub fn slot(&self, row: usize) -> &Slot {
        &self.slots[row]
    }

    fn entry_matches(&self, entry: &TableEntry, token: &[u8]) -> bool {
        if entry.total_len != token.len() {
            return false;
        }
        let head = token.len().min(self.word_bytes);
        if entry.prefix[..head] != token[..head] {
            return false;
        }
        // The remainder must match the overflow chain word by word.
        if let Some(mut off) = entry.overflow {
            let mut pos = self.word_bytes;
            loop {
                let w = &self.overflow[off];
                if token[pos..pos + w.len] != w.bytes[..w.len] {
                    return false;
                }
                pos += w.len;
                if w.last {
                    break;
                }
                off += 1;
            }
            debug_assert_eq!(pos, token.len());
        }
        true
    }

    /// Reconstructs the full token bytes of an entry (needed when an entry
    /// is evicted and must be re-hashed to its alternate row).
    fn entry_token(&self, entry: &TableEntry) -> Vec<u8> {
        let mut out = entry.prefix[..entry.total_len.min(self.word_bytes)].to_vec();
        if let Some(mut off) = entry.overflow {
            loop {
                let w = &self.overflow[off];
                out.extend_from_slice(&w.bytes[..w.len]);
                if w.last {
                    break;
                }
                off += 1;
            }
        }
        out
    }

    /// The full token stored in `row`, if the row is occupied.
    pub(crate) fn token(&self, row: usize) -> Option<Vec<u8>> {
        self.slots[row]
            .as_ref()
            .map(|entry| self.entry_token(entry))
    }

    /// Looks up a token, returning its row and entry if present.
    #[inline]
    pub fn lookup(&self, token: &[u8]) -> Option<(usize, &TableEntry)> {
        let first = *token.first()?;
        if self.first_byte_lens[usize::from(first)] & len_bit(token.len()) == 0 {
            return None;
        }
        self.probe(token)
    }

    /// The two-candidate cuckoo probe behind [`CuckooTable::lookup`].
    fn probe(&self, token: &[u8]) -> Option<(usize, &TableEntry)> {
        for row in self.hasher.candidates(token) {
            if let Some(entry) = &self.slots[row] {
                if self.entry_matches(entry, token) {
                    return Some((row, entry));
                }
            }
        }
        None
    }

    fn build_entry(&mut self, token: &[u8]) -> TableEntry {
        let mut prefix = vec![0u8; self.word_bytes];
        let head = token.len().min(self.word_bytes);
        prefix[..head].copy_from_slice(&token[..head]);
        let overflow = if token.len() > self.word_bytes {
            let start = self.overflow.len();
            let chunks: Vec<&[u8]> = token[self.word_bytes..].chunks(self.word_bytes).collect();
            let n = chunks.len();
            for (i, chunk) in chunks.into_iter().enumerate() {
                let mut bytes = vec![0u8; self.word_bytes];
                bytes[..chunk.len()].copy_from_slice(chunk);
                self.overflow.push(OverflowWord {
                    bytes,
                    len: chunk.len(),
                    last: i == n - 1,
                });
            }
            Some(start)
        } else {
            None
        };
        TableEntry {
            prefix,
            total_len: token.len(),
            overflow,
            valid_mask: 0,
            negative_mask: 0,
            column: None,
        }
    }

    /// Inserts a token with its flags for one intersection set, merging with
    /// an existing entry for the same token if present.
    ///
    /// # Errors
    ///
    /// Returns [`QueryCompileError::PlacementFailed`] if cuckoo eviction
    /// loops — the query must then fall back to software evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `set >= 64` (mask width) or `token` is empty.
    pub fn insert(
        &mut self,
        token: &[u8],
        set: usize,
        negated: bool,
    ) -> Result<(), QueryCompileError> {
        self.insert_full(token, set, negated, None)
    }

    /// Like [`CuckooTable::insert`] but with an optional expected column —
    /// the prefix-tree template extension (§4.3). A token can only carry
    /// one column constraint per table; conflicting constraints are a
    /// compile error (fall back to software).
    ///
    /// # Errors
    ///
    /// [`QueryCompileError::PlacementFailed`] on a cuckoo loop;
    /// [`QueryCompileError::ColumnConflict`] if the token already has a
    /// different column constraint.
    ///
    /// # Panics
    ///
    /// Panics if `set >= 64` or `token` is empty.
    pub fn insert_full(
        &mut self,
        token: &[u8],
        set: usize,
        negated: bool,
        column: Option<u32>,
    ) -> Result<(), QueryCompileError> {
        assert!(!token.is_empty(), "cannot insert an empty token");
        assert!(set < 64, "set index {set} exceeds the 64-set mask width");
        // Merge into an existing entry if the token is already placed.
        if let Some((row, _)) = self.lookup(token) {
            let entry = self.slots[row].as_mut().expect("hit row is occupied");
            if entry.column != column {
                return Err(QueryCompileError::ColumnConflict {
                    token: String::from_utf8_lossy(token).into_owned(),
                });
            }
            entry.valid_mask |= 1 << set;
            if negated {
                entry.negative_mask |= 1 << set;
            }
            entry.column = column;
            return Ok(());
        }

        let mut entry = self.build_entry(token);
        self.first_byte_lens[usize::from(token[0])] |= len_bit(token.len());
        entry.valid_mask = 1 << set;
        entry.column = column;
        if negated {
            entry.negative_mask = 1 << set;
        }

        // Standard cuckoo insertion with bounded eviction chain.
        let mut row = self.hasher.h1(token);
        if self.slots[row].is_some() {
            let alt = self.hasher.h2(token);
            if self.slots[alt].is_none() {
                row = alt;
            }
        }
        let mut carried = entry;
        for _ in 0..MAX_KICKS {
            match self.slots[row].take() {
                None => {
                    self.slots[row] = Some(carried);
                    self.occupied += 1;
                    return Ok(());
                }
                Some(victim) => {
                    self.slots[row] = Some(carried);
                    let victim_token = self.entry_token(&victim);
                    row = self.hasher.alternate(&victim_token, row);
                    carried = victim;
                }
            }
        }
        Err(QueryCompileError::PlacementFailed {
            token: String::from_utf8_lossy(&self.entry_token(&carried)).into_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_lookup_short_token() {
        let mut t = CuckooTable::new(256, 16);
        t.insert(b"KERNEL", 0, false).unwrap();
        let (row, e) = t.lookup(b"KERNEL").unwrap();
        assert!(row < 256);
        assert_eq!(e.total_len(), 6);
        assert_eq!(e.valid_mask(), 1);
        assert_eq!(e.negative_mask(), 0);
        assert_eq!(t.occupied(), 1);
        assert_eq!(t.overflow_words(), 0);
    }

    #[test]
    fn lookup_misses_absent_and_prefix_confusable() {
        let mut t = CuckooTable::new(256, 16);
        t.insert(b"KERNEL", 0, false).unwrap();
        assert!(t.lookup(b"KERNELS").is_none());
        assert!(t.lookup(b"KERNE").is_none());
        assert!(t.lookup(b"other").is_none());
    }

    #[test]
    fn long_token_uses_overflow_table() {
        let mut t = CuckooTable::new(256, 16);
        let long = b"a-very-long-token-spanning-multiple-datapath-words";
        assert!(long.len() > 32);
        t.insert(long, 2, true).unwrap();
        assert!(t.overflow_words() >= 2);
        let (_, e) = t.lookup(long).unwrap();
        assert_eq!(e.total_len(), long.len());
        assert!(e.overflow_offset().is_some());
        assert_eq!(e.valid_mask(), 0b100);
        assert_eq!(e.negative_mask(), 0b100);
    }

    #[test]
    fn long_tokens_differing_only_in_tail_are_distinct() {
        let mut t = CuckooTable::new(256, 16);
        let a = b"prefix-shared-0123456789-tail-AAAA";
        let b = b"prefix-shared-0123456789-tail-BBBB";
        t.insert(a, 0, false).unwrap();
        t.insert(b, 1, false).unwrap();
        assert_eq!(t.lookup(a).unwrap().1.valid_mask(), 0b01);
        assert_eq!(t.lookup(b).unwrap().1.valid_mask(), 0b10);
    }

    #[test]
    fn same_token_in_multiple_sets_merges_flags() {
        let mut t = CuckooTable::new(256, 16);
        t.insert(b"RAS", 0, false).unwrap();
        t.insert(b"RAS", 3, true).unwrap();
        let (_, e) = t.lookup(b"RAS").unwrap();
        assert_eq!(e.valid_mask(), 0b1001);
        assert_eq!(e.negative_mask(), 0b1000);
        assert_eq!(t.occupied(), 1, "merge must not allocate a second row");
    }

    #[test]
    fn half_load_placement_succeeds() {
        // Cuckoo hashing succeeds with high probability at load ≤ 0.5; the
        // prototype over-provisions for exactly this reason.
        let mut t = CuckooTable::new(256, 16);
        for i in 0..128 {
            t.insert(
                format!("token-number-{i}").as_bytes(),
                (i % 8) as usize,
                i % 3 == 0,
            )
            .unwrap();
        }
        assert_eq!(t.occupied(), 128);
        assert!((t.load() - 0.5).abs() < 1e-9);
        for i in 0..128 {
            assert!(t.lookup(format!("token-number-{i}").as_bytes()).is_some());
        }
    }

    #[test]
    fn tiny_table_eventually_fails_placement() {
        let mut t = CuckooTable::new(4, 16);
        let mut failed = false;
        for i in 0..16 {
            if t.insert(format!("x{i}").as_bytes(), 0, false).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "16 inserts into 4 rows must fail placement");
    }

    #[test]
    fn eviction_preserves_all_entries() {
        // Fill to a level where evictions certainly occur, then verify every
        // token is still findable (eviction must relocate, not lose).
        let mut t = CuckooTable::new(64, 16);
        let mut inserted = Vec::new();
        for i in 0..30 {
            let tok = format!("evict-test-{i}");
            t.insert(tok.as_bytes(), 0, false).unwrap();
            inserted.push(tok);
        }
        for tok in &inserted {
            assert!(t.lookup(tok.as_bytes()).is_some(), "lost {tok}");
        }
    }

    #[test]
    fn eviction_relocates_overflow_tokens_correctly() {
        let mut t = CuckooTable::new(32, 8);
        let mut inserted = Vec::new();
        for i in 0..14 {
            let tok = format!("long-overflowing-token-{i:04}");
            t.insert(tok.as_bytes(), 0, false).unwrap();
            inserted.push(tok);
        }
        for tok in &inserted {
            let (_, e) = t.lookup(tok.as_bytes()).expect("present after evictions");
            assert_eq!(e.total_len(), tok.len());
        }
    }

    #[test]
    fn reject_masks_saturate_at_long_tokens() {
        let mut t = CuckooTable::new(64, 16);
        let long = "L".repeat(70);
        t.insert(long.as_bytes(), 0, false).unwrap();
        assert!(t.lookup(long.as_bytes()).is_some());
        // Same first byte, another length under the shared top bit: passes
        // the mask, fails the compare.
        assert!(t.lookup("L".repeat(64).as_bytes()).is_none());
        assert!(t.lookup("L".repeat(62).as_bytes()).is_none());
        assert!(t.lookup(b"").is_none());
    }

    proptest::proptest! {
        #[test]
        fn lookup_equals_the_plain_two_candidate_probe(
            stored in proptest::collection::hash_set("[a-d]{1,40}", 1..32),
            absent in proptest::collection::vec("[a-e]{1,40}", 1..40),
            rows in 56usize..70,
        ) {
            // Up to half load on a small table, so placement evicts; a
            // placement that loops loses its victim and proves nothing.
            let mut t = CuckooTable::new(rows, 8);
            let placed = stored.iter().enumerate().all(|(i, tok)| {
                t.insert_full(tok.as_bytes(), i % 8, i % 3 == 0, None).is_ok()
            });
            for tok in stored.iter().chain(&absent).filter(|_| placed) {
                let masked = t.lookup(tok.as_bytes());
                assert_eq!(masked, t.probe(tok.as_bytes()), "token {tok:?}");
                assert_eq!(masked.is_some(), stored.contains(tok), "token {tok:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty token")]
    fn empty_token_panics() {
        CuckooTable::new(16, 16).insert(b"", 0, false).unwrap();
    }

    #[test]
    #[should_panic(expected = "mask width")]
    fn set_out_of_mask_panics() {
        CuckooTable::new(16, 16).insert(b"a", 64, false).unwrap();
    }
}
