//! Per-segment token bitmaps: the planner's read-free pruning rung.
//!
//! At seal time every segment freezes two compact structures built from the
//! raw (pre-compression) page text:
//!
//! - **Presence bitmaps** — one bit per (token-hash bucket, page): bit set
//!   means *some* token on that page hashes into the bucket. An unset
//!   bucket is a proof of absence, so positive terms prune pages with zero
//!   false negatives (collisions only ever add safe false positives).
//! - **Saturating tokens** — a small list of *exact token bytes* that occur
//!   on **every** non-empty line of a page, with one bit per (token, page).
//!   If a set negates token `t` and `t` saturates a page, no line of that
//!   page can match the set, so the page is skippable. Exact bytes are
//!   load-bearing: a hashed "on every line" bit could collide with a term
//!   that is *absent* from the page and silently drop matching lines. A
//!   byte-equal saturating token can never produce a false negative.
//!
//! A page survives for a query if it survives for *any* intersection set;
//! it survives a set unless a positive term's bucket bit is unset or a
//! negated term byte-equals one of the page's saturating tokens. Both
//! rules are conservative, so pruned plans return byte-identical lines.

use std::ops::Range;

use mithrilog_filter::Bitmap;
use mithrilog_query::Query;
use mithrilog_tokenizer::{DatapathStats, Tokenizer};

use crate::le::{take_bytes, take_u32, take_u64};

/// Saturating tokens kept per page before segment-level selection.
pub(crate) const MAX_SAT_TOKENS_PER_PAGE: usize = 16;
/// Saturating tokens kept per sealed segment (selection: most pages
/// saturated first, then lexicographic — deterministic on every replica).
pub(crate) const MAX_SAT_TOKENS_PER_SEGMENT: usize = 64;
/// Longest token eligible for the saturating list; longer tokens are
/// line-unique payloads, never useful negation targets.
pub(crate) const MAX_SAT_TOKEN_LEN: usize = 64;

const BITMAP_MAGIC: &[u8; 4] = b"MLBM";
const BITMAP_VERSION: u32 = 1;

/// FNV-1a hash of a token: page analysis hashes each occurrence once with
/// it, and its residue picks the token's presence-bitmap bucket.
fn fnv1a(token: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in token {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a bucket of a token for the presence bitmaps.
pub(crate) fn token_bucket(token: &[u8], buckets: usize) -> usize {
    debug_assert!(buckets > 0);
    bucket_of(fnv1a(token), buckets)
}

fn bucket_of(hash: u64, buckets: usize) -> usize {
    (hash % buckets as u64) as usize
}

/// Per-page marks accumulated while a page sits in the open segment:
/// the bucket-presence bitmap plus the page's saturating-token candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PageMarks {
    /// One bit per token-hash bucket: set iff some token on the page
    /// hashes there.
    pub any: Bitmap,
    /// Exact tokens present on every non-empty line of the page, sorted
    /// ascending, capped at [`MAX_SAT_TOKENS_PER_PAGE`].
    pub saturating: Vec<Vec<u8>>,
}

/// Everything ingest, rebuild and mount take from one page's raw text,
/// derived from a single token walk over it.
#[derive(Debug, Clone)]
pub(crate) struct PageFacts {
    /// The page's distinct tokens as byte ranges into its text, sorted by
    /// bytes: the order the index inserts them in, so the node-write
    /// sequence (and with it the device layout) is reproducible.
    distinct: Vec<Range<usize>>,
    /// The page's pruning marks (`None` when bitmaps are disabled).
    pub marks: Option<PageMarks>,
    /// The page's contribution to the throughput model's statistics.
    pub stats: DatapathStats,
}

impl PageFacts {
    /// Walks `text` once, line by line, hashing every token occurrence
    /// once into a table of the page's distinct tokens and feeding the
    /// statistics on the way; the distinct set, the marks and the
    /// saturating tokens then come from the table's entries alone.
    ///
    /// Line iteration mirrors the filter engine exactly: `\n`-separated
    /// segments with empty ones skipped. A token saturates when the count
    /// of lines holding it equals the count of non-empty lines, so a line
    /// with no tokens (all delimiters) still counts as a line and blocks
    /// every saturation — conservative by construction.
    pub(crate) fn of(tokenizer: &Tokenizer, buckets: usize, text: &[u8]) -> PageFacts {
        let mut stats = DatapathStats::new();
        let mut table = TokenTable::for_text(text.len());
        // Non-empty lines seen so far; also the current line's number.
        let mut lines = 0;
        for line in text.split(|b| *b == b'\n').filter(|l| !l.is_empty()) {
            lines += 1;
            let tokens = tokenizer
                .tokens(line)
                .inspect(|tok| table.add(text, tok, lines));
            stats.record_tokens(tokenizer, line, tokens);
        }
        let mut entries = table.entries;
        entries.sort_unstable_by(|a, b| text[a.range.clone()].cmp(&text[b.range.clone()]));
        let marks = (buckets > 0).then(|| {
            let mut any = Bitmap::new(buckets);
            for entry in &entries {
                any.set(bucket_of(entry.hash, buckets));
            }
            let saturating = entries
                .iter()
                .filter(|e| e.lines == lines && e.range.len() <= MAX_SAT_TOKEN_LEN)
                .take(MAX_SAT_TOKENS_PER_PAGE)
                .map(|e| text[e.range.clone()].to_vec())
                .collect();
            PageMarks { any, saturating }
        });
        PageFacts {
            distinct: entries.iter().map(|e| e.range.clone()).collect(),
            marks,
            stats,
        }
    }

    /// The page's distinct tokens in index-insert order; `text` is the page
    /// text the facts were taken from.
    pub(crate) fn distinct<'t>(&'t self, text: &'t [u8]) -> impl Iterator<Item = &'t [u8]> + 't {
        self.distinct.iter().map(move |r| &text[r.clone()])
    }
}

/// One distinct token of a page under analysis.
struct TokenEntry {
    /// Its first occurrence, as a byte range into the page text.
    range: Range<usize>,
    hash: u64,
    /// The last non-empty line (numbered from 1) it was seen on.
    last_line: usize,
    /// How many non-empty lines hold it.
    lines: usize,
}

/// Open-addressed (linear probing) table of a page's distinct tokens,
/// keyed by FNV-1a hash and token bytes. It lives for one page.
struct TokenTable {
    /// Entry index + 1 per slot; 0 marks an empty slot. The length is a
    /// power of two, kept at least twice the entry count.
    slots: Vec<u32>,
    entries: Vec<TokenEntry>,
}

impl TokenTable {
    /// A table sized for a page of `text_len` bytes: log pages hold about
    /// one distinct token per 32–64 bytes, and the table grows past that.
    fn for_text(text_len: usize) -> Self {
        let entries = (text_len / 32).max(16);
        TokenTable {
            slots: vec![0; (2 * entries).next_power_of_two()],
            entries: Vec::with_capacity(entries),
        }
    }

    fn slot_of(hash: u64, mask: usize) -> usize {
        (hash ^ (hash >> 32)) as usize & mask
    }

    /// Records one occurrence of `tok` (a subslice of `text`) on line
    /// number `line`.
    fn add(&mut self, text: &[u8], tok: &[u8], line: usize) {
        let hash = fnv1a(tok);
        let mask = self.slots.len() - 1;
        let mut slot = Self::slot_of(hash, mask);
        while let Some(index) = self.slots[slot].checked_sub(1) {
            let entry = &mut self.entries[index as usize];
            if entry.hash == hash && text[entry.range.clone()] == *tok {
                if entry.last_line != line {
                    entry.last_line = line;
                    entry.lines += 1;
                }
                return;
            }
            slot = (slot + 1) & mask;
        }
        let start = tok.as_ptr() as usize - text.as_ptr() as usize;
        self.entries.push(TokenEntry {
            range: start..start + tok.len(),
            hash,
            last_line: line,
            lines: 1,
        });
        self.slots[slot] = u32::try_from(self.entries.len()).expect("a page holds < 4G tokens");
        if 2 * self.entries.len() > self.slots.len() {
            self.grow();
        }
    }

    /// Doubles the slot array and re-places every entry by its stored hash.
    fn grow(&mut self) {
        self.slots = vec![0; 2 * self.slots.len()];
        let mask = self.slots.len() - 1;
        for (index, entry) in self.entries.iter().enumerate() {
            let mut slot = Self::slot_of(entry.hash, mask);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = index as u32 + 1;
        }
    }
}

/// The frozen pruning structures of one sealed segment, page-transposed so
/// the planner combines them word-wise with the [`Bitmap`] combinators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegmentBitmaps {
    buckets: usize,
    pages: usize,
    /// One bitmap per bucket, one bit per page in segment order.
    token_pages: Vec<Bitmap>,
    /// Selected saturating tokens, sorted ascending for binary search.
    sat_tokens: Vec<Vec<u8>>,
    /// Parallel to `sat_tokens`: one bit per page the token saturates.
    sat_pages: Vec<Bitmap>,
}

impl SegmentBitmaps {
    /// Transposes per-page marks into the segment's frozen form.
    pub(crate) fn build(buckets: usize, marks: &[PageMarks]) -> SegmentBitmaps {
        let pages = marks.len();
        let mut token_pages = vec![Bitmap::new(pages); buckets];
        for (p, m) in marks.iter().enumerate() {
            for (b, bucket_pages) in token_pages.iter_mut().enumerate() {
                if m.any.get(b) {
                    bucket_pages.set(p);
                }
            }
        }
        // Segment-level selection: tokens saturating the most pages win;
        // ties break lexicographically so every replica freezes the same
        // table.
        let mut by_token: std::collections::BTreeMap<&[u8], Vec<usize>> =
            std::collections::BTreeMap::new();
        for (p, m) in marks.iter().enumerate() {
            for tok in &m.saturating {
                by_token.entry(tok.as_slice()).or_default().push(p);
            }
        }
        let mut ranked: Vec<(&[u8], Vec<usize>)> = by_token.into_iter().collect();
        ranked.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(b.0)));
        ranked.truncate(MAX_SAT_TOKENS_PER_SEGMENT);
        ranked.sort_by(|a, b| a.0.cmp(b.0));
        let mut sat_tokens = Vec::with_capacity(ranked.len());
        let mut sat_pages = Vec::with_capacity(ranked.len());
        for (tok, pages_sat) in ranked {
            let mut bm = Bitmap::new(pages);
            for p in pages_sat {
                bm.set(p);
            }
            sat_tokens.push(tok.to_vec());
            sat_pages.push(bm);
        }
        SegmentBitmaps {
            buckets,
            pages,
            token_pages,
            sat_tokens,
            sat_pages,
        }
    }

    /// Pages covered (the segment's page count at seal time).
    pub(crate) fn pages(&self) -> usize {
        self.pages
    }

    /// Bucket count the presence bitmaps were built with.
    pub(crate) fn buckets(&self) -> usize {
        self.buckets
    }

    /// The pages of this segment that may still hold a line matching
    /// `query`: bit `p` unset is a proof that page `p` cannot contribute.
    ///
    /// Per set: intersect the positive terms' presence bitmaps (absence
    /// proof), then remove pages a negated term saturates (byte-equal
    /// presence-on-every-line proof); union across sets.
    pub(crate) fn alive_pages(&self, query: &Query) -> Bitmap {
        let mut union = Bitmap::new(self.pages);
        for set in query.sets() {
            let mut alive = Bitmap::filled(self.pages);
            for term in set.positive_terms() {
                alive.and_with(
                    &self.token_pages[token_bucket(term.token().as_bytes(), self.buckets)],
                );
            }
            for term in set.negative_terms() {
                if let Ok(j) = self
                    .sat_tokens
                    .binary_search_by(|s| s.as_slice().cmp(term.token().as_bytes()))
                {
                    alive.and_not(&self.sat_pages[j]);
                }
            }
            union.or_with(&alive);
        }
        union
    }

    /// Serializes the sidecar blob (magic, version, geometry, bit-packed
    /// bitmaps, exact saturating tokens). The caller CRCs the blob.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(BITMAP_MAGIC);
        out.extend_from_slice(&BITMAP_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.buckets as u64).to_le_bytes());
        out.extend_from_slice(&(self.pages as u64).to_le_bytes());
        for bm in &self.token_pages {
            pack_bits(bm, &mut out);
        }
        out.extend_from_slice(&(self.sat_tokens.len() as u64).to_le_bytes());
        for tok in &self.sat_tokens {
            out.extend_from_slice(&(tok.len() as u64).to_le_bytes());
            out.extend_from_slice(tok);
        }
        for bm in &self.sat_pages {
            pack_bits(bm, &mut out);
        }
        out
    }

    /// Decodes a sidecar blob, rejecting any structural mismatch with
    /// `None` (the caller then plans the segment conservatively).
    pub(crate) fn from_bytes(bytes: &[u8]) -> Option<SegmentBitmaps> {
        let mut rest = bytes;
        if take_bytes(&mut rest, 4)? != BITMAP_MAGIC || take_u32(&mut rest)? != BITMAP_VERSION {
            return None;
        }
        let buckets = take_u64(&mut rest)? as usize;
        let pages = take_u64(&mut rest)? as usize;
        if buckets == 0 || buckets > 1 << 24 || pages > 1 << 32 {
            return None;
        }
        let mut token_pages = Vec::with_capacity(buckets);
        for _ in 0..buckets {
            token_pages.push(unpack_bits(&mut rest, pages)?);
        }
        let sat_count = take_u64(&mut rest)? as usize;
        if sat_count > MAX_SAT_TOKENS_PER_SEGMENT {
            return None;
        }
        let mut sat_tokens = Vec::with_capacity(sat_count);
        for _ in 0..sat_count {
            let len = take_u64(&mut rest)? as usize;
            if len > MAX_SAT_TOKEN_LEN {
                return None;
            }
            sat_tokens.push(take_bytes(&mut rest, len)?.to_vec());
        }
        if sat_tokens.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        let mut sat_pages = Vec::with_capacity(sat_count);
        for _ in 0..sat_count {
            sat_pages.push(unpack_bits(&mut rest, pages)?);
        }
        if !rest.is_empty() {
            return None;
        }
        Some(SegmentBitmaps {
            buckets,
            pages,
            token_pages,
            sat_tokens,
            sat_pages,
        })
    }
}

fn pack_bits(bm: &Bitmap, out: &mut Vec<u8>) {
    let bits = bm.len();
    let mut byte = 0u8;
    for i in 0..bits {
        if bm.get(i) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !bits.is_multiple_of(8) {
        out.push(byte);
    }
}

fn unpack_bits(rest: &mut &[u8], bits: usize) -> Option<Bitmap> {
    let bytes = bits.div_ceil(8);
    if rest.len() < bytes {
        return None;
    }
    let mut bm = Bitmap::new(bits);
    for i in 0..bits {
        if rest[i / 8] & (1 << (i % 8)) != 0 {
            bm.set(i);
        }
    }
    // Reject junk in the pad bits so a truncated-then-padded blob cannot
    // silently decode.
    if !bits.is_multiple_of(8) && rest[bytes - 1] >> (bits % 8) != 0 {
        return None;
    }
    *rest = &rest[bytes..];
    Some(bm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithrilog_query::parse;

    fn tok() -> Tokenizer {
        Tokenizer::default()
    }

    fn page_marks(tokenizer: &Tokenizer, buckets: usize, text: &[u8]) -> PageMarks {
        PageFacts::of(tokenizer, buckets, text).marks.unwrap()
    }

    const PAGES: [&[u8]; 3] = [
        b"RAS KERNEL INFO cache parity\nRAS KERNEL FATAL storage interrupt\n",
        b"RAS APP FATAL ciod error\nRAS APP INFO ciod ok\n",
        b"pbs_mom: job started\npbs_mom: job finished\n",
    ];

    fn marks() -> Vec<PageMarks> {
        PAGES.iter().map(|p| page_marks(&tok(), 256, p)).collect()
    }

    /// The sort-based page analysis the hashed walk replaced, kept as the
    /// oracle: every occurrence's range collected, sorted by bytes and
    /// deduplicated; each line's tokens sorted so the saturating candidates
    /// (the first line's short tokens) are narrowed by binary search.
    fn reference_facts(tokenizer: &Tokenizer, buckets: usize, text: &[u8]) -> PageFacts {
        let mut distinct = Vec::new();
        let mut stats = DatapathStats::new();
        let mut any = (buckets > 0).then(|| Bitmap::new(buckets));
        // `None` until the first non-empty line seeds the candidate set.
        let mut sat: Option<Vec<&[u8]>> = None;
        let mut line_tokens: Vec<&[u8]> = Vec::new();
        for line in text.split(|b| *b == b'\n').filter(|l| !l.is_empty()) {
            line_tokens.clear();
            line_tokens.extend(tokenizer.tokens(line));
            stats.record_tokens(tokenizer, line, line_tokens.iter().copied());
            distinct.extend(line_tokens.iter().map(|t| {
                let start = t.as_ptr() as usize - text.as_ptr() as usize;
                start..start + t.len()
            }));
            let Some(any) = &mut any else {
                continue;
            };
            for tok in &line_tokens {
                any.set(token_bucket(tok, buckets));
            }
            line_tokens.sort_unstable();
            line_tokens.dedup();
            match &mut sat {
                None => {
                    let short = line_tokens.iter().filter(|t| t.len() <= MAX_SAT_TOKEN_LEN);
                    sat = Some(short.copied().collect());
                }
                Some(cands) => cands.retain(|c| line_tokens.binary_search(c).is_ok()),
            }
        }
        distinct.sort_unstable_by(|a, b| text[a.clone()].cmp(&text[b.clone()]));
        distinct.dedup_by(|a, b| text[a.clone()] == text[b.clone()]);
        let sat = sat.unwrap_or_default().into_iter();
        let saturating = sat
            .take(MAX_SAT_TOKENS_PER_PAGE)
            .map(<[u8]>::to_vec)
            .collect();
        let marks = any.map(|any| PageMarks { any, saturating });
        PageFacts {
            distinct,
            marks,
            stats,
        }
    }

    /// What one generated page exercised, for the coverage check.
    #[derive(Default)]
    struct Shapes {
        repeats_in_line: bool,
        empty_line: bool,
        delimiter_line: bool,
        long_token: bool,
        over_sat_cap: bool,
        mid_line: bool,
    }

    /// A random page: lines of tokens drawn from a small vocabulary (so
    /// tokens repeat within and across lines), empty and delimiter-only
    /// lines, tokens longer than [`MAX_SAT_TOKEN_LEN`], sometimes twenty
    /// tokens on every line (more than [`MAX_SAT_TOKENS_PER_PAGE`]
    /// saturate), sometimes cut at a random byte so it starts mid-line.
    fn random_page(rng: &mut proptest::prelude::TestRng, seen: &mut Shapes) -> Vec<u8> {
        const VOCAB: [&str; 8] = ["RAS", "KERNEL", "a", "b", "node-7", "FATAL", "x", "RAS:"];
        const DELIMS: [&str; 5] = [" ", "  ", "\t", " \t ", "\r"];
        let long = "L".repeat(MAX_SAT_TOKEN_LEN + 1 + rng.below(8));
        let common: Vec<String> = (0..20).map(|i| format!("c{i:02}")).collect();
        let everywhere = rng.below(4) == 0;
        let mut page = String::new();
        for _ in 0..rng.below(12) {
            match rng.below(8) {
                0 => seen.empty_line = true,
                1 => {
                    seen.delimiter_line = true;
                    page.push_str(DELIMS[rng.below(DELIMS.len())]);
                }
                _ => {
                    let mut line: Vec<&str> = Vec::new();
                    for _ in 0..1 + rng.below(8) {
                        line.push(if rng.below(10) == 0 {
                            &long
                        } else {
                            VOCAB[rng.below(VOCAB.len())]
                        });
                    }
                    if everywhere {
                        line.extend(common.iter().map(String::as_str));
                    }
                    let mut sorted = line.clone();
                    sorted.sort_unstable();
                    seen.repeats_in_line |= sorted.windows(2).any(|w| w[0] == w[1]);
                    seen.long_token |= line.contains(&long.as_str());
                    for tok in line {
                        page.push_str(tok);
                        page.push_str(DELIMS[rng.below(DELIMS.len())]);
                    }
                }
            }
            if rng.below(6) != 0 {
                page.push('\n');
            }
        }
        let mut page = page.into_bytes();
        if !page.is_empty() && rng.below(3) == 0 {
            seen.mid_line = true;
            page.drain(..rng.below(page.len()));
        }
        page
    }

    #[test]
    fn hashed_walk_equals_the_sort_based_reference() {
        let t = tok();
        let mut rng = proptest::prelude::TestRng::from_name("page_facts");
        let mut seen = Shapes::default();
        for case in 0..2_000 {
            let page = random_page(&mut rng, &mut seen);
            for buckets in [0, 1 + rng.below(300)] {
                let got = PageFacts::of(&t, buckets, &page);
                let want = reference_facts(&t, buckets, &page);
                let text = String::from_utf8_lossy(&page);
                assert!(
                    got.distinct(&page).eq(want.distinct(&page)),
                    "case {case}: distinct differs on {text:?}"
                );
                assert_eq!(got.marks, want.marks, "case {case}: marks on {text:?}");
                assert_eq!(got.stats, want.stats, "case {case}: stats on {text:?}");
                let full = want.marks.as_ref().map(|m| m.saturating.len());
                seen.over_sat_cap |= full == Some(MAX_SAT_TOKENS_PER_PAGE);
            }
        }
        assert!(seen.repeats_in_line && seen.empty_line && seen.delimiter_line);
        assert!(seen.long_token && seen.over_sat_cap && seen.mid_line);
    }

    #[test]
    fn page_facts_equal_one_pass_per_structure() {
        use mithrilog_tokenizer::TokenizerConfig;
        let t = tok();
        let text: &[u8] = b"\nb a b\n  \nc a\n\n".as_slice();
        for page in PAGES.iter().copied().chain([text, b"".as_slice()]) {
            let facts = PageFacts::of(&t, 64, page);
            let sorted: std::collections::BTreeSet<&[u8]> = page
                .split(|b| *b == b'\n')
                .flat_map(|line| t.tokens(line))
                .collect();
            assert!(facts.distinct(page).eq(sorted));
            let stats = DatapathStats::of_text(&TokenizerConfig::default(), page);
            assert_eq!(facts.stats, stats);
        }
        assert!(PageFacts::of(&tok(), 0, PAGES[0]).marks.is_none());
    }

    #[test]
    fn page_marks_track_presence_and_saturation() {
        let m = page_marks(&tok(), 256, PAGES[0]);
        assert!(m.any.get(token_bucket(b"RAS", 256)));
        assert!(m.any.get(token_bucket(b"FATAL", 256)));
        // RAS and KERNEL are on both lines; FATAL only on one.
        assert!(m.saturating.contains(&b"RAS".to_vec()));
        assert!(m.saturating.contains(&b"KERNEL".to_vec()));
        assert!(!m.saturating.contains(&b"FATAL".to_vec()));
        // Sorted ascending, deduped.
        assert!(m.saturating.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_and_blank_lines_do_not_break_saturation() {
        let m = page_marks(&tok(), 64, b"\nRAS a\n\nRAS b\n");
        assert!(m.saturating.contains(&b"RAS".to_vec()));
        // A delimiter-only line has no tokens, so nothing saturates.
        let m = page_marks(&tok(), 64, b"RAS a\n   \nRAS b\n");
        assert!(m.saturating.is_empty());
    }

    #[test]
    fn positive_terms_prune_by_absence() {
        let sb = SegmentBitmaps::build(256, &marks());
        let alive = sb.alive_pages(&parse("KERNEL").unwrap());
        assert!(alive.get(0));
        // Pages 1-2 have no KERNEL token; only a hash collision could keep
        // them alive, and with 256 buckets over these few tokens there is
        // none.
        assert!(!alive.get(1));
        assert!(!alive.get(2));
    }

    #[test]
    fn negated_saturating_token_prunes_pages() {
        let sb = SegmentBitmaps::build(256, &marks());
        // RAS saturates pages 0 and 1, so "NOT RAS" can only match on
        // page 2.
        let alive = sb.alive_pages(&parse("NOT RAS").unwrap());
        assert!(!alive.get(0));
        assert!(!alive.get(1));
        assert!(alive.get(2));
        // FATAL does not saturate any page: nothing is pruned.
        let alive = sb.alive_pages(&parse("NOT FATAL").unwrap());
        assert_eq!(alive.count_ones(), 3);
    }

    #[test]
    fn union_of_sets_unions_alive_pages() {
        let sb = SegmentBitmaps::build(256, &marks());
        let alive = sb.alive_pages(&parse("KERNEL OR NOT RAS").unwrap());
        assert!(alive.get(0));
        assert!(!alive.get(1));
        assert!(alive.get(2));
    }

    #[test]
    fn mixed_set_combines_absence_and_saturation() {
        let sb = SegmentBitmaps::build(256, &marks());
        // "ciod AND NOT RAS": ciod only on page 1, but RAS saturates it.
        let alive = sb.alive_pages(&parse("ciod AND NOT RAS").unwrap());
        assert_eq!(alive.count_ones(), 0);
    }

    #[test]
    fn sidecar_round_trips() {
        let sb = SegmentBitmaps::build(256, &marks());
        let bytes = sb.to_bytes();
        let back = SegmentBitmaps::from_bytes(&bytes).expect("decode");
        assert_eq!(sb, back);
    }

    #[test]
    fn sidecar_rejects_garbage_and_truncation() {
        let sb = SegmentBitmaps::build(64, &marks());
        let bytes = sb.to_bytes();
        assert!(SegmentBitmaps::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(SegmentBitmaps::from_bytes(b"junk").is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(SegmentBitmaps::from_bytes(&trailing).is_none());
        let mut wrong_magic = bytes;
        wrong_magic[0] ^= 0xFF;
        assert!(SegmentBitmaps::from_bytes(&wrong_magic).is_none());
    }

    #[test]
    fn segment_selection_is_deterministic_and_capped() {
        // 80 one-line pages, each saturated by its own token plus a shared
        // one; the shared token must win the cap and survive selection.
        let t = tok();
        let mut ms = Vec::new();
        for i in 0..80 {
            let text = format!("shared tok{i:03}\n");
            ms.push(page_marks(&t, 64, text.as_bytes()));
        }
        let sb = SegmentBitmaps::build(64, &ms);
        assert!(sb.sat_tokens.len() <= MAX_SAT_TOKENS_PER_SEGMENT);
        assert!(sb.sat_tokens.contains(&b"shared".to_vec()));
        let again = SegmentBitmaps::build(64, &ms);
        assert_eq!(sb, again);
        let alive = sb.alive_pages(&parse("NOT shared").unwrap());
        assert_eq!(alive.count_ones(), 0);
    }
}
