//! Property: the fused page walk of [`FilterPipeline`] is the reference
//! composition `HashFilter::evaluate_line(tokenizer.tokens(line))` over
//! `text.split(b'\n')`, and both are the set semantics of the query.
//!
//! Three evaluators see every generated page:
//!
//! * the **kernel** — `filter_text_with_stats_into`, `tag_text`,
//!   `filter_text` and `matches_line`, all one byte walk;
//! * the **reference** — the line loop the kernel replaced, kept here
//!   verbatim: split on `\n`, tokenise with `Tokenizer::tokens`, evaluate
//!   with `HashFilter::evaluate_line`;
//! * the **oracle** — no table, no hash, no bitmap: tokens split on the
//!   configured delimiter list, terms looked up by comparing bytes. The
//!   kernel and the reference share the probe, so only the oracle can tell
//!   when the probe itself is wrong (a skipped overflow compare, a lost
//!   poison flag).
//!
//! The cases are drawn from the vendored proptest's `TestRng` directly: the
//! text depends on the query's terms (near misses are built from them), and
//! the test asserts at the end that the generators reached every shape the
//! kernel has a branch for.

use std::ops::Range;

use mithrilog_query::{IntersectionSet, Query, Term};
use mithrilog_tokenizer::{Tokenizer, TokenizerConfig};
use proptest::prelude::TestRng;

use super::{FilterPipeline, FilterStats};
use crate::{CompiledQuery, FilterParams, HashFilter, PositionalQuery, PositionalTerm};

/// One query term as the oracle sees it.
#[derive(Debug, Clone)]
struct OracleTerm {
    token: String,
    column: Option<u32>,
    negated: bool,
}

/// First set every term of which holds on `tokens`; no hashing involved.
fn oracle(sets: &[Vec<OracleTerm>], tokens: &[&[u8]]) -> Option<usize> {
    sets.iter().position(|set| {
        set.iter().all(|t| {
            let present = match t.column {
                Some(c) => tokens.get(c as usize) == Some(&t.token.as_bytes()),
                None => tokens.contains(&t.token.as_bytes()),
            };
            present != t.negated
        })
    })
}

/// What the line loop the kernel replaced reports for `text`.
struct Reference {
    kept: Vec<Range<usize>>,
    stats: FilterStats,
    /// `(line range, matched set)` of every non-empty line.
    tags: Vec<(Range<usize>, Option<usize>)>,
}

fn reference(pipeline: &FilterPipeline, text: &[u8]) -> Reference {
    let mut filter = HashFilter::new(&pipeline.compiled);
    let mut out = Reference {
        kept: Vec::new(),
        stats: FilterStats::default(),
        tags: Vec::new(),
    };
    let mut offset = 0usize;
    for line in text.split(|b| *b == b'\n') {
        let range = offset..offset + line.len();
        offset += line.len() + 1;
        if line.is_empty() {
            continue;
        }
        out.stats.lines_in += 1;
        out.stats.bytes_in += line.len() as u64 + 1;
        let verdict = filter.evaluate_line(pipeline.tokenizer.tokens(line));
        assert_eq!(verdict.keep, verdict.matched_set.is_some());
        if verdict.keep {
            out.stats.lines_kept += 1;
            out.kept.push(range.clone());
        }
        out.tags.push((range, verdict.matched_set));
    }
    out
}

/// Which shapes a case contained; summed over all cases and asserted on.
#[derive(Debug, Default)]
struct Seen {
    cases: usize,
    kept_by_terms: usize,
    kept_untouched: usize,
    dropped_by_negative: usize,
    dropped_by_column: usize,
    dropped_by_tail: usize,
    empty_lines: usize,
    crlf: usize,
    unterminated_last_line: usize,
    non_utf8_tokens: usize,
    hits_by_len: [usize; 5],
    zero_set_queries: usize,
    positional: usize,
    odd_rows: usize,
    nul_delimiter: usize,
    newline_not_a_delimiter: usize,
}

/// Token lengths the table treats differently at 16-byte words: one byte,
/// just inside / exactly / just over one word, over two words, and past the
/// saturating length mask.
const LENGTHS: [usize; 11] = [1, 1, 2, 5, 15, 16, 17, 33, 64, 70, 100];

fn length_class(len: usize) -> usize {
    match len {
        0..=15 => 0,
        16 => 1,
        17..=32 => 2,
        33..=62 => 3,
        _ => 4,
    }
}

fn letters(rng: &mut TestRng, len: usize) -> String {
    (0..len)
        .map(|_| char::from(b"abcd"[rng.below(4)]))
        .collect()
}

fn chance(rng: &mut TestRng, percent: usize) -> bool {
    rng.below(100) < percent
}

/// A token that is not `term` but passes the table's reject masks whenever
/// it can: same first byte, same length (or another length under the
/// saturated top bit).
fn near_miss(rng: &mut TestRng, term: &str) -> Vec<u8> {
    let mut bytes = term.as_bytes().to_vec();
    if bytes.len() > 1 && chance(rng, 75) {
        // One byte changed, often in the overflow tail.
        let at = if chance(rng, 50) {
            bytes.len() - 1 - rng.below(bytes.len().min(4) - 1)
        } else {
            1 + rng.below(bytes.len() - 1)
        };
        bytes[at] = if bytes[at] == b'z' { b'y' } else { b'z' };
    } else if chance(rng, 50) || bytes.len() == 1 {
        bytes.push(b'x');
    } else {
        bytes.pop();
    }
    bytes
}

fn junk(rng: &mut TestRng, delimiters: &[u8]) -> Vec<u8> {
    let len = 1 + rng.below(20);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let b = rng.next_u64() as u8;
        if b != b'\n' && !delimiters.contains(&b) {
            out.push(b);
        }
    }
    out
}

struct Case {
    tokenizer: TokenizerConfig,
    params: FilterParams,
    /// The query for the oracle: contradictory sets already dropped where
    /// the compiler drops them, so set indices line up.
    sets: Vec<Vec<OracleTerm>>,
    compiled: Option<CompiledQuery>,
    text: Vec<u8>,
}

fn case(rng: &mut TestRng, seen: &mut Seen) -> Case {
    let mut delimiters = vec![b' ', b'\t', b'\r'];
    if chance(rng, 70) {
        delimiters.push(b'\n');
    } else {
        seen.newline_not_a_delimiter += 1;
    }
    if chance(rng, 30) {
        delimiters.push(0);
        seen.nul_delimiter += 1;
    }
    let word_bytes = [16, 16, 8][rng.below(3)];
    let rows = [256, 256, 64, 100, 37][rng.below(5)];
    if !usize::is_power_of_two(rows) {
        seen.odd_rows += 1;
    }
    let tokenizer = TokenizerConfig {
        delimiters,
        ..TokenizerConfig::with_word_bytes(word_bytes)
    };
    let params = FilterParams {
        rows,
        word_bytes,
        ..FilterParams::default()
    };

    // The terms: distinct tokens over a four-letter alphabet (so first bytes
    // and lengths collide), one of them not ASCII.
    let mut pool: Vec<String> = Vec::new();
    for _ in 0..2 + rng.below(6) {
        let len = if chance(rng, 70) {
            LENGTHS[rng.below(LENGTHS.len())]
        } else {
            1 + rng.below(12)
        };
        let term = letters(rng, len);
        if !pool.contains(&term) {
            pool.push(term);
        }
    }
    if chance(rng, 20) {
        pool.push("dé-naïve".to_string());
    }

    let positional = chance(rng, 50);
    let columns: Vec<Option<u32>> = pool
        .iter()
        .map(|_| (positional && chance(rng, 50)).then(|| rng.below(4) as u32))
        .collect();
    let zero_sets = !positional && chance(rng, 5);
    let mut sets: Vec<Vec<OracleTerm>> = Vec::new();
    for _ in 0..1 + rng.below(4) {
        let all_negative = chance(rng, 20);
        let mut set: Vec<OracleTerm> = (0..1 + rng.below(4))
            .map(|_| {
                let i = rng.below(pool.len());
                OracleTerm {
                    token: pool[i].clone(),
                    column: columns[i],
                    negated: all_negative || chance(rng, 30),
                }
            })
            .collect();
        if zero_sets || chance(rng, 5) {
            // `x AND NOT x`: can never hold.
            let mut twin = set[0].clone();
            twin.negated = !twin.negated;
            set.push(twin);
        }
        sets.push(set);
    }

    let compiled = if positional {
        seen.positional += 1;
        let query = PositionalQuery::new(
            sets.iter()
                .map(|set| {
                    set.iter()
                        .map(|t| match (t.negated, t.column) {
                            (true, column) => PositionalTerm::negative(&t.token, column),
                            (false, Some(c)) => PositionalTerm::at(&t.token, c),
                            (false, None) => PositionalTerm::anywhere(&t.token),
                        })
                        .collect()
                })
                .collect(),
        )
        .expect("sets are non-empty");
        CompiledQuery::compile_positional(&query, params)
    } else {
        let query = Query::try_new(
            sets.iter()
                .map(|set| {
                    set.iter()
                        .map(|t| Term::new(&t.token, t.negated))
                        .collect::<IntersectionSet>()
                })
                .collect(),
        )
        .expect("sets are non-empty");
        // The compiler drops contradictory sets; the oracle must number the
        // survivors the same way.
        sets = sets
            .into_iter()
            .zip(query.sets())
            .filter(|(_, compiled_from)| !compiled_from.is_contradictory())
            .map(|(set, _)| set)
            .collect();
        if sets.is_empty() {
            seen.zero_set_queries += 1;
        }
        CompiledQuery::compile(&query, params)
    };

    // The page: terms, near misses and junk between delimiter runs.
    let gaps: Vec<u8> = tokenizer
        .delimiters
        .iter()
        .copied()
        .filter(|&d| d != b'\n')
        .collect();
    let mut text = Vec::new();
    let lines = rng.below(13);
    for n in 0..lines {
        let gap = |rng: &mut TestRng, text: &mut Vec<u8>, at_least: usize| {
            for _ in 0..at_least + rng.below(3) {
                text.push(gaps[rng.below(gaps.len())]);
            }
        };
        if chance(rng, 15) {
            gap(rng, &mut text, 0);
        }
        for t in 0..rng.below(9) {
            if t > 0 {
                gap(rng, &mut text, 1);
            }
            let term = &pool[rng.below(pool.len())];
            match rng.below(100) {
                0..=39 => text.extend_from_slice(term.as_bytes()),
                40..=69 => text.extend(near_miss(rng, term)),
                70..=89 => {
                    let token = junk(rng, &tokenizer.delimiters);
                    if std::str::from_utf8(&token).is_err() {
                        seen.non_utf8_tokens += 1;
                    }
                    text.extend(token);
                }
                _ => {
                    let len = 1 + rng.below(3);
                    text.extend(letters(rng, len).into_bytes());
                }
            }
        }
        if chance(rng, 15) {
            gap(rng, &mut text, 0);
        }
        if n + 1 == lines && chance(rng, 50) {
            seen.unterminated_last_line += usize::from(text.last() != Some(&b'\n'));
            break;
        }
        match rng.below(100) {
            0..=69 => text.push(b'\n'),
            70..=84 => {
                text.extend_from_slice(b"\r\n");
                seen.crlf += 1;
            }
            _ => {
                text.extend_from_slice(b"\n\n");
                seen.empty_lines += 1;
            }
        }
    }
    Case {
        tokenizer,
        params,
        sets,
        compiled: compiled.ok(),
        text,
    }
}

/// Runs all three evaluators over one case and compares them.
fn check(case: Case, seen: &mut Seen) {
    let Some(compiled) = case.compiled else {
        return; // cuckoo placement looped on a tiny table: nothing to filter
    };
    seen.cases += 1;
    let pipeline = FilterPipeline {
        tokenizer: Tokenizer::new(case.tokenizer.clone()),
        compiled,
    };
    let text = case.text.as_slice();
    let context = || {
        format!(
            "rows {} word {} delimiters {:?} sets {:?} text {:?}",
            case.params.rows,
            case.params.word_bytes,
            case.tokenizer.delimiters,
            case.sets,
            String::from_utf8_lossy(text)
        )
    };
    let want = reference(&pipeline, text);

    // Kernel ≡ reference: ranges, every counter, every tag. Twice through
    // one filter, so state left behind by a page would show on the next.
    let mut filter = HashFilter::new(&pipeline.compiled);
    let mut kept = vec![7..9, 1..2]; // stale: the kernel must clear it
    for _ in 0..2 {
        let stats = pipeline.filter_text_with_stats_into(text, &mut filter, &mut kept);
        assert_eq!(kept, want.kept, "{}", context());
        assert_eq!(stats, want.stats, "{}", context());
    }
    let tags: Vec<(&[u8], Option<usize>)> = pipeline.tag_text(text).collect();
    let want_tags: Vec<(&[u8], Option<usize>)> = want
        .tags
        .iter()
        .map(|(range, tag)| (&text[range.clone()], *tag))
        .collect();
    assert_eq!(tags, want_tags, "{}", context());
    let lines: Vec<&[u8]> = pipeline.filter_text(text).collect();
    let want_lines: Vec<&[u8]> = want.kept.iter().map(|r| &text[r.clone()]).collect();
    assert_eq!(lines, want_lines, "{}", context());
    let (lines, stats) = pipeline.filter_text_with_stats(text);
    assert_eq!((lines, stats), (want_lines, want.stats), "{}", context());

    // Both ≡ oracle, line by line.
    for (range, tag) in &want.tags {
        let line = &text[range.clone()];
        assert_eq!(pipeline.matches_line(line), tag.is_some(), "{}", context());
        let tokens: Vec<&[u8]> = line
            .split(|b| case.tokenizer.delimiters.contains(b))
            .filter(|t| !t.is_empty())
            .collect();
        assert_eq!(
            *tag,
            oracle(&case.sets, &tokens),
            "line {:?}: {}",
            String::from_utf8_lossy(line),
            context()
        );
        tally(&case.sets, &tokens, *tag, seen);
    }
}

/// Records which branch of the semantics decided a line.
fn tally(sets: &[Vec<OracleTerm>], tokens: &[&[u8]], tag: Option<usize>, seen: &mut Seen) {
    let terms = || sets.iter().flatten();
    let on_line = |t: &OracleTerm| tokens.contains(&t.token.as_bytes());
    for t in terms().filter(|t| on_line(t)) {
        seen.hits_by_len[length_class(t.token.len())] += 1;
    }
    match tag {
        Some(set) if sets[set].iter().all(|t| t.negated) && !terms().any(on_line) => {
            seen.kept_untouched += 1;
        }
        Some(_) => seen.kept_by_terms += 1,
        None => {
            // Would the line have been kept without negation / columns?
            let lax = |negation: bool, columns: bool| -> Vec<Vec<OracleTerm>> {
                sets.iter()
                    .map(|set| {
                        set.iter()
                            .filter(|t| negation || !t.negated)
                            .map(|t| OracleTerm {
                                column: t.column.filter(|_| columns),
                                ..t.clone()
                            })
                            .collect()
                    })
                    .collect()
            };
            if oracle(&lax(false, true), tokens).is_some() {
                seen.dropped_by_negative += 1;
            }
            if oracle(&lax(true, false), tokens).is_some() {
                seen.dropped_by_column += 1;
            }
            // A token equal to a long term in its first word but not after.
            let tail_only = |t: &OracleTerm| {
                let term = t.token.as_bytes();
                term.len() > 16
                    && tokens.iter().any(|tok| {
                        tok.len() == term.len() && tok[..16] == term[..16] && *tok != term
                    })
            };
            if terms().any(|t| !t.negated && tail_only(t)) {
                seen.dropped_by_tail += 1;
            }
        }
    }
}

#[test]
fn fused_walk_equals_reference_and_set_semantics() {
    let mut rng = TestRng::from_name("fused_walk_equals_reference_and_set_semantics");
    let mut seen = Seen::default();
    for _ in 0..1500 {
        let case = case(&mut rng, &mut seen);
        check(case, &mut seen);
    }
    // The generators must reach every shape the issue lists; a count of
    // zero means the property above was never tested on it.
    assert!(seen.cases > 1400, "{seen:?}");
    for (what, count) in [
        ("lines kept by their terms", seen.kept_by_terms),
        (
            "untouched lines kept by an all-negative set",
            seen.kept_untouched,
        ),
        (
            "lines dropped by a negative term alone",
            seen.dropped_by_negative,
        ),
        ("lines dropped by a column alone", seen.dropped_by_column),
        ("near misses in the overflow tail", seen.dropped_by_tail),
        ("empty lines", seen.empty_lines),
        ("CRLF line ends", seen.crlf),
        (
            "texts without a trailing newline",
            seen.unterminated_last_line,
        ),
        ("non-UTF-8 tokens", seen.non_utf8_tokens),
        ("hits on terms of 1..=15 bytes", seen.hits_by_len[0]),
        ("hits on terms of 16 bytes", seen.hits_by_len[1]),
        ("hits on terms of 17..=32 bytes", seen.hits_by_len[2]),
        ("hits on terms of 33..=62 bytes", seen.hits_by_len[3]),
        ("hits on terms past the length mask", seen.hits_by_len[4]),
        ("zero-set queries", seen.zero_set_queries),
        ("positional queries", seen.positional),
        ("tables whose row count is no power of two", seen.odd_rows),
        ("delimiter sets with NUL", seen.nul_delimiter),
        (
            "delimiter sets without newline",
            seen.newline_not_a_delimiter,
        ),
    ] {
        assert!(count >= 10, "only {count} {what}: {seen:?}");
    }
}

/// Which shapes a skim case contained; summed over all cases and asserted
/// on.
#[derive(Debug, Default)]
struct SkimSeen {
    cases: usize,
    /// Hits the skim stops at, by their lane in the step that finds them.
    hit_lanes: [usize; 8],
    /// Hits found by a step that reads past the end of the text.
    hits_in_tail: usize,
    hits_at_first_byte: usize,
    hits_at_last_byte: usize,
    anchors_inside_tokens: usize,
    empty_lines_before_hits: usize,
    crlf_after_hits: usize,
    unterminated_last_lines: usize,
    newline_not_a_delimiter: usize,
    one_anchor: usize,
    two_anchors: usize,
    shorter_than_an_anchor_and_a_word: usize,
    fallback_pages: usize,
    pages_skimmed_to_the_end: usize,
}

/// A page for the skim: mostly filler lines that hold no anchor, some lines
/// with an anchor (and then maybe the rest of its set, so some are kept),
/// near misses that share an anchor's first and last byte, and anchors
/// glued to longer tokens.
fn skim_case(rng: &mut TestRng, seen: &mut SkimSeen) -> (TokenizerConfig, CompiledQuery, Vec<u8>) {
    let mut delimiters = vec![b' ', b'\t'];
    if chance(rng, 80) {
        delimiters.push(b'\r');
    }
    if chance(rng, 70) {
        delimiters.push(b'\n');
    } else {
        seen.newline_not_a_delimiter += 1;
    }
    let word_bytes = [16, 8][rng.below(2)];
    let tokenizer = TokenizerConfig {
        delimiters,
        ..TokenizerConfig::with_word_bytes(word_bytes)
    };
    let params = FilterParams {
        word_bytes,
        ..FilterParams::default()
    };

    // One or two sets, each anchored by a term longer than its others;
    // filler is drawn from other letters, so it never equals a term.
    let mut sets: Vec<Vec<Term>> = Vec::new();
    let mut anchors: Vec<Vec<u8>> = Vec::new();
    for _ in 0..1 + rng.below(2) {
        let len = if chance(rng, 70) {
            2 + rng.below(10)
        } else {
            LENGTHS[rng.below(LENGTHS.len())]
        };
        let anchor = letters(rng, len);
        let mut set = vec![Term::new(&anchor, false)];
        for _ in 0..rng.below(3) {
            if len > 1 {
                let shorter = 1 + rng.below(len - 1);
                set.push(Term::new(letters(rng, shorter), false));
            }
        }
        if chance(rng, 30) {
            set.push(Term::new(format!("no{}", letters(rng, 3)), true));
        }
        anchors.push(anchor.into_bytes());
        sets.push(set);
    }
    let query = Query::try_new(
        sets.iter()
            .map(|set| set.iter().cloned().collect::<IntersectionSet>())
            .collect(),
    )
    .expect("sets are non-empty");
    let compiled = CompiledQuery::compile(&query, params).expect("a few short terms fit");
    match compiled.anchors().len() {
        1 => seen.one_anchor += 1,
        _ => seen.two_anchors += 1,
    }

    let gaps: Vec<u8> = tokenizer
        .delimiters
        .iter()
        .copied()
        .filter(|&d| d != b'\n')
        .collect();
    let filler = |rng: &mut TestRng| -> Vec<u8> {
        let len = 1 + rng.below(12);
        (0..len).map(|_| b"efgh:-"[rng.below(6)]).collect()
    };
    let near_miss = |rng: &mut TestRng, anchor: &[u8]| -> Vec<u8> {
        let mut token = anchor.to_vec();
        if token.len() > 2 && chance(rng, 50) {
            let at = 1 + rng.below(token.len() - 2);
            token[at] = b'z'; // same first and last byte
        } else if chance(rng, 50) {
            token.insert(0, b'x');
        } else {
            token.push(b'x');
        }
        token
    };

    let short = chance(rng, 10);
    let lines = if short {
        rng.below(3)
    } else {
        40 + rng.below(261)
    };
    let hit_percent = if short || chance(rng, 25) { 70 } else { 3 };
    let mut text = Vec::new();
    for n in 0..lines {
        let set = rng.below(sets.len());
        let anchor = &anchors[set];
        let mut tokens: Vec<Vec<u8>> = (0..rng.below(if short { 2 } else { 9 }))
            .map(|_| filler(rng))
            .collect();
        if chance(rng, hit_percent) {
            let at = rng.below(tokens.len() + 1);
            tokens.insert(at, anchor.clone());
            if chance(rng, 50) {
                for term in sets[set].iter().skip(1).filter(|t| !t.is_negated()) {
                    tokens.push(term.token().as_bytes().to_vec());
                }
            }
        }
        if chance(rng, 15) {
            let at = rng.below(tokens.len() + 1);
            tokens.insert(at, near_miss(rng, anchor));
        }
        if n == 0 && chance(rng, 15) {
            tokens.insert(0, anchor.clone());
        }
        let last = n + 1 == lines;
        if last && chance(rng, 25) {
            tokens.push(anchor.clone());
        }
        for (i, token) in tokens.iter().enumerate() {
            if i > 0 || chance(rng, 10) {
                for _ in 0..1 + rng.below(2) {
                    text.push(gaps[rng.below(gaps.len())]);
                }
            }
            text.extend_from_slice(token);
        }
        if last && chance(rng, 40) {
            break;
        }
        match rng.below(100) {
            0..=74 => text.push(b'\n'),
            75..=87 => text.extend_from_slice(b"\r\n"),
            _ => text.extend_from_slice(b"\n\n"),
        }
    }
    (tokenizer, compiled, text)
}

/// Replays the skim's stops on `text` from the oracle's tokens, to count
/// the shapes it met: which lines hold an anchor, where the first one
/// starts, and whether the page falls back to walking every line.
fn tally_skim(tokenizer: &TokenizerConfig, anchors: &[Vec<u8>], text: &[u8], seen: &mut SkimSeen) {
    let reach = anchors.iter().map(Vec::len).max().unwrap_or(0) + 7;
    if text.len() < reach + 1 {
        seen.shorter_than_an_anchor_and_a_word += 1;
    }
    if !text.is_empty() && text.last() != Some(&b'\n') {
        seen.unterminated_last_lines += 1;
    }
    let is_token_at = |p: usize, anchor: &[u8]| {
        let end = p + anchor.len();
        let boundary = |b: Option<&u8>| b.is_none_or(|b| *b == b'\n' || tokenizer.is_delimiter(*b));
        text.get(p..end) == Some(anchor)
            && boundary(p.checked_sub(1).map(|i| &text[i]))
            && boundary(text.get(end))
    };
    for anchor in anchors {
        for p in 0..text.len() {
            let glued = p.checked_sub(1).map(|i| text[i]) == Some(b'x')
                || text.get(p + anchor.len()) == Some(&b'x');
            let inside = glued && text.get(p..p + anchor.len()) == Some(anchor);
            seen.anchors_inside_tokens += usize::from(inside);
        }
    }
    let (mut from, mut skipped, mut walked) = (0usize, 0u64, 0u64);
    let mut offset = 0usize;
    for line in text.split(|b| *b == b'\n') {
        let (start, end) = (offset, offset + line.len());
        offset = end + 1;
        let hit = (start..end).find(|&p| anchors.iter().any(|a| is_token_at(p, a)));
        match hit {
            Some(p) => {
                seen.hit_lanes[(p - from) % 8] += 1;
                let step = from + (p - from) / 8 * 8;
                seen.hits_in_tail += usize::from(step + reach > text.len());
                seen.hits_at_first_byte += usize::from(p == 0);
                let last = anchors
                    .iter()
                    .any(|a| p + a.len() == text.len() && is_token_at(p, a));
                seen.hits_at_last_byte += usize::from(last);
                seen.empty_lines_before_hits += usize::from(start >= 2 && text[start - 2] == b'\n');
                seen.crlf_after_hits += usize::from(line.ends_with(b"\r"));
                walked += 1;
                from = offset.min(text.len());
                if walked > skipped {
                    seen.fallback_pages += 1;
                    return;
                }
            }
            None => skipped += u64::from(!line.is_empty()),
        }
    }
    seen.pages_skimmed_to_the_end += 1;
}

#[test]
fn skim_skips_exactly_the_lines_the_walk_drops() {
    let mut rng = TestRng::from_name("skim_skips_exactly_the_lines_the_walk_drops");
    let mut seen = SkimSeen::default();
    for _ in 0..400 {
        let (tokenizer, compiled, text) = skim_case(&mut rng, &mut seen);
        seen.cases += 1;
        tally_skim(&tokenizer, compiled.anchors(), &text, &mut seen);
        let pipeline = FilterPipeline {
            tokenizer: Tokenizer::new(tokenizer.clone()),
            compiled,
        };
        let want = reference(&pipeline, &text);
        let context = || {
            format!(
                "delimiters {:?} anchors {:?} text {:?}",
                tokenizer.delimiters,
                pipeline
                    .compiled
                    .anchors()
                    .iter()
                    .map(|a| String::from_utf8_lossy(a))
                    .collect::<Vec<_>>(),
                String::from_utf8_lossy(&text)
            )
        };
        let mut filter = HashFilter::new(&pipeline.compiled);
        let mut kept = vec![3..4, 0..1]; // stale: the kernel must clear it
        for _ in 0..2 {
            let stats = pipeline.filter_text_with_stats_into(&text, &mut filter, &mut kept);
            assert_eq!(kept, want.kept, "{}", context());
            assert_eq!(stats, want.stats, "{}", context());
        }
    }
    for (what, count) in [
        ("hits in lane 0", seen.hit_lanes[0]),
        ("hits in lane 1", seen.hit_lanes[1]),
        ("hits in lane 2", seen.hit_lanes[2]),
        ("hits in lane 3", seen.hit_lanes[3]),
        ("hits in lane 4", seen.hit_lanes[4]),
        ("hits in lane 5", seen.hit_lanes[5]),
        ("hits in lane 6", seen.hit_lanes[6]),
        ("hits in lane 7", seen.hit_lanes[7]),
        ("hits found by a step past the end", seen.hits_in_tail),
        ("hits at the first byte", seen.hits_at_first_byte),
        ("hits at the last byte", seen.hits_at_last_byte),
        ("anchors inside longer tokens", seen.anchors_inside_tokens),
        ("empty lines before a hit", seen.empty_lines_before_hits),
        ("CRLF after a hit", seen.crlf_after_hits),
        (
            "texts without a trailing newline",
            seen.unterminated_last_lines,
        ),
        (
            "delimiter sets without newline",
            seen.newline_not_a_delimiter,
        ),
        ("one-anchor queries", seen.one_anchor),
        ("two-anchor queries", seen.two_anchors),
        (
            "pages shorter than an anchor and a word",
            seen.shorter_than_an_anchor_and_a_word,
        ),
        ("pages that fall back to the walk", seen.fallback_pages),
        ("pages skimmed to the end", seen.pages_skimmed_to_the_end),
    ] {
        assert!(count >= 10, "only {count} {what}: {seen:?}");
    }
}
