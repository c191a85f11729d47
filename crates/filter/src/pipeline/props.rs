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
        let before = filter.tokens_processed();
        let verdict = filter.evaluate_line(pipeline.tokenizer.tokens(line));
        out.stats.tokens += filter.tokens_processed() - before;
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
