use std::ops::Range;

use mithrilog_query::Query;
use mithrilog_tokenizer::{Tokenizer, TokenizerConfig};

use crate::compile::{CompiledQuery, FilterParams};
use crate::engine::{HashFilter, LineVerdict};
use crate::error::QueryCompileError;

mod skim;
use skim::skim;

/// A complete filter pipeline: tokenizer array + hash filter (paper
/// Figure 3, minus the decompressor, which lives in `mithrilog-compress`).
///
/// This is the functional unit callers use to filter raw text. The
/// prototype instantiates four of these; because the gather stage restores
/// line order, N pipelines are functionally identical to one, so the
/// multi-pipeline aspect only appears in the timing model
/// (`mithrilog-sim`).
#[derive(Debug, Clone)]
pub struct FilterPipeline {
    tokenizer: Tokenizer,
    compiled: CompiledQuery,
}

/// Counters of a filtering run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Lines examined.
    pub lines_in: u64,
    /// Lines forwarded to the host.
    pub lines_kept: u64,
    /// Raw bytes examined (including newlines).
    pub bytes_in: u64,
}

impl FilterPipeline {
    /// Compiles a query with default (prototype) parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`QueryCompileError`] from compilation; see
    /// [`CompiledQuery::compile`].
    pub fn compile(query: &Query) -> Result<Self, QueryCompileError> {
        Self::compile_with(query, FilterParams::default(), TokenizerConfig::default())
    }

    /// Compiles a query with explicit filter and tokenizer parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`QueryCompileError`] from compilation.
    pub fn compile_with(
        query: &Query,
        params: FilterParams,
        tokenizer: TokenizerConfig,
    ) -> Result<Self, QueryCompileError> {
        let compiled = CompiledQuery::compile(query, params)?;
        Ok(FilterPipeline {
            tokenizer: Tokenizer::new(tokenizer),
            compiled,
        })
    }

    /// The compiled query (table + bitmaps).
    pub fn compiled(&self) -> &CompiledQuery {
        &self.compiled
    }

    /// The tokenizer in use.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Evaluates a single line (the first non-empty one of `line`).
    pub fn matches_line(&self, line: &[u8]) -> bool {
        let mut filter = HashFilter::new(&self.compiled);
        let line = self.lines(line).next_line(&mut filter);
        line.map_or_else(|| filter.end_of_line(), |(_, verdict)| verdict)
            .keep
    }

    /// Filters a text buffer, yielding the kept lines in order.
    pub fn filter_text<'a>(&'a self, text: &'a [u8]) -> impl Iterator<Item = &'a [u8]> + 'a {
        self.tag_text(text)
            .filter_map(|(line, tag)| tag.map(|_| line))
    }

    /// Tags every line of a text buffer with the index of the first
    /// intersection set it satisfies, or `None` — the "tagging each log
    /// line with template IDs" capability the paper lists as future work
    /// (§8), which falls out of the bitmap datapath for free: each
    /// intersection set of a compiled multi-template query corresponds to
    /// one template.
    pub fn tag_text<'a>(&'a self, text: &'a [u8]) -> TaggedLines<'a> {
        TaggedLines {
            filter: HashFilter::new(&self.compiled),
            lines: self.lines(text),
        }
    }

    /// Filters a text buffer and collects statistics in one pass.
    pub fn filter_text_with_stats<'a>(&self, text: &'a [u8]) -> (Vec<&'a [u8]>, FilterStats) {
        let mut filter = HashFilter::new(&self.compiled);
        let mut ranges = Vec::new();
        let stats = self.filter_text_with_stats_into(text, &mut filter, &mut ranges);
        let kept = ranges.into_iter().map(|r| &text[r]).collect();
        (kept, stats)
    }

    /// The allocation-free core of [`FilterPipeline::filter_text_with_stats`]:
    /// filters `text` through a caller-owned `filter` (which must be bound to
    /// this pipeline's compiled query) into a caller-owned vector of kept
    /// byte ranges. Both are cleared and reused, so the steady-state page
    /// loop performs no heap allocation here.
    ///
    /// When the query has [`CompiledQuery::anchors`], a skim runs in front of
    /// the walk and only the lines that hold an anchor as a whole token are
    /// tokenised; the others are counted and dropped, which is the verdict
    /// the walk gives them, so output and stats are those of the walk
    /// alone. [`FilterPipeline::tag_text`], [`FilterPipeline::filter_text`]
    /// and [`FilterPipeline::matches_line`] walk every line.
    pub fn filter_text_with_stats_into(
        &self,
        text: &[u8],
        filter: &mut HashFilter<'_>,
        kept: &mut Vec<Range<usize>>,
    ) -> FilterStats {
        kept.clear();
        filter.reset();
        let mut stats = FilterStats::default();
        let mut lines = self.lines(text);
        // The skim stops once the page has walked more lines than it
        // skipped: anchors that common cost a skim step per walked line for
        // nothing, so the rest of the page is walked.
        let anchors = self.compiled.anchors();
        let (mut skimming, mut skipped, mut walked) = (!anchors.is_empty(), 0u64, 0u64);
        loop {
            if skimming {
                let (start, passed) = skim(text, lines.pos, anchors, lines.classes);
                stats.lines_in += passed.lines;
                stats.bytes_in += passed.bytes;
                skipped += passed.lines;
                lines.pos = start;
            }
            let Some((range, verdict)) = lines.next_line(filter) else {
                break;
            };
            stats.lines_in += 1;
            stats.bytes_in += range.len() as u64 + 1;
            if verdict.keep {
                stats.lines_kept += 1;
                kept.push(range);
            }
            walked += 1;
            skimming &= walked <= skipped;
        }
        stats
    }

    fn lines<'a>(&'a self, text: &'a [u8]) -> LineCursor<'a> {
        LineCursor {
            classes: self.tokenizer.byte_classes(),
            text,
            pos: 0,
        }
    }
}

/// The one byte walk of the software scan path: tokenises `text` and probes
/// the filter in a single pass. One table load classifies a byte; each token
/// goes to the filter in place with its column; `\n` or the end of the text
/// closes the line. [`Tokenizer::tokenize_line`] → [`HashFilter::accept_word`],
/// the word stream, stays the hardware reference model.
#[derive(Debug)]
struct LineCursor<'a> {
    classes: &'a [u8; 256],
    text: &'a [u8],
    pos: usize,
}

impl LineCursor<'_> {
    /// Feeds the next non-empty line to `filter`, which must be between lines;
    /// returns its byte range (newline excluded) and verdict, `None` at the end.
    fn next_line(&mut self, filter: &mut HashFilter<'_>) -> Option<(Range<usize>, LineVerdict)> {
        let (text, classes) = (self.text, self.classes);
        let start = self.pos + text[self.pos..].iter().position(|&b| b != b'\n')?;
        let (mut i, mut column) = (start, 0u32);
        loop {
            let token = i;
            while text.get(i).is_some_and(|&b| classes[usize::from(b)] == 0) {
                i += 1;
            }
            if i > token {
                filter.accept_token_at(&text[token..i], column);
                column += 1;
            }
            match text.get(i) {
                Some(&b) if classes[usize::from(b)] & Tokenizer::NEWLINE == 0 => i += 1,
                _ => break,
            }
        }
        self.pos = (i + 1).min(text.len());
        Some((start..i, filter.end_of_line()))
    }
}

/// Iterator over `(line, matched set)` pairs from [`FilterPipeline::tag_text`].
#[derive(Debug)]
pub struct TaggedLines<'a> {
    filter: HashFilter<'a>,
    lines: LineCursor<'a>,
}

impl<'a> Iterator for TaggedLines<'a> {
    type Item = (&'a [u8], Option<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        let (range, verdict) = self.lines.next_line(&mut self.filter)?;
        Some((&self.lines.text[range], verdict.matched_set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithrilog_query::parse;

    const TEXT: &[u8] = b"RAS KERNEL INFO instruction cache parity error corrected\n\
RAS KERNEL FATAL data storage interrupt\n\
RAS APP FATAL ciod: Error loading job\n\
pbs_mom: job 1234 started on node-17\n\
RAS KERNEL INFO generating core.2275\n";

    #[test]
    fn pipeline_is_shareable_across_scan_workers() {
        // The parallel query datapath hands one compiled pipeline to N
        // scoped worker threads by `&` and clones it for owned replicas;
        // this pins down the auto-traits that design depends on.
        fn assert_worker_safe<T: Send + Sync + Clone>() {}
        assert_worker_safe::<FilterPipeline>();
        assert_worker_safe::<FilterStats>();
    }

    #[test]
    fn filter_text_keeps_matching_lines_in_order() {
        let q = parse("RAS AND KERNEL AND INFO").unwrap();
        let p = FilterPipeline::compile(&q).unwrap();
        let kept: Vec<&[u8]> = p.filter_text(TEXT).collect();
        assert_eq!(kept.len(), 2);
        assert!(kept[0].ends_with(b"corrected"));
        assert!(kept[1].ends_with(b"core.2275"));
    }

    #[test]
    fn template2_style_query_with_negation() {
        // Template 2 of Figure 1: RAS, KERNEL, INFO but not FATAL.
        let q = parse("RAS AND KERNEL AND NOT FATAL").unwrap();
        let p = FilterPipeline::compile(&q).unwrap();
        let (kept, stats) = p.filter_text_with_stats(TEXT);
        assert_eq!(kept.len(), 2);
        assert_eq!(stats.lines_in, 5);
        assert_eq!(stats.lines_kept, 2);
        assert_eq!(stats.bytes_in, TEXT.len() as u64);
    }

    #[test]
    fn concurrent_queries_via_union() {
        let q = parse("pbs_mom: OR (ciod: AND FATAL)").unwrap();
        let p = FilterPipeline::compile(&q).unwrap();
        let kept: Vec<&[u8]> = p.filter_text(TEXT).collect();
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn matches_line_is_consistent_with_filter_text() {
        let q = parse("FATAL").unwrap();
        let p = FilterPipeline::compile(&q).unwrap();
        let via_iter: Vec<&[u8]> = p.filter_text(TEXT).collect();
        let via_single: Vec<&[u8]> = TEXT
            .split(|b| *b == b'\n')
            .filter(|l| !l.is_empty() && p.matches_line(l))
            .collect();
        assert_eq!(via_iter, via_single);
    }

    #[test]
    fn agrees_with_reference_on_random_queries() {
        // Cross-validate the hardware model against the reference evaluator
        // on every line/query combination.
        let queries = [
            "RAS",
            "RAS AND NOT FATAL",
            "NOT RAS",
            "(KERNEL AND INFO) OR (APP AND FATAL)",
            "pbs_mom: AND NOT ciod:",
            "NOT KERNEL AND NOT pbs_mom:",
        ];
        for qs in queries {
            let q = parse(qs).unwrap();
            let p = FilterPipeline::compile(&q).unwrap();
            for line in TEXT.split(|b| *b == b'\n').filter(|l| !l.is_empty()) {
                let line_str = std::str::from_utf8(line).unwrap();
                assert_eq!(
                    p.matches_line(line),
                    q.matches_line(line_str),
                    "divergence on query {qs:?} line {line_str:?}"
                );
            }
        }
    }

    #[test]
    fn stats_into_reuses_filter_and_ranges_across_calls() {
        let q = parse("RAS AND KERNEL AND NOT FATAL").unwrap();
        let p = FilterPipeline::compile(&q).unwrap();
        let mut filter = HashFilter::new(p.compiled());
        let mut ranges = Vec::new();
        for _ in 0..3 {
            let stats = p.filter_text_with_stats_into(TEXT, &mut filter, &mut ranges);
            let via_ranges: Vec<&[u8]> = ranges.iter().map(|r| &TEXT[r.clone()]).collect();
            let (kept, one_shot_stats) = p.filter_text_with_stats(TEXT);
            assert_eq!(via_ranges, kept);
            assert_eq!(
                stats, one_shot_stats,
                "per-call stats must match the one-shot path"
            );
        }
    }

    #[test]
    fn empty_text_yields_nothing() {
        let q = parse("x").unwrap();
        let p = FilterPipeline::compile(&q).unwrap();
        assert_eq!(p.filter_text(b"").count(), 0);
    }

    #[test]
    fn tag_text_assigns_set_indices() {
        // Two "templates" joined as one query: set 0 = INFO lines,
        // set 1 = pbs_mom lines.
        let q = parse("(RAS AND INFO) OR pbs_mom:").unwrap();
        let p = FilterPipeline::compile(&q).unwrap();
        let tags: Vec<Option<usize>> = p.tag_text(TEXT).map(|(_, t)| t).collect();
        assert_eq!(tags, vec![Some(0), None, None, Some(1), Some(0)]);
    }

    #[test]
    fn tag_text_visits_every_line() {
        let q = parse("zzz-no-match").unwrap();
        let p = FilterPipeline::compile(&q).unwrap();
        let tagged: Vec<_> = p.tag_text(TEXT).collect();
        assert_eq!(tagged.len(), 5);
        assert!(tagged.iter().all(|(_, t)| t.is_none()));
    }
}

#[cfg(test)]
mod props;
