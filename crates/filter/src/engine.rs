use mithrilog_tokenizer::TokenWord;

use crate::compile::CompiledQuery;

/// Verdict for one completed line (the boolean the hardware emits per line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineVerdict {
    /// Whether the line satisfies the query and should be forwarded.
    pub keep: bool,
    /// Index of the first satisfied intersection set, if any — useful for
    /// template tagging (listed as future work in the paper, trivially
    /// available in this model).
    pub matched_set: Option<usize>,
}

/// The per-line evaluation state machine of one hash filter module
/// (paper §4.2.3, Figure 6).
///
/// Feed tokens (or datapath words) of one line, then call
/// [`HashFilter::end_of_line`] to obtain the verdict and reset for the next
/// line. Exactly mirrors the hardware: per-set bitmaps of table-row bits,
/// plus a per-set "negative term violated" poison flag.
///
/// # Example
///
/// ```
/// use mithrilog_filter::{CompiledQuery, FilterParams, HashFilter};
/// use mithrilog_query::parse;
///
/// let q = parse("ERROR AND NOT benign")?;
/// let cq = CompiledQuery::compile(&q, FilterParams::default())?;
/// let mut f = HashFilter::new(&cq);
/// f.accept_token(b"disk");
/// f.accept_token(b"ERROR");
/// assert!(f.end_of_line().keep);
/// f.accept_token(b"ERROR");
/// f.accept_token(b"benign");
/// assert!(!f.end_of_line().keep);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct HashFilter<'a> {
    compiled: &'a CompiledQuery,
    /// The per-set row bitmaps of the line in flight, set after set in one
    /// flat buffer of `limbs` words each.
    bitmaps: Vec<u64>,
    limbs: usize,
    violated: u64,
    /// Whether a token of the current line changed `bitmaps` or `violated`.
    /// Most lines of a log hit no table row at all; they resolve to
    /// `untouched` without a bitmap being compared or cleared.
    touched: bool,
    /// Verdict of a line no token of which hit the table: the first set with
    /// an empty expected bitmap (an all-negative set), else drop.
    untouched: LineVerdict,
    /// Assembly buffer for tokens arriving as multi-word fragments.
    pending: Vec<u8>,
}

impl<'a> HashFilter<'a> {
    /// Creates a filter bound to a compiled query.
    pub fn new(compiled: &'a CompiledQuery) -> Self {
        let limbs = compiled.params().rows.div_ceil(64);
        let matched_set = (0..compiled.set_count()).find(|&i| compiled.expected(i).is_empty());
        HashFilter {
            compiled,
            bitmaps: vec![0; limbs * compiled.set_count()],
            limbs,
            violated: 0,
            touched: false,
            untouched: LineVerdict {
                keep: matched_set.is_some(),
                matched_set,
            },
            pending: Vec::new(),
        }
    }

    /// Processes one complete token of the current line, without a column
    /// constraint check. Correct for queries compiled from the standard
    /// (position-free) query language; positional queries must use
    /// [`HashFilter::accept_token_at`] or the word-stream interface.
    pub fn accept_token(&mut self, token: &[u8]) {
        self.accept_token_inner(token, None);
    }

    /// Processes one complete token observed at zero-based `column` of the
    /// current line (the prefix-tree extension, §4.3: the tokenizer "emits
    /// an increasing column counter per token").
    #[inline]
    pub fn accept_token_at(&mut self, token: &[u8], column: u32) {
        self.accept_token_inner(token, Some(column));
    }

    #[inline]
    fn accept_token_inner(&mut self, token: &[u8], column: Option<u32>) {
        if token.is_empty() {
            return;
        }
        let Some((row, entry)) = self.compiled.table().lookup(token) else {
            // Token not mentioned by any query: ignore (paper: "this input
            // token can be ignored").
            return;
        };
        // Column-constrained entries only fire at their expected column.
        if let Some(expected) = entry.column() {
            if column != Some(expected) {
                return;
            }
        }
        self.touched = true;
        let valid = entry.valid_mask();
        let negative = entry.negative_mask();
        // Sets where the token is a negative term: poison them.
        self.violated |= valid & negative;
        // Sets where the token is a positive term: record its row bit.
        let mut positive = valid & !negative;
        while positive != 0 {
            let set = positive.trailing_zeros() as usize;
            positive &= positive - 1;
            if let Some(limb) = self.bitmaps.get_mut(set * self.limbs + row / 64) {
                *limb |= 1 << (row % 64);
            }
        }
    }

    /// Processes one datapath word from the tokenizer, assembling multi-word
    /// tokens; when the word carries `last_of_line`, returns the verdict.
    pub fn accept_word(&mut self, word: &TokenWord) -> Option<LineVerdict> {
        self.pending.extend_from_slice(word.token_bytes());
        if word.is_last_of_token() {
            // Lend the buffer out for the probe and take it back with its
            // capacity, so a long token costs one allocation per filter.
            let mut token = std::mem::take(&mut self.pending);
            self.accept_token_at(&token, word.column());
            token.clear();
            self.pending = token;
        }
        if word.is_last_of_line() {
            Some(self.end_of_line())
        } else {
            None
        }
    }

    /// Finishes the current line: computes the verdict and resets all
    /// per-line state.
    ///
    /// A set is satisfied iff it was not poisoned by a negative term and its
    /// bitmap exactly equals the compiled expected bitmap.
    #[inline]
    pub fn end_of_line(&mut self) -> LineVerdict {
        debug_assert!(
            self.pending.is_empty(),
            "line ended mid-token; tokenizer must flag last_of_token"
        );
        if !self.touched {
            return self.untouched;
        }
        let matched_set = self
            .bitmaps
            .chunks_exact(self.limbs)
            .enumerate()
            .position(|(i, bm)| {
                self.violated & (1 << i) == 0 && bm == self.compiled.expected(i).limbs()
            });
        self.reset();
        LineVerdict {
            keep: matched_set.is_some(),
            matched_set,
        }
    }

    /// Convenience: evaluates a whole pre-tokenized line, supplying each
    /// token's column so positional queries evaluate correctly too.
    pub fn evaluate_line<'t, I>(&mut self, tokens: I) -> LineVerdict
    where
        I: IntoIterator<Item = &'t [u8]>,
    {
        for (col, t) in tokens.into_iter().enumerate() {
            self.accept_token_at(t, col as u32);
        }
        self.end_of_line()
    }

    /// Clears all per-line evaluation state (bitmaps, poison flags, the
    /// multi-word assembly buffer) without reallocating, so one filter can
    /// be reused across pages and scans instead of constructed per call.
    pub fn reset(&mut self) {
        self.bitmaps.fill(0);
        self.violated = 0;
        self.touched = false;
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::FilterParams;
    use mithrilog_query::{parse, Query};
    use mithrilog_tokenizer::{Tokenizer, TokenizerConfig};

    fn compiled(q: &str) -> CompiledQuery {
        CompiledQuery::compile(&parse(q).unwrap(), FilterParams::default()).unwrap()
    }

    fn eval(cq: &CompiledQuery, line: &str) -> bool {
        let mut f = HashFilter::new(cq);
        f.evaluate_line(line.split_ascii_whitespace().map(str::as_bytes))
            .keep
    }

    #[test]
    fn positive_conjunction() {
        let cq = compiled("RAS AND KERNEL");
        assert!(eval(&cq, "RAS KERNEL INFO x y"));
        assert!(!eval(&cq, "RAS INFO"));
        assert!(!eval(&cq, "nothing"));
    }

    #[test]
    fn negative_term_poisons_set() {
        let cq = compiled("RAS AND NOT FATAL");
        assert!(eval(&cq, "RAS INFO"));
        assert!(!eval(&cq, "RAS FATAL"));
        assert!(!eval(&cq, "FATAL only"));
    }

    #[test]
    fn union_reports_first_matching_set() {
        let cq = compiled("alpha OR beta");
        let mut f = HashFilter::new(&cq);
        f.accept_token(b"beta");
        let v = f.end_of_line();
        assert!(v.keep);
        assert_eq!(v.matched_set, Some(1));
    }

    #[test]
    fn all_negative_set_matches_absence() {
        let cq = compiled("NOT FATAL AND NOT ERROR");
        assert!(eval(&cq, "healthy status line"));
        assert!(!eval(&cq, "an ERROR happened"));
    }

    #[test]
    fn repeated_tokens_do_not_break_exact_bitmap_match() {
        let cq = compiled("A AND B");
        assert!(eval(&cq, "A A B B A"));
    }

    #[test]
    fn state_resets_between_lines() {
        let cq = compiled("A AND B");
        let mut f = HashFilter::new(&cq);
        f.accept_token(b"A");
        assert!(!f.end_of_line().keep);
        // B from a previous line must not linger.
        f.accept_token(b"B");
        assert!(!f.end_of_line().keep);
        f.accept_token(b"A");
        f.accept_token(b"B");
        assert!(f.end_of_line().keep);
    }

    #[test]
    fn word_stream_interface_matches_token_interface() {
        let cq = compiled("supercalifragilisticexpialidocious AND short");
        let tok = Tokenizer::new(TokenizerConfig::default());
        let line = b"short supercalifragilisticexpialidocious tail";
        let mut f = HashFilter::new(&cq);
        let mut verdict = None;
        for w in tok.tokenize_line(line) {
            if let Some(v) = f.accept_word(&w) {
                verdict = Some(v);
            }
        }
        assert!(verdict.unwrap().keep);
    }

    #[test]
    fn multi_word_tokens_reuse_the_assembly_buffer_and_match_whole_tokens() {
        let long17 = "seventeen-bytes-x";
        let long40 = "a-forty-byte-token-that-spans-three-word";
        assert_eq!((long17.len(), long40.len()), (17, 40));
        let cq = compiled(&format!("{long17} AND {long40} AND NOT absent"));
        let tok = Tokenizer::new(TokenizerConfig::default());
        let lines = [
            format!("{long40} filler {long17}"),
            format!("{long17} {long40}x"),
            format!("{long40} {long17} absent"),
            long17.to_string(),
        ];
        let mut by_word = HashFilter::new(&cq);
        let mut by_token = HashFilter::new(&cq);
        for line in &lines {
            let words = tok.tokenize_line(line.as_bytes());
            let verdict = words.iter().find_map(|w| by_word.accept_word(w));
            for (col, t) in tok.tokens(line.as_bytes()).enumerate() {
                by_token.accept_token_at(t, col as u32);
            }
            assert_eq!(verdict, Some(by_token.end_of_line()), "line {line:?}");
        }
        assert!(by_word.pending.is_empty());
        assert!(
            by_word.pending.capacity() >= long40.len(),
            "the assembly buffer must survive its token"
        );
    }

    #[test]
    fn untouched_lines_resolve_to_the_precomputed_verdict() {
        // No token of these lines is a query term: an all-negative set keeps
        // them (first such set wins), a query without one drops them.
        let keeps = compiled("(A AND B) OR (NOT C AND NOT D) OR NOT E");
        let mut f = HashFilter::new(&keeps);
        assert_eq!(f.evaluate_line([b"x".as_slice()]).matched_set, Some(1));
        assert_eq!(f.evaluate_line([]).matched_set, Some(1));
        assert_eq!(f.evaluate_line([b"C".as_slice()]).matched_set, Some(2));
        let drops = compiled("A OR (B AND NOT C)");
        assert!(
            !HashFilter::new(&drops)
                .evaluate_line([b"x".as_slice()])
                .keep
        );
    }

    #[test]
    fn agrees_with_reference_evaluator_on_eq1() {
        let q = parse("(B AND C AND NOT A) OR (F AND G AND NOT D AND NOT E)").unwrap();
        let cq = CompiledQuery::compile(&q, FilterParams::default()).unwrap();
        let lines = [
            "B C",
            "A B C",
            "F G",
            "F G E",
            "A F G",
            "B",
            "C F",
            "A B C F G",
            "D F G",
            "B C D E F G",
        ];
        for line in lines {
            assert_eq!(
                eval(&cq, line),
                q.matches_line(line),
                "divergence on {line:?}"
            );
        }
    }

    #[test]
    fn zero_set_query_rejects_everything() {
        use mithrilog_query::{IntersectionSet, Term};
        let q = Query::try_new(vec![
            IntersectionSet::of_tokens(["x"]).with(Term::negative("x"))
        ])
        .unwrap();
        let cq = CompiledQuery::compile(&q, FilterParams::default()).unwrap();
        assert!(!eval(&cq, "x"));
        assert!(!eval(&cq, "anything"));
    }
}
