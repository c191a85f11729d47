use crate::config::TokenizerConfig;
use crate::word::TokenWord;

/// The tokenizer: converts log lines into datapath-aligned token words.
///
/// Functionally equivalent to one lane of the hardware tokenizer array; the
/// round-robin scatter/gather across lanes lives in
/// [`ScatterGather`](crate::ScatterGather) and only affects the timing model,
/// never the word stream (gather restores order).
#[derive(Debug, Clone)]
pub struct Tokenizer {
    config: TokenizerConfig,
    /// [`Tokenizer::byte_classes`], derived once from `config.delimiters`.
    classes: [u8; 256],
}

impl Tokenizer {
    /// Class bit of a byte that [`TokenizerConfig::is_delimiter`] accepts.
    pub const DELIMITER: u8 = 1;
    /// Class bit of `\n`, which ends a line whether or not the
    /// configuration also lists it as a delimiter.
    pub const NEWLINE: u8 = 2;

    /// Creates a tokenizer with the given configuration.
    pub fn new(config: TokenizerConfig) -> Self {
        assert!(config.word_bytes > 0, "datapath width must be positive");
        let mut classes = [0u8; 256];
        for &d in &config.delimiters {
            classes[usize::from(d)] = Self::DELIMITER;
        }
        classes[usize::from(b'\n')] |= Self::NEWLINE;
        Tokenizer { config, classes }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TokenizerConfig {
        &self.config
    }

    /// The class of every byte value: `0` for a token byte, otherwise an OR
    /// of [`Tokenizer::DELIMITER`] and [`Tokenizer::NEWLINE`]. One indexed
    /// load replaces a search of the delimiter list in every byte walk.
    pub fn byte_classes(&self) -> &[u8; 256] {
        &self.classes
    }

    /// Splits a line into raw tokens (maximal runs of non-delimiter bytes).
    ///
    /// This is the delimiter semantics shared with the reference query
    /// evaluator; under the default configuration it agrees with
    /// `str::split_ascii_whitespace`.
    pub fn tokens<'a>(&'a self, line: &'a [u8]) -> impl Iterator<Item = &'a [u8]> + 'a {
        line.split(|b| self.classes[usize::from(*b)] & Self::DELIMITER != 0)
            .filter(|t| !t.is_empty())
    }

    /// Tokenizes one line into datapath words (paper Figure 4).
    ///
    /// Every token is emitted as one or more width-aligned words; the final
    /// word of the final token carries `last_of_line`. A line with no tokens
    /// (empty or all delimiters) produces no words, matching the hardware
    /// which forwards nothing for blank lines.
    pub fn tokenize_line(&self, line: &[u8]) -> Vec<TokenWord> {
        let width = self.config.word_bytes;
        let mut words = Vec::new();
        let tokens: Vec<&[u8]> = self.tokens(line).collect();
        let last_token_idx = match tokens.len().checked_sub(1) {
            Some(i) => i,
            None => return words,
        };
        for (col, token) in tokens.iter().enumerate() {
            let mut chunks = token.chunks(width).peekable();
            while let Some(chunk) = chunks.next() {
                let last_of_token = chunks.peek().is_none();
                let last_of_line = last_of_token && col == last_token_idx;
                words.push(TokenWord::new(
                    chunk,
                    width,
                    last_of_token,
                    last_of_line,
                    col as u32,
                ));
            }
        }
        words
    }

    /// Tokenizes a multi-line text buffer, yielding the word stream per line.
    ///
    /// Lines are separated by `\n`; blank lines are skipped (they carry no
    /// tokens). This is the stream the hash filters consume.
    pub fn tokenize_text<'a>(&'a self, text: &'a [u8]) -> LineWords<'a> {
        fn is_newline(b: &u8) -> bool {
            *b == b'\n'
        }
        LineWords {
            tokenizer: self,
            lines: text.split(is_newline as fn(&u8) -> bool),
        }
    }

    /// Number of cycles one lane needs to ingest a line of `len` bytes.
    ///
    /// The hardware lane processes a fixed number of bytes per cycle
    /// (prototype: 2), so ingest time is `ceil(len / rate)`.
    pub fn lane_cycles(&self, len: usize) -> u64 {
        let rate = self.config.bytes_per_cycle_per_lane.max(1);
        len.div_ceil(rate) as u64
    }
}

impl Default for Tokenizer {
    fn default() -> Self {
        Tokenizer::new(TokenizerConfig::default())
    }
}

/// Iterator over per-line word vectors produced by
/// [`Tokenizer::tokenize_text`].
#[derive(Debug)]
pub struct LineWords<'a> {
    tokenizer: &'a Tokenizer,
    lines: std::slice::Split<'a, u8, fn(&u8) -> bool>,
}

impl<'a> Iterator for LineWords<'a> {
    type Item = Vec<TokenWord>;

    fn next(&mut self) -> Option<Self::Item> {
        for line in self.lines.by_ref() {
            let words = self.tokenizer.tokenize_line(line);
            if !words.is_empty() {
                return Some(words);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok() -> Tokenizer {
        Tokenizer::default()
    }

    #[test]
    fn simple_line_one_word_per_token() {
        let words = tok().tokenize_line(b"RAS KERNEL INFO");
        assert_eq!(words.len(), 3);
        assert_eq!(words[0].token_bytes(), b"RAS");
        assert_eq!(words[1].token_bytes(), b"KERNEL");
        assert_eq!(words[2].token_bytes(), b"INFO");
        assert!(words.iter().all(TokenWord::is_last_of_token));
        assert_eq!(
            words.iter().filter(|w| w.is_last_of_line()).count(),
            1,
            "exactly one last-of-line flag"
        );
        assert!(words[2].is_last_of_line());
    }

    #[test]
    fn columns_increase_per_token() {
        let words = tok().tokenize_line(b"a b c");
        let cols: Vec<u32> = words.iter().map(TokenWord::column).collect();
        assert_eq!(cols, vec![0, 1, 2]);
    }

    #[test]
    fn figure4_long_token_spans_multiple_words() {
        // Paper Figure 4 example: tokens longer than 16 bytes are sent over
        // multiple beats with last_of_token only on the final beat.
        let long = b"ciod:_Error_loading_/bgl/apps/x"; // 31 bytes, one token
        let words = tok().tokenize_line(long);
        assert_eq!(words.len(), 2);
        assert!(!words[0].is_last_of_token());
        assert!(words[0].padding_len() == 0);
        assert!(words[1].is_last_of_token());
        assert!(words[1].is_last_of_line());
        assert_eq!(words[0].column(), words[1].column());
        let mut rebuilt = words[0].token_bytes().to_vec();
        rebuilt.extend_from_slice(words[1].token_bytes());
        assert_eq!(rebuilt, long);
    }

    #[test]
    fn exact_multiple_of_width_has_single_full_words() {
        let t = [b'x'; 32];
        let mut line = t.to_vec();
        line.extend_from_slice(b" y");
        let words = tok().tokenize_line(&line);
        assert_eq!(words.len(), 3);
        assert!(!words[0].is_last_of_token());
        assert!(words[1].is_last_of_token());
        assert_eq!(words[1].padding_len(), 0);
        assert_eq!(words[2].token_bytes(), b"y");
    }

    #[test]
    fn repeated_delimiters_and_edges_ignored() {
        let words = tok().tokenize_line(b"  a\t\t b  ");
        assert_eq!(words.len(), 2);
        assert_eq!(words[0].token_bytes(), b"a");
        assert_eq!(words[1].token_bytes(), b"b");
    }

    #[test]
    fn empty_and_blank_lines_produce_nothing() {
        assert!(tok().tokenize_line(b"").is_empty());
        assert!(tok().tokenize_line(b"   \t ").is_empty());
    }

    #[test]
    fn punctuation_stays_inside_tokens() {
        // Log tokens such as "pbs_mom:" or "R24-M0-NC-I:" keep punctuation.
        let words = tok().tokenize_line(b"R24-M0-NC-I: pbs_mom: up");
        assert_eq!(words[0].token_bytes(), b"R24-M0-NC-I:");
        assert_eq!(words[1].token_bytes(), b"pbs_mom:");
    }

    #[test]
    fn tokenize_text_skips_blank_lines_and_orders() {
        let text = b"one two\n\nthree\n";
        let lines: Vec<_> = tok().tokenize_text(text).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), 2);
        assert_eq!(lines[1][0].token_bytes(), b"three");
    }

    #[test]
    fn agrees_with_split_ascii_whitespace() {
        let line = "Jun  3 04:01:02 node-17 kernel: oops at 0xbeef";
        let t = tok();
        let ours: Vec<&[u8]> = t.tokens(line.as_bytes()).collect();
        let std: Vec<&[u8]> = line.split_ascii_whitespace().map(str::as_bytes).collect();
        assert_eq!(ours, std);
    }

    #[test]
    fn narrow_datapath_splits_more() {
        let t = Tokenizer::new(TokenizerConfig::with_word_bytes(4));
        let words = t.tokenize_line(b"abcdefgh");
        assert_eq!(words.len(), 2);
        assert_eq!(words[0].token_bytes(), b"abcd");
        assert_eq!(words[1].token_bytes(), b"efgh");
    }

    #[test]
    fn lane_cycles_rounds_up() {
        let t = tok();
        assert_eq!(t.lane_cycles(0), 0);
        assert_eq!(t.lane_cycles(1), 1);
        assert_eq!(t.lane_cycles(2), 1);
        assert_eq!(t.lane_cycles(3), 2);
        assert_eq!(t.lane_cycles(80), 40);
    }

    #[test]
    fn byte_classes_agree_with_the_configured_delimiters_on_all_256_bytes() {
        let aligned = TokenizerConfig {
            delimiters: vec![b' ', b'\t', b'\r', b'\n', 0],
            ..TokenizerConfig::default()
        };
        let no_newline = TokenizerConfig {
            delimiters: vec![b' ', b','],
            ..TokenizerConfig::default()
        };
        for cfg in [TokenizerConfig::default(), aligned, no_newline] {
            let t = Tokenizer::new(cfg);
            for b in 0..=255u8 {
                let class = t.byte_classes()[usize::from(b)];
                assert_eq!(
                    class & Tokenizer::DELIMITER != 0,
                    t.config().is_delimiter(b),
                    "byte {b:#04x}"
                );
                assert_eq!(class & Tokenizer::NEWLINE != 0, b == b'\n', "byte {b:#04x}");
                assert_eq!(class & !(Tokenizer::DELIMITER | Tokenizer::NEWLINE), 0);
            }
        }
    }

    #[test]
    fn custom_delimiters_supported() {
        let cfg = TokenizerConfig {
            delimiters: vec![b',', b' '],
            ..TokenizerConfig::default()
        };
        let t = Tokenizer::new(cfg);
        let toks: Vec<&[u8]> = t.tokens(b"a,b c").collect();
        assert_eq!(
            toks,
            vec![b"a".as_slice(), b"b".as_slice(), b"c".as_slice()]
        );
    }
}
