use crate::config::TokenizerConfig;
use crate::tokenizer::Tokenizer;
use crate::wire::{get_u64, get_usize, put_u64};

/// Statistics of the tokenized datapath over a corpus (paper §7.4.1).
///
/// Collected by streaming text through a [`Tokenizer`]; everything the
/// accelerator throughput model needs is here:
///
/// * `useful_ratio` — Figure 13's "percentage of useful bits in the
///   tokenized datapath" (≈0.5 on the HPC4 datasets, motivating two hash
///   filters per pipeline);
/// * `amplification` — tokenized bytes (including padding) per raw input
///   byte; the paper observes "typically a factor of two data amplification";
/// * token length histogram, used to justify the 16-byte datapath.
#[derive(Debug, Clone, PartialEq)]
pub struct DatapathStats {
    raw_bytes: u64,
    useful_bytes: u64,
    datapath_bytes: u64,
    words: u64,
    tokens: u64,
    lines: u64,
    /// Histogram of token lengths; index = length in bytes, saturating at
    /// the last bucket.
    token_len_hist: Vec<u64>,
    /// Sum and sum-of-squares of line lengths, for imbalance statistics.
    line_len_sum: u64,
    line_len_sq_sum: u128,
    max_line_len: usize,
}

/// Maximum token length tracked exactly by the histogram; longer tokens land
/// in the final bucket.
const HIST_BUCKETS: usize = 129;

impl DatapathStats {
    /// Creates an empty statistics accumulator.
    pub fn new() -> Self {
        DatapathStats {
            raw_bytes: 0,
            useful_bytes: 0,
            datapath_bytes: 0,
            words: 0,
            tokens: 0,
            lines: 0,
            token_len_hist: vec![0; HIST_BUCKETS],
            line_len_sum: 0,
            line_len_sq_sum: 0,
            max_line_len: 0,
        }
    }

    /// Accumulates one line of raw text tokenized under `config`.
    pub fn record_line(&mut self, tokenizer: &Tokenizer, line: &[u8]) {
        self.record_tokens(tokenizer, line, tokenizer.tokens(line));
    }

    /// Accumulates one line whose tokens (`tokenizer.tokens(line)`) the
    /// caller already holds — for a walk that also uses them elsewhere.
    pub fn record_tokens<'t>(
        &mut self,
        tokenizer: &Tokenizer,
        line: &[u8],
        tokens: impl IntoIterator<Item = &'t [u8]>,
    ) {
        let width = tokenizer.config().word_bytes;
        self.raw_bytes += line.len() as u64 + 1; // +1 for the newline
        self.lines += 1;
        self.line_len_sum += line.len() as u64;
        self.line_len_sq_sum += (line.len() as u128) * (line.len() as u128);
        self.max_line_len = self.max_line_len.max(line.len());
        for token in tokens {
            self.tokens += 1;
            let bucket = token.len().min(HIST_BUCKETS - 1);
            self.token_len_hist[bucket] += 1;
            let words = token.len().div_ceil(width) as u64;
            self.words += words;
            self.useful_bytes += token.len() as u64;
            self.datapath_bytes += words * width as u64;
        }
    }

    /// Computes statistics for a corpus (lines split on `\n`, empty ones
    /// skipped) in one call.
    pub fn of_text(config: &TokenizerConfig, text: &[u8]) -> Self {
        let tokenizer = Tokenizer::new(config.clone());
        let mut stats = DatapathStats::new();
        for line in text.split(|b| *b == b'\n').filter(|l| !l.is_empty()) {
            stats.record_line(&tokenizer, line);
        }
        stats
    }

    /// Fraction of useful (non-padding) bytes in the tokenized datapath —
    /// the Figure 13 metric. Returns 0 for an empty corpus.
    pub fn useful_ratio(&self) -> f64 {
        if self.datapath_bytes == 0 {
            0.0
        } else {
            self.useful_bytes as f64 / self.datapath_bytes as f64
        }
    }

    /// Tokenized datapath bytes per raw input byte (data amplification).
    pub fn amplification(&self) -> f64 {
        if self.raw_bytes == 0 {
            0.0
        } else {
            self.datapath_bytes as f64 / self.raw_bytes as f64
        }
    }

    /// Total raw input bytes recorded (including newlines).
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// Total tokens observed.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Total datapath words emitted.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Total lines observed.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Mean token length in bytes.
    pub fn mean_token_len(&self) -> f64 {
        if self.tokens == 0 {
            0.0
        } else {
            self.useful_bytes as f64 / self.tokens as f64
        }
    }

    /// Mean line length in bytes (excluding the newline).
    pub fn mean_line_len(&self) -> f64 {
        if self.lines == 0 {
            0.0
        } else {
            self.line_len_sum as f64 / self.lines as f64
        }
    }

    /// Coefficient of variation of line lengths; the paper attributes part
    /// of the filter/decompressor throughput gap to "imbalance between
    /// lengths of consecutive log lines".
    pub fn line_len_cv(&self) -> f64 {
        if self.lines == 0 {
            return 0.0;
        }
        let mean = self.mean_line_len();
        if mean == 0.0 {
            return 0.0;
        }
        let n = self.lines as f64;
        let var = (self.line_len_sq_sum as f64 / n) - mean * mean;
        var.max(0.0).sqrt() / mean
    }

    /// Token length histogram; index = token length, last bucket saturates.
    pub fn token_len_hist(&self) -> &[u64] {
        &self.token_len_hist
    }

    /// Fraction of tokens no longer than `len` bytes.
    pub fn fraction_tokens_at_most(&self, len: usize) -> f64 {
        if self.tokens == 0 {
            return 0.0;
        }
        let upto: u64 = self.token_len_hist[..=len.min(HIST_BUCKETS - 1)]
            .iter()
            .sum();
        upto as f64 / self.tokens as f64
    }

    /// Serializes the accumulator for a durability checkpoint.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.raw_bytes);
        put_u64(&mut buf, self.useful_bytes);
        put_u64(&mut buf, self.datapath_bytes);
        put_u64(&mut buf, self.words);
        put_u64(&mut buf, self.tokens);
        put_u64(&mut buf, self.lines);
        put_u64(&mut buf, self.line_len_sum);
        put_u64(&mut buf, self.line_len_sq_sum as u64);
        put_u64(&mut buf, (self.line_len_sq_sum >> 64) as u64);
        put_u64(&mut buf, self.max_line_len as u64);
        put_u64(&mut buf, self.token_len_hist.len() as u64);
        for &bucket in &self.token_len_hist {
            put_u64(&mut buf, bucket);
        }
        buf
    }

    /// Restores an accumulator written by [`DatapathStats::to_bytes`].
    /// Returns `None` for malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let cur = &mut &bytes[..];
        let raw_bytes = get_u64(cur)?;
        let useful_bytes = get_u64(cur)?;
        let datapath_bytes = get_u64(cur)?;
        let words = get_u64(cur)?;
        let tokens = get_u64(cur)?;
        let lines = get_u64(cur)?;
        let line_len_sum = get_u64(cur)?;
        let sq_lo = get_u64(cur)?;
        let sq_hi = get_u64(cur)?;
        let max_line_len = get_usize(cur)?;
        let hist_len = get_usize(cur)?;
        if hist_len != HIST_BUCKETS {
            return None;
        }
        let mut token_len_hist = Vec::with_capacity(hist_len);
        for _ in 0..hist_len {
            token_len_hist.push(get_u64(cur)?);
        }
        if !cur.is_empty() {
            return None;
        }
        Some(DatapathStats {
            raw_bytes,
            useful_bytes,
            datapath_bytes,
            words,
            tokens,
            lines,
            token_len_hist,
            line_len_sum,
            line_len_sq_sum: u128::from(sq_lo) | (u128::from(sq_hi) << 64),
            max_line_len,
        })
    }

    /// Merges another accumulator into this one (for parallel collection).
    pub fn merge(&mut self, other: &DatapathStats) {
        self.raw_bytes += other.raw_bytes;
        self.useful_bytes += other.useful_bytes;
        self.datapath_bytes += other.datapath_bytes;
        self.words += other.words;
        self.tokens += other.tokens;
        self.lines += other.lines;
        for (a, b) in self.token_len_hist.iter_mut().zip(&other.token_len_hist) {
            *a += b;
        }
        self.line_len_sum += other.line_len_sum;
        self.line_len_sq_sum += other.line_len_sq_sum;
        self.max_line_len = self.max_line_len.max(other.max_line_len);
    }
}

impl Default for DatapathStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(text: &str) -> DatapathStats {
        DatapathStats::of_text(&TokenizerConfig::default(), text.as_bytes())
    }

    #[test]
    fn empty_corpus_is_all_zero() {
        let s = stats_of("");
        assert_eq!(s.useful_ratio(), 0.0);
        assert_eq!(s.amplification(), 0.0);
        assert_eq!(s.tokens(), 0);
    }

    #[test]
    fn short_tokens_give_low_useful_ratio() {
        // "ab cd\n": two 2-byte tokens → 4 useful bytes over 32 datapath bytes.
        let s = stats_of("ab cd\n");
        assert!((s.useful_ratio() - 4.0 / 32.0).abs() < 1e-12);
        assert_eq!(s.words(), 2);
        assert_eq!(s.tokens(), 2);
    }

    #[test]
    fn full_width_tokens_have_ratio_one() {
        let token = "x".repeat(16);
        let s = stats_of(&format!("{token} {token}\n"));
        assert!((s.useful_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amplification_matches_hand_computation() {
        // line "ab cd" = 5 bytes + newline = 6 raw; datapath = 32.
        let s = stats_of("ab cd\n");
        assert!((s.amplification() - 32.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn hpc_like_lines_are_roughly_half_useful() {
        // Typical syslog tokens are 3–10 bytes, so the 16-byte datapath is
        // roughly half-utilized — the Figure 13 observation.
        let line = "Jun 12 04:01:22 tbird-admin1 kernel: e1000 device eth0\n";
        let s = stats_of(&line.repeat(100));
        let r = s.useful_ratio();
        assert!(r > 0.3 && r < 0.7, "ratio {r} outside the plausible band");
    }

    #[test]
    fn long_token_counts_multiple_words() {
        let s = stats_of(&format!("{}\n", "y".repeat(40)));
        assert_eq!(s.tokens(), 1);
        assert_eq!(s.words(), 3);
        assert!((s.useful_ratio() - 40.0 / 48.0).abs() < 1e-12);
    }

    #[test]
    fn line_cv_zero_for_identical_lines() {
        let s = stats_of(&"same length line\n".repeat(10));
        assert!(s.line_len_cv().abs() < 1e-9);
    }

    #[test]
    fn line_cv_positive_for_imbalanced_lines() {
        let s = stats_of("a\nsomething much much longer than before\nb\n");
        assert!(s.line_len_cv() > 0.5);
    }

    #[test]
    fn fraction_tokens_at_most_is_monotone() {
        let s = stats_of("a bb ccc dddd eeeee\n");
        let f4 = s.fraction_tokens_at_most(4);
        let f5 = s.fraction_tokens_at_most(5);
        assert!(f4 <= f5);
        assert!((f5 - 1.0).abs() < 1e-12);
        assert!((s.fraction_tokens_at_most(1) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let cfg = TokenizerConfig::default();
        let mut a = DatapathStats::of_text(&cfg, b"alpha beta\n");
        let b = DatapathStats::of_text(&cfg, b"gamma delta epsilon\n");
        a.merge(&b);
        let whole = DatapathStats::of_text(&cfg, b"alpha beta\ngamma delta epsilon\n");
        assert_eq!(a, whole);
    }

    #[test]
    fn stats_round_trip_through_bytes() {
        let s = stats_of("Jun 12 04:01:22 tbird-admin1 kernel: e1000 device eth0\nshort\n");
        let restored = DatapathStats::from_bytes(&s.to_bytes()).expect("valid blob");
        assert_eq!(restored, s);
        // Continued accumulation after restore matches the original path.
        assert_eq!(restored.lines(), 2);
    }

    #[test]
    fn stats_from_bytes_rejects_malformed_input() {
        let blob = stats_of("a bb ccc\n").to_bytes();
        assert!(DatapathStats::from_bytes(&blob[..blob.len() - 4]).is_none());
        let mut long = blob.clone();
        long.push(0);
        assert!(DatapathStats::from_bytes(&long).is_none());
        // Wrong histogram size.
        let mut bad = blob;
        bad[80..88].copy_from_slice(&7u64.to_le_bytes());
        assert!(DatapathStats::from_bytes(&bad).is_none());
    }

    #[test]
    fn narrower_datapath_increases_useful_ratio() {
        let text = "short toks here every where\n".repeat(20);
        let wide = DatapathStats::of_text(&TokenizerConfig::with_word_bytes(32), text.as_bytes());
        let narrow = DatapathStats::of_text(&TokenizerConfig::with_word_bytes(8), text.as_bytes());
        assert!(narrow.useful_ratio() > wide.useful_ratio());
    }
}
