//! Page-aligned LZAH framing (paper Figure 9: "each compressed data in each
//! storage page can be decompressed independently by aligning chunks at page
//! boundaries").
//!
//! Log text is packed greedily, line by line, into frames that each fit in
//! one storage page; every frame resets the codec's hash table so pages are
//! independently decompressible — the property that lets the inverted index
//! hand the accelerator an arbitrary subset of pages.

use crate::error::DecompressError;
use crate::lzah::{Lzah, LzahConfig, LzahStreamEncoder};

/// A log corpus compressed into independently-decompressible pages.
#[derive(Debug, Clone)]
pub struct PagedLog {
    pages: Vec<PageFrame>,
    page_bytes: usize,
    raw_bytes: usize,
}

/// One compressed page frame plus its layout metadata.
#[derive(Debug, Clone)]
pub struct PageFrame {
    data: Vec<u8>,
    raw_len: usize,
    lines: usize,
    starts_mid_line: bool,
}

impl PageFrame {
    /// The compressed frame bytes (≤ page size).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Bytes of original text this page decompresses to.
    pub fn raw_len(&self) -> usize {
        self.raw_len
    }

    /// Number of complete lines beginning in this page.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Whether the page begins in the middle of a line (only possible when
    /// a single line exceeds one page of compressed capacity).
    pub fn starts_mid_line(&self) -> bool {
        self.starts_mid_line
    }
}

impl PagedLog {
    /// The compressed pages in order.
    pub fn pages(&self) -> &[PageFrame] {
        &self.pages
    }

    /// Consumes the log, yielding its pages in order.
    pub fn into_pages(self) -> Vec<PageFrame> {
        self.pages
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Configured page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Total raw bytes across all pages.
    pub fn raw_bytes(&self) -> usize {
        self.raw_bytes
    }

    /// Total compressed bytes (sum of frame lengths, without page padding).
    pub fn compressed_bytes(&self) -> usize {
        self.pages.iter().map(|p| p.data.len()).sum()
    }

    /// Overall compression ratio including per-page framing overhead.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes() == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.compressed_bytes() as f64
    }
}

/// Compresses a text corpus into page-sized LZAH frames.
///
/// Lines (including their trailing `\n`) are never split across pages unless
/// a single line's compressed form exceeds one page, in which case it spills
/// and the continuation page is flagged via `PageFrame::starts_mid_line`.
///
/// # Panics
///
/// Panics if `page_bytes` is too small to hold even a single input word
/// (< 128 bytes), or if `config.newline_realign` is disabled — paged framing
/// relies on newline realignment to keep intermediate windows
/// reconstructible, exactly as the hardware does.
pub fn compress_paged(input: &[u8], config: LzahConfig, page_bytes: usize) -> PagedLog {
    assert!(page_bytes >= 128, "page must hold at least one chunk");
    assert!(
        config.newline_realign,
        "paged framing requires newline realignment"
    );
    let mut pages = Vec::new();
    let mut enc = LzahStreamEncoder::new(config);
    let mut lines_in_page = 0usize;
    let mut page_starts_mid_line = false;

    let mut flush =
        |enc: &mut LzahStreamEncoder, lines: &mut usize, mid: &mut bool, next_mid: bool| {
            let raw_len = enc.original_len();
            if raw_len == 0 {
                return;
            }
            pages.push(PageFrame {
                data: enc.finish(),
                raw_len,
                lines: *lines,
                starts_mid_line: *mid,
            });
            *lines = 0;
            *mid = next_mid;
        };

    let mut pos = 0usize;
    while pos < input.len() {
        let line_end = input[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|k| pos + k + 1)
            .unwrap_or(input.len());
        let line = &input[pos..line_end];

        if enc.push_within(line, page_bytes) {
            lines_in_page += 1;
            pos = line_end;
            continue;
        }

        if enc.original_len() > 0 {
            // Page has content: flush it and retry the line on a fresh page.
            flush(
                &mut enc,
                &mut lines_in_page,
                &mut page_starts_mid_line,
                false,
            );
            continue;
        }

        // A single line too big for one page: split it at the largest prefix
        // that fits, and flag the continuation.
        let mut fitted = 0usize;
        let step = config.word_bytes.max(16);
        loop {
            let next = (fitted + step).min(line.len());
            if next == fitted || !enc.push_within(&line[fitted..next], page_bytes) {
                break;
            }
            fitted = next;
        }
        assert!(fitted > 0, "page too small for a single input word");
        lines_in_page += usize::from(fitted == line.len());
        pos += fitted;
        flush(
            &mut enc,
            &mut lines_in_page,
            &mut page_starts_mid_line,
            fitted < line.len(),
        );
    }
    flush(
        &mut enc,
        &mut lines_in_page,
        &mut page_starts_mid_line,
        false,
    );

    let raw_bytes = input.len();
    PagedLog {
        pages,
        page_bytes,
        raw_bytes,
    }
}

/// Decompresses one page frame back to raw text.
///
/// # Errors
///
/// Returns [`DecompressError`] if the frame is corrupt.
pub fn decompress_page(frame: &PageFrame) -> Result<Vec<u8>, DecompressError> {
    use crate::Codec;
    Lzah::default().decompress(frame.data())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::log_corpus;
    use crate::Codec;

    #[test]
    fn pages_reassemble_exactly() {
        let corpus = log_corpus();
        let paged = compress_paged(&corpus, LzahConfig::default(), 4096);
        assert!(paged.page_count() > 1, "corpus should span multiple pages");
        let mut rebuilt = Vec::new();
        for p in paged.pages() {
            rebuilt.extend_from_slice(&decompress_page(p).unwrap());
        }
        assert_eq!(rebuilt, corpus);
    }

    #[test]
    fn every_frame_fits_its_page() {
        let corpus = log_corpus();
        let paged = compress_paged(&corpus, LzahConfig::default(), 4096);
        for (i, p) in paged.pages().iter().enumerate() {
            assert!(
                p.data().len() <= 4096,
                "page {i} frame is {} bytes",
                p.data().len()
            );
        }
    }

    #[test]
    fn pages_split_on_line_boundaries() {
        let corpus = log_corpus();
        let paged = compress_paged(&corpus, LzahConfig::default(), 4096);
        for p in paged.pages() {
            assert!(!p.starts_mid_line());
            let raw = decompress_page(p).unwrap();
            assert_eq!(*raw.last().unwrap(), b'\n', "page must end at a line end");
        }
    }

    #[test]
    fn line_counts_sum_to_corpus_lines() {
        let corpus = log_corpus();
        let expected = corpus.iter().filter(|&&b| b == b'\n').count();
        let paged = compress_paged(&corpus, LzahConfig::default(), 4096);
        let total: usize = paged.pages().iter().map(PageFrame::lines).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn oversized_line_spills_with_flag() {
        // One gigantic line of incompressible-ish content.
        let mut line: Vec<u8> = (0..20_000u32)
            .flat_map(|i| format!("{i:x}-").into_bytes())
            .collect();
        line.push(b'\n');
        let paged = compress_paged(&line, LzahConfig::default(), 4096);
        assert!(paged.page_count() > 1);
        assert!(paged.pages()[1].starts_mid_line());
        let mut rebuilt = Vec::new();
        for p in paged.pages() {
            rebuilt.extend_from_slice(&decompress_page(p).unwrap());
        }
        assert_eq!(rebuilt, line);
    }

    #[test]
    fn paged_ratio_close_to_unpaged() {
        let corpus: Vec<u8> = log_corpus().iter().copied().cycle().take(200_000).collect();
        let unpaged = Lzah::default().ratio(&corpus);
        let paged = compress_paged(&corpus, LzahConfig::default(), 4096).ratio();
        // Per-page table resets cost some ratio, but not a collapse.
        assert!(
            paged > unpaged * 0.5,
            "paged {paged:.2} vs unpaged {unpaged:.2}"
        );
    }

    #[test]
    fn missing_trailing_newline_is_preserved() {
        let corpus = b"first line\nsecond line without newline";
        let paged = compress_paged(corpus, LzahConfig::default(), 4096);
        let mut rebuilt = Vec::new();
        for p in paged.pages() {
            rebuilt.extend_from_slice(&decompress_page(p).unwrap());
        }
        assert_eq!(rebuilt, corpus);
    }

    /// A frame as the equivalence test compares it.
    type Frame = (Vec<u8>, usize, usize, bool);

    fn frames_of(paged: &PagedLog) -> Vec<Frame> {
        paged
            .pages()
            .iter()
            .map(|p| {
                (
                    p.data().to_vec(),
                    p.raw_len(),
                    p.lines(),
                    p.starts_mid_line(),
                )
            })
            .collect()
    }

    /// The packer before the growth bound: every line (and every piece of
    /// a split line) is a trial push — checkpoint, push, roll back on
    /// overflow — and every page starts on a fresh encoder.
    fn compress_paged_reference(input: &[u8], config: LzahConfig, page_bytes: usize) -> Vec<Frame> {
        let mut pages = Vec::new();
        let mut enc = LzahStreamEncoder::new(config);
        let mut lines_in_page = 0usize;
        let mut mid = false;
        let mut flush = |enc: &mut LzahStreamEncoder, lines: &mut usize, mid: &mut bool, next| {
            let mut finished = std::mem::replace(enc, LzahStreamEncoder::new(config));
            let raw_len = finished.original_len();
            if raw_len == 0 {
                return;
            }
            pages.push((finished.finish(), raw_len, *lines, *mid));
            *lines = 0;
            *mid = next;
        };
        let trial = |enc: &mut LzahStreamEncoder, bytes: &[u8]| {
            enc.checkpoint();
            enc.push_bytes(bytes, true);
            let fits = enc.frame_len() <= page_bytes;
            if !fits {
                enc.rollback();
            }
            fits
        };
        let mut pos = 0usize;
        while pos < input.len() {
            let line_end = input[pos..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(input.len(), |k| pos + k + 1);
            let line = &input[pos..line_end];
            if trial(&mut enc, line) {
                lines_in_page += 1;
                pos = line_end;
                continue;
            }
            if enc.original_len() > 0 {
                flush(&mut enc, &mut lines_in_page, &mut mid, false);
                continue;
            }
            let mut fitted = 0usize;
            let step = config.word_bytes.max(16);
            loop {
                let next = (fitted + step).min(line.len());
                if next == fitted || !trial(&mut enc, &line[fitted..next]) {
                    break;
                }
                fitted = next;
            }
            assert!(fitted > 0, "page too small for a single input word");
            lines_in_page += usize::from(fitted == line.len());
            pos += fitted;
            flush(&mut enc, &mut lines_in_page, &mut mid, fitted < line.len());
        }
        flush(&mut enc, &mut lines_in_page, &mut mid, false);
        pages
    }

    /// Random log-ish text: template lines that compress, one-byte lines,
    /// incompressible lines, and now and then a line longer than a page.
    fn random_input(rng: &mut proptest::prelude::TestRng, page_bytes: usize) -> Vec<u8> {
        let mut text = Vec::new();
        for _ in 0..rng.below(200) {
            match rng.below(10) {
                0 => text.push(b'\n'),
                1 => text.extend_from_slice(b"x\n"),
                2 | 3 => {
                    let len = rng.below(200);
                    text.extend((0..len).map(|_| match rng.below(255) as u8 {
                        b'\n' => 0xFF,
                        b => b,
                    }));
                    text.push(b'\n');
                }
                4 if rng.below(8) == 0 => {
                    let len = page_bytes + rng.below(2 * page_bytes);
                    text.extend((0..len).map(|_| b'!' + rng.below(90) as u8));
                    text.push(b'\n');
                }
                _ => {
                    let line = format!(
                        "2005.06.{:02} R{:02}-M1 RAS KERNEL INFO {} cache parity {}\n",
                        rng.below(30),
                        rng.below(4),
                        ["ok", "corrected", "FATAL"][rng.below(3)],
                        rng.below(1 << 20),
                    );
                    text.extend_from_slice(line.as_bytes());
                }
            }
        }
        if rng.below(4) == 0 {
            text.pop();
        }
        text
    }

    #[test]
    fn bounded_trials_pack_exactly_like_trying_every_line() {
        let mut rng = proptest::prelude::TestRng::from_name("packer");
        let (mut exact_fits, mut spills) = (0, 0);
        for case in 0..300 {
            let config = LzahConfig {
                word_bytes: [8, 12, 16][rng.below(3)],
                hash_bits: 4 + rng.below(7) as u8,
                newline_realign: true,
            };
            let page_bytes = 128 + rng.below(1024);
            let input = random_input(&mut rng, page_bytes);
            // The first frame's own length is a capacity it lands exactly
            // at; one byte less pushes its last line just past.
            let first = compress_paged_reference(&input, config, page_bytes)
                .first()
                .map_or(page_bytes, |f| f.0.len());
            for page in [page_bytes, first, first - 1]
                .into_iter()
                .filter(|&p| p >= 128)
            {
                let got = frames_of(&compress_paged(&input, config, page));
                let want = compress_paged_reference(&input, config, page);
                assert!(got == want, "case {case}: {config:?}, page {page}");
                exact_fits += got.iter().filter(|f| f.0.len() == page).count();
                spills += got.iter().filter(|f| f.3).count();
            }
        }
        assert!(
            exact_fits > 0 && spills > 0,
            "{exact_fits} exact, {spills} spills"
        );
    }

    #[test]
    fn empty_input_yields_no_pages() {
        let paged = compress_paged(b"", LzahConfig::default(), 4096);
        assert_eq!(paged.page_count(), 0);
        assert_eq!(paged.ratio(), 1.0);
    }
}
