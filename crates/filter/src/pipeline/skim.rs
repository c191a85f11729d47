//! The line skim in front of the fused walk of
//! [`FilterPipeline::filter_text_with_stats_into`](super::FilterPipeline::filter_text_with_stats_into):
//! it finds the lines that hold an anchor of the query as a whole token,
//! eight bytes per step in `u64` lanes, and counts the lines it passes over
//! as the walk would have counted them.

/// Lines passed over by [`skim`], counted as the walk counts them: every
/// non-empty line, and its bytes plus one for its newline.
#[derive(Debug, Default)]
pub(super) struct Skipped {
    pub(super) lines: u64,
    pub(super) bytes: u64,
}

/// `0x01` in every lane of a `u64`.
const LANE_LOW: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every lane of a `u64`.
const LANE_HIGH: u64 = 0x8080_8080_8080_8080;

/// `0x80` in each byte lane of `word` that equals `byte`, `0` elsewhere.
///
/// Exact in every lane, so it can be counted: `(y & 0x7f…) + 0x7f…` sets a
/// lane's top bit iff its low seven bits are not all zero and never
/// carries out of the lane. The borrow form `(y − 0x01…) & !y & 0x80…`
/// also flags a `0x01` lane above a zero lane, so it is only right for
/// the lowest flag.
#[inline]
fn lanes_equal(word: u64, byte: u8) -> u64 {
    let y = word ^ (LANE_LOW * u64::from(byte));
    !(((y & !LANE_HIGH) + !LANE_HIGH) | y) & LANE_HIGH
}

/// The eight bytes of `text` from `at` as a little-endian word; bytes past
/// the end read as zero.
#[inline]
fn word_at(text: &[u8], at: usize) -> u64 {
    let mut bytes = [0u8; 8];
    match text.get(at..at + 8) {
        Some(word) => bytes.copy_from_slice(word),
        None => {
            let tail = text.get(at..).unwrap_or_default();
            bytes[..tail.len()].copy_from_slice(tail);
        }
    }
    u64::from_le_bytes(bytes)
}

/// Whether `anchor` occurs at `at` as a whole token: the bytes on both
/// sides are delimiters, newlines or the edge of the text.
#[inline]
fn is_token_at(text: &[u8], at: usize, anchor: &[u8], classes: &[u8; 256]) -> bool {
    let end = at + anchor.len();
    text.get(at..end) == Some(anchor)
        && (at == 0 || classes[usize::from(text[at - 1])] != 0)
        && text.get(end).is_none_or(|&b| classes[usize::from(b)] != 0)
}

/// The zero lanes of `y`, flagged `0x80`, and perhaps a `0x01` lane above
/// one: the borrow form, one operation cheaper than [`lanes_equal`]. It
/// never misses a zero lane, so it can pick the candidates of a step; the
/// full compare of each candidate drops the extra ones.
#[inline]
fn zero_lanes(y: u64) -> u64 {
    y.wrapping_sub(LANE_LOW) & !y & LANE_HIGH
}

/// One past the last newline of `text[from..p]`, or `from` when it has
/// none: eight bytes per step backwards, by the highest newline lane.
fn line_start(text: &[u8], from: usize, p: usize) -> usize {
    let mut end = p;
    while end >= from + 8 {
        let newlines = lanes_equal(word_at(text, end - 8), b'\n');
        if newlines != 0 {
            return end - newlines.leading_zeros() as usize / 8;
        }
        end -= 8;
    }
    text[from..end]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(from, |i| from + i + 1)
}

/// The first-and-last-byte test of [`skim_with`] for `N` anchors.
struct Probe<const N: usize> {
    /// Each anchor's first byte in every lane.
    firsts: [u64; N],
    /// Each anchor's last byte in every lane.
    lasts: [u64; N],
    /// Each anchor's length less one: where its last byte lies.
    offsets: [usize; N],
    /// Bytes a step reads past its start: the longest offset plus a word.
    reach: usize,
}

impl<const N: usize> Probe<N> {
    fn new(anchors: [&[u8]; N]) -> Self {
        let offsets = anchors.map(|a| a.len() - 1);
        Probe {
            firsts: anchors.map(|a| LANE_LOW * u64::from(a[0])),
            lasts: anchors.map(|a| LANE_LOW * u64::from(a[a.len() - 1])),
            offsets,
            reach: offsets.iter().max().map_or(8, |o| o + 8),
        }
    }

    /// The word at `at` and the lanes where an anchor may start in it.
    #[inline(always)]
    fn step(&self, text: &[u8], at: usize) -> (u64, u64) {
        if at + self.reach <= text.len() {
            let load = |at: usize| {
                u64::from_le_bytes(text[at..at + 8].try_into().expect("a slice of eight"))
            };
            self.test(load(at), |k| load(at + self.offsets[k]))
        } else {
            self.test(word_at(text, at), |k| word_at(text, at + self.offsets[k]))
        }
    }

    /// Tests `word` and, for anchor `k`, the word `last(k)` at its last
    /// byte.
    #[inline(always)]
    fn test(&self, word: u64, last: impl Fn(usize) -> u64) -> (u64, u64) {
        let mut candidates = 0;
        for k in 0..N {
            candidates |= zero_lanes((word ^ self.firsts[k]) | (last(k) ^ self.lasts[k]));
        }
        (word, candidates)
    }
}

/// Newlines seen by [`skim_with`], and how many of them end an empty line.
#[derive(Debug)]
struct NewlineCount {
    newlines: u64,
    empty: u64,
    /// `0x80` in lane 0 when the byte before the next word is a newline.
    after_newline: u64,
}

impl Default for NewlineCount {
    /// A count from a line start: a newline there ends an empty line.
    fn default() -> Self {
        NewlineCount {
            newlines: 0,
            empty: 0,
            after_newline: 0x80,
        }
    }
}

impl NewlineCount {
    #[inline(always)]
    fn word(&mut self, word: u64) {
        let nl = lanes_equal(word, b'\n');
        self.newlines += lane_count(nl);
        let blank = nl & (nl << 8 | self.after_newline);
        if blank != 0 {
            self.empty += lane_count(blank);
        }
        self.after_newline = nl >> 56;
    }
}

/// Number of lanes flagged `0x80` in `flags`: the flags moved to bit 0 of
/// their lanes and summed into the top lane by one multiply.
#[inline]
fn lane_count(flags: u64) -> u64 {
    (flags >> 7).wrapping_mul(LANE_LOW) >> 56
}

/// Runs from line start `from` to the start of the first line that holds
/// one of `anchors` as a whole token, or to the end of the text, and
/// returns that position with the lines passed over. Passes over nothing
/// when there are more anchors than `MAX_ANCHORS`. Kept out of line so
/// that the walk loop of its caller stays as small as it is without it.
#[inline(never)]
pub(super) fn skim(
    text: &[u8],
    from: usize,
    anchors: &[Vec<u8>],
    classes: &[u8; 256],
) -> (usize, Skipped) {
    match anchors {
        [a] => skim_with([a.as_slice()], text, from, classes),
        [a, b] => skim_with([a.as_slice(), b.as_slice()], text, from, classes),
        _ => (from, Skipped::default()),
    }
}

/// [`skim`] with its anchors in an array, eight bytes per step.
///
/// A step tests each anchor by its first byte in the lanes of the word at
/// the step and its last byte in the word `len − 1` further on; only lanes
/// where both agree are compared in full. The same step counts the
/// newlines of its word and the newlines that end an empty line.
fn skim_with<const N: usize>(
    anchors: [&[u8]; N],
    text: &[u8],
    from: usize,
    classes: &[u8; 256],
) -> (usize, Skipped) {
    let probe = Probe::new(anchors);
    let mut count = NewlineCount::default();
    let mut at = from;
    let hit = 'steps: loop {
        // The hot loop holds only what a step without candidates needs.
        let (word, mut candidates) = loop {
            if at >= text.len() {
                break 'steps None;
            }
            let (word, candidates) = probe.step(text, at);
            if candidates != 0 {
                break (word, candidates);
            }
            count.word(word);
            at += 8;
        };
        while candidates != 0 {
            let p = at + candidates.trailing_zeros() as usize / 8;
            candidates &= candidates - 1;
            if anchors.iter().any(|a| is_token_at(text, p, a, classes)) {
                break 'steps Some(p);
            }
        }
        count.word(word);
        at += 8;
    };
    let NewlineCount {
        mut newlines,
        mut empty,
        ..
    } = count;
    let end = match hit {
        Some(p) => {
            // Back up to the start of the hit's line; the newlines between
            // the step and that start were not counted yet.
            let start = line_start(text, from, p);
            for j in (at..start).filter(|&j| text[j] == b'\n') {
                newlines += 1;
                empty += u64::from(j == 0 || text[j - 1] == b'\n');
            }
            start
        }
        None => text.len(),
    };
    // A last line without a newline is counted as if it had one.
    let unterminated = u64::from(hit.is_none() && end > from && text[end - 1] != b'\n');
    let passed = Skipped {
        lines: newlines - empty + unterminated,
        bytes: (end - from) as u64 - empty + unterminated,
    };
    (end, passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte value in every lane, each preceded (in the lane below
    /// and in every lane further down) by `0x00`, `0x0A` and `0xFF`: the
    /// counting mask must flag exactly the lanes a bytewise compare does.
    /// `0x0B` after `\n` is where the borrow form `(y − 0x01…) & !y & 0x80…`
    /// flags a lane that is no newline.
    #[test]
    fn counting_mask_is_exact_in_every_lane() {
        for target in [b'\n', 0x00, 0x0B, 0x80, 0xFF] {
            for before in [0x00, 0x0A, 0xFF] {
                for value in 0..=255u8 {
                    for lane in 0..8 {
                        let mut bytes = [before; 8];
                        bytes[lane] = value;
                        let mask = lanes_equal(u64::from_le_bytes(bytes), target);
                        let want = bytes
                            .iter()
                            .enumerate()
                            .map(|(i, &b)| u64::from(b == target) << (8 * i + 7))
                            .fold(0, |acc, bit| acc | bit);
                        assert_eq!(
                            mask, want,
                            "target {target:#04x} value {value:#04x} in lane {lane} after {before:#04x}"
                        );
                        let equal = bytes.iter().filter(|&&b| b == target).count() as u64;
                        assert_eq!(lane_count(mask), equal);
                        // The candidate form may flag more lanes, never fewer.
                        let y = u64::from_le_bytes(bytes) ^ (LANE_LOW * u64::from(target));
                        assert_eq!(zero_lanes(y) & want, want);
                    }
                }
            }
        }
    }

    #[test]
    fn line_start_is_one_past_the_last_newline_before_the_hit() {
        let text = b"\nab\n\ncdefghijklmnopqrstuvwxyz\nABCDEFGHIJ\x0b\x0b\x0bKLMNOP";
        for from in (0..text.len()).filter(|&i| i == 0 || text[i - 1] == b'\n') {
            for p in from..=text.len() {
                let want = text[from..p]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(from, |i| from + i + 1);
                assert_eq!(line_start(text, from, p), want, "from {from} p {p}");
            }
        }
    }
}
