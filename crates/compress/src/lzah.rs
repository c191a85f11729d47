//! LZAH — "LZ Aligned Header" (paper §5, Figures 8–10).
//!
//! LZAH is LZRW1 restructured for hardware: instead of sliding byte by
//! byte, a fixed *word-size window* (16 bytes in the prototype) moves across
//! the input in word-aligned steps. A hash table of recently seen words is
//! probed each step; a hit emits a 1-bit header plus the table index, a miss
//! emits a 0-bit header plus the literal word and stores it. Two further
//! twists make it effective on logs and trivial in hardware:
//!
//! * **Newline realignment** — when the window contains a newline, the
//!   window is cut after the `\n` (zero-padded for table storage) and the
//!   next window starts at the following character. Patterns that recur at
//!   the same *intra-line* offsets (timestamps, template text) therefore
//!   land on identical window contents line after line.
//! * **Aligned header chunks** — 128 header bits are gathered into one
//!   16-byte word followed by the 128 packed payloads, padded to a word
//!   boundary, so the decoder parses headers without any shifter and
//!   payloads with a simple multi-cycle shifter.
//!
//! The decoder emits exactly one word per pair per cycle, which is why the
//! hardware implementation is deterministic at 3.2 GB/s per pipeline.

use crate::error::DecompressError;
use crate::Codec;

/// Frame header: magic(4) ver(1) word(1) hash_bits(1) flags(1)
/// original_len(8) pair_count(8).
const HEADER_LEN: usize = 24;
const MAGIC: &[u8; 4] = b"LZAH";
const FLAG_NEWLINE_REALIGN: u8 = 1;

/// Configuration of the LZAH codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LzahConfig {
    /// Window/word size in bytes; the prototype uses 16 to match the filter
    /// datapath.
    pub word_bytes: usize,
    /// log2 of hash table entries. The paper's "modestly sized 16 KB hash
    /// table" is 1024 × 16-byte entries → 10 bits.
    pub hash_bits: u8,
    /// Enable the newline realignment rule. Disabling it reproduces the
    /// "significant drop in compression efficiency" the paper reclaims
    /// (ablation `ablate_lzah_newline`).
    pub newline_realign: bool,
}

impl Default for LzahConfig {
    fn default() -> Self {
        LzahConfig {
            word_bytes: 16,
            hash_bits: 10,
            newline_realign: true,
        }
    }
}

impl LzahConfig {
    /// Number of hash table entries.
    pub fn table_entries(&self) -> usize {
        1 << self.hash_bits
    }

    /// Header-payload pairs per chunk: one word of header bits.
    pub fn pairs_per_chunk(&self) -> usize {
        8 * self.word_bytes
    }
}

/// The LZAH codec; the format is described at the top of this module's
/// source (`lzah.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lzah {
    config: LzahConfig,
}

/// Reusable decoder workspace for [`Lzah::decompress_into`].
///
/// Holds the decoder hash table and the output buffer. After the first
/// decode sized them, subsequent decodes of same-or-smaller frames reuse the
/// allocations — the steady-state scan loop performs zero heap allocations
/// per page.
#[derive(Debug, Default, Clone)]
pub struct LzahScratch {
    table: Vec<u8>,
    out: Vec<u8>,
}

impl LzahScratch {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        LzahScratch::default()
    }

    /// Consumes the workspace, yielding the most recent decode's output.
    pub fn into_output(self) -> Vec<u8> {
        self.out
    }
}

impl Lzah {
    /// Creates a codec with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `word_bytes` is 0 or `hash_bits` > 16 (indices are encoded
    /// in two bytes).
    pub fn new(config: LzahConfig) -> Self {
        assert!(config.word_bytes > 0, "word size must be positive");
        assert!(config.hash_bits <= 16, "indices are encoded in two bytes");
        Lzah { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LzahConfig {
        &self.config
    }

    /// Decompresses into the *aligned* representation the hardware feeds to
    /// the tokenizer: every window word is emitted at full width, so each
    /// newline is followed by zero padding up to the word boundary ("emit a
    /// zero-padded word to make the tokenizer's work easier", Figure 10).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Codec::decompress`].
    pub fn decompress_aligned(&self, input: &[u8]) -> Result<Vec<u8>, DecompressError> {
        let mut scratch = LzahScratch::new();
        decode_with(input, &mut scratch, Emit::Aligned)?;
        Ok(scratch.into_output())
    }

    /// Decompresses into `scratch`, reusing its hash table and output buffer
    /// across calls, and returns the decoded bytes as a slice
    /// borrowed from the workspace. After warm-up this performs no heap
    /// allocation — the scan hot path calls it once per page.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Codec::decompress`].
    pub fn decompress_into<'s>(
        &self,
        input: &[u8],
        scratch: &'s mut LzahScratch,
    ) -> Result<&'s [u8], DecompressError> {
        decode_with(input, scratch, Emit::Exact)?;
        Ok(scratch.out.as_slice())
    }

    /// Length in bytes of the LZAH frame at the start of `input`, ignoring
    /// any trailing padding (e.g. the zero fill of a storage page). Walks
    /// the chunk structure alone — header, per-chunk header bits, payload
    /// sizes and reference bounds — without materializing the decoder hash
    /// table or any output.
    ///
    /// # Errors
    ///
    /// Rejects malformed headers, truncated frames and out-of-range match
    /// references like [`Codec::decompress`]. Content-level validation (the
    /// declared `original_len` matching the decoded stream) requires
    /// decoding the words themselves and is left to `decompress`.
    pub fn frame_bytes(&self, input: &[u8]) -> Result<usize, DecompressError> {
        let hdr = FrameHeader::parse(input)?;
        let entries = 1usize << hdr.hash_bits;
        let pairs_per_chunk = 8 * hdr.w;
        let mut pos = HEADER_LEN;
        let mut pairs_done = 0usize;

        while pairs_done < hdr.pair_count {
            if pos + hdr.w > input.len() {
                return Err(DecompressError::Truncated { at: pos });
            }
            let header = &input[pos..pos + hdr.w];
            pos += hdr.w;
            let chunk_pairs = pairs_per_chunk.min(hdr.pair_count - pairs_done);
            let payload_start = pos;
            for i in 0..chunk_pairs {
                let is_match = header[i / 8] & (1 << (i % 8)) != 0;
                if is_match {
                    if pos + 2 > input.len() {
                        return Err(DecompressError::Truncated { at: pos });
                    }
                    let idx = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
                    if idx >= entries {
                        return Err(DecompressError::BadReference { at: pos });
                    }
                    pos += 2;
                } else {
                    if pos + hdr.w > input.len() {
                        return Err(DecompressError::Truncated { at: pos });
                    }
                    pos += hdr.w;
                }
            }
            let payload_len = pos - payload_start;
            let padded = payload_len.div_ceil(hdr.w) * hdr.w;
            pos = payload_start + padded;
            pairs_done += chunk_pairs;
        }
        Ok(pos)
    }
}

/// The parsed 24-byte LZAH frame header. Its two length fields are bounded
/// by what the input can hold before anything sizes a buffer from them.
struct FrameHeader {
    w: usize,
    hash_bits: u8,
    realign: bool,
    original_len: usize,
    pair_count: usize,
}

impl FrameHeader {
    fn parse(input: &[u8]) -> Result<FrameHeader, DecompressError> {
        if input.len() < HEADER_LEN {
            return Err(DecompressError::BadHeader {
                reason: "input shorter than header",
            });
        }
        if &input[..4] != MAGIC {
            return Err(DecompressError::BadHeader {
                reason: "missing LZAH magic",
            });
        }
        if input[4] != 1 {
            return Err(DecompressError::BadHeader {
                reason: "unsupported version",
            });
        }
        let w = input[5] as usize;
        let hash_bits = input[6];
        if w == 0 || hash_bits > 16 {
            return Err(DecompressError::BadHeader {
                reason: "invalid word size or hash bits",
            });
        }
        let field = |at: usize| {
            let raw = u64::from_le_bytes(input[at..at + 8].try_into().expect("8 bytes"));
            usize::try_from(raw).map_err(|_| DecompressError::BadHeader {
                reason: "length field exceeds the address space",
            })
        };
        let (original_len, pair_count) = (field(8)?, field(16)?);
        // Every pair costs at least a 2-byte index or a `w`-byte literal of
        // payload, and decodes to at most `w` bytes.
        if pair_count > (input.len() - HEADER_LEN) / w.min(2) {
            return Err(DecompressError::Truncated { at: input.len() });
        }
        let most = pair_count.saturating_mul(w);
        if original_len > most {
            return Err(DecompressError::LengthMismatch {
                expected: original_len,
                got: most,
            });
        }
        Ok(FrameHeader {
            w,
            hash_bits,
            realign: input[7] & FLAG_NEWLINE_REALIGN != 0,
            original_len,
            pair_count,
        })
    }
}

/// What a decode leaves in [`LzahScratch::out`].
#[derive(Clone, Copy)]
enum Emit {
    /// The original bytes: each word advances the output by its useful
    /// length.
    Exact,
    /// Every word at full width ([`Lzah::decompress_aligned`]).
    Aligned,
}

/// The full decoder, writing through a caller-owned workspace so a reused
/// [`LzahScratch`] decodes without allocating. On `Err` the workspace's
/// output is empty.
fn decode_with(input: &[u8], scratch: &mut LzahScratch, emit: Emit) -> Result<(), DecompressError> {
    let result = FrameHeader::parse(input).and_then(|hdr| match hdr.w {
        // The prototype's word: a width the compiler knows turns the word
        // moves and the hash into straight-line 16-byte code.
        16 => decode_words::<16>(input, &hdr, scratch, emit),
        _ => decode_words::<0>(input, &hdr, scratch, emit),
    });
    if result.is_err() {
        scratch.out.clear();
    }
    result
}

/// The one decode loop. `W` is the frame's word width when known at compile
/// time, or 0 to take it from the header.
fn decode_words<const W: usize>(
    input: &[u8],
    hdr: &FrameHeader,
    scratch: &mut LzahScratch,
    emit: Emit,
) -> Result<(), DecompressError> {
    let w = if W == 0 { hdr.w } else { W };
    let (hash_bits, realign) = (hdr.hash_bits, hdr.realign);
    let (original_len, pair_count) = (hdr.original_len, hdr.pair_count);
    let LzahScratch { table, out } = scratch;

    let entries = 1usize << hash_bits;
    // The decoder table must start zeroed to mirror the encoder's; clearing
    // then re-extending zero-fills without reallocating once capacity is
    // established.
    table.clear();
    table.resize(entries * w, 0);
    // Every pair writes one whole word at the output cursor and then moves
    // the cursor by the word's useful length, so the exact stream needs one
    // word of slack past `original_len`. `FrameHeader::parse` bounded both
    // lengths by the input, so neither sum is a header's to choose.
    let out_len = match emit {
        Emit::Exact => original_len.checked_add(w),
        Emit::Aligned => pair_count.checked_mul(w),
    }
    .ok_or(DecompressError::BadHeader {
        reason: "declared length overflows",
    })?;
    out.resize(out_len, 0);

    let pairs_per_chunk = 8 * w;
    let mut pos = HEADER_LEN;
    let mut cursor = 0usize;
    let mut emitted = 0usize;
    let mut pairs_done = 0usize;

    while pairs_done < pair_count {
        // One header word, then the chunk's packed payloads.
        let header = input
            .get(pos..pos + w)
            .ok_or(DecompressError::Truncated { at: pos })?;
        pos += w;
        let chunk_pairs = pairs_per_chunk.min(pair_count - pairs_done);
        let payload_start = pos;
        for i in 0..chunk_pairs {
            let is_match = header[i / 8] & (1 << (i % 8)) != 0;
            let word = &mut out[cursor..cursor + w];
            if is_match {
                let index = input
                    .get(pos..pos + 2)
                    .ok_or(DecompressError::Truncated { at: pos })?;
                let idx = u16::from_le_bytes([index[0], index[1]]) as usize;
                pos += 2;
                if idx >= entries {
                    return Err(DecompressError::BadReference { at: emitted });
                }
                word.copy_from_slice(&table[idx * w..][..w]);
            } else {
                let literal = input
                    .get(pos..pos + w)
                    .ok_or(DecompressError::Truncated { at: pos })?;
                word.copy_from_slice(literal);
                pos += w;
                let idx = hash_word(word, hash_bits);
                table[idx * w..][..w].copy_from_slice(word);
            }
            // Useful length of the word: cut after the first newline when
            // realignment is on (mirroring the encoder), clamped to the
            // bytes remaining.
            let cut = if realign { newline_cut(word) } else { w };
            let advance = cut.min(original_len - emitted);
            emitted += advance;
            cursor += match emit {
                Emit::Exact => advance,
                Emit::Aligned => w,
            };
        }
        // Chunks are padded to a word boundary (Figure 9).
        let payload_len = pos - payload_start;
        let padded = payload_len.div_ceil(w) * w;
        pos = payload_start + padded;
        pairs_done += chunk_pairs;
    }

    if emitted != original_len {
        return Err(DecompressError::LengthMismatch {
            expected: original_len,
            got: emitted,
        });
    }
    out.truncate(cursor);
    Ok(())
}

/// Length of `word` up to and including its first `\n`, or `word.len()`
/// when it has none — `position(b'\n')` eight bytes per step. Encoder and
/// decoder cut their windows with this one function.
#[inline]
fn newline_cut(word: &[u8]) -> usize {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    for (n, lane) in word.chunks(8).enumerate() {
        // A short last lane is zero-extended; zero is not a newline.
        let mut bytes = [0u8; 8];
        bytes[..lane.len()].copy_from_slice(lane);
        // XOR turns newlines into zero bytes; the zero-byte test can only
        // misfire above a true zero, so the lowest flag is always exact.
        let x = u64::from_le_bytes(bytes) ^ (LOW * u64::from(b'\n'));
        let flags = x.wrapping_sub(LOW) & !x & HIGH;
        if flags != 0 {
            return n * 8 + flags.trailing_zeros() as usize / 8 + 1;
        }
    }
    word.len()
}

#[inline]
fn hash_word(word: &[u8], hash_bits: u8) -> usize {
    // FNV-1a over the (padded) word, folded to the table width. The encoder
    // and decoder must agree bit for bit; both call this function.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in word {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 29;
    (h & ((1 << hash_bits) - 1)) as usize
}

/// Streaming LZAH encoder with checkpoint/rollback, used for packing pages
/// (each storage page must decompress independently, so the page builder
/// needs to know exactly when adding one more line would overflow the page).
///
/// Every buffer lives as long as the encoder: a page packer reuses one
/// encoder, its window and its checkpoint for every frame it builds, so
/// packing allocates once per frame (the finished frame), not per line or
/// word.
#[derive(Debug, Clone)]
pub(crate) struct LzahStreamEncoder {
    config: LzahConfig,
    table: Vec<u8>,
    /// The frame's chunks so far, the open one included: each is one
    /// header word followed by its packed payloads. Closed chunks are
    /// padded to a word boundary, so every chunk starts word-aligned.
    chunks: Vec<u8>,
    /// Offset in `chunks` of the open chunk's header word (valid while
    /// `pairs_in_chunk > 0`).
    header_at: usize,
    /// The current window word, zero-padded after a newline cut.
    window: Vec<u8>,
    pairs_in_chunk: usize,
    total_pairs: usize,
    original_len: usize,
    /// The state before the current trial push.
    trial: Checkpoint,
}

/// A rollback checkpoint: the encoder's scalar state plus an undo log of
/// the table words a trial push overwrote. Reused across trials; the log
/// keeps its capacity.
#[derive(Debug, Clone, Default)]
struct Checkpoint {
    chunks_len: usize,
    header_at: usize,
    pairs_in_chunk: usize,
    total_pairs: usize,
    original_len: usize,
    /// Table slots overwritten since the checkpoint, in write order.
    undo_slots: Vec<usize>,
    /// Their previous contents, one word per entry of `undo_slots`.
    undo_words: Vec<u8>,
}

impl LzahStreamEncoder {
    pub(crate) fn new(config: LzahConfig) -> Self {
        LzahStreamEncoder {
            table: vec![0u8; config.table_entries() * config.word_bytes],
            chunks: Vec::new(),
            header_at: 0,
            window: vec![0u8; config.word_bytes],
            pairs_in_chunk: 0,
            total_pairs: 0,
            original_len: 0,
            trial: Checkpoint::default(),
            config,
        }
    }

    /// Exact size of the frame if finished now: the open chunk's payload
    /// rounds up to a word like a closed one's.
    pub(crate) fn frame_len(&self) -> usize {
        HEADER_LEN + self.chunks.len().next_multiple_of(self.config.word_bytes)
    }

    pub(crate) fn original_len(&self) -> usize {
        self.original_len
    }

    /// An upper bound on how much pushing a `len`-byte span (no newline
    /// before its last byte) can grow [`frame_len`](Self::frame_len).
    ///
    /// With a word of `w` bytes, every window of such a span but the last
    /// is a full word, so the push emits `p = ⌈len / w⌉` pairs. Each pair
    /// adds one header bit and one payload: a literal word or a two-byte
    /// table index. A chunk's payload is padded to a word boundary, and the
    /// padded payload of `n` pairs is at most `n·max(w, 2)` bytes (for
    /// `w ≥ 2` the sum is at most `n·w`, a multiple of `w`; for `w = 1`
    /// nothing pads), so the pairs grow the chunks they join by at most
    /// `p·max(w, 2)`. A chunk's `8w` header bits fill one word, so the
    /// pairs open at most `c = ⌈p / 8w⌉` new chunks, each adding one header
    /// word. The growth is at most `p·max(w, 2) + c·w`.
    pub(crate) fn max_line_growth(&self, len: usize) -> usize {
        let w = self.config.word_bytes;
        let pairs = len.div_ceil(w);
        let chunks = pairs.div_ceil(self.config.pairs_per_chunk());
        pairs * w.max(2) + chunks * w
    }

    /// Pushes `bytes` (no newline before its last byte) when the frame
    /// then still fits in `limit` bytes, and reports whether it did; on
    /// `false` the encoder is as it was. The push is a trial (checkpoint,
    /// push, roll back on overflow) only when
    /// [`max_line_growth`](Self::max_line_growth) says it could cross the
    /// limit; otherwise it cannot overflow and goes straight in.
    pub(crate) fn push_within(&mut self, bytes: &[u8], limit: usize) -> bool {
        if self.frame_len() + self.max_line_growth(bytes.len()) <= limit {
            self.push_bytes(bytes, false);
            return true;
        }
        self.checkpoint();
        self.push_bytes(bytes, true);
        let fits = self.frame_len() <= limit;
        if !fits {
            self.rollback();
        }
        fits
    }

    /// Records the encoder's state for [`rollback`](Self::rollback),
    /// clearing the undo log.
    pub(crate) fn checkpoint(&mut self) {
        let cp = &mut self.trial;
        cp.chunks_len = self.chunks.len();
        cp.header_at = self.header_at;
        cp.pairs_in_chunk = self.pairs_in_chunk;
        cp.total_pairs = self.total_pairs;
        cp.original_len = self.original_len;
        cp.undo_slots.clear();
        cp.undo_words.clear();
    }

    /// Restores the state the last [`checkpoint`](Self::checkpoint)
    /// recorded, undoing every push since (each must have logged its table
    /// writes).
    pub(crate) fn rollback(&mut self) {
        let w = self.config.word_bytes;
        let cp = &self.trial;
        self.chunks.truncate(cp.chunks_len);
        if cp.pairs_in_chunk > 0 {
            // Pushes since the checkpoint may have set header bits of later
            // pairs in the chunk that was open then.
            let header = &mut self.chunks[cp.header_at..cp.header_at + w];
            for i in cp.pairs_in_chunk..self.config.pairs_per_chunk() {
                header[i / 8] &= !(1 << (i % 8));
            }
        }
        self.header_at = cp.header_at;
        self.pairs_in_chunk = cp.pairs_in_chunk;
        self.total_pairs = cp.total_pairs;
        self.original_len = cp.original_len;
        // Undo table writes in reverse order.
        for (k, &idx) in cp.undo_slots.iter().enumerate().rev() {
            self.table[idx * w..(idx + 1) * w].copy_from_slice(&cp.undo_words[k * w..(k + 1) * w]);
        }
    }

    /// Appends one pair whose payload is the table index `idx` (a match)
    /// or the current window (a literal).
    fn push_pair(&mut self, is_match: bool, idx: usize) {
        let w = self.config.word_bytes;
        if self.pairs_in_chunk == 0 {
            self.header_at = self.chunks.len();
            self.chunks.resize(self.header_at + w, 0);
        }
        if is_match {
            let i = self.pairs_in_chunk;
            self.chunks[self.header_at + i / 8] |= 1 << (i % 8);
            self.chunks.extend_from_slice(&(idx as u16).to_le_bytes());
        } else {
            self.chunks.extend_from_slice(&self.window);
        }
        self.pairs_in_chunk += 1;
        self.total_pairs += 1;
        if self.pairs_in_chunk == self.config.pairs_per_chunk() {
            self.close_chunk();
        }
    }

    /// Pads the open chunk's payload to a word boundary (Figure 9).
    fn close_chunk(&mut self) {
        if self.pairs_in_chunk == 0 {
            return;
        }
        let padded = self.chunks.len().next_multiple_of(self.config.word_bytes);
        self.chunks.resize(padded, 0);
        self.pairs_in_chunk = 0;
    }

    /// Encodes a byte span (typically one line, *including* its newline),
    /// logging table overwrites for a rollback when `undo` is set.
    pub(crate) fn push_bytes(&mut self, bytes: &[u8], undo: bool) {
        let w = self.config.word_bytes;
        let mut pos = 0;
        while pos < bytes.len() {
            let avail = &bytes[pos..bytes.len().min(pos + w)];
            let advance = if self.config.newline_realign {
                newline_cut(avail)
            } else {
                avail.len()
            };
            // Zero-pad the window after a newline (or the input's end) so
            // next-line bytes are excluded from the stored word.
            self.window[..advance].copy_from_slice(&avail[..advance]);
            self.window[advance..].fill(0);
            let idx = hash_word(&self.window, self.config.hash_bits);
            let slot = &mut self.table[idx * w..(idx + 1) * w];
            let is_match = *slot == *self.window;
            if !is_match {
                if undo {
                    self.trial.undo_slots.push(idx);
                    self.trial.undo_words.extend_from_slice(slot);
                }
                slot.copy_from_slice(&self.window);
            }
            self.push_pair(is_match, idx);
            pos += advance;
            self.original_len += advance;
        }
    }

    /// Finishes the frame, returns its bytes and resets the encoder for
    /// the next frame (empty table, no pairs), keeping every buffer.
    pub(crate) fn finish(&mut self) -> Vec<u8> {
        self.close_chunk();
        let mut out = Vec::with_capacity(HEADER_LEN + self.chunks.len());
        out.extend_from_slice(MAGIC);
        out.push(1);
        out.push(self.config.word_bytes as u8);
        out.push(self.config.hash_bits);
        out.push(if self.config.newline_realign {
            FLAG_NEWLINE_REALIGN
        } else {
            0
        });
        out.extend_from_slice(&(self.original_len as u64).to_le_bytes());
        out.extend_from_slice(&(self.total_pairs as u64).to_le_bytes());
        out.extend_from_slice(&self.chunks);
        self.table.fill(0);
        self.chunks.clear();
        self.total_pairs = 0;
        self.original_len = 0;
        out
    }
}

impl Codec for Lzah {
    fn name(&self) -> &'static str {
        "LZAH"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut enc = LzahStreamEncoder::new(self.config);
        enc.push_bytes(input, false);
        enc.finish()
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, DecompressError> {
        let mut scratch = LzahScratch::new();
        self.decompress_into(input, &mut scratch)?;
        Ok(scratch.into_output())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::log_corpus;

    fn roundtrip(input: &[u8]) {
        let codec = Lzah::default();
        let packed = codec.compress(input);
        let unpacked = codec.decompress(&packed).expect("decompress");
        assert_eq!(
            unpacked,
            input,
            "round trip failed for {} bytes",
            input.len()
        );
    }

    #[test]
    fn empty_input_round_trips() {
        roundtrip(b"");
    }

    #[test]
    fn codec_is_shareable_across_scan_workers() {
        // Each parallel-scan worker builds a thread-local codec from the
        // `Copy` config; the codec itself holds no interior state, so it is
        // freely sendable and shareable.
        fn assert_worker_safe<T: Send + Sync + Clone>() {}
        assert_worker_safe::<Lzah>();
        assert_worker_safe::<LzahConfig>();
    }

    #[test]
    fn short_inputs_round_trip() {
        roundtrip(b"a");
        roundtrip(b"\n");
        roundtrip(b"hello world\n");
        roundtrip(b"exactly-16-bytes");
        roundtrip(b"exactly-16-bytes\n");
    }

    #[test]
    fn log_corpus_round_trips_and_compresses() {
        let corpus = log_corpus();
        let codec = Lzah::default();
        let packed = codec.compress(&corpus);
        assert_eq!(codec.decompress(&packed).unwrap(), corpus);
        let ratio = corpus.len() as f64 / packed.len() as f64;
        assert!(
            ratio > 2.0,
            "log-like data should compress >2x, got {ratio:.2}"
        );
    }

    #[test]
    fn repeated_identical_lines_compress_hard() {
        let line = b"2005.06.03 R02-M1-N0 RAS KERNEL INFO cache parity error\n";
        let corpus: Vec<u8> = line
            .iter()
            .copied()
            .cycle()
            .take(line.len() * 200)
            .collect();
        let codec = Lzah::default();
        let ratio = codec.ratio(&corpus);
        // Every window after the first line hits the table: ratio near
        // W / 2 ≈ 8 minus header overhead.
        assert!(ratio > 5.0, "ratio {ratio:.2}");
        roundtrip(&corpus);
    }

    #[test]
    fn incompressible_data_round_trips_with_bounded_expansion() {
        // Pseudo-random bytes: virtually no window repeats.
        let mut x: u64 = 0x1234_5678;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let codec = Lzah::default();
        let packed = codec.compress(&data);
        assert!(packed.len() < data.len() + data.len() / 8 + 64);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn newline_realignment_improves_log_compression() {
        // Lines of varying length would misalign fixed windows; realignment
        // recovers the shared prefixes.
        let mut corpus = Vec::new();
        for i in 0..500 {
            corpus.extend_from_slice(
                format!("Jun 03 04:01:07 node-{:03} daemon restarted ok\n", i % 10).as_bytes(),
            );
        }
        let with = Lzah::new(LzahConfig::default()).ratio(&corpus);
        let without = Lzah::new(LzahConfig {
            newline_realign: false,
            ..LzahConfig::default()
        })
        .ratio(&corpus);
        assert!(
            with > without,
            "realign {with:.2} should beat no-realign {without:.2}"
        );
    }

    #[test]
    fn no_realign_config_still_round_trips() {
        let codec = Lzah::new(LzahConfig {
            newline_realign: false,
            ..LzahConfig::default()
        });
        let corpus = log_corpus();
        let packed = codec.compress(&corpus);
        assert_eq!(codec.decompress(&packed).unwrap(), corpus);
    }

    #[test]
    fn aligned_mode_pads_after_newlines() {
        let codec = Lzah::default();
        let input = b"short\nlonger line here\n";
        let packed = codec.compress(input);
        let aligned = codec.decompress_aligned(&packed).unwrap();
        // Every emitted word is full width, so output length is a multiple
        // of the word size and newlines are followed by zeros.
        assert_eq!(aligned.len() % 16, 0);
        let nl = aligned.iter().position(|&b| b == b'\n').unwrap();
        assert_eq!(nl, 5);
        assert!(aligned[6..16].iter().all(|&b| b == 0));
        // Stripping pad zeros after newlines recovers the exact stream.
        let exact = codec.decompress(&packed).unwrap();
        assert_eq!(exact, input);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let codec = Lzah::default();
        let mut packed = codec.compress(b"hello\n");
        packed[0] = b'X';
        assert!(matches!(
            codec.decompress(&packed),
            Err(DecompressError::BadHeader { .. })
        ));
    }

    #[test]
    fn truncated_stream_rejected() {
        let codec = Lzah::default();
        let packed = codec.compress(&log_corpus());
        for cut in [HEADER_LEN - 1, HEADER_LEN + 3, packed.len() / 2] {
            assert!(
                codec.decompress(&packed[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn stream_encoder_rollback_restores_state() {
        let cfg = LzahConfig::default();
        let mut enc = LzahStreamEncoder::new(cfg);
        enc.push_bytes(b"first line of text here\n", false);
        let baseline_len = enc.frame_len();
        enc.checkpoint();
        enc.push_bytes(b"second line that will be rolled back\n", true);
        assert!(enc.frame_len() > baseline_len);
        enc.rollback();
        assert_eq!(enc.frame_len(), baseline_len);
        // After rollback the encoder must behave as if the second line never
        // happened: finishing now must decode to only the first line.
        let packed = enc.finish();
        let out = Lzah::default().decompress(&packed).unwrap();
        assert_eq!(out, b"first line of text here\n");
    }

    #[test]
    fn rollback_across_a_chunk_flush_restores_payload() {
        // Regression: a checkpoint taken mid-chunk, followed by a push that
        // crosses the 128-pair chunk boundary (padding the chunk and setting
        // header bits past the checkpoint), must restore the partial chunk
        // on rollback: the frame equals one that never saw the pushes.
        let cfg = LzahConfig::default();
        let mut enc = LzahStreamEncoder::new(cfg);
        let line = "unique-prefix abcdefghij klmnopqrst 0123456789\n";
        // Fill close to (but below) one chunk: each line is 3 windows.
        for i in 0..40 {
            enc.push_bytes(format!("{i:03}{line}").as_bytes(), false);
        }
        enc.checkpoint();
        // This push crosses the 128-pair boundary.
        for i in 0..10 {
            enc.push_bytes(format!("x{i}{line}").as_bytes(), true);
        }
        enc.rollback();
        enc.push_bytes(b"final line\n", false);
        let packed = enc.finish();
        let out = Lzah::default().decompress(&packed).expect("valid frame");
        let mut expect = Vec::new();
        for i in 0..40 {
            expect.extend_from_slice(format!("{i:03}{line}").as_bytes());
        }
        expect.extend_from_slice(b"final line\n");
        assert_eq!(out, expect);
        assert_eq!(packed, Lzah::default().compress(&expect));
    }

    #[test]
    fn decompress_into_reuses_scratch_and_matches_decompress() {
        let codec = Lzah::default();
        let corpus = log_corpus();
        let big = codec.compress(&corpus);
        let small = codec.compress(b"short frame\n");
        let mut scratch = LzahScratch::new();
        // Alternate frame sizes through one workspace; every decode must
        // match the one-shot path byte for byte.
        for packed in [&big, &small, &big, &small, &big] {
            let got = codec.decompress_into(packed, &mut scratch).unwrap();
            assert_eq!(got, codec.decompress(packed).unwrap());
        }
    }

    #[test]
    fn frame_bytes_walks_structure_without_decoding() {
        let codec = Lzah::default();
        let corpus = log_corpus();
        let packed = codec.compress(&corpus);
        // The structure walk agrees with the full decode's consumed length,
        // including when the frame sits inside a zero-padded page.
        let mut padded = packed.clone();
        padded.resize(packed.len() + 512, 0);
        assert_eq!(codec.frame_bytes(&padded).unwrap(), packed.len());
        // Structural faults are still caught.
        for cut in [HEADER_LEN - 1, HEADER_LEN + 3, packed.len() / 2] {
            assert!(
                codec.frame_bytes(&packed[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let mut bad_magic = packed;
        bad_magic[0] = b'X';
        assert!(matches!(
            codec.frame_bytes(&bad_magic),
            Err(DecompressError::BadHeader { .. })
        ));
    }

    #[test]
    fn frame_len_matches_actual_output() {
        let cfg = LzahConfig::default();
        let mut enc = LzahStreamEncoder::new(cfg);
        for i in 0..100 {
            enc.push_bytes(
                format!("line number {i} with some text\n").as_bytes(),
                false,
            );
        }
        let predicted = enc.frame_len();
        let actual = enc.finish().len();
        assert_eq!(predicted, actual);
    }

    #[test]
    fn multi_chunk_streams_round_trip() {
        // >128 pairs forces multiple chunks.
        let corpus: Vec<u8> = (0..3000)
            .map(|i| {
                if i % 47 == 0 {
                    b'\n'
                } else {
                    b'a' + (i % 23) as u8
                }
            })
            .collect();
        roundtrip(&corpus);
    }

    #[test]
    fn eight_byte_word_config_round_trips() {
        let codec = Lzah::new(LzahConfig {
            word_bytes: 8,
            hash_bits: 11,
            newline_realign: true,
        });
        let corpus = log_corpus();
        let packed = codec.compress(&corpus);
        assert_eq!(codec.decompress(&packed).unwrap(), corpus);
    }

    #[test]
    fn odd_width_word_config_round_trips() {
        // 12 is neither the compiled-in width nor a whole number of 8-byte
        // lanes: the header-width instantiation and the short last lane.
        let codec = Lzah::new(LzahConfig {
            word_bytes: 12,
            hash_bits: 9,
            newline_realign: true,
        });
        let corpus = log_corpus();
        let packed = codec.compress(&corpus);
        assert_eq!(codec.decompress(&packed).unwrap(), corpus);
        let aligned = codec.decompress_aligned(&packed).unwrap();
        assert_eq!(aligned.len() % 12, 0);
        let stripped: Vec<u8> = aligned.into_iter().filter(|&b| b != 0).collect();
        assert_eq!(stripped, corpus);
    }

    #[test]
    fn newline_cut_equals_position() {
        fn reference(word: &[u8]) -> usize {
            word.iter()
                .position(|&b| b == b'\n')
                .map_or(word.len(), |k| k + 1)
        }
        // Fill bytes include the newline's bit-neighbours and a high-bit
        // twin, the values a careless lane test confuses with 0x0A.
        for fill in [b'a', 0x00, 0x09, 0x0B, 0x8A, 0x80, 0xFF] {
            for w in [1usize, 7, 8, 16, 24] {
                let plain = vec![fill; w];
                assert_eq!(newline_cut(&plain), w, "fill {fill:#x} w {w}");
                for first in 0..w {
                    let mut word = plain.clone();
                    word[first] = b'\n';
                    assert_eq!(newline_cut(&word), first + 1);
                    // Later newlines never move the cut.
                    for second in first + 1..w {
                        word[second] = b'\n';
                        assert_eq!(newline_cut(&word), first + 1);
                    }
                }
            }
        }
        let mut x: u64 = 0x0A0A;
        for _ in 0..2000 {
            let word: Vec<u8> = (0..24)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    // Few distinct values, so newlines are common.
                    [b'\n', 0x09, 0x0B, 0x8A, b'x'][(x >> 33) as usize % 5]
                })
                .collect();
            for w in [1usize, 7, 8, 16, 24] {
                assert_eq!(newline_cut(&word[..w]), reference(&word[..w]));
            }
        }
    }

    #[test]
    fn lying_header_is_a_typed_error_before_any_allocation() {
        let codec = Lzah::default();
        let corpus = log_corpus();
        let clean = codec.compress(&corpus);
        let pairs = u64::from_le_bytes(clean[16..24].try_into().unwrap());
        let forged = |original_len: u64, pair_count: u64| {
            let mut frame = clean.clone();
            frame[8..16].copy_from_slice(&original_len.to_le_bytes());
            frame[16..24].copy_from_slice(&pair_count.to_le_bytes());
            frame
        };
        let mut scratch = LzahScratch::new();
        for (frame, what) in [
            (forged(u64::MAX, pairs), "original_len = u64::MAX"),
            (forged(u64::MAX - 8, pairs), "original_len + w overflows"),
            (
                forged(pairs * 16 + 1, pairs),
                "one byte more than the pairs hold",
            ),
            (forged(1 << 40, 1 << 40), "both lengths far past the input"),
            (
                forged(corpus.len() as u64, u64::MAX),
                "pair_count = u64::MAX",
            ),
        ] {
            let err = codec.decompress_into(&frame, &mut scratch).unwrap_err();
            assert!(
                matches!(
                    err,
                    DecompressError::LengthMismatch { .. } | DecompressError::Truncated { .. }
                ),
                "{what}: {err:?}"
            );
            assert_eq!(
                scratch.out.capacity(),
                0,
                "{what}: reserved from the header"
            );
            assert!(codec.decompress_aligned(&frame).is_err(), "{what}");
        }
        // An honest-looking lie passes the bound and fails in the walk; the
        // workspace still decodes the next clean frame exactly.
        let plausible = forged(corpus.len() as u64 + 1, pairs);
        assert!(matches!(
            codec.decompress_into(&plausible, &mut scratch),
            Err(DecompressError::LengthMismatch { .. })
        ));
        assert!(scratch.out.is_empty(), "a failed decode leaves no output");
        assert_eq!(codec.decompress_into(&clean, &mut scratch).unwrap(), corpus);
    }

    #[test]
    fn encoder_output_and_checksum_are_pinned() {
        // Constants taken from the commit before the sliced CRC and the
        // word decoder: the bytes on the device and their checksums are a
        // format, and a store written then must verify now.
        use mithrilog_storage::crc32;
        let corpus = log_corpus();
        assert_eq!(crc32(&Lzah::default().compress(&corpus)), GOLDEN_FRAME_CRC);
        let paged = crate::compress_paged(&corpus, LzahConfig::default(), 4096);
        let frames: Vec<u32> = paged.pages().iter().map(|p| crc32(p.data())).collect();
        assert_eq!(frames, GOLDEN_PAGE_CRCS);
    }

    const GOLDEN_FRAME_CRC: u32 = 0x81E5_5CED;
    const GOLDEN_PAGE_CRCS: [u32; 7] = [
        0x4ADE_0D03,
        0x3CB7_D1C1,
        0x94D4_20C8,
        0xEBC3_22F6,
        0xE432_E4B0,
        0xB7FE_E7B1,
        0x1CC1_3F46,
    ];

    #[test]
    fn decompression_is_deterministic() {
        let codec = Lzah::default();
        let corpus = log_corpus();
        let packed = codec.compress(&corpus);
        assert_eq!(
            codec.decompress(&packed).unwrap(),
            codec.decompress(&packed).unwrap()
        );
    }
}
