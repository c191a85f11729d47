//! CRC32 (IEEE 802.3) page checksums.
//!
//! The simulated device keeps a checksum per page in a sidecar, modeling the
//! out-of-band (spare) area real flash controllers use for ECC metadata. A
//! local implementation keeps the workspace dependency-free; the polynomial
//! and bit order match zlib's `crc32`, so values are comparable to external
//! tooling.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Bytes consumed per step of [`Crc32::update`]'s main loop.
const SLICE: usize = 16;

/// Slice-by-16 tables: `TABLES[0]` is the classic byte table, and
/// `TABLES[k][b]` is the CRC state contribution of byte `b` followed by `k`
/// zero bytes. One step then folds 16 input bytes with 16 independent
/// lookups instead of a 16-long dependent chain.
const fn make_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    tables[0] = make_table();
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = make_tables();

/// What [`Crc32::update_zeros`] feeds through [`Crc32::update`].
static ZEROS: [u8; 512] = [0; 512];

/// Incremental CRC32 hasher, for checksumming a page without materialising
/// its zero padding.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds `data` into the checksum: 16 bytes per step, then a byte loop
    /// for the tail.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(SLICE);
        for block in &mut blocks {
            let b: &[u8; SLICE] = block.try_into().expect("chunks_exact yields SLICE bytes");
            // The running state only mixes into the first four bytes.
            let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(head & 0xFF) as usize]
                ^ t[14][((head >> 8) & 0xFF) as usize]
                ^ t[13][((head >> 16) & 0xFF) as usize]
                ^ t[12][(head >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Feeds `n` zero bytes into the checksum (page padding).
    pub fn update_zeros(&mut self, mut n: usize) {
        while n > 0 {
            let step = n.min(ZEROS.len());
            self.update(&ZEROS[..step]);
            n -= step;
        }
    }

    /// Finishes, returning the checksum.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finalize()
}

/// CRC32 of `data` zero-padded to `padded_len` bytes — the checksum of the
/// full page a [`PageStore`](crate::PageStore) persists for a short write.
pub fn crc32_padded(data: &[u8], padded_len: usize) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.update_zeros(padded_len.saturating_sub(data.len()));
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC32/IEEE check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The `make_table` inner loop applied per input byte: no table, no
    /// slicing, nothing shared with `update` but the polynomial.
    fn bitwise_step(mut state: u32, byte: u8) -> u32 {
        state ^= u32::from(byte);
        for _ in 0..8 {
            state = if state & 1 != 0 {
                (state >> 1) ^ POLY
            } else {
                state >> 1
            };
        }
        state
    }

    fn pseudo_random(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_update_equals_bitwise_reference() {
        const MAX_LEN: usize = 4200;
        let buf = pseudo_random(MAX_LEN + SLICE, 0x5EED_C2C3);
        for start in 0..SLICE {
            // `reference` walks the prefix once; every prefix length is
            // checked against a one-shot sliced CRC on the way.
            let mut reference = !0u32;
            for len in 0..=MAX_LEN {
                assert_eq!(
                    crc32(&buf[start..start + len]),
                    !reference,
                    "start {start} len {len}"
                );
                reference = bitwise_step(reference, buf[start + len]);
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_every_split() {
        let data = pseudo_random(100, 7);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn padded_matches_materialised_padding() {
        let page = pseudo_random(4096, 42);
        let lens = (0..=4096).step_by(37).chain([0, 1, 15, 16, 17, 4095, 4096]);
        for len in lens {
            let data = &page[..len];
            let mut full = data.to_vec();
            full.resize(4096, 0);
            assert_eq!(crc32_padded(data, 4096), crc32(&full), "len {len}");
        }
        // Already-full pages are unchanged.
        let data = b"short page";
        assert_eq!(crc32_padded(data, data.len()), crc32(data));
        assert_eq!(
            crc32_padded(data, 3),
            crc32(data),
            "padded_len below data len is a no-op"
        );
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let page = vec![0xA5u8; 4096];
        let base = crc32(&page);
        for bit in [0usize, 1, 7, 4095 * 8, 4095 * 8 + 7, 2048 * 8 + 3] {
            let mut flipped = page.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&flipped), base, "flip of bit {bit} undetected");
        }
    }
}
