/// The two hash functions of the cuckoo filter (paper §4.2.1).
///
/// Hardware computes both hashes combinationally over the token bytes; we
/// model them with two independently-seeded FNV-1a–style mixes reduced to a
/// table row index. Both functions must be deterministic and identical
/// between compile time (placement) and query time (lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenHasher {
    rows: usize,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const BASIS_1: u64 = 0xCBF2_9CE4_8422_2325;
// A second, unrelated offset basis gives an independent second function.
const BASIS_2: u64 = 0x9AE1_6A3B_2F90_404F;

/// Runs `N` independently seeded FNV-1a streams over `bytes` in one pass,
/// so hashing a token twice reads it once.
#[inline]
fn fnv1a<const N: usize>(bases: [u64; N], bytes: &[u8]) -> [u64; N] {
    let mut h = bases;
    for &b in bytes {
        for h in &mut h {
            *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    // Final avalanche so the low bits used for row selection depend on all
    // input bytes even for short tokens.
    h.map(|mut h| {
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^ (h >> 33)
    })
}

impl TokenHasher {
    /// Creates a hasher producing row indices in `0..rows`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero.
    pub fn new(rows: usize) -> Self {
        assert!(rows > 0, "hash table must have at least one row");
        TokenHasher { rows }
    }

    /// Number of rows indices are reduced into.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reduces a hash to a row index: `h % rows`, as a mask when `rows` is a
    /// power of two (the prototype's 256), where the two are the same value.
    #[inline]
    fn row(&self, h: u64) -> usize {
        let rows = self.rows as u64;
        let row = if rows.is_power_of_two() {
            h & (rows - 1)
        } else {
            h % rows
        };
        row as usize
    }

    /// First hash function: token bytes → row index.
    #[inline]
    pub fn h1(&self, token: &[u8]) -> usize {
        self.row(fnv1a([BASIS_1], token)[0])
    }

    /// Second hash function: token bytes → row index.
    #[inline]
    pub fn h2(&self, token: &[u8]) -> usize {
        self.row(fnv1a([BASIS_2], token)[0])
    }

    /// Both candidate rows for a token, in probe order.
    #[inline]
    pub fn candidates(&self, token: &[u8]) -> [usize; 2] {
        fnv1a([BASIS_1, BASIS_2], token).map(|h| self.row(h))
    }

    /// Given one occupied row of a token, returns the alternate row (used by
    /// cuckoo eviction). If both hashes collide on the same row, the
    /// alternate equals the current row.
    pub fn alternate(&self, token: &[u8], current: usize) -> usize {
        let [a, b] = self.candidates(token);
        if current == a {
            b
        } else {
            a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic() {
        let h = TokenHasher::new(256);
        assert_eq!(h.h1(b"FATAL"), h.h1(b"FATAL"));
        assert_eq!(h.h2(b"FATAL"), h.h2(b"FATAL"));
    }

    #[test]
    fn hashes_are_independent() {
        let h = TokenHasher::new(256);
        // Over many tokens the two functions should disagree nearly always.
        let mut same = 0;
        for i in 0..1000 {
            let t = format!("token-{i}");
            if h.h1(t.as_bytes()) == h.h2(t.as_bytes()) {
                same += 1;
            }
        }
        // Expected collisions ≈ 1000/256 ≈ 4.
        assert!(same < 20, "too many h1==h2 coincidences: {same}");
    }

    #[test]
    fn rows_bound_respected() {
        let h = TokenHasher::new(7);
        for i in 0..500 {
            let t = format!("t{i}");
            assert!(h.h1(t.as_bytes()) < 7);
            assert!(h.h2(t.as_bytes()) < 7);
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let h = TokenHasher::new(64);
        let mut counts = [0usize; 64];
        for i in 0..6400 {
            counts[h.h1(format!("w{i}").as_bytes())] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        // Mean is 100; loose bounds catch catastrophic skew only.
        assert!(max < 180, "max bucket {max}");
        assert!(min > 40, "min bucket {min}");
    }

    #[test]
    fn candidates_are_h1_and_h2_for_any_row_count() {
        // Placement uses h1/h2, lookup uses the fused pass: they must name
        // the same rows, and the mask must equal the modulo it stands for.
        for rows in [1usize, 2, 7, 64, 100, 256, 257, 1024] {
            let h = TokenHasher::new(rows);
            for i in 0..200 {
                let t = format!("tok-{i}-{}", "x".repeat(i % 40));
                let [a, b] = h.candidates(t.as_bytes());
                assert_eq!([a, b], [h.h1(t.as_bytes()), h.h2(t.as_bytes())]);
                let full = fnv1a([BASIS_1, BASIS_2], t.as_bytes());
                assert_eq!(a as u64, full[0] % rows as u64);
                assert_eq!(b as u64, full[1] % rows as u64);
            }
        }
    }

    #[test]
    fn alternate_flips_between_candidates() {
        let h = TokenHasher::new(256);
        let t = b"pbs_mom:";
        let [a, b] = h.candidates(t);
        assert_eq!(h.alternate(t, a), b);
        assert_eq!(h.alternate(t, b), a);
    }

    #[test]
    fn single_byte_tokens_spread() {
        let h = TokenHasher::new(256);
        let rows: std::collections::HashSet<usize> = (0u8..=255).map(|b| h.h1(&[b])).collect();
        assert!(rows.len() > 150, "only {} distinct rows", rows.len());
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_panics() {
        TokenHasher::new(0);
    }
}
