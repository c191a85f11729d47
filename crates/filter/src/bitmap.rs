use std::fmt;

/// A fixed-width bitmap with one bit per hash table row (paper §4.2.3).
///
/// The engine keeps one bitmap per intersection set per in-flight line; a
/// set is satisfied when its bitmap exactly equals the compiled query
/// bitmap. On the 256-row prototype this is a 256-bit register; we store
/// `u64` limbs.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitmap {
    limbs: Vec<u64>,
    bits: usize,
}

impl Bitmap {
    /// Creates an all-zero bitmap of `bits` width.
    pub fn new(bits: usize) -> Self {
        Bitmap {
            limbs: vec![0; bits.div_ceil(64)],
            bits,
        }
    }

    /// Width in bits.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// The `u64` limbs, bit `i` in limb `i / 64` (trailing bits zero).
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// The indices of the set bits, in increasing order.
    pub(crate) fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.limbs.iter().enumerate().flat_map(|(i, &limb)| {
            let mut rest = limb;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(i * 64 + bit)
            })
        })
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Sets bit `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[inline]
    pub fn set(&mut self, idx: usize) {
        assert!(idx < self.bits, "bit {idx} out of range {}", self.bits);
        self.limbs[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Tests bit `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.bits, "bit {idx} out of range {}", self.bits);
        self.limbs[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Clears all bits (per-line reset in the engine).
    #[inline]
    pub fn clear(&mut self) {
        self.limbs.fill(0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.limbs.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// Creates an all-ones bitmap of `bits` width (trailing bits of the
    /// last limb stay zero, so [`Bitmap::count_ones`] equals `bits`).
    pub fn filled(bits: usize) -> Self {
        let mut limbs = vec![u64::MAX; bits.div_ceil(64)];
        let tail = bits % 64;
        if tail != 0 {
            if let Some(last) = limbs.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        Bitmap { limbs, bits }
    }

    /// In-place intersection: `self &= other`, word-wise over the limbs.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ — combining bitmaps over different page
    /// or bucket universes is always a logic error, never a degradation.
    pub fn and_with(&mut self, other: &Bitmap) {
        assert_eq!(
            self.bits, other.bits,
            "bitmap width mismatch: {} vs {}",
            self.bits, other.bits
        );
        for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a &= b;
        }
    }

    /// In-place union: `self |= other`, word-wise over the limbs.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn or_with(&mut self, other: &Bitmap) {
        assert_eq!(
            self.bits, other.bits,
            "bitmap width mismatch: {} vs {}",
            self.bits, other.bits
        );
        for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a |= b;
        }
    }

    /// In-place difference: `self &= !other`, word-wise over the limbs.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn and_not(&mut self, other: &Bitmap) {
        assert_eq!(
            self.bits, other.bits,
            "bitmap width mismatch: {} vs {}",
            self.bits, other.bits
        );
        for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a &= !b;
        }
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap[{} bits:", self.bits)?;
        let mut first = true;
        for i in 0..self.bits {
            if self.get(i) {
                if first {
                    write!(f, " {i}")?;
                    first = false;
                } else {
                    write!(f, ",{i}")?;
                }
            }
        }
        if first {
            write!(f, " empty")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let b = Bitmap::new(256);
        assert!(b.is_empty());
        assert_eq!(b.len(), 256);
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn set_get_roundtrip_across_limbs() {
        let mut b = Bitmap::new(256);
        for idx in [0, 1, 63, 64, 127, 128, 200, 255] {
            b.set(idx);
            assert!(b.get(idx));
        }
        assert_eq!(b.count_ones(), 8);
        assert!(!b.get(2));
        let ones: Vec<usize> = b.ones().collect();
        assert_eq!(ones, [0, 1, 63, 64, 127, 128, 200, 255]);
    }

    #[test]
    fn equality_is_content_based() {
        let mut a = Bitmap::new(128);
        let mut b = Bitmap::new(128);
        a.set(5);
        assert_ne!(a, b);
        b.set(5);
        assert_eq!(a, b);
    }

    #[test]
    fn clear_resets() {
        let mut b = Bitmap::new(64);
        b.set(10);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn non_multiple_of_64_width_works() {
        let mut b = Bitmap::new(100);
        b.set(99);
        assert!(b.get(99));
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        Bitmap::new(100).set(100);
    }

    #[test]
    fn filled_sets_exactly_bits_ones() {
        for width in [0, 1, 63, 64, 65, 100, 128, 256] {
            let b = Bitmap::filled(width);
            assert_eq!(b.count_ones(), width, "width {width}");
            for i in 0..width {
                assert!(b.get(i));
            }
        }
    }

    #[test]
    fn and_with_intersects_word_wise() {
        let mut a = Bitmap::new(130);
        let mut b = Bitmap::new(130);
        for i in [0, 5, 64, 129] {
            a.set(i);
        }
        for i in [5, 63, 64, 128] {
            b.set(i);
        }
        a.and_with(&b);
        assert!(a.get(5) && a.get(64));
        assert!(!a.get(0) && !a.get(63) && !a.get(128) && !a.get(129));
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    fn or_with_unions_word_wise() {
        let mut a = Bitmap::new(130);
        let mut b = Bitmap::new(130);
        a.set(1);
        a.set(129);
        b.set(1);
        b.set(64);
        a.or_with(&b);
        assert_eq!(a.count_ones(), 3);
        assert!(a.get(1) && a.get(64) && a.get(129));
    }

    #[test]
    fn and_not_subtracts_word_wise() {
        let mut a = Bitmap::filled(130);
        let mut b = Bitmap::new(130);
        b.set(0);
        b.set(65);
        a.and_not(&b);
        assert_eq!(a.count_ones(), 128);
        assert!(!a.get(0) && !a.get(65));
        assert!(a.get(1) && a.get(64) && a.get(129));
    }

    #[test]
    fn combinators_preserve_trailing_zero_bits() {
        // Width 100 leaves 28 unused bits in the last limb; a filled
        // operand must never leak set bits past `len()`.
        let mut a = Bitmap::filled(100);
        let b = Bitmap::filled(100);
        a.or_with(&b);
        assert_eq!(a.count_ones(), 100);
        a.and_with(&b);
        assert_eq!(a.count_ones(), 100);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn and_with_rejects_width_mismatch() {
        Bitmap::new(64).and_with(&Bitmap::new(65));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn or_with_rejects_width_mismatch() {
        Bitmap::new(64).or_with(&Bitmap::new(128));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn and_not_rejects_width_mismatch() {
        Bitmap::new(10).and_not(&Bitmap::new(11));
    }

    #[test]
    fn debug_lists_set_bits() {
        let mut b = Bitmap::new(16);
        b.set(3);
        b.set(9);
        let s = format!("{b:?}");
        assert!(s.contains('3'));
        assert!(s.contains('9'));
    }
}
