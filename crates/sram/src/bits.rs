//! Packed bit storage and bit-level metrics.
//!
//! All SRAM contents in the simulator are ultimately [`PackedBits`]: a
//! dense `u64`-word bit vector with byte views and the Hamming-distance
//! helpers that the paper's analysis sections use (fractional Hamming
//! distance, windowed Hamming-distance series for Figure 10).

/// A fixed-length, densely packed bit vector.
///
/// Bit `i` lives in word `i / 64` at position `i % 64`; byte views use
/// little-endian bit order within each byte (bit 0 of byte 0 is bit 0 of
/// the vector), which matches how the simulator lays SRAM data out.
///
/// ```rust
/// use voltboot_sram::PackedBits;
/// let mut b = PackedBits::zeros(16);
/// b.set(3, true);
/// assert!(b.get(3));
/// assert_eq!(b.count_ones(), 1);
/// assert_eq!(b.to_bytes(), vec![0b0000_1000, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedBits {
    len: usize,
    words: Vec<u64>,
}

impl PackedBits {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        PackedBits { len, words: vec![0; len.div_ceil(64)] }
    }

    /// Creates an all-one bit vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut b = PackedBits { len, words: vec![u64::MAX; len.div_ceil(64)] };
        b.mask_tail();
        b
    }

    /// Builds a bit vector from bytes; the result has `bytes.len() * 8` bits.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Self::from_bytes_reusing(bytes, Vec::new())
    }

    /// [`PackedBits::from_bytes`] into a recycled backing buffer (e.g.
    /// one returned by [`PackedBits::into_words`] or the
    /// [`crate::par`] rep arena): `words` is cleared and refilled, so a
    /// buffer with enough capacity makes the conversion allocation-free.
    /// Eight little-endian bytes pack into each word — identical layout
    /// to [`PackedBits::from_bytes`].
    pub fn from_bytes_reusing(bytes: &[u8], mut words: Vec<u64>) -> Self {
        words.clear();
        words.reserve(bytes.len().div_ceil(8));
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            words.push(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            words.push(u64::from_le_bytes(last));
        }
        PackedBits { len: bytes.len() * 8, words }
    }

    /// Consumes the vector, returning its backing word buffer for reuse
    /// (typically handed back to the [`crate::par`] rep arena). The
    /// contents are whatever the vector held; a later
    /// [`PackedBits::from_bytes_reusing`] clears them.
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Returns the underlying words (the tail beyond `len` is zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the underlying words.
    ///
    /// Word `w` holds bits `w * 64 ..= w * 64 + 63`. Callers must keep the
    /// invariant that bits at or beyond [`PackedBits::len`] in the final
    /// word stay zero; the batched resolution kernels rely on it (so do
    /// [`PackedBits::count_ones`] and the Hamming helpers).
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Number of `u64` words backing the vector.
    pub fn word_len(&self) -> usize {
        self.words.len()
    }

    /// A mask of the bits of word `w` that are within `len`: all ones for
    /// interior words, a partial mask for the final word of a vector whose
    /// length is not a multiple of 64.
    ///
    /// # Panics
    ///
    /// Panics if `w` is past the last word.
    pub fn valid_mask(&self, w: usize) -> u64 {
        assert!(w < self.words.len(), "word index {w} out of bounds");
        let tail = self.len % 64;
        if w + 1 == self.words.len() && tail != 0 {
            (1u64 << tail) - 1
        } else {
            u64::MAX
        }
    }

    /// Merges `value` into word `w` under `mask`: bits set in `mask` take
    /// the corresponding bit of `value`, other bits keep their old state.
    ///
    /// # Panics
    ///
    /// Panics if `w` is past the last word or the merge would set bits
    /// beyond `len`.
    #[inline]
    pub fn merge_word(&mut self, w: usize, value: u64, mask: u64) {
        let valid = self.valid_mask(w);
        assert!(mask & !valid == 0, "merge into word {w} writes past the end");
        self.words[w] = (self.words[w] & !mask) | (value & mask);
    }

    /// Fills every whole byte of the vector with `byte`, without an
    /// intermediate buffer. A trailing partial byte (when `len` is not a
    /// multiple of 8) keeps its old bits, matching a byte-granular write
    /// of `len / 8` bytes at offset 0.
    pub fn fill_byte(&mut self, byte: u8) {
        let pattern = (byte as u64).wrapping_mul(0x0101_0101_0101_0101);
        let nbytes = self.len / 8;
        let full_words = nbytes / 8;
        for w in &mut self.words[..full_words] {
            *w = pattern;
        }
        let tail_bytes = nbytes % 8;
        if tail_bytes > 0 {
            let mask = (1u64 << (tail_bytes * 8)) - 1;
            let w = &mut self.words[full_words];
            *w = (*w & !mask) | (pattern & mask);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set bits, in `[0, 1]`; `0` for an empty vector.
    pub fn ones_fraction(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Copies `bytes` into the vector starting at bit `bit_offset`
    /// (must be byte-aligned: a multiple of 8).
    ///
    /// # Panics
    ///
    /// Panics if `bit_offset` is not a multiple of 8 or the copy runs past
    /// the end of the vector.
    pub fn copy_bytes_in(&mut self, bit_offset: usize, bytes: &[u8]) {
        assert!(bit_offset.is_multiple_of(8), "bit offset must be byte aligned");
        assert!(
            bit_offset + bytes.len() * 8 <= self.len,
            "copy of {} bytes at bit {} exceeds {} bits",
            bytes.len(),
            bit_offset,
            self.len
        );
        for (k, &byte) in bytes.iter().enumerate() {
            let bit = bit_offset + k * 8;
            let word = bit / 64;
            let shift = bit % 64;
            self.words[word] = (self.words[word] & !(0xffu64 << shift)) | ((byte as u64) << shift);
        }
    }

    /// Reads `len` bytes starting at bit `bit_offset` (byte-aligned).
    ///
    /// # Panics
    ///
    /// Panics if `bit_offset` is not a multiple of 8 or the read runs past
    /// the end of the vector.
    pub fn bytes_at(&self, bit_offset: usize, len: usize) -> Vec<u8> {
        assert!(bit_offset.is_multiple_of(8), "bit offset must be byte aligned");
        assert!(
            bit_offset + len * 8 <= self.len,
            "read of {len} bytes at bit {bit_offset} exceeds {} bits",
            self.len
        );
        (0..len)
            .map(|k| {
                let bit = bit_offset + k * 8;
                ((self.words[bit / 64] >> (bit % 64)) & 0xff) as u8
            })
            .collect()
    }

    /// The whole vector as bytes (`len` rounded up to a whole byte).
    pub fn to_bytes(&self) -> Vec<u8> {
        (0..self.len.div_ceil(8))
            .map(|k| {
                let bit = k * 8;
                ((self.words[bit / 64] >> (bit % 64)) & 0xff) as u8
            })
            .collect()
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &PackedBits) -> usize {
        assert_eq!(self.len, other.len, "hamming distance needs equal lengths");
        self.words.iter().zip(&other.words).map(|(a, b)| (a ^ b).count_ones() as usize).sum()
    }

    /// Fractional Hamming distance to `other`, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn fractional_hamming(&self, other: &PackedBits) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.hamming(other) as f64 / self.len as f64
    }

    /// Hamming distance computed over consecutive windows of `window` bits
    /// (the last window may be shorter). This is the Figure 10 series.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or `window` is zero.
    pub fn windowed_hamming(&self, other: &PackedBits, window: usize) -> Vec<usize> {
        assert_eq!(self.len, other.len, "windowed hamming needs equal lengths");
        assert!(window > 0, "window must be positive");
        // Word-parallel: xor whole words and popcount the span of each
        // window inside them, instead of testing bits one at a time.
        // Tail bits beyond `len` are zero in both images by invariant,
        // so the xor never needs masking past the live length.
        let mut out = Vec::with_capacity(self.len.div_ceil(window));
        let mut acc = 0usize; // mismatches in the current window so far
        let mut in_win = 0usize; // bits of the current window consumed
        let mut seen = 0usize; // live bits consumed overall
        for (a, b) in self.words.iter().zip(&other.words) {
            let mut x = a ^ b;
            let mut avail = 64.min(self.len - seen);
            seen += avail;
            while avail > 0 {
                let take = (window - in_win).min(avail);
                if take >= 64 {
                    acc += x.count_ones() as usize;
                    x = 0;
                } else {
                    acc += (x & ((1u64 << take) - 1)).count_ones() as usize;
                    x >>= take;
                }
                avail -= take;
                in_win += take;
                if in_win == window {
                    out.push(acc);
                    acc = 0;
                    in_win = 0;
                }
            }
        }
        if in_win > 0 {
            out.push(acc);
        }
        out
    }

    /// Clears any set bits beyond `len` in the final word.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = PackedBits::zeros(100);
        let o = PackedBits::ones(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(z.hamming(&o), 100);
        assert!((z.fractional_hamming(&o) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ones_masks_tail_bits() {
        let o = PackedBits::ones(65);
        assert_eq!(o.count_ones(), 65);
        assert_eq!(o.words()[1], 1);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = PackedBits::zeros(130);
        for i in (0..130).step_by(7) {
            b.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(b.get(i), i % 7 == 0, "bit {i}");
        }
    }

    #[test]
    fn byte_roundtrip() {
        let data: Vec<u8> = (0..=255).collect();
        let b = PackedBits::from_bytes(&data);
        assert_eq!(b.len(), 2048);
        assert_eq!(b.to_bytes(), data);
        assert_eq!(b.bytes_at(8 * 10, 5), &data[10..15]);
    }

    #[test]
    fn from_bytes_reusing_matches_from_bytes_and_reuses_storage() {
        // Lengths straddling the 8-byte word granule, including empty.
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255] {
            let data: Vec<u8> = (0..len).map(|i| crate::rng::mix64(i as u64) as u8).collect();
            let reference = {
                let mut b = PackedBits::zeros(len * 8);
                b.copy_bytes_in(0, &data);
                b
            };
            assert_eq!(PackedBits::from_bytes(&data), reference, "len {len}");
            let recycled = Vec::with_capacity(64);
            let ptr = recycled.as_ptr();
            let b = PackedBits::from_bytes_reusing(&data, recycled);
            assert_eq!(b, reference, "reusing path, len {len}");
            let words = b.into_words();
            if len > 0 && len <= 64 * 8 {
                assert_eq!(words.as_ptr(), ptr, "fitting buffer must be reused, len {len}");
            }
        }
    }

    #[test]
    fn copy_bytes_at_offset() {
        let mut b = PackedBits::zeros(64 * 8);
        b.copy_bytes_in(8 * 3, &[0xde, 0xad]);
        assert_eq!(b.bytes_at(8 * 3, 2), vec![0xde, 0xad]);
        assert_eq!(b.bytes_at(0, 3), vec![0, 0, 0]);
    }

    #[test]
    fn windowed_hamming_matches_total() {
        let a = PackedBits::from_bytes(&[0xff, 0x00, 0xaa, 0x0f]);
        let b = PackedBits::from_bytes(&[0x00, 0x00, 0x55, 0x0f]);
        let windows = a.windowed_hamming(&b, 8);
        assert_eq!(windows, vec![8, 0, 8, 0]);
        assert_eq!(windows.iter().sum::<usize>(), a.hamming(&b));
    }

    #[test]
    fn windowed_hamming_uneven_tail() {
        let a = PackedBits::ones(10);
        let b = PackedBits::zeros(10);
        assert_eq!(a.windowed_hamming(&b, 8), vec![8, 2]);
    }

    #[test]
    fn windowed_hamming_matches_per_bit_reference() {
        // The word-parallel path against a naive per-bit count, across
        // window sizes that straddle word boundaries every which way.
        let len = 517;
        let mut a = PackedBits::zeros(len);
        let mut b = PackedBits::zeros(len);
        for i in 0..len {
            a.set(i, crate::rng::mix64(i as u64) & 1 == 1);
            b.set(i, crate::rng::mix64(i as u64 ^ 0xb0b) & 2 == 2);
        }
        for window in [1usize, 3, 8, 63, 64, 65, 128, 200, 517, 1000] {
            let got = a.windowed_hamming(&b, window);
            let mut want = Vec::new();
            let mut acc = 0usize;
            for i in 0..len {
                if a.get(i) != b.get(i) {
                    acc += 1;
                }
                if (i + 1) % window == 0 {
                    want.push(acc);
                    acc = 0;
                }
            }
            if !len.is_multiple_of(window) {
                want.push(acc);
            }
            assert_eq!(got, want, "window {window}");
            assert_eq!(got.iter().sum::<usize>(), a.hamming(&b), "window {window} total");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        PackedBits::zeros(8).get(8);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn hamming_length_mismatch_panics() {
        PackedBits::zeros(8).hamming(&PackedBits::zeros(9));
    }
}
