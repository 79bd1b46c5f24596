//! Packed bit-plane decomposition of a set of key vectors.
//!
//! [`BitSerialVector`](crate::bitserial::BitSerialVector) stores one
//! sign/magnitude pair per element and re-derives everything a bit-serial
//! cycle needs — partial sums, margins — by walking all `d` elements again on
//! every call. That is faithful to the hardware but wasteful in software:
//! the simulator's inner loop needs it `s × s × cycles` times per head.
//!
//! [`KPlanesSoa`] is the same information for a whole *set* of K columns,
//! laid out for word-parallel arithmetic: one `u64` word per 64 columns for
//! every (magnitude bit, element) pair, plus sign and nonzero-magnitude
//! words. `leopard-accel`'s batched kernel derives its per-cycle truncated
//! operand matrices from this layout; the tests here pin those truncations
//! to [`BitSerialVector::partial_dot`](crate::bitserial::BitSerialVector::partial_dot).

use crate::signmag::SignMagnitude;

/// Structure-of-arrays bit-plane storage for a whole *set* of K columns.
///
/// For every `(magnitude bit, element)` pair it stores one `u64` word **per
/// 64 K columns**, so
/// column-set bookkeeping — which columns are still alive in the reveal
/// window, which columns have a given bit at all, population counts over the
/// column set — becomes word-wide boolean algebra instead of per-column
/// loops. `leopard-accel`'s batched v2 kernel derives its packed per-cycle
/// operand matrices from this layout.
///
/// # Tail-mask invariant
///
/// When `cols` is not a multiple of 64, the final word of every mask has
/// `64 - cols % 64` trailing bits that correspond to no column. Those bits
/// are **always zero** in the stored masks (the builders only ever set bits
/// for real columns), and every consumer that *constructs* column-set words
/// (e.g. an all-alive mask of `!0u64`) must intersect the final word with
/// [`tail_mask`](Self::tail_mask) before popcounts or bit scans — otherwise
/// the garbage bits beyond `cols` count as phantom columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KPlanesSoa {
    magnitude_bits: u32,
    /// Number of K columns (`s`).
    cols: usize,
    /// Elements per column (`d`).
    len: usize,
    /// Words per column-set mask: `ceil(cols / 64)` (0 when `cols == 0`).
    col_words: usize,
    /// Transposed planes: bit `j % 64` of
    /// `planes_t[(b * len + i) * col_words + j / 64]` is set when column
    /// `j`'s element `i` has magnitude bit `b` set.
    planes_t: Vec<u64>,
    /// Transposed sign masks: `sign_t[i * col_words + w]` over columns.
    sign_t: Vec<u64>,
    /// Transposed nonzero-magnitude masks, same indexing as `sign_t`.
    nonzero_t: Vec<u64>,
}

impl KPlanesSoa {
    /// Builds the transposed layout from per-column quantized codes.
    ///
    /// # Panics
    ///
    /// Panics if `magnitude_bits` is not in `1..=31`, the columns do not all
    /// share one length, or any magnitude does not fit in `magnitude_bits`
    /// bits.
    pub fn from_codes(columns: &[Vec<i32>], magnitude_bits: u32) -> Self {
        assert!(
            (1..=31).contains(&magnitude_bits),
            "magnitude bits in 1..=31"
        );
        let max_mag = (1u32 << magnitude_bits) - 1;
        let cols = columns.len();
        let len = columns.first().map_or(0, Vec::len);
        let col_words = cols.div_ceil(64);
        let mut soa = Self {
            magnitude_bits,
            cols,
            len,
            col_words,
            planes_t: vec![0u64; magnitude_bits as usize * len * col_words],
            sign_t: vec![0u64; len * col_words],
            nonzero_t: vec![0u64; len * col_words],
        };
        for (j, column) in columns.iter().enumerate() {
            assert_eq!(column.len(), len, "columns must share one length");
            let (w, bit) = (j / 64, 1u64 << (j % 64));
            for (i, &code) in column.iter().enumerate() {
                let sm = SignMagnitude::from_code(code);
                assert!(
                    sm.magnitude <= max_mag,
                    "magnitude {} does not fit in {} bits",
                    sm.magnitude,
                    magnitude_bits
                );
                if sm.negative {
                    soa.sign_t[i * col_words + w] |= bit;
                }
                if sm.magnitude != 0 {
                    soa.nonzero_t[i * col_words + w] |= bit;
                }
                for b in 0..magnitude_bits {
                    if sm.magnitude & (1 << b) != 0 {
                        soa.planes_t[(b as usize * len + i) * col_words + w] |= bit;
                    }
                }
            }
        }
        soa
    }

    /// Number of magnitude bits (planes).
    pub fn magnitude_bits(&self) -> u32 {
        self.magnitude_bits
    }

    /// Number of K columns in the set.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the set has no columns.
    pub fn is_empty(&self) -> bool {
        self.cols == 0
    }

    /// Elements per column (`d`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of `u64` words per column-set mask (`ceil(cols / 64)`; 0 when
    /// the set is empty).
    pub fn col_words(&self) -> usize {
        self.col_words
    }

    /// The valid-column bits of the **final** mask word: all-ones when
    /// `cols` is a positive multiple of 64, zero when the set is empty.
    /// Any constructed column-set word (an all-alive mask, a complement)
    /// must be intersected with this before popcounts or bit scans — see
    /// the tail-mask invariant in the type docs.
    pub fn tail_mask(&self) -> u64 {
        match self.cols % 64 {
            0 if self.cols == 0 => 0,
            0 => u64::MAX,
            rem => (1u64 << rem) - 1,
        }
    }

    /// The column-set words of magnitude bit `b` for element `i`: bit `j`
    /// of word `j / 64` is set when column `j`'s element `i` has bit `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= magnitude_bits` or `i >= len`.
    pub fn plane_row(&self, b: u32, i: usize) -> &[u64] {
        assert!(b < self.magnitude_bits, "plane index out of range");
        assert!(i < self.len, "element index out of range");
        let base = (b as usize * self.len + i) * self.col_words;
        &self.planes_t[base..base + self.col_words]
    }

    /// The column-set sign words for element `i` (bit set ⇒ negative).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn sign_row(&self, i: usize) -> &[u64] {
        assert!(i < self.len, "element index out of range");
        &self.sign_t[i * self.col_words..(i + 1) * self.col_words]
    }

    /// The column-set nonzero-magnitude words for element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn nonzero_row(&self, i: usize) -> &[u64] {
        assert!(i < self.len, "element index out of range");
        &self.nonzero_t[i * self.col_words..(i + 1) * self.col_words]
    }

    /// Column-occupancy words of magnitude bit `b`: bit `j` set when *any*
    /// element of column `j` has bit `b`. One word covers 64 columns.
    ///
    /// # Panics
    ///
    /// Panics if `b >= magnitude_bits`.
    pub fn occupancy(&self, b: u32) -> Vec<u64> {
        assert!(b < self.magnitude_bits, "plane index out of range");
        let mut words = vec![0u64; self.col_words];
        for i in 0..self.len {
            for (acc, &word) in words.iter_mut().zip(self.plane_row(b, i)) {
                *acc |= word;
            }
        }
        words
    }

    /// Total set bits of plane `b` over the whole column set — one popcount
    /// pass per 64 columns per element. The stored words carry no garbage
    /// beyond `cols` (the tail-mask invariant), so the count is exact at any
    /// column count.
    ///
    /// # Panics
    ///
    /// Panics if `b >= magnitude_bits`.
    pub fn plane_popcount(&self, b: u32) -> u64 {
        assert!(b < self.magnitude_bits, "plane index out of range");
        let base = b as usize * self.len * self.col_words;
        self.planes_t[base..base + self.len * self.col_words]
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum()
    }

    /// Reconstructs the signed codes of column `j` (diagnostic / test
    /// helper; the kernel reads the packed words directly).
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn column_codes(&self, j: usize) -> Vec<i32> {
        assert!(j < self.cols, "column index out of range");
        let (w, bit) = (j / 64, 1u64 << (j % 64));
        (0..self.len)
            .map(|i| {
                let mut mag = 0i32;
                for b in 0..self.magnitude_bits {
                    if self.plane_row(b, i)[w] & bit != 0 {
                        mag |= 1 << b;
                    }
                }
                if self.sign_row(i)[w] & bit != 0 {
                    -mag
                } else {
                    mag
                }
            })
            .collect()
    }

    /// The column-major signed operand matrix with every magnitude bit below
    /// `low_cut` zeroed: entry `j * len + i` is
    /// `sign_ji · (mag_ji & !(2^low_cut - 1))`.
    ///
    /// This is the MSB-first reveal window as a dense operand: after the
    /// cycle that reveals bits down to `low_cut`, the partial dot product of
    /// a full-precision Q row with column `j` is **exactly**
    /// `Σ_i q_i · truncated_ji` — the partial sum
    /// [`BitSerialVector::partial_dot`](crate::bitserial::BitSerialVector::partial_dot)
    /// defines, restated so the batched kernel can compute per-cycle
    /// partials as plain dense dot products.
    ///
    /// # Panics
    ///
    /// Panics if `low_cut > magnitude_bits`.
    pub fn truncated_codes(&self, low_cut: u32) -> Vec<i32> {
        assert!(
            low_cut <= self.magnitude_bits,
            "truncation cut out of range"
        );
        let mut out = vec![0i32; self.cols * self.len];
        for b in low_cut..self.magnitude_bits {
            let weight = 1i32 << b;
            for i in 0..self.len {
                for (w, &word) in self.plane_row(b, i).iter().enumerate() {
                    let mut m = word;
                    while m != 0 {
                        let j = w * 64 + m.trailing_zeros() as usize;
                        out[j * self.len + i] += weight;
                        m &= m - 1;
                    }
                }
            }
        }
        for i in 0..self.len {
            for (w, &word) in self.sign_row(i).iter().enumerate() {
                let mut m = word;
                while m != 0 {
                    let j = w * 64 + m.trailing_zeros() as usize;
                    out[j * self.len + i] = -out[j * self.len + i];
                    m &= m - 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitserial::{BitSerialPlan, BitSerialVector};
    use proptest::prelude::*;

    #[test]
    fn planes_mirror_magnitude_bits() {
        // One element per column: magnitude 0b101 = 5, negative; magnitude
        // 0b011 = 3, positive; zero.
        let soa = KPlanesSoa::from_codes(&[vec![-5], vec![3], vec![0]], 3);
        assert_eq!(soa.cols(), 3);
        assert_eq!(soa.col_words(), 1);
        assert_eq!(soa.plane_row(0, 0)[0], 0b011); // bit 0 set in |−5| and |3|
        assert_eq!(soa.plane_row(1, 0)[0], 0b010); // bit 1 set in |3|
        assert_eq!(soa.plane_row(2, 0)[0], 0b001); // bit 2 set in |−5|
        assert_eq!(soa.sign_row(0)[0], 0b001);
        assert_eq!(soa.nonzero_row(0)[0], 0b011);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_magnitude_panics() {
        let _ = KPlanesSoa::from_codes(&[vec![100]], 4);
    }

    /// Deterministic pseudo-random column set for the SoA tests.
    fn soa_columns(cols: usize, len: usize, seed: i32) -> Vec<Vec<i32>> {
        (0..cols)
            .map(|j| {
                (0..len)
                    .map(|i| {
                        (j as i32 * 131 + i as i32 * 37 + seed).wrapping_mul(2654435761u32 as i32)
                            % 2047
                    })
                    .collect()
            })
            .collect()
    }

    /// Σ_i q_i · truncated_ji for column `j` of a column-major truncation.
    fn dense_dot(trunc: &[i32], j: usize, q: &[i32]) -> i64 {
        let len = q.len();
        trunc[j * len..(j + 1) * len]
            .iter()
            .zip(q)
            .map(|(&t, &qi)| t as i64 * qi as i64)
            .sum()
    }

    #[test]
    fn soa_round_trips_every_column() {
        let columns = soa_columns(70, 9, 3);
        let soa = KPlanesSoa::from_codes(&columns, 11);
        assert_eq!(soa.cols(), 70);
        assert_eq!(soa.len(), 9);
        assert_eq!(soa.col_words(), 2);
        for (j, column) in columns.iter().enumerate() {
            assert_eq!(
                &soa.column_codes(j),
                column,
                "column {j} did not round-trip"
            );
        }
    }

    /// The tail-mask invariant at the two boundary column counts the kernel
    /// fix pinned (`s = 23`: one partial word; `s = 65`: a full word plus a
    /// one-bit tail): stored mask words carry no garbage beyond `cols`, so
    /// popcounts agree with the per-column scalar reference exactly.
    #[test]
    fn soa_tail_words_are_clean_at_boundary_column_counts() {
        for cols in [23usize, 65] {
            let columns = soa_columns(cols, 12, cols as i32);
            let soa = KPlanesSoa::from_codes(&columns, 11);
            let tail = soa.tail_mask();
            assert_eq!(tail, (1u64 << (cols % 64)) - 1);
            let last = soa.col_words() - 1;
            for b in 0..soa.magnitude_bits() {
                // Per-column scalar reference count of set bits in plane b.
                let reference: u64 = columns
                    .iter()
                    .flatten()
                    .map(|&code| u64::from(SignMagnitude::from_code(code).magnitude >> b & 1))
                    .sum();
                assert_eq!(soa.plane_popcount(b), reference, "plane {b} at s={cols}");
                let occupancy = soa.occupancy(b);
                assert_eq!(occupancy[last] & !tail, 0, "occupancy tail garbage");
                for i in 0..soa.len() {
                    assert_eq!(soa.plane_row(b, i)[last] & !tail, 0, "plane tail garbage");
                }
            }
            for i in 0..soa.len() {
                assert_eq!(soa.sign_row(i)[last] & !tail, 0);
                assert_eq!(soa.nonzero_row(i)[last] & !tail, 0);
            }
            // An all-alive mask built the way the kernel builds it (all-ones
            // intersected with the tail mask) counts exactly `cols` columns.
            let alive: u64 = (0..soa.col_words())
                .map(|w| {
                    let word = if w == last { tail } else { u64::MAX };
                    u64::from(word.count_ones())
                })
                .sum();
            assert_eq!(alive, cols as u64);
        }
    }

    #[test]
    fn soa_truncations_match_partial_dot_reference() {
        // One magnitude bit per cycle, so every reveal depth 0..=11 is a
        // cycle boundary of the element-wise reference.
        let columns = soa_columns(65, 8, 7);
        let q: Vec<i32> = (0..8).map(|i| (i * 97 % 2047) - 1023).collect();
        let plan = BitSerialPlan::new(11, 1);
        let soa = KPlanesSoa::from_codes(&columns, 11);
        for cycle in 0..=plan.total_cycles() {
            let trunc = soa.truncated_codes(plan.remaining_bits(cycle));
            for (j, column) in columns.iter().enumerate() {
                assert_eq!(
                    dense_dot(&trunc, j, &q),
                    BitSerialVector::new(column, plan).partial_dot(&q, cycle),
                    "column {j}, {cycle} bits seen"
                );
            }
        }
    }

    #[test]
    fn soa_empty_and_degenerate_sets_are_well_formed() {
        let empty = KPlanesSoa::from_codes(&[], 11);
        assert!(empty.is_empty());
        assert_eq!(empty.col_words(), 0);
        assert_eq!(empty.tail_mask(), 0);
        let exact = KPlanesSoa::from_codes(&soa_columns(64, 3, 1), 11);
        assert_eq!(exact.col_words(), 1);
        assert_eq!(exact.tail_mask(), u64::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The SoA transpose is lossless at any column count (tail words
        /// included) and its truncated operands replay the element-wise
        /// MSB-first partial sums for every reveal schedule.
        #[test]
        fn prop_soa_transpose_is_lossless_and_truncations_are_exact(
            cols in 1usize..70,
            len in 1usize..16,
            seed in 0i32..1000,
            bits_per_cycle in 1u32..=4,
        ) {
            let columns = soa_columns(cols, len, seed);
            let q: Vec<i32> = (0..len as i32).map(|i| (i * 211 + seed) % 2047).collect();
            let soa = KPlanesSoa::from_codes(&columns, 11);
            for (j, column) in columns.iter().enumerate() {
                prop_assert_eq!(&soa.column_codes(j), column);
            }
            let plan = BitSerialPlan::new(11, bits_per_cycle);
            for cyc in 0..=plan.total_cycles() {
                let trunc = soa.truncated_codes(plan.remaining_bits(cyc));
                for (j, column) in columns.iter().enumerate() {
                    let reference = BitSerialVector::new(column, plan).partial_dot(&q, cyc);
                    prop_assert_eq!(dense_dot(&trunc, j, &q), reference);
                }
            }
        }
    }
}
