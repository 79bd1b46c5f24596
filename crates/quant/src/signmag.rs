//! Sign-magnitude representation of quantized values.
//!
//! The margin calculation of the early-termination mechanism (Section 3.2 and
//! Figure 5b of the paper) operates on signs and magnitudes: products of
//! operands with concordant signs can only *raise* the final dot product, so
//! the conservative margin sums the magnitudes of the Q elements whose sign
//! agrees with the corresponding K element's sign. Representing K in
//! sign-magnitude form also makes the MSB-first bit-serial decomposition
//! straightforward, because the magnitude bits can be streamed independently
//! of the sign.

/// A signed integer split into an explicit sign and magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignMagnitude {
    /// `true` when the value is negative. Zero is represented as positive.
    pub negative: bool,
    /// Absolute value.
    pub magnitude: u32,
}

impl SignMagnitude {
    /// Splits a two's-complement integer into sign and magnitude.
    pub fn from_code(code: i32) -> Self {
        Self {
            negative: code < 0,
            magnitude: code.unsigned_abs(),
        }
    }

    /// Reassembles the signed integer.
    pub fn to_code(self) -> i32 {
        if self.negative {
            -(self.magnitude as i32)
        } else {
            self.magnitude as i32
        }
    }

    /// Sign as `+1` / `-1` (zero counts as positive, matching the hardware's
    /// XOR-based concordance test, where a zero operand contributes nothing
    /// to the product anyway).
    pub fn sign(self) -> i32 {
        if self.negative {
            -1
        } else {
            1
        }
    }

    /// Whether the product of two values is non-negative (signs agree).
    /// This is the XOR test of Figure 5(b).
    pub fn concordant(self, other: SignMagnitude) -> bool {
        self.negative == other.negative
    }
}

impl From<i32> for SignMagnitude {
    fn from(code: i32) -> Self {
        Self::from_code(code)
    }
}

/// Splits a slice of codes into sign-magnitude form.
pub fn split_slice(codes: &[i32]) -> Vec<SignMagnitude> {
    codes.iter().map(|&c| SignMagnitude::from_code(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn split_and_reassemble() {
        for &code in &[0i32, 1, -1, 127, -128, 2047, -2047] {
            let sm = SignMagnitude::from_code(code);
            assert_eq!(sm.to_code(), code);
        }
    }

    #[test]
    fn zero_is_positive() {
        let sm = SignMagnitude::from_code(0);
        assert!(!sm.negative);
        assert_eq!(sm.sign(), 1);
        assert_eq!(sm.magnitude, 0);
    }

    #[test]
    fn concordance_matches_product_sign() {
        let cases = [(3, 5), (-3, -5), (3, -5), (-3, 5), (0, -7)];
        for (a, b) in cases {
            let sa = SignMagnitude::from_code(a);
            let sb = SignMagnitude::from_code(b);
            let product_nonnegative = (a as i64 * b as i64) >= 0;
            if a != 0 && b != 0 {
                assert_eq!(sa.concordant(sb), product_nonnegative, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn split_slice_preserves_order() {
        let sms = split_slice(&[1, -2, 3]);
        assert_eq!(sms.len(), 3);
        assert_eq!(sms[1].to_code(), -2);
    }

    proptest! {
        #[test]
        fn prop_round_trip(code in -100_000i32..100_000) {
            prop_assert_eq!(SignMagnitude::from_code(code).to_code(), code);
        }

        #[test]
        fn prop_concordant_iff_same_sign(a in -1000i32..1000, b in -1000i32..1000) {
            prop_assume!(a != 0 && b != 0);
            let concordant = SignMagnitude::from_code(a).concordant(SignMagnitude::from_code(b));
            prop_assert_eq!(concordant, (a > 0) == (b > 0));
        }
    }
}
