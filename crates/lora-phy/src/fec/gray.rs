//! Gray coding of LoRa symbol values.
//!
//! LoRa maps coded bits onto chirp symbols through a Gray code so that a
//! ±1-bin error in the receiver's FFT peak produces only a single bit error.
//! The same property helps Saiyan's peak-position decoder: a peak detected one
//! sampling slot early or late flips one bit instead of many.

/// Encodes a binary value into its Gray-coded representation.
#[inline]
pub fn gray_encode(value: u32) -> u32 {
    value ^ (value >> 1)
}

/// Decodes a Gray-coded value back to binary.
#[inline]
pub fn gray_decode(gray: u32) -> u32 {
    let mut value = gray;
    let mut g = gray >> 1;
    while g != 0 {
        value ^= g;
        g >>= 1;
    }
    value
}

/// Returns the number of differing bits between two values.
#[inline]
pub fn hamming_distance(a: u32, b: u32) -> u32 {
    (a ^ b).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_round_trip() {
        for v in 0u32..4096 {
            assert_eq!(gray_decode(gray_encode(v)), v);
        }
        // Full-width values, where a shift by the word size would overflow.
        for v in [1 << 16, 0x8000_0000, 0xDEAD_BEEF, u32::MAX] {
            assert_eq!(gray_decode(gray_encode(v)), v);
        }
    }

    #[test]
    fn adjacent_values_differ_in_one_bit() {
        for v in 0u32..4095 {
            let d = hamming_distance(gray_encode(v), gray_encode(v + 1));
            assert_eq!(d, 1, "gray codes of {v} and {} differ in {d} bits", v + 1);
        }
    }

    #[test]
    fn known_values() {
        assert_eq!(gray_encode(0), 0);
        assert_eq!(gray_encode(1), 1);
        assert_eq!(gray_encode(2), 3);
        assert_eq!(gray_encode(3), 2);
        assert_eq!(gray_encode(7), 4);
    }
}
