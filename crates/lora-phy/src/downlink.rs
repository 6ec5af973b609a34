//! Saiyan downlink symbol mapping.
//!
//! The access point sends feedback packets to backscatter tags using chirps
//! drawn from a reduced alphabet of `2^K` initial frequency offsets (K is the
//! coding rate, see [`BitsPerChirp`]). This module converts between byte
//! payloads, bit streams, and Gray-coded downlink symbol sequences, and maps
//! a symbol's amplitude-peak time back to its value.

use crate::params::{BitsPerChirp, LoraParams};

/// Encodes a binary value into its Gray-coded representation.
///
/// Neighbouring values differ in one bit, so a peak detected one sampling
/// slot early or late costs one bit instead of many.
#[inline]
pub fn gray_encode(value: u32) -> u32 {
    value ^ (value >> 1)
}

/// Decodes a Gray-coded value back to binary, reversing [`gray_encode`].
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

/// Packs payload bits (MSB-first within each byte) into downlink symbols of
/// `k` bits each, Gray-coded so neighbouring peak positions differ in one bit.
pub fn bytes_to_symbols(data: &[u8], k: BitsPerChirp) -> Vec<u32> {
    let kbits = k.bits() as usize;
    let total_bits = data.len() * 8;
    let nsym = total_bits.div_ceil(kbits);
    let mut symbols = Vec::with_capacity(nsym);
    let mut acc: u32 = 0;
    let mut nacc = 0usize;
    for &byte in data {
        for bit in (0..8).rev() {
            acc = (acc << 1) | ((byte >> bit) & 1) as u32;
            nacc += 1;
            if nacc == kbits {
                symbols.push(gray_encode(acc));
                acc = 0;
                nacc = 0;
            }
        }
    }
    if nacc > 0 {
        // Left-align the remaining bits in the final symbol.
        acc <<= kbits - nacc;
        symbols.push(gray_encode(acc));
    }
    symbols
}

/// Unpacks downlink symbols back into bytes, reversing [`bytes_to_symbols`].
/// `payload_len` trims the output to the original byte count.
pub fn symbols_to_bytes(symbols: &[u32], k: BitsPerChirp, payload_len: usize) -> Vec<u8> {
    let kbits = k.bits() as usize;
    let mut bits = Vec::with_capacity(symbols.len() * kbits);
    for &s in symbols {
        let v = gray_decode(s);
        for bit in (0..kbits).rev() {
            bits.push(((v >> bit) & 1) as u8);
        }
    }
    let mut out = Vec::with_capacity(payload_len);
    for chunk in bits.chunks(8) {
        if chunk.len() < 8 {
            break;
        }
        let mut b = 0u8;
        for &bit in chunk {
            b = (b << 1) | bit;
        }
        out.push(b);
        if out.len() == payload_len {
            break;
        }
    }
    out.truncate(payload_len);
    out
}

/// Number of downlink symbols required to carry `payload_len` bytes at `k`
/// bits per chirp.
pub fn symbols_for_bytes(payload_len: usize, k: BitsPerChirp) -> usize {
    (payload_len * 8).div_ceil(k.bits() as usize)
}

/// Maps a measured peak time back to the most plausible symbol value — the
/// inverse of [`crate::chirp::ChirpGenerator::downlink_peak_time`]. The
/// Saiyan peak decoder applies it to peak times it reads off the comparator
/// output (see the `saiyan` crate).
pub fn symbol_from_peak_time(peak_time: f64, params: &LoraParams) -> u32 {
    let alphabet = params.bits_per_chirp.alphabet_size();
    let t_sym = params.symbol_duration();
    // peak_time = (BW - f0)/slope = T_sym * (1 - value/alphabet)
    let frac = 1.0 - (peak_time / t_sym);
    let value = (frac * alphabet as f64).round() as i64;
    value.rem_euclid(alphabet as i64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chirp::ChirpGenerator;
    use crate::params::{Bandwidth, SpreadingFactor};

    fn k(bits: u8) -> BitsPerChirp {
        BitsPerChirp::new(bits).unwrap()
    }

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
            let d = (gray_encode(v) ^ gray_encode(v + 1)).count_ones();
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

    #[test]
    fn byte_symbol_round_trip_all_k() {
        let data: Vec<u8> = (0..=255u8).step_by(7).collect();
        for bits in 1..=5u8 {
            let symbols = bytes_to_symbols(&data, k(bits));
            assert_eq!(symbols.len(), symbols_for_bytes(data.len(), k(bits)));
            assert!(symbols.iter().all(|&s| s < (1 << bits)));
            let back = symbols_to_bytes(&symbols, k(bits), data.len());
            assert_eq!(back, data, "K={bits}");
        }
    }

    #[test]
    fn symbols_for_bytes_matches_formula() {
        assert_eq!(symbols_for_bytes(4, k(1)), 32);
        assert_eq!(symbols_for_bytes(4, k(5)), 7); // ceil(32/5)
        assert_eq!(symbols_for_bytes(0, k(3)), 0);
    }

    #[test]
    fn describe_symbols_produces_distinct_peaks() {
        let params = LoraParams::new(SpreadingFactor::Sf7, Bandwidth::Khz500, k(2));
        let gen = ChirpGenerator::new(params);
        // Peak times must be strictly decreasing with symbol value and spaced
        // by a quarter symbol for K=2.
        let t_sym = params.symbol_duration();
        for value in 0..3 {
            let delta =
                gen.downlink_peak_time(value).unwrap() - gen.downlink_peak_time(value + 1).unwrap();
            assert!((delta - t_sym / 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn peak_time_inversion_recovers_symbols() {
        let params = LoraParams::new(SpreadingFactor::Sf9, Bandwidth::Khz250, k(3));
        let gen = ChirpGenerator::new(params);
        for value in 0..8 {
            let peak_time = gen.downlink_peak_time(value).unwrap();
            assert_eq!(symbol_from_peak_time(peak_time, &params), value);
        }
    }

    #[test]
    fn out_of_range_symbol_rejected() {
        let params = LoraParams::new(SpreadingFactor::Sf7, Bandwidth::Khz500, k(2));
        let gen = ChirpGenerator::new(params);
        assert!(gen.downlink_peak_time(4).is_err());
    }
}
