//! Error types for the LoRa PHY substrate.

use std::fmt;

/// Errors produced by the LoRa PHY layer.
#[derive(Debug, Clone, PartialEq)]
pub enum PhyError {
    /// The spreading factor is outside 7..=12.
    InvalidSpreadingFactor(u32),
    /// The bandwidth (kHz) is not one of 125/250/500.
    InvalidBandwidth(u32),
    /// The bits-per-chirp value is outside 1..=8.
    InvalidBitsPerChirp(u8),
    /// A symbol value exceeds the alphabet for the configured parameters.
    SymbolOutOfRange {
        /// The offending symbol value.
        symbol: u32,
        /// The number of valid symbols.
        alphabet: u32,
    },
    /// The provided buffer is too short for the requested operation.
    BufferTooShort {
        /// Samples required.
        needed: usize,
        /// Samples available.
        got: usize,
    },
    /// No preamble could be found in the provided samples.
    PreambleNotFound,
    /// FFT length was not a power of two.
    FftLengthNotPowerOfTwo(usize),
}

impl fmt::Display for PhyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhyError::InvalidSpreadingFactor(v) => {
                write!(f, "invalid spreading factor {v}, expected 7..=12")
            }
            PhyError::InvalidBandwidth(v) => {
                write!(f, "invalid bandwidth {v} kHz, expected 125/250/500")
            }
            PhyError::InvalidBitsPerChirp(v) => {
                write!(f, "invalid bits-per-chirp {v}, expected 1..=8")
            }
            PhyError::SymbolOutOfRange { symbol, alphabet } => {
                write!(
                    f,
                    "symbol {symbol} out of range for alphabet size {alphabet}"
                )
            }
            PhyError::BufferTooShort { needed, got } => {
                write!(f, "buffer too short: needed {needed} samples, got {got}")
            }
            PhyError::PreambleNotFound => write!(f, "no LoRa preamble found in samples"),
            PhyError::FftLengthNotPowerOfTwo(n) => {
                write!(f, "FFT length {n} is not a power of two")
            }
        }
    }
}

impl std::error::Error for PhyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PhyError::SymbolOutOfRange {
            symbol: 9,
            alphabet: 8,
        };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('8'));
        assert!(PhyError::PreambleNotFound.to_string().contains("preamble"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(PhyError::PreambleNotFound);
        assert!(!e.to_string().is_empty());
    }
}
