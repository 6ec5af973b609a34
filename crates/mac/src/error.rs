//! MAC-layer error types.

use std::fmt;

/// Errors produced by the MAC layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MacError {
    /// A packet was shorter than its header requires.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// An unknown downlink command opcode was received.
    UnknownOpcode(u8),
    /// A channel index is outside the configured channel table.
    InvalidChannel(u8),
    /// A rate value is outside the valid bits-per-chirp range.
    InvalidRate(u8),
    /// A retransmission was requested for a sequence number the tag no longer buffers.
    UnknownSequence(u8),
    /// A spectrum measurement was NaN.
    InvalidLevel,
}

impl fmt::Display for MacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MacError::Truncated { needed, got } => {
                write!(f, "packet truncated: needed {needed} bytes, got {got}")
            }
            MacError::UnknownOpcode(op) => write!(f, "unknown downlink opcode {op}"),
            MacError::InvalidChannel(c) => write!(f, "invalid channel index {c}"),
            MacError::InvalidRate(r) => write!(f, "invalid bits-per-chirp {r}"),
            MacError::UnknownSequence(s) => write!(f, "no buffered packet with sequence {s}"),
            MacError::InvalidLevel => write!(f, "interference level is NaN"),
        }
    }
}

impl std::error::Error for MacError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(MacError::UnknownOpcode(9).to_string().contains('9'));
        assert!(MacError::Truncated { needed: 5, got: 2 }
            .to_string()
            .contains("truncated"));
    }
}
