//! Evaluation metrics: BER, symbol errors, throughput, packet reception.
//!
//! The paper evaluates Saiyan with three key metrics (§5): bit error rate,
//! throughput (correctly decoded data per second), and demodulation range (the
//! maximum distance at which the BER stays below 1 ‰). The range search lives
//! in `netsim`; the counting primitives live here.

use lora_phy::params::LoraParams;

/// The BER threshold that defines the demodulation range in the paper (1 ‰).
pub const DEMODULATION_BER_THRESHOLD: f64 = 1e-3;

/// Counts of bit/symbol errors accumulated over one or more packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorCounts {
    /// Total bits compared.
    pub bits_total: usize,
    /// Bits in error.
    pub bits_error: usize,
    /// Total symbols compared.
    pub symbols_total: usize,
    /// Symbols in error.
    pub symbols_error: usize,
    /// Packets compared.
    pub packets_total: usize,
    /// Packets containing at least one bit error (or lost entirely).
    pub packets_error: usize,
    /// Packets lost entirely: never detected, so no symbol was decoded.
    /// They also count as all-wrong in every other field.
    pub packets_lost: usize,
}

impl ErrorCounts {
    /// Accumulates the comparison of one packet's sent vs received symbols.
    /// `bits_per_symbol` converts symbol differences into bit errors
    /// (symbols are Gray-coded so adjacent-value confusions cost one bit).
    pub fn add_packet(&mut self, sent: &[u32], received: &[u32], bits_per_symbol: u32) {
        let common = sent.len().min(received.len());
        let mut bit_err = 0usize;
        let mut sym_err = 0usize;
        for i in 0..common {
            if sent[i] != received[i] {
                sym_err += 1;
            }
            bit_err += (sent[i] ^ received[i]).count_ones() as usize;
        }
        let missing = sent.len() - common;
        sym_err += missing;
        bit_err += missing * bits_per_symbol as usize;

        self.bits_total += sent.len() * bits_per_symbol as usize;
        self.bits_error += bit_err;
        self.symbols_total += sent.len();
        self.symbols_error += sym_err;
        self.packets_total += 1;
        if bit_err > 0 {
            self.packets_error += 1;
        }
    }

    /// Accumulates a packet that was lost entirely (not detected).
    pub fn add_lost_packet(&mut self, sent_symbols: usize, bits_per_symbol: u32) {
        self.bits_total += sent_symbols * bits_per_symbol as usize;
        self.bits_error += sent_symbols * bits_per_symbol as usize;
        self.symbols_total += sent_symbols;
        self.symbols_error += sent_symbols;
        self.packets_total += 1;
        self.packets_error += 1;
        self.packets_lost += 1;
    }

    /// Merges another set of counts into this one.
    pub fn merge(&mut self, other: &ErrorCounts) {
        self.bits_total += other.bits_total;
        self.bits_error += other.bits_error;
        self.symbols_total += other.symbols_total;
        self.symbols_error += other.symbols_error;
        self.packets_total += other.packets_total;
        self.packets_error += other.packets_error;
        self.packets_lost += other.packets_lost;
    }

    /// Bit error rate.
    pub fn ber(&self) -> f64 {
        if self.bits_total == 0 {
            return 0.0;
        }
        self.bits_error as f64 / self.bits_total as f64
    }

    /// Symbol error rate.
    pub fn ser(&self) -> f64 {
        if self.symbols_total == 0 {
            return 0.0;
        }
        self.symbols_error as f64 / self.symbols_total as f64
    }

    /// Packet reception ratio (fraction of packets with zero bit errors).
    pub fn prr(&self) -> f64 {
        if self.packets_total == 0 {
            return 0.0;
        }
        1.0 - self.packets_error as f64 / self.packets_total as f64
    }

    /// Whether the link meets the paper's demodulation criterion (BER ≤ 1 ‰).
    pub fn meets_demodulation_threshold(&self) -> bool {
        self.ber() <= DEMODULATION_BER_THRESHOLD
    }
}

/// Throughput (bits per second of correctly decoded payload data) achieved by
/// a downlink configuration with the measured symbol error rate: the raw
/// downlink data rate `K·BW/2^SF` scaled by the fraction of symbols decoded
/// correctly.
pub fn throughput_bps(params: &LoraParams, symbol_error_rate: f64) -> f64 {
    params.downlink_data_rate() * (1.0 - symbol_error_rate).clamp(0.0, 1.0)
}

/// Analytic BER → throughput helper for the link-abstraction path: converts a
/// bit error rate into a symbol error rate for `k` bits per symbol (assuming
/// independent bit errors) and applies [`throughput_bps`].
pub fn throughput_from_ber(params: &LoraParams, ber: f64) -> f64 {
    let k = params.bits_per_chirp.bits() as i32;
    let ser = 1.0 - (1.0 - ber.clamp(0.0, 1.0)).powi(k);
    throughput_bps(params, ser)
}

/// Packet error rate implied by a bit error rate for a packet of `bits` bits,
/// assuming independent bit errors.
pub fn packet_error_rate(ber: f64, bits: usize) -> f64 {
    1.0 - (1.0 - ber.clamp(0.0, 1.0)).powi(bits as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::params::{Bandwidth, BitsPerChirp, SpreadingFactor};

    fn params(k: u8) -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(k).unwrap(),
        )
    }

    #[test]
    fn error_counting() {
        let mut c = ErrorCounts::default();
        c.add_packet(&[0, 1, 2, 3], &[0, 1, 3, 3], 2);
        assert_eq!(c.symbols_error, 1);
        assert_eq!(c.bits_error, 1); // 2 ^ 3 = 1 differing bit
        assert_eq!(c.packets_error, 1);
        c.add_packet(&[0, 1], &[0, 1], 2);
        assert_eq!(c.packets_total, 2);
        assert!((c.prr() - 0.5).abs() < 1e-12);
        assert!((c.ser() - 1.0 / 6.0).abs() < 1e-12);
        assert!((c.ber() - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn truncated_reception_counts_as_errors() {
        let mut c = ErrorCounts::default();
        c.add_packet(&[1, 2, 3, 0], &[1, 2], 3);
        assert_eq!(c.symbols_error, 2);
        assert_eq!(c.bits_error, 6);
    }

    #[test]
    fn lost_packet_counts_everything_as_error() {
        let mut c = ErrorCounts::default();
        c.add_lost_packet(32, 2);
        assert_eq!(c.bits_error, 64);
        assert_eq!(c.packets_lost, 1);
        assert_eq!(c.prr(), 0.0);
        assert!(!c.meets_demodulation_threshold());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ErrorCounts::default();
        a.add_packet(&[0, 0], &[0, 0], 2);
        let mut b = ErrorCounts::default();
        b.add_lost_packet(2, 2);
        a.merge(&b);
        assert_eq!(a.packets_total, 2);
        assert_eq!(a.packets_lost, 1);
        assert!((a.prr() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_scales_with_k_and_errors() {
        // K=5 at SF7/500 kHz: 19.53 kbps error-free (the paper reports
        // 19.6 kbps at 10 m).
        let t5 = throughput_bps(&params(5), 0.0);
        assert!((t5 - 19_531.25).abs() < 1.0);
        let t1 = throughput_bps(&params(1), 0.0);
        assert!((t5 / t1 - 5.0).abs() < 1e-9);
        // Errors reduce throughput.
        assert!(throughput_bps(&params(5), 0.1) < t5);
        // BER-based helper matches at zero errors.
        assert_eq!(throughput_from_ber(&params(5), 0.0), t5);
        assert!(throughput_from_ber(&params(5), 0.01) < t5);
    }

    #[test]
    fn packet_error_rate_bounds() {
        assert_eq!(packet_error_rate(0.0, 100), 0.0);
        assert!((packet_error_rate(1.0, 10) - 1.0).abs() < 1e-12);
        let per = packet_error_rate(1e-3, 160);
        assert!(per > 0.1 && per < 0.2, "per {per}");
    }

    #[test]
    fn empty_counts_are_benign() {
        let c = ErrorCounts::default();
        assert_eq!(c.ber(), 0.0);
        assert_eq!(c.ser(), 0.0);
        assert_eq!(c.prr(), 0.0);
    }
}
