//! LoRa physical-layer parameters.
//!
//! The paper evaluates Saiyan across spreading factors 7–12, bandwidths of
//! 125/250/500 kHz, and coding rates K = 1–5 (see [`BitsPerChirp`]). This
//! module centralises those parameters and the derived quantities (symbol
//! duration, chips per symbol, data rate, Nyquist and practical sampling
//! rates) used throughout the workspace.

use crate::error::PhyError;

/// LoRa spreading factor (SF7–SF12).
///
/// A spreading factor of `SF` means each up-chirp sweeps the full bandwidth
/// over `2^SF` chips, and a standard LoRa symbol carries `SF` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpreadingFactor {
    /// SF7: 128 chips per symbol.
    Sf7,
    /// SF8: 256 chips per symbol.
    Sf8,
    /// SF9: 512 chips per symbol.
    Sf9,
    /// SF10: 1024 chips per symbol.
    Sf10,
    /// SF11: 2048 chips per symbol.
    Sf11,
    /// SF12: 4096 chips per symbol.
    Sf12,
}

impl SpreadingFactor {
    /// All spreading factors in ascending order.
    pub const ALL: [SpreadingFactor; 6] = [
        SpreadingFactor::Sf7,
        SpreadingFactor::Sf8,
        SpreadingFactor::Sf9,
        SpreadingFactor::Sf10,
        SpreadingFactor::Sf11,
        SpreadingFactor::Sf12,
    ];

    /// The numeric spreading factor (7–12).
    pub fn value(&self) -> u32 {
        match self {
            SpreadingFactor::Sf7 => 7,
            SpreadingFactor::Sf8 => 8,
            SpreadingFactor::Sf9 => 9,
            SpreadingFactor::Sf10 => 10,
            SpreadingFactor::Sf11 => 11,
            SpreadingFactor::Sf12 => 12,
        }
    }

    /// Builds a spreading factor from its numeric value.
    pub fn from_value(v: u32) -> Result<Self, PhyError> {
        match v {
            7 => Ok(SpreadingFactor::Sf7),
            8 => Ok(SpreadingFactor::Sf8),
            9 => Ok(SpreadingFactor::Sf9),
            10 => Ok(SpreadingFactor::Sf10),
            11 => Ok(SpreadingFactor::Sf11),
            12 => Ok(SpreadingFactor::Sf12),
            other => Err(PhyError::InvalidSpreadingFactor(other)),
        }
    }

    /// Chips per symbol, `2^SF`.
    pub fn chips_per_symbol(&self) -> u32 {
        1 << self.value()
    }
}

/// LoRa channel bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Bandwidth {
    /// 125 kHz.
    Khz125,
    /// 250 kHz.
    Khz250,
    /// 500 kHz.
    Khz500,
}

impl Bandwidth {
    /// All bandwidths in ascending order.
    pub const ALL: [Bandwidth; 3] = [Bandwidth::Khz125, Bandwidth::Khz250, Bandwidth::Khz500];

    /// The bandwidth in hertz.
    pub fn hz(&self) -> f64 {
        match self {
            Bandwidth::Khz125 => 125_000.0,
            Bandwidth::Khz250 => 250_000.0,
            Bandwidth::Khz500 => 500_000.0,
        }
    }

    /// The bandwidth in kilohertz.
    pub fn khz(&self) -> f64 {
        self.hz() / 1000.0
    }

    /// Builds a bandwidth from a kHz value (125/250/500).
    pub fn from_khz(khz: u32) -> Result<Self, PhyError> {
        match khz {
            125 => Ok(Bandwidth::Khz125),
            250 => Ok(Bandwidth::Khz250),
            500 => Ok(Bandwidth::Khz500),
            other => Err(PhyError::InvalidBandwidth(other)),
        }
    }
}

/// Number of data bits the Saiyan downlink encodes in one chirp (K = 1–5).
///
/// This is the workspace's one definition of "coding rate": the paper's
/// evaluation calls K the "coding rate (CR)". A chirp carries K bits by
/// choosing one of `2^K` evenly spaced initial frequency offsets, which the
/// tag distinguishes by the position of the amplitude peak. LoRa's uplink
/// forward-error-correction code rate (4/5 … 4/8) is not modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitsPerChirp(u8);

impl BitsPerChirp {
    /// The values swept in the paper (K = 1–5).
    pub const ALL: [BitsPerChirp; 5] = [
        BitsPerChirp(1),
        BitsPerChirp(2),
        BitsPerChirp(3),
        BitsPerChirp(4),
        BitsPerChirp(5),
    ];

    /// Creates a `BitsPerChirp`; valid values are 1..=8.
    pub fn new(k: u8) -> Result<Self, PhyError> {
        if (1..=8).contains(&k) {
            Ok(BitsPerChirp(k))
        } else {
            Err(PhyError::InvalidBitsPerChirp(k))
        }
    }

    /// The number of bits per chirp.
    pub fn bits(&self) -> u8 {
        self.0
    }

    /// The number of distinguishable symbols, `2^K`.
    pub fn alphabet_size(&self) -> u32 {
        1 << self.0
    }
}

/// Number of up-chirps in the standard LoRa preamble used by the paper.
pub const PREAMBLE_UPCHIRPS: usize = 10;

/// Number of symbol periods occupied by the sync word + start-of-frame
/// delimiter the tag waits out before the payload begins (2.25 symbols).
pub const SYNC_SYMBOLS: f64 = 2.25;

/// Payload length (in chirp symbols) used throughout the paper's evaluation.
pub const DEFAULT_PAYLOAD_SYMBOLS: usize = 32;

/// Complete parameter set describing one LoRa downlink configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoraParams {
    /// Spreading factor.
    pub sf: SpreadingFactor,
    /// Bandwidth.
    pub bw: Bandwidth,
    /// Bits encoded per chirp on the Saiyan downlink.
    pub bits_per_chirp: BitsPerChirp,
    /// Carrier centre frequency in Hz (the paper uses 433.5 MHz).
    pub carrier_hz: f64,
    /// Oversampling factor relative to the bandwidth for waveform simulation.
    pub oversampling: u32,
}

/// The carrier frequency used throughout the paper (433.5 MHz band edge).
pub const DEFAULT_CARRIER_HZ: f64 = 433.5e6;

impl Default for LoraParams {
    fn default() -> Self {
        LoraParams {
            sf: SpreadingFactor::Sf7,
            bw: Bandwidth::Khz500,
            bits_per_chirp: BitsPerChirp::new(2).expect("2 is a valid K"),
            carrier_hz: DEFAULT_CARRIER_HZ,
            oversampling: 4,
        }
    }
}

impl LoraParams {
    /// Creates a parameter set with the paper's default carrier and 4x oversampling.
    pub fn new(sf: SpreadingFactor, bw: Bandwidth, bits_per_chirp: BitsPerChirp) -> Self {
        LoraParams {
            sf,
            bw,
            bits_per_chirp,
            ..Default::default()
        }
    }

    /// Chips per symbol, `2^SF`.
    pub fn chips_per_symbol(&self) -> u32 {
        self.sf.chips_per_symbol()
    }

    /// Symbol (chirp) duration in seconds, `2^SF / BW`.
    pub fn symbol_duration(&self) -> f64 {
        self.chips_per_symbol() as f64 / self.bw.hz()
    }

    /// Waveform sample rate in Hz (`oversampling * BW`).
    pub fn sample_rate(&self) -> f64 {
        self.oversampling as f64 * self.bw.hz()
    }

    /// Number of waveform samples per symbol.
    pub fn samples_per_symbol(&self) -> usize {
        (self.symbol_duration() * self.sample_rate()).round() as usize
    }

    /// Chirp frequency slope in Hz/s (`BW / T_sym`).
    pub fn chirp_slope(&self) -> f64 {
        self.bw.hz() / self.symbol_duration()
    }

    /// Downlink data rate in bits per second: `K * BW / 2^SF`.
    pub fn downlink_data_rate(&self) -> f64 {
        self.bits_per_chirp.bits() as f64 * self.bw.hz() / self.chips_per_symbol() as f64
    }

    /// Theoretical minimum (Nyquist) sampling rate of the Saiyan voltage
    /// sampler: `2 * BW / 2^(SF - K)` (paper §2.3).
    pub fn nyquist_sampling_rate(&self) -> f64 {
        2.0 * self.bw.hz()
            / 2.0_f64.powi(self.sf.value() as i32 - self.bits_per_chirp.bits() as i32)
    }

    /// Practical sampling rate adopted by Saiyan: `3.2 * BW / 2^(SF - K)`
    /// (paper §2.3, chosen to guarantee 99.9 % decoding accuracy).
    pub fn practical_sampling_rate(&self) -> f64 {
        3.2 * self.bw.hz()
            / 2.0_f64.powi(self.sf.value() as i32 - self.bits_per_chirp.bits() as i32)
    }

    /// Duration of a full downlink packet (preamble + sync + payload) in seconds.
    pub fn packet_duration(&self, payload_symbols: usize) -> f64 {
        (PREAMBLE_UPCHIRPS as f64 + SYNC_SYMBOLS + payload_symbols as f64) * self.symbol_duration()
    }

    /// Returns a copy with a different oversampling factor.
    pub fn with_oversampling(mut self, oversampling: u32) -> Self {
        self.oversampling = oversampling.max(1);
        self
    }

    /// Returns a copy with a different carrier frequency (Hz).
    pub fn with_carrier(mut self, carrier_hz: f64) -> Self {
        self.carrier_hz = carrier_hz;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sf_values_and_chips() {
        assert_eq!(SpreadingFactor::Sf7.chips_per_symbol(), 128);
        assert_eq!(SpreadingFactor::Sf12.chips_per_symbol(), 4096);
        assert_eq!(
            SpreadingFactor::from_value(9).unwrap(),
            SpreadingFactor::Sf9
        );
        assert!(SpreadingFactor::from_value(6).is_err());
    }

    #[test]
    fn bandwidth_conversions() {
        assert_eq!(Bandwidth::Khz125.hz(), 125_000.0);
        assert_eq!(Bandwidth::from_khz(500).unwrap(), Bandwidth::Khz500);
        assert!(Bandwidth::from_khz(200).is_err());
    }

    #[test]
    fn bits_per_chirp_bounds() {
        assert!(BitsPerChirp::new(0).is_err());
        assert!(BitsPerChirp::new(9).is_err());
        assert_eq!(BitsPerChirp::new(5).unwrap().alphabet_size(), 32);
    }

    #[test]
    fn symbol_duration_sf7_bw500() {
        let p = LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        );
        // 128 chips / 500 kHz = 256 microseconds.
        assert!((p.symbol_duration() - 256e-6).abs() < 1e-12);
        assert_eq!(p.samples_per_symbol(), 512);
    }

    #[test]
    fn downlink_data_rate_matches_formula() {
        let p = LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(5).unwrap(),
        );
        // 5 * 500000 / 128 = 19531.25 bps (paper reports ~19.6 Kbps at CR=5, 10 m).
        assert!((p.downlink_data_rate() - 19531.25).abs() < 1e-9);
    }

    #[test]
    fn sampling_rates_match_table1_examples() {
        // Table 1: SF=7, K=1 => 15.6 kHz theoretical. 2*500k/2^(7-1)=15.625 kHz.
        let p = LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(1).unwrap(),
        );
        assert!((p.nyquist_sampling_rate() - 15_625.0).abs() < 1e-9);
        // SF=12, K=5 => 2*500k/2^7 = 7.8125 kHz.
        let p2 = LoraParams::new(
            SpreadingFactor::Sf12,
            Bandwidth::Khz500,
            BitsPerChirp::new(5).unwrap(),
        );
        assert!((p2.nyquist_sampling_rate() - 7_812.5).abs() < 1e-9);
        assert!(p2.practical_sampling_rate() > p2.nyquist_sampling_rate());
    }

    #[test]
    fn packet_duration_includes_preamble_and_sync() {
        let p = LoraParams::default();
        let d = p.packet_duration(32);
        let expected = (10.0 + 2.25 + 32.0) * p.symbol_duration();
        assert!((d - expected).abs() < 1e-12);
    }
}
