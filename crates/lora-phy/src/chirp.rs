//! Chirp generation: the fundamental LoRa waveform.
//!
//! A LoRa symbol is an up-chirp whose instantaneous frequency grows linearly
//! from an initial offset `f0` to the bandwidth edge, then wraps back to zero
//! and continues (paper Eq. 1 and Fig. 3(a)). The symbol value is encoded in
//! `f0`. The Saiyan downlink restricts the alphabet to `2^K` evenly spaced
//! offsets so that the amplitude peaks produced by the SAW transform are far
//! apart in time.

use std::f64::consts::PI;

use crate::error::PhyError;
use crate::iq::{Iq, SampleBuffer};
use crate::params::LoraParams;

/// Chirp direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChirpDirection {
    /// Frequency grows over the symbol (standard data/preamble chirp).
    Up,
    /// Frequency decreases over the symbol (used by the LoRa SFD).
    Down,
}

/// Generator for complex-baseband LoRa chirps.
///
/// The generator produces baseband IQ relative to the configured carrier, so a
/// symbol's instantaneous frequency sweeps `[0, BW)` Hz above the carrier. The
/// amplitude is unit by default and is scaled by the RF channel later.
#[derive(Debug, Clone)]
pub struct ChirpGenerator {
    params: LoraParams,
}

impl ChirpGenerator {
    /// Creates a generator for the given parameter set.
    pub fn new(params: LoraParams) -> Self {
        ChirpGenerator { params }
    }

    /// The parameters this generator was built with.
    pub fn params(&self) -> &LoraParams {
        &self.params
    }

    /// Generates a single chirp symbol.
    ///
    /// `symbol` selects the initial frequency offset `f0 = symbol / 2^SF * BW`
    /// for a standard LoRa symbol (`symbol` in `0..2^SF`).
    pub fn symbol_chirp(
        &self,
        symbol: u32,
        direction: ChirpDirection,
    ) -> Result<SampleBuffer, PhyError> {
        let chips = self.params.chips_per_symbol();
        if symbol >= chips {
            return Err(PhyError::SymbolOutOfRange {
                symbol,
                alphabet: chips,
            });
        }
        let f0 = symbol as f64 / chips as f64 * self.params.bw.hz();
        Ok(self.chirp_from_offset(f0, direction))
    }

    /// Generates a chirp whose initial frequency offset is `f0` Hz above the
    /// carrier. The frequency wraps to zero when it reaches the bandwidth.
    pub fn chirp_from_offset(&self, f0: f64, direction: ChirpDirection) -> SampleBuffer {
        let n = self.params.samples_per_symbol();
        let fs = self.params.sample_rate();
        let bw = self.params.bw.hz();
        let t_sym = self.params.symbol_duration();
        let slope = bw / t_sym;
        let mut samples = Vec::with_capacity(n);
        // Integrate the instantaneous frequency to obtain phase so the
        // waveform is continuous across the wrap point.
        let mut phase = 0.0_f64;
        for i in 0..n {
            let t = i as f64 / fs;
            let f = match direction {
                ChirpDirection::Up => {
                    let raw = f0 + slope * t;
                    if raw >= bw {
                        raw - bw
                    } else {
                        raw
                    }
                }
                ChirpDirection::Down => {
                    let raw = f0 - slope * t;
                    if raw < 0.0 {
                        raw + bw
                    } else {
                        raw
                    }
                }
            };
            samples.push(Iq::phasor(phase));
            phase += 2.0 * PI * f / fs;
        }
        SampleBuffer::new(samples, fs)
    }

    /// Generates a downlink chirp carrying `symbol` of an alphabet with
    /// `2^K` entries (K = bits per chirp).
    ///
    /// The offsets are spaced `BW / 2^K` apart so the amplitude-peak times
    /// produced by the SAW transform are maximally separated.
    pub fn downlink_chirp(&self, symbol: u32) -> Result<SampleBuffer, PhyError> {
        let alphabet = self.params.bits_per_chirp.alphabet_size();
        if symbol >= alphabet {
            return Err(PhyError::SymbolOutOfRange { symbol, alphabet });
        }
        let f0 = symbol as f64 / alphabet as f64 * self.params.bw.hz();
        Ok(self.chirp_from_offset(f0, ChirpDirection::Up))
    }

    /// Generates the base up-chirp (symbol 0), used by the preamble and as the
    /// dechirping reference.
    pub fn base_upchirp(&self) -> SampleBuffer {
        self.chirp_from_offset(0.0, ChirpDirection::Up)
    }

    /// Generates the base down-chirp (conjugate sweep), used by the SFD and by
    /// the standard receiver for dechirping.
    pub fn base_downchirp(&self) -> SampleBuffer {
        self.chirp_from_offset(0.0, ChirpDirection::Down)
    }

    /// Time (seconds from symbol start) at which an up-chirp that starts at
    /// offset `f0` reaches the bandwidth edge — i.e. where the SAW-transformed
    /// amplitude peaks (paper Fig. 3(b)).
    pub fn peak_time(&self, f0: f64) -> f64 {
        let bw = self.params.bw.hz();
        (bw - f0) / self.params.chirp_slope()
    }

    /// Peak time for a downlink symbol of the `2^K` alphabet.
    pub fn downlink_peak_time(&self, symbol: u32) -> Result<f64, PhyError> {
        let alphabet = self.params.bits_per_chirp.alphabet_size();
        if symbol >= alphabet {
            return Err(PhyError::SymbolOutOfRange { symbol, alphabet });
        }
        let f0 = symbol as f64 / alphabet as f64 * self.params.bw.hz();
        Ok(self.peak_time(f0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Bandwidth, BitsPerChirp, SpreadingFactor};

    fn params() -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        )
    }

    #[test]
    fn base_chirp_has_unit_amplitude() {
        let gen = ChirpGenerator::new(params());
        let chirp = gen.base_upchirp();
        for s in &chirp.samples {
            assert!((s.abs() - 1.0).abs() < 1e-12);
        }
        assert_eq!(chirp.len(), params().samples_per_symbol());
    }

    #[test]
    fn upchirp_frequency_sweeps_bandwidth() {
        let gen = ChirpGenerator::new(params());
        let chirp = gen.base_upchirp();
        let freqs = chirp.instantaneous_frequency();
        // Early in the symbol the frequency should be near 0, late it should
        // approach BW (modulo aliasing of the estimator near fs/2).
        assert!(freqs[2].abs() < 20_000.0);
        let late = freqs[freqs.len() / 2];
        assert!(late > 200_000.0, "late frequency {late}");
    }

    #[test]
    fn symbol_out_of_range_is_rejected() {
        let gen = ChirpGenerator::new(params());
        assert!(gen.symbol_chirp(128, ChirpDirection::Up).is_err());
        assert!(gen.downlink_chirp(4).is_err());
        assert!(gen.downlink_chirp(3).is_ok());
    }

    #[test]
    fn peak_time_is_earlier_for_higher_symbols() {
        // A larger initial offset reaches the bandwidth edge sooner.
        let gen = ChirpGenerator::new(params());
        let t0 = gen.downlink_peak_time(0).unwrap();
        let t3 = gen.downlink_peak_time(3).unwrap();
        assert!(t3 < t0);
        // Symbol 0 peaks exactly at the symbol duration.
        assert!((t0 - params().symbol_duration()).abs() < 1e-12);
    }

    #[test]
    fn downchirp_is_conjugate_sweep() {
        let gen = ChirpGenerator::new(params());
        let up = gen.base_upchirp();
        let down = gen.base_downchirp();
        // Multiplying an up-chirp by a down-chirp of the same slope yields an
        // (almost) constant-frequency product.
        let product: Vec<Iq> = up
            .samples
            .iter()
            .zip(&down.samples)
            .map(|(a, b)| *a * *b)
            .collect();
        let buf = SampleBuffer::new(product, up.sample_rate);
        let freqs = buf.instantaneous_frequency();
        let n = freqs.len();
        // Check a window away from the wrap discontinuity.
        let window = &freqs[n / 8..n / 4];
        let mean = window.iter().sum::<f64>() / window.len() as f64;
        let var = window.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / window.len() as f64;
        assert!(var.sqrt() < 1_000.0, "std {} too high", var.sqrt());
    }
}
