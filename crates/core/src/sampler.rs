//! The low-power voltage sampler (paper §2.3).
//!
//! The comparator's binary output is latched by the MCU at a rate far below
//! the chirp bandwidth: the Nyquist minimum is `2·BW/2^(SF−K)` and the paper
//! uses `3.2·BW/2^(SF−K)` in practice (Table 1). This module holds the
//! sampler's rate rule, the low-rate binary stream the decoder reads (the
//! streaming receiver latches comparator bits at the sampler's ticks), the
//! envelope sampling the correlator's templates use, and Table 1's
//! theory-vs-practice sampling-rate figures.

use analog::signal::RealBuffer;
use lora_phy::params::{BitsPerChirp, LoraParams, SpreadingFactor};

/// A low-rate binary sample stream produced by the MCU sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledStream {
    /// The binary samples.
    pub bits: Vec<bool>,
    /// The sampler rate in Hz.
    pub sample_rate: f64,
    /// Time (seconds) of the first sample relative to the start of the input buffer.
    pub start_time: f64,
}

impl SampledStream {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The time of sample `i` relative to the start of the input buffer.
    pub fn time_of(&self, i: usize) -> f64 {
        self.start_time + i as f64 / self.sample_rate
    }

    /// Iterator over (time, bit) pairs.
    pub fn iter_timed(&self) -> impl Iterator<Item = (f64, bool)> + '_ {
        self.bits
            .iter()
            .enumerate()
            .map(move |(i, &b)| (self.time_of(i), b))
    }
}

/// The MCU voltage sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageSampler {
    /// Sampling rate in Hz.
    pub rate: f64,
}

impl VoltageSampler {
    /// Creates a sampler at the paper's practical rate for the given PHY
    /// parameters and margin (`margin * 2 * BW / 2^(SF−K)`; margin 1.6 gives
    /// the 3.2× rule).
    pub fn practical(params: &LoraParams, margin: f64) -> Self {
        VoltageSampler {
            rate: margin * params.nyquist_sampling_rate(),
        }
    }

    /// Samples a real envelope at the sampler rate, latching the nearest
    /// waveform sample at each tick (used for the correlator's templates,
    /// which hold the analog samples the comparator would have seen).
    pub fn sample_envelope(&self, input: &RealBuffer) -> RealBuffer {
        input.resample_nearest(self.rate)
    }
}

/// One row/column entry of Table 1: the sampling rates (kHz) required in
/// theory and in practice for 99.9 % decoding accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingRateEntry {
    /// Spreading factor.
    pub sf: SpreadingFactor,
    /// Bits per chirp (the paper's K).
    pub k: BitsPerChirp,
    /// Theoretical minimum (Nyquist) rate in kHz.
    pub theory_khz: f64,
    /// Practical rate in kHz (the paper's measured requirement, ≈ 1.3–1.6×
    /// the theoretical minimum; we report the 3.2·BW/2^(SF−K) rule).
    pub practice_khz: f64,
}

/// Regenerates Table 1 for a 500 kHz bandwidth: required sampling rates for
/// SF 7–12 and K 1–5.
pub fn table1_sampling_rates() -> Vec<SamplingRateEntry> {
    let mut rows = Vec::new();
    for k in BitsPerChirp::ALL {
        for sf in SpreadingFactor::ALL {
            let params = LoraParams::new(sf, lora_phy::params::Bandwidth::Khz500, k);
            rows.push(SamplingRateEntry {
                sf,
                k,
                theory_khz: params.nyquist_sampling_rate() / 1e3,
                practice_khz: params.practical_sampling_rate() / 1e3,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::params::Bandwidth;

    fn params() -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        )
    }

    #[test]
    fn practical_sampler_rate() {
        let s = VoltageSampler::practical(&params(), 1.6);
        assert!((s.rate - 50_000.0).abs() < 1e-6);
    }

    #[test]
    fn table1_matches_paper_theory_column() {
        let rows = table1_sampling_rates();
        assert_eq!(rows.len(), 30);
        // SF=7, K=1: theory 15.625 kHz (paper rounds to 15.6).
        let r = rows
            .iter()
            .find(|r| r.sf == SpreadingFactor::Sf7 && r.k.bits() == 1)
            .unwrap();
        assert!((r.theory_khz - 15.625).abs() < 1e-9);
        assert!(r.practice_khz > r.theory_khz);
        // SF=12, K=1: theory 0.49 kHz.
        let r2 = rows
            .iter()
            .find(|r| r.sf == SpreadingFactor::Sf12 && r.k.bits() == 1)
            .unwrap();
        assert!((r2.theory_khz - 0.48828125).abs() < 1e-9);
        // Practice column is always a fixed 1.6x of theory under our rule.
        for r in &rows {
            assert!((r.practice_khz / r.theory_khz - 1.6).abs() < 1e-9);
        }
    }

    #[test]
    fn timed_iterator_is_consistent() {
        let s = SampledStream {
            bits: vec![true, false, true],
            sample_rate: 10.0,
            start_time: 1.0,
        };
        let collected: Vec<(f64, bool)> = s.iter_timed().collect();
        assert_eq!(collected.len(), 3);
        assert!((collected[2].0 - 1.2).abs() < 1e-12);
        assert!(collected[2].1);
    }
}
