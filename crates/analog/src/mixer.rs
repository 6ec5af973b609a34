//! RF and baseband mixers.
//!
//! The cyclic-frequency-shifting circuit uses two mixers (paper Fig. 11):
//! the *input mixer* multiplies the incident RF signal with `CLK_in(Δf)`,
//! creating sidebands at `F ± Δf` alongside the carrier feed-through, and the
//! *output mixer* multiplies the amplified IF envelope with `CLK_out(Δf)` to
//! bring it back to baseband.

use lora_phy::iq::SampleBuffer;

use crate::oscillator::Oscillator;
use crate::signal::RealBuffer;

/// A mixer operating on the RF (complex-baseband) signal with a real clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfMixer {
    /// Conversion loss applied to the mixed products (linear voltage factor).
    pub conversion_gain: f64,
    /// Fraction of the original (un-mixed) signal that leaks through to the
    /// output. The shifting circuit relies on this carrier feed-through so the
    /// envelope detector can beat the sidebands against the original signal.
    pub feedthrough: f64,
}

impl Default for RfMixer {
    fn default() -> Self {
        // A passive mixer with ~6 dB conversion loss and strong feed-through
        // (the prototype simply couples both paths into the detector).
        RfMixer {
            conversion_gain: 0.5,
            feedthrough: 1.0,
        }
    }
}

impl RfMixer {
    /// Mixes the complex-baseband input with the clock: the output contains
    /// the fed-through original plus the product with the clock waveform.
    pub fn mix(&self, input: &SampleBuffer, clock: &Oscillator) -> SampleBuffer {
        let samples = self.mix_chunk(&input.samples, clock, input.sample_rate, 0);
        SampleBuffer::new(samples, input.sample_rate)
    }

    /// Mixes one chunk of a stream whose first sample sits at absolute index
    /// `start_index`. The clock phase follows the absolute position, so
    /// chunked mixing equals [`Self::mix`] on the concatenated stream
    /// bit-exactly, wherever the chunk boundaries fall.
    pub fn mix_chunk(
        &self,
        chunk: &[lora_phy::iq::Iq],
        clock: &Oscillator,
        sample_rate: f64,
        start_index: u64,
    ) -> Vec<lora_phy::iq::Iq> {
        let mut clk = Vec::new();
        clock.values_into(start_index, chunk.len(), sample_rate, &mut clk);
        let mut out = Vec::new();
        self.mix_with_clock_into(chunk, &clk, &mut out);
        out
    }

    /// Mixes one chunk against a pre-sampled clock block (one clock value per
    /// input sample) into a caller-provided buffer — the allocation-free form
    /// the streaming shifter chain uses, with the clock produced once by
    /// [`Oscillator::values_into`] (or its recurrence fast path) and shared
    /// by both mixers.
    pub fn mix_with_clock_into(
        &self,
        chunk: &[lora_phy::iq::Iq],
        clock: &[f64],
        out: &mut Vec<lora_phy::iq::Iq>,
    ) {
        assert_eq!(chunk.len(), clock.len(), "one clock value per sample");
        crate::simd::rf_mix_into(
            crate::simd::active_backend(),
            chunk,
            clock,
            self.feedthrough,
            self.conversion_gain,
            out,
        );
    }
}

/// A mixer operating on real baseband/IF signals (the output mixer of Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BasebandMixer {
    /// Conversion gain of the product term (linear voltage factor).
    pub conversion_gain: f64,
}

impl Default for BasebandMixer {
    fn default() -> Self {
        BasebandMixer {
            conversion_gain: 1.0,
        }
    }
}

impl BasebandMixer {
    /// Multiplies the real input with the clock waveform.
    pub fn mix(&self, input: &RealBuffer, clock: &Oscillator) -> RealBuffer {
        RealBuffer::new(
            self.mix_chunk(&input.samples, clock, input.sample_rate, 0),
            input.sample_rate,
        )
    }

    /// Mixes one chunk of a stream whose first sample sits at absolute index
    /// `start_index` (see [`RfMixer::mix_chunk`]).
    pub fn mix_chunk(
        &self,
        chunk: &[f64],
        clock: &Oscillator,
        sample_rate: f64,
        start_index: u64,
    ) -> Vec<f64> {
        let mut clk = Vec::new();
        clock.values_into(start_index, chunk.len(), sample_rate, &mut clk);
        let mut out = chunk.to_vec();
        self.mix_with_clock_in_place(&mut out, &clk);
        out
    }

    /// Mixes a real block against a pre-sampled clock block *in place* — the
    /// output mixer of the streaming shifting chain rewrites the envelope
    /// buffer it is handed without a copy.
    pub fn mix_with_clock_in_place(&self, data: &mut [f64], clock: &[f64]) {
        assert_eq!(data.len(), clock.len(), "one clock value per sample");
        crate::simd::bb_mix_in_place(
            crate::simd::active_backend(),
            data,
            clock,
            self.conversion_gain,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::iq::Iq;
    use std::f64::consts::PI;

    #[test]
    fn rf_mixer_creates_sidebands() {
        // Mix a DC (zero-frequency) complex tone with a 100 kHz clock: the
        // output should contain energy at 0 (feed-through) and ±100 kHz.
        let fs = 1e6;
        let input = SampleBuffer::new(vec![Iq::ONE; 8192], fs);
        let mixer = RfMixer::default();
        let clock = Oscillator::new(100_000.0);
        let out = mixer.mix(&input, &clock);
        let spectrum: Vec<f64> = lora_phy::fft::power_spectrum(&out.samples);
        let n = spectrum.len();
        let bin = |f: f64| ((f / fs) * n as f64).round() as usize % n;
        let dc = spectrum[bin(0.0)];
        let upper = spectrum[bin(100_000.0)];
        let lower = spectrum[n - bin(100_000.0)];
        let away = spectrum[bin(300_000.0)];
        assert!(dc > 100.0 * away.max(1e-12));
        assert!(upper > 100.0 * away.max(1e-12));
        assert!(lower > 100.0 * away.max(1e-12));
        // Sidebands carry conversion_gain/2 of the voltage = 1/4 each.
        assert!(
            (upper / dc - 1.0 / 16.0).abs() < 0.02,
            "ratio {}",
            upper / dc
        );
    }

    #[test]
    fn rf_mixer_without_feedthrough_suppresses_original() {
        let fs = 1e6;
        let input = SampleBuffer::new(vec![Iq::ONE; 4096], fs);
        let mixer = RfMixer {
            conversion_gain: 0.5,
            feedthrough: 0.0,
        };
        let clock = Oscillator::new(100_000.0);
        let out = mixer.mix(&input, &clock);
        let spectrum: Vec<f64> = lora_phy::fft::power_spectrum(&out.samples);
        let n = spectrum.len();
        let dc = spectrum[0];
        let upper = spectrum[((100_000.0 / fs) * n as f64).round() as usize];
        assert!(upper > 10.0 * dc, "dc {dc} upper {upper}");
    }

    #[test]
    fn baseband_mixer_shifts_tone_to_dc() {
        // A 200 kHz real tone mixed with a 200 kHz clock produces a DC
        // component (plus a 400 kHz image).
        let fs = 2e6;
        let n = 40_000;
        let input = RealBuffer::new(
            (0..n)
                .map(|i| (2.0 * PI * 200_000.0 * i as f64 / fs).cos())
                .collect(),
            fs,
        );
        let out = BasebandMixer::default().mix(&input, &Oscillator::new(200_000.0));
        let dc = out.band_power(0.0, 5_000.0);
        let image = out.band_power(395_000.0, 405_000.0);
        let elsewhere = out.band_power(95_000.0, 105_000.0);
        assert!(dc > 0.1, "dc power {dc}");
        assert!(image > 0.05, "image power {image}");
        assert!(elsewhere < 0.01, "leakage {elsewhere}");
    }

    #[test]
    fn baseband_mixer_respects_phase() {
        // Mixing with a 90°-shifted clock nulls the DC term.
        let fs = 2e6;
        let n = 40_000;
        let input = RealBuffer::new(
            (0..n)
                .map(|i| (2.0 * PI * 200_000.0 * i as f64 / fs).cos())
                .collect(),
            fs,
        );
        let clock = Oscillator::new(200_000.0).with_phase(PI / 2.0);
        let out = BasebandMixer::default().mix(&input, &clock);
        let dc = out.band_power(0.0, 5_000.0);
        assert!(dc < 0.01, "dc power {dc} should be nulled");
    }
}
