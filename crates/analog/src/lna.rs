//! Common-gate low-noise amplifier (CGLNA) model.
//!
//! Saiyan places a common-gate LNA between the SAW filter and the envelope
//! detector to lift the transformed signal above the detector's noise
//! (paper §4.1, the 0.6 V 429 MHz FSK front-end of reference \[17\]). We model
//! gain, input-referred noise via a noise figure, and a soft output
//! compression point so strong inputs do not produce unphysical voltages.

use lora_phy::iq::{Iq, SampleBuffer};
use rfsim::channel::dbm_to_buffer_power;
use rfsim::noise::AwgnSource;
use rfsim::units::{Db, Dbm, Hertz};

/// A low-noise amplifier.
#[derive(Debug, Clone)]
pub struct Lna {
    /// Power gain.
    pub gain: Db,
    /// Noise figure.
    pub noise_figure: Db,
    /// Output 1 dB compression point; outputs are softly clipped above this.
    pub output_compression: Dbm,
    /// Equivalent noise bandwidth used to compute the input-referred noise power.
    pub bandwidth: Hertz,
    /// Seed for the noise the LNA adds.
    pub seed: u64,
    /// Whether the amplifier's own noise is modelled. Disabled by the
    /// gateway's high-throughput profile, where the capture already carries
    /// channel noise and the per-sample noise draws dominate the run time.
    pub noise_enabled: bool,
}

impl Lna {
    /// The common-gate LNA used by the prototype: ~20 dB gain, 5 dB NF.
    pub fn paper_cglna(bandwidth: Hertz) -> Self {
        Lna {
            gain: Db(20.0),
            noise_figure: Db(5.0),
            output_compression: Dbm(-5.0),
            bandwidth,
            seed: 0xC61A,
            noise_enabled: true,
        }
    }

    /// Returns a copy with the amplifier's own noise model disabled.
    pub fn quiet(mut self) -> Self {
        self.noise_enabled = false;
        self
    }

    /// Input-referred noise power added by the amplifier.
    pub fn added_noise_power(&self) -> Dbm {
        // kTB floor degraded by (F - 1): the noise the amplifier itself adds.
        let ktb = rfsim::noise::thermal_noise_floor(self.bandwidth);
        let f_lin = self.noise_figure.linear();
        let added = (f_lin - 1.0).max(1e-9);
        Dbm(ktb.value() + 10.0 * added.log10())
    }

    /// Amplifies the buffer: applies gain, adds the amplifier's own noise, and
    /// soft-limits around the compression point.
    pub fn amplify(&self, input: &SampleBuffer) -> SampleBuffer {
        let mut state = self.streaming();
        let samples = state.amplify_chunk(&input.samples);
        SampleBuffer::new(samples, input.sample_rate)
    }

    /// Creates a streaming amplifier state. The noise source is seeded once
    /// and carried across chunks, so chunked amplification of a stream equals
    /// [`Self::amplify`] on the concatenated buffer bit-exactly.
    pub fn streaming(&self) -> LnaState {
        let noise_power_out = if self.noise_enabled {
            dbm_to_buffer_power(self.added_noise_power() + self.gain)
        } else {
            0.0
        };
        LnaState {
            gain_amp: 10f64.powf(self.gain.value() / 20.0),
            noise_power_out,
            // The per-component standard deviation `AwgnSource::sample` would
            // derive on every call, hoisted out of the hot loop.
            noise_std: (noise_power_out / 2.0).sqrt(),
            comp_amp: dbm_to_buffer_power(self.output_compression).sqrt(),
            awgn: AwgnSource::new(self.seed),
        }
    }
}

/// Carried state of a streaming [`Lna`]: the AWGN source the amplifier mixes
/// into its output keeps drawing from the same sequence across chunks.
#[derive(Debug, Clone)]
pub struct LnaState {
    gain_amp: f64,
    noise_power_out: f64,
    noise_std: f64,
    comp_amp: f64,
    awgn: AwgnSource,
}

impl LnaState {
    /// Amplifies one chunk, allocating a fresh output buffer. Steady-state
    /// callers should prefer [`Self::amplify_chunk_into`].
    pub fn amplify_chunk(&mut self, chunk: &[Iq]) -> Vec<Iq> {
        let mut out = Vec::new();
        self.amplify_chunk_into(chunk, &mut out);
        out
    }

    /// Amplifies one chunk into a caller-provided buffer (cleared first):
    /// gain, the LNA's own output-referred noise, and the tanh-style soft
    /// limiter around the compression point.
    pub fn amplify_chunk_into(&mut self, chunk: &[Iq], out: &mut Vec<Iq>) {
        // A quiet LNA (no noise draws) is a pure elementwise map and runs
        // the quiet kernel. The noisy path stays a per-sample loop: its RNG
        // stream is consumed per sample in order.
        if self.noise_power_out <= 0.0 {
            crate::simd::lna_quiet_into(
                crate::simd::active_backend(),
                chunk,
                self.gain_amp,
                self.comp_amp,
                out,
            );
            return;
        }
        out.clear();
        out.reserve(chunk.len());
        for s in chunk {
            let mut v = s.scale(self.gain_amp);
            // Skipping the draw at zero power leaves the output untouched
            // (the sample would be scaled by zero) while saving the two
            // Gaussian draws per sample that dominate a quiet chain's cost.
            if self.noise_power_out > 0.0 {
                v += self.awgn.sample_with_std(self.noise_std);
            }
            let a = v.abs();
            if a > self.comp_amp {
                let limited = self.comp_amp * (1.0 + (a / self.comp_amp - 1.0).tanh());
                v = v.scale(limited / a);
            }
            out.push(v);
        }
    }
}

impl crate::stage::BlockStage for LnaState {
    type In = Iq;
    type Out = Iq;
    fn process_into(&mut self, input: &[Iq], out: &mut Vec<Iq>) {
        self.amplify_chunk_into(input, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim::channel::buffer_power_dbm;

    #[test]
    fn streaming_lna_is_chunk_invariant() {
        let lna = Lna::paper_cglna(Hertz::from_khz(500.0));
        let input = SampleBuffer::new(
            (0..3_001)
                .map(|i| Iq::from_polar(1e-5 + 1e-3 * (i % 13) as f64, 0.1 * i as f64))
                .collect(),
            2e6,
        );
        let batch = lna.amplify(&input);
        for chunk_size in [1usize, 11, 256, 3_001] {
            let mut state = lna.streaming();
            let mut out = Vec::new();
            for chunk in input.samples.chunks(chunk_size) {
                out.extend(state.amplify_chunk(chunk));
            }
            assert_eq!(out, batch.samples, "chunk size {chunk_size}");
        }
    }

    fn tone(power_dbm: f64, len: usize) -> SampleBuffer {
        let amp = dbm_to_buffer_power(Dbm(power_dbm)).sqrt();
        SampleBuffer::new(vec![Iq::new(amp, 0.0); len], 2e6)
    }

    #[test]
    fn small_signal_gain_is_applied() {
        let lna = Lna::paper_cglna(Hertz::from_khz(500.0));
        let input = tone(-60.0, 5000);
        let out = lna.amplify(&input);
        let p = buffer_power_dbm(&out);
        assert!((p.value() - (-40.0)).abs() < 1.0, "output {p}");
    }

    #[test]
    fn noise_floor_is_raised_by_nf() {
        let lna = Lna::paper_cglna(Hertz::from_khz(500.0));
        // A silent input should come out at roughly (kTB + NF - 1) + gain.
        let input = SampleBuffer::zeros(20_000, 2e6);
        let out = lna.amplify(&input);
        let p = buffer_power_dbm(&out);
        let expected = lna.added_noise_power() + lna.gain;
        assert!(
            (p.value() - expected.value()).abs() < 1.5,
            "noise floor {p} vs expected {expected}"
        );
    }

    #[test]
    fn strong_signal_is_compressed() {
        let lna = Lna::paper_cglna(Hertz::from_khz(500.0));
        let input = tone(-10.0, 2000);
        let out = lna.amplify(&input);
        let p = buffer_power_dbm(&out);
        // Linear gain would put this at +10 dBm; the soft limiter caps the
        // output within ~6 dB of the -5 dBm compression point.
        assert!(p.value() < 2.0, "output {p}");
    }

    #[test]
    fn gain_monotonicity_preserved_below_compression() {
        let lna = Lna::paper_cglna(Hertz::from_khz(500.0));
        let p1 = buffer_power_dbm(&lna.amplify(&tone(-70.0, 4000)));
        let p2 = buffer_power_dbm(&lna.amplify(&tone(-60.0, 4000)));
        let p3 = buffer_power_dbm(&lna.amplify(&tone(-50.0, 4000)));
        assert!(p1.value() < p2.value() && p2.value() < p3.value());
    }
}
