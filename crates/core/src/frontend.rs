//! The analog receive front end, assembled per variant (paper Fig. 12).
//!
//! The incident RF signal passes through the SAW filter (frequency→amplitude
//! transformation), the common-gate LNA, and either the plain envelope
//! detector (vanilla Saiyan) or the cyclic-frequency-shifting envelope
//! detector (§3.1), producing the real-valued envelope the comparator and
//! sampler then digitise.

use analog::envelope::EnvelopeDetector;
use analog::lna::Lna;
use analog::saw::SawFilter;
use analog::shifting::{CyclicFrequencyShifter, ShiftingConfig};
use analog::signal::RealBuffer;
use lora_phy::iq::{Iq, SampleBuffer};
use rfsim::units::Hertz;

use crate::config::{SaiyanConfig, Variant};

/// The assembled analog front end.
#[derive(Debug, Clone)]
pub struct Frontend {
    /// The SAW filter performing the frequency→amplitude transformation.
    pub saw: SawFilter,
    /// The common-gate LNA between the SAW filter and the detector.
    pub lna: Lna,
    /// The envelope-detection stage (plain or with cyclic-frequency shifting).
    pub shifter: CyclicFrequencyShifter,
    /// Which variant's signal path to use.
    pub variant: Variant,
    /// Absolute carrier frequency the complex-baseband input is referenced to.
    pub carrier: Hertz,
    /// Whether the shifter samples the mixer clocks with the
    /// phasor-recurrence fast path (see
    /// [`crate::config::SaiyanConfig::fast_oscillator`]). Off by default.
    pub fast_oscillator: bool,
}

impl Frontend {
    /// Builds the paper's front end for a configuration.
    pub fn paper(config: &SaiyanConfig) -> Self {
        let bw = Hertz(config.lora.bw.hz());
        let detector = if config.analog_noise {
            EnvelopeDetector::default().with_seed(config.seed ^ 0xD37E)
        } else {
            EnvelopeDetector::ideal()
        };
        let lna = if config.analog_noise {
            Lna::paper_cglna(bw)
        } else {
            Lna::paper_cglna(bw).quiet()
        };
        Frontend {
            saw: SawFilter::paper_b3790(),
            lna,
            shifter: CyclicFrequencyShifter::new(
                ShiftingConfig::for_bandwidth(config.lora.bw.hz()),
                detector,
            ),
            variant: config.variant,
            carrier: Hertz(config.lora.carrier_hz),
            fast_oscillator: config.fast_oscillator,
        }
    }

    /// Builds an idealised front end (noise-free detector) used to generate
    /// correlation templates and reference envelopes.
    pub fn reference(config: &SaiyanConfig) -> Self {
        let mut fe = Frontend::paper(config);
        fe.shifter.detector = EnvelopeDetector::ideal();
        fe
    }

    /// Processes a whole RF complex-baseband buffer into the detected
    /// envelope: the [`StreamingFrontend`] with an `n_taps` SAW FIR run over
    /// the buffer, with the FIR's group delay removed so each envelope
    /// sample lines up with its input sample (the same form as
    /// [`analog::saw::SawFilter::apply`]).
    pub fn process(&self, rf: &SampleBuffer, n_taps: usize) -> RealBuffer {
        let mut chain = self.streaming_with_taps(rf.sample_rate, n_taps);
        let delay = chain.group_delay_samples();
        let mut padded = rf.samples.clone();
        padded.resize(rf.len() + delay, Iq::ZERO);
        let mut envelope = chain.process_chunk(&padded);
        envelope.drain(..delay);
        RealBuffer::new(envelope, rf.sample_rate)
    }

    /// Number of taps of the streaming SAW FIR. At the default 4x
    /// oversampling this puts the design grid's bin spacing (fs/taps) at
    /// 8-16 kHz — fine against the SAW response's gentlest feature, the
    /// 500 kHz critical band — while keeping the per-sample convolution
    /// cheap enough for ~2 Msps single-core throughput. Raise it together
    /// with unusually high oversampling factors, which coarsen the grid.
    pub const STREAMING_SAW_TAPS: usize = 128;

    /// Creates a streaming version of this front end for a stream at
    /// `sample_rate` Hz. See [`StreamingFrontend`].
    pub fn streaming(&self, sample_rate: f64) -> StreamingFrontend {
        self.streaming_with_taps(sample_rate, Self::STREAMING_SAW_TAPS)
    }

    /// [`Self::streaming`] with an explicit SAW FIR length. The design
    /// grid's bin spacing is `sample_rate / n_taps`; the default tap count
    /// targets the 2 Msps paper operating point, so lower-rate channels can
    /// use proportionally fewer taps at the same fidelity.
    pub fn streaming_with_taps(&self, sample_rate: f64, n_taps: usize) -> StreamingFrontend {
        StreamingFrontend {
            saw: self.saw.streaming_fir(self.carrier, sample_rate, n_taps),
            lna: self.lna.streaming(),
            shifter: self
                .shifter
                .streaming(sample_rate, self.variant.uses_shifting())
                .with_fast_clock(self.fast_oscillator),
            saw_scratch: Vec::new(),
            lna_scratch: Vec::new(),
        }
    }
}

/// The analog front end in streaming form: every stage carries its state
/// (FIR delay line, LNA noise RNG, clock phase, detector noise, filter
/// memories) across chunk boundaries, so the envelope produced for a chunked
/// stream is bit-exactly independent of where the chunks are cut.
///
/// The SAW stage is a causal linear-phase FIR. Its constant group delay
/// shifts all envelope peaks equally, which the preamble-derived timing
/// absorbs.
#[derive(Debug, Clone)]
pub struct StreamingFrontend {
    saw: analog::saw::SawFirState,
    lna: analog::lna::LnaState,
    shifter: analog::shifting::ShifterState,
    /// Reusable SAW-output scratch: the front end allocates nothing in
    /// steady state.
    saw_scratch: Vec<Iq>,
    /// Reusable LNA-output scratch.
    lna_scratch: Vec<Iq>,
}

impl StreamingFrontend {
    /// Processes one chunk of RF samples into envelope samples (one per input
    /// sample), advancing all carried state. Allocates a fresh output buffer
    /// per call; steady-state callers should prefer
    /// [`Self::process_chunk_into`].
    pub fn process_chunk(&mut self, chunk: &[Iq]) -> Vec<f64> {
        let mut out = Vec::new();
        self.process_chunk_into(chunk, &mut out);
        out
    }

    /// Processes one chunk of RF samples into envelope samples written into
    /// `out` (cleared first), advancing all carried state. The SAW and LNA
    /// intermediates live in scratch buffers owned by the front end, so once
    /// buffers have grown to the chunk working size no per-chunk heap
    /// traffic remains.
    pub fn process_chunk_into(&mut self, chunk: &[Iq], out: &mut Vec<f64>) {
        self.saw.filter_chunk_into(chunk, &mut self.saw_scratch);
        self.lna
            .amplify_chunk_into(&self.saw_scratch, &mut self.lna_scratch);
        self.shifter.process_chunk_into(&self.lna_scratch, out);
    }

    /// The constant group delay the streaming SAW FIR introduces, in waveform
    /// samples.
    pub fn group_delay_samples(&self) -> usize {
        self.saw.delay_samples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::chirp::ChirpGenerator;
    use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
    use rfsim::channel::dbm_to_buffer_power;
    use rfsim::units::{Celsius, Dbm};

    fn config(variant: Variant) -> SaiyanConfig {
        let lora = LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        )
        .with_oversampling(8);
        SaiyanConfig::paper_default(lora, variant)
    }

    fn chirp_at(power_dbm: f64, symbol: u32, cfg: &SaiyanConfig) -> SampleBuffer {
        let gen = ChirpGenerator::new(cfg.lora);
        let chirp = gen.downlink_chirp(symbol).unwrap();
        let target = dbm_to_buffer_power(Dbm(power_dbm));
        let current = chirp.mean_power();
        chirp.scaled((target / current).sqrt())
    }

    #[test]
    fn vanilla_front_end_produces_peaked_envelope() {
        let cfg = config(Variant::Vanilla);
        let fe = Frontend::paper(&cfg);
        let rf = chirp_at(-50.0, 0, &cfg);
        let env = fe.process(&rf, Frontend::STREAMING_SAW_TAPS);
        assert_eq!(env.len(), rf.len());
        // Symbol 0 peaks at the end of the symbol.
        let peak = env.argmax();
        assert!(peak > env.len() * 3 / 4, "peak at {peak}/{}", env.len());
    }

    #[test]
    fn shifting_front_end_also_peaks_at_the_right_place() {
        let cfg = config(Variant::WithShifting);
        let fe = Frontend::paper(&cfg);
        let rf = chirp_at(-50.0, 1, &cfg);
        let env = fe.process(&rf, Frontend::STREAMING_SAW_TAPS);
        // Symbol 1 of a K=2 alphabet peaks at 3/4 of the symbol.
        let peak = env.argmax() as f64 / env.len() as f64;
        assert!((peak - 0.75).abs() < 0.15, "relative peak at {peak}");
    }

    #[test]
    fn reference_front_end_is_deterministic() {
        let cfg = config(Variant::Super);
        let fe = Frontend::reference(&cfg);
        let rf = chirp_at(-45.0, 2, &cfg);
        let a = fe.process(&rf, Frontend::STREAMING_SAW_TAPS);
        let b = fe.process(&rf, Frontend::STREAMING_SAW_TAPS);
        assert_eq!(a, b);
    }

    #[test]
    fn temperature_changes_envelope_amplitude() {
        let cfg = config(Variant::Vanilla);
        let fe_ref = Frontend::reference(&cfg);
        let mut fe_cold = Frontend::reference(&cfg);
        fe_cold.saw = fe_cold.saw.with_temperature(Celsius(-40.0));
        let rf = chirp_at(-50.0, 0, &cfg);
        let a = fe_ref.process(&rf, Frontend::STREAMING_SAW_TAPS).max();
        let b = fe_cold.process(&rf, Frontend::STREAMING_SAW_TAPS).max();
        assert!(
            (a - b).abs() / a > 0.01,
            "temperature had no visible effect"
        );
    }
}
