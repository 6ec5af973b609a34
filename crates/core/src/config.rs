//! Saiyan demodulator configuration.

use lora_phy::params::LoraParams;

/// Which stages of the receive chain are enabled — the axis of the paper's
/// ablation study (Fig. 25).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Vanilla Saiyan (§2): SAW transform, plain envelope detection,
    /// double-threshold comparator, peak-position decoding.
    Vanilla,
    /// Vanilla plus the cyclic-frequency-shifting circuit (§3.1).
    WithShifting,
    /// Super Saiyan (§3): shifting plus the correlator (§3.2).
    Super,
}

impl Variant {
    /// All variants in ablation order.
    pub const ALL: [Variant; 3] = [Variant::Vanilla, Variant::WithShifting, Variant::Super];

    /// Human-readable label used by experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Vanilla => "Vanilla Saiyan",
            Variant::WithShifting => "+ Frequency shifting",
            Variant::Super => "+ Correlation (Super Saiyan)",
        }
    }

    /// Whether the cyclic-frequency-shifting circuit is in the chain.
    pub fn uses_shifting(&self) -> bool {
        !matches!(self, Variant::Vanilla)
    }

    /// Whether the correlator is used for symbol decisions.
    pub fn uses_correlation(&self) -> bool {
        matches!(self, Variant::Super)
    }
}

/// Complete configuration of a Saiyan demodulator instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SaiyanConfig {
    /// LoRa downlink parameters (SF, BW, bits per chirp, carrier).
    pub lora: LoraParams,
    /// Which receive-chain variant to use.
    pub variant: Variant,
    /// Multiplier over the Nyquist sampling rate used by the voltage sampler;
    /// the paper settles on 1.6 (i.e. 3.2·BW/2^(SF−K) vs the 2·BW/2^(SF−K)
    /// minimum).
    pub sampling_margin: f64,
    /// Gap (dB) between the measured peak amplitude and the high threshold
    /// `U_H` (paper §4.1: `G = 20·lg(A_max/U_H)`).
    pub threshold_gap_db: f64,
    /// Cap on the streaming comparator's hysteresis span `U_H − U_L` as a
    /// fraction of the tracked peak amplitude. The low threshold must fall
    /// *below* each symbol's envelope peak-to-reset swing but *above* the
    /// intra-symbol minimum; at 500 kHz the SAW response's 25 dB amplitude
    /// gap leaves the default 0.5 plenty of room, while narrow-band channels
    /// (125/250 kHz, gaps of 7–15 dB) need a tighter span — see
    /// [`SaiyanConfig::narrowband_streaming`].
    pub comparator_hysteresis: f64,
    /// Packet-onset ratio of the streaming threshold tracker: a packet onset
    /// is declared once the held envelope peak exceeds this multiple of the
    /// running envelope median. At 500 kHz the SAW sweep tops out at the
    /// −10 dB band edge and packets clear the default 8 easily; narrower
    /// sweeps stop at lower SAW gain (−19.5 dB at 250 kHz), leaving peaks
    /// only a few times above the detector's absolute noise floor.
    pub activity_ratio: f64,
    /// Whether the receive chain models its own analog noise (LNA noise and
    /// the envelope detector's white/flicker/DC noise). The gateway's
    /// high-throughput profile disables it: the capture already carries
    /// channel noise, and the four Gaussian draws per sample dominate a
    /// multi-channel gateway's CPU budget.
    pub analog_noise: bool,
    /// FIR length of the streaming SAW approximation (`None` = the default
    /// [`crate::frontend::Frontend::STREAMING_SAW_TAPS`]). The design grid's
    /// bin spacing is `sample_rate / taps`, so low-rate narrow-band channels
    /// afford fewer taps at the same response fidelity — the narrow-band
    /// profile halves them.
    pub streaming_saw_taps: Option<usize>,
    /// Sample the shifting chain's mixer clocks with the phasor-recurrence
    /// fast path (one complex rotation per sample, re-anchored on the
    /// absolute sample index every chunk) instead of one exact `cos` call
    /// per sample. The fast path is accurate to a few ULPs per block but is
    /// *not* bit-identical to the exact clock, so it defaults to `false`:
    /// golden traces are pinned against the exact path, and high-throughput
    /// deployments opt in explicitly (see
    /// [`analog::oscillator::Oscillator::values_into_recurrence`]).
    pub fast_oscillator: bool,
    /// Seed used for any stochastic elements of the receive chain.
    pub seed: u64,
}

impl SaiyanConfig {
    /// The paper's default evaluation setup: SF7, 500 kHz, the given K and
    /// variant, practical sampling margin 1.6 and a 3 dB threshold gap.
    pub fn paper_default(lora: LoraParams, variant: Variant) -> Self {
        SaiyanConfig {
            lora,
            variant,
            sampling_margin: 1.6,
            threshold_gap_db: 3.0,
            comparator_hysteresis: 0.5,
            activity_ratio: 8.0,
            analog_noise: true,
            streaming_saw_taps: None,
            fast_oscillator: false,
            seed: 0x5A17,
        }
    }

    /// The paper's defaults with the comparator-hysteresis span tightened
    /// for narrow-band (125/250 kHz) streaming channels, where the SAW
    /// response's amplitude gap is 7–15 dB instead of 25 dB and the default
    /// span would park `U_L` below the intra-symbol envelope minimum (the
    /// comparator would never reset, so no peak edges would form). The
    /// multi-channel gateway uses this profile for its narrow channels.
    pub fn narrowband_streaming(lora: LoraParams, variant: Variant) -> Self {
        let mut config = Self::paper_default(lora, variant);
        config.comparator_hysteresis = 0.25;
        config.activity_ratio = 3.0;
        config.streaming_saw_taps = Some(64);
        config
    }

    /// Returns a copy with the analog-noise model enabled or disabled.
    pub fn with_analog_noise(mut self, enabled: bool) -> Self {
        self.analog_noise = enabled;
        self
    }

    /// Returns a copy with the phasor-recurrence oscillator fast path enabled
    /// or disabled (see [`SaiyanConfig::fast_oscillator`]).
    pub fn with_fast_oscillator(mut self, enabled: bool) -> Self {
        self.fast_oscillator = enabled;
        self
    }

    /// The production gateway/receiver profile: this configuration with the
    /// analog-noise model off (the capture already carries channel noise) and
    /// the oscillator fast path on. Decodes are no longer bit-pinned against
    /// the golden traces — use it where throughput matters, not in
    /// regression suites.
    pub fn high_throughput(mut self) -> Self {
        // The 64-tap SAW FIR is the length the gateway's narrow-band
        // channels already deploy; at the full-rate channel it costs a
        // fraction of a dB of stop-band depth while halving the dominant
        // per-sample cost of the whole chain. Profiles that must stay
        // bit-pinned to the golden traces keep the 128-tap default.
        self.streaming_saw_taps = Some(64);
        self.with_analog_noise(false).with_fast_oscillator(true)
    }

    /// The streaming SAW FIR length in use: [`Self::streaming_saw_taps`] or
    /// the default [`crate::frontend::Frontend::STREAMING_SAW_TAPS`].
    pub fn saw_taps(&self) -> usize {
        self.streaming_saw_taps
            .unwrap_or(crate::frontend::Frontend::STREAMING_SAW_TAPS)
    }

    /// The sampler rate in Hz: `sampling_margin * 2 * BW / 2^(SF−K)`.
    pub fn sampler_rate(&self) -> f64 {
        self.sampling_margin * self.lora.nyquist_sampling_rate()
    }

    /// Samples the voltage sampler takes per chirp symbol (may be fractional;
    /// the decoder works in time, not sample counts).
    pub fn sampler_samples_per_symbol(&self) -> f64 {
        self.sampler_rate() * self.lora.symbol_duration()
    }

    /// Returns a copy with a different variant (used by the ablation bench).
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::params::{Bandwidth, BitsPerChirp, SpreadingFactor};

    fn lora() -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        )
    }

    #[test]
    fn sampler_rate_matches_paper_rule() {
        let cfg = SaiyanConfig::paper_default(lora(), Variant::Super);
        // 3.2 * 500 kHz / 2^(7-2) = 50 kHz.
        assert!((cfg.sampler_rate() - 50_000.0).abs() < 1e-6);
        assert!((cfg.sampler_samples_per_symbol() - 12.8).abs() < 1e-9);
    }

    #[test]
    fn variant_capabilities() {
        assert!(!Variant::Vanilla.uses_shifting());
        assert!(Variant::WithShifting.uses_shifting());
        assert!(!Variant::WithShifting.uses_correlation());
        assert!(Variant::Super.uses_correlation());
        assert_eq!(Variant::ALL.len(), 3);
    }

    #[test]
    fn builders() {
        let cfg = SaiyanConfig::paper_default(lora(), Variant::Vanilla)
            .with_variant(Variant::Super)
            .with_seed(9);
        assert_eq!(cfg.variant, Variant::Super);
        assert_eq!(cfg.seed, 9);
    }
}
