//! Wideband channelizer: per-channel down-conversion and decimation.
//!
//! A multi-channel gateway front end digitises one *wideband* IQ stream
//! covering several LoRa channels at once. For each channel the channelizer
//! recovers the channel's own complex baseband — the stream a single-channel
//! receiver would have captured — in three steps:
//!
//! 1. **band-select FIR**: a causal complex band-pass FIR passing
//!    `[offset - guard, offset + passband + guard]` Hz, designed by frequency
//!    sampling exactly like [`crate::saw::SawFilter::streaming_fir`]
//!    (Hann-windowed inverse FFT of the desired response, rotated to linear
//!    phase) — it rejects the neighbouring channels that would otherwise
//!    alias into the decimated stream;
//! 2. **decimation**: keep every `D`-th filtered sample, dropping the rate
//!    from the wideband rate to the per-channel rate (the convolution is only
//!    evaluated at the kept samples);
//! 3. **frequency shift**: multiply each kept sample by
//!    `e^{-j 2π f_off n / f_s}` (with `n` the absolute *wideband* index of
//!    that sample), so the channel's lower band edge — where the Saiyan chirp
//!    sweep starts — lands at 0 Hz. Shifting after decimation is legitimate
//!    because the complex spectrum is circular modulo the output rate, and it
//!    prices the oscillator at the channel rate instead of the wideband rate.
//!
//! Steps 1 and 2 run as one polyphase decimator
//! ([`crate::fir::PolyphaseDecimator`]): the chunk is split into `D` phase
//! streams ([`PhaseSplit`]) and the channel's `D` band-select sub-filters
//! convolve them. The split depends only on `D`, so a multi-channel
//! gateway splits each chunk once and every channel of that decimation reads
//! it ([`ChannelizerState::process_split_into`]); a standalone state splits
//! into its own ([`ChannelizerState::process_chunk_into`]). Both give the
//! same bits.
//!
//! Like every streaming stage in this workspace the channelizer is *chunk
//! invariant*: the oscillator phase is a function of the absolute wideband
//! sample index, the phase split carries the FIR history, and the
//! decimation phase is carried — so outputs are bit-identical however the
//! input stream is chunked.

use std::f64::consts::PI;

use lora_phy::fft::ifft;
use lora_phy::iq::Iq;

use crate::fir::{PhaseSplit, PolyphaseDecimator};

/// Static description of one channel extracted from a wideband stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelizerSpec {
    /// Offset (Hz) of the channel's lower band edge from the wideband centre
    /// frequency. The shift stage moves this offset to 0 Hz.
    pub offset_hz: f64,
    /// Decimation factor `D`: wideband rate / channel rate. Must be ≥ 1.
    pub decimation: usize,
    /// FIR length (power of two ≥ 8). Ignored for a passthrough spec.
    pub n_taps: usize,
    /// Width (Hz) of the wanted channel content above the band edge — the
    /// LoRa bandwidth for a Saiyan channel.
    pub passband_hz: f64,
    /// Extra passband margin (Hz) kept on both sides of the content so the
    /// FIR's transition band does not eat into it.
    pub guard_hz: f64,
    /// Evaluate the down-conversion phasor with the anchored-table fast path
    /// (`anchor · step^t`, with the anchor recomputed exactly on a fixed
    /// absolute-output-index grid and the step powers tabulated once) instead
    /// of one `sin`/`cos` pair per output. Still chunk invariant — both the
    /// anchor grid and the table offset depend only on the absolute output
    /// index — but not bit-identical to the exact phasor, so it defaults to
    /// `false` and receivers opt in via their high-throughput profile.
    pub fast_phasor: bool,
}

impl ChannelizerSpec {
    /// Default FIR length: at the gateway's wideband rates this puts the
    /// design grid's bin spacing well inside the inter-channel guard bands
    /// while the per-output cost stays far below the SAW FIR's.
    pub const DEFAULT_TAPS: usize = 128;

    /// A spec for a channel whose content spans `[offset_hz, offset_hz +
    /// passband_hz]` relative to the wideband centre, decimated by
    /// `decimation`, with default FIR length and a quarter-bandwidth guard.
    pub fn for_channel(offset_hz: f64, passband_hz: f64, decimation: usize) -> Self {
        ChannelizerSpec {
            offset_hz,
            decimation,
            n_taps: Self::DEFAULT_TAPS,
            passband_hz,
            guard_hz: passband_hz / 4.0,
            fast_phasor: false,
        }
    }

    /// The identity spec: no shift, no filtering, no decimation. A gateway
    /// channel built from it sees the raw wideband samples bit-for-bit.
    pub fn passthrough() -> Self {
        ChannelizerSpec {
            offset_hz: 0.0,
            decimation: 1,
            n_taps: 0,
            passband_hz: 0.0,
            guard_hz: 0.0,
            fast_phasor: false,
        }
    }

    /// Returns a copy with the anchored-recurrence phasor fast path enabled
    /// or disabled (see [`ChannelizerSpec::fast_phasor`]).
    pub fn with_fast_phasor(mut self, fast: bool) -> Self {
        self.fast_phasor = fast;
        self
    }

    /// Whether this spec is the identity (zero offset, no decimation): the
    /// streaming state then forwards samples untouched.
    pub fn is_passthrough(&self) -> bool {
        self.offset_hz == 0.0 && self.decimation == 1
    }

    /// Returns a copy with a different FIR length.
    pub fn with_taps(mut self, n_taps: usize) -> Self {
        self.n_taps = n_taps;
        self
    }

    /// Creates the streaming channelizer state for a wideband stream at
    /// `wideband_rate` Hz.
    pub fn streaming(&self, wideband_rate: f64) -> ChannelizerState {
        assert!(wideband_rate > 0.0, "wideband rate must be positive");
        assert!(self.decimation >= 1, "decimation must be at least 1");
        if self.is_passthrough() {
            return ChannelizerState {
                passthrough: true,
                phase_step: 0.0,
                decimation: 1,
                fir: None,
                fast_phasor: false,
                out_count: 0,
                anchor: Iq::ONE,
                anchor_base: u64::MAX,
                rot_table: Vec::new(),
            };
        }
        assert!(
            self.n_taps >= 8 && self.n_taps.is_power_of_two(),
            "n_taps must be a power of two >= 8, got {}",
            self.n_taps
        );
        let l = self.n_taps;
        // Desired response on the design grid: unit gain over the channel's
        // own band [offset - guard, offset + passband + guard], zero
        // elsewhere (the same frequency-sampling design as the streaming SAW
        // FIR, but band-pass at the channel offset — the shift to baseband
        // happens after decimation).
        let lo = self.offset_hz - self.guard_hz;
        let hi = self.offset_hz + self.passband_hz + self.guard_hz;
        let desired: Vec<Iq> = (0..l)
            .map(|k| {
                let fb = if (k as f64) < l as f64 / 2.0 {
                    k as f64 * wideband_rate / l as f64
                } else {
                    (k as f64 - l as f64) * wideband_rate / l as f64
                };
                if fb >= lo && fb <= hi {
                    Iq::ONE
                } else {
                    Iq::ZERO
                }
            })
            .collect();
        let h = ifft(&desired).expect("n_taps is a power of two");
        // Rotate the zero-phase kernel to causal linear phase (group delay
        // l/2 samples) and taper with a Hann window to suppress Gibbs ripple.
        let delay = l / 2;
        let taps: Vec<Iq> = (0..l)
            .map(|i| {
                let w = 0.5 * (1.0 - (2.0 * PI * i as f64 / l as f64).cos());
                h[(i + l - delay) % l].scale(w)
            })
            .collect();
        let phase_step = -2.0 * PI * self.offset_hz / wideband_rate;
        // Step powers for the fast path: `rot_table[t] = step^t` built by the
        // serial recurrence once, where `step` is the phasor advance per
        // output (D wideband samples).
        let rot_table = if self.fast_phasor {
            let step = Iq::phasor(phase_step * self.decimation as f64);
            let mut table = Vec::with_capacity(PHASOR_ANCHOR_INTERVAL as usize);
            let mut z = Iq::ONE;
            for _ in 0..PHASOR_ANCHOR_INTERVAL {
                table.push(z);
                z *= step;
            }
            table
        } else {
            Vec::new()
        };
        ChannelizerState {
            passthrough: false,
            phase_step,
            decimation: self.decimation,
            fir: Some(PolyphaseDecimator::new(taps, self.decimation)),
            fast_phasor: self.fast_phasor,
            out_count: 0,
            anchor: Iq::ONE,
            anchor_base: u64::MAX,
            rot_table,
        }
    }
}

/// Carried state of one channel's down-conversion chain: absolute-index
/// oscillator phase, polyphase FIR delay lines and decimation phase.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelizerState {
    passthrough: bool,
    /// Oscillator phase increment per wideband sample (radians).
    phase_step: f64,
    decimation: usize,
    fir: Option<PolyphaseDecimator>,
    /// Use the anchored-recurrence phasor (see
    /// [`ChannelizerSpec::fast_phasor`]).
    fast_phasor: bool,
    /// Absolute index of the next output (drives the phasor anchor grid).
    out_count: u64,
    /// Exact phasor at the current anchor interval's base output (fast path).
    anchor: Iq,
    /// Base output index [`Self::anchor`] was computed for (`u64::MAX` until
    /// the first fast-path output).
    anchor_base: u64,
    /// Tabulated per-output step powers `step^t` for `t` within an anchor
    /// interval (empty unless the fast path is enabled).
    rot_table: Vec<Iq>,
}

/// Output-index spacing of the fast-phasor anchor grid: the rotation error
/// accumulated across the tabulated step powers between exact re-anchors
/// stays at a few ULPs.
const PHASOR_ANCHOR_INTERVAL: u64 = 256;

impl ChannelizerState {
    /// Whether this state forwards samples untouched.
    pub fn is_passthrough(&self) -> bool {
        self.passthrough
    }

    /// The polyphase band-select FIR (`None` for a passthrough), for sizing
    /// a [`PhaseSplit`] shared with other channels.
    pub fn decimator(&self) -> Option<&PolyphaseDecimator> {
        self.fir.as_ref()
    }

    /// Processes one wideband chunk, returning the channel-rate samples that
    /// completed within it (one per `decimation` inputs). Allocates a fresh
    /// buffer per call; steady-state callers (the gateway worker loop) should
    /// prefer [`Self::process_chunk_into`].
    pub fn process_chunk(&mut self, chunk: &[Iq]) -> Vec<Iq> {
        let mut out = Vec::new();
        self.process_chunk_into(chunk, &mut out);
        out
    }

    /// Processes one wideband chunk into a caller-provided buffer (cleared
    /// first), with no steady-state allocation: the band-select FIR runs in
    /// polyphase form over the state's own phase split
    /// ([`PolyphaseDecimator::filter_chunk_into`]), then each kept sample is
    /// rotated by the down-conversion phasor anchored on its absolute
    /// wideband index (exactly per output, or via the anchored recurrence
    /// when [`ChannelizerSpec::fast_phasor`] is set).
    pub fn process_chunk_into(&mut self, chunk: &[Iq], out: &mut Vec<Iq>) {
        if self.passthrough {
            out.clear();
            out.extend_from_slice(chunk);
            return;
        }
        let fir = self.fir.as_mut().expect("non-passthrough state has a FIR");
        fir.filter_chunk_into(chunk, out);
        self.shift(out);
    }

    /// The shared-split twin of [`Self::process_chunk_into`]: filters the
    /// samples last pushed into `split` — one phase split read by every
    /// channel of the same decimation
    /// ([`PolyphaseDecimator::filter_split_into`]) — and shifts them to
    /// baseband. Bit-identical to feeding the same chunks to
    /// [`Self::process_chunk_into`].
    ///
    /// # Panics
    ///
    /// On a passthrough state (it has no FIR to read a split with), or if
    /// the split does not fit the FIR (see
    /// [`PolyphaseDecimator::filter_split_into`]).
    pub fn process_split_into(&mut self, split: &PhaseSplit, out: &mut Vec<Iq>) {
        let fir = self
            .fir
            .as_mut()
            .expect("a passthrough channel reads the raw chunk, not a phase split");
        fir.filter_split_into(split, out);
        self.shift(out);
    }

    /// Rotates freshly decimated outputs to baseband, each by the
    /// down-conversion phasor of its absolute output index.
    fn shift(&mut self, out: &mut [Iq]) {
        let d = self.decimation as u64;
        if self.fast_phasor {
            // Anchor-interval runs: every output inside a run shares the
            // interval's exact anchor phasor and picks its own tabulated step
            // power, so the whole run is one elementwise kernel call.
            let backend = crate::simd::active_backend();
            let mut i = 0usize;
            while i < out.len() {
                let t = (self.out_count % PHASOR_ANCHOR_INTERVAL) as usize;
                let base = self.out_count - t as u64;
                if self.anchor_base != base {
                    self.anchor = Iq::phasor(self.phase_step * (base * d + (d - 1)) as f64);
                    self.anchor_base = base;
                }
                let run = (PHASOR_ANCHOR_INTERVAL as usize - t).min(out.len() - i);
                crate::simd::rotate_by_table_in_place(
                    backend,
                    &mut out[i..i + run],
                    self.anchor,
                    &self.rot_table[t..t + run],
                );
                self.out_count += run as u64;
                i += run;
            }
        } else {
            // Output k corresponds to absolute wideband index kD + D - 1.
            for y in out.iter_mut() {
                *y *= Iq::phasor(self.phase_step * (self.out_count * d + (d - 1)) as f64);
                self.out_count += 1;
            }
        }
    }
}

impl crate::stage::BlockStage for ChannelizerState {
    type In = Iq;
    type Out = Iq;
    fn process_into(&mut self, input: &[Iq], out: &mut Vec<Iq>) {
        self.process_chunk_into(input, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(offset_hz: f64, fs: f64, n: usize) -> Vec<Iq> {
        let w = 2.0 * PI * offset_hz / fs;
        (0..n).map(|i| Iq::phasor(w * i as f64)).collect()
    }

    #[test]
    fn passthrough_is_the_identity() {
        let spec = ChannelizerSpec::passthrough();
        assert!(spec.is_passthrough());
        let mut state = spec.streaming(1e6);
        let input = tone(12_345.0, 1e6, 777);
        let out = state.process_chunk(&input);
        assert_eq!(out, input);
    }

    #[test]
    fn chunked_processing_is_bit_identical() {
        let fs = 2e6;
        let spec = ChannelizerSpec::for_channel(-250_000.0, 125_000.0, 8);
        let input = tone(-200_000.0, fs, 6_000);
        let whole = spec.streaming(fs).process_chunk(&input);
        for chunk_size in [1usize, 7, 64, 4096] {
            let mut state = spec.streaming(fs);
            let mut out = Vec::new();
            for chunk in input.chunks(chunk_size) {
                out.extend(state.process_chunk(chunk));
            }
            assert_eq!(out, whole, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn decimation_produces_one_output_per_d_inputs() {
        let fs = 1e6;
        let spec = ChannelizerSpec::for_channel(100_000.0, 125_000.0, 4);
        let mut state = spec.streaming(fs);
        // 10 inputs at D=4 -> 2 outputs; next 2 inputs complete the third.
        assert_eq!(state.process_chunk(&tone(0.0, fs, 10)).len(), 2);
        assert_eq!(state.process_chunk(&tone(0.0, fs, 2)).len(), 1);
    }

    #[test]
    fn in_band_tone_passes_and_neighbour_is_rejected() {
        let fs = 2e6;
        let offset = 250_000.0;
        let bw = 125_000.0;
        let spec = ChannelizerSpec::for_channel(offset, bw, 8);
        let n = 16_000;
        let steady = |out: &[Iq]| {
            let s = &out[out.len() / 2..];
            s.iter().map(Iq::abs).sum::<f64>() / s.len() as f64
        };
        // A tone in the middle of the channel comes through near unit gain.
        let mut state = spec.streaming(fs);
        let wanted = steady(&state.process_chunk(&tone(offset + bw / 2.0, fs, n)));
        assert!(
            (20.0 * wanted.log10()).abs() < 1.0,
            "in-band gain {wanted:.3}"
        );
        // A tone in the middle of the next 500 kHz grid slot is crushed.
        let mut state = spec.streaming(fs);
        let neighbour = steady(&state.process_chunk(&tone(offset + 500_000.0 + bw / 2.0, fs, n)));
        assert!(
            20.0 * (neighbour / wanted).log10() < -40.0,
            "neighbour leak {:.1} dB",
            20.0 * (neighbour / wanted).log10()
        );
    }

    #[test]
    fn shift_moves_the_band_edge_to_dc() {
        let fs = 2e6;
        let offset = -500_000.0;
        let spec = ChannelizerSpec::for_channel(offset, 125_000.0, 4);
        let mut state = spec.streaming(fs);
        // A tone 50 kHz above the channel base must come out at +50 kHz.
        let out = state.process_chunk(&tone(offset + 50_000.0, fs, 20_000));
        let out_fs = fs / 4.0;
        let steady = &out[out.len() / 2..];
        let mut freq = 0.0;
        for pair in steady.windows(2) {
            freq += (pair[1] * pair[0].conj()).arg() * out_fs / (2.0 * PI);
        }
        freq /= (steady.len() - 1) as f64;
        assert!((freq - 50_000.0).abs() < 500.0, "measured {freq:.0} Hz");
    }

    #[test]
    fn fast_phasor_tracks_exact_within_tolerance_and_is_chunk_invariant() {
        let fs = 2e6;
        let input = tone(-180_000.0, fs, 60_000);
        let exact_spec = ChannelizerSpec::for_channel(-250_000.0, 125_000.0, 4);
        let fast_spec = exact_spec.clone().with_fast_phasor(true);
        let mut exact = Vec::new();
        exact_spec
            .streaming(fs)
            .process_chunk_into(&input, &mut exact);
        let mut fast = Vec::new();
        fast_spec
            .streaming(fs)
            .process_chunk_into(&input, &mut fast);
        assert_eq!(exact.len(), fast.len());
        let worst = exact
            .iter()
            .zip(&fast)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-9, "fast phasor drifted by {worst:.3e}");
        // The anchored recurrence is still bit-exactly chunk invariant.
        for chunk_size in [1usize, 7, 997, 16_384] {
            let mut state = fast_spec.streaming(fs);
            let mut got = Vec::new();
            let mut scratch = Vec::new();
            for chunk in input.chunks(chunk_size) {
                state.process_chunk_into(chunk, &mut scratch);
                got.extend_from_slice(&scratch);
            }
            assert_eq!(got, fast, "chunk size {chunk_size}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_tap_count_is_rejected() {
        ChannelizerSpec::for_channel(0.0, 125_000.0, 2)
            .with_taps(100)
            .streaming(1e6);
    }
}
