//! Clock generation: micro-power oscillator and delay line.
//!
//! The cyclic-frequency-shifting circuit needs two clock signals
//! `CLK_in(Δf)` and `CLK_out(Δf)`. To save power the prototype generates only
//! `CLK_in` (from an LTC6907 micro-power oscillator driven by the MCU) and
//! derives `CLK_out` by passing it through a transmission-line delay whose
//! phase shift `Δφ` is tuned so `cos(Δφ) ≈ 1` (paper Eq. 5).

use std::f64::consts::PI;

use crate::signal::RealBuffer;

/// A square/sine clock source at a programmable frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oscillator {
    /// Clock frequency in Hz.
    pub frequency: f64,
    /// Initial phase in radians.
    pub phase: f64,
    /// Peak amplitude (volts).
    pub amplitude: f64,
    /// Frequency error in parts-per-million (models a cheap RC oscillator).
    pub ppm_error: f64,
}

impl Oscillator {
    /// Creates an ideal oscillator at `frequency` Hz with unit amplitude.
    pub fn new(frequency: f64) -> Self {
        Oscillator {
            frequency,
            phase: 0.0,
            amplitude: 1.0,
            ppm_error: 0.0,
        }
    }

    /// The LTC6907-class micro-power oscillator used by the prototype:
    /// ±0.5 % (5000 ppm) frequency tolerance.
    pub fn ltc6907(frequency: f64) -> Self {
        Oscillator {
            frequency,
            phase: 0.0,
            amplitude: 1.0,
            ppm_error: 0.0,
        }
    }

    /// Returns a copy with the given initial phase.
    pub fn with_phase(mut self, phase: f64) -> Self {
        self.phase = phase;
        self
    }

    /// Returns a copy with the given frequency error in ppm.
    pub fn with_ppm_error(mut self, ppm: f64) -> Self {
        self.ppm_error = ppm;
        self
    }

    /// The actual output frequency including the ppm error.
    pub fn actual_frequency(&self) -> f64 {
        self.frequency * (1.0 + self.ppm_error * 1e-6)
    }

    /// Generates `len` samples of the (sinusoidal) clock at `sample_rate`.
    pub fn generate(&self, len: usize, sample_rate: f64) -> RealBuffer {
        let w = 2.0 * PI * self.actual_frequency() / sample_rate;
        let samples = (0..len)
            .map(|n| self.amplitude * (w * n as f64 + self.phase).cos())
            .collect();
        RealBuffer::new(samples, sample_rate)
    }

    /// The clock value at absolute sample index `n` of a stream running at
    /// `sample_rate`. Streaming stages use this so the clock phase is a
    /// function of the global sample position, not of chunk boundaries:
    /// `value_at(n, fs)` equals `generate(len, fs).samples[n]` for any
    /// `len > n`.
    pub fn value_at(&self, n: u64, sample_rate: f64) -> f64 {
        let w = 2.0 * PI * self.actual_frequency() / sample_rate;
        self.amplitude * (w * n as f64 + self.phase).cos()
    }

    /// Writes the clock values for absolute sample indices
    /// `start_index .. start_index + len` into `out` (cleared first).
    ///
    /// This is the block form of [`Self::value_at`]: each output is the same
    /// expression with the per-sample phase increment hoisted out of the
    /// loop, so every value is bit-identical to `value_at` while a chunked
    /// mixer pays one `cos` call per sample and no per-call setup.
    pub fn values_into(&self, start_index: u64, len: usize, sample_rate: f64, out: &mut Vec<f64>) {
        let w = 2.0 * PI * self.actual_frequency() / sample_rate;
        out.clear();
        out.reserve(len);
        for i in 0..len {
            out.push(self.amplitude * (w * (start_index + i as u64) as f64 + self.phase).cos());
        }
    }

    /// Sample spacing of the fast path's anchor grid: between exact
    /// re-anchors the recurrence accumulates only a few ULPs of rotation
    /// error.
    pub const RECURRENCE_ANCHOR_INTERVAL: u64 = 256;

    /// The phasor-recurrence fast path of [`Self::values_into`]: one complex
    /// rotation per sample instead of one `cos` call.
    ///
    /// The recurrence is *re-anchored on the absolute sample index*: at every
    /// multiple of [`Self::RECURRENCE_ANCHOR_INTERVAL`] the phasor is
    /// evaluated exactly (via `sin`/`cos`) and then rotated by `e^{jω}` per
    /// sample. Each output is therefore a pure function of its absolute
    /// index — chunked evaluation is bit-identical whatever the chunk
    /// boundaries — and rounding error cannot accumulate beyond one anchor
    /// interval (a few ULPs — see the tolerance test). Because the
    /// recurrence rounds differently from libm `cos`, outputs are *not*
    /// bit-identical to the exact path; receivers keep the exact path as the
    /// default so golden traces stay pinned, and opt in via
    /// `SaiyanConfig::fast_oscillator` when throughput matters more than
    /// bit-stability.
    pub fn values_into_recurrence(
        &self,
        start_index: u64,
        len: usize,
        sample_rate: f64,
        out: &mut Vec<f64>,
    ) {
        self.values_into_recurrence_dispatch(
            crate::simd::active_backend(),
            start_index,
            len,
            sample_rate,
            out,
        );
    }

    /// [`Self::values_into_recurrence`] with an explicit kernel backend —
    /// the seam the SIMD equivalence tests use to pin every backend against
    /// the scalar chain in one process.
    #[doc(hidden)]
    pub fn values_into_recurrence_dispatch(
        &self,
        backend: crate::simd::Backend,
        start_index: u64,
        len: usize,
        sample_rate: f64,
        out: &mut Vec<f64>,
    ) {
        let w = 2.0 * PI * self.actual_frequency() / sample_rate;
        out.clear();
        out.resize(len, 0.0);
        let (step_re, step_im) = (w.cos(), w.sin());
        // The anchor grid makes every aligned 256-sample block an independent
        // rotation chain, so a wide backend runs one chain per lane. The
        // ragged head (up to the first anchor) and tail (after the last full
        // block) go through the scalar segment, which re-anchors on the same
        // absolute grid — outputs are bit-identical to one segment over the
        // whole span whatever the split.
        let interval = Self::RECURRENCE_ANCHOR_INTERVAL as usize;
        let head = ((Self::RECURRENCE_ANCHOR_INTERVAL
            - (start_index % Self::RECURRENCE_ANCHOR_INTERVAL))
            % Self::RECURRENCE_ANCHOR_INTERVAL) as usize;
        let head = head.min(len);
        let full = (len - head) / interval;
        self.recurrence_segment(start_index, w, step_re, step_im, &mut out[..head]);
        // Chains are processed in bounded groups so steady-state streaming
        // stays allocation-free.
        const GROUP: usize = 64;
        let mut anchor_re = [0.0f64; GROUP];
        let mut anchor_im = [0.0f64; GROUP];
        let mut chain = 0usize;
        while chain < full {
            let group = (full - chain).min(GROUP);
            for g in 0..group {
                let n = start_index + (head + (chain + g) * interval) as u64;
                let theta = w * n as f64 + self.phase;
                anchor_re[g] = self.amplitude * theta.cos();
                anchor_im[g] = self.amplitude * theta.sin();
            }
            let base = head + chain * interval;
            crate::simd::rotate_chains_into(
                backend,
                &anchor_re[..group],
                &anchor_im[..group],
                step_re,
                step_im,
                interval,
                &mut out[base..base + group * interval],
            );
            chain += group;
        }
        let tail_start = head + full * interval;
        self.recurrence_segment(
            start_index + tail_start as u64,
            w,
            step_re,
            step_im,
            &mut out[tail_start..],
        );
    }

    /// The scalar phasor recurrence over one contiguous segment — the
    /// golden reference of [`Self::values_into_recurrence`]: catch up from
    /// the grid anchor below `start_index`, then rotate once per sample,
    /// re-anchoring exactly at every grid multiple.
    fn recurrence_segment(
        &self,
        start_index: u64,
        w: f64,
        step_re: f64,
        step_im: f64,
        out: &mut [f64],
    ) {
        if out.is_empty() {
            return;
        }
        let anchor_of = |n: u64| n - (n % Self::RECURRENCE_ANCHOR_INTERVAL);
        let exact = |n: u64| {
            let theta = w * n as f64 + self.phase;
            (self.amplitude * theta.cos(), self.amplitude * theta.sin())
        };
        // Catch up from the grid anchor below `start_index`, replaying the
        // same rotations any other chunking would have applied.
        let mut n = start_index;
        let (mut z_re, mut z_im) = exact(anchor_of(n));
        for _ in 0..(n - anchor_of(n)) {
            let re = z_re * step_re - z_im * step_im;
            z_im = z_re * step_im + z_im * step_re;
            z_re = re;
        }
        for slot in out.iter_mut() {
            if n.is_multiple_of(Self::RECURRENCE_ANCHOR_INTERVAL) {
                (z_re, z_im) = exact(n);
            }
            *slot = z_re;
            let re = z_re * step_re - z_im * step_im;
            z_im = z_re * step_im + z_im * step_re;
            z_re = re;
            n += 1;
        }
    }
}

/// A transmission-line delay that copies `CLK_in` into `CLK_out` with a phase
/// shift `Δφ` (paper Eq. 5). The line length is expressed directly as the
/// phase shift it introduces at the clock frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayLine {
    /// Phase shift introduced at the clock frequency, radians.
    pub phase_shift: f64,
}

impl DelayLine {
    /// Creates a delay line with the given phase shift.
    pub fn new(phase_shift: f64) -> Self {
        DelayLine { phase_shift }
    }

    /// A line tuned (as in the paper) so `cos(Δφ) ≈ 1`, i.e. a small residual
    /// phase error of about 0.1 rad.
    pub fn tuned() -> Self {
        DelayLine { phase_shift: 0.1 }
    }

    /// The amplitude factor `cos(Δφ)` the residual phase error costs after the
    /// output mixer.
    pub fn amplitude_factor(&self) -> f64 {
        self.phase_shift.cos()
    }

    /// Derives the output clock from the input oscillator.
    pub fn derive(&self, input: &Oscillator) -> Oscillator {
        input.with_phase(input.phase + self.phase_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oscillator_frequency_is_respected() {
        let osc = Oscillator::new(100_000.0);
        let fs = 2.0e6;
        let clock = osc.generate(4_000, fs);
        // Count zero crossings: a 100 kHz sine over 2 ms has ~400 crossings.
        let crossings = clock
            .samples
            .windows(2)
            .filter(|w| (w[0] >= 0.0) != (w[1] >= 0.0))
            .count();
        assert!((crossings as i64 - 400).abs() <= 2, "crossings {crossings}");
    }

    #[test]
    fn ppm_error_changes_frequency() {
        let osc = Oscillator::new(1_000_000.0).with_ppm_error(5_000.0);
        assert!((osc.actual_frequency() - 1_005_000.0).abs() < 1e-6);
    }

    #[test]
    fn delay_line_adds_phase() {
        let osc = Oscillator::new(500_000.0);
        let line = DelayLine::new(0.25);
        let derived = line.derive(&osc);
        assert!((derived.phase - 0.25).abs() < 1e-12);
        assert_eq!(derived.frequency, osc.frequency);
    }

    #[test]
    fn tuned_line_loses_almost_nothing() {
        let line = DelayLine::tuned();
        assert!(line.amplitude_factor() > 0.99);
    }

    #[test]
    fn value_at_matches_generate_regardless_of_chunking() {
        let osc = Oscillator::new(123_456.0)
            .with_phase(0.3)
            .with_ppm_error(40.0);
        let fs = 2.0e6;
        let batch = osc.generate(500, fs);
        for n in [0u64, 1, 7, 63, 499] {
            assert_eq!(osc.value_at(n, fs), batch.samples[n as usize]);
        }
    }

    #[test]
    fn values_into_is_bit_identical_to_value_at() {
        let osc = Oscillator::new(237_000.0)
            .with_phase(1.1)
            .with_ppm_error(-120.0);
        let fs = 2.0e6;
        let mut block = Vec::new();
        for start in [0u64, 1, 977, 1 << 40] {
            osc.values_into(start, 300, fs, &mut block);
            for (i, &v) in block.iter().enumerate() {
                assert_eq!(v, osc.value_at(start + i as u64, fs), "index {i}");
            }
        }
    }

    #[test]
    fn recurrence_tracks_the_exact_path_within_tolerance() {
        // The fast path re-anchors per block, so the rotation error itself
        // stays at a few ULPs over a 4096-sample chunk. What remains is the
        // rounding of the phase product `w * n` (shared with the exact path
        // but rounded at a different point), which grows with the absolute
        // sample index: tight near the stream origin, ~ulp(w * n) deep in.
        let osc = Oscillator::new(500_000.0)
            .with_phase(0.4)
            .with_ppm_error(80.0);
        let fs = 2.0e6;
        let mut exact = Vec::new();
        let mut fast = Vec::new();
        let mut check = |first_block: u64, bound: f64| {
            let mut worst: f64 = 0.0;
            for block in 0u64..32 {
                let start = (first_block + block) * 4096;
                osc.values_into(start, 4096, fs, &mut exact);
                osc.values_into_recurrence(start, 4096, fs, &mut fast);
                for (a, b) in exact.iter().zip(&fast) {
                    worst = worst.max((a - b).abs());
                }
            }
            assert!(
                worst < bound,
                "recurrence drifted by {worst:.3e} (bound {bound:.0e}) from block {first_block}"
            );
        };
        // Near the origin: recurrence rounding only.
        check(0, 1e-9);
        // An hour into a 2 Msps stream: phase-product rounding dominates but
        // stays far below any decision threshold in the chain.
        check((1 << 33) / 4096, 1e-5);
    }

    #[test]
    fn recurrence_dispatch_pins_anchor_boundaries_across_backends() {
        // Boundary matrix for the 256-sample anchor grid: starts on, just
        // before, and just after anchors; lengths that end exactly on, one
        // short of, and one past the next anchor; a zero-length chunk; a
        // chunk that never reaches its first anchor (head >= len); and a
        // span crossing the 64-chain batching boundary of the chain path.
        // Every available backend must be bit-identical to one scalar
        // segment over the whole span at every point of the matrix.
        use crate::simd::Backend;
        let osc = Oscillator::new(237_000.0)
            .with_phase(1.1)
            .with_ppm_error(-120.0);
        let fs = 2.0e6;
        let iv = Oscillator::RECURRENCE_ANCHOR_INTERVAL;
        let starts = [0u64, 1, iv - 1, iv, iv + 1, 7 * iv + 13, (1 << 40) - 1];
        let lens = [
            0usize,
            1,
            2,
            255,
            256,
            257,
            300,
            511,
            512,
            513,
            65 * 256 + 7,
        ];
        let mut want = Vec::new();
        let mut got = Vec::new();
        for backend in Backend::ALL {
            if !backend.available() {
                continue;
            }
            for &start in &starts {
                for &len in &lens {
                    let w = 2.0 * PI * osc.actual_frequency() / fs;
                    want.clear();
                    want.resize(len, 0.0);
                    osc.recurrence_segment(start, w, w.cos(), w.sin(), &mut want);
                    osc.values_into_recurrence_dispatch(backend, start, len, fs, &mut got);
                    assert_eq!(got, want, "{} start {start} len {len}", backend.name());
                }
            }
        }
    }

    #[test]
    fn recurrence_is_chunk_invariant_across_anchor_boundaries() {
        // Each output is a pure function of its absolute sample index, so
        // concatenating ragged chunks — cut mid-interval, exactly on an
        // anchor, one sample to either side, and as single samples right at
        // a boundary — reproduces the single-call output bit-exactly.
        let osc = Oscillator::new(237_000.0)
            .with_phase(1.1)
            .with_ppm_error(-120.0);
        let fs = 2.0e6;
        let start = 100u64;
        let total = 1500usize;
        let mut whole = Vec::new();
        osc.values_into_recurrence(start, total, fs, &mut whole);
        // Offsets relative to `start`; the first anchor (absolute 256) sits
        // at offset 156, the next at 412.
        let cuts = [0usize, 1, 155, 156, 157, 412, 413, 1023, total];
        let mut concat = Vec::new();
        let mut piece = Vec::new();
        for pair in cuts.windows(2) {
            osc.values_into_recurrence(start + pair[0] as u64, pair[1] - pair[0], fs, &mut piece);
            concat.extend_from_slice(&piece);
        }
        assert_eq!(concat, whole);
    }

    #[test]
    fn clock_amplitude() {
        let osc = Oscillator::new(1000.0);
        let clock = osc.generate(1000, 100_000.0);
        assert!((clock.max() - 1.0).abs() < 1e-3);
        assert!((clock.min() + 1.0).abs() < 1e-3);
    }
}
