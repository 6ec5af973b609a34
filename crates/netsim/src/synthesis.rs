//! Emission mixing: a start-sorted pending queue of transmissions summed
//! into bounded chunks by slice-kernel passes instead of a per-sample
//! indexed loop. It is the one place IQ synthesis rotates and sums packets:
//! the waveform-path engine mixes chunk by chunk, and the `longtrace` and
//! `multichannel` trace generators are layout presets that push every
//! packet and mix the whole trace in one pass.
//!
//! An [`EmissionMixer`] owns every transmission currently overlapping the
//! synthesis cursor. Each emission carries its power-scaled baseband
//! samples (assembled from the chirp template cache — no oscillator runs
//! per packet) plus one *fused* rotation that applies the tag's CFO and the
//! channel's frequency offset in a single complex multiply per sample:
//!
//! * the CFO rotation is buffer-local (`exp(j·cfo_step·(i − start))`, the
//!   transmitter's oscillator error starting at the packet's first sample),
//! * the channel mix is absolute (`exp(j·chan_step·i)`, the channel's place
//!   in the wideband capture),
//!
//! so the combined phase at absolute wideband sample `i` is
//! `step·i + phi0` with `step = cfo_step + chan_step` and
//! `phi0 = −cfo_step·start`.
//!
//! ## Chunk invariance
//!
//! The rotation is evaluated as `anchor(b) · table[i − b]`, where `b` is
//! the emission's enclosing [`ANCHOR_BLOCK`]-aligned *absolute* block base,
//! `anchor(b) = phasor(step·b + phi0)` is recomputed exactly per block, and
//! `table[t] = phasor(step·t)` is a per-emission table built once at push
//! time. Every factor depends only on absolute sample indices — never on
//! where a chunk boundary falls — and each chunk sample receives its
//! emission contributions in creation order, so the synthesized stream is
//! bit-identical under any chunk partitioning.
//!
//! ## Exactness
//!
//! When an emission has no CFO and no channel offset (`step == 0`,
//! `phi0 == 0`) the mixer takes a plain [`simd::accumulate_in_place`] pass
//! over the pre-scaled samples — exactly `chunk[i] += s`, which keeps the
//! single-channel engine stream bit-identical to `generate_long_trace`.
//! Rotated emissions match the exact
//! per-sample rotation (one phasor per sample) to rounding error rather
//! than bit-for-bit: within 1e-9 relative to the packet amplitude.
//!
//! ## Buffer lifecycle
//!
//! Retired emissions return their sample and table vectors to free lists
//! inside the mixer, so steady-state synthesis allocates nothing: packet
//! assembly writes into a recycled buffer sized by earlier packets of the
//! same scenario.

use lora_phy::iq::Iq;
use lora_phy::simd::{self, Backend};

/// Absolute-grid anchor spacing (samples) for the fused rotation. Phase is
/// re-anchored on every 256-sample boundary of the *wideband* sample index,
/// so rotation error stays bounded and chunk boundaries cannot influence
/// the result.
pub const ANCHOR_BLOCK: usize = 256;

/// One in-flight transmission pinned to the wideband timeline.
#[derive(Debug)]
struct Emission {
    /// Absolute wideband sample index of the first sample.
    start: u64,
    /// Power-scaled baseband samples (no CFO applied — fused below).
    samples: Vec<Iq>,
    /// Combined per-sample phase step: CFO plus channel offset.
    step: f64,
    /// Phase at absolute sample 0 (`−cfo_step·start`): re-bases the
    /// buffer-local CFO rotation onto the absolute grid.
    phi0: f64,
    /// `table[t] = phasor(step·t)` for `t` in `0..ANCHOR_BLOCK`; empty for
    /// the zero-rotation fast path.
    table: Vec<Iq>,
}

impl Emission {
    #[inline]
    fn end(&self) -> u64 {
        self.start + self.samples.len() as u64
    }

    #[inline]
    fn rotated(&self) -> bool {
        !self.table.is_empty()
    }
}

/// Start-sorted pending-emission queue with pooled buffers and
/// backend-dispatched mixing kernels. See the [module docs](self).
#[derive(Debug)]
pub struct EmissionMixer {
    pending: Vec<Emission>,
    sample_pool: Vec<Vec<Iq>>,
    table_pool: Vec<Vec<Iq>>,
    backend: Backend,
}

impl EmissionMixer {
    /// A mixer using the process-wide dispatched SIMD backend.
    pub fn new() -> Self {
        Self::with_backend(simd::active_backend())
    }

    /// A mixer pinned to an explicit backend (tests pin every available
    /// backend against the scalar reference).
    pub fn with_backend(backend: Backend) -> Self {
        EmissionMixer {
            pending: Vec::new(),
            sample_pool: Vec::new(),
            table_pool: Vec::new(),
            backend,
        }
    }

    /// Takes a cleared sample buffer from the pool (or a fresh one) for the
    /// caller to assemble a packet into before [`Self::push`].
    pub fn take_buffer(&mut self) -> Vec<Iq> {
        self.sample_pool.pop().unwrap_or_default()
    }

    /// Number of emissions still overlapping or ahead of the cursor.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Queues one transmission. `samples` is the power-scaled baseband
    /// waveform (typically assembled into a buffer from
    /// [`Self::take_buffer`]); `cfo_hz` rotates it buffer-locally and
    /// `channel_offset_hz` mixes it to its channel on the absolute grid,
    /// fused into one rotation.
    ///
    /// Emissions must be pushed in non-decreasing `start` order — the
    /// engine's event queue pops transmissions in time order and the trace
    /// presets lay packets out in start order, so creation order *is* start
    /// order — which is what lets [`Self::mix_into`] stop scanning at the
    /// first emission beyond the chunk.
    pub fn push(
        &mut self,
        start: u64,
        samples: Vec<Iq>,
        cfo_hz: f64,
        channel_offset_hz: f64,
        fs: f64,
    ) {
        debug_assert!(
            self.pending.last().is_none_or(|e| e.start <= start),
            "emissions must be pushed in start order"
        );
        let cfo_step = 2.0 * std::f64::consts::PI * cfo_hz / fs;
        let chan_step = 2.0 * std::f64::consts::PI * channel_offset_hz / fs;
        let step = cfo_step + chan_step;
        let phi0 = -(cfo_step * start as f64);
        let mut table = self.table_pool.pop().unwrap_or_default();
        if step != 0.0 || phi0 != 0.0 {
            table.extend((0..ANCHOR_BLOCK).map(|t| Iq::phasor(step * t as f64)));
        }
        self.pending.push(Emission {
            start,
            samples,
            step,
            phi0,
            table,
        });
    }

    /// Adds every overlapping emission into `chunk` (whose first sample is
    /// absolute index `pos`), then retires fully consumed emissions back to
    /// the buffer pools. Contributions land in creation order per sample,
    /// and all rotation state is keyed to absolute indices, so the result
    /// is independent of the chunk partitioning.
    pub fn mix_into(&mut self, chunk: &mut [Iq], pos: u64) {
        let chunk_end = pos + chunk.len() as u64;
        for e in &self.pending {
            if e.start >= chunk_end {
                // Start-sorted: nothing later can overlap either.
                break;
            }
            let lo = e.start.max(pos);
            let hi = e.end().min(chunk_end);
            if lo >= hi {
                continue;
            }
            let out = &mut chunk[(lo - pos) as usize..(hi - pos) as usize];
            let src = &e.samples[(lo - e.start) as usize..(hi - e.start) as usize];
            if !e.rotated() {
                simd::accumulate_in_place(self.backend, out, src);
                continue;
            }
            // Walk the absolute ANCHOR_BLOCK grid across [lo, hi).
            let block = ANCHOR_BLOCK as u64;
            let mut run_lo = lo;
            while run_lo < hi {
                let base = run_lo / block * block;
                let run_hi = hi.min(base + block);
                let anchor = Iq::phasor(e.step * base as f64 + e.phi0);
                let t0 = (run_lo - base) as usize;
                let o0 = (run_lo - lo) as usize;
                let o1 = (run_hi - lo) as usize;
                simd::rotate_table_accumulate(
                    self.backend,
                    &mut out[o0..o1],
                    &src[o0..o1],
                    anchor,
                    &e.table[t0..],
                );
                run_lo = run_hi;
            }
        }
        let Self {
            pending,
            sample_pool,
            table_pool,
            ..
        } = self;
        pending.retain_mut(|e| {
            if e.end() > chunk_end {
                return true;
            }
            let mut samples = std::mem::take(&mut e.samples);
            samples.clear();
            sample_pool.push(samples);
            let mut table = std::mem::take(&mut e.table);
            table.clear();
            table_pool.push(table);
            false
        });
    }
}

impl Default for EmissionMixer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-waveform (no RNG in unit tests).
    fn wave(n: usize, salt: f64) -> Vec<Iq> {
        (0..n)
            .map(|i| Iq::phasor(0.31 * salt + 0.017 * i as f64).scale(0.5))
            .collect()
    }

    /// The reference mixer: per-sample, same anchor-grid math, scalar.
    fn reference_mix(chunk: &mut [Iq], pos: u64, emissions: &[(u64, Vec<Iq>, f64, f64, f64)]) {
        let chunk_end = pos + chunk.len() as u64;
        for (start, samples, cfo_hz, offset_hz, fs) in emissions {
            let cfo_step = 2.0 * std::f64::consts::PI * cfo_hz / fs;
            let chan_step = 2.0 * std::f64::consts::PI * offset_hz / fs;
            let step = cfo_step + chan_step;
            let phi0 = -(cfo_step * *start as f64);
            let lo = (*start).max(pos);
            let hi = (start + samples.len() as u64).min(chunk_end);
            for i in lo..hi {
                let s = samples[(i - start) as usize];
                let out = &mut chunk[(i - pos) as usize];
                if step == 0.0 && phi0 == 0.0 {
                    *out += s;
                } else {
                    let base = i / ANCHOR_BLOCK as u64 * ANCHOR_BLOCK as u64;
                    let anchor = Iq::phasor(step * base as f64 + phi0);
                    let table = Iq::phasor(step * (i - base) as f64);
                    *out += s * (anchor * table);
                }
            }
        }
    }

    fn fixture() -> Vec<(u64, Vec<Iq>, f64, f64, f64)> {
        let fs = 3.0e6;
        vec![
            (100, wave(900, 1.0), 0.0, 0.0, fs),
            (300, wave(700, 2.0), 173.0, 250_000.0, fs),
            (950, wave(1200, 3.0), -410.5, -750_000.0, fs),
            (2600, wave(300, 4.0), 0.0, 250_000.0, fs),
        ]
    }

    fn mix_partitioned(backend: Backend, total: usize, chunk_sizes: &[usize]) -> Vec<Iq> {
        let mut mixer = EmissionMixer::with_backend(backend);
        for (start, samples, cfo, off, fs) in fixture() {
            mixer.push(start, samples, cfo, off, fs);
        }
        let mut out = Vec::with_capacity(total);
        let mut pos = 0u64;
        let mut k = 0usize;
        while out.len() < total {
            let n = chunk_sizes[k % chunk_sizes.len()].min(total - out.len());
            k += 1;
            let mut chunk = vec![Iq::ZERO; n];
            mixer.mix_into(&mut chunk, pos);
            pos += n as u64;
            out.extend_from_slice(&chunk);
        }
        out
    }

    #[test]
    fn matches_per_sample_reference_every_backend() {
        let total = 3100;
        let mut reference = vec![Iq::ZERO; total];
        reference_mix(&mut reference, 0, &fixture());
        for backend in Backend::ALL.iter().copied().filter(|b| b.available()) {
            let got = mix_partitioned(backend, total, &[total]);
            assert_eq!(got, reference, "{backend:?}");
        }
    }

    #[test]
    fn chunk_partitioning_is_bit_invariant() {
        let total = 3100;
        for backend in Backend::ALL.iter().copied().filter(|b| b.available()) {
            let whole = mix_partitioned(backend, total, &[total]);
            for sizes in [
                vec![1usize],
                vec![7, 64, 129],
                vec![ANCHOR_BLOCK],
                vec![ANCHOR_BLOCK + 1],
                vec![1024, 11],
            ] {
                let split = mix_partitioned(backend, total, &sizes);
                assert_eq!(split, whole, "{backend:?} sizes {sizes:?}");
            }
        }
    }

    #[test]
    fn zero_rotation_is_plain_accumulation() {
        // cfo == 0 and offset == 0 must reproduce `chunk[i] += s` exactly —
        // the single-channel golden-path contract.
        let samples = wave(500, 9.0);
        let mut mixer = EmissionMixer::new();
        mixer.push(40, samples.clone(), 0.0, 0.0, 3.0e6);
        let mut chunk = vec![Iq::new(0.125, -0.25); 600];
        let mut expect = chunk.clone();
        mixer.mix_into(&mut chunk, 0);
        for (i, s) in samples.iter().enumerate() {
            expect[40 + i] += *s;
        }
        assert_eq!(chunk, expect);
    }

    #[test]
    fn fused_rotation_tracks_the_exact_phasor() {
        // The anchored product must stay within rounding error of the
        // mathematically exact per-sample rotation.
        let fs = 3.0e6;
        let (cfo, offset) = (417.3, 750_000.0);
        let start = 1_000_037u64;
        let samples = wave(4000, 5.0);
        let mut mixer = EmissionMixer::new();
        mixer.push(start, samples.clone(), cfo, offset, fs);
        let mut chunk = vec![Iq::ZERO; 5000];
        mixer.mix_into(&mut chunk, start - 100);
        let cfo_step = 2.0 * std::f64::consts::PI * cfo / fs;
        let chan_step = 2.0 * std::f64::consts::PI * offset / fs;
        for (k, s) in samples.iter().enumerate() {
            let i = start + k as u64;
            let exact = *s * Iq::phasor(cfo_step * k as f64) * Iq::phasor(chan_step * i as f64);
            let got = chunk[(i - (start - 100)) as usize];
            assert!(
                (got - exact).norm_sqr().sqrt() < 1e-9,
                "sample {k}: {got:?} vs {exact:?}"
            );
        }
    }

    #[test]
    fn retired_buffers_are_recycled() {
        let mut mixer = EmissionMixer::new();
        let buf = mixer.take_buffer();
        assert!(buf.is_empty());
        mixer.push(0, wave(64, 1.0), 0.0, 0.0, 1.0e6);
        mixer.push(10, wave(64, 2.0), 100.0, 0.0, 1.0e6);
        let mut chunk = vec![Iq::ZERO; 128];
        mixer.mix_into(&mut chunk, 0);
        assert_eq!(mixer.pending_len(), 0);
        let recycled = mixer.take_buffer();
        assert!(recycled.is_empty());
        assert!(recycled.capacity() >= 64, "sample buffer was pooled");
        // Tables are pooled too: pushing a rotated emission reuses one.
        mixer.push(200, wave(8, 3.0), 55.0, 0.0, 1.0e6);
        assert_eq!(mixer.pending_len(), 1);
    }

    #[test]
    fn emissions_straddling_many_chunks_complete() {
        let total = 2100;
        let mut mixer = EmissionMixer::new();
        let samples = wave(total - 80, 7.0);
        mixer.push(40, samples, 333.0, 250_000.0, 3.0e6);
        let mut a = Vec::new();
        let mut pos = 0u64;
        for _ in 0..(total / 100) {
            let mut chunk = vec![Iq::ZERO; 100];
            mixer.mix_into(&mut chunk, pos);
            pos += 100;
            a.extend_from_slice(&chunk);
        }
        assert_eq!(mixer.pending_len(), 0);
        let mut whole = vec![Iq::ZERO; total];
        let mut mixer2 = EmissionMixer::new();
        mixer2.push(40, wave(total - 80, 7.0), 333.0, 250_000.0, 3.0e6);
        mixer2.mix_into(&mut whole, 0);
        assert_eq!(a, whole);
    }
}
