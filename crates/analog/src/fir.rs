//! Shared streaming complex-FIR machinery.
//!
//! Both the streaming SAW filter ([`crate::saw::SawFirState`]) and the
//! wideband channelizer ([`crate::channelizer`]) are causal complex FIR
//! filters that must be *chunk invariant*: feeding a stream through them in
//! chunks of any size produces bit-identical output, because the convolution
//! of sample `n` only ever reads samples `n - n_taps + 1 ..= n` from carried
//! history. This module holds that state machine once, so every FIR in the
//! workspace shares one (carefully ordered) inner loop.
//!
//! ## Block layout
//!
//! The delay line is not a ring buffer. The filter keeps a contiguous
//! split-complex workspace laid out as `[history prefix][current block]`: the
//! last `n_taps − 1` samples of the stream followed by whatever chunk is being
//! filtered (the *history-prefix + body* split). Every output is then a plain
//! dot product over a contiguous window of that workspace, which the block
//! kernel ([`crate::simd::convolve_block`]) evaluates a tile of outputs at a
//! time with the real/imaginary planes stored separately. After each chunk the
//! workspace is compacted back down to the history prefix, so steady-state
//! processing performs no allocation.
//!
//! ## Determinism
//!
//! The per-output summation order is fixed (taps are walked oldest sample
//! first, accumulated into two partial sums by tap parity that are combined at
//! the end), and it is the same whether an output is produced by the block
//! kernel, the scalar tail, or [`ComplexFirState::push_and_convolve`].
//! Outputs are therefore bit-identical however the input stream is chunked.
//!
//! ## Polyphase decimation
//!
//! [`PolyphaseDecimator`] is the decimating counterpart, split in two
//! halves. The layout pass — the chunk scattered into `D` phase streams —
//! lives in [`PhaseSplit`] and depends only on `D`, so several decimators
//! (the gateway's channels) can read one split. The arithmetic — `D`
//! sub-filter convolutions accumulated over the phase streams, phase 0
//! first — stays in the decimator.

use lora_phy::iq::Iq;

/// A causal complex FIR filter with its carried delay-line history.
///
/// The summation order of the convolution is fixed (oldest tap contribution
/// first, two parity-partial accumulators), so outputs are bit-identical
/// however the input stream is chunked.
#[derive(Debug, Clone)]
pub struct ComplexFirState {
    /// Impulse response in natural order (`taps[0]` multiplies the newest
    /// sample).
    taps: Vec<Iq>,
    /// Real parts of the reversed impulse response (`taps_rev[j]` multiplies
    /// the `j`-th sample of a window walked oldest-first).
    taps_rev_re: Vec<f64>,
    /// Imaginary parts of the reversed impulse response.
    taps_rev_im: Vec<f64>,
    /// Real plane of the `[history prefix][body]` workspace.
    buf_re: Vec<f64>,
    /// Imaginary plane of the workspace.
    buf_im: Vec<f64>,
    /// Split-complex output scratch of the block kernel (interleaved into the
    /// caller's `Vec<Iq>` after the convolution); reused across chunks.
    out_re: Vec<f64>,
    /// Imaginary plane of the output scratch.
    out_im: Vec<f64>,
}

/// Two states are equal when they would produce identical future outputs:
/// same taps and same logical delay-line contents (the trailing
/// `n_taps − 1` samples of the workspace).
impl PartialEq for ComplexFirState {
    fn eq(&self, other: &Self) -> bool {
        if self.taps != other.taps {
            return false;
        }
        let keep = self.taps.len() - 1;
        let a = self.buf_re.len() - keep;
        let b = other.buf_re.len() - keep;
        self.buf_re[a..] == other.buf_re[b..] && self.buf_im[a..] == other.buf_im[b..]
    }
}

/// Workspace growth allowed before the push-based API compacts back down to
/// the history prefix (the chunk APIs compact after every call instead).
const PUSH_COMPACT_SLACK: usize = 1024;

impl ComplexFirState {
    /// Creates a filter from its impulse response (must be non-empty). The
    /// delay line starts zeroed, i.e. the stream is implicitly preceded by
    /// silence.
    pub fn new(taps: Vec<Iq>) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        let l = taps.len();
        ComplexFirState {
            taps_rev_re: taps.iter().rev().map(|t| t.re).collect(),
            taps_rev_im: taps.iter().rev().map(|t| t.im).collect(),
            buf_re: vec![0.0; l - 1],
            buf_im: vec![0.0; l - 1],
            out_re: Vec::new(),
            out_im: Vec::new(),
            taps,
        }
    }

    /// The number of FIR taps.
    pub fn n_taps(&self) -> usize {
        self.taps.len()
    }

    /// Drops workspace content older than the history prefix, keeping the
    /// last `n_taps − 1` samples in place.
    fn compact(&mut self) {
        let keep = self.taps.len() - 1;
        let len = self.buf_re.len();
        if len > keep {
            self.buf_re.copy_within(len - keep.., 0);
            self.buf_im.copy_within(len - keep.., 0);
            self.buf_re.truncate(keep);
            self.buf_im.truncate(keep);
        }
    }

    /// Pushes one input sample and returns the convolution output at that
    /// sample.
    #[inline]
    pub fn push_and_convolve(&mut self, x: Iq) -> Iq {
        self.buf_re.push(x.re);
        self.buf_im.push(x.im);
        let l = self.taps.len();
        let start = self.buf_re.len() - l;
        let (re, im) = crate::simd::dot_scalar_order(
            &self.taps_rev_re,
            &self.taps_rev_im,
            &self.buf_re[start..],
            &self.buf_im[start..],
        );
        if self.buf_re.len() >= l + PUSH_COMPACT_SLACK {
            self.compact();
        }
        Iq::new(re, im)
    }

    /// Pushes one input sample into the delay line *without* computing an
    /// output — the cheap path a decimating filter takes on the samples it
    /// will not emit.
    #[inline]
    pub fn push_silent(&mut self, x: Iq) {
        self.buf_re.push(x.re);
        self.buf_im.push(x.im);
        if self.buf_re.len() >= self.taps.len() + PUSH_COMPACT_SLACK {
            self.compact();
        }
    }

    /// Filters one chunk, producing one output sample per input sample.
    ///
    /// Allocates a fresh output buffer per call; steady-state callers should
    /// prefer [`Self::filter_chunk_into`], which reuses one.
    pub fn filter_chunk(&mut self, chunk: &[Iq]) -> Vec<Iq> {
        let mut out = Vec::new();
        self.filter_chunk_into(chunk, &mut out);
        out
    }

    /// Filters one chunk into a caller-provided buffer (cleared first), one
    /// output per input sample. In steady state this performs no allocation:
    /// the workspace, the split-complex output scratch and `out` all retain
    /// their capacity across calls.
    pub fn filter_chunk_into(&mut self, chunk: &[Iq], out: &mut Vec<Iq>) {
        out.clear();
        if chunk.is_empty() {
            return;
        }
        self.buf_re.extend(chunk.iter().map(|x| x.re));
        self.buf_im.extend(chunk.iter().map(|x| x.im));
        let m = chunk.len();
        let base = self.buf_re.len() - m - (self.taps.len() - 1);
        self.out_re.clear();
        self.out_im.clear();
        self.out_re.resize(m, 0.0);
        self.out_im.resize(m, 0.0);
        crate::simd::convolve_block::<false>(
            crate::simd::active_backend(),
            &self.taps_rev_re,
            &self.taps_rev_im,
            &self.buf_re[base..],
            &self.buf_im[base..],
            &mut self.out_re,
            &mut self.out_im,
            m,
        );
        out.extend(
            self.out_re
                .iter()
                .zip(&self.out_im)
                .map(|(&re, &im)| Iq::new(re, im)),
        );
        self.compact();
    }
}

impl crate::stage::BlockStage for ComplexFirState {
    type In = Iq;
    type Out = Iq;
    fn process_into(&mut self, input: &[Iq], out: &mut Vec<Iq>) {
        self.filter_chunk_into(input, out);
    }
}

/// A wideband stream split into the `D` phase streams a polyphase decimator
/// convolves (`s_r[m] = x[mD + r]`), plus the history its outputs still
/// read.
///
/// The split is the layout pass of polyphase filtering, and it depends only
/// on `D`: any number of [`PolyphaseDecimator`]s with that decimation can
/// convolve the same split ([`PolyphaseDecimator::filter_split_into`]), so a
/// multi-channel front end splits each chunk once instead of once per
/// channel. The planes start with a zero history standing in for the
/// silence before the stream.
#[derive(Debug)]
pub struct PhaseSplit {
    decimation: usize,
    /// Phase-stream samples kept behind the first output the next chunk can
    /// complete: the longest sub-filter any reader convolves, minus one.
    history: usize,
    /// Real planes: `re[r]` holds phase stream `r`.
    re: Vec<Vec<f64>>,
    /// Imaginary planes.
    im: Vec<Vec<f64>>,
    /// Logical stream index `m` of element 0 of every plane.
    base_m: i64,
    /// Input samples pushed so far.
    n_in: u64,
}

impl PhaseSplit {
    /// An empty split for decimation `D` (≥ 1) that keeps `history` samples
    /// per phase behind the next output.
    pub fn new(decimation: usize, history: usize) -> Self {
        assert!(decimation >= 1, "decimation must be at least 1");
        PhaseSplit {
            decimation,
            history,
            re: vec![vec![0.0; history]; decimation],
            im: vec![vec![0.0; history]; decimation],
            base_m: -(history as i64),
            n_in: 0,
        }
    }

    /// Plane index of the oldest sample an output after the pushed samples
    /// can read.
    fn live_start(&self) -> usize {
        let k0 = (self.n_in / self.decimation as u64) as i64;
        (k0 - self.history as i64 - self.base_m) as usize
    }

    /// Appends one chunk. History no later output can read is dropped
    /// first, so the planes hold `history` samples plus this chunk's share.
    pub fn push(&mut self, chunk: &[Iq]) {
        let d = self.decimation;
        let drop = self.live_start();
        self.base_m += drop as i64;
        let r0 = (self.n_in % d as u64) as usize;
        for (r, (re, im)) in self.re.iter_mut().zip(&mut self.im).enumerate() {
            re.drain(..drop);
            im.drain(..drop);
            // Phase `r`'s first sample in this chunk sits `(r − r0) mod D`
            // samples in.
            let off = (r + d - r0) % d;
            if off >= chunk.len() {
                continue;
            }
            let samples = chunk[off..].iter().step_by(d);
            let len = re.len();
            re.resize(len + samples.len(), 0.0);
            im.resize(len + samples.len(), 0.0);
            for ((dst_re, dst_im), x) in re[len..].iter_mut().zip(&mut im[len..]).zip(samples) {
                *dst_re = x.re;
                *dst_im = x.im;
            }
        }
        self.n_in += chunk.len() as u64;
    }
}

/// Cloning copies only the live history, so a snapshot taken to be pushed
/// on (the gateway's copy-on-write) does not copy samples the next push
/// would drop, and `clone_from` reuses the target's planes.
impl Clone for PhaseSplit {
    fn clone(&self) -> Self {
        let mut split = PhaseSplit {
            decimation: 0,
            history: 0,
            re: Vec::new(),
            im: Vec::new(),
            base_m: 0,
            n_in: 0,
        };
        split.clone_from(self);
        split
    }

    fn clone_from(&mut self, source: &Self) {
        let skip = source.live_start();
        self.decimation = source.decimation;
        self.history = source.history;
        self.base_m = source.base_m + skip as i64;
        self.n_in = source.n_in;
        for (dst, src) in [(&mut self.re, &source.re), (&mut self.im, &source.im)] {
            dst.resize_with(src.len(), Vec::new);
            for (d, s) in dst.iter_mut().zip(src) {
                d.clear();
                d.extend_from_slice(&s[skip..]);
            }
        }
    }
}

/// Two splits are equal when every later output reads the same samples
/// from them: same decimation, history and stream position, and the same
/// live history (how much dead history a plane still holds is ignored).
impl PartialEq for PhaseSplit {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.live_start(), other.live_start());
        self.decimation == other.decimation
            && self.history == other.history
            && self.n_in == other.n_in
            && self.re.iter().zip(&other.re).all(|(x, y)| x[a..] == y[b..])
            && self.im.iter().zip(&other.im).all(|(x, y)| x[a..] == y[b..])
    }
}

/// A decimating complex FIR in polyphase form: the convolution is evaluated
/// only at the kept output instants, and the work is arranged so the block
/// kernel — not a latency-bound scalar dot product — does all of it.
///
/// For decimation `D`, the impulse response splits into `D` sub-filters
/// (`h_p[t] = taps[p + tD]`) and the input into `D` phase streams
/// ([`PhaseSplit`]). Each block of consecutive outputs is then a sum of `D`
/// ordinary convolutions of a sub-filter against a phase stream, each of
/// which runs through the same tiled SIMD block kernel the full-rate
/// [`ComplexFirState`] uses. Output `k` is emitted after input `kD + D − 1`
/// arrives, exactly like a one-in-`D` decimator fed sample by sample.
///
/// The decimator reads phase streams from either source:
/// [`Self::filter_chunk_into`] pushes the chunk into the decimator's own
/// split, [`Self::filter_split_into`] reads a split shared with other
/// decimators of the same `D`. Both run the same convolutions, so they
/// agree bit for bit.
///
/// ## Determinism
///
/// Per output, the summation order is fixed: sub-filter 0's two-parity
/// partial dot is stored, then each later phase's is added in ascending
/// order. The phase decomposition, stream contents and output instants
/// depend only on absolute sample indices, so outputs are bit-identical
/// however the input is chunked. (The order differs from the single-window
/// [`ComplexFirState::push_and_convolve`] path, so the two agree to
/// rounding, not bit-exactly — the polyphase path is its own deterministic
/// reference.)
#[derive(Debug, Clone)]
pub struct PolyphaseDecimator {
    bank: SubFilterBank,
    /// The phase split [`Self::filter_chunk_into`] feeds.
    split: PhaseSplit,
}

/// The convolution half of a [`PolyphaseDecimator`]: its sub-filters and
/// output position, which read phase streams from any [`PhaseSplit`].
#[derive(Debug, Clone)]
struct SubFilterBank {
    taps: Vec<Iq>,
    decimation: usize,
    /// Reversed sub-filter planes per phase that has taps (kernel
    /// convention: index `u` multiplies the `u`-th oldest sample of the
    /// window). Phase 0 holds the longest, `ceil(l / D)` taps.
    sub_re: Vec<Vec<f64>>,
    sub_im: Vec<Vec<f64>>,
    /// Outputs emitted so far.
    n_out: u64,
    /// Split-complex cross-phase accumulator scratch.
    acc_re: Vec<f64>,
    acc_im: Vec<f64>,
}

impl PolyphaseDecimator {
    /// Creates a decimator from an impulse response (non-empty) and a
    /// decimation factor (≥ 1). The delay line starts zeroed.
    pub fn new(taps: Vec<Iq>, decimation: usize) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        assert!(decimation >= 1, "decimation must be at least 1");
        let l = taps.len();
        let d = decimation;
        // h_p[t] = taps[p + tD], reversed for the oldest-first kernel.
        // Phases past the filter length (D > l) have no taps and are left
        // out.
        let (sub_re, sub_im) = (0..d.min(l))
            .map(|p| {
                let t_p = (l - p).div_ceil(d);
                (0..t_p)
                    .rev()
                    .map(|u| (taps[p + u * d].re, taps[p + u * d].im))
                    .unzip()
            })
            .unzip();
        let split = PhaseSplit::new(d, l.div_ceil(d) - 1);
        PolyphaseDecimator {
            bank: SubFilterBank {
                taps,
                decimation: d,
                sub_re,
                sub_im,
                n_out: 0,
                acc_re: Vec::new(),
                acc_im: Vec::new(),
            },
            split,
        }
    }

    /// The number of FIR taps.
    pub fn n_taps(&self) -> usize {
        self.bank.taps.len()
    }

    /// The decimation factor `D`.
    pub fn decimation(&self) -> usize {
        self.bank.decimation
    }

    /// Phase-stream history the decimator reads behind its next output
    /// (`ceil(l / D) − 1`): a [`PhaseSplit`] it reads must keep at least
    /// this much.
    pub fn split_history(&self) -> usize {
        self.bank.sub_re[0].len() - 1
    }

    /// Filters one chunk into `out` (cleared first), emitting the outputs
    /// that completed inside it. No allocation in steady state.
    pub fn filter_chunk_into(&mut self, chunk: &[Iq], out: &mut Vec<Iq>) {
        self.split.push(chunk);
        self.bank.emit_into(&self.split, out);
    }

    /// Emits into `out` (cleared first) every output completed by the
    /// samples pushed into `split`, a phase split shared with other
    /// decimators. The decimator must have read every earlier push of the
    /// same split (or an equal one), so the outputs are bit-identical to
    /// feeding the same chunks to [`Self::filter_chunk_into`].
    ///
    /// # Panics
    ///
    /// If the split's decimation differs, or it has dropped history the
    /// next output reads.
    pub fn filter_split_into(&mut self, split: &PhaseSplit, out: &mut Vec<Iq>) {
        self.bank.emit_into(split, out);
    }
}

impl SubFilterBank {
    /// Emits the outputs `split` completes past `n_out` into `out`.
    fn emit_into(&mut self, split: &PhaseSplit, out: &mut Vec<Iq>) {
        assert_eq!(
            split.decimation, self.decimation,
            "phase split decimation does not match the decimator"
        );
        out.clear();
        let k0 = self.n_out;
        let total_k = split.n_in / self.decimation as u64;
        let m = (total_k - k0) as usize;
        if m == 0 {
            return;
        }
        let first = k0 as i64 - split.base_m;
        assert!(
            first >= self.sub_re[0].len() as i64 - 1,
            "phase split dropped history the decimator still reads"
        );
        let first = first as usize;
        self.acc_re.clear();
        self.acc_im.clear();
        self.acc_re.resize(m, 0.0);
        self.acc_im.resize(m, 0.0);
        // Sub-filter `p` convolves phase plane `D − 1 − p`. Sub-filter 0
        // stores into the accumulator planes and the others add on top, `p`
        // ascending — a fixed order, independent of chunking and of which
        // split is read.
        let backend = crate::simd::active_backend();
        let d = split.re.len();
        for (p, (tr, ti)) in self.sub_re.iter().zip(&self.sub_im).enumerate() {
            let r = d - 1 - p;
            let start = first + 1 - tr.len();
            let (re, im) = (&split.re[r][start..], &split.im[r][start..]);
            let (acc_re, acc_im) = (&mut self.acc_re, &mut self.acc_im);
            if p == 0 {
                crate::simd::convolve_block::<false>(backend, tr, ti, re, im, acc_re, acc_im, m);
            } else {
                crate::simd::convolve_block::<true>(backend, tr, ti, re, im, acc_re, acc_im, m);
            }
        }
        out.extend(
            self.acc_re
                .iter()
                .zip(&self.acc_im)
                .map(|(&re, &im)| Iq::new(re, im)),
        );
        self.n_out = total_k;
    }
}

/// Two decimators are equal when they would produce identical future
/// outputs: same filter, same decimation, same output position and an equal
/// own phase split (workspace layout is ignored, as with
/// [`ComplexFirState`]).
impl PartialEq for PolyphaseDecimator {
    fn eq(&self, other: &Self) -> bool {
        self.bank.taps == other.bank.taps
            && self.bank.decimation == other.bank.decimation
            && self.bank.n_out == other.bank.n_out
            && self.split == other.split
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn impulse_taps() -> Vec<Iq> {
        vec![
            Iq::new(0.5, 0.0),
            Iq::new(0.25, -0.1),
            Iq::new(-0.125, 0.2),
            Iq::new(0.0625, 0.0),
        ]
    }

    #[test]
    fn impulse_response_is_the_taps() {
        let mut fir = ComplexFirState::new(impulse_taps());
        let mut input = vec![Iq::ZERO; 6];
        input[0] = Iq::ONE;
        let out = fir.filter_chunk(&input);
        for (k, tap) in impulse_taps().iter().enumerate() {
            assert_eq!(out[k], *tap, "tap {k}");
        }
        assert_eq!(out[4], Iq::ZERO);
    }

    #[test]
    fn chunked_filtering_is_bit_identical() {
        let taps = impulse_taps();
        let input: Vec<Iq> = (0..503)
            .map(|i| Iq::from_polar(1.0 + (i % 7) as f64, i as f64 * 0.37))
            .collect();
        let whole = ComplexFirState::new(taps.clone()).filter_chunk(&input);
        for chunk_size in [1usize, 3, 64, 501] {
            let mut fir = ComplexFirState::new(taps.clone());
            let mut out = Vec::new();
            for chunk in input.chunks(chunk_size) {
                out.extend(fir.filter_chunk(chunk));
            }
            assert_eq!(out, whole, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn push_api_matches_block_api_bit_exactly() {
        // The per-sample push path and the block kernel must not just agree
        // approximately: the summation order is shared, so they agree exactly.
        let taps: Vec<Iq> = (0..128)
            .map(|i| Iq::from_polar(1.0 / (1.0 + i as f64), i as f64 * 0.11))
            .collect();
        let input: Vec<Iq> = (0..2_300)
            .map(|i| Iq::from_polar(1.0 + (i % 11) as f64 * 0.1, i as f64 * 0.07))
            .collect();
        let mut block = ComplexFirState::new(taps.clone());
        let mut expected = Vec::new();
        block.filter_chunk_into(&input, &mut expected);
        let mut push = ComplexFirState::new(taps);
        let got: Vec<Iq> = input.iter().map(|&x| push.push_and_convolve(x)).collect();
        assert_eq!(got, expected);
        assert_eq!(push, block, "carried histories diverged");
    }

    #[test]
    fn filter_chunk_into_reuses_the_buffer() {
        let mut fir = ComplexFirState::new(impulse_taps());
        let input: Vec<Iq> = (0..4_100).map(|i| Iq::new(i as f64, -(i as f64))).collect();
        let mut out = Vec::new();
        fir.filter_chunk_into(&input, &mut out);
        let cap = out.capacity();
        let ptr = out.as_ptr();
        fir.filter_chunk_into(&input, &mut out);
        assert_eq!(out.capacity(), cap);
        assert_eq!(out.as_ptr(), ptr, "output buffer was reallocated");
        assert_eq!(out.len(), input.len());
    }

    #[test]
    fn polyphase_decimator_matches_push_silent_reference() {
        // The polyphase path reorders the per-output summation (by phase,
        // then tap parity), so it agrees with the single-window push path to
        // rounding — the absolute scale here is O(1), so 1e-12 is ~4 decimal
        // orders above the accumulated ULP noise and far below anything a
        // decoder threshold could see.
        for (n_taps, decimation) in [(64usize, 6usize), (64, 1), (33, 5), (8, 13)] {
            let taps: Vec<Iq> = (0..n_taps)
                .map(|i| Iq::from_polar(0.5 / (1.0 + i as f64 * 0.3), i as f64 * 0.2))
                .collect();
            let input: Vec<Iq> = (0..5_000)
                .map(|i| Iq::from_polar(1.0, i as f64 * 0.013))
                .collect();
            let mut reference = ComplexFirState::new(taps.clone());
            let mut want = Vec::new();
            let mut phase = 0usize;
            for &x in &input {
                phase += 1;
                if phase == decimation {
                    phase = 0;
                    want.push(reference.push_and_convolve(x));
                } else {
                    reference.push_silent(x);
                }
            }
            let mut decim = PolyphaseDecimator::new(taps, decimation);
            let mut got = Vec::new();
            let mut scratch = Vec::new();
            for chunk in input.chunks(997) {
                decim.filter_chunk_into(chunk, &mut scratch);
                got.extend_from_slice(&scratch);
            }
            assert_eq!(got.len(), want.len(), "D={decimation} l={n_taps}");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g.re - w.re).abs() < 1e-12 && (g.im - w.im).abs() < 1e-12,
                    "D={decimation} l={n_taps} output {i}: {g:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn polyphase_decimator_is_chunk_invariant() {
        let taps: Vec<Iq> = (0..64)
            .map(|i| Iq::from_polar(0.5 / (1.0 + i as f64 * 0.3), i as f64 * 0.2))
            .collect();
        let input: Vec<Iq> = (0..5_000)
            .map(|i| Iq::from_polar(1.0, i as f64 * 0.013))
            .collect();
        let mut whole = Vec::new();
        PolyphaseDecimator::new(taps.clone(), 6).filter_chunk_into(&input, &mut whole);
        for chunk_sizes in [vec![1usize], vec![7, 64, 1], vec![4096]] {
            let mut decim = PolyphaseDecimator::new(taps.clone(), 6);
            let mut got = Vec::new();
            let mut scratch = Vec::new();
            let mut offset = 0usize;
            let mut i = 0usize;
            while offset < input.len() {
                let end = (offset + chunk_sizes[i % chunk_sizes.len()]).min(input.len());
                decim.filter_chunk_into(&input[offset..end], &mut scratch);
                got.extend_from_slice(&scratch);
                offset = end;
                i += 1;
            }
            // Bit-identical, including the carried state.
            assert_eq!(got, whole, "chunk sizes {chunk_sizes:?}");
        }
        // States reached via different chunkings compare equal.
        let mut a = PolyphaseDecimator::new(taps.clone(), 6);
        let mut b = PolyphaseDecimator::new(taps, 6);
        let mut scratch = Vec::new();
        a.filter_chunk_into(&input, &mut scratch);
        for chunk in input.chunks(611) {
            b.filter_chunk_into(chunk, &mut scratch);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn polyphase_decimator_tail_and_sub_lane_edge_cases() {
        // Ragged feeds that stress the carried tail: empty chunks, chunks
        // smaller than one decimation cycle (and smaller than one SIMD
        // lane), a first chunk shorter than the filter, filters shorter
        // than the decimation factor (some phase planes own a single tap,
        // the rest only zero padding), and a 1-tap filter. All must stay
        // bit-identical to whole-buffer processing, state included.
        for (n_taps, d) in [(64usize, 6usize), (3, 6), (1, 6), (2, 2), (5, 13)] {
            let taps: Vec<Iq> = (0..n_taps)
                .map(|i| Iq::from_polar(0.5 / (1.0 + i as f64 * 0.3), i as f64 * 0.2))
                .collect();
            let input: Vec<Iq> = (0..733)
                .map(|i| Iq::from_polar(1.0, i as f64 * 0.017))
                .collect();
            let mut whole = Vec::new();
            PolyphaseDecimator::new(taps.clone(), d).filter_chunk_into(&input, &mut whole);
            let sizes = [1usize, 0, 2, 0, 3, 1, 5, 0, 4];
            let mut decim = PolyphaseDecimator::new(taps.clone(), d);
            let mut got = Vec::new();
            let mut scratch = Vec::new();
            let mut offset = 0usize;
            let mut i = 0usize;
            while offset < input.len() {
                let end = (offset + sizes[i % sizes.len()]).min(input.len());
                decim.filter_chunk_into(&input[offset..end], &mut scratch);
                if offset == end {
                    assert!(scratch.is_empty(), "empty chunk emitted output");
                }
                got.extend_from_slice(&scratch);
                offset = end;
                i += 1;
            }
            assert_eq!(got, whole, "l={n_taps} D={d}");
            // The carried state equals the whole-buffer run's, so the empty
            // chunks were true no-ops.
            let mut reference = PolyphaseDecimator::new(taps, d);
            reference.filter_chunk_into(&input, &mut scratch);
            assert_eq!(decim, reference, "l={n_taps} D={d}");
        }
    }

    #[test]
    fn polyphase_decimator_history_shorter_than_taps() {
        // Fewer total samples than the filter is long: every output window
        // still reaches into the implicit zero history, and outputs arrive
        // before any phase plane holds a full complement of samples.
        let taps: Vec<Iq> = (0..64)
            .map(|i| Iq::from_polar(0.5 / (1.0 + i as f64 * 0.3), i as f64 * 0.2))
            .collect();
        let d = 6usize;
        let input: Vec<Iq> = (0..17)
            .map(|i| Iq::from_polar(1.0, i as f64 * 0.3))
            .collect();
        let mut reference = ComplexFirState::new(taps.clone());
        let mut want = Vec::new();
        let mut phase = 0usize;
        for &x in &input {
            phase += 1;
            if phase == d {
                phase = 0;
                want.push(reference.push_and_convolve(x));
            } else {
                reference.push_silent(x);
            }
        }
        let mut whole = Vec::new();
        PolyphaseDecimator::new(taps.clone(), d).filter_chunk_into(&input, &mut whole);
        assert_eq!(whole.len(), want.len());
        for (i, (g, w)) in whole.iter().zip(&want).enumerate() {
            assert!(
                (g.re - w.re).abs() < 1e-12 && (g.im - w.im).abs() < 1e-12,
                "output {i}: {g:?} vs {w:?}"
            );
        }
        // Single-sample feeding over the same short input is bit-identical.
        let mut decim = PolyphaseDecimator::new(taps, d);
        let mut got = Vec::new();
        let mut scratch = Vec::new();
        for &x in &input {
            decim.filter_chunk_into(&[x], &mut scratch);
            got.extend_from_slice(&scratch);
        }
        assert_eq!(got, whole);
    }

    #[test]
    fn push_silent_advances_the_delay_line() {
        // Feeding [a, b] with b silent, then convolving on c, must equal the
        // all-convolved run's third output.
        let taps = impulse_taps();
        let input = [Iq::new(1.0, 0.5), Iq::new(-2.0, 0.25), Iq::new(0.75, -1.0)];
        let reference = ComplexFirState::new(taps.clone()).filter_chunk(&input);
        let mut fir = ComplexFirState::new(taps);
        fir.push_silent(input[0]);
        fir.push_silent(input[1]);
        assert_eq!(fir.push_and_convolve(input[2]), reference[2]);
    }

    #[test]
    fn equality_ignores_workspace_layout() {
        // Same logical history reached through different chunkings compares
        // equal even though the internal workspace lengths differ mid-stream.
        let taps = impulse_taps();
        let input: Vec<Iq> = (0..10).map(|i| Iq::new(i as f64, 0.5)).collect();
        let mut a = ComplexFirState::new(taps.clone());
        let mut b = ComplexFirState::new(taps);
        a.filter_chunk(&input);
        for &x in &input {
            b.push_and_convolve(x);
        }
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_taps_are_rejected() {
        ComplexFirState::new(Vec::new());
    }
}
