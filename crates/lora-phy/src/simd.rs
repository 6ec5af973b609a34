//! Runtime-dispatched DSP kernels for the hot loops.
//!
//! The streaming receiver spends almost all of its cycles in three loops: the
//! split-complex FIR / polyphase inner product (`analog::fir`), the
//! oscillator/mixer chain of the frequency shifter (`analog::oscillator`,
//! `analog::mixer`) and the envelope + double-threshold comparator scan
//! (`analog::envelope`, `saiyan::streaming`). This module is the one home
//! of each of those kernels: a stage calls its kernel with
//! [`active_backend`], and the kernel's scalar path is the golden reference
//! that every wide path must reproduce bit for bit. The module lives here —
//! at the bottom of the crate graph — so every crate above it shares one
//! backend selection; `analog::simd` re-exports it under its original path.
//!
//! # Backends
//!
//! There are three: `scalar`, `avx2` and `avx512`. The two wide backends
//! differ in one kernel only. Under `avx512` the FIR convolution
//! ([`convolve_block`]) runs 8 × f64 lanes of AVX-512F; every other kernel
//! with a wide path runs its AVX2 implementation under both. Targets other
//! than `x86_64` always run `scalar`.
//!
//! A backend is selected once per process, on first use:
//!
//! 1. If the [`BACKEND_ENV`] environment variable (`SAIYAN_SIMD`) is set to
//!    `scalar`, `avx2` or `avx512`, that backend is forced (and the process
//!    panics early on any other value, or if the CPU cannot run it — a
//!    forced backend silently falling back would defeat its testing
//!    purpose).
//! 2. Otherwise the widest backend the CPU supports is picked via
//!    `is_x86_feature_detected!`: AVX-512F (with AVX2) → AVX2 → scalar.
//!
//! [`simd_report`] exposes the decision (backend name, f64 lane count,
//! whether it was forced) so benchmark snapshots can record the ISA they were
//! measured on.
//!
//! # The summation-order contract
//!
//! Every kernel here is **bit-identical** to its scalar path, for any
//! input and any chunking. That is only possible because the scalar paths
//! fix a per-output operation order that is independent of how many outputs
//! are computed at once:
//!
//! * The convolution ([`dot_scalar_order`]) accumulates each output into
//!   **two partial sums by tap parity** (`ar0`/`ar1`), adds an odd trailing
//!   tap into partial 0, and finishes with `ar0 + ar1`. A tile computes
//!   `LANES` outputs at once with output `q` living in lane `q`; the
//!   per-lane order of multiplies, subtracts and adds is exactly the
//!   per-output order, so lane width does not change a single rounding.
//!   Fused multiply-add is **forbidden** everywhere in this module — an FMA
//!   contracts two roundings into one and breaks the contract.
//! * The phasor recurrence re-anchors on a fixed 256-sample absolute grid
//!   (`analog::oscillator`), which makes consecutive blocks independent
//!   rotation chains; a wide backend runs `LANES` chains in parallel, one per
//!   lane, each performing the scalar rotation sequence.
//! * Elementwise kernels (mixers, noiseless envelope, quiet LNA, table
//!   rotation) use the scalar path's exact per-sample expression tree per
//!   lane.
//! * The comparator's hysteresis bit `s_n = (v_n ≥ U_H) | ((v_n ≥ U_L) & s_{n-1})`
//!   is resolved per 64-sample word from two compare masks with a log-step
//!   carry (Kogge–Stone) chain — no per-sample branch, identical booleans.
//!   It has no intrinsic copy: in alternating `perfbench` pairs an AVX2
//!   mask word did not beat the scalar compare loop.
//!
//! # Adding a kernel
//!
//! A kernel starts as its scalar path here, called by the stage with
//! [`active_backend`]. A wide copy — an `unsafe` `#[target_feature]`
//! function over the largest multiple of its lane count (see the
//! `convolve_*` kernels: broadcast tap, load `LANES` contiguous samples per
//! parity, `add(acc, sub(mul, mul))`), dispatched behind the CPU feature
//! check, with the scalar path for the remainder — is added only with a
//! measured end-to-end gain: alternating `perfbench` pairs where the copy
//! beats the scalar path (or, for a second lane width, the narrower copy)
//! on some workload. The `tests/simd_equivalence.rs` proptests run every
//! kernel under every available backend and pin it against the scalar path
//! bit for bit.
//!
//! The eight intrinsic kernels kept under that rule, on a 2-vCPU AVX-512
//! Xeon:
//!
//! * `convolve_avx2`, `convolve_avx512` — the SAW FIR and the channelizer's
//!   polyphase convolution. Under `SAIYAN_SIMD=avx2` the AVX2 copy raised
//!   gateway-4ch `realtime_x` from a median 5.5x (scalar tile) to 9.2x,
//!   winning 6 of 6 pairs. The AVX-512 copy raised it by a further median
//!   16% and cut serve-super `frame_latency_p50_ms` by 7%, winning 10 of
//!   10 pairs on both.
//! * `rotate_chains_avx2`, `rotate_table_avx2` — the oscillator recurrence
//!   and the channelizer's table rotation. Without them serve-super
//!   `cpu_s_per_input_s` rose from a median 0.108 to 0.119.
//! * `rf_mix_avx2`, `bb_mix_avx2`, `envelope_avx2`, `lna_quiet_avx2` — the
//!   shifter's two mixers, the noiseless envelope and the quiet LNA.
//!   Without them serve-super `cpu_s_per_input_s` rose from a median 0.109
//!   to 0.119.

use crate::iq::Iq;
use std::sync::OnceLock;

/// Environment variable that forces a specific kernel backend
/// (`scalar` | `avx2` | `avx512`).
pub const BACKEND_ENV: &str = "SAIYAN_SIMD";

/// A kernel backend. `Scalar` runs each kernel's scalar path; the others
/// select a kernel's wide implementation where it has one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Every kernel's scalar path (the golden reference), and the only
    /// backend on targets other than `x86_64`.
    Scalar,
    /// `std::arch` AVX2 intrinsics, 4 × f64 lanes.
    Avx2,
    /// AVX-512F intrinsics (8 × f64 lanes) for the FIR convolution, the AVX2
    /// kernels for everything else.
    Avx512,
}

impl Backend {
    /// Every backend, in widening order. Used by the equivalence-test matrix.
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Avx2, Backend::Avx512];

    /// Stable lower-case name, matching the [`BACKEND_ENV`] syntax.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Number of `f64` lanes a convolution tile computes at once.
    pub fn f64_lanes(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Avx2 => 4,
            Backend::Avx512 => 8,
        }
    }

    /// Whether the running CPU can execute this backend. `Avx512` needs AVX2
    /// too, since it runs the AVX2 kernels everywhere but the convolution.
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    fn parse(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "avx2" => Some(Backend::Avx2),
            "avx512" => Some(Backend::Avx512),
            _ => None,
        }
    }
}

fn best_available() -> Backend {
    [Backend::Avx512, Backend::Avx2]
        .into_iter()
        .find(|b| b.available())
        .unwrap_or(Backend::Scalar)
}

fn selection() -> (Backend, bool) {
    static SEL: OnceLock<(Backend, bool)> = OnceLock::new();
    *SEL.get_or_init(|| match std::env::var(BACKEND_ENV) {
        Ok(v) => {
            let b = Backend::parse(&v)
                .unwrap_or_else(|| panic!("{BACKEND_ENV}={v:?}: expected scalar|avx2|avx512"));
            assert!(
                b.available(),
                "{BACKEND_ENV}={v:?}: backend {} is not available on this CPU",
                b.name()
            );
            (b, true)
        }
        Err(_) => (best_available(), false),
    })
}

/// The backend every dispatching stage uses, selected once per process
/// (environment override first, then CPU feature detection).
pub fn active_backend() -> Backend {
    selection().0
}

/// How the active backend was chosen, for bench/experiment metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdReport {
    /// Stable name of the selected backend (`"avx512"`, `"scalar"`, …).
    pub backend: &'static str,
    /// `f64` lanes per convolution tile for that backend.
    pub f64_lanes: usize,
    /// `true` when the backend was forced via [`BACKEND_ENV`] rather than
    /// auto-detected.
    pub forced: bool,
}

/// Reports the selected backend (triggering selection if it has not run yet).
pub fn simd_report() -> SimdReport {
    let (backend, forced) = selection();
    SimdReport {
        backend: backend.name(),
        f64_lanes: backend.f64_lanes(),
        forced,
    }
}

impl std::fmt::Display for SimdReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} x f64, {})",
            self.backend,
            self.f64_lanes,
            if self.forced { "forced" } else { "auto" }
        )
    }
}

/// Reinterprets a slice of [`Iq`] as its interleaved `re,im,re,im,…` lanes.
/// Sound because `Iq` is `repr(C)` over two `f64`s.
#[inline]
pub fn iq_lanes(samples: &[Iq]) -> &[f64] {
    // SAFETY: Iq is repr(C) { re: f64, im: f64 } — size 16, align 8, no
    // padding — so n samples are exactly 2n contiguous f64s.
    unsafe { std::slice::from_raw_parts(samples.as_ptr().cast::<f64>(), samples.len() * 2) }
}

/// Mutable variant of [`iq_lanes`].
#[inline]
pub fn iq_lanes_mut(samples: &mut [Iq]) -> &mut [f64] {
    // SAFETY: see iq_lanes.
    unsafe { std::slice::from_raw_parts_mut(samples.as_mut_ptr().cast::<f64>(), samples.len() * 2) }
}

// ---------------------------------------------------------------------------
// Split-complex convolution
// ---------------------------------------------------------------------------

/// One output of the split-complex convolution: the dot product of the
/// reversed taps `tr`/`ti` with a window `wr`/`wi` of `tr.len()` samples
/// walked oldest-first, returned as `(re, im)`. This fixes the reference
/// order every tile reproduces per output: two partials by tap parity, an
/// odd trailing tap into partial 0, `partial0 + partial1` at the end. It
/// computes every `m % LANES` tail of [`convolve_block`] and the per-sample
/// `ComplexFirState::push_and_convolve` path.
#[inline]
pub fn dot_scalar_order(tr: &[f64], ti: &[f64], wr: &[f64], wi: &[f64]) -> (f64, f64) {
    let l = tr.len();
    let mut ar = [0.0f64; 2];
    let mut ai = [0.0f64; 2];
    let mut j = 0usize;
    while j + 2 <= l {
        for p in 0..2 {
            let t_re = tr[j + p];
            let t_im = ti[j + p];
            let s_re = wr[j + p];
            let s_im = wi[j + p];
            ar[p] += t_re * s_re - t_im * s_im;
            ai[p] += t_re * s_im + t_im * s_re;
        }
        j += 2;
    }
    if j < l {
        let (t_re, t_im, s_re, s_im) = (tr[j], ti[j], wr[j], wi[j]);
        ar[0] += t_re * s_re - t_im * s_im;
        ai[0] += t_re * s_im + t_im * s_re;
    }
    (ar[0] + ar[1], ai[0] + ai[1])
}

#[inline]
fn store_or_accum<const ACCUM: bool>(slot_re: &mut f64, slot_im: &mut f64, re: f64, im: f64) {
    if ACCUM {
        *slot_re += re;
        *slot_im += im;
    } else {
        *slot_re = re;
        *slot_im = im;
    }
}

/// `m` consecutive outputs of the split-complex convolution, output `i`
/// reading `buf[i .. i + taps]`, dispatched to `backend`'s tile. With `ACCUM`
/// the results are added to the output planes instead of stored (the
/// polyphase decimator's cross-phase fold).
///
/// Every backend's tile computes each output in the order of
/// [`dot_scalar_order`], so all three are bit-identical.
///
/// # Panics
///
/// If the workspace planes are shorter than `m - 1 + taps` or the output
/// planes shorter than `m`.
#[allow(clippy::too_many_arguments)]
pub fn convolve_block<const ACCUM: bool>(
    backend: Backend,
    tr: &[f64],
    ti: &[f64],
    buf_re: &[f64],
    buf_im: &[f64],
    out_re: &mut [f64],
    out_im: &mut [f64],
    m: usize,
) {
    let l = tr.len();
    assert_eq!(ti.len(), l);
    if m == 0 {
        return;
    }
    assert!(buf_re.len() >= m - 1 + l && buf_im.len() >= m - 1 + l);
    assert!(out_re.len() >= m && out_im.len() >= m);
    let m_wide = match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if Backend::Avx2.available() => {
            let mw = m & !3;
            // SAFETY: AVX2 availability checked in the guard; bounds asserted
            // above.
            unsafe { convolve_avx2::<ACCUM>(tr, ti, buf_re, buf_im, out_re, out_im, mw) };
            mw
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if Backend::Avx512.available() => {
            let mw = m & !7;
            // SAFETY: AVX-512F availability checked in the guard; bounds
            // asserted above.
            unsafe { convolve_avx512::<ACCUM>(tr, ti, buf_re, buf_im, out_re, out_im, mw) };
            mw
        }
        _ => {
            let mw = m & !3;
            convolve_scalar_tile::<ACCUM>(tr, ti, buf_re, buf_im, out_re, out_im, mw);
            mw
        }
    };
    for i in m_wide..m {
        let (re, im) = dot_scalar_order(tr, ti, &buf_re[i..i + l], &buf_im[i..i + l]);
        store_or_accum::<ACCUM>(&mut out_re[i], &mut out_im[i], re, im);
    }
}

/// The scalar convolution tile: four outputs per tile with the dot products
/// register-tiled across outputs (four accumulator lanes per tap parity, a
/// loop shape LLVM autovectorizes), each output in the order of
/// [`dot_scalar_order`]. `m4` must be a multiple of 4.
#[allow(clippy::too_many_arguments)]
fn convolve_scalar_tile<const ACCUM: bool>(
    tr: &[f64],
    ti: &[f64],
    buf_re: &[f64],
    buf_im: &[f64],
    out_re: &mut [f64],
    out_im: &mut [f64],
    m4: usize,
) {
    let l = tr.len();
    let l2 = l & !1;
    let mut i = 0usize;
    while i < m4 {
        let mut ar0 = [0.0f64; 4];
        let mut ar1 = [0.0f64; 4];
        let mut ai0 = [0.0f64; 4];
        let mut ai1 = [0.0f64; 4];
        let mut j = 0usize;
        while j < l2 {
            {
                let t_re = tr[j];
                let t_im = ti[j];
                let s_re = &buf_re[i + j..i + j + 4];
                let s_im = &buf_im[i + j..i + j + 4];
                for q in 0..4 {
                    ar0[q] += t_re * s_re[q] - t_im * s_im[q];
                    ai0[q] += t_re * s_im[q] + t_im * s_re[q];
                }
            }
            {
                let t_re = tr[j + 1];
                let t_im = ti[j + 1];
                let s_re = &buf_re[i + j + 1..i + j + 5];
                let s_im = &buf_im[i + j + 1..i + j + 5];
                for q in 0..4 {
                    ar1[q] += t_re * s_re[q] - t_im * s_im[q];
                    ai1[q] += t_re * s_im[q] + t_im * s_re[q];
                }
            }
            j += 2;
        }
        if j < l {
            let t_re = tr[j];
            let t_im = ti[j];
            let s_re = &buf_re[i + j..i + j + 4];
            let s_im = &buf_im[i + j..i + j + 4];
            for q in 0..4 {
                ar0[q] += t_re * s_re[q] - t_im * s_im[q];
                ai0[q] += t_re * s_im[q] + t_im * s_re[q];
            }
        }
        for q in 0..4 {
            store_or_accum::<ACCUM>(
                &mut out_re[i + q],
                &mut out_im[i + q],
                ar0[q] + ar1[q],
                ai0[q] + ai1[q],
            );
        }
        i += 4;
    }
}

/// Generates one `std::arch` convolution kernel computing `$lanes` outputs
/// per tile, output `q` in lane `q`, each lane in the scalar order of
/// [`dot_scalar_order`]: broadcast tap, unaligned lane load per parity,
/// `add(acc, sub(mul, mul))` — never FMA.
#[cfg(target_arch = "x86_64")]
macro_rules! x86_convolve {
    ($name:ident, $feature:literal, $lanes:expr, $vec:ty,
     $set1:ident, $loadu:ident, $storeu:ident, $add:ident, $sub:ident, $mul:ident) => {
        #[target_feature(enable = $feature)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $name<const ACCUM: bool>(
            tr: &[f64],
            ti: &[f64],
            buf_re: &[f64],
            buf_im: &[f64],
            out_re: &mut [f64],
            out_im: &mut [f64],
            m_wide: usize,
        ) {
            use std::arch::x86_64::*;
            let l = tr.len();
            let l2 = l & !1;
            let br = buf_re.as_ptr();
            let bi = buf_im.as_ptr();
            let or = out_re.as_mut_ptr();
            let oi = out_im.as_mut_ptr();
            let mut i = 0usize;
            while i < m_wide {
                let mut ar0: $vec = $set1(0.0);
                let mut ar1: $vec = $set1(0.0);
                let mut ai0: $vec = $set1(0.0);
                let mut ai1: $vec = $set1(0.0);
                let mut j = 0usize;
                while j < l2 {
                    {
                        let t_re = $set1(*tr.get_unchecked(j));
                        let t_im = $set1(*ti.get_unchecked(j));
                        let s_re = $loadu(br.add(i + j));
                        let s_im = $loadu(bi.add(i + j));
                        ar0 = $add(ar0, $sub($mul(t_re, s_re), $mul(t_im, s_im)));
                        ai0 = $add(ai0, $add($mul(t_re, s_im), $mul(t_im, s_re)));
                    }
                    {
                        let t_re = $set1(*tr.get_unchecked(j + 1));
                        let t_im = $set1(*ti.get_unchecked(j + 1));
                        let s_re = $loadu(br.add(i + j + 1));
                        let s_im = $loadu(bi.add(i + j + 1));
                        ar1 = $add(ar1, $sub($mul(t_re, s_re), $mul(t_im, s_im)));
                        ai1 = $add(ai1, $add($mul(t_re, s_im), $mul(t_im, s_re)));
                    }
                    j += 2;
                }
                if j < l {
                    let t_re = $set1(*tr.get_unchecked(j));
                    let t_im = $set1(*ti.get_unchecked(j));
                    let s_re = $loadu(br.add(i + j));
                    let s_im = $loadu(bi.add(i + j));
                    ar0 = $add(ar0, $sub($mul(t_re, s_re), $mul(t_im, s_im)));
                    ai0 = $add(ai0, $add($mul(t_re, s_im), $mul(t_im, s_re)));
                }
                let mut res_re = $add(ar0, ar1);
                let mut res_im = $add(ai0, ai1);
                if ACCUM {
                    res_re = $add($loadu(or.add(i)), res_re);
                    res_im = $add($loadu(oi.add(i)), res_im);
                }
                $storeu(or.add(i), res_re);
                $storeu(oi.add(i), res_im);
                i += $lanes;
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
x86_convolve!(
    convolve_avx2,
    "avx2",
    4,
    std::arch::x86_64::__m256d,
    _mm256_set1_pd,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_add_pd,
    _mm256_sub_pd,
    _mm256_mul_pd
);
#[cfg(target_arch = "x86_64")]
x86_convolve!(
    convolve_avx512,
    "avx512f",
    8,
    std::arch::x86_64::__m512d,
    _mm512_set1_pd,
    _mm512_loadu_pd,
    _mm512_storeu_pd,
    _mm512_add_pd,
    _mm512_sub_pd,
    _mm512_mul_pd
);

// ---------------------------------------------------------------------------
// Phasor rotation chains (oscillator fast path)
// ---------------------------------------------------------------------------

/// Runs `anchors.len()` independent phasor rotation chains of `block` samples
/// each, writing the cosine (real) component: `out[c * block + t]` receives
/// chain `c`'s value after `t` rotations of its anchor.
///
/// Per chain the operation sequence is exactly the scalar recurrence in
/// `Oscillator::values_into_recurrence` — emit `z.re`, then
/// `z ← (z.re·step_re − z.im·step_im, z.re·step_im + z.im·step_re)` — so any
/// lane width is bit-identical to the scalar chain.
///
/// # Panics
///
/// If `anchor_re`/`anchor_im` lengths differ or `out` is shorter than
/// `anchors.len() * block`.
pub fn rotate_chains_into(
    backend: Backend,
    anchor_re: &[f64],
    anchor_im: &[f64],
    step_re: f64,
    step_im: f64,
    block: usize,
    out: &mut [f64],
) {
    let chains = anchor_re.len();
    assert_eq!(anchor_im.len(), chains);
    assert!(out.len() >= chains * block);
    let wide = match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 if Backend::Avx2.available() => {
            let cw = chains & !3;
            // SAFETY: AVX2 availability checked in the guard; bounds above.
            unsafe {
                rotate_chains_avx2(
                    &anchor_re[..cw],
                    &anchor_im[..cw],
                    step_re,
                    step_im,
                    block,
                    out,
                )
            };
            cw
        }
        _ => 0,
    };
    // Remaining chains: the scalar rotation, one chain at a time.
    for c in wide..chains {
        let mut z_re = anchor_re[c];
        let mut z_im = anchor_im[c];
        for t in 0..block {
            out[c * block + t] = z_re;
            let re = z_re * step_re - z_im * step_im;
            z_im = z_re * step_im + z_im * step_re;
            z_re = re;
        }
    }
}

/// Four chains per tile with AVX2 intrinsics (no FMA).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rotate_chains_avx2(
    anchor_re: &[f64],
    anchor_im: &[f64],
    step_re: f64,
    step_im: f64,
    block: usize,
    out: &mut [f64],
) {
    use std::arch::x86_64::*;
    let sre = _mm256_set1_pd(step_re);
    let sim = _mm256_set1_pd(step_im);
    let optr = out.as_mut_ptr();
    for g in (0..anchor_re.len()).step_by(4) {
        let mut z_re = _mm256_loadu_pd(anchor_re.as_ptr().add(g));
        let mut z_im = _mm256_loadu_pd(anchor_im.as_ptr().add(g));
        for t in 0..block {
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), z_re);
            for (lane, v) in lanes.iter().enumerate() {
                *optr.add((g + lane) * block + t) = *v;
            }
            let re = _mm256_sub_pd(_mm256_mul_pd(z_re, sre), _mm256_mul_pd(z_im, sim));
            z_im = _mm256_add_pd(_mm256_mul_pd(z_re, sim), _mm256_mul_pd(z_im, sre));
            z_re = re;
        }
    }
}

/// Rotates every sample by a tabulated phasor: `out[k] *= anchor · table[k]`,
/// with both complex products evaluated in the scalar [`Iq`] multiply order
/// (`re·re − im·im`, `re·im + im·re`). The channelizer's fast-phasor path
/// calls this once per anchor-interval run: `anchor` is the exact phasor at
/// the interval's base output and `table[k]` the `k`-th power of the
/// per-output step, so the value rotated in depends only on the absolute
/// output index — chunk invariant, and bit-identical on every backend because
/// the wide paths mirror the scalar expression tree lane for lane.
///
/// # Panics
///
/// If `table` is shorter than `out`.
pub fn rotate_by_table_in_place(backend: Backend, out: &mut [Iq], anchor: Iq, table: &[Iq]) {
    assert!(table.len() >= out.len());
    let n = out.len();
    let n_wide = match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 if Backend::Avx2.available() => {
            let nw = n & !1;
            // SAFETY: AVX2 availability checked in the guard; bounds above.
            unsafe {
                rotate_table_avx2(iq_lanes_mut(out), anchor.re, anchor.im, iq_lanes(table), nw)
            };
            nw
        }
        _ => 0,
    };
    for k in n_wide..n {
        let c = anchor * table[k];
        out[k] *= c;
    }
}

/// Two complex samples per iteration (native `addsub`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rotate_table_avx2(
    flat_out: &mut [f64],
    anchor_re: f64,
    anchor_im: f64,
    flat_table: &[f64],
    n_wide: usize,
) {
    use std::arch::x86_64::*;
    let arv = _mm256_set1_pd(anchor_re);
    let aiv = _mm256_set1_pd(anchor_im);
    let tp = flat_table.as_ptr();
    let op = flat_out.as_mut_ptr();
    let mut k = 0usize;
    while k < n_wide {
        let w = _mm256_loadu_pd(tp.add(2 * k));
        let t1 = _mm256_mul_pd(arv, w);
        let t2 = _mm256_mul_pd(aiv, _mm256_permute_pd::<0b0101>(w));
        let c = _mm256_addsub_pd(t1, t2);
        let v = _mm256_loadu_pd(op.add(2 * k));
        let p1 = _mm256_mul_pd(v, c);
        let p2 = _mm256_mul_pd(v, _mm256_permute_pd::<0b0101>(c));
        let e = _mm256_sub_pd(p1, _mm256_permute_pd::<0b0101>(p1));
        let o = _mm256_add_pd(p2, _mm256_permute_pd::<0b0101>(p2));
        let res = _mm256_blend_pd::<0b1010>(e, _mm256_permute_pd::<0b0101>(o));
        _mm256_storeu_pd(op.add(2 * k), res);
        k += 2;
    }
}

// ---------------------------------------------------------------------------
// Elementwise mixer / envelope kernels
// ---------------------------------------------------------------------------

/// RF mixer: `out[k] = s·feedthrough + s·(gain·clock[k])` per component —
/// the kernel of `RfMixer::mix_with_clock_into`.
///
/// # Panics
///
/// If `samples` and `clock` lengths differ.
pub fn rf_mix_into(
    backend: Backend,
    samples: &[Iq],
    clock: &[f64],
    feedthrough: f64,
    gain: f64,
    out: &mut Vec<Iq>,
) {
    assert_eq!(samples.len(), clock.len());
    out.clear();
    out.resize(samples.len(), Iq::ZERO);
    let n_wide = match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 if Backend::Avx2.available() => {
            let nw = samples.len() & !1;
            // SAFETY: AVX2 availability checked in the guard; `out` was
            // resized to `samples.len()` above.
            unsafe {
                rf_mix_avx2(
                    iq_lanes(samples),
                    clock,
                    feedthrough,
                    gain,
                    iq_lanes_mut(out),
                    nw,
                )
            };
            nw
        }
        _ => 0,
    };
    for k in n_wide..samples.len() {
        let s = samples[k];
        out[k] = s.scale(feedthrough) + s.scale(gain * clock[k]);
    }
}

/// Two `Iq` samples (four f64 lanes) per iteration.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rf_mix_avx2(
    flat_in: &[f64],
    clock: &[f64],
    feedthrough: f64,
    gain: f64,
    flat_out: &mut [f64],
    n_wide: usize,
) {
    use std::arch::x86_64::*;
    let ft = _mm256_set1_pd(feedthrough);
    let ip = flat_in.as_ptr();
    let op = flat_out.as_mut_ptr();
    let mut k = 0usize;
    while k < n_wide {
        let v = _mm256_loadu_pd(ip.add(2 * k));
        let gc0 = gain * *clock.get_unchecked(k);
        let gc1 = gain * *clock.get_unchecked(k + 1);
        let gc = _mm256_set_pd(gc1, gc1, gc0, gc0);
        let res = _mm256_add_pd(_mm256_mul_pd(v, ft), _mm256_mul_pd(v, gc));
        _mm256_storeu_pd(op.add(2 * k), res);
        k += 2;
    }
}

/// Baseband mixer: `s[k] = (gain·s[k])·clock[k]` in place over the real
/// envelope — the kernel of `BasebandMixer::mix_with_clock_in_place`.
///
/// # Panics
///
/// If `data` and `clock` lengths differ.
pub fn bb_mix_in_place(backend: Backend, data: &mut [f64], clock: &[f64], gain: f64) {
    assert_eq!(data.len(), clock.len());
    let n = data.len();
    let n_wide = match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 if Backend::Avx2.available() => {
            let nw = n & !3;
            // SAFETY: AVX2 availability checked in the guard.
            unsafe { bb_mix_avx2(data, clock, gain, nw) };
            nw
        }
        _ => 0,
    };
    for k in n_wide..n {
        data[k] = gain * data[k] * clock[k];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn bb_mix_avx2(data: &mut [f64], clock: &[f64], gain: f64, n_wide: usize) {
    use std::arch::x86_64::*;
    let g = _mm256_set1_pd(gain);
    let p = data.as_mut_ptr();
    let cp = clock.as_ptr();
    let mut k = 0usize;
    while k < n_wide {
        let v = _mm256_loadu_pd(p.add(k));
        let c = _mm256_loadu_pd(cp.add(k));
        let res = _mm256_mul_pd(_mm256_mul_pd(g, v), c);
        _mm256_storeu_pd(p.add(k), res);
        k += 4;
    }
}

/// Noiseless square-law envelope: `out[k] = gain·(re² + im²) + dc`
/// (`gain * s.norm_sqr() + dc`) — the kernel of the envelope detector's
/// noiseless branch.
pub fn envelope_noiseless_into(
    backend: Backend,
    samples: &[Iq],
    gain: f64,
    dc: f64,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(samples.len(), 0.0);
    let n_wide = match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 if Backend::Avx2.available() => {
            let nw = samples.len() & !3;
            // SAFETY: AVX2 availability checked in the guard; out sized above.
            unsafe { envelope_avx2(iq_lanes(samples), gain, dc, out, nw) };
            nw
        }
        _ => 0,
    };
    for k in n_wide..samples.len() {
        out[k] = gain * samples[k].norm_sqr() + dc;
    }
}

/// Four `Iq` samples per iteration: square, horizontal-add re²+im² per
/// sample (the `norm_sqr` order), unscramble, `gain·x + dc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn envelope_avx2(flat_in: &[f64], gain: f64, dc: f64, out: &mut [f64], n_wide: usize) {
    use std::arch::x86_64::*;
    let g = _mm256_set1_pd(gain);
    let d = _mm256_set1_pd(dc);
    let ip = flat_in.as_ptr();
    let op = out.as_mut_ptr();
    let mut k = 0usize;
    while k < n_wide {
        let v0 = _mm256_loadu_pd(ip.add(2 * k)); // re0 im0 re1 im1
        let v1 = _mm256_loadu_pd(ip.add(2 * k + 4)); // re2 im2 re3 im3
        let s0 = _mm256_mul_pd(v0, v0);
        let s1 = _mm256_mul_pd(v1, v1);
        // hadd lanes: [s0_0+s0_1, s1_0+s1_1, s0_2+s0_3, s1_2+s1_3]
        //           = [|z0|², |z2|², |z1|², |z3|²] — restore order with a permute.
        let h = _mm256_hadd_pd(s0, s1);
        let ns = _mm256_permute4x64_pd::<0b1101_1000>(h);
        let res = _mm256_add_pd(_mm256_mul_pd(g, ns), d);
        _mm256_storeu_pd(op.add(k), res);
        k += 4;
    }
}

/// Quiet-chain LNA: `out[k] = s·gain`, with the rare tanh soft limiter
/// applied to samples whose amplitude exceeds the compression point — the
/// kernel of `LnaState::amplify_chunk_into` when the LNA draws no noise,
/// with the noisy loop's expression tree. The wide path computes gain and amplitude with vector ops
/// (the `norm_sqr` add order, then an IEEE `sqrt`) and compares against the
/// compression amplitude via vector masks; only flagged samples take the
/// scalar tanh branch.
pub fn lna_quiet_into(
    backend: Backend,
    samples: &[Iq],
    gain_amp: f64,
    comp_amp: f64,
    out: &mut Vec<Iq>,
) {
    out.clear();
    out.resize(samples.len(), Iq::ZERO);
    let n_wide = match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 if Backend::Avx2.available() => {
            let nw = samples.len() & !3;
            // SAFETY: AVX2 availability checked in the guard; out sized above.
            unsafe { lna_quiet_avx2(samples, gain_amp, comp_amp, out, nw) };
            nw
        }
        _ => 0,
    };
    for k in n_wide..samples.len() {
        let mut v = samples[k].scale(gain_amp);
        let a = v.abs();
        if a > comp_amp {
            let limited = comp_amp * (1.0 + (a / comp_amp - 1.0).tanh());
            v = v.scale(limited / a);
        }
        out[k] = v;
    }
}

/// Four `Iq` samples per iteration; compressed samples (amplitude above the
/// compression point) are patched scalar afterwards.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lna_quiet_avx2(
    samples: &[Iq],
    gain_amp: f64,
    comp_amp: f64,
    out: &mut [Iq],
    n_wide: usize,
) {
    use std::arch::x86_64::*;
    let g = _mm256_set1_pd(gain_amp);
    let ca = _mm256_set1_pd(comp_amp);
    let ip = iq_lanes(samples).as_ptr();
    let op = iq_lanes_mut(out).as_mut_ptr();
    let mut k = 0usize;
    while k < n_wide {
        let v0 = _mm256_mul_pd(_mm256_loadu_pd(ip.add(2 * k)), g);
        let v1 = _mm256_mul_pd(_mm256_loadu_pd(ip.add(2 * k + 4)), g);
        _mm256_storeu_pd(op.add(2 * k), v0);
        _mm256_storeu_pd(op.add(2 * k + 4), v1);
        let s0 = _mm256_mul_pd(v0, v0);
        let s1 = _mm256_mul_pd(v1, v1);
        // [|z0|², |z2|², |z1|², |z3|²] per the hadd lane order.
        let h = _mm256_hadd_pd(s0, s1);
        let a = _mm256_sqrt_pd(h);
        let over = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(a, ca));
        if over != 0 {
            // Mask bit 0 → z0, 1 → z2, 2 → z1, 3 → z3 (hadd order).
            for (bit, lane) in [(0usize, 0usize), (1, 2), (2, 1), (3, 3)] {
                if over & (1 << bit) != 0 {
                    let idx = 2 * (k + lane);
                    let v = Iq::new(*op.add(idx), *op.add(idx + 1));
                    let amp = v.abs();
                    let limited = comp_amp * (1.0 + (amp / comp_amp - 1.0).tanh());
                    let v = v.scale(limited / amp);
                    *op.add(idx) = v.re;
                    *op.add(idx + 1) = v.im;
                }
            }
        }
        k += 4;
    }
}

// ---------------------------------------------------------------------------
// Double-threshold comparator scan
// ---------------------------------------------------------------------------

/// Resolves the hysteresis recurrence `s_i = a_i | (b_i & s_{i-1})` across one
/// 64-bit word (bit `i` = sample `i`), given the carry from the previous word.
/// `a` is the set mask (`v ≥ U_H`), `b` the hold mask (`v ≥ U_L`).
#[inline]
fn resolve_word(a: u64, b: u64, carry: bool) -> u64 {
    if a == b {
        // v ≥ U_H iff v ≥ U_L for every sample: s_i = a_i | (a_i & s_{i-1}) = a_i.
        return a;
    }
    // Kogge–Stone carry chain: fold the incoming carry into bit 0, then
    // double the propagation distance log₂(64) times.
    let mut g = a | (b & carry as u64);
    let mut p = b;
    for shift in [1u32, 2, 4, 8, 16, 32] {
        g |= p & (g << shift);
        p &= p << shift;
    }
    g
}

/// Builds one word of comparator masks: bit `i` of the first mask is
/// `values[i] ≥ highs[i]`, of the second `values[i] ≥ lows[i]`.
#[inline]
fn mask_word(values: &[f64], highs: &[f64], lows: &[f64]) -> (u64, u64) {
    let mut a = 0u64;
    let mut b = 0u64;
    for (i, ((&v, &high), &low)) in values.iter().zip(highs).zip(lows).enumerate() {
        a |= ((v >= high) as u64) << i;
        b |= ((v >= low) as u64) << i;
    }
    (a, b)
}

/// Scans the double-threshold comparator over `values` with **per-sample**
/// thresholds, packing the output bits into 64-sample words (bit `i % 64` of
/// word `i / 64`). Returns the final comparator state. Words beyond the
/// sample count are zero-padded.
///
/// The recurrence per sample is exactly the scalar comparator's
/// `state = if state { v >= low } else { v >= high }`, which for `low ≤ high`
/// equals `state = (v ≥ high) | ((v ≥ low) & state)` — the form the vector
/// compare + mask-extraction path resolves per word. The caller must ensure
/// `low[i] ≤ high[i]` (the streaming receiver's threshold tracker and
/// `analog::DoubleThresholdComparator::new` guarantee it).
///
/// # Panics
///
/// If `highs`/`lows` are shorter than `values`.
pub fn hysteresis_words(
    values: &[f64],
    highs: &[f64],
    lows: &[f64],
    mut state: bool,
    words: &mut Vec<u64>,
) -> bool {
    assert!(highs.len() >= values.len() && lows.len() >= values.len());
    words.clear();
    words.reserve(values.len().div_ceil(64));
    let mut base = 0usize;
    while base < values.len() {
        let n = (values.len() - base).min(64);
        let (a, b) = mask_word(
            &values[base..base + n],
            &highs[base..base + n],
            &lows[base..base + n],
        );
        let resolved = resolve_word(a, b, state);
        state = resolved >> (n - 1) & 1 != 0;
        words.push(resolved & (u64::MAX >> (64 - n)));
        base += n;
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wide_backends() -> Vec<Backend> {
        Backend::ALL
            .iter()
            .copied()
            .filter(|b| *b != Backend::Scalar && b.available())
            .collect()
    }

    fn test_signal(n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut re = Vec::with_capacity(n);
        let mut im = Vec::with_capacity(n);
        let mut x = 0.37f64;
        for _ in 0..n {
            x = (x * 997.0 + 0.1234).fract();
            re.push(x * 2.0 - 1.0);
            x = (x * 997.0 + 0.1234).fract();
            im.push(x * 2.0 - 1.0);
        }
        (re, im)
    }

    #[test]
    fn report_is_consistent() {
        let r = simd_report();
        assert_eq!(r.backend, active_backend().name());
        assert_eq!(r.f64_lanes, active_backend().f64_lanes());
        assert!(!format!("{r}").is_empty());
    }

    #[test]
    fn convolve_matches_scalar_order_every_backend() {
        for &taps in &[1usize, 2, 3, 7, 8, 64] {
            for &m in &[0usize, 1, 2, 3, 5, 8, 17, 64] {
                let (tr, ti) = test_signal(taps);
                let (br, bi) = test_signal(m + taps);
                let mut ref_re = vec![0.0; m];
                let mut ref_im = vec![0.0; m];
                for i in 0..m {
                    let (re, im) = dot_scalar_order(&tr, &ti, &br[i..i + taps], &bi[i..i + taps]);
                    ref_re[i] = re;
                    ref_im[i] = im;
                }
                // Scalar included: its tile is the reference every wide
                // tile reproduces.
                for b in Backend::ALL.into_iter().filter(|b| b.available()) {
                    let mut out_re = vec![0.0; m];
                    let mut out_im = vec![0.0; m];
                    convolve_block::<false>(b, &tr, &ti, &br, &bi, &mut out_re, &mut out_im, m);
                    assert_eq!(out_re, ref_re, "{b:?} taps={taps} m={m}");
                    assert_eq!(out_im, ref_im, "{b:?} taps={taps} m={m}");
                    // ACCUM variant adds on top of a pre-filled plane.
                    let mut acc_re = vec![1.5; m];
                    let mut acc_im = vec![-0.5; m];
                    convolve_block::<true>(b, &tr, &ti, &br, &bi, &mut acc_re, &mut acc_im, m);
                    for i in 0..m {
                        assert_eq!(acc_re[i], 1.5 + ref_re[i], "{b:?} accum re {i}");
                        assert_eq!(acc_im[i], -0.5 + ref_im[i], "{b:?} accum im {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn rotate_chains_match_scalar() {
        let (are, aim) = test_signal(11);
        let (step_re, step_im) = (0.9f64.cos(), 0.9f64.sin());
        for &block in &[1usize, 3, 256] {
            let mut reference = vec![0.0; 11 * block];
            rotate_chains_into(
                Backend::Scalar,
                &are,
                &aim,
                step_re,
                step_im,
                block,
                &mut reference,
            );
            for b in wide_backends() {
                let mut got = vec![0.0; 11 * block];
                rotate_chains_into(b, &are, &aim, step_re, step_im, block, &mut got);
                assert_eq!(got, reference, "{b:?} block={block}");
            }
        }
    }

    #[test]
    fn elementwise_kernels_match_scalar() {
        let (re, im) = test_signal(37);
        let samples: Vec<Iq> = re.iter().zip(&im).map(|(&r, &i)| Iq::new(r, i)).collect();
        let (clock, _) = test_signal(37);
        for b in wide_backends() {
            let mut ref_out = Vec::new();
            rf_mix_into(Backend::Scalar, &samples, &clock, 1.0, 0.5, &mut ref_out);
            let mut got = Vec::new();
            rf_mix_into(b, &samples, &clock, 1.0, 0.5, &mut got);
            assert_eq!(got, ref_out, "{b:?} rf_mix");

            let mut ref_bb = re.clone();
            bb_mix_in_place(Backend::Scalar, &mut ref_bb, &clock, 0.8);
            let mut got_bb = re.clone();
            bb_mix_in_place(b, &mut got_bb, &clock, 0.8);
            assert_eq!(got_bb, ref_bb, "{b:?} bb_mix");

            let mut ref_env = Vec::new();
            envelope_noiseless_into(Backend::Scalar, &samples, 2.5, 0.01, &mut ref_env);
            let mut got_env = Vec::new();
            envelope_noiseless_into(b, &samples, 2.5, 0.01, &mut got_env);
            assert_eq!(got_env, ref_env, "{b:?} envelope");

            // Compression point chosen so some samples take the tanh branch.
            for comp in [0.3, 10.0] {
                let mut ref_lna = Vec::new();
                lna_quiet_into(Backend::Scalar, &samples, 2.0, comp, &mut ref_lna);
                let mut got_lna = Vec::new();
                lna_quiet_into(b, &samples, 2.0, comp, &mut got_lna);
                assert_eq!(got_lna, ref_lna, "{b:?} lna comp={comp}");
            }
        }
    }

    /// Serial reference for the hysteresis recurrence.
    fn hysteresis_serial(values: &[f64], highs: &[f64], lows: &[f64], mut st: bool) -> Vec<bool> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                st = if st { v >= lows[i] } else { v >= highs[i] };
                st
            })
            .collect()
    }

    #[test]
    fn comparator_words_match_serial() {
        for &n in &[0usize, 1, 5, 63, 64, 65, 200] {
            let (values, _) = test_signal(n);
            let highs = vec![0.4; n];
            let lows = vec![-0.2; n];
            for &init in &[false, true] {
                let expect = hysteresis_serial(&values, &highs, &lows, init);
                let mut words = Vec::new();
                let fin = hysteresis_words(&values, &highs, &lows, init, &mut words);
                let got: Vec<bool> = (0..n).map(|i| words[i / 64] >> (i % 64) & 1 != 0).collect();
                assert_eq!(got, expect, "n={n} init={init}");
                assert_eq!(fin, *expect.last().unwrap_or(&init), "final");
            }
        }
    }

    #[test]
    fn comparator_nan_stays_low() {
        let values = vec![f64::NAN; 70];
        let highs = vec![0.0; 70];
        let lows = vec![-1.0; 70];
        let mut words = Vec::new();
        let fin = hysteresis_words(&values, &highs, &lows, true, &mut words);
        assert!(!fin);
        assert!(words.iter().all(|w| *w == 0));
    }

    #[test]
    fn forced_env_parse() {
        assert_eq!(Backend::parse(" AVX2 "), Some(Backend::Avx2));
        assert_eq!(Backend::parse("scalar"), Some(Backend::Scalar));
        assert_eq!(Backend::parse("avx512"), Some(Backend::Avx512));
        assert_eq!(Backend::parse("neon"), None);
        // Removed backends are rejected, not mapped to a neighbour.
        assert_eq!(Backend::parse("sse2"), None);
        assert_eq!(Backend::parse("portable"), None);
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
    }

    #[test]
    fn auto_selection_is_the_widest_available() {
        let best = best_available();
        assert!(best.available());
        assert!(Backend::ALL
            .iter()
            .all(|b| !b.available() || b.f64_lanes() <= best.f64_lanes()));
    }
}
