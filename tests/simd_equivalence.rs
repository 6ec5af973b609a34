//! Backend-equivalence matrix for every `analog::simd` kernel.
//!
//! The SIMD dispatch contract (`docs/ARCHITECTURE.md` §4) is that every
//! backend computes the *same floating-point expression tree* as the scalar
//! path, so outputs are bit-identical — not merely close — for every kernel
//! (the anchored oscillator fast path too, because its wide lanes mirror the
//! scalar recurrence order; the ≤2-ULP allowance the contract grants it is
//! never actually needed). This suite enforces that: each proptest case runs
//! one kernel under every backend the CPU can execute and compares the raw
//! bits against [`Backend::Scalar`], including random chunk partitions for
//! the kernels that carry state across chunks, plus a forced-`SAIYAN_SIMD`
//! child-process smoke test for the env override. The comparator scan has
//! one path on every backend and is pinned against the per-sample
//! recurrence instead.

use analog::simd::{self, Backend};
use analog::ComplexFirState;
use lora_phy::iq::Iq;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Every backend the running CPU can execute: `Scalar` everywhere, plus
/// `Avx2` and `Avx512` on x86-64 CPUs that have them. `Avx512` differs from
/// `Avx2` only in `convolve_block`; the other kernels run their AVX2 code
/// under both, which this matrix pins too.
fn backends() -> Vec<Backend> {
    Backend::ALL.into_iter().filter(|b| b.available()).collect()
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

fn iq_bits(v: &[Iq]) -> Vec<(u64, u64)> {
    v.iter().map(|s| (bits(s.re), bits(s.im))).collect()
}

/// A bounded, sign-mixed f64 that exercises rounding without overflow
/// (hand-rolled: the vendored proptest shim has no `prop_compose!`).
#[derive(Clone, Copy, Debug)]
struct SaneF64;

impl Strategy for SaneF64 {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        let m = (-1000.0f64..1000.0).sample(rng);
        let e = (-8i32..8).sample(rng);
        m * 2f64.powi(e)
    }
}

fn sane_f64() -> SaneF64 {
    SaneF64
}

#[derive(Clone, Copy, Debug)]
struct SaneIq;

impl Strategy for SaneIq {
    type Value = Iq;

    fn sample(&self, rng: &mut TestRng) -> Iq {
        Iq::new(SaneF64.sample(rng), SaneF64.sample(rng))
    }
}

fn sane_iq() -> SaneIq {
    SaneIq
}

/// Splits `n` elements into a partition drawn from `cuts` (empty chunks
/// included when a cut repeats).
fn partition_from_cuts(n: usize, cuts: &[usize]) -> Vec<(usize, usize)> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % (n + 1)).collect();
    points.push(0);
    points.push(n);
    points.sort_unstable();
    points.windows(2).map(|w| (w[0], w[1])).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `convolve_block` (store and accumulate): every backend bit-identical
    /// to the scalar summation order for any tap count and output count,
    /// including `m` smaller than one lane and `m == 0`.
    #[test]
    fn convolve_matches_scalar(
        taps in collection::vec(sane_iq(), 1..70),
        body in collection::vec(sane_f64(), 0..160),
    ) {
        let l = taps.len();
        let m = body.len();
        let tr: Vec<f64> = taps.iter().map(|t| t.re).collect();
        let ti: Vec<f64> = taps.iter().map(|t| t.im).collect();
        // Workspace: history prefix of zeros + body, as the FIR state lays out.
        let mut buf_re = vec![0.0; l - 1];
        let mut buf_im = vec![0.0; l - 1];
        buf_re.extend(body.iter().copied());
        buf_im.extend(body.iter().map(|x| x * 0.5 - 1.0));
        let mut ref_re = vec![0.1; m];
        let mut ref_im = vec![-0.2; m];
        simd::convolve_block::<true>(Backend::Scalar, &tr, &ti, &buf_re, &buf_im, &mut ref_re, &mut ref_im, m);
        for b in backends() {
            let mut out_re = vec![0.1; m];
            let mut out_im = vec![-0.2; m];
            simd::convolve_block::<true>(b, &tr, &ti, &buf_re, &buf_im, &mut out_re, &mut out_im, m);
            prop_assert_eq!(out_re.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
                            ref_re.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
                            "convolve accum re, backend {}", b.name());
            prop_assert_eq!(out_im.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
                            ref_im.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
                            "convolve accum im, backend {}", b.name());
            let mut s_re = vec![9.0; m];
            let mut s_im = vec![9.0; m];
            simd::convolve_block::<false>(b, &tr, &ti, &buf_re, &buf_im, &mut s_re, &mut s_im, m);
            let mut r_re = vec![7.0; m];
            let mut r_im = vec![7.0; m];
            simd::convolve_block::<false>(Backend::Scalar, &tr, &ti, &buf_re, &buf_im, &mut r_re, &mut r_im, m);
            prop_assert_eq!(s_re.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
                            r_re.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
                            "convolve store re, backend {}", b.name());
            prop_assert_eq!(s_im.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
                            r_im.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
                            "convolve store im, backend {}", b.name());
        }
    }

    /// The oscillator fast path (`rotate_chains_into`): every backend runs
    /// the exact scalar phasor recurrence per chain, so agreement is
    /// bit-identical (well inside the ≤2-ULP contract).
    #[test]
    fn rotate_chains_matches_scalar(
        anchors in collection::vec(sane_iq(), 1..20),
        theta in -3.0f64..3.0,
        block in 0usize..70,
    ) {
        let a_re: Vec<f64> = anchors.iter().map(|a| a.re).collect();
        let a_im: Vec<f64> = anchors.iter().map(|a| a.im).collect();
        let (s_im, s_re) = theta.sin_cos();
        let mut reference = vec![0.0; anchors.len() * block];
        simd::rotate_chains_into(Backend::Scalar, &a_re, &a_im, s_re, s_im, block, &mut reference);
        for b in backends() {
            let mut out = vec![0.0; anchors.len() * block];
            simd::rotate_chains_into(b, &a_re, &a_im, s_re, s_im, block, &mut out);
            prop_assert_eq!(out.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
                            reference.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
                            "rotate_chains, backend {}", b.name());
        }
    }

    /// The channelizer's anchored-table rotation: bit-identical across
    /// backends, and chunk-invariant (rotating a split of the block with the
    /// matching table slices equals rotating it whole).
    #[test]
    fn rotate_by_table_matches_scalar_and_chunking(
        data in collection::vec(sane_iq(), 0..120),
        anchor in sane_iq(),
        theta in -3.0f64..3.0,
        cuts in collection::vec(0usize..200, 0..4),
    ) {
        let n = data.len();
        let table: Vec<Iq> = (0..n).map(|t| Iq::phasor(theta * t as f64)).collect();
        let mut reference = data.clone();
        simd::rotate_by_table_in_place(Backend::Scalar, &mut reference, anchor, &table);
        for b in backends() {
            let mut whole = data.clone();
            simd::rotate_by_table_in_place(b, &mut whole, anchor, &table);
            prop_assert_eq!(iq_bits(&whole), iq_bits(&reference), "rotate_by_table, backend {}", b.name());
            let mut split = data.clone();
            for &(lo, hi) in &partition_from_cuts(n, &cuts) {
                simd::rotate_by_table_in_place(b, &mut split[lo..hi], anchor, &table[lo..hi]);
            }
            prop_assert_eq!(iq_bits(&split), iq_bits(&reference), "rotate_by_table split, backend {}", b.name());
        }
    }

    /// Elementwise mixer/envelope/LNA kernels: bit-identical per backend.
    #[test]
    fn elementwise_kernels_match_scalar(
        samples in collection::vec(sane_iq(), 0..130),
        clock_seed in collection::vec(-1.0f64..1.0, 0..130),
        feedthrough in sane_f64(),
        gain in sane_f64(),
        dc in sane_f64(),
    ) {
        let n = samples.len().min(clock_seed.len());
        let samples = &samples[..n];
        let clock = &clock_seed[..n];
        for b in backends() {
            // RF mixer.
            let mut reference = Vec::new();
            simd::rf_mix_into(Backend::Scalar, samples, clock, feedthrough, gain, &mut reference);
            let mut out = Vec::new();
            simd::rf_mix_into(b, samples, clock, feedthrough, gain, &mut out);
            prop_assert_eq!(iq_bits(&out), iq_bits(&reference), "rf_mix, backend {}", b.name());
            // Baseband mixer.
            let mut reference: Vec<f64> = samples.iter().map(|s| s.re).collect();
            simd::bb_mix_in_place(Backend::Scalar, &mut reference, clock, gain);
            let mut data: Vec<f64> = samples.iter().map(|s| s.re).collect();
            simd::bb_mix_in_place(b, &mut data, clock, gain);
            prop_assert_eq!(data.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
                            reference.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
                            "bb_mix, backend {}", b.name());
            // Envelope (noiseless square law).
            let mut reference = Vec::new();
            simd::envelope_noiseless_into(Backend::Scalar, samples, gain, dc, &mut reference);
            let mut out = Vec::new();
            simd::envelope_noiseless_into(b, samples, gain, dc, &mut out);
            prop_assert_eq!(out.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
                            reference.iter().map(|&x| bits(x)).collect::<Vec<_>>(),
                            "envelope, backend {}", b.name());
            // LNA quiet path (compression amplitude low enough that both
            // branches — pass-through and scalar tanh patch — are taken).
            let mut reference = Vec::new();
            simd::lna_quiet_into(Backend::Scalar, samples, 2.0, 800.0, &mut reference);
            let mut out = Vec::new();
            simd::lna_quiet_into(b, samples, 2.0, 800.0, &mut out);
            prop_assert_eq!(iq_bits(&out), iq_bits(&reference), "lna, backend {}", b.name());
        }
    }

    /// Double-threshold comparator scan (one path on every backend): the
    /// word kernel reproduces the per-sample hysteresis recurrence's
    /// decisions and final state against per-sample thresholds, for whole
    /// buffers and across random chunk partitions with the state threaded
    /// through — the way the receiver runs it chunk by chunk.
    #[test]
    fn hysteresis_matches_scalar_and_chunking(
        values in collection::vec(-2.0f64..2.0, 0..200),
        high in 0.0f64..1.0,
        margin in 0.0f64..1.0,
        ramp in -0.01f64..0.01,
        start in any::<bool>(),
        cuts in collection::vec(0usize..300, 0..4),
    ) {
        let highs: Vec<f64> = (0..values.len()).map(|i| high + ramp * i as f64).collect();
        let lows: Vec<f64> = highs.iter().map(|h| h - margin).collect();
        let mut ref_state = start;
        let reference: Vec<bool> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                ref_state = if ref_state { v >= lows[i] } else { v >= highs[i] };
                ref_state
            })
            .collect();
        let unpack = |words: &[u64], n: usize| -> Vec<bool> {
            (0..n).map(|i| (words[i / 64] >> (i % 64)) & 1 == 1).collect()
        };
        let mut words = Vec::new();
        let state = simd::hysteresis_words(&values, &highs, &lows, start, &mut words);
        prop_assert_eq!(&unpack(&words, values.len()), &reference, "hysteresis");
        prop_assert_eq!(state, ref_state, "hysteresis state");
        // Random partition with carried state.
        let mut split = Vec::new();
        let mut st = start;
        for &(lo, hi) in &partition_from_cuts(values.len(), &cuts) {
            st = simd::hysteresis_words(
                &values[lo..hi],
                &highs[lo..hi],
                &lows[lo..hi],
                st,
                &mut words,
            );
            split.extend(unpack(&words, hi - lo));
        }
        prop_assert_eq!(&split, &reference, "hysteresis split");
        prop_assert_eq!(st, ref_state, "hysteresis split state");
    }

    /// The full FIR state over random chunk partitions reproduces the
    /// per-sample scalar reference (`push_and_convolve`) bit-exactly under
    /// the active backend — the stage-level face of the kernel contract.
    #[test]
    fn fir_chunking_matches_push_reference(
        taps in collection::vec(sane_iq(), 1..40),
        input in collection::vec(sane_iq(), 0..150),
        cuts in collection::vec(0usize..200, 0..5),
    ) {
        let mut reference_state = ComplexFirState::new(taps.clone());
        let reference: Vec<Iq> = input.iter().map(|&x| reference_state.push_and_convolve(x)).collect();
        let mut chunked = ComplexFirState::new(taps);
        let mut got = Vec::new();
        let mut scratch = Vec::new();
        for &(lo, hi) in &partition_from_cuts(input.len(), &cuts) {
            chunked.filter_chunk_into(&input[lo..hi], &mut scratch);
            got.extend_from_slice(&scratch);
        }
        prop_assert_eq!(iq_bits(&got), iq_bits(&reference));
    }
}

/// Forced-backend smoke test: respawns this test binary once per available
/// backend with `SAIYAN_SIMD` set, and the child asserts the dispatcher
/// honoured the override.
#[test]
fn forced_backend_env_override() {
    if std::env::var("SIMD_EQUIVALENCE_CHILD").is_ok() {
        let want = std::env::var(simd::BACKEND_ENV).expect("child has the override set");
        let report = simd::simd_report();
        assert_eq!(
            report.backend,
            want,
            "dispatcher ignored {}",
            simd::BACKEND_ENV
        );
        assert!(report.forced, "override not reported as forced");
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    for b in backends() {
        let status = std::process::Command::new(&exe)
            .args(["forced_backend_env_override", "--exact"])
            .env("SIMD_EQUIVALENCE_CHILD", "1")
            .env(simd::BACKEND_ENV, b.name())
            .status()
            .expect("spawn child test");
        assert!(status.success(), "forced backend {:?} failed", b.name());
    }
}
