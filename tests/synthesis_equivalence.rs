//! Property tests pinning the waveform-synthesis fast path to its reference
//! implementations across randomised chunk partitions, CFO draws, power
//! spreads and channel offsets.
//!
//! Three layers, three contracts:
//!
//! * template packet assembly is **bit-identical** to the chirp generator's
//!   segments, concatenated and then scaled;
//! * block AWGN is **bit-identical** to the per-sample draw loop, for any
//!   partition of the stream into fill calls, and drawn ahead on the
//!   noise helper thread it is bit-identical to the inline fill;
//! * emission mixing is **bit-invariant** across chunk partitions, exact for
//!   unrotated emissions, and within a tight absolute bound of the exact
//!   per-sample phasor reference when CFO/channel rotation is in play.

use lora_phy::chirp::ChirpGenerator;
use lora_phy::iq::Iq;
use lora_phy::modulator::Alphabet;
use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor, PREAMBLE_UPCHIRPS};
use lora_phy::templates::PacketTemplates;
use netsim::synthesis::EmissionMixer;
use proptest::prelude::*;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfsim::noise::{AwgnSource, NoiseAhead};

const FS: f64 = 3.0e6;

/// One synthetic emission: start sample, waveform, CFO and channel offset.
#[derive(Debug, Clone)]
struct TestEmission {
    start: u64,
    samples: Vec<Iq>,
    cfo_hz: f64,
    offset_hz: f64,
}

/// Draws one random emission: start, length, a ±12 dB power spread around a
/// −50 dBm-ish amplitude, a CFO draw (zero half the time, exercising the
/// plain-accumulate path) and a channel offset on the paper's 500 kHz grid.
/// The vendored proptest has no tuple strategies, so this samples directly.
struct EmissionStrategy;

impl Strategy for EmissionStrategy {
    type Value = TestEmission;

    fn sample(&self, rng: &mut proptest::test_runner::TestRng) -> TestEmission {
        let rng = &mut rng.0;
        let start = rng.gen_range(0u64..4096);
        let len = rng.gen_range(64usize..2048);
        let spread_db = rng.gen_range(-12.0f64..12.0);
        let scale = 1e-4 * 10f64.powf(spread_db / 20.0);
        let cfo_hz = if rng.gen_range(0u32..2) == 0 {
            0.0
        } else {
            rng.gen_range(-2_000.0f64..2_000.0)
        };
        let offset_hz = [0.0, -750e3, -250e3, 250e3, 750e3][rng.gen_range(0usize..5)];
        // Constant-envelope pseudo-waveform at the drawn power.
        let samples = (0..len)
            .map(|_| Iq::phasor(rng.gen::<f64>() * std::f64::consts::TAU).scale(scale))
            .collect();
        TestEmission {
            start,
            samples,
            cfo_hz,
            offset_hz,
        }
    }
}

/// Splits `total` samples into chunks drawn from `sizes` (cycled), covering
/// the stream exactly.
fn partition(total: usize, sizes: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut covered = 0;
    let mut i = 0;
    while covered < total {
        let n = sizes[i % sizes.len()].min(total - covered);
        out.push(n);
        covered += n;
        i += 1;
    }
    out
}

/// Streams all emissions through a fresh mixer over the given partition.
fn mix_stream(emissions: &[TestEmission], total: usize, chunks: &[usize]) -> Vec<Iq> {
    let mut sorted: Vec<&TestEmission> = emissions.iter().collect();
    sorted.sort_by_key(|e| e.start);
    let mut mixer = EmissionMixer::new();
    for e in &sorted {
        mixer.push(e.start, e.samples.clone(), e.cfo_hz, e.offset_hz, FS);
    }
    let mut stream = Vec::with_capacity(total);
    let mut pos = 0u64;
    for &n in chunks {
        let mut chunk = vec![Iq::ZERO; n];
        mixer.mix_into(&mut chunk, pos);
        pos += n as u64;
        stream.extend_from_slice(&chunk);
    }
    stream
}

/// The exact per-sample reference: each emission sample at absolute index
/// `i` is rotated by `phasor(cfo_step·(i − start) + chan_step·i)`.
fn reference_stream(emissions: &[TestEmission], total: usize) -> Vec<Iq> {
    let mut out = vec![Iq::ZERO; total];
    for e in emissions {
        let cfo_step = std::f64::consts::TAU * e.cfo_hz / FS;
        let chan_step = std::f64::consts::TAU * e.offset_hz / FS;
        for (k, &s) in e.samples.iter().enumerate() {
            let i = e.start + k as u64;
            if (i as usize) < total {
                out[i as usize] += s * Iq::phasor(cfo_step * k as f64 + chan_step * i as f64);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Template-cache packet assembly is bit-identical to the reference
    /// modulator — every segment straight from the chirp generator —
    /// followed by a scale, for any payload and power draw.
    #[test]
    fn template_assembly_matches_modulator_bit_exactly(
        k in 1u8..=3,
        symbol_seed in any::<u64>(),
        n_symbols in 1usize..24,
        spread_db in -12.0f64..12.0,
    ) {
        let k = BitsPerChirp::new(k).unwrap();
        let params = LoraParams::new(SpreadingFactor::Sf7, Bandwidth::Khz125, k)
            .with_oversampling(2);
        let mut rng = ChaCha8Rng::seed_from_u64(symbol_seed);
        let symbols: Vec<u32> =
            (0..n_symbols).map(|_| rng.gen_range(0..k.alphabet_size())).collect();
        let scale = 1e-4 * 10f64.powf(spread_db / 20.0);

        let generator = ChirpGenerator::new(params);
        let up = generator.base_upchirp().samples;
        let down = generator.base_downchirp().samples;
        let mut wave = Vec::new();
        for _ in 0..PREAMBLE_UPCHIRPS {
            wave.extend_from_slice(&up);
        }
        wave.extend_from_slice(&down);
        wave.extend_from_slice(&down);
        wave.extend_from_slice(&down[..down.len() / 4]);
        let payload_start = wave.len();
        for &sym in &symbols {
            wave.extend(generator.downlink_chirp(sym).unwrap().samples);
        }
        let reference: Vec<Iq> = wave.iter().map(|s| s.scale(scale)).collect();

        let templates = PacketTemplates::new(params, Alphabet::Downlink);
        let mut fast = Vec::new();
        let layout = templates
            .assemble_scaled_extend(&symbols, scale, &mut fast)
            .unwrap();
        prop_assert_eq!(layout.payload_start, payload_start);
        prop_assert_eq!(fast.len(), reference.len());
        for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
            prop_assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "sample {i} differs: {a:?} vs {b:?}"
            );
        }
    }

    /// The block AWGN fill consumes the RNG exactly like the per-sample
    /// loop, so any partition of a stream into `add_noise_in_place` calls is
    /// bit-identical to sampling one value at a time.
    #[test]
    fn block_awgn_is_bit_identical_for_any_partition(
        seed in any::<u64>(),
        total in 0usize..2048,
        sizes in proptest::collection::vec(1usize..700, 1..6),
        log_variance in -30.0f64..-6.0,
    ) {
        let variance = log_variance.exp();
        let mut reference = AwgnSource::new(seed);
        let mut expected = vec![Iq::ONE; total];
        for s in expected.iter_mut() {
            *s += reference.sample(variance);
        }

        let mut block = AwgnSource::new(seed);
        let mut got = vec![Iq::ONE; total];
        let mut offset = 0;
        for n in partition(total, &sizes) {
            block.add_noise_in_place(&mut got[offset..offset + n], variance);
            offset += n;
        }
        for (i, (a, b)) in got.iter().zip(&expected).enumerate() {
            prop_assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "sample {i} differs: {a:?} vs {b:?}"
            );
        }
    }

    /// The noise-ahead handle continues the same sequential stream on its
    /// helper thread, so any partition consumed through it — across block
    /// boundaries, with block sizes that do not divide the slices — is
    /// bit-identical to one inline `add_noise_in_place` over the stream.
    #[test]
    fn noise_ahead_is_bit_identical_to_the_inline_fill_for_any_partition(
        seed in any::<u64>(),
        total in 0usize..20_000,
        sizes in proptest::collection::vec(1usize..9000, 1..6),
        block in 1usize..12_000,
        log_variance in -30.0f64..-6.0,
    ) {
        let variance = log_variance.exp();
        let base: Vec<Iq> = (0..total).map(|i| Iq::new(i as f64 * 1e-6, -1e-6)).collect();
        let mut expected = base.clone();
        AwgnSource::new(seed).add_noise_in_place(&mut expected, variance);

        let mut ahead = NoiseAhead::spawn(AwgnSource::new(seed), variance, block);
        let mut got = base;
        let mut offset = 0;
        for n in partition(total, &sizes) {
            ahead.add_next(&mut got[offset..offset + n]);
            offset += n;
        }
        for (i, (a, b)) in got.iter().zip(&expected).enumerate() {
            prop_assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "sample {i} differs: {a:?} vs {b:?}"
            );
        }
    }

    /// Mixing is bit-invariant across chunk partitions: the assembled stream
    /// does not depend on how the receiver slices it.
    #[test]
    fn mixing_is_bit_invariant_across_chunk_partitions(
        emissions in proptest::collection::vec(EmissionStrategy, 1..4),
        sizes_a in proptest::collection::vec(1usize..1500, 1..5),
        sizes_b in proptest::collection::vec(1usize..1500, 1..5),
    ) {
        let total = emissions
            .iter()
            .map(|e| e.start as usize + e.samples.len())
            .max()
            .unwrap()
            + 64;
        let a = mix_stream(&emissions, total, &partition(total, &sizes_a));
        let b = mix_stream(&emissions, total, &partition(total, &sizes_b));
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "sample {i} differs across partitions: {x:?} vs {y:?}"
            );
        }
    }

    /// Against the exact per-sample phasor reference the fast path is exact
    /// for unrotated emissions (cfo = 0, offset = 0 — plain accumulation)
    /// and within a tight absolute bound when the fused rotation runs.
    #[test]
    fn mixing_tracks_the_exact_phasor_reference(
        emissions in proptest::collection::vec(EmissionStrategy, 1..4),
        sizes in proptest::collection::vec(1usize..1500, 1..5),
    ) {
        let total = emissions
            .iter()
            .map(|e| e.start as usize + e.samples.len())
            .max()
            .unwrap()
            + 64;
        let fast = mix_stream(&emissions, total, &partition(total, &sizes));
        let exact = reference_stream(&emissions, total);
        let rotated = emissions.iter().any(|e| e.cfo_hz != 0.0 || e.offset_hz != 0.0);
        for (i, (a, b)) in fast.iter().zip(&exact).enumerate() {
            if rotated {
                prop_assert!(
                    (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9,
                    "sample {i} drifts from the exact reference: {a:?} vs {b:?}"
                );
            } else {
                prop_assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "unrotated sample {i} not bit-exact: {a:?} vs {b:?}"
                );
            }
        }
    }
}
