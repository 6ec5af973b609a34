//! Chunk-partition invariance for every block-pipeline stage.
//!
//! One shared harness feeds each stage of the analog chain (SAW FIR, raw
//! complex FIR, channelizer, LNA, envelope detector, shifter chain, IF
//! amplifier, low-pass cascade, full streaming front end) through
//! deterministic chunk partitions — sizes {1, 7, 64, whole} with empty
//! chunks interleaved — and through proptest-generated random partitions,
//! asserting the concatenated output is *bit-identical* to whole-buffer
//! processing. This is the contract [`analog::stage`] writes
//! down; the macro below is the single place it is enforced for all stages.
//! A last proptest pins the shared phase split the gateway feeds its
//! channelizers: decimators reading one [`PhaseSplit`] emit exactly what
//! each would on its own.

use analog::channelizer::ChannelizerSpec;
use analog::envelope::EnvelopeDetector;
use analog::filters::{IfAmplifier, LowPassFilter};
use analog::lna::Lna;
use analog::saw::SawFilter;
use analog::shifting::{CyclicFrequencyShifter, ShiftingConfig};
use analog::stage::{BlockStage, InPlaceStage};
use analog::{ComplexFirState, PhaseSplit, PolyphaseDecimator};
use lora_phy::iq::Iq;
use proptest::prelude::*;
use rfsim::units::Hertz;
use saiyan::config::{SaiyanConfig, Variant};
use saiyan::Frontend;

const FS: f64 = 2.0e6;

/// A deterministic, spectrally busy complex test signal.
fn iq_input(n: usize) -> Vec<Iq> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            Iq::from_polar(1e-4 * (1.0 + (i % 89) as f64 / 89.0), 0.013 * t)
                + Iq::from_polar(5e-5, 0.217 * t)
        })
        .collect()
}

/// A deterministic real test signal.
fn real_input(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (0.031 * i as f64).sin() * (1.0 + 0.5 * (0.0007 * i as f64).cos()))
        .collect()
}

/// Splits `input` by cycling through `sizes` (0 = an empty chunk, exercised
/// deliberately) and runs the stage chunk by chunk.
fn run_block_partition<S: BlockStage>(
    stage: &mut S,
    input: &[S::In],
    sizes: &[usize],
) -> Vec<S::Out> {
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    let mut offset = 0usize;
    let mut i = 0usize;
    while offset < input.len() {
        let size = sizes[i % sizes.len()];
        let end = (offset + size).min(input.len());
        stage.process_into(&input[offset..end], &mut scratch);
        out.extend_from_slice(&scratch);
        offset = end;
        i += 1;
    }
    out
}

fn run_in_place_partition<S: InPlaceStage>(
    stage: &mut S,
    input: &[f64],
    sizes: &[usize],
) -> Vec<f64> {
    let mut data = input.to_vec();
    let mut offset = 0usize;
    let mut i = 0usize;
    while offset < data.len() {
        let size = sizes[i % sizes.len()];
        let end = (offset + size).min(data.len());
        stage.process_in_place(&mut data[offset..end]);
        offset = end;
        i += 1;
    }
    data
}

/// The deterministic acceptance partitions: single samples, a prime, a block
/// size, the whole buffer — each with empty chunks interleaved.
fn acceptance_partitions(whole: usize) -> Vec<Vec<usize>> {
    vec![
        vec![1],
        vec![0, 1],
        vec![7, 0, 7],
        vec![64],
        vec![0, whole],
        vec![whole],
    ]
}

/// Proptest strategy: a short cycle of chunk sizes, empties included.
fn partition_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(
        prop_oneof![
            Just(0usize),
            Just(1),
            Just(7),
            Just(64),
            Just(997),
            Just(8192)
        ],
        1..5,
    )
    .prop_filter("at least one non-empty chunk size", |sizes| {
        sizes.iter().any(|&s| s > 0)
    })
}

/// Generates the invariance tests for one block stage: deterministic
/// acceptance partitions plus a proptest over random partitions, both
/// compared bit-exactly against whole-buffer processing of a fresh stage.
macro_rules! block_stage_partition_tests {
    ($det:ident, $prop:ident, $make:expr, $input:expr) => {
        #[test]
        fn $det() {
            let input = $input;
            let mut whole = Vec::new();
            ($make)().process_into(&input, &mut whole);
            for sizes in acceptance_partitions(input.len()) {
                let mut stage = ($make)();
                let out = run_block_partition(&mut stage, &input, &sizes);
                assert_eq!(out, whole, "partition {sizes:?}");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[test]
            fn $prop(sizes in partition_strategy()) {
                let input = $input;
                let mut whole = Vec::new();
                ($make)().process_into(&input, &mut whole);
                let mut stage = ($make)();
                let out = run_block_partition(&mut stage, &input, &sizes);
                prop_assert_eq!(out, whole, "partition {:?}", sizes);
            }
        }
    };
}

macro_rules! in_place_stage_partition_tests {
    ($det:ident, $prop:ident, $make:expr, $input:expr) => {
        #[test]
        fn $det() {
            let input = $input;
            let mut whole = input.clone();
            ($make)().process_in_place(&mut whole);
            for sizes in acceptance_partitions(input.len()) {
                let mut stage = ($make)();
                let out = run_in_place_partition(&mut stage, &input, &sizes);
                assert_eq!(out, whole, "partition {sizes:?}");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[test]
            fn $prop(sizes in partition_strategy()) {
                let input = $input;
                let mut whole = input.clone();
                ($make)().process_in_place(&mut whole);
                let mut stage = ($make)();
                let out = run_in_place_partition(&mut stage, &input, &sizes);
                prop_assert_eq!(out, whole, "partition {:?}", sizes);
            }
        }
    };
}

block_stage_partition_tests!(
    saw_fir_partitions,
    saw_fir_random_partitions,
    || SawFilter::paper_b3790().streaming_fir(Hertz::from_mhz(433.5), FS, 128),
    iq_input(6_000)
);

block_stage_partition_tests!(
    complex_fir_partitions,
    complex_fir_random_partitions,
    || {
        ComplexFirState::new(
            (0..37)
                .map(|i| Iq::from_polar(1.0 / (1.0 + i as f64), 0.4 * i as f64))
                .collect(),
        )
    },
    iq_input(5_000)
);

block_stage_partition_tests!(
    channelizer_partitions,
    channelizer_random_partitions,
    || ChannelizerSpec::for_channel(-250_000.0, 125_000.0, 6)
        .with_taps(64)
        .streaming(FS),
    iq_input(9_000)
);

block_stage_partition_tests!(
    channelizer_fast_phasor_partitions,
    channelizer_fast_phasor_random_partitions,
    || ChannelizerSpec::for_channel(250_000.0, 125_000.0, 4)
        .with_taps(64)
        .with_fast_phasor(true)
        .streaming(FS),
    iq_input(9_000)
);

block_stage_partition_tests!(
    lna_partitions,
    lna_random_partitions,
    || Lna::paper_cglna(Hertz::from_khz(500.0)).streaming(),
    iq_input(5_000)
);

block_stage_partition_tests!(
    envelope_partitions,
    envelope_random_partitions,
    || EnvelopeDetector::default().with_seed(0xBEE).streaming(FS),
    iq_input(5_000)
);

block_stage_partition_tests!(
    shifter_partitions,
    shifter_random_partitions,
    || {
        CyclicFrequencyShifter::new(
            ShiftingConfig::for_bandwidth(500_000.0),
            EnvelopeDetector::default(),
        )
        .streaming(FS, true)
    },
    iq_input(5_000)
);

block_stage_partition_tests!(
    shifter_fast_clock_partitions,
    shifter_fast_clock_random_partitions,
    || {
        CyclicFrequencyShifter::new(
            ShiftingConfig::for_bandwidth(500_000.0),
            EnvelopeDetector::default(),
        )
        .streaming(FS, true)
        .with_fast_clock(true)
    },
    iq_input(5_000)
);

in_place_stage_partition_tests!(
    lowpass_partitions,
    lowpass_random_partitions,
    || LowPassFilter::new(100_000.0, 3).streaming(FS),
    real_input(5_000)
);

in_place_stage_partition_tests!(
    if_amplifier_partitions,
    if_amplifier_random_partitions,
    || IfAmplifier::paper_2n222(500_000.0, 125_000.0).streaming(FS),
    real_input(5_000)
);

/// The composed streaming front end (SAW FIR → LNA → shifter) behaves as one
/// big block stage; its scratch arenas must not leak state across chunks.
struct FrontendStage(saiyan::StreamingFrontend);

impl BlockStage for FrontendStage {
    type In = Iq;
    type Out = f64;
    fn process_into(&mut self, input: &[Iq], out: &mut Vec<f64>) {
        self.0.process_chunk_into(input, out);
    }
}

block_stage_partition_tests!(
    frontend_partitions,
    frontend_random_partitions,
    || {
        let lora = lora_phy::params::LoraParams::new(
            lora_phy::params::SpreadingFactor::Sf7,
            lora_phy::params::Bandwidth::Khz500,
            lora_phy::params::BitsPerChirp::new(2).unwrap(),
        );
        let cfg = SaiyanConfig::paper_default(lora, Variant::WithShifting);
        FrontendStage(Frontend::paper(&cfg).streaming(lora.sample_rate()))
    },
    iq_input(5_000)
);

fn iq_bits(v: &[Iq]) -> Vec<(u64, u64)> {
    v.iter().map(|s| (s.re.to_bits(), s.im.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Several decimators of one `D` with different tap counts (some below
    /// `D`) read one shared [`PhaseSplit`] whose history is the longest any
    /// of them needs. Chunk by chunk, each output block is bit-identical to
    /// that decimator's own `filter_chunk_into`, over random partitions with
    /// empty and 1-sample chunks — and across the compacting clones the
    /// gateway takes while a worker still holds the previous snapshot.
    #[test]
    fn shared_phase_split_matches_each_decimators_own_split(
        d in prop_oneof![Just(1usize), Just(2), Just(3), Just(4), Just(6), Just(8)],
        tap_counts in proptest::collection::vec(prop_oneof![1usize..8, 8usize..129], 1..5),
        sizes in proptest::collection::vec(
            prop_oneof![Just(0usize), Just(1), 2usize..40, 40usize..700],
            1..8,
        ).prop_filter("at least one non-empty chunk size", |s| s.iter().any(|&n| n > 0)),
    ) {
        let input = iq_input(3_000);
        let mut own: Vec<PolyphaseDecimator> = tap_counts
            .iter()
            .enumerate()
            .map(|(k, &l)| {
                let taps = (0..l)
                    .map(|i| Iq::from_polar(0.5 / (1.0 + i as f64 * 0.3), 0.2 * i as f64 + k as f64))
                    .collect();
                PolyphaseDecimator::new(taps, d)
            })
            .collect();
        let mut shared = own.clone();
        let history = shared.iter().map(PolyphaseDecimator::split_history).max().unwrap();
        let mut split = PhaseSplit::new(d, history);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let mut offset = 0usize;
        let mut i = 0usize;
        while offset < input.len() {
            let end = (offset + sizes[i % sizes.len()]).min(input.len());
            let chunk = &input[offset..end];
            if i % 3 == 2 {
                split = split.clone();
            }
            split.push(chunk);
            for (a, b) in own.iter_mut().zip(&mut shared) {
                a.filter_chunk_into(chunk, &mut want);
                b.filter_split_into(&split, &mut got);
                prop_assert_eq!(iq_bits(&got), iq_bits(&want), "D={} taps={} at {}", d, a.n_taps(), offset);
            }
            offset = end;
            i += 1;
        }
    }
}
