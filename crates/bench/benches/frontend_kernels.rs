//! Criterion benchmarks of the analog front-end models: SAW transformation,
//! envelope detection, the cyclic-frequency-shifting chain, and the
//! comparator.

use analog::comparator::DoubleThresholdComparator;
use analog::envelope::EnvelopeDetector;
use analog::saw::SawFilter;
use analog::shifting::{CyclicFrequencyShifter, ShiftingConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use lora_phy::ChirpGenerator;
use rfsim::units::Hertz;
use saiyan::Frontend;

fn chirp() -> (lora_phy::SampleBuffer, LoraParams) {
    let params = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    )
    .with_oversampling(8);
    (ChirpGenerator::new(params).base_upchirp(), params)
}

fn bench_saw(c: &mut Criterion) {
    let (chirp, params) = chirp();
    let saw = SawFilter::paper_b3790();
    c.bench_function("saw/apply_one_symbol", |b| {
        b.iter(|| {
            saw.apply(
                &chirp,
                Hertz(params.carrier_hz),
                Frontend::STREAMING_SAW_TAPS,
            )
        })
    });
    c.bench_function("saw/gain_lookup", |b| {
        b.iter(|| saw.gain_at(Hertz::from_mhz(433.75)))
    });
}

fn bench_envelope_and_shifting(c: &mut Criterion) {
    let (chirp, params) = chirp();
    let saw = SawFilter::paper_b3790();
    let transformed = saw.apply(
        &chirp,
        Hertz(params.carrier_hz),
        Frontend::STREAMING_SAW_TAPS,
    );
    let detector = EnvelopeDetector::default();
    c.bench_function("envelope/detect_one_symbol", |b| {
        b.iter(|| detector.detect(&transformed))
    });
    let shifter = CyclicFrequencyShifter::new(
        ShiftingConfig::for_bandwidth(params.bw.hz()),
        EnvelopeDetector::default(),
    );
    c.bench_function("shifting/full_chain_one_symbol", |b| {
        b.iter(|| shifter.process(&transformed))
    });
}

fn bench_comparator(c: &mut Criterion) {
    let (chirp, params) = chirp();
    let saw = SawFilter::paper_b3790();
    let envelope = EnvelopeDetector::ideal().detect(&saw.apply(
        &chirp,
        Hertz(params.carrier_hz),
        Frontend::STREAMING_SAW_TAPS,
    ));
    let peak = envelope.max();
    let cmp = DoubleThresholdComparator::new(peak * 0.7, peak * 0.3);
    c.bench_function("comparator/double_threshold_one_symbol", |b| {
        b.iter(|| cmp.compare(&envelope))
    });
}

criterion_group!(
    benches,
    bench_saw,
    bench_envelope_and_shifting,
    bench_comparator
);
criterion_main!(benches);
