//! Criterion benchmarks of the LoRa PHY kernels: chirp generation and FFT
//! demodulation.

use criterion::{criterion_group, criterion_main, Criterion};
use lora_phy::modulator::Alphabet;
use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use lora_phy::templates::PacketTemplates;
use lora_phy::SampleBuffer;
use lora_phy::{ChirpGenerator, StandardDemodulator};

fn params() -> LoraParams {
    LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    )
}

fn bench_chirp_generation(c: &mut Criterion) {
    let gen = ChirpGenerator::new(params());
    c.bench_function("chirp/base_upchirp_sf7_bw500", |b| {
        b.iter(|| gen.base_upchirp())
    });
    c.bench_function("chirp/downlink_symbol", |b| {
        b.iter(|| gen.downlink_chirp(3).unwrap())
    });
}

fn bench_standard_demodulation(c: &mut Criterion) {
    let p = params();
    let d = StandardDemodulator::new(p);
    let symbols: Vec<u32> = (0..32).map(|i| i % 4).collect();
    let mut samples = Vec::new();
    let layout = PacketTemplates::new(p, Alphabet::Downlink)
        .assemble_scaled_extend(&symbols, 1.0, &mut samples)
        .unwrap();
    let wave = SampleBuffer::new(samples, p.sample_rate());
    c.bench_function("standard_demod/payload_32_symbols", |b| {
        b.iter(|| {
            d.demodulate_payload(&wave, layout.payload_start, 32, Alphabet::Downlink)
                .unwrap()
        })
    });
    c.bench_function("standard_demod/preamble_detection", |b| {
        b.iter(|| d.detect_preamble(&wave).unwrap())
    });
}

criterion_group!(benches, bench_chirp_generation, bench_standard_demodulation);
criterion_main!(benches);
