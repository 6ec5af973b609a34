//! Criterion benchmarks of the baseline packet detectors (PLoRa, Aloba,
//! conventional envelope receiver) against the Saiyan detector.

use baselines::{AlobaDetector, EnvelopeReceiver, PLoRaDetector, PacketDetector};
use criterion::{criterion_group, criterion_main, Criterion};
use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use netsim::longtrace::{generate_long_trace, LongTraceConfig, TracePacket};

fn capture() -> (lora_phy::SampleBuffer, LoraParams) {
    let params = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    );
    // A -60 dBm packet between 8-symbol silent guards over -110 dBm AWGN.
    let config = LongTraceConfig {
        seed: 9,
        tail_gap_symbols: 8.0,
        ..LongTraceConfig::new(params).with_noise(-110.0)
    };
    let packet = TracePacket::new(vec![0, 1, 2, 3], -60.0, 8.0);
    let (rx, _) = generate_long_trace(&config, &[packet]);
    (rx, params)
}

fn bench_detectors(c: &mut Criterion) {
    let (rx, params) = capture();
    let plora = PLoRaDetector::new(params);
    let aloba = AlobaDetector::new(params);
    let envelope = EnvelopeReceiver::new(params);
    c.bench_function("detect/plora_cross_correlation", |b| {
        b.iter(|| plora.detect(&rx))
    });
    c.bench_function("detect/aloba_rssi_pattern", |b| {
        b.iter(|| aloba.detect(&rx))
    });
    c.bench_function("detect/conventional_envelope", |b| {
        b.iter(|| envelope.detect(&rx))
    });
}

criterion_group!(benches, bench_detectors);
criterion_main!(benches);
