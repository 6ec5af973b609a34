//! Criterion benchmarks of the waveform synthesis fast path: template
//! packet assembly, the block AWGN fill vs the per-sample draw loop, and
//! slice-kernel emission mixing vs the per-sample indexed reference.
//!
//! Sizes mirror the `exp_network_scale` 100-tag waveform row: SF7 /
//! 250 kHz / K = 2 packets modulated at the 3 Msps wideband rate
//! (oversampling 12 after the 4-channel grid maths), ~68 K samples per
//! packet, 16 Ki-sample chunks.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lora_phy::iq::Iq;
use lora_phy::modulator::Alphabet;
use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use lora_phy::templates::PacketTemplates;
use netsim::synthesis::EmissionMixer;
use rfsim::noise::AwgnSource;

/// The waveform-path wideband parameter set (3 Msps at SF7 / 250 kHz).
fn wideband_params() -> LoraParams {
    LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz250,
        BitsPerChirp::new(2).unwrap(),
    )
    .with_oversampling(12)
}

fn packet_symbols() -> Vec<u32> {
    (0..44).map(|i| (i * 7) % 4).collect()
}

fn bench_packet_assembly(c: &mut Criterion) {
    let p = wideband_params();
    let symbols = packet_symbols();
    let templates = PacketTemplates::new(p, Alphabet::Downlink);
    let n = templates.packet_samples(symbols.len());
    let scale = 0.003_162;

    c.bench_function("synthesis/assembly/template_cache", |b| {
        b.iter_batched(
            || Vec::with_capacity(n),
            |mut out| {
                templates
                    .assemble_scaled_extend(&symbols, scale, &mut out)
                    .unwrap();
                out
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_block_awgn(c: &mut Criterion) {
    let n = 1 << 20;
    let variance = 3.16e-12;
    c.bench_function("synthesis/awgn/per_sample_add_1M", |b| {
        let mut src = AwgnSource::new(0x5A1A);
        b.iter_batched(
            || vec![Iq::ONE; n],
            |mut buf| {
                for s in buf.iter_mut() {
                    *s += src.sample(variance);
                }
                buf
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function("synthesis/awgn/block_add_1M", |b| {
        let mut src = AwgnSource::new(0x5A1A);
        b.iter_batched(
            || vec![Iq::ONE; n],
            |mut buf| {
                src.add_noise_in_place(&mut buf, variance);
                buf
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_emission_mixing(c: &mut Criterion) {
    let fs = 3.0e6;
    let chunk_len = 16_384usize;
    // Four overlapping emissions (one per channel), ~68 K samples each —
    // the saturated-cell mixing load of the 100-tag row.
    let offsets = [-750e3, -250e3, 250e3, 750e3];
    let emission_len = 68_000usize;
    let make_samples = |salt: f64| -> Vec<Iq> {
        (0..emission_len)
            .map(|i| Iq::phasor(salt + 0.0173 * i as f64).scale(1.6e-5))
            .collect()
    };

    c.bench_function("synthesis/mix/per_sample_phasor_4em_16k", |b| {
        let emissions: Vec<(u64, Vec<Iq>, f64)> = offsets
            .iter()
            .enumerate()
            .map(|(k, off)| {
                (
                    (k * 1000) as u64,
                    make_samples(k as f64),
                    2.0 * std::f64::consts::PI * off / fs,
                )
            })
            .collect();
        let mut chunk = vec![Iq::ZERO; chunk_len];
        b.iter(|| {
            chunk.fill(Iq::ZERO);
            let pos = 4000u64;
            let chunk_end = pos + chunk_len as u64;
            for (start, samples, step) in &emissions {
                let lo = (*start).max(pos);
                let hi = (start + samples.len() as u64).min(chunk_end);
                for i in lo..hi {
                    let s = samples[(i - start) as usize];
                    chunk[(i - pos) as usize] += s * Iq::phasor(step * i as f64);
                }
            }
            chunk[0]
        })
    });
    c.bench_function("synthesis/mix/anchored_kernels_4em_16k", |b| {
        b.iter_batched(
            || {
                let mut mixer = EmissionMixer::new();
                for (k, off) in offsets.iter().enumerate() {
                    mixer.push((k * 1000) as u64, make_samples(k as f64), 217.0, *off, fs);
                }
                (mixer, vec![Iq::ZERO; chunk_len])
            },
            |(mut mixer, mut chunk)| {
                mixer.mix_into(&mut chunk, 4000);
                chunk[0]
            },
            BatchSize::LargeInput,
        )
    });
}

criterion_group!(
    benches,
    bench_packet_assembly,
    bench_block_awgn,
    bench_emission_mixing
);
criterion_main!(benches);
