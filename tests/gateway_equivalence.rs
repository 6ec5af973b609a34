//! Gateway determinism properties: an `N = 1` passthrough gateway is
//! bit-identical to the plain streaming receiver, every channel of a
//! multi-channel gateway (shared phase splits, passthrough included) decodes
//! exactly what a standalone channelizer + demodulator does, and the merged
//! multi-channel packet sequence is identical whatever the worker-thread
//! count or chunk sizes (only the batching across `push_chunk` calls may
//! vary).

use analog::channelizer::ChannelizerSpec;
use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use netsim::longtrace::{generate_long_trace, random_payloads, LongTraceConfig, TracePacket};
use netsim::multichannel::{
    generate_multichannel_trace, hopping_traffic, HoppingTrafficConfig, MultiChannelConfig,
};
use proptest::prelude::*;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use saiyan::config::{SaiyanConfig, Variant};
use saiyan::gateway::{Gateway, GatewayChannel, GatewayConfig, GatewayPacket};
use saiyan::{DemodResult, StreamingDemodulator};

const PAYLOAD_SYMBOLS: usize = 8;

fn lora500() -> LoraParams {
    LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    )
}

/// A three-packet single-channel trace at the paper's default operating point.
fn single_channel_trace() -> lora_phy::iq::SampleBuffer {
    let payloads = random_payloads(3, PAYLOAD_SYMBOLS, lora500().bits_per_chirp, 0xE0);
    let packets: Vec<TracePacket> = payloads
        .into_iter()
        .enumerate()
        .map(|(i, p)| TracePacket::new(p, -50.0 - i as f64, if i == 0 { 4.0 } else { 15.0 }))
        .collect();
    generate_long_trace(&LongTraceConfig::new(lora500()).with_noise(-82.0), &packets).0
}

#[test]
fn n1_gateway_is_bit_identical_to_streaming_demodulator() {
    let trace = single_channel_trace();
    for variant in Variant::ALL {
        let cfg = SaiyanConfig::paper_default(lora500(), variant);
        let reference = StreamingDemodulator::new(cfg.clone(), PAYLOAD_SYMBOLS).run_to_end(&trace);
        assert_eq!(reference.len(), 3, "variant {variant:?}");
        for chunk_size in [997usize, 4096, trace.len()] {
            let packets = Gateway::run_trace(
                GatewayConfig::single_channel(cfg.clone(), PAYLOAD_SYMBOLS),
                &trace,
                chunk_size,
            );
            let results: Vec<_> = packets.iter().map(|p| p.result.clone()).collect();
            assert_eq!(
                results, reference,
                "variant {variant:?} chunk size {chunk_size}"
            );
        }
    }
}

#[test]
fn n1_gateway_streams_packets_before_finish() {
    // The watermark merge must release settled packets mid-stream, not hold
    // everything until the flush.
    let trace = single_channel_trace();
    let cfg = SaiyanConfig::paper_default(lora500(), Variant::Vanilla);
    let mut gateway = Gateway::new(GatewayConfig::single_channel(cfg, PAYLOAD_SYMBOLS));
    let mut streamed = 0usize;
    for chunk in trace.samples.chunks(4096) {
        streamed += gateway.push_chunk(chunk).len();
    }
    let trailing = gateway.finish();
    assert!(
        streamed >= 2,
        "only {streamed} of 3 packets released before finish"
    );
    assert_eq!(streamed + trailing.len(), 3);
}

/// The 4-channel workload of `tests/gateway_multichannel.rs`, kept small.
fn four_channel_setup() -> (MultiChannelConfig, Vec<GatewayChannel>) {
    let lora = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz250,
        BitsPerChirp::new(2).unwrap(),
    )
    .with_oversampling(2);
    let offsets = MultiChannelConfig::grid_offsets(4);
    let trace_cfg = MultiChannelConfig::new(lora, 6, offsets.clone()).with_noise(-85.0);
    let channels = offsets
        .iter()
        .enumerate()
        .map(|(i, &offset)| {
            GatewayChannel::new(
                i as u8,
                offset,
                SaiyanConfig::narrowband_streaming(lora, Variant::Vanilla),
                PAYLOAD_SYMBOLS,
            )
        })
        .collect();
    (trace_cfg, channels)
}

#[test]
fn merged_ordering_is_deterministic_across_worker_counts_and_chunkings() {
    let (trace_cfg, channels) = four_channel_setup();
    let packets = hopping_traffic(&HoppingTrafficConfig {
        n_tags: 4,
        packets_per_tag: 2,
        n_channels: 4,
        payload_symbols: PAYLOAD_SYMBOLS,
        k: trace_cfg.lora.bits_per_chirp,
        slot_symbols: PAYLOAD_SYMBOLS as f64 + 20.0,
        lead_in_symbols: 4.0,
        base_power_dbm: -43.0,
        power_spread_db: 1.5,
        max_cfo_hz: 500.0,
        seed: 0xDE7,
    });
    let (trace, truth) = generate_multichannel_trace(&trace_cfg, &packets);

    let run = |workers: usize, chunking_seed: Option<u64>| -> Vec<GatewayPacket> {
        let config = GatewayConfig::new(trace_cfg.wideband_rate(), channels.clone())
            .with_worker_threads(workers);
        let mut gateway = Gateway::new(config);
        let mut out = Vec::new();
        match chunking_seed {
            None => {
                for chunk in trace.samples.chunks(8192) {
                    out.extend(gateway.push_chunk(chunk));
                }
            }
            Some(seed) => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut rest = &trace.samples[..];
                while !rest.is_empty() {
                    let n = rng.gen_range(1..20_000usize).min(rest.len());
                    out.extend(gateway.push_chunk(&rest[..n]));
                    rest = &rest[n..];
                }
            }
        }
        out.extend(gateway.finish());
        out
    };

    let reference = run(0, None); // one worker per channel
    assert_eq!(reference.len(), truth.len(), "all packets decode");
    for pair in reference.windows(2) {
        assert!(pair[0].result.payload_start_time <= pair[1].result.payload_start_time);
    }
    for workers in [1usize, 2, 3] {
        assert_eq!(run(workers, None), reference, "workers {workers}");
    }
    // Random chunk sizes with 2 workers: same merged sequence.
    assert_eq!(run(2, Some(0x77)), reference, "random chunking");
}

#[test]
fn every_gateway_channel_matches_its_standalone_pipeline() {
    // Channels at two decimations (D = 6 and D = 3, two channels each, so
    // each phase split has two readers) plus a passthrough (D = 1) over a
    // 3 Msps capture of three hopping channels.
    let lora = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz250,
        BitsPerChirp::new(2).unwrap(),
    );
    let offsets = MultiChannelConfig::grid_offsets(3);
    let trace_cfg =
        MultiChannelConfig::new(lora.with_oversampling(2), 6, offsets.clone()).with_noise(-85.0);
    let packets = hopping_traffic(&HoppingTrafficConfig {
        n_tags: 3,
        packets_per_tag: 2,
        n_channels: 3,
        payload_symbols: PAYLOAD_SYMBOLS,
        k: lora.bits_per_chirp,
        slot_symbols: PAYLOAD_SYMBOLS as f64 + 20.0,
        lead_in_symbols: 4.0,
        base_power_dbm: -43.0,
        power_spread_db: 1.5,
        max_cfo_hz: 500.0,
        seed: 0x5917,
    });
    let (trace, _) = generate_multichannel_trace(&trace_cfg, &packets);
    let fs = trace_cfg.wideband_rate();
    // (id, offset, oversampling): the decimation is 12 / oversampling.
    let plan = [
        (0u8, offsets[0], 2u32),
        (1, offsets[1], 4),
        (2, offsets[2], 2),
        (3, offsets[2], 4),
        (4, 0.0, 12),
    ];
    let channels: Vec<GatewayChannel> = plan
        .iter()
        .map(|&(id, offset, oversampling)| {
            let cfg = SaiyanConfig::narrowband_streaming(
                lora.with_oversampling(oversampling),
                Variant::Vanilla,
            );
            GatewayChannel::new(id, offset, cfg, PAYLOAD_SYMBOLS)
        })
        .collect();

    // The reference: each channel's own channelizer and demodulator.
    let standalone = |ch: &GatewayChannel| -> Vec<DemodResult> {
        let d = (fs / ch.config.lora.sample_rate()).round() as usize;
        let spec = if ch.offset_hz == 0.0 && d == 1 {
            ChannelizerSpec::passthrough()
        } else {
            ChannelizerSpec::for_channel(ch.offset_hz, ch.config.lora.bw.hz(), d)
                .with_fast_phasor(ch.config.fast_oscillator)
        };
        let mut channelizer = spec.streaming(fs);
        let mut demod = StreamingDemodulator::new(ch.config.clone(), ch.payload_symbols);
        let mut baseband = Vec::new();
        let mut out = Vec::new();
        for chunk in trace.samples.chunks(4096) {
            channelizer.process_chunk_into(chunk, &mut baseband);
            out.extend(demod.push_samples(&baseband));
        }
        out.extend(demod.finish());
        out
    };
    let references: Vec<Vec<DemodResult>> = channels.iter().map(standalone).collect();
    for (ch, reference) in channels.iter().zip(&references).take(4) {
        assert!(!reference.is_empty(), "channel {} decodes nothing", ch.id);
    }

    for workers in [1usize, 2, 0] {
        for lockstep in [false, true] {
            let config = GatewayConfig::new(fs, channels.clone())
                .with_worker_threads(workers)
                .with_lockstep(lockstep);
            let merged = Gateway::run_trace(config, &trace, 4096);
            for (ch, reference) in channels.iter().zip(&references) {
                let got: Vec<DemodResult> = merged
                    .iter()
                    .filter(|p| p.channel == ch.id)
                    .map(|p| p.result.clone())
                    .collect();
                assert_eq!(
                    &got, reference,
                    "channel {} workers {workers} lockstep {lockstep}",
                    ch.id
                );
            }
        }
    }
}

proptest! {
    // Each case streams the full single-channel trace through a gateway;
    // keep the corpus small enough for debug-mode CI (the multi-channel
    // analogue above covers worker-count determinism deterministically).
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The gateway analogue of `streaming_equivalence`'s chunking proptest:
    /// whatever cycle of chunk sizes feeds `push_chunk` — single samples,
    /// primes, blocks longer than a packet, empty chunks interleaved — the
    /// decoded packet sequence is bit-identical to a whole-buffer run.
    #[test]
    fn gateway_output_is_invariant_under_random_chunkings(
        variant in prop_oneof![
            Just(Variant::Vanilla),
            Just(Variant::WithShifting),
            Just(Variant::Super),
        ],
        // Sizes start at 7: a cycle of 1-sample chunks would funnel ~100k
        // worker-queue round trips through the gateway per case, which is
        // prohibitive in debug-mode CI (the plain streaming proptest covers
        // the 1-sample case without threads).
        chunk_cycle in proptest::collection::vec(
            prop_oneof![Just(0usize), Just(7), Just(131), Just(997), Just(8192)],
            1..4,
        ).prop_filter("needs a non-empty chunk size", |c| c.iter().any(|&s| s > 0)),
    ) {
        let trace = single_channel_trace();
        let cfg = SaiyanConfig::paper_default(lora500(), variant);
        let whole = Gateway::run_trace(
            GatewayConfig::single_channel(cfg.clone(), PAYLOAD_SYMBOLS),
            &trace,
            trace.len(),
        );
        prop_assert_eq!(whole.len(), 3, "whole-buffer run decodes all packets");
        let mut gateway =
            Gateway::new(GatewayConfig::single_channel(cfg, PAYLOAD_SYMBOLS));
        let mut out = Vec::new();
        let mut offset = 0usize;
        let mut i = 0usize;
        while offset < trace.len() {
            let size = chunk_cycle[i % chunk_cycle.len()];
            let end = (offset + size).min(trace.len());
            out.extend(gateway.push_chunk(&trace.samples[offset..end]));
            offset = end;
            i += 1;
        }
        out.extend(gateway.finish());
        prop_assert_eq!(&out, &whole, "chunk cycle {:?}", chunk_cycle);
    }
}
