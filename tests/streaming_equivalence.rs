//! Streaming-vs-batch equivalence: the streaming demodulator's output is a
//! function of the sample stream alone, never of how the stream is chunked.
//!
//! "Batch" here is the whole-buffer run of the same pipeline (the trace
//! pushed as a single chunk) — the reference every chunked run must equal
//! *bit-exactly*, including floating-point times, peak positions, correlation
//! scores, and thresholds. A deterministic test pins the acceptance-criteria
//! chunk sizes {1, 7, 64, 4096, whole-buffer}; a property test then fuzzes
//! random chunk partitions, payloads, and SF/BW/variant configurations.

use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use netsim::longtrace::{generate_long_trace, random_payloads, LongTraceConfig, TracePacket};
use proptest::prelude::*;
use saiyan::config::{SaiyanConfig, Variant};
use saiyan::streaming::DemodResult;
use saiyan::StreamingDemodulator;

fn run_chunked(
    cfg: &SaiyanConfig,
    payload_symbols: usize,
    trace: &lora_phy::SampleBuffer,
    chunk_sizes: &[usize],
) -> Vec<DemodResult> {
    let mut demod = StreamingDemodulator::new(cfg.clone(), payload_symbols);
    let mut results = Vec::new();
    let mut offset = 0usize;
    let mut i = 0usize;
    while offset < trace.len() {
        let size = chunk_sizes[i % chunk_sizes.len()].max(1);
        let end = (offset + size).min(trace.len());
        results.extend(demod.push_samples(&trace.samples[offset..end]));
        offset = end;
        i += 1;
    }
    results.extend(demod.finish());
    results
}

#[test]
fn acceptance_chunk_sizes_are_bit_identical() {
    let lora = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    );
    let payloads = random_payloads(2, 6, lora.bits_per_chirp, 0xACCE);
    let packets = vec![
        TracePacket::new(payloads[0].clone(), -50.0, 3.0),
        TracePacket::new(payloads[1].clone(), -52.0, 16.0),
    ];
    let (trace, truth) =
        generate_long_trace(&LongTraceConfig::new(lora).with_noise(-80.0), &packets);
    for variant in Variant::ALL {
        let cfg = SaiyanConfig::paper_default(lora, variant);
        let whole = StreamingDemodulator::new(cfg.clone(), 6).run_to_end(&trace);
        // The reference run must actually decode both packets — equality of
        // empty outputs would be a vacuous pass.
        assert_eq!(whole.len(), truth.len(), "variant {variant:?} decoded");
        for (r, t) in whole.iter().zip(&truth) {
            assert_eq!(r.symbols, t.symbols, "variant {variant:?} symbols");
        }
        for chunk_size in [1usize, 7, 64, 4096] {
            let chunked = run_chunked(&cfg, 6, &trace, &[chunk_size]);
            assert_eq!(
                chunked, whole,
                "variant {variant:?}, chunk size {chunk_size}"
            );
        }
    }
}

fn spreading_factor() -> impl Strategy<Value = SpreadingFactor> {
    prop_oneof![Just(SpreadingFactor::Sf7), Just(SpreadingFactor::Sf8)]
}

fn bandwidth() -> impl Strategy<Value = Bandwidth> {
    prop_oneof![Just(Bandwidth::Khz250), Just(Bandwidth::Khz500)]
}

fn variant() -> impl Strategy<Value = Variant> {
    prop_oneof![
        Just(Variant::Vanilla),
        Just(Variant::WithShifting),
        Just(Variant::Super),
    ]
}

proptest! {
    // Each case streams a full waveform through the receive chain three
    // times; keep the corpus small enough for debug-mode CI.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn streaming_equals_batch_for_random_chunkings(
        sf in spreading_factor(),
        bw in bandwidth(),
        k in 1u8..=3,
        variant in variant(),
        payload_seed in any::<u32>(),
        n_symbols in 4usize..=8,
        // A cycle of chunk sizes covering the pathological cases: single
        // samples, primes, and larger-than-packet blocks.
        chunk_cycle in proptest::collection::vec(
            prop_oneof![Just(1usize), Just(7), Just(131), Just(997), Just(8192)],
            1..4,
        ),
        rx_power in -55.0f64..-45.0,
    ) {
        let k = BitsPerChirp::new(k).unwrap();
        let lora = LoraParams::new(sf, bw, k);
        let payload = random_payloads(1, n_symbols, k, payload_seed as u64)
            .pop()
            .unwrap();
        let packets = vec![TracePacket::new(payload, rx_power, 3.0)];
        let (trace, _) = generate_long_trace(
            &LongTraceConfig::new(lora).with_noise(-82.0),
            &packets,
        );
        let cfg = SaiyanConfig::paper_default(lora, variant);
        let whole = StreamingDemodulator::new(cfg.clone(), n_symbols).run_to_end(&trace);
        let chunked = run_chunked(&cfg, n_symbols, &trace, &chunk_cycle);
        prop_assert_eq!(&chunked, &whole, "chunk cycle {:?}", chunk_cycle);
        // And the degenerate all-singles partition.
        let singles = run_chunked(&cfg, n_symbols, &trace, &[1]);
        prop_assert_eq!(&singles, &whole);
    }
}

#[test]
fn preamble_split_across_a_chunk_boundary_is_not_lost() {
    // Cut the stream exactly in the middle of the preamble: the carried
    // state must bridge the boundary with no packet loss and a bit-identical
    // result.
    let lora = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    );
    let payload = vec![2u32, 0, 3, 1, 1, 3];
    let packets = vec![TracePacket::new(payload.clone(), -50.0, 3.0)];
    let (trace, truth) =
        generate_long_trace(&LongTraceConfig::new(lora).with_noise(-80.0), &packets);
    let cfg = SaiyanConfig::paper_default(lora, Variant::WithShifting);
    let whole = StreamingDemodulator::new(cfg.clone(), payload.len()).run_to_end(&trace);
    assert_eq!(whole.len(), 1);
    assert_eq!(whole[0].symbols, payload);

    // Boundary in the middle of the 10-symbol preamble (5 symbols in).
    let sps = lora.samples_per_symbol();
    let split = truth[0].packet_start_sample + 5 * sps + sps / 3;
    let mut demod = StreamingDemodulator::new(cfg, payload.len());
    let mut results = demod.push_samples(&trace.samples[..split]);
    results.extend(demod.push_samples(&trace.samples[split..]));
    results.extend(demod.finish());
    assert_eq!(results, whole);
}
