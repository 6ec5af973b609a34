//! Multi-packet end-to-end test: N packets with inter-packet gaps and
//! per-packet receive powers (hence per-packet SNR) through the netsim
//! long-trace generator, decoded by the streaming receiver from the
//! continuous stream, every one of them bit-exactly.

use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use netsim::longtrace::{generate_long_trace, random_payloads, LongTraceConfig, TracePacket};
use saiyan::config::{SaiyanConfig, Variant};
use saiyan::StreamingDemodulator;

const PAYLOAD_SYMBOLS: usize = 8;
const NOISE_DBM: f64 = -78.0;

fn lora() -> LoraParams {
    LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    )
}

/// Six packets: gaps of 14–20 symbols, powers −48 to −56 dBm (SNR sweep of
/// 8 dB against the fixed noise floor), and a small CFO on two of them.
fn packets() -> Vec<TracePacket> {
    let payloads = random_payloads(6, PAYLOAD_SYMBOLS, lora().bits_per_chirp, 0x6E2E);
    payloads
        .into_iter()
        .enumerate()
        .map(|(i, symbols)| {
            let mut p = TracePacket::new(
                symbols,
                -48.0 - 1.6 * i as f64,
                if i == 0 {
                    4.0
                } else {
                    14.0 + 2.0 * (i % 4) as f64
                },
            );
            if i % 3 == 1 {
                p.cfo_hz = 1_500.0;
            }
            p
        })
        .collect()
}

#[test]
fn streaming_decodes_every_packet_of_the_stream() {
    let config = LongTraceConfig::new(lora()).with_noise(NOISE_DBM);
    let specs = packets();
    let (trace, truth) = generate_long_trace(&config, &specs);
    let cfg = SaiyanConfig::paper_default(lora(), Variant::Super);

    // One pass over the continuous trace in hardware-sized chunks.
    let mut streaming = StreamingDemodulator::new(cfg, PAYLOAD_SYMBOLS);
    let mut results = Vec::new();
    for chunk in trace.samples.chunks(4096) {
        results.extend(streaming.push_samples(chunk));
    }
    results.extend(streaming.finish());

    for (i, t) in truth.iter().enumerate() {
        let expected_t = t.payload_start_sample as f64 / trace.sample_rate;
        let stream_symbols = results
            .iter()
            .find(|r| (r.payload_start_time - expected_t).abs() < lora().symbol_duration())
            .map(|r| r.symbols.clone());

        // At these SNRs every packet must decode bit-exactly.
        let stream_ok = stream_symbols.as_deref() == Some(&t.symbols[..]);
        assert!(
            stream_ok,
            "packet {i} ({} dBm): streaming decode failed: {stream_symbols:?} vs {:?}",
            t.rx_power_dbm, t.symbols
        );
    }
    assert_eq!(results.len(), truth.len(), "spurious or missing packets");
}

#[test]
fn per_packet_power_is_tracked_across_the_stream() {
    // The decoded thresholds must follow each packet's receive power: the
    // comparator high threshold for the strongest packet must exceed the one
    // used for the weakest by roughly their power ratio.
    let config = LongTraceConfig::new(lora()).with_noise(NOISE_DBM);
    let specs = packets();
    let (trace, truth) = generate_long_trace(&config, &specs);
    // The shifting chain decodes the full 8 dB power sweep (the vanilla
    // detector loses the weakest packet to its own noise, as in the paper).
    let cfg = SaiyanConfig::paper_default(lora(), Variant::WithShifting);
    let results = StreamingDemodulator::new(cfg, PAYLOAD_SYMBOLS).run_to_end(&trace);
    assert_eq!(results.len(), truth.len());
    let first = results.first().expect("decoded").thresholds.high;
    let last = results.last().expect("decoded").thresholds.high;
    // 8 dB of power separation; allow generous slack for tracker dynamics
    // but require a clear monotonic adaptation.
    assert!(
        first > 2.0 * last,
        "thresholds did not adapt: first {first:.3e} vs last {last:.3e}"
    );
}
