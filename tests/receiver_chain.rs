//! Integration tests of the waveform-level receive chain's qualitative
//! properties: the correlator's low-SNR advantage.

use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use netsim::longtrace::{generate_long_trace, LongTraceConfig, TracePacket};
use saiyan::metrics::ErrorCounts;
use saiyan::{SaiyanConfig, StreamingDemodulator, Variant};

fn lora() -> LoraParams {
    LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    )
    .with_oversampling(8)
}

/// Builds a noisy received packet at the given signal and noise powers
/// (between 2-symbol silent guards), and returns it with its payload start
/// time.
fn noisy_packet(
    symbols: &[u32],
    signal_dbm: f64,
    noise_dbm: f64,
    seed: u64,
) -> (lora_phy::SampleBuffer, f64) {
    let config = LongTraceConfig {
        seed,
        tail_gap_symbols: 2.0,
        ..LongTraceConfig::new(lora()).with_noise(noise_dbm)
    };
    let packet = TracePacket::new(symbols.to_vec(), signal_dbm, 2.0);
    let (rx, truth) = generate_long_trace(&config, &[packet]);
    let payload_start = truth[0].payload_start_sample as f64 / rx.sample_rate;
    (rx, payload_start)
}

/// Decodes one capture with a fresh receiver of `variant` and tallies it:
/// the decode within a symbol of the true payload start, or a lost packet.
fn tally(
    counts: &mut ErrorCounts,
    variant: Variant,
    rx: &lora_phy::SampleBuffer,
    payload_start: f64,
    symbols: &[u32],
) {
    let t_sym = lora().symbol_duration();
    let decoded =
        StreamingDemodulator::new(SaiyanConfig::paper_default(lora(), variant), symbols.len())
            .run_to_end(rx)
            .into_iter()
            .find(|r| (r.payload_start_time - payload_start).abs() < t_sym);
    match decoded {
        Some(result) => counts.add_packet(symbols, &result.symbols, 2),
        None => counts.add_lost_packet(symbols.len(), 2),
    }
}

#[test]
fn correlation_decoding_beats_peak_decoding_at_low_snr() {
    // At a marginal SNR the correlator (Super Saiyan) should make fewer symbol
    // errors than the comparator-only chain (shifting variant), which is the
    // mechanism behind the Fig. 25 correlation gain.
    let symbols: Vec<u32> = (0..24).map(|i| (i * 7 + 3) % 4).collect();

    let mut super_counts = ErrorCounts::default();
    let mut shifting_counts = ErrorCounts::default();
    for seed in 0..6u64 {
        // -62 dBm signal with -70 dBm noise: only ~8 dB of SNR at the antenna.
        let (rx, payload_start) = noisy_packet(&symbols, -62.0, -70.0, 1000 + seed);
        tally(
            &mut super_counts,
            Variant::Super,
            &rx,
            payload_start,
            &symbols,
        );
        tally(
            &mut shifting_counts,
            Variant::WithShifting,
            &rx,
            payload_start,
            &symbols,
        );
    }
    // Both chains find every packet's preamble at this SNR.
    assert_eq!(super_counts.packets_lost, 0);
    assert_eq!(shifting_counts.packets_lost, 0);
    assert!(
        super_counts.ser() <= shifting_counts.ser(),
        "correlator SER {} vs peak-decoder SER {}",
        super_counts.ser(),
        shifting_counts.ser()
    );
    // And the correlator should still be mostly correct at this operating point.
    assert!(
        super_counts.ser() < 0.25,
        "correlator SER {}",
        super_counts.ser()
    );
}
