//! Integration tests of the waveform-level receive chain's qualitative
//! properties: the correlator's low-SNR advantage.

use lora_phy::modulator::{Alphabet, Modulator};
use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use rfsim::channel::dbm_to_buffer_power;
use rfsim::noise::AwgnSource;
use rfsim::units::Dbm;
use saiyan::metrics::ErrorCounts;
use saiyan::{SaiyanConfig, SaiyanDemodulator, Variant};

fn lora() -> LoraParams {
    LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    )
    .with_oversampling(8)
}

/// Builds a noisy received packet at the given signal and noise powers.
fn noisy_packet(
    symbols: &[u32],
    signal_dbm: f64,
    noise_dbm: f64,
    seed: u64,
) -> (lora_phy::SampleBuffer, usize) {
    let (wave, layout) = Modulator::new(lora())
        .packet_with_guard(symbols, Alphabet::Downlink, 2)
        .unwrap();
    let target = dbm_to_buffer_power(Dbm(signal_dbm));
    let tx_power = wave.mean_power();
    let mut rx = wave.scaled((target / tx_power).sqrt());
    let mut awgn = AwgnSource::new(seed);
    awgn.add_to(&mut rx, dbm_to_buffer_power(Dbm(noise_dbm)));
    (rx, layout.payload_start)
}

#[test]
fn correlation_decoding_beats_peak_decoding_at_low_snr() {
    // At a marginal SNR the correlator (Super Saiyan) should make fewer symbol
    // errors than the comparator-only chain (shifting variant), which is the
    // mechanism behind the Fig. 25 correlation gain.
    let symbols: Vec<u32> = (0..24).map(|i| (i * 7 + 3) % 4).collect();
    let super_demod = SaiyanDemodulator::new(SaiyanConfig::paper_default(lora(), Variant::Super));
    let shifting_demod =
        SaiyanDemodulator::new(SaiyanConfig::paper_default(lora(), Variant::WithShifting));

    let mut super_counts = ErrorCounts::default();
    let mut shifting_counts = ErrorCounts::default();
    for seed in 0..6u64 {
        // -62 dBm signal with -70 dBm noise: only ~8 dB of SNR at the antenna.
        let (rx, payload_start) = noisy_packet(&symbols, -62.0, -70.0, 1000 + seed);
        let s = super_demod
            .demodulate_aligned(&rx, payload_start, symbols.len())
            .unwrap();
        let p = shifting_demod
            .demodulate_aligned(&rx, payload_start, symbols.len())
            .unwrap();
        super_counts.add_packet(&symbols, &s.symbols, 2);
        shifting_counts.add_packet(&symbols, &p.symbols, 2);
    }
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
