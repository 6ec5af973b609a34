//! Integration test: full access-point → channel → Saiyan-tag downlink.

use lora_phy::downlink::bytes_to_symbols;
use lora_phy::modulator::{Alphabet, Modulator};
use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use rfsim::channel::Channel;
use rfsim::link::paper_downlink;
use rfsim::noise::NoiseModel;
use rfsim::pathloss::{Environment, PathLossModel};
use rfsim::units::{Db, Hertz, Meters};
use saiyan::{DemodResult, SaiyanConfig, StreamingDemodulator, Variant};
use saiyan_mac::{Addressing, Command, DownlinkPacket, TagId};

fn lora(k: u8) -> LoraParams {
    LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(k).unwrap(),
    )
    .with_oversampling(8)
}

fn channel_at(distance_m: f64, lora: &LoraParams) -> Channel {
    let pl = PathLossModel::for_environment(Environment::OutdoorLos, Hertz(lora.carrier_hz));
    Channel::new(
        paper_downlink(pl, Meters(distance_m)),
        NoiseModel::new(Db(6.0), Hertz(lora.bw.hz())),
    )
}

/// The tag's receiver run over one capture: the decode whose payload starts
/// within a symbol of `payload_start_sample`, if any.
fn receive(
    lora: LoraParams,
    variant: Variant,
    rx: &lora_phy::SampleBuffer,
    payload_start_sample: usize,
    n_symbols: usize,
) -> Option<DemodResult> {
    let truth = payload_start_sample as f64 / rx.sample_rate;
    StreamingDemodulator::new(SaiyanConfig::paper_default(lora, variant), n_symbols)
        .run_to_end(rx)
        .into_iter()
        .find(|r| (r.payload_start_time - truth).abs() < lora.symbol_duration())
}

/// Modulates a MAC command, sends it through the channel, demodulates it on
/// the tag, and returns the decoded command.
fn round_trip(
    command: DownlinkPacket,
    distance_m: f64,
    variant: Variant,
    k: u8,
    seed: u64,
) -> Option<DownlinkPacket> {
    let lora = lora(k);
    let payload = command.to_bytes();
    let symbols = bytes_to_symbols(&payload, lora.bits_per_chirp);
    let (wave, layout) = Modulator::new(lora)
        .packet_with_guard(&symbols, Alphabet::Downlink, 3)
        .unwrap();
    let channel = channel_at(distance_m, &lora).with_seed(seed);
    let rx = channel.propagate(&wave);
    let result = receive(lora, variant, &rx, layout.payload_start, symbols.len())?;
    DownlinkPacket::from_bytes(&result.to_bytes(lora.bits_per_chirp, payload.len())).ok()
}

#[test]
fn command_round_trip_all_variants() {
    let command = DownlinkPacket {
        addressing: Addressing::Unicast(TagId(11)),
        command: Command::ChannelHop { channel: 3 },
    };
    // 25 m is inside every variant's waveform-level budget; the full design
    // additionally works at 40 m (the vanilla chain's own range is ~40 m,
    // consistent with Fig. 25).
    for variant in [Variant::Vanilla, Variant::WithShifting, Variant::Super] {
        let decoded = round_trip(command, 25.0, variant, 2, 1).expect("decodes at 25 m");
        assert_eq!(decoded, command, "variant {variant:?}");
    }
    let decoded = round_trip(command, 40.0, Variant::Super, 2, 1).expect("decodes at 40 m");
    assert_eq!(decoded, command);
}

#[test]
fn command_round_trip_at_higher_rate_close_in() {
    let command = DownlinkPacket {
        addressing: Addressing::Broadcast,
        command: Command::SensorControl {
            sensor: 1,
            enable: false,
        },
    };
    let decoded = round_trip(command, 15.0, Variant::Super, 4, 2).expect("decodes at 15 m");
    assert_eq!(decoded, command);
}

#[test]
fn blind_demodulation_recovers_timing_and_payload() {
    let lora = lora(2);
    let payload = vec![0xDE, 0xAD, 0xBE, 0xEF];
    let symbols = bytes_to_symbols(&payload, lora.bits_per_chirp);
    let (wave, layout) = Modulator::new(lora)
        .packet_with_guard(&symbols, Alphabet::Downlink, 5)
        .unwrap();
    let rx = channel_at(30.0, &lora).with_seed(3).propagate(&wave);
    let result = receive(
        lora,
        Variant::WithShifting,
        &rx,
        layout.payload_start,
        symbols.len(),
    )
    .expect("preamble found");
    assert!(result.preamble_peaks >= 5);
    assert_eq!(result.to_bytes(lora.bits_per_chirp, payload.len()), payload);
}

#[test]
fn the_standard_receiver_and_saiyan_agree_on_clean_packets() {
    // The access-point-grade dechirp+FFT receiver and the Saiyan tag receive
    // chain must decode the same clean packet identically.
    let lora = lora(2);
    let symbols = vec![0u32, 1, 2, 3, 2, 1, 0, 3, 1, 2];
    let (wave, layout) = Modulator::new(lora)
        .packet_with_guard(&symbols, Alphabet::Downlink, 2)
        .unwrap();
    let rx = channel_at(10.0, &lora).with_seed(4).propagate(&wave);

    let standard = lora_phy::StandardDemodulator::new(lora);
    let standard_result = standard
        .demodulate_payload(&rx, layout.payload_start, symbols.len(), Alphabet::Downlink)
        .unwrap();
    let saiyan_result = receive(
        lora,
        Variant::Super,
        &rx,
        layout.payload_start,
        symbols.len(),
    )
    .expect("Saiyan detects the packet");

    assert_eq!(standard_result.symbols, symbols);
    assert_eq!(saiyan_result.symbols, symbols);
}

#[test]
fn demodulation_fails_gracefully_far_beyond_range() {
    let lora = lora(2);
    let symbols = bytes_to_symbols(&[0x42], lora.bits_per_chirp);
    let (wave, _) = Modulator::new(lora)
        .packet_with_guard(&symbols, Alphabet::Downlink, 3)
        .unwrap();
    // 2 km is far outside any configuration's range: the packet should either
    // fail preamble detection or decode incorrectly — but never panic.
    let rx = channel_at(2000.0, &lora).with_seed(5).propagate(&wave);
    let demod = StreamingDemodulator::new(
        SaiyanConfig::paper_default(lora, Variant::Super),
        symbols.len(),
    );
    for result in demod.run_to_end(&rx) {
        // If something was "decoded", it must at least have the right length.
        assert_eq!(result.symbols.len(), symbols.len());
    }
}
