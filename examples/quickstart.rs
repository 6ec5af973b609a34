//! Quickstart: synthesize a downlink command at the RSS a Saiyan tag 40 m
//! from the access point receives, add the tag's thermal noise, and
//! demodulate it on the tag.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! The round trip at the heart of this example is also a compile-checked
//! doctest on `saiyan::DemodResult`, so the API it shows cannot drift.

use lora_phy::downlink::{bytes_to_symbols, symbols_for_bytes};
use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use netsim::longtrace::{generate_long_trace, LongTraceConfig, TracePacket};
use rfsim::link::paper_downlink;
use rfsim::noise::NoiseModel;
use rfsim::pathloss::{Environment, PathLossModel};
use rfsim::units::{Db, Hertz, Meters};
use saiyan::{SaiyanConfig, StreamingDemodulator, Variant};
use saiyan_mac::{Addressing, Command, DownlinkPacket, TagId};

fn main() {
    // 1. The PHY configuration used throughout the paper's evaluation:
    //    SF7, 500 kHz, K = 2 bits per chirp, 433.5 MHz.
    let lora = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).expect("valid K"),
    )
    .with_oversampling(8);

    // 2. The access point wants tag #7 to retransmit packet 42.
    let command = DownlinkPacket {
        addressing: Addressing::Unicast(TagId(7)),
        command: Command::Retransmit { sequence: 42 },
    };
    let payload = command.to_bytes();
    let symbols = bytes_to_symbols(&payload, lora.bits_per_chirp);
    println!(
        "Downlink command: {:?} -> {} bytes -> {} chirp symbols",
        command.command,
        payload.len(),
        symbols_for_bytes(payload.len(), lora.bits_per_chirp)
    );

    // 3. Send it over a 40 m outdoor link: the packet arrives at the link
    //    budget's RSS (its mean power) between 4-symbol silent guards, over
    //    the tag's thermal noise. (The waveform-level receive chain
    //    demonstrates the mechanism at comfortable signal levels; the
    //    calibrated link-abstraction model in `netsim` covers the full
    //    148.6 m evaluation range — see the README's "Headline results".)
    let path_loss = PathLossModel::for_environment(Environment::OutdoorLos, Hertz(lora.carrier_hz));
    let rss = paper_downlink(path_loss, Meters(40.0)).received_power();
    let noise = NoiseModel::new(Db(6.0), Hertz(lora.bw.hz()));
    println!(
        "Link: 40 m outdoors, RSS {} (sensitivity {} dBm), SNR {}",
        rss,
        saiyan::SUPER_SAIYAN_SENSITIVITY_DBM,
        noise.snr(rss)
    );
    let config = LongTraceConfig {
        tail_gap_symbols: 4.0,
        ..LongTraceConfig::new(lora).with_noise(noise.noise_power().value())
    };
    let packet = TracePacket::new(symbols.clone(), rss.value(), 4.0);
    let (rx, _) = generate_long_trace(&config, &[packet]);

    // 4. The tag finds the packet's preamble and demodulates it with the
    //    full (Super Saiyan) receive chain.
    let config = SaiyanConfig::paper_default(lora, Variant::Super);
    let packets = StreamingDemodulator::new(config, symbols.len()).run_to_end(&rx);
    let result = packets.first().expect("the tag detects the packet at 40 m");
    println!(
        "Detected a packet with {} preamble peaks",
        result.preamble_peaks
    );
    let decoded_bytes = result.to_bytes(lora.bits_per_chirp, payload.len());
    let decoded = DownlinkPacket::from_bytes(&decoded_bytes).expect("valid packet");

    println!("Decoded command: {:?}", decoded.command);
    assert_eq!(decoded, command);
    println!("Round trip OK: the tag knows it must retransmit packet 42.");
}
