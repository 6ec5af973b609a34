//! Workspace smoke test: catches manifest/re-export regressions at `cargo
//! test` time rather than `cargo build` time.
//!
//! 1. Every crate must stay reachable through the `saiyan_suite` umbrella
//!    re-exports (so examples and downstream users never need per-crate
//!    dependencies).
//! 2. One end-to-end downlink round-trip must decode: synthesize a short
//!    packet, push it through the Saiyan receiver at a strong RSS, and get
//!    the same symbols back.

use saiyan_suite::lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use saiyan_suite::netsim::longtrace::{generate_long_trace, LongTraceConfig, TracePacket};
use saiyan_suite::saiyan::{SaiyanConfig, StreamingDemodulator, Variant};

#[test]
fn umbrella_reexports_resolve() {
    // Touch one public item per re-exported crate; failures here are compile
    // errors, which is the point — the test pins the umbrella surface.
    let params = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    );
    let _ = saiyan_suite::lora_phy::ChirpGenerator::new(params);
    let _ = saiyan_suite::rfsim::units::Dbm(-60.0);
    let _ = saiyan_suite::analog::saw::SawFilter::paper_b3790();
    let _ = saiyan_suite::saiyan::SaiyanConfig::paper_default(params, Variant::Super);
    let _ = saiyan_suite::baselines::EnvelopeReceiver::new(params);
    let _ = saiyan_suite::saiyan_mac::ChannelTable::paper_433mhz();
    let _ =
        saiyan_suite::netsim::Scenario::outdoor_default(saiyan_suite::rfsim::units::Meters(50.0));
}

#[test]
fn end_to_end_downlink_round_trip_decodes() {
    let params = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    )
    .with_oversampling(8);
    let symbols = vec![0u32, 3, 1, 2, 2, 1, 3, 0];

    // A 0 dBm packet between 2-symbol silent guards, no noise.
    let config = LongTraceConfig {
        tail_gap_symbols: 2.0,
        ..LongTraceConfig::new(params)
    };
    let (wave, _) = generate_long_trace(&config, &[TracePacket::new(symbols.clone(), 0.0, 2.0)]);

    let config = SaiyanConfig::paper_default(params, Variant::Super);
    let packets = StreamingDemodulator::new(config, symbols.len()).run_to_end(&wave);

    assert_eq!(packets.len(), 1, "clean capture demodulates");
    assert_eq!(packets[0].symbols, symbols);
}
