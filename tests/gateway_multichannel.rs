//! End-to-end gateway test: a wideband capture carrying concurrent packets
//! from hopping tags on four LoRa channels, channelized and demodulated by
//! `saiyan::Gateway`, with the merged packet stream driving the MAC access
//! point (per-tag bookkeeping and loss-triggered retransmission requests).

use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use netsim::multichannel::{
    generate_multichannel_trace, hopping_traffic, HoppingTrafficConfig, MultiChannelConfig,
    MultiChannelPacket, MultiChannelTruth,
};
use saiyan::config::{SaiyanConfig, Variant};
use saiyan::gateway::{Gateway, GatewayChannel, GatewayConfig, GatewayPacket};
use saiyan_mac::{AccessPoint, ChannelTable, Command, TagId, UplinkPacket};

/// Gateway channels: BW 250 kHz at 2x oversampling (500 ksps per channel)
/// on the paper's 500 kHz grid, so four channels fit in a 3 MHz wideband
/// capture (decimation 6) with 250 kHz guard bands.
///
/// 2x oversampling only supports the vanilla chain — the shifting chain's
/// intermediate frequency Δf = BW needs fs > 2·BW strictly — and it is the
/// cost point that keeps four concurrent channels well above realtime (see
/// perfbench's `gateway-4ch` workload). The narrow-band streaming
/// profile (`SaiyanConfig::narrowband_streaming`) adapts the threshold
/// tracker to the smaller SAW amplitude gap at 250 kHz. The shifting/super
/// variants are exercised through the channelizer at 4x oversampling below.
fn lora() -> LoraParams {
    LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz250,
        BitsPerChirp::new(2).unwrap(),
    )
    .with_oversampling(2)
}

const N_CHANNELS: usize = 4;
const DECIMATION: usize = 6;

fn trace_config() -> MultiChannelConfig {
    MultiChannelConfig::new(
        lora(),
        DECIMATION,
        MultiChannelConfig::grid_offsets(N_CHANNELS),
    )
    .with_noise(-85.0)
}

fn gateway_config(payload_symbols: usize, variant: Variant) -> GatewayConfig {
    let channels = MultiChannelConfig::grid_offsets(N_CHANNELS)
        .iter()
        .enumerate()
        .map(|(i, &offset)| {
            GatewayChannel::new(
                i as u8,
                offset,
                SaiyanConfig::narrowband_streaming(lora(), variant),
                payload_symbols,
            )
        })
        .collect();
    GatewayConfig::new(trace_config().wideband_rate(), channels)
}

/// Matches each ground-truth packet to a gateway packet on the same channel
/// within a symbol of its payload start; panics (with context) on a miss.
fn match_truth<'a>(
    truth: &MultiChannelTruth,
    packets: &'a [GatewayPacket],
    t_sym: f64,
) -> &'a GatewayPacket {
    packets
        .iter()
        .find(|p| {
            p.channel as usize == truth.channel
                && (p.result.payload_start_time - truth.payload_start_time).abs() < t_sym
        })
        .unwrap_or_else(|| {
            panic!(
                "tag {} packet on channel {} at t={:.4}s not decoded",
                truth.tag, truth.channel, truth.payload_start_time
            )
        })
}

fn workload(packets_per_tag: usize, payload_symbols: usize) -> Vec<MultiChannelPacket> {
    hopping_traffic(&HoppingTrafficConfig {
        n_tags: N_CHANNELS,
        packets_per_tag,
        n_channels: N_CHANNELS,
        payload_symbols,
        k: lora().bits_per_chirp,
        slot_symbols: payload_symbols as f64 + 20.0,
        lead_in_symbols: 4.0,
        base_power_dbm: -43.0,
        power_spread_db: 1.5,
        max_cfo_hz: 500.0,
        seed: 0x6A7E,
    })
}

#[test]
fn concurrent_packets_on_four_channels_all_decode() {
    let payload_symbols = 8;
    let packets = workload(2, payload_symbols);
    let (trace, truth) = generate_multichannel_trace(&trace_config(), &packets);
    assert_eq!(truth.len(), 8);
    // Every round carries four overlapping packets on four channels.
    let decoded = Gateway::run_trace(
        gateway_config(payload_symbols, Variant::Vanilla),
        &trace,
        8192,
    );
    let t_sym = lora().symbol_duration();
    for t in &truth {
        let p = match_truth(t, &decoded, t_sym);
        assert_eq!(
            p.result.symbols, t.symbols,
            "tag {} on channel {} decoded wrong symbols",
            t.tag, t.channel
        );
    }
    // The merged stream is ordered by payload start time.
    for pair in decoded.windows(2) {
        assert!(pair[0].result.payload_start_time <= pair[1].result.payload_start_time);
    }
}

#[test]
fn shifting_and_super_variants_decode_through_the_channelizer() {
    // Two 500 kHz channels at 4x oversampling with a 500 kHz guard between
    // them: the full shifting (and correlation) receive chain behind the
    // channelizer, at the paper's default PHY operating point.
    let wide_lora = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    );
    let payload_symbols = 8;
    let offsets = vec![-500_000.0, 500_000.0];
    let cfg = MultiChannelConfig::new(wide_lora, 2, offsets.clone()).with_noise(-85.0);
    let packets = hopping_traffic(&HoppingTrafficConfig {
        n_tags: 2,
        packets_per_tag: 2,
        n_channels: 2,
        payload_symbols,
        k: wide_lora.bits_per_chirp,
        slot_symbols: payload_symbols as f64 + 18.0,
        lead_in_symbols: 4.0,
        base_power_dbm: -50.0,
        power_spread_db: 2.0,
        max_cfo_hz: 1_000.0,
        seed: 0x51F7,
    });
    let (trace, truth) = generate_multichannel_trace(&cfg, &packets);
    for variant in [Variant::WithShifting, Variant::Super] {
        let channels = offsets
            .iter()
            .enumerate()
            .map(|(i, &offset)| {
                GatewayChannel::new(
                    i as u8,
                    offset,
                    SaiyanConfig::paper_default(wide_lora, variant),
                    payload_symbols,
                )
            })
            .collect();
        let decoded = Gateway::run_trace(
            GatewayConfig::new(cfg.wideband_rate(), channels),
            &trace,
            8192,
        );
        let t_sym = wide_lora.symbol_duration();
        for t in &truth {
            let p = match_truth(t, &decoded, t_sym);
            assert_eq!(
                p.result.symbols, t.symbols,
                "variant {variant:?}: tag {} on channel {}",
                t.tag, t.channel
            );
        }
    }
}

#[test]
fn gateway_feeds_the_access_point_with_per_tag_stats_and_arq() {
    let payload_symbols = 32; // 8 uplink-frame bytes at K = 2
    let k = lora().bits_per_chirp;
    let mut packets = workload(3, payload_symbols);
    // Re-encode each tag's packets as uplink MAC frames (seq = round index).
    let mut seq_per_tag = [0u8; N_CHANNELS];
    for p in &mut packets {
        let seq = seq_per_tag[p.tag as usize];
        seq_per_tag[p.tag as usize] += 1;
        let frame = UplinkPacket {
            source: TagId(p.tag),
            sequence: seq,
            is_ack: false,
            payload: vec![p.tag as u8, seq, 0xA5],
        };
        p.symbols = lora_phy::downlink::bytes_to_symbols(&frame.to_bytes(), k);
        assert_eq!(p.symbols.len(), payload_symbols);
    }
    let (trace, truth) = generate_multichannel_trace(&trace_config(), &packets);
    let decoded = Gateway::run_trace(
        gateway_config(payload_symbols, Variant::Vanilla),
        &trace,
        8192,
    );
    assert_eq!(decoded.len(), truth.len());

    let mut ap = AccessPoint::new(ChannelTable::paper_433mhz(), 0, 2).unwrap();
    let mut requests = Vec::new();
    let mut payloads = Vec::new();
    // Per tag: frames the access point took as new, and duplicates.
    let mut frames = [0u32; N_CHANNELS];
    let mut duplicates = [0u32; N_CHANNELS];
    for (i, p) in decoded.iter().enumerate() {
        // Drop tag 2's middle frame before it reaches the MAC: the gap must
        // surface as a retransmission request when the next frame arrives.
        let bytes = p.result.to_bytes(k, 8);
        let frame = UplinkPacket::from_bytes(&bytes).expect("well-formed frame");
        if frame.source == TagId(2) && frame.sequence == 1 {
            continue;
        }
        if frame.source == TagId(1) {
            payloads.push(frame.payload);
        }
        let (duplicate, raised) = ap
            .ingest_frame(p.channel, p.result.payload_start_time, &bytes)
            .unwrap_or_else(|e| panic!("frame {i} rejected: {e:?}"));
        let tag = frame.source.0 as usize;
        frames[tag] += u32::from(!duplicate);
        duplicates[tag] += u32::from(duplicate);
        requests.extend(raised);
    }
    // Three frames from each tag except the dropped one, none a duplicate.
    assert_eq!(frames, [3, 3, 2, 3]);
    assert_eq!(duplicates, [0; N_CHANNELS]);
    // The gap behind tag 2's missing sequence 1 triggered an ARQ request.
    assert!(
        requests.iter().any(|r| matches!(
            (r.addressing, r.command),
            (
                saiyan_mac::Addressing::Unicast(TagId(2)),
                Command::Retransmit { sequence: 1 }
            )
        )),
        "no retransmission request for the dropped frame: {requests:?}"
    );
    // Tag 1's decoded payloads arrive in sequence order.
    assert_eq!(payloads.len(), 3);
    for (seq, payload) in payloads.iter().enumerate() {
        assert_eq!(payload, &vec![1u8, seq as u8, 0xA5]);
    }
}
