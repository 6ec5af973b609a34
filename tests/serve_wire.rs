//! Property tests for the serving layer's wire formats: arbitrary packets
//! (including empty-payload detection markers) must round-trip bit-exactly
//! through both the length-prefixed binary format and JSONL, and the
//! decoders must reject — never panic on — arbitrary byte soup.

use proptest::prelude::*;
use saiyan::gateway::GatewayPacket;
use saiyan::streaming::{DemodResult, Thresholds};
use saiyan_serve::{
    bytes_to_samples, decode_binary_stream, decode_jsonl_stream, decode_packet_binary,
    decode_packet_jsonl, encode_packet_binary, encode_packet_jsonl, samples_to_bytes,
};

/// Finite floats across magnitudes (JSON has no NaN/Inf; the binary format
/// is tested with them separately below).
fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        -1.0e-12f64..1.0e-12,
        -1.0f64..1.0,
        -1.0e9f64..1.0e9,
        Just(f64::MIN_POSITIVE),
        Just(1.0 / 3.0),
    ]
}

fn optional_time() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![Just(None), finite_f64().prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packets_round_trip_both_formats(
        channel in any::<u8>(),
        symbols in proptest::collection::vec(any::<u32>(), 0..24),
        peak_times in proptest::collection::vec(optional_time(), 0..24),
        correlation_scores in proptest::collection::vec(finite_f64(), 0..24),
        payload_start_time in finite_f64(),
        preamble_peaks in 0usize..64,
        high in finite_f64(),
        low in finite_f64(),
    ) {
        // Empty vectors occur naturally in the draw: an all-empty packet is
        // exactly a detection marker, and must survive both formats too.
        let packet = GatewayPacket {
            channel,
            result: DemodResult {
                symbols,
                peak_times,
                correlation_scores,
                payload_start_time,
                preamble_peaks,
                thresholds: Thresholds { high, low },
            },
        };

        let mut binary = Vec::new();
        encode_packet_binary(&packet, &mut binary);
        let (from_binary, consumed) = decode_packet_binary(&binary).unwrap();
        prop_assert_eq!(consumed, binary.len());
        prop_assert_eq!(&from_binary, &packet);

        let line = encode_packet_jsonl(&packet).unwrap();
        prop_assert!(!line.contains('\n'));
        let from_jsonl = decode_packet_jsonl(&line).unwrap();
        prop_assert_eq!(&from_jsonl, &packet);
    }

    #[test]
    fn packet_streams_round_trip_in_order(
        channels in proptest::collection::vec(any::<u8>(), 0..6),
        start in finite_f64(),
    ) {
        // A concatenated stream of minimal packets (detection markers on
        // varying channels) survives both stream decoders in order.
        let packets: Vec<GatewayPacket> = channels
            .iter()
            .map(|&channel| GatewayPacket {
                channel,
                result: DemodResult {
                    symbols: Vec::new(),
                    peak_times: Vec::new(),
                    correlation_scores: Vec::new(),
                    payload_start_time: start,
                    preamble_peaks: 0,
                    thresholds: Thresholds { high: 0.0, low: 0.0 },
                },
            })
            .collect();
        let mut binary = Vec::new();
        let mut jsonl = String::new();
        for p in &packets {
            encode_packet_binary(p, &mut binary);
            jsonl.push_str(&encode_packet_jsonl(p).unwrap());
            jsonl.push('\n');
        }
        prop_assert_eq!(&decode_binary_stream(&binary).unwrap(), &packets);
        prop_assert_eq!(&decode_jsonl_stream(&jsonl).unwrap(), &packets);
    }

    #[test]
    fn binary_decoder_never_panics_on_byte_soup(
        soup in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Any outcome is fine except a panic or a runaway allocation.
        let _ = decode_packet_binary(&soup);
    }

    #[test]
    fn jsonl_decoder_never_panics_on_arbitrary_text(
        soup in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let text = String::from_utf8_lossy(&soup);
        let _ = decode_packet_jsonl(&text);
    }

    #[test]
    fn truncating_a_valid_frame_yields_truncated_not_panic(
        symbols in proptest::collection::vec(any::<u32>(), 0..16),
        cut_fraction in 0.0f64..1.0,
    ) {
        let packet = GatewayPacket {
            channel: 1,
            result: DemodResult {
                symbols,
                peak_times: Vec::new(),
                correlation_scores: Vec::new(),
                payload_start_time: 0.5,
                preamble_peaks: 2,
                thresholds: Thresholds { high: 1.0, low: 0.5 },
            },
        };
        let mut binary = Vec::new();
        encode_packet_binary(&packet, &mut binary);
        let cut = ((binary.len() as f64) * cut_fraction) as usize;
        if cut < binary.len() {
            prop_assert!(decode_packet_binary(&binary[..cut]).is_err());
        }
    }

    #[test]
    fn iq_byte_framing_round_trips_f32_exactly(
        pairs in proptest::collection::vec(any::<u32>(), 0..64),
    ) {
        // Drive the f32 path with raw bit patterns, skipping non-finite
        // encodings (the daemon sanitises those separately).
        let samples: Vec<lora_phy::iq::Iq> = pairs
            .iter()
            .map(|&bits| {
                let v = f32::from_bits(bits);
                let v = if v.is_finite() { v as f64 } else { 0.0 };
                lora_phy::iq::Iq { re: v, im: -v }
            })
            .collect();
        let bytes = samples_to_bytes(&samples);
        let (back, dangling) = bytes_to_samples(&bytes);
        prop_assert_eq!(dangling, 0);
        prop_assert_eq!(&back, &samples);
    }
}

/// The binary format, unlike JSONL, must preserve non-finite floats
/// bit-for-bit (they can legitimately appear in internal archives).
#[test]
fn binary_preserves_non_finite_floats() {
    let packet = GatewayPacket {
        channel: 0,
        result: DemodResult {
            symbols: vec![1],
            peak_times: vec![Some(f64::NEG_INFINITY), None],
            correlation_scores: vec![f64::NAN],
            payload_start_time: f64::INFINITY,
            preamble_peaks: 1,
            thresholds: Thresholds {
                high: f64::NAN,
                low: 0.0,
            },
        },
    };
    let mut binary = Vec::new();
    encode_packet_binary(&packet, &mut binary);
    let (back, _) = decode_packet_binary(&binary).unwrap();
    assert_eq!(
        back.result.payload_start_time.to_bits(),
        f64::INFINITY.to_bits()
    );
    assert_eq!(
        back.result.peak_times[0].unwrap().to_bits(),
        f64::NEG_INFINITY.to_bits()
    );
    assert!(back.result.correlation_scores[0].is_nan());
    assert!(back.result.thresholds.high.is_nan());
    // ...and the JSONL encoder refuses the same packet instead of lying.
    assert!(encode_packet_jsonl(&packet).is_err());
}
