//! Property-based tests spanning the workspace's core invariants.

use lora_phy::downlink::{bytes_to_symbols, symbols_to_bytes};
use lora_phy::fec::{decode_payload, encode_payload};
use lora_phy::frame::{crc16, Frame, FrameFlags};
use lora_phy::params::{Bandwidth, BitsPerChirp, CodeRate, LoraParams, SpreadingFactor};
use proptest::prelude::*;
use rfsim::units::{Db, Dbm, Meters};

fn spreading_factor() -> impl Strategy<Value = SpreadingFactor> {
    prop_oneof![
        Just(SpreadingFactor::Sf7),
        Just(SpreadingFactor::Sf8),
        Just(SpreadingFactor::Sf9),
        Just(SpreadingFactor::Sf10),
        Just(SpreadingFactor::Sf11),
        Just(SpreadingFactor::Sf12),
    ]
}

fn code_rate() -> impl Strategy<Value = CodeRate> {
    prop_oneof![
        Just(CodeRate::Cr45),
        Just(CodeRate::Cr46),
        Just(CodeRate::Cr47),
        Just(CodeRate::Cr48),
    ]
}

fn bandwidth() -> impl Strategy<Value = Bandwidth> {
    prop_oneof![
        Just(Bandwidth::Khz125),
        Just(Bandwidth::Khz250),
        Just(Bandwidth::Khz500),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fec_chain_round_trips(
        data in proptest::collection::vec(any::<u8>(), 1..80),
        sf in spreading_factor(),
        cr in code_rate(),
    ) {
        let symbols = encode_payload(&data, sf, cr).unwrap();
        prop_assert!(symbols.iter().all(|&s| s < sf.chips_per_symbol()));
        let (decoded, stats) = decode_payload(&symbols, sf, cr, data.len()).unwrap();
        prop_assert_eq!(decoded, data);
        prop_assert_eq!(stats.detected, 0);
    }

    #[test]
    fn downlink_symbol_packing_round_trips(
        data in proptest::collection::vec(any::<u8>(), 0..64),
        k in 1u8..=8,
    ) {
        let k = BitsPerChirp::new(k).unwrap();
        let symbols = bytes_to_symbols(&data, k);
        prop_assert!(symbols.iter().all(|&s| s < k.alphabet_size()));
        let back = symbols_to_bytes(&symbols, k, data.len());
        prop_assert_eq!(back, data);
    }

    #[test]
    fn frame_serialisation_round_trips(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        cr in code_rate(),
        ack in any::<bool>(),
        ack_request in any::<bool>(),
    ) {
        let frame = Frame::new(
            payload,
            cr,
            FrameFlags { ack, ack_request, downlink: true },
        ).unwrap();
        let bytes = frame.to_bytes();
        let back = Frame::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn crc_detects_single_byte_corruption(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        idx in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut corrupted = payload.clone();
        let i = idx.index(corrupted.len());
        corrupted[i] ^= flip;
        prop_assert_ne!(crc16(&payload), crc16(&corrupted));
    }

    #[test]
    fn dbm_conversions_round_trip(power in -150.0f64..30.0) {
        let dbm = Dbm(power);
        let back = Dbm::from_milliwatts(dbm.milliwatts());
        prop_assert!((back.value() - power).abs() < 1e-9);
    }

    #[test]
    fn path_loss_is_monotone(
        d1 in 1.0f64..500.0,
        delta in 1.0f64..500.0,
        walls in 0u8..3,
    ) {
        let pl = rfsim::pathloss::PathLossModel::for_environment(
            rfsim::pathloss::Environment::Indoor { walls },
            rfsim::units::Hertz::from_mhz(434.0),
        );
        let near = pl.loss(Meters(d1)).value();
        let far = pl.loss(Meters(d1 + delta)).value();
        prop_assert!(far > near);
    }

    #[test]
    fn comparator_hysteresis_never_chatters_within_the_band(
        samples in proptest::collection::vec(0.45f64..0.55, 10..200),
    ) {
        // All samples strictly between U_L = 0.4 and U_H = 0.6: the output
        // must never change state.
        let cmp = analog::comparator::DoubleThresholdComparator::new(0.6, 0.4);
        let buf = analog::signal::RealBuffer::new(samples, 1000.0);
        let out = cmp.compare(&buf);
        prop_assert_eq!(out.transitions(), 0);
    }

    #[test]
    fn ber_model_is_monotone_in_rss(
        rss_lo in -120.0f64..-40.0,
        delta in 0.1f64..40.0,
        k in 1u8..=5,
    ) {
        let cfg = saiyan::SensitivityConfig {
            variant: saiyan::Variant::Super,
            sf: SpreadingFactor::Sf7,
            bw: Bandwidth::Khz500,
            k: BitsPerChirp::new(k).unwrap(),
        };
        let worse = cfg.ber(Dbm(rss_lo));
        let better = cfg.ber(Dbm(rss_lo + delta));
        prop_assert!(better <= worse + 1e-12);
    }

    #[test]
    fn sampling_rate_rule_always_exceeds_nyquist(
        sf in spreading_factor(),
        bw in bandwidth(),
        k in 1u8..=5,
    ) {
        let params = LoraParams::new(sf, bw, BitsPerChirp::new(k).unwrap());
        prop_assert!(params.practical_sampling_rate() > params.nyquist_sampling_rate());
        prop_assert!(params.nyquist_sampling_rate() > 0.0);
    }

    #[test]
    fn prr_with_retransmissions_is_monotone(
        p in 0.0f64..1.0,
        downlink in 0.5f64..1.0,
        n in 0u32..5,
    ) {
        let base = saiyan_mac::prr_with_retransmissions(p, n, downlink);
        let more = saiyan_mac::prr_with_retransmissions(p, n + 1, downlink);
        prop_assert!(more >= base - 1e-12);
        prop_assert!((0.0..=1.0).contains(&base));
    }

    #[test]
    fn aloha_success_probability_bounds(tags in 1u32..50, slots in 1u32..128) {
        let p = saiyan_mac::analytic_success_probability(tags, slots);
        prop_assert!((0.0..=1.0).contains(&p));
        // More slots never hurt.
        let p_more = saiyan_mac::analytic_success_probability(tags, slots + 1);
        prop_assert!(p_more >= p - 1e-12);
    }

    #[test]
    fn db_dbm_arithmetic_is_consistent(p in -100.0f64..20.0, g in -30.0f64..30.0) {
        let power = Dbm(p);
        let gain = Db(g);
        let through = power + gain - gain;
        prop_assert!((through.value() - p).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn saw_gain_is_monotone_across_the_critical_band(
        f1 in 433_500_000.0f64..434_000_000.0,
        delta in 1_000.0f64..400_000.0,
    ) {
        let saw = analog::saw::SawFilter::paper_b3790();
        let f2 = (f1 + delta).min(434_000_000.0);
        let g1 = saw.gain_at(rfsim::units::Hertz(f1)).value();
        let g2 = saw.gain_at(rfsim::units::Hertz(f2)).value();
        prop_assert!(g2 >= g1 - 1e-9, "gain fell from {g1} to {g2}");
    }

    #[test]
    fn downlink_peak_time_inversion_is_exact(
        k in 1u8..=5,
        sf in spreading_factor(),
        bw in bandwidth(),
        symbol_seed in any::<u32>(),
    ) {
        let k = BitsPerChirp::new(k).unwrap();
        let params = LoraParams::new(sf, bw, k);
        let symbol = symbol_seed % k.alphabet_size();
        let gen = lora_phy::ChirpGenerator::new(params);
        let peak = gen.downlink_peak_time(symbol).unwrap();
        prop_assert_eq!(
            lora_phy::downlink::symbol_from_peak_time(peak, &params),
            symbol
        );
    }

    #[test]
    fn interleaver_round_trips_for_any_geometry(
        rows in 1usize..=16,
        cols in 1usize..=16,
        seed in any::<u64>(),
    ) {
        use lora_phy::fec::interleaver::Interleaver;
        let il = Interleaver::new(rows, cols).unwrap();
        let mask = if cols == 16 { u16::MAX } else { (1u16 << cols) - 1 };
        let words: Vec<u16> = (0..rows * 3)
            .map(|i| ((seed >> (i % 48)) as u16 ^ (i as u16).wrapping_mul(2654)) & mask)
            .collect();
        let inter = il.interleave(&words);
        let back = il.deinterleave(&inter, words.len());
        prop_assert_eq!(back, words);
    }

    #[test]
    fn ideal_envelope_detector_is_scale_consistent(
        amp in 1e-6f64..1e-1,
        scale in 1.1f64..10.0,
    ) {
        use lora_phy::iq::{Iq, SampleBuffer};
        let det = analog::envelope::EnvelopeDetector::ideal();
        let small = det.detect(&SampleBuffer::new(vec![Iq::new(amp, 0.0); 4], 1e6));
        let big = det.detect(&SampleBuffer::new(vec![Iq::new(amp * scale, 0.0); 4], 1e6));
        // Square-law: output scales with the square of the amplitude ratio.
        let ratio = big.samples[0] / small.samples[0];
        prop_assert!((ratio - scale * scale).abs() / (scale * scale) < 1e-9);
    }

    #[test]
    fn scenario_ber_is_monotone_in_distance(
        d in 5.0f64..300.0,
        delta in 1.0f64..100.0,
        k in 1u8..=5,
    ) {
        use netsim::Scenario;
        use rfsim::units::Meters;
        let near = Scenario::outdoor_default(Meters(d))
            .with_bits_per_chirp(BitsPerChirp::new(k).unwrap());
        let far = Scenario::outdoor_default(Meters(d + delta))
            .with_bits_per_chirp(BitsPerChirp::new(k).unwrap());
        prop_assert!(far.ber() >= near.ber() - 1e-12);
    }

    #[test]
    fn gray_coded_downlink_symbols_differ_by_one_bit_for_adjacent_peaks(
        k in 2u8..=5,
        base in any::<u32>(),
    ) {
        // Adjacent peak positions map to Gray-adjacent symbol codes, so a
        // one-slot peak error costs exactly one bit.
        let k = BitsPerChirp::new(k).unwrap();
        let a = base % (k.alphabet_size() - 1);
        let ga = lora_phy::fec::gray_encode(a);
        let gb = lora_phy::fec::gray_encode(a + 1);
        prop_assert_eq!((ga ^ gb).count_ones(), 1);
    }
}

/// The committed golden manifests: the valid starting points the manifest
/// fuzz mutates.
const GOLDEN_MANIFESTS: [&str; 3] = [
    include_str!("golden/single_sf7_bw500_k2_super.manifest"),
    include_str!("golden/dual_sf7_bw500_k2_shifting.manifest"),
    include_str!("golden/single_sf7_bw250_k2_vanilla.manifest"),
];

/// Values a corrupt manifest plausibly carries in place of a well-formed one.
const HOSTILE_VALUES: [&str; 12] = [
    "",
    "NaN",
    "inf",
    "-inf",
    "0",
    "-5",
    "7.9",
    "1e18",
    "4294967303",
    "18446744073709551616",
    "+7",
    "saiyan-golden-v2",
];

/// Applies one edit, decoded from `edit`, to a manifest's bytes: overwrite,
/// insert or delete a byte, replace a line's value with a hostile one, or
/// repeat a line (a duplicated key).
fn mutate_manifest(text: &mut Vec<u8>, edit: u64) {
    if text.is_empty() {
        text.push(edit as u8);
        return;
    }
    let pos = (edit >> 16) as usize % text.len();
    let byte = (edit >> 8) as u8;
    let line_start = text[..pos]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let line_end = text[pos..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(text.len(), |i| pos + i);
    match edit % 5 {
        0 => text[pos] = byte,
        1 => text.insert(pos, byte),
        2 => {
            text.remove(pos);
        }
        3 => {
            if let Some(eq) = text[line_start..line_end].iter().position(|&b| b == b'=') {
                let value = HOSTILE_VALUES[byte as usize % HOSTILE_VALUES.len()];
                text.splice(line_start + eq + 1..line_end, value.bytes());
            }
        }
        _ => {
            let line = text[line_start..line_end].to_vec();
            text.push(b'\n');
            text.extend_from_slice(&line);
        }
    }
}

// Byte-soup fuzz of every parser that takes bytes from outside the process:
// any outcome is fine except a panic or a runaway allocation.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame_decoders_never_panic_on_byte_soup(
        soup in proptest::collection::vec(any::<u8>(), 0..300),
        symbols in proptest::collection::vec(any::<u32>(), 0..96),
        sf in spreading_factor(),
        cr in code_rate(),
        // The caller's expected wire length; a frame is at most 260 bytes.
        wire_len in 0usize..512,
    ) {
        let _ = Frame::from_bytes(&soup);
        let _ = Frame::from_symbols(&symbols, sf, cr, wire_len);
    }

    #[test]
    fn mac_packet_decoders_never_panic_on_byte_soup(
        soup in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        use saiyan_mac::{DownlinkPacket, UplinkPacket};
        // Whatever parses re-parses to itself from its canonical bytes.
        if let Ok(packet) = UplinkPacket::from_bytes(&soup) {
            prop_assert_eq!(UplinkPacket::from_bytes(&packet.to_bytes()).unwrap(), packet);
        }
        if let Ok(packet) = DownlinkPacket::from_bytes(&soup) {
            prop_assert_eq!(DownlinkPacket::from_bytes(&packet.to_bytes()).unwrap(), packet);
        }
    }

    #[test]
    fn access_point_ingest_never_panics_on_byte_soup(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..24),
    ) {
        use saiyan_mac::{AccessPoint, ChannelTable, TagId};
        let mut ap = AccessPoint::new(ChannelTable::paper_433mhz(), 0, 2).unwrap();
        let mut tags = Vec::new();
        let mut accepted = 0u64;
        for (i, mut frame) in frames.into_iter().enumerate() {
            // Steer about half the soups past the length check, so the
            // sequence windows see a stream of well-formed frames.
            if frame.len() >= 5 && frame[0] % 2 == 0 {
                frame[4] = (frame.len() - 5) as u8;
            }
            if let Ok(report) = ap.ingest_frame((i % 8) as u8, i as f64 * 0.1, &frame) {
                accepted += 1;
                if !tags.contains(&report.tag) {
                    tags.push(report.tag);
                }
            }
        }
        // Every accepted frame is counted once: as new or as a duplicate.
        let counted: u64 = tags
            .iter()
            .map(|&tag: &TagId| {
                let stats = ap.tag_stats(tag).unwrap();
                stats.frames + stats.duplicates
            })
            .sum();
        prop_assert_eq!(counted, accepted);
        prop_assert_eq!(ap.tag_count(), tags.len());
    }

    #[test]
    fn iq_trace_decoder_never_panics_on_byte_soup(
        soup in proptest::collection::vec(any::<u8>(), 0..256),
        samples in 0u32..24,
    ) {
        use netsim::longtrace::trace_from_bytes;
        let _ = trace_from_bytes(&soup, 1.0e6);
        // Soup behind a valid magic, with an arbitrary sample count.
        let mut framed = b"SAIYANIQ".to_vec();
        framed.extend_from_slice(&soup);
        let _ = trace_from_bytes(&framed, 1.0e6);
        // Soup behind a valid magic and a count matching its length parses.
        let mut exact = b"SAIYANIQ".to_vec();
        exact.extend_from_slice(&samples.to_le_bytes());
        exact.extend((0..samples as usize * 8).map(|i| soup.get(i).copied().unwrap_or(0)));
        prop_assert_eq!(trace_from_bytes(&exact, 1.0e6).unwrap().len(), samples as usize);
    }

    #[test]
    fn manifest_parser_never_panics_on_mutated_manifests(
        base in any::<prop::sample::Index>(),
        edits in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        use netsim::longtrace::manifest_from_string;
        let mut text = GOLDEN_MANIFESTS[base.index(GOLDEN_MANIFESTS.len())]
            .as_bytes()
            .to_vec();
        for &edit in &edits {
            mutate_manifest(&mut text, edit);
        }
        let text = String::from_utf8_lossy(&text);
        // Whatever parses satisfies the manifest's value contract.
        if let Ok(fixture) = manifest_from_string("fuzz", &text) {
            prop_assert!(fixture.lora.oversampling >= 1);
            prop_assert!(fixture.lora.carrier_hz.is_finite());
            prop_assert!(fixture.truth.iter().all(|t| t.rx_power_dbm.is_finite()));
        }
    }
}

/// Hostile-but-finite sample soup for the receivers: what the serve wire
/// can deliver (finite `f32` I/Q pairs), cut into runs of extreme values.
/// Each `u64` picks one segment: a run of `±f32::MAX` components, a run of
/// zeros, a DC run, or a single-sample impulse between zeros.
fn sample_soup(segments: &[u64]) -> Vec<lora_phy::iq::Iq> {
    use lora_phy::iq::Iq;
    const MAX: f64 = f32::MAX as f64;
    const DC_LEVELS: [f64; 6] = [MAX, -MAX, 1.0, -1.0, 1e-3, f32::MIN_POSITIVE as f64];
    let mut out = Vec::new();
    for &seg in segments {
        let len = 1 + (seg >> 8) as usize % 400;
        let sign = |bit: u32| {
            if seg >> (40 + bit % 20) & 1 == 0 {
                MAX
            } else {
                -MAX
            }
        };
        match seg % 4 {
            0 => out.extend((0..len).map(|i| Iq::new(sign(2 * i as u32), sign(2 * i as u32 + 1)))),
            1 => out.extend(std::iter::repeat_n(Iq::ZERO, len)),
            2 => {
                let re = DC_LEVELS[(seg >> 4) as usize % DC_LEVELS.len()];
                let im = DC_LEVELS[(seg >> 30) as usize % DC_LEVELS.len()];
                out.extend(std::iter::repeat_n(Iq::new(re, im), len));
            }
            _ => {
                out.extend(std::iter::repeat_n(Iq::ZERO, len / 2));
                out.push(Iq::new(sign(0), sign(1)));
                out.extend(std::iter::repeat_n(Iq::ZERO, len / 2));
            }
        }
    }
    out
}

/// Feeds `samples` in chunks whose sizes cycle through `sizes`: a size `c`
/// with `c % 4 == 0` is an empty chunk, `c % 4 == 1` a one-sample chunk,
/// anything else `c` samples. Each cycle ends with a two-sample chunk, so
/// the feed advances whatever `sizes` holds.
fn feed_chunked(rx: &mut dyn saiyan::Receiver, samples: &[lora_phy::iq::Iq], sizes: &[usize]) {
    let mut cycle = sizes.iter().chain(&[2]).cycle();
    let mut pos = 0usize;
    while pos < samples.len() {
        let size = match *cycle.next().expect("endless cycle") {
            c if c % 4 == 0 => 0,
            c if c % 4 == 1 => 1,
            c => c,
        };
        let end = (pos + size).min(samples.len());
        let _ = rx.feed(&samples[pos..end]);
        pos = end;
    }
}

/// Feeds a whole trace in 2048-sample chunks and flushes.
fn decode_whole(
    rx: &mut dyn saiyan::Receiver,
    samples: &[lora_phy::iq::Iq],
) -> Vec<saiyan::GatewayPacket> {
    let mut packets = Vec::new();
    for chunk in samples.chunks(2048) {
        packets.extend(rx.feed(chunk));
    }
    packets.extend(rx.flush());
    packets
}

/// Builds one fresh receiver of a kind the soup fuzz drives.
type MakeReceiver = fn() -> saiyan::BoxedReceiver;

/// The receivers the soup fuzz drives, each paired with what a fresh
/// instance decodes from the `single_sf7_bw500_k2_super` golden trace.
struct SoupFixture {
    trace: Vec<lora_phy::iq::Iq>,
    receivers: Vec<(&'static str, MakeReceiver)>,
    reference: Vec<Vec<saiyan::GatewayPacket>>,
}

fn soup_lora() -> LoraParams {
    LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).expect("valid"),
    )
}

const SOUP_PAYLOAD_SYMBOLS: usize = 8;

fn soup_fixture() -> &'static SoupFixture {
    use saiyan::config::{SaiyanConfig, Variant};
    use saiyan::gateway::{Gateway, GatewayChannel, GatewayConfig};
    use saiyan::{BoxedReceiver, StreamingDemodulator};
    static FIXTURE: std::sync::OnceLock<SoupFixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
        let golden = netsim::longtrace::read_golden(&dir, "single_sf7_bw500_k2_super")
            .expect("golden fixture loads");
        assert_eq!(golden.lora.sample_rate(), soup_lora().sample_rate());
        assert_eq!(golden.truth[0].symbols.len(), SOUP_PAYLOAD_SYMBOLS);
        fn streaming(cfg: SaiyanConfig) -> BoxedReceiver {
            Box::new(StreamingDemodulator::new(cfg, SOUP_PAYLOAD_SYMBOLS))
        }
        let receivers: Vec<(&'static str, MakeReceiver)> = vec![
            ("paper_default vanilla", || {
                streaming(SaiyanConfig::paper_default(soup_lora(), Variant::Vanilla))
            }),
            ("paper_default super", || {
                streaming(SaiyanConfig::paper_default(soup_lora(), Variant::Super))
            }),
            ("high_throughput vanilla", || {
                streaming(
                    SaiyanConfig::paper_default(soup_lora(), Variant::Vanilla).high_throughput(),
                )
            }),
            ("high_throughput super", || {
                streaming(
                    SaiyanConfig::paper_default(soup_lora(), Variant::Super).high_throughput(),
                )
            }),
            ("two-channel gateway", || {
                // The golden channel passes through at the wideband rate; a
                // 125 kHz channel at +500 kHz runs through the polyphase
                // channelizer (decimation 4).
                let narrow = LoraParams::new(
                    SpreadingFactor::Sf7,
                    Bandwidth::Khz125,
                    BitsPerChirp::new(2).expect("valid"),
                );
                let channels = vec![
                    GatewayChannel::new(
                        0,
                        0.0,
                        SaiyanConfig::paper_default(soup_lora(), Variant::Super).high_throughput(),
                        SOUP_PAYLOAD_SYMBOLS,
                    ),
                    GatewayChannel::new(
                        1,
                        500_000.0,
                        SaiyanConfig::paper_default(narrow, Variant::Vanilla).high_throughput(),
                        SOUP_PAYLOAD_SYMBOLS,
                    ),
                ];
                let wideband = soup_lora().sample_rate();
                Box::new(Gateway::new(GatewayConfig::new(wideband, channels)))
            }),
        ];
        let trace = golden.trace.samples;
        let reference = receivers
            .iter()
            .map(|(name, make)| {
                let packets = decode_whole(make().as_mut(), &trace);
                assert!(
                    !packets.is_empty(),
                    "{name}: a fresh receiver decodes the golden trace"
                );
                packets
            })
            .collect();
        SoupFixture {
            trace,
            receivers,
            reference,
        }
    })
}

// Sample-soup fuzz of every receiver the serve daemon can run: hostile but
// finite input must never panic one, and `reset` must leave it decoding
// exactly as a fresh instance does.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn receivers_never_panic_on_finite_sample_soup(
        segments in proptest::collection::vec(any::<u64>(), 1..10),
        sizes in proptest::collection::vec(0usize..600, 1..8),
    ) {
        let fixture = soup_fixture();
        let soup = sample_soup(&segments);
        for ((name, make), reference) in fixture.receivers.iter().zip(&fixture.reference) {
            let mut rx = make();
            feed_chunked(rx.as_mut(), &soup, &sizes);
            let _ = rx.flush();
            rx.reset();
            let decoded = decode_whole(rx.as_mut(), &fixture.trace);
            prop_assert_eq!(&decoded, reference, "{} after soup and reset", name);
        }
    }
}
