//! Property-based tests spanning the workspace's core invariants.

use lora_phy::downlink::{bytes_to_symbols, symbols_to_bytes};
use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use proptest::prelude::*;
use rfsim::units::{Db, Dbm, Meters};
use saiyan::{PeakDecoder, SampledStream, SymbolPeak};

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
        use netsim::engine::{EngineScenario, LinkModel, NetworkEngine};
        use netsim::UplinkSystem;
        // Fig. 26's collision-free layout on a fixed-PRR link; both budgets
        // run on the same seed.
        let prr = |retries| {
            let mut s = EngineScenario::retransmission_study(UplinkSystem::PLoRa, retries);
            s.link = LinkModel::FixedPrr(p);
            s.downlink_success = downlink;
            NetworkEngine::new(s).run_analytic().report
        };
        let (base, more) = (prr(n), prr(n + 1));
        // Four binomial standard deviations of the difference of two
        // independent 1000-reading PRRs.
        let slack = 4.0 * (2.0 * 0.25 / base.readings_generated as f64).sqrt();
        prop_assert!(more.prr() >= base.prr() - slack, "{} -> {}", base.prr(), more.prr());
        prop_assert!((0.0..=1.0).contains(&base.prr()));
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
        let ga = lora_phy::downlink::gray_encode(a);
        let gb = lora_phy::downlink::gray_encode(a + 1);
        prop_assert_eq!((ga ^ gb).count_ones(), 1);
    }
}

/// The peak decoder's symbol-window scan as a linear walk over every tick
/// (the reference for the binary-searched window start).
fn decode_symbol_linear(d: &PeakDecoder, stream: &SampledStream, window_start: f64) -> SymbolPeak {
    let t_sym = d.params().symbol_duration();
    let window_end = window_start + t_sym;
    let mut last_high = None;
    for (t, b) in stream.iter_timed() {
        if t < window_start {
            continue;
        }
        if t >= window_end {
            break;
        }
        if b {
            last_high = Some(t);
        }
    }
    match last_high {
        Some(t) => {
            let peak_time = (t - window_start).clamp(0.0, t_sym);
            SymbolPeak {
                symbol: lora_phy::downlink::symbol_from_peak_time(peak_time, d.params()),
                peak_time: Some(peak_time),
            }
        }
        None => SymbolPeak {
            symbol: 0,
            peak_time: None,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `decode_symbol` binary-searches for its window's first tick; it must
    /// decide exactly as the linear walk does, for windows starting on a
    /// tick (where the `time_of(i) < window_start` boundary is exact),
    /// between ticks, and before or after the stream.
    #[test]
    fn symbol_window_search_matches_the_linear_scan(
        raw in proptest::collection::vec(0u8..32, 0..400),
        density in 0u8..12,
        start_time in 0.0f64..0.05,
        rate in 4_000.0f64..80_000.0,
        pick in any::<usize>(),
        between in 0.0f64..1.0,
        on_tick in any::<bool>(),
        k in 1u8..=5,
    ) {
        let params = LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(k).unwrap(),
        );
        let d = PeakDecoder::new(params);
        // Sparse streams too, so a window's last high tick is often its
        // first one.
        let stream = SampledStream {
            bits: raw.iter().map(|&r| r < density).collect(),
            sample_rate: rate,
            start_time,
        };
        // On a tick: a high one where there is one, the tick whose
        // inclusion the boundary comparison decides.
        let highs: Vec<usize> = (0..stream.len()).filter(|&i| stream.bits[i]).collect();
        let window_start = if on_tick {
            stream.time_of(highs.get(pick % highs.len().max(1)).copied().unwrap_or(pick % 400))
        } else {
            start_time + ((pick % (stream.len() + 40)) as f64 + between - 20.0) / rate
        };
        prop_assert_eq!(
            d.decode_symbol(&stream, window_start),
            decode_symbol_linear(&d, &stream, window_start)
        );
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
        use saiyan_mac::{AccessPoint, ChannelTable, UplinkPacket};
        let mut ap = AccessPoint::new(ChannelTable::paper_433mhz(), 0, 2).unwrap();
        let (mut accepted, mut new, mut duplicates) = (0u64, 0u64, 0u64);
        // The data frames taken as new, by source and sequence.
        let mut delivered = Vec::new();
        for (i, mut frame) in frames.into_iter().enumerate() {
            // Steer about half the soups past the length check, so the
            // sequence windows see a stream of well-formed frames.
            if frame.len() >= 5 && frame[0] % 2 == 0 {
                frame[4] = (frame.len() - 5) as u8;
            }
            let parsed = UplinkPacket::from_bytes(&frame);
            let ingested = ap.ingest_frame((i % 8) as u8, i as f64 * 0.1, &frame);
            // The access point accepts exactly the frames that parse.
            prop_assert_eq!(parsed.is_ok(), ingested.is_ok());
            if let (Ok(packet), Ok((duplicate, requests))) = (parsed, ingested) {
                accepted += 1;
                prop_assert!(requests.len() <= AccessPoint::MAX_SEQUENCE_GAP as usize);
                let key = (packet.source, packet.sequence);
                if duplicate {
                    duplicates += 1;
                    prop_assert!(!packet.is_ack, "an ACK read as a duplicate");
                    prop_assert!(delivered.contains(&key), "a duplicate of nothing");
                } else {
                    new += 1;
                    if !packet.is_ack {
                        delivered.push(key);
                    }
                }
            }
        }
        // Every accepted frame is counted once: as new or as a duplicate.
        prop_assert_eq!(new + duplicates, accepted);
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

// ---------------------------------------------------------------------------
// Noise: `AwgnSource`'s block Box–Muller kernel is the workspace's only
// Gaussian generator. It reorders its libm calls, never their arguments, so
// every consumer must match the per-value form it replaced bit-for-bit.
// ---------------------------------------------------------------------------

/// The per-value Box–Muller over the vendored draws (`u1` then `u2`), as the
/// block kernel's stages compute it one value at a time.
fn reference_gaussian(rng: &mut rand_chacha::ChaCha8Rng) -> f64 {
    use rand::Rng;
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn reference_rng(seed: u64) -> rand_chacha::ChaCha8Rng {
    use rand_chacha::rand_core::SeedableRng;
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}

/// Bit equality of two complex sequences, naming the first differing sample.
fn assert_same_iq(got: &[lora_phy::iq::Iq], want: &[lora_phy::iq::Iq]) {
    prop_assert_eq!(got.len(), want.len());
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
            "sample {} differs: {:?} vs {:?}",
            i,
            a,
            b
        );
    }
}

/// Cuts `0..total` into consecutive ranges whose lengths cycle through
/// `sizes` (each at least one), the last one clipped at `total`.
fn partition(total: usize, sizes: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut start = 0;
    for &size in sizes.iter().cycle() {
        if start >= total {
            break;
        }
        let end = (start + size.max(1)).min(total);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `fill_noise_into` and `add_noise_in_place` equal the per-sample
    /// `AwgnSource::sample` loop, and that loop equals the per-value
    /// Box–Muller, over lengths that cover the empty, partial, whole and
    /// ragged multi-block paths of the kernel.
    #[test]
    fn block_awgn_equals_the_per_sample_loop(
        seed in any::<u64>(),
        log_variance in -30.0f64..3.0,
        len in 0usize..=3 * rfsim::noise::NOISE_BLOCK + 33,
    ) {
        use lora_phy::iq::Iq;
        use rfsim::noise::AwgnSource;
        let variance = log_variance.exp();
        let std = (variance / 2.0).sqrt();

        let mut per_value = reference_rng(seed);
        let mut per_sample = AwgnSource::new(seed);
        let mut expected = Vec::with_capacity(len);
        for _ in 0..len {
            let s = per_sample.sample(variance);
            let i = std * reference_gaussian(&mut per_value);
            let q = std * reference_gaussian(&mut per_value);
            assert_same_iq(&[s], &[Iq::new(i, q)]);
            expected.push(s);
        }

        let mut filler = AwgnSource::new(seed);
        let mut filled = vec![Iq::new(f64::NAN, 7.0); len];
        filler.fill_noise_into(&mut filled, variance);
        assert_same_iq(&filled, &expected);
        // Both sources consumed the same number of draws.
        assert_same_iq(&[filler.sample(variance)], &[per_sample.sample(variance)]);

        let base: Vec<Iq> = (0..len).map(|i| Iq::new(i as f64 * 1e-3, -0.5)).collect();
        let mut added = base.clone();
        AwgnSource::new(seed).add_noise_in_place(&mut added, variance);
        let want: Vec<Iq> = base.iter().zip(&expected).map(|(&b, &n)| b + n).collect();
        assert_same_iq(&added, &want);
    }

    /// `NoiseAhead` hands out its ring of half-size blocks in stream order:
    /// any consumer partition, across block and ring wrap-around
    /// boundaries, equals one inline `add_noise_in_place`.
    #[test]
    fn noise_ahead_equals_the_inline_fill_over_its_ring(
        seed in any::<u64>(),
        total in 0usize..24_000,
        sizes in proptest::collection::vec(prop_oneof![1usize..64, 64usize..5_000], 1..8),
        block in 0usize..10_000,
        log_variance in -30.0f64..-6.0,
    ) {
        use lora_phy::iq::Iq;
        use rfsim::noise::{AwgnSource, NoiseAhead};
        let variance = log_variance.exp();
        let base: Vec<Iq> = (0..total).map(|i| Iq::new(i as f64 * 1e-6, -1e-6)).collect();
        let mut expected = base.clone();
        AwgnSource::new(seed).add_noise_in_place(&mut expected, variance);

        let mut ahead = NoiseAhead::spawn(AwgnSource::new(seed), variance, block);
        let mut got = base;
        for range in partition(total, &sizes) {
            ahead.add_next(&mut got[range]);
        }
        assert_same_iq(&got, &expected);
    }
}

/// A test input for the analog stages: a slowly modulated tone whose peak
/// power is `peak_dbm`, so high draws drive the LNA into compression.
fn analog_input(len: usize, peak_dbm: f64) -> Vec<lora_phy::iq::Iq> {
    let amp = rfsim::channel::dbm_to_buffer_power(Dbm(peak_dbm)).sqrt();
    (0..len)
        .map(|i| {
            lora_phy::iq::Iq::from_polar(amp * (0.5 + (i % 97) as f64 / 194.0), 0.01 * i as f64)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The noisy LNA, fed in random chunks, equals its per-sample loop:
    /// gain, one complex Gaussian drawn per sample from the seeded stream,
    /// then the soft limiter.
    #[test]
    fn noisy_lna_equals_its_per_sample_loop(
        seed in any::<u64>(),
        len in 0usize..6_000,
        sizes in proptest::collection::vec(1usize..2_500, 1..6),
        peak_dbm in -110.0f64..5.0,
    ) {
        use rfsim::channel::dbm_to_buffer_power;
        let lna = analog::lna::Lna {
            seed,
            ..analog::lna::Lna::paper_cglna(rfsim::units::Hertz::from_khz(500.0))
        };
        let input = analog_input(len, peak_dbm);

        let gain_amp = 10f64.powf(lna.gain.value() / 20.0);
        let noise_std = (dbm_to_buffer_power(lna.added_noise_power() + lna.gain) / 2.0).sqrt();
        let comp_amp = dbm_to_buffer_power(lna.output_compression).sqrt();
        let mut rng = reference_rng(seed);
        let mut expected = Vec::with_capacity(len);
        for s in &input {
            let mut v = s.scale(gain_amp);
            let i = noise_std * reference_gaussian(&mut rng);
            let q = noise_std * reference_gaussian(&mut rng);
            v += lora_phy::iq::Iq::new(i, q);
            let a = v.abs();
            if a > comp_amp {
                let limited = comp_amp * (1.0 + (a / comp_amp - 1.0).tanh());
                v = v.scale(limited / a);
            }
            expected.push(v);
        }

        let mut state = lna.streaming();
        let mut got = Vec::new();
        let mut out = Vec::new();
        for range in partition(len, &sizes) {
            state.amplify_chunk_into(&input[range], &mut out);
            got.extend_from_slice(&out);
        }
        assert_same_iq(&got, &expected);
    }

    /// The noisy envelope detector, fed in random chunks, equals its
    /// per-sample loop: a white then a flicker-drive Gaussian per sample
    /// from the seeded stream, the flicker through its AR(1) integrator.
    #[test]
    fn noisy_envelope_detector_equals_its_per_sample_loop(
        seed in any::<u64>(),
        len in 0usize..6_000,
        sizes in proptest::collection::vec(1usize..2_500, 1..6),
        peak_dbm in -110.0f64..-20.0,
        fs in prop_oneof![Just(1e6), Just(2e6), Just(4e6)],
    ) {
        let detector = analog::envelope::EnvelopeDetector::default().with_seed(seed);
        let input = analog_input(len, peak_dbm);

        let noise = detector.noise;
        let alpha = (noise.flicker_corner_hz / fs).clamp(1e-6, 1.0);
        let sqrt_alpha = alpha.sqrt();
        let ar_std = (1.0 / (2.0 - alpha)).sqrt().max(1e-12);
        let mut rng = reference_rng(seed);
        let mut flicker_state = 0.0;
        let mut expected = Vec::with_capacity(len);
        for s in &input {
            let envelope = detector.conversion_gain * s.norm_sqr();
            let white = noise.white_sigma * reference_gaussian(&mut rng);
            flicker_state =
                (1.0 - alpha) * flicker_state + sqrt_alpha * reference_gaussian(&mut rng);
            let flicker = noise.flicker_sigma * flicker_state / ar_std;
            expected.push(envelope + noise.dc_offset + white + flicker);
        }

        let mut state = detector.streaming(fs);
        let mut got = Vec::new();
        let mut out = Vec::new();
        for range in partition(len, &sizes) {
            state.detect_chunk_into(&input[range], &mut out);
            got.extend_from_slice(&out);
        }
        prop_assert_eq!(got.len(), expected.len());
        for (i, (a, b)) in got.iter().zip(&expected).enumerate() {
            prop_assert!(a.to_bits() == b.to_bits(), "sample {} differs: {} vs {}", i, a, b);
        }
    }
}
