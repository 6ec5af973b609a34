//! Long multi-packet IQ traces for the streaming receiver.
//!
//! The batch evaluation pipeline cuts one packet per capture; the streaming
//! demodulator needs the opposite: a single unbounded sample stream carrying
//! many packets with inter-packet gaps, per-packet receive powers, carrier
//! frequency offsets, and channel noise. This module generates such traces
//! (deterministically, from a seed) together with per-packet ground truth,
//! and provides the golden-fixture serialisation the regression suite in
//! `tests/golden_traces.rs` is built on: IQ as little-endian `f32` pairs plus
//! a plain-text manifest with the expected symbol sequences.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

use lora_phy::iq::{Iq, SampleBuffer};
use lora_phy::modulator::Alphabet;
use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use lora_phy::templates::PacketTemplates;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfsim::channel::dbm_to_buffer_power;
use rfsim::noise::AwgnSource;
use rfsim::units::Dbm;
use saiyan::config::Variant;

use crate::synthesis::EmissionMixer;

/// One packet to place on a long trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePacket {
    /// Payload symbols (downlink alphabet, `2^K` entries).
    pub symbols: Vec<u32>,
    /// Receive power at the tag antenna.
    pub rx_power_dbm: f64,
    /// Silence inserted before this packet, in symbol durations.
    pub gap_symbols: f64,
    /// Carrier frequency offset applied to this packet (Hz); models the
    /// transmitter's oscillator error.
    pub cfo_hz: f64,
}

impl TracePacket {
    /// A packet with no impairments beyond its receive power.
    pub fn new(symbols: Vec<u32>, rx_power_dbm: f64, gap_symbols: f64) -> Self {
        TracePacket {
            symbols,
            rx_power_dbm,
            gap_symbols,
            cfo_hz: 0.0,
        }
    }
}

/// Configuration of a long-trace generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LongTraceConfig {
    /// PHY parameters shared by every packet on the trace.
    pub lora: LoraParams,
    /// Channel noise power added over the whole trace (None = noiseless).
    pub noise_power_dbm: Option<f64>,
    /// Seed for the channel noise.
    pub seed: u64,
    /// Silence appended after the last packet, in symbol durations.
    pub tail_gap_symbols: f64,
}

impl LongTraceConfig {
    /// A clean-channel configuration.
    pub fn new(lora: LoraParams) -> Self {
        LongTraceConfig {
            lora,
            noise_power_dbm: None,
            seed: 0x10C0,
            tail_gap_symbols: 4.0,
        }
    }

    /// Returns a copy with channel noise at the given power.
    pub fn with_noise(mut self, noise_power_dbm: f64) -> Self {
        self.noise_power_dbm = Some(noise_power_dbm);
        self
    }
}

/// Ground truth for one packet placed on a generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGroundTruth {
    /// Sample index at which the packet's preamble begins.
    pub packet_start_sample: usize,
    /// Sample index at which the payload begins.
    pub payload_start_sample: usize,
    /// The transmitted payload symbols.
    pub symbols: Vec<u32>,
    /// Receive power the packet was scaled to.
    pub rx_power_dbm: f64,
}

/// Generates a long trace: a layout preset over the [`EmissionMixer`]. Every
/// packet is assembled from the chirp template cache with its amplitude
/// `sqrt(rx_power)` fused into the copy, so each packet's mean power over
/// its own span is its `rx_power_dbm` (gaps excluded), and queued after its
/// gap with its CFO; one mixing pass then sums the emissions into the
/// zeroed stream, and channel noise is added over it in one block pass.
/// Returns the trace and per-packet ground truth.
pub fn generate_long_trace(
    config: &LongTraceConfig,
    packets: &[TracePacket],
) -> (SampleBuffer, Vec<TraceGroundTruth>) {
    let templates = PacketTemplates::new(config.lora, Alphabet::Downlink);
    let fs = config.lora.sample_rate();
    let sps = config.lora.samples_per_symbol();
    let mut mixer = EmissionMixer::new();
    let mut truth = Vec::with_capacity(packets.len());
    let mut end = 0;
    for packet in packets {
        let start = end + (packet.gap_symbols * sps as f64).round() as usize;
        let target = dbm_to_buffer_power(Dbm(packet.rx_power_dbm));
        // The modulated waveform is constant-envelope at unit power.
        let mut samples = mixer.take_buffer();
        let layout = templates
            .assemble_scaled_extend(&packet.symbols, target.sqrt(), &mut samples)
            .expect("symbols within the downlink alphabet");
        truth.push(TraceGroundTruth {
            packet_start_sample: start,
            payload_start_sample: start + layout.payload_start,
            symbols: packet.symbols.clone(),
            rx_power_dbm: packet.rx_power_dbm,
        });
        end = start + samples.len();
        mixer.push(start as u64, samples, packet.cfo_hz, 0.0, fs);
    }
    let tail = (config.tail_gap_symbols * sps as f64).round() as usize;
    let mut trace = SampleBuffer::zeros(end + tail, fs);
    mixer.mix_into(&mut trace.samples, 0);
    if let Some(noise_dbm) = config.noise_power_dbm {
        let mut awgn = AwgnSource::new(config.seed);
        awgn.add_to(&mut trace, dbm_to_buffer_power(Dbm(noise_dbm)));
    }
    (trace, truth)
}

/// Draws `count` random payloads of `len` symbols from the `2^K` downlink
/// alphabet, deterministically from the seed.
pub fn random_payloads(count: usize, len: usize, k: BitsPerChirp, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..len)
                .map(|_| rng.gen_range(0..k.alphabet_size()))
                .collect()
        })
        .collect()
}

/// A complete golden fixture: the trace, its ground truth, and the receiver
/// settings it must decode under.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenFixture {
    /// Fixture name (file stem under `tests/golden/`).
    pub name: String,
    /// PHY parameters.
    pub lora: LoraParams,
    /// Receive-chain variant the fixture targets.
    pub variant: Variant,
    /// The IQ trace.
    pub trace: SampleBuffer,
    /// Per-packet ground truth (payload starts and expected symbols).
    pub truth: Vec<TraceGroundTruth>,
}

/// The committed golden fixture set. Shared by the generator binary
/// (`gen_golden_traces`) and the regression suite so the two can never drift
/// apart: the suite regenerates each fixture and compares it byte-for-byte
/// against the committed files before demodulating the committed copy.
pub fn golden_fixture_set() -> Vec<GoldenFixture> {
    let mut fixtures = Vec::new();

    // 1. One packet, SF7/500 kHz/K=2, Super Saiyan, light channel noise.
    let lora = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).expect("valid"),
    );
    let config = LongTraceConfig::new(lora).with_noise(-80.0);
    let packets = vec![TracePacket::new(vec![3, 1, 0, 2, 1, 1, 3, 0], -50.0, 3.0)];
    let (trace, truth) = generate_long_trace(&config, &packets);
    fixtures.push(GoldenFixture {
        name: "single_sf7_bw500_k2_super".to_string(),
        lora,
        variant: Variant::Super,
        trace,
        truth,
    });

    // 2. Two packets at different powers with a CFO on the second,
    //    SF7/500 kHz/K=2, shifting variant.
    let config = LongTraceConfig::new(lora).with_noise(-80.0);
    let mut second = TracePacket::new(vec![0, 3, 3, 1, 2, 0, 1, 2], -54.0, 18.0);
    second.cfo_hz = 2_000.0;
    let packets = vec![
        TracePacket::new(vec![2, 2, 0, 1, 3, 0, 2, 1], -50.0, 3.0),
        second,
    ];
    let (trace, truth) = generate_long_trace(&config, &packets);
    fixtures.push(GoldenFixture {
        name: "dual_sf7_bw500_k2_shifting".to_string(),
        lora,
        variant: Variant::WithShifting,
        trace,
        truth,
    });

    // 3. One packet, SF7/250 kHz/K=2, vanilla chain, clean channel.
    let lora250 = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz250,
        BitsPerChirp::new(2).expect("valid"),
    );
    let config = LongTraceConfig::new(lora250);
    let packets = vec![TracePacket::new(vec![1, 2, 3, 0, 2, 1], -48.0, 3.0)];
    let (trace, truth) = generate_long_trace(&config, &packets);
    fixtures.push(GoldenFixture {
        name: "single_sf7_bw250_k2_vanilla".to_string(),
        lora: lora250,
        variant: Variant::Vanilla,
        trace,
        truth,
    });

    fixtures
}

/// Magic header of the `.iq` fixture format (version 1): little-endian `f32`
/// I/Q pairs after a 12-byte header of magic + sample count.
const IQ_MAGIC: &[u8; 8] = b"SAIYANIQ";

/// Serialises a trace to the `.iq` byte format (f32 LE pairs). The committed
/// fixtures are stored at f32 precision — half the size of f64 with ~140 dB
/// of headroom over the signal levels in use — and the regression suite
/// demodulates the f32-rounded samples, so the files are bit-exact ground
/// truth for both the batch and streaming paths.
pub fn trace_to_bytes(trace: &SampleBuffer) -> Vec<u8> {
    assert!(
        trace.len() <= u32::MAX as usize,
        "trace of {} samples exceeds the .iq format's u32 sample count",
        trace.len()
    );
    let mut bytes = Vec::with_capacity(12 + trace.len() * 8);
    bytes.extend_from_slice(IQ_MAGIC);
    bytes.extend_from_slice(&(trace.len() as u32).to_le_bytes());
    for s in &trace.samples {
        bytes.extend_from_slice(&(s.re as f32).to_le_bytes());
        bytes.extend_from_slice(&(s.im as f32).to_le_bytes());
    }
    bytes
}

/// Parses the `.iq` byte format.
pub fn trace_from_bytes(bytes: &[u8], sample_rate: f64) -> io::Result<SampleBuffer> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if bytes.len() < 12 || &bytes[..8] != IQ_MAGIC {
        return Err(bad("missing SAIYANIQ header"));
    }
    let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    if bytes.len() != 12 + count * 8 {
        return Err(bad("truncated IQ payload"));
    }
    let mut samples = Vec::with_capacity(count);
    for i in 0..count {
        let off = 12 + i * 8;
        let re = f32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
        let im = f32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
        samples.push(Iq::new(re as f64, im as f64));
    }
    Ok(SampleBuffer::new(samples, sample_rate))
}

/// Serialises a fixture's manifest (`key=value` lines plus per-packet
/// entries). Plain text because the vendored `serde_json` is write-only.
pub fn manifest_to_string(fixture: &GoldenFixture) -> String {
    let mut out = String::new();
    out.push_str("format=saiyan-golden-v1\n");
    out.push_str(&format!("sf={}\n", fixture.lora.sf.value()));
    out.push_str(&format!("bw_khz={}\n", fixture.lora.bw.khz() as u32));
    out.push_str(&format!("k={}\n", fixture.lora.bits_per_chirp.bits()));
    out.push_str(&format!("oversampling={}\n", fixture.lora.oversampling));
    out.push_str(&format!("carrier_hz={}\n", fixture.lora.carrier_hz));
    let variant = match fixture.variant {
        Variant::Vanilla => "vanilla",
        Variant::WithShifting => "shifting",
        Variant::Super => "super",
    };
    out.push_str(&format!("variant={variant}\n"));
    out.push_str(&format!("packets={}\n", fixture.truth.len()));
    for (i, t) in fixture.truth.iter().enumerate() {
        out.push_str(&format!(
            "packet{i}.packet_start={}\n",
            t.packet_start_sample
        ));
        out.push_str(&format!(
            "packet{i}.payload_start={}\n",
            t.payload_start_sample
        ));
        out.push_str(&format!("packet{i}.rx_power_dbm={}\n", t.rx_power_dbm));
        let symbols: Vec<String> = t.symbols.iter().map(u32::to_string).collect();
        out.push_str(&format!("packet{i}.symbols={}\n", symbols.join(",")));
    }
    out
}

/// Parses a fixture manifest back into PHY parameters, variant, and truth.
/// The trace itself is loaded separately from the `.iq` file.
///
/// Integer fields must be unsigned integers that fit their type, float
/// fields must be finite, `oversampling` must be at least 1, and no key may
/// repeat; any violation is an `InvalidData` error naming the field.
pub fn manifest_from_string(name: &str, text: &str) -> io::Result<GoldenFixture> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut fields = std::collections::HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| bad(format!("malformed manifest line: {line}")))?;
        if fields.insert(key, value).is_some() {
            return Err(bad(format!("duplicate manifest key {key}")));
        }
    }
    let get = |key: &str| -> io::Result<&str> {
        fields
            .get(key)
            .copied()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("missing {key}")))
    };
    // Generic over the field's type: the unsigned `FromStr`s reject
    // negatives, fractions, exponents and out-of-range values.
    fn parse<T: std::str::FromStr>(key: &str, value: &str) -> io::Result<T>
    where
        T::Err: std::fmt::Display,
    {
        value
            .parse::<T>()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad {key}: {e}")))
    }
    let int = |key: &str| -> io::Result<usize> { parse(key, get(key)?) };
    let float = |key: &str| -> io::Result<f64> {
        let value: f64 = parse(key, get(key)?)?;
        if !value.is_finite() {
            return Err(bad(format!("bad {key}: {value} is not finite")));
        }
        Ok(value)
    };
    if get("format")? != "saiyan-golden-v1" {
        return Err(bad("unsupported manifest format".to_string()));
    }
    let sf = SpreadingFactor::from_value(parse("sf", get("sf")?)?)
        .map_err(|e| bad(format!("bad sf: {e}")))?;
    let bw = Bandwidth::from_khz(parse("bw_khz", get("bw_khz")?)?)
        .map_err(|e| bad(format!("bad bw_khz: {e}")))?;
    let k = BitsPerChirp::new(parse("k", get("k")?)?).map_err(|e| bad(format!("bad k: {e}")))?;
    let oversampling: u32 = parse("oversampling", get("oversampling")?)?;
    if oversampling == 0 {
        return Err(bad("bad oversampling: must be at least 1".to_string()));
    }
    let lora = LoraParams::new(sf, bw, k)
        .with_oversampling(oversampling)
        .with_carrier(float("carrier_hz")?);
    let variant = match get("variant")? {
        "vanilla" => Variant::Vanilla,
        "shifting" => Variant::WithShifting,
        "super" => Variant::Super,
        other => return Err(bad(format!("unknown variant {other}"))),
    };
    // Every packet owns four `packetN.*` lines, so a count beyond them is
    // corrupt — and must not size an allocation.
    let n_packets = int("packets")?;
    if n_packets > fields.len() / 4 {
        return Err(bad(format!(
            "packets={n_packets} exceeds the packet entries present"
        )));
    }
    let mut truth = Vec::with_capacity(n_packets);
    for i in 0..n_packets {
        let symbols_key = format!("packet{i}.symbols");
        let symbols = get(&symbols_key)?
            .split(',')
            .map(|s| parse(&symbols_key, s))
            .collect::<io::Result<Vec<u32>>>()?;
        truth.push(TraceGroundTruth {
            packet_start_sample: int(&format!("packet{i}.packet_start"))?,
            payload_start_sample: int(&format!("packet{i}.payload_start"))?,
            symbols,
            rx_power_dbm: float(&format!("packet{i}.rx_power_dbm"))?,
        });
    }
    Ok(GoldenFixture {
        name: name.to_string(),
        lora,
        variant,
        trace: SampleBuffer::new(Vec::new(), lora.sample_rate()),
        truth,
    })
}

/// Writes a fixture's `.iq` and `.manifest` files into `dir`.
pub fn write_golden(dir: &Path, fixture: &GoldenFixture) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut iq = fs::File::create(dir.join(format!("{}.iq", fixture.name)))?;
    iq.write_all(&trace_to_bytes(&fixture.trace))?;
    let mut manifest = fs::File::create(dir.join(format!("{}.manifest", fixture.name)))?;
    manifest.write_all(manifest_to_string(fixture).as_bytes())?;
    Ok(())
}

/// Reads a fixture (manifest + IQ trace) back from `dir`.
pub fn read_golden(dir: &Path, name: &str) -> io::Result<GoldenFixture> {
    let manifest_text = fs::read_to_string(dir.join(format!("{name}.manifest")))?;
    let mut fixture = manifest_from_string(name, &manifest_text)?;
    let mut bytes = Vec::new();
    fs::File::open(dir.join(format!("{name}.iq")))?.read_to_end(&mut bytes)?;
    fixture.trace = trace_from_bytes(&bytes, fixture.lora.sample_rate())?;
    Ok(fixture)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lora() -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).expect("valid"),
        )
    }

    #[test]
    fn trace_layout_matches_ground_truth() {
        let config = LongTraceConfig::new(lora());
        let packets = vec![
            TracePacket::new(vec![0, 1, 2, 3], -50.0, 2.0),
            TracePacket::new(vec![3, 2], -55.0, 10.0),
        ];
        let (trace, truth) = generate_long_trace(&config, &packets);
        assert_eq!(truth.len(), 2);
        let sps = lora().samples_per_symbol();
        assert_eq!(truth[0].packet_start_sample, 2 * sps);
        // Preamble (10) + sync (2.25) ahead of the payload.
        assert_eq!(
            truth[0].payload_start_sample - truth[0].packet_start_sample,
            10 * sps + 2 * sps + sps / 4
        );
        // Second packet: first ends after its 4 payload symbols, then a
        // 10-symbol gap.
        let first_end = truth[0].payload_start_sample + 4 * sps;
        assert_eq!(truth[1].packet_start_sample, first_end + 10 * sps);
        // Gaps are silent on a clean channel.
        assert!(trace.samples[..2 * sps].iter().all(|s| s.abs() == 0.0));
        // Tail gap appended.
        let second_end = truth[1].payload_start_sample + 2 * sps;
        assert_eq!(trace.len(), second_end + 4 * sps);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let config = LongTraceConfig::new(lora()).with_noise(-80.0);
        let packets = vec![TracePacket::new(vec![0, 1], -50.0, 1.0)];
        let (a, _) = generate_long_trace(&config, &packets);
        let (b, _) = generate_long_trace(&config, &packets);
        assert_eq!(a, b);
        let mut other = config.clone();
        other.seed ^= 1;
        let (c, _) = generate_long_trace(&other, &packets);
        assert_ne!(a, c);
    }

    #[test]
    fn random_payloads_are_deterministic_and_in_alphabet() {
        let k = BitsPerChirp::new(3).expect("valid");
        let a = random_payloads(4, 6, k, 7);
        let b = random_payloads(4, 6, k, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert!(a.iter().flatten().all(|&s| s < 8));
        assert_ne!(random_payloads(4, 6, k, 8), a);
    }

    #[test]
    fn iq_round_trip_is_exact_at_f32() {
        let (trace, _) = generate_long_trace(
            &LongTraceConfig::new(lora()).with_noise(-85.0),
            &[TracePacket::new(vec![1, 3], -50.0, 1.0)],
        );
        let bytes = trace_to_bytes(&trace);
        let back = trace_from_bytes(&bytes, trace.sample_rate).unwrap();
        assert_eq!(back.len(), trace.len());
        for (a, b) in trace.samples.iter().zip(&back.samples) {
            assert_eq!(a.re as f32, b.re as f32);
            assert_eq!(b.re, (a.re as f32) as f64);
        }
        // Corrupt header and length are rejected.
        assert!(trace_from_bytes(&bytes[1..], 1.0).is_err());
        assert!(trace_from_bytes(&bytes[..bytes.len() - 3], 1.0).is_err());
    }

    #[test]
    fn manifest_round_trips() {
        for fixture in golden_fixture_set() {
            let text = manifest_to_string(&fixture);
            let back = manifest_from_string(&fixture.name, &text).unwrap();
            assert_eq!(back.lora, fixture.lora);
            assert_eq!(back.variant, fixture.variant);
            assert_eq!(back.truth, fixture.truth);
        }
    }

    #[test]
    fn hostile_packet_count_is_rejected_not_allocated() {
        let fixture = &golden_fixture_set()[0];
        let text = manifest_to_string(fixture);
        let duplicated = format!("{text}sf=8\n");
        // (line to corrupt, replacement, field the error must name)
        let cases = [
            ("packets=1\n", "packets=1e18\n", "packets"),
            ("carrier_hz=433500000\n", "carrier_hz=NaN\n", "carrier_hz"),
            ("carrier_hz=433500000\n", "carrier_hz=inf\n", "carrier_hz"),
            ("rx_power_dbm=-50\n", "rx_power_dbm=NaN\n", "rx_power_dbm"),
            ("oversampling=4\n", "oversampling=0\n", "oversampling"),
            ("sf=7\n", "sf=7.9\n", "sf"),
            ("sf=7\n", "sf=4294967303\n", "sf"),
            ("packet_start=1536\n", "packet_start=-5\n", "packet_start"),
            (
                "payload_start=7808\n",
                "payload_start=7e3\n",
                "payload_start",
            ),
            ("k=2\n", "k=258\n", "k"),
        ];
        let corrupted = cases.iter().map(|(from, to, field)| {
            assert!(text.contains(from), "fixture manifest lacks {from:?}");
            (text.replacen(from, to, 1), *field)
        });
        for (bad, field) in corrupted.chain([(duplicated, "sf")]) {
            let err = manifest_from_string(&fixture.name, &bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn golden_fixture_set_is_deterministic() {
        let a = golden_fixture_set();
        let b = golden_fixture_set();
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }
}
