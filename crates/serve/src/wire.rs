//! Wire formats: decoded packets out, IQ sample frames in.
//!
//! ## Packet egress
//!
//! Every decoded [`GatewayPacket`] leaves the daemon in two equivalent
//! encodings, both round-trippable:
//!
//! * **Length-prefixed binary** — a `u32` little-endian payload length
//!   followed by a fixed-layout payload (version byte, channel, timing,
//!   thresholds, then length-prefixed symbol/peak/score vectors, all
//!   little-endian). Floats are raw IEEE-754 bits, so the round trip is
//!   bit-exact. This is the compact format for high-rate consumers and
//!   archival; frames are self-delimiting so a reader can resynchronise a
//!   stream by scanning lengths.
//! * **JSONL** — one compact JSON object per line, human-greppable and
//!   loadable by any tooling. Finite floats round-trip exactly (the writer
//!   emits shortest round-trip decimals); non-finite values have no JSON
//!   representation and are rejected at encode time rather than silently
//!   corrupted.
//!
//! A packet with empty `symbols` is a *detection marker* ("something was on
//! the air"), emitted by the detection-only baseline backends; both formats
//! preserve it as such.
//!
//! ## Sample ingress
//!
//! Clients ship IQ capture chunks as interleaved `f32` little-endian I/Q
//! pairs — the same layout as the golden-trace `.iq` fixtures — via
//! [`samples_to_bytes`] / [`bytes_to_samples`]. The decoder tolerates
//! truncated frames (the complete leading samples are recovered, the
//! dangling tail is reported) so one malformed client write never poisons a
//! stream. The `_into` variants ([`samples_to_bytes_into`] /
//! [`bytes_to_samples_into`]) append to a caller-owned buffer, so hot
//! ingest loops convert whole frames without a per-frame allocation.

use lora_phy::iq::Iq;
use saiyan::gateway::GatewayPacket;
use saiyan::streaming::{DemodResult, Thresholds};

/// Binary format version tag.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a binary frame's payload length (bytes). A length prefix
/// beyond this is treated as corruption, not an allocation request.
pub const MAX_FRAME_BYTES: usize = 1 << 24;

/// Upper bound on any per-packet vector length (symbols, peaks, scores).
const MAX_VEC_LEN: usize = 1 << 20;

/// Decode-side failures. Encoding cannot fail except for non-finite floats
/// in the JSONL path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the structure it promised.
    Truncated,
    /// An unknown binary format version byte.
    BadVersion(u8),
    /// A structurally invalid field (oversized length, bad tag, bad JSON).
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::BadVersion(v) => write!(f, "unknown wire version {v}"),
            WireError::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

fn malformed(why: impl Into<String>) -> WireError {
    WireError::Malformed(why.into())
}

// ---------------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------------

/// Appends one packet as a length-prefixed binary frame.
pub fn encode_packet_binary(packet: &GatewayPacket, out: &mut Vec<u8>) {
    let len_pos = out.len();
    out.extend_from_slice(&[0; 4]); // patched below
    let start = out.len();
    out.push(WIRE_VERSION);
    out.push(packet.channel);
    let r = &packet.result;
    out.extend_from_slice(&(r.preamble_peaks as u32).to_le_bytes());
    out.extend_from_slice(&r.payload_start_time.to_le_bytes());
    out.extend_from_slice(&r.thresholds.high.to_le_bytes());
    out.extend_from_slice(&r.thresholds.low.to_le_bytes());
    out.extend_from_slice(&(r.symbols.len() as u32).to_le_bytes());
    for &s in &r.symbols {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out.extend_from_slice(&(r.peak_times.len() as u32).to_le_bytes());
    for t in &r.peak_times {
        match t {
            Some(t) => {
                out.push(1);
                out.extend_from_slice(&t.to_le_bytes());
            }
            None => out.push(0),
        }
    }
    out.extend_from_slice(&(r.correlation_scores.len() as u32).to_le_bytes());
    for &c in &r.correlation_scores {
        out.extend_from_slice(&c.to_le_bytes());
    }
    let len = (out.len() - start) as u32;
    out[len_pos..len_pos + 4].copy_from_slice(&len.to_le_bytes());
}

/// A little-endian cursor over a binary frame payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn vec_len(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_VEC_LEN {
            return Err(malformed(format!("vector length {n} exceeds cap")));
        }
        Ok(n)
    }
}

/// Decodes one length-prefixed binary frame from the front of `bytes`.
/// Returns the packet and the total bytes consumed (prefix + payload), so a
/// caller can iterate a concatenated stream.
pub fn decode_packet_binary(bytes: &[u8]) -> Result<(GatewayPacket, usize), WireError> {
    let prefix = bytes.get(..4).ok_or(WireError::Truncated)?;
    let len = u32::from_le_bytes(prefix.try_into().expect("4")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(malformed(format!("frame length {len} exceeds cap")));
    }
    let payload = bytes.get(4..4 + len).ok_or(WireError::Truncated)?;
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
    };
    let version = c.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let channel = c.u8()?;
    let preamble_peaks = c.u32()? as usize;
    let payload_start_time = c.f64()?;
    let high = c.f64()?;
    let low = c.f64()?;
    let n = c.vec_len()?;
    let mut symbols = Vec::with_capacity(n);
    for _ in 0..n {
        symbols.push(c.u32()?);
    }
    let n = c.vec_len()?;
    let mut peak_times = Vec::with_capacity(n);
    for _ in 0..n {
        peak_times.push(match c.u8()? {
            0 => None,
            1 => Some(c.f64()?),
            tag => return Err(malformed(format!("bad peak-time tag {tag}"))),
        });
    }
    let n = c.vec_len()?;
    let mut correlation_scores = Vec::with_capacity(n);
    for _ in 0..n {
        correlation_scores.push(c.f64()?);
    }
    if c.pos != payload.len() {
        return Err(malformed("trailing bytes inside frame"));
    }
    Ok((
        GatewayPacket {
            channel,
            result: DemodResult {
                symbols,
                peak_times,
                correlation_scores,
                payload_start_time,
                preamble_peaks,
                thresholds: Thresholds { high, low },
            },
        },
        4 + len,
    ))
}

/// Decodes a whole concatenated binary stream into packets.
pub fn decode_binary_stream(mut bytes: &[u8]) -> Result<Vec<GatewayPacket>, WireError> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let (packet, consumed) = decode_packet_binary(bytes)?;
        out.push(packet);
        bytes = &bytes[consumed..];
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// JSONL format
// ---------------------------------------------------------------------------

/// Encodes one packet as a single JSON line (no trailing newline).
/// Fails if any float is non-finite — JSON cannot represent those, and
/// silently writing `null` would break the round trip.
pub fn encode_packet_jsonl(packet: &GatewayPacket) -> Result<String, WireError> {
    let r = &packet.result;
    let floats_finite = r.payload_start_time.is_finite()
        && r.thresholds.high.is_finite()
        && r.thresholds.low.is_finite()
        && r.peak_times.iter().flatten().all(|t| t.is_finite())
        && r.correlation_scores.iter().all(|c| c.is_finite());
    if !floats_finite {
        return Err(malformed("non-finite float has no JSON representation"));
    }
    let peak_times: Vec<serde_json::Value> = r
        .peak_times
        .iter()
        .map(|t| serde_json::Value::from(*t))
        .collect();
    let value = serde_json::json!({
        "channel": packet.channel,
        "payload_start_time": r.payload_start_time,
        "preamble_peaks": r.preamble_peaks,
        "threshold_high": r.thresholds.high,
        "threshold_low": r.thresholds.low,
        "symbols": r.symbols.clone(),
        "peak_times": serde_json::Value::Array(peak_times),
        "correlation_scores": r.correlation_scores.clone(),
    });
    serde_json::to_string(&value).map_err(|e| malformed(e.to_string()))
}

fn field<'v>(value: &'v serde_json::Value, key: &str) -> Result<&'v serde_json::Value, WireError> {
    value
        .get(key)
        .ok_or_else(|| malformed(format!("missing field '{key}'")))
}

fn f64_field(value: &serde_json::Value, key: &str) -> Result<f64, WireError> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| malformed(format!("field '{key}' is not a number")))
}

/// Decodes one JSONL line back into a packet.
pub fn decode_packet_jsonl(line: &str) -> Result<GatewayPacket, WireError> {
    let value = serde_json::from_str(line.trim()).map_err(|e| malformed(e.to_string()))?;
    let channel = field(&value, "channel")?
        .as_u64()
        .and_then(|c| u8::try_from(c).ok())
        .ok_or_else(|| malformed("field 'channel' is not a u8"))?;
    let symbols = field(&value, "symbols")?
        .as_array()
        .ok_or_else(|| malformed("field 'symbols' is not an array"))?
        .iter()
        .map(|s| {
            s.as_u64()
                .and_then(|s| u32::try_from(s).ok())
                .ok_or_else(|| malformed("symbol is not a u32"))
        })
        .collect::<Result<Vec<u32>, WireError>>()?;
    let peak_times = field(&value, "peak_times")?
        .as_array()
        .ok_or_else(|| malformed("field 'peak_times' is not an array"))?
        .iter()
        .map(|t| {
            if t.is_null() {
                Ok(None)
            } else {
                t.as_f64()
                    .map(Some)
                    .ok_or_else(|| malformed("peak time is not a number"))
            }
        })
        .collect::<Result<Vec<Option<f64>>, WireError>>()?;
    let correlation_scores = field(&value, "correlation_scores")?
        .as_array()
        .ok_or_else(|| malformed("field 'correlation_scores' is not an array"))?
        .iter()
        .map(|c| {
            c.as_f64()
                .ok_or_else(|| malformed("correlation score is not a number"))
        })
        .collect::<Result<Vec<f64>, WireError>>()?;
    let preamble_peaks = field(&value, "preamble_peaks")?
        .as_u64()
        .ok_or_else(|| malformed("field 'preamble_peaks' is not an integer"))?
        as usize;
    Ok(GatewayPacket {
        channel,
        result: DemodResult {
            symbols,
            peak_times,
            correlation_scores,
            payload_start_time: f64_field(&value, "payload_start_time")?,
            preamble_peaks,
            thresholds: Thresholds {
                high: f64_field(&value, "threshold_high")?,
                low: f64_field(&value, "threshold_low")?,
            },
        },
    })
}

/// Decodes a whole JSONL document (one packet per non-empty line).
pub fn decode_jsonl_stream(text: &str) -> Result<Vec<GatewayPacket>, WireError> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(decode_packet_jsonl)
        .collect()
}

// ---------------------------------------------------------------------------
// IQ sample framing (ingress)
// ---------------------------------------------------------------------------

/// Bytes per IQ sample on the ingest wire (two little-endian `f32`s).
pub const BYTES_PER_SAMPLE: usize = 8;

/// Serialises samples as interleaved `f32` little-endian I/Q pairs — the
/// golden-trace `.iq` layout.
pub fn samples_to_bytes(samples: &[Iq]) -> Vec<u8> {
    let mut out = Vec::with_capacity(samples.len() * BYTES_PER_SAMPLE);
    samples_to_bytes_into(samples, &mut out);
    out
}

/// Appends the wire encoding of `samples` to `out` as one block write: the
/// buffer is sized up front and filled through `chunks_exact_mut`, so the
/// serialiser runs without per-float capacity checks. Byte-identical to
/// [`samples_to_bytes`].
pub fn samples_to_bytes_into(samples: &[Iq], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + samples.len() * BYTES_PER_SAMPLE, 0);
    for (chunk, s) in out[start..].chunks_exact_mut(BYTES_PER_SAMPLE).zip(samples) {
        chunk[..4].copy_from_slice(&(s.re as f32).to_le_bytes());
        chunk[4..].copy_from_slice(&(s.im as f32).to_le_bytes());
    }
}

/// Parses an ingest byte frame into samples. A length that is not a whole
/// number of samples is tolerated: the complete leading samples are
/// returned together with the count of dangling tail bytes (0 for a
/// well-formed frame), which the daemon surfaces as a malformed-frame
/// telemetry counter.
pub fn bytes_to_samples(bytes: &[u8]) -> (Vec<Iq>, usize) {
    let mut samples = Vec::new();
    let dangling = bytes_to_samples_into(bytes, &mut samples);
    (samples, dangling)
}

/// Appends the samples encoded in `bytes` to `out` and returns the count of
/// dangling tail bytes. The block variant of [`bytes_to_samples`]: capacity
/// is reserved once and the frame is walked with `chunks_exact`, letting a
/// caller reuse one ingest buffer across frames instead of allocating per
/// frame.
pub fn bytes_to_samples_into(bytes: &[u8], out: &mut Vec<Iq>) -> usize {
    let whole = bytes.len() / BYTES_PER_SAMPLE;
    out.reserve(whole);
    out.extend(bytes.chunks_exact(BYTES_PER_SAMPLE).map(|chunk| {
        let re = f32::from_le_bytes(chunk[..4].try_into().expect("4")) as f64;
        let im = f32::from_le_bytes(chunk[4..].try_into().expect("4")) as f64;
        Iq { re, im }
    }));
    bytes.len() - whole * BYTES_PER_SAMPLE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet() -> GatewayPacket {
        GatewayPacket {
            channel: 3,
            result: DemodResult {
                symbols: vec![0, 3, 1, 2],
                peak_times: vec![Some(0.001_25), None, Some(1.0 / 3.0), None],
                correlation_scores: vec![0.97, -0.12],
                payload_start_time: 0.042_424_242_424_242_42,
                preamble_peaks: 7,
                thresholds: Thresholds {
                    high: 1.5e-3,
                    low: 7.3e-4,
                },
            },
        }
    }

    fn detection_marker() -> GatewayPacket {
        GatewayPacket {
            channel: 0,
            result: DemodResult {
                symbols: Vec::new(),
                peak_times: Vec::new(),
                correlation_scores: Vec::new(),
                payload_start_time: 1.25,
                preamble_peaks: 0,
                thresholds: Thresholds {
                    high: 0.0,
                    low: 0.0,
                },
            },
        }
    }

    #[test]
    fn binary_round_trips_bit_exactly() {
        for packet in [sample_packet(), detection_marker()] {
            let mut bytes = Vec::new();
            encode_packet_binary(&packet, &mut bytes);
            let (back, consumed) = decode_packet_binary(&bytes).unwrap();
            assert_eq!(consumed, bytes.len());
            assert_eq!(back, packet);
        }
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        for packet in [sample_packet(), detection_marker()] {
            let line = encode_packet_jsonl(&packet).unwrap();
            assert!(!line.contains('\n'));
            assert_eq!(decode_packet_jsonl(&line).unwrap(), packet);
        }
    }

    #[test]
    fn concatenated_streams_decode_in_order() {
        let packets = vec![sample_packet(), detection_marker(), sample_packet()];
        let mut bytes = Vec::new();
        let mut jsonl = String::new();
        for p in &packets {
            encode_packet_binary(p, &mut bytes);
            jsonl.push_str(&encode_packet_jsonl(p).unwrap());
            jsonl.push('\n');
        }
        assert_eq!(decode_binary_stream(&bytes).unwrap(), packets);
        assert_eq!(decode_jsonl_stream(&jsonl).unwrap(), packets);
    }

    #[test]
    fn truncated_binary_frames_error_cleanly() {
        let mut bytes = Vec::new();
        encode_packet_binary(&sample_packet(), &mut bytes);
        for cut in [0, 1, 3, 4, 5, bytes.len() - 1] {
            assert_eq!(
                decode_packet_binary(&bytes[..cut]).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn hostile_length_prefixes_are_rejected_without_allocating() {
        let mut bytes = (u32::MAX).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 64]);
        assert!(matches!(
            decode_packet_binary(&bytes).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn bad_version_and_bad_tag_are_diagnosed() {
        let mut bytes = Vec::new();
        encode_packet_binary(&sample_packet(), &mut bytes);
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert_eq!(
            decode_packet_binary(&wrong_version).unwrap_err(),
            WireError::BadVersion(9)
        );
    }

    #[test]
    fn non_finite_floats_are_rejected_by_jsonl_encode() {
        let mut packet = sample_packet();
        packet.result.payload_start_time = f64::NAN;
        assert!(encode_packet_jsonl(&packet).is_err());
    }

    #[test]
    fn sample_framing_recovers_whole_samples_from_truncated_frames() {
        let samples = vec![
            Iq { re: 0.5, im: -0.25 },
            Iq { re: 1.0, im: 2.0 },
            Iq {
                re: -3.5,
                im: 0.125,
            },
        ];
        let bytes = samples_to_bytes(&samples);
        let (back, dangling) = bytes_to_samples(&bytes);
        assert_eq!(back, samples);
        assert_eq!(dangling, 0);
        let (back, dangling) = bytes_to_samples(&bytes[..bytes.len() - 3]);
        assert_eq!(back, samples[..2], "partial tail sample dropped");
        assert_eq!(dangling, 5);
    }

    #[test]
    fn into_variants_append_and_match_the_allocating_forms() {
        let samples = vec![
            Iq { re: 0.5, im: -0.25 },
            Iq { re: 1.0, im: 2.0 },
            Iq {
                re: -3.5,
                im: 0.125,
            },
        ];
        // Encoder: appends after existing content, byte-identical payload.
        let mut bytes = vec![0xAA, 0xBB];
        samples_to_bytes_into(&samples, &mut bytes);
        assert_eq!(&bytes[..2], &[0xAA, 0xBB]);
        assert_eq!(&bytes[2..], samples_to_bytes(&samples));
        // Decoder: appends after existing content, reports the tail, and a
        // reused buffer sees only the new frame after clear().
        let mut out = vec![Iq::ZERO];
        let dangling = bytes_to_samples_into(&bytes[2..], &mut out);
        assert_eq!(dangling, 0);
        assert_eq!(out[0], Iq::ZERO);
        assert_eq!(out[1..], samples);
        out.clear();
        let dangling = bytes_to_samples_into(&bytes[2..bytes.len() - 3], &mut out);
        assert_eq!(out, samples[..2]);
        assert_eq!(dangling, 5);
    }
}
