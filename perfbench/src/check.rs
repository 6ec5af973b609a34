//! Output checks: decoded packets against the generator's ground truth, and
//! engine reports against stored references.

use std::collections::BTreeMap;

use netsim::engine::EngineReport;

/// One packet the generator put on the air.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub channel: u8,
    /// Payload start, seconds from the start of the stream.
    pub payload_start_s: f64,
    pub symbols: Vec<u32>,
}

/// One packet a receiver delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivered {
    pub channel: u8,
    pub payload_start_s: f64,
    pub symbols: Vec<u32>,
}

/// Result of matching delivered packets to the ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketCheck {
    /// Packets the generator sent.
    pub attempted: u64,
    /// Sent packets not delivered with every symbol right.
    pub failed: u64,
    /// Delivered packets that match no sent packet.
    pub spurious: u64,
    /// For each delivered packet, the sent packet it was matched to.
    pub matches: Vec<Option<usize>>,
}

/// Matches delivered packets to sent ones: same channel, payload start within
/// `tolerance_s`, each sent packet claimed at most once. A sent packet counts
/// as delivered only when its symbols are all right.
pub fn check_packets(
    expected: &[Expected],
    delivered: &[Delivered],
    tolerance_s: f64,
) -> PacketCheck {
    let mut order: Vec<usize> = (0..expected.len()).collect();
    order.sort_by(|&a, &b| {
        expected[a]
            .payload_start_s
            .total_cmp(&expected[b].payload_start_s)
    });
    let starts: Vec<f64> = order.iter().map(|&i| expected[i].payload_start_s).collect();
    let mut claimed = vec![false; expected.len()];
    let mut ok = vec![false; expected.len()];
    let mut matches = Vec::with_capacity(delivered.len());
    let mut spurious = 0;
    for d in delivered {
        let lo = starts.partition_point(|&s| s < d.payload_start_s - tolerance_s);
        let found = order[lo..]
            .iter()
            .take_while(|&&i| expected[i].payload_start_s <= d.payload_start_s + tolerance_s)
            .copied()
            .find(|&i| !claimed[i] && expected[i].channel == d.channel);
        match found {
            Some(i) => {
                claimed[i] = true;
                ok[i] = expected[i].symbols == d.symbols;
                matches.push(Some(i));
            }
            None => {
                spurious += 1;
                matches.push(None);
            }
        }
    }
    PacketCheck {
        attempted: expected.len() as u64,
        failed: ok.iter().filter(|&&o| !o).count() as u64,
        spurious,
        matches,
    }
}

/// What a reference keeps of an [`EngineReport`]: every counter, and the
/// delivery-latency samples as a histogram plus an exact checksum.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDigest {
    pub fields: BTreeMap<String, String>,
    /// Delivery latencies counted per millisecond bin.
    pub latency_ms_hist: BTreeMap<i64, u64>,
}

impl ReportDigest {
    pub fn of(r: &EngineReport) -> Self {
        let mut fields = BTreeMap::new();
        let mut put = |k: &str, v: String| {
            fields.insert(k.to_string(), v);
        };
        put("policy", r.policy.clone());
        put("tags", r.tags.to_string());
        put("channels", r.channels.to_string());
        put("readings_generated", r.readings_generated.to_string());
        put("readings_delivered", r.readings_delivered.to_string());
        put("duplicates", r.duplicates.to_string());
        put("detections", r.detections.to_string());
        put("uplink_transmissions", r.uplink_transmissions.to_string());
        put(
            "suppressed_transmissions",
            r.suppressed_transmissions.to_string(),
        );
        put("collisions", r.collisions.to_string());
        put("downlink_commands", r.downlink_commands.to_string());
        put(
            "retransmission_requests",
            r.retransmission_requests.to_string(),
        );
        put("channel_hops", r.channel_hops.to_string());
        put(
            "delivered_payload_bits",
            r.delivered_payload_bits.to_string(),
        );
        put(
            "energy_bits",
            format!("{:016x}", r.tag_demodulation_energy_j.to_bits()),
        );
        put("duration_bits", format!("{:016x}", r.duration_s.to_bits()));
        put("latency_count", r.latencies_s.len().to_string());
        put(
            "latency_checksum",
            format!("{:016x}", latency_checksum(&r.latencies_s)),
        );
        let mut latency_ms_hist = BTreeMap::new();
        for &l in &r.latencies_s {
            *latency_ms_hist.entry((l * 1e3).floor() as i64).or_insert(0) += 1;
        }
        ReportDigest {
            fields,
            latency_ms_hist,
        }
    }

    fn count(&self, key: &str) -> u64 {
        self.fields
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    /// Readings whose delivery differs between two digests of the same
    /// scenario: the change in delivered readings, or the latency samples
    /// that moved between millisecond bins, whichever is larger; at least
    /// one when anything else differs.
    pub fn readings_differing(&self, other: &ReportDigest) -> u64 {
        if self == other {
            return 0;
        }
        let delivered = self
            .count("readings_delivered")
            .abs_diff(other.count("readings_delivered"));
        let mut moved = 0u64;
        let bins: std::collections::BTreeSet<_> = self
            .latency_ms_hist
            .keys()
            .chain(other.latency_ms_hist.keys())
            .collect();
        for b in bins {
            let x = self.latency_ms_hist.get(b).copied().unwrap_or(0);
            let y = other.latency_ms_hist.get(b).copied().unwrap_or(0);
            moved += x.abs_diff(y);
        }
        delivered.max(moved.div_ceil(2)).max(1)
    }

    /// Serialises the digest as `key value` lines.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.fields {
            s.push_str(&format!("{k} {v}\n"));
        }
        let hist: Vec<String> = self
            .latency_ms_hist
            .iter()
            .map(|(b, c)| format!("{b}:{c}"))
            .collect();
        s.push_str(&format!("latency_ms_hist {}\n", hist.join(",")));
        s
    }

    /// Parses [`Self::to_text`] output.
    pub fn from_text(text: &str) -> Option<Self> {
        let mut fields = BTreeMap::new();
        let mut latency_ms_hist = BTreeMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let (k, v) = line.split_once(' ').unwrap_or((line, ""));
            if k == "latency_ms_hist" {
                for pair in v.split(',').filter(|p| !p.is_empty()) {
                    let (b, c) = pair.split_once(':')?;
                    latency_ms_hist.insert(b.parse().ok()?, c.parse().ok()?);
                }
            } else {
                fields.insert(k.to_string(), v.to_string());
            }
        }
        Some(ReportDigest {
            fields,
            latency_ms_hist,
        })
    }
}

/// FNV-1a over the latency samples' bit patterns, in report order.
fn latency_checksum(latencies: &[f64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for l in latencies {
        for b in l.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// A reference file: one digest per scenario seed, in blocks headed
/// `[seed <hex>]`. A malformed block is an error, not a missing reference.
pub fn parse_references(text: &str) -> Result<BTreeMap<u64, ReportDigest>, String> {
    let mut out = BTreeMap::new();
    for block in text.split("[seed ").skip(1) {
        let (head, body) = block
            .split_once(']')
            .ok_or_else(|| format!("unclosed block header {:?}", block.lines().next()))?;
        let seed = u64::from_str_radix(head.trim().trim_start_matches("0x"), 16)
            .map_err(|e| format!("block header {head:?}: {e}"))?;
        let digest = ReportDigest::from_text(body)
            .ok_or_else(|| format!("seed {seed:#x}: malformed digest"))?;
        if out.insert(seed, digest).is_some() {
            return Err(format!("seed {seed:#x} appears twice"));
        }
    }
    Ok(out)
}

/// Renders digests in the format [`parse_references`] reads.
pub fn render_references(digests: &[(u64, ReportDigest)]) -> String {
    digests
        .iter()
        .map(|(seed, d)| format!("[seed {seed:#x}]\n{}", d.to_text()))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> Vec<Expected> {
        (0..6)
            .map(|i| Expected {
                channel: (i % 2) as u8,
                payload_start_s: 0.01 * i as f64,
                symbols: vec![i as u32 % 4, 1, 2, 3],
            })
            .collect()
    }

    fn delivered_from(truth: &[Expected]) -> Vec<Delivered> {
        truth
            .iter()
            .map(|e| Delivered {
                channel: e.channel,
                payload_start_s: e.payload_start_s + 1e-5,
                symbols: e.symbols.clone(),
            })
            .collect()
    }

    #[test]
    fn exact_delivery_passes() {
        let t = truth();
        let c = check_packets(&t, &delivered_from(&t), 1e-3);
        assert_eq!((c.failed, c.spurious), (0, 0));
        assert_eq!(c.attempted, 6);
        assert_eq!(c.matches[3], Some(3));
    }

    #[test]
    fn a_one_symbol_change_is_caught() {
        let t = truth();
        let mut d = delivered_from(&t);
        d[4].symbols[2] ^= 1;
        let c = check_packets(&t, &d, 1e-3);
        assert_eq!(c.failed, 1);
        assert_eq!(c.spurious, 0);
    }

    #[test]
    fn missing_wrong_channel_and_extra_packets_are_counted() {
        let t = truth();
        let mut d = delivered_from(&t);
        d.remove(0);
        d[0].channel = 7;
        d.push(Delivered {
            channel: 0,
            payload_start_s: 5.0,
            symbols: vec![0],
        });
        let c = check_packets(&t, &d, 1e-3);
        assert_eq!(c.failed, 2);
        assert_eq!(c.spurious, 2);
    }

    fn report() -> EngineReport {
        EngineReport {
            policy: "aloha".into(),
            readings_generated: 10,
            readings_delivered: 8,
            uplink_transmissions: 12,
            latencies_s: vec![0.010, 0.011, 0.020, 0.030, 0.031, 0.032, 0.040, 0.050],
            duration_s: 1.5,
            ..EngineReport::default()
        }
    }

    #[test]
    fn reference_round_trips_through_text() {
        let d = ReportDigest::of(&report());
        let text = render_references(&[(0x5A1A, d.clone())]);
        let parsed = parse_references(&text).expect("well-formed");
        assert_eq!(parsed[&0x5A1A], d);
        assert_eq!(d.readings_differing(&parsed[&0x5A1A]), 0);
    }

    #[test]
    fn malformed_references_are_errors() {
        let good = render_references(&[(0x5A1A, ReportDigest::of(&report()))]);
        assert!(parse_references(&good.replace("[seed 0x5a1a]", "[seed 0x5a1a")).is_err());
        assert!(parse_references(&good.replace("0x5a1a", "0xzz")).is_err());
        assert!(
            parse_references(&good.replace("latency_ms_hist 10", "latency_ms_hist x")).is_err()
        );
        assert!(parse_references(&format!("{good}\n{good}")).is_err());
    }

    #[test]
    fn reference_check_catches_one_changed_reading() {
        let reference = ReportDigest::of(&report());
        let mut moved = report();
        moved.latencies_s[7] = 0.060;
        assert_eq!(ReportDigest::of(&moved).readings_differing(&reference), 1);
        let mut lost = report();
        lost.readings_delivered -= 1;
        lost.latencies_s.pop();
        assert_eq!(ReportDigest::of(&lost).readings_differing(&reference), 1);
        let mut reordered = report();
        reordered.latencies_s.swap(0, 1);
        assert_eq!(
            ReportDigest::of(&reordered).readings_differing(&reference),
            1
        );
    }
}
