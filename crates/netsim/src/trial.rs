//! Monte-Carlo packet trials.
//!
//! Two levels of fidelity are available:
//!
//! * **Link abstraction** ([`run_link_trials`]): per-bit coin flips against
//!   the calibrated RSS→BER model. This is what the big evaluation sweeps use
//!   (the paper itself sends 1,000 packets × 100 repetitions per point).
//! * **Waveform level** ([`run_waveform_trials`]): packet synthesis at the
//!   scenario's RSS plus thermal noise → Saiyan receiver (packet detection
//!   included), used by micro-benchmarks and to sanity-check the
//!   abstraction on a few points.

use lora_phy::downlink::bytes_to_symbols;
use lora_phy::iq::SampleBuffer;
use lora_phy::params::LoraParams;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use saiyan::config::SaiyanConfig;
use saiyan::metrics::ErrorCounts;
use saiyan::streaming::StreamingDemodulator;

use crate::longtrace::{generate_long_trace, LongTraceConfig, TraceGroundTruth, TracePacket};
use crate::scenario::Scenario;

/// Configuration of a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialConfig {
    /// Number of packets per run.
    pub packets: usize,
    /// Payload symbols per packet (the paper uses 32 chirps).
    pub payload_symbols: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig {
            packets: 1000,
            payload_symbols: 32,
            seed: 0xCAFE,
        }
    }
}

/// Runs link-abstraction trials: every transmitted bit is flipped with the
/// scenario's BER, and packets/symbols/bits are tallied.
pub fn run_link_trials(scenario: &Scenario, config: &TrialConfig) -> ErrorCounts {
    let ber = scenario.ber();
    let k = scenario.lora.bits_per_chirp.bits() as u32;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut counts = ErrorCounts::default();
    for _ in 0..config.packets {
        let sent: Vec<u32> = (0..config.payload_symbols)
            .map(|_| rng.gen_range(0..scenario.lora.bits_per_chirp.alphabet_size()))
            .collect();
        let received: Vec<u32> = sent
            .iter()
            .map(|&s| {
                let mut v = s;
                for bit in 0..k {
                    if rng.gen::<f64>() < ber {
                        v ^= 1 << bit;
                    }
                }
                v
            })
            .collect();
        counts.add_packet(&sent, &received, k);
    }
    counts
}

/// Silence on each side of a waveform trial's packet, in symbols.
const TRIAL_GUARD_SYMBOLS: f64 = 2.0;

/// The capture one waveform trial decodes: `symbols` at the scenario's
/// effective RSS between silent guards of [`TRIAL_GUARD_SYMBOLS`], plus the
/// scenario's thermal noise drawn from `noise_seed` (`None`: noiseless).
/// Built by [`generate_long_trace`], so the RSS is the packet's own mean
/// power, guards excluded.
fn trial_capture(
    scenario: &Scenario,
    lora: LoraParams,
    symbols: Vec<u32>,
    noise_seed: Option<u64>,
) -> (SampleBuffer, TraceGroundTruth) {
    let config = LongTraceConfig {
        lora,
        noise_power_dbm: noise_seed.map(|_| scenario.noise_model().noise_power().value()),
        seed: noise_seed.unwrap_or_default(),
        tail_gap_symbols: TRIAL_GUARD_SYMBOLS,
    };
    let packet = TracePacket::new(
        symbols,
        scenario.effective_rss().value(),
        TRIAL_GUARD_SYMBOLS,
    );
    let (rx, mut truth) = generate_long_trace(&config, &[packet]);
    (rx, truth.remove(0))
}

/// Runs waveform-level trials through the full Saiyan receiver. Each packet
/// is a capture of its own: the packet at the scenario's effective RSS (its
/// mean power, guards excluded) between 2-symbol silent guards, plus thermal
/// noise. A fresh [`StreamingDemodulator`] decodes it and has to find the
/// preamble itself. A packet with no decode within one symbol of its true
/// payload start is lost ([`ErrorCounts::packets_lost`]); the others count
/// their symbol errors. Slow; keep `config.packets` small.
pub fn run_waveform_trials(
    scenario: &Scenario,
    saiyan_config: &SaiyanConfig,
    config: &TrialConfig,
) -> ErrorCounts {
    let t_sym = saiyan_config.lora.symbol_duration();
    let k = saiyan_config.lora.bits_per_chirp;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut counts = ErrorCounts::default();

    for trial in 0..config.packets {
        let payload: Vec<u8> = (0..(config.payload_symbols * k.bits() as usize).div_ceil(8))
            .map(|_| rng.gen())
            .collect();
        let symbols: Vec<u32> = bytes_to_symbols(&payload, k)
            .into_iter()
            .take(config.payload_symbols)
            .collect();
        let noise_seed = config.seed ^ (trial as u64).wrapping_mul(0x9E37_79B9);
        let (rx, truth) = trial_capture(scenario, saiyan_config.lora, symbols, Some(noise_seed));

        let truth_time = truth.payload_start_sample as f64 / rx.sample_rate;
        let decoded = StreamingDemodulator::new(saiyan_config.clone(), truth.symbols.len())
            .run_to_end(&rx)
            .into_iter()
            .find(|r| (r.payload_start_time - truth_time).abs() < t_sym);
        match decoded {
            Some(result) => counts.add_packet(&truth.symbols, &result.symbols, k.bits() as u32),
            None => counts.add_lost_packet(truth.symbols.len(), k.bits() as u32),
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::iq::Iq;
    use rfsim::channel::buffer_power_dbm;
    use rfsim::units::Meters;
    use saiyan::config::Variant;

    #[test]
    fn trial_capture_packet_power_is_the_scenario_rss() {
        // The RSS is the packet's mean power: the silent guards do not
        // dilute it. Scaling the guarded buffer to the RSS would put the
        // packet 0.58 dB high at 16 payload symbols and 0.38 dB at 32.
        let scenario = Scenario::outdoor_default(Meters(25.0));
        let lora = scenario.lora.with_oversampling(8);
        let sps = lora.samples_per_symbol();
        for payload_symbols in [16usize, 32] {
            let symbols = (0..payload_symbols as u32).map(|i| i % 4).collect();
            let (rx, truth) = trial_capture(&scenario, lora, symbols, None);
            let start = truth.packet_start_sample;
            let end = truth.payload_start_sample + payload_symbols * sps;
            assert_eq!(start, 2 * sps);
            assert_eq!(rx.len(), end + 2 * sps);
            assert!(rx.samples[..start].iter().all(|s| *s == Iq::ZERO));
            assert!(rx.samples[end..].iter().all(|s| *s == Iq::ZERO));
            let span = SampleBuffer::new(rx.samples[start..end].to_vec(), rx.sample_rate);
            let error_db = buffer_power_dbm(&span).value() - scenario.effective_rss().value();
            assert!(
                error_db.abs() < 0.01,
                "{payload_symbols} symbols: {error_db} dB"
            );
        }
    }

    #[test]
    fn link_trials_match_configured_ber() {
        let scenario = Scenario::outdoor_default(Meters(120.0));
        let expected = scenario.ber();
        let counts = run_link_trials(
            &scenario,
            &TrialConfig {
                packets: 2000,
                payload_symbols: 32,
                seed: 1,
            },
        );
        let measured = counts.ber();
        assert!(
            (measured - expected).abs() < expected * 0.3 + 2e-4,
            "measured {measured} expected {expected}"
        );
    }

    #[test]
    fn link_trials_near_are_clean_and_far_are_noisy() {
        let near = run_link_trials(
            &Scenario::outdoor_default(Meters(10.0)),
            &TrialConfig {
                packets: 200,
                payload_symbols: 32,
                seed: 2,
            },
        );
        let far = run_link_trials(
            &Scenario::outdoor_default(Meters(400.0)),
            &TrialConfig {
                packets: 200,
                payload_symbols: 32,
                seed: 2,
            },
        );
        assert!(near.ber() < 1e-3);
        assert!(far.ber() > 0.2);
        assert!(near.prr() > 0.9);
        assert!(far.prr() < 0.1);
    }

    #[test]
    fn trials_are_reproducible_from_seed() {
        let scenario = Scenario::outdoor_default(Meters(140.0));
        let cfg = TrialConfig {
            packets: 300,
            payload_symbols: 16,
            seed: 77,
        };
        let a = run_link_trials(&scenario, &cfg);
        let b = run_link_trials(&scenario, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn waveform_trials_decode_cleanly_at_short_range() {
        let scenario = Scenario::outdoor_default(Meters(10.0));
        let lora = scenario.lora.with_oversampling(8);
        let saiyan_config = SaiyanConfig::paper_default(lora, Variant::WithShifting);
        let counts = run_waveform_trials(
            &scenario,
            &saiyan_config,
            &TrialConfig {
                packets: 3,
                payload_symbols: 16,
                seed: 5,
            },
        );
        assert_eq!(counts.packets_total, 3);
        assert_eq!(counts.packets_lost, 0);
        assert!(counts.ber() < 0.05, "waveform BER {}", counts.ber());
    }

    #[test]
    fn waveform_trials_report_vanilla_detection_loss_at_minus_60_dbm() {
        let template = Scenario::outdoor_default(Meters(1.0));
        let distance = crate::range::detection_range(&template, rfsim::units::Dbm(-60.0));
        let scenario = template.with_distance(distance);
        let lora = scenario.lora.with_oversampling(8);
        let counts = run_waveform_trials(
            &scenario,
            &SaiyanConfig::paper_default(lora, Variant::Vanilla),
            &TrialConfig {
                packets: 3,
                payload_symbols: 16,
                seed: 5,
            },
        );
        assert_eq!(counts.packets_total, 3);
        assert!(counts.packets_lost > 0, "{counts:?}");
    }
}
