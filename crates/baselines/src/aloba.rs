//! Aloba baseline (Guo et al., SenSys 2020), re-implemented as in §5.1.3.
//!
//! Aloba tags feed the incident signal into a moving-average filter and look
//! for the characteristic RSSI pattern of the LoRa preamble — a sustained
//! plateau of elevated energy lasting ten symbol times. Like PLoRa, Aloba can
//! only detect packets, not demodulate them; its OOK-style uplink is also less
//! noise-tolerant than PLoRa's chirp-reflecting uplink, which Fig. 2 shows.

use lora_phy::iq::SampleBuffer;
use lora_phy::params::{LoraParams, PREAMBLE_UPCHIRPS};
use rfsim::units::{Db, Dbm};

use crate::detector::PacketDetector;
use crate::plora::uplink_ber;

/// Calibrated detection sensitivity of the Aloba detector: a 30.6 m outdoor
/// detection range (Fig. 21) corresponds to roughly −58.6 dBm at the tag.
pub const ALOBA_DETECTION_SENSITIVITY_DBM: f64 = -58.6;

/// SNR at which the access point decodes the Aloba (OOK) backscatter uplink
/// with BER = 1 ‰.
pub const ALOBA_UPLINK_SNR_THRESHOLD_DB: f64 = -8.0;

/// Residual uplink BER floor for Aloba.
pub const ALOBA_UPLINK_BER_FLOOR: f64 = 1.0e-4;

/// The Aloba tag's packet-detection module.
#[derive(Debug, Clone)]
pub struct AlobaDetector {
    /// PHY parameters of the signal being detected.
    pub params: LoraParams,
    /// Length of the moving-average window, as a fraction of one symbol.
    pub window_fraction: f64,
    /// The averaged RSSI must exceed the capture's noise baseline by this
    /// factor, for at least the preamble duration, to declare a packet.
    pub plateau_factor: f64,
}

impl AlobaDetector {
    /// Creates a detector with the defaults used in the evaluation.
    pub fn new(params: LoraParams) -> Self {
        AlobaDetector {
            params,
            window_fraction: 0.25,
            plateau_factor: 2.0,
        }
    }

    /// The moving-averaged power profile of a capture.
    pub fn averaged_power(&self, rf: &SampleBuffer) -> Vec<f64> {
        let window =
            ((self.params.samples_per_symbol() as f64 * self.window_fraction) as usize).max(1);
        let power: Vec<f64> = rf.samples.iter().map(|s| s.norm_sqr()).collect();
        let mut out = Vec::with_capacity(power.len());
        let mut acc = 0.0;
        for (i, &p) in power.iter().enumerate() {
            acc += p;
            if i >= window {
                acc -= power[i - window];
            }
            out.push(acc / window.min(i + 1) as f64);
        }
        out
    }

    /// Length (in samples) of the longest stretch where the averaged power
    /// exceeds `threshold`.
    fn longest_plateau(avg: &[f64], threshold: f64) -> usize {
        let mut best = 0usize;
        let mut current = 0usize;
        for &v in avg {
            if v > threshold {
                current += 1;
                best = best.max(current);
            } else {
                current = 0;
            }
        }
        best
    }
}

impl PacketDetector for AlobaDetector {
    fn name(&self) -> &'static str {
        "Aloba"
    }

    fn detect(&self, rf: &SampleBuffer) -> bool {
        let avg = self.averaged_power(rf);
        if avg.is_empty() {
            return false;
        }
        // Noise baseline: the mean of the lowest quartile of averaged power
        // (the stretches of the capture where only noise is present).
        let mut sorted = avg.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite power"));
        let quartile = &sorted[..(sorted.len() / 4).max(1)];
        let baseline = quartile.iter().sum::<f64>() / quartile.len() as f64;
        if baseline <= 0.0 {
            return false;
        }
        let threshold = baseline * self.plateau_factor;
        let needed = PREAMBLE_UPCHIRPS * self.params.samples_per_symbol() / 2;
        Self::longest_plateau(&avg, threshold) >= needed
    }

    fn detection_sensitivity(&self) -> Dbm {
        Dbm(ALOBA_DETECTION_SENSITIVITY_DBM)
    }
}

/// BER of the Aloba backscatter uplink at the access point as a function of
/// the uplink SNR.
pub fn aloba_uplink_ber(snr: Db) -> f64 {
    uplink_ber(snr, ALOBA_UPLINK_SNR_THRESHOLD_DB, ALOBA_UPLINK_BER_FLOOR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{packet_at, params};
    use rfsim::channel::dbm_to_buffer_power;
    use rfsim::noise::AwgnSource;

    #[test]
    fn detects_strong_packet_and_rejects_noise() {
        let det = AlobaDetector::new(params());
        assert!(det.detect(&packet_at(-60.0, -105.0, 1)));

        let mut noise = SampleBuffer::zeros(30_000, params().sample_rate());
        let mut awgn = AwgnSource::new(2);
        awgn.add_to(&mut noise, dbm_to_buffer_power(Dbm(-105.0)));
        assert!(!det.detect(&noise));
    }

    #[test]
    fn aloba_calibrated_sensitivity_is_worse_than_plora() {
        use crate::plora::PLoRaDetector;
        let aloba = AlobaDetector::new(params());
        let plora = PLoRaDetector::new(params());
        // Fig. 21: PLoRa detects further than Aloba, i.e. its sensitivity is
        // lower (more negative).
        assert!(aloba.detection_sensitivity().value() > plora.detection_sensitivity().value());
        // Both detectors miss a packet buried well below the noise.
        let buried = packet_at(-118.0, -95.0, 3);
        assert!(!plora.detect(&buried));
        assert!(!aloba.detect(&buried));
    }

    #[test]
    fn uplink_ber_is_worse_than_plora_at_the_same_snr() {
        for snr in [-30.0, -20.0, -12.0, -5.0] {
            assert!(
                aloba_uplink_ber(Db(snr)) >= crate::plora::plora_uplink_ber(Db(snr)),
                "at {snr} dB"
            );
        }
    }

    #[test]
    fn averaged_power_smooths() {
        let det = AlobaDetector::new(params());
        let rx = packet_at(-70.0, -100.0, 4);
        let avg = det.averaged_power(&rx);
        assert_eq!(avg.len(), rx.len());
        // The averaged profile has a smaller dynamic range than raw power.
        let raw: Vec<f64> = rx.samples.iter().map(|s| s.norm_sqr()).collect();
        let raw_max = raw.iter().cloned().fold(0.0f64, f64::max);
        let avg_max = avg.iter().cloned().fold(0.0f64, f64::max);
        assert!(avg_max <= raw_max);
    }

    #[test]
    fn plateau_length_helper() {
        let avg = vec![0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0];
        assert_eq!(AlobaDetector::longest_plateau(&avg, 0.5), 3);
        assert_eq!(AlobaDetector::longest_plateau(&avg, 2.0), 0);
    }
}
