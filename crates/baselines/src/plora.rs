//! PLoRa baseline (Peng et al., SIGCOMM 2018), re-implemented as in §5.1.3.
//!
//! PLoRa tags detect an incoming LoRa packet by cross-correlating the received
//! energy profile against the expected preamble-length burst. They cannot
//! demodulate the payload. We model (a) the waveform-level detector used for
//! head-to-head demos, (b) the calibrated detection sensitivity used by range
//! sweeps, and (c) the backscatter-uplink BER curve used for Fig. 2 and the
//! retransmission case study.

use lora_phy::iq::SampleBuffer;
use lora_phy::params::LoraParams;
use rfsim::units::{Db, Dbm};

use crate::detector::PacketDetector;

/// Calibrated detection sensitivity of the PLoRa packet detector.
///
/// Derived from the paper's Fig. 21: a 42.4 m outdoor detection range with the
/// 20 dBm / 3 dBi link and the outdoor path-loss model corresponds to roughly
/// −64 dBm at the tag antenna.
pub const PLORA_DETECTION_SENSITIVITY_DBM: f64 = -64.3;

/// SNR at which the access point decodes the PLoRa backscatter uplink with
/// BER = 1 ‰ (the chirp-spread uplink tolerates strongly negative SNR).
pub const PLORA_UPLINK_SNR_THRESHOLD_DB: f64 = -16.0;

/// Residual uplink BER floor observed even at high SNR.
pub const PLORA_UPLINK_BER_FLOOR: f64 = 2.0e-5;

/// The PLoRa tag's packet-detection module.
#[derive(Debug, Clone)]
pub struct PLoRaDetector {
    /// PHY parameters of the signal being detected.
    pub params: LoraParams,
    /// Detection threshold: the correlation peak must exceed the noise-only
    /// baseline by this factor.
    pub threshold_factor: f64,
}

impl PLoRaDetector {
    /// Creates a detector with the defaults used in the evaluation.
    pub fn new(params: LoraParams) -> Self {
        PLoRaDetector {
            params,
            threshold_factor: 2.0,
        }
    }

    /// Cross-correlates the received power profile against a rectangular
    /// template two symbols long and returns the ratio between the strongest
    /// correlation window and the noise-floor estimate (the mean of the lowest
    /// quartile of windows).
    pub fn correlation_metric(&self, rf: &SampleBuffer) -> f64 {
        let window = 2 * self.params.samples_per_symbol();
        if rf.len() < window + 1 {
            return 0.0;
        }
        let power: Vec<f64> = rf.samples.iter().map(|s| s.norm_sqr()).collect();
        // Sliding-window sum = cross-correlation with a rectangular template.
        let mut window_sum: f64 = power[..window].iter().sum();
        let mut sums = Vec::with_capacity(power.len() - window + 1);
        sums.push(window_sum);
        for i in window..power.len() {
            window_sum += power[i] - power[i - window];
            sums.push(window_sum);
        }
        let peak = sums.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sorted = sums.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite power"));
        let quartile = &sorted[..(sorted.len() / 4).max(1)];
        let noise_floor = quartile.iter().sum::<f64>() / quartile.len() as f64;
        if noise_floor <= 0.0 {
            return f64::INFINITY;
        }
        peak / noise_floor
    }
}

impl PacketDetector for PLoRaDetector {
    fn name(&self) -> &'static str {
        "PLoRa"
    }

    fn detect(&self, rf: &SampleBuffer) -> bool {
        // A packet concentrated inside the capture raises the correlation
        // peak well above the all-noise mean.
        self.correlation_metric(rf) > self.threshold_factor
    }

    fn detection_sensitivity(&self) -> Dbm {
        Dbm(PLORA_DETECTION_SENSITIVITY_DBM)
    }
}

/// BER of the PLoRa backscatter uplink at the access point as a function of
/// the uplink SNR (used for Fig. 2 and the retransmission case study). The
/// curve is a gentle logistic waterfall anchored at
/// [`PLORA_UPLINK_SNR_THRESHOLD_DB`], reflecting the fading-limited behaviour
/// of reflected links.
pub fn plora_uplink_ber(snr: Db) -> f64 {
    uplink_ber(snr, PLORA_UPLINK_SNR_THRESHOLD_DB, PLORA_UPLINK_BER_FLOOR)
}

/// Shared gentle-waterfall uplink BER model.
pub(crate) fn uplink_ber(snr: Db, threshold_db: f64, floor: f64) -> f64 {
    let steepness = 0.35;
    let offset = (499.0f64).ln() / steepness;
    let snr50 = threshold_db - offset;
    let waterfall = 0.5 / (1.0 + (steepness * (snr.value() - snr50)).exp());
    (waterfall + floor).min(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{packet_at, params};
    use rfsim::channel::dbm_to_buffer_power;
    use rfsim::noise::AwgnSource;

    #[test]
    fn detects_strong_packet_and_rejects_noise() {
        let det = PLoRaDetector::new(params());
        let strong = packet_at(-60.0, -110.0, 1);
        assert!(det.detect(&strong));

        let mut noise = SampleBuffer::zeros(strong.len(), strong.sample_rate);
        let mut awgn = AwgnSource::new(2);
        awgn.add_to(&mut noise, dbm_to_buffer_power(Dbm(-110.0)));
        assert!(!det.detect(&noise));
    }

    #[test]
    fn misses_packet_far_below_noise() {
        let det = PLoRaDetector::new(params());
        let weak = packet_at(-120.0, -95.0, 3);
        assert!(!det.detect(&weak));
    }

    #[test]
    fn correlation_metric_grows_with_signal_strength() {
        let det = PLoRaDetector::new(params());
        let weak = det.correlation_metric(&packet_at(-95.0, -100.0, 4));
        let strong = det.correlation_metric(&packet_at(-70.0, -100.0, 4));
        assert!(strong > weak);
    }

    #[test]
    fn uplink_ber_anchors() {
        // BER hits 1e-3 at the threshold SNR and saturates near 0.5 far below.
        let at_threshold = plora_uplink_ber(Db(PLORA_UPLINK_SNR_THRESHOLD_DB));
        assert!((at_threshold - 1e-3).abs() < 4e-4, "{at_threshold}");
        assert!(plora_uplink_ber(Db(-45.0)) > 0.4);
        assert!(plora_uplink_ber(Db(10.0)) < 1e-4);
        // Monotone in SNR.
        let mut prev = 1.0;
        for snr in -50..=20 {
            let b = plora_uplink_ber(Db(snr as f64));
            assert!(b <= prev + 1e-12);
            prev = b;
        }
    }

    #[test]
    fn sensitivity_constant_is_exposed() {
        let det = PLoRaDetector::new(params());
        assert_eq!(det.detection_sensitivity().value(), -64.3);
        assert_eq!(det.name(), "PLoRa");
    }
}
