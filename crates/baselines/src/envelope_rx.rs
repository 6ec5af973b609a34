//! Conventional envelope-detector receiver baseline.
//!
//! Many backscatter systems demodulate amplitude-modulated downlinks with a
//! bare envelope detector and a threshold. §5.2.1 of the paper cites a ~30 dB
//! sensitivity gap between that approach and Saiyan (−55.8 dBm vs −85.8 dBm),
//! because the square-law detector folds RF noise onto the baseband and has
//! no frequency-selective gain in front of it. This receiver cannot decode
//! LoRa chirps at all (their envelope is constant); it only serves as the
//! energy-detection baseline for sensitivity comparisons.

use analog::envelope::EnvelopeDetector;
use lora_phy::iq::SampleBuffer;
use lora_phy::params::LoraParams;
use rfsim::units::Dbm;

use crate::detector::PacketDetector;
use saiyan::sensitivity::CONVENTIONAL_ENVELOPE_DETECTOR_SENSITIVITY_DBM;

/// A conventional envelope-detector energy receiver.
#[derive(Debug, Clone)]
pub struct EnvelopeReceiver {
    /// PHY parameters of the signal being detected.
    pub params: LoraParams,
    /// The square-law detector used for down-conversion.
    pub detector: EnvelopeDetector,
    /// Energy must exceed the noise baseline by this factor over a preamble
    /// duration to declare a packet.
    pub threshold_factor: f64,
}

impl EnvelopeReceiver {
    /// Creates the receiver with the paper-calibrated detector noise.
    pub fn new(params: LoraParams) -> Self {
        EnvelopeReceiver {
            params,
            detector: EnvelopeDetector::default(),
            threshold_factor: 2.0,
        }
    }
}

impl PacketDetector for EnvelopeReceiver {
    fn name(&self) -> &'static str {
        "Envelope detector"
    }

    fn detect(&self, rf: &SampleBuffer) -> bool {
        let envelope = self.detector.detect(rf);
        if envelope.is_empty() {
            return false;
        }
        let window = 2 * self.params.samples_per_symbol();
        let smoothed = envelope.moving_average(window.min(envelope.len()));
        // Noise/DC baseline from the lowest quartile of the smoothed output.
        let mut sorted = smoothed.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite envelope"));
        let quartile = &sorted[..(sorted.len() / 4).max(1)];
        let baseline = quartile.iter().sum::<f64>() / quartile.len() as f64;
        let peak = smoothed.max();
        baseline > 0.0 && peak > baseline * self.threshold_factor
    }

    fn detection_sensitivity(&self) -> Dbm {
        Dbm(CONVENTIONAL_ENVELOPE_DETECTOR_SENSITIVITY_DBM)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{packet_at, params};
    use rfsim::channel::dbm_to_buffer_power;
    use rfsim::noise::AwgnSource;

    #[test]
    fn detects_strong_signal() {
        let rx = EnvelopeReceiver::new(params());
        assert!(rx.detect(&packet_at(-40.0, -110.0, 1)));
    }

    #[test]
    fn misses_weak_signal_that_saiyan_would_catch() {
        // A -80 dBm packet is inside Saiyan's -85.8 dBm sensitivity but far
        // below the bare envelope detector's -55.8 dBm: the detector noise
        // dominates and the receiver sees nothing.
        let rx = EnvelopeReceiver::new(params());
        assert!(!rx.detect(&packet_at(-80.0, -110.0, 2)));
    }

    #[test]
    fn rejects_noise_only_capture() {
        let rx = EnvelopeReceiver::new(params());
        let mut noise = SampleBuffer::zeros(40_000, params().sample_rate());
        let mut awgn = AwgnSource::new(3);
        awgn.add_to(&mut noise, dbm_to_buffer_power(Dbm(-110.0)));
        assert!(!rx.detect(&noise));
    }

    #[test]
    fn sensitivity_is_30db_worse_than_saiyan() {
        let rx = EnvelopeReceiver::new(params());
        let gap = saiyan::SUPER_SAIYAN_SENSITIVITY_DBM - rx.detection_sensitivity().value();
        assert!((gap - (-30.0)).abs() < 0.5, "gap {gap}");
    }
}
