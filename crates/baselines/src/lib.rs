//! # baselines — the systems Saiyan is compared against
//!
//! * [`plora`] — PLoRa's cross-correlation packet detector, its calibrated
//!   detection sensitivity, and its backscatter-uplink BER model;
//! * [`aloba`] — Aloba's moving-average RSSI-pattern detector and uplink model;
//! * [`envelope_rx`] — a conventional envelope-detector receiver (the ~30 dB
//!   worse sensitivity baseline of §5.2.1);
//! * [`detector`] — the shared packet-detection interface used by Fig. 21;
//! * [`receiver`] — the [`DetectionReceiver`] adapter that runs any
//!   [`PacketDetector`] behind the workspace-wide `saiyan::Receiver`
//!   backend trait, so the baselines slot into the same harnesses as the
//!   real receivers.

#![warn(missing_docs)]

pub mod aloba;
pub mod detector;
pub mod envelope_rx;
pub mod plora;
pub mod receiver;

pub use aloba::{aloba_uplink_ber, AlobaDetector, ALOBA_DETECTION_SENSITIVITY_DBM};
pub use detector::PacketDetector;
pub use envelope_rx::EnvelopeReceiver;
pub use plora::{plora_uplink_ber, PLoRaDetector, PLORA_DETECTION_SENSITIVITY_DBM};
pub use receiver::DetectionReceiver;

/// The capture the detector tests share.
#[cfg(test)]
mod test_support {
    use lora_phy::iq::{Iq, SampleBuffer};
    use lora_phy::modulator::Alphabet;
    use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
    use lora_phy::templates::PacketTemplates;
    use rfsim::channel::dbm_to_buffer_power;
    use rfsim::noise::AwgnSource;
    use rfsim::units::Dbm;

    pub fn params() -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        )
    }

    /// A four-symbol packet at `power_dbm` between 8-symbol silent guards,
    /// over AWGN at `noise_dbm`.
    pub fn packet_at(power_dbm: f64, noise_dbm: f64, seed: u64) -> SampleBuffer {
        let guard = vec![Iq::ZERO; 8 * params().samples_per_symbol()];
        let mut samples = guard.clone();
        PacketTemplates::new(params(), Alphabet::Downlink)
            .assemble_scaled_extend(
                &[0, 1, 2, 3],
                dbm_to_buffer_power(Dbm(power_dbm)).sqrt(),
                &mut samples,
            )
            .unwrap();
        samples.extend_from_slice(&guard);
        let mut rx = SampleBuffer::new(samples, params().sample_rate());
        AwgnSource::new(seed).add_to(&mut rx, dbm_to_buffer_power(Dbm(noise_dbm)));
        rx
    }
}
