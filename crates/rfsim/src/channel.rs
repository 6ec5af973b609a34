//! The workspace's power scaling convention.
//!
//! Powers are tracked in absolute dBm so the analog models downstream
//! (envelope detector, comparator thresholds) can reason about real signal
//! levels. A waveform with mean power 1.0 (unit amplitude) represents
//! [`REFERENCE_POWER_DBM`]. A packet received at `p` dBm is its unit-power
//! chirps scaled by `sqrt(dbm_to_buffer_power(p))`, so `p` is the packet's
//! mean power over its own span; silence around it does not count.

use lora_phy::iq::SampleBuffer;

use crate::units::Dbm;

/// Scaling convention: a waveform with mean power 1.0 (unit amplitude)
/// represents `REFERENCE_POWER_DBM` at the point of measurement. All gains
/// are applied relative to this reference so that `mean_power()` of a
/// buffer can always be converted back to dBm with [`buffer_power_dbm`].
pub const REFERENCE_POWER_DBM: f64 = 0.0;

/// Converts a buffer's mean linear power to absolute dBm under the workspace
/// scaling convention.
pub fn buffer_power_dbm(buffer: &SampleBuffer) -> Dbm {
    Dbm(REFERENCE_POWER_DBM + 10.0 * buffer.mean_power().max(1e-300).log10())
}

/// Converts an absolute power in dBm to the linear per-sample power a buffer
/// should have under the scaling convention.
pub fn dbm_to_buffer_power(power: Dbm) -> f64 {
    10f64.powf((power.value() - REFERENCE_POWER_DBM) / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::iq::Iq;

    #[test]
    fn dbm_buffer_round_trip() {
        let p = Dbm(-72.5);
        let lin = dbm_to_buffer_power(p);
        let buf = SampleBuffer::new(vec![Iq::new(lin.sqrt(), 0.0); 100], 1e6);
        assert!((buffer_power_dbm(&buf).value() - p.value()).abs() < 1e-9);
    }
}
