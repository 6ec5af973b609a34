//! Evaluation scenarios: who is where, in what environment.
//!
//! A scenario fixes everything the field studies of §5 varied between plots:
//! the propagation environment (outdoor LOS, indoor behind one or two concrete
//! walls), the transmitter-to-tag distance, the PHY configuration, the ambient
//! temperature, and any jammer. From a scenario we can compute the received
//! signal strength at the tag and hand it to either the link-abstraction BER
//! model or the waveform pipeline.

use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use rfsim::link::paper_downlink;
use rfsim::noise::NoiseModel;
use rfsim::pathloss::{Environment, PathLossModel};
use rfsim::units::{Celsius, Db, Dbm, Hertz, Meters};
use saiyan::config::Variant;
use saiyan::sensitivity::SensitivityConfig;

/// A complete downlink evaluation scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Propagation environment.
    pub environment: Environment,
    /// Transmitter-to-tag distance.
    pub distance: Meters,
    /// PHY parameters of the downlink.
    pub lora: LoraParams,
    /// Receive-chain variant on the tag.
    pub variant: Variant,
    /// Ambient temperature (affects the SAW filter).
    pub temperature: Celsius,
    /// Received power of any in-band jammer at the tag (None = clean channel).
    pub jammer_dbm: Option<f64>,
    /// Receiver noise figure.
    pub noise_figure: Db,
}

impl Scenario {
    /// The paper's default outdoor setup: SF7, 500 kHz, K=2, Super Saiyan,
    /// 25 °C, no jammer.
    pub fn outdoor_default(distance: Meters) -> Self {
        Scenario {
            environment: Environment::OutdoorLos,
            distance,
            lora: LoraParams::new(
                SpreadingFactor::Sf7,
                Bandwidth::Khz500,
                BitsPerChirp::new(2).expect("valid"),
            ),
            variant: Variant::Super,
            temperature: Celsius(25.0),
            jammer_dbm: None,
            noise_figure: Db(6.0),
        }
    }

    /// An indoor scenario behind `walls` concrete walls.
    pub fn indoor(distance: Meters, walls: u8) -> Self {
        Scenario {
            environment: Environment::Indoor { walls },
            ..Self::outdoor_default(distance)
        }
    }

    /// Returns a copy with a different PHY configuration.
    pub fn with_lora(mut self, lora: LoraParams) -> Self {
        self.lora = lora;
        self
    }

    /// Returns a copy with a different bits-per-chirp (the paper's CR).
    pub fn with_bits_per_chirp(mut self, k: BitsPerChirp) -> Self {
        self.lora.bits_per_chirp = k;
        self
    }

    /// Returns a copy with a different variant.
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Returns a copy with a different distance.
    pub fn with_distance(mut self, distance: Meters) -> Self {
        self.distance = distance;
        self
    }

    /// Returns a copy with a different temperature.
    pub fn with_temperature(mut self, temperature: Celsius) -> Self {
        self.temperature = temperature;
        self
    }

    /// Returns a copy with an in-band jammer of the given received power.
    pub fn with_jammer(mut self, jammer_dbm: f64) -> Self {
        self.jammer_dbm = Some(jammer_dbm);
        self
    }

    /// The path-loss model for this scenario.
    pub fn path_loss(&self) -> PathLossModel {
        PathLossModel::for_environment(self.environment, Hertz(self.lora.carrier_hz))
    }

    /// Received signal strength at the tag antenna.
    pub fn rss(&self) -> Dbm {
        paper_downlink(self.path_loss(), self.distance).received_power()
    }

    /// Receiver noise model (thermal floor over the LoRa bandwidth + NF).
    pub fn noise_model(&self) -> NoiseModel {
        NoiseModel::new(self.noise_figure, Hertz(self.lora.bw.hz()))
    }

    /// The effective interference-plus-noise floor at the tag: thermal noise
    /// plus any jammer power.
    pub fn interference_floor(&self) -> Dbm {
        let noise = self.noise_model().noise_power();
        match self.jammer_dbm {
            None => noise,
            Some(j) => rfsim::units::sum_dbm(&[noise, Dbm(j)]),
        }
    }

    /// Signal-to-interference-plus-noise ratio at the tag.
    pub fn sinr(&self) -> Db {
        self.rss() - self.interference_floor()
    }

    /// The calibrated sensitivity model matching this scenario's PHY/variant.
    pub fn sensitivity_config(&self) -> SensitivityConfig {
        SensitivityConfig {
            variant: self.variant,
            sf: self.lora.sf,
            bw: self.lora.bw,
            k: self.lora.bits_per_chirp,
        }
    }

    /// Temperature-induced sensitivity penalty (dB): the SAW response slides
    /// with temperature, reducing the amplitude gap the decoder sees. Derived
    /// from the SAW model's gain change at the band edge.
    pub fn temperature_penalty(&self) -> Db {
        let saw_ref = analog::saw::SawFilter::paper_b3790();
        let saw_now = analog::saw::SawFilter::paper_b3790().with_temperature(self.temperature);
        let edge = Hertz(self.lora.carrier_hz + self.lora.bw.hz());
        let bw = Hertz(self.lora.bw.hz());
        let gap_ref = saw_ref.amplitude_gap(edge, bw).value();
        let gap_now = saw_now.amplitude_gap(edge, bw).value();
        // A smaller amplitude gap costs sensitivity roughly one-for-one in dB,
        // floored at zero (a larger gap does not help beyond the reference).
        Db((gap_ref - gap_now).max(0.0))
    }

    /// Effective received margin fed to the BER model: the RSS reduced by any
    /// jammer-induced noise rise and the temperature penalty.
    pub fn effective_rss(&self) -> Dbm {
        let noise_rise = self.interference_floor() - self.noise_model().noise_power();
        self.rss() - Db(noise_rise.value()) - self.temperature_penalty()
    }

    /// Link-abstraction BER for this scenario.
    pub fn ber(&self) -> f64 {
        self.sensitivity_config().ber(self.effective_rss())
    }

    /// Probability the tag demodulates one feedback command (a
    /// retransmission request or a hop, ~40 bits) at this scenario's BER.
    pub fn command_success(&self) -> f64 {
        1.0 - saiyan::metrics::packet_error_rate(self.ber(), 40)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_decreases_with_distance_and_walls() {
        let near = Scenario::outdoor_default(Meters(10.0));
        let far = Scenario::outdoor_default(Meters(100.0));
        assert!(near.rss().value() > far.rss().value());
        let indoor = Scenario::indoor(Meters(10.0), 2);
        assert!(indoor.rss().value() < near.rss().value());
    }

    #[test]
    fn ber_grows_with_distance() {
        let mut prev = 0.0;
        for d in [10.0, 50.0, 100.0, 150.0, 200.0] {
            let ber = Scenario::outdoor_default(Meters(d)).ber();
            assert!(ber >= prev);
            prev = ber;
        }
    }

    #[test]
    fn paper_headline_range_is_reproduced() {
        // At ~148 m outdoors the default configuration sits right at the 1e-3
        // BER threshold; at 100 m it is comfortably below; at 200 m far above.
        assert!(Scenario::outdoor_default(Meters(100.0)).ber() < 1e-3);
        let at_range = Scenario::outdoor_default(Meters(148.6)).ber();
        assert!(at_range < 5e-3, "ber at 148.6 m = {at_range}");
        assert!(Scenario::outdoor_default(Meters(210.0)).ber() > 1e-2);
    }

    #[test]
    fn jammer_raises_ber() {
        let clean = Scenario::outdoor_default(Meters(100.0));
        let jammed = Scenario::outdoor_default(Meters(100.0)).with_jammer(-60.0);
        assert!(jammed.ber() > clean.ber());
        assert!(jammed.sinr().value() < clean.sinr().value());
    }

    #[test]
    fn variant_ordering_in_ber() {
        let d = Meters(80.0);
        let vanilla = Scenario::outdoor_default(d)
            .with_variant(Variant::Vanilla)
            .ber();
        let shifting = Scenario::outdoor_default(d)
            .with_variant(Variant::WithShifting)
            .ber();
        let full = Scenario::outdoor_default(d)
            .with_variant(Variant::Super)
            .ber();
        assert!(vanilla >= shifting);
        assert!(shifting >= full);
    }

    #[test]
    fn temperature_penalty_is_small_but_present() {
        let cold = Scenario::outdoor_default(Meters(100.0)).with_temperature(Celsius(-8.6));
        let warm = Scenario::outdoor_default(Meters(100.0)).with_temperature(Celsius(1.6));
        let p_cold = cold.temperature_penalty().value();
        let p_warm = warm.temperature_penalty().value();
        // Both below a few dB, and different from each other.
        assert!(p_cold < 4.0 && p_warm < 4.0);
        assert_ne!(p_cold, p_warm);
    }
}
