//! Tag-level power accounting.
//!
//! Wraps the component budgets of the `analog` crate (Table 2 and the §4.3
//! ASIC figures) into a per-tag model that experiments can use to cost
//! demodulation, acknowledgement transmission, and duty-cycled idling, and to
//! answer the paper's motivating arithmetic ("a standard LoRa demodulation
//! chain needs > 40 mW; a palm-sized harvester delivers 1 mW every 25.4 s").

use analog::power::{PowerBudget, Technology};
use lora_phy::params::LoraParams;
use rfsim::units::Watts;

/// Power the paper attributes to a standard (down-convert + ADC + FFT) LoRa
/// receive chain, used for the motivation comparison.
pub const STANDARD_LORA_RECEIVER_MW: f64 = 40.0;

/// Average power the paper's solar energy harvester delivers (1 mW every
/// 25.4 s ≈ 39.4 µW).
pub const HARVESTER_AVERAGE_UW: f64 = 1000.0 / 25.4;

/// Power consumption of the power-management module in working mode (§4.1).
pub const POWER_MANAGEMENT_UW: f64 = 24.0;

/// The tag-level power model.
#[derive(Debug, Clone, PartialEq)]
pub struct TagPowerModel {
    /// The per-component budget in use.
    pub budget: PowerBudget,
    /// Whether the power-management module's draw is included.
    pub include_power_management: bool,
}

impl TagPowerModel {
    /// The PCB prototype model.
    pub fn pcb() -> Self {
        TagPowerModel {
            budget: PowerBudget::paper_pcb(),
            include_power_management: true,
        }
    }

    /// The ASIC model (§4.3).
    pub fn asic() -> Self {
        TagPowerModel {
            budget: PowerBudget::paper_asic(),
            include_power_management: true,
        }
    }

    /// The implementation technology.
    pub fn technology(&self) -> Technology {
        self.budget.technology
    }

    /// Average power draw of the receive chain (µW) at the Table 2 duty cycle.
    pub fn average_power_uw(&self) -> f64 {
        let pm = if self.include_power_management {
            POWER_MANAGEMENT_UW
        } else {
            0.0
        };
        self.budget.total_uw() + pm
    }

    /// Energy (joules) to demodulate one downlink packet of
    /// `payload_symbols` symbols with the given PHY parameters, assuming the
    /// receive chain runs at full power for the packet duration.
    ///
    /// Table 2's figures are averaged over a 1 % duty cycle, so the full-power
    /// draw is 100× the table entry.
    pub fn packet_energy_joules(&self, params: &LoraParams, payload_symbols: usize) -> f64 {
        let duration = params.packet_duration(payload_symbols);
        let full_power_uw = self.budget.total_uw() / 0.01
            + if self.include_power_management {
                POWER_MANAGEMENT_UW
            } else {
                0.0
            };
        Watts::from_microwatts(full_power_uw).value() * duration
    }

    /// How long (seconds) the paper's harvester needs to collect the energy
    /// for one packet demodulation.
    pub fn harvest_time_for_packet(&self, params: &LoraParams, payload_symbols: usize) -> f64 {
        self.packet_energy_joules(params, payload_symbols)
            / Watts::from_microwatts(HARVESTER_AVERAGE_UW).value()
    }

    /// The paper's motivating comparison: how many times more power the
    /// standard LoRa receive chain draws than this tag (at full activity).
    pub fn advantage_over_standard_receiver(&self) -> f64 {
        let full_power_uw = self.budget.total_uw() / 0.01;
        (STANDARD_LORA_RECEIVER_MW * 1000.0) / full_power_uw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::params::{Bandwidth, BitsPerChirp, SpreadingFactor};

    fn params() -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        )
    }

    #[test]
    fn asic_is_cheaper_than_pcb() {
        assert!(TagPowerModel::asic().average_power_uw() < TagPowerModel::pcb().average_power_uw());
    }

    #[test]
    fn packet_energy_is_positive_and_scales_with_payload() {
        let model = TagPowerModel::asic();
        let short = model.packet_energy_joules(&params(), 8);
        let long = model.packet_energy_joules(&params(), 64);
        assert!(short > 0.0);
        assert!(long > short);
        // A 32-symbol packet at SF7/500 kHz lasts ~11.3 ms; at ~11.3 mW full
        // power that is ~0.13 mJ.
        let e = model.packet_energy_joules(&params(), 32);
        assert!(e > 1e-5 && e < 1e-3, "energy {e}");
    }

    #[test]
    fn harvester_time_is_finite_and_sane() {
        let model = TagPowerModel::asic();
        let t = model.harvest_time_for_packet(&params(), 32);
        assert!(t > 0.1 && t < 60.0, "harvest time {t} s");
    }

    #[test]
    fn standard_receiver_comparison() {
        // The ASIC at full power (~11.3 mW including the MCU) is still several
        // times cheaper than the 40 mW standard chain.
        let adv = TagPowerModel::asic().advantage_over_standard_receiver();
        assert!(adv > 2.0, "advantage {adv}");
        // And the PCB prototype is cheaper than the standard chain too.
        assert!(TagPowerModel::pcb().advantage_over_standard_receiver() > 1.0);
    }

    #[test]
    fn technology_is_reported() {
        assert_eq!(TagPowerModel::pcb().technology(), Technology::Pcb);
        assert_eq!(TagPowerModel::asic().technology(), Technology::Asic);
    }
}
