//! Component-level power and cost model (paper Table 2 and §4.3).
//!
//! The PCB prototype consumes 369.4 µW under 1 % duty cycling, dominated by
//! the LNA (67.3 %) and the oscillator clock (23.5 %); the TSMC 65 nm ASIC
//! simulation reduces the total to 93.2 µW. This module encodes those
//! budgets and regenerates Table 2.

/// The hardware components of a Saiyan tag that draw power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// The passive SAW filter (draws nothing).
    SawFilter,
    /// The common-gate low-noise amplifier.
    Lna,
    /// The micro-power oscillator/clock used by the shifting circuit.
    OscillatorClock,
    /// The envelope detector (passive diode network).
    EnvelopeDetector,
    /// The double-threshold comparator.
    Comparator,
    /// The Apollo2 micro-controller.
    Mcu,
}

impl Component {
    /// All components in Table 2 order.
    pub const ALL: [Component; 6] = [
        Component::SawFilter,
        Component::Lna,
        Component::OscillatorClock,
        Component::EnvelopeDetector,
        Component::Comparator,
        Component::Mcu,
    ];

    /// Human-readable name matching the paper's table.
    pub fn name(&self) -> &'static str {
        match self {
            Component::SawFilter => "SAW",
            Component::Lna => "LNA",
            Component::OscillatorClock => "OSC Clock",
            Component::EnvelopeDetector => "Envelope Detector",
            Component::Comparator => "Comparator",
            Component::Mcu => "MCU",
        }
    }
}

/// Implementation technology of the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technology {
    /// The two-layer PCB prototype with off-the-shelf parts.
    Pcb,
    /// The TSMC 65 nm ASIC simulation.
    Asic,
}

/// A per-component entry of the power/cost budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetEntry {
    /// The component.
    pub component: Component,
    /// Average power under 1 % duty cycling, in microwatts.
    pub power_uw: f64,
    /// Unit cost in USD (PCB prototype).
    pub cost_usd: f64,
}

/// The power/cost budget of a Saiyan tag.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBudget {
    /// Technology the budget describes.
    pub technology: Technology,
    /// Per-component entries.
    pub entries: Vec<BudgetEntry>,
}

impl PowerBudget {
    /// Table 2 of the paper: PCB prototype under 1 % duty cycling.
    pub fn paper_pcb() -> Self {
        PowerBudget {
            technology: Technology::Pcb,
            entries: vec![
                BudgetEntry {
                    component: Component::SawFilter,
                    power_uw: 0.0,
                    cost_usd: 3.87,
                },
                BudgetEntry {
                    component: Component::Lna,
                    power_uw: 248.5,
                    cost_usd: 4.15,
                },
                BudgetEntry {
                    component: Component::OscillatorClock,
                    power_uw: 86.8,
                    cost_usd: 1.25,
                },
                BudgetEntry {
                    component: Component::EnvelopeDetector,
                    power_uw: 0.0,
                    cost_usd: 1.20,
                },
                BudgetEntry {
                    component: Component::Comparator,
                    power_uw: 14.45,
                    cost_usd: 1.26,
                },
                BudgetEntry {
                    component: Component::Mcu,
                    power_uw: 19.6,
                    cost_usd: 15.43,
                },
            ],
        }
    }

    /// §4.3 of the paper: the TSMC 65 nm ASIC simulation (93.2 µW total:
    /// 68.4 µW LNA, 22.8 µW oscillator, 2 µW digital; the MCU is external and
    /// listed separately at 19.6 µW).
    pub fn paper_asic() -> Self {
        PowerBudget {
            technology: Technology::Asic,
            entries: vec![
                BudgetEntry {
                    component: Component::SawFilter,
                    power_uw: 0.0,
                    cost_usd: 0.0,
                },
                BudgetEntry {
                    component: Component::Lna,
                    power_uw: 68.4,
                    cost_usd: 0.0,
                },
                BudgetEntry {
                    component: Component::OscillatorClock,
                    power_uw: 22.8,
                    cost_usd: 0.0,
                },
                BudgetEntry {
                    component: Component::EnvelopeDetector,
                    power_uw: 0.0,
                    cost_usd: 0.0,
                },
                BudgetEntry {
                    component: Component::Comparator,
                    power_uw: 2.0,
                    cost_usd: 0.0,
                },
                BudgetEntry {
                    component: Component::Mcu,
                    power_uw: 19.6,
                    cost_usd: 0.0,
                },
            ],
        }
    }

    /// Total average power in microwatts. For the ASIC budget the paper's
    /// 93.2 µW headline excludes the external MCU; use
    /// [`PowerBudget::total_on_chip_uw`] for that figure.
    pub fn total_uw(&self) -> f64 {
        self.entries.iter().map(|e| e.power_uw).sum()
    }

    /// Total power of the on-chip components (everything except the MCU).
    pub fn total_on_chip_uw(&self) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.component != Component::Mcu)
            .map(|e| e.power_uw)
            .sum()
    }

    /// Total bill-of-materials cost in USD.
    pub fn total_cost_usd(&self) -> f64 {
        self.entries.iter().map(|e| e.cost_usd).sum()
    }

    /// Fraction of the total power consumed by `component`.
    pub fn share(&self, component: Component) -> f64 {
        let total = self.total_uw();
        if total == 0.0 {
            return 0.0;
        }
        self.entries
            .iter()
            .filter(|e| e.component == component)
            .map(|e| e.power_uw)
            .sum::<f64>()
            / total
    }

    /// Looks up a component's entry.
    pub fn entry(&self, component: Component) -> Option<&BudgetEntry> {
        self.entries.iter().find(|e| e.component == component)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcb_totals_match_table2() {
        let b = PowerBudget::paper_pcb();
        assert!(
            (b.total_uw() - 369.35).abs() < 0.1,
            "total {}",
            b.total_uw()
        );
        assert!((b.total_cost_usd() - 27.16).abs() < 0.1);
        // LNA ≈ 67.3 %, oscillator ≈ 23.5 %.
        assert!((b.share(Component::Lna) - 0.673).abs() < 0.005);
        assert!((b.share(Component::OscillatorClock) - 0.235).abs() < 0.005);
    }

    #[test]
    fn asic_total_matches_headline() {
        let b = PowerBudget::paper_asic();
        assert!((b.total_on_chip_uw() - 93.2).abs() < 0.1);
        // ASIC cuts the PCB power by ~74.8 %.
        let pcb = PowerBudget::paper_pcb();
        let reduction = 1.0 - b.total_on_chip_uw() / pcb.total_on_chip_uw();
        assert!((reduction - 0.733).abs() < 0.05, "reduction {reduction}");
    }

    #[test]
    fn passive_components_draw_nothing() {
        let b = PowerBudget::paper_pcb();
        assert_eq!(b.entry(Component::SawFilter).unwrap().power_uw, 0.0);
        assert_eq!(b.entry(Component::EnvelopeDetector).unwrap().power_uw, 0.0);
    }
}
