//! Path-loss models.
//!
//! The paper's field studies place the tag 0.1–180 m from the transmitter in
//! outdoor line-of-sight settings, indoor settings behind one or two concrete
//! walls, and next to a jammer. We model path loss with a log-distance model
//! anchored at the free-space loss at 1 m, with environment-specific exponents
//! and per-wall penetration losses. The constants are calibrated so the
//! demodulation ranges reported in the paper fall out of the link budget (see
//! the `calibration` module of the `saiyan` crate).

use crate::units::{Db, Hertz, Meters};

/// Free-space path loss (Friis) at distance `d` and frequency `f`.
pub fn free_space_path_loss(d: Meters, f: Hertz) -> Db {
    if d.value() <= 0.0 {
        return Db(0.0);
    }
    Db(20.0 * d.value().log10() + 20.0 * f.value().log10() - 147.55)
}

/// Propagation environments used by the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// Outdoor line-of-sight (square / parking lot / road in the paper).
    OutdoorLos,
    /// Indoor, signal penetrates `walls` concrete walls on its way to the tag.
    Indoor {
        /// Number of concrete walls between transmitter and tag.
        walls: u8,
    },
}

/// Log-distance path-loss model with environment presets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    /// Path-loss exponent `n` (2 = free space, 4 ≈ two-ray ground reflection).
    pub exponent: f64,
    /// Reference distance in metres.
    pub reference_distance: Meters,
    /// Loss added per concrete wall.
    pub wall_loss: Db,
    /// Number of walls on the path.
    pub walls: u8,
    /// Carrier frequency (sets the reference loss through Friis at `d0`).
    pub frequency: Hertz,
}

impl PathLossModel {
    /// Path-loss exponent used for the paper's outdoor near-ground links.
    pub const OUTDOOR_EXPONENT: f64 = 4.0;
    /// Path-loss exponent used for the indoor experiments.
    pub const INDOOR_EXPONENT: f64 = 4.0;
    /// Penetration loss of the first concrete wall (calibrated to Fig. 19).
    pub const FIRST_WALL_LOSS_DB: f64 = 19.0;
    /// Additional loss of the second concrete wall (calibrated to Fig. 20).
    pub const SECOND_WALL_LOSS_DB: f64 = 14.0;

    /// Builds the model for a given environment at the given carrier.
    pub fn for_environment(env: Environment, frequency: Hertz) -> Self {
        match env {
            Environment::OutdoorLos => PathLossModel {
                exponent: Self::OUTDOOR_EXPONENT,
                reference_distance: Meters(1.0),
                wall_loss: Db(0.0),
                walls: 0,
                frequency,
            },
            Environment::Indoor { walls } => PathLossModel {
                exponent: Self::INDOOR_EXPONENT,
                reference_distance: Meters(1.0),
                wall_loss: Db(0.0),
                walls,
                frequency,
            },
        }
    }

    /// Total penetration loss from the walls on the path.
    pub fn total_wall_loss(&self) -> Db {
        let mut loss = 0.0;
        if self.walls >= 1 {
            loss += Self::FIRST_WALL_LOSS_DB;
        }
        if self.walls >= 2 {
            loss += Self::SECOND_WALL_LOSS_DB;
        }
        if self.walls > 2 {
            loss += (self.walls - 2) as f64 * Self::SECOND_WALL_LOSS_DB;
        }
        Db(loss + self.wall_loss.value())
    }

    /// Path loss at distance `d`.
    pub fn loss(&self, d: Meters) -> Db {
        let d_eff = d.value().max(self.reference_distance.value());
        let reference = free_space_path_loss(self.reference_distance, self.frequency);
        let distance_term =
            10.0 * self.exponent * (d_eff / self.reference_distance.value()).log10();
        Db(reference.value() + distance_term + self.total_wall_loss().value())
    }

    /// Inverts the model: the distance at which the path loss equals `loss`.
    /// Returns the reference distance if the loss is below the reference loss.
    pub fn distance_for_loss(&self, loss: Db) -> Meters {
        let reference = free_space_path_loss(self.reference_distance, self.frequency);
        let excess = loss.value() - reference.value() - self.total_wall_loss().value();
        if excess <= 0.0 {
            return self.reference_distance;
        }
        Meters(self.reference_distance.value() * 10f64.powf(excess / (10.0 * self.exponent)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f434() -> Hertz {
        Hertz::from_mhz(434.0)
    }

    #[test]
    fn friis_known_value() {
        // FSPL at 1 m, 434 MHz ≈ 25.2 dB.
        let l = free_space_path_loss(Meters(1.0), f434());
        assert!((l.value() - 25.2).abs() < 0.2, "loss {}", l.value());
        // 100 m adds 40 dB.
        let l100 = free_space_path_loss(Meters(100.0), f434());
        assert!((l100.value() - l.value() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn loss_is_monotone_in_distance() {
        let m = PathLossModel::for_environment(Environment::OutdoorLos, f434());
        let mut prev = m.loss(Meters(1.0));
        for d in [2.0, 5.0, 10.0, 50.0, 100.0, 180.0] {
            let l = m.loss(Meters(d));
            assert!(l.value() > prev.value());
            prev = l;
        }
    }

    #[test]
    fn walls_add_loss() {
        let f = f434();
        let outdoor = PathLossModel::for_environment(Environment::OutdoorLos, f);
        let one = PathLossModel::for_environment(Environment::Indoor { walls: 1 }, f);
        let two = PathLossModel::for_environment(Environment::Indoor { walls: 2 }, f);
        let d = Meters(30.0);
        assert!(one.loss(d).value() > outdoor.loss(d).value());
        assert!(two.loss(d).value() > one.loss(d).value());
        let delta = two.loss(d).value() - one.loss(d).value();
        assert!((delta - PathLossModel::SECOND_WALL_LOSS_DB).abs() < 1e-9);
    }

    #[test]
    fn distance_for_loss_inverts_loss() {
        let m = PathLossModel::for_environment(Environment::OutdoorLos, f434());
        for d in [3.0, 20.0, 75.0, 148.6] {
            let loss = m.loss(Meters(d));
            let back = m.distance_for_loss(loss);
            assert!((back.value() - d).abs() / d < 1e-9);
        }
    }

    #[test]
    fn below_reference_distance_clamps() {
        let m = PathLossModel::for_environment(Environment::OutdoorLos, f434());
        assert_eq!(m.loss(Meters(0.1)).value(), m.loss(Meters(1.0)).value());
        assert_eq!(m.distance_for_loss(Db(0.0)).value(), 1.0);
    }
}
