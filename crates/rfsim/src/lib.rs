//! # rfsim — RF link-level simulation substrate
//!
//! This crate replaces the radio environment of the paper's field studies
//! with calibrated software models:
//!
//! * [`units`] — dBm/dB/Hz/metre newtypes and arithmetic;
//! * [`noise`] — thermal noise floor, noise figure, seeded AWGN;
//! * [`pathloss`] — log-distance path loss with outdoor/indoor presets and
//!   concrete-wall penetration losses;
//! * [`link`] — one-way link budgets and the two-hop backscatter budget;
//! * [`channel`] — the dBm ↔ buffer-power scaling convention every IQ
//!   capture is built with (a packet's RSS is its mean power, guards
//!   excluded);
//! * [`temperature`] — the diurnal temperature schedule of Fig. 24.

#![warn(missing_docs)]

pub mod channel;
pub mod link;
pub mod noise;
pub mod pathloss;
pub mod temperature;
pub mod units;

pub use channel::{buffer_power_dbm, dbm_to_buffer_power, REFERENCE_POWER_DBM};
pub use link::{paper_downlink, BackscatterLink, BackscatterTagModel, Link, Radio};
pub use noise::{thermal_noise_floor, AwgnSource, NoiseModel, BOLTZMANN};
pub use pathloss::{free_space_path_loss, Environment, PathLossModel};
pub use temperature::TemperatureSchedule;
pub use units::{sum_dbm, Celsius, Db, Dbm, Hertz, Meters, Watts};
