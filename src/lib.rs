//! # saiyan-suite — workspace umbrella
//!
//! Re-exports the workspace crates so the examples and integration tests can
//! use a single dependency, and documents the layout:
//!
//! | crate | contents |
//! |---|---|
//! | [`lora_phy`] | LoRa CSS PHY substrate (chirps, the one packet synthesizer, the `2^K` downlink alphabet, FFT receiver) |
//! | [`rfsim`] | link budgets, path loss, noise, temperature, and the power rule (a packet's RSS is its mean power, guards excluded) |
//! | [`analog`] | SAW filter, LNA, envelope detector, shifting chain, comparator, power |
//! | [`saiyan`] | the Saiyan demodulator (vanilla / shifting / super) |
//! | [`baselines`] | PLoRa, Aloba and conventional envelope-detector baselines |
//! | [`saiyan_mac`] | feedback-loop MAC: ARQ, channel hopping, rate adaptation, ALOHA |
//! | [`netsim`] | scenarios, Monte-Carlo trials, range searches, case studies |
//! | `saiyan_serve` | always-on gateway daemon: stream ingest, backpressure, wire formats, telemetry |

#![warn(missing_docs)]

pub use analog;
pub use baselines;
pub use lora_phy;
pub use netsim;
pub use rfsim;
pub use saiyan;
pub use saiyan_mac;
