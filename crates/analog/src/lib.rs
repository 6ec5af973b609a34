//! # analog — analog front-end component models
//!
//! Software models of every analog block on the Saiyan tag, replacing the
//! paper's PCB hardware (`docs/ARCHITECTURE.md` §2 shows how they compose
//! into the receive chain):
//!
//! * [`saw`] — the B3790 SAW filter's frequency→amplitude response;
//! * [`lna`] — the common-gate low-noise amplifier;
//! * [`envelope`] — the square-law envelope detector with self-mixing and
//!   flicker/DC noise;
//! * [`mixer`], [`oscillator`], [`filters`] — the building blocks of the
//!   cyclic-frequency-shifting circuit;
//! * [`shifting`] — the composed cyclic-frequency-shifting chain (§3.1);
//! * [`comparator`] — single- and double-threshold comparators (Eq. 3);
//! * [`power`] — the Table 2 / §4.3 power and cost budgets;
//! * [`signal`] — real-valued baseband buffers shared by these blocks;
//! * [`fir`] — the shared streaming complex-FIR state machine and the
//!   polyphase decimator, whose phase split several channels can share;
//! * [`stage`] — the block-pipeline stage traits (chunk invariance and
//!   buffer-ownership contracts every streaming stage implements);
//! * [`simd`] — runtime-dispatched SIMD kernels behind the hot stages
//!   (backend selection, bit-identical wide tiles, `SAIYAN_SIMD` override).
//!   The module itself now lives in [`lora_phy::simd`] — the bottom of the
//!   crate graph — so `rfsim` and the serving layer share the dispatch; this
//!   crate re-exports it under the original path;
//! * [`channelizer`] — the wideband gateway front end: per-channel frequency
//!   shift, band-select FIR and decimation.

#![warn(missing_docs)]

pub mod channelizer;
pub mod comparator;
pub mod envelope;
pub mod filters;
pub mod fir;
pub mod lna;
pub mod mixer;
pub mod oscillator;
pub mod power;
pub mod saw;
pub mod shifting;
pub mod signal;
pub mod stage;

pub use lora_phy::simd;

pub use channelizer::{ChannelizerSpec, ChannelizerState};
pub use comparator::{BinaryStream, DoubleThresholdComparator, SingleThresholdComparator};
pub use envelope::{DetectorNoise, EnvelopeDetector};
pub use filters::{IfAmplifier, LowPassFilter};
pub use fir::{ComplexFirState, PhaseSplit, PolyphaseDecimator};
pub use lna::Lna;
pub use mixer::{BasebandMixer, RfMixer};
pub use oscillator::{DelayLine, Oscillator};
pub use power::{Component, PowerBudget, Technology};
pub use saw::{ResponsePoint, SawFilter};
pub use shifting::{envelope_snr_db, snr_gain_db, CyclicFrequencyShifter, ShiftingConfig};
pub use signal::RealBuffer;
pub use stage::{BlockStage, InPlaceStage};
