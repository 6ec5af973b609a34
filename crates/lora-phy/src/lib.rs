//! # lora-phy — LoRa CSS physical-layer substrate
//!
//! This crate provides the LoRa physical layer that every other crate in the
//! Saiyan reproduction builds on:
//!
//! * [`iq`] — complex baseband sample types and buffers;
//! * [`params`] — spreading factor, bandwidth, bits-per-chirp and derived
//!   quantities (symbol time, data rate, sampling-rate rules);
//! * [`chirp`] — chirp waveform generation and peak-time geometry;
//! * [`fft`] — a self-contained radix-2 FFT with spectrum helpers;
//! * [`modulator`] — the payload alphabets and the packet layout;
//! * [`demodulator`] — the standard (access-point grade) dechirp + FFT
//!   receiver;
//! * [`downlink`] — the reduced `2^K`-symbol alphabet used by the Saiyan
//!   downlink: Gray-coded byte↔symbol packing and its peak-position ground
//!   truth;
//! * [`simd`] — runtime-dispatched SIMD kernels shared by every hot loop in
//!   the workspace (backend selection, bit-identical wide tiles,
//!   `SAIYAN_SIMD` override). It lives here, at the bottom of the crate
//!   graph, so the RF channel models and the serving layer can reach the
//!   same dispatch as the receiver front end;
//! * [`templates`] — the packet synthesizer: a per-parameter chirp
//!   template cache every IQ packet in the workspace is assembled from.
//!
//! The paper this reproduces: *Saiyan: Design and Implementation of a
//! Low-power Demodulator for LoRa Backscatter Systems* (NSDI 2022).

#![warn(missing_docs)]

pub mod chirp;
pub mod demodulator;
pub mod downlink;
pub mod error;
pub mod fft;
pub mod iq;
pub mod modulator;
pub mod params;
pub mod simd;
pub mod templates;

pub use chirp::{ChirpDirection, ChirpGenerator};
pub use demodulator::{PacketDecision, StandardDemodulator, SymbolDecision};
pub use error::PhyError;
pub use iq::{db_to_lin, lin_to_db, Iq, SampleBuffer};
pub use modulator::{Alphabet, PacketLayout};
pub use params::{
    Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor, DEFAULT_CARRIER_HZ,
    DEFAULT_PAYLOAD_SYMBOLS, PREAMBLE_UPCHIRPS, SYNC_SYMBOLS,
};
