//! # saiyan — the low-power LoRa backscatter demodulator
//!
//! The paper's primary contribution, reproduced in software:
//!
//! * [`config`] — demodulator configuration and the vanilla / shifting /
//!   super ablation variants;
//! * [`frontend`] — the analog chain (SAW → LNA → envelope detection, with or
//!   without cyclic-frequency shifting);
//! * [`sampler`] — the MCU's low-rate voltage sampler and Table 1;
//! * [`decoder`] — preamble detection and peak-position symbol decoding;
//! * [`correlator`] — the Super Saiyan correlation decoder;
//! * [`streaming`] — the assembled receiver: causal comparator-threshold
//!   calibration (`U_H`, `U_L`) and packet detection over an unbounded,
//!   multi-packet sample stream, fed in chunks or as one pre-cut capture;
//! * [`gateway`] — the multi-channel streaming gateway: a wideband
//!   channelizer feeding a bank of streaming demodulators on a worker pool,
//!   merged into one time-ordered packet stream;
//! * [`receiver`] — the [`Receiver`] backend trait (feed chunks → drain
//!   decoded packets) unifying the streaming demodulator, the gateway, and
//!   the baseline detectors behind one harness-facing interface;
//! * [`executor`] — receiver checkout/checkin executors: build-per-stream
//!   (embedded) or a reset-and-reuse pool (served);
//! * [`sensitivity`] — calibrated RSS→BER link-abstraction models;
//! * [`metrics`] — BER / throughput / PRR counting;
//! * [`power`] — tag-level power accounting (PCB and ASIC budgets).

#![warn(missing_docs)]

pub mod config;
pub mod correlator;
pub mod decoder;
pub mod executor;
pub mod frontend;
pub mod gateway;
pub mod metrics;
pub mod power;
pub mod receiver;
pub mod sampler;
pub mod sensitivity;
pub mod streaming;

pub use config::{SaiyanConfig, Variant};
pub use correlator::Correlator;
pub use decoder::{PeakDecoder, PreambleTiming, SymbolPeak};
pub use executor::{
    BoxedReceiver, FreshExecutor, PooledExecutor, ReceiverExecutor, ReceiverFactory,
};
pub use frontend::{Frontend, StreamingFrontend};
pub use gateway::{Gateway, GatewayChannel, GatewayConfig, GatewayPacket};
pub use metrics::{
    packet_error_rate, throughput_bps, throughput_from_ber, ErrorCounts, DEMODULATION_BER_THRESHOLD,
};
pub use power::{TagPowerModel, HARVESTER_AVERAGE_UW, STANDARD_LORA_RECEIVER_MW};
pub use receiver::Receiver;
pub use sampler::{table1_sampling_rates, SampledStream, SamplingRateEntry, VoltageSampler};
pub use sensitivity::{
    SensitivityConfig, CONVENTIONAL_ENVELOPE_DETECTOR_SENSITIVITY_DBM, SUPER_SAIYAN_SENSITIVITY_DBM,
};
pub use streaming::{DemodResult, StreamingDemodulator, Thresholds};
