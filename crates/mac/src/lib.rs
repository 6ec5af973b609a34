//! # saiyan-mac — the feedback-loop MAC layer
//!
//! The networking capabilities the Saiyan demodulator unlocks (paper §1, §4.4,
//! §5.3):
//!
//! * [`packet`] — tiny downlink command / uplink response formats;
//! * [`retransmission`] — on-demand ARQ (tag-side buffer, AP-side tracker);
//! * [`hopping`] — interference-driven channel hopping;
//! * [`rate`] — margin-based rate adaptation;
//! * [`ap`] — the access point: per-tag sequence windows ([`SequenceWindow`],
//!   shared with the network engine's access-point shard), delivery
//!   statistics and ARQ requests;
//! * [`session_table`] — flat struct-of-arrays tag-side session state for
//!   simulated populations.

#![warn(missing_docs)]

pub mod ap;
pub mod error;
pub mod hopping;
pub mod packet;
pub mod rate;
pub mod retransmission;
pub mod session_table;

pub use ap::{AccessPoint, IngestReport, SequenceWindow, TagStats};
pub use error::MacError;
pub use hopping::{ChannelTable, HoppingController, TagChannelState};
pub use packet::{Addressing, Command, DownlinkPacket, TagId, UplinkPacket};
pub use rate::{apply_rate_command, RateAdapter};
pub use retransmission::{ArqTracker, RetransmissionBuffer};
pub use session_table::SessionTable;
