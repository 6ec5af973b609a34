//! Channel hopping under interference (paper §5.3.2).
//!
//! The unlicensed band is crowded; when the access point observes in-band
//! interference it commands tags to hop to a cleaner channel. The tag obeys
//! because — thanks to Saiyan — it can actually demodulate the command.

use crate::error::MacError;
use crate::packet::{Addressing, Command, DownlinkPacket, TagId};

/// A channel table shared by the access point and its tags.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelTable {
    /// Centre frequencies (Hz) of the available channels.
    pub channels: Vec<f64>,
}

impl ChannelTable {
    /// The 433 MHz-band table used by the case study: 433.0, 433.5, 434.0,
    /// 434.5 and 435.0 MHz.
    pub fn paper_433mhz() -> Self {
        ChannelTable {
            channels: vec![433.0e6, 433.5e6, 434.0e6, 434.5e6, 435.0e6],
        }
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Looks up a channel's centre frequency.
    pub fn frequency(&self, index: u8) -> Result<f64, MacError> {
        self.channels
            .get(index as usize)
            .copied()
            .ok_or(MacError::InvalidChannel(index))
    }
}

/// Access-point-side hopping controller: tracks the interference level per
/// channel and decides when and where to hop.
///
/// The channel-hopping case study (`examples/channel_hopping.rs`): a jammer
/// appears on the tag's channel, the access point notices and broadcasts a
/// hop command, and the tag — able to demodulate it thanks to Saiyan —
/// follows:
///
/// ```
/// use saiyan_mac::{ChannelTable, Command, HoppingController, TagChannelState, TagId};
///
/// let table = ChannelTable::paper_433mhz();
/// let mut controller = HoppingController::new(table.clone(), 2, -70.0).unwrap();
/// let mut tag = TagChannelState::new(TagId(1), table, 2).unwrap();
/// assert_eq!(tag.frequency(), 434.0e6);
///
/// for ch in 0..5u8 {
///     controller.record_interference(ch, -95.0).unwrap();
/// }
/// controller.record_interference(2, -42.0).unwrap(); // jammer appears
/// let packet = controller.maybe_hop().expect("current channel is jammed");
/// assert!(matches!(packet.command, Command::ChannelHop { .. }));
/// assert!(tag.apply(&packet).unwrap());
/// assert_ne!(tag.frequency(), 434.0e6);
/// assert_eq!(tag.current, controller.current);
/// ```
#[derive(Debug, Clone)]
pub struct HoppingController {
    /// The channel table.
    pub table: ChannelTable,
    /// The channel currently in use.
    pub current: u8,
    /// Measured interference (dBm) per channel, updated by spectrum scans.
    pub interference_dbm: Vec<f64>,
    /// Interference level above which the controller hops away.
    pub hop_threshold_dbm: f64,
}

impl HoppingController {
    /// Creates a controller starting on `initial` with no measured interference.
    pub fn new(table: ChannelTable, initial: u8, hop_threshold_dbm: f64) -> Result<Self, MacError> {
        if initial as usize >= table.len() {
            return Err(MacError::InvalidChannel(initial));
        }
        let n = table.len();
        Ok(HoppingController {
            table,
            current: initial,
            interference_dbm: vec![f64::NEG_INFINITY; n],
            hop_threshold_dbm,
        })
    }

    /// Records a spectrum measurement for one channel. A NaN level is
    /// rejected and records nothing.
    pub fn record_interference(&mut self, channel: u8, level_dbm: f64) -> Result<(), MacError> {
        let idx = channel as usize;
        if idx >= self.interference_dbm.len() {
            return Err(MacError::InvalidChannel(channel));
        }
        if level_dbm.is_nan() {
            return Err(MacError::InvalidLevel);
        }
        self.interference_dbm[idx] = level_dbm;
        Ok(())
    }

    /// Whether the current channel is jammed.
    pub fn current_channel_jammed(&self) -> bool {
        self.interference_dbm[self.current as usize] > self.hop_threshold_dbm
    }

    /// Picks the cleanest channel other than the current one.
    pub fn best_alternative(&self) -> Option<u8> {
        self.interference_dbm
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.current as usize)
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i as u8)
    }

    /// If the current channel is jammed, returns the hop command to broadcast
    /// (and updates the controller's own channel).
    pub fn maybe_hop(&mut self) -> Option<DownlinkPacket> {
        if !self.current_channel_jammed() {
            return None;
        }
        let target = self.best_alternative()?;
        if target == self.current {
            return None;
        }
        self.current = target;
        Some(DownlinkPacket {
            addressing: Addressing::Broadcast,
            command: Command::ChannelHop { channel: target },
        })
    }
}

/// Tag-side hopping state: applies hop commands addressed to the tag.
#[derive(Debug, Clone)]
pub struct TagChannelState {
    /// The tag's identity.
    pub tag: TagId,
    /// The channel table.
    pub table: ChannelTable,
    /// The channel the tag currently listens/backscatters on.
    pub current: u8,
}

impl TagChannelState {
    /// Creates tag channel state.
    pub fn new(tag: TagId, table: ChannelTable, initial: u8) -> Result<Self, MacError> {
        if initial as usize >= table.len() {
            return Err(MacError::InvalidChannel(initial));
        }
        Ok(TagChannelState {
            tag,
            table,
            current: initial,
        })
    }

    /// Applies a received downlink packet; returns `true` if the tag hopped.
    pub fn apply(&mut self, packet: &DownlinkPacket) -> Result<bool, MacError> {
        let addressed_to_us = match packet.addressing {
            Addressing::Unicast(id) => id == self.tag,
            Addressing::Multicast { .. } | Addressing::Broadcast => true,
        };
        if !addressed_to_us {
            return Ok(false);
        }
        if let Command::ChannelHop { channel } = packet.command {
            if channel as usize >= self.table.len() {
                return Err(MacError::InvalidChannel(channel));
            }
            let hopped = channel != self.current;
            self.current = channel;
            return Ok(hopped);
        }
        Ok(false)
    }

    /// The tag's current centre frequency.
    pub fn frequency(&self) -> f64 {
        self.table.channels[self.current as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_hops_away_from_jammed_channel() {
        let mut c = HoppingController::new(ChannelTable::paper_433mhz(), 2, -70.0).unwrap();
        for ch in 0..5u8 {
            c.record_interference(ch, -95.0).unwrap();
        }
        assert!(c.maybe_hop().is_none());
        // Jam the current channel (434 MHz).
        c.record_interference(2, -40.0).unwrap();
        let cmd = c.maybe_hop().expect("should hop");
        match cmd.command {
            Command::ChannelHop { channel } => {
                assert_ne!(channel, 2);
                assert_eq!(c.current, channel);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn controller_picks_the_cleanest_alternative() {
        let mut c = HoppingController::new(ChannelTable::paper_433mhz(), 0, -70.0).unwrap();
        c.record_interference(0, -30.0).unwrap();
        c.record_interference(1, -60.0).unwrap();
        c.record_interference(2, -100.0).unwrap();
        c.record_interference(3, -80.0).unwrap();
        c.record_interference(4, -50.0).unwrap();
        assert_eq!(c.best_alternative(), Some(2));
    }

    #[test]
    fn nan_readings_are_rejected_and_a_jam_still_hops_to_a_clean_channel() {
        let mut c = HoppingController::new(ChannelTable::paper_433mhz(), 2, -70.0).unwrap();
        for ch in 0..5u8 {
            c.record_interference(ch, -95.0).unwrap();
        }
        assert_eq!(
            c.record_interference(0, f64::NAN),
            Err(MacError::InvalidLevel)
        );
        c.record_interference(2, -40.0).unwrap();
        let cmd = c.maybe_hop().expect("should hop");
        assert!(matches!(cmd.command, Command::ChannelHop { channel } if channel != 2));
        assert_eq!(c.interference_dbm[c.current as usize], -95.0);
    }

    #[test]
    fn tag_applies_hop_commands() {
        let mut tag = TagChannelState::new(TagId(3), ChannelTable::paper_433mhz(), 2).unwrap();
        assert_eq!(tag.frequency(), 434.0e6);
        let cmd = DownlinkPacket {
            addressing: Addressing::Broadcast,
            command: Command::ChannelHop { channel: 3 },
        };
        assert!(tag.apply(&cmd).unwrap());
        assert_eq!(tag.frequency(), 434.5e6);
        // A command addressed to a different tag is ignored.
        let other = DownlinkPacket {
            addressing: Addressing::Unicast(TagId(9)),
            command: Command::ChannelHop { channel: 0 },
        };
        assert!(!tag.apply(&other).unwrap());
        assert_eq!(tag.current, 3);
    }

    #[test]
    fn invalid_channels_are_rejected() {
        assert!(HoppingController::new(ChannelTable::paper_433mhz(), 9, -70.0).is_err());
        let mut tag = TagChannelState::new(TagId(1), ChannelTable::paper_433mhz(), 0).unwrap();
        let bad = DownlinkPacket {
            addressing: Addressing::Broadcast,
            command: Command::ChannelHop { channel: 42 },
        };
        assert!(tag.apply(&bad).is_err());
        assert!(ChannelTable::paper_433mhz().frequency(42).is_err());
    }
}
