//! MAC-layer packet formats.
//!
//! The feedback loop Saiyan enables carries small downlink commands from the
//! access point to tags (retransmission requests, channel-hop orders, rate
//! updates, sensor on/off) and short uplink responses (data and ACKs). The
//! wire format is deliberately tiny — a few bytes — because every downlink
//! byte costs the tag demodulation energy.

use crate::error::MacError;

/// Address of a tag. `BROADCAST` addresses every tag in range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagId(pub u16);

impl TagId {
    /// The broadcast address.
    pub const BROADCAST: TagId = TagId(0xFFFF);

    /// Whether this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

/// How a downlink packet is addressed (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addressing {
    /// A single tag; only that tag responds, so no collisions occur.
    Unicast(TagId),
    /// A named group of tags; responders contend via slotted ALOHA.
    Multicast {
        /// Group identifier.
        group: u8,
    },
    /// Every tag in range; responders contend via slotted ALOHA.
    Broadcast,
}

/// Commands the access point can issue over the downlink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Ask the tag to retransmit the uplink packet with the given sequence number.
    Retransmit {
        /// Sequence number of the lost packet.
        sequence: u8,
    },
    /// Ask the tag to hop to another channel.
    ChannelHop {
        /// Index into the channel table.
        channel: u8,
    },
    /// Ask the tag to change its data rate (bits per chirp).
    SetRate {
        /// New bits-per-chirp value (1–8).
        bits_per_chirp: u8,
    },
    /// Turn an on-board sensor on or off remotely.
    SensorControl {
        /// Sensor index.
        sensor: u8,
        /// Desired state.
        enable: bool,
    },
    /// Acknowledge receipt of an uplink packet.
    Ack {
        /// Sequence number being acknowledged.
        sequence: u8,
    },
}

impl Command {
    fn opcode(&self) -> u8 {
        match self {
            Command::Retransmit { .. } => 1,
            Command::ChannelHop { .. } => 2,
            Command::SetRate { .. } => 3,
            Command::SensorControl { .. } => 4,
            Command::Ack { .. } => 5,
        }
    }
}

/// A downlink packet from the access point to tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DownlinkPacket {
    /// How the packet is addressed.
    pub addressing: Addressing,
    /// The command carried.
    pub command: Command,
}

impl DownlinkPacket {
    /// Serialises to wire bytes: `[addr_hi, addr_lo, opcode, arg0, arg1]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (addr, group_flag) = match self.addressing {
            Addressing::Unicast(id) => (id.0, 0u8),
            Addressing::Multicast { group } => (0xFF00 | group as u16, 1),
            Addressing::Broadcast => (TagId::BROADCAST.0, 0),
        };
        let (a0, a1) = match self.command {
            Command::Retransmit { sequence } => (sequence, 0),
            Command::ChannelHop { channel } => (channel, 0),
            Command::SetRate { bits_per_chirp } => (bits_per_chirp, 0),
            Command::SensorControl { sensor, enable } => (sensor, enable as u8),
            Command::Ack { sequence } => (sequence, 0),
        };
        vec![
            (addr >> 8) as u8,
            (addr & 0xFF) as u8,
            (self.command.opcode() << 1) | group_flag,
            a0,
            a1,
        ]
    }

    /// Parses wire bytes produced by [`DownlinkPacket::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, MacError> {
        if bytes.len() < 5 {
            return Err(MacError::Truncated {
                needed: 5,
                got: bytes.len(),
            });
        }
        let addr = ((bytes[0] as u16) << 8) | bytes[1] as u16;
        let group_flag = bytes[2] & 1;
        let opcode = bytes[2] >> 1;
        let addressing = if group_flag == 1 {
            Addressing::Multicast {
                group: (addr & 0xFF) as u8,
            }
        } else if addr == TagId::BROADCAST.0 {
            Addressing::Broadcast
        } else {
            Addressing::Unicast(TagId(addr))
        };
        let command = match opcode {
            1 => Command::Retransmit { sequence: bytes[3] },
            2 => Command::ChannelHop { channel: bytes[3] },
            3 => Command::SetRate {
                bits_per_chirp: bytes[3],
            },
            4 => Command::SensorControl {
                sensor: bytes[3],
                enable: bytes[4] != 0,
            },
            5 => Command::Ack { sequence: bytes[3] },
            other => return Err(MacError::UnknownOpcode(other)),
        };
        Ok(DownlinkPacket {
            addressing,
            command,
        })
    }
}

/// An uplink packet from a tag to the access point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UplinkPacket {
    /// The sending tag.
    pub source: TagId,
    /// Sequence number of this packet.
    pub sequence: u8,
    /// Whether this packet acknowledges a downlink command.
    pub is_ack: bool,
    /// Sensor payload bytes.
    pub payload: Vec<u8>,
}

impl UplinkPacket {
    /// Serialises to wire bytes.
    ///
    /// # Panics
    ///
    /// If the payload is longer than 255 bytes, the most its one-byte
    /// length field can carry.
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = u8::try_from(self.payload.len()).unwrap_or_else(|_| {
            panic!(
                "uplink payload of {} bytes exceeds the 255-byte cap",
                self.payload.len()
            )
        });
        let mut out = vec![
            (self.source.0 >> 8) as u8,
            (self.source.0 & 0xFF) as u8,
            self.sequence,
            self.is_ack as u8,
            len,
        ];
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses wire bytes produced by [`UplinkPacket::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, MacError> {
        if bytes.len() < 5 {
            return Err(MacError::Truncated {
                needed: 5,
                got: bytes.len(),
            });
        }
        let len = bytes[4] as usize;
        if bytes.len() < 5 + len {
            return Err(MacError::Truncated {
                needed: 5 + len,
                got: bytes.len(),
            });
        }
        Ok(UplinkPacket {
            source: TagId(((bytes[0] as u16) << 8) | bytes[1] as u16),
            sequence: bytes[2],
            is_ack: bytes[3] != 0,
            payload: bytes[5..5 + len].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downlink_round_trip_all_commands() {
        let commands = [
            Command::Retransmit { sequence: 7 },
            Command::ChannelHop { channel: 3 },
            Command::SetRate { bits_per_chirp: 5 },
            Command::SensorControl {
                sensor: 2,
                enable: false,
            },
            Command::Ack { sequence: 200 },
        ];
        let addressings = [
            Addressing::Unicast(TagId(42)),
            Addressing::Multicast { group: 9 },
            Addressing::Broadcast,
        ];
        for &command in &commands {
            for &addressing in &addressings {
                let p = DownlinkPacket {
                    addressing,
                    command,
                };
                let back = DownlinkPacket::from_bytes(&p.to_bytes()).unwrap();
                assert_eq!(back, p);
            }
        }
    }

    #[test]
    fn uplink_round_trip() {
        let p = UplinkPacket {
            source: TagId(7),
            sequence: 19,
            is_ack: true,
            payload: vec![1, 2, 3, 4],
        };
        let back = UplinkPacket::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn uplink_round_trips_a_payload_at_the_cap() {
        let p = UplinkPacket {
            source: TagId(7),
            sequence: 1,
            is_ack: false,
            payload: (0..=254).collect(),
        };
        assert_eq!(UplinkPacket::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    #[should_panic(expected = "exceeds the 255-byte cap")]
    fn uplink_payloads_over_the_cap_panic() {
        let p = UplinkPacket {
            source: TagId(7),
            sequence: 1,
            is_ack: false,
            payload: vec![0; 256],
        };
        p.to_bytes();
    }

    #[test]
    fn truncated_packets_are_rejected() {
        assert!(DownlinkPacket::from_bytes(&[1, 2, 3]).is_err());
        assert!(UplinkPacket::from_bytes(&[0, 7, 1, 0, 10, 1, 2]).is_err());
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        let mut bytes = DownlinkPacket {
            addressing: Addressing::Broadcast,
            command: Command::Ack { sequence: 0 },
        }
        .to_bytes();
        bytes[2] = 0b1111_0000;
        assert!(matches!(
            DownlinkPacket::from_bytes(&bytes),
            Err(MacError::UnknownOpcode(_))
        ));
    }

    #[test]
    fn broadcast_address() {
        assert!(TagId::BROADCAST.is_broadcast());
        assert!(!TagId(3).is_broadcast());
    }
}
