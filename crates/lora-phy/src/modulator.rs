//! LoRa packet structure: the payload alphabets and the packet layout.
//!
//! A packet is a preamble of identical up-chirps, a 2.25-symbol sync/SFD
//! section, and the payload chirps, drawn from either the standard uplink
//! alphabet (`2^SF` symbols) or the Saiyan downlink alphabet (`2^K`
//! symbols). [`crate::templates::PacketTemplates`] is the one synthesizer
//! that turns symbols into those samples.

/// Which symbol alphabet the payload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alphabet {
    /// Standard LoRa: `2^SF` symbols per chirp.
    Standard,
    /// Saiyan downlink: `2^K` symbols per chirp (K = bits per chirp).
    Downlink,
}

/// Structural description of a synthesized packet, useful for tests and for
/// receivers that need ground truth about where the payload starts.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketLayout {
    /// Number of preamble up-chirps.
    pub preamble_symbols: usize,
    /// Number of waveform samples occupied by the preamble.
    pub preamble_samples: usize,
    /// Number of waveform samples occupied by the sync/SFD section.
    pub sync_samples: usize,
    /// Number of payload symbols.
    pub payload_symbols: usize,
    /// Sample index where the payload begins.
    pub payload_start: usize,
    /// Total number of samples.
    pub total_samples: usize,
}

/// The packet structure as [`crate::templates::PacketTemplates`] assembles
/// it, checked against the chirp generator.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::chirp::ChirpGenerator;
    use crate::iq::Iq;
    use crate::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor, PREAMBLE_UPCHIRPS};
    use crate::templates::PacketTemplates;

    fn params() -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        )
    }

    fn packet(symbols: &[u32]) -> (Vec<Iq>, PacketLayout) {
        let mut wave = Vec::new();
        let layout = PacketTemplates::new(params(), Alphabet::Downlink)
            .assemble_scaled_extend(symbols, 1.0, &mut wave)
            .unwrap();
        (wave, layout)
    }

    #[test]
    fn preamble_length() {
        let (wave, layout) = packet(&[0, 1]);
        let sps = params().samples_per_symbol();
        assert_eq!(layout.preamble_symbols, PREAMBLE_UPCHIRPS);
        assert_eq!(layout.preamble_samples, PREAMBLE_UPCHIRPS * sps);
        let up = ChirpGenerator::new(params()).base_upchirp().samples;
        for chirp in wave[..layout.preamble_samples].chunks(sps) {
            assert_eq!(chirp, &up[..]);
        }
    }

    #[test]
    fn sync_is_2_25_symbols() {
        let (wave, layout) = packet(&[0, 1]);
        let sps = params().samples_per_symbol();
        assert_eq!(layout.sync_samples, 2 * sps + sps / 4);
        let down = ChirpGenerator::new(params()).base_downchirp().samples;
        let sync = &wave[layout.preamble_samples..layout.payload_start];
        assert_eq!(&sync[..sps], &down[..]);
        assert_eq!(&sync[sps..2 * sps], &down[..]);
        assert_eq!(&sync[2 * sps..], &down[..sps / 4]);
    }

    #[test]
    fn packet_layout_is_consistent() {
        let symbols = vec![0, 1, 2, 3];
        let (wave, layout) = packet(&symbols);
        assert_eq!(wave.len(), layout.total_samples);
        assert_eq!(
            layout.payload_start,
            layout.preamble_samples + layout.sync_samples
        );
        assert_eq!(layout.payload_symbols, 4);
        let expected_payload = 4 * params().samples_per_symbol();
        assert_eq!(
            layout.total_samples - layout.payload_start,
            expected_payload
        );
    }

    #[test]
    fn guard_offsets_payload_start() {
        // A capture is the packet assembled into a zero-padded buffer: the
        // leading guard offsets the payload and stays silent.
        let guard = 3 * params().samples_per_symbol();
        let mut wave = vec![Iq::ZERO; guard];
        let layout = PacketTemplates::new(params(), Alphabet::Downlink)
            .assemble_scaled_extend(&[0, 1], 1.0, &mut wave)
            .unwrap();
        assert_eq!(wave.len(), guard + layout.total_samples);
        assert!(guard + layout.payload_start > guard);
        assert!(wave[..guard].iter().all(|s| s.abs() == 0.0));
        assert!(wave[guard..].iter().all(|s| s.abs() > 0.0));
    }

    #[test]
    fn invalid_symbol_rejected() {
        let mut out = Vec::new();
        assert!(PacketTemplates::new(params(), Alphabet::Downlink)
            .assemble_scaled_extend(&[4], 1.0, &mut out)
            .is_err());
        assert!(PacketTemplates::new(params(), Alphabet::Standard)
            .assemble_scaled_extend(&[200], 1.0, &mut out)
            .is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn waveform_is_constant_envelope() {
        let (wave, _) = packet(&[0, 3, 1, 2]);
        for s in &wave {
            assert!((s.abs() - 1.0).abs() < 1e-9);
        }
    }
}
