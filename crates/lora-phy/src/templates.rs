//! The packet synthesizer: chirp templates assembled by copy.
//!
//! A parameter set only ever produces a handful of distinct chirps: the base
//! up-chirp (preamble), the base down-chirp (sync), and one payload chirp per
//! alphabet symbol. [`PacketTemplates`] runs the [`ChirpGenerator`]'s
//! per-sample phase integration **once** per chirp and assembles packets by
//! `memcpy`-style copies out of the cache: preamble ×
//! [`PREAMBLE_UPCHIRPS`], two down-chirps plus the quarter sync tail, then
//! the payload chirps, each copied verbatim from the generator's output.
//! [`PacketTemplates::assemble_scaled_extend`] fuses the per-packet amplitude
//! into the copy — `Iq::scale` per sample, the exact operation
//! [`SampleBuffer::scaled`] applies — so synthesis needs no second pass over
//! the waveform.
//!
//! This is the only way a packet becomes IQ. Every chirp is unit power, so
//! a packet scaled by `sqrt(p)` has mean power `p` over its own span: the
//! received power a capture is built for is the packet's mean power, with
//! any silent guard around it excluded.
//!
//! [`ChirpGenerator`]: crate::chirp::ChirpGenerator
//! [`SampleBuffer::scaled`]: crate::iq::SampleBuffer::scaled

use crate::chirp::{ChirpDirection, ChirpGenerator};
use crate::error::PhyError;
use crate::iq::Iq;
use crate::modulator::{Alphabet, PacketLayout};
use crate::params::{LoraParams, PREAMBLE_UPCHIRPS};

/// Cached IQ templates for every distinct chirp a packet can contain.
///
/// Build one per `(LoraParams, Alphabet)` pair per scenario; assembly is
/// then pure copy+scale. See the [module docs](self) for the bit-identity
/// contract with the chirp generator.
#[derive(Debug, Clone)]
pub struct PacketTemplates {
    params: LoraParams,
    alphabet: Alphabet,
    /// The base up-chirp (symbol 0), one symbol long.
    base_up: Vec<Iq>,
    /// The base down-chirp, one symbol long.
    base_down: Vec<Iq>,
    /// One payload chirp per alphabet symbol (`2^K` downlink entries or
    /// `2^SF` standard entries).
    payload: Vec<Vec<Iq>>,
}

impl PacketTemplates {
    /// Precomputes the chirp templates for one parameter set and payload
    /// alphabet. This is the only place the per-sample oscillator runs.
    pub fn new(params: LoraParams, alphabet: Alphabet) -> Self {
        let generator = ChirpGenerator::new(params);
        let alphabet_size = match alphabet {
            Alphabet::Standard => params.chips_per_symbol(),
            Alphabet::Downlink => params.bits_per_chirp.alphabet_size(),
        };
        let payload = (0..alphabet_size)
            .map(|sym| {
                let chirp = match alphabet {
                    Alphabet::Standard => generator
                        .symbol_chirp(sym, ChirpDirection::Up)
                        .expect("symbol below alphabet size"),
                    Alphabet::Downlink => generator
                        .downlink_chirp(sym)
                        .expect("symbol below alphabet size"),
                };
                chirp.samples
            })
            .collect();
        PacketTemplates {
            params,
            alphabet,
            base_up: generator.base_upchirp().samples,
            base_down: generator.base_downchirp().samples,
            payload,
        }
    }

    /// The parameter set the templates were built for.
    pub fn params(&self) -> &LoraParams {
        &self.params
    }

    /// The payload alphabet the templates cover.
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// The packet layout for a payload of `payload_symbols` chirps, without
    /// assembling anything.
    pub fn layout(&self, payload_symbols: usize) -> PacketLayout {
        let sps = self.base_up.len();
        let preamble_samples = PREAMBLE_UPCHIRPS * sps;
        let sync_samples = 2 * sps + sps / 4;
        PacketLayout {
            preamble_symbols: PREAMBLE_UPCHIRPS,
            preamble_samples,
            sync_samples,
            payload_symbols,
            payload_start: preamble_samples + sync_samples,
            total_samples: preamble_samples + sync_samples + payload_symbols * sps,
        }
    }

    /// Total samples of a packet with `payload_symbols` payload chirps.
    pub fn packet_samples(&self, payload_symbols: usize) -> usize {
        self.layout(payload_symbols).total_samples
    }

    /// Appends one complete packet (preamble + sync + payload), scaling every
    /// sample by `scale` as it is copied. `scale == 1.0` still multiplies —
    /// `x * 1.0` is exact in IEEE arithmetic, so the output remains
    /// bit-identical to the unscaled assembly.
    ///
    /// Returns the layout of the appended packet; `payload_start` /
    /// `total_samples` are relative to the packet, not to `out`.
    pub fn assemble_scaled_extend(
        &self,
        symbols: &[u32],
        scale: f64,
        out: &mut Vec<Iq>,
    ) -> Result<PacketLayout, PhyError> {
        let alphabet_size = self.payload.len() as u32;
        if let Some(&bad) = symbols.iter().find(|&&s| s >= alphabet_size) {
            return Err(PhyError::SymbolOutOfRange {
                symbol: bad,
                alphabet: alphabet_size,
            });
        }
        let layout = self.layout(symbols.len());
        out.reserve(layout.total_samples);
        if scale == 1.0 {
            // Plain copies of the generator's chirps.
            for _ in 0..PREAMBLE_UPCHIRPS {
                out.extend_from_slice(&self.base_up);
            }
            out.extend_from_slice(&self.base_down);
            out.extend_from_slice(&self.base_down);
            out.extend_from_slice(&self.base_down[..self.base_down.len() / 4]);
            for &sym in symbols {
                out.extend_from_slice(&self.payload[sym as usize]);
            }
        } else {
            let scaled = |src: &[Iq], out: &mut Vec<Iq>| {
                out.extend(src.iter().map(|s| s.scale(scale)));
            };
            for _ in 0..PREAMBLE_UPCHIRPS {
                scaled(&self.base_up, out);
            }
            scaled(&self.base_down, out);
            scaled(&self.base_down, out);
            scaled(&self.base_down[..self.base_down.len() / 4], out);
            for &sym in symbols {
                scaled(&self.payload[sym as usize], out);
            }
        }
        Ok(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Bandwidth, BitsPerChirp, SpreadingFactor};

    fn params() -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).expect("valid"),
        )
    }

    /// The reference modulator: every packet segment straight from the
    /// chirp generator, concatenated, with the layout its lengths imply.
    fn modulate(p: LoraParams, alphabet: Alphabet, symbols: &[u32]) -> (Vec<Iq>, PacketLayout) {
        let generator = ChirpGenerator::new(p);
        let down = generator.base_downchirp().samples;
        let mut wave = Vec::new();
        for _ in 0..PREAMBLE_UPCHIRPS {
            wave.extend(generator.base_upchirp().samples);
        }
        let preamble_samples = wave.len();
        wave.extend_from_slice(&down);
        wave.extend_from_slice(&down);
        wave.extend_from_slice(&down[..down.len() / 4]);
        let payload_start = wave.len();
        for &sym in symbols {
            let chirp = match alphabet {
                Alphabet::Standard => generator.symbol_chirp(sym, ChirpDirection::Up),
                Alphabet::Downlink => generator.downlink_chirp(sym),
            };
            wave.extend(chirp.unwrap().samples);
        }
        let layout = PacketLayout {
            preamble_symbols: PREAMBLE_UPCHIRPS,
            preamble_samples,
            sync_samples: payload_start - preamble_samples,
            payload_symbols: symbols.len(),
            payload_start,
            total_samples: wave.len(),
        };
        (wave, layout)
    }

    fn assemble(templates: &PacketTemplates, symbols: &[u32]) -> (Vec<Iq>, PacketLayout) {
        let mut out = Vec::new();
        let layout = templates
            .assemble_scaled_extend(symbols, 1.0, &mut out)
            .unwrap();
        (out, layout)
    }

    #[test]
    fn assembly_is_bit_identical_to_the_modulator() {
        for oversampling in [1u32, 2, 4] {
            let p = params().with_oversampling(oversampling);
            let templates = PacketTemplates::new(p, Alphabet::Downlink);
            let symbols = vec![0, 3, 1, 2, 2, 0];
            let (wave, layout) = modulate(p, Alphabet::Downlink, &symbols);
            let (fast, fast_layout) = assemble(&templates, &symbols);
            assert_eq!(fast_layout, layout, "oversampling {oversampling}");
            assert_eq!(fast, wave, "oversampling {oversampling}");
        }
    }

    #[test]
    fn standard_alphabet_assembly_matches_too() {
        let p = params();
        let templates = PacketTemplates::new(p, Alphabet::Standard);
        let symbols = vec![0, 127, 64, 5];
        let (wave, layout) = modulate(p, Alphabet::Standard, &symbols);
        let (fast, fast_layout) = assemble(&templates, &symbols);
        assert_eq!(fast_layout, layout);
        assert_eq!(fast, wave);
    }

    #[test]
    fn scaled_assembly_matches_scale_after_assembly() {
        let templates = PacketTemplates::new(params(), Alphabet::Downlink);
        let symbols = vec![1, 2, 3, 0];
        let scale = 0.003_162_277_660_168_379_4; // sqrt of a -50 dBm power
        let (mut reference, _) = assemble(&templates, &symbols);
        for s in &mut reference {
            *s = s.scale(scale);
        }
        let mut fused = Vec::new();
        templates
            .assemble_scaled_extend(&symbols, scale, &mut fused)
            .unwrap();
        assert_eq!(fused, reference);
    }

    #[test]
    fn extend_appends_after_existing_samples() {
        let templates = PacketTemplates::new(params(), Alphabet::Downlink);
        let mut out = vec![Iq::ONE; 7];
        let layout = templates
            .assemble_scaled_extend(&[0, 1], 1.0, &mut out)
            .unwrap();
        assert_eq!(out.len(), 7 + layout.total_samples);
        assert_eq!(out[..7], vec![Iq::ONE; 7][..]);
    }

    #[test]
    fn out_of_range_symbol_is_rejected_before_assembly() {
        let templates = PacketTemplates::new(params(), Alphabet::Downlink);
        let mut out = vec![Iq::ONE; 3];
        assert!(templates
            .assemble_scaled_extend(&[0, 4], 1.0, &mut out)
            .is_err());
        // Nothing was appended on the error path.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn layout_matches_modulator_layout() {
        let p = params().with_oversampling(2);
        let templates = PacketTemplates::new(p, Alphabet::Downlink);
        let (_, layout) = modulate(p, Alphabet::Downlink, &[0, 1, 2]);
        assert_eq!(templates.layout(3), layout);
        assert_eq!(templates.packet_samples(3), layout.total_samples);
    }
}
