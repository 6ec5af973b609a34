//! Standard (access-point grade) LoRa demodulator.
//!
//! This is the power-hungry reference receiver the paper contrasts Saiyan
//! against: down-convert, sample at (at least) the chirp bandwidth, dechirp by
//! multiplying with a conjugate base chirp, FFT, and pick the strongest bin
//! (§1, "the commercial LoRa receiver operates by ... FFT"). Tests use it as
//! the reference receiver: `end_to_end_downlink` compares Saiyan's decodes
//! against it, and it validates packet synthesis.

use crate::chirp::ChirpGenerator;
use crate::error::PhyError;
use crate::fft::{argmax_bin, fft_padded, peak_to_mean_db};
use crate::iq::{Iq, SampleBuffer};
use crate::modulator::Alphabet;
use crate::params::{LoraParams, PREAMBLE_UPCHIRPS};

/// Result of demodulating one chirp symbol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymbolDecision {
    /// The decided symbol value.
    pub symbol: u32,
    /// Peak-to-mean ratio of the dechirped spectrum in dB (decision confidence).
    pub confidence_db: f64,
}

/// Result of demodulating a whole packet.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketDecision {
    /// Decided payload symbols.
    pub symbols: Vec<u32>,
    /// Per-symbol confidences (dB).
    pub confidences_db: Vec<f64>,
    /// Sample index where the payload was assumed to start.
    pub payload_start: usize,
}

/// Standard coherent LoRa demodulator (dechirp + FFT).
#[derive(Debug, Clone)]
pub struct StandardDemodulator {
    params: LoraParams,
    downchirp: Vec<Iq>,
}

impl StandardDemodulator {
    /// Creates a demodulator for the given parameter set.
    pub fn new(params: LoraParams) -> Self {
        let gen = ChirpGenerator::new(params);
        StandardDemodulator {
            params,
            downchirp: gen.base_downchirp().samples,
        }
    }

    /// The parameter set in use.
    pub fn params(&self) -> &LoraParams {
        &self.params
    }

    /// Dechirps one symbol worth of samples and returns the power spectrum.
    fn dechirp_spectrum(&self, symbol_samples: &[Iq]) -> Vec<f64> {
        let n = symbol_samples.len().min(self.downchirp.len());
        let mixed: Vec<Iq> = symbol_samples[..n]
            .iter()
            .zip(&self.downchirp[..n])
            .map(|(a, b)| *a * *b)
            .collect();
        fft_padded(&mixed).iter().map(Iq::norm_sqr).collect()
    }

    /// Demodulates a single symbol starting at the beginning of
    /// `symbol_samples` (must contain at least one symbol of samples).
    pub fn demodulate_symbol(
        &self,
        symbol_samples: &[Iq],
        alphabet: Alphabet,
    ) -> Result<SymbolDecision, PhyError> {
        let sps = self.params.samples_per_symbol();
        if symbol_samples.len() < sps {
            return Err(PhyError::BufferTooShort {
                needed: sps,
                got: symbol_samples.len(),
            });
        }
        let spectrum = self.dechirp_spectrum(&symbol_samples[..sps]);
        let bin = argmax_bin(&spectrum);
        let confidence_db = peak_to_mean_db(&spectrum);

        // The dechirped tone frequency is f0 = symbol/2^SF * BW (or symbol/2^K
        // for the downlink alphabet). With oversampling the FFT length is
        // `sps` (padded to a power of two); map the bin back to a symbol.
        let fft_len = spectrum.len() as f64;
        let fs = self.params.sample_rate();
        let bin_freq = if (bin as f64) < fft_len / 2.0 {
            bin as f64 * fs / fft_len
        } else {
            (bin as f64 - fft_len) * fs / fft_len
        };
        // Negative frequencies correspond to wrapped chirps; fold into [0, BW).
        let bw = self.params.bw.hz();
        let mut freq = bin_freq;
        while freq < 0.0 {
            freq += bw;
        }
        while freq >= bw {
            freq -= bw;
        }
        let alphabet_size = match alphabet {
            Alphabet::Standard => self.params.chips_per_symbol(),
            Alphabet::Downlink => self.params.bits_per_chirp.alphabet_size(),
        };
        let symbol = ((freq / bw * alphabet_size as f64).round() as u32).rem_euclid(alphabet_size);
        Ok(SymbolDecision {
            symbol,
            confidence_db,
        })
    }

    /// Detects the start of the preamble in `buffer` by sliding a dechirp
    /// window and looking for consecutive windows whose spectra peak in the
    /// same bin with high confidence. Returns the sample index of the first
    /// preamble chirp.
    pub fn detect_preamble(&self, buffer: &SampleBuffer) -> Result<usize, PhyError> {
        let sps = self.params.samples_per_symbol();
        if buffer.len() < sps * (PREAMBLE_UPCHIRPS + 2) {
            return Err(PhyError::BufferTooShort {
                needed: sps * (PREAMBLE_UPCHIRPS + 2),
                got: buffer.len(),
            });
        }
        // Slide a symbol-length window in whole-symbol steps. Within the
        // preamble every window sees an identical up-chirp at the same
        // relative offset, so the dechirped tone lands in the same FFT bin
        // window after window. Four consecutive agreeing windows with a
        // confident peak mark the preamble.
        let step = sps;
        let mut candidate: Option<usize> = None;
        let mut streak = 0usize;
        let mut last_bin: Option<usize> = None;
        let mut offset = 0usize;
        while offset + sps <= buffer.len() {
            let spectrum = self.dechirp_spectrum(&buffer.samples[offset..offset + sps]);
            let bin = argmax_bin(&spectrum);
            let conf = peak_to_mean_db(&spectrum);
            let fft_len = spectrum.len();
            let bins_agree = match last_bin {
                None => true,
                Some(prev) => {
                    let diff = bin.abs_diff(prev);
                    diff <= 1 || diff >= fft_len - 1
                }
            };
            if conf > 8.0 && bins_agree {
                if streak == 0 {
                    candidate = Some(offset);
                }
                streak += 1;
                last_bin = Some(bin);
                if streak >= 4 {
                    return Ok(candidate.unwrap_or(offset));
                }
            } else {
                streak = 0;
                candidate = None;
                last_bin = None;
            }
            offset += step;
        }
        Err(PhyError::PreambleNotFound)
    }

    /// Demodulates a packet whose payload begins at `payload_start` (obtained
    /// from the modulator layout or from preamble detection + the 12.25-symbol
    /// offset).
    pub fn demodulate_payload(
        &self,
        buffer: &SampleBuffer,
        payload_start: usize,
        payload_symbols: usize,
        alphabet: Alphabet,
    ) -> Result<PacketDecision, PhyError> {
        let sps = self.params.samples_per_symbol();
        let needed = payload_start + payload_symbols * sps;
        if buffer.len() < needed {
            return Err(PhyError::BufferTooShort {
                needed,
                got: buffer.len(),
            });
        }
        let mut symbols = Vec::with_capacity(payload_symbols);
        let mut confidences = Vec::with_capacity(payload_symbols);
        for i in 0..payload_symbols {
            let start = payload_start + i * sps;
            let d = self.demodulate_symbol(&buffer.samples[start..start + sps], alphabet)?;
            symbols.push(d.symbol);
            confidences.push(d.confidence_db);
        }
        Ok(PacketDecision {
            symbols,
            confidences_db: confidences,
            payload_start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulator::PacketLayout;
    use crate::params::{Bandwidth, BitsPerChirp, SpreadingFactor};
    use crate::templates::PacketTemplates;

    fn params() -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(3).unwrap(),
        )
    }

    /// One unit-power packet after `guard` silent samples.
    fn packet(
        p: LoraParams,
        alphabet: Alphabet,
        symbols: &[u32],
        guard: usize,
    ) -> (SampleBuffer, PacketLayout) {
        let mut samples = vec![Iq::ZERO; guard];
        let layout = PacketTemplates::new(p, alphabet)
            .assemble_scaled_extend(symbols, 1.0, &mut samples)
            .unwrap();
        (SampleBuffer::new(samples, p.sample_rate()), layout)
    }

    #[test]
    fn clean_downlink_round_trip() {
        let p = params();
        let d = StandardDemodulator::new(p);
        let symbols = vec![0, 5, 7, 1, 3, 6, 2, 4];
        let (wave, layout) = packet(p, Alphabet::Downlink, &symbols, 0);
        let decision = d
            .demodulate_payload(
                &wave,
                layout.payload_start,
                symbols.len(),
                Alphabet::Downlink,
            )
            .unwrap();
        assert_eq!(decision.symbols, symbols);
        assert!(decision.confidences_db.iter().all(|&c| c > 20.0));
    }

    #[test]
    fn clean_standard_round_trip() {
        let p = params();
        let d = StandardDemodulator::new(p);
        let symbols = vec![0, 17, 64, 127, 90, 33];
        let (wave, layout) = packet(p, Alphabet::Standard, &symbols, 0);
        let decision = d
            .demodulate_payload(
                &wave,
                layout.payload_start,
                symbols.len(),
                Alphabet::Standard,
            )
            .unwrap();
        assert_eq!(decision.symbols, symbols);
    }

    #[test]
    fn preamble_detection_on_clean_packet() {
        let p = params();
        let d = StandardDemodulator::new(p);
        let guard = 2 * p.samples_per_symbol();
        let (mut wave, _) = packet(p, Alphabet::Downlink, &[1, 2, 3, 4], guard);
        wave.append(&SampleBuffer::zeros(guard, p.sample_rate()));
        let found = d.detect_preamble(&wave).unwrap();
        // Detection should land within one symbol of the true preamble start.
        assert!(
            found.abs_diff(guard) <= p.samples_per_symbol(),
            "found {found}, expected near {guard}"
        );
    }

    #[test]
    fn buffer_too_short_is_reported() {
        let p = params();
        let d = StandardDemodulator::new(p);
        let buf = SampleBuffer::zeros(10, p.sample_rate());
        assert!(matches!(
            d.demodulate_symbol(&buf.samples, Alphabet::Downlink),
            Err(PhyError::BufferTooShort { .. })
        ));
    }
}
