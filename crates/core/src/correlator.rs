//! Envelope-domain correlator (paper §3.2).
//!
//! When the incident signal gets close to the noise floor, the comparator's
//! binary output becomes unreliable. Super Saiyan adds a correlator: the
//! sampled envelope of each symbol window is correlated against the expected
//! envelope template of every candidate symbol, and the best-matching template
//! wins. Correlating over the whole symbol integrates energy across many
//! samples, which is where the extra sensitivity comes from.

use analog::signal::RealBuffer;

use crate::config::SaiyanConfig;
use crate::frontend::Frontend;
use crate::sampler::VoltageSampler;

/// A bank of per-symbol envelope templates at the sampler rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Correlator {
    templates: Vec<Vec<f64>>,
    /// Sampler rate the templates were built at.
    pub sample_rate: f64,
}

impl Correlator {
    /// Received power level (dBm) at which templates are generated: well into
    /// the front end's linear region so the LNA's compression does not distort
    /// the template shape.
    pub const TEMPLATE_POWER_DBM: f64 = -60.0;

    /// Builds the template bank by pushing each clean candidate chirp through
    /// the reference (noise-free) front end, with the receiver's own SAW FIR
    /// length and its group delay removed, and sampling the result.
    pub fn from_config(config: &SaiyanConfig) -> Self {
        let frontend = Frontend::reference(config);
        let sampler = VoltageSampler::practical(&config.lora, config.sampling_margin);
        let generator = lora_phy::chirp::ChirpGenerator::new(config.lora);
        let alphabet = config.lora.bits_per_chirp.alphabet_size();
        let template_power =
            rfsim::channel::dbm_to_buffer_power(rfsim::units::Dbm(Self::TEMPLATE_POWER_DBM));
        let mut templates = Vec::with_capacity(alphabet as usize);
        for symbol in 0..alphabet {
            let chirp = generator
                .downlink_chirp(symbol)
                .expect("symbol within alphabet");
            let current = chirp.mean_power().max(1e-300);
            let scaled = chirp.scaled((template_power / current).sqrt());
            let envelope = frontend.process(&scaled, config.saw_taps());
            let sampled = sampler.sample_envelope(&envelope);
            templates.push(normalise(&sampled.samples));
        }
        Correlator {
            templates,
            sample_rate: sampler.rate,
        }
    }

    /// Number of templates (the alphabet size).
    pub fn alphabet_size(&self) -> usize {
        self.templates.len()
    }

    /// Length (in sampler ticks) of each template.
    pub fn template_len(&self) -> usize {
        self.templates.first().map(Vec::len).unwrap_or(0)
    }

    /// Correlates one symbol window of sampled envelope values against every
    /// template and returns (best symbol, normalised correlation score).
    ///
    /// The window is DC-removed and energy-normalised, so the score is a
    /// cosine similarity in `[-1, 1]`.
    pub fn decide(&self, window: &[f64]) -> (u32, f64) {
        let w = normalise(window);
        let mut best_symbol = 0u32;
        let mut best_score = f64::NEG_INFINITY;
        for (symbol, template) in self.templates.iter().enumerate() {
            let n = w.len().min(template.len());
            if n == 0 {
                continue;
            }
            let score: f64 = w[..n].iter().zip(&template[..n]).map(|(a, b)| a * b).sum();
            if score > best_score {
                best_score = score;
                best_symbol = symbol as u32;
            }
        }
        (best_symbol, best_score)
    }

    /// Decodes a run of `n_symbols` consecutive windows from a sampled
    /// envelope, the first window starting at `payload_start` seconds.
    pub fn decode_payload(
        &self,
        envelope: &RealBuffer,
        payload_start: f64,
        symbol_duration: f64,
        n_symbols: usize,
    ) -> Vec<(u32, f64)> {
        let rate = envelope.sample_rate;
        (0..n_symbols)
            .map(|i| {
                let t0 = payload_start + i as f64 * symbol_duration;
                let start = (t0 * rate).round().max(0.0) as usize;
                let end = (((t0 + symbol_duration) * rate).round() as usize).min(envelope.len());
                if start >= end {
                    return (0u32, 0.0);
                }
                self.decide(&envelope.samples[start..end])
            })
            .collect()
    }
}

/// Removes the mean and scales to unit energy.
fn normalise(samples: &[f64]) -> Vec<f64> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
    let centred: Vec<f64> = samples.iter().map(|v| v - mean).collect();
    let energy: f64 = centred.iter().map(|v| v * v).sum();
    if energy <= 0.0 {
        return vec![0.0; samples.len()];
    }
    let scale = 1.0 / energy.sqrt();
    centred.iter().map(|v| v * scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};

    fn config() -> SaiyanConfig {
        let lora = LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        )
        .with_oversampling(8);
        SaiyanConfig::paper_default(lora, Variant::Super)
    }

    #[test]
    fn template_bank_has_one_entry_per_symbol() {
        let corr = Correlator::from_config(&config());
        assert_eq!(corr.alphabet_size(), 4);
        assert!(corr.template_len() > 0);
    }

    /// Pushes one clean chirp through the reference front end at a
    /// linear-region power and samples it.
    fn clean_window(cfg: &SaiyanConfig, symbol: u32, power_dbm: f64) -> Vec<f64> {
        let frontend = Frontend::reference(cfg);
        let sampler = VoltageSampler::practical(&cfg.lora, cfg.sampling_margin);
        let gen = lora_phy::chirp::ChirpGenerator::new(cfg.lora);
        let chirp = gen.downlink_chirp(symbol).unwrap();
        let target = rfsim::channel::dbm_to_buffer_power(rfsim::units::Dbm(power_dbm));
        let scaled = chirp.scaled((target / 1.0).sqrt());
        sampler
            .sample_envelope(&frontend.process(&scaled, cfg.saw_taps()))
            .samples
    }

    #[test]
    fn each_template_matches_itself_best() {
        let cfg = config();
        let corr = Correlator::from_config(&cfg);
        for symbol in 0..4u32 {
            let window = clean_window(&cfg, symbol, -55.0);
            let (decided, score) = corr.decide(&window);
            assert_eq!(decided, symbol);
            assert!(score > 0.9, "symbol {symbol} score {score}");
        }
    }

    #[test]
    fn decision_survives_additive_noise() {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        let cfg = config();
        let corr = Correlator::from_config(&cfg);
        let clean = clean_window(&cfg, 3, -55.0);
        let scale = clean.iter().cloned().fold(0.0f64, f64::max);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        // Noise with peak-to-peak swing comparable to the envelope peak.
        let noisy: Vec<f64> = clean
            .iter()
            .map(|v| v + scale * 0.8 * (rng.gen::<f64>() - 0.5))
            .collect();
        let (decided, _) = corr.decide(&noisy);
        assert_eq!(decided, 3);
    }

    #[test]
    fn empty_window_is_handled() {
        let corr = Correlator::from_config(&config());
        let (sym, score) = corr.decide(&[]);
        assert_eq!(sym, 0);
        assert!(score <= 0.0 || score.is_finite());
    }
}
