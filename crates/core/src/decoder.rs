//! Peak-position decoding (paper §2.2, Fig. 8).
//!
//! After the comparator and the low-rate sampler, each chirp symbol is
//! represented by a short run of high samples whose *tail* marks the time at
//! which the SAW-transformed amplitude peaked. The decoder:
//!
//! 1. finds the LoRa preamble as a train of peaks spaced one symbol time
//!    apart (ten identical up-chirps all peak at their symbol boundary);
//! 2. waits out the 2.25 sync symbols;
//! 3. for every payload symbol window, locates the tail of the last high run
//!    and maps the peak time back to a symbol value.

use lora_phy::downlink::symbol_from_peak_time;
use lora_phy::params::{LoraParams, PREAMBLE_UPCHIRPS, SYNC_SYMBOLS};

use crate::sampler::SampledStream;

/// Timing information recovered from the preamble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreambleTiming {
    /// Estimated time (seconds from the start of the stream) at which the
    /// preamble's first symbol begins.
    pub preamble_start: f64,
    /// Estimated time at which the payload's first symbol begins.
    pub payload_start: f64,
    /// Number of regular peaks that supported the estimate.
    pub supporting_peaks: usize,
}

/// Result of decoding one symbol window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymbolPeak {
    /// Decided symbol value.
    pub symbol: u32,
    /// Peak time within the symbol window (seconds from window start), if a
    /// peak was found.
    pub peak_time: Option<f64>,
}

/// The peak-position decoder.
#[derive(Debug, Clone)]
pub struct PeakDecoder {
    params: LoraParams,
    /// Fraction of a symbol time by which consecutive preamble peaks may
    /// deviate from the nominal spacing and still count as regular.
    spacing_tolerance: f64,
    /// Minimum number of regularly spaced peaks required to declare a preamble.
    min_preamble_peaks: usize,
    /// Reusable buffers of [`Self::preamble_anchor`], which the streaming
    /// receiver calls on every falling edge while it searches: the winning
    /// train's member indices, and a sort buffer for its medians.
    members: Vec<usize>,
    sorted: Vec<f64>,
}

impl PeakDecoder {
    /// Fraction of a preamble train's median peak amplitude below which a
    /// leading train member is taken for an onset transient rather than a
    /// preamble peak (see [`Self::preamble_anchor`]). Preamble peaks differ
    /// by a few dB with the sampler phase; the onset transient sits ~40 dB
    /// down.
    pub const MIN_PEAK_FRACTION: f64 = 0.1;

    /// Creates a decoder for the given PHY parameters.
    pub fn new(params: LoraParams) -> Self {
        PeakDecoder {
            params,
            spacing_tolerance: 0.25,
            min_preamble_peaks: 5,
            members: Vec::new(),
            sorted: Vec::new(),
        }
    }

    /// The PHY parameters in use.
    pub fn params(&self) -> &LoraParams {
        &self.params
    }

    /// The minimum number of regularly spaced peaks required to declare a
    /// preamble.
    pub fn min_preamble_peaks(&self) -> usize {
        self.min_preamble_peaks
    }

    /// Finds the longest train of edges spaced one symbol time apart (within
    /// tolerance) in a pre-extracted, ascending edge-time list. Returns the
    /// `(start index, count)` of the best train, or `None` for an empty list.
    /// Noise edges *inside* a symbol period do not break a train; they are
    /// skipped.
    pub fn longest_regular_train(&self, edges: &[f64]) -> Option<(usize, usize)> {
        let t_sym = self.params.symbol_duration();
        let tol = self.spacing_tolerance * t_sym;
        let mut best: Option<(usize, usize)> = None; // (start index, count)
        for start in 0..edges.len() {
            let mut count = 1usize;
            let mut last = edges[start];
            let mut idx = start + 1;
            while idx < edges.len() {
                let dt = edges[idx] - last;
                if (dt - t_sym).abs() <= tol {
                    count += 1;
                    last = edges[idx];
                    idx += 1;
                } else if dt < t_sym - tol {
                    // An extra (noise) edge within the symbol: skip it.
                    idx += 1;
                } else {
                    break;
                }
            }
            if best.map(|(_, c)| count > c).unwrap_or(true) {
                best = Some((start, count));
            }
        }
        best
    }

    /// Robust preamble anchor: the first peak time and supporting count of
    /// the longest regular train in `edges`, trimmed in two steps.
    /// `peaks[i]` is the envelope maximum over the high run that ends at
    /// `edges[i]`.
    ///
    /// 1. Leading and trailing members are dropped when their spacing
    ///    deviates from the train's *median* spacing by more than a tenth of
    ///    a symbol. The ±25 % spacing tolerance that keeps the train search
    ///    robust also lets spurious noise edges (comparator chatter just
    ///    before a packet) chain onto the front of the true preamble train,
    ///    which would drag the timing anchor up to two symbols early. The
    ///    true preamble's spacings are sampler-quantised tightly around one
    ///    symbol, so a median-spacing trim removes those imposters.
    /// 2. Leading members whose peak is below [`Self::MIN_PEAK_FRACTION`] of
    ///    the remaining members' median peak are dropped. A strong packet's
    ///    abrupt onset leaves an envelope transient ~40 dB below the
    ///    preamble peaks, about 0.94 symbol before the first of them: the
    ///    comparator fires on it because the threshold tracker has seen
    ///    nothing larger yet, and its spacing is within one sampler tick of
    ///    a true preamble spacing, so step 1 cannot tell it apart.
    ///
    /// Works in the decoder's own buffers, so it allocates only while they
    /// grow.
    pub fn preamble_anchor(&mut self, edges: &[f64], peaks: &[f64]) -> Option<(f64, usize)> {
        let (start, count) = self.longest_regular_train(edges)?;
        // Walk the winning train once to collect its members.
        let t_sym = self.params.symbol_duration();
        let tol = self.spacing_tolerance * t_sym;
        let members = &mut self.members;
        members.clear();
        members.push(start);
        let mut last = edges[start];
        let mut idx = start + 1;
        while idx < edges.len() && members.len() < count {
            let dt = edges[idx] - last;
            if (dt - t_sym).abs() <= tol {
                members.push(idx);
                last = edges[idx];
            }
            idx += 1;
        }
        let members = &self.members;
        if members.len() < 3 {
            return Some((edges[start], members.len()));
        }
        let spacing = |j: usize| edges[members[j + 1]] - edges[members[j]];
        let median = median_of((0..members.len() - 1).map(spacing), &mut self.sorted);
        let tol = 0.1 * t_sym;
        let mut lo = 0usize;
        let mut hi = members.len() - 1; // inclusive index of the last member
        while lo < hi && (spacing(lo) - median).abs() > tol {
            lo += 1;
        }
        while hi > lo && (spacing(hi - 1) - median).abs() > tol {
            hi -= 1;
        }
        let member_peaks = members[lo..=hi].iter().map(|&i| peaks[i]);
        let floor = Self::MIN_PEAK_FRACTION * median_of(member_peaks, &mut self.sorted);
        while lo < hi && peaks[members[lo]] < floor {
            lo += 1;
        }
        Some((edges[members[lo]], hi - lo + 1))
    }

    /// Builds the recovered timing from the first peak of a preamble train.
    /// The first edge of the train is the peak of the first preamble up-chirp,
    /// which lands at the end of that symbol.
    pub fn timing_from_first_peak(
        &self,
        first_peak: f64,
        supporting_peaks: usize,
    ) -> PreambleTiming {
        let t_sym = self.params.symbol_duration();
        let preamble_start = first_peak - t_sym;
        let payload_start = preamble_start + (PREAMBLE_UPCHIRPS as f64 + SYNC_SYMBOLS) * t_sym;
        PreambleTiming {
            preamble_start,
            payload_start,
            supporting_peaks,
        }
    }

    /// Decodes one symbol whose window starts at `window_start` (seconds from
    /// the start of the stream). Returns the decision and the peak time found.
    pub fn decode_symbol(&self, stream: &SampledStream, window_start: f64) -> SymbolPeak {
        let t_sym = self.params.symbol_duration();
        let window_end = window_start + t_sym;
        // Find the last high sample within the window, starting from the
        // window's first tick: `time_of` is monotone in the index, so the
        // ticks before `window_start` are a prefix to binary-search past.
        let (mut lo, mut hi) = (0, stream.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if stream.time_of(mid) < window_start {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut last_high: Option<f64> = None;
        for (i, &b) in stream.bits.iter().enumerate().skip(lo) {
            let t = stream.time_of(i);
            if t >= window_end {
                break;
            }
            if b {
                last_high = Some(t);
            }
        }
        match last_high {
            Some(t) => {
                let peak_time = (t - window_start).clamp(0.0, t_sym);
                SymbolPeak {
                    symbol: symbol_from_peak_time(peak_time, &self.params),
                    peak_time: Some(peak_time),
                }
            }
            None => SymbolPeak {
                symbol: 0,
                peak_time: None,
            },
        }
    }

    /// Decodes `n_symbols` payload symbols starting at `payload_start`.
    pub fn decode_payload(
        &self,
        stream: &SampledStream,
        payload_start: f64,
        n_symbols: usize,
    ) -> Vec<SymbolPeak> {
        let t_sym = self.params.symbol_duration();
        (0..n_symbols)
            .map(|i| self.decode_symbol(stream, payload_start + i as f64 * t_sym))
            .collect()
    }
}

/// The upper median of non-empty `values`, sorted in the `sorted` buffer.
fn median_of(values: impl Iterator<Item = f64>, sorted: &mut Vec<f64>) -> f64 {
    sorted.clear();
    sorted.extend(values);
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::params::{Bandwidth, BitsPerChirp, SpreadingFactor};

    fn params() -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        )
    }

    /// Builds a synthetic sampled stream with high pulses at the given times.
    fn stream_with_peaks(peaks: &[f64], rate: f64, duration: f64) -> SampledStream {
        let n = (duration * rate) as usize;
        let pulse_width = 2.0 / rate;
        let bits = (0..n)
            .map(|i| {
                let t = i as f64 / rate;
                peaks.iter().any(|&p| t > p - pulse_width && t <= p)
            })
            .collect();
        SampledStream {
            bits,
            sample_rate: rate,
            start_time: 0.0,
        }
    }

    /// Quantises peak times onto the sampler's tick grid, the way the
    /// receiver's falling edges land.
    fn edges_at(peaks: &[f64], rate: f64) -> Vec<f64> {
        peaks.iter().map(|p| (p * rate).floor() / rate).collect()
    }

    /// Anchors a train of equal-amplitude edges and builds its timing.
    fn timing_of(d: &mut PeakDecoder, edges: &[f64]) -> Option<PreambleTiming> {
        d.preamble_anchor(edges, &vec![1.0; edges.len()])
            .filter(|(_, count)| *count >= d.min_preamble_peaks())
            .map(|(anchor, count)| d.timing_from_first_peak(anchor, count))
    }

    #[test]
    fn preamble_detection_from_regular_peaks() {
        let p = params();
        let t_sym = p.symbol_duration();
        let rate = 50_000.0;
        // Ten preamble peaks at the end of each preamble symbol.
        let peaks: Vec<f64> = (1..=10).map(|i| i as f64 * t_sym).collect();
        let mut d = PeakDecoder::new(p);
        let timing = timing_of(&mut d, &edges_at(&peaks, rate)).unwrap();
        assert!(timing.supporting_peaks >= 9);
        assert!(timing.preamble_start.abs() < t_sym * 0.1);
        let expected_payload = (10.0 + 2.25) * t_sym;
        assert!(
            (timing.payload_start - expected_payload).abs() < t_sym * 0.1,
            "payload start {} vs {}",
            timing.payload_start,
            expected_payload
        );
    }

    #[test]
    fn preamble_detection_tolerates_a_noise_edge() {
        let p = params();
        let t_sym = p.symbol_duration();
        let rate = 50_000.0;
        let mut peaks: Vec<f64> = (1..=10).map(|i| i as f64 * t_sym).collect();
        // A spurious noise peak in the middle of symbol 4.
        peaks.push(3.4 * t_sym);
        peaks.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut d = PeakDecoder::new(p);
        let timing = timing_of(&mut d, &edges_at(&peaks, rate)).unwrap();
        assert!(timing.preamble_start.abs() < t_sym * 0.1);
    }

    #[test]
    fn no_preamble_in_noise_only_stream() {
        let p = params();
        let rate = 50_000.0;
        // Irregularly spaced pulses.
        let peaks = [0.0011, 0.0023, 0.0041, 0.0087, 0.0113];
        let mut d = PeakDecoder::new(p);
        assert!(timing_of(&mut d, &edges_at(&peaks, rate)).is_none());
    }

    #[test]
    fn preamble_anchor_drops_a_weak_onset_edge() {
        let p = params();
        let t_sym = p.symbol_duration();
        let rate = 50_000.0;
        // An onset transient 40 dB below the preamble peaks, 0.94 symbol
        // before the first of them: spaced like a preamble peak.
        let mut peaks = vec![0.06 * t_sym];
        peaks.extend((1..=9).map(|i| i as f64 * t_sym));
        let edges = edges_at(&peaks, rate);
        let mut amplitudes = vec![1.0; edges.len()];
        amplitudes[0] = 0.01;
        let mut d = PeakDecoder::new(p);
        assert_eq!(d.preamble_anchor(&edges, &amplitudes), Some((edges[1], 9)));
        // At the preamble's own amplitude the same edge would anchor the train.
        let equal = vec![1.0; edges.len()];
        assert_eq!(d.preamble_anchor(&edges, &equal), Some((edges[0], 10)));
    }

    #[test]
    fn symbol_decoding_from_peak_positions() {
        let p = params();
        let t_sym = p.symbol_duration();
        let rate = 50_000.0;
        // K=2: symbol s peaks at (1 - s/4) * t_sym into its window.
        let window_start = 0.0;
        for sym in 0..4u32 {
            let peak = window_start + (1.0 - sym as f64 / 4.0) * t_sym - 1e-6;
            let stream = stream_with_peaks(&[peak.max(1.0 / rate)], rate, t_sym * 1.5);
            let d = PeakDecoder::new(p);
            let decision = d.decode_symbol(&stream, window_start);
            assert_eq!(decision.symbol, sym, "peak at {peak}");
            assert!(decision.peak_time.is_some());
        }
    }

    #[test]
    fn missing_peak_yields_erasure_symbol_zero() {
        let p = params();
        let stream = SampledStream {
            bits: vec![false; 100],
            sample_rate: 50_000.0,
            start_time: 0.0,
        };
        let d = PeakDecoder::new(p);
        let decision = d.decode_symbol(&stream, 0.0);
        assert_eq!(decision.symbol, 0);
        assert!(decision.peak_time.is_none());
    }

    #[test]
    fn payload_decoding_over_multiple_windows() {
        let p = params();
        let t_sym = p.symbol_duration();
        let rate = 50_000.0;
        let payload_start = 2.0 * t_sym;
        let symbols = [0u32, 1, 2, 3, 2, 1];
        let peaks: Vec<f64> = symbols
            .iter()
            .enumerate()
            .map(|(i, &s)| payload_start + i as f64 * t_sym + (1.0 - s as f64 / 4.0) * t_sym - 1e-6)
            .collect();
        let stream = stream_with_peaks(&peaks, rate, payload_start + 8.0 * t_sym);
        let d = PeakDecoder::new(p);
        let decisions = d.decode_payload(&stream, payload_start, symbols.len());
        let decoded: Vec<u32> = decisions.iter().map(|d| d.symbol).collect();
        assert_eq!(decoded, symbols);
    }
}
