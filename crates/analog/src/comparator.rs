//! Voltage comparators.
//!
//! Saiyan replaces the power-hungry ADC with a comparator that quantises the
//! envelope into a binary voltage stream. A single-threshold comparator
//! chatters when the envelope wobbles around the threshold, so the paper uses
//! a double-threshold (hysteresis) comparator (Eq. 3): the output only goes
//! high once the input exceeds `U_H`, and only returns low once it falls below
//! `U_L` (with `U_L < U_H`).

use crate::signal::RealBuffer;

/// A binary voltage stream produced by a comparator, with its sample rate.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryStream {
    /// The binary samples (true = high).
    pub bits: Vec<bool>,
    /// Sample rate in Hz.
    pub sample_rate: f64,
}

impl BinaryStream {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Number of low→high and high→low transitions (a chattering metric).
    pub fn transitions(&self) -> usize {
        self.bits.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Index of the last sample of the final high run, if any — the "tail of
    /// the high voltage samples" the decoder uses as the peak position.
    pub fn last_high_tail(&self) -> Option<usize> {
        self.bits.iter().rposition(|&b| b)
    }

    /// Runs of consecutive high samples as (start_index, length).
    pub fn high_runs(&self) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut start = None;
        for (i, &b) in self.bits.iter().enumerate() {
            match (b, start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    runs.push((s, i - s));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            runs.push((s, self.bits.len() - s));
        }
        runs
    }
}

/// A single-threshold comparator (used for the Fig. 7 comparison).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleThresholdComparator {
    /// The decision threshold (volts).
    pub threshold: f64,
}

impl SingleThresholdComparator {
    /// Creates a comparator with the given threshold.
    pub fn new(threshold: f64) -> Self {
        SingleThresholdComparator { threshold }
    }

    /// Quantises the input.
    pub fn compare(&self, input: &RealBuffer) -> BinaryStream {
        BinaryStream {
            bits: input.samples.iter().map(|&v| v >= self.threshold).collect(),
            sample_rate: input.sample_rate,
        }
    }
}

/// The double-threshold (hysteresis) comparator of paper Eq. 3 with fixed
/// thresholds: the model behind Fig. 7. The receiver itself runs the same
/// kernel against thresholds it tracks per sample (`saiyan::streaming`).
///
/// The thresholds are private so that every comparator comes from
/// [`Self::new`], which enforces `U_L ≤ U_H` — the condition the comparator
/// kernel ([`crate::simd::hysteresis_words`]) relies on. A struct literal
/// cannot skip that check:
///
/// ```compile_fail
/// let inverted = analog::DoubleThresholdComparator {
///     high_threshold: 0.2,
///     low_threshold: 0.5,
/// };
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoubleThresholdComparator {
    /// High threshold `U_H`: the output goes high only when the input reaches it.
    high_threshold: f64,
    /// Low threshold `U_L`: the output returns low only when the input falls below it.
    low_threshold: f64,
}

impl DoubleThresholdComparator {
    /// Creates a comparator; `low_threshold` must not exceed `high_threshold`.
    pub fn new(high_threshold: f64, low_threshold: f64) -> Self {
        assert!(
            low_threshold <= high_threshold,
            "U_L ({low_threshold}) must not exceed U_H ({high_threshold})"
        );
        DoubleThresholdComparator {
            high_threshold,
            low_threshold,
        }
    }

    /// Quantises the input with hysteresis, starting from a low output,
    /// through the receiver's comparator kernel
    /// ([`crate::simd::hysteresis_words`]) over constant thresholds.
    pub fn compare(&self, input: &RealBuffer) -> BinaryStream {
        let n = input.len();
        let mut words = Vec::new();
        crate::simd::hysteresis_words(
            &input.samples,
            &vec![self.high_threshold; n],
            &vec![self.low_threshold; n],
            false,
            &mut words,
        );
        BinaryStream {
            bits: (0..n).map(|i| words[i / 64] >> (i % 64) & 1 != 0).collect(),
            sample_rate: input.sample_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffer(vals: &[f64]) -> RealBuffer {
        RealBuffer::new(vals.to_vec(), 1000.0)
    }

    #[test]
    fn single_threshold_chatters_on_noise() {
        // A value oscillating around the threshold flips the single-threshold
        // output every sample but not the hysteresis output.
        let vals: Vec<f64> = (0..100)
            .map(|i| 0.5 + 0.01 * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let input = buffer(&vals);
        let single = SingleThresholdComparator::new(0.5).compare(&input);
        let double = DoubleThresholdComparator::new(0.52, 0.45).compare(&input);
        assert!(single.transitions() > 50);
        assert_eq!(double.transitions(), 0);
    }

    #[test]
    fn hysteresis_follows_eq3() {
        let cmp = DoubleThresholdComparator::new(0.8, 0.3);
        // Rise above U_H, dip to between U_L and U_H (stays high), fall below
        // U_L (goes low), rise to between thresholds (stays low).
        let input = buffer(&[0.1, 0.9, 0.5, 0.4, 0.2, 0.5, 0.7, 0.85, 0.35, 0.1]);
        let out = cmp.compare(&input);
        assert_eq!(
            out.bits,
            vec![false, true, true, true, false, false, false, true, true, false]
        );
    }

    #[test]
    fn last_high_tail_marks_peak_position() {
        let cmp = DoubleThresholdComparator::new(0.8, 0.3);
        let input = buffer(&[0.0, 0.9, 0.9, 0.5, 0.1, 0.0, 0.0]);
        let out = cmp.compare(&input);
        assert_eq!(out.last_high_tail(), Some(3));
    }

    #[test]
    fn high_runs_are_reported() {
        let s = BinaryStream {
            bits: vec![false, true, true, false, true, false, true, true, true],
            sample_rate: 1.0,
        };
        assert_eq!(s.high_runs(), vec![(1, 2), (4, 1), (6, 3)]);
        assert_eq!(s.transitions(), 5);
    }

    #[test]
    #[should_panic]
    fn inverted_thresholds_are_rejected() {
        DoubleThresholdComparator::new(0.2, 0.5);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let cmp = DoubleThresholdComparator::new(0.8, 0.3);
        let out = cmp.compare(&buffer(&[]));
        assert!(out.is_empty());
        assert_eq!(out.last_high_tail(), None);
        assert!(out.high_runs().is_empty());
    }
}
