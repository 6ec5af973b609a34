//! Complex baseband sample types and helpers.
//!
//! All waveform-level processing in this workspace operates on complex
//! baseband IQ samples ([`Iq`]) referenced to a known carrier frequency.
//! The type is intentionally small (two `f64`s) and implements the usual
//! arithmetic so DSP code reads naturally.

use std::f64::consts::PI;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A single complex baseband sample (in-phase + quadrature).
///
/// The layout is pinned to `repr(C)` — two adjacent `f64`s with no padding —
/// so block kernels may reinterpret `&[Iq]` as an interleaved `&[f64]` lane
/// view (see `analog::simd`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Iq {
    /// In-phase (real) component.
    pub re: f64,
    /// Quadrature (imaginary) component.
    pub im: f64,
}

impl Iq {
    /// The additive identity.
    pub const ZERO: Iq = Iq { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Iq = Iq { re: 1.0, im: 0.0 };

    /// Creates a sample from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Iq { re, im }
    }

    /// Creates a sample from polar coordinates (`magnitude`, `phase` in radians).
    #[inline]
    pub fn from_polar(magnitude: f64, phase: f64) -> Self {
        Iq {
            re: magnitude * phase.cos(),
            im: magnitude * phase.sin(),
        }
    }

    /// Returns `e^{j phase}`, a unit phasor.
    #[inline]
    pub fn phasor(phase: f64) -> Self {
        Self::from_polar(1.0, phase)
    }

    /// The squared magnitude `|x|^2` (instantaneous power).
    #[inline]
    pub fn norm_sqr(&self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The magnitude `|x|`.
    #[inline]
    pub fn abs(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// The phase angle in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(&self) -> f64 {
        self.im.atan2(self.re)
    }

    /// The complex conjugate.
    #[inline]
    pub fn conj(&self) -> Iq {
        Iq::new(self.re, -self.im)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(&self, k: f64) -> Iq {
        Iq::new(self.re * k, self.im * k)
    }

    /// Returns `true` when both components are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Iq {
    type Output = Iq;
    #[inline]
    fn add(self, rhs: Iq) -> Iq {
        Iq::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Iq {
    #[inline]
    fn add_assign(&mut self, rhs: Iq) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Iq {
    type Output = Iq;
    #[inline]
    fn sub(self, rhs: Iq) -> Iq {
        Iq::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Iq {
    #[inline]
    fn sub_assign(&mut self, rhs: Iq) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Iq {
    type Output = Iq;
    #[inline]
    fn mul(self, rhs: Iq) -> Iq {
        Iq::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Iq {
    #[inline]
    fn mul_assign(&mut self, rhs: Iq) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Iq {
    type Output = Iq;
    #[inline]
    fn mul(self, rhs: f64) -> Iq {
        self.scale(rhs)
    }
}

impl Div<f64> for Iq {
    type Output = Iq;
    #[inline]
    fn div(self, rhs: f64) -> Iq {
        self.scale(1.0 / rhs)
    }
}

impl Div for Iq {
    type Output = Iq;
    #[inline]
    fn div(self, rhs: Iq) -> Iq {
        let d = rhs.norm_sqr();
        Iq::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Iq {
    type Output = Iq;
    #[inline]
    fn neg(self) -> Iq {
        Iq::new(-self.re, -self.im)
    }
}

/// A contiguous block of IQ samples together with its sample rate.
///
/// Most signal-chain blocks consume and produce `SampleBuffer`s, carrying the
/// sample rate along so downstream code never has to guess it.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleBuffer {
    /// The IQ samples.
    pub samples: Vec<Iq>,
    /// The sample rate in samples per second.
    pub sample_rate: f64,
}

impl SampleBuffer {
    /// Creates a buffer from samples and a sample rate (Hz).
    pub fn new(samples: Vec<Iq>, sample_rate: f64) -> Self {
        SampleBuffer {
            samples,
            sample_rate,
        }
    }

    /// Creates an all-zero buffer of `len` samples at `sample_rate` Hz.
    pub fn zeros(len: usize, sample_rate: f64) -> Self {
        SampleBuffer {
            samples: vec![Iq::ZERO; len],
            sample_rate,
        }
    }

    /// The number of samples in the buffer.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the buffer holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration of the buffer in seconds.
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate
    }

    /// Mean power of the buffer (linear, per-sample `|x|^2` averaged).
    pub fn mean_power(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(Iq::norm_sqr).sum::<f64>() / self.samples.len() as f64
    }

    /// Scales every sample by a real factor (in place) and returns `self`.
    pub fn scaled(mut self, k: f64) -> Self {
        for s in &mut self.samples {
            *s = s.scale(k);
        }
        self
    }

    /// Applies a per-sample frequency shift of `freq_hz` (positive shifts up).
    pub fn frequency_shifted(mut self, freq_hz: f64) -> Self {
        let step = 2.0 * PI * freq_hz / self.sample_rate;
        for (n, s) in self.samples.iter_mut().enumerate() {
            *s *= Iq::phasor(step * n as f64);
        }
        self
    }

    /// Concatenates another buffer onto this one. Panics if the sample rates differ.
    pub fn append(&mut self, other: &SampleBuffer) {
        assert!(
            (self.sample_rate - other.sample_rate).abs() < 1e-9,
            "cannot append buffers with mismatched sample rates"
        );
        self.samples.extend_from_slice(&other.samples);
    }

    /// Extracts the instantaneous envelope `|x|` of every sample.
    pub fn envelope(&self) -> Vec<f64> {
        self.samples.iter().map(Iq::abs).collect()
    }

    /// Estimates the instantaneous frequency (Hz) between consecutive samples
    /// using the phase difference. The first entry repeats the second so the
    /// output length equals the input length.
    pub fn instantaneous_frequency(&self) -> Vec<f64> {
        let n = self.samples.len();
        if n < 2 {
            return vec![0.0; n];
        }
        let mut freqs = Vec::with_capacity(n);
        freqs.push(0.0);
        for i in 1..n {
            let d = self.samples[i] * self.samples[i - 1].conj();
            freqs.push(d.arg() * self.sample_rate / (2.0 * PI));
        }
        freqs[0] = freqs[1];
        freqs
    }
}

/// Converts a linear power ratio to decibels. Returns `f64::NEG_INFINITY` for 0.
#[inline]
pub fn lin_to_db(lin: f64) -> f64 {
    if lin <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * lin.log10()
    }
}

/// Converts decibels to a linear power ratio.
#[inline]
pub fn db_to_lin(db: f64) -> f64 {
    10.0_f64.powf(db / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn polar_round_trip() {
        let z = Iq::from_polar(2.5, 0.7);
        assert!(close(z.abs(), 2.5, 1e-12));
        assert!(close(z.arg(), 0.7, 1e-12));
    }

    #[test]
    fn multiplication_matches_polar_addition_of_phases() {
        let a = Iq::from_polar(2.0, 0.3);
        let b = Iq::from_polar(3.0, 0.9);
        let c = a * b;
        assert!(close(c.abs(), 6.0, 1e-12));
        assert!(close(c.arg(), 1.2, 1e-12));
    }

    #[test]
    fn conjugate_negates_phase() {
        let a = Iq::from_polar(1.0, 0.4);
        assert!(close(a.conj().arg(), -0.4, 1e-12));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Iq::new(1.5, -2.0);
        let b = Iq::new(0.3, 0.8);
        let c = (a * b) / b;
        assert!(close(c.re, a.re, 1e-12));
        assert!(close(c.im, a.im, 1e-12));
    }

    #[test]
    fn buffer_duration_and_power() {
        let buf = SampleBuffer::new(vec![Iq::new(1.0, 0.0); 1000], 1000.0);
        assert!(close(buf.duration(), 1.0, 1e-12));
        assert!(close(buf.mean_power(), 1.0, 1e-12));
    }

    #[test]
    fn frequency_shift_moves_tone() {
        // A DC tone shifted by +100 Hz should show +100 Hz instantaneous frequency.
        let buf = SampleBuffer::new(vec![Iq::ONE; 512], 8000.0).frequency_shifted(100.0);
        let f = buf.instantaneous_frequency();
        let mean: f64 = f.iter().copied().sum::<f64>() / f.len() as f64;
        assert!(close(mean, 100.0, 1.0));
    }

    #[test]
    fn db_round_trip() {
        for db in [-30.0, -3.0, 0.0, 10.0, 27.5] {
            assert!(close(lin_to_db(db_to_lin(db)), db, 1e-9));
        }
        assert_eq!(lin_to_db(0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn append_concatenates() {
        let mut a = SampleBuffer::zeros(10, 1e6);
        let b = SampleBuffer::new(vec![Iq::ONE; 5], 1e6);
        a.append(&b);
        assert_eq!(a.len(), 15);
        assert_eq!(a.samples[12], Iq::ONE);
    }

    #[test]
    #[should_panic]
    fn append_rejects_rate_mismatch() {
        let mut a = SampleBuffer::zeros(10, 1e6);
        let b = SampleBuffer::zeros(10, 2e6);
        a.append(&b);
    }
}
