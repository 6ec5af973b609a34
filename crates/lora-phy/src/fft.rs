//! A small self-contained radix-2 FFT.
//!
//! The standard LoRa receiver demodulates by dechirping and taking an FFT;
//! the SAW filter and the channelizer design their taps with the inverse
//! FFT. To keep the dependency set to the approved list we implement an
//! iterative radix-2 decimation-in-time FFT here. It is not the fastest FFT
//! in the world but it is allocation-free per call (aside from the output),
//! exact enough for simulation, and covered by round-trip tests.

use std::f64::consts::PI;

use crate::error::PhyError;
use crate::iq::Iq;

/// In-place iterative radix-2 FFT.
///
/// `inverse` selects the inverse transform; the inverse is scaled by `1/N` so
/// that `ifft(fft(x)) == x`.
fn fft_in_place(data: &mut [Iq], inverse: bool) -> Result<(), PhyError> {
    let n = data.len();
    if !n.is_power_of_two() {
        return Err(PhyError::FftLengthNotPowerOfTwo(n));
    }
    if n <= 1 {
        return Ok(());
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - bits) as u64;
        let j = j as usize;
        if j > i {
            data.swap(i, j);
        }
    }

    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Iq::phasor(ang);
        let mut i = 0;
        while i < n {
            let mut w = Iq::ONE;
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }

    if inverse {
        let scale = 1.0 / n as f64;
        for x in data.iter_mut() {
            *x = x.scale(scale);
        }
    }
    Ok(())
}

/// Computes the forward FFT of `input`, returning a new vector.
///
/// The input length must be a power of two.
pub fn fft(input: &[Iq]) -> Result<Vec<Iq>, PhyError> {
    let mut data = input.to_vec();
    fft_in_place(&mut data, false)?;
    Ok(data)
}

/// Computes the inverse FFT of `input`, returning a new vector scaled by `1/N`.
pub fn ifft(input: &[Iq]) -> Result<Vec<Iq>, PhyError> {
    let mut data = input.to_vec();
    fft_in_place(&mut data, true)?;
    Ok(data)
}

/// Computes the FFT after zero-padding the input to the next power of two.
pub fn fft_padded(input: &[Iq]) -> Vec<Iq> {
    let n = input.len().next_power_of_two();
    let mut data = Vec::with_capacity(n);
    data.extend_from_slice(input);
    data.resize(n, Iq::ZERO);
    fft_in_place(&mut data, false).expect("padded length is a power of two");
    data
}

/// Returns the squared-magnitude spectrum of `input` (zero-padded as needed).
pub fn power_spectrum(input: &[Iq]) -> Vec<f64> {
    fft_padded(input).iter().map(Iq::norm_sqr).collect()
}

/// Index of the largest-magnitude FFT bin.
pub fn argmax_bin(spectrum: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_val = f64::NEG_INFINITY;
    for (i, &v) in spectrum.iter().enumerate() {
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best
}

/// Ratio (in dB) between the strongest spectral bin and the mean of the rest;
/// a simple peak-to-noise-floor metric used by detection experiments.
pub fn peak_to_mean_db(spectrum: &[f64]) -> f64 {
    if spectrum.len() < 2 {
        return 0.0;
    }
    let peak_idx = argmax_bin(spectrum);
    let peak = spectrum[peak_idx];
    if peak <= 0.0 {
        // An all-zero (silent) spectrum has no peak at all.
        return 0.0;
    }
    let rest: f64 = spectrum
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != peak_idx)
        .map(|(_, v)| v)
        .sum::<f64>()
        / (spectrum.len() - 1) as f64;
    if rest <= 0.0 {
        return f64::INFINITY;
    }
    10.0 * (peak / rest).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_power_of_two() {
        let data = vec![Iq::ONE; 12];
        assert!(fft(&data).is_err());
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut input = vec![Iq::ZERO; 64];
        input[0] = Iq::ONE;
        let out = fft(&input).unwrap();
        for bin in out {
            assert!((bin.re - 1.0).abs() < 1e-9 && bin.im.abs() < 1e-9);
        }
    }

    #[test]
    fn fft_locates_tone() {
        let n = 256;
        let k = 37;
        let input: Vec<Iq> = (0..n)
            .map(|i| Iq::phasor(2.0 * PI * k as f64 * i as f64 / n as f64))
            .collect();
        let spec: Vec<f64> = fft(&input).unwrap().iter().map(Iq::norm_sqr).collect();
        assert_eq!(argmax_bin(&spec), k);
        assert!(peak_to_mean_db(&spec) > 40.0);
    }

    #[test]
    fn ifft_inverts_fft() {
        let n = 128;
        let input: Vec<Iq> = (0..n)
            .map(|i| Iq::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let back = ifft(&fft(&input).unwrap()).unwrap();
        for (a, b) in input.iter().zip(&back) {
            assert!((a.re - b.re).abs() < 1e-9);
            assert!((a.im - b.im).abs() < 1e-9);
        }
    }
}
