//! Thermal noise, noise figure, and AWGN generation.
//!
//! The demodulation range experiments all come down to the signal-to-noise
//! ratio at the tag's antenna and the losses added by the analog front end.
//! This module provides the thermal-noise floor, receiver noise figure, a
//! seeded complex additive white Gaussian noise source, and [`NoiseAhead`],
//! which draws that source's stream ahead on a helper thread.

use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::{self, JoinHandle};

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use lora_phy::iq::{Iq, SampleBuffer};

use crate::units::{Db, Dbm, Hertz};

/// Boltzmann constant in joules per kelvin.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Reference noise temperature (kelvin) used for the thermal floor.
pub const REFERENCE_TEMPERATURE_K: f64 = 290.0;

/// Thermal noise power over `bandwidth` at the reference temperature:
/// `kTB`, i.e. −174 dBm/Hz + 10·log10(B).
pub fn thermal_noise_floor(bandwidth: Hertz) -> Dbm {
    let watts = BOLTZMANN * REFERENCE_TEMPERATURE_K * bandwidth.value();
    Dbm::from_milliwatts(watts * 1000.0)
}

/// Receiver noise description: thermal floor plus a noise figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Receiver noise figure.
    pub noise_figure: Db,
    /// Noise bandwidth.
    pub bandwidth: Hertz,
}

impl NoiseModel {
    /// Creates a noise model with the given noise figure and bandwidth.
    pub fn new(noise_figure: Db, bandwidth: Hertz) -> Self {
        NoiseModel {
            noise_figure,
            bandwidth,
        }
    }

    /// Total noise power referred to the receiver input.
    pub fn noise_power(&self) -> Dbm {
        thermal_noise_floor(self.bandwidth) + self.noise_figure
    }

    /// Signal-to-noise ratio for a given received signal power.
    pub fn snr(&self, rx_power: Dbm) -> Db {
        rx_power - self.noise_power()
    }
}

/// Complex samples per pass of the staged block noise fill: the kernel
/// works on `2 * NOISE_BLOCK` Gaussian lanes at a time. Large enough to
/// amortise the per-block angle sort, small enough that the stage scratch
/// (about 17 KiB of stack) stays cache-resident.
pub const NOISE_BLOCK: usize = 256;

/// Gaussian lanes per block: one per real value, two per complex sample.
const LANES: usize = 2 * NOISE_BLOCK;

/// Buckets of the stage-2 `cos` order: the top 8 bits of a `u2` draw,
/// which are its angle's 1/256 turn.
const ANGLE_BUCKETS: usize = 256;

/// The vendored `Standard` distribution for `f64`: 53 high bits of one
/// `next_u64` draw mapped onto `[0, 1)`.
#[inline]
fn uniform_open01(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The vendored `gen_range(f64::EPSILON..1.0)`: one `Standard` draw mapped
/// affinely onto the half-open range, clamped back to `low` if rounding
/// lands on `high`. No rejection loop, so exactly one draw per value.
#[inline]
fn uniform_eps_one(x: u64) -> f64 {
    let unit = uniform_open01(x);
    let value = f64::EPSILON + unit * (1.0 - f64::EPSILON);
    if value < 1.0 {
        value
    } else {
        f64::EPSILON
    }
}

/// A seeded AWGN source: one ChaCha8 stream turned into Gaussians by the
/// block Box–Muller kernel behind every fill.
#[derive(Debug, Clone)]
pub struct AwgnSource {
    rng: ChaCha8Rng,
}

impl AwgnSource {
    /// Creates a noise source from a seed so experiments are reproducible.
    pub fn new(seed: u64) -> Self {
        AwgnSource {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Draws one complex Gaussian sample with total variance `variance`
    /// (split evenly between I and Q): a one-sample [`Self::fill_noise_into`].
    #[inline]
    pub fn sample(&mut self, variance: f64) -> Iq {
        let mut one = [Iq::ZERO];
        self.fill_noise_into(&mut one, variance);
        one[0]
    }

    /// Adds complex AWGN of the given per-sample variance to a buffer in place.
    ///
    /// Routed through the block fill: bit-identical to the per-sample
    /// `*s += self.sample(variance)` loop (see [`Self::add_noise_in_place`]).
    pub fn add_to(&mut self, buffer: &mut SampleBuffer, variance: f64) {
        self.add_noise_in_place(&mut buffer.samples, variance);
    }

    /// Adds complex AWGN to a slice in place — the block-pipelined form of
    /// the per-sample `*s += self.sample(variance)` loop, bit-identical to
    /// it and consuming the same RNG draw sequence.
    pub fn add_noise_in_place(&mut self, out: &mut [Iq], variance: f64) {
        let lanes = lora_phy::simd::iq_lanes_mut(out);
        self.fill_blocks::<true>(lanes, (variance / 2.0).sqrt());
    }

    /// Fills a slice with complex AWGN of the given per-sample variance —
    /// the block-pipelined form of `for s in out { *s = self.sample(v) }`,
    /// bit-identical to it and consuming the same RNG draw sequence.
    pub fn fill_noise_into(&mut self, out: &mut [Iq], variance: f64) {
        let lanes = lora_phy::simd::iq_lanes_mut(out);
        self.fill_blocks::<false>(lanes, (variance / 2.0).sqrt());
    }

    /// Fills a slice with real zero-mean Gaussians of standard deviation
    /// `std`, continuing the same stream: `2k` values consume exactly the
    /// draws of `k` complex samples, and a complex sample of variance `v`
    /// is two of these values at `std = (v / 2).sqrt()`, I before Q.
    pub fn fill_gaussians(&mut self, out: &mut [f64], std: f64) {
        self.fill_blocks::<false>(out, std);
    }

    /// The staged block Box–Muller kernel behind every fill: `out` is a
    /// run of Gaussian lanes (the interleaved I/Q of a complex fill, or a
    /// real fill), each set — or, with `ACCUM`, incremented — by
    /// `std * (r·c)` for one Gaussian `r·c`.
    ///
    /// Bit-identity with the per-value Box–Muller
    /// `(-2·ln u1).sqrt() * cos(2π·u2)`, stage by stage (per block of at
    /// most `2 * NOISE_BLOCK` lanes):
    ///
    /// 1. **Draws.** The vendored `gen_range(f64::EPSILON..1.0)` and
    ///    `gen::<f64>()` each consume exactly one `next_u64` (the float
    ///    half-open range has no rejection loop), so one Gaussian is exactly
    ///    two draws. Stage 1 replays that order — `u1` then `u2` per lane —
    ///    through [`uniform_eps_one`] / [`uniform_open01`], which replicate
    ///    the vendored arithmetic verbatim.
    /// 2. **Transcendentals.** The same scalar `libm` calls on the same
    ///    arguments; only the order of the calls changes, and every result
    ///    lands in its own lane. `ln` runs as one pass and
    ///    `(-2·x).sqrt()` as another: IEEE `sqrt` is correctly rounded, so
    ///    that pass may vectorise. `cos` is called in the order of a
    ///    counting sort of the lanes by the top 8 bits of their `u2` draw
    ///    (the angle's 1/256 turn), so libm's range-reduction branches see
    ///    runs of like arguments instead of a random branch per call.
    /// 3. **Scale.** `std * (r·c)` per lane, the association order of the
    ///    per-value form. A scalar loop: an AVX2 copy did not beat it in
    ///    end-to-end runs.
    fn fill_blocks<const ACCUM: bool>(&mut self, out: &mut [f64], std: f64) {
        let mut draws = [0u64; 2 * LANES];
        let mut radius = [0.0f64; LANES];
        let mut cosine = [0.0f64; LANES];
        let mut order = [0u16; LANES];
        for chunk in out.chunks_mut(LANES) {
            let n = chunk.len();
            // Stage 1: bulk RNG draws (block keystream generation), the
            // uniform mappings in the exact per-value order, and a count
            // of the lanes per angle bucket (shifted by one slot, so the
            // prefix sum below yields each bucket's first slot).
            self.rng.fill_u64s(&mut draws[..2 * n]);
            let mut slot = [0u16; ANGLE_BUCKETS + 1];
            for i in 0..n {
                radius[i] = uniform_eps_one(draws[2 * i]);
                cosine[i] = uniform_open01(draws[2 * i + 1]);
                slot[(draws[2 * i + 1] >> 56) as usize + 1] += 1;
            }
            // Stage 2: scalar `ln`, then the correctly rounded `sqrt`.
            for r in &mut radius[..n] {
                *r = r.ln();
            }
            for r in &mut radius[..n] {
                *r = (-2.0 * *r).sqrt();
            }
            // Scalar `cos` in angle-bucket order, each result written back
            // to its own lane.
            for b in 1..=ANGLE_BUCKETS {
                slot[b] += slot[b - 1];
            }
            for i in 0..n {
                let bucket = (draws[2 * i + 1] >> 56) as usize;
                order[slot[bucket] as usize] = i as u16;
                slot[bucket] += 1;
            }
            for &i in &order[..n] {
                let c = &mut cosine[i as usize];
                *c = (2.0 * std::f64::consts::PI * *c).cos();
            }
            // Stage 3: scale and write the lanes.
            for ((o, &r), &c) in chunk.iter_mut().zip(&radius[..n]).zip(&cosine[..n]) {
                let v = std * (r * c);
                if ACCUM {
                    *o += v;
                } else {
                    *o = v;
                }
            }
        }
    }

    /// Adds noise such that the resulting SNR (relative to `signal_power`,
    /// linear per-sample power) equals `snr`.
    pub fn add_for_snr(&mut self, buffer: &mut SampleBuffer, signal_power: f64, snr: Db) {
        let noise_power = signal_power / snr.linear();
        self.add_to(buffer, noise_power);
    }

    /// Generates a buffer of pure noise.
    pub fn noise_buffer(&mut self, len: usize, sample_rate: f64, variance: f64) -> SampleBuffer {
        let mut samples = vec![Iq::ZERO; len];
        self.fill_noise_into(&mut samples, variance);
        SampleBuffer::new(samples, sample_rate)
    }
}

/// Buffers in [`NoiseAhead`]'s ring.
const AHEAD_RING: usize = 4;

/// Smallest block [`NoiseAhead`] draws per hand-off, so tiny consumer
/// slices do not turn into one channel round trip each.
const MIN_AHEAD_BLOCK: usize = 2048;

/// An [`AwgnSource`] stream drawn ahead on a helper thread.
///
/// The helper continues the one sequential stream with
/// [`AwgnSource::fill_noise_into`] into a ring of four recycled buffers;
/// [`Self::add_next`] adds the next samples of that stream onto a slice.
/// The noise is a pure function of the seed and the sample index, so a
/// consumer can have the next chunks' noise drawn while it works on the
/// current one. Four half-size blocks rather than two full ones take the
/// same memory but let the helper run up to one and a half requested
/// blocks ahead, and hand each over once half as many samples are drawn.
///
/// Bit-identity with the inline [`AwgnSource::add_noise_in_place`] holds
/// for any partition of the stream into `add_next` calls: the draws are the
/// same sequential stream, the fill yields `std·(r·c)`, and `s + n` is the
/// same IEEE add the accumulating fill does.
///
/// Memory is four blocks of `max(block / 2, 2048)` samples — two of the
/// requested blocks — whatever the consumer's slice sizes. Dropping the
/// handle — at the end of a stream or while unwinding — disconnects the
/// helper and joins it.
#[derive(Debug)]
pub struct NoiseAhead {
    link: Option<AheadLink>,
    current: Vec<Iq>,
    cursor: usize,
    helper: Option<JoinHandle<()>>,
}

/// The consumer's ends of the buffer ring.
#[derive(Debug)]
struct AheadLink {
    filled: Receiver<Vec<Iq>>,
    spent: SyncSender<Vec<Iq>>,
}

impl NoiseAhead {
    /// Moves `source` onto a helper thread that draws its stream, at the
    /// given per-sample variance, ahead of the consumer into a ring of four
    /// blocks of `block / 2` samples (at least 2048) each.
    pub fn spawn(source: AwgnSource, variance: f64, block: usize) -> Self {
        Self::spawn_holding(source, variance, block, ())
    }

    /// [`Self::spawn`] with `held` owned by the helper thread until it
    /// exits, so a test can observe the join.
    fn spawn_holding<H: Send + 'static>(
        mut source: AwgnSource,
        variance: f64,
        block: usize,
        held: H,
    ) -> Self {
        let block = (block / 2).max(MIN_AHEAD_BLOCK);
        let (filled_tx, filled) = mpsc::sync_channel::<Vec<Iq>>(AHEAD_RING);
        let (spent, spent_rx) = mpsc::sync_channel::<Vec<Iq>>(AHEAD_RING);
        for _ in 0..AHEAD_RING {
            spent
                .send(vec![Iq::ZERO; block])
                .expect("the channel holds the whole ring");
        }
        let helper = thread::Builder::new()
            .name("awgn-ahead".into())
            .spawn(move || {
                let _held = held;
                // Either channel disconnecting means the consumer is gone.
                while let Ok(mut buffer) = spent_rx.recv() {
                    source.fill_noise_into(&mut buffer, variance);
                    if filled_tx.send(buffer).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn the noise helper thread");
        NoiseAhead {
            link: Some(AheadLink { filled, spent }),
            current: Vec::new(),
            cursor: 0,
            helper: Some(helper),
        }
    }

    /// Adds the next `out.len()` samples of the stream onto `out`
    /// (`s.re += n.re; s.im += n.im`), waiting for the helper only when
    /// the block it is drawing is not yet done.
    pub fn add_next(&mut self, out: &mut [Iq]) {
        let mut done = 0;
        while done < out.len() {
            if self.cursor == self.current.len() {
                self.next_block();
            }
            let take = (out.len() - done).min(self.current.len() - self.cursor);
            let noise = &self.current[self.cursor..self.cursor + take];
            for (s, n) in out[done..done + take].iter_mut().zip(noise) {
                *s += *n;
            }
            self.cursor += take;
            done += take;
        }
    }

    /// Hands the drained block back to the helper and takes the next one.
    fn next_block(&mut self) {
        let link = self.link.as_ref().expect("the link lives until drop");
        let drained = std::mem::take(&mut self.current);
        // The first call has no block to return. A failed send means the
        // helper is gone, which the receive below reports.
        if !drained.is_empty() {
            let _ = link.spent.send(drained);
        }
        self.current = link
            .filled
            .recv()
            .expect("the noise helper thread exited early");
        self.cursor = 0;
    }
}

impl Drop for NoiseAhead {
    fn drop(&mut self) {
        // Dropping both channel ends wakes the helper wherever it waits: a
        // receive of a spent buffer fails, and so does its next send.
        self.link = None;
        if let Some(helper) = self.helper.take() {
            // The helper only fills and sends; it has no panic of its own
            // to propagate.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};

    #[test]
    fn thermal_floor_known_values() {
        // kTB at 290 K over 500 kHz ≈ -117 dBm.
        let floor = thermal_noise_floor(Hertz::from_khz(500.0));
        assert!((floor.0 - (-117.0)).abs() < 0.3, "floor {}", floor.0);
        // Over 125 kHz it is 6 dB lower.
        let floor125 = thermal_noise_floor(Hertz::from_khz(125.0));
        assert!((floor.0 - floor125.0 - 6.02).abs() < 0.1);
    }

    #[test]
    fn noise_model_snr() {
        let model = NoiseModel::new(Db(6.0), Hertz::from_khz(500.0));
        let snr = model.snr(Dbm(-85.8));
        // -85.8 - (-117 + 6) ≈ 25 dB.
        assert!((snr.0 - 25.2).abs() < 0.5, "snr {}", snr.0);
    }

    #[test]
    fn awgn_statistics() {
        let mut src = AwgnSource::new(42);
        let n = 20_000;
        let var_target = 0.25;
        let samples: Vec<Iq> = (0..n).map(|_| src.sample(var_target)).collect();
        let mean_re: f64 = samples.iter().map(|s| s.re).sum::<f64>() / n as f64;
        let power: f64 = samples.iter().map(Iq::norm_sqr).sum::<f64>() / n as f64;
        assert!(mean_re.abs() < 0.02, "mean {mean_re}");
        assert!((power - var_target).abs() < 0.02, "power {power}");
    }

    #[test]
    fn awgn_is_reproducible_from_seed() {
        let mut a = AwgnSource::new(7);
        let mut b = AwgnSource::new(7);
        for _ in 0..100 {
            assert_eq!(a.sample(1.0), b.sample(1.0));
        }
    }

    /// Sizes that exercise the empty, sub-block, exact-block and
    /// multi-block-with-ragged-tail paths of the staged fill.
    const FILL_SIZES: [usize; 6] = [0, 1, 255, 256, 1024, 2 * NOISE_BLOCK + 17];

    #[test]
    fn block_fill_is_bit_identical_to_per_sample_loop() {
        for &n in &FILL_SIZES {
            let mut reference_src = AwgnSource::new(0x5A1A);
            let variance = 3.16e-12;
            let reference: Vec<Iq> = (0..n).map(|_| reference_src.sample(variance)).collect();
            let mut block_src = AwgnSource::new(0x5A1A);
            let mut got = vec![Iq::ONE; n];
            let lanes = lora_phy::simd::iq_lanes_mut(&mut got);
            block_src.fill_blocks::<false>(lanes, (variance / 2.0).sqrt());
            assert_eq!(got, reference, "n={n}");
            // The RNG advanced by exactly the same number of draws.
            assert_eq!(
                block_src.sample(variance),
                reference_src.sample(variance),
                "n={n} rng state"
            );
        }
    }

    #[test]
    fn block_accumulate_is_bit_identical_to_per_sample_add() {
        for &n in &FILL_SIZES {
            let base: Vec<Iq> = (0..n).map(|i| Iq::new(i as f64 * 0.25, -1.5)).collect();
            let variance = 0.125;
            let mut reference_src = AwgnSource::new(99);
            let mut reference = base.clone();
            for s in &mut reference {
                *s += reference_src.sample(variance);
            }
            let mut block_src = AwgnSource::new(99);
            let mut got = base.clone();
            let lanes = lora_phy::simd::iq_lanes_mut(&mut got);
            block_src.fill_blocks::<true>(lanes, (variance / 2.0).sqrt());
            assert_eq!(got, reference, "n={n}");
        }
    }

    #[test]
    fn add_to_goes_through_the_block_path_unchanged() {
        // `add_to` pre-dates the block pipeline; its output (and thus every
        // committed golden fixture) must not move.
        let mut legacy = AwgnSource::new(7);
        let mut buf_legacy = SampleBuffer::new(vec![Iq::ONE; 700], 1e6);
        for s in &mut buf_legacy.samples {
            *s += legacy.sample(0.5);
        }
        let mut blocked = AwgnSource::new(7);
        let mut buf_blocked = SampleBuffer::new(vec![Iq::ONE; 700], 1e6);
        blocked.add_to(&mut buf_blocked, 0.5);
        assert_eq!(buf_blocked.samples, buf_legacy.samples);
    }

    #[test]
    fn uniform_helpers_replicate_the_vendored_arithmetic() {
        let mut draws = ChaCha8Rng::seed_from_u64(1234);
        let mut check = ChaCha8Rng::seed_from_u64(1234);
        for _ in 0..1000 {
            let expect: f64 = check.gen_range(f64::EPSILON..1.0);
            assert_eq!(uniform_eps_one(draws.next_u64()), expect);
            let expect: f64 = check.gen();
            assert_eq!(uniform_open01(draws.next_u64()), expect);
        }
    }

    #[test]
    fn noise_buffer_is_the_per_sample_stream() {
        let mut reference = AwgnSource::new(11);
        let expected: Vec<Iq> = (0..FILL_SIZES[5]).map(|_| reference.sample(0.5)).collect();
        let buffer = AwgnSource::new(11).noise_buffer(FILL_SIZES[5], 1e6, 0.5);
        assert_eq!(buffer.samples, expected);
    }

    #[test]
    fn dropping_the_handle_mid_stream_joins_the_helper() {
        use std::sync::Arc;
        // The helper owns one reference until it exits, so a count of one
        // right after the drop means the drop waited for it.
        let held = Arc::new(());
        let mut ahead = NoiseAhead::spawn_holding(AwgnSource::new(5), 1.0, 0, Arc::clone(&held));
        ahead.add_next(&mut [Iq::ZERO; 100]);
        drop(ahead);
        assert_eq!(Arc::strong_count(&held), 1, "helper outlived the handle");

        // The same on the unwinding path.
        let held = Arc::new(());
        let in_helper = Arc::clone(&held);
        let unwound = std::panic::catch_unwind(move || {
            let mut ahead = NoiseAhead::spawn_holding(AwgnSource::new(5), 1.0, 0, in_helper);
            ahead.add_next(&mut [Iq::ZERO; 100]);
            panic!("the consumer fails mid-stream");
        });
        assert!(unwound.is_err());
        assert_eq!(Arc::strong_count(&held), 1, "helper outlived the unwind");
    }

    #[test]
    fn add_for_snr_achieves_requested_snr() {
        let mut src = AwgnSource::new(3);
        let mut buf = SampleBuffer::new(vec![Iq::ONE; 50_000], 1e6);
        src.add_for_snr(&mut buf, 1.0, Db(10.0));
        // Mean power should now be signal (1.0) + noise (0.1).
        let p = buf.mean_power();
        assert!((p - 1.1).abs() < 0.01, "power {p}");
    }
}
