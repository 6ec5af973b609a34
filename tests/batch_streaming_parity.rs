//! Batch == streaming, stage by stage, on a golden fixture.
//!
//! Every analog stage has exactly one implementation: each batch entry point
//! (`SawFilter::apply`, `Lna::amplify`, `EnvelopeDetector::detect`,
//! `CyclicFrequencyShifter::process`, `IfAmplifier::amplify`,
//! `LowPassFilter::filter`, and the assembled `Frontend::process`) runs its
//! streaming state over the whole buffer at once, and
//! `DoubleThresholdComparator::compare` runs the receiver's comparator
//! kernel, `simd::hysteresis_words`, over the whole buffer. The SAW FIR's group delay is the one difference: the two
//! entry points that contain the FIR feed it that many trailing zeros and
//! drop as many leading outputs, so their output lines up with their input.
//! These tests pin the consequence — batch output is bit-identical to
//! chunked streaming output on a committed golden trace — so the delegation
//! can never silently fork again.

use analog::envelope::EnvelopeDetector;
use analog::filters::{IfAmplifier, LowPassFilter};
use analog::lna::Lna;
use analog::shifting::{CyclicFrequencyShifter, ShiftingConfig};
use analog::signal::RealBuffer;
use lora_phy::iq::{Iq, SampleBuffer};
use netsim::longtrace::read_golden;
use rfsim::units::Hertz;
use saiyan::config::SaiyanConfig;
use saiyan::Frontend;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A slice of the shifting golden fixture: two symbols past the first
/// packet start, which keeps the parity checks fast.
fn fixture_cut() -> (SampleBuffer, SaiyanConfig) {
    let fixture = read_golden(&golden_dir(), "dual_sf7_bw500_k2_shifting").expect("fixture loads");
    let cfg = SaiyanConfig::paper_default(fixture.lora, fixture.variant);
    let n = (4 * fixture.lora.samples_per_symbol()).min(fixture.trace.len());
    let cut = SampleBuffer::new(
        fixture.trace.samples[..n].to_vec(),
        fixture.trace.sample_rate,
    );
    (cut, cfg)
}

/// The fixture slice, SAW-transformed so the post-SAW stages see realistic
/// amplitudes.
fn fixture_rf() -> (SampleBuffer, SaiyanConfig) {
    let (cut, cfg) = fixture_cut();
    let fe = Frontend::paper(&cfg);
    (
        fe.saw.apply(&cut, fe.carrier, Frontend::STREAMING_SAW_TAPS),
        cfg,
    )
}

fn chunkings() -> [usize; 4] {
    [1, 7, 997, usize::MAX]
}

/// `input` followed by `delay` zero samples: what a batch entry point with
/// a SAW FIR feeds its streaming state.
fn with_trailing_zeros(input: &SampleBuffer, delay: usize) -> Vec<Iq> {
    let mut padded = input.samples.clone();
    padded.resize(input.len() + delay, Iq::ZERO);
    padded
}

#[test]
fn saw_batch_equals_chunked_streaming_on_golden_fixture() {
    let (cut, cfg) = fixture_cut();
    let fe = Frontend::paper(&cfg);
    let taps = Frontend::STREAMING_SAW_TAPS;
    let batch = fe.saw.apply(&cut, fe.carrier, taps);
    for chunk_size in chunkings() {
        let mut state = fe.saw.streaming_fir(fe.carrier, cut.sample_rate, taps);
        let delay = state.delay_samples();
        let padded = with_trailing_zeros(&cut, delay);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for chunk in padded.chunks(chunk_size.min(padded.len())) {
            state.filter_chunk_into(chunk, &mut scratch);
            out.extend_from_slice(&scratch);
        }
        assert_eq!(out[delay..], batch.samples, "chunk size {chunk_size}");
    }
}

#[test]
fn lna_batch_equals_chunked_streaming_on_golden_fixture() {
    let (rf, cfg) = fixture_rf();
    let lna = Lna::paper_cglna(Hertz(cfg.lora.bw.hz()));
    let batch = lna.amplify(&rf);
    for chunk_size in chunkings() {
        let mut state = lna.streaming();
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for chunk in rf.samples.chunks(chunk_size.min(rf.len())) {
            state.amplify_chunk_into(chunk, &mut scratch);
            out.extend_from_slice(&scratch);
        }
        assert_eq!(out, batch.samples, "chunk size {chunk_size}");
    }
}

#[test]
fn detector_batch_equals_chunked_streaming_on_golden_fixture() {
    let (rf, _) = fixture_rf();
    let det = EnvelopeDetector::default().with_seed(0x60_1D);
    let batch = det.detect(&rf);
    for chunk_size in chunkings() {
        let mut state = det.streaming(rf.sample_rate);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for chunk in rf.samples.chunks(chunk_size.min(rf.len())) {
            state.detect_chunk_into(chunk, &mut scratch);
            out.extend_from_slice(&scratch);
        }
        assert_eq!(out, batch.samples, "chunk size {chunk_size}");
    }
}

#[test]
fn shifter_batch_equals_chunked_streaming_on_golden_fixture() {
    let (rf, cfg) = fixture_rf();
    for use_shifting in [true, false] {
        let shifter = CyclicFrequencyShifter::new(
            ShiftingConfig::for_bandwidth(cfg.lora.bw.hz()),
            EnvelopeDetector::default(),
        );
        let batch = if use_shifting {
            shifter.process(&rf)
        } else {
            shifter.process_without_shifting(&rf)
        };
        for chunk_size in chunkings() {
            let mut state = shifter.streaming(rf.sample_rate, use_shifting);
            let mut out = Vec::new();
            let mut scratch = Vec::new();
            for chunk in rf.samples.chunks(chunk_size.min(rf.len())) {
                state.process_chunk_into(chunk, &mut scratch);
                out.extend_from_slice(&scratch);
            }
            assert_eq!(
                out, batch.samples,
                "shifting={use_shifting} chunk size {chunk_size}"
            );
        }
    }
}

#[test]
fn real_filters_batch_equal_chunked_streaming_on_golden_envelope() {
    let (rf, cfg) = fixture_rf();
    let envelope = EnvelopeDetector::ideal().detect(&rf);
    let bw = cfg.lora.bw.hz();
    // IF amplifier.
    let amp = IfAmplifier::paper_2n222(bw, bw / 4.0);
    let batch = amp.amplify(&envelope);
    for chunk_size in chunkings() {
        let mut state = amp.streaming(envelope.sample_rate);
        let mut out = envelope.samples.clone();
        for chunk in out.chunks_mut(chunk_size.min(envelope.len())) {
            state.process_chunk(chunk);
        }
        assert_eq!(out, batch.samples, "if chunk size {chunk_size}");
    }
    // Low-pass cascade.
    let lpf = LowPassFilter::new(bw / 5.0, 2);
    let batch = lpf.filter(&envelope);
    for chunk_size in chunkings() {
        let mut state = lpf.streaming(envelope.sample_rate);
        let mut out = envelope.samples.clone();
        for chunk in out.chunks_mut(chunk_size.min(envelope.len())) {
            state.process_chunk(chunk);
        }
        assert_eq!(out, batch.samples, "lpf chunk size {chunk_size}");
    }
}

#[test]
fn comparator_batch_equals_chunked_streaming_on_golden_envelope() {
    let (rf, _) = fixture_rf();
    let envelope = EnvelopeDetector::ideal().detect(&rf);
    let peak = envelope.max();
    let (high, low) = (peak * 0.7, peak * 0.3);
    let batch = analog::DoubleThresholdComparator::new(high, low).compare(&envelope);
    // The receiver's comparator: the word kernel run chunk by chunk with the
    // output level carried across chunk boundaries.
    for chunk_size in chunkings() {
        let mut state = false;
        let mut out = Vec::new();
        let mut words = Vec::new();
        for chunk in envelope.samples.chunks(chunk_size.min(envelope.len())) {
            let highs = vec![high; chunk.len()];
            let lows = vec![low; chunk.len()];
            state = analog::simd::hysteresis_words(chunk, &highs, &lows, state, &mut words);
            out.extend((0..chunk.len()).map(|i| words[i / 64] >> (i % 64) & 1 != 0));
        }
        assert_eq!(out, batch.bits, "chunk size {chunk_size}");
    }
}

#[test]
fn full_batch_front_end_equals_saw_plus_streamed_chain_on_golden_fixture() {
    // Frontend::process is the streaming front end (SAW FIR, LNA, shifter)
    // run whole-buffer with the FIR's group delay removed. The chunked
    // streaming front end must reproduce it bit-exactly — the "single
    // source of truth per stage" regression gate.
    let (cut, cfg) = fixture_cut();
    let fe = Frontend::paper(&cfg);
    let batch: RealBuffer = fe.process(&cut, Frontend::STREAMING_SAW_TAPS);
    for chunk_size in chunkings() {
        let mut state = fe.streaming(cut.sample_rate);
        let delay = state.group_delay_samples();
        let padded = with_trailing_zeros(&cut, delay);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for chunk in padded.chunks(chunk_size.min(padded.len())) {
            state.process_chunk_into(chunk, &mut scratch);
            out.extend_from_slice(&scratch);
        }
        assert_eq!(out[delay..], batch.samples, "chunk size {chunk_size}");
    }
}
