//! Golden-trace regression suite.
//!
//! The fixtures under `tests/golden/` are committed IQ traces (f32 LE pairs)
//! plus manifests with the transmitted symbol sequences. Three invariants are
//! pinned here:
//!
//! 1. the fixture *generator* is stable — regenerating every fixture in
//!    memory reproduces the committed files byte-for-byte (if you changed the
//!    modulator/channel models intentionally, rerun
//!    `cargo run -p saiyan_bench --bin gen_golden_traces` and commit);
//! 2. the receiver decodes each packet in *batch*: cut from the trace as a
//!    capture of its own, with a symbol of guard on each side, and pushed
//!    whole;
//! 3. the receiver decodes the same packets from the continuous trace —
//!    chunked and whole-buffer — bit-exactly.

use std::path::PathBuf;

use lora_phy::iq::SampleBuffer;
use netsim::golden_fixture_set;
use netsim::longtrace::{manifest_to_string, read_golden, trace_to_bytes, GoldenFixture};
use saiyan::config::SaiyanConfig;
use saiyan::StreamingDemodulator;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn config(fixture: &GoldenFixture) -> SaiyanConfig {
    SaiyanConfig::paper_default(fixture.lora, fixture.variant)
}

#[test]
fn committed_fixtures_match_the_generator() {
    // Byte-exact regeneration leans on the platform libm: chirp synthesis
    // and the AWGN source go through f64 transcendentals (cos/sin/ln/powf)
    // whose last-ulp behaviour can differ across libc/arch. The committed
    // fixtures were generated on Linux/glibc x86-64 (the CI platform). If
    // this assertion fails elsewhere while the two decode tests below still
    // pass, suspect a libm difference, not a regression.
    for fixture in golden_fixture_set() {
        let dir = golden_dir();
        let iq = std::fs::read(dir.join(format!("{}.iq", fixture.name)))
            .unwrap_or_else(|e| panic!("missing committed {}.iq: {e}", fixture.name));
        assert_eq!(
            iq,
            trace_to_bytes(&fixture.trace),
            "{}.iq drifted from the generator — rerun gen_golden_traces if intentional",
            fixture.name
        );
        let manifest = std::fs::read_to_string(dir.join(format!("{}.manifest", fixture.name)))
            .unwrap_or_else(|e| panic!("missing committed {}.manifest: {e}", fixture.name));
        assert_eq!(
            manifest,
            manifest_to_string(&fixture),
            "{}.manifest drifted from the generator",
            fixture.name
        );
    }
}

#[test]
fn batch_demodulation_reproduces_golden_symbols() {
    for fixture in golden_fixture_set().iter().map(|f| &f.name) {
        let fixture = read_golden(&golden_dir(), fixture).expect("fixture loads");
        let cfg = config(&fixture);
        let sps = fixture.lora.samples_per_symbol();
        for (i, truth) in fixture.truth.iter().enumerate() {
            // One packet with a symbol of guard on each side.
            let start = truth.packet_start_sample.saturating_sub(sps);
            let end = (truth.payload_start_sample + truth.symbols.len() * sps + sps)
                .min(fixture.trace.len());
            let capture = SampleBuffer::new(
                fixture.trace.samples[start..end].to_vec(),
                fixture.trace.sample_rate,
            );
            let results =
                StreamingDemodulator::new(cfg.clone(), truth.symbols.len()).run_to_end(&capture);
            assert_eq!(
                results.len(),
                1,
                "{}: batch decode of packet {i} (decoded {results:?})",
                fixture.name
            );
            assert_eq!(
                results[0].symbols, truth.symbols,
                "{}: batch symbols for packet {i}",
                fixture.name
            );
        }
    }
}

#[test]
fn streaming_demodulation_reproduces_golden_symbols() {
    for name in golden_fixture_set().iter().map(|f| f.name.clone()) {
        let fixture = read_golden(&golden_dir(), &name).expect("fixture loads");
        let cfg = config(&fixture);
        let n_symbols = fixture.truth[0].symbols.len();
        let whole = StreamingDemodulator::new(cfg.clone(), n_symbols).run_to_end(&fixture.trace);
        for chunk_size in [2048usize, usize::MAX] {
            let mut demod = StreamingDemodulator::new(cfg.clone(), n_symbols);
            let mut results = Vec::new();
            for chunk in fixture
                .trace
                .samples
                .chunks(chunk_size.min(fixture.trace.len()))
            {
                results.extend(demod.push_samples(chunk));
            }
            results.extend(demod.finish());
            assert_eq!(
                results, whole,
                "{name}: chunked vs whole-buffer runs differ"
            );
        }
        assert_eq!(
            whole.len(),
            fixture.truth.len(),
            "{name}: packet count (decoded {whole:?})"
        );
        for (i, truth) in fixture.truth.iter().enumerate() {
            let expected_t = truth.payload_start_sample as f64 / fixture.trace.sample_rate;
            let result = whole
                .iter()
                .find(|r| {
                    (r.payload_start_time - expected_t).abs() < fixture.lora.symbol_duration()
                })
                .unwrap_or_else(|| panic!("{name}: no decode near packet {i}"));
            assert_eq!(
                result.symbols, truth.symbols,
                "{name}: streaming symbols for packet {i}"
            );
        }
    }
}
