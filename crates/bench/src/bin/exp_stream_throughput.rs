//! Streaming-demodulator throughput: sustained samples/sec over a long
//! multi-packet trace, per receive-chain variant and profile.
//!
//! This is the scale-readiness number behind the ROADMAP's "as fast as the
//! hardware allows" goal: how quickly the software receive chain chews
//! through an unbounded IQ stream fed in hardware-realistic chunks. For
//! reference, real-time operation at the paper's SF7/500 kHz setup with 4x
//! oversampling needs 2 Msps sustained.
//!
//! Two profiles are measured for every variant:
//!
//! * **exact** — [`SaiyanConfig::paper_default`]: the full analog-noise model
//!   and the exact per-sample oscillator. This is the configuration the
//!   golden-trace suite pins bit-exactly; its cost floor is the four libm
//!   Gaussian draws per waveform sample the noise model requires.
//! * **production** — [`SaiyanConfig::high_throughput`]: the analog-noise
//!   model off (a real capture already carries channel noise) and the
//!   anchored phasor-recurrence oscillator. This is the profile the
//!   multi-channel gateway deploys.
//!
//! The binary exits non-zero if any row, exact or production, decodes fewer
//! than every packet or makes a symbol error. With `--check-floor <x>` it
//! also exits non-zero if the *headline* (production, slowest variant)
//! realtime factor drops below `x` — the CI regression gate. Results land in
//! `results/stream_throughput.json`.

use std::time::Instant;

use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use netsim::longtrace::{generate_long_trace, random_payloads, LongTraceConfig, TracePacket};
use saiyan::config::{SaiyanConfig, Variant};
use saiyan::StreamingDemodulator;
use saiyan_bench::{check_floor_arg, enforce_floor, fmt, print_simd_report, write_json, Table};

const PACKETS: usize = 12;
const PAYLOAD_SYMBOLS: usize = 16;
const CHUNK_SAMPLES: usize = 4096;

fn main() {
    let lora = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).expect("valid"),
    );
    let k = lora.bits_per_chirp;
    let payloads = random_payloads(PACKETS, PAYLOAD_SYMBOLS, k, 0x57_87A7);
    let config = LongTraceConfig::new(lora).with_noise(-82.0);
    let packets: Vec<TracePacket> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| {
            TracePacket::new(
                p.clone(),
                -48.0 - (i % 3) as f64 * 2.0,
                if i == 0 { 4.0 } else { 16.0 },
            )
        })
        .collect();
    let (trace, truth) = generate_long_trace(&config, &packets);
    println!(
        "trace: {} packets x {} symbols, {} samples ({:.1} ms of air time) at {:.0} sps",
        truth.len(),
        PAYLOAD_SYMBOLS,
        trace.len(),
        trace.duration() * 1e3,
        trace.sample_rate
    );

    let mut table = Table::new(
        "Streaming demodulation throughput (chunked, 4096-sample chunks)",
        &[
            "profile",
            "variant",
            "decoded",
            "symbol errors",
            "Msamples/s",
            "x realtime",
        ],
    );
    let mut json_rows = Vec::new();
    let mut headline: f64 = f64::INFINITY;
    let mut failed_rows = Vec::new();
    for production in [false, true] {
        let profile = if production { "production" } else { "exact" };
        for variant in Variant::ALL {
            let base = SaiyanConfig::paper_default(lora, variant);
            let cfg = if production {
                base.high_throughput()
            } else {
                base
            };
            let mut demod = StreamingDemodulator::new(cfg, PAYLOAD_SYMBOLS);
            let start = Instant::now();
            let mut results = Vec::new();
            for chunk in trace.samples.chunks(CHUNK_SAMPLES) {
                results.extend(demod.push_samples(chunk));
            }
            results.extend(demod.finish());
            let elapsed = start.elapsed().as_secs_f64();
            let samples_per_sec = trace.len() as f64 / elapsed;
            // Match decoded packets to ground truth by payload time.
            let mut symbol_errors = 0usize;
            let mut decoded = 0usize;
            for t in &truth {
                let t_payload = t.payload_start_sample as f64 / trace.sample_rate;
                if let Some(r) = results
                    .iter()
                    .find(|r| (r.payload_start_time - t_payload).abs() < lora.symbol_duration())
                {
                    decoded += 1;
                    symbol_errors += r
                        .symbols
                        .iter()
                        .zip(&t.symbols)
                        .filter(|(a, b)| a != b)
                        .count();
                }
            }
            let realtime = samples_per_sec / trace.sample_rate;
            if production {
                headline = headline.min(realtime);
            }
            if decoded < truth.len() || symbol_errors > 0 {
                failed_rows.push(format!(
                    "{profile} {}: {decoded}/{} decoded, {symbol_errors} symbol errors",
                    variant.label(),
                    truth.len()
                ));
            }
            table.add_row(vec![
                profile.to_string(),
                variant.label().to_string(),
                format!("{decoded}/{}", truth.len()),
                symbol_errors.to_string(),
                fmt(samples_per_sec / 1e6, 2),
                fmt(realtime, 1),
            ]);
            json_rows.push(serde_json::json!({
                "profile": profile,
                "variant": variant.label(),
                "decoded": decoded,
                "packets": truth.len(),
                "symbol_errors": symbol_errors,
                "samples_per_sec": samples_per_sec,
                "realtime_factor": realtime,
            }));
        }
    }
    table.print();
    println!(
        "Sustained rate is per single core; 1x realtime = {:.1} Msps (SF7, 500 kHz, 4x oversampling).",
        trace.sample_rate / 1e6
    );
    print_simd_report();
    write_json("stream_throughput", &serde_json::json!(json_rows));
    if !failed_rows.is_empty() {
        for row in &failed_rows {
            eprintln!("decode FAIL: {row}");
        }
        std::process::exit(1);
    }
    enforce_floor(
        "production realtime factor (slowest variant)",
        headline,
        check_floor_arg(),
    );
}
