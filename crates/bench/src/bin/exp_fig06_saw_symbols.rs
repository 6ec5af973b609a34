//! Fig. 6 — SAW filter input/output for four different chirp symbols.
//!
//! Feeds the four K=2 downlink chirps through the SAW model (the receiver's
//! FIR, with its group delay removed) and reports where each symbol's output
//! amplitude peaks; the paper's point is that different symbols peak at
//! clearly different times, which is what the peak-position decoder exploits.

use analog::saw::SawFilter;
use lora_phy::chirp::ChirpGenerator;
use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use rfsim::units::Hertz;
use saiyan::Frontend;
use saiyan_bench::{fmt, Table};

fn main() {
    let params = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    )
    .with_oversampling(8);
    let gen = ChirpGenerator::new(params);
    let saw = SawFilter::paper_b3790();
    let t_sym_us = params.symbol_duration() * 1e6;

    let mut table = Table::new(
        "Fig. 6: SAW output peak position per symbol (SF7, 500 kHz, K=2)",
        &[
            "symbol",
            "expected peak (us)",
            "measured peak (us)",
            "amplitude gap (dB)",
        ],
    );
    let mut json_rows = Vec::new();
    for symbol in 0..4u32 {
        let chirp = gen.downlink_chirp(symbol).unwrap();
        let out = saw.apply(
            &chirp,
            Hertz(params.carrier_hz),
            Frontend::STREAMING_SAW_TAPS,
        );
        let env = out.envelope();
        let n = env.len();
        let peak_idx = env
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let measured_us = peak_idx as f64 / params.sample_rate() * 1e6;
        let expected_us = gen.downlink_peak_time(symbol).unwrap() * 1e6;
        let early: f64 = env[..n / 8].iter().sum::<f64>() / (n / 8) as f64;
        let peak_amp = env[peak_idx];
        let gap_db = 20.0 * (peak_amp / early.max(1e-12)).log10();
        table.add_row(vec![
            format!("{symbol:02b}"),
            fmt(expected_us, 1),
            fmt(measured_us, 1),
            fmt(gap_db, 1),
        ]);
        json_rows.push(serde_json::json!({
            "symbol": symbol,
            "expected_peak_us": expected_us,
            "measured_peak_us": measured_us,
            "amplitude_gap_db": gap_db,
        }));
    }
    table.print();
    println!(
        "Symbol duration: {:.0} us. Paper: the output amplitude scales with",
        t_sym_us
    );
    println!("the input frequency and each symbol peaks at a distinct time.");
    saiyan_bench::write_json("fig06_saw_symbols", &serde_json::json!(json_rows));
}
