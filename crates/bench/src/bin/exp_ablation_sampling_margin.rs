//! Design-choice ablation (beyond the paper's figures): how much sampling-rate
//! margin over the Nyquist minimum does the peak-position decoder need?
//!
//! Table 1 reports that the *practical* sampling rate is higher than the
//! theoretical minimum `2·BW/2^(SF−K)`; Saiyan settles on a 1.6× margin
//! (3.2·BW/2^(SF−K)). This experiment sweeps the margin on the waveform-level
//! receiver and reports the symbol accuracy (lost packets count as all
//! wrong) and the packets whose preamble it never found, showing where the
//! knee is.

use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use netsim::{run_waveform_trials, Scenario, TrialConfig};
use rfsim::units::Meters;
use saiyan::{SaiyanConfig, Variant};
use saiyan_bench::{fmt, Table};

fn main() {
    let lora = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    )
    .with_oversampling(8);
    let scenario = Scenario::outdoor_default(Meters(25.0));

    let mut table = Table::new(
        "Ablation: voltage-sampler margin over the Nyquist minimum (SF7/500 kHz/K=2, 25 m)",
        &[
            "margin",
            "sampler rate (kHz)",
            "symbol accuracy (%)",
            "packets lost",
        ],
    );
    let mut json_rows = Vec::new();
    for margin in [1.0, 1.1, 1.2, 1.4, 1.6, 2.0] {
        let mut config = SaiyanConfig::paper_default(lora, Variant::WithShifting);
        config.sampling_margin = margin;
        let counts = run_waveform_trials(
            &scenario,
            &config,
            &TrialConfig {
                packets: 8,
                payload_symbols: 24,
                seed: 0xAB1A + (margin * 10.0) as u64,
            },
        );
        let accuracy = (1.0 - counts.ser()) * 100.0;
        table.add_row(vec![
            format!("{margin:.1}x"),
            fmt(config.sampler_rate() / 1e3, 1),
            fmt(accuracy, 2),
            format!("{}/{}", counts.packets_lost, counts.packets_total),
        ]);
        json_rows.push(serde_json::json!({
            "margin": margin,
            "sampler_rate_khz": config.sampler_rate() / 1e3,
            "symbol_accuracy": accuracy / 100.0,
            "packets_lost": counts.packets_lost,
        }));
    }
    table.print();
    println!("Note: the synthetic link has no clock offset between transmitter and");
    println!("sampler, and the receiver times each symbol window from preamble edges");
    println!("latched on the same tick grid, so margins near the theoretical minimum");
    println!("can still decode cleanly here.");
    println!("Paper (Table 1 discussion): the theoretical minimum rate exacerbates bit");
    println!("errors; Saiyan conservatively samples at 1.6x Nyquist (3.2*BW/2^(SF-K)).");
    saiyan_bench::write_json("ablation_sampling_margin", &serde_json::json!(json_rows));
}
