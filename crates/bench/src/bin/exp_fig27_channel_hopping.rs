//! Fig. 27 — PRR before and after Saiyan-enabled channel hopping away from a
//! jammed channel (CDF of per-window PRR).
//!
//! Each observation window is one seeded analytic network-engine run of
//! [`EngineScenario::hopping_window`]: 25 windows under the jammer, then 25
//! in which the access point's scan finds it and the tag hops away. The
//! jammer's SINR penalty comes from its −105 dBm leakage at the receiver
//! against the 3.05 m PLoRa link's noise floor.

use netsim::engine::{EngineScenario, NetworkEngine};
use netsim::BackscatterScenario;
use rfsim::units::{Dbm, Meters};
use saiyan_bench::{fmt, Runner};

const WINDOWS: u64 = 25;
const JAMMER_LEAKAGE_DBM: f64 = -105.0;

/// The nearest-rank `q` percentile of ascending `sorted`.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[((q * sorted.len() as f64).ceil() as usize).max(1) - 1]
}

fn main() {
    let penalty_db = BackscatterScenario::fig2(Meters(3.05))
        .interference_penalty(Dbm(JAMMER_LEAKAGE_DBM))
        .value();
    // Window `i` of 0..50 runs on seed `0xF1627 + i`; the hop comes at 25.
    let sorted_prrs = |hopped: bool| {
        let first = if hopped { WINDOWS } else { 0 };
        let mut prrs: Vec<f64> = (first..first + WINDOWS)
            .map(|i| {
                let window =
                    EngineScenario::hopping_window(hopped, penalty_db).with_seed(0xF1627 + i);
                NetworkEngine::new(window).run_analytic().report.prr()
            })
            .collect();
        prrs.sort_by(f64::total_cmp);
        prrs
    };
    let before = sorted_prrs(false);
    let after = sorted_prrs(true);

    let mut runner = Runner::new(
        "fig27_channel_hopping",
        "Fig. 27: CDF of per-window PRR before / after channel hopping (network engine)",
        &["percentile", "PRR before hop (%)", "PRR after hop (%)"],
    );
    for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
        let b = percentile(&before, q);
        let a = percentile(&after, q);
        runner.row(
            vec![
                format!("{:.0}%", q * 100.0),
                fmt(b * 100.0, 1),
                fmt(a * 100.0, 1),
            ],
            serde_json::json!({
                "percentile": q,
                "prr_before": b,
                "prr_after": a,
            }),
        );
    }
    runner.footer(format!(
        "Median PRR: {:.1}% while jammed -> {:.1}% after the hop command",
        percentile(&before, 0.5) * 100.0,
        percentile(&after, 0.5) * 100.0
    ));
    runner.footer(format!(
        "(paper: 47% -> 92%); jammer penalty {penalty_db:.2} dB from {JAMMER_LEAKAGE_DBM} dBm leakage."
    ));
    runner.finish();
}
