//! Fig. 26 — packet reception ratio vs the retry budget for PLoRa and Aloba
//! tags whose access point requests lost packets over Saiyan's downlink.
//!
//! Each point is one analytic network-engine run of
//! [`EngineScenario::retransmission_study`]: 1,000 readings over the
//! calibrated backscatter uplink, each lost reading requested by the access
//! point when the tag's next reading arrives (gap-detected ARQ) and replayed
//! by the tag once it demodulates the request. A lost retransmission is not
//! requested again, so the curve flattens after one retry; ARCHITECTURE §6
//! explains the gap to the paper's 83.3% / 95.5%.

use netsim::engine::{EngineScenario, NetworkEngine};
use netsim::UplinkSystem;
use saiyan_bench::{fmt, Runner};

fn main() {
    let prr = |system, retries| {
        let scenario = EngineScenario::retransmission_study(system, retries);
        NetworkEngine::new(scenario).run_analytic().report.prr()
    };
    let mut runner = Runner::new(
        "fig26_retransmission",
        "Fig. 26: PRR vs number of retransmissions (100 m link, network engine)",
        &["retransmissions", "PLoRa + Saiyan", "Aloba + Saiyan"],
    );
    for n in 0..=4u32 {
        let p = prr(UplinkSystem::PLoRa, n);
        let a = prr(UplinkSystem::Aloba, n);
        runner.row(
            vec![n.to_string(), fmt(p * 100.0, 1), fmt(a * 100.0, 1)],
            serde_json::json!({
                "retransmissions": n,
                "plora_prr": p,
                "aloba_prr": a,
            }),
        );
    }
    runner.footer("Paper: PLoRa starts at 81.8% and Aloba at 45.6% without retransmission;");
    runner.footer("Aloba climbs to 70.1% / 83.3% / 95.5% with 1 / 2 / 3 retransmissions.");
    runner.footer("The engine requests each lost reading once, so budgets above 1 add nothing.");
    runner.finish();
}
