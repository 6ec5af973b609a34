//! Whole-deployment discrete-event simulation: an access point and a fleet of
//! backscatter sensor tags exchange readings and feedback over time, with a
//! jammer appearing mid-run and the network hopping away from it.
//!
//! Runs on the network engine's analytic backend with the calibrated
//! two-hop backscatter link model (Fig. 2) and the §5.3 downlink: tags
//! 100 m from the access point demodulate its commands with the outdoor
//! scenario's packet success rate.
//!
//! Run with: `cargo run --release --example deployment_sim`

use netsim::engine::{
    EngineReport, EngineScenario, JammerSpec, LinkModel, NetworkEngine, TrafficModel,
};
use netsim::{Scenario, UplinkSystem};
use rfsim::units::Meters;

/// Five tags on the paper's 4-channel grid, each sending 50 readings 2 s
/// apart over the given backscatter uplink.
fn deployment(system: UplinkSystem, tag_to_tx_m: f64) -> EngineScenario {
    let mut scenario = EngineScenario::grid(5, 4, 50).with_traffic(TrafficModel::Periodic {
        interval_s: 2.0,
        jitter_s: 0.0,
    });
    scenario.link = LinkModel::Backscatter {
        tag_to_tx_m,
        system,
    };
    scenario.max_retries = 3;
    scenario.downlink_success = Scenario::outdoor_default(Meters(100.0)).command_success();
    scenario
}

fn report(label: &str, r: &EngineReport) {
    println!("--- {label} ---");
    println!(
        "readings: {} generated, {} delivered ({:.1}% delivery)",
        r.readings_generated,
        r.readings_delivered,
        r.prr() * 100.0
    );
    println!(
        "uplink transmissions: {} ({:.2} per delivered reading)",
        r.uplink_transmissions,
        r.transmissions_per_delivery()
    );
    println!(
        "downlink commands: {} ({} retransmission requests, {} channel hops)",
        r.downlink_commands, r.retransmission_requests, r.channel_hops
    );
    println!(
        "tag energy spent demodulating feedback: {:.2} mJ over {:.0} s\n",
        r.tag_demodulation_energy_j * 1e3,
        r.duration_s
    );
}

fn run(scenario: EngineScenario) -> EngineReport {
    NetworkEngine::new(scenario).run_analytic().report
}

fn main() {
    // 1. A healthy PLoRa deployment: almost everything arrives first try.
    let clean = run(deployment(UplinkSystem::PLoRa, 3.0));
    report("PLoRa uplink, clean channel", &clean);

    // 2. A lossy Aloba deployment: the feedback loop earns its keep.
    let lossy = deployment(UplinkSystem::Aloba, 2.8);
    let with_arq = run(lossy.clone());
    report("Aloba uplink, reactive retransmissions", &with_arq);
    let without_arq = run(EngineScenario {
        max_retries: 0,
        ..lossy
    });
    report("Aloba uplink, no feedback (blind)", &without_arq);

    // 3. A jammer appears at t = 20 s; the AP notices and hops the network.
    let mut jammed = deployment(UplinkSystem::PLoRa, 3.0);
    jammed.jammer = Some(JammerSpec {
        at_s: 20.0,
        channel: 0,
        penalty_db: -60.0,
    });
    let jammed = run(jammed);
    report(
        "PLoRa uplink, jammer at t=20 s (with channel hopping)",
        &jammed,
    );

    println!("Takeaway: with Saiyan the tags can hear the access point, so lost packets");
    println!("are recovered on demand and the whole network escapes a jammed channel.");
}
