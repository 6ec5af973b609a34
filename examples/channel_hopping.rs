//! Channel hopping under jamming (paper §5.3.2): a jammer sits on the tag's
//! channel; the access point notices the collapsed PRR and commands a hop,
//! which the tag can only obey because Saiyan lets it demodulate the command.
//!
//! Run with: `cargo run --release --example channel_hopping`
//!
//! The MAC-level jam-and-hop sequence is also a compile-checked doctest on
//! `saiyan_mac::HoppingController`, so the API it shows cannot drift.

use netsim::engine::{EngineScenario, NetworkEngine};
use netsim::BackscatterScenario;
use rfsim::units::{Dbm, Meters};
use saiyan_mac::{ChannelTable, Command, HoppingController, TagChannelState, TagId};

fn main() {
    // MAC-level view: the controller watches per-channel interference and
    // issues the hop command.
    let table = ChannelTable::paper_433mhz();
    let mut controller = HoppingController::new(table.clone(), 2, -70.0).expect("valid channel");
    let mut tag = TagChannelState::new(TagId(1), table, 2).expect("valid channel");
    println!("Tag starts on {:.1} MHz", tag.frequency() / 1e6);

    for ch in 0..5u8 {
        controller.record_interference(ch, -95.0).unwrap();
    }
    controller.record_interference(2, -42.0).unwrap(); // jammer appears
    if let Some(packet) = controller.maybe_hop() {
        if let Command::ChannelHop { channel } = packet.command {
            println!("AP detects jamming and broadcasts: hop to channel {channel}");
        }
        tag.apply(&packet).unwrap();
    }
    println!("Tag now on {:.1} MHz\n", tag.frequency() / 1e6);

    // Link-level view: Fig. 27's observation windows on the network engine,
    // with the jammer's -105 dBm leakage against a 3.05 m PLoRa link.
    let penalty_db = BackscatterScenario::fig2(Meters(3.05))
        .interference_penalty(Dbm(-105.0))
        .value();
    for (hopped, label) in [(false, "while jammed"), (true, "after the hop")] {
        let window = EngineScenario::hopping_window(hopped, penalty_db);
        let report = NetworkEngine::new(window).run_analytic().report;
        println!(
            "PRR {label:<13}: {:4.1}% of {} readings, {} hop command(s)",
            report.prr() * 100.0,
            report.readings_generated,
            report.channel_hops
        );
    }
    println!("(paper: median 47% -> 92%; exp_fig27_channel_hopping prints the CDF)");
}
