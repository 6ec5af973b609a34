//! End-to-end MAC behaviour of the discrete-event network engine: ARQ
//! recovery of injected losses, hopping-schedule conformance on the real
//! waveform path, jammer-driven channel hops, the analytic jammer rule,
//! ALOHA collisions, the detection-only baseline backends, and the §5.3
//! studies (Figs. 26 and 27 and the deployments) over the calibrated
//! backscatter link model.

use std::sync::{Arc, Mutex};

use baselines::{AlobaDetector, DetectionReceiver};
use lora_phy::iq::Iq;
use netsim::engine::{
    EngineReport, EngineScenario, JammerSpec, LinkModel, MacPolicy, NetworkEngine, TrafficModel,
};
use netsim::{BackscatterScenario, UplinkSystem};
use rfsim::units::{Dbm, Meters};
use saiyan::gateway::{Gateway, GatewayPacket};
use saiyan::receiver::Receiver;
use saiyan_mac::packet::UplinkPacket;

/// Wraps a receiver and logs every packet it releases, so tests can inspect
/// per-packet channels/times that the aggregate report does not carry.
struct Recording<R: Receiver> {
    inner: R,
    log: Arc<Mutex<Vec<GatewayPacket>>>,
}

impl<R: Receiver> Receiver for Recording<R> {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
    fn input_rate(&self) -> f64 {
        self.inner.input_rate()
    }
    fn feed(&mut self, chunk: &[Iq]) -> Vec<GatewayPacket> {
        let packets = self.inner.feed(chunk);
        self.log.lock().unwrap().extend(packets.iter().cloned());
        packets
    }
    fn flush(&mut self) -> Vec<GatewayPacket> {
        let packets = self.inner.flush();
        self.log.lock().unwrap().extend(packets.iter().cloned());
        packets
    }
    fn reset(&mut self) {
        self.inner.reset();
        self.log.lock().unwrap().clear();
    }
}

#[test]
fn arq_recovers_injected_losses_on_the_waveform_path() {
    let mut scenario = EngineScenario::grid(2, 4, 4);
    scenario.drop_first_attempt = vec![(0, 1)];
    let out = NetworkEngine::new(scenario.clone()).run_waveform();
    let r = &out.report;
    assert_eq!(r.readings_generated, 8);
    assert_eq!(r.suppressed_transmissions, 1, "the injected loss fired");
    assert!(
        r.retransmission_requests >= 1,
        "the gap raised an ARQ request"
    );
    assert_eq!(
        r.readings_delivered, 8,
        "ARQ recovered the dropped reading ({r:?})"
    );
    // The recovered reading paid the ARQ round trip: its latency clearly
    // exceeds the clean single-packet latency.
    let max_latency = r.latencies_s.iter().cloned().fold(0.0f64, f64::max);
    let min_latency = r.latencies_s.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max_latency > min_latency + scenario.feedback_delay_s,
        "recovered latency {max_latency} vs clean {min_latency}"
    );

    // The analytical backend recovers through the identical MAC machinery.
    let analytic = NetworkEngine::new(scenario).run_analytic();
    assert_eq!(analytic.report.readings_delivered, 8);
    assert!(analytic.report.retransmission_requests >= 1);
}

#[test]
fn hopping_policy_follows_the_rotation_schedule_on_air() {
    let scenario = EngineScenario::grid(4, 4, 3).with_mac(MacPolicy::Hopping);
    let engine = NetworkEngine::new(scenario.clone());
    let gateway_config = engine.default_gateway_config();
    let log = Arc::new(Mutex::new(Vec::new()));
    let log_handle = Arc::clone(&log);
    let out = engine.run_waveform_with(move |_spec| {
        Box::new(Recording {
            inner: Gateway::new(gateway_config),
            log: log_handle,
        })
    });
    assert_eq!(out.report.readings_delivered, 12, "{:?}", out.report);
    let packets = log.lock().unwrap();
    assert_eq!(packets.len(), 12);
    for p in packets.iter() {
        let bytes = p
            .result
            .to_bytes(scenario.lora.bits_per_chirp, scenario.frame_bytes());
        let frame = UplinkPacket::from_bytes(&bytes).expect("decoded frame parses");
        // Tag i starts on channel i % 4 and rotates by one channel per
        // transmission: its j-th packet must fly on (i + j) mod 4.
        let expected = (frame.source.0 as usize + frame.sequence as usize) % 4;
        assert_eq!(
            p.channel as usize, expected,
            "tag {} seq {} arrived on channel {}",
            frame.source.0, frame.sequence, p.channel
        );
    }
}

#[test]
fn a_jammer_triggers_a_hopping_controller_hop_and_recovery() {
    let mut scenario = EngineScenario::grid(1, 2, 12);
    scenario.jammer = Some(JammerSpec {
        at_s: 0.10,
        channel: 0,
        penalty_db: -60.0,
    });
    scenario.scan_interval_s = 0.05;
    let out = NetworkEngine::new(scenario.clone()).run_analytic();
    let r = &out.report;
    assert!(r.channel_hops >= 1, "no hop happened: {r:?}");
    assert!(
        r.prr() > 0.6,
        "the deployment should recover by hopping: {r:?}"
    );
    // Without the hop mechanism (no jammer detection possible on a one-scan
    // -free run), the same jam window would keep losing packets: check the
    // jammed window actually caused losses before the hop.
    assert!(
        r.readings_delivered < r.readings_generated || r.retransmission_requests > 0,
        "the jammer had no observable effect: {r:?}"
    );

    // The waveform path must hop too: the scan chain may not depend on the
    // event queue being momentarily non-empty between synthesis chunks.
    let wave = NetworkEngine::new(scenario).run_waveform();
    assert!(
        wave.report.channel_hops >= 1,
        "no hop on the waveform path: {:?}",
        wave.report
    );
    assert!(
        wave.report.prr() > 0.5,
        "waveform path should recover by hopping: {:?}",
        wave.report
    );
}

#[test]
fn aloha_random_channels_collide_while_fixed_stays_clean() {
    let base = EngineScenario::grid(8, 4, 3);
    let fixed = NetworkEngine::new(base.clone().with_mac(MacPolicy::Fixed)).run_analytic();
    let aloha = NetworkEngine::new(base.with_mac(MacPolicy::Aloha)).run_analytic();
    assert_eq!(fixed.report.collisions, 0);
    assert!(
        (fixed.report.prr() - 1.0).abs() < 1e-12,
        "{:?}",
        fixed.report
    );
    assert!(aloha.report.collisions > 0);
    assert!(
        aloha.report.prr() < fixed.report.prr(),
        "ALOHA {} vs fixed {}",
        aloha.report.prr(),
        fixed.report.prr()
    );
}

#[test]
fn aloha_transmissions_either_deliver_or_collide() {
    // On an ideal link every transmission is received unless it collides,
    // and a received frame delivers its reading or is a duplicate.
    let r = run_analytic(EngineScenario::grid(16, 4, 3).with_mac(MacPolicy::Aloha));
    assert!(r.collisions > 0, "{r:?}");
    assert_eq!(
        r.uplink_transmissions,
        r.readings_delivered + r.duplicates + r.collisions,
        "{r:?}"
    );
}

#[test]
fn a_lone_aloha_tag_never_collides() {
    // Its radio sends one packet at a time, whichever channel it picks.
    let alone = run_analytic(EngineScenario::grid(1, 4, 20).with_mac(MacPolicy::Aloha));
    assert_eq!(alone.collisions, 0);
    assert_eq!(alone.readings_delivered, 20);
}

#[test]
fn more_channels_reduce_aloha_collisions() {
    let traffic = EngineScenario::grid(32, 2, 4).traffic;
    let collisions = |channels| {
        let scenario = EngineScenario::grid(32, channels, 4)
            .with_mac(MacPolicy::Aloha)
            .with_traffic(traffic.clone());
        run_analytic(scenario).collisions
    };
    let (two, four) = (collisions(2), collisions(4));
    assert!(
        four < two,
        "4 channels: {four} collisions vs 2 channels: {two}"
    );
}

#[test]
fn detection_only_backends_count_detections_instead_of_deliveries() {
    let mut scenario = EngineScenario::grid(2, 1, 2);
    scenario.decimation = 1; // single channel at the channel rate
    scenario.feedback_delay_s = scenario.min_feedback_delay_s();
    // The detectors estimate their noise baselines from quiet stretches:
    // give the stream a realistic noise lead-in before the first packet.
    scenario.lead_in_s = 30.0 * scenario.lora.symbol_duration();
    let lora = scenario.lora;
    let engine = NetworkEngine::new(scenario);
    let out = engine.run_waveform_with(|spec| {
        assert!((spec.wideband_rate - lora.sample_rate()).abs() < 1e-6);
        Box::new(DetectionReceiver::new(AlobaDetector::new(lora), lora))
    });
    let r = &out.report;
    assert_eq!(r.backend, "Aloba");
    assert_eq!(r.readings_generated, 4);
    assert_eq!(
        r.detections, 4,
        "every packet on the air should be detected: {r:?}"
    );
    assert_eq!(r.readings_delivered, 0, "detectors cannot decode");
}

/// The §5.3 deployment: five tags on the 4-channel grid, 50 readings each
/// at a 2 s interval, over the calibrated two-hop backscatter uplink.
fn backscatter_deployment(system: UplinkSystem, tag_to_tx_m: f64) -> EngineScenario {
    let mut scenario = EngineScenario::grid(5, 4, 50).with_traffic(TrafficModel::Periodic {
        interval_s: 2.0,
        jitter_s: 0.0,
    });
    scenario.link = LinkModel::Backscatter {
        tag_to_tx_m,
        system,
    };
    scenario.max_retries = 3;
    scenario
}

fn run_analytic(scenario: EngineScenario) -> EngineReport {
    NetworkEngine::new(scenario).run_analytic().report
}

#[test]
fn clean_backscatter_deployment_delivers_nearly_everything() {
    let r = run_analytic(backscatter_deployment(UplinkSystem::PLoRa, 3.0));
    assert_eq!(r.readings_generated, 250);
    assert!(r.prr() > 0.95, "delivery {}: {r:?}", r.prr());
    assert!(r.transmissions_per_delivery() < 1.5, "{r:?}");
    assert_eq!(r.collisions, 0, "2 s periodic traffic never overlaps");
}

#[test]
fn retransmissions_raise_delivery_on_a_lossy_backscatter_uplink() {
    let lossy = backscatter_deployment(UplinkSystem::Aloba, 2.8);
    let with_arq = run_analytic(lossy.clone());
    let without_arq = run_analytic(EngineScenario {
        max_retries: 0,
        ..lossy
    });
    assert!(
        with_arq.prr() > without_arq.prr() + 0.1,
        "ARQ {} vs none {}",
        with_arq.prr(),
        without_arq.prr()
    );
    assert!(with_arq.retransmission_requests > 0);
    assert_eq!(without_arq.retransmission_requests, 0);
}

#[test]
fn a_jammer_on_a_backscatter_deployment_triggers_a_channel_hop() {
    let mut scenario = backscatter_deployment(UplinkSystem::PLoRa, 3.0);
    scenario.jammer = Some(JammerSpec {
        at_s: 20.0,
        channel: 0,
        penalty_db: -60.0,
    });
    let r = run_analytic(scenario);
    assert!(r.channel_hops >= 1, "no hop happened: {r:?}");
    // The hop moves the jammed channel's tags away, so most readings still
    // make it through.
    assert!(r.prr() > 0.7, "delivery {}: {r:?}", r.prr());
}

#[test]
fn backscatter_deployment_statistics_are_internally_consistent() {
    for system in [UplinkSystem::PLoRa, UplinkSystem::Aloba] {
        let r = run_analytic(backscatter_deployment(system, 2.8));
        assert!(r.readings_delivered <= r.readings_generated, "{r:?}");
        assert!(r.readings_generated <= r.uplink_transmissions, "{r:?}");
        assert_eq!(r.latencies_s.len(), r.readings_delivered);
        assert!(r.duration_s > 0.0 && r.tag_demodulation_energy_j >= 0.0);
    }
}

/// 95% Wilson score interval for `k` successes in `n` trials.
fn wilson(k: usize, n: usize) -> (f64, f64) {
    let (k, n, z) = (k as f64, n as f64, 1.96);
    let p = k / n;
    let centre = (p + z * z / (2.0 * n)) / (1.0 + z * z / n);
    let half = z * (p * (1.0 - p) / n + z * z / (4.0 * n * n)).sqrt() / (1.0 + z * z / n);
    (centre - half, centre + half)
}

/// PRR of a reading that gets up to `retries` requests, each of which the
/// tag demodulates with probability `d` and whose replay survives the uplink
/// with probability `p`, as the first one did.
fn prr_with_retransmissions(p: f64, retries: u32, d: f64) -> f64 {
    1.0 - (1.0 - p) * (1.0 - d * p).powi(retries as i32)
}

#[test]
fn retransmissions_lift_prr_like_fig26() {
    // The paper's points (%) for a retry budget of 0, 1, ...; the engine
    // must land within 5 points of each.
    let paper = [
        (UplinkSystem::PLoRa, &[81.8][..]),
        (UplinkSystem::Aloba, &[45.6, 70.1][..]),
    ];
    for (system, paper) in paper {
        let study = |retries| EngineScenario::retransmission_study(system, retries);
        let (p, d) = (study(0).link_success_p(), study(0).downlink_success);
        let curve: Vec<EngineReport> = (0..=4).map(|n| run_analytic(study(n))).collect();
        for (n, r) in curve.iter().enumerate() {
            assert_eq!(r.readings_generated, 1000);
            assert_eq!(r.collisions, 0, "one tag per channel: {r:?}");
            if let Some(&target) = paper.get(n) {
                let prr = r.prr() * 100.0;
                assert!(
                    (prr - target).abs() <= 5.0,
                    "{system:?} retries {n}: {prr:.1}% vs the paper's {target}%"
                );
            }
        }
        assert!(curve[1].prr() > curve[0].prr() + 0.1, "{system:?}");
        for pair in curve.windows(2) {
            assert!(pair[1].prr() >= pair[0].prr(), "{system:?} fell");
        }
        // Without a request, and with the one request gap-detected ARQ makes
        // per lost reading, the closed form holds. Larger budgets buy no
        // second request: a lost retransmission leaves no gap to detect.
        for (n, r) in curve.iter().enumerate().take(2) {
            let (lo, hi) = wilson(r.readings_delivered, r.readings_generated);
            let oracle = prr_with_retransmissions(p, n as u32, d);
            assert!(
                lo <= oracle && oracle <= hi,
                "{system:?} retries {n}: closed form {oracle:.3} outside [{lo:.3}, {hi:.3}]"
            );
        }
    }
}

#[test]
fn the_analytic_jammer_takes_its_penalty_off_the_link_snr() {
    // Eight tags on one jammed channel, staggered so nothing collides, no
    // ARQ and no scan before the last reading: every transmission meets
    // the jammer.
    let jammed = |link| {
        let mut s = EngineScenario::grid(8, 1, 250).with_traffic(TrafficModel::Periodic {
            interval_s: 1.0,
            jitter_s: 0.0,
        });
        s.payload_bytes = 27;
        s.link = link;
        s.max_retries = 0;
        s.scan_interval_s = 300.0;
        s.jammer = Some(JammerSpec {
            at_s: 0.0,
            channel: 0,
            penalty_db: -7.0,
        });
        s
    };
    let backscatter = jammed(LinkModel::Backscatter {
        tag_to_tx_m: 3.05,
        system: UplinkSystem::PLoRa,
    });
    let jammed_p = backscatter.jammed_success_p();
    assert!(jammed_p > 0.2 && jammed_p < backscatter.link_success_p() - 0.2);
    let r = run_analytic(backscatter);
    assert_eq!(r.collisions, 0, "{r:?}");
    assert_eq!(r.uplink_transmissions, 2000, "{r:?}");
    let (lo, hi) = wilson(r.readings_delivered, r.readings_generated);
    assert!(
        lo <= jammed_p && jammed_p <= hi,
        "PRR at SNR + penalty {jammed_p:.3} outside [{lo:.3}, {hi:.3}]"
    );
    // The link models without an SNR deliver nothing on the jammed channel
    // until the access point hops away.
    for link in [LinkModel::Ideal, LinkModel::FixedPrr(0.9)] {
        let r = run_analytic(jammed(link));
        assert_eq!(r.readings_delivered, 0, "{link:?}: {r:?}");
        assert_eq!(r.channel_hops, 0);
    }
}

#[test]
fn channel_hopping_restores_prr_like_fig27() {
    // exp_fig27_channel_hopping's windows: seeds 0xF1627 + 0..25 under the
    // jammer, + 25..50 after the hop, with the jammer's -105 dBm leakage
    // against the 3.05 m PLoRa link. Each median must land within 5 points
    // of the paper's 47% and 92%.
    let penalty_db = BackscatterScenario::fig2(Meters(3.05))
        .interference_penalty(Dbm(-105.0))
        .value();
    assert!((-8.0..-6.0).contains(&penalty_db), "{penalty_db}");
    let median_prr = |hopped: bool| {
        let first = if hopped { 25 } else { 0 };
        let mut prrs: Vec<f64> = (first..first + 25)
            .map(|i| {
                let window =
                    EngineScenario::hopping_window(hopped, penalty_db).with_seed(0xF1627 + i);
                run_analytic(window).prr()
            })
            .collect();
        prrs.sort_by(f64::total_cmp);
        prrs[12] * 100.0
    };
    let (jammed, hopped) = (median_prr(false), median_prr(true));
    assert!(
        (jammed - 47.0).abs() <= 5.0,
        "median {jammed:.1}% while jammed"
    );
    assert!(
        (hopped - 92.0).abs() <= 5.0,
        "median {hopped:.1}% after the hop"
    );
}
