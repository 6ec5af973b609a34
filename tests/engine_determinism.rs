//! Bit-reproducibility of the network engine: for a fixed seed, the whole
//! [`EngineReport`](netsim::engine::EngineReport) — every counter and every
//! latency sample — must be identical whatever the synthesis chunk size or
//! the gateway worker-thread count, and across repeated runs.

use netsim::engine::{EngineReport, EngineScenario, JammerSpec, MacPolicy, NetworkEngine};
use saiyan::gateway::Gateway;

/// A scenario that exercises the full feedback loop: multiple tags and
/// channels, an injected loss in the middle of a tag's sequence (so the
/// following frame reveals the gap and ARQ downlinks plus a replay happen),
/// and per-packet power/CFO draws.
fn scenario() -> EngineScenario {
    let mut s = EngineScenario::grid(4, 4, 3).with_mac(MacPolicy::Hopping);
    s.drop_first_attempt = vec![(1, 1)];
    // Fix one feedback delay that satisfies the chunk-invariance bound for
    // the *largest* chunk size under test, so every run shares it.
    s.chunk_samples = 1 << 16;
    s.feedback_delay_s = s.min_feedback_delay_s();
    s
}

#[test]
fn waveform_reports_are_identical_across_chunk_sizes_and_worker_counts() {
    let base = scenario();
    let mut reports = Vec::new();
    // 1000 and 16384 + 17 do not divide the stream or the noise helper's
    // blocks: chunks straddle the helper's block boundaries.
    for chunk_samples in [1000usize, 4096, 16384, 16384 + 17, 1 << 16] {
        for workers in [1usize, 2, 4] {
            let mut s = base.clone();
            s.chunk_samples = chunk_samples;
            let engine = NetworkEngine::new(s);
            let config = engine.default_gateway_config().with_worker_threads(workers);
            let out = engine.run_waveform_with(move |_spec| Box::new(Gateway::new(config.clone())));
            reports.push((chunk_samples, workers, out.report));
        }
    }
    let (c0, w0, reference) = &reports[0];
    assert!(reference.readings_delivered > 0, "{reference:?}");
    assert!(reference.retransmission_requests >= 1, "{reference:?}");
    for (c, w, report) in &reports[1..] {
        assert_eq!(
            report, reference,
            "chunk {c} x workers {w} diverged from chunk {c0} x workers {w0}"
        );
    }
}

#[test]
fn noiseless_waveform_reports_are_identical_across_chunk_sizes() {
    // No noise power: the engine spawns no noise helper at all.
    let mut base = scenario();
    base.noise_power_dbm = None;
    let run = |chunk_samples: usize| {
        let mut s = base.clone();
        s.chunk_samples = chunk_samples;
        NetworkEngine::new(s).run_waveform().report
    };
    let reference = run(1000);
    assert!(reference.readings_delivered > 0, "{reference:?}");
    assert_eq!(run(16384 + 17), reference);
}

#[test]
fn waveform_runs_are_reproducible_and_seed_sensitive() {
    // ALOHA draws its channels from the seeded MAC stream, so a different
    // seed reshuffles the collision pattern — a robust seed probe.
    let base = scenario().with_mac(MacPolicy::Aloha);
    let a = NetworkEngine::new(base.clone()).run_waveform();
    let b = NetworkEngine::new(base.clone()).run_waveform();
    assert_eq!(a.report, b.report);
    let c = NetworkEngine::new(base.with_seed(0xBEEF)).run_waveform();
    assert_ne!(a.report, c.report);
}

#[test]
fn analytic_runs_are_reproducible() {
    let base = scenario().with_mac(MacPolicy::Aloha);
    let a = NetworkEngine::new(base.clone()).run_analytic();
    let b = NetworkEngine::new(base).run_analytic();
    assert_eq!(a.report, b.report);
    assert!(a.report.collisions > 0 || a.report.readings_delivered > 0);
}

#[test]
fn analytic_and_waveform_agree_on_the_workload_shape() {
    // The two fidelity levels share traffic and MAC machinery — one cell
    // model — so on a collision-free scenario they must agree on the
    // integer workload counters even though their PHY models differ
    // completely. First a clean run, then the whole feedback loop: an
    // injected loss, a jammer whose losses the AP requests back, and the
    // scan that hops the AP away from it.
    let clean = EngineScenario::grid(4, 4, 2);
    let mut feedback = EngineScenario::grid(4, 4, 3).with_mac(MacPolicy::Hopping);
    feedback.drop_first_attempt = vec![(1, 1)];
    feedback.jammer = Some(JammerSpec {
        at_s: 0.04,
        channel: 0,
        penalty_db: -60.0,
    });
    feedback.scan_interval_s = 0.01;
    feedback.downlink_success = 1.0;
    for s in [clean, feedback] {
        let engine = NetworkEngine::new(s);
        let analytic = engine.run_analytic().report;
        let waveform = engine.run_waveform().report;
        assert_eq!(analytic.collisions, 0, "{analytic:?}");
        let shape = |r: &EngineReport| {
            [
                r.readings_generated,
                r.uplink_transmissions,
                r.suppressed_transmissions,
                r.readings_delivered,
                r.retransmission_requests,
                r.downlink_commands,
                r.channel_hops,
            ]
        };
        assert_eq!(
            shape(&analytic),
            shape(&waveform),
            "\n{analytic:?}\n{waveform:?}"
        );
        if engine.scenario().jammer.is_some() {
            assert_eq!(analytic.channel_hops, 1, "{analytic:?}");
            assert!(analytic.retransmission_requests >= 2, "{analytic:?}");
            assert!(analytic.readings_delivered < analytic.readings_generated);
        }
    }
}
