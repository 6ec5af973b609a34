//! Integration test: the evaluation machinery is internally consistent and
//! anchored to the paper's headline numbers.

use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use netsim::{
    detection_range, paper_demodulation_range, run_link_trials, run_waveform_trials, Scenario,
    TrialConfig,
};
use rfsim::units::{Dbm, Meters};
use saiyan::{SaiyanConfig, Variant};

#[test]
fn headline_numbers_are_within_fifteen_percent_of_the_paper() {
    // Outdoor demodulation range of the full design (paper: 148.6 m).
    let outdoor = paper_demodulation_range(&Scenario::outdoor_default(Meters(1.0))).value();
    assert!(
        (outdoor - 148.6).abs() / 148.6 < 0.15,
        "outdoor range {outdoor}"
    );

    // Indoor NLOS detection range (paper: 44.2 m behind one wall).
    let indoor = detection_range(
        &Scenario::indoor(Meters(1.0), 1),
        Dbm(saiyan::SUPER_SAIYAN_SENSITIVITY_DBM),
    )
    .value();
    assert!((indoor - 44.2).abs() / 44.2 < 0.3, "indoor range {indoor}");

    // Baseline detection ranges (paper: 42.4 m PLoRa, 30.6 m Aloba).
    let plora = detection_range(
        &Scenario::outdoor_default(Meters(1.0)),
        Dbm(baselines::PLORA_DETECTION_SENSITIVITY_DBM),
    )
    .value();
    let aloba = detection_range(
        &Scenario::outdoor_default(Meters(1.0)),
        Dbm(baselines::ALOBA_DETECTION_SENSITIVITY_DBM),
    )
    .value();
    assert!((plora - 42.4).abs() / 42.4 < 0.15, "PLoRa range {plora}");
    assert!((aloba - 30.6).abs() / 30.6 < 0.15, "Aloba range {aloba}");
}

#[test]
fn ber_trends_match_fig16() {
    // BER grows with the coding rate at a fixed distance…
    let at_100m = |k: u8| {
        Scenario::outdoor_default(Meters(100.0))
            .with_bits_per_chirp(BitsPerChirp::new(k).unwrap())
            .ber()
    };
    assert!(at_100m(5) > at_100m(1));
    // …and with distance at a fixed coding rate.
    let cr5 = |d: f64| {
        Scenario::outdoor_default(Meters(d))
            .with_bits_per_chirp(BitsPerChirp::new(5).unwrap())
            .ber()
    };
    assert!(cr5(150.0) > cr5(10.0));
    // The CR5 spread at 10 m vs 150 m covers roughly the paper's 0.1‰ → 4.4‰.
    assert!(cr5(10.0) < 5e-4);
    assert!(cr5(150.0) > 2e-3);
}

#[test]
fn monte_carlo_agrees_with_the_analytic_model() {
    let scenario = Scenario::outdoor_default(Meters(130.0));
    let analytic = scenario.ber();
    let counts = run_link_trials(
        &scenario,
        &TrialConfig {
            packets: 4000,
            payload_symbols: 32,
            seed: 99,
        },
    );
    let simulated = counts.ber();
    assert!(
        (simulated - analytic).abs() < analytic * 0.25 + 1e-4,
        "simulated {simulated} vs analytic {analytic}"
    );
}

#[test]
fn waveform_chain_decodes_cleanly_well_inside_the_link_budget() {
    // The waveform-level pipeline is not calibrated to the paper's absolute
    // sensitivity, but well inside the budget it must agree
    // with the link abstraction that the link is clean.
    let scenario = Scenario::outdoor_default(Meters(20.0));
    let lora = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).unwrap(),
    )
    .with_oversampling(8);
    let counts = run_waveform_trials(
        &scenario,
        &SaiyanConfig::paper_default(lora, Variant::Super),
        &TrialConfig {
            packets: 4,
            payload_symbols: 16,
            seed: 5,
        },
    );
    assert_eq!(counts.packets_total, 4);
    assert_eq!(counts.packets_lost, 0);
    assert!(counts.ber() < 0.02, "waveform BER {}", counts.ber());
    assert!(scenario.ber() < 1e-4);
}

#[test]
fn range_scales_with_environment_bandwidth_and_variant_in_the_right_order() {
    let base = Scenario::outdoor_default(Meters(1.0));
    let outdoor = paper_demodulation_range(&base).value();
    let wall = paper_demodulation_range(&Scenario::indoor(Meters(1.0), 1)).value();
    let narrow = paper_demodulation_range(&base.clone().with_lora(LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz125,
        BitsPerChirp::new(2).unwrap(),
    )))
    .value();
    let vanilla = paper_demodulation_range(&base.clone().with_variant(Variant::Vanilla)).value();
    assert!(outdoor > wall);
    assert!(outdoor > narrow);
    assert!(outdoor > vanilla);
}
