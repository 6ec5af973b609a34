//! # netsim — scenario simulation and Monte-Carlo evaluation
//!
//! The evaluation engine behind every table and figure reproduction:
//!
//! * [`scenario`] — downlink scenarios (environment, distance, PHY, variant,
//!   temperature, jammer) and their link-abstraction BER;
//! * [`range`] — demodulation-range and detection-range searches;
//! * [`trial`] — Monte-Carlo packet trials (link abstraction and full
//!   waveform);
//! * [`longtrace`] — long multi-packet IQ traces for the streaming receiver
//!   and the golden-fixture serialisation behind `tests/golden_traces.rs`;
//! * [`multichannel`] — multi-tag, multi-channel wideband traces (per-tag
//!   hopping schedules, per-packet power/CFO) for the gateway (both trace
//!   generators are layout presets over [`synthesis::EmissionMixer`]);
//! * [`backscatter`] — the two-hop backscatter uplink (Fig. 2);
//! * [`synthesis`] — the one emission mixer every IQ synthesizer (trace
//!   generators and the engine's waveform path) rotates and sums through:
//!   start-sorted emissions with fused CFO/channel rotation, anchored on the
//!   absolute sample grid for chunk invariance;
//! * [`engine`] — **the discrete-event network engine**: one
//!   scenario-driven simulator with pluggable traffic models and MAC
//!   policies, runnable analytically (the §5.3 case studies, Figs. 26 and
//!   27, and the deployment studies run on its calibrated backscatter link
//!   model) or at waveform level with
//!   chunked IQ streamed through a real receiver and live MAC feedback.
//!
//! `docs/ARCHITECTURE.md` §6 describes the engine; the README's "Headline
//! results" section quotes what the experiments measure.

#![warn(missing_docs)]

pub mod backscatter;
pub mod engine;
pub mod longtrace;
pub mod multichannel;
pub mod range;
pub mod scenario;
pub mod synthesis;
pub mod trial;

pub use backscatter::{BackscatterScenario, UplinkSystem};
pub use engine::{
    EngineOutcome, EngineReport, EngineScenario, JammerSpec, LinkModel, MacPolicy, NetworkEngine,
    TrafficModel, WaveformSpec,
};
pub use longtrace::{
    generate_long_trace, golden_fixture_set, random_payloads, GoldenFixture, LongTraceConfig,
    TraceGroundTruth, TracePacket,
};
pub use multichannel::{
    generate_multichannel_trace, hopping_traffic, HoppingTrafficConfig, MultiChannelConfig,
    MultiChannelPacket, MultiChannelTruth,
};
pub use range::{demodulation_range, detection_range, paper_demodulation_range};
pub use scenario::Scenario;
pub use trial::{run_link_trials, run_waveform_trials, TrialConfig};
