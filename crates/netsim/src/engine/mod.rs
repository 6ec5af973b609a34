//! # The discrete-event network engine
//!
//! One `Scenario`-driven simulator for whole Saiyan deployments, closing
//! the MAC feedback loop at two fidelity levels. An [`EngineScenario`]
//! describes the workload once — tag population, channel grid, traffic
//! model ([`TrafficModel`]), MAC policy ([`MacPolicy`]), ARQ budget,
//! jammer, injected losses — and runs:
//!
//! * [`NetworkEngine::run_analytic`] — link-abstraction coin flips with
//!   real airtime collision tracking ([`occupancy::ChannelOccupancy`]),
//!   sharded into spatial cells over a worker pool that builds, runs and
//!   drops one cell at a time per worker; a million-tag city completes
//!   faster than realtime and stays bit-reproducible for a fixed seed
//!   across worker counts;
//! * [`NetworkEngine::run_waveform`] — IQ synthesized in bounded chunks
//!   through the same [`EmissionMixer`](crate::synthesis::EmissionMixer)
//!   the `longtrace` / `multichannel` trace presets use, and streamed
//!   straight into a real receiver (by default a lockstep
//!   multi-channel [`Gateway`] — see
//!   [`NetworkEngine::default_gateway_config`]), whose decoded
//!   packets drive the ARQ and hopping feedback that *reschedules tag
//!   transmit events*. Memory stays bounded however many tags the scenario
//!   carries, and the whole run is bit-reproducible for a fixed seed across
//!   chunk sizes and worker counts.
//!
//! Both paths run one MAC state model: a cell (a tag range with its
//! session table, `saiyan_mac::AccessPoint`, salted RNG streams and
//! [`scheduler::EventQueue`] — the pre-sorted arrival schedule plus a heap
//! of the few events in flight) driven through a statically dispatched air
//! seam — the link abstraction or the synthesis mixer. They fill the same
//! [`EngineReport`] (PRR, goodput, delivery latency), so "how much does
//! real demodulation change the answer?" is a one-argument diff. Receiver
//! backends are swappable through the `saiyan::Receiver` trait via
//! [`NetworkEngine::run_waveform_with`] — the plain streaming demodulator
//! and the `baselines` detection adapters slot in the same way.

pub mod occupancy;
pub mod report;
pub mod scenario;
pub mod scheduler;
pub mod traffic;

mod analytic;
mod cell;
mod waveform;

use std::thread;

use saiyan::config::{SaiyanConfig, Variant};
use saiyan::gateway::{Gateway, GatewayChannel, GatewayConfig};
use saiyan::receiver::Receiver;

pub use report::{EngineOutcome, EngineReport};
pub use scenario::{EngineScenario, JammerSpec, LinkModel, MacPolicy};
pub use traffic::TrafficModel;

/// What [`NetworkEngine::run_waveform_with`] hands the receiver factory:
/// the synthesis-side facts a backend needs to configure itself.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveformSpec {
    /// Wideband sample rate (Hz) the engine synthesizes at.
    pub wideband_rate: f64,
    /// Per-channel PHY parameters.
    pub lora: lora_phy::params::LoraParams,
    /// Channel offsets (Hz) from the wideband centre.
    pub offsets_hz: Vec<f64>,
    /// Expected payload length in chirp symbols.
    pub payload_symbols: usize,
}

/// The engine: a validated scenario plus its run entry points.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkEngine {
    scenario: EngineScenario,
}

impl NetworkEngine {
    /// Builds an engine for a scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is inconsistent
    /// ([`EngineScenario::validate`]).
    pub fn new(scenario: EngineScenario) -> Self {
        scenario.validate();
        NetworkEngine { scenario }
    }

    /// The scenario this engine runs.
    pub fn scenario(&self) -> &EngineScenario {
        &self.scenario
    }

    /// The waveform-path facts a custom receiver backend needs.
    pub fn waveform_spec(&self) -> WaveformSpec {
        WaveformSpec {
            wideband_rate: self.scenario.wideband_rate(),
            lora: self.scenario.lora,
            offsets_hz: self.scenario.offsets_hz(),
            payload_symbols: self.scenario.payload_symbols(),
        }
    }

    /// Runs the link-abstraction path.
    pub fn run_analytic(&self) -> EngineOutcome {
        analytic::run(&self.scenario)
    }

    /// Runs the waveform path through the default receiver: a lockstep
    /// multi-channel gateway (narrowband production profile, one worker per
    /// hardware thread up to one per channel).
    pub fn run_waveform(&self) -> EngineOutcome {
        let mut gateway = Gateway::new(self.default_gateway_config());
        waveform::run(&self.scenario, &mut gateway)
    }

    /// Runs the waveform path through a caller-built receiver backend.
    ///
    /// The backend must consume samples at
    /// [`WaveformSpec::wideband_rate`] and be *prompt* — packets released
    /// as a deterministic function of the samples fed so far — for the
    /// bit-reproducibility guarantee to hold (the lockstep gateway, the
    /// plain [`StreamingDemodulator`](saiyan::StreamingDemodulator) and the
    /// `baselines` detection adapters all are).
    pub fn run_waveform_with(
        &self,
        make_receiver: impl FnOnce(&WaveformSpec) -> Box<dyn Receiver>,
    ) -> EngineOutcome {
        let spec = self.waveform_spec();
        let mut receiver = make_receiver(&spec);
        waveform::run(&self.scenario, receiver.as_mut())
    }

    /// The default lockstep gateway configuration for this scenario.
    pub fn default_gateway_config(&self) -> GatewayConfig {
        let s = &self.scenario;
        let variant = Variant::Vanilla;
        let channel_config = if s.lora.bw.hz() < 500_000.0 {
            SaiyanConfig::narrowband_streaming(s.lora, variant).high_throughput()
        } else {
            SaiyanConfig::paper_default(s.lora, variant).high_throughput()
        };
        let channels: Vec<GatewayChannel> = s
            .offsets_hz()
            .iter()
            .enumerate()
            .map(|(i, &offset)| {
                GatewayChannel::new(i as u8, offset, channel_config.clone(), s.payload_symbols())
            })
            .collect();
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(s.n_channels);
        GatewayConfig::new(s.wideband_rate(), channels)
            .with_channelizer_taps(64)
            .with_worker_threads(workers)
            .with_lockstep(true)
    }
}
