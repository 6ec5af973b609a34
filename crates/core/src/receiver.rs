//! The unified receiver backend interface.
//!
//! Every receive backend in the workspace — the single-channel
//! [`StreamingDemodulator`], the multi-channel [`Gateway`], and (via the
//! `baselines` crate's adapter) the detection-only baseline receivers — is
//! driven the same way: feed IQ chunks in, drain decoded packets out, flush
//! at end of stream. [`Receiver`] captures that contract so harnesses like
//! `netsim::engine` and the `exp_*` experiment binaries can swap backends
//! without bespoke glue.
//!
//! A packet is a [`GatewayPacket`]: a [`DemodResult`] attributed to the
//! channel it arrived on (single-channel backends report channel 0).
//! Detection-only backends emit packets with empty `symbols` — a "something
//! was on the air here" marker rather than a decode.
//!
//! ## Contract
//!
//! * `feed` consumes one chunk at [`Receiver::input_rate`] and returns the
//!   packets whose position in the output stream is settled. Chunk
//!   boundaries must not change *what* is eventually emitted, only the
//!   batching (every implementation in this workspace is chunk invariant).
//! * `flush` ends the stream and returns the remainder; the receiver must
//!   not be fed afterwards — until `reset` returns it to its pristine state.
//! * `reset` discards every piece of carried state (FIR delay lines, noise
//!   RNGs, threshold trackers, detection windows, pending packets) so the
//!   instance decodes a new stream bit-identically to a freshly constructed
//!   one. This is what lets a serving layer pool receiver instances across
//!   sequential streams instead of rebuilding them.
//! * Packets are emitted in non-decreasing `payload_start_time` order.

use lora_phy::iq::Iq;

use crate::gateway::{Gateway, GatewayPacket};
use crate::streaming::DemodResult;
use crate::streaming::StreamingDemodulator;

/// A streaming receive backend: feed chunks, drain decoded packets.
///
/// See the [module docs](self) for the contract.
pub trait Receiver {
    /// Human-readable backend name used in experiment reports.
    fn backend_name(&self) -> &'static str;

    /// Sample rate (Hz) the input chunks must be at.
    fn input_rate(&self) -> f64;

    /// Feeds one chunk of the input stream; returns the packets whose place
    /// in the output stream is now settled. Empty chunks are a no-op.
    fn feed(&mut self, chunk: &[Iq]) -> Vec<GatewayPacket>;

    /// Flushes the stream and returns the remaining packets. The receiver
    /// must not be fed again afterwards (until [`Receiver::reset`]).
    fn flush(&mut self) -> Vec<GatewayPacket>;

    /// Returns the receiver to its pristine just-constructed state so it can
    /// serve a new stream, discarding all carried state. Afterwards the
    /// instance must decode any stream bit-identically to a freshly built
    /// one (`tests/receiver_reset.rs` pins this for every backend).
    fn reset(&mut self);

    /// Per-channel point-in-time SNR estimates (dB) — telemetry gauges, one
    /// entry per served channel (single-channel backends report one entry).
    /// Backends without an estimate may return an empty vector.
    fn channel_snr_db(&self) -> Vec<f64> {
        Vec::new()
    }
}

impl Receiver for StreamingDemodulator {
    fn backend_name(&self) -> &'static str {
        "streaming-demodulator"
    }

    fn input_rate(&self) -> f64 {
        self.config().lora.sample_rate()
    }

    fn feed(&mut self, chunk: &[Iq]) -> Vec<GatewayPacket> {
        wrap_single_channel(self.push_samples(chunk))
    }

    fn flush(&mut self) -> Vec<GatewayPacket> {
        wrap_single_channel(self.finish())
    }

    fn reset(&mut self) {
        StreamingDemodulator::reset(self);
    }

    fn channel_snr_db(&self) -> Vec<f64> {
        vec![self.snr_estimate_db()]
    }
}

impl Receiver for Gateway {
    fn backend_name(&self) -> &'static str {
        "gateway"
    }

    fn input_rate(&self) -> f64 {
        self.wideband_rate()
    }

    fn feed(&mut self, chunk: &[Iq]) -> Vec<GatewayPacket> {
        self.push_chunk(chunk)
    }

    fn flush(&mut self) -> Vec<GatewayPacket> {
        self.flush_in_place()
    }

    fn reset(&mut self) {
        Gateway::reset(self);
    }

    fn channel_snr_db(&self) -> Vec<f64> {
        Gateway::channel_snr_db(self).to_vec()
    }
}

/// Attributes a single-channel backend's results to channel 0.
fn wrap_single_channel(results: Vec<DemodResult>) -> Vec<GatewayPacket> {
    results
        .into_iter()
        .map(|result| GatewayPacket { channel: 0, result })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SaiyanConfig, Variant};
    use crate::gateway::GatewayConfig;
    use lora_phy::iq::SampleBuffer;
    use lora_phy::modulator::Alphabet;
    use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
    use lora_phy::templates::PacketTemplates;
    use rfsim::channel::dbm_to_buffer_power;
    use rfsim::units::Dbm;

    fn config() -> SaiyanConfig {
        let lora = LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        );
        SaiyanConfig::paper_default(lora, Variant::Vanilla)
    }

    fn run_receiver(rx: &mut dyn Receiver, samples: &[Iq], chunk: usize) -> Vec<GatewayPacket> {
        let mut out = Vec::new();
        for c in samples.chunks(chunk) {
            out.extend(rx.feed(c));
        }
        out.extend(rx.flush());
        out
    }

    #[test]
    fn streaming_and_gateway_backends_agree_through_the_trait() {
        let cfg = config();
        let symbols = vec![1u32, 3, 0, 2, 2, 1];
        let guard = vec![Iq::ZERO; 3 * cfg.lora.samples_per_symbol()];
        let mut samples = guard.clone();
        PacketTemplates::new(cfg.lora, Alphabet::Downlink)
            .assemble_scaled_extend(
                &symbols,
                dbm_to_buffer_power(Dbm(-50.0)).sqrt(),
                &mut samples,
            )
            .unwrap();
        samples.extend_from_slice(&guard);
        let trace = SampleBuffer::new(samples, cfg.lora.sample_rate());

        let reference = StreamingDemodulator::new(cfg.clone(), symbols.len()).run_to_end(&trace);
        assert_eq!(reference.len(), 1);

        let mut demod = StreamingDemodulator::new(cfg.clone(), symbols.len());
        let via_demod = run_receiver(&mut demod, &trace.samples, 777);
        let mut gateway = Gateway::new(GatewayConfig::single_channel(cfg, symbols.len()));
        let via_gateway = run_receiver(&mut gateway, &trace.samples, 777);

        for packets in [&via_demod, &via_gateway] {
            assert_eq!(packets.len(), 1);
            assert_eq!(packets[0].channel, 0);
            assert_eq!(packets[0].result, reference[0]);
        }
    }

    #[test]
    fn flush_is_idempotent_on_the_gateway() {
        let mut gateway = Gateway::new(GatewayConfig::single_channel(config(), 4));
        assert!(Receiver::flush(&mut gateway).is_empty());
        assert!(Receiver::flush(&mut gateway).is_empty());
    }
}
