//! Twins: copies of a layer's parts, built from the same public constructors
//! the program uses, that the traced run feeds the same chunks as the
//! program so each part can be timed on its own.
//!
//! A twin is trusted only while it computes what the program computed: the
//! front-end twin compares its envelope with the program's own streaming
//! front end on the first chunks, and the channel twins' decoded packets are
//! compared with the program's by the workloads.

use analog::channelizer::{ChannelizerSpec, ChannelizerState};
use analog::lna::LnaState;
use analog::saw::SawFirState;
use analog::shifting::ShifterState;
use lora_phy::iq::Iq;
use saiyan::gateway::{GatewayConfig, GatewayPacket};
use saiyan::{Frontend, SaiyanConfig, StreamingDemodulator, StreamingFrontend};

use crate::trace::Trace;

/// Chunks on which the front-end twin is compared with the program's front
/// end bit for bit.
const CHECKED_CHUNKS: u64 = 16;

/// The analog front end of a [`StreamingDemodulator`], stage by stage.
pub struct FrontendTwin {
    saw: SawFirState,
    lna: LnaState,
    shifter: ShifterState,
    saw_out: Vec<Iq>,
    lna_out: Vec<Iq>,
    envelope: Vec<f64>,
    reference: StreamingFrontend,
    reference_out: Vec<f64>,
    chunks: u64,
    /// Set once the twin's envelope differed from the program front end's.
    pub diverged: bool,
}

impl FrontendTwin {
    /// The stages `StreamingDemodulator::new` assembles for this config.
    pub fn new(config: &SaiyanConfig) -> Self {
        let fe = Frontend::paper(config);
        let rate = config.lora.sample_rate();
        let taps = config
            .streaming_saw_taps
            .unwrap_or(Frontend::STREAMING_SAW_TAPS);
        FrontendTwin {
            saw: fe.saw.streaming_fir(fe.carrier, rate, taps),
            lna: fe.lna.streaming(),
            shifter: fe
                .shifter
                .streaming(rate, fe.variant.uses_shifting())
                .with_fast_clock(fe.fast_oscillator),
            saw_out: Vec::new(),
            lna_out: Vec::new(),
            envelope: Vec::new(),
            reference: fe.streaming_with_taps(rate, taps),
            reference_out: Vec::new(),
            chunks: 0,
            diverged: false,
        }
    }

    /// Runs the SAW, LNA and shifter stages on `samples`, each in its own
    /// span under `parent`.
    pub fn run(&mut self, samples: &[Iq], trace: &mut Trace, parent: Option<usize>, frame: u64) {
        let (saw, saw_out) = (&mut self.saw, &mut self.saw_out);
        trace.time("analog.saw", parent, frame, || {
            saw.filter_chunk_into(samples, saw_out)
        });
        let (lna, lna_out) = (&mut self.lna, &mut self.lna_out);
        let saw_out = &self.saw_out;
        trace.time("analog.lna", parent, frame, || {
            lna.amplify_chunk_into(saw_out, lna_out)
        });
        let (shifter, envelope) = (&mut self.shifter, &mut self.envelope);
        let lna_out = &self.lna_out;
        trace.time("analog.shifting", parent, frame, || {
            shifter.process_chunk_into(lna_out, envelope)
        });
        if self.chunks < CHECKED_CHUNKS {
            self.reference
                .process_chunk_into(samples, &mut self.reference_out);
            let same = self.reference_out.len() == self.envelope.len()
                && self
                    .reference_out
                    .iter()
                    .zip(&self.envelope)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            self.diverged |= !same;
        }
        self.chunks += 1;
    }
}

/// One gateway channel's pipeline (channelizer, demodulator and the
/// demodulator's front end), as `Gateway::new` builds it.
pub struct ChannelTwin {
    id: u8,
    channelizer: ChannelizerState,
    demod: StreamingDemodulator,
    frontend: FrontendTwin,
    baseband: Vec<Iq>,
    /// Wideband samples consumed.
    pub samples: u64,
}

impl ChannelTwin {
    /// Twins of every channel of a gateway built from `config`.
    pub fn for_gateway(config: &GatewayConfig) -> Vec<ChannelTwin> {
        config
            .channels
            .iter()
            .map(|ch| {
                let decimation =
                    (config.wideband_rate / ch.config.lora.sample_rate()).round() as usize;
                let spec = if ch.offset_hz == 0.0 && decimation == 1 {
                    ChannelizerSpec::passthrough()
                } else {
                    ChannelizerSpec::for_channel(ch.offset_hz, ch.config.lora.bw.hz(), decimation)
                        .with_taps(config.channelizer_taps)
                        .with_fast_phasor(ch.config.fast_oscillator)
                };
                ChannelTwin {
                    id: ch.id,
                    channelizer: spec.streaming(config.wideband_rate),
                    demod: StreamingDemodulator::new(ch.config.clone(), ch.payload_symbols),
                    frontend: FrontendTwin::new(&ch.config),
                    baseband: Vec::new(),
                    samples: 0,
                }
            })
            .collect()
    }

    /// Pushes one wideband chunk: a channelizer span, a demodulator span,
    /// and the front-end stage spans as children of the demodulator span.
    pub fn push(
        &mut self,
        chunk: &[Iq],
        trace: &mut Trace,
        parent: Option<usize>,
        frame: u64,
    ) -> Vec<GatewayPacket> {
        let (channelizer, baseband) = (&mut self.channelizer, &mut self.baseband);
        trace.time("analog.channelizer", parent, frame, || {
            channelizer.process_chunk_into(chunk, baseband)
        });
        self.samples += chunk.len() as u64;
        let (demod, baseband) = (&mut self.demod, &self.baseband);
        let (span, packets) = trace.time("saiyan.streaming", parent, frame, || {
            demod.push_samples(baseband)
        });
        self.frontend.run(&self.baseband, trace, Some(span), frame);
        self.wrap(packets)
    }

    /// Flushes the demodulator at the end of the stream.
    pub fn finish(&mut self) -> Vec<GatewayPacket> {
        let packets = self.demod.finish();
        self.wrap(packets)
    }

    pub fn frontend_diverged(&self) -> bool {
        self.frontend.diverged
    }

    fn wrap(&self, results: Vec<saiyan::DemodResult>) -> Vec<GatewayPacket> {
        results
            .into_iter()
            .map(|result| GatewayPacket {
                channel: self.id,
                result,
            })
            .collect()
    }
}

/// Orders packets as the gateway's merge releases them: by payload start,
/// then channel.
pub fn merge_order(packets: &mut [GatewayPacket]) {
    packets.sort_by(|a, b| {
        a.result
            .payload_start_time
            .total_cmp(&b.result.payload_start_time)
            .then(a.channel.cmp(&b.channel))
    });
}
