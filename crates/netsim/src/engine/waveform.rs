//! Waveform-path engine backend: bounded-chunk IQ synthesis streamed
//! through a real [`Receiver`], with the decoded packets closing the MAC
//! feedback loop.
//!
//! The MAC is one [`Cell`] (index 0, so its RNG streams are those of the
//! analytic backend's first cell) over the whole population. Its
//! [`WaveformAir`] turns each transmission into an emission; the frames the
//! receiver decodes are parsed and fed back through [`Cell::ingest`] to
//! the cell's access point, the one the analytic backend's cells run.
//!
//! The synthesis never materialises the full capture. Tag transmissions
//! become *emissions* — power-scaled waveforms assembled from the
//! per-scenario chirp template cache ([`lora_phy::templates`]) and pinned
//! to an absolute wideband sample index — that live in a
//! [`crate::synthesis::EmissionMixer`] only while they overlap the chunk
//! cursor. Each chunk is: zeros → slice-kernel sum of overlapping
//! emissions (CFO and channel offset fused into one rotation anchored on
//! the absolute index) → plus the chunk's block AWGN, which a
//! [`NoiseAhead`] helper thread drew while the receiver decoded the
//! chunks before it. Memory is `O(concurrent packets + chunk)` however many
//! tags or readings the scenario carries, and steady-state synthesis
//! allocates nothing: the mixer recycles retired emission buffers and the
//! noise helper recycles its ring of four blocks.
//!
//! ## Bit-reproducibility
//!
//! Every run of the same scenario produces the same [`EngineReport`],
//! whatever the chunk size or the receiver's worker count:
//!
//! * events are handled in deterministic `(time, push-order)` order (the
//!   cell's [`EventQueue`](super::scheduler::EventQueue)), and
//!   all events inside a chunk's window are handled before the chunk is
//!   synthesized — so emission placement is keyed to absolute sample
//!   indices only;
//! * AWGN is one sequential draw per sample of one seeded stream, whichever
//!   thread draws it and however the chunks partition it;
//! * the default receiver is a **lockstep** gateway, whose released-packet
//!   batches are a pure function of the input so far; and
//! * MAC feedback for a decoded packet is scheduled at `packet end +
//!   feedback_delay`, a function of packet fields alone. The scenario's
//!   `feedback_delay_s` must cover the gateway release horizon plus one
//!   chunk ([`EngineScenario::min_feedback_delay_s`], asserted here), which
//!   guarantees the event is never scheduled into already-synthesized past.
//!
//! For the single-channel case the synthesized stream is *bit-identical* to
//! [`crate::longtrace::generate_long_trace`] on the same packets and noise
//! seed — the equivalence the golden-path suite pins.

use std::time::Instant;

use lora_phy::downlink::bytes_to_symbols;
use lora_phy::iq::Iq;
use lora_phy::modulator::Alphabet;
use lora_phy::templates::PacketTemplates;
use rand::Rng;
use rfsim::channel::dbm_to_buffer_power;
use rfsim::noise::{AwgnSource, NoiseAhead};
use rfsim::units::Dbm;
use saiyan::gateway::GatewayPacket;
use saiyan::receiver::Receiver;
use saiyan_mac::packet::{TagId, UplinkPacket};

use super::cell::{merge_report, Air, Cell, RunParams};
use super::report::{EngineOutcome, EngineReport};
use super::scenario::EngineScenario;
use crate::synthesis::EmissionMixer;

/// The synthesis air: each transmission becomes an emission in the mixer.
struct WaveformAir {
    /// The template cache is the only place the chirp oscillator runs: one
    /// pass per distinct chirp, then every packet is copy+scale.
    templates: PacketTemplates,
    offsets: Vec<f64>,
    fs: f64,
    mixer: EmissionMixer,
}

impl Air for WaveformAir {
    /// Queues the emission for one transmission.
    ///
    /// The `phy_rng` draw order is load-bearing: power spread first, CFO
    /// second, exactly as the reference oscillator path drew them, so every
    /// per-packet random quantity is unchanged. The packet waveform is
    /// assembled from the template cache with the power scale fused into
    /// the copy — bit-identical to the chirp generator's output followed by
    /// `SampleBuffer::scaled` — and the CFO is *not* applied here: the
    /// mixer fuses it with the channel-offset rotation at mix time.
    fn transmit(cell: &mut Cell<Self>, p: &RunParams, t: f64, tag: u32, seq: u8, channel: usize) {
        let s = p.scenario;
        // The payload is a pure function of the tag id.
        let mut payload = vec![tag as u8, (tag >> 8) as u8];
        payload.resize(s.payload_bytes, 0xA5);
        let frame = UplinkPacket {
            source: TagId(tag as u16),
            sequence: seq,
            is_ack: false,
            payload,
        };
        let symbols = bytes_to_symbols(&frame.to_bytes(), s.lora.bits_per_chirp);
        debug_assert_eq!(symbols.len(), s.payload_symbols());
        let mut power_dbm = s.base_power_dbm;
        if s.power_spread_db > 0.0 {
            power_dbm += cell
                .phy_rng
                .gen_range(-s.power_spread_db..=s.power_spread_db);
        }
        if let Some(jam) = p.jammer_on(t, channel) {
            // Co-channel jamming collapses the SINR on the jammed channel.
            power_dbm += jam.penalty_db;
        }
        let air = &mut cell.air;
        let mut samples = air.mixer.take_buffer();
        air.templates
            .assemble_scaled_extend(
                &symbols,
                dbm_to_buffer_power(Dbm(power_dbm)).sqrt(),
                &mut samples,
            )
            .expect("frame symbols are within the downlink alphabet");
        let cfo = if s.max_cfo_hz > 0.0 {
            cell.phy_rng.gen_range(-s.max_cfo_hz..=s.max_cfo_hz)
        } else {
            0.0
        };
        let at = (t * air.fs).round() as u64;
        air.mixer
            .push(at, samples, cfo, air.offsets[channel], air.fs);
    }

    fn reception(_: &mut Cell<Self>, _: &RunParams, _: f64, _: u32) {
        unreachable!("receptions come out of the receiver, not the event queue")
    }

    /// One addition per woken tag, in tag order: the summation order the
    /// stored waveform references pin.
    fn bill_wakeups(report: &mut EngineReport, woken: u32, energy_j: f64) {
        for _ in 0..woken {
            report.tag_demodulation_energy_j += energy_j;
        }
    }
}

/// Runs the scenario's waveform path through the given receiver.
///
/// The receiver must be *prompt* (packets released as a deterministic
/// function of the samples fed so far) for the bit-reproducibility
/// guarantee; the lockstep gateway and the plain streaming demodulator both
/// are.
pub(crate) fn run(scenario: &EngineScenario, receiver: &mut dyn Receiver) -> EngineOutcome {
    let p = RunParams::new(scenario);
    let fs = scenario.wideband_rate();
    assert!(
        (receiver.input_rate() - fs).abs() < 1e-6,
        "receiver expects {} sps, the scenario synthesizes {} sps",
        receiver.input_rate(),
        fs
    );
    assert!(
        scenario.feedback_delay_s >= scenario.min_feedback_delay_s() - 1e-9,
        "feedback_delay_s {} is below the chunk-invariance bound {}",
        scenario.feedback_delay_s,
        scenario.min_feedback_delay_s()
    );
    assert!(
        scenario.n_tags <= super::scenario::MAX_TAGS_PER_CELL,
        "the waveform path is a single cell ({} tags max; wire ids are u16): \
         larger populations run on the sharded analytic backend",
        super::scenario::MAX_TAGS_PER_CELL
    );
    let start_wall = Instant::now();

    let air = WaveformAir {
        templates: PacketTemplates::new(scenario.wideband_lora(), Alphabet::Downlink),
        offsets: scenario.offsets_hz(),
        fs,
        mixer: EmissionMixer::new(),
    };
    let population = (0, scenario.n_tags as u32);
    let mut cell = Cell::new(&p, 0, population, &mut Vec::new(), air);
    let tail_s = scenario.horizon_s() + 6.0 * scenario.lora.symbol_duration();
    // The noise depends on the seed and the sample index alone, so it is
    // drawn ahead on a helper thread, off the critical path.
    let mut noise = scenario.noise_power_dbm.map(|dbm| {
        NoiseAhead::spawn(
            AwgnSource::new(scenario.seed),
            dbm_to_buffer_power(Dbm(dbm)),
            scenario.chunk_samples,
        )
    });
    let mut chunk: Vec<Iq> = Vec::with_capacity(scenario.chunk_samples);
    let mut pos: u64 = 0;

    loop {
        // The cell's activity watermark is where synthesis stops, plus the
        // tail: the stream length is an event-driven quantity, not a
        // chunk-count one.
        let total = ((cell.end_time + tail_s) * fs).round() as u64;
        if pos >= total {
            // Only non-activity events may outlive the synthesized stream.
            debug_assert!(
                cell.queue.peek_time().is_none_or(|t| t >= cell.end_time),
                "activity events scheduled beyond the synthesis end"
            );
            break;
        }
        let n = (scenario.chunk_samples as u64).min(total - pos) as usize;
        let chunk_end_t = (pos + n as u64) as f64 / fs;

        // 1. Handle every event inside this chunk's window. The one cell
        // holds every tag, so its own watermark is never below the scan
        // horizon, and its scans key off that watermark.
        cell.advance(&p, chunk_end_t);

        // 2. Synthesize the chunk: emissions, then the next `n` samples of
        // the sequential AWGN stream (bit-identical to the per-sample draw
        // loop — same draw order, same add).
        chunk.clear();
        chunk.resize(n, Iq::ZERO);
        cell.air.mixer.mix_into(&mut chunk, pos);
        if let Some(noise) = noise.as_mut() {
            noise.add_next(&mut chunk);
        }

        // 3. Feed the receiver and close the MAC loop on what it released.
        let packets = receiver.feed(&chunk);
        ingest_packets(&mut cell, &p, packets);
        pos += n as u64;
    }

    // The stream is synthesized: join the noise helper before the flush.
    drop(noise);

    // Flush: packets surfacing here still count for delivery, but the
    // stream is over — the feedback they schedule is never handled.
    let packets = receiver.flush();
    ingest_packets(&mut cell, &p, packets);

    // Latencies stay in ingest order.
    let (mut report, deliveries) = merge_report(
        &p,
        receiver.backend_name(),
        pos as f64 / fs,
        vec![cell.into_outcome()],
    );
    report.latencies_s = deliveries.into_iter().map(|(_, lat)| lat).collect();
    EngineOutcome {
        report,
        wall_s: start_wall.elapsed().as_secs_f64(),
    }
}

/// Parses released receiver packets and feeds them to the cell's access
/// point; the cell schedules the feedback downlinks it raises.
fn ingest_packets(cell: &mut Cell<WaveformAir>, p: &RunParams, packets: Vec<GatewayPacket>) {
    let s = p.scenario;
    let payload_s = s.payload_symbols() as f64 * s.lora.symbol_duration();
    for packet in packets {
        if packet.result.symbols.is_empty() {
            cell.report.detections += 1;
            continue;
        }
        let end_t = packet.result.payload_start_time + payload_s;
        let bytes = packet
            .result
            .to_bytes(s.lora.bits_per_chirp, s.frame_bytes());
        if let Ok(f) = UplinkPacket::from_bytes(&bytes) {
            cell.ingest(p, end_t, f.source.0 as u32, f.sequence, f.is_ack);
        }
    }
}
