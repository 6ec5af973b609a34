//! Waveform-path engine backend: bounded-chunk IQ synthesis streamed
//! through a real [`Receiver`], with the decoded packets closing the MAC
//! feedback loop.
//!
//! The synthesis never materialises the full capture. Tag transmissions
//! become *emissions* — power-scaled waveforms assembled from the
//! per-scenario chirp template cache ([`lora_phy::templates`]) and pinned
//! to an absolute wideband sample index — that live in a
//! [`crate::synthesis::EmissionMixer`] only while they overlap the chunk
//! cursor. Each chunk is: zeros → slice-kernel sum of overlapping
//! emissions (CFO and channel offset fused into one rotation anchored on
//! the absolute index) → block AWGN. Memory is `O(concurrent packets +
//! chunk)` however many tags or readings the scenario carries, and
//! steady-state synthesis allocates nothing: the mixer recycles retired
//! emission buffers.
//!
//! ## Bit-reproducibility
//!
//! Every run of the same scenario produces the same [`EngineReport`],
//! whatever the chunk size or the receiver's worker count:
//!
//! * events are handled in deterministic `(time, push-order)` order (the
//!   same [`CalendarQueue`] the analytic cells pop), and
//!   all events inside a chunk's window are handled before the chunk is
//!   synthesized — so emission placement is keyed to absolute sample
//!   indices only;
//! * AWGN is one sequential draw per sample of one seeded stream;
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
use rfsim::noise::AwgnSource;
use rfsim::units::Dbm;
use saiyan::receiver::Receiver;
use saiyan_mac::packet::UplinkPacket;

use super::harness::{Ev, MacHarness};
use super::report::EngineOutcome;
use super::scenario::EngineScenario;
use super::scheduler::CalendarQueue;
use crate::synthesis::EmissionMixer;

/// Runs the scenario's waveform path through the given receiver.
///
/// The receiver must be *prompt* (packets released as a deterministic
/// function of the samples fed so far) for the bit-reproducibility
/// guarantee; the lockstep gateway and the plain streaming demodulator both
/// are.
pub(crate) fn run(scenario: &EngineScenario, receiver: &mut dyn Receiver) -> EngineOutcome {
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
    let start_wall = Instant::now();

    let wide_lora = scenario.wideband_lora();
    // The template cache is the only place the chirp oscillator runs: one
    // pass per distinct chirp, then every packet is copy+scale.
    let templates = PacketTemplates::new(wide_lora, Alphabet::Downlink);
    let offsets = scenario.offsets_hz();
    let packet_dur = scenario.packet_duration_s();
    let tail_s = scenario.horizon_s() + 6.0 * scenario.lora.symbol_duration();

    let mut harness = MacHarness::new(scenario);
    // `end_time` is the activity watermark: synthesis runs to it plus the
    // tail. Every scheduled event extends it past its own airtime, so the
    // stream length is an event-driven quantity, not a chunk-count one.
    let mut end_time: f64 = scenario.lead_in_s;
    let schedule = |queue: &mut CalendarQueue<Ev>, end_time: &mut f64, t: f64, ev: Ev| {
        *end_time = end_time.max(t + packet_dur);
        queue.push(t, ev);
    };

    assert!(
        scenario.n_tags <= super::scenario::MAX_TAGS_PER_CELL,
        "the waveform path is a single cell ({} tags max; wire ids are u16): \
         larger populations run on the sharded analytic backend",
        super::scenario::MAX_TAGS_PER_CELL
    );
    let mut arrivals: Vec<(f64, u16)> = Vec::new();
    for tag in 0..scenario.n_tags as u16 {
        let mut rng = MacHarness::traffic_rng(scenario, tag as u32);
        for t in scenario.traffic.arrivals(
            scenario.readings_per_tag,
            scenario.phase_s(tag as u32),
            &mut rng,
        ) {
            end_time = end_time.max(t + packet_dur);
            arrivals.push((t, tag));
        }
    }
    // About one bucket per expected event over the arrival span plus the
    // feedback tail; later events overflow and still pop in order.
    let span = end_time - scenario.lead_in_s + scenario.feedback_delay_s;
    let mut queue = CalendarQueue::for_span(scenario.lead_in_s, span, arrivals.len() * 3 + 16);
    for (t, tag) in arrivals {
        queue.push(t, Ev::Arrival { tag });
    }
    if let Some(jam) = scenario.jammer {
        // A raw push, like the scans below: the jammer switching on is not
        // tag activity, so it must not extend the watermark by a phantom
        // packet duration (that inflated `duration_s` and deflated goodput).
        queue.push(jam.at_s, Ev::JammerOn);
        let first_scan = scenario.lead_in_s + scenario.scan_interval_s;
        if first_scan < end_time {
            queue.push(first_scan, Ev::SpectrumScan);
        }
    }

    let mut mixer = EmissionMixer::new();
    let mut awgn = scenario.noise_power_dbm.map(|dbm| {
        (
            AwgnSource::new(scenario.seed),
            dbm_to_buffer_power(Dbm(dbm)),
        )
    });
    let mut chunk: Vec<Iq> = Vec::with_capacity(scenario.chunk_samples);
    let mut pos: u64 = 0;

    loop {
        let total = ((end_time + tail_s) * fs).round() as u64;
        if pos >= total {
            // Only non-activity events (a jammer firing after the last
            // packet) may outlive the synthesized stream.
            debug_assert!(
                queue.peek_time().is_none_or(|t| t >= end_time),
                "activity events scheduled beyond the synthesis end"
            );
            break;
        }
        let n = (scenario.chunk_samples as u64).min(total - pos) as usize;
        let chunk_end_t = (pos + n as u64) as f64 / fs;

        // 1. Handle every event inside this chunk's window.
        while let Some((t, ev)) = queue.pop_before(chunk_end_t) {
            match ev {
                Ev::Arrival { tag } => {
                    let packet = harness.arrival(t, tag);
                    schedule(
                        &mut queue,
                        &mut end_time,
                        t,
                        Ev::Transmit {
                            tag,
                            packet,
                            attempt: 0,
                        },
                    );
                }
                Ev::Transmit {
                    tag,
                    packet,
                    attempt,
                } => {
                    // The tag's radio is half-duplex and serial: defer a
                    // transmission that would overlap its own airtime.
                    if let Some(free) = harness.reserve_tx(tag, t) {
                        schedule(
                            &mut queue,
                            &mut end_time,
                            free,
                            Ev::Transmit {
                                tag,
                                packet,
                                attempt,
                            },
                        );
                    } else {
                        emit(
                            &mut harness,
                            scenario,
                            t,
                            tag,
                            &packet,
                            attempt,
                            &templates,
                            &offsets,
                            fs,
                            &mut mixer,
                        );
                    }
                }
                Ev::Downlink { packet } => {
                    for (tag, reply) in harness.deliver_downlink(&packet) {
                        schedule(
                            &mut queue,
                            &mut end_time,
                            t + scenario.turnaround_s,
                            Ev::Transmit {
                                tag,
                                packet: reply,
                                attempt: 1,
                            },
                        );
                    }
                }
                Ev::SpectrumScan => {
                    if let Some(hop) = harness.spectrum_scan() {
                        schedule(
                            &mut queue,
                            &mut end_time,
                            t + scenario.feedback_delay_s,
                            Ev::Downlink { packet: hop },
                        );
                    }
                    // Keep scanning while the deployment is still active.
                    // The condition keys off the activity watermark, not the
                    // queue: waveform-path feedback lives in the receiver
                    // pipeline between chunks, so the queue can be
                    // momentarily empty mid-run. A raw push (no `schedule`)
                    // so scans never extend the watermark themselves.
                    if t + scenario.scan_interval_s < end_time {
                        queue.push(t + scenario.scan_interval_s, Ev::SpectrumScan);
                    }
                }
                Ev::JammerOn => harness.jammed = true,
            }
        }

        // 2. Synthesize the chunk: emissions, then sequential block AWGN
        // (bit-identical to the per-sample draw loop — same draw order).
        chunk.clear();
        chunk.resize(n, Iq::ZERO);
        mixer.mix_into(&mut chunk, pos);
        if let Some((source, variance)) = awgn.as_mut() {
            source.add_noise_in_place(&mut chunk, *variance);
        }

        // 3. Feed the receiver and close the MAC loop on what it released.
        let packets = receiver.feed(&chunk);
        drain_packets(
            &mut harness,
            scenario,
            &mut queue,
            &mut end_time,
            packets,
            true,
        );
        pos += n as u64;
    }

    // Flush: packets surfacing here still count for delivery, but the
    // stream is over — no further feedback can be transmitted.
    let packets = receiver.flush();
    drain_packets(
        &mut harness,
        scenario,
        &mut queue,
        &mut end_time,
        packets,
        false,
    );
    // Drop feedback events scheduled past the end of the stream.
    while queue.pop().is_some() {}

    let mut report = harness.into_report(pos as f64 / fs);
    report.backend = receiver.backend_name().to_string();
    EngineOutcome {
        report,
        wall_s: start_wall.elapsed().as_secs_f64(),
    }
}

/// Queues the emission for one transmission (a no-op when suppressed).
///
/// The `phy_rng` draw order is load-bearing: power spread first, CFO
/// second, exactly as the reference oscillator path drew them, so every
/// per-packet random quantity is unchanged. The packet waveform is
/// assembled from the template cache with the power scale fused into the
/// copy — bit-identical to `Modulator::packet` followed by
/// `SampleBuffer::scaled` — and the CFO is *not* applied here: the mixer
/// fuses it with the channel-offset rotation at mix time.
#[allow(clippy::too_many_arguments)]
fn emit(
    harness: &mut MacHarness,
    scenario: &EngineScenario,
    t: f64,
    tag: u16,
    packet: &UplinkPacket,
    attempt: u32,
    templates: &PacketTemplates,
    offsets: &[f64],
    fs: f64,
    mixer: &mut EmissionMixer,
) {
    let channel = harness.pick_channel(tag);
    if harness.suppressed(tag, packet.sequence, attempt) {
        harness.report.suppressed_transmissions += 1;
        return;
    }
    harness.report.uplink_transmissions += 1;
    let symbols = bytes_to_symbols(&packet.to_bytes(), scenario.lora.bits_per_chirp);
    debug_assert_eq!(symbols.len(), scenario.payload_symbols());
    let mut power_dbm = scenario.base_power_dbm;
    if scenario.power_spread_db > 0.0 {
        power_dbm += harness
            .phy_rng
            .gen_range(-scenario.power_spread_db..=scenario.power_spread_db);
    }
    if let Some(jam) = scenario.jammer {
        // Co-channel jamming collapses the SINR on the jammed channel.
        if harness.jammed && channel == jam.channel {
            power_dbm += jam.penalty_db;
        }
    }
    let mut samples = mixer.take_buffer();
    templates
        .assemble_scaled_extend(
            &symbols,
            dbm_to_buffer_power(Dbm(power_dbm)).sqrt(),
            &mut samples,
        )
        .expect("frame symbols are within the downlink alphabet");
    let cfo = if scenario.max_cfo_hz > 0.0 {
        harness
            .phy_rng
            .gen_range(-scenario.max_cfo_hz..=scenario.max_cfo_hz)
    } else {
        0.0
    };
    mixer.push((t * fs).round() as u64, samples, cfo, offsets[channel], fs);
}

/// Folds released receiver packets into the MAC loop. With `feedback` off
/// (post-flush) deliveries still count but no downlink is scheduled.
fn drain_packets(
    harness: &mut MacHarness,
    scenario: &EngineScenario,
    queue: &mut CalendarQueue<Ev>,
    end_time: &mut f64,
    packets: Vec<saiyan::gateway::GatewayPacket>,
    feedback: bool,
) {
    let t_sym = scenario.lora.symbol_duration();
    let payload_symbols = scenario.payload_symbols();
    let packet_dur = scenario.packet_duration_s();
    for p in packets {
        if p.result.symbols.is_empty() {
            harness.report.detections += 1;
            continue;
        }
        let end_t = p.result.payload_start_time + payload_symbols as f64 * t_sym;
        let bytes = p
            .result
            .to_bytes(scenario.lora.bits_per_chirp, scenario.frame_bytes());
        for request in harness.ingest(p.channel, end_t, &bytes) {
            if feedback {
                let t = end_t + scenario.feedback_delay_s;
                *end_time = end_time.max(t + packet_dur);
                queue.push(t, Ev::Downlink { packet: request });
            }
        }
    }
}
