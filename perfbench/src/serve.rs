//! `serve-super`: an open loop sending two streams of wire byte frames on a
//! fixed schedule to a serving daemon whose receivers are Super-variant
//! production streaming demodulators.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lora_phy::iq::Iq;
use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use netsim::longtrace::{generate_long_trace, random_payloads, LongTraceConfig, TracePacket};
use saiyan::gateway::GatewayPacket;
use saiyan::receiver::Receiver;
use saiyan::{
    BoxedReceiver, PooledExecutor, ReceiverExecutor, SaiyanConfig, StreamingDemodulator, Variant,
};
use saiyan_serve::wire::{
    bytes_to_samples, bytes_to_samples_into, samples_to_bytes, BYTES_PER_SAMPLE,
};
use saiyan_serve::{BackpressurePolicy, ServeConfig, ServeDaemon, StreamReport};

use crate::check::{check_packets, Delivered, Expected};
use crate::report::{timed_setup, FrameTimes, Outcome};
use crate::sys::{self, mix_seed};
use crate::trace::Trace;
use crate::twin::FrontendTwin;
use crate::Args;

/// Samples per wire frame.
pub const FRAME_SAMPLES: usize = 1024;
/// Each stream is sent at this multiple of its air-time rate.
const SPEED: f64 = 4.0;
/// Concurrent client streams: no more than the two cores the workload was
/// sized for.
pub const STREAMS: usize = 2;
const PACKETS: usize = 12;
const PAYLOAD_SYMBOLS: usize = 16;
/// Ingest queue bound per stream, in frames.
pub const QUEUE_DEPTH: usize = 8;

fn lora() -> LoraParams {
    LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).expect("K = 2 is valid"),
    )
}

fn receiver_config() -> SaiyanConfig {
    SaiyanConfig::paper_default(lora(), Variant::Super).high_throughput()
}

/// One stream's capture, replayed back to back.
pub struct StreamInput {
    pub samples: Vec<Iq>,
    pub bytes: Vec<u8>,
    pub expected: Vec<Expected>,
    /// Index of each packet's last payload sample.
    pub last_sample: Vec<u64>,
    pub rate: f64,
}

impl StreamInput {
    pub fn frames_per_replay(&self) -> u64 {
        (self.samples.len() / FRAME_SAMPLES) as u64
    }

    /// Wire bytes of frame `k` of the endless replay.
    pub fn frame_bytes(&self, k: u64) -> &[u8] {
        let size = FRAME_SAMPLES * BYTES_PER_SAMPLE;
        let off = (k % self.frames_per_replay()) as usize * size;
        &self.bytes[off..off + size]
    }

    /// The packets sent in the first `frames` frames (whole replays), with
    /// their last payload sample indices.
    fn expected_over(&self, frames: u64) -> (Vec<Expected>, Vec<u64>) {
        let replays = frames / self.frames_per_replay();
        let len = self.samples.len() as u64;
        let mut expected = Vec::new();
        let mut last = Vec::new();
        for r in 0..replays {
            for (e, &l) in self.expected.iter().zip(&self.last_sample) {
                expected.push(Expected {
                    payload_start_s: e.payload_start_s + (r * len) as f64 / self.rate,
                    ..e.clone()
                });
                last.push(l + r * len);
            }
        }
        (expected, last)
    }
}

/// A single-channel 2 Msps SF7 / 500 kHz capture of 12 packets.
pub fn synthesize(seed: u64, stream: usize) -> StreamInput {
    let lora = lora();
    let payloads = random_payloads(
        PACKETS,
        PAYLOAD_SYMBOLS,
        lora.bits_per_chirp,
        mix_seed(seed, 0x5E00 + stream as u64),
    );
    let mut cfg = LongTraceConfig::new(lora).with_noise(-82.0);
    cfg.seed = mix_seed(seed, 0x5E10 + stream as u64);
    cfg.tail_gap_symbols = 8.0;
    let packets: Vec<TracePacket> = payloads
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            TracePacket::new(
                p,
                -48.0 - (i % 3) as f64 * 2.0,
                if i == 0 { 4.0 } else { 16.0 },
            )
        })
        .collect();
    let (trace, truth) = generate_long_trace(&cfg, &packets);
    let sps = lora.samples_per_symbol() as u64;
    let rate = trace.sample_rate;
    let last_sample: Vec<u64> = truth
        .iter()
        .map(|t| (t.payload_start_sample as u64) + PAYLOAD_SYMBOLS as u64 * sps - 1)
        .collect();
    let keep = trace.samples.len() / FRAME_SAMPLES * FRAME_SAMPLES;
    let last_end = last_sample.iter().copied().max().unwrap_or(0) as usize;
    assert!(
        keep >= last_end + 2 * sps as usize,
        "capture tail too short to trim"
    );
    let bytes = samples_to_bytes(&trace.samples[..keep]);
    // The receivers see the wire's f32 samples, so the reference decode and
    // the stream identification use them too.
    let (samples, _) = bytes_to_samples(&bytes);
    StreamInput {
        bytes,
        samples,
        expected: truth
            .iter()
            .map(|t| Expected {
                channel: 0,
                payload_start_s: t.payload_start_sample as f64 / rate,
                symbols: t.symbols.clone(),
            })
            .collect(),
        last_sample,
        rate,
    }
}

/// State shared by the harness and every timing receiver.
pub struct Shared {
    origin: Instant,
    traced: AtomicBool,
    finished: Mutex<Vec<FeedLog>>,
}

impl Shared {
    pub fn new() -> Arc<Self> {
        Arc::new(Shared {
            origin: Instant::now(),
            traced: AtomicBool::new(false),
            finished: Mutex::new(Vec::new()),
        })
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// The logs of every stream that ended since the last call.
    pub fn take_logs(&self) -> Vec<FeedLog> {
        std::mem::take(&mut *self.finished.lock().expect("log lock"))
    }
}

/// One `feed` call of a timing receiver.
#[derive(Debug, Clone)]
pub struct Feed {
    pub start: f64,
    pub end: f64,
    pub packets: Vec<GatewayPacket>,
}

/// What a timing receiver saw of one stream.
#[derive(Debug, Default)]
pub struct FeedLog {
    /// First sample of the stream: tells the streams apart.
    pub first_sample: Option<Iq>,
    pub feeds: Vec<Feed>,
    pub flushed: Vec<GatewayPacket>,
    pub flush_end: f64,
    /// Spans of the traced run.
    pub trace: Option<Trace>,
    /// The `saiyan.streaming` span of each feed (traced run).
    pub streaming_spans: Vec<usize>,
}

impl FeedLog {
    fn all_packets(&self) -> Vec<GatewayPacket> {
        let mut out: Vec<GatewayPacket> =
            self.feeds.iter().flat_map(|f| f.packets.clone()).collect();
        out.extend(self.flushed.iter().cloned());
        out
    }
}

/// A receiver wrapper the executor's factory installs: it times every
/// `feed` and, in the traced run, records spans around it. The log moves to
/// [`Shared`] when the executor resets the receiver at the end of a stream.
pub struct TimedReceiver<R> {
    inner: R,
    shared: Arc<Shared>,
    log: FeedLog,
}

impl<R: Receiver> Receiver for TimedReceiver<R> {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn input_rate(&self) -> f64 {
        self.inner.input_rate()
    }

    fn feed(&mut self, chunk: &[Iq]) -> Vec<GatewayPacket> {
        if self.log.first_sample.is_none() {
            self.log.first_sample = chunk.first().copied();
        }
        let frame = self.log.feeds.len() as u64;
        let start = self.shared.now();
        let packets = if self.shared.traced.load(Ordering::Relaxed) {
            let trace = self
                .log
                .trace
                .get_or_insert_with(|| Trace::new(self.shared.origin));
            let rx = trace.open("saiyan.receiver", None, frame);
            let inner = &mut self.inner;
            let (span, packets) =
                trace.time("saiyan.streaming", Some(rx), frame, || inner.feed(chunk));
            self.log.streaming_spans.push(span);
            self.log.feeds.push(Feed {
                start,
                end: self.shared.now(),
                packets: packets.clone(),
            });
            trace.close(rx);
            packets
        } else {
            let packets = self.inner.feed(chunk);
            self.log.feeds.push(Feed {
                start,
                end: self.shared.now(),
                packets: packets.clone(),
            });
            packets
        };
        packets
    }

    fn flush(&mut self) -> Vec<GatewayPacket> {
        let packets = self.inner.flush();
        self.log.flushed = packets.clone();
        self.log.flush_end = self.shared.now();
        packets
    }

    fn reset(&mut self) {
        let log = std::mem::take(&mut self.log);
        if log.first_sample.is_some() {
            self.shared.finished.lock().expect("log lock").push(log);
        }
        self.inner.reset();
    }
}

/// A daemon over a pooled executor whose factory wraps `make()` in a
/// [`TimedReceiver`].
pub fn daemon<R, F>(shared: &Arc<Shared>, make: F) -> (ServeDaemon, Arc<PooledExecutor>)
where
    R: Receiver + Send + 'static,
    F: Fn() -> R + Send + Sync + 'static,
{
    let shared = Arc::clone(shared);
    let factory = Arc::new(move || {
        Box::new(TimedReceiver {
            inner: make(),
            shared: Arc::clone(&shared),
            log: FeedLog::default(),
        }) as BoxedReceiver
    });
    let executor = Arc::new(PooledExecutor::new(factory, STREAMS));
    let daemon = ServeDaemon::new(
        executor.clone() as Arc<dyn ReceiverExecutor>,
        ServeConfig::default()
            .with_queue_depth(QUEUE_DEPTH)
            .with_policy(BackpressurePolicy::Block),
    );
    (daemon, executor)
}

/// When the generator stops.
#[derive(Clone, Copy)]
pub enum Stop {
    /// At the first replay boundary after this many seconds.
    Seconds(f64),
    /// After this many frames per stream.
    Frames(u64),
}

/// The generator's record of one open-loop run. Times are seconds from the
/// [`Shared`] origin.
pub struct SendLog {
    /// Due time of frame `k` (the same for every stream).
    pub due: Vec<f64>,
    /// Per stream: when the send of frame `k` started and returned.
    pub send_start: Vec<Vec<f64>>,
    pub send_end: Vec<Vec<f64>>,
    pub t0: f64,
    pub end: f64,
    pub reports: Vec<StreamReport>,
    /// Process CPU seconds when frame `k` was due, every
    /// [`CPU_WINDOW_FRAMES`] frames.
    pub cpu_marks: Vec<(u64, f64)>,
}

/// Frames per window of the CPU-per-input-second metric (about one second
/// at the workload's rate).
pub const CPU_WINDOW_FRAMES: u64 = 8192;

/// Opens one stream per input and sends frame `k` of every stream at
/// `t0 + k * period`, whatever the daemon is doing; a frame that is late
/// is sent as soon as the generator gets to it. Then closes the streams and
/// waits for their reports.
pub fn drive(
    daemon: &ServeDaemon,
    shared: &Shared,
    frames: &[&dyn Fn(u64) -> Vec<u8>],
    period_s: f64,
    frames_per_replay: u64,
    stop: Stop,
) -> SendLog {
    let handles: Vec<_> = (0..frames.len())
        .map(|i| {
            daemon
                .open_stream(format!("stream-{i}"))
                .expect("daemon is running")
        })
        .collect();
    let n = frames.len();
    let mut log = SendLog {
        due: Vec::new(),
        send_start: vec![Vec::new(); n],
        send_end: vec![Vec::new(); n],
        t0: shared.now(),
        end: 0.0,
        reports: Vec::new(),
        cpu_marks: Vec::new(),
    };
    let mut k = 0u64;
    loop {
        let at_boundary = k.is_multiple_of(frames_per_replay) && k > 0;
        let done = match stop {
            Stop::Seconds(s) => at_boundary && shared.now() - log.t0 >= s,
            Stop::Frames(f) => k >= f,
        };
        if done {
            break;
        }
        let due = log.t0 + k as f64 * period_s;
        let ahead = due - shared.now();
        if ahead > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(ahead));
        }
        log.due.push(due);
        if k.is_multiple_of(CPU_WINDOW_FRAMES) {
            log.cpu_marks.push((k, sys::process_cpu_s()));
        }
        for (s, handle) in handles.iter().enumerate() {
            let bytes = frames[s](k);
            log.send_start[s].push(shared.now());
            handle.send_bytes(bytes).expect("stream is open");
            log.send_end[s].push(shared.now());
        }
        k += 1;
    }
    log.reports = handles.into_iter().map(|h| h.wait()).collect();
    log.end = shared.now();
    log
}

/// The logs in stream order, matched by each stream's first sample.
fn logs_by_stream(mut logs: Vec<FeedLog>, first: &[Iq]) -> Option<Vec<FeedLog>> {
    let mut out = Vec::new();
    for f in first {
        let i = logs.iter().position(|l| l.first_sample == Some(*f))?;
        out.push(logs.swap_remove(i));
    }
    Some(out)
}

/// Frame latency, generator lag and packet latency of one open-loop run.
pub struct Latencies {
    pub frame_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub packet_ms: Vec<f64>,
}

fn latencies(
    send: &SendLog,
    logs: &[FeedLog],
    inputs: &[StreamInput],
    out: &mut Outcome,
) -> Latencies {
    let mut l = Latencies {
        frame_ms: Vec::new(),
        lag_ms: Vec::new(),
        packet_ms: Vec::new(),
    };
    let t_sym = lora().symbol_duration();
    for (s, (log, input)) in logs.iter().zip(inputs).enumerate() {
        let mut times = FrameTimes::default();
        for (k, feed) in log.feeds.iter().enumerate() {
            times.push(send.due[k], send.send_start[s][k], feed.end);
        }
        l.frame_ms.extend(times.latency_ms());
        l.lag_ms.extend(times.lag_ms());
        // Each packet: the feed that released it, and the frame holding its
        // last payload sample.
        let mut released = Vec::new();
        for feed in &log.feeds {
            released.extend(feed.packets.iter().map(|p| (p, feed.end)));
        }
        released.extend(log.flushed.iter().map(|p| (p, log.flush_end)));
        let (expected, last) = input.expected_over(send.due.len() as u64);
        let delivered: Vec<Delivered> = released
            .iter()
            .map(|(p, _)| Delivered {
                channel: p.channel,
                payload_start_s: p.result.payload_start_time,
                symbols: p.result.symbols.clone(),
            })
            .collect();
        let c = check_packets(&expected, &delivered, t_sym);
        out.attempted += c.attempted;
        out.failed += c.failed;
        out.note(format!(
            "stream {s}: {} spurious packets (match nothing sent)",
            c.spurious
        ));
        if c.failed > 0 {
            out.fail(format!(
                "stream {s}: {} of {} packets not delivered intact",
                c.failed, c.attempted
            ));
        }
        for ((_, at), m) in released.iter().zip(&c.matches) {
            if let Some(i) = *m {
                let frame = (last[i] / FRAME_SAMPLES as u64) as usize;
                l.packet_ms.push((at - send.due[frame]) * 1e3);
            }
        }
    }
    l
}

/// Checks every stream was served whole and bit-identically to a fresh
/// demodulator decoding the same frames.
fn check_streams(send: &SendLog, logs: &[FeedLog], inputs: &[StreamInput], out: &mut Outcome) {
    let frames = send.due.len();
    let fresh: Vec<Vec<saiyan::DemodResult>> = std::thread::scope(|scope| {
        let jobs: Vec<_> = inputs
            .iter()
            .map(|input| {
                scope.spawn(move || {
                    let mut demod = StreamingDemodulator::new(receiver_config(), PAYLOAD_SYMBOLS);
                    let per = input.frames_per_replay() as usize;
                    let mut results = Vec::new();
                    for k in 0..frames {
                        let off = (k % per) * FRAME_SAMPLES;
                        results
                            .extend(demod.push_samples(&input.samples[off..off + FRAME_SAMPLES]));
                    }
                    results.extend(demod.finish());
                    results
                })
            })
            .collect();
        jobs.into_iter()
            .map(|j| j.join().expect("reference decode thread"))
            .collect()
    });
    for (s, ((report, log), reference)) in send.reports.iter().zip(logs).zip(&fresh).enumerate() {
        let served: Vec<_> = report.packets.iter().map(|p| p.result.clone()).collect();
        if &served != reference {
            out.fail(format!(
                "stream {s}: served packets differ from a fresh demodulator's ({} vs {})",
                served.len(),
                reference.len()
            ));
        }
        let st = &report.stats;
        if log.feeds.len() != frames
            || st.dropped_chunks > 0
            || st.malformed_bytes > 0
            || report.disconnected
        {
            out.fail(format!(
                "stream {s}: {} of {frames} frames fed, {} dropped, {} malformed bytes",
                log.feeds.len(),
                st.dropped_chunks,
                st.malformed_bytes
            ));
        }
    }
}

struct Setup {
    inputs: Vec<StreamInput>,
    shared: Arc<Shared>,
    daemon: ServeDaemon,
    executor: Arc<PooledExecutor>,
}

fn setup(seed: u64) -> Setup {
    let inputs: Vec<StreamInput> = (0..STREAMS).map(|s| synthesize(seed, s)).collect();
    let shared = Shared::new();
    let (daemon, executor) = daemon(&shared, || {
        StreamingDemodulator::new(receiver_config(), PAYLOAD_SYMBOLS)
    });
    // Warm the pool: the measured streams check out recycled receivers.
    let warm: Vec<_> = (0..STREAMS)
        .map(|i| {
            daemon
                .open_stream(format!("warm-{i}"))
                .expect("daemon is running")
        })
        .collect();
    for h in warm {
        h.wait();
    }
    shared.take_logs();
    Setup {
        inputs,
        shared,
        daemon,
        executor,
    }
}

fn open_loop(s: &Setup, stop: Stop) -> (SendLog, Vec<FeedLog>, f64) {
    let period = FRAME_SAMPLES as f64 / s.inputs[0].rate / SPEED;
    let per = s.inputs[0].frames_per_replay();
    assert!(
        s.inputs.iter().all(|i| i.frames_per_replay() == per),
        "streams replay in step"
    );
    let senders: Vec<Box<dyn Fn(u64) -> Vec<u8> + '_>> = s
        .inputs
        .iter()
        .map(|input| {
            Box::new(move |k| input.frame_bytes(k).to_vec()) as Box<dyn Fn(u64) -> Vec<u8>>
        })
        .collect();
    let refs: Vec<&dyn Fn(u64) -> Vec<u8>> = senders.iter().map(|b| b.as_ref()).collect();
    let gen_cpu = sys::thread_cpu_s();
    let send = drive(&s.daemon, &s.shared, &refs, period, per, stop);
    let gen_cpu = sys::thread_cpu_s() - gen_cpu;
    let first: Vec<Iq> = s.inputs.iter().map(|i| i.samples[0]).collect();
    let logs = logs_by_stream(s.shared.take_logs(), &first).expect("one log per stream");
    (send, logs, gen_cpu)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let (s, setup_s) = timed_setup(|| setup(args.seed));
    let input = &s.inputs[0];
    out.note(format!(
        "{STREAMS} streams of {} packets per {:.3} s replay, {FRAME_SAMPLES}-sample frames at {SPEED}x realtime each",
        input.expected.len(),
        input.samples.len() as f64 / input.rate
    ));
    let frame_s = FRAME_SAMPLES as f64 / input.rate;
    if !args.trace {
        let (send, logs, _) = open_loop(&s, Stop::Seconds(args.seconds));
        let window_cpu: Vec<f64> = send
            .cpu_marks
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) / ((w[1].0 - w[0].0) as f64 * STREAMS as f64 * frame_s))
            .collect();
        let lat = latencies(&send, &logs, &s.inputs, &mut out);
        check_streams(&send, &logs, &s.inputs, &mut out);
        let input_s = (STREAMS * send.due.len()) as f64 * frame_s;
        out.note(format!("{} frames per stream", send.due.len()));
        out.set("setup_s", setup_s);
        out.set("realtime_x", input_s / (send.end - send.t0));
        out.note(format!(
            "cpu_s_per_input_s: median over {} windows of {CPU_WINDOW_FRAMES} frames",
            window_cpu.len()
        ));
        out.set("cpu_s_per_input_s", crate::stats::median(&window_cpu));
        out.set_latencies(&lat.frame_ms, &lat.packet_ms, &lat.lag_ms);
        out.set("peak_rss_mb", sys::peak_rss_mb());
        return out;
    }

    // Traced run: (A) untraced for a third of the budget, (B) the same
    // frames traced, (C) the twins replaying B's frames.
    let busy = |logs: &[FeedLog]| -> f64 {
        logs.iter()
            .flat_map(|l| &l.feeds)
            .map(|f| f.end - f.start)
            .sum()
    };
    let (a, a_logs, _) = open_loop(&s, Stop::Seconds(args.seconds / 3.0));
    let frames = a.due.len() as u64;
    s.shared.traced.store(true, Ordering::Relaxed);
    let cpu0 = sys::process_cpu_s();
    let (b, mut b_logs, gen_cpu) = open_loop(&s, Stop::Frames(frames));
    let program_cpu = sys::process_cpu_s() - cpu0 - gen_cpu;
    s.shared.traced.store(false, Ordering::Relaxed);
    latencies(&b, &b_logs, &s.inputs, &mut out);

    let mut trace = Trace::new(s.shared.origin);
    for (st, (log, input)) in b_logs.iter_mut().zip(&s.inputs).enumerate() {
        let mut t = log.trace.take().expect("traced receiver recorded spans");
        let mut frontend = FrontendTwin::new(&receiver_config());
        let mut demod = StreamingDemodulator::new(receiver_config(), PAYLOAD_SYMBOLS);
        let mut samples: Vec<Iq> = Vec::new();
        let mut twin_packets = Vec::new();
        for k in 0..frames {
            t.time("serve.ingest", None, k, || {
                bytes_to_samples_into(input.frame_bytes(k), &mut samples)
            });
            frontend.run(&samples, &mut t, Some(log.streaming_spans[k as usize]), k);
            twin_packets.extend(demod.push_samples(&samples));
            samples.clear();
        }
        twin_packets.extend(demod.finish());
        let program: Vec<_> = log.all_packets().into_iter().map(|p| p.result).collect();
        if twin_packets != program {
            out.fail(format!(
                "stream {st}: the twin demodulator decoded different packets"
            ));
        }
        if frontend.diverged {
            out.fail("the front-end twin's envelope differs from the program's front end");
        }
        trace.absorb(t);
    }
    let mut send_trace = Trace::new(s.shared.origin);
    let mut queue_wait_ms = Vec::new();
    for (st, log) in b_logs.iter().enumerate() {
        for (k, feed) in log.feeds.iter().enumerate() {
            send_trace.record(
                "serve.send",
                b.send_start[st][k],
                b.send_end[st][k],
                None,
                k as u64,
            );
            queue_wait_ms.push((feed.start - b.send_end[st][k]) * 1e3);
        }
    }
    trace.absorb(send_trace);

    let selfs = trace.self_times();
    let get = |n: &str| selfs.get(n).copied().unwrap_or(0.0);
    let layers = [
        ("analog.saw.busy_s", get("analog.saw")),
        ("analog.lna.busy_s", get("analog.lna")),
        ("analog.shifting.busy_s", get("analog.shifting")),
        ("saiyan.streaming.busy_s", get("saiyan.streaming")),
        ("serve.ingest.busy_s", get("serve.ingest")),
    ];
    let covered: f64 = layers.iter().map(|(_, v)| v).sum::<f64>() + get("saiyan.receiver");
    for (name, v) in layers {
        out.set(name, v);
    }
    out.set("saiyan.receiver.busy_s", trace.total("saiyan.receiver"));
    out.set("serve.send.block_s", trace.total("serve.send"));
    out.set_percentile("serve.queue.wait_p50_ms", &queue_wait_ms, 0.50);
    out.set_percentile("serve.queue.wait_p99_ms", &queue_wait_ms, 0.99);
    out.set(
        "serve.frames_dropped",
        b.reports
            .iter()
            .map(|r| r.stats.dropped_chunks)
            .sum::<u64>() as f64,
    );
    out.set("saiyan.executor.built", s.executor.built() as f64);
    out.set("saiyan.executor.reused", s.executor.reused() as f64);
    out.set("trace.input_s", (STREAMS as u64 * frames) as f64 * frame_s);
    out.set("trace.overhead_s", busy(&b_logs) - busy(&a_logs));
    out.set("trace.coverage", covered / program_cpu);
    out.note(format!(
        "traced {frames} frames per stream: receiver busy untraced {:.3} s, traced {:.3} s; program CPU {:.3} s",
        busy(&a_logs),
        busy(&b_logs),
        program_cpu
    ));
    crate::write_spans(&trace, args);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A receiver that does no DSP and stalls once.
    struct Stall {
        fed: u64,
        stall_at: Option<u64>,
    }

    impl Receiver for Stall {
        fn backend_name(&self) -> &'static str {
            "stall"
        }
        fn input_rate(&self) -> f64 {
            2e6
        }
        fn feed(&mut self, _chunk: &[Iq]) -> Vec<GatewayPacket> {
            if Some(self.fed) == self.stall_at {
                std::thread::sleep(Duration::from_millis(40));
            }
            self.fed += 1;
            Vec::new()
        }
        fn flush(&mut self) -> Vec<GatewayPacket> {
            Vec::new()
        }
        fn reset(&mut self) {
            self.fed = 0;
        }
    }

    /// Frame latency p99 and mean generator lag of a 600-frame open loop at
    /// one frame per 0.25 ms over one stream.
    fn open_loop_with(stall_at: Option<u64>) -> (f64, f64) {
        let shared = Shared::new();
        let (daemon, _) = daemon(&shared, move || Stall { fed: 0, stall_at });
        let frame = |k: u64| {
            let v = Iq::new(1.0 + k as f64, 0.0);
            samples_to_bytes(&[v; 16])
        };
        let send = drive(&daemon, &shared, &[&frame], 250e-6, 600, Stop::Frames(600));
        let logs = shared.take_logs();
        assert_eq!(logs.len(), 1);
        let mut times = FrameTimes::default();
        for (k, feed) in logs[0].feeds.iter().enumerate() {
            times.push(send.due[k], send.send_start[0][k], feed.end);
        }
        assert_eq!(times.len(), 600);
        let p99 = crate::stats::percentile(&times.latency_ms(), 0.99).expect("600 samples");
        (p99.value, crate::stats::mean(&times.lag_ms()))
    }

    #[test]
    fn a_stalled_receiver_shows_in_frame_latency_and_generator_lag() {
        let (calm_p99, calm_lag) = open_loop_with(None);
        let (stalled_p99, stalled_lag) = open_loop_with(Some(100));
        // The 40 ms stall holds up every frame due during it: latency is
        // measured from the due time, so the frames the generator could not
        // even send (the queue was full) still count the wait.
        assert!(stalled_p99 > 20.0, "stalled p99 {stalled_p99} ms");
        assert!(
            stalled_p99 > calm_p99 + 15.0,
            "calm {calm_p99} ms, stalled {stalled_p99} ms"
        );
        // Blocking backpressure makes the generator itself run late.
        assert!(
            stalled_lag > calm_lag + 1.0,
            "calm lag {calm_lag} ms, stalled {stalled_lag} ms"
        );
    }
}
