//! Multi-channel streaming gateway: channelizer + demodulator bank + merge.
//!
//! A Saiyan deployment serves many backscatter tags hopping across LoRa
//! channels. The gateway front end digitises one *wideband* IQ stream
//! covering all of them and fans it out:
//!
//! ```text
//!                                    ┌─ sub-filters ch0 ─ shift ─ StreamingDemodulator ─┐
//!  wideband IQ chunks ──► PhaseSplit ├─ sub-filters ch1 ─ shift ─ StreamingDemodulator ─┤──► time-ordered
//!    (push_chunk)       (one per D,  ├─ sub-filters ch2 ─ shift ─ StreamingDemodulator ─┤    GatewayPackets
//!                        producer)   └─ sub-filters ch3 ─ shift ─ StreamingDemodulator ─┘
//! ```
//!
//! The producer splits each chunk once into the `D` polyphase streams of
//! every distinct channel decimation ([`PhaseSplit`]). Every channel
//! pipeline — an [`analog::channelizer::ChannelizerState`] (band-select
//! sub-filter bank + decimation + frequency shift) reading its decimation's
//! split, feeding a [`StreamingDemodulator`] — runs on a `std::thread`
//! worker pool connected by bounded channels, so a slow consumer
//! back-pressures the producer instead of buffering without bound. Each job
//! carries an `Arc` snapshot of the splits (plus the raw chunk when some
//! channel is a passthrough). A pool that would hold exactly one worker
//! (one core, or one channel) instead runs its pipelines inline in the
//! caller on the producer's splits — same results, none of the handoff
//! overhead. Completed packets from all channels are merged into one stream
//! ordered by payload start time.
//!
//! ## Determinism
//!
//! Each channel's results are bit-identical to running that channel's
//! pipeline alone (the pipelines are chunk invariant, and the shared split
//! holds exactly the phase streams a lone channelizer would build), and
//! the merge releases a packet only once *every* channel has consumed the
//! stream far enough that no earlier packet can still appear (a watermark,
//! in the event-driven NS-2 tradition). The merged packet *sequence* is
//! therefore identical whatever the worker-thread count or chunk sizes —
//! only the batching (which `push_chunk` call returns which packets) may
//! vary with scheduling. `tests/gateway_equivalence.rs` locks both
//! properties in, including that every channel's packets equal a standalone
//! channelizer + [`StreamingDemodulator`] run and that an `N = 1`
//! passthrough gateway is bit-identical to a plain [`StreamingDemodulator`].

use std::collections::BinaryHeap;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use analog::channelizer::{ChannelizerSpec, ChannelizerState};
use analog::fir::PhaseSplit;
use lora_phy::iq::{Iq, SampleBuffer};

use crate::config::SaiyanConfig;
use crate::streaming::DemodResult;
use crate::streaming::StreamingDemodulator;

/// Depth of each worker's bounded input queue, in chunks. A full queue
/// back-pressures [`Gateway::push_chunk`].
const QUEUE_DEPTH: usize = 4;

/// One channel served by the gateway.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayChannel {
    /// Channel identifier reported in [`GatewayPacket`]s (e.g. the index
    /// into a `saiyan_mac::ChannelTable`).
    pub id: u8,
    /// Offset (Hz) of the channel's lower band edge — where its chirp sweep
    /// starts — from the wideband centre frequency.
    pub offset_hz: f64,
    /// Receiver configuration for this channel. Its `lora.sample_rate()` is
    /// the channel rate the channelizer decimates to.
    pub config: SaiyanConfig,
    /// Expected payload length in chirp symbols (fixed per stream, as in the
    /// paper's evaluation).
    pub payload_symbols: usize,
}

impl GatewayChannel {
    /// Creates a channel description.
    pub fn new(id: u8, offset_hz: f64, config: SaiyanConfig, payload_symbols: usize) -> Self {
        GatewayChannel {
            id,
            offset_hz,
            config,
            payload_symbols,
        }
    }
}

/// Configuration of a [`Gateway`].
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayConfig {
    /// Sample rate (Hz) of the wideband input stream. Must be an integer
    /// multiple of every channel's `lora.sample_rate()`.
    pub wideband_rate: f64,
    /// The channels to serve.
    pub channels: Vec<GatewayChannel>,
    /// Worker threads the channels are distributed over (round-robin).
    /// `0` means one worker per channel.
    pub worker_threads: usize,
    /// FIR length of each non-passthrough channelizer.
    pub channelizer_taps: usize,
    /// Lockstep mode: [`Gateway::push_chunk`] waits for every channel to
    /// finish the chunk before returning. This sacrifices pipelining (the
    /// producer idles while the workers run) but makes packet *release
    /// timing* a pure function of the input: after each chunk, every packet
    /// past the watermark is out. The discrete-event network engine relies
    /// on this for bit-reproducible MAC feedback schedules; throughput
    /// workloads should leave it off.
    pub lockstep: bool,
}

impl GatewayConfig {
    /// Creates a gateway configuration with one worker per channel and the
    /// default channelizer FIR length.
    pub fn new(wideband_rate: f64, channels: Vec<GatewayChannel>) -> Self {
        GatewayConfig {
            wideband_rate,
            channels,
            worker_threads: 0,
            channelizer_taps: ChannelizerSpec::DEFAULT_TAPS,
            lockstep: false,
        }
    }

    /// A single-channel gateway whose channelizer is the identity: the
    /// wideband stream *is* the channel stream, so the gateway's output is
    /// bit-identical to a plain [`StreamingDemodulator`] on the same input.
    pub fn single_channel(config: SaiyanConfig, payload_symbols: usize) -> Self {
        let rate = config.lora.sample_rate();
        GatewayConfig::new(
            rate,
            vec![GatewayChannel::new(0, 0.0, config, payload_symbols)],
        )
    }

    /// Returns a copy with a different worker-thread count.
    pub fn with_worker_threads(mut self, workers: usize) -> Self {
        self.worker_threads = workers;
        self
    }

    /// Returns a copy with a different channelizer FIR length. The design
    /// grid's bin spacing is `wideband_rate / taps`; the transition band
    /// (≈ 3 bins) must fit inside the inter-channel guard bands.
    pub fn with_channelizer_taps(mut self, taps: usize) -> Self {
        self.channelizer_taps = taps;
        self
    }

    /// Returns a copy with lockstep mode switched on or off (see
    /// [`GatewayConfig::lockstep`]).
    pub fn with_lockstep(mut self, lockstep: bool) -> Self {
        self.lockstep = lockstep;
        self
    }
}

/// One demodulated packet attributed to the channel it arrived on.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayPacket {
    /// The [`GatewayChannel::id`] of the channel the packet was decoded on.
    pub channel: u8,
    /// The demodulation result. Times are seconds from the start of that
    /// channel's (decimated) stream, which shares its origin with the
    /// wideband stream.
    pub result: DemodResult,
}

/// A chunk of work sent to a worker thread.
enum Job {
    /// A snapshot of the producer's phase splits after the chunk, and the
    /// chunk itself when some channel is a passthrough.
    Chunk(Arc<Vec<PhaseSplit>>, Option<Arc<[Iq]>>),
    Flush,
}

/// Progress report for one channel after one processed job.
struct ChannelReport {
    /// Index of the channel in [`GatewayConfig::channels`].
    index: usize,
    /// Packets that completed within the job.
    packets: Vec<DemodResult>,
    /// Channel stream time (seconds) consumed so far; `f64::INFINITY` once
    /// the channel has been flushed.
    acked_time: f64,
    /// The channel demodulator's point-in-time SNR estimate (dB), a
    /// telemetry gauge (see [`StreamingDemodulator::snr_estimate_db`]).
    snr_db: f64,
}

/// A pending packet in the merge heap, ordered by (payload start, channel).
struct MergeEntry {
    start: f64,
    channel: u8,
    result: DemodResult,
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.start.total_cmp(&other.start).is_eq() && self.channel == other.channel
    }
}

impl Eq for MergeEntry {}

impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so the BinaryHeap (a max-heap) pops the earliest packet.
        other
            .start
            .total_cmp(&self.start)
            .then(other.channel.cmp(&self.channel))
    }
}

/// One worker's pipeline for one channel, with its persistent scratch set:
/// the channelizer writes each chunk's baseband into a buffer owned by the
/// pipeline, so a long-running worker performs no per-chunk allocation.
struct ChannelPipeline {
    index: usize,
    channel_rate: f64,
    /// Index of the gateway phase split the channelizer reads; `None` for a
    /// passthrough, which reads the raw chunk.
    split: Option<usize>,
    channelizer: ChannelizerState,
    demod: StreamingDemodulator,
    /// Reusable channel-rate baseband buffer.
    baseband: Vec<Iq>,
}

impl ChannelPipeline {
    /// Runs one wideband chunk — already pushed into `splits`, and `raw`
    /// itself — through the channelizer and demodulator.
    fn process_chunk(&mut self, splits: &[PhaseSplit], raw: &[Iq]) -> ChannelReport {
        match self.split {
            Some(i) => self
                .channelizer
                .process_split_into(&splits[i], &mut self.baseband),
            None => self.channelizer.process_chunk_into(raw, &mut self.baseband),
        }
        let packets = self.demod.push_samples(&self.baseband);
        ChannelReport {
            index: self.index,
            packets,
            acked_time: self.demod.samples_consumed() as f64 / self.channel_rate,
            snr_db: self.demod.snr_estimate_db(),
        }
    }

    /// Flushes the demodulator at end of stream.
    fn flush(&mut self) -> ChannelReport {
        ChannelReport {
            index: self.index,
            packets: self.demod.finish(),
            acked_time: f64::INFINITY,
            snr_db: self.demod.snr_estimate_db(),
        }
    }
}

/// The gateway's execution backend.
///
/// A pool that would hold exactly one worker runs its pipelines *inline* in
/// [`Gateway::push_chunk`] instead: a lone worker thread buys no parallelism
/// but still pays an input copy, a bounded-queue handoff and a futex wake per
/// chunk — a measurable per-sample tax on a single-core gateway host. The
/// inline path produces the same reports in the same per-chunk order as a
/// one-worker pool in lockstep mode, so the merged packet sequence is
/// unchanged (batching is a pure function of the input, as with
/// [`GatewayConfig::lockstep`]).
enum WorkerPool {
    /// Single-worker execution, run inline in the caller's thread.
    Inline(Vec<ChannelPipeline>),
    /// Multi-worker execution on the spawned thread pool.
    Threaded {
        inputs: Vec<mpsc::SyncSender<Job>>,
        reports: mpsc::Receiver<ChannelReport>,
        handles: Vec<JoinHandle<()>>,
    },
    /// The stream has been flushed; no further input is accepted.
    Finished,
}

/// The running multi-channel gateway. See the [module docs](self).
///
/// Feed wideband chunks with [`Gateway::push_chunk`]; packets whose ordering
/// is settled are returned as they become available. Call
/// [`Gateway::finish`] to flush the stream and collect the remainder.
///
/// ```
/// use lora_phy::iq::{Iq, SampleBuffer};
/// use lora_phy::modulator::Alphabet;
/// use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
/// use lora_phy::templates::PacketTemplates;
/// use rfsim::channel::dbm_to_buffer_power;
/// use rfsim::units::Dbm;
/// use saiyan::gateway::{Gateway, GatewayConfig};
/// use saiyan::{SaiyanConfig, StreamingDemodulator, Variant};
///
/// let lora = LoraParams::new(
///     SpreadingFactor::Sf7,
///     Bandwidth::Khz500,
///     BitsPerChirp::new(2).unwrap(),
/// );
/// let config = SaiyanConfig::paper_default(lora, Variant::Vanilla);
/// let symbols = vec![3u32, 1, 0, 2];
/// // One -50 dBm packet between 3-symbol silent guards.
/// let guard = vec![Iq::ZERO; 3 * lora.samples_per_symbol()];
/// let mut samples = guard.clone();
/// PacketTemplates::new(lora, Alphabet::Downlink)
///     .assemble_scaled_extend(&symbols, dbm_to_buffer_power(Dbm(-50.0)).sqrt(), &mut samples)
///     .unwrap();
/// samples.extend_from_slice(&guard);
/// let trace = SampleBuffer::new(samples, lora.sample_rate());
///
/// // An N = 1 gateway is bit-identical to the plain streaming receiver.
/// let mut gateway = Gateway::new(GatewayConfig::single_channel(config.clone(), symbols.len()));
/// let mut packets = Vec::new();
/// for chunk in trace.samples.chunks(4096) {
///     packets.extend(gateway.push_chunk(chunk));
/// }
/// packets.extend(gateway.finish());
/// let reference = StreamingDemodulator::new(config, symbols.len()).run_to_end(&trace);
/// assert_eq!(packets.len(), 1);
/// assert_eq!(packets[0].result, reference[0]);
/// assert_eq!(packets[0].result.symbols, symbols);
/// ```
pub struct Gateway {
    /// The configuration the gateway was built from, kept so
    /// [`Gateway::reset`] can rebuild a pristine instance.
    config: GatewayConfig,
    wideband_rate: f64,
    channel_ids: Vec<u8>,
    lockstep: bool,
    /// Release horizon (seconds): no channel can still produce a packet whose
    /// payload started more than this far behind its consumed stream time.
    horizon: f64,
    pool: WorkerPool,
    /// The producer's phase splits, one per distinct channel decimation.
    /// Workers read `Arc` snapshots of them; a push copies them on write only
    /// while a worker still holds the last snapshot.
    splits: Arc<Vec<PhaseSplit>>,
    /// Earlier snapshots, reused for the copy once no worker holds them.
    spare_splits: Vec<Arc<Vec<PhaseSplit>>>,
    /// Whether some channel is a passthrough, so jobs must carry the raw
    /// chunk.
    has_passthrough: bool,
    /// Per-channel consumed stream time (seconds).
    acked: Vec<f64>,
    /// Per-channel last reported SNR estimate (dB) — a telemetry gauge.
    snr_db: Vec<f64>,
    heap: BinaryHeap<MergeEntry>,
}

impl Gateway {
    /// Builds the gateway and spawns its worker pool.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent: no channels, duplicate
    /// channel ids, a wideband rate that is not an integer multiple of some
    /// channel rate, or a channel whose content falls outside the wideband
    /// Nyquist range.
    pub fn new(config: GatewayConfig) -> Self {
        assert!(!config.channels.is_empty(), "gateway needs channels");
        assert!(config.wideband_rate > 0.0, "wideband rate must be positive");
        let mut ids: Vec<u8> = config.channels.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            config.channels.len(),
            "channel ids must be unique"
        );

        let mut horizon: f64 = 0.0;
        let mut pipelines = Vec::with_capacity(config.channels.len());
        let mut split_sizes: Vec<(usize, usize)> = Vec::new();
        for (index, ch) in config.channels.iter().enumerate() {
            let channel_rate = ch.config.lora.sample_rate();
            let ratio = config.wideband_rate / channel_rate;
            let decimation = ratio.round() as usize;
            assert!(
                decimation >= 1 && (ratio - decimation as f64).abs() < 1e-6,
                "wideband rate {} is not an integer multiple of channel {} rate {}",
                config.wideband_rate,
                ch.id,
                channel_rate
            );
            let bw = ch.config.lora.bw.hz();
            let nyquist = config.wideband_rate / 2.0;
            assert!(
                ch.offset_hz >= -nyquist && ch.offset_hz + bw <= nyquist,
                "channel {} content [{}, {}] Hz falls outside the wideband Nyquist range ±{}",
                ch.id,
                ch.offset_hz,
                ch.offset_hz + bw,
                nyquist
            );
            let spec = if ch.offset_hz == 0.0 && decimation == 1 {
                ChannelizerSpec::passthrough()
            } else {
                ChannelizerSpec::for_channel(ch.offset_hz, bw, decimation)
                    .with_taps(config.channelizer_taps)
                    .with_fast_phasor(ch.config.fast_oscillator)
            };
            let t_sym = ch.config.lora.symbol_duration();
            horizon = horizon.max((ch.payload_symbols as f64 + 4.0) * t_sym);
            let channelizer = spec.streaming(config.wideband_rate);
            // One split per distinct decimation, keeping the longest history
            // any of its channels reads.
            let split = channelizer.decimator().map(|fir| {
                let (d, history) = (fir.decimation(), fir.split_history());
                match split_sizes.iter().position(|&(sd, _)| sd == d) {
                    Some(i) => {
                        split_sizes[i].1 = split_sizes[i].1.max(history);
                        i
                    }
                    None => {
                        split_sizes.push((d, history));
                        split_sizes.len() - 1
                    }
                }
            });
            pipelines.push(ChannelPipeline {
                index,
                channel_rate,
                split,
                channelizer,
                demod: StreamingDemodulator::new(ch.config.clone(), ch.payload_symbols),
                baseband: Vec::new(),
            });
        }

        let n_channels = pipelines.len();
        let has_passthrough = pipelines.iter().any(|p| p.split.is_none());
        let splits = split_sizes
            .into_iter()
            .map(|(d, history)| PhaseSplit::new(d, history))
            .collect();
        let n_workers = if config.worker_threads == 0 {
            n_channels
        } else {
            config.worker_threads.min(n_channels)
        };
        // Round-robin channel assignment: worker w gets channels w, w + W, …
        let mut per_worker: Vec<Vec<ChannelPipeline>> =
            (0..n_workers).map(|_| Vec::new()).collect();
        for (i, p) in pipelines.into_iter().enumerate() {
            per_worker[i % n_workers].push(p);
        }

        let pool = if n_workers == 1 {
            // One worker means no parallelism to buy — run the pipelines
            // inline and skip the per-chunk input copy and thread handoff.
            WorkerPool::Inline(per_worker.into_iter().next().expect("one worker"))
        } else {
            let (report_tx, report_rx) = mpsc::channel();
            let mut inputs = Vec::with_capacity(n_workers);
            let mut handles = Vec::with_capacity(n_workers);
            for worker_pipelines in per_worker {
                let (job_tx, job_rx) = mpsc::sync_channel::<Job>(QUEUE_DEPTH);
                let tx = report_tx.clone();
                handles.push(std::thread::spawn(move || {
                    worker_loop(worker_pipelines, &job_rx, &tx);
                }));
                inputs.push(job_tx);
            }
            WorkerPool::Threaded {
                inputs,
                reports: report_rx,
                handles,
            }
        };

        Gateway {
            wideband_rate: config.wideband_rate,
            channel_ids: config.channels.iter().map(|c| c.id).collect(),
            lockstep: config.lockstep,
            horizon,
            pool,
            splits: Arc::new(splits),
            spare_splits: Vec::new(),
            has_passthrough,
            acked: vec![0.0; n_channels],
            snr_db: vec![0.0; n_channels],
            heap: BinaryHeap::new(),
            config,
        }
    }

    /// Returns the gateway to its pristine just-constructed state: any
    /// unreleased packets are discarded, the worker pool is torn down and
    /// respawned, and every channel pipeline (channelizer FIR history,
    /// demodulator threshold tracker, detection window) starts fresh. After
    /// `reset` the gateway decodes any stream bit-identically to a freshly
    /// built [`Gateway::new`] — the property pooled serving relies on
    /// (`tests/receiver_reset.rs`).
    pub fn reset(&mut self) {
        // Join the old pool first so no detached worker outlives the reset.
        self.flush_in_place();
        let config = self.config.clone();
        *self = Gateway::new(config);
    }

    /// Per-channel point-in-time SNR estimates (dB), indexed like
    /// [`GatewayConfig::channels`] — a telemetry gauge updated from each
    /// worker report (see [`StreamingDemodulator::snr_estimate_db`]).
    pub fn channel_snr_db(&self) -> &[f64] {
        &self.snr_db
    }

    /// The served channel ids, indexed like [`GatewayConfig::channels`].
    pub fn channel_ids(&self) -> &[u8] {
        &self.channel_ids
    }

    /// The wideband input sample rate (Hz).
    pub fn wideband_rate(&self) -> f64 {
        self.wideband_rate
    }

    /// Pushes one wideband chunk and returns the packets whose position in
    /// the merged stream is now settled (possibly none — they keep
    /// accumulating until every channel has caught up past them). In
    /// lockstep mode ([`GatewayConfig::lockstep`]) this waits for every
    /// channel to finish the chunk first, so the returned batch is a pure
    /// function of the input stream so far.
    pub fn push_chunk(&mut self, chunk: &[Iq]) -> Vec<GatewayPacket> {
        if chunk.is_empty() {
            return Vec::new();
        }
        // Split the chunk once for every channel. While a worker still reads
        // the last snapshot, continue from a copy of its live history in a
        // spare snapshot no worker holds any more (or a new one).
        if Arc::get_mut(&mut self.splits).is_none() {
            let free = self
                .spare_splits
                .iter()
                .position(|s| Arc::strong_count(s) == 1);
            let mut next = match free {
                Some(i) => self.spare_splits.swap_remove(i),
                None => Arc::new(Vec::new()),
            };
            Arc::get_mut(&mut next)
                .expect("no worker holds a spare")
                .clone_from(&self.splits);
            self.spare_splits
                .push(std::mem::replace(&mut self.splits, next));
        }
        for split in Arc::get_mut(&mut self.splits).expect("unshared splits") {
            split.push(chunk);
        }
        let splits = Arc::clone(&self.splits);
        // The pool is taken out of `self` for the duration of the push so the
        // inline path can run its pipelines while reports are folded into the
        // merge state.
        let mut pool = std::mem::replace(&mut self.pool, WorkerPool::Finished);
        match &mut pool {
            WorkerPool::Inline(pipelines) => {
                for p in pipelines.iter_mut() {
                    let report = p.process_chunk(&splits, chunk);
                    self.integrate(report);
                }
            }
            WorkerPool::Threaded {
                inputs, reports, ..
            } => {
                let raw: Option<Arc<[Iq]>> = self.has_passthrough.then(|| chunk.into());
                for tx in inputs.iter() {
                    tx.send(Job::Chunk(Arc::clone(&splits), raw.clone()))
                        .expect("gateway worker exited unexpectedly");
                }
                if self.lockstep {
                    // One report per channel per chunk, whatever the worker
                    // count.
                    for _ in 0..self.acked.len() {
                        let report = reports.recv().expect("gateway worker exited unexpectedly");
                        self.integrate(report);
                    }
                } else {
                    while let Ok(report) = reports.try_recv() {
                        self.integrate(report);
                    }
                }
            }
            WorkerPool::Finished => {
                panic!("gateway already flushed; push_chunk would drop samples")
            }
        }
        self.pool = pool;
        self.release(false)
    }

    /// Flushes every channel, joins the worker pool and returns the
    /// remaining packets in merged order.
    pub fn finish(mut self) -> Vec<GatewayPacket> {
        self.flush_in_place()
    }

    /// [`Gateway::finish`] through a mutable reference — the form the
    /// [`crate::receiver::Receiver`] trait needs. After the first call the
    /// worker pool is gone: further non-empty [`Gateway::push_chunk`] calls
    /// panic (the stream has ended), while repeated flushes are harmless
    /// no-ops.
    pub fn flush_in_place(&mut self) -> Vec<GatewayPacket> {
        match std::mem::replace(&mut self.pool, WorkerPool::Finished) {
            WorkerPool::Inline(mut pipelines) => {
                for p in &mut pipelines {
                    let report = p.flush();
                    self.integrate(report);
                }
            }
            WorkerPool::Threaded {
                inputs,
                reports,
                handles,
            } => {
                for tx in &inputs {
                    tx.send(Job::Flush)
                        .expect("gateway worker exited unexpectedly");
                }
                while self.acked.iter().any(|a| a.is_finite()) {
                    match reports.recv() {
                        Ok(report) => self.integrate(report),
                        Err(_) => break,
                    }
                }
                for handle in handles {
                    handle.join().expect("gateway worker panicked");
                }
            }
            WorkerPool::Finished => {}
        }
        self.release(true)
    }

    /// Convenience: streams a whole wideband trace through a fresh gateway
    /// in `chunk_samples`-sized chunks and flushes.
    pub fn run_trace(
        config: GatewayConfig,
        trace: &SampleBuffer,
        chunk_samples: usize,
    ) -> Vec<GatewayPacket> {
        let mut gateway = Gateway::new(config);
        assert!(
            (trace.sample_rate - gateway.wideband_rate).abs() < 1e-6,
            "trace rate {} does not match the wideband rate {}",
            trace.sample_rate,
            gateway.wideband_rate
        );
        let mut out = Vec::new();
        for chunk in trace.samples.chunks(chunk_samples.max(1)) {
            out.extend(gateway.push_chunk(chunk));
        }
        out.extend(gateway.finish());
        out
    }

    /// Folds one worker report into the merge state.
    fn integrate(&mut self, report: ChannelReport) {
        let channel = self.channel_ids[report.index];
        for result in report.packets {
            self.heap.push(MergeEntry {
                start: result.payload_start_time,
                channel,
                result,
            });
        }
        self.acked[report.index] = self.acked[report.index].max(report.acked_time);
        self.snr_db[report.index] = report.snr_db;
    }

    /// Pops every packet whose ordering is settled: all channels have
    /// consumed their stream past `start + horizon` (or everything, when
    /// draining after a flush).
    fn release(&mut self, drain: bool) -> Vec<GatewayPacket> {
        let watermark = self.acked.iter().copied().fold(f64::INFINITY, f64::min);
        let mut out = Vec::new();
        while let Some(top) = self.heap.peek() {
            if !drain && top.start + self.horizon > watermark {
                break;
            }
            let entry = self.heap.pop().expect("peeked entry exists");
            out.push(GatewayPacket {
                channel: entry.channel,
                result: entry.result,
            });
        }
        out
    }
}

/// The worker thread body: runs its channels' pipelines over every job and
/// reports per-channel progress.
fn worker_loop(
    mut pipelines: Vec<ChannelPipeline>,
    jobs: &mpsc::Receiver<Job>,
    reports: &mpsc::Sender<ChannelReport>,
) {
    loop {
        match jobs.recv() {
            Ok(Job::Chunk(splits, raw)) => {
                let done: Vec<ChannelReport> = pipelines
                    .iter_mut()
                    .map(|p| p.process_chunk(&splits, raw.as_deref().unwrap_or(&[])))
                    .collect();
                // Release the snapshot before reporting, so a lockstep
                // producer finds its splits unshared and pushes in place.
                drop(splits);
                for report in done {
                    if reports.send(report).is_err() {
                        return; // gateway dropped without finish()
                    }
                }
            }
            Ok(Job::Flush) => {
                for p in &mut pipelines {
                    let _ = reports.send(p.flush());
                }
                return;
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use lora_phy::modulator::Alphabet;
    use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
    use lora_phy::templates::PacketTemplates;
    use rfsim::channel::dbm_to_buffer_power;
    use rfsim::units::Dbm;

    fn config(variant: Variant) -> SaiyanConfig {
        let lora = LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        );
        SaiyanConfig::paper_default(lora, variant)
    }

    /// One packet at `rx_power_dbm` between 3-symbol silent guards.
    fn packet_trace(cfg: &SaiyanConfig, symbols: &[u32], rx_power_dbm: f64) -> SampleBuffer {
        let guard = vec![Iq::ZERO; 3 * cfg.lora.samples_per_symbol()];
        let mut samples = guard.clone();
        PacketTemplates::new(cfg.lora, Alphabet::Downlink)
            .assemble_scaled_extend(
                symbols,
                dbm_to_buffer_power(Dbm(rx_power_dbm)).sqrt(),
                &mut samples,
            )
            .unwrap();
        samples.extend_from_slice(&guard);
        SampleBuffer::new(samples, cfg.lora.sample_rate())
    }

    #[test]
    fn single_channel_gateway_matches_streaming_demodulator() {
        let symbols = vec![2u32, 0, 3, 1, 2, 2];
        for variant in Variant::ALL {
            let cfg = config(variant);
            let trace = packet_trace(&cfg, &symbols, -50.0);
            let reference =
                StreamingDemodulator::new(cfg.clone(), symbols.len()).run_to_end(&trace);
            let packets = Gateway::run_trace(
                GatewayConfig::single_channel(cfg, symbols.len()),
                &trace,
                1000,
            );
            assert_eq!(packets.len(), reference.len(), "variant {variant:?}");
            for (p, r) in packets.iter().zip(&reference) {
                assert_eq!(p.channel, 0);
                assert_eq!(p.result, *r, "variant {variant:?}");
            }
        }
    }

    #[test]
    fn empty_chunks_are_harmless() {
        let cfg = config(Variant::Vanilla);
        let mut gateway = Gateway::new(GatewayConfig::single_channel(cfg, 4));
        assert!(gateway.push_chunk(&[]).is_empty());
        assert!(gateway.finish().is_empty());
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_channel_ids_are_rejected() {
        let cfg = config(Variant::Vanilla);
        let rate = cfg.lora.sample_rate();
        Gateway::new(GatewayConfig::new(
            rate,
            vec![
                GatewayChannel::new(1, 0.0, cfg.clone(), 4),
                GatewayChannel::new(1, 0.0, cfg, 4),
            ],
        ));
    }

    #[test]
    #[should_panic(expected = "integer multiple")]
    fn non_integer_decimation_is_rejected() {
        let cfg = config(Variant::Vanilla);
        let rate = cfg.lora.sample_rate() * 1.5;
        Gateway::new(GatewayConfig::new(
            rate,
            vec![GatewayChannel::new(0, 0.0, cfg, 4)],
        ));
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn out_of_band_channel_is_rejected() {
        let cfg = config(Variant::Vanilla);
        let rate = cfg.lora.sample_rate() * 2.0;
        Gateway::new(GatewayConfig::new(
            rate,
            vec![GatewayChannel::new(0, rate, cfg, 4)],
        ));
    }
}
