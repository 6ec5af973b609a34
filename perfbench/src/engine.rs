//! The network-engine workloads: `netsim-waveform` (a closed loop of
//! waveform-path runs through the default lockstep gateway) and
//! `city-analytic` (a closed loop of sharded analytic runs at 10^6 tags).
//!
//! Each run's `EngineReport` is checked against a reference: the stored one
//! for the default and the holdout scenario seed, and for the scenario seed
//! drawn from `--seed`, the first run's report (every repeat must match it).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use lora_phy::iq::Iq;
use lora_phy::modulator::Alphabet;
use lora_phy::templates::PacketTemplates;
use netsim::engine::{EngineReport, EngineScenario, MacPolicy, NetworkEngine};
use netsim::synthesis::EmissionMixer;
use rfsim::channel::dbm_to_buffer_power;
use rfsim::noise::AwgnSource;
use rfsim::units::Dbm;
use saiyan::gateway::{Gateway, GatewayPacket};
use saiyan::receiver::Receiver;

use crate::check::{parse_references, render_references, ReportDigest};
use crate::report::{timed_setup, FrameTimes, Outcome};
use crate::sys::{self, mix_seed};
use crate::trace::Trace;
use crate::twin::{merge_order, ChannelTwin};
use crate::Args;

/// The grid scenario's own default seed.
pub const DEFAULT_SEED: u64 = 0x5A1A;
/// A second stored scenario seed, held out from tuning.
pub const HOLDOUT_SEED: u64 = 0xB01D_0E75;

const WAVEFORM_TAGS: usize = 100;
const WAVEFORM_READINGS: usize = 3;
const CITY_TAGS: usize = 1_000_000;
const CITY_READINGS: usize = 1;

const WAVEFORM_REFS: &str = include_str!("../refs/netsim-waveform.ref");
const CITY_REFS: &str = include_str!("../refs/city-analytic.ref");

fn waveform_scenario(seed: u64) -> EngineScenario {
    EngineScenario::grid(WAVEFORM_TAGS, 4, WAVEFORM_READINGS)
        .with_mac(MacPolicy::Aloha)
        .with_seed(seed)
}

fn city_scenario(seed: u64) -> EngineScenario {
    EngineScenario::grid(CITY_TAGS, 4, CITY_READINGS)
        .with_mac(MacPolicy::Aloha)
        .with_seed(seed)
        .with_cells(0)
        .with_workers(sys::nproc())
}

const SEED_CYCLE: usize = 3;

/// The scenario seeds a run cycles through: one drawn from `--seed`, then
/// the two stored ones.
fn scenario_seeds(seed: u64) -> [u64; SEED_CYCLE] {
    [mix_seed(seed, 0xE761_0001), DEFAULT_SEED, HOLDOUT_SEED]
}

/// Checks reports against the stored references, or against the first
/// report of a scenario seed that has none.
struct References {
    expected: BTreeMap<u64, ReportDigest>,
}

impl References {
    /// Parses a stored reference file, which must hold both stored seeds:
    /// a damaged file would otherwise turn their checks into self-checks.
    fn new(stored: &str) -> Self {
        let expected = parse_references(stored).expect("stored references parse");
        for seed in [DEFAULT_SEED, HOLDOUT_SEED] {
            assert!(
                expected.contains_key(&seed),
                "stored references lack scenario seed {seed:#x}"
            );
        }
        References { expected }
    }

    fn check(&mut self, seed: u64, report: &EngineReport, out: &mut Outcome) {
        let digest = ReportDigest::of(report);
        out.attempted += report.readings_generated as u64;
        let Some(reference) = self.expected.get(&seed) else {
            self.expected.insert(seed, digest);
            return;
        };
        let differing = digest.readings_differing(reference);
        if differing > 0 {
            out.failed += differing;
            out.fail(format!(
                "scenario seed {seed:#x}: {differing} readings delivered differently from the reference"
            ));
        }
    }
}

/// Computes and stores the references of both engine workloads.
pub fn write_references() -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("refs");
    for (file, run) in [
        (
            "netsim-waveform.ref",
            &(|s| {
                NetworkEngine::new(waveform_scenario(s))
                    .run_waveform()
                    .report
            }) as &dyn Fn(u64) -> EngineReport,
        ),
        ("city-analytic.ref", &|s| {
            NetworkEngine::new(city_scenario(s)).run_analytic().report
        }),
    ] {
        let digests: Vec<(u64, ReportDigest)> = [DEFAULT_SEED, HOLDOUT_SEED]
            .iter()
            .map(|&s| (s, ReportDigest::of(&run(s))))
            .collect();
        let path = dir.join(file);
        std::fs::write(&path, render_references(&digests))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// When a closed loop of engine runs stops: after a wall-time budget (at
/// least one run), or after a fixed number of runs.
#[derive(Clone, Copy)]
enum Stop {
    Seconds(f64),
    Runs(usize),
}

impl Stop {
    /// Budgeted loops also stop only after whole cycles of the scenario
    /// seeds, so every run weighs the seeds alike.
    fn reached(self, runs: usize, elapsed_s: f64, min_runs: usize) -> bool {
        match self {
            Stop::Seconds(s) => {
                runs >= min_runs.max(1) && runs.is_multiple_of(SEED_CYCLE) && elapsed_s >= s
            }
            Stop::Runs(n) => runs >= n,
        }
    }
}

/// Wall, CPU and simulated seconds of each run of a loop.
#[derive(Default)]
struct RunCosts {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    sim: Vec<f64>,
}

impl RunCosts {
    fn add(&mut self, wall: f64, cpu: f64, sim: f64) {
        self.wall.push(wall);
        self.cpu.push(cpu);
        self.sim.push(sim);
    }

    fn runs(&self) -> usize {
        self.wall.len()
    }

    fn wall_s(&self) -> f64 {
        self.wall.iter().sum()
    }

    fn cpu_s(&self) -> f64 {
        self.cpu.iter().sum()
    }

    fn sim_s(&self) -> f64 {
        self.sim.iter().sum()
    }

    /// Simulated seconds per wall second and CPU seconds per simulated
    /// second, each the median over whole cycles of the scenario seeds.
    fn rates(&self, out: &mut Outcome) -> (f64, f64) {
        let sum = |v: &[f64], c: usize| v[c * SEED_CYCLE..(c + 1) * SEED_CYCLE].iter().sum::<f64>();
        let cycles = self.runs() / SEED_CYCLE;
        let realtime: Vec<f64> = (0..cycles)
            .map(|c| sum(&self.sim, c) / sum(&self.wall, c))
            .collect();
        let cpu: Vec<f64> = (0..cycles)
            .map(|c| sum(&self.cpu, c) / sum(&self.sim, c))
            .collect();
        out.note(format!(
            "realtime_x and cpu_s_per_input_s: medians over {cycles} cycles of {SEED_CYCLE} runs"
        ));
        (crate::stats::median(&realtime), crate::stats::median(&cpu))
    }
}

/// Runs of `city-analytic`'s untraced loop: enough for a median with ten
/// samples beyond it.
const CITY_MIN_RUNS: usize = 2 * crate::stats::MIN_BEYOND + 1;

// ---------------------------------------------------------------------------
// netsim-waveform
// ---------------------------------------------------------------------------

/// Spans and clocks of a traced waveform run.
struct WaveformTrace {
    trace: Trace,
    engine_span: usize,
    twins: Vec<ChannelTwin>,
    twin_packets: Vec<GatewayPacket>,
    gateway_cpu_s: f64,
    gateway_wall_s: f64,
    /// The first chunk the engine synthesized, for the noise twin's check.
    first_chunk: Vec<Iq>,
}

/// What the timing receiver saw of one engine run.
struct RunLog {
    origin: Instant,
    /// Per feed: due = end of the previous feed (or the run's start), sent =
    /// feed start, done = feed end.
    frames: FrameTimes,
    chunk_len: Vec<usize>,
    /// Released packets with the feed that released them (`frames.len()`
    /// for the flush).
    packets: Vec<(GatewayPacket, usize)>,
    last_done: f64,
    flush_end: f64,
    traced: Option<WaveformTrace>,
}

/// The default gateway inside a timing `Receiver`.
struct TimedGateway {
    inner: Gateway,
    log: Rc<RefCell<RunLog>>,
}

impl Receiver for TimedGateway {
    fn backend_name(&self) -> &'static str {
        Receiver::backend_name(&self.inner)
    }

    fn input_rate(&self) -> f64 {
        self.inner.wideband_rate()
    }

    fn feed(&mut self, chunk: &[Iq]) -> Vec<GatewayPacket> {
        let mut guard = self.log.borrow_mut();
        let log = &mut *guard;
        let now = |o: Instant| o.elapsed().as_secs_f64();
        let frame = log.frames.len();
        let due = log.last_done;
        let start = now(log.origin);
        let packets = match log.traced.as_mut() {
            Some(t) => {
                let cpu = sys::thread_cpu_s();
                let packets = self.inner.push_chunk(chunk);
                let end = now(log.origin);
                t.gateway_cpu_s += sys::thread_cpu_s() - cpu;
                t.gateway_wall_s += end - start;
                t.trace.record(
                    "saiyan.receiver",
                    start,
                    end,
                    Some(t.engine_span),
                    frame as u64,
                );
                if frame == 0 {
                    t.first_chunk = chunk.to_vec();
                }
                let twin = t
                    .trace
                    .open("twin.inline", Some(t.engine_span), frame as u64);
                for ch in &mut t.twins {
                    t.twin_packets
                        .extend(ch.push(chunk, &mut t.trace, Some(twin), frame as u64));
                }
                t.trace.close(twin);
                packets
            }
            None => self.inner.push_chunk(chunk),
        };
        let end = now(log.origin);
        log.frames.push(due, start, end);
        log.chunk_len.push(chunk.len());
        log.packets
            .extend(packets.iter().map(|p| (p.clone(), frame)));
        log.last_done = now(log.origin);
        packets
    }

    fn flush(&mut self) -> Vec<GatewayPacket> {
        let packets = self.inner.flush_in_place();
        let mut log = self.log.borrow_mut();
        let frame = log.frames.len();
        log.packets
            .extend(packets.iter().map(|p| (p.clone(), frame)));
        if let Some(t) = log.traced.as_mut() {
            for ch in &mut t.twins {
                t.twin_packets.extend(ch.finish());
            }
        }
        log.flush_end = log.origin.elapsed().as_secs_f64();
        packets
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Totals of a loop of waveform runs.
#[derive(Default)]
struct WaveformLoop {
    costs: RunCosts,
    frames: FrameTimes,
    packet_ms: Vec<f64>,
    delivered: u64,
    transmissions: u64,
    /// Traced loops: the merged span log and layer clocks.
    trace: Option<Trace>,
    gateway_cpu_s: f64,
    gateway_wall_s: f64,
    channelizer_samples: u64,
}

fn waveform_loop(
    seed: u64,
    stop: Stop,
    traced: bool,
    refs: &mut References,
    out: &mut Outcome,
) -> WaveformLoop {
    let seeds = scenario_seeds(seed);
    let origin = Instant::now();
    let mut total = WaveformLoop {
        trace: traced.then(|| Trace::new(origin)),
        ..WaveformLoop::default()
    };
    while !stop.reached(total.costs.runs(), origin.elapsed().as_secs_f64(), 1) {
        let built = origin.elapsed().as_secs_f64();
        let scenario = waveform_scenario(seeds[total.costs.runs() % seeds.len()]);
        let engine = NetworkEngine::new(scenario.clone());
        let config = engine.default_gateway_config();
        let gateway = Gateway::new(config.clone());
        let run_trace = total.trace.take().map(|mut trace| {
            let engine_span = trace.open("netsim.engine", None, total.costs.runs() as u64);
            WaveformTrace {
                trace,
                engine_span,
                twins: ChannelTwin::for_gateway(&config),
                twin_packets: Vec::new(),
                gateway_cpu_s: 0.0,
                gateway_wall_s: 0.0,
                first_chunk: Vec::new(),
            }
        });
        let start = origin.elapsed().as_secs_f64();
        let log = Rc::new(RefCell::new(RunLog {
            origin,
            frames: FrameTimes::default(),
            chunk_len: Vec::new(),
            packets: Vec::new(),
            last_done: start,
            flush_end: start,
            traced: run_trace,
        }));
        let receiver_log = Rc::clone(&log);
        let cpu0 = sys::process_cpu_s();
        let outcome = engine.run_waveform_with(move |_| {
            Box::new(TimedGateway {
                inner: gateway,
                log: receiver_log,
            })
        });
        // Building the run's engine and gateway is part of its wall time.
        let wall = origin.elapsed().as_secs_f64() - built;
        if let Some(t) = log.borrow_mut().traced.as_mut() {
            t.trace.close(t.engine_span);
        }
        let cpu = sys::process_cpu_s() - cpu0;
        let mut log = Rc::try_unwrap(log)
            .map_err(|_| "the engine keeps no receiver after the run")
            .expect("receiver dropped")
            .into_inner();
        refs.check(scenario.seed, &outcome.report, out);
        let r = &outcome.report;
        total.costs.add(wall, cpu, r.duration_s);
        total.delivered += r.readings_delivered as u64;
        total.transmissions += r.uplink_transmissions as u64;

        // Packet latency: from the due time of the chunk holding the
        // packet's last payload sample to the end of the feed releasing it.
        let fs = scenario.wideband_rate();
        let t_sym = scenario.lora.symbol_duration();
        for (p, released_in) in &log.packets {
            let last = ((p.result.payload_start_time + scenario.payload_symbols() as f64 * t_sym)
                * fs)
                .round() as u64
                - 1;
            let chunk = ((last / scenario.chunk_samples as u64) as usize).min(log.frames.len() - 1);
            let at = log
                .frames
                .done
                .get(*released_in)
                .copied()
                .unwrap_or(log.flush_end);
            total.packet_ms.push((at - log.frames.due[chunk]) * 1e3);
        }
        for k in 0..log.frames.len() {
            total
                .frames
                .push(log.frames.due[k], log.frames.sent[k], log.frames.done[k]);
        }
        if let Some(mut t) = log.traced.take() {
            let mut program: Vec<GatewayPacket> =
                log.packets.iter().map(|(p, _)| p.clone()).collect();
            merge_order(&mut program);
            merge_order(&mut t.twin_packets);
            if program != t.twin_packets {
                out.fail("the channel twins decoded different packets from the gateway");
            }
            if t.twins.iter().any(ChannelTwin::frontend_diverged) {
                out.fail("the front-end twin's envelope differs from the program's front end");
            }
            synthesis_twins(&scenario, r, &program, &log.chunk_len, &mut t, out);
            total.gateway_cpu_s += t.gateway_cpu_s;
            total.channelizer_samples += t.twins.iter().map(|c| c.samples).sum::<u64>();
            total.gateway_wall_s += t.gateway_wall_s;
            total.trace = Some(t.trace);
        }
    }
    total
}

/// Stands in for the engine's synthesis layers of one run: the template
/// cache (built once, one assembly per uplink transmission), the emission
/// mixer (the run's chunks, with the decoded
/// packets' emissions at their decoded positions and the undecoded
/// transmissions' emissions beside them on the next channel), and the block
/// AWGN over every chunk. Costs follow the run's real counts and sizes; the
/// noise twin's output is checked against the run's first, emission-free
/// samples. The spans have no parent: they estimate shares of the engine's
/// own time, which stays whole in its span's self time.
fn synthesis_twins(
    scenario: &EngineScenario,
    report: &EngineReport,
    decoded: &[GatewayPacket],
    chunk_len: &[usize],
    t: &mut WaveformTrace,
    out: &mut Outcome,
) {
    let fs = scenario.wideband_rate();
    let offsets = scenario.offsets_hz();
    let (_, templates) = t.trace.time("lora_phy.templates", None, 0, || {
        PacketTemplates::new(scenario.wideband_lora(), Alphabet::Downlink)
    });
    let layout = templates.layout(scenario.payload_symbols());
    let scale = dbm_to_buffer_power(Dbm(scenario.base_power_dbm)).sqrt();
    let mut emissions: Vec<(u64, usize, &[u32])> = Vec::new();
    if !decoded.is_empty() {
        for i in 0..report.uplink_transmissions {
            let p = &decoded[i % decoded.len()];
            let start = ((p.result.payload_start_time * fs).round() as u64)
                .saturating_sub(layout.payload_start as u64);
            let channel = (p.channel as usize + i / decoded.len()) % offsets.len();
            emissions.push((start, channel, &p.result.symbols));
        }
    }
    emissions.sort_by_key(|e| e.0);
    let mut mixer = EmissionMixer::new();
    let mut awgn = scenario.noise_power_dbm.map(|dbm| {
        (
            AwgnSource::new(scenario.seed),
            dbm_to_buffer_power(Dbm(dbm)),
        )
    });
    let mut chunk: Vec<Iq> = Vec::new();
    let (mut next, mut pos) = (0usize, 0u64);
    for (k, &n) in chunk_len.iter().enumerate() {
        let frame = k as u64;
        let end = pos + n as u64;
        while next < emissions.len() && emissions[next].0 < end {
            let (start, channel, symbols) = emissions[next];
            let mut samples = mixer.take_buffer();
            t.trace.time("lora_phy.templates", None, frame, || {
                templates
                    .assemble_scaled_extend(symbols, scale, &mut samples)
                    .expect("decoded symbols are within the alphabet")
            });
            t.trace.time("netsim.synthesis", None, frame, || {
                mixer.push(
                    start,
                    samples,
                    scenario.max_cfo_hz / 2.0,
                    offsets[channel],
                    fs,
                )
            });
            next += 1;
        }
        t.trace.time("netsim.synthesis", None, frame, || {
            chunk.clear();
            chunk.resize(n, Iq::ZERO);
            mixer.mix_into(&mut chunk, pos);
        });
        if let Some((source, variance)) = awgn.as_mut() {
            t.trace.time("rfsim.noise", None, frame, || {
                source.add_noise_in_place(&mut chunk, *variance)
            });
        }
        if k == 0 {
            // Before the lead-in ends, and before the twin's own first
            // emission, both streams carry noise alone.
            let first = emissions.first().map_or(n, |e| e.0 as usize);
            let quiet = ((scenario.lead_in_s * fs) as usize).min(first).min(n);
            let same = chunk[..quiet]
                .iter()
                .zip(&t.first_chunk)
                .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
            if !same || t.first_chunk.len() < quiet {
                out.fail("the noise twin's samples differ from the engine's");
            }
        }
        pos = end;
    }
}

pub fn run_waveform(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let mut refs = References::new(WAVEFORM_REFS);
    // Building an engine and its gateway takes about 0.1 ms, mostly starting
    // the gateway's threads, and that moves by up to half between processes.
    // So set-up is an engine, its default gateway and one warm-up run.
    let (_, setup_s) = timed_setup(|| {
        NetworkEngine::new(waveform_scenario(scenario_seeds(args.seed)[0])).run_waveform()
    });
    if !args.trace {
        let l = waveform_loop(
            args.seed,
            Stop::Seconds(args.seconds),
            false,
            &mut refs,
            &mut out,
        );
        out.note(format!(
            "{} runs of {WAVEFORM_TAGS} tags x {WAVEFORM_READINGS} readings, ALOHA: {:.3} s simulated, {} chunks",
            l.costs.runs(),
            l.costs.sim_s(),
            l.frames.len()
        ));
        out.set("setup_s", setup_s);
        let (realtime, cpu) = l.costs.rates(&mut out);
        out.set("realtime_x", realtime);
        out.set("cpu_s_per_input_s", cpu);
        out.set_latencies(&l.frames.latency_ms(), &l.packet_ms, &l.frames.lag_ms());
        out.set("peak_rss_mb", sys::peak_rss_mb());
        return out;
    }

    // Traced run: (A) untraced runs for a quarter of the budget, (B) as many
    // traced runs of the same scenarios, with the gateway twin fed inline and
    // the synthesis twins after each run.
    let a = waveform_loop(
        args.seed,
        Stop::Seconds(args.seconds / 4.0),
        false,
        &mut refs,
        &mut out,
    );
    let cpu0 = sys::process_cpu_s();
    let b = waveform_loop(
        args.seed,
        Stop::Runs(a.costs.runs()),
        true,
        &mut refs,
        &mut out,
    );
    let trace = b.trace.expect("traced loop");
    // Program CPU: the traced phase minus the twins' own work. Only the
    // gateway twin ran inside the engine runs' wall time.
    let twin_time = |names: &[&str]| -> f64 {
        trace
            .spans()
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.duration())
            .sum()
    };
    let inline_s = twin_time(&["twin.inline"]);
    let twin_s = inline_s + twin_time(&["lora_phy.templates", "netsim.synthesis", "rfsim.noise"]);
    let program_cpu = sys::process_cpu_s() - cpu0 - twin_s;
    let selfs = trace.self_times();
    let get = |n: &str| selfs.get(n).copied().unwrap_or(0.0);
    // The engine's self time is its span minus the receiver and the inline
    // twin: event loop, MAC harness and synthesis, as the program ran them.
    let layers = [
        ("analog.channelizer.busy_s", get("analog.channelizer")),
        ("analog.saw.busy_s", get("analog.saw")),
        ("analog.lna.busy_s", get("analog.lna")),
        ("analog.shifting.busy_s", get("analog.shifting")),
        ("saiyan.streaming.busy_s", get("saiyan.streaming")),
        ("saiyan.gateway.busy_s", b.gateway_cpu_s),
        ("netsim.engine.busy_s", get("netsim.engine")),
    ];
    let covered: f64 = layers.iter().map(|(_, v)| v).sum();
    for (name, v) in layers {
        out.set(name, v);
    }
    // Twin estimates of shares of the engine's self time, so not covered
    // twice.
    out.set("lora_phy.templates.busy_s", get("lora_phy.templates"));
    out.set("netsim.synthesis.busy_s", get("netsim.synthesis"));
    out.set("rfsim.noise.busy_s", get("rfsim.noise"));
    out.set("analog.channelizer.samples", b.channelizer_samples as f64);
    out.set("saiyan.gateway.wait_s", b.gateway_wall_s - b.gateway_cpu_s);
    out.set("saiyan.receiver.busy_s", trace.total("saiyan.receiver"));
    out.set(
        "mac.delivered_per_tx",
        b.delivered as f64 / b.transmissions as f64,
    );
    out.set("trace.input_s", b.costs.sim_s());
    out.set(
        "trace.overhead_s",
        b.costs.wall_s() - a.costs.wall_s() - inline_s,
    );
    out.set("trace.coverage", covered / program_cpu);
    out.note(format!(
        "traced {} runs: untraced wall {:.3} s, traced wall {:.3} s with {:.3} s of inline twins; program CPU {:.3} s",
        b.costs.runs(), a.costs.wall_s(), b.costs.wall_s(), inline_s, program_cpu
    ));
    crate::write_spans(&trace, args);
    out
}

// ---------------------------------------------------------------------------
// city-analytic
// ---------------------------------------------------------------------------

#[derive(Default)]
struct CityLoop {
    costs: RunCosts,
    frames: FrameTimes,
    delivered: u64,
    transmissions: u64,
}

/// A closed loop of analytic runs. Each run is one request: due when the
/// previous reply arrived, sent once the harness has checked that reply
/// and built the next engine, done when the report is back.
fn city_loop(
    seed: u64,
    stop: Stop,
    min_runs: usize,
    trace: Option<&mut Trace>,
    refs: &mut References,
    out: &mut Outcome,
) -> CityLoop {
    let seeds = scenario_seeds(seed);
    let origin = Instant::now();
    let now = || origin.elapsed().as_secs_f64();
    let mut total = CityLoop::default();
    let mut trace = trace;
    let mut due = 0.0;
    while !stop.reached(total.costs.runs(), now(), min_runs) {
        let built = now();
        let scenario = city_scenario(seeds[total.costs.runs() % seeds.len()]);
        let engine = NetworkEngine::new(scenario.clone());
        let sent = now();
        let cpu0 = sys::process_cpu_s();
        let outcome = engine.run_analytic();
        let cpu = sys::process_cpu_s() - cpu0;
        let done = now();
        if let Some(t) = trace.as_deref_mut() {
            let shift = t.at(origin);
            t.record(
                "netsim.analytic",
                shift + sent,
                shift + done,
                None,
                total.costs.runs() as u64,
            );
        }
        total.frames.push(due, sent, done);
        total
            .costs
            .add(done - built, cpu, outcome.report.duration_s);
        total.delivered += outcome.report.readings_delivered as u64;
        total.transmissions += outcome.report.uplink_transmissions as u64;
        refs.check(scenario.seed, &outcome.report, out);
        due = done;
    }
    total
}

pub fn run_city(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let mut refs = References::new(CITY_REFS);
    // Building an engine alone takes microseconds, too little to time
    // steadily, so set-up is an engine and one warm-up run.
    let (_, setup_s) = timed_setup(|| {
        NetworkEngine::new(city_scenario(scenario_seeds(args.seed)[0])).run_analytic()
    });
    if !args.trace {
        let l = city_loop(
            args.seed,
            Stop::Seconds(args.seconds),
            CITY_MIN_RUNS,
            None,
            &mut refs,
            &mut out,
        );
        out.note(format!(
            "{} runs of {CITY_TAGS} tags x {CITY_READINGS} reading, ALOHA, {} cells, {} workers: {:.1} s simulated",
            l.costs.runs(),
            city_scenario(0).analytic_cells,
            sys::nproc(),
            l.costs.sim_s()
        ));
        out.set("setup_s", setup_s);
        let (realtime, cpu) = l.costs.rates(&mut out);
        out.set("realtime_x", realtime);
        out.set("cpu_s_per_input_s", cpu);
        // Every reading of a run leaves with its report: packet latency is
        // the run's latency, one sample per run.
        out.set_latencies(
            &l.frames.latency_ms(),
            &l.frames.latency_ms(),
            &l.frames.lag_ms(),
        );
        out.set("peak_rss_mb", sys::peak_rss_mb());
        return out;
    }

    let a = city_loop(
        args.seed,
        Stop::Seconds(args.seconds / 2.0),
        1,
        None,
        &mut refs,
        &mut out,
    );
    let mut trace = Trace::new(Instant::now());
    let cpu0 = sys::process_cpu_s();
    let b = city_loop(
        args.seed,
        Stop::Runs(a.costs.runs()),
        1,
        Some(&mut trace),
        &mut refs,
        &mut out,
    );
    let program_cpu = sys::process_cpu_s() - cpu0;
    // The engine runs on its worker pool: its busy time is the CPU time of
    // its runs, not their wall time.
    out.set("netsim.analytic.busy_s", b.costs.cpu_s());
    out.set(
        "mac.delivered_per_tx",
        b.delivered as f64 / b.transmissions as f64,
    );
    out.set("trace.input_s", b.costs.sim_s());
    out.set("trace.overhead_s", b.costs.wall_s() - a.costs.wall_s());
    out.set("trace.coverage", b.costs.cpu_s() / program_cpu);
    out.note(format!(
        "traced {} runs: untraced wall {:.3} s, traced wall {:.3} s; program CPU {:.3} s",
        b.costs.runs(),
        a.costs.wall_s(),
        b.costs.wall_s(),
        program_cpu
    ));
    crate::write_spans(&trace, args);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_references_hold_both_stored_seeds() {
        for stored in [WAVEFORM_REFS, CITY_REFS] {
            let refs = References::new(stored);
            assert_eq!(refs.expected.len(), 2);
        }
    }
}
