//! Backpressure semantics of the serving layer, proven deterministically
//! with a gated receiver double: the stream worker blocks inside `feed`
//! until the test releases a permit, so the test controls exactly when the
//! ingest queue fills and drains.
//!
//! * Drop-oldest sheds **exactly** at the bound — frame K+`depth`+1 is the
//!   first displaced — and the drop counters agree at every layer (push
//!   outcome, handle, stream stats, daemon telemetry).
//! * Blocking mode never drops anything, no matter how hard the producer
//!   pushes: every frame reaches the receiver, in order.
//! * Under real load — 1, 2, 4 and 8 concurrent clients replaying a capture
//!   into production-profile receivers — blocking mode delivers every packet
//!   of every stream with the transmitted symbols, and the receiver pool
//!   recycles instances across the sweep.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use lora_phy::iq::Iq;
use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use netsim::longtrace::{generate_long_trace, random_payloads, LongTraceConfig, TracePacket};
use saiyan::config::{SaiyanConfig, Variant};
use saiyan::gateway::GatewayPacket;
use saiyan::{
    BoxedReceiver, FreshExecutor, PooledExecutor, Receiver, ReceiverExecutor, StreamingDemodulator,
};
use saiyan_serve::{samples_to_bytes, BackpressurePolicy, PushOutcome, ServeConfig, ServeDaemon};

/// A permit gate: `feed` acquires one permit per frame, the test releases
/// them, so queue occupancy between release points is exact.
#[derive(Default)]
struct Gate {
    permits: Mutex<usize>,
    available: Condvar,
    entered: AtomicUsize,
}

impl Gate {
    fn release(&self, n: usize) {
        *self.permits.lock().unwrap() += n;
        self.available.notify_all();
    }

    fn acquire(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut permits = self.permits.lock().unwrap();
        while *permits == 0 {
            permits = self.available.wait(permits).unwrap();
        }
        *permits -= 1;
    }

    /// Spins until the worker has *entered* `n` feed calls (i.e. is parked
    /// inside the gate for the n-th). The condition is guaranteed to occur,
    /// so this wait changes when the test proceeds, never its outcome.
    fn await_entered(&self, n: usize) {
        while self.entered.load(Ordering::SeqCst) < n {
            std::thread::yield_now();
        }
    }
}

/// The receiver double: consumes permits and records the exact sample count
/// of every frame fed, in order.
struct GatedReceiver {
    gate: Arc<Gate>,
    fed: Arc<Mutex<Vec<usize>>>,
}

impl Receiver for GatedReceiver {
    fn backend_name(&self) -> &'static str {
        "gated-test-double"
    }

    fn input_rate(&self) -> f64 {
        1_000_000.0
    }

    fn feed(&mut self, chunk: &[Iq]) -> Vec<GatewayPacket> {
        self.gate.acquire();
        self.fed.lock().unwrap().push(chunk.len());
        Vec::new()
    }

    fn flush(&mut self) -> Vec<GatewayPacket> {
        Vec::new()
    }

    fn reset(&mut self) {}
}

fn gated_daemon(config: ServeConfig) -> (ServeDaemon, Arc<Gate>, Arc<Mutex<Vec<usize>>>) {
    let gate = Arc::new(Gate::default());
    let fed = Arc::new(Mutex::new(Vec::new()));
    let factory = {
        let gate = Arc::clone(&gate);
        let fed = Arc::clone(&fed);
        Arc::new(move || {
            Box::new(GatedReceiver {
                gate: Arc::clone(&gate),
                fed: Arc::clone(&fed),
            }) as BoxedReceiver
        })
    };
    let daemon = ServeDaemon::new(Arc::new(FreshExecutor::new(factory)), config);
    (daemon, gate, fed)
}

/// A frame of `n` zero samples — `n` is the frame's identity in the fed log.
fn frame(n: usize) -> Vec<Iq> {
    vec![Iq { re: 0.0, im: 0.0 }; n]
}

#[test]
fn drop_oldest_sheds_exactly_at_the_bound() {
    const DEPTH: usize = 4;
    const EXTRA: usize = 3;
    let (daemon, gate, fed) = gated_daemon(
        ServeConfig::default()
            .with_queue_depth(DEPTH)
            .with_policy(BackpressurePolicy::DropOldest),
    );
    let mut handle = daemon.open_stream("storm").expect("daemon running");

    // Frame 1 is popped by the worker, which then parks inside feed —
    // leaving the queue empty and the worker busy.
    assert_eq!(handle.send_samples(frame(1)), Ok(PushOutcome::Enqueued));
    gate.await_entered(1);

    // The next DEPTH frames fill the queue without loss...
    for n in 2..=1 + DEPTH {
        assert_eq!(
            handle.send_samples(frame(n)),
            Ok(PushOutcome::Enqueued),
            "frame of {n} samples is within the bound"
        );
    }
    assert_eq!(handle.dropped(), 0, "no drops below the bound");

    // ...and every frame past the bound displaces the oldest queued one.
    for (i, n) in (2 + DEPTH..2 + DEPTH + EXTRA).enumerate() {
        assert_eq!(
            handle.send_samples(frame(n)),
            Ok(PushOutcome::DisplacedOldest),
            "frame of {n} samples is past the bound"
        );
        assert_eq!(handle.dropped(), (i + 1) as u64);
    }

    // Drain everything: the worker feeds the in-flight frame plus the DEPTH
    // survivors. Close only once it has picked up the last one, so the End
    // marker meets an empty queue and cannot displace a data frame.
    gate.release(1 + DEPTH + EXTRA);
    gate.await_entered(1 + DEPTH);
    handle.close();
    let snapshot = daemon.shutdown();

    // The receiver saw: the in-flight frame, then the *newest* DEPTH frames.
    // The EXTRA oldest queued frames (sizes 2..=1+EXTRA) were displaced.
    let expected: Vec<usize> = std::iter::once(1)
        .chain(2 + EXTRA..2 + DEPTH + EXTRA)
        .collect();
    assert_eq!(*fed.lock().unwrap(), expected);
    assert_eq!(snapshot.dropped_chunks_total, EXTRA as u64);
    let stream = &snapshot.streams[0];
    assert_eq!(stream.dropped_chunks, EXTRA as u64);
    assert_eq!(
        stream.samples_in as usize,
        expected.iter().sum::<usize>(),
        "samples_in counts only frames that reached the receiver"
    );
}

#[test]
fn blocking_mode_never_drops_under_sustained_pressure() {
    const DEPTH: usize = 2;
    const FRAMES: usize = DEPTH + 9;
    let (daemon, gate, fed) = gated_daemon(
        ServeConfig::default()
            .with_queue_depth(DEPTH)
            .with_policy(BackpressurePolicy::Block),
    );
    let handle = daemon.open_stream("firehose").expect("daemon running");

    // The producer pushes far more frames than the queue holds; with a
    // parked worker it must block rather than shed.
    let producer = std::thread::spawn(move || {
        for n in 1..=FRAMES {
            match handle.send_samples(frame(n)) {
                Ok(PushOutcome::Enqueued) => {}
                other => panic!("blocking push must enqueue, got {other:?}"),
            }
        }
        handle.wait()
    });

    // Release permits one at a time; the producer advances exactly as room
    // appears.
    for done in 1..=FRAMES {
        gate.release(1);
        gate.await_entered(done.min(FRAMES));
    }
    let report = producer.join().expect("producer thread");

    assert_eq!(report.stats.dropped_chunks, 0, "blocking mode never drops");
    assert!(!report.disconnected);
    let sizes: Vec<usize> = (1..=FRAMES).collect();
    assert_eq!(
        *fed.lock().unwrap(),
        sizes,
        "every frame reached the receiver, in order"
    );
    let snapshot = daemon.shutdown();
    assert_eq!(snapshot.dropped_chunks_total, 0);
    assert_eq!(snapshot.samples_total as usize, sizes.iter().sum::<usize>());
}

#[test]
fn queue_depth_gauge_tracks_occupancy() {
    const DEPTH: usize = 5;
    let (daemon, gate, _fed) = gated_daemon(
        ServeConfig::default()
            .with_queue_depth(DEPTH)
            .with_policy(BackpressurePolicy::Block),
    );
    let mut handle = daemon.open_stream("gauge").expect("daemon running");
    handle.send_samples(frame(1)).unwrap();
    gate.await_entered(1);
    for _ in 0..3 {
        handle.send_samples(frame(1)).unwrap();
    }
    assert_eq!(handle.stats().snapshot().queue_depth, 3);
    gate.release(4);
    handle.close();
    daemon.shutdown();
}

#[test]
fn blocking_mode_delivers_every_packet_to_one_through_eight_real_streams() {
    const STREAMS: [usize; 4] = [1, 2, 4, 8];
    const PAYLOAD_SYMBOLS: usize = 16;
    const CHUNK_BYTES: usize = 4096 * saiyan_serve::wire::BYTES_PER_SAMPLE;

    let lora = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).expect("valid"),
    );
    let payloads = random_payloads(6, PAYLOAD_SYMBOLS, lora.bits_per_chirp, 0x5E7F_10AD);
    let packets: Vec<TracePacket> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| {
            TracePacket::new(
                p.clone(),
                -48.0 - (i % 3) as f64 * 2.0,
                if i == 0 { 4.0 } else { 16.0 },
            )
        })
        .collect();
    let (trace, truth) =
        generate_long_trace(&LongTraceConfig::new(lora).with_noise(-82.0), &packets);
    let bytes = Arc::new(samples_to_bytes(&trace.samples));

    let cfg = SaiyanConfig::paper_default(lora, Variant::Vanilla).high_throughput();
    let factory = Arc::new(move || {
        Box::new(StreamingDemodulator::new(cfg.clone(), PAYLOAD_SYMBOLS)) as BoxedReceiver
    });
    let executor = Arc::new(PooledExecutor::new(factory, 8));
    let daemon = ServeDaemon::new(
        executor.clone(),
        ServeConfig::default()
            .with_queue_depth(8)
            .with_policy(BackpressurePolicy::Block),
    );

    for n in STREAMS {
        // Every stream of the row checks its receiver out before any client
        // sends, and each worker checks it back in before it reports, so the
        // pool counts below do not depend on thread timing.
        let handles: Vec<_> = (0..n)
            .map(|i| {
                daemon
                    .open_stream(format!("load-{n}-{i}"))
                    .expect("daemon running")
            })
            .collect();
        let clients: Vec<_> = handles
            .into_iter()
            .map(|handle| {
                let bytes = Arc::clone(&bytes);
                std::thread::spawn(move || {
                    for chunk in bytes.chunks(CHUNK_BYTES) {
                        assert_eq!(
                            handle.send_bytes(chunk.to_vec()),
                            Ok(PushOutcome::Enqueued),
                            "blocking push must enqueue"
                        );
                    }
                    handle.wait()
                })
            })
            .collect();
        for client in clients {
            let report = client.join().expect("client thread");
            assert_eq!(
                report.stats.dropped_chunks, 0,
                "{}: blocking mode never drops",
                report.name
            );
            assert_eq!(
                report.packets.len(),
                truth.len(),
                "{}: every packet delivered",
                report.name
            );
            for t in &truth {
                let t_payload = t.payload_start_sample as f64 / trace.sample_rate;
                let decoded = report
                    .packets
                    .iter()
                    .find(|p| {
                        (p.result.payload_start_time - t_payload).abs() < lora.symbol_duration()
                    })
                    .unwrap_or_else(|| {
                        panic!("{}: packet at {t_payload:.4} s missing", report.name)
                    });
                assert_eq!(
                    decoded.result.symbols, t.symbols,
                    "{}: packet at {t_payload:.4} s decodes the transmitted symbols",
                    report.name
                );
            }
        }
    }
    daemon.shutdown();
    assert_eq!(
        executor.built(),
        8,
        "one receiver built per concurrent stream"
    );
    assert_eq!(
        executor.reused(),
        7,
        "rows after the first reuse parked receivers"
    );
}
