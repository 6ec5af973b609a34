//! The sharded analytic engine at scale: collision accounting against a
//! brute-force oracle, scheduled-queue vs. plain-heap equivalence, traffic
//! monotonicity, and partition/worker invariance of the merged report —
//! without a jammer and with one, whose scans run up to the scan horizon.

use netsim::engine::occupancy::ChannelOccupancy;
use netsim::engine::scheduler::EventQueue;
use netsim::engine::{
    EngineReport, EngineScenario, JammerSpec, MacPolicy, NetworkEngine, TrafficModel,
};
use proptest::prelude::*;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Three tags on one channel, phased within a fraction of one packet
/// airtime: a triple overlap. Every party must die — three collisions, not
/// two (the latest-ending-only tracker this suite regressed on would lose
/// one) — and exactly once each.
#[test]
fn a_triple_overlap_on_one_channel_kills_all_three() {
    let mut s = EngineScenario::grid(3, 1, 1);
    // Phases spread over one traffic interval; squeeze the interval well
    // under a packet airtime so all three transmissions overlap.
    s.traffic = TrafficModel::Periodic {
        interval_s: 0.1 * s.packet_duration_s(),
        jitter_s: 0.0,
    };
    let out = NetworkEngine::new(s).run_analytic();
    let r = &out.report;
    assert_eq!(r.readings_generated, 3);
    assert_eq!(r.uplink_transmissions, 3);
    assert_eq!(r.collisions, 3, "every overlapped party dies exactly once");
    assert_eq!(r.readings_delivered, 0);
    assert!(r.latencies_s.is_empty());
}

/// For a fixed seed the sharded engine must produce the *same report* as
/// the single-cell engine wherever cells are physically independent — on
/// the collision-free staggered grid, every counter, latency sample and
/// duration is partition-invariant.
#[test]
fn a_sharded_run_matches_the_single_cell_report() {
    let base = EngineScenario::grid(512, 4, 3);
    let single = NetworkEngine::new(base.clone().with_cells(1)).run_analytic();
    assert_eq!(single.report.readings_delivered, 512 * 3);
    for cells in [2usize, 8, 64] {
        let sharded = NetworkEngine::new(base.clone().with_cells(cells)).run_analytic();
        assert_eq!(
            sharded.report, single.report,
            "{cells} cells diverged from the single-cell engine"
        );
    }
}

/// Runs `base` at each worker count and requires the single-worker report.
fn assert_worker_invariant(base: &EngineScenario, workers: &[usize]) -> EngineReport {
    let reference = NetworkEngine::new(base.clone().with_workers(1))
        .run_analytic()
        .report;
    for &w in workers {
        let out = NetworkEngine::new(base.clone().with_workers(w)).run_analytic();
        assert_eq!(
            out.report, reference,
            "{w} workers diverged from the single-worker run"
        );
    }
    reference
}

/// The merged report must be bit-identical whatever the worker count —
/// cells share no mutable state, so threading is purely a wall-clock
/// lever. ALOHA keeps per-cell RNG streams hot. Each worker builds and
/// runs its contiguous chunk of cells; three workers over 16 cells make
/// the chunks uneven (6, 6, 4).
#[test]
fn worker_counts_do_not_change_the_report() {
    let base = EngineScenario::grid(2048, 4, 2)
        .with_mac(MacPolicy::Aloha)
        .with_cells(16);
    let reference = assert_worker_invariant(&base, &[2, 3, 4]);
    assert!(reference.collisions > 0, "ALOHA should collide");
    assert!(reference.readings_delivered > 0);
}

/// The clean-run duration of `base` and a copy of it with a jammer on
/// channel 0 from `onset` × that duration past the lead-in, scanned every
/// `scan` × that duration.
fn jammed(base: &EngineScenario, onset: f64, scan: f64) -> EngineScenario {
    let clean = NetworkEngine::new(base.clone()).run_analytic().report;
    let mut s = base.clone();
    s.jammer = Some(JammerSpec {
        at_s: s.lead_in_s + onset * clean.duration_s,
        channel: 0,
        penalty_db: -60.0,
    });
    s.scan_interval_s = scan * clean.duration_s;
    s
}

/// With a jammer the access-point shards scan until their own activity
/// watermark or the run's scan horizon (the end of the latest scheduled
/// arrival's airtime over all tags), whichever is later. Arrivals are
/// staggered in tag-id order, so the early cells' own tags have finished
/// when the jammer switches on at mid-run: only the horizon keeps their
/// scans alive to see it, and every cell's shard must hop. The report must
/// not depend on the worker count.
#[test]
fn worker_counts_do_not_change_a_jammed_report() {
    let base = EngineScenario::grid(2048, 4, 1)
        .with_mac(MacPolicy::Aloha)
        .with_cells(16);
    let reference = assert_worker_invariant(&jammed(&base, 0.5, 0.05), &[2, 3, 4]);
    assert_eq!(
        reference.channel_hops, 16,
        "every cell's shard should hop off the jammer: {reference:?}"
    );
    assert!(reference.collisions > 0, "ALOHA should collide");

    // The horizon's upper end: the last scan before the horizon precedes
    // a jammer at 0.99 of the clean duration, so no shard sees it. The
    // horizon ends with the latest scheduled arrival's airtime; stretching
    // it by an ARQ tail would add a scan that does, and 16 hops.
    let late = assert_worker_invariant(&jammed(&base, 0.99, 0.05), &[2, 3, 4]);
    assert_eq!(late.channel_hops, 0, "a shard scanned past the horizon");
    assert!(late.collisions > 0, "ALOHA should collide");
}

/// The auto-sized partition (`with_cells(0)`, about 8 Ki tags per cell)
/// used at city scale: a jammer-free run over several cells reports the
/// same whatever the worker count.
#[test]
fn auto_sized_cells_are_worker_invariant() {
    let base = EngineScenario::grid(20_000, 4, 1)
        .with_mac(MacPolicy::Aloha)
        .with_cells(0);
    assert!(base.analytic_cells >= 2, "{} cells", base.analytic_cells);
    let reference = assert_worker_invariant(&base, &[2, 4]);
    assert_eq!(reference.readings_generated, 20_000);
    assert!(reference.readings_delivered > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Jammed runs are worker-invariant over random jammer onsets (up to
    /// half a clean run past its end), scan intervals, MAC policies,
    /// traffic models and partitions.
    #[test]
    fn jammed_reports_are_worker_invariant(
        onset in 0.0f64..1.5,
        scan in 0.01f64..0.3,
        mac in prop_oneof![
            Just(MacPolicy::Aloha),
            Just(MacPolicy::Fixed),
            Just(MacPolicy::Hopping),
        ],
        poisson in any::<bool>(),
        cells in prop_oneof![Just(1usize), Just(5), Just(16)],
        seed in any::<u64>(),
    ) {
        let mut base = EngineScenario::grid(256, 4, 2)
            .with_mac(mac)
            .with_cells(cells)
            .with_seed(seed);
        if poisson {
            let mean_interval_s = base.safe_periodic_interval_s();
            base = base.with_traffic(TrafficModel::Poisson { mean_interval_s });
        }
        assert_worker_invariant(&jammed(&base, onset, scan), &[2, 3]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The in-flight occupancy tracker agrees with a brute-force O(n²)
    /// interval-overlap oracle on heterogeneous packet durations — and
    /// marks each collided transmission exactly once.
    #[test]
    fn collision_marking_matches_the_interval_overlap_oracle(
        starts in collection::vec(0.0f64..10.0, 1..40),
        durs in collection::vec(0.01f64..3.0, 1..40),
    ) {
        let n = starts.len().min(durs.len());
        let mut txs: Vec<(f64, f64)> = (0..n)
            .map(|i| (starts[i], starts[i] + durs[i]))
            .collect();
        // The engine registers transmissions in event-time order.
        txs.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut chan = ChannelOccupancy::new();
        let mut dead = vec![false; n];
        let mut marks = vec![0usize; n];
        let mut newly = Vec::new();
        for (i, &(s, e)) in txs.iter().enumerate() {
            newly.clear();
            if chan.begin(s, e, i as u32, &mut newly) {
                dead[i] = true;
                marks[i] += 1;
            }
            for &v in &newly {
                dead[v as usize] = true;
                marks[v as usize] += 1;
            }
        }

        for (i, &(si, ei)) in txs.iter().enumerate() {
            let overlapped = txs
                .iter()
                .enumerate()
                .any(|(j, &(sj, ej))| j != i && si < ej && sj < ei);
            prop_assert_eq!(
                dead[i], overlapped,
                "tx {} [{}, {}) vs oracle", i, si, ei
            );
            prop_assert!(marks[i] <= 1, "tx {} marked {} times", i, marks[i]);
        }
    }

    /// A queue built on a pre-sorted schedule pops exactly what a plain
    /// heap that got every event pushed in the same order pops: the
    /// schedule first, then the run-time pushes. The times sit on a
    /// quarter-second grid, so the schedule has equal-time ties and
    /// run-time pushes tie with scheduled events; pushes land before the
    /// last popped time too (the feedback pattern), and `pop_before` cuts
    /// at random horizons and exactly at the next event's time.
    #[test]
    fn a_scheduled_queue_matches_the_heap(
        raw_schedule in collection::vec(0.0f64..100.0, 0..120),
        ops in collection::vec(0u8..4, 0..240),
        offsets in collection::vec(-20.0f64..40.0, 240),
    ) {
        let grid = |t: f64| (t * 4.0).round() / 4.0;
        let schedule: Vec<(f64, usize)> =
            raw_schedule.iter().enumerate().map(|(i, &t)| (grid(t), i)).collect();
        let mut heap = EventQueue::new();
        for &(t, i) in &schedule {
            heap.push(t, i);
        }
        let mut queue = EventQueue::with_schedule(schedule);
        let mut next_id = raw_schedule.len();
        let mut last = 0.0;
        for (op, x) in ops.into_iter().zip(offsets) {
            match op {
                0 => {
                    heap.push(grid(last + x), next_id);
                    queue.push(grid(last + x), next_id);
                    next_id += 1;
                }
                1 => {
                    let popped = queue.pop();
                    prop_assert_eq!(popped, heap.pop());
                    last = popped.map_or(last, |(t, _)| t);
                }
                2 => {
                    let horizon = grid(last + x);
                    loop {
                        let popped = queue.pop_before(horizon);
                        prop_assert_eq!(popped, heap.pop_before(horizon));
                        match popped {
                            Some((t, _)) => last = t,
                            None => break,
                        }
                    }
                }
                _ => {
                    // An event exactly at the horizon stays queued.
                    if let Some(t) = heap.peek_time() {
                        prop_assert_eq!(queue.pop_before(t), None);
                        prop_assert_eq!(heap.pop_before(t), None);
                    }
                }
            }
            prop_assert_eq!(queue.peek_time(), heap.peek_time());
            prop_assert_eq!(queue.len(), heap.len());
        }
        while !heap.is_empty() {
            prop_assert_eq!(queue.pop(), heap.pop());
        }
        prop_assert!(queue.is_empty());
    }

    /// Bursty arrivals stay strictly monotone under adversarial
    /// burst-span/inter-burst-gap ratios (the regression: an exponential
    /// inter-burst draw shorter than the previous burst's intra-burst span
    /// walked time backwards).
    #[test]
    fn bursty_arrivals_stay_monotone_under_adversarial_ratios(
        burst in 1usize..6,
        intra_gap in 0.0f64..10.0,
        mean_interval in 0.001f64..1.0,
        readings in 1usize..30,
        seed in any::<u64>(),
    ) {
        let model = TrafficModel::Bursty {
            burst,
            intra_gap_s: intra_gap,
            mean_burst_interval_s: mean_interval,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let times = model.arrivals(readings, 0.5, &mut rng);
        prop_assert_eq!(times.len(), readings);
        for pair in times.windows(2) {
            prop_assert!(
                pair[1] > pair[0],
                "arrivals regressed: {} then {} (burst={}, intra={}, mean={})",
                pair[0], pair[1], burst, intra_gap, mean_interval
            );
        }
    }
}
