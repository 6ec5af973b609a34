//! Analytical engine backend: the shared MAC [`Cell`] with the air
//! interface replaced by the calibrated link abstraction — sharded into
//! spatial cells for city-scale populations.
//!
//! ## Physics
//!
//! A transmission occupies its channel for the packet's real airtime;
//! same-channel overlaps collide (every overlapped party dies exactly once
//! — [`ChannelOccupancy`] tracks the full in-flight set, not just the
//! latest-ending transmission), and surviving transmissions are delivered
//! with the scenario's [`LinkModel`](super::scenario::LinkModel)
//! probability. While a co-channel jammer is on, a transmission on its
//! channel succeeds with the link's probability at its SNR plus
//! [`JammerSpec::penalty_db`](super::scenario::JammerSpec::penalty_db), the
//! penalty the waveform backend takes off the emission's power, until the
//! access point hops away. The link models without an SNR (`Ideal`,
//! `FixedPrr`) lose every jammed transmission.
//!
//! ## Sharding
//!
//! Tags are partitioned into [`EngineScenario::analytic_cells`] contiguous
//! ranges — spatial cells, each an independent collision domain: one
//! [`Cell`] (event queue over its pre-sorted arrival schedule, session
//! table, access-point shard, salted RNG sub-streams; cell 0 reproduces the
//! single-cell engine's streams exactly) with its own [`AnalyticAir`]. Each
//! worker of a pool owns a contiguous chunk of cells and takes them one at
//! a time: build (arrival schedule included), run to completion, reduce to
//! a [`CellOutcome`] (counters, deliveries, watermark), drop. A worker
//! holds one live cell, so the working set is O(workers × cell) rather than
//! O(tags); only one 16-byte delivery record per delivered reading outlives
//! its cell.
//!
//! Cells share no mutable state. The one deployment-wide input, the scan
//! horizon up to which a jammed run's idle shards keep scanning, is a
//! function of the scenario alone, fixed in [`RunParams::new`] before any
//! cell is built. So the merged report is bit-identical whatever the worker
//! count; per-cell reports merge in cell order and delivery latencies merge
//! by delivery time, so the report is also independent of the cell
//! partition wherever cells are physically independent (collision-free
//! workloads).
//!
//! The MAC is the [`cell`](super::cell) module the waveform backend runs
//! too; its access-point shard steps the same
//! [`SequenceWindow`](saiyan_mac::SequenceWindow) as
//! [`AccessPoint::ingest_frame`](saiyan_mac::AccessPoint::ingest_frame),
//! pinned against it by a differential property test, and the session
//! table's replay window is pinned against the tag's
//! [`RetransmissionBuffer`](saiyan_mac::RetransmissionBuffer) by the
//! `saiyan_mac` unit suite.

use std::ops::Range;
use std::time::Instant;
use std::{panic, thread};

use rand::Rng;

use super::cell::{merge_report, Air, Cell, CellEv, CellOutcome, RunParams};
use super::occupancy::ChannelOccupancy;
use super::report::{EngineOutcome, EngineReport};
use super::scenario::EngineScenario;

/// A transmission whose airtime is in flight; `ok` may still be flipped by
/// a later same-channel collision before the `Reception` event resolves it.
struct PendingRx {
    tag: u32,
    sequence: u8,
    ok: bool,
}

/// The link-abstraction air of one cell: a link coin flip per
/// transmission, airtime collisions per channel, and a `Reception` event
/// at the end of each airtime.
struct AnalyticAir {
    occupancy: Vec<ChannelOccupancy>,
    pending: Vec<PendingRx>,
    newly_collided: Vec<u32>,
}

impl Air for AnalyticAir {
    fn transmit(cell: &mut Cell<Self>, p: &RunParams, t: f64, tag: u32, seq: u8, channel: usize) {
        // A lossy link draws once per transmission, jammed or not, so the
        // draw pattern is the link's alone; a lossless link draws only where
        // the jammer leaves its outcome in doubt.
        let p_ok = if p.jammer_on(t, channel).is_some() {
            p.jammed_p
        } else {
            p.link_p
        };
        let mut ok = if p.link_p < 1.0 || (p_ok > 0.0 && p_ok < 1.0) {
            cell.phy_rng.gen::<f64>() < p_ok
        } else {
            p_ok >= 1.0
        };
        let air = &mut cell.air;
        let rx_end = t + p.packet_dur;
        let index = air.pending.len() as u32;
        air.newly_collided.clear();
        let collided = air.occupancy[channel].begin(t, rx_end, index, &mut air.newly_collided);
        for &victim in &air.newly_collided {
            let victim = &mut air.pending[victim as usize];
            if victim.ok {
                victim.ok = false;
                cell.report.collisions += 1;
            }
        }
        if collided && ok {
            cell.report.collisions += 1;
            ok = false;
        }
        air.pending.push(PendingRx {
            tag,
            sequence: seq,
            ok,
        });
        cell.schedule(rx_end, p.packet_dur, CellEv::Reception { index });
    }

    fn reception(cell: &mut Cell<Self>, p: &RunParams, t: f64, index: u32) {
        let rx = &cell.air.pending[index as usize];
        if rx.ok {
            let (local, sequence) = (rx.tag - cell.base, rx.sequence);
            cell.ingest(p, t, local, sequence, false);
        }
    }

    /// One multiplication per command: a per-tag loop would cost a
    /// city-scale ARQ storm one addition per tag per request.
    fn bill_wakeups(report: &mut EngineReport, woken: u32, energy_j: f64) {
        report.tag_demodulation_energy_j += woken as f64 * energy_j;
    }
}

/// Runs the scenario's analytical path.
pub(crate) fn run(scenario: &EngineScenario) -> EngineOutcome {
    let start_wall = Instant::now();
    let p = RunParams::new(scenario);
    let n_cells = scenario.analytic_cells;
    let workers = scenario.analytic_workers.min(n_cells).max(1);

    // Each worker builds, runs, reduces and drops its cells one at a time.
    let outcomes: Vec<CellOutcome> = on_workers(n_cells, workers, |range| {
        let mut arrivals_buf = Vec::new();
        range
            .map(|c| {
                let air = AnalyticAir {
                    occupancy: vec![ChannelOccupancy::new(); scenario.n_channels],
                    pending: Vec::new(),
                    newly_collided: Vec::new(),
                };
                let mut cell = Cell::new(&p, c, scenario.cell_range(c), &mut arrivals_buf, air);
                cell.advance(&p, f64::INFINITY);
                cell.into_outcome()
            })
            .collect()
    });

    // Deterministic merge: counters in cell order, latencies by delivery
    // time (cells record deliveries in time order, so a stable sort makes
    // the merged vector independent of the cell partition).
    let end_time = outcomes
        .iter()
        .map(|o| o.end_time)
        .fold(scenario.lead_in_s, f64::max);
    let (mut report, mut deliveries) = merge_report(&p, "analytic", end_time, outcomes);
    deliveries.sort_by(|a, b| a.0.total_cmp(&b.0));
    report.latencies_s = deliveries.into_iter().map(|(_, lat)| lat).collect();
    EngineOutcome {
        report,
        wall_s: start_wall.elapsed().as_secs_f64(),
    }
}

/// Runs `work` over the contiguous chunks of `0..n_cells` (`n_cells /
/// workers` rounded up, one per worker) and concatenates the results in
/// cell order.
fn on_workers<T: Send>(
    n_cells: usize,
    workers: usize,
    work: impl Fn(Range<usize>) -> Vec<T> + Sync,
) -> Vec<T> {
    let per = n_cells.div_ceil(workers);
    if workers == 1 {
        return work(0..n_cells);
    }
    let work = &work;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..n_cells)
            .step_by(per)
            .map(|first| scope.spawn(move || work(first..(first + per).min(n_cells))))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| panic::resume_unwind(e)))
            .collect()
    })
}
