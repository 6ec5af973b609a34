//! Pins the sharded analytic engine's memory bound (docs/ARCHITECTURE.md
//! §6): with a jammer or without, a worker builds a cell, runs it, reduces
//! it to its outcome and drops it before building the next, so the peak
//! heap grows with the cell size and the worker count, not with the number
//! of cells. Only the per-delivery latency pairs the report needs scale
//! with the population. One cell's own peak is pinned per reading too.
//!
//! The test binary tracks live heap bytes through its own global
//! allocator. It holds a single test, so no other test's allocations land
//! in its peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use netsim::engine::{EngineScenario, JammerSpec, MacPolicy, NetworkEngine, TrafficModel};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches only two atomics, which never allocate.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

const TAGS_PER_CELL: usize = 4096;

/// Peak live heap bytes above the starting level over one one-worker
/// analytic run of `cells` cells of [`TAGS_PER_CELL`] tags, with a jammer
/// on channel 0 from mid-run if `jammed`.
fn run_peak_bytes(cells: usize, jammed: bool) -> usize {
    let mut scenario = EngineScenario::grid(cells * TAGS_PER_CELL, 4, 1)
        .with_mac(MacPolicy::Aloha)
        .with_cells(cells)
        .with_workers(1);
    if jammed {
        // The grid's periodic tags are phased over one interval.
        let TrafficModel::Periodic { interval_s, .. } = scenario.traffic else {
            unreachable!("the grid's traffic is periodic");
        };
        scenario.jammer = Some(JammerSpec {
            at_s: scenario.lead_in_s + 0.5 * interval_s,
            channel: 0,
            penalty_db: -60.0,
        });
    }
    let engine = NetworkEngine::new(scenario);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let report = engine.run_analytic().report;
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(report.readings_generated, cells * TAGS_PER_CELL);
    assert!(report.readings_delivered > 0);
    if jammed {
        assert_eq!(report.channel_hops, cells, "every shard should hop");
    }
    peak
}

/// Peak heap bytes per reading of a one-cell run, at most: the cell's
/// queue holds its arrival schedule as one flat run, so a one-reading cell
/// peaks at ~103 B per reading (a bucketed calendar sized for three events
/// per reading peaked at ~209 B).
const MAX_BYTES_PER_READING: usize = 150;

#[test]
fn every_run_holds_one_cell_per_worker() {
    for jammed in [false, true] {
        let per_reading = run_peak_bytes(1, jammed) / TAGS_PER_CELL;
        assert!(
            per_reading <= MAX_BYTES_PER_READING,
            "jammed: {jammed}; one cell peaked at {per_reading} heap bytes per \
             reading, above {MAX_BYTES_PER_READING}"
        );
        let four = run_peak_bytes(4, jammed);
        let sixteen = run_peak_bytes(16, jammed);
        assert!(
            sixteen < 2 * four,
            "jammed: {jammed}; 16 cells peaked at {sixteen} heap bytes, 4 cells \
             at {four}: finished cells are being kept alive"
        );
    }
}
