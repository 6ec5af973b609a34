//! Pins the receiver's steady-state allocation contract
//! (docs/ARCHITECTURE.md §4): once warmed up, a `StreamingDemodulator`
//! performs no heap allocation for a chunk that decodes no packet — the
//! preamble search on every falling edge included. A chunk that completes
//! a packet allocates that packet's `DemodResult` and its window copy.
//! The receivers run `paper_default`, analog noise on, so the LNA's and
//! the envelope detector's block noise draws are held to it too.
//!
//! The test binary counts allocations per thread through its own global
//! allocator, so tests running in parallel do not see each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use netsim::longtrace::{generate_long_trace, random_payloads, LongTraceConfig, TracePacket};
use saiyan::config::{SaiyanConfig, Variant};
use saiyan::StreamingDemodulator;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const PAYLOAD_SYMBOLS: usize = 16;
const PACKETS: usize = 6;
const CHUNK: usize = 1000;

#[test]
fn a_warmed_up_receiver_allocates_only_for_decoded_packets() {
    let lora = LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).expect("valid"),
    );
    let payloads = random_payloads(PACKETS, PAYLOAD_SYMBOLS, lora.bits_per_chirp, 11);
    let packets: Vec<TracePacket> = payloads
        .iter()
        .map(|p| TracePacket::new(p.clone(), -55.0, 20.0))
        .collect();
    let config = LongTraceConfig::new(lora).with_noise(-80.0);
    let rx = generate_long_trace(&config, &packets).0;

    for variant in [Variant::Vanilla, Variant::WithShifting, Variant::Super] {
        let config = SaiyanConfig::paper_default(lora, variant);
        assert!(
            config.analog_noise,
            "the analog noise draws must be covered"
        );
        let mut demod = StreamingDemodulator::new(config, PAYLOAD_SYMBOLS);
        let mut decoded = 0usize;
        let mut searching_chunks = 0usize;
        for (i, chunk) in rx.samples.chunks(CHUNK).enumerate() {
            let before = allocations();
            let out = demod.push_samples(chunk);
            let allocated = allocations() - before;
            decoded += out.len();
            // Warm-up: buffers grow until two packets have gone through.
            if decoded - out.len() < 2 || !out.is_empty() {
                continue;
            }
            searching_chunks += 1;
            assert_eq!(
                allocated, 0,
                "{variant:?}: chunk {i} decoded nothing but allocated {allocated} times"
            );
        }
        drop(demod);
        assert_eq!(decoded, PACKETS, "{variant:?} missed packets");
        assert!(
            searching_chunks > 50,
            "{variant:?}: {searching_chunks} chunks checked"
        );
    }
}
