//! Criterion benchmarks of the link-abstraction evaluation path. The
//! receiver itself is timed by `benches/streaming.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use netsim::{paper_demodulation_range, run_link_trials, Scenario, TrialConfig};
use rfsim::units::Meters;

fn bench_link_abstraction(c: &mut Criterion) {
    let scenario = Scenario::outdoor_default(Meters(120.0));
    c.bench_function("netsim/link_trials_1000_packets", |b| {
        b.iter(|| {
            run_link_trials(
                &scenario,
                &TrialConfig {
                    packets: 1000,
                    payload_symbols: 32,
                    seed: 1,
                },
            )
        })
    });
    let template = Scenario::outdoor_default(Meters(1.0));
    c.bench_function("netsim/demodulation_range_search", |b| {
        b.iter(|| paper_demodulation_range(&template))
    });
}

criterion_group!(benches, bench_link_abstraction);
criterion_main!(benches);
