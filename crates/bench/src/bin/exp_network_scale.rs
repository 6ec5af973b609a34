//! Network-scale sweep on the discrete-event engine: tag count × MAC
//! policy, reporting PRR, goodput and delivery latency per backend.
//!
//! For every grid point the scenario is the paper-style 4-channel 500 kHz
//! grid (SF7 / 250 kHz / K = 2 channels, 3 Msps wideband) with periodic
//! per-tag traffic at the tightest collision-free interval. The **waveform**
//! backend synthesizes the whole deployment's IQ in bounded chunks and
//! streams it through the real multi-channel gateway — ARQ and hopping
//! feedback reschedule actual tag transmissions — while the **analytic**
//! backend runs the identical MAC machinery over the link abstraction for
//! contrast. The ALOHA policy picks random channels per transmission, so
//! its same-channel collisions pull PRR down; Fixed and Hopping stay
//! collision-free and must deliver (nearly) everything.
//!
//! The analytic backend shards tags into spatial cells
//! (`--cells`, `0` = auto ≈ 8 Ki tags/cell) run by a worker pool
//! (`--workers`), each worker building, running and dropping its contiguous
//! chunk of cells one at a time. The scaling axis runs 10² … 10⁶ tags; its
//! rows report a `x realtime` speed factor.
//! Waveform rows only run up to `--waveform-cap` tags (default 100) — the
//! IQ chain at a million tags is neither feasible nor the point.
//!
//! CLI: `--tags 8,24,100` `--readings 2` `--policies fixed,hopping,aloha`
//! `--backend both|waveform|analytic` `--cells 0` `--workers 1`
//! `--waveform-cap 100` `--max-wall-s <budget>` (exits non-zero if the
//! whole sweep's wall time exceeds it) `--check-floor <min PRR>` (the gate
//! applies to the worst waveform-path PRR among the non-ALOHA policies,
//! falling back to the worst analytic-path one when no waveform row ran).
//! Results land in `results/network_scale.json`.

use netsim::engine::{EngineOutcome, EngineReport, EngineScenario, MacPolicy, NetworkEngine};
use saiyan_bench::{fmt, trial_seeds, Runner};

fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return Some(
                args.next()
                    .unwrap_or_else(|| panic!("{flag} needs a value")),
            );
        }
    }
    None
}

fn parse_policies(spec: &str) -> Vec<MacPolicy> {
    spec.split(',')
        .map(|p| match p.trim() {
            "fixed" => MacPolicy::Fixed,
            "hopping" => MacPolicy::Hopping,
            "aloha" => MacPolicy::Aloha,
            other => panic!("unknown policy {other:?} (fixed|hopping|aloha)"),
        })
        .collect()
}

/// Sums the counters and concatenates the latency samples of one grid
/// point's per-trial outcomes (durations and wall time add up too, so rates
/// stay means over the trials).
fn aggregate(outcomes: Vec<EngineOutcome>) -> EngineOutcome {
    let mut iter = outcomes.into_iter();
    let mut total = iter.next().expect("at least one trial");
    for o in iter {
        let (a, b): (&mut EngineReport, EngineReport) = (&mut total.report, o.report);
        a.readings_generated += b.readings_generated;
        a.readings_delivered += b.readings_delivered;
        a.duplicates += b.duplicates;
        a.detections += b.detections;
        a.uplink_transmissions += b.uplink_transmissions;
        a.suppressed_transmissions += b.suppressed_transmissions;
        a.collisions += b.collisions;
        a.downlink_commands += b.downlink_commands;
        a.retransmission_requests += b.retransmission_requests;
        a.channel_hops += b.channel_hops;
        a.delivered_payload_bits += b.delivered_payload_bits;
        a.tag_demodulation_energy_j += b.tag_demodulation_energy_j;
        a.latencies_s.extend(b.latencies_s);
        a.duration_s += b.duration_s;
        total.wall_s += o.wall_s;
    }
    total
}

fn main() {
    let tag_counts: Vec<usize> = arg_value("--tags")
        .unwrap_or_else(|| "8,24,100".to_string())
        .split(',')
        .map(|t| t.trim().parse().expect("tag count"))
        .collect();
    // Three readings per tag by default: middle-of-sequence losses are the
    // ones a later frame can reveal, so ARQ actually exercises.
    let readings: usize = arg_value("--readings")
        .map(|v| v.parse().expect("readings"))
        .unwrap_or(3);
    let policies = parse_policies(
        &arg_value("--policies").unwrap_or_else(|| "fixed,hopping,aloha".to_string()),
    );
    let trials: usize = arg_value("--trials")
        .map(|v| v.parse().expect("trials"))
        .unwrap_or(1)
        .max(1);
    let backend = arg_value("--backend").unwrap_or_else(|| "both".to_string());
    let (run_analytic, run_waveform) = match backend.as_str() {
        "both" => (true, true),
        "analytic" => (true, false),
        "waveform" => (false, true),
        other => panic!("unknown backend {other:?} (both|waveform|analytic)"),
    };
    let cells: usize = arg_value("--cells")
        .map(|v| v.parse().expect("cells"))
        .unwrap_or(0);
    let workers: usize = arg_value("--workers")
        .map(|v| v.parse().expect("workers"))
        .unwrap_or(1);
    // The waveform path synthesizes real IQ; past this population it is
    // pure wall-clock with no extra information, so it stays capped.
    let waveform_cap: usize = arg_value("--waveform-cap")
        .map(|v| v.parse().expect("waveform-cap"))
        .unwrap_or(100);
    let max_wall_s: Option<f64> = arg_value("--max-wall-s").map(|v| v.parse().expect("max-wall-s"));

    let mut runner = Runner::new(
        "network_scale",
        "Network engine: tag count x MAC policy (4-channel gateway, periodic traffic)",
        &[
            "backend",
            "tags",
            "cells",
            "policy",
            "delivered",
            "PRR",
            "goodput (bps)",
            "lat mean (ms)",
            "lat p95 (ms)",
            "retx",
            "collisions",
            "x realtime",
        ],
    );
    let mut gate_prr = f64::INFINITY;
    let mut analytic_gate_prr = f64::INFINITY;
    let mut total_wall_s = 0.0;

    for &tags in &tag_counts {
        for &policy in &policies {
            // One engine run per trial seed; counters sum and latency
            // samples concatenate, so the row reports the trial aggregate.
            let mut backends: Vec<(&str, Vec<EngineOutcome>)> = Vec::new();
            if run_analytic {
                backends.push(("analytic", Vec::new()));
            }
            if run_waveform && tags <= waveform_cap {
                backends.push(("waveform", Vec::new()));
            }
            let mut analytic_cells = 1;
            for seed in trial_seeds(0x5A1A, trials) {
                let scenario = EngineScenario::grid(tags, 4, readings)
                    .with_mac(policy)
                    .with_seed(seed)
                    .with_cells(cells)
                    .with_workers(workers);
                analytic_cells = scenario.analytic_cells;
                let engine = NetworkEngine::new(scenario);
                for (name, outcomes) in backends.iter_mut() {
                    outcomes.push(if *name == "analytic" {
                        engine.run_analytic()
                    } else {
                        engine.run_waveform()
                    });
                }
            }
            for (backend, outcomes) in backends {
                let outcome = aggregate(outcomes);
                total_wall_s += outcome.wall_s;
                let r = &outcome.report;
                let realtime = if outcome.wall_s > 0.0 {
                    r.duration_s / outcome.wall_s
                } else {
                    f64::NAN
                };
                if policy != MacPolicy::Aloha {
                    if backend == "waveform" {
                        gate_prr = gate_prr.min(r.prr());
                    } else {
                        analytic_gate_prr = analytic_gate_prr.min(r.prr());
                    }
                }
                runner.row(
                    vec![
                        backend.to_string(),
                        tags.to_string(),
                        if backend == "analytic" {
                            analytic_cells.to_string()
                        } else {
                            "-".to_string()
                        },
                        r.policy.clone(),
                        format!("{}/{}", r.readings_delivered, r.readings_generated),
                        fmt(r.prr(), 3),
                        fmt(r.goodput_bps(), 0),
                        fmt(r.latency_mean_s() * 1e3, 1),
                        fmt(r.latency_percentile_s(0.95) * 1e3, 1),
                        r.retransmission_requests.to_string(),
                        r.collisions.to_string(),
                        if realtime.is_nan() {
                            "-".to_string()
                        } else {
                            fmt(realtime, 2)
                        },
                    ],
                    serde_json::json!({
                        "backend": backend,
                        "tags": tags,
                        "cells": if backend == "analytic" { analytic_cells } else { 1 },
                        "workers": if backend == "analytic" { workers.max(1) } else { 1 },
                        "realtime_factor": realtime,
                        "policy": r.policy.clone(),
                        "readings_generated": r.readings_generated,
                        "readings_delivered": r.readings_delivered,
                        "prr": r.prr(),
                        "goodput_bps": r.goodput_bps(),
                        "latency_mean_s": r.latency_mean_s(),
                        "latency_p95_s": r.latency_percentile_s(0.95),
                        "retransmission_requests": r.retransmission_requests,
                        "collisions": r.collisions,
                        "uplink_transmissions": r.uplink_transmissions,
                        "duration_s": r.duration_s,
                        "wall_s": outcome.wall_s,
                    }),
                );
            }
        }
    }

    runner.footer(format!(
        "Waveform rows (tags <= {waveform_cap}) ran the full IQ chain: chunked synthesis -> \
         4-channel lockstep gateway -> MAC ingest, {readings} reading(s) per tag, {trials} \
         seeded trial(s) per row."
    ));
    runner.footer(
        "Analytic rows shard the population into spatial cells, each worker building, \
         running and dropping its contiguous chunk one cell at a time (bit-reproducible \
         for a fixed seed across worker counts); `x realtime` is simulated seconds per wall \
         second."
            .to_string(),
    );
    runner.footer(
        "ALOHA draws a random channel per transmission, so its collisions are the point; \
         Fixed/Hopping schedules are collision-free and gate the CI floor."
            .to_string(),
    );
    if run_waveform && gate_prr.is_finite() {
        runner.gate("waveform PRR (worst non-ALOHA policy)", gate_prr);
    } else if analytic_gate_prr.is_finite() {
        runner.gate("analytic PRR (worst non-ALOHA policy)", analytic_gate_prr);
    } else {
        assert!(
            saiyan_bench::check_floor_arg().is_none(),
            "--check-floor gates the non-ALOHA PRR, but this invocation produced no \
             non-ALOHA row (backend {backend:?}, policies {policies:?})"
        );
    }
    runner.finish();
    if let Some(budget) = max_wall_s {
        assert!(
            total_wall_s <= budget,
            "sweep wall time {total_wall_s:.1}s exceeded the --max-wall-s budget {budget:.1}s"
        );
    }
}
