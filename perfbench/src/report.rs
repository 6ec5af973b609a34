//! Metric names, units, and the result line.

use std::collections::BTreeMap;

use crate::stats::{self, Percentile};

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one; README.md gives each workload's definition. The frame-latency
/// p99 and the generator's lag are measured too but only logged: on a shared
/// two-core host they move by more than any bound between runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("realtime_x", "x"),
    ("cpu_s_per_input_s", "s/s"),
    ("frame_latency_p50_ms", "ms"),
    ("packet_latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does not
/// run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("analog.channelizer.busy_s", "s"),
    ("analog.channelizer.samples", "count"),
    ("analog.saw.busy_s", "s"),
    ("analog.lna.busy_s", "s"),
    ("analog.shifting.busy_s", "s"),
    ("saiyan.streaming.busy_s", "s"),
    ("saiyan.gateway.busy_s", "s"),
    ("saiyan.gateway.wait_s", "s"),
    ("saiyan.receiver.busy_s", "s"),
    ("lora_phy.templates.busy_s", "s"),
    ("netsim.synthesis.busy_s", "s"),
    ("rfsim.noise.busy_s", "s"),
    ("netsim.engine.busy_s", "s"),
    ("netsim.analytic.busy_s", "s"),
    ("mac.ap.busy_s", "s"),
    ("mac.ap.frames_ok", "count"),
    ("mac.ap.frames_rejected", "count"),
    ("mac.delivered_per_tx", "ratio"),
    ("serve.send.block_s", "s"),
    ("serve.queue.wait_p50_ms", "ms"),
    ("serve.queue.wait_p99_ms", "ms"),
    ("serve.ingest.busy_s", "s"),
    ("serve.frames_dropped", "count"),
    ("saiyan.executor.built", "count"),
    ("saiyan.executor.reused", "count"),
    ("trace.input_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
];

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed check: the run is no longer correct.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", why.into()));
    }

    /// Sets a latency percentile metric under the percentile rule, noting
    /// which percentile it is and how many samples it rests on.
    pub fn set_percentile(&mut self, name: &'static str, samples_ms: &[f64], q: f64) {
        match stats::percentile(samples_ms, q) {
            Some(p) => {
                self.note(p.describe(name));
                self.set(name, p.value);
            }
            None => self.fail(format!(
                "{name}: {} samples are too few for any percentile",
                samples_ms.len()
            )),
        }
    }

    /// Sets the latency metrics shared by every workload: frame latency p50
    /// (due time to the end of the receiver's work on the frame) and packet
    /// latency p50. Logs the frame-latency p99 and the generator's mean lag:
    /// where there are at least three windows of [`stats::WINDOW`] frames,
    /// as medians over windows of each window's p99 and mean.
    pub fn set_latencies(&mut self, frame_ms: &[f64], packet_ms: &[f64], lag_ms: &[f64]) {
        self.set_percentile("frame_latency_p50_ms", frame_ms, 0.50);
        self.set_percentile("packet_latency_p50_ms", packet_ms, 0.50);
        let p99 = |w: &[f64]| stats::percentile(w, 0.99).map_or(f64::NAN, |p: Percentile| p.value);
        match stats::windowed(frame_ms, p99) {
            Some((v, n)) => self.note(format!(
                "frame latency p99 (logged only): median over {n} windows of {} frames of each window's p99 = {v:.6} ms",
                stats::WINDOW
            )),
            None => {
                if let Some(p) = stats::percentile(frame_ms, 0.99) {
                    self.note(p.describe("frame latency p99 (logged only)"));
                }
            }
        }
        let (lag, how) = match stats::windowed(lag_ms, stats::mean) {
            Some((v, n)) => (v, format!("median over {n} windows of the window mean")),
            None => (
                stats::mean(lag_ms),
                format!("mean over {} frames", lag_ms.len()),
            ),
        };
        self.note(format!("generator lag (logged only): {how} = {lag:.6} ms"));
    }

    /// Prints the notes and, as the last line, the result object with
    /// exactly the metrics of `catalog` (missing per-layer metrics read 0;
    /// a missing or non-finite end-to-end metric fails the run). Returns
    /// whether every check passed.
    pub fn print(mut self, catalog: &[(&'static str, &'static str)], zero_missing: bool) -> bool {
        let mut entries = Vec::new();
        for &(name, unit) in catalog {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    self.fail(format!("{name} is not finite"));
                    0.0
                }
                None if zero_missing => 0.0,
                None => {
                    self.fail(format!("{name} was not measured"));
                    0.0
                }
            };
            entries.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        for n in &self.notes {
            println!("{n}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            entries.join(", ")
        );
        self.correct
    }
}

/// A finite f64 as a JSON number with every digit of Rust's shortest
/// round-trip form (`1e-7` and `0.5` are both valid JSON).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

/// Set-ups per run: at least the minimum, and more while they add up to
/// less than [`SETUP_BUDGET_S`], so a quick set-up is timed often enough
/// for its median to settle.
pub const SETUP_REPEATS: (usize, usize) = (3, 200);
pub const SETUP_BUDGET_S: f64 = 0.5;

/// Runs `build` repeatedly (see [`SETUP_REPEATS`]) and returns the last
/// result with the median wall time of one set-up.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let (min, max) = SETUP_REPEATS;
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < min || (times.len() < max && times.iter().sum::<f64>() < SETUP_BUDGET_S) {
        drop(last.take());
        let start = std::time::Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Per-frame times of a loop, in seconds from the loop's origin: when the
/// frame was due, when the generator handed it over, and when the receiver
/// finished with it.
#[derive(Debug, Default, Clone)]
pub struct FrameTimes {
    pub due: Vec<f64>,
    pub sent: Vec<f64>,
    pub done: Vec<f64>,
}

impl FrameTimes {
    pub fn push(&mut self, due: f64, sent: f64, done: f64) {
        self.due.push(due);
        self.sent.push(sent);
        self.done.push(done);
    }

    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// Due time to the end of the receiver's work, per frame (ms).
    pub fn latency_ms(&self) -> Vec<f64> {
        self.done
            .iter()
            .zip(&self.due)
            .map(|(d, u)| (d - u) * 1e3)
            .collect()
    }

    /// How late each frame was handed over against its due time (ms).
    pub fn lag_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .zip(&self.due)
            .map(|(s, u)| (s - u) * 1e3)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let body = json
            .split(&format!("\"{section}\""))
            .nth(1)
            .expect("section");
        let body = &body[..body.find(']').expect("list end")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("name value").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_the_metrics_this_program_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layers);
        assert_eq!(
            names_in(&json, "workloads"),
            crate::WORKLOADS
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn numbers_are_valid_json() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(1e300), "1e300");
        assert_eq!(json_number(0.0), "0.0");
    }
}
