//! In-memory spans for the traced run.
//!
//! A span records a layer name, its start and end (seconds from the trace
//! origin), the span that caused it and the chunk or frame it worked on.
//! Spans stay in memory while the workload runs and are written out once at
//! the end. A layer's self time is its spans' duration minus the duration of
//! their child spans; a twin's spans are recorded as children of the program
//! span they stand in for, so the subtraction attributes the twin's work to
//! its own layer.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub frame: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A span log with a shared time origin.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        frame: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            frame,
        });
        self.spans.len() - 1
    }

    /// Opens a span that ends at [`Self::close`], so spans recorded in
    /// between can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, frame: u64) -> usize {
        let now = self.now();
        self.record(name, now, now, parent, frame)
    }

    /// Ends a span opened with [`Self::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span and returns the span id with `f`'s result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        frame: u64,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (self.record(name, start, end, parent, frame), out)
    }

    /// Appends another log's spans (re-numbering their parent links).
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_secs_f64();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start += shift;
            s.end += shift;
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span with this name.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Self time per layer name: span durations minus their children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += s.duration();
            if let Some(p) = s.parent {
                *out.entry(self.spans[p].name).or_default() -= s.duration();
            }
        }
        out
    }

    /// Writes the spans as CSV (`id,name,start_s,end_s,parent,frame`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,name,start_s,end_s,parent,frame")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(String::new, |p| p.to_string());
            writeln!(
                w,
                "{i},{},{:.9},{:.9},{parent},{}",
                s.name, s.start, s.end, s.frame
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_wherever_they_ran() {
        let mut t = Trace::new(Instant::now());
        let unit = t.record("unit", 0.0, 10.0, None, 0);
        // A twin child measured after the unit finished still counts.
        t.record("child", 20.0, 23.0, Some(unit), 0);
        t.record("child", 30.0, 31.0, Some(unit), 0);
        let selfs = t.self_times();
        assert_eq!(selfs["unit"], 6.0);
        assert_eq!(selfs["child"], 4.0);
        assert_eq!(t.total("unit"), 10.0);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let origin = Instant::now();
        let mut a = Trace::new(origin);
        a.record("x", 0.0, 1.0, None, 0);
        let mut b = Trace::new(origin);
        let p = b.record("y", 0.0, 2.0, None, 1);
        b.record("z", 0.0, 0.5, Some(p), 1);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_times()["y"], 1.5);
    }
}
