//! The benchmark's statistics: medians and the percentile rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it. When too few samples exist for the requested percentile, the
//! highest percentile that does satisfy the rule is reported instead, and
//! the result says which one it is and how many samples it rests on.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of the values (mean of the two middle ones for an even count);
/// NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A percentile as reported under the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile asked for (0–1).
    pub requested: f64,
    /// The percentile actually reported (≤ `requested`).
    pub reported: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was computed from.
    pub count: usize,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// The `q` percentile (nearest rank) of `samples`, lowered to the highest
/// percentile with at least [`MIN_BEYOND`] samples beyond it when `q` is too
/// high for the sample count. `None` when even that does not exist.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the smallest index i with (i + 1) / n >= q.
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let index = wanted.min(n - 1 - MIN_BEYOND);
    Some(Percentile {
        requested: q,
        reported: (index + 1) as f64 / n as f64,
        value: v[index],
        count: n,
        beyond: n - 1 - index,
    })
}

/// Frames per window of a windowed tail percentile: a p99 of 2000 samples
/// has 20 beyond it.
pub const WINDOW: usize = 2000;

/// Applies `stat` to each consecutive full window of [`WINDOW`] samples and
/// returns the median of the results with the window count, or `None` when
/// there are fewer than three windows. A median over windows is not moved
/// by a burst of interference that spoils one window.
pub fn windowed(samples: &[f64], stat: impl Fn(&[f64]) -> f64) -> Option<(f64, usize)> {
    let per_window: Vec<f64> = samples.chunks_exact(WINDOW).map(stat).collect();
    (per_window.len() >= 3).then(|| (median(&per_window), per_window.len()))
}

impl Percentile {
    /// One line for the run log: which percentile, over how many samples.
    pub fn describe(&self, name: &str) -> String {
        let fallback = if self.reported < self.requested {
            format!(
                " (p{:.0} needs more samples; reporting p{:.1})",
                self.requested * 100.0,
                self.reported * 100.0
            )
        } else {
            String::new()
        };
        format!(
            "{name}: p{:.1} = {:.6} over {} samples, {} beyond{fallback}",
            self.reported * 100.0,
            self.value,
            self.count,
            self.beyond
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_of_a_thousand_samples_has_ten_beyond() {
        let p = percentile(&ramp(1000), 0.99).expect("enough samples");
        assert_eq!(p.reported, 0.99);
        assert_eq!(p.value, 990.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(p.count, 1000);
    }

    #[test]
    fn too_few_samples_lower_the_percentile_until_ten_lie_beyond() {
        let p = percentile(&ramp(200), 0.99).expect("enough for a lower percentile");
        assert_eq!(p.beyond, MIN_BEYOND);
        assert_eq!(p.value, 190.0);
        assert!(p.reported < p.requested);
        assert!(p.describe("x").contains("reporting p95.0"));
    }

    #[test]
    fn one_spoilt_window_does_not_move_the_windowed_median() {
        let mut v: Vec<f64> = (0..5 * WINDOW).map(|i| (i % 100) as f64).collect();
        let calm = windowed(&v, |w| percentile(w, 0.99).expect("full window").value);
        for x in &mut v[..WINDOW] {
            *x += 1000.0;
        }
        let spoilt = windowed(&v, |w| percentile(w, 0.99).expect("full window").value);
        assert_eq!(calm, Some((98.0, 5)));
        assert_eq!(spoilt, calm);
        assert!(windowed(&v[..2 * WINDOW], mean).is_none());
    }

    #[test]
    fn the_median_needs_ten_samples_beyond_it_too() {
        let p = percentile(&ramp(21), 0.5).expect("21 samples");
        assert_eq!(p.value, 11.0);
        assert_eq!(p.beyond, 10);
        let low = percentile(&ramp(15), 0.5).expect("15 samples");
        assert_eq!(low.beyond, MIN_BEYOND);
        assert!(low.reported < 0.5);
        assert!(percentile(&ramp(10), 0.5).is_none());
    }
}
