//! Order statistics and the segment summary every metric is reported as.

use std::time::{Duration, Instant};

/// The `q`-quantile (0..=1) of `sorted` by nearest rank; 0 for no samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the even-count midpoint (what `statistics.median` gives).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The distance between the first and the third quartile of `values`, as
/// Python's `statistics.quantiles(values, n=4)` takes them (the benchmark
/// contract's measure of spread); 0 for fewer than two values.
pub fn quartile_distance(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.len() < 2 {
        return 0.0;
    }
    // The "exclusive" method: the quantile sits at position q·(n+1),
    // counted from 1, on the line through the two values around it.
    let at = |q: f64| {
        let position = q * (v.len() + 1) as f64;
        let below = (position.floor() as usize).clamp(1, v.len() - 1);
        v[below - 1] + (position - below as f64) * (v[below] - v[below - 1])
    };
    at(0.75) - at(0.25)
}

/// An end-to-end metric of one run: `value` is taken over the whole
/// measured phase, `min`/`max` are what its parts (one per deployment)
/// read on their own, and `spread` is the quartile distance of those
/// readings as a share of `value`. One deployment in six may sit on another
/// poll tick, so `compare` judges by the quartiles, not by the extremes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub spread: f64,
}

impl Summary {
    pub fn over(value: f64, parts: &[f64]) -> Summary {
        let v = sorted(parts);
        Summary {
            value,
            min: v.first().copied().unwrap_or(value),
            max: v.last().copied().unwrap_or(value),
            spread: if value == 0.0 { 0.0 } else { quartile_distance(&v) / value.abs() },
        }
    }

    /// For a metric that has no whole-phase reading: the median part.
    pub fn of_median(parts: &[f64]) -> Summary {
        Summary::over(median(parts), parts)
    }
}

/// `{median, p10, p90, n}` of one micro-timing.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub median: f64,
    pub p10: f64,
    pub p90: f64,
    pub n: usize,
}

impl Timing {
    pub fn of(samples: &[f64]) -> Timing {
        let v = sorted(samples);
        Timing {
            median: median(&v),
            p10: quantile_sorted(&v, 0.10),
            p90: quantile_sorted(&v, 0.90),
            n: v.len(),
        }
    }

    /// The same timing with every figure mapped through `f` (a rate from a
    /// duration swaps p10 and p90 so p10 stays the low end).
    pub fn map(self, f: impl Fn(f64) -> f64) -> Timing {
        let (a, b) = (f(self.p10), f(self.p90));
        Timing { median: f(self.median), p10: a.min(b), p90: a.max(b), n: self.n }
    }
}

/// Time `f` repeatedly for about `budget` (at least `min_samples` times,
/// after one discarded warm-up call) and return seconds per call. What `f`
/// returns goes through `black_box`, so the work is not optimised away.
pub fn sample<T>(budget: Duration, min_samples: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    std::hint::black_box(f());
    let mut out = Vec::new();
    let start = Instant::now();
    while out.len() < min_samples || start.elapsed() < budget {
        let t = Instant::now();
        std::hint::black_box(f());
        out.push(t.elapsed().as_secs_f64());
        if out.len() >= 200_000 {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 6.0);
        assert_eq!(quantile_sorted(&v, 0.9), 10.0);
        assert_eq!(quantile_sorted(&v, 1.0), 11.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn summary_keeps_the_whole_phase_value_and_the_parts_spread() {
        let s = Summary::over(102.0, &[110.0, 100.0, 95.0]);
        assert_eq!(s, Summary { value: 102.0, min: 95.0, max: 110.0, spread: 15.0 / 102.0 });
        assert_eq!(Summary::of_median(&[110.0, 100.0, 95.0]).value, 100.0);
        assert_eq!(Summary::of_median(&[]), Summary::default());
    }

    #[test]
    fn quartile_distance_is_pythons() {
        // statistics.quantiles([80, 79.8, 99.6, 80.1, 79.9, 80], n=4)
        // gives [79.875, 80.0, 84.975]: one deployment on the next tick.
        let d = quartile_distance(&[80.0, 79.8, 99.6, 80.1, 79.9, 80.0]);
        assert!((d - (84.975 - 79.875)).abs() < 1e-9, "{d}");
        // [1, 2, 3] gives [1, 2, 3]; [1, 2] gives [0.75, 1.5, 2.25];
        // 1..=10 gives [2.75, 5.5, 8.25].
        assert_eq!(quartile_distance(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quartile_distance(&[1.0, 2.0]), 1.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_distance(&ten), 5.5);
        assert_eq!(quartile_distance(&[7.0]), 0.0);
        assert_eq!(quartile_distance(&[]), 0.0);
    }

    #[test]
    fn timing_map_keeps_p10_low() {
        let t = Timing::of(&[1.0, 2.0, 4.0]).map(|s| 1.0 / s);
        assert_eq!((t.p10, t.median, t.p90, t.n), (0.25, 0.5, 1.0, 3));
    }

    #[test]
    fn sample_takes_at_least_the_minimum() {
        let mut calls = 0;
        let s = sample(Duration::ZERO, 5, || calls += 1);
        assert_eq!(s.len(), 5);
        assert_eq!(calls, 6);
    }
}
