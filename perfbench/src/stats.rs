//! Order statistics, drift over a window and span self time.
//!
//! Every rule here is a pure function over numbers, so the unit tests at
//! the bottom pin the benchmark's arithmetic independently of any
//! measurement.

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// A latency (or any per-operation) sample set, reduced to the numbers
/// the report prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail value at [`Summary::tail_pct`].
    pub tail: f64,
    /// The percentile actually reported as the tail: the one asked for,
    /// or lower when the sample cannot leave [`MIN_BEYOND`] beyond it.
    pub tail_pct: f64,
    /// Interquartile range as a share of the median.
    pub spread: f64,
}

/// Nearest-rank percentile of an ascending slice (`0 < pct <= 100`).
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile not above `want` that leaves at least
/// [`MIN_BEYOND`] of `n` samples strictly beyond its nearest rank, or
/// `None` when even the median cannot.
pub fn supported_pct(n: usize, want: f64) -> Option<f64> {
    if n < 2 * MIN_BEYOND {
        return None;
    }
    let beyond = |pct: f64| n - ((pct / 100.0) * n as f64).ceil() as usize;
    if beyond(want) >= MIN_BEYOND {
        return Some(want);
    }
    // The largest rank with MIN_BEYOND samples after it is n - MIN_BEYOND.
    let pct = 100.0 * (n - MIN_BEYOND) as f64 / n as f64;
    debug_assert!(beyond(pct) >= MIN_BEYOND);
    Some(pct)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: usize| {
        let m = (n + 1) as f64 * i as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Interquartile range over the median (0 for fewer than two values).
pub fn rel_iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Median of a sample (the mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Reduces `samples` to median and supported tail; `None` when there are
/// too few samples for a median with [`MIN_BEYOND`] beyond it.
pub fn summarize(samples: &[f64], want_tail: f64) -> Option<Summary> {
    let tail_pct = supported_pct(samples.len(), want_tail)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        p50: nearest_rank(&sorted, 50.0),
        tail: nearest_rank(&sorted, tail_pct),
        tail_pct,
        spread: rel_iqr(&sorted),
    })
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How much slower the last quarter of a sequence of per-operation times
/// runs than its first quarter: the ratio of their medians, minus 1 (0
/// for fewer than four values). A window whose operations get dearer as
/// state accumulates shows a positive drift.
pub fn drift(in_order: &[f64]) -> f64 {
    let q = in_order.len() / 4;
    if q == 0 {
        return 0.0;
    }
    median(&in_order[in_order.len() - q..]) / median(&in_order[..q]) - 1.0
}

/// A closed span: `[start, end)` in any consistent time unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Start.
    pub start: f64,
    /// End.
    pub end: f64,
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover. Children may overlap each other (parallel children) and
/// may stick out of the parent; only their union inside the parent is
/// subtracted.
pub fn self_time(span: Interval, children: &[Interval]) -> f64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval {
            start: c.start.max(span.start),
            end: c.end.min(span.end),
        })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut covered = 0.0;
    let mut cur: Option<Interval> = None;
    for c in clipped {
        match &mut cur {
            Some(open) if c.start <= open.end => open.end = open.end.max(c.end),
            _ => {
                if let Some(open) = cur {
                    covered += open.end - open.start;
                }
                cur = Some(c);
            }
        }
    }
    if let Some(open) = cur {
        covered += open.end - open.start;
    }
    (span.end - span.start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 200 samples: p95's rank is 190, leaving exactly 10 beyond.
        assert_eq!(supported_pct(200, 95.0), Some(95.0));
        // 199 samples: p95's rank is 190, leaving 9; fall back to the
        // rank that leaves 10, i.e. 189/199.
        let pct = supported_pct(199, 95.0).unwrap();
        assert!((pct - 100.0 * 189.0 / 199.0).abs() < 1e-12);
        assert_eq!(199 - ((pct / 100.0) * 199.0).ceil() as usize, 10);
        // p99 needs 1000 samples.
        assert_eq!(supported_pct(1000, 99.0), Some(99.0));
        assert!(supported_pct(999, 99.0).unwrap() < 99.0);
        // Fewer than 20 samples cannot support even the median.
        assert_eq!(supported_pct(19, 50.0), None);
        assert_eq!(supported_pct(20, 50.0), Some(50.0));
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&samples, 99.0).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.tail, 90.0);
        assert!(summarize(&samples[..10], 50.0).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert!((rel_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn drift_compares_the_outer_quarters() {
        let flat = [5.0; 12];
        assert_eq!(drift(&flat), 0.0);
        // First quarter 1, 2, 3 (median 2); last quarter 3, 4, 5 (median 4).
        let rising = [1.0, 2.0, 3.0, 9.0, 0.0, 9.0, 0.0, 9.0, 0.0, 3.0, 4.0, 5.0];
        assert_eq!(drift(&rising), 1.0);
        assert_eq!(drift(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = Interval {
            start: 0.0,
            end: 100.0,
        };
        let iv = |start, end| Interval { start, end };
        assert_eq!(self_time(span, &[]), 100.0);
        assert_eq!(self_time(span, &[iv(10.0, 20.0), iv(30.0, 50.0)]), 70.0);
        // Overlapping (parallel) children count once.
        assert_eq!(self_time(span, &[iv(10.0, 40.0), iv(20.0, 50.0)]), 60.0);
        // A child sticking out is clipped to the parent.
        assert_eq!(self_time(span, &[iv(-10.0, 10.0), iv(90.0, 120.0)]), 80.0);
        // Nested children are covered by their ancestor sibling.
        assert_eq!(self_time(span, &[iv(0.0, 60.0), iv(10.0, 20.0)]), 40.0);
    }
}
