//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice; `p` in (0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 3] = [99.0, 95.0, 90.0];

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it, so the reported tail is never one lucky or unlucky request.
/// Falls back to the lowest rung when even that has fewer.
pub fn tail_percentile(samples: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(TAIL_LADDER[TAIL_LADDER.len() - 1])
}

/// Median, tail and count of one set of latencies, in the unit they came in.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_p: f64,
    pub samples: u64,
}

pub fn summarize(samples: &mut [f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    samples.sort_by(f64::total_cmp);
    let tail_p = tail_percentile(samples.len());
    Summary {
        p50: median(samples),
        tail: percentile(samples, tail_p),
        tail_p,
        samples: samples.len() as u64,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// exclusive method), so spreads computed here match the driver's.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some((q(1), q(2), q(3)))
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Median of unsorted values, averaging the middle two of an even count (as
/// Python's `statistics.median` does), for medians over a handful of runs.
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Slices a window is cut into to find its quiet quarter.
const SLICES: usize = 20;
/// Fewest samples a slice may hold; a window with fewer is not sliced.
const SLICE_MIN: usize = 5;

/// The quarter of a window in which the host interfered least, as one figure.
/// The window is cut into twenty consecutive slices of equally many samples,
/// `of_slice` turns each slice (its first index and length) into a figure,
/// and the figure a quarter of the way up from the best is returned: the
/// fifth lowest, or with `higher_is_better` the fifth highest.
///
/// Why not the figure of the whole window: on a shared host everything runs
/// 1.2 to 2 times slower for a few seconds at a time, then as fast as before.
/// Interference only ever slows, so the slices it missed show what the
/// program does, and a quarter of the way up (not the very best) leaves room
/// for a slice that was lucky. Measured over ten runs in a noisy half hour:
/// the whole-window median scattered by 18 to 22 %, this by 6 to 13 %.
fn quiet_quartile(
    samples: usize,
    higher_is_better: bool,
    of_slice: impl Fn(usize, usize) -> f64,
) -> Option<f64> {
    let per = samples / SLICES;
    if per < SLICE_MIN {
        return None;
    }
    let mut figures: Vec<f64> = (0..SLICES).map(|i| of_slice(i * per, per)).collect();
    figures.sort_by(f64::total_cmp);
    if higher_is_better {
        figures.reverse();
    }
    Some(figures[SLICES / 4 - 1])
}

/// Median of a window's samples (given in the order they were taken) in its
/// quiet quarter: the lower quartile of twenty slice medians. Fewer than a
/// hundred samples give their plain median. Tail and count are the whole
/// window's; the samples are left sorted.
pub fn summarize_quiet(in_order: &mut [f64]) -> Summary {
    let quiet = quiet_quartile(in_order.len(), false, |from, len| {
        let mut slice = in_order[from..from + len].to_vec();
        slice.sort_by(f64::total_cmp);
        median(&slice)
    });
    let whole = summarize(in_order);
    Summary {
        p50: quiet.unwrap_or(whole.p50),
        ..whole
    }
}

/// Completions per second in a window's quiet quarter: the upper quartile of
/// twenty slice rates, each slice holding equally many completions. `done_s`
/// is every completion's time since the window opened, ascending. Fewer than
/// a hundred completions give completions over the time of the last.
pub fn quiet_rate(done_s: &[f64]) -> f64 {
    quiet_quartile(done_s.len(), true, |from, len| {
        let opened = if from == 0 { 0.0 } else { done_s[from - 1] };
        len as f64 / (done_s[from + len - 1] - opened)
    })
    .unwrap_or_else(|| done_s.last().map_or(0.0, |end| done_s.len() as f64 / end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_picker_keeps_ten_samples_beyond() {
        // p99 needs 1000 samples to leave ten beyond it, p95 needs 200,
        // p90 needs 100.
        assert_eq!(tail_percentile(100_000), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(12), 90.0);
    }

    #[test]
    fn summary_reports_the_picked_tail() {
        let mut v: Vec<f64> = (1..=250).rev().map(f64::from).collect();
        let s = summarize(&mut v);
        assert_eq!(s.samples, 250);
        assert_eq!(s.p50, 125.0);
        assert_eq!(s.tail_p, 95.0);
        assert_eq!(s.tail, 238.0);
    }

    #[test]
    fn the_quiet_quarter_shrugs_off_a_slow_spell() {
        // 2000 requests of 1 ms; the middle 1000 ran twice as slow. Half the
        // window is disturbed, and the figures are those of the other half.
        let slow = |i: usize| (500..1500).contains(&i);
        let mut latency: Vec<f64> = (0..2000).map(|i| if slow(i) { 2.0 } else { 1.0 }).collect();
        let mut clock = 0.0;
        let done: Vec<f64> = latency
            .iter()
            .map(|ms| {
                clock += ms * 1e-3;
                clock
            })
            .collect();
        let s = summarize_quiet(&mut latency);
        assert_eq!((s.p50, s.tail, s.samples), (1.0, 2.0, 2000));
        assert!((quiet_rate(&done) - 1000.0).abs() < 1e-6);
        // Too few to slice: the plain median, completions over the last time.
        assert_eq!(summarize_quiet(&mut [3.0, 1.0, 2.0]).p50, 2.0);
        assert_eq!(quiet_rate(&[0.5, 1.0, 2.0]), 1.5);
        assert_eq!(quiet_rate(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        assert_eq!(quartile_spread(&v), Some(1.0));
        assert_eq!(median_of(&v), 5.5);
        assert_eq!(quartiles(&[3.0]), None);
    }
}
