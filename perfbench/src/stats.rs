//! Small statistics helpers: means, medians, percentiles, the tail-percentile
//! rule, and process CPU time from `/proc/self/stat`.

/// Percentile ladder the tail is picked from, highest first. It stops
/// at p99: on the 2-vCPU host this was tuned on, p99.9 of the
/// sub-millisecond `service_churn` submit calls is set by
/// multi-millisecond host stalls, and its spread across runs (0.27 to 0.78 of the median) was
/// wider than any regression bound the benchmark could hold.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest ladder percentile that leaves at least ten samples above
/// its rank in a sample of `n`; 50 when even p75 does not.
pub fn tail_level(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= 10
        })
        .unwrap_or(50.0)
}

/// A latency-style distribution: median and tail at a fixed level.
#[derive(Clone, Copy, Debug)]
pub struct Dist {
    pub p50: f64,
    pub tail: f64,
    pub tail_level: f64,
}

/// Median and the tail at `level` (chosen with [`tail_level`]).
pub fn dist(mut samples: Vec<f64>, level: f64) -> Dist {
    samples.sort_by(f64::total_cmp);
    Dist {
        p50: percentile(&samples, 50.0),
        tail: percentile(&samples, level),
        tail_level: level,
    }
}

/// User and system CPU seconds this process has used so far, read from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s — the
/// Linux `USER_HZ`). Zeros where the file is unavailable.
pub fn cpu_times() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields are counted after its closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return (0.0, 0.0);
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so fields 14/15 are at 11/12.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 100.0
    };
    (tick(11), tick(12))
}
