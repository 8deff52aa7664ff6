//! Order statistics shared by the runner, the child processes and the
//! steadiness tool's conventions.
//!
//! Percentiles use the nearest-rank rule on sorted samples; a tail
//! percentile is only reported when at least [`MIN_TAIL_SAMPLES`]
//! samples lie strictly beyond it. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default `exclusive`
//! method), so spreads computed here and by a Python reader agree.

/// Samples that must lie strictly beyond a tail percentile for it to
/// mean something.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Sorts a copy of `values` ascending (total order on floats).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of quantile `q` (0 < q <= 1) among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted` samples, `None` when
/// there are none.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// True when a `q` percentile of `n` samples has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
pub fn tail_is_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_TAIL_SAMPLES
}

/// Median of unsorted samples (mean of the middle pair for even
/// counts), `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them; `None` for fewer
/// than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median (the spread the
/// benchmark's bounds are set against).
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}
