//! Order statistics and latency accounting shared by every workload.

/// Samples needed beyond the tail percentile for it to be reported as
/// a tail at all.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank quantile: the smallest sample with at least a `q` share
/// of the samples at or below it. `q` is clamped to `[0, 1]`; an empty
/// slice yields NaN so a missing measurement can never read as zero.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    // The slack keeps a rank such as (1 - 10/37) * 37 from rounding up
    // past the integer it denotes.
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64 - 1e-9).ceil() as usize;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The tail percentile for a run expected to collect `expected`
/// samples: the highest with [`TAIL_SAMPLES_BEYOND`] samples beyond it.
/// Below `2 * TAIL_SAMPLES_BEYOND` expected samples no percentile above
/// the median has that many beyond it, and the tail is the maximum.
/// Deriving it from the run length, not the count a run happened to
/// collect, keeps the percentile fixed from run to run.
pub fn tail_quantile(expected: f64) -> f64 {
    let beyond = TAIL_SAMPLES_BEYOND as f64;
    if expected >= 2.0 * beyond {
        1.0 - beyond / expected
    } else {
        1.0
    }
}

/// Median and tail of one latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The tail percentile, as a share.
    pub tail_q: f64,
    /// The value at `tail_q`.
    pub tail: f64,
}

/// Summarizes a latency sample with its tail at `tail_q`.
pub fn summarize(samples: &[f64], tail_q: f64) -> Summary {
    Summary {
        n: samples.len(),
        p50: median(samples),
        tail_q,
        tail: quantile(samples, tail_q),
    }
}

/// What is left of `total` once the named `parts` are taken out, as an
/// absolute amount and as a percentage of `total`. A negative residual
/// means the parts overlap (parallel work counted twice).
pub fn residual(total: f64, parts: &[f64]) -> (f64, f64) {
    let left = total - parts.iter().sum::<f64>();
    (left, 100.0 * left / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.1), 1.0);
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.55), 6.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in [20usize, 37, 100, 250, 1000] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let s = summarize(&xs, tail_quantile(n as f64));
            let beyond = xs.iter().filter(|&&x| x > s.tail).count();
            assert_eq!(beyond, TAIL_SAMPLES_BEYOND, "n = {n}");
            assert!(s.tail >= s.p50);
        }
        // Too few samples for a percentile with ten beyond it: the max.
        let xs = [4.0, 1.0, 9.0, 2.0];
        let s = summarize(&xs, tail_quantile(19.0));
        assert_eq!((s.tail_q, s.tail, s.p50), (1.0, 9.0, 2.0));
    }

    #[test]
    fn residual_is_what_the_parts_leave() {
        assert_eq!(residual(100.0, &[10.0, 30.0]), (60.0, 60.0));
        assert_eq!(residual(80.0, &[80.0]), (0.0, 0.0));
        let (left, pct) = residual(50.0, &[40.0, 20.0]);
        assert_eq!((left, pct), (-10.0, -20.0));
    }
}
