//! Estimators: nearest-rank percentiles, medians, and the fast-quarter
//! means every workload's end-to-end timings are built from.
//!
//! The hosts this runs on are not quiet, and their noise is one-sided: a
//! vCPU alternates between two speeds about a quarter apart every few
//! seconds, memory-bound code drifts by ± 20 % over tens of seconds,
//! anything through the kernel swings more — all of it makes the program
//! slower than it is, none of it faster. A median over a run's samples
//! flips between the two speeds depending on which the run saw more of; a
//! mean follows every stall. So a run's samples are cut into blocks that
//! follow each other in time and are spread over the whole run, each block
//! gives a median (robust to stalls inside the block), and the mean of the
//! fastest quarter of the blocks — what the program does when the host
//! leaves it alone — is the run's value. Over 40 runs on a bad day it had
//! the smallest run-to-run spread of a dozen candidates (13 % on average
//! where the interquartile mean had 18 % and the median 19 %).

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; 0.0 for
/// an empty one. Nearest rank returns a value that was measured, never an
/// interpolation between two.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median with the usual mean-of-the-middle-two for even sizes.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One timed segment of equal work.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Operations completed in the segment.
    pub ops: u64,
    /// Wall time of the segment in seconds.
    pub seconds: f64,
}

fn rates(segments: &[Segment]) -> Vec<f64> {
    segments
        .iter()
        .filter(|s| s.seconds > 0.0)
        .map(|s| s.ops as f64 / s.seconds)
        .collect()
}

/// Mean of the fastest quarter of `values` (at least one of them):
/// the lowest when lower is faster, the highest when higher is.
pub fn fast_quarter(values: &[f64], higher_is_faster: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_faster {
        v.reverse();
    }
    let take = (v.len() / 4).max(1).min(v.len());
    if take == 0 {
        return 0.0;
    }
    v[..take].iter().sum::<f64>() / take as f64
}

/// Throughput: the fast-quarter mean of per-segment rates.
pub fn fast_rate(segments: &[Segment]) -> f64 {
    fast_quarter(&rates(segments), true)
}

/// Samples per block: `largest`, or fewer (down to 5) when that is what
/// it takes to cut the samples into 40 blocks — a slow operation sampled a
/// hundred times still gives the fast quarter several blocks to average.
pub fn block_size(samples: usize, largest: usize) -> usize {
    (samples / 40).clamp(5.min(largest.max(1)), largest.max(1))
}

/// The medians of consecutive blocks of [`block_size`] samples, in order.
pub fn block_medians(samples: &[f64], largest: usize) -> Vec<f64> {
    samples.chunks(block_size(samples.len(), largest)).map(median).collect()
}

/// A timing's typical value: the fast-quarter mean of its block medians.
pub fn fast_median(samples: &[f64], largest_block: usize) -> f64 {
    fast_quarter(&block_medians(samples, largest_block), false)
}

/// Inter-quartile range of per-segment rates as a share of their median —
/// the within-run noise the result file records beside each throughput.
pub fn segment_spread(segments: &[Segment]) -> f64 {
    spread(&rates(segments))
}

/// `(q3 - q1) / median` with Python's `statistics.quantiles(n=4)` (exclusive
/// method) quartiles, the spread the acceptance driver computes over runs.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: f64| {
        let pos = k * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (q(3.0) - q(1.0)) / med.abs()
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
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Order of the input does not matter, and small samples clamp.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 99.0), 9.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fast_quarter_takes_the_right_end() {
        let v = [8.0, 1.0, 5.0, 2.0, 7.0, 3.0, 6.0, 4.0];
        assert_eq!(fast_quarter(&v, false), 1.5);
        assert_eq!(fast_quarter(&v, true), 7.5);
        assert_eq!(fast_quarter(&[5.0, 1.0, 3.0], false), 1.0);
        assert_eq!(fast_quarter(&[], false), 0.0);
    }

    #[test]
    fn fast_rate_ignores_stalled_segments_but_follows_a_shift() {
        let mut segs: Vec<Segment> = (0..14)
            .map(|_| Segment {
                ops: 1000,
                seconds: 1.0,
            })
            .collect();
        segs.push(Segment {
            ops: 1000,
            seconds: 10.0,
        });
        segs.push(Segment {
            ops: 1000,
            seconds: 25.0,
        });
        assert_eq!(fast_rate(&segs), 1000.0);
        // The mean over total time would have reported 327 ops/s.
        let total: f64 = segs.iter().map(|s| s.seconds).sum();
        assert!(16_000.0 / total < 330.0);
        // A real slowdown of every segment moves it in full.
        let slow: Vec<Segment> = (0..16)
            .map(|_| Segment {
                ops: 1000,
                seconds: 1.25,
            })
            .collect();
        assert_eq!(fast_rate(&slow), 800.0);
        assert_eq!(fast_rate(&[]), 0.0);
    }

    #[test]
    fn fast_median_does_not_care_how_much_of_the_run_was_slow() {
        // 60 % of the blocks at 10 and 40 % at 13, or 30 % and 70 %: the
        // same program on a host that was slow for more of the second run.
        let mut a = vec![10.0; 600];
        a.extend(vec![13.0; 400]);
        let mut b = vec![10.0; 300];
        b.extend(vec![13.0; 700]);
        assert_eq!(fast_median(&a, 20), 10.0);
        assert_eq!(fast_median(&b, 20), 10.0);
        // One wild sample inside a block does not move its median.
        let mut spiky = vec![10.0; 1000];
        spiky[500] = 1e6;
        assert_eq!(fast_median(&spiky, 20), 10.0);
        // A real slowdown of everything moves it in full.
        assert_eq!(fast_median(&vec![12.5; 1000], 20), 12.5);
        assert_eq!(fast_median(&[], 20), 0.0);
    }

    #[test]
    fn blocks_shrink_when_samples_are_few() {
        assert_eq!(block_size(4000, 20), 20);
        assert_eq!(block_size(400, 20), 10);
        assert_eq!(block_size(160, 20), 5);
        assert_eq!(block_size(3, 20), 5);
        assert_eq!(block_medians(&[1.0; 160], 20).len(), 32);
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
