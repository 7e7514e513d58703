//! Order statistics for the benchmark's timings and its comparison rule.

/// Nearest-rank quantile of ascending `sorted` samples: the sample at
/// 1-based rank `ceil(q × n)`, so at least a `q` share of the samples lie
/// at or below it. Returns `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    rank(sorted.len(), q).map(|r| sorted[r - 1])
}

/// How many of `n` samples rank above the nearest-rank quantile `q`: the
/// tail a percentile is read from.
pub fn beyond_nearest_rank(n: usize, q: f64) -> usize {
    rank(n, q).map_or(0, |r| n - r)
}

fn rank(n: usize, q: f64) -> Option<usize> {
    (n > 0).then(|| ((q * n as f64).ceil() as usize).clamp(1, n))
}

/// First quartile, median and third quartile of `values`, interpolated
/// the way Python's `statistics.quantiles(values, n=4)` does by default
/// (the "exclusive" method), so spreads computed here match the ones
/// external tooling computes from the same runs. A single value is its
/// own quartiles. Returns `None` for an empty slice.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => return None,
        1 => return Some([data[0]; 3]),
        _ => {}
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Length of the union of half-open `[start, end)` intervals.
pub fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        if end <= start {
            continue;
        }
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&v, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(beyond_nearest_rank(10, 0.9), 1);
        assert_eq!(beyond_nearest_rank(0, 0.9), 0);
    }

    #[test]
    fn p90_of_120_samples_has_12_beyond_it() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.9), Some(108.0));
        assert_eq!(beyond_nearest_rank(v.len(), 0.9), 12);
    }

    #[test]
    fn three_equal_clusters_keep_p50_and_p90_inside_clusters() {
        // 40 fast, 40 medium, 40 slow ops: the median is a medium op and
        // p90 a slow one, never an average across a cluster boundary.
        let mut v = vec![1.0; 40];
        v.extend(vec![2.0; 40]);
        v.extend(vec![3.0; 40]);
        assert_eq!(nearest_rank(&v, 0.5), Some(2.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(3.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn union_merges_overlaps_and_skips_empty_intervals() {
        let mut v = vec![(5, 9), (0, 3), (2, 4), (8, 10), (7, 7)];
        assert_eq!(union_length(&mut v), 4 + 5);
        assert_eq!(union_length(&mut []), 0);
    }
}
