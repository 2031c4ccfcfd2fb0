//! Order statistics and the two-commit comparison rule.
//!
//! Percentiles are nearest-rank; quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (its default "exclusive" method), so
//! the spread printed here is the spread any external check of the same
//! samples computes.

/// Nearest-rank percentile `p` (in `(0, 100]`) of `values`: the smallest
/// sample with at least `p`% of the samples at or below it. `None` when empty.
pub fn nearest_rank(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sorted = sorted(values);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sorted = sorted(values);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

/// First, second and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let sorted = sorted(values);
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative when the clamp raised j, as in Python.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn from_name(name: &str) -> Option<Better> {
        match name {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Whether `a` is strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Outcome of comparing one metric on one workload across two commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and its median
    /// moved by more than the base's own interquartile distance.
    Better,
    /// Neither better nor worse by more than the bound.
    Same,
    /// The change's median is worse than the base's by more than the bound.
    Worse,
    /// The base's own spread exceeds the bound, so "same" cannot be told
    /// apart from a regression.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Summary of one base-vs-head comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    pub base_quartiles: [f64; 3],
    pub head_quartiles: [f64; 3],
    /// Share of pairs `(base[i], head[i])` the head wins; ties count for
    /// neither side.
    pub pair_wins: f64,
    pub verdict: Verdict,
}

/// Applies the comparison rule to the repetitions of one metric: pairs are
/// formed by repetition index, `bound` is the share of the base median the
/// head may lose before it counts as worse. `None` with fewer than two
/// samples on either side.
pub fn compare(base: &[f64], head: &[f64], better: Better, bound: f64) -> Option<Comparison> {
    let base_quartiles = quartiles(base)?;
    let head_quartiles = quartiles(head)?;
    let (base_med, head_med) = (median(base)?, median(head)?);
    let pairs = base.len().min(head.len());
    let wins = base
        .iter()
        .zip(head)
        .filter(|(b, h)| better.beats(**h, **b))
        .count();
    let pair_wins = wins as f64 / pairs as f64;
    let base_iqr = base_quartiles[2] - base_quartiles[0];
    let all_head_beat_all_base = head
        .iter()
        .all(|h| base.iter().all(|b| better.beats(*h, *b)));
    let moved_beyond_spread =
        better.beats(head_med, base_med) && (head_med - base_med).abs() > base_iqr;
    let allowance = bound * base_med.abs();
    let worse = match better {
        Better::Lower => head_med > base_med + allowance,
        Better::Higher => head_med < base_med - allowance,
    };
    let verdict = if pair_wins >= 0.9 && moved_beyond_spread {
        Verdict::Better
    } else if base_iqr > allowance && !all_head_beat_all_base {
        Verdict::Unresolved
    } else if worse {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    Some(Comparison {
        base_quartiles,
        head_quartiles,
        pair_wins,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&v, 5.0), Some(15.0));
        assert_eq!(nearest_rank(&v, 30.0), Some(20.0));
        assert_eq!(nearest_rank(&v, 40.0), Some(20.0));
        assert_eq!(nearest_rank(&v, 50.0), Some(35.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(50.0));
        // Unsorted input, p99 of 1..=100 is 99.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 3, 7, 8, 20], n=4) == [2.0, 7.0, 14.0]
        assert_eq!(
            quartiles(&[20.0, 1.0, 8.0, 3.0, 7.0]),
            Some([2.0, 7.0, 14.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
        let rel = relative_iqr(&ten).unwrap();
        assert!((rel - 5.5 / 5.5).abs() < 1e-12);
    }

    fn around(center: f64, n: usize) -> Vec<f64> {
        // Deterministic ±0.5% jitter.
        (0..n)
            .map(|i| center * (1.0 + 0.005 * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn compare_verdicts_on_synthetic_samples() {
        let base = around(100.0, 10);
        // 20% faster on every pair: better for a lower-is-better metric.
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let c = compare(&base, &faster, Better::Lower, 0.10).unwrap();
        assert_eq!(c.verdict, Verdict::Better);
        assert_eq!(c.pair_wins, 1.0);
        // The same samples read as a throughput are 20% worse.
        assert_eq!(
            compare(&base, &faster, Better::Higher, 0.10)
                .unwrap()
                .verdict,
            Verdict::Worse
        );
        // Identical samples: no pair is won, nothing moved.
        let same = compare(&base, &base, Better::Lower, 0.10).unwrap();
        assert_eq!(same.verdict, Verdict::Same);
        assert_eq!(same.pair_wins, 0.0);
        // 5% slower stays inside a 10% bound.
        let slower: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        assert_eq!(
            compare(&base, &slower, Better::Lower, 0.10)
                .unwrap()
                .verdict,
            Verdict::Same
        );
        // A base whose spread exceeds the bound cannot resolve a small move...
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 70.0 } else { 130.0 })
            .collect();
        assert_eq!(
            compare(&noisy, &slower, Better::Lower, 0.10)
                .unwrap()
                .verdict,
            Verdict::Unresolved
        );
        // ...unless every head run beats every base run: then it is at
        // least not a regression, and a gain once the medians differ by
        // more than the base's interquartile distance.
        let beyond_all: Vec<f64> = base.iter().map(|v| v * 0.6).collect();
        assert_eq!(
            compare(&noisy, &beyond_all, Better::Lower, 0.10)
                .unwrap()
                .verdict,
            Verdict::Same
        );
        let far: Vec<f64> = base.iter().map(|v| v * 0.3).collect();
        assert_eq!(
            compare(&noisy, &far, Better::Lower, 0.10).unwrap().verdict,
            Verdict::Better
        );
        assert!(compare(&[1.0], &base, Better::Lower, 0.1).is_none());
    }
}
