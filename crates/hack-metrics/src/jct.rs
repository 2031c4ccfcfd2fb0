//! Job Completion Time decomposition and aggregate statistics.

use serde::Serialize;

/// Per-request JCT decomposition (all values in seconds).
///
/// The stages match Fig. 10 of the paper; `queueing` captures time spent waiting for a
/// prefill/decode slot or for the NIC, which is part of JCT but not of any stage bar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct JctBreakdown {
    /// Prefill compute time.
    pub prefill: f64,
    /// KV quantization/encoding time.
    pub quantization: f64,
    /// KV transmission time (including NIC contention).
    pub communication: f64,
    /// Dequantization (baselines) or approximation (HACK) time.
    pub dequant_or_approx: f64,
    /// Decode time.
    pub decode: f64,
    /// Queueing / waiting time not attributable to any stage.
    pub queueing: f64,
}

impl JctBreakdown {
    /// Total JCT.
    pub fn total(&self) -> f64 {
        self.prefill
            + self.quantization
            + self.communication
            + self.dequant_or_approx
            + self.decode
            + self.queueing
    }

    /// Per-stage ratios `stage / JCT` (the quantity averaged in Figs. 1–4).
    pub fn ratios(&self) -> StageRatios {
        let total = self.total().max(f64::MIN_POSITIVE);
        StageRatios {
            prefill: self.prefill / total,
            quantization: self.quantization / total,
            communication: self.communication / total,
            dequant_or_approx: self.dequant_or_approx / total,
            decode: self.decode / total,
            queueing: self.queueing / total,
        }
    }
}

/// Stage-to-JCT ratios of one request (or the average over many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct StageRatios {
    /// Prefill / JCT.
    pub prefill: f64,
    /// Quantization / JCT.
    pub quantization: f64,
    /// Communication / JCT.
    pub communication: f64,
    /// Dequantization-or-approximation / JCT.
    pub dequant_or_approx: f64,
    /// Decode / JCT.
    pub decode: f64,
    /// Queueing / JCT.
    pub queueing: f64,
}

impl StageRatios {
    /// Sum of all ratios (1.0 for a single request's own ratios).
    pub fn sum(&self) -> f64 {
        self.prefill
            + self.quantization
            + self.communication
            + self.dequant_or_approx
            + self.decode
            + self.queueing
    }
}

/// Average time ratios over many requests, computed the way the paper does:
/// `1/N · Σ_i time_i / JCT_i` per stage (§2.1).
pub fn average_ratios(breakdowns: &[JctBreakdown]) -> StageRatios {
    if breakdowns.is_empty() {
        return StageRatios::default();
    }
    let n = breakdowns.len() as f64;
    let mut acc = StageRatios::default();
    for b in breakdowns {
        let r = b.ratios();
        acc.prefill += r.prefill;
        acc.quantization += r.quantization;
        acc.communication += r.communication;
        acc.dequant_or_approx += r.dequant_or_approx;
        acc.decode += r.decode;
        acc.queueing += r.queueing;
    }
    StageRatios {
        prefill: acc.prefill / n,
        quantization: acc.quantization / n,
        communication: acc.communication / n,
        dequant_or_approx: acc.dequant_or_approx / n,
        decode: acc.decode / n,
        queueing: acc.queueing / n,
    }
}

/// Aggregate JCT statistics over a set of requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct JctStats {
    /// Number of requests.
    pub count: usize,
    /// Mean JCT in seconds.
    pub mean: f64,
    /// Median (p50) JCT.
    pub p50: f64,
    /// 95th-percentile JCT.
    pub p95: f64,
    /// 99th-percentile JCT.
    pub p99: f64,
    /// Maximum JCT.
    pub max: f64,
    /// Mean per-stage breakdown (seconds, not ratios).
    pub mean_breakdown: JctBreakdown,
}

impl JctStats {
    /// Computes statistics from per-request breakdowns.
    pub fn from_breakdowns(breakdowns: &[JctBreakdown]) -> JctStats {
        if breakdowns.is_empty() {
            return JctStats::default();
        }
        let mut totals: Vec<f64> = breakdowns.iter().map(|b| b.total()).collect();
        totals.sort_by(f64::total_cmp);
        let n = breakdowns.len();
        let mean = totals.iter().sum::<f64>() / n as f64;
        let pct = |q: f64| totals[(((n - 1) as f64) * q).round() as usize];
        let mut mb = JctBreakdown::default();
        for b in breakdowns {
            mb.prefill += b.prefill;
            mb.quantization += b.quantization;
            mb.communication += b.communication;
            mb.dequant_or_approx += b.dequant_or_approx;
            mb.decode += b.decode;
            mb.queueing += b.queueing;
        }
        let nf = n as f64;
        mb.prefill /= nf;
        mb.quantization /= nf;
        mb.communication /= nf;
        mb.dequant_or_approx /= nf;
        mb.decode /= nf;
        mb.queueing /= nf;
        JctStats {
            count: n,
            mean,
            p50: pct(0.5),
            p95: pct(0.95),
            p99: pct(0.99),
            max: *totals.last().unwrap(),
            mean_breakdown: mb,
        }
    }

    /// Relative reduction in mean JCT versus another (baseline) set of statistics:
    /// `1 - self.mean / other.mean`.
    pub fn reduction_vs(&self, other: &JctStats) -> f64 {
        if other.mean <= 0.0 {
            return 0.0;
        }
        1.0 - self.mean / other.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(prefill: f64, comm: f64, decode: f64) -> JctBreakdown {
        JctBreakdown {
            prefill,
            quantization: 0.1,
            communication: comm,
            dequant_or_approx: 0.2,
            decode,
            queueing: 0.5,
        }
    }

    #[test]
    fn total_and_ratios_sum_to_one() {
        let b = sample(2.0, 1.0, 5.0);
        assert!((b.total() - 8.8).abs() < 1e-9);
        assert!((b.ratios().sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn average_ratios_matches_manual_computation() {
        let a = sample(1.0, 1.0, 2.0); // total 4.8
        let b = sample(2.0, 0.0, 2.0); // total 4.8
        let avg = average_ratios(&[a, b]);
        let expect_prefill = (1.0 / 4.8 + 2.0 / 4.8) / 2.0;
        assert!((avg.prefill - expect_prefill).abs() < 1e-9);
        let expect_comm = (1.0 / 4.8 + 0.0) / 2.0;
        assert!((avg.communication - expect_comm).abs() < 1e-9);
    }

    #[test]
    fn stats_percentiles_are_ordered() {
        let breakdowns: Vec<JctBreakdown> = (1..=100).map(|i| sample(i as f64, 0.0, 0.0)).collect();
        let stats = JctStats::from_breakdowns(&breakdowns);
        assert_eq!(stats.count, 100);
        assert!(stats.p50 <= stats.p95);
        assert!(stats.p95 <= stats.p99);
        assert!(stats.p99 <= stats.max);
        assert!(stats.mean > 0.0);
        assert!((stats.mean_breakdown.queueing - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reduction_vs_baseline() {
        let fast = JctStats {
            mean: 10.0,
            ..Default::default()
        };
        let slow = JctStats {
            mean: 40.0,
            ..Default::default()
        };
        assert!((fast.reduction_vs(&slow) - 0.75).abs() < 1e-9);
        assert_eq!(fast.reduction_vs(&JctStats::default()), 0.0);
    }

    #[test]
    fn empty_inputs_do_not_panic() {
        assert_eq!(average_ratios(&[]), StageRatios::default());
        assert_eq!(JctStats::from_breakdowns(&[]), JctStats::default());
    }
}
