//! Dataset length models (Table 4 of the paper).

use hack_tensor::DetRng;
use serde::Serialize;

/// Average / minimum / maximum token-length statistics of one side (input or output)
/// of a dataset, as reported in Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LengthStats {
    /// Average length in tokens.
    pub avg: usize,
    /// Minimum length in tokens.
    pub min: usize,
    /// Maximum length in tokens.
    pub max: usize,
}

impl LengthStats {
    /// Samples a length from a log-normal distribution fitted to (avg, min, max) and
    /// clamped to `[min, max]`.
    ///
    /// A log-normal captures the long right tail of real prompt-length distributions;
    /// `sigma` is chosen so that the `min`–`max` span corresponds to roughly ±3 sigma
    /// in log space, and `mu` is set so the distribution mean equals `avg`.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        self.sampler().sample(rng)
    }

    /// The fitted distribution [`Self::sample`] draws from. Fit it once to
    /// draw many lengths without a logarithm per draw.
    pub(crate) fn sampler(&self) -> LengthSampler {
        let span = (self.max as f64 / self.min.max(1) as f64).ln();
        let sigma = (span / 6.0).clamp(0.05, 1.5);
        // Mean of lognormal = exp(mu + sigma^2/2)  =>  mu = ln(avg) - sigma^2/2.
        let mu = (self.avg as f64).ln() - sigma * sigma / 2.0;
        LengthSampler {
            min: self.min,
            max: self.max,
            mu,
            sigma,
        }
    }
}

/// The log-normal fit of one [`LengthStats`] (see [`LengthStats::sample`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LengthSampler {
    min: usize,
    max: usize,
    mu: f64,
    sigma: f64,
}

impl LengthSampler {
    /// Draws one length in `[min, max]`; degenerate statistics
    /// (`min == max`) return `min` without drawing.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        if self.min == self.max {
            return self.min;
        }
        let sampled = rng.log_normal(self.mu, self.sigma).round() as usize;
        sampled.clamp(self.min, self.max)
    }
}

/// The fitted input and output length distributions of one dataset under a
/// context-window cap (see [`Dataset::sample_lengths`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DatasetSampler {
    input: LengthSampler,
    output: LengthSampler,
    max_context: usize,
}

impl DatasetSampler {
    /// Samples one (input_len, output_len) pair. Inputs are capped at the
    /// context window minus the sampled output length (the Falcon-180B
    /// 2K-context case of §7.1).
    pub fn sample(&self, rng: &mut DetRng) -> (usize, usize) {
        let output = self.output.sample(rng).max(1);
        let input_cap = self.max_context.saturating_sub(output).max(1);
        let input = self.input.sample(rng).min(input_cap).max(1);
        (input, output)
    }
}

/// The four datasets of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Dataset {
    /// IMDb genre classification — short prompts, short outputs.
    Imdb,
    /// arXiv summarization — long prompts (1.6K–14.1K), medium outputs.
    Arxiv,
    /// Cocktail IR benchmark — very long prompts (9.4K–28.8K) — the paper's default.
    Cocktail,
    /// HumanEval code completion — short prompts, medium outputs.
    HumanEval,
}

impl Dataset {
    /// All four datasets in the paper's order.
    pub fn all() -> [Dataset; 4] {
        [
            Dataset::Imdb,
            Dataset::Arxiv,
            Dataset::Cocktail,
            Dataset::HumanEval,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Imdb => "IMDb",
            Dataset::Arxiv => "arXiv",
            Dataset::Cocktail => "Cocktail",
            Dataset::HumanEval => "HumanEval",
        }
    }

    /// Input-length statistics (Table 4).
    pub fn input_stats(&self) -> LengthStats {
        match self {
            Dataset::Imdb => LengthStats {
                avg: 315,
                min: 106,
                max: 821,
            },
            Dataset::Arxiv => LengthStats {
                avg: 6_300,
                min: 1_600,
                max: 14_100,
            },
            Dataset::Cocktail => LengthStats {
                avg: 16_200,
                min: 9_400,
                max: 28_800,
            },
            Dataset::HumanEval => LengthStats {
                avg: 204,
                min: 75,
                max: 697,
            },
        }
    }

    /// Output-length statistics (Table 4).
    pub fn output_stats(&self) -> LengthStats {
        match self {
            Dataset::Imdb => LengthStats {
                avg: 37,
                min: 16,
                max: 87,
            },
            Dataset::Arxiv => LengthStats {
                avg: 243,
                min: 29,
                max: 464,
            },
            Dataset::Cocktail => LengthStats {
                avg: 159,
                min: 44,
                max: 246,
            },
            Dataset::HumanEval => LengthStats {
                avg: 139,
                min: 11,
                max: 552,
            },
        }
    }

    /// Samples one (input_len, output_len) pair. Inputs are capped at `max_context`
    /// minus the sampled output length (the Falcon-180B 2K-context case of §7.1).
    pub fn sample_lengths(&self, max_context: usize, rng: &mut DetRng) -> (usize, usize) {
        self.sampler(max_context).sample(rng)
    }

    /// The fitted distributions [`Self::sample_lengths`] draws from, for
    /// drawing a whole trace's lengths without refitting per request.
    pub(crate) fn sampler(&self, max_context: usize) -> DatasetSampler {
        DatasetSampler {
            input: self.input_stats().sampler(),
            output: self.output_stats().sampler(),
            max_context,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_values() {
        assert_eq!(Dataset::Cocktail.input_stats().avg, 16_200);
        assert_eq!(Dataset::Cocktail.input_stats().max, 28_800);
        assert_eq!(Dataset::Imdb.output_stats().avg, 37);
        assert_eq!(Dataset::Arxiv.input_stats().min, 1_600);
        assert_eq!(Dataset::HumanEval.output_stats().max, 552);
    }

    #[test]
    fn samples_respect_bounds() {
        let mut rng = DetRng::new(1);
        for ds in Dataset::all() {
            let istats = ds.input_stats();
            let ostats = ds.output_stats();
            for _ in 0..2000 {
                let (i, o) = ds.sample_lengths(usize::MAX, &mut rng);
                assert!(
                    i >= istats.min && i <= istats.max,
                    "{}: input {i}",
                    ds.name()
                );
                assert!(
                    o >= ostats.min && o <= ostats.max,
                    "{}: output {o}",
                    ds.name()
                );
            }
        }
    }

    #[test]
    fn sample_mean_tracks_average() {
        let mut rng = DetRng::new(2);
        for ds in Dataset::all() {
            let stats = ds.input_stats();
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| stats.sample(&mut rng) as f64).sum::<f64>() / n as f64;
            let ratio = mean / stats.avg as f64;
            assert!(
                (0.8..1.25).contains(&ratio),
                "{}: sample mean {mean:.1} vs avg {} (ratio {ratio:.2})",
                ds.name(),
                stats.avg
            );
        }
    }

    #[test]
    fn context_cap_limits_input() {
        let mut rng = DetRng::new(3);
        // Falcon-180B style 2K context cap on a long dataset.
        for _ in 0..500 {
            let (i, o) = Dataset::Arxiv.sample_lengths(2048, &mut rng);
            assert!(i + o <= 2048 + Dataset::Arxiv.output_stats().max);
            assert!(i <= 2048);
        }
    }

    #[test]
    fn degenerate_stats_sample_constant() {
        let s = LengthStats {
            avg: 5,
            min: 5,
            max: 5,
        };
        let mut rng = DetRng::new(4);
        assert_eq!(s.sample(&mut rng), 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        let sa: Vec<usize> = (0..100)
            .map(|_| Dataset::Cocktail.input_stats().sample(&mut a))
            .collect();
        let sb: Vec<usize> = (0..100)
            .map(|_| Dataset::Cocktail.input_stats().sample(&mut b))
            .collect();
        assert_eq!(sa, sb);
    }
}
