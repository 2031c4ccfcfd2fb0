//! Quantization parameters: precision, partition size, rounding mode and the paper's
//! default HACK configuration.

/// Integer precision of quantization codes.
///
/// The paper uses 2-bit codes for K and V (to maximise compression of transferred and
/// cached data) and 8-bit codes for Q and the attention probabilities P (which are
/// discarded right after use, so their size does not matter — §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantBits {
    /// 2-bit codes (4 levels). Used for K and V.
    Int2,
    /// 4-bit codes (16 levels). Supported for sensitivity experiments and the planned
    /// CUDA INT4 path mentioned in §8.
    Int4,
    /// 8-bit codes (256 levels). Used for Q and P.
    Int8,
}

impl QuantBits {
    /// Number of bits per code.
    pub fn bits(self) -> u32 {
        match self {
            QuantBits::Int2 => 2,
            QuantBits::Int4 => 4,
            QuantBits::Int8 => 8,
        }
    }

    /// Number of representable levels (`2^bits`).
    pub fn levels(self) -> u32 {
        1 << self.bits()
    }

    /// Largest code value (`2^bits - 1`), which is also the quantization denominator in
    /// `scale = (max - min) / (2^b - 1)`.
    pub fn max_code(self) -> u32 {
        self.levels() - 1
    }

    /// Number of codes that fit in one byte when densely packed.
    pub fn codes_per_byte(self) -> usize {
        (8 / self.bits()) as usize
    }

    /// Bytes needed to densely pack `n` codes.
    pub fn packed_bytes(self, n: usize) -> usize {
        n.div_ceil(self.codes_per_byte())
    }
}

/// Rounding mode used when mapping a real value to its integer code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoundingMode {
    /// Stochastic rounding (§5.2): round down with probability proportional to the
    /// distance to the ceiling; unbiased in expectation.
    #[default]
    Stochastic,
    /// Deterministic round-to-nearest; biased but reproducible without an RNG stream.
    Nearest,
}

/// Quantization partition size Π (§5.2, Fig. 6).
///
/// The contracted dimension of each matrix is split into partitions of Π elements, each
/// with its own `[min, max]` range. The paper requires Π to be a multiple of 16 for
/// efficient tensor-core execution and evaluates Π ∈ {32, 64, 128}.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionSize(pub usize);

impl PartitionSize {
    /// The paper's default (Π = 64, §7).
    pub const DEFAULT: PartitionSize = PartitionSize(64);

    /// Creates a partition size, validating the paper's multiple-of-16 constraint.
    pub fn new(size: usize) -> Result<Self, String> {
        if size == 0 {
            return Err("partition size must be positive".to_string());
        }
        if !size.is_multiple_of(16) {
            return Err(format!(
                "partition size must be a multiple of 16 for efficient matrix operations (got {size})"
            ));
        }
        Ok(PartitionSize(size))
    }

    /// The raw size.
    pub fn get(self) -> usize {
        self.0
    }

    /// Bits needed to store the integer sum of one partition's codes
    /// (Summation Elimination, §5.3): `b + ⌈log2 Π⌉`.
    pub fn sum_bits(self, bits: QuantBits) -> u32 {
        bits.bits() + (self.0 as f64).log2().ceil() as u32
    }

    /// Bytes used to store one partition sum, honouring the paper's alignment rule
    /// (§6): sums needing ≤ 8 bits are stored in one byte, anything larger in an INT16.
    pub fn sum_storage_bytes(self, bits: QuantBits) -> usize {
        if self.sum_bits(bits) <= 8 {
            1
        } else {
            2
        }
    }
}

impl Default for PartitionSize {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Full HACK configuration for the attention pipeline (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HackConfig {
    /// Precision of the K and V codes kept in (and transferred to) the KV cache.
    pub kv_bits: QuantBits,
    /// Precision of the Q codes (discarded after use, so higher precision is free).
    pub q_bits: QuantBits,
    /// Precision of the attention-probability codes P'.
    pub p_bits: QuantBits,
    /// Partition size Π along the contracted dimension.
    pub partition: PartitionSize,
    /// Rounding mode for all quantization steps.
    pub rounding: RoundingMode,
    /// Summation Elimination: store per-partition code sums instead of recomputing
    /// them every decode iteration (§5.3). Disabled only by the HACK/SE ablation.
    pub summation_elimination: bool,
    /// Requantization Elimination: keep the trailing (partial) block of V in FP16
    /// instead of requantizing it every time a token is appended (§5.3). Disabled only
    /// by the HACK/RQE ablation.
    pub requant_elimination: bool,
}

impl HackConfig {
    /// The paper's default configuration: INT2 K/V, INT8 Q/P, Π = 64, stochastic
    /// rounding, both optimizations enabled.
    pub fn paper_default() -> Self {
        Self {
            kv_bits: QuantBits::Int2,
            q_bits: QuantBits::Int8,
            p_bits: QuantBits::Int8,
            partition: PartitionSize::DEFAULT,
            rounding: RoundingMode::Stochastic,
            summation_elimination: true,
            requant_elimination: true,
        }
    }

    /// Same as [`Self::paper_default`] but with a custom partition size (Table 8).
    pub fn with_partition(partition: usize) -> Self {
        Self {
            partition: PartitionSize::new(partition)
                .expect("partition size must be a positive multiple of 16"),
            ..Self::paper_default()
        }
    }

    /// HACK/SE ablation: Summation Elimination disabled (§7.4).
    pub fn without_summation_elimination() -> Self {
        Self {
            summation_elimination: false,
            ..Self::paper_default()
        }
    }

    /// HACK/RQE ablation: Requantization Elimination disabled (§7.4).
    pub fn without_requant_elimination() -> Self {
        Self {
            requant_elimination: false,
            ..Self::paper_default()
        }
    }
}

impl Default for HackConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_levels_and_codes() {
        assert_eq!(QuantBits::Int2.bits(), 2);
        assert_eq!(QuantBits::Int2.levels(), 4);
        assert_eq!(QuantBits::Int2.max_code(), 3);
        assert_eq!(QuantBits::Int4.levels(), 16);
        assert_eq!(QuantBits::Int8.levels(), 256);
        assert_eq!(QuantBits::Int8.max_code(), 255);
    }

    #[test]
    fn packing_arithmetic() {
        assert_eq!(QuantBits::Int2.codes_per_byte(), 4);
        assert_eq!(QuantBits::Int4.codes_per_byte(), 2);
        assert_eq!(QuantBits::Int8.codes_per_byte(), 1);
        assert_eq!(QuantBits::Int2.packed_bytes(7), 2);
        assert_eq!(QuantBits::Int2.packed_bytes(8), 2);
        assert_eq!(QuantBits::Int2.packed_bytes(9), 3);
        assert_eq!(QuantBits::Int8.packed_bytes(5), 5);
    }

    #[test]
    fn partition_size_validation() {
        assert!(PartitionSize::new(0).is_err());
        assert!(PartitionSize::new(17).is_err());
        assert!(PartitionSize::new(48).is_ok());
        assert_eq!(PartitionSize::new(64).unwrap().get(), 64);
    }

    #[test]
    fn sum_bits_match_paper_examples() {
        // §5.3: Π = 64 with 2-bit quantization needs at most 8 bits for a sum.
        let p64 = PartitionSize::new(64).unwrap();
        assert_eq!(p64.sum_bits(QuantBits::Int2), 8);
        assert_eq!(p64.sum_storage_bytes(QuantBits::Int2), 1);
        // §6: Π = 128 with 2-bit quantization needs 9 bits, stored as INT16.
        let p128 = PartitionSize::new(128).unwrap();
        assert_eq!(p128.sum_bits(QuantBits::Int2), 9);
        assert_eq!(p128.sum_storage_bytes(QuantBits::Int2), 2);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = HackConfig::paper_default();
        assert_eq!(c.kv_bits, QuantBits::Int2);
        assert_eq!(c.q_bits, QuantBits::Int8);
        assert_eq!(c.p_bits, QuantBits::Int8);
        assert_eq!(c.partition.get(), 64);
        assert_eq!(c.rounding, RoundingMode::Stochastic);
        assert!(c.summation_elimination);
        assert!(c.requant_elimination);
    }

    #[test]
    fn ablation_configs_flip_only_one_switch() {
        let se = HackConfig::without_summation_elimination();
        assert!(!se.summation_elimination);
        assert!(se.requant_elimination);
        let rqe = HackConfig::without_requant_elimination();
        assert!(rqe.summation_elimination);
        assert!(!rqe.requant_elimination);
    }

    #[test]
    fn with_partition_overrides_size() {
        assert_eq!(HackConfig::with_partition(32).partition.get(), 32);
        assert_eq!(HackConfig::with_partition(128).partition.get(), 128);
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn with_partition_rejects_invalid() {
        HackConfig::with_partition(20);
    }
}
