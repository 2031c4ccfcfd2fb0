//! Session prefix-cache configuration and per-run state.
//!
//! The cache model itself ([`hack_kvcache::PrefixCache`]) lives in
//! `hack-kvcache`; this module wires one cache per decode replica into the
//! cluster simulator following the repo's off-instantiates-to-`None`
//! discipline:
//!
//! * [`CacheConfig::Off`] (the default) allocates no cache state at all —
//!   every cache site on the hot path is one `Option` check, so the off-path
//!   is bit- and cost-identical to the pre-cache simulator (pinned by
//!   seed_equivalence and an interleaved A/B bench row).
//! * Cache **on** gives each decode replica a [`PrefixCache`] sized as a
//!   fraction of that replica's KV budget. Resident prefixes are charged
//!   against the same `kv_used` accounting decode reservations use, so cache
//!   occupancy genuinely competes with decode memory: a reservation that
//!   doesn't fit evicts unpinned prefixes ([`PrefixCache::evict_until`])
//!   before it ever waits.
//!
//! A hit skips the shared prefix's prefill compute *and* its fabric transfer,
//! pins the prefix until the hit request finishes decoding, and forces the
//! request's decode placement onto the replica holding the prefix. Finished
//! session requests insert (or grow) their session's prefix on the replica
//! they decoded on.

use hack_kvcache::PrefixCache;
use serde::Serialize;
use std::collections::HashMap;
use std::num::NonZeroU32;

/// Prefix-cache switch on [`crate::SimulationConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub enum CacheConfig {
    /// No prefix cache (the default): zero cache state is allocated and the
    /// run is bit- and cost-identical to the pre-cache simulator.
    #[default]
    Off,
    /// Per-decode-replica session prefix caches.
    On(CacheSettings),
}

impl CacheConfig {
    /// Cache on with the paper-flavored default settings.
    pub fn on() -> Self {
        Self::On(CacheSettings::default())
    }

    /// Cache on with an explicit capacity fraction.
    pub fn with_capacity_fraction(capacity_fraction: f64) -> Self {
        Self::On(CacheSettings { capacity_fraction })
    }

    /// Whether the cache is enabled.
    pub fn is_on(&self) -> bool {
        matches!(self, Self::On(_))
    }

    /// The settings when enabled.
    pub fn settings(&self) -> Option<CacheSettings> {
        match self {
            Self::Off => None,
            Self::On(s) => Some(*s),
        }
    }
}

/// Settings of a cache-enabled run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CacheSettings {
    /// Fraction of each decode replica's KV byte budget the prefix cache may
    /// occupy (`0 < f ≤ 1`). Resident prefixes still share the budget with
    /// decode reservations — the fraction caps how much the cache may *try*
    /// to keep; reservations can always reclaim unpinned prefixes.
    pub capacity_fraction: f64,
}

impl Default for CacheSettings {
    fn default() -> Self {
        Self {
            capacity_fraction: 0.5,
        }
    }
}

/// The decode replica and prefix size a request was promised at prefill time.
///
/// Recorded on the request's lifecycle entry when the prefill-side lookup
/// hits; the decode dispatch honors it by placing the request on `replica`,
/// where `tokens` of its prompt are already resident (so both the prefill
/// compute and the KV transfer covered only the suffix). Packed into 16 B:
/// a hit always saves at least one token, so `Option<PrefixHit>` keeps its
/// `None` in the token count's zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PrefixHit {
    replica: u32,
    tokens: NonZeroU32,
    /// Quantized-KV bytes those tokens occupy (already resident on
    /// `replica`, so the decode reservation shrinks by this much).
    pub bytes: f64,
}

impl PrefixHit {
    /// A hit of `tokens` (at least one) prompt tokens on decode replica
    /// `replica`.
    pub fn new(replica: usize, tokens: usize, bytes: f64) -> Self {
        Self {
            replica: u32::try_from(replica).expect("replica index fits in u32"),
            tokens: u32::try_from(tokens)
                .ok()
                .and_then(NonZeroU32::new)
                .expect("a hit saves between 1 and u32::MAX tokens"),
            bytes,
        }
    }

    /// Decode replica holding the prefix.
    pub fn replica(&self) -> usize {
        self.replica as usize
    }

    /// Prompt tokens served from the cache.
    pub fn tokens(&self) -> usize {
        self.tokens.get() as usize
    }
}

/// Per-run prefix-cache state: one [`PrefixCache`] per decode replica, the
/// session residency index, and the aggregate counters surfaced on
/// [`crate::SimulationResult`].
///
/// Lives on the `ClusterState` blackboard as an `Option` — `None` when
/// [`CacheConfig::Off`]. The residency map is only ever *keyed into* (never
/// iterated), so the `HashMap` cannot leak iteration-order nondeterminism
/// into the simulation.
#[derive(Debug)]
pub struct SessionCacheState {
    /// One cache per decode replica (same indexing as the decode fleet).
    pub caches: Vec<PrefixCache>,
    /// Which decode replica holds each session's prefix, if any.
    pub resident: HashMap<u64, usize>,
    /// Prefill-side lookups that found a usable prefix.
    pub hits: usize,
    /// Session follow-ups whose prefix was not resident.
    pub misses: usize,
    /// Prefixes evicted (LRU pressure, reservation reclaim, failure, drain).
    pub evictions: usize,
    /// Fabric bytes not transferred thanks to hits.
    pub bytes_saved: f64,
    /// Prefill + quantization seconds not spent thanks to hits.
    pub prefill_secs_saved: f64,
}

impl SessionCacheState {
    /// Builds the per-replica caches: `capacity_fraction` of each replica's
    /// KV byte budget.
    pub fn new(settings: CacheSettings, kv_capacities: &[f64]) -> Self {
        assert!(
            settings.capacity_fraction > 0.0 && settings.capacity_fraction <= 1.0,
            "cache capacity fraction must be in (0, 1]"
        );
        Self {
            caches: kv_capacities
                .iter()
                .map(|cap| PrefixCache::new(cap * settings.capacity_fraction))
                .collect(),
            resident: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            bytes_saved: 0.0,
            prefill_secs_saved: 0.0,
        }
    }

    /// The replica currently holding `session`'s prefix.
    pub fn replica_of(&self, session: u64) -> Option<usize> {
        self.resident.get(&session).copied()
    }

    /// Forgets every session resident on `replica` (after a failure or a
    /// scale-down drain) and returns the bytes that were resident there.
    /// Counts the drops as evictions.
    pub fn invalidate_replica(&mut self, replica: usize) -> f64 {
        let freed = self.caches[replica].used_bytes();
        for session in self.caches[replica].invalidate_all() {
            self.resident.remove(&session);
            self.evictions += 1;
        }
        freed
    }

    /// Hit rate over all prefill-side session lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_the_default_and_exposes_no_settings() {
        assert_eq!(CacheConfig::default(), CacheConfig::Off);
        assert!(!CacheConfig::Off.is_on());
        assert_eq!(CacheConfig::Off.settings(), None);
        let on = CacheConfig::on();
        assert!(on.is_on());
        assert_eq!(on.settings().unwrap().capacity_fraction, 0.5);
        assert_eq!(
            CacheConfig::with_capacity_fraction(0.25)
                .settings()
                .unwrap(),
            CacheSettings {
                capacity_fraction: 0.25
            }
        );
    }

    #[test]
    fn state_sizes_caches_from_replica_budgets() {
        let state = SessionCacheState::new(
            CacheSettings {
                capacity_fraction: 0.5,
            },
            &[100.0, 200.0],
        );
        assert_eq!(state.caches.len(), 2);
        assert_eq!(state.caches[0].capacity_bytes(), 50.0);
        assert_eq!(state.caches[1].capacity_bytes(), 100.0);
        assert_eq!(state.hit_rate(), 0.0);
    }

    #[test]
    fn invalidate_replica_forgets_residency_and_counts_evictions() {
        let mut state = SessionCacheState::new(
            CacheSettings {
                capacity_fraction: 1.0,
            },
            &[100.0, 100.0],
        );
        state.caches[0].insert(1, 10, 30.0);
        state.resident.insert(1, 0);
        state.caches[1].insert(2, 10, 40.0);
        state.resident.insert(2, 1);
        let freed = state.invalidate_replica(0);
        assert_eq!(freed, 30.0);
        assert_eq!(state.replica_of(1), None);
        assert_eq!(state.replica_of(2), Some(1));
        assert_eq!(state.evictions, 1);
    }

    #[test]
    #[should_panic(expected = "capacity fraction")]
    fn zero_capacity_fraction_is_rejected() {
        SessionCacheState::new(
            CacheSettings {
                capacity_fraction: 0.0,
            },
            &[100.0],
        );
    }
}
