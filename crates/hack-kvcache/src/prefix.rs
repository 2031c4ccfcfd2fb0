//! Per-replica session prefix cache.
//!
//! Multi-turn sessions replay the previous turn's context as the prompt
//! prefix of the next turn. A decode replica that keeps a finished session's
//! quantized KV bytes resident can serve the follow-up without re-prefilling
//! (or re-transferring) the shared prefix. [`PrefixCache`] models that
//! residency: at most one entry per session, sized in (quantized) KV bytes,
//! LRU-evicted under a byte capacity, with pinning so a prefix is never
//! evicted while a descendant request that was promised the hit is still in
//! flight.
//!
//! The cache is deliberately simple and fully deterministic: entries live in
//! a `Vec` in insertion order, found through a session → position index
//! sorted by session (so a session lookup is a binary search, not a scan),
//! recency is a logical clock bumped on every touch, and eviction order is
//! (oldest `last_used`, then lowest session id) — no wall-clock. The victim
//! search and [`PrefixCache::evictable_bytes`] scan the `Vec` in order, so
//! their results, float sums included, do not depend on the index.

/// One resident session prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefixEntry {
    /// Session whose context this prefix holds.
    pub session: u64,
    /// Tokens of context the prefix covers (the parent's full sequence).
    pub tokens: usize,
    /// Resident size in bytes (quantized KV for `tokens`).
    pub bytes: f64,
    /// Number of in-flight descendant requests holding the entry pinned.
    pub pins: u32,
    /// Logical-clock timestamp of the last lookup/insert (LRU key).
    last_used: u64,
}

/// What [`PrefixCache::insert`] did, so the caller can mirror the byte deltas
/// into its own memory accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertReport {
    /// Whether the prefix is resident after the call.
    pub accepted: bool,
    /// Net change of resident bytes (insert minus evictions/replacement);
    /// negative when evictions outweigh the new entry.
    pub bytes_delta: f64,
    /// Sessions evicted to make room (never the inserted session itself).
    pub evicted: Vec<u64>,
}

/// Deterministic LRU cache of session prefixes for one decode replica.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixCache {
    capacity_bytes: f64,
    used_bytes: f64,
    peak_bytes: f64,
    clock: u64,
    entries: Vec<PrefixEntry>,
    /// `(session, position in entries)` of every resident session, sorted
    /// by session.
    index: Vec<(u64, usize)>,
}

impl PrefixCache {
    /// An empty cache with the given byte capacity.
    pub fn new(capacity_bytes: f64) -> Self {
        assert!(
            capacity_bytes >= 0.0 && capacity_bytes.is_finite(),
            "cache capacity must be finite and non-negative"
        );
        Self {
            capacity_bytes,
            used_bytes: 0.0,
            peak_bytes: 0.0,
            clock: 0,
            entries: Vec::new(),
            index: Vec::new(),
        }
    }

    /// Byte capacity of the cache.
    pub fn capacity_bytes(&self) -> f64 {
        self.capacity_bytes
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> f64 {
        self.used_bytes
    }

    /// High-water mark of resident bytes.
    pub fn peak_bytes(&self) -> f64 {
        self.peak_bytes
    }

    /// Number of resident prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes held by unpinned entries — reclaimable on demand by
    /// [`Self::evict_until`].
    pub fn evictable_bytes(&self) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.pins == 0)
            .map(|e| e.bytes)
            .sum()
    }

    /// Where `session` is, or would be inserted, in `index`.
    fn slot(&self, session: u64) -> Result<usize, usize> {
        self.index.binary_search_by_key(&session, |&(s, _)| s)
    }

    fn position(&self, session: u64) -> Option<usize> {
        self.slot(session).ok().map(|slot| self.index[slot].1)
    }

    fn entry_mut(&mut self, session: u64) -> Option<&mut PrefixEntry> {
        let idx = self.position(session)?;
        Some(&mut self.entries[idx])
    }

    /// Looks up a session's resident prefix, refreshing its recency. Returns
    /// `(tokens, bytes)` on a hit.
    pub fn lookup(&mut self, session: u64) -> Option<(usize, f64)> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entry_mut(session)?;
        entry.last_used = clock;
        Some((entry.tokens, entry.bytes))
    }

    /// Pins a session's entry (no-op if absent). Pinned entries survive every
    /// eviction path until unpinned.
    pub fn pin(&mut self, session: u64) {
        if let Some(e) = self.entry_mut(session) {
            e.pins += 1;
        }
    }

    /// Releases one pin of a session's entry (no-op if absent).
    pub fn unpin(&mut self, session: u64) {
        if let Some(e) = self.entry_mut(session) {
            e.pins = e.pins.saturating_sub(1);
        }
    }

    /// Whether a session's entry is currently pinned (false if absent).
    pub fn is_pinned(&self, session: u64) -> bool {
        self.position(session)
            .is_some_and(|idx| self.entries[idx].pins > 0)
    }

    /// Index of the least-recently-used unpinned entry (ties: lowest session
    /// id), excluding `keep`.
    fn lru_victim(&self, keep: u64) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.pins == 0 && e.session != keep)
            .min_by_key(|(_, e)| (e.last_used, e.session))
            .map(|(i, _)| i)
    }

    /// Removes the entry at `idx`, keeping the order of the rest and
    /// re-pointing the index at the shifted tail.
    fn remove_at(&mut self, idx: usize) -> PrefixEntry {
        let entry = self.entries.remove(idx);
        if let Ok(slot) = self.slot(entry.session) {
            self.index.remove(slot);
        }
        for (_, pos) in &mut self.index {
            if *pos > idx {
                *pos -= 1;
            }
        }
        self.used_bytes -= entry.bytes;
        if self.used_bytes < 0.0 {
            self.used_bytes = 0.0;
        }
        entry
    }

    /// Inserts or replaces the prefix of `session` (`tokens` of context,
    /// `bytes` resident size), evicting LRU unpinned entries of *other*
    /// sessions as needed. A replacement keeps the entry's pins. If the entry
    /// cannot fit even after evicting everything evictable, the insert is
    /// rejected — unless the session already holds a **pinned** entry, which
    /// is kept unchanged (a promise to an in-flight descendant outranks
    /// freshness).
    pub fn insert(&mut self, session: u64, tokens: usize, bytes: f64) -> InsertReport {
        self.clock += 1;
        let mut report = InsertReport {
            accepted: false,
            bytes_delta: 0.0,
            evicted: Vec::new(),
        };
        if bytes > self.capacity_bytes {
            // Oversized prefix: at best keep (do not grow) an existing entry.
            if let Some(idx) = self.position(session) {
                if self.entries[idx].pins > 0 {
                    self.entries[idx].last_used = self.clock;
                    report.accepted = true;
                } else {
                    let old = self.remove_at(idx);
                    report.bytes_delta -= old.bytes;
                    report.evicted.push(old.session);
                }
            }
            self.peak();
            return report;
        }
        let old_bytes = self
            .position(session)
            .map(|idx| self.entries[idx].bytes)
            .unwrap_or(0.0);
        // Evict until the (replaced) entry fits under capacity.
        while self.used_bytes - old_bytes + bytes > self.capacity_bytes {
            match self.lru_victim(session) {
                Some(idx) => {
                    let victim = self.remove_at(idx);
                    report.bytes_delta -= victim.bytes;
                    report.evicted.push(victim.session);
                }
                None => {
                    // Only pinned entries (or the session itself) remain.
                    if let Some(idx) = self.position(session) {
                        if self.entries[idx].pins > 0 {
                            self.entries[idx].last_used = self.clock;
                            report.accepted = true;
                        } else {
                            let old = self.remove_at(idx);
                            report.bytes_delta -= old.bytes;
                            report.evicted.push(old.session);
                        }
                    }
                    self.peak();
                    return report;
                }
            }
        }
        // Evictions may have shifted indices; re-locate the session's entry
        // (it is never its own victim, so presence is unchanged).
        match self.position(session) {
            Some(idx) => {
                self.used_bytes += bytes - self.entries[idx].bytes;
                let clock = self.clock;
                let e = &mut self.entries[idx];
                e.tokens = tokens;
                e.bytes = bytes;
                e.last_used = clock;
                report.bytes_delta += bytes - old_bytes;
            }
            None => {
                if let Err(slot) = self.slot(session) {
                    self.index.insert(slot, (session, self.entries.len()));
                }
                self.entries.push(PrefixEntry {
                    session,
                    tokens,
                    bytes,
                    pins: 0,
                    last_used: self.clock,
                });
                self.used_bytes += bytes;
                report.bytes_delta += bytes;
            }
        }
        report.accepted = true;
        self.peak();
        report
    }

    /// Removes a session's entry regardless of pins, returning its bytes.
    pub fn remove(&mut self, session: u64) -> Option<f64> {
        let idx = self.position(session)?;
        Some(self.remove_at(idx).bytes)
    }

    /// Evicts LRU unpinned entries until at least `need_bytes` have been
    /// freed (or nothing evictable remains). Returns the freed bytes and the
    /// evicted sessions — the reservation path uses this to let decode KV
    /// reservations reclaim cache space on demand.
    pub fn evict_until(&mut self, need_bytes: f64) -> (f64, Vec<u64>) {
        let mut freed = 0.0;
        let mut evicted = Vec::new();
        while freed < need_bytes {
            match self.lru_victim(u64::MAX) {
                Some(idx) => {
                    let victim = self.remove_at(idx);
                    freed += victim.bytes;
                    evicted.push(victim.session);
                }
                None => break,
            }
        }
        (freed, evicted)
    }

    /// Drops every entry (replica failure / drain), returning the sessions
    /// that were resident in insertion order.
    pub fn invalidate_all(&mut self) -> Vec<u64> {
        let sessions = self.entries.iter().map(|e| e.session).collect();
        self.entries.clear();
        self.index.clear();
        self.used_bytes = 0.0;
        sessions
    }

    fn peak(&mut self) {
        if self.used_bytes > self.peak_bytes {
            self.peak_bytes = self.used_bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_hits_refresh_recency_and_misses_return_none() {
        let mut c = PrefixCache::new(100.0);
        assert!(c.insert(1, 10, 40.0).accepted);
        assert!(c.insert(2, 20, 40.0).accepted);
        assert_eq!(c.lookup(1), Some((10, 40.0)));
        assert_eq!(c.lookup(3), None);
        // Session 2 is now LRU; inserting a third entry evicts it, not 1.
        let report = c.insert(3, 5, 40.0);
        assert!(report.accepted);
        assert_eq!(report.evicted, vec![2]);
        assert!(c.lookup(1).is_some());
        assert!(c.lookup(2).is_none());
    }

    #[test]
    fn eviction_is_lru_with_session_tiebreak() {
        let mut c = PrefixCache::new(90.0);
        c.insert(7, 1, 30.0);
        c.insert(3, 1, 30.0);
        c.insert(5, 1, 30.0);
        // All same recency order 7 < 3 < 5 by insertion clock; evicting two
        // frees 7 then 3.
        let (freed, evicted) = c.evict_until(60.0);
        assert_eq!(freed, 60.0);
        assert_eq!(evicted, vec![7, 3]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn pinned_entries_survive_every_eviction_path() {
        let mut c = PrefixCache::new(100.0);
        c.insert(1, 10, 60.0);
        c.pin(1);
        assert_eq!(c.evictable_bytes(), 0.0);
        let (freed, evicted) = c.evict_until(10.0);
        assert_eq!(freed, 0.0);
        assert!(evicted.is_empty());
        // An insert that cannot fit without evicting the pinned entry is
        // rejected; the pinned entry stays.
        let report = c.insert(2, 99, 80.0);
        assert!(!report.accepted);
        assert_eq!(c.lookup(1), Some((10, 60.0)));
        // Unpinning makes it evictable again.
        c.unpin(1);
        let report = c.insert(2, 99, 80.0);
        assert!(report.accepted);
        assert_eq!(report.evicted, vec![1]);
    }

    #[test]
    fn replacement_keeps_pins_and_updates_bytes() {
        let mut c = PrefixCache::new(100.0);
        c.insert(1, 10, 30.0);
        c.pin(1);
        let report = c.insert(1, 25, 70.0);
        assert!(report.accepted);
        assert_eq!(report.bytes_delta, 40.0);
        assert!(report.evicted.is_empty());
        assert_eq!(c.lookup(1), Some((25, 70.0)));
        assert_eq!(c.used_bytes(), 70.0);
        // Still pinned: a competing oversized insert cannot displace it.
        assert!(!c.insert(2, 1, 80.0).accepted);
        assert_eq!(c.lookup(1), Some((25, 70.0)));
    }

    #[test]
    fn pinned_entry_survives_oversized_replacement() {
        let mut c = PrefixCache::new(50.0);
        c.insert(1, 10, 30.0);
        c.pin(1);
        // Growing the session's own prefix beyond capacity keeps the old
        // (pinned) entry rather than dropping the promise.
        let report = c.insert(1, 99, 80.0);
        assert!(report.accepted);
        assert_eq!(c.lookup(1), Some((10, 30.0)));
        // Unpinned, the same oversized replacement just drops the entry.
        c.unpin(1);
        let report = c.insert(1, 99, 80.0);
        assert!(!report.accepted);
        assert_eq!(report.evicted, vec![1]);
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0.0);
    }

    #[test]
    fn byte_accounting_balances() {
        let mut c = PrefixCache::new(100.0);
        let mut shadow = 0.0;
        for s in 0..20u64 {
            let report = c.insert(s, 1, 10.0 + s as f64);
            shadow += report.bytes_delta;
            assert!((shadow - c.used_bytes()).abs() < 1e-9);
            assert!(c.used_bytes() <= c.capacity_bytes());
        }
        assert!(c.peak_bytes() <= c.capacity_bytes());
        assert!(c.peak_bytes() > 0.0);
        let freed: f64 = c.invalidate_all().len() as f64;
        assert!(freed > 0.0);
        assert_eq!(c.used_bytes(), 0.0);
    }

    #[test]
    fn invalidate_returns_resident_sessions() {
        let mut c = PrefixCache::new(100.0);
        c.insert(4, 1, 10.0);
        c.insert(9, 1, 10.0);
        c.pin(9);
        assert_eq!(c.invalidate_all(), vec![4, 9]);
        assert!(c.is_empty());
        assert_eq!(c.lookup(9), None);
    }

    /// The cache as it was before the session index: every session lookup
    /// scans the `Vec`. Kept as the oracle the indexed cache must match.
    struct ScanCache {
        capacity_bytes: f64,
        used_bytes: f64,
        peak_bytes: f64,
        clock: u64,
        entries: Vec<PrefixEntry>,
    }

    impl ScanCache {
        fn new(capacity_bytes: f64) -> Self {
            Self {
                capacity_bytes,
                used_bytes: 0.0,
                peak_bytes: 0.0,
                clock: 0,
                entries: Vec::new(),
            }
        }

        fn evictable_bytes(&self) -> f64 {
            self.entries
                .iter()
                .filter(|e| e.pins == 0)
                .map(|e| e.bytes)
                .sum()
        }

        fn position(&self, session: u64) -> Option<usize> {
            self.entries.iter().position(|e| e.session == session)
        }

        fn lookup(&mut self, session: u64) -> Option<(usize, f64)> {
            self.clock += 1;
            let clock = self.clock;
            let entry = self.entries.iter_mut().find(|e| e.session == session)?;
            entry.last_used = clock;
            Some((entry.tokens, entry.bytes))
        }

        fn pin(&mut self, session: u64) {
            if let Some(e) = self.entries.iter_mut().find(|e| e.session == session) {
                e.pins += 1;
            }
        }

        fn unpin(&mut self, session: u64) {
            if let Some(e) = self.entries.iter_mut().find(|e| e.session == session) {
                e.pins = e.pins.saturating_sub(1);
            }
        }

        fn is_pinned(&self, session: u64) -> bool {
            self.entries
                .iter()
                .any(|e| e.session == session && e.pins > 0)
        }

        fn lru_victim(&self, keep: u64) -> Option<usize> {
            self.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.pins == 0 && e.session != keep)
                .min_by_key(|(_, e)| (e.last_used, e.session))
                .map(|(i, _)| i)
        }

        fn remove_at(&mut self, idx: usize) -> PrefixEntry {
            let entry = self.entries.remove(idx);
            self.used_bytes -= entry.bytes;
            if self.used_bytes < 0.0 {
                self.used_bytes = 0.0;
            }
            entry
        }

        fn insert(&mut self, session: u64, tokens: usize, bytes: f64) -> InsertReport {
            self.clock += 1;
            let mut report = InsertReport {
                accepted: false,
                bytes_delta: 0.0,
                evicted: Vec::new(),
            };
            if bytes > self.capacity_bytes {
                if let Some(idx) = self.position(session) {
                    if self.entries[idx].pins > 0 {
                        self.entries[idx].last_used = self.clock;
                        report.accepted = true;
                    } else {
                        let old = self.remove_at(idx);
                        report.bytes_delta -= old.bytes;
                        report.evicted.push(old.session);
                    }
                }
                self.peak();
                return report;
            }
            let old_bytes = self
                .position(session)
                .map(|idx| self.entries[idx].bytes)
                .unwrap_or(0.0);
            while self.used_bytes - old_bytes + bytes > self.capacity_bytes {
                match self.lru_victim(session) {
                    Some(idx) => {
                        let victim = self.remove_at(idx);
                        report.bytes_delta -= victim.bytes;
                        report.evicted.push(victim.session);
                    }
                    None => {
                        if let Some(idx) = self.position(session) {
                            if self.entries[idx].pins > 0 {
                                self.entries[idx].last_used = self.clock;
                                report.accepted = true;
                            } else {
                                let old = self.remove_at(idx);
                                report.bytes_delta -= old.bytes;
                                report.evicted.push(old.session);
                            }
                        }
                        self.peak();
                        return report;
                    }
                }
            }
            match self.position(session) {
                Some(idx) => {
                    self.used_bytes += bytes - self.entries[idx].bytes;
                    let clock = self.clock;
                    let e = &mut self.entries[idx];
                    e.tokens = tokens;
                    e.bytes = bytes;
                    e.last_used = clock;
                    report.bytes_delta += bytes - old_bytes;
                }
                None => {
                    self.entries.push(PrefixEntry {
                        session,
                        tokens,
                        bytes,
                        pins: 0,
                        last_used: self.clock,
                    });
                    self.used_bytes += bytes;
                    report.bytes_delta += bytes;
                }
            }
            report.accepted = true;
            self.peak();
            report
        }

        fn remove(&mut self, session: u64) -> Option<f64> {
            let idx = self.position(session)?;
            Some(self.remove_at(idx).bytes)
        }

        fn evict_until(&mut self, need_bytes: f64) -> (f64, Vec<u64>) {
            let mut freed = 0.0;
            let mut evicted = Vec::new();
            while freed < need_bytes {
                match self.lru_victim(u64::MAX) {
                    Some(idx) => {
                        let victim = self.remove_at(idx);
                        freed += victim.bytes;
                        evicted.push(victim.session);
                    }
                    None => break,
                }
            }
            (freed, evicted)
        }

        fn invalidate_all(&mut self) -> Vec<u64> {
            let sessions = self.entries.iter().map(|e| e.session).collect();
            self.entries.clear();
            self.used_bytes = 0.0;
            sessions
        }

        fn peak(&mut self) {
            if self.used_bytes > self.peak_bytes {
                self.peak_bytes = self.used_bytes;
            }
        }
    }

    /// A splitmix64 stream, so the test needs no RNG crate.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn random_operations_match_the_scanning_cache() {
        let mut rng = Stream(0x5eed);
        let mut c = PrefixCache::new(1000.0);
        let mut oracle = ScanCache::new(1000.0);
        let (mut evicted, mut most) = (0, 0);
        for step in 0..20_000 {
            // 48 sessions over a cache that holds about 20 keeps it under
            // eviction pressure; odd byte sizes keep the float sums inexact.
            let session = rng.below(48);
            match rng.below(10) {
                0..=2 => {
                    let tokens = rng.below(4096) as usize;
                    let bytes = rng.below(12_000) as f64 / 97.0;
                    let report = c.insert(session, tokens, bytes);
                    assert_eq!(report, oracle.insert(session, tokens, bytes), "step {step}");
                    evicted += report.evicted.len();
                }
                3 | 4 => assert_eq!(c.lookup(session), oracle.lookup(session)),
                5 => {
                    c.pin(session);
                    oracle.pin(session);
                }
                6 => {
                    c.unpin(session);
                    oracle.unpin(session);
                }
                7 => assert_eq!(c.remove(session), oracle.remove(session)),
                8 => {
                    let need = rng.below(300) as f64 / 3.0;
                    assert_eq!(c.evict_until(need), oracle.evict_until(need));
                }
                _ if rng.below(50) == 0 => {
                    assert_eq!(c.invalidate_all(), oracle.invalidate_all());
                }
                _ => {}
            }
            assert_eq!(c.is_pinned(session), oracle.is_pinned(session));
            assert_eq!(c.entries, oracle.entries, "entry order, step {step}");
            assert_eq!(
                c.evictable_bytes().to_bits(),
                oracle.evictable_bytes().to_bits()
            );
            assert_eq!(c.used_bytes().to_bits(), oracle.used_bytes.to_bits());
            assert_eq!(c.peak_bytes().to_bits(), oracle.peak_bytes.to_bits());
            assert_eq!(c.clock, oracle.clock);
            for (idx, e) in c.entries.iter().enumerate() {
                assert_eq!(c.position(e.session), Some(idx), "session {}", e.session);
            }
            assert_eq!(c.index.len(), c.entries.len());
            most = most.max(c.len());
        }
        assert!(evicted > 100, "the sequence exercised eviction ({evicted})");
        assert!(most >= 16, "the cache filled up ({most})");
    }
}
