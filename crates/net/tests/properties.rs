//! Property-based tests for the network substrate: registration-cache
//! invariants and transport-model sanity over arbitrary inputs.

use proptest::prelude::*;

use std::collections::HashMap;

use dlsr_net::{LinkModel, RegCacheStats, RegistrationCache, TransportModel};

/// Reference LRU the slab cache must match step for step: the map + scan
/// implementation the cache had before its recency list — a global tick,
/// `last_use` per entry, eviction by scanning for the smallest `last_use`.
#[derive(Default)]
struct ModelCache {
    capacity: u64,
    used: u64,
    tick: u64,
    entries: HashMap<(u64, u64), u64>,
    stats: RegCacheStats,
    enabled: bool,
}

impl ModelCache {
    fn lookup(&mut self, id: u64, bytes: u64) -> bool {
        self.tick += 1;
        if let Some(last_use) = self.entries.get_mut(&(id, bytes)) {
            *last_use = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if !self.enabled {
            return false;
        }
        while self.used + bytes > self.capacity && !self.entries.is_empty() {
            let victim = *self
                .entries
                .iter()
                .min_by_key(|(_, t)| **t)
                .expect("non-empty")
                .0;
            self.entries.remove(&victim);
            self.used -= victim.1;
            self.stats.evictions += 1;
        }
        if bytes <= self.capacity {
            self.entries.insert((id, bytes), self.tick);
            self.used += bytes;
        }
        false
    }

    fn invalidate(&mut self, id: u64, bytes: u64) {
        if self.entries.remove(&(id, bytes)).is_some() {
            self.used -= bytes;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random lookup/invalidate sequences at capacities small enough to
    /// evict: the cache and the reference model agree on every verdict,
    /// on the statistics and on the bytes held, after every operation.
    #[test]
    fn regcache_matches_the_map_and_scan_model(
        capacity in 1u64..6_000,
        enabled in proptest::bool::ANY,
        ops in proptest::collection::vec((0u64..8, 1u64..5, 0u32..6), 1..400),
    ) {
        let mut cache = if enabled {
            RegistrationCache::new(capacity)
        } else {
            RegistrationCache::disabled()
        };
        let mut model = ModelCache {
            capacity: if enabled { capacity } else { 0 },
            enabled,
            ..ModelCache::default()
        };
        for (step, &(id, len, op)) in ops.iter().enumerate() {
            // few ids × few lengths: keys repeat, so hits, evictions of
            // still-wanted entries and invalidations of live ones all occur
            let bytes = len * 700;
            if op == 0 {
                cache.invalidate(id, bytes);
                model.invalidate(id, bytes);
            } else {
                prop_assert_eq!(cache.lookup(id, bytes), model.lookup(id, bytes),
                    "verdict differs at op {} ({}, {})", step, id, bytes);
            }
            prop_assert_eq!(cache.stats(), model.stats, "stats differ at op {}", step);
            prop_assert_eq!(cache.used_bytes(), model.used, "bytes differ at op {}", step);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The cache never holds more than its capacity, never double-counts,
    /// and a repeated lookup immediately after a successful insert hits.
    #[test]
    fn regcache_capacity_and_reuse(
        capacity in 1u64..10_000,
        ops in proptest::collection::vec((0u64..20, 1u64..4_000), 1..200),
    ) {
        let mut cache = RegistrationCache::new(capacity);
        let mut lookups = 0u64;
        for &(id, bytes) in &ops {
            let _ = cache.lookup(id, bytes);
            lookups += 1;
            prop_assert!(cache.used_bytes() <= capacity,
                "cache holds {} of {capacity}", cache.used_bytes());
            if bytes <= capacity {
                // the entry we just inserted (or refreshed) must now hit
                prop_assert!(cache.lookup(id, bytes), "immediate re-lookup missed");
                lookups += 1;
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, lookups);
    }

    /// Disabled caches never hit, regardless of access pattern.
    #[test]
    fn disabled_cache_never_hits(ops in proptest::collection::vec((0u64..5, 1u64..100), 1..50)) {
        let mut cache = RegistrationCache::disabled();
        for &(id, bytes) in &ops {
            prop_assert!(!cache.lookup(id, bytes));
        }
        prop_assert_eq!(cache.stats().hits, 0);
    }

    /// Link time is monotone in message size and at least the latency.
    #[test]
    fn link_time_monotone(lat_us in 0u32..100, bw_mbs in 1u32..100_000, a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let link = LinkModel::new(lat_us as f64 * 1e-6, bw_mbs as f64 * 1e6);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(link.time(lo) <= link.time(hi));
        prop_assert!(link.time(lo) >= link.latency);
    }

    /// Path selection is total and consistent: intra-node messages never
    /// take IB, inter-node never take NVLink/staged, and the IPC threshold
    /// gates NVLink exactly.
    #[test]
    fn path_selection_consistency(bytes in 0u64..(256 << 20), ipc in proptest::bool::ANY) {
        use dlsr_net::TransportPath as P;
        let t = TransportModel::lassen();
        let intra = t.path(false, true, ipc, bytes);
        prop_assert!(matches!(intra, P::NvlinkP2p | P::HostStaged));
        prop_assert_eq!(
            intra == P::NvlinkP2p,
            ipc && bytes >= t.ipc_large_threshold
        );
        let inter = t.path(false, false, ipc, bytes);
        prop_assert!(matches!(inter, P::IbRdma | P::IbEager));
        prop_assert_eq!(inter == P::IbEager, bytes < t.eager_threshold);
        // registration is required exactly on the RDMA path
        prop_assert_eq!(t.needs_registration(inter), inter == P::IbRdma);
        prop_assert!(!t.needs_registration(intra));
    }

    /// Transfer + pin costs are finite and non-negative everywhere.
    #[test]
    fn costs_are_sane(bytes in 0u64..(1 << 30)) {
        use dlsr_net::TransportPath as P;
        let t = TransportModel::lassen();
        for p in [P::DeviceLocal, P::NvlinkP2p, P::HostStaged, P::IbRdma, P::IbEager] {
            let dt = t.transfer_time(p, bytes);
            prop_assert!(dt.is_finite() && dt >= 0.0);
            let nccl = t.transfer_time_nccl(p, bytes);
            prop_assert!(nccl.is_finite() && nccl >= 0.0);
        }
        let pin = t.pin_time(bytes);
        prop_assert!(pin >= t.pin_base);
    }
}
