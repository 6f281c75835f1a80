//! Hit-ratio accounting shared by both replica models.

use fbdr_obs::{Counter, MetricsRegistry};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Query-answering statistics for a replica.
///
/// *Hit ratio* is the fraction of client requests completely answered by
/// the replica without generating referrals (§3.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaStats {
    /// Queries received.
    pub queries: u64,
    /// Queries fully answered locally.
    pub hits: u64,
    /// Hits answered by a synchronized (generalized) stored query.
    pub generalized_hits: u64,
    /// Hits answered by a cached recent user query.
    pub cache_hits: u64,
    /// Hits served from a filter known to be stale — its last sync cycle
    /// exhausted the retry budget, so the content may lag the master.
    pub stale_serves: u64,
    /// Persist subscriptions that degraded to cookie-based polling after
    /// their notification channel disconnected.
    pub poll_fallbacks: u64,
}

impl ReplicaStats {
    /// The hit ratio `hits / queries` (0.0 when no queries were seen).
    pub fn hit_ratio(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.hits as f64 / self.queries as f64
        }
    }

    /// Misses (queries that generated referrals).
    pub fn misses(&self) -> u64 {
        self.queries - self.hits
    }
}

/// Interior-mutable [`ReplicaStats`]: each counter is an atomic
/// [`Counter`] bumped with `fetch_add(1, Relaxed)`, so the query path
/// needs only `&self` and concurrent readers never contend on a lock just
/// to count.
///
/// Ordering guarantees: relaxed operations make each counter individually
/// exact (no lost increments) but establish **no ordering between
/// counters** — a [`snapshot`](AtomicReplicaStats::snapshot) taken while
/// queries are in flight may observe `queries` updated before `hits` for
/// the same query (so `hits <= queries` can transiently be violated by at
/// most the number of in-flight queries). Once all readers quiesce, a
/// snapshot is exact.
///
/// When built with [`AtomicReplicaStats::bound`], the counters **are**
/// the `fbdr_replica_*` counters of a [`MetricsRegistry`]: the registry
/// export and [`snapshot`](AtomicReplicaStats::snapshot) read the same
/// atomics and cannot disagree. [`AtomicReplicaStats::new`] creates
/// free-standing counters for unobserved replicas.
#[derive(Debug)]
pub struct AtomicReplicaStats {
    queries: Arc<Counter>,
    hits: Arc<Counter>,
    generalized_hits: Arc<Counter>,
    cache_hits: Arc<Counter>,
    stale_serves: Arc<Counter>,
    poll_fallbacks: Arc<Counter>,
}

impl Default for AtomicReplicaStats {
    fn default() -> Self {
        AtomicReplicaStats::new()
    }
}

impl AtomicReplicaStats {
    /// A fresh zeroed counter set, not attached to any registry.
    pub fn new() -> Self {
        AtomicReplicaStats {
            queries: Arc::new(Counter::new()),
            hits: Arc::new(Counter::new()),
            generalized_hits: Arc::new(Counter::new()),
            cache_hits: Arc::new(Counter::new()),
            stale_serves: Arc::new(Counter::new()),
            poll_fallbacks: Arc::new(Counter::new()),
        }
    }

    /// A counter set whose atomics live in `registry` under the
    /// `fbdr_replica_*` metric names — the single source both for
    /// [`snapshot`](AtomicReplicaStats::snapshot) and the registry's
    /// Prometheus/JSON export.
    pub fn bound(registry: &MetricsRegistry) -> Self {
        AtomicReplicaStats {
            queries: registry.counter("fbdr_replica_queries_total"),
            hits: registry.counter("fbdr_replica_hits_total"),
            generalized_hits: registry.counter("fbdr_replica_generalized_hits_total"),
            cache_hits: registry.counter("fbdr_replica_cache_hits_total"),
            stale_serves: registry.counter("fbdr_replica_stale_serves_total"),
            poll_fallbacks: registry.counter("fbdr_replica_poll_fallbacks_total"),
        }
    }

    /// Counts a received query.
    pub fn record_query(&self) {
        self.queries.inc();
    }

    /// Counts a hit answered by a generalized (synchronized) filter;
    /// `stale` additionally counts a stale serve.
    pub fn record_generalized_hit(&self, stale: bool) {
        self.hits.inc();
        self.generalized_hits.inc();
        if stale {
            self.stale_serves.inc();
        }
    }

    /// Counts a hit answered by a cached recent user query.
    pub fn record_cache_hit(&self) {
        self.hits.inc();
        self.cache_hits.inc();
    }

    /// Counts a persist→poll degradation.
    pub fn record_poll_fallback(&self) {
        self.poll_fallbacks.inc();
    }

    /// A point-in-time copy of the counters as a plain [`ReplicaStats`].
    pub fn snapshot(&self) -> ReplicaStats {
        ReplicaStats {
            queries: self.queries.get(),
            hits: self.hits.get(),
            generalized_hits: self.generalized_hits.get(),
            cache_hits: self.cache_hits.get(),
            stale_serves: self.stale_serves.get(),
            poll_fallbacks: self.poll_fallbacks.get(),
        }
    }

    /// Zeroes all counters (e.g. after the training day).
    pub fn reset(&self) {
        self.queries.reset();
        self.hits.reset();
        self.generalized_hits.reset();
        self.cache_hits.reset();
        self.stale_serves.reset();
        self.poll_fallbacks.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(ReplicaStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn ratio_and_misses() {
        let s = ReplicaStats {
            queries: 10,
            hits: 5,
            generalized_hits: 3,
            cache_hits: 2,
            ..ReplicaStats::default()
        };
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(s.misses(), 5);
    }

    #[test]
    fn atomic_counters_snapshot_and_reset() {
        let a = AtomicReplicaStats::new();
        a.record_query();
        a.record_query();
        a.record_generalized_hit(true);
        a.record_cache_hit();
        a.record_poll_fallback();
        let s = a.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.hits, 2);
        assert_eq!(s.generalized_hits, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.stale_serves, 1);
        assert_eq!(s.poll_fallbacks, 1);
        a.reset();
        assert_eq!(a.snapshot(), ReplicaStats::default());
    }

    #[test]
    fn bound_stats_share_registry_atomics() {
        let registry = MetricsRegistry::new();
        let stats = AtomicReplicaStats::bound(&registry);
        stats.record_query();
        stats.record_generalized_hit(true);
        // One counter source: the registry export reads the same atomics.
        let snap = registry.snapshot();
        assert_eq!(snap.counters["fbdr_replica_queries_total"], 1);
        assert_eq!(snap.counters["fbdr_replica_hits_total"], 1);
        assert_eq!(snap.counters["fbdr_replica_stale_serves_total"], 1);
        // And increments through the registry are visible in snapshot().
        registry.counter("fbdr_replica_queries_total").inc();
        assert_eq!(stats.snapshot().queries, 2);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let a = AtomicReplicaStats::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let a = &a;
                s.spawn(move || {
                    for _ in 0..1000 {
                        a.record_query();
                        a.record_generalized_hit(false);
                    }
                });
            }
        });
        let s = a.snapshot();
        assert_eq!(s.queries, 4000);
        assert_eq!(s.hits, 4000);
        assert_eq!(s.generalized_hits, 4000);
    }
}
