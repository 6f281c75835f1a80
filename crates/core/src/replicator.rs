//! The `Replicator` façade: master deployment + filter replica + optional
//! dynamic selection behind one query interface.

use fbdr_dit::{ChangeRecord, DitError, UpdateOp};
use fbdr_ldap::{Entry, SearchRequest};
use fbdr_replica::{FilterReplica, ReplicaStats};
use fbdr_resync::{
    DriverStats, RetryConfig, ShardCoordinator, ShardedMaster, SyncError, SyncTraffic,
};
use fbdr_selection::FilterSelector;
use serde::{Deserialize, Serialize};

/// Who answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServedBy {
    /// Answered locally by the replica (a hit).
    Replica,
    /// Forwarded to the master (a miss → referral in a real deployment).
    Master,
}

/// Accumulated traffic/cost report for a [`Replicator`].
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ReplicatorReport {
    /// ReSync traffic for the currently stored filters (component (i) of
    /// §7.3 update traffic).
    pub resync_traffic: SyncTraffic,
    /// Content-load traffic from installing new filters (component (ii)).
    pub revolution_traffic: SyncTraffic,
    /// Queries forwarded to the master.
    pub wan_queries: u64,
    /// Entries fetched from the master on misses.
    pub wan_entries: u64,
    /// Revolutions performed: the selector's steps.
    pub revolutions: u64,
    /// Promote/evict moves those steps made (each step is capped at the
    /// configured move budget).
    pub moves: u64,
    /// What the sync driver had to do to keep the replica converged:
    /// retries, recoveries, reconciliations, reinstalls (the robustness
    /// cost of §5.2-style failures, alongside the bandwidth cost above).
    pub driver: DriverStats,
}

/// A remote filter-based replica bound to its master deployment.
///
/// The master is a [`ShardedMaster`] — the directory partitioned across
/// master shards by naming context, the simulated wide-area side — and an
/// unsharded [`SyncMaster`](fbdr_resync::SyncMaster) converts into its
/// one-shard case. Every stored filter holds one ReSync session per shard
/// it overlaps, driven by the replicator's [`ShardCoordinator`]; a sync
/// cycle degrades per shard — a partitioned shard leaves that shard's
/// slice stale while the others keep delivering updates. Optionally a
/// [`FilterSelector`] observes the query stream and *revolves* the stored
/// filter set (§6.2).
#[derive(Debug)]
pub struct Replicator {
    master: ShardedMaster,
    replica: FilterReplica,
    coordinator: ShardCoordinator,
    selector: Option<FilterSelector>,
    cache_misses: bool,
    report: ReplicatorReport,
}

impl Replicator {
    /// Creates a replicator; `cache_window` recent user queries are cached
    /// (0 disables caching). The coordinator takes its shard map from the
    /// master, and the replica and the coordinator's drivers record
    /// through the master's observability handle
    /// ([`ShardedMaster::obs`]).
    pub fn new(master: impl Into<ShardedMaster>, cache_window: usize) -> Self {
        let master = master.into();
        let obs = master.obs().clone();
        let coordinator = ShardCoordinator::new(master.map().clone()).with_obs(obs.clone());
        Replicator {
            master,
            replica: FilterReplica::with_obs(cache_window, obs),
            coordinator,
            selector: None,
            cache_misses: cache_window > 0,
            report: ReplicatorReport::default(),
        }
    }

    /// Attaches a dynamic filter selector: it observes every query, and
    /// whenever one of its steps is due the stored filter set is adjusted
    /// on the search path, by at most the selector's move budget.
    pub fn with_selector(mut self, selector: FilterSelector) -> Self {
        self.selector = Some(selector);
        self
    }

    /// Overrides the per-shard retry policy.
    pub fn with_config(mut self, retry: RetryConfig) -> Self {
        self.coordinator = ShardCoordinator::with_config(self.master.map().clone(), retry)
            .with_obs(self.replica.obs().clone());
        self
    }

    /// Read access to the master deployment.
    pub fn master(&self) -> &ShardedMaster {
        &self.master
    }

    /// Read access to the replica.
    pub fn replica(&self) -> &FilterReplica {
        &self.replica
    }

    /// The attached selector, if any: its cumulative report and
    /// candidate-table size.
    pub fn selector(&self) -> Option<&FilterSelector> {
        self.selector.as_ref()
    }

    /// Traffic report.
    pub fn report(&self) -> ReplicatorReport {
        self.report
    }

    /// Replica hit statistics.
    pub fn stats(&self) -> ReplicaStats {
        self.replica.stats()
    }

    /// Installs a statically configured generalized filter: one session
    /// per overlapped shard.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SyncError`] any shard produced.
    pub fn install_filter(&mut self, request: SearchRequest) -> Result<SyncTraffic, SyncError> {
        let t = self.replica.install_filter_sharded(
            &mut self.master,
            &mut self.coordinator,
            request,
        )?;
        self.report.revolution_traffic.absorb(&t);
        Ok(t)
    }

    /// Removes a stored filter, ending its session on every shard holding
    /// one. Returns true if the filter was present.
    pub fn remove_filter(&mut self, request: &SearchRequest) -> bool {
        self.replica.remove_filter(&mut self.master, request)
    }

    /// Answers a query: locally when possible, otherwise from the master,
    /// fanned out across the shards the query overlaps (counting WAN
    /// traffic and, if enabled, caching the result).
    pub fn search(&mut self, query: &SearchRequest) -> (Vec<Entry>, ServedBy) {
        if let Some(sel) = &mut self.selector {
            sel.observe(query);
        }
        if let Some(entries) = self.replica.try_answer(query) {
            self.maybe_adapt();
            return (entries, ServedBy::Replica);
        }
        let entries = self.master.search(query);
        self.report.wan_queries += 1;
        self.report.wan_entries += entries.len() as u64;
        if self.cache_misses {
            self.replica.cache_query(query.clone(), &entries);
        }
        self.maybe_adapt();
        (entries, ServedBy::Master)
    }

    /// Applies an update at the shard owning its target DN (maintaining
    /// ReSync sessions).
    ///
    /// # Errors
    ///
    /// Propagates [`DitError`] from the owning shard's store.
    pub fn apply_update(&mut self, op: UpdateOp) -> Result<ChangeRecord, DitError> {
        self.master.apply(op)
    }

    /// One sync cycle: every filter polls each shard it overlaps through
    /// that shard's own retrying driver — transient failures are retried
    /// with backoff, lost sessions are reconciled by set digest (shipping
    /// only the diverged entries) or reinstalled when the reconcile
    /// exchange fails, and a slice whose retry budget runs out is served
    /// stale until the next cycle (see [`FilterReplica::sync_with_sharded`]).
    ///
    /// # Errors
    ///
    /// The first hard [`SyncError`] any shard produced; partial progress
    /// is already published.
    pub fn sync(&mut self) -> Result<SyncTraffic, SyncError> {
        let t = self.replica.sync_with_sharded(&mut self.master, &mut self.coordinator)?;
        self.report.resync_traffic.absorb(&t);
        self.report.driver = self.coordinator.stats();
        Ok(t)
    }

    fn maybe_adapt(&mut self) {
        let Replicator { master, coordinator, replica, report, selector, .. } = self;
        if let Some(sel) = selector {
            if sel.step_due() {
                if let Ok(step) = sel.step(master, coordinator, replica) {
                    report.revolutions += 1;
                    report.moves += step.moves as u64;
                    report.revolution_traffic.absorb(&step.traffic);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_ldap::Filter;
    use fbdr_resync::{ShardId, SyncMaster};
    use fbdr_selection::generalize::ValuePrefix;
    use fbdr_selection::{SelectorConfig, StepConfig};

    fn master() -> SyncMaster {
        let mut m = SyncMaster::new();
        m.dit_mut().add_suffix("o=xyz".parse().unwrap());
        m.dit_mut().add(Entry::new("o=xyz".parse().unwrap())).unwrap();
        for i in 0..20 {
            m.dit_mut()
                .add(
                    Entry::new(format!("cn=e{i},o=xyz").parse().unwrap())
                        .with("objectclass", "person")
                        .with("serialNumber", &format!("04{:04}", i)),
                )
                .unwrap();
        }
        m
    }

    fn q(sn: &str) -> SearchRequest {
        SearchRequest::from_root(Filter::parse(&format!("(serialNumber={sn})")).unwrap())
    }

    #[test]
    fn static_filter_serves_hits() {
        let mut r = Replicator::new(master(), 0);
        r.install_filter(SearchRequest::from_root(Filter::parse("(serialNumber=040*)").unwrap()))
            .unwrap();
        let (es, served) = r.search(&q("040005"));
        assert_eq!(served, ServedBy::Replica);
        assert_eq!(es.len(), 1);
        let (_, served) = r.search(&q("041000"));
        assert_eq!(served, ServedBy::Master);
        assert_eq!(r.report().wan_queries, 1);
        assert_eq!(r.stats().hits, 1);
    }

    #[test]
    fn miss_caching_serves_repeats() {
        let mut r = Replicator::new(master(), 8);
        let (_, s1) = r.search(&q("040010"));
        assert_eq!(s1, ServedBy::Master);
        let (es, s2) = r.search(&q("040010"));
        assert_eq!(s2, ServedBy::Replica);
        assert_eq!(es.len(), 1);
        assert_eq!(r.stats().cache_hits, 1);
    }

    #[test]
    fn dynamic_selection_installs_hot_region() {
        let selector = FilterSelector::new(
            SelectorConfig { revolution_interval: 10, entry_budget: 50, max_candidates: 64 },
            vec![Box::new(ValuePrefix::new("serialNumber", vec![4]))],
        );
        let mut r = Replicator::new(master(), 0).with_selector(selector);
        // 10 queries in the 0400xx region trigger a revolution.
        for i in 0..10 {
            r.search(&q(&format!("04{:04}", i % 5)));
        }
        assert_eq!(r.report().revolutions, 1);
        assert!(r.replica().filter_count() >= 1);
        let (_, served) = r.search(&q("040003"));
        assert_eq!(served, ServedBy::Replica);
    }

    #[test]
    fn online_selection_adapts_on_search_path() {
        let selector = FilterSelector::new(
            StepConfig {
                entry_budget: 50,
                step_every: 10,
                move_budget: 2,
                min_dwell_steps: 0,
                ..StepConfig::default()
            },
            vec![Box::new(ValuePrefix::new("serialNumber", vec![4]))],
        );
        let mut r = Replicator::new(master(), 0).with_selector(selector);
        for i in 0..20 {
            r.search(&q(&format!("04{:04}", i % 5)));
        }
        let rep = r.report();
        assert_eq!(rep.revolutions, 2, "a step every 10 queries");
        assert!(rep.moves >= 1, "hot region promoted");
        assert!(rep.moves <= 4, "two steps × move budget 2");
        assert!(r.replica().filter_count() >= 1);
        let (_, served) = r.search(&q("040003"));
        assert_eq!(served, ServedBy::Replica);
        assert_eq!(r.selector().unwrap().report().steps, 2);
    }

    #[test]
    fn sharded_replicator_syncs_across_shards() {
        use fbdr_resync::ShardMap;

        // Two shards: country g0 on shard 0, g1 on shard 1; each shard's
        // master holds the skeleton plus its own country subtree.
        let map = ShardMap::by_suffixes(vec![
            "c=g0,o=xyz".parse().unwrap(),
            "c=g1,o=xyz".parse().unwrap(),
        ]);
        let mut sharded = ShardedMaster::new(map);
        for i in 0..2u16 {
            let m = sharded.shard_mut(ShardId::new(i));
            m.dit_mut().add_suffix("o=xyz".parse().unwrap());
            m.dit_mut().add(Entry::new("o=xyz".parse().unwrap())).unwrap();
            m.dit_mut()
                .add(Entry::new(format!("c=g{i},o=xyz").parse().unwrap()))
                .unwrap();
        }
        for i in 0..10 {
            let cc = i % 2;
            sharded
                .apply(UpdateOp::Add(
                    Entry::new(format!("cn=e{i},c=g{cc},o=xyz").parse().unwrap())
                        .with("objectclass", "person")
                        .with("serialNumber", &format!("04{:04}", i)),
                ))
                .unwrap();
        }

        let mut r = Replicator::new(sharded, 0);
        r.install_filter(SearchRequest::from_root(Filter::parse("(serialNumber=040*)").unwrap()))
            .unwrap();
        // Both shards contributed content; hits answer locally.
        let (es, served) = r.search(&q("040003"));
        assert_eq!(served, ServedBy::Replica);
        assert_eq!(es.len(), 1);

        // Updates land on different shards; one sync picks up both.
        r.apply_update(UpdateOp::Add(
            Entry::new("cn=n0,c=g0,o=xyz".parse().unwrap())
                .with("objectclass", "person")
                .with("serialNumber", "040088"),
        ))
        .unwrap();
        r.apply_update(UpdateOp::Add(
            Entry::new("cn=n1,c=g1,o=xyz".parse().unwrap())
                .with("objectclass", "person")
                .with("serialNumber", "040099"),
        ))
        .unwrap();
        assert_eq!(r.master().shard(ShardId::new(0)).ops_applied(), 6);
        assert_eq!(r.master().shard(ShardId::new(1)).ops_applied(), 6);
        let t = r.sync().unwrap();
        assert_eq!(t.full_entries, 2);
        let (es, served) = r.search(&q("040099"));
        assert_eq!(served, ServedBy::Replica);
        assert_eq!(es.len(), 1);
        // A miss fans out across shards and merges.
        let (es, served) = r.search(&SearchRequest::from_root(
            Filter::parse("(objectclass=person)").unwrap(),
        ));
        assert_eq!(served, ServedBy::Master);
        assert_eq!(es.len(), 12);
        // Removing the filter ends its session on both shards.
        assert_eq!(r.master().session_count(), 2);
        assert!(r.remove_filter(&SearchRequest::from_root(
            Filter::parse("(serialNumber=040*)").unwrap()
        )));
        assert_eq!(r.master().session_count(), 0);
        assert_eq!(r.search(&q("040003")).1, ServedBy::Master);
    }

    #[test]
    fn sync_after_update_propagates() {
        let mut r = Replicator::new(master(), 0);
        r.install_filter(SearchRequest::from_root(Filter::parse("(serialNumber=040*)").unwrap()))
            .unwrap();
        r.apply_update(UpdateOp::Add(
            Entry::new("cn=new,o=xyz".parse().unwrap())
                .with("objectclass", "person")
                .with("serialNumber", "040099"),
        ))
        .unwrap();
        let t = r.sync().unwrap();
        assert_eq!(t.full_entries, 1);
        let (es, served) = r.search(&q("040099"));
        assert_eq!(served, ServedBy::Replica);
        assert_eq!(es.len(), 1);
        // Install and cycle each ran through the shard's driver: one clean
        // attempt apiece, no drama.
        let d = r.report().driver;
        assert_eq!(d.attempts, 2);
        assert_eq!(d.retries, 0);
        assert_eq!(d.exhausted, 0);
    }
}
