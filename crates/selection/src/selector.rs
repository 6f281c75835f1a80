//! Periodic benefit/size filter selection (§6.2).

use crate::generalize::Generalizer;
use crate::greedy::{candidate_key, greedy_pick, Scored};
use fbdr_dit::DitStore;
use fbdr_ldap::SearchRequest;
use fbdr_obs::{event, span, Obs};
use fbdr_replica::FilterReplica;
use fbdr_resync::{ShardCoordinator, ShardedMaster, SyncError, SyncTraffic};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Configuration for the periodic selector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectorConfig {
    /// Queries between revolutions (the paper's `R`, e.g. 6000 or 10000).
    pub revolution_interval: u64,
    /// Replica entry budget: selected filters' total estimated size must
    /// stay within it.
    pub entry_budget: usize,
    /// Upper bound on candidates tracked (cheapest-benefit candidates are
    /// dropped beyond it).
    pub max_candidates: usize,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        SelectorConfig { revolution_interval: 6000, entry_budget: 5000, max_candidates: 4096 }
    }
}

#[derive(Debug)]
struct Candidate {
    request: SearchRequest,
    hits: u64,
    /// Lazily computed entry count at the master.
    size: Option<usize>,
}

/// Outcome of one revolution.
#[derive(Debug, Clone, Default)]
pub struct RevolutionReport {
    /// Filters newly installed into the replica.
    pub installed: Vec<SearchRequest>,
    /// Filters evicted from the replica.
    pub removed: Vec<SearchRequest>,
    /// Traffic spent loading the new filters' content — component (ii) of
    /// the filter replica's update traffic (§7.3).
    pub traffic: SyncTraffic,
}

/// The paper's filter selection scheme: maintain hit statistics for
/// candidate (generalized) filters and periodically update the replica's
/// stored set, choosing candidates by benefit-to-size ratio.
///
/// *Benefit* is the number of hits for a candidate since the last update;
/// *size* is the estimated number of entries matching the filter. This is
/// the paper's "simple means of approximating the expensive revolutions
/// of \[12\]".
#[derive(Debug)]
pub struct FilterSelector {
    config: SelectorConfig,
    generalizers: Vec<Box<dyn Generalizer + Send>>,
    candidates: HashMap<String, Candidate>,
    /// Keys of filters this selector installed; revolutions only ever
    /// evict managed filters, never statically configured ones.
    managed: HashSet<String>,
    queries_seen: u64,
    revolutions: u64,
    /// Observability handle; [`Obs::off`] unless attached via
    /// [`FilterSelector::with_obs`].
    obs: Obs,
}

impl FilterSelector {
    /// Creates a selector with the given generalization rules.
    pub fn new(config: SelectorConfig, generalizers: Vec<Box<dyn Generalizer + Send>>) -> Self {
        FilterSelector {
            config,
            generalizers,
            candidates: HashMap::new(),
            managed: HashSet::new(),
            queries_seen: 0,
            revolutions: 0,
            obs: Obs::off(),
        }
    }

    /// Attaches observability: each revolution is timed into the
    /// `fbdr_selection_revolve_ns` histogram, increments
    /// `fbdr_selection_{revolutions,installed,evicted}_total`, and emits
    /// `selection.{revolution,promote,evict}` trace events.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The observability handle this selector records through.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Queries observed so far.
    pub fn queries_seen(&self) -> u64 {
        self.queries_seen
    }

    /// Revolutions performed so far.
    pub fn revolutions(&self) -> u64 {
        self.revolutions
    }

    /// Number of candidates currently tracked.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Observes one user query: generalizes it and credits a hit to every
    /// candidate that would have answered it.
    pub fn observe(&mut self, query: &SearchRequest) {
        self.queries_seen += 1;
        for g in &self.generalizers {
            for cand in g.generalize(query) {
                let key = candidate_key(&cand);
                let entry = self
                    .candidates
                    .entry(key)
                    .or_insert(Candidate { request: cand, hits: 0, size: None });
                entry.hits += 1;
            }
        }
        if self.candidates.len() > self.config.max_candidates {
            self.prune();
        }
    }

    /// True when a revolution is due (every `revolution_interval` queries).
    pub fn revolution_due(&self) -> bool {
        self.queries_seen > 0 && self.queries_seen.is_multiple_of(self.config.revolution_interval)
    }

    /// Performs a revolution if one is due: selects the best
    /// benefit-to-size candidates within the entry budget and swaps the
    /// replica's stored filter set accordingly. The master is a sharded
    /// deployment (an unsharded master is its one-shard case);
    /// `coordinator` is the one that syncs `replica` against it.
    ///
    /// # Errors
    ///
    /// Propagates [`SyncError`] from installing filters at the master.
    pub fn maybe_revolve(
        &mut self,
        master: &mut ShardedMaster,
        coordinator: &mut ShardCoordinator,
        replica: &FilterReplica,
    ) -> Result<Option<RevolutionReport>, SyncError> {
        if !self.revolution_due() {
            return Ok(None);
        }
        self.revolve(master, coordinator, replica).map(Some)
    }

    /// Unconditionally performs a revolution.
    ///
    /// # Errors
    ///
    /// Propagates [`SyncError`] from installing filters at the master.
    pub fn revolve(
        &mut self,
        master: &mut ShardedMaster,
        coordinator: &mut ShardCoordinator,
        replica: &FilterReplica,
    ) -> Result<RevolutionReport, SyncError> {
        let _span = span!(self.obs, "selection", "revolve");
        self.revolutions += 1;
        let scored = self.candidates.values().filter(|c| c.hits > 0).count();
        let selected = self.select_sized(|r| master.count_matching(r));
        let selected_keys: Vec<String> = selected.iter().map(candidate_key).collect();

        let mut report = RevolutionReport::default();
        // Evict *managed* filters that fell out of the selection; filters
        // installed statically by the operator are never touched.
        let current: Vec<SearchRequest> = replica.filters().map(|(r, _)| r.clone()).collect();
        for r in &current {
            let key = candidate_key(r);
            if self.managed.contains(&key) && !selected_keys.contains(&key) {
                replica.remove_filter(master, r);
                self.managed.remove(&key);
                event!(self.obs, "selection", "evict", filter = key.as_str());
                report.removed.push(r.clone());
            }
        }
        // Install newly selected filters.
        let current_keys: Vec<String> = current.iter().map(candidate_key).collect();
        for r in selected {
            let key = candidate_key(&r);
            if !current_keys.contains(&key) {
                let t = replica.install_filter_sharded(master, coordinator, r.clone())?;
                event!(
                    self.obs,
                    "selection",
                    "promote",
                    filter = key.as_str(),
                    load_entries = t.full_entries,
                );
                report.traffic.absorb(&t);
                report.installed.push(r);
            }
            self.managed.insert(key);
        }
        // Benefit is "hits since the last update": reset counters.
        for c in self.candidates.values_mut() {
            c.hits = 0;
            c.size = None; // re-estimate next time; the directory changes
        }
        if self.obs.is_active() {
            let reg = self.obs.registry();
            reg.counter("fbdr_selection_revolutions_total").inc();
            reg.counter("fbdr_selection_installed_total").add(report.installed.len() as u64);
            reg.counter("fbdr_selection_evicted_total").add(report.removed.len() as u64);
        }
        event!(
            self.obs,
            "selection",
            "revolution",
            revolution = self.revolutions,
            candidates = scored,
            installed = report.installed.len(),
            evicted = report.removed.len(),
        );
        Ok(report)
    }

    /// Greedy benefit/size selection within the entry budget, standalone
    /// against one store: the static, train-then-freeze configuration of
    /// Figure 4. A candidate's size is what it matches inside its own base
    /// and scope.
    ///
    /// The ranking, tie-breaks and containment skip live in the shared
    /// greedy core (the crate-private `greedy` module) so that the
    /// budgeted online selector provably computes the same target set
    /// from the same frozen statistics.
    pub fn select(&mut self, master: &DitStore) -> Vec<SearchRequest> {
        self.select_sized(|r| region_size(master, r))
    }

    /// [`FilterSelector::select`] with the size estimate left to the
    /// caller: a revolution sizes at the sharded master.
    fn select_sized(&mut self, size_of: impl Fn(&SearchRequest) -> usize) -> Vec<SearchRequest> {
        let budget = self.config.entry_budget;
        let mut scored: Vec<Scored> = Vec::new();
        for c in self.candidates.values_mut() {
            if c.hits == 0 {
                continue;
            }
            let size = *c.size.get_or_insert_with(|| size_of(&c.request));
            if size == 0 || size > budget {
                continue;
            }
            scored.push(Scored {
                key: candidate_key(&c.request),
                request: c.request.clone(),
                ratio: c.hits as f64 / size as f64,
                size,
            });
        }
        greedy_pick(scored, budget).into_iter().map(|s| s.request).collect()
    }

    /// All candidates with at least one hit, ranked by benefit/size ratio
    /// (best first), with their hit counts and size estimates. Used by the
    /// "hit ratio vs number of stored filters" sweeps (Figures 8–9), which
    /// take the top *k* regardless of an entry budget.
    pub fn ranked_candidates(&mut self, master: &DitStore) -> Vec<(SearchRequest, u64, usize)> {
        let mut out: Vec<(SearchRequest, u64, usize)> = Vec::new();
        for c in self.candidates.values_mut() {
            if c.hits == 0 {
                continue;
            }
            let size = *c.size.get_or_insert_with(|| region_size(master, &c.request));
            if size == 0 {
                continue;
            }
            out.push((c.request.clone(), c.hits, size));
        }
        out.sort_by(|a, b| {
            let ra = a.1 as f64 / a.2 as f64;
            let rb = b.1 as f64 / b.2 as f64;
            rb.partial_cmp(&ra)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.to_string().cmp(&b.0.to_string()))
        });
        out
    }

    fn prune(&mut self) {
        let mut hits: Vec<u64> = self.candidates.values().map(|c| c.hits).collect();
        hits.sort_unstable();
        let cutoff = hits[hits.len() / 4];
        self.candidates.retain(|_, c| c.hits > cutoff);
    }
}

/// Entries of `dit` that `request` matches within its base and scope.
fn region_size(dit: &DitStore, request: &SearchRequest) -> usize {
    let mut n = 0;
    dit.for_each_match(request, |_| n += 1);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generalize::ValuePrefix;
    use fbdr_ldap::{Entry, Filter, Scope};
    use fbdr_resync::SyncMaster;

    fn master() -> SyncMaster {
        let mut m = SyncMaster::new();
        m.dit_mut().add_suffix("o=xyz".parse().unwrap());
        m.dit_mut().add(Entry::new("o=xyz".parse().unwrap())).unwrap();
        // Serial numbers: cluster 0456xx (popular, 10 entries) and
        // 12xxxx (unpopular, 10 entries).
        for i in 0..10 {
            m.dit_mut()
                .add(
                    Entry::new(format!("cn=a{i},o=xyz").parse().unwrap())
                        .with("objectclass", "person")
                        .with("serialNumber", &format!("04560{i}")),
                )
                .unwrap();
            m.dit_mut()
                .add(
                    Entry::new(format!("cn=b{i},o=xyz").parse().unwrap())
                        .with("objectclass", "person")
                        .with("serialNumber", &format!("12000{i}")),
                )
                .unwrap();
        }
        m
    }

    fn query(sn: &str) -> SearchRequest {
        SearchRequest::from_root(Filter::parse(&format!("(serialNumber={sn})")).unwrap())
    }

    fn selector(interval: u64, budget: usize) -> FilterSelector {
        FilterSelector::new(
            SelectorConfig {
                revolution_interval: interval,
                entry_budget: budget,
                max_candidates: 100,
            },
            vec![Box::new(ValuePrefix::new("serialNumber", vec![4]))],
        )
    }

    #[test]
    fn observe_accumulates_candidate_hits() {
        let mut s = selector(100, 100);
        for i in 0..5 {
            s.observe(&query(&format!("04560{i}")));
        }
        s.observe(&query("120001"));
        assert_eq!(s.candidate_count(), 2);
        assert_eq!(s.queries_seen(), 6);
    }

    #[test]
    fn select_prefers_benefit_per_size() {
        let m = master();
        let mut s = selector(100, 10);
        // 0456* gets 5 hits, 1200* gets 1: both size 10, budget 10 → only
        // the popular one fits.
        for i in 0..5 {
            s.observe(&query(&format!("04560{i}")));
        }
        s.observe(&query("120001"));
        let picked = s.select(m.dit());
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].filter().to_string(), "(serialNumber=0456*)");
    }

    #[test]
    fn select_respects_budget() {
        let m = master();
        let mut s = selector(100, 20);
        for i in 0..5 {
            s.observe(&query(&format!("04560{i}")));
        }
        s.observe(&query("120001"));
        // Budget 20 fits both clusters.
        assert_eq!(s.select(m.dit()).len(), 2);
        // Budget 5 fits neither (each cluster has 10 entries).
        let mut small = selector(100, 5);
        small.observe(&query("045601"));
        assert!(small.select(m.dit()).is_empty());
    }

    /// The master as the one-shard deployment, with its coordinator.
    fn deployment() -> (ShardedMaster, ShardCoordinator) {
        let m = ShardedMaster::from(master());
        let c = ShardCoordinator::new(m.map().clone());
        (m, c)
    }

    #[test]
    fn revolution_installs_and_evicts() {
        let (mut m, mut c) = deployment();
        let replica = FilterReplica::new(0);
        let mut s = selector(3, 10);

        for i in 0..3 {
            s.observe(&query(&format!("04560{i}")));
        }
        assert!(s.revolution_due());
        let report = s.maybe_revolve(&mut m, &mut c, &replica).unwrap().expect("due");
        assert_eq!(report.installed.len(), 1);
        assert_eq!(report.traffic.full_entries, 10);
        assert_eq!(replica.filter_count(), 1);
        assert!(replica.try_answer(&query("045607")).is_some());

        // Access pattern shifts to the 1200xx cluster: next revolution
        // swaps the stored filter.
        for i in 0..3 {
            s.observe(&query(&format!("12000{i}")));
        }
        let report = s.maybe_revolve(&mut m, &mut c, &replica).unwrap().expect("due");
        assert_eq!(report.installed.len(), 1);
        assert_eq!(report.removed.len(), 1);
        assert!(replica.try_answer(&query("120005")).is_some());
        assert!(replica.try_answer(&query("045607")).is_none());
        assert_eq!(s.revolutions(), 2);
    }

    #[test]
    fn no_revolution_between_intervals() {
        let (mut m, mut c) = deployment();
        let replica = FilterReplica::new(0);
        let mut s = selector(10, 10);
        s.observe(&query("045601"));
        assert!(!s.revolution_due());
        assert!(s.maybe_revolve(&mut m, &mut c, &replica).unwrap().is_none());
    }

    #[test]
    fn a_scoped_candidate_is_sized_by_its_region() {
        // 0456* matches 13 entries in the whole directory, 3 of them under
        // ou=lab. A query scoped to ou=lab generalizes to a candidate with
        // the same base: it fits a budget of 5 only when charged the 3
        // entries of its region, not the filter's 13.
        let mut m = master();
        m.dit_mut().add(Entry::new("ou=lab,o=xyz".parse().unwrap())).unwrap();
        for i in 0..3 {
            m.dit_mut()
                .add(
                    Entry::new(format!("cn=l{i},ou=lab,o=xyz").parse().unwrap())
                        .with("objectclass", "person")
                        .with("serialNumber", &format!("04569{i}")),
                )
                .unwrap();
        }
        let scoped = |sn: &str| {
            let f = Filter::parse(&format!("(serialNumber={sn})")).unwrap();
            SearchRequest::new("ou=lab,o=xyz".parse().unwrap(), Scope::Subtree, f)
        };
        let trained = || {
            let mut s = selector(2, 5);
            s.observe(&scoped("045690"));
            s.observe(&scoped("045691"));
            s
        };
        let picked = trained().select(m.dit());
        assert_eq!(picked.len(), 1, "{picked:?}");
        assert_eq!(picked[0].base().to_string(), "ou=lab,o=xyz");

        // A revolution sizes the same way, at the sharded master.
        let mut m = ShardedMaster::from(m);
        let mut c = ShardCoordinator::new(m.map().clone());
        let replica = FilterReplica::new(0);
        let report = trained().revolve(&mut m, &mut c, &replica).unwrap();
        assert_eq!(report.traffic.full_entries, 3);
        assert!(replica.try_answer(&scoped("045692")).is_some());
    }

    #[test]
    fn select_skips_contained_candidates() {
        let m = master();
        let mut s = FilterSelector::new(
            SelectorConfig { revolution_interval: 1000, entry_budget: 50, max_candidates: 100 },
            vec![Box::new(ValuePrefix::new("serialNumber", vec![4, 5]))],
        );
        // Queries generate both a coarse 4-digit prefix (0456*, size 10)
        // and fine 5-digit prefixes (04560*, size 10 here as well since
        // all serials share 04560x). The fine one is contained in the
        // coarse one; only one of them should be selected.
        for i in 0..6 {
            s.observe(&query(&format!("04560{i}")));
        }
        let picked = s.select(m.dit());
        assert_eq!(picked.len(), 1, "contained duplicate selected: {picked:?}");
    }

    #[test]
    fn pruning_caps_candidates() {
        let mut s = FilterSelector::new(
            SelectorConfig { revolution_interval: 1000, entry_budget: 10, max_candidates: 8 },
            vec![Box::new(ValuePrefix::new("serialNumber", vec![4]))],
        );
        for i in 0..40 {
            s.observe(&query(&format!("{:06}", i * 137)));
        }
        assert!(s.candidate_count() <= 9, "got {}", s.candidate_count());
    }
}
