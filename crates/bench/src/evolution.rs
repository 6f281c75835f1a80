//! The evolution/revolution baseline of Kapitskaia, Ng and Srivastava
//! (\[12\] in the paper).
//!
//! Their cache maintains two lists — *actual* (stored) and *candidate*
//! filters — and updates benefits on **every** user query. An *evolution*
//! may move filters in and out of the stored list immediately; when the
//! candidates' total benefit exceeds the actuals' by a threshold, a
//! *revolution* recomputes the stored set from the merged lists.
//!
//! The paper argues (§6.2) that per-query evolutions cause frequent
//! updates to the stored filter list and are therefore unsuitable for a
//! replication scenario, where every install costs a content transfer.
//! [`EvolutionSelector`] exists to quantify that churn against
//! [`FilterSelector`](fbdr_selection::FilterSelector)'s periodic updates.

use fbdr_ldap::SearchRequest;
use fbdr_replica::FilterReplica;
use fbdr_resync::{ShardCoordinator, ShardedMaster, SyncError, SyncTraffic};
use fbdr_selection::generalize::Generalizer;
use std::collections::HashMap;

/// Churn and traffic accounting for an evolution-based run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvolutionReport {
    /// Filters installed (each costs a content load).
    pub installs: u64,
    /// Filters evicted.
    pub evictions: u64,
    /// Revolutions triggered.
    pub revolutions: u64,
    /// Total content-load traffic.
    pub traffic: SyncTraffic,
}

#[derive(Debug, Clone)]
struct Scored {
    request: SearchRequest,
    benefit: f64,
    size: Option<usize>,
}

/// Simplified evolution/revolution cache manager in the style of \[12\].
#[derive(Debug)]
pub struct EvolutionSelector {
    generalizers: Vec<Box<dyn Generalizer + Send>>,
    /// Benefit-decay factor per query (recency weighting).
    decay: f64,
    /// Revolution trigger: candidates' benefit > actuals' benefit × (1+θ).
    threshold: f64,
    entry_budget: usize,
    actual: HashMap<String, Scored>,
    candidate: HashMap<String, Scored>,
    report: EvolutionReport,
}

impl EvolutionSelector {
    /// Creates the selector. `decay` ∈ (0,1]; `threshold` θ ≥ 0.
    pub fn new(
        generalizers: Vec<Box<dyn Generalizer + Send>>,
        entry_budget: usize,
        decay: f64,
        threshold: f64,
    ) -> Self {
        EvolutionSelector {
            generalizers,
            decay,
            threshold,
            entry_budget,
            actual: HashMap::new(),
            candidate: HashMap::new(),
            report: EvolutionReport::default(),
        }
    }

    /// Accumulated churn/traffic report.
    pub fn report(&self) -> EvolutionReport {
        self.report
    }

    /// Processes one query: update benefits of both lists, evolve (swap a
    /// candidate in for the weakest actual if it now scores higher), and
    /// revolve when the candidate list collectively overtakes the actuals.
    /// The master is a sharded deployment (an unsharded master is its
    /// one-shard case); `coordinator` is the one that syncs `replica`
    /// against it.
    ///
    /// # Errors
    ///
    /// Propagates [`SyncError`] from content loads at the master.
    pub fn observe(
        &mut self,
        query: &SearchRequest,
        master: &mut ShardedMaster,
        coordinator: &mut ShardCoordinator,
        replica: &FilterReplica,
    ) -> Result<(), SyncError> {
        // Decay all benefits.
        for s in self.actual.values_mut().chain(self.candidate.values_mut()) {
            s.benefit *= self.decay;
        }
        // Credit generalizations of this query.
        for g in &self.generalizers {
            for cand in g.generalize(query) {
                let k = key(&cand);
                if let Some(s) = self.actual.get_mut(&k) {
                    s.benefit += 1.0;
                } else {
                    let s = self
                        .candidate
                        .entry(k)
                        .or_insert(Scored { request: cand, benefit: 0.0, size: None });
                    s.benefit += 1.0;
                }
            }
        }
        self.evolve(master, coordinator, replica)?;
        if self.revolution_trigger() {
            self.revolve(master, coordinator, replica)?;
        }
        Ok(())
    }

    /// Evolution step: the best candidate replaces the worst actual when
    /// its benefit/size ratio is higher.
    fn evolve(
        &mut self,
        master: &mut ShardedMaster,
        coordinator: &mut ShardCoordinator,
        replica: &FilterReplica,
    ) -> Result<(), SyncError> {
        let Some((best_key, best_ratio)) = self.best_candidate(master) else {
            return Ok(());
        };
        let worst = self
            .actual
            .iter()
            .map(|(k, s)| (k.clone(), ratio(s)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let evict = match &worst {
            Some((_, worst_ratio)) if self.over_budget() || best_ratio > *worst_ratio => worst.clone(),
            None => None,
            _ => return Ok(()),
        };
        // Install the candidate.
        let mut cand = self.candidate.remove(&best_key).expect("best candidate exists");
        let size = *cand.size.get_or_insert_with(|| master.count_matching(&cand.request));
        if size == 0 || size > self.entry_budget {
            return Ok(()); // useless or oversized; dropped from candidates
        }
        if let Some((k, _)) = evict {
            if self.actual.len() > 1 || ratio(&cand) > 0.0 {
                if let Some(old) = self.actual.remove(&k) {
                    replica.remove_filter(master, &old.request);
                    self.report.evictions += 1;
                    self.candidate.insert(k, old);
                }
            }
        }
        let t = replica.install_filter_sharded(master, coordinator, cand.request.clone())?;
        self.report.installs += 1;
        self.report.traffic.absorb(&t);
        self.actual.insert(key(&cand.request), cand);
        Ok(())
    }

    fn best_candidate(&mut self, master: &ShardedMaster) -> Option<(String, f64)> {
        let budget = self.entry_budget;
        self.candidate
            .iter_mut()
            .filter_map(|(k, s)| {
                if s.benefit <= 0.0 {
                    return None;
                }
                let size = *s.size.get_or_insert_with(|| master.count_matching(&s.request));
                if size == 0 || size > budget {
                    return None;
                }
                Some((k.clone(), s.benefit / size as f64))
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    fn over_budget(&self) -> bool {
        let used: usize = self.actual.values().map(|s| s.size.unwrap_or(0)).sum();
        used > self.entry_budget
    }

    fn revolution_trigger(&self) -> bool {
        let actual: f64 = self.actual.values().map(|s| s.benefit).sum();
        let cand: f64 = self.candidate.values().map(|s| s.benefit).sum();
        !self.actual.is_empty() && cand > actual * (1.0 + self.threshold)
    }

    /// Revolution: merge both lists and keep the best benefit/size set
    /// within budget.
    fn revolve(
        &mut self,
        master: &mut ShardedMaster,
        coordinator: &mut ShardCoordinator,
        replica: &FilterReplica,
    ) -> Result<(), SyncError> {
        self.report.revolutions += 1;
        let mut merged: Vec<Scored> = self.actual.values().cloned().collect();
        merged.extend(self.candidate.values().cloned());
        for s in &mut merged {
            if s.size.is_none() {
                s.size = Some(master.count_matching(&s.request));
            }
        }
        merged.retain(|s| {
            let sz = s.size.expect("size computed");
            sz > 0 && sz <= self.entry_budget && s.benefit > 0.0
        });
        merged.sort_by(|a, b| {
            ratio(b).partial_cmp(&ratio(a)).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut used = 0usize;
        let mut selected: HashMap<String, Scored> = HashMap::new();
        for s in merged {
            let sz = s.size.expect("size computed");
            if used + sz <= self.entry_budget {
                used += sz;
                selected.insert(key(&s.request), s);
            }
        }
        // Apply the diff.
        let old_keys: Vec<String> = self.actual.keys().cloned().collect();
        for k in old_keys {
            if !selected.contains_key(&k) {
                let old = self.actual.remove(&k).expect("key from actual");
                replica.remove_filter(master, &old.request);
                self.report.evictions += 1;
                self.candidate.insert(k, old);
            }
        }
        for (k, s) in selected {
            if !self.actual.contains_key(&k) {
                let t = replica.install_filter_sharded(master, coordinator, s.request.clone())?;
                self.report.installs += 1;
                self.report.traffic.absorb(&t);
                self.candidate.remove(&k);
                self.actual.insert(k, s);
            }
        }
        Ok(())
    }
}

fn ratio(s: &Scored) -> f64 {
    match s.size {
        Some(sz) if sz > 0 => s.benefit / sz as f64,
        _ => 0.0,
    }
}

fn key(r: &SearchRequest) -> String {
    format!("{r}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_selection::generalize::ValuePrefix;
    use fbdr_ldap::{Entry, Filter};
    use fbdr_resync::SyncMaster;

    /// The master as the one-shard deployment, with its coordinator and
    /// an empty replica.
    fn deployment() -> (ShardedMaster, ShardCoordinator, FilterReplica) {
        let m = ShardedMaster::from(master());
        let c = ShardCoordinator::new(m.map().clone());
        (m, c, FilterReplica::new(0))
    }

    fn master() -> SyncMaster {
        let mut m = SyncMaster::new();
        m.dit_mut().add_suffix("o=xyz".parse().unwrap());
        m.dit_mut().add(Entry::new("o=xyz".parse().unwrap())).unwrap();
        for i in 0..10 {
            for (pre, tag) in [("0456", "a"), ("1200", "b")] {
                m.dit_mut()
                    .add(
                        Entry::new(format!("cn={tag}{i},o=xyz").parse().unwrap())
                            .with("objectclass", "person")
                            .with("serialNumber", &format!("{pre}0{i}")),
                    )
                    .unwrap();
            }
        }
        m
    }

    fn query(sn: &str) -> SearchRequest {
        SearchRequest::from_root(Filter::parse(&format!("(serialNumber={sn})")).unwrap())
    }

    fn selector(budget: usize) -> EvolutionSelector {
        EvolutionSelector::new(
            vec![Box::new(ValuePrefix::new("serialNumber", vec![4]))],
            budget,
            0.95,
            0.5,
        )
    }

    #[test]
    fn installs_popular_region() {
        let (mut m, mut c, replica) = deployment();
        let mut s = selector(10);
        for i in 0..5 {
            s.observe(&query(&format!("04560{i}")), &mut m, &mut c, &replica).unwrap();
        }
        assert!(replica.filter_count() >= 1);
        assert!(replica.try_answer(&query("045609")).is_some());
        assert!(s.report().installs >= 1);
    }

    #[test]
    fn churns_more_than_periodic_selection() {
        // Alternating access pattern: evolutions keep swapping the two
        // regions in and out — the churn the paper warns about.
        let (mut m, mut c, replica) = deployment();
        let mut s = selector(10); // budget fits only one region
        for round in 0..20 {
            let pre = if round % 2 == 0 { "0456" } else { "1200" };
            for i in 0..3 {
                s.observe(&query(&format!("{pre}0{i}")), &mut m, &mut c, &replica).unwrap();
            }
        }
        let rep = s.report();
        assert!(
            rep.installs >= 4,
            "expected churn from alternating pattern, got {} installs",
            rep.installs
        );
        assert!(rep.traffic.full_entries >= 4 * 10);
    }

    #[test]
    fn respects_budget() {
        let (mut m, mut c, replica) = deployment();
        let mut s = selector(10);
        for i in 0..5 {
            s.observe(&query(&format!("04560{i}")), &mut m, &mut c, &replica).unwrap();
            s.observe(&query(&format!("12000{i}")), &mut m, &mut c, &replica).unwrap();
        }
        // Only one 10-entry region fits the 10-entry budget.
        assert!(replica.filter_count() <= 1, "got {}", replica.filter_count());
        assert!(replica.entry_count() <= 10);
    }
}
