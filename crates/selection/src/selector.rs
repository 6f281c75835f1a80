//! Benefit/size filter selection (§6.2), one budgeted step at a time.
//!
//! The paper's selector keeps hit statistics for generalized candidate
//! filters and, every `R` queries, installs the best benefit/size set
//! that fits the replica's entry budget. [`FilterSelector`] is that
//! scheme with the revolution cut into *steps*:
//! [`observe`](FilterSelector::observe) credits a benefit to the query's
//! generalizations and marks them *touched* — O(rules) per query, no
//! ranking — and every `step_every` queries
//! [`step`](FilterSelector::step) ranks the **consideration set**
//! (candidates touched since the last step, the stored set, a capped
//! carry-over of near-misses) through the greedy benefit/size core and
//! performs at most `move_budget` promote/evict moves: work is O(changed
//! candidates) per step, never O(all candidates) per query.
//!
//! Every knob of [`StepConfig`] only *relaxes* the paper's periodic
//! revolution — hysteresis and dwell absorb the flapping that makes
//! per-query evolution ([`EvolutionSelector`](crate::EvolutionSelector))
//! unsuitable when every install costs a content transfer; the update
//! charge makes benefit net of propagation cost, in the spirit of
//! interest-based propagation (Endris et al.) — and the periodic
//! revolution itself is the configuration [`SelectorConfig`] converts
//! into: step every `R`, unlimited moves, no hysteresis, no dwell, no
//! update charge, decay 0. The static, train-then-freeze path
//! ([`select`](FilterSelector::select),
//! [`ranked_candidates`](FilterSelector::ranked_candidates)) scores the
//! same candidate table through the same helper, against one store.

use crate::generalize::Generalizer;
use fbdr_containment::{ContainmentEngine, PreparedQuery};
use fbdr_dit::DitStore;
use fbdr_ldap::SearchRequest;
use fbdr_obs::{event, span, Obs};
use fbdr_replica::FilterReplica;
use fbdr_resync::{ShardCoordinator, ShardedMaster, SyncError, SyncTraffic};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Rescale point for the lazy-decay trick: when the global scale passes
/// this, every stored weight is renormalized once (rare, amortized O(1)).
const RESCALE_AT: f64 = 1e12;

/// Configuration of the selector's budgeted step.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StepConfig {
    /// Replica entry budget: stored filters' total estimated size must
    /// stay within it (the paper's replica size knob).
    pub entry_budget: usize,
    /// Queries between steps (the paper's revolution interval `R`, e.g.
    /// 6000 or 10000; the online configuration steps 100× more often).
    pub step_every: u64,
    /// Maximum promote + evict moves per step. This is the knob that
    /// bounds a step's work and install churn; `usize::MAX` is the
    /// paper's wholesale revolution.
    pub move_budget: usize,
    /// A stored filter displaced by ranking is only evicted when the
    /// weakest incoming challenger beats its ratio by this fraction
    /// (0.25 = challenger must be 25% better). 0 disables hysteresis.
    pub hysteresis: f64,
    /// Per-step multiplicative benefit decay ∈ \[0, 1\]. 1 disables decay
    /// (benefits are all-time hit counts). 0 is the paper's rule, benefit
    /// = hits since the last step: the table is zeroed after every step,
    /// and each size estimate is dropped with the benefit it divided, so
    /// the next step re-counts it at the master. Under a decay above 0 a
    /// benefit never reaches zero and its size is estimated once.
    pub decay: f64,
    /// Weight of the update-propagation cost in net benefit. A stored
    /// filter of size `s` is charged `upd_weight × s × pressure / N`
    /// benefit units, where `pressure` is the decayed per-step master
    /// update count and `N` the directory size. 0 disables the charge.
    pub upd_weight: f64,
    /// Steps a fresh install is immune to eviction (lets its content
    /// load pay off before the ranking may swap it back out).
    pub min_dwell_steps: u64,
    /// Near-miss candidates carried into the next step's consideration
    /// set even if untouched — budget-starved risers are not forgotten.
    pub pending_cap: usize,
    /// Upper bound on candidates tracked; beyond it the bottom quartile
    /// by benefit is pruned (never the stored set).
    pub max_candidates: usize,
}

/// The *online* configuration: small frequent steps, a few moves each.
impl Default for StepConfig {
    fn default() -> Self {
        StepConfig {
            entry_budget: 5000,
            step_every: 100,
            move_budget: 4,
            hysteresis: 0.25,
            decay: 0.9,
            upd_weight: 0.25,
            min_dwell_steps: 3,
            pending_cap: 64,
            max_candidates: 4096,
        }
    }
}

/// The paper's *periodic* configuration, by its three parameters: every
/// `revolution_interval` queries one step recomputes the stored set
/// wholesale from the hits since the last one. Converts field for field
/// into the [`StepConfig`] that relaxes nothing.
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

impl From<SelectorConfig> for StepConfig {
    fn from(c: SelectorConfig) -> Self {
        StepConfig {
            entry_budget: c.entry_budget,
            step_every: c.revolution_interval,
            move_budget: usize::MAX,
            hysteresis: 0.0,
            decay: 0.0,
            upd_weight: 0.0,
            min_dwell_steps: 0,
            max_candidates: c.max_candidates,
            ..StepConfig::default()
        }
    }
}

#[derive(Debug)]
struct Candidate {
    request: SearchRequest,
    /// Scaled benefit: effective benefit = `weight / scale`. Crediting
    /// adds the *current* scale, so one global multiplication per step
    /// decays every candidate without touching any of them.
    weight: f64,
    /// Lazily computed entry count at the master.
    size: Option<usize>,
}

impl Candidate {
    /// Scores the candidate for greedy selection, estimating its size on
    /// first use; `None` when it has no benefit, matches nothing, cannot
    /// fit `budget`, or is not worth `charge_per_entry` of update traffic
    /// for each entry it would hold.
    fn score(
        &mut self,
        key: &str,
        scale: f64,
        budget: usize,
        charge_per_entry: f64,
        size_of: impl FnOnce(&SearchRequest) -> usize,
    ) -> Option<Scored> {
        let benefit = self.weight / scale;
        if benefit <= 0.0 {
            return None;
        }
        let size = *self.size.get_or_insert_with(|| size_of(&self.request));
        if size == 0 || size > budget {
            return None;
        }
        // Net benefit: query hits minus the ReSync cost of keeping the
        // region fresh under the observed update pressure.
        let net = benefit - charge_per_entry * size as f64;
        if net <= 0.0 {
            return None; // admission floor: not worth its update traffic
        }
        Some(Scored {
            key: key.to_owned(),
            request: self.request.clone(),
            ratio: net / size as f64,
            size,
        })
    }
}

/// Outcome of one step.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// Filters newly installed into the replica this step.
    pub installed: Vec<SearchRequest>,
    /// Filters evicted from the replica this step.
    pub evicted: Vec<SearchRequest>,
    /// Moves performed (installs + evictions), ≤ `move_budget`.
    pub moves: usize,
    /// Candidates ranked this step (the consideration set, *not* the
    /// whole candidate table).
    pub considered: usize,
    /// Traffic spent loading the new filters' content — component (ii) of
    /// the filter replica's update traffic (§7.3).
    pub traffic: SyncTraffic,
}

/// Cumulative accounting for a selection run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SelectionReport {
    /// Steps performed (the paper's revolutions).
    pub steps: u64,
    /// Filters installed (each cost a content load).
    pub installs: u64,
    /// Filters evicted.
    pub evictions: u64,
    /// Largest consideration set any step ranked.
    pub max_considered: usize,
    /// Largest move count any step performed.
    pub max_moves: usize,
    /// Total content-load traffic.
    pub traffic: SyncTraffic,
}

/// The paper's filter selection scheme — its "simple means of
/// approximating the expensive revolutions of \[12\]": maintain hit
/// statistics for candidate (generalized) filters and periodically update
/// the replica's stored set, choosing candidates by the ratio of
/// *benefit* (decayed hits) to *size* (entries the filter matches).
#[derive(Debug)]
pub struct FilterSelector {
    config: StepConfig,
    generalizers: Vec<Box<dyn Generalizer + Send>>,
    candidates: HashMap<String, Candidate>,
    /// Candidates credited since the last step.
    touched: HashSet<String>,
    /// Near-miss carry-over from the last step.
    pending: HashSet<String>,
    /// Filters this selector installed, with the step they landed in;
    /// steps only ever evict these, never statically configured ones —
    /// not even one the ranking selected while it was already stored.
    managed: HashMap<String, u64>,
    queries_seen: u64,
    /// Global decay scale (see [`Candidate::weight`]).
    scale: f64,
    /// Decayed master updates per step (the update-pressure estimate
    /// behind the net-benefit charge).
    update_pressure: f64,
    last_ops_applied: u64,
    report: SelectionReport,
    /// Observability handle; [`Obs::off`] unless attached via
    /// [`FilterSelector::with_obs`].
    obs: Obs,
}

impl FilterSelector {
    /// Creates a selector with the given generalization rules; `config`
    /// is a [`StepConfig`], or the periodic [`SelectorConfig`].
    pub fn new(
        config: impl Into<StepConfig>,
        generalizers: Vec<Box<dyn Generalizer + Send>>,
    ) -> Self {
        FilterSelector {
            config: config.into(),
            generalizers,
            candidates: HashMap::new(),
            touched: HashSet::new(),
            pending: HashSet::new(),
            managed: HashMap::new(),
            queries_seen: 0,
            scale: 1.0,
            update_pressure: 0.0,
            last_ops_applied: 0,
            report: SelectionReport::default(),
            obs: Obs::off(),
        }
    }

    /// Attaches observability: each step is timed into the
    /// `fbdr_selection_revolve_ns` histogram, records its move count into
    /// `fbdr_selection_revolve_moves` and its consideration-set size into
    /// `fbdr_selection_step_considered`, increments
    /// `fbdr_selection_{revolutions,installed,evicted}_total`, and emits
    /// `selection.{revolution,promote,evict}` trace events.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Number of candidates currently tracked.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Number of filters currently installed by this selector.
    pub fn managed_count(&self) -> usize {
        self.managed.len()
    }

    /// Cumulative churn/traffic report.
    pub fn report(&self) -> SelectionReport {
        self.report
    }

    /// Observes one user query: generalizes it and credits a (decayed)
    /// benefit to every candidate that would have answered it. Amortized
    /// O(generalization rules) — no ranking, no sizing, no moves.
    pub fn observe(&mut self, query: &SearchRequest) {
        self.queries_seen += 1;
        for g in &self.generalizers {
            for cand in g.generalize(query) {
                let key = cand.to_string(); // a candidate's identity is its spelling
                let entry = self
                    .candidates
                    .entry(key.clone())
                    .or_insert(Candidate { request: cand, weight: 0.0, size: None });
                entry.weight += self.scale;
                self.touched.insert(key);
            }
        }
        if self.candidates.len() > self.config.max_candidates {
            self.prune();
        }
    }

    /// True when a step is due (every `step_every` queries).
    pub fn step_due(&self) -> bool {
        self.queries_seen > 0 && self.queries_seen.is_multiple_of(self.config.step_every)
    }

    /// Performs one step now: ranks the consideration set (touched ∪
    /// pending ∪ stored) through the greedy core, then applies at most
    /// `move_budget` promote/evict moves against the replica, gated by
    /// hysteresis and dwell. The master is a sharded deployment (an
    /// unsharded master is its one-shard case); `coordinator` is the one
    /// that syncs `replica` against it.
    ///
    /// # Errors
    ///
    /// Propagates [`SyncError`] from installing filters at the master.
    pub fn step(
        &mut self,
        master: &mut ShardedMaster,
        coordinator: &mut ShardCoordinator,
        replica: &FilterReplica,
    ) -> Result<StepReport, SyncError> {
        let _span = span!(self.obs, "selection", "revolve");
        let step = self.report.steps + 1;
        let decay = self.config.decay;

        // Update-pressure estimate: decayed master ops per step, read
        // from the counters the master already keeps.
        let ops = master.ops_applied();
        let delta = ops.saturating_sub(self.last_ops_applied);
        self.last_ops_applied = ops;
        self.update_pressure = self.update_pressure * decay + delta as f64;

        // Decay every benefit with one multiplication: effective benefit
        // is weight/scale, so growing the scale shrinks them all while
        // preserving relative order — untouched candidates cannot rise.
        // (A decay of 0 has no such scale; it zeroes the table below.)
        if decay > 0.0 {
            self.scale /= decay;
            if self.scale > RESCALE_AT {
                let s = self.scale;
                for c in self.candidates.values_mut() {
                    c.weight /= s;
                }
                self.scale = 1.0;
            }
        }

        // The consideration set: only candidates whose standing can have
        // changed (credited since the last step), plus the stored set and
        // the carried near-misses. Never the whole candidate table.
        let mut consider: HashSet<String> = std::mem::take(&mut self.touched);
        consider.extend(self.pending.drain());
        consider.extend(self.managed.keys().cloned());

        let budget = self.config.entry_budget;
        let dit_len = master.entry_count().max(1) as f64;
        let charge_per_entry = self.config.upd_weight * self.update_pressure / dit_len;
        let mut scored: Vec<Scored> = Vec::new();
        for key in &consider {
            let Some(c) = self.candidates.get_mut(key) else { continue };
            scored.extend(c.score(key, self.scale, budget, charge_per_entry, |r| {
                master.count_matching(r)
            }));
        }
        let considered = scored.len();
        let ratios: HashMap<String, f64> =
            scored.iter().map(|s| (s.key.clone(), s.ratio)).collect();
        let target = greedy_pick(scored, budget);
        let target_keys: HashSet<&str> = target.iter().map(|s| s.key.as_str()).collect();

        let mut report = StepReport { considered, ..StepReport::default() };

        // The selector-owned set: what it holds of the budget, and which
        // of it may go — out of the target and past its dwell. Installs
        // may only land in budget room actually freed: a hysteresis-kept
        // incumbent blocks the challenger that would displace it.
        let mut used = 0usize;
        let mut evictable: Vec<(f64, String, usize, SearchRequest)> = Vec::new();
        for (key, installed_at) in &self.managed {
            let Some(c) = self.candidates.get_mut(key) else { continue }; // prune spares these
            let size = *c.size.get_or_insert_with(|| master.count_matching(&c.request));
            used += size;
            if !target_keys.contains(key.as_str())
                && step - installed_at >= self.config.min_dwell_steps
            {
                let ratio = ratios.get(key).copied().unwrap_or(0.0);
                evictable.push((ratio, key.clone(), size, c.request.clone()));
            }
        }
        // Evictions first (worst ratio first), so a displacing install
        // never transiently overflows the entry budget. Only managed
        // filters are evictable: what the operator installed stays.
        evictable.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.1.cmp(&b.1))
        });
        let current_keys: HashSet<String> =
            replica.filters().map(|(r, _)| r.to_string()).collect();
        let installs: Vec<&Scored> =
            target.iter().filter(|s| !current_keys.contains(&s.key)).collect();
        // The weakest incoming challenger: what a displaced incumbent is
        // actually being traded against under the hysteresis gate.
        let weakest_install = installs.last().map(|s| s.ratio);
        let over_budget = used > budget;

        let (move_budget, hysteresis) = (self.config.move_budget, self.config.hysteresis);
        let mut moves = 0usize;
        for (ratio, key, size, request) in evictable {
            if moves >= move_budget {
                break;
            }
            // Hysteresis: a live incumbent stays unless the trade is
            // clearly favourable (or the stored set must shed entries).
            let beaten = weakest_install.is_some_and(|w| w > ratio * (1.0 + hysteresis));
            if hysteresis > 0.0 && ratio > 0.0 && !over_budget && !beaten {
                continue;
            }
            replica.remove_filter(master, &request);
            self.managed.remove(&key);
            used -= size;
            moves += 1;
            event!(self.obs, "selection", "evict", filter = key.as_str());
            report.evicted.push(request);
        }
        for s in installs {
            if moves >= move_budget {
                break;
            }
            if used + s.size > budget {
                continue; // room still held by a hysteresis-kept incumbent
            }
            let t = replica.install_filter_sharded(master, coordinator, s.request.clone())?;
            self.managed.insert(s.key.clone(), step);
            used += s.size;
            moves += 1;
            event!(
                self.obs,
                "selection",
                "promote",
                filter = s.key.as_str(),
                load_entries = t.full_entries,
            );
            report.traffic.absorb(&t);
            report.installed.push(s.request.clone());
        }
        report.moves = moves;

        // Carry the best-ranked uninstalled targets (budget-starved this
        // step) and near-misses into the next consideration set.
        self.pending = target
            .iter()
            .filter(|s| !self.managed.contains_key(&s.key))
            .take(self.config.pending_cap)
            .map(|s| s.key.clone())
            .collect();

        // Decay 0: benefit is "hits since the last step", and a size
        // estimate lives as long as the benefit it divides — the next
        // step re-counts, the directory changes.
        if decay == 0.0 {
            for c in self.candidates.values_mut() {
                c.weight = 0.0;
                c.size = None;
            }
        }

        self.report.steps = step;
        self.report.installs += report.installed.len() as u64;
        self.report.evictions += report.evicted.len() as u64;
        self.report.max_considered = self.report.max_considered.max(considered);
        self.report.max_moves = self.report.max_moves.max(moves);
        self.report.traffic.absorb(&report.traffic);
        if self.obs.is_active() {
            let reg = self.obs.registry();
            reg.histogram("fbdr_selection_revolve_moves").record(moves as u64);
            reg.histogram("fbdr_selection_step_considered").record(considered as u64);
            reg.counter("fbdr_selection_revolutions_total").inc();
            reg.counter("fbdr_selection_installed_total").add(report.installed.len() as u64);
            reg.counter("fbdr_selection_evicted_total").add(report.evicted.len() as u64);
        }
        event!(
            self.obs,
            "selection",
            "revolution",
            revolution = step,
            considered = considered,
            moves = moves,
            installed = report.installed.len(),
            evicted = report.evicted.len(),
        );
        Ok(report)
    }

    /// Greedy benefit/size selection within the entry budget, standalone
    /// against one store: the static, train-then-freeze configuration of
    /// Figure 4. It is what a first periodic [`step`](Self::step) would
    /// install, with a candidate's size counted in `master` — what it
    /// matches inside its own base and scope.
    pub fn select(&mut self, master: &DitStore) -> Vec<SearchRequest> {
        let budget = self.config.entry_budget;
        greedy_pick(self.score_table(master, budget), budget)
            .into_iter()
            .map(|s| s.request)
            .collect()
    }

    /// All candidates with a benefit, ranked by benefit/size ratio (best
    /// first). Used by the "hit ratio vs number of stored filters" sweeps
    /// (Figures 8–9), which take the top *k* regardless of an entry
    /// budget.
    pub fn ranked_candidates(&mut self, master: &DitStore) -> Vec<SearchRequest> {
        let mut scored = self.score_table(master, usize::MAX);
        scored.sort_by(|a, b| {
            b.ratio
                .partial_cmp(&a.ratio)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.key.cmp(&b.key))
        });
        scored.into_iter().map(|s| s.request).collect()
    }

    /// Scores the whole candidate table against one store, no update
    /// charge: the static path's consideration set.
    fn score_table(&mut self, master: &DitStore, budget: usize) -> Vec<Scored> {
        let scale = self.scale;
        self.candidates
            .iter_mut()
            .filter_map(|(key, c)| c.score(key, scale, budget, 0.0, |r| region_size(master, r)))
            .collect()
    }

    /// Prunes the bottom quartile of candidates by benefit, never
    /// dropping the stored set.
    fn prune(&mut self) {
        let mut weights: Vec<f64> = self.candidates.values().map(|c| c.weight).collect();
        weights.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let cutoff = weights[weights.len() / 4];
        let managed = &self.managed;
        self.candidates.retain(|k, c| c.weight > cutoff || managed.contains_key(k));
        self.touched.retain(|k| self.candidates.contains_key(k));
        self.pending.retain(|k| self.candidates.contains_key(k));
    }
}

/// One candidate entering greedy selection, already scored.
#[derive(Debug, Clone)]
struct Scored {
    /// Canonical identity: `request`'s `Display` form.
    key: String,
    /// The candidate filter.
    request: SearchRequest,
    /// Benefit-to-size ratio (higher is better).
    ratio: f64,
    /// Estimated entries the filter matches at the master.
    size: usize,
}

/// Greedy benefit/size pick within `budget` entries.
///
/// Candidates are ranked best ratio first; on ties the *larger* (coarser)
/// filter wins — so contained duplicates of equal value are the ones
/// skipped — then the shorter spelling, then lexicographic key, making
/// selection fully deterministic. A candidate that does not fit the
/// remaining budget is skipped (not a stopping point: a smaller candidate
/// further down may still fit), and a candidate semantically contained in
/// an already-picked filter is skipped — its entries (and hits) are
/// already covered, so picking it would double-count budget for zero
/// extra coverage. (The paper notes its size estimates ignore overlap;
/// full overlap is the cheap, detectable case.)
///
/// Callers pre-filter zero-benefit, zero-size and over-budget candidates.
/// Returns the picked candidates in pick (rank) order.
fn greedy_pick(mut scored: Vec<Scored>, budget: usize) -> Vec<Scored> {
    scored.sort_by(|a, b| {
        b.ratio
            .partial_cmp(&a.ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.size.cmp(&a.size))
            .then_with(|| a.key.len().cmp(&b.key.len()))
            .then_with(|| a.key.cmp(&b.key))
    });
    let engine = ContainmentEngine::new();
    let mut picked_queries: Vec<PreparedQuery> = Vec::new();
    let mut used = 0usize;
    let mut out = Vec::new();
    for s in scored {
        if used + s.size > budget {
            continue;
        }
        let prepared = PreparedQuery::new(s.request.clone());
        if picked_queries.iter().any(|p| engine.query_contained(&prepared, p)) {
            continue; // fully covered by an already-selected filter
        }
        used += s.size;
        picked_queries.push(prepared);
        out.push(s);
    }
    out
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

    /// Four 10-entry serial clusters: 0456xx, 1200xx, 3300xx, 7700xx.
    fn master() -> SyncMaster {
        let mut m = SyncMaster::new();
        m.dit_mut().add_suffix("o=xyz".parse().unwrap());
        m.dit_mut().add(Entry::new("o=xyz".parse().unwrap())).unwrap();
        for (t, pre) in [("a", "0456"), ("b", "1200"), ("c", "3300"), ("d", "7700")] {
            for i in 0..10 {
                m.dit_mut()
                    .add(
                        Entry::new(format!("cn={t}{i},o=xyz").parse().unwrap())
                            .with("objectclass", "person")
                            .with("serialNumber", &format!("{pre}0{i}")),
                    )
                    .unwrap();
            }
        }
        m
    }

    /// The master as the one-shard deployment, with its coordinator and
    /// an empty replica.
    fn deployment() -> (ShardedMaster, ShardCoordinator, FilterReplica) {
        let m = ShardedMaster::from(master());
        let c = ShardCoordinator::new(m.map().clone());
        (m, c, FilterReplica::new(0))
    }

    fn query(sn: &str) -> SearchRequest {
        SearchRequest::from_root(Filter::parse(&format!("(serialNumber={sn})")).unwrap())
    }

    fn gens() -> Vec<Box<dyn Generalizer + Send>> {
        vec![Box::new(ValuePrefix::new("serialNumber", vec![4]))]
    }

    /// The paper's periodic configuration.
    fn periodic(interval: u64, budget: usize) -> StepConfig {
        SelectorConfig { revolution_interval: interval, entry_budget: budget, max_candidates: 100 }
            .into()
    }

    /// The online configuration at `budget`.
    fn online(budget: usize) -> StepConfig {
        StepConfig { entry_budget: budget, ..StepConfig::default() }
    }

    /// `n` queries into the cluster with serial prefix `pre`.
    fn observe_cluster(s: &mut FilterSelector, pre: &str, n: usize) {
        for i in 0..n {
            s.observe(&query(&format!("{pre}0{i}")));
        }
    }

    #[test]
    fn observe_accumulates_candidate_hits() {
        let mut s = FilterSelector::new(periodic(100, 100), gens());
        observe_cluster(&mut s, "0456", 5);
        s.observe(&query("120001"));
        assert_eq!(s.candidate_count(), 2);
        assert_eq!(s.queries_seen, 6);
    }

    #[test]
    fn select_prefers_benefit_per_size() {
        let m = master();
        let mut s = FilterSelector::new(periodic(100, 10), gens());
        // 0456* gets 5 hits, 1200* gets 1: both size 10, budget 10 → only
        // the popular one fits.
        observe_cluster(&mut s, "0456", 5);
        s.observe(&query("120001"));
        let picked = s.select(m.dit());
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].filter().to_string(), "(serialNumber=0456*)");
        assert_eq!(s.ranked_candidates(m.dit()).len(), 2, "ranking ignores the budget");
    }

    #[test]
    fn select_respects_budget() {
        let m = master();
        let mut s = FilterSelector::new(periodic(100, 20), gens());
        observe_cluster(&mut s, "0456", 5);
        s.observe(&query("120001"));
        // Budget 20 fits both clusters.
        assert_eq!(s.select(m.dit()).len(), 2);
        // Budget 5 fits neither (each cluster has 10 entries).
        let mut small = FilterSelector::new(periodic(100, 5), gens());
        small.observe(&query("045601"));
        assert!(small.select(m.dit()).is_empty());
    }

    #[test]
    fn select_skips_contained_candidates() {
        let m = master();
        let mut s = FilterSelector::new(
            periodic(1000, 50),
            vec![Box::new(ValuePrefix::new("serialNumber", vec![4, 5]))],
        );
        // Queries generate both a coarse 4-digit prefix (0456*, size 10)
        // and fine 5-digit prefixes (04560*, size 10 here as well since
        // all serials share 04560x). The fine one is contained in the
        // coarse one; only one of them should be selected.
        observe_cluster(&mut s, "0456", 6);
        let picked = s.select(m.dit());
        assert_eq!(picked.len(), 1, "contained duplicate selected: {picked:?}");
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
            let mut s = FilterSelector::new(periodic(2, 5), gens());
            s.observe(&scoped("045690"));
            s.observe(&scoped("045691"));
            s
        };
        let picked = trained().select(m.dit());
        assert_eq!(picked.len(), 1, "{picked:?}");
        assert_eq!(picked[0].base().to_string(), "ou=lab,o=xyz");

        // A step sizes the same way, at the sharded master.
        let mut m = ShardedMaster::from(m);
        let mut c = ShardCoordinator::new(m.map().clone());
        let replica = FilterReplica::new(0);
        let report = trained().step(&mut m, &mut c, &replica).unwrap();
        assert_eq!(report.traffic.full_entries, 3);
        assert!(replica.try_answer(&scoped("045692")).is_some());
    }

    #[test]
    fn a_step_installs_the_hot_region() {
        for config in [periodic(5, 10), online(10)] {
            let (mut m, mut c, replica) = deployment();
            let mut s = FilterSelector::new(config, gens());
            observe_cluster(&mut s, "0456", 5);
            let rep = s.step(&mut m, &mut c, &replica).unwrap();
            assert_eq!(rep.installed.len(), 1, "{config:?}");
            assert_eq!(rep.moves, 1);
            assert_eq!(rep.traffic.full_entries, 10);
            assert!(replica.try_answer(&query("045609")).is_some());
            assert_eq!(s.managed_count(), 1);
        }
    }

    #[test]
    fn no_step_is_due_between_intervals() {
        let mut s = FilterSelector::new(periodic(3, 10), gens());
        s.observe(&query("045601"));
        assert!(!s.step_due());
        observe_cluster(&mut s, "0456", 2);
        assert!(s.step_due());
    }

    #[test]
    fn periodic_steps_swap_the_stored_filter() {
        let (mut m, mut c, replica) = deployment();
        let mut s = FilterSelector::new(periodic(3, 10), gens());
        observe_cluster(&mut s, "0456", 3);
        let report = s.step(&mut m, &mut c, &replica).unwrap();
        assert_eq!(report.installed.len(), 1);
        assert_eq!(replica.filter_count(), 1);

        // Benefit is hits since the last step: the access pattern shifts
        // to the 1200xx cluster and the next step swaps the stored filter.
        observe_cluster(&mut s, "1200", 3);
        let report = s.step(&mut m, &mut c, &replica).unwrap();
        assert_eq!(report.installed.len(), 1);
        assert_eq!(report.evicted.len(), 1);
        assert!(replica.try_answer(&query("120005")).is_some());
        assert!(replica.try_answer(&query("045607")).is_none());
        assert_eq!(s.report().steps, 2);
    }

    /// A filter the operator installed is never the selector's to evict,
    /// even after a step's ranking selected it while it was stored.
    #[test]
    fn a_selected_static_filter_is_never_evicted() {
        let (mut m, mut c, replica) = deployment();
        let fixed = SearchRequest::from_root(Filter::parse("(serialNumber=0456*)").unwrap());
        replica.install_filter_sharded(&mut m, &mut c, fixed.clone()).unwrap();
        let mut s = FilterSelector::new(periodic(3, 10), gens());

        // Traffic selects the static filter: nothing to install.
        observe_cluster(&mut s, "0456", 3);
        let rep = s.step(&mut m, &mut c, &replica).unwrap();
        assert_eq!(rep.moves, 0, "{rep:?}");
        assert_eq!(s.managed_count(), 0, "selected is not installed");

        // Traffic moves away; two more steps leave it where it was.
        for _ in 0..2 {
            observe_cluster(&mut s, "1200", 3);
            let rep = s.step(&mut m, &mut c, &replica).unwrap();
            assert!(rep.evicted.is_empty(), "{rep:?}");
        }
        assert!(replica.filters().any(|(r, _)| r == fixed), "static filter evicted");
        assert!(replica.try_answer(&query("045607")).is_some());
        assert!(replica.try_answer(&query("120005")).is_some(), "the hot region moved in beside it");
    }

    #[test]
    fn move_budget_bounds_each_step() {
        let (mut m, mut c, replica) = deployment();
        let mut s = FilterSelector::new(
            StepConfig { move_budget: 1, min_dwell_steps: 0, ..online(40) },
            gens(),
        );
        // All four clusters are hot; budget fits all four, but each step
        // may only move once.
        for pre in ["0456", "1200", "3300", "7700"] {
            observe_cluster(&mut s, pre, 3);
        }
        let r1 = s.step(&mut m, &mut c, &replica).unwrap();
        assert_eq!(r1.moves, 1, "budget of one move per step");
        assert_eq!(replica.filter_count(), 1);
        // Pending carry-over keeps the starved risers warm: subsequent
        // steps finish the job one move at a time without new queries.
        for _ in 0..3 {
            s.step(&mut m, &mut c, &replica).unwrap();
        }
        assert_eq!(replica.filter_count(), 4);
        assert_eq!(s.report().max_moves, 1);
    }

    #[test]
    fn hysteresis_resists_flapping() {
        let run = |hysteresis: f64, min_dwell_steps: u64| {
            let (mut m, mut c, replica) = deployment();
            let mut s = FilterSelector::new(
                StepConfig {
                    step_every: 4,
                    decay: 0.5,
                    upd_weight: 0.0,
                    hysteresis,
                    min_dwell_steps,
                    ..online(10) // fits exactly one cluster
                },
                gens(),
            );
            // Alternate the hot cluster every 4 queries — the adversarial
            // pattern that makes per-query evolution churn.
            for round in 0..16 {
                observe_cluster(&mut s, if round % 2 == 0 { "0456" } else { "1200" }, 4);
                if s.step_due() {
                    s.step(&mut m, &mut c, &replica).unwrap();
                }
            }
            s.report().installs
        };
        let nervous = run(0.0, 0);
        let damped = run(1.0, 2);
        assert!(
            damped < nervous,
            "hysteresis must cut flip-flop installs: {damped} vs {nervous}"
        );
        assert!(damped <= 2, "a damped selector settles: {damped} installs");
    }

    #[test]
    fn update_pressure_vetoes_churny_region() {
        let (mut m, mut c, replica) = deployment();
        let mut s = FilterSelector::new(StepConfig { upd_weight: 50.0, ..online(10) }, gens());
        // Heavy master churn between steps makes every region's net
        // benefit negative under a strong update weight.
        observe_cluster(&mut s, "0456", 3);
        for i in 0..30 {
            m.apply(fbdr_dit::UpdateOp::Modify {
                dn: format!("cn=a{},o=xyz", i % 10).parse().unwrap(),
                mods: vec![fbdr_dit::Modification::Replace(
                    "telephoneNumber".into(),
                    vec![format!("555-{i:04}").into()],
                )],
            })
            .unwrap();
        }
        let rep = s.step(&mut m, &mut c, &replica).unwrap();
        assert!(rep.installed.is_empty(), "net benefit must veto the install");
        // With no update charge the same stats install immediately.
        let mut s2 = FilterSelector::new(StepConfig { upd_weight: 0.0, ..online(10) }, gens());
        observe_cluster(&mut s2, "0456", 3);
        let rep2 = s2.step(&mut m, &mut c, &replica).unwrap();
        assert_eq!(rep2.installed.len(), 1);
    }

    #[test]
    fn decay_swaps_to_the_new_hot_set() {
        let (mut m, mut c, replica) = deployment();
        let mut s = FilterSelector::new(
            StepConfig { decay: 0.5, hysteresis: 0.25, min_dwell_steps: 1, ..online(10) },
            gens(),
        );
        observe_cluster(&mut s, "0456", 6);
        s.step(&mut m, &mut c, &replica).unwrap();
        assert!(replica.try_answer(&query("045600")).is_some());
        // The workload moves; the old region's decayed benefit loses to
        // the new one within a few steps.
        for _ in 0..4 {
            observe_cluster(&mut s, "1200", 6);
            s.step(&mut m, &mut c, &replica).unwrap();
        }
        assert!(replica.try_answer(&query("120005")).is_some());
        assert!(replica.try_answer(&query("045600")).is_none(), "stale region evicted");
    }

    #[test]
    fn pruning_caps_candidates_but_keeps_managed() {
        for config in [periodic(1000, 10), online(10)] {
            let (mut m, mut c, replica) = deployment();
            let mut s = FilterSelector::new(StepConfig { max_candidates: 8, ..config }, gens());
            observe_cluster(&mut s, "0456", 5);
            s.step(&mut m, &mut c, &replica).unwrap();
            assert_eq!(s.managed_count(), 1);
            for i in 0..40 {
                s.observe(&query(&format!("{:06}", i * 137)));
            }
            assert!(s.candidate_count() <= 9, "{config:?}: got {}", s.candidate_count());
            assert!(
                s.managed.keys().all(|k| s.candidates.contains_key(k)),
                "stored filters survive pruning"
            );
        }
    }

    #[test]
    fn a_step_is_counted_and_traced() {
        let obs = Obs::new();
        let (mut m, mut c, replica) = deployment();
        let mut s = FilterSelector::new(online(10), gens()).with_obs(obs.clone());
        observe_cluster(&mut s, "0456", 5);
        s.step(&mut m, &mut c, &replica).unwrap();
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counters["fbdr_selection_revolutions_total"], 1);
        assert_eq!(snap.counters["fbdr_selection_installed_total"], 1);
        assert_eq!(snap.counters["fbdr_selection_evicted_total"], 0);
        assert_eq!(obs.registry().histogram("fbdr_selection_revolve_moves").count(), 1);
        assert_eq!(obs.registry().histogram("fbdr_selection_revolve_ns").count(), 1);
    }
}
