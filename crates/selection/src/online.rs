//! Incremental, budgeted online filter selection.
//!
//! The paper's §6 selector recomputes the stored filter set in a
//! day-boundary *revolution*: a full candidate re-rank over the whole
//! statistics table, which is both a latency cliff and an adaptation gap
//! (a flash crowd mid-day serves stale filters for hours, then pays an
//! install storm at the boundary). [`OnlineSelector`] replaces the batch
//! recompute with a continuous loop:
//!
//! * [`observe`](OnlineSelector::observe) credits a decayed benefit to
//!   the query's generalizations and marks them *touched* — O(rules) per
//!   query, no ranking.
//! * Every `step_every` queries, [`step`](OnlineSelector::step) re-ranks
//!   only the **consideration set** — candidates touched since the last
//!   step, the stored set, and a capped carry-over of recent near-misses
//!   — through the same greedy benefit/size core the batch selector uses,
//!   then performs at most `move_budget` promote/evict moves. Work is
//!   O(changed candidates) per step, never O(all candidates) per query;
//!   the `fbdr_selection_revolve_moves` histogram pins the bound.
//! * *Hysteresis* keeps an incumbent stored filter unless a challenger
//!   clearly beats it, and `min_dwell_steps` gives fresh installs time to
//!   pay off — together they absorb the flapping that makes per-query
//!   evolution (§6.2, [`EvolutionSelector`](crate::EvolutionSelector))
//!   unsuitable when every install costs a content transfer.
//! * Benefit is *net of update-propagation cost*, in the spirit of
//!   interest-based propagation (Endris et al.): keeping a filter
//!   installed costs ReSync traffic proportional to its size times the
//!   master's observed update pressure, so under heavy churn a
//!   marginally-hot large region is no longer worth storing.
//!
//! With an unlimited move budget, zero hysteresis, no decay and no update
//! weighting, one [`step`](OnlineSelector::step) reproduces the batch
//! [`FilterSelector::select`](crate::FilterSelector::select) exactly —
//! the equivalence property `tests/online_equivalence.rs` checks.

use crate::generalize::Generalizer;
use crate::greedy::{candidate_key, greedy_pick, Scored};
use fbdr_ldap::SearchRequest;
use fbdr_obs::{event, span, Obs};
use fbdr_replica::FilterReplica;
use fbdr_resync::{ShardCoordinator, ShardedMaster, SyncError, SyncTraffic};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Rescale point for the lazy-decay trick: when the global scale passes
/// this, every stored weight is renormalized once (rare, amortized O(1)).
const RESCALE_AT: f64 = 1e12;

/// Configuration for the online selector.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Replica entry budget: stored filters' total estimated size must
    /// stay within it (the paper's replica size knob).
    pub entry_budget: usize,
    /// Queries between budgeted revolution steps (the online analogue of
    /// the paper's revolution interval `R`, typically 100× smaller).
    pub step_every: u64,
    /// Maximum promote + evict moves per step. This is the knob that
    /// bounds revolution work and install churn; `usize::MAX` recovers
    /// batch behaviour.
    pub move_budget: usize,
    /// A stored filter displaced by ranking is only evicted when the
    /// weakest incoming challenger beats its ratio by this fraction
    /// (0.25 = challenger must be 25% better). 0 disables hysteresis.
    pub hysteresis: f64,
    /// Per-step multiplicative benefit decay ∈ (0, 1]; 1.0 disables
    /// decay (benefits become all-time hit counts, as in the batch
    /// selector between revolutions).
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

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
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

impl OnlineConfig {
    /// The batch-equivalent ablation: unlimited moves, no hysteresis, no
    /// dwell, no decay, no update charge. One [`OnlineSelector::step`]
    /// under this configuration reproduces
    /// [`FilterSelector::select`](crate::FilterSelector::select) on the
    /// same observations — the property the equivalence proptest pins.
    pub fn unbudgeted(entry_budget: usize) -> Self {
        OnlineConfig {
            entry_budget,
            move_budget: usize::MAX,
            hysteresis: 0.0,
            decay: 1.0,
            upd_weight: 0.0,
            min_dwell_steps: 0,
            ..OnlineConfig::default()
        }
    }
}

#[derive(Debug)]
struct OnlineCandidate {
    request: SearchRequest,
    /// Scaled benefit: effective benefit = `weight / scale`. Crediting
    /// adds the *current* scale, so one global multiplication per step
    /// decays every candidate without touching any of them.
    weight: f64,
    /// Lazily computed entry count at the master.
    size: Option<usize>,
}

/// Outcome of one budgeted step.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// Filters promoted into the replica this step.
    pub promoted: Vec<SearchRequest>,
    /// Filters evicted from the replica this step.
    pub evicted: Vec<SearchRequest>,
    /// Moves performed (promotions + evictions), ≤ `move_budget`.
    pub moves: usize,
    /// Candidates ranked this step (the consideration set, *not* the
    /// whole candidate table).
    pub considered: usize,
    /// Content-load traffic for the promotions.
    pub traffic: SyncTraffic,
}

/// Cumulative accounting for an online-selection run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct OnlineReport {
    /// Budgeted steps performed.
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

/// Incremental, budgeted online revolution: the stored filter set tracks
/// the workload continuously, a few moves at a time, instead of being
/// recomputed wholesale at day boundaries. See the module docs for the
/// mechanism and [`OnlineConfig`] for the knobs.
#[derive(Debug)]
pub struct OnlineSelector {
    config: OnlineConfig,
    generalizers: Vec<Box<dyn Generalizer + Send>>,
    candidates: HashMap<String, OnlineCandidate>,
    /// Candidates credited since the last step.
    touched: HashSet<String>,
    /// Near-miss carry-over from the last step.
    pending: HashSet<String>,
    /// Filters this selector installed, with the step they landed in;
    /// statically configured filters are never touched.
    managed: HashMap<String, u64>,
    queries_seen: u64,
    steps: u64,
    /// Global decay scale (see [`OnlineCandidate::weight`]).
    scale: f64,
    /// Decayed master updates per step (the update-pressure estimate
    /// behind the net-benefit charge).
    update_pressure: f64,
    last_ops_applied: u64,
    report: OnlineReport,
    obs: Obs,
}

impl OnlineSelector {
    /// Creates a selector with the given generalization rules.
    pub fn new(config: OnlineConfig, generalizers: Vec<Box<dyn Generalizer + Send>>) -> Self {
        OnlineSelector {
            config,
            generalizers,
            candidates: HashMap::new(),
            touched: HashSet::new(),
            pending: HashSet::new(),
            managed: HashMap::new(),
            queries_seen: 0,
            steps: 0,
            scale: 1.0,
            update_pressure: 0.0,
            last_ops_applied: 0,
            report: OnlineReport::default(),
            obs: Obs::off(),
        }
    }

    /// Attaches observability: every step records its move count into the
    /// `fbdr_selection_revolve_moves` histogram and its consideration-set
    /// size into `fbdr_selection_step_considered`, increments
    /// `fbdr_selection_online_{steps,promotions,evictions}_total`, and
    /// emits `selection.online_{step,promote,evict}` trace events.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The observability handle this selector records through.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The configuration this selector runs under.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Queries observed so far.
    pub fn queries_seen(&self) -> u64 {
        self.queries_seen
    }

    /// Budgeted steps performed so far.
    pub fn steps(&self) -> u64 {
        self.steps
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
    pub fn report(&self) -> OnlineReport {
        self.report
    }

    /// Observes one user query: generalizes it and credits a (decayed)
    /// benefit to every candidate that would have answered it. Amortized
    /// O(generalization rules) — no ranking, no sizing, no moves.
    pub fn observe(&mut self, query: &SearchRequest) {
        self.queries_seen += 1;
        for g in &self.generalizers {
            for cand in g.generalize(query) {
                let key = candidate_key(&cand);
                let entry = self
                    .candidates
                    .entry(key.clone())
                    .or_insert(OnlineCandidate { request: cand, weight: 0.0, size: None });
                entry.weight += self.scale;
                self.touched.insert(key);
            }
        }
        if self.candidates.len() > self.config.max_candidates {
            self.prune();
        }
    }

    /// True when a budgeted step is due (every `step_every` queries).
    pub fn step_due(&self) -> bool {
        self.queries_seen > 0 && self.queries_seen.is_multiple_of(self.config.step_every)
    }

    /// Performs one budgeted revolution step now: ranks the consideration
    /// set (touched ∪ pending ∪ stored) through the shared greedy core,
    /// then applies at most `move_budget` promote/evict moves against the
    /// replica, gated by hysteresis and dwell. The master is a sharded
    /// deployment (an unsharded master is its one-shard case);
    /// `coordinator` is the one that syncs `replica` against it.
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
        let _span = span!(self.obs, "selection", "online_step");
        self.steps += 1;

        // Update-pressure estimate: decayed master ops per step, read
        // from the counters the master already keeps.
        let ops = master.ops_applied();
        let delta = ops.saturating_sub(self.last_ops_applied);
        self.last_ops_applied = ops;
        self.update_pressure = self.update_pressure * self.config.decay + delta as f64;

        // Decay every benefit with one multiplication: effective benefit
        // is weight/scale, so growing the scale shrinks them all while
        // preserving relative order — untouched candidates cannot rise.
        self.scale /= self.config.decay;
        if self.scale > RESCALE_AT {
            let s = self.scale;
            for c in self.candidates.values_mut() {
                c.weight /= s;
            }
            self.scale = 1.0;
        }

        // The consideration set: only candidates whose standing can have
        // changed (credited since the last step), plus the stored set and
        // the carried near-misses. Never the whole candidate table.
        let mut consider: HashSet<String> = std::mem::take(&mut self.touched);
        consider.extend(self.pending.drain());
        consider.extend(self.managed.keys().cloned());

        let budget = self.config.entry_budget;
        let dit_len = master.entry_count().max(1) as f64;
        let charge_per_entry =
            self.config.upd_weight * self.update_pressure / dit_len;
        let mut scored: Vec<Scored> = Vec::new();
        let mut ratios: HashMap<String, f64> = HashMap::new();
        for key in &consider {
            let Some(c) = self.candidates.get_mut(key) else { continue };
            let benefit = c.weight / self.scale;
            if benefit <= 0.0 {
                continue;
            }
            let size = *c.size.get_or_insert_with(|| master.count_matching(&c.request));
            if size == 0 || size > budget {
                continue;
            }
            // Net benefit: query hits minus the ReSync cost of keeping
            // the region fresh under the observed update pressure.
            let net = benefit - charge_per_entry * size as f64;
            if net <= 0.0 {
                continue; // admission floor: not worth its update traffic
            }
            let ratio = net / size as f64;
            ratios.insert(key.clone(), ratio);
            scored.push(Scored {
                key: key.clone(),
                request: c.request.clone(),
                ratio,
                size,
            });
        }
        let considered = scored.len();
        let target = greedy_pick(scored, budget);
        let target_keys: HashSet<&str> = target.iter().map(|s| s.key.as_str()).collect();

        let mut report = StepReport { considered, ..StepReport::default() };

        // Entry accounting for the selector-owned set: installs may only
        // land in budget room actually freed — a hysteresis-kept
        // incumbent blocks the challenger that would displace it.
        let mut managed_sizes: HashMap<String, usize> = HashMap::new();
        for key in self.managed.keys() {
            let size = match self.candidates.get_mut(key) {
                Some(c) => *c.size.get_or_insert_with(|| master.count_matching(&c.request)),
                None => 0,
            };
            managed_sizes.insert(key.clone(), size);
        }
        let mut used: usize = managed_sizes.values().sum();

        // Evictions first (worst ratio first), so a displacing install
        // never transiently overflows the entry budget.
        let current: Vec<SearchRequest> = replica.filters().map(|(r, _)| r.clone()).collect();
        let current_keys: HashSet<String> = current.iter().map(candidate_key).collect();
        let mut evictable: Vec<(String, f64)> = self
            .managed
            .iter()
            .filter(|(k, installed_at)| {
                !target_keys.contains(k.as_str())
                    && self.steps.saturating_sub(**installed_at) >= self.config.min_dwell_steps
            })
            .map(|(k, _)| (k.clone(), ratios.get(k).copied().unwrap_or(0.0)))
            .collect();
        evictable.sort_by(|a, b| {
            a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
        });
        let installs: Vec<&Scored> =
            target.iter().filter(|s| !current_keys.contains(&s.key)).collect();
        // The weakest incoming challenger: what a displaced incumbent is
        // actually being traded against under the hysteresis gate.
        let weakest_install = installs.last().map(|s| s.ratio);
        let over_budget = used > budget;

        let move_budget = self.config.move_budget;
        let mut moves = 0usize;
        for (key, evict_ratio) in evictable {
            if moves >= move_budget {
                break;
            }
            // Hysteresis: a live incumbent stays unless the trade is
            // clearly favourable (or the stored set must shed entries).
            if self.config.hysteresis > 0.0 && evict_ratio > 0.0 && !over_budget {
                match weakest_install {
                    Some(w) if w > evict_ratio * (1.0 + self.config.hysteresis) => {}
                    _ => continue,
                }
            }
            let Some(c) = self.candidates.get(&key) else {
                self.managed.remove(&key);
                continue;
            };
            let request = c.request.clone();
            replica.remove_filter(master, &request);
            self.managed.remove(&key);
            used = used.saturating_sub(managed_sizes.get(&key).copied().unwrap_or(0));
            moves += 1;
            event!(self.obs, "selection", "online_evict", filter = key.as_str());
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
            self.managed.insert(s.key.clone(), self.steps);
            used += s.size;
            moves += 1;
            event!(
                self.obs,
                "selection",
                "online_promote",
                filter = s.key.as_str(),
                load_entries = t.full_entries,
            );
            report.traffic.absorb(&t);
            report.promoted.push(s.request.clone());
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

        self.report.steps += 1;
        self.report.installs += report.promoted.len() as u64;
        self.report.evictions += report.evicted.len() as u64;
        self.report.max_considered = self.report.max_considered.max(considered);
        self.report.max_moves = self.report.max_moves.max(moves);
        self.report.traffic.absorb(&report.traffic);
        if self.obs.is_active() {
            let reg = self.obs.registry();
            reg.histogram("fbdr_selection_revolve_moves").record(moves as u64);
            reg.histogram("fbdr_selection_step_considered").record(considered as u64);
            reg.counter("fbdr_selection_online_steps_total").inc();
            reg.counter("fbdr_selection_online_promotions_total")
                .add(report.promoted.len() as u64);
            reg.counter("fbdr_selection_online_evictions_total")
                .add(report.evicted.len() as u64);
        }
        event!(
            self.obs,
            "selection",
            "online_step",
            step = self.steps,
            considered = considered,
            moves = moves,
            promoted = report.promoted.len(),
            evicted = report.evicted.len(),
        );
        Ok(report)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generalize::ValuePrefix;
    use crate::{FilterSelector, SelectorConfig};
    use fbdr_ldap::{Entry, Filter};
    use fbdr_resync::SyncMaster;

    fn master() -> SyncMaster {
        let mut m = SyncMaster::new();
        m.dit_mut().add_suffix("o=xyz".parse().unwrap());
        m.dit_mut().add(Entry::new("o=xyz".parse().unwrap())).unwrap();
        // Four 10-entry serial clusters.
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

    #[test]
    fn step_installs_hot_region() {
        let (mut m, mut c, replica) = deployment();
        let mut s = OnlineSelector::new(
            OnlineConfig { entry_budget: 10, ..OnlineConfig::default() },
            gens(),
        );
        for i in 0..5 {
            s.observe(&query(&format!("04560{i}")));
        }
        let rep = s.step(&mut m, &mut c, &replica).unwrap();
        assert_eq!(rep.promoted.len(), 1);
        assert_eq!(rep.moves, 1);
        assert!(replica.try_answer(&query("045609")).is_some());
        assert_eq!(s.managed_count(), 1);
    }

    #[test]
    fn move_budget_bounds_each_step() {
        let (mut m, mut c, replica) = deployment();
        let mut s = OnlineSelector::new(
            OnlineConfig {
                entry_budget: 40,
                move_budget: 1,
                min_dwell_steps: 0,
                ..OnlineConfig::default()
            },
            gens(),
        );
        // All four clusters are hot; budget fits all four, but each step
        // may only move once.
        for pre in ["0456", "1200", "3300", "7700"] {
            for i in 0..3 {
                s.observe(&query(&format!("{pre}0{i}")));
            }
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
            let mut s = OnlineSelector::new(
                OnlineConfig {
                    entry_budget: 10, // fits exactly one cluster
                    move_budget: 4,
                    step_every: 4,
                    decay: 0.5,
                    upd_weight: 0.0,
                    hysteresis,
                    min_dwell_steps,
                    ..OnlineConfig::default()
                },
                gens(),
            );
            // Alternate the hot cluster every 4 queries — the adversarial
            // pattern that makes per-query evolution churn.
            for round in 0..16 {
                let pre = if round % 2 == 0 { "0456" } else { "1200" };
                for i in 0..4 {
                    s.observe(&query(&format!("{pre}0{i}")));
                }
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
        let mut s = OnlineSelector::new(
            OnlineConfig {
                entry_budget: 10,
                upd_weight: 50.0,
                ..OnlineConfig::default()
            },
            gens(),
        );
        // Heavy master churn between steps makes every region's net
        // benefit negative under a strong update weight.
        for i in 0..3 {
            s.observe(&query(&format!("04560{i}")));
        }
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
        assert!(rep.promoted.is_empty(), "net benefit must veto the install");
        // With no update charge the same stats install immediately.
        let mut s2 = OnlineSelector::new(
            OnlineConfig { entry_budget: 10, upd_weight: 0.0, ..OnlineConfig::default() },
            gens(),
        );
        for i in 0..3 {
            s2.observe(&query(&format!("04560{i}")));
        }
        let rep2 = s2.step(&mut m, &mut c, &replica).unwrap();
        assert_eq!(rep2.promoted.len(), 1);
    }

    #[test]
    fn decay_swaps_to_the_new_hot_set() {
        let (mut m, mut c, replica) = deployment();
        let mut s = OnlineSelector::new(
            OnlineConfig {
                entry_budget: 10,
                decay: 0.5,
                hysteresis: 0.25,
                min_dwell_steps: 1,
                ..OnlineConfig::default()
            },
            gens(),
        );
        for i in 0..6 {
            s.observe(&query(&format!("04560{i}")));
        }
        s.step(&mut m, &mut c, &replica).unwrap();
        assert!(replica.try_answer(&query("045600")).is_some());
        // The workload moves; the old region's decayed benefit loses to
        // the new one within a few steps.
        for _ in 0..4 {
            for i in 0..6 {
                s.observe(&query(&format!("12000{i}")));
            }
            s.step(&mut m, &mut c, &replica).unwrap();
        }
        assert!(replica.try_answer(&query("120005")).is_some());
        assert!(replica.try_answer(&query("045600")).is_none(), "stale region evicted");
    }

    #[test]
    fn unbudgeted_step_matches_batch_select() {
        let gens_b = gens();
        let mut batch = FilterSelector::new(
            SelectorConfig {
                revolution_interval: u64::MAX,
                entry_budget: 20,
                max_candidates: 4096,
            },
            gens_b,
        );
        let mut online = OnlineSelector::new(OnlineConfig::unbudgeted(20), gens());
        for (pre, n) in [("0456", 7), ("1200", 5), ("3300", 2), ("7700", 1)] {
            for i in 0..n {
                let q = query(&format!("{pre}0{i}"));
                batch.observe(&q);
                online.observe(&q);
            }
        }
        let batch_set: HashSet<String> =
            batch.select(master().dit()).iter().map(candidate_key).collect();
        let (mut m, mut c, replica) = deployment();
        online.step(&mut m, &mut c, &replica).unwrap();
        let online_set: HashSet<String> =
            replica.filters().map(|(r, _)| candidate_key(&r)).collect();
        assert_eq!(batch_set, online_set);
    }

    #[test]
    fn pruning_caps_candidates_but_keeps_managed() {
        let (mut m, mut c, replica) = deployment();
        let mut s = OnlineSelector::new(
            OnlineConfig { entry_budget: 10, max_candidates: 8, ..OnlineConfig::default() },
            gens(),
        );
        for i in 0..5 {
            s.observe(&query(&format!("04560{i}")));
        }
        s.step(&mut m, &mut c, &replica).unwrap();
        assert_eq!(s.managed_count(), 1);
        for i in 0..40 {
            s.observe(&query(&format!("{:06}", i * 137)));
        }
        assert!(s.candidate_count() <= 31, "got {}", s.candidate_count());
        assert!(
            s.candidates.contains_key("(serialNumber=0456*) base=\"\" scope=subtree")
                || s.managed.keys().all(|k| s.candidates.contains_key(k)),
            "stored filters survive pruning"
        );
    }

    #[test]
    fn moves_histogram_is_recorded() {
        let obs = Obs::new();
        let (mut m, mut c, replica) = deployment();
        let mut s = OnlineSelector::new(
            OnlineConfig { entry_budget: 10, ..OnlineConfig::default() },
            gens(),
        )
        .with_obs(obs.clone());
        for i in 0..5 {
            s.observe(&query(&format!("04560{i}")));
        }
        s.step(&mut m, &mut c, &replica).unwrap();
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counters["fbdr_selection_online_steps_total"], 1);
        assert_eq!(snap.counters["fbdr_selection_online_promotions_total"], 1);
        assert!(obs.registry().histogram("fbdr_selection_revolve_moves").count() >= 1);
    }
}
