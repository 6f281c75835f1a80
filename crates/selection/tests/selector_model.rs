//! The one selector against the paper, and against its own budgets.
//!
//! * The **periodic configuration** ([`SelectorConfig`]) is §6.2 as the
//!   paper states it. [`Model`] below is that paragraph as code — a hit
//!   map, sizes counted at the master at the revolution, rank by
//!   benefit/size, pack into the entry budget, skip what a picked filter
//!   already contains, forget the hits — and shares nothing with
//!   [`FilterSelector`] but the generalization rules and the containment
//!   check. Over whole multi-revolution traces, with adds and deletes in
//!   between that change what a region holds, the stored set and the
//!   entries each revolution loads are the model's, revolution by
//!   revolution.
//! * The **budgeted configurations** keep their invariants under
//!   arbitrary streams, step placement and knob settings: every knob
//!   (move budget, hysteresis, dwell, decay, update weight) only
//!   *relaxes* the periodic revolution, never overruns a budget.

use fbdr_containment::{ContainmentEngine, PreparedQuery};
use fbdr_dit::UpdateOp;
use fbdr_ldap::{Entry, Filter, SearchRequest};
use fbdr_replica::FilterReplica;
use fbdr_resync::{ShardCoordinator, ShardedMaster, SyncMaster};
use fbdr_selection::generalize::{Generalizer, ValuePrefix};
use fbdr_selection::{FilterSelector, SelectorConfig, StepConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const CLUSTERS: usize = 6;
const CLUSTER_SIZE: usize = 30;

/// Six 30-entry serial clusters `(10+c)0000 ..`: a 4-digit prefix covers
/// a whole cluster, a 5-digit prefix a 10-entry sub-region — candidates
/// of different sizes that also semantically contain one another.
fn master() -> SyncMaster {
    let mut m = SyncMaster::new();
    m.dit_mut().add_suffix("o=xyz".parse().unwrap());
    m.dit_mut().add(Entry::new("o=xyz".parse().unwrap())).unwrap();
    for c in 0..CLUSTERS {
        for i in 0..CLUSTER_SIZE {
            m.dit_mut().add(person(c, i)).unwrap();
        }
    }
    m
}

fn person(c: usize, i: usize) -> Entry {
    Entry::new(format!("cn=e{c}x{i},o=xyz").parse().unwrap())
        .with("objectclass", "person")
        .with("serialNumber", &format!("{:02}{:04}", 10 + c, i))
}

/// The master as the one-shard deployment the selectors act on, with its
/// coordinator and an empty replica.
fn deployment() -> (ShardedMaster, ShardCoordinator, FilterReplica) {
    let m = ShardedMaster::from(master());
    let c = ShardCoordinator::new(m.map().clone());
    (m, c, FilterReplica::new(0))
}

fn query(c: usize, i: usize) -> SearchRequest {
    SearchRequest::from_root(
        Filter::parse(&format!("(serialNumber={:02}{:04})", 10 + c, i)).unwrap(),
    )
}

fn gens() -> Vec<Box<dyn Generalizer + Send>> {
    vec![Box::new(ValuePrefix::new("serialNumber", vec![4, 5]))]
}

fn key(r: &SearchRequest) -> String {
    format!("{r}")
}

/// §6.2, as stated: the hits since the last revolution, and what is stored.
#[derive(Default)]
struct Model {
    hits: BTreeMap<String, (SearchRequest, u64)>,
    stored: BTreeSet<String>,
}

impl Model {
    fn observe(&mut self, q: &SearchRequest) {
        for g in gens() {
            for cand in g.generalize(q) {
                self.hits.entry(key(&cand)).or_insert((cand, 0)).1 += 1;
            }
        }
    }

    /// One revolution; returns the entries loaded for the newly stored.
    fn revolve(&mut self, master: &ShardedMaster, budget: usize) -> usize {
        // Benefit = hits since the last revolution (the map is taken);
        // size = entries matched at the master, now.
        let mut ranked: Vec<(f64, usize, String, SearchRequest)> = std::mem::take(&mut self.hits)
            .into_iter()
            .map(|(k, (r, hits))| (hits, master.count_matching(&r), k, r))
            .filter(|(_, size, ..)| (1..=budget).contains(size))
            .map(|(hits, size, k, r)| (hits as f64 / size as f64, size, k, r))
            .collect();
        // Best ratio first; of equals the larger, then the shorter name.
        ranked.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap()
                .then(b.1.cmp(&a.1))
                .then(a.2.len().cmp(&b.2.len()))
                .then(a.2.cmp(&b.2))
        });
        let engine = ContainmentEngine::new();
        let mut picked: Vec<(PreparedQuery, usize, String)> = Vec::new();
        let mut used = 0;
        for (_, size, k, r) in ranked {
            let q = PreparedQuery::new(r);
            if used + size > budget || picked.iter().any(|(p, ..)| engine.query_contained(&q, p)) {
                continue; // does not fit, or a picked filter already holds it
            }
            used += size;
            picked.push((q, size, k));
        }
        let loaded = picked.iter().filter(|(_, _, k)| !self.stored.contains(k)).map(|p| p.1).sum();
        self.stored = picked.into_iter().map(|p| p.2).collect();
        loaded
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The periodic configuration is the model, revolution by
    /// revolution, while adds and deletes move the regions' sizes (serials
    /// `..0030` and up do not exist until added).
    #[test]
    fn periodic_configuration_is_the_papers_revolution(
        ops in prop::collection::vec((0u8..10, 0usize..CLUSTERS, 0usize..2 * CLUSTER_SIZE), 60..300),
        budget_tens in 1usize..13,
        interval in 8u64..25,
    ) {
        let budget = budget_tens * 10;
        let (mut m, mut coord, replica) = deployment();
        let mut selector = FilterSelector::new(
            SelectorConfig { revolution_interval: interval, entry_budget: budget, max_candidates: 4096 },
            gens(),
        );
        let mut model = Model::default();
        for (kind, c, i) in ops {
            match kind {
                0..=6 => {
                    let q = query(c, i);
                    selector.observe(&q);
                    model.observe(&q);
                    if selector.step_due() {
                        let step = selector.step(&mut m, &mut coord, &replica).unwrap();
                        let loaded = model.revolve(&m, budget);
                        let stored: BTreeSet<String> = replica.filters().map(|(r, _)| key(&r)).collect();
                        prop_assert_eq!(&stored, &model.stored);
                        prop_assert_eq!(step.traffic.full_entries, loaded as u64);
                    }
                }
                // An add of a present entry or a delete of an absent one
                // is refused, for selector and model alike.
                7 | 8 => drop(m.apply(UpdateOp::Add(person(c, i)))),
                _ => drop(m.apply(UpdateOp::Delete(person(c, i).dn().clone()))),
            }
        }
        prop_assert_eq!(selector.managed_count(), model.stored.len());
    }

    /// Invariants of the *budgeted* production path, under arbitrary
    /// streams, step placement and knob settings: the stored set never
    /// exceeds the entry budget, no step ever makes more than
    /// `move_budget` moves, and the selector's view of what is managed
    /// always matches what the replica actually stores.
    #[test]
    fn budgeted_steps_respect_budgets_and_stay_consistent(
        picks in prop::collection::vec((0usize..CLUSTERS, 0usize..CLUSTER_SIZE), 1..200),
        budget_tens in 1usize..13,
        move_budget in 1usize..5,
        hysteresis in 0u8..3,
        decay_pct in 70u8..101,
        step_every in 5u64..40,
    ) {
        let budget = budget_tens * 10;
        let config = StepConfig {
            entry_budget: budget,
            step_every,
            move_budget,
            hysteresis: f64::from(hysteresis) * 0.25,
            decay: f64::from(decay_pct) / 100.0,
            upd_weight: 0.0,
            min_dwell_steps: 1,
            pending_cap: 16,
            max_candidates: 4096,
        };
        let (mut m, mut coord, replica) = deployment();
        let mut online = FilterSelector::new(config, gens());
        for (c, i) in &picks {
            online.observe(&query(*c, *i));
            if online.step_due() {
                let step = online.step(&mut m, &mut coord, &replica).unwrap();
                prop_assert!(step.moves <= move_budget,
                    "step made {} moves, budget {}", step.moves, move_budget);
                let stored: usize = replica
                    .filters()
                    .map(|(r, _)| m.count_matching(&r))
                    .sum();
                prop_assert!(stored <= budget,
                    "stored {} entries, budget {}", stored, budget);
            }
        }
        prop_assert_eq!(online.managed_count(), replica.filters().count());
        prop_assert!(online.report().max_moves <= move_budget);
    }
}
