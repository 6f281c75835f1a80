//! Property: the budgeted online revolution with an unlimited move
//! budget, zero hysteresis, no decay and no update charge computes the
//! **same stored filter set** as the batch selector's greedy selection
//! on frozen statistics — order-insensitively, for any query stream and
//! any entry budget.
//!
//! This is the contract that makes the online selector a faithful
//! *incrementalization* of §6 rather than a different policy: every
//! knob (move budget, hysteresis, dwell, decay, update weight) only
//! *relaxes* batch behaviour, never redefines the target.

use fbdr_ldap::{Entry, Filter, SearchRequest};
use fbdr_replica::FilterReplica;
use fbdr_resync::{ShardCoordinator, ShardedMaster, SyncMaster};
use fbdr_selection::generalize::{Generalizer, ValuePrefix};
use fbdr_selection::{FilterSelector, OnlineConfig, OnlineSelector, SelectorConfig};
use proptest::prelude::*;
use std::collections::HashSet;

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
            m.dit_mut()
                .add(
                    Entry::new(format!("cn=e{c}x{i},o=xyz").parse().unwrap())
                        .with("objectclass", "person")
                        .with("serialNumber", &format!("{:02}{:04}", 10 + c, i)),
                )
                .unwrap();
        }
    }
    m
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same observations, frozen → one unbudgeted online step stores
    /// exactly the batch selection.
    #[test]
    fn unbudgeted_online_step_equals_batch_select(
        picks in prop::collection::vec((0usize..CLUSTERS, 0usize..CLUSTER_SIZE), 1..160),
        budget_tens in 1usize..13,
    ) {
        let budget = budget_tens * 10;
        let mut batch = FilterSelector::new(
            SelectorConfig {
                revolution_interval: u64::MAX,
                entry_budget: budget,
                max_candidates: 4096,
            },
            gens(),
        );
        let mut online = OnlineSelector::new(OnlineConfig::unbudgeted(budget), gens());
        for (c, i) in &picks {
            let q = query(*c, *i);
            batch.observe(&q);
            online.observe(&q);
        }

        let batch_set: HashSet<String> = batch.select(master().dit()).iter().map(key).collect();
        let (mut m, mut coord, replica) = deployment();
        let step = online.step(&mut m, &mut coord, &replica).unwrap();
        let online_set: HashSet<String> = replica.filters().map(|(r, _)| key(&r)).collect();

        prop_assert_eq!(&batch_set, &online_set,
            "batch {:?} vs online {:?}", batch_set, online_set);
        // The step's work equals exactly the installs it reported.
        prop_assert_eq!(step.moves, step.promoted.len());
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
        let config = OnlineConfig {
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
        let mut online = OnlineSelector::new(config, gens());
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
