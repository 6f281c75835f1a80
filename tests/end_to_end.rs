//! Cross-crate integration: a replica must never serve a *wrong* answer.
//!
//! For every query a synced filter replica answers locally, the result
//! must equal what the master would return — the soundness property that
//! justifies answering from the replica at all.

use fbdr::core::experiment::{replay_filter, ReplayConfig};
use fbdr::prelude::*;
use fbdr::selection::generalize::ValuePrefix;
use fbdr::workload::{TraceGenerator, UpdateGenerator};

fn small_world() -> (EnterpriseDirectory, Vec<fbdr::workload::TracedQuery>) {
    let dir = EnterpriseDirectory::generate(DirectoryConfig::small());
    let cfg = TraceConfig { queries: 1500, ..TraceConfig::default() };
    let trace = TraceGenerator::new(&dir, &cfg).generate(&dir, &cfg);
    (dir, trace)
}

#[test]
fn replica_hits_equal_master_answers() {
    let (dir, trace) = small_world();
    let master_truth = dir.dit().clone();
    let mut repl = Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 0);
    repl.install_filter(SearchRequest::from_root(
        Filter::parse("(serialNumber=1000*)").expect("static"),
    ))
    .expect("install");
    repl.install_filter(SearchRequest::from_root(
        Filter::parse("(serialNumber=1001*)").expect("static"),
    ))
    .expect("install");

    let mut hits = 0;
    for tq in &trace {
        let (entries, served) = repl.search(&tq.request);
        let truth = master_truth.search(&tq.request);
        if served == ServedBy::Replica {
            hits += 1;
            assert_eq!(
                entries.len(),
                truth.len(),
                "replica answered {} with wrong cardinality",
                tq.request
            );
            let got: Vec<String> = entries.iter().map(|e| e.dn().to_string()).collect();
            let want: Vec<String> = truth.iter().map(|e| e.dn().to_string()).collect();
            assert_eq!(got, want, "replica answered {} with wrong entries", tq.request);
        } else {
            assert_eq!(entries.len(), truth.len());
        }
    }
    assert!(hits > 0, "the test should exercise the hit path");
}

#[test]
fn replica_stays_correct_across_updates_and_syncs() {
    let (dir, trace) = small_world();
    let updates = UpdateGenerator::new(&dir).generate(&UpdateConfig {
        ops: 200,
        ..UpdateConfig::default()
    });
    let mut repl = Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 0);
    repl.install_filter(SearchRequest::from_root(
        Filter::parse("(serialNumber=100*)").expect("static"),
    ))
    .expect("install");

    let mut checked = 0;
    for (i, tq) in trace.iter().enumerate() {
        if i % 10 == 0 && i / 10 < updates.len() {
            let _ = repl.apply_update(updates[i / 10].clone());
            repl.sync().expect("sync");
        }
        // After a sync, hits must match the master exactly.
        let (entries, served) = repl.search(&tq.request);
        if served == ServedBy::Replica {
            let want = repl.master().search(&tq.request);
            let got: Vec<String> = entries.iter().map(|e| e.dn().to_string()).collect();
            let want: Vec<String> = want.iter().map(|e| e.dn().to_string()).collect();
            assert_eq!(got, want, "stale/wrong replica answer for {}", tq.request);
            checked += 1;
        }
    }
    assert!(checked > 0, "the test should exercise the hit path");
}

#[test]
fn full_pipeline_smoke() {
    let (dir, trace) = small_world();
    let updates = UpdateGenerator::new(&dir).generate(&UpdateConfig {
        ops: 100,
        ..UpdateConfig::default()
    });
    let selector = FilterSelector::new(
        SelectorConfig { revolution_interval: 300, entry_budget: 200, max_candidates: 2048 },
        vec![Box::new(ValuePrefix::new("serialNumber", vec![5, 4]))],
    );
    let mut repl =
        Replicator::new(SyncMaster::with_dit(dir.dit().clone()), 50).with_selector(selector);
    let out = replay_filter(
        &mut repl,
        &trace,
        &updates,
        ReplayConfig { sync_every: 100, update_every: 15 },
    );
    assert_eq!(out.overall.queries, trace.len() as u64);
    assert!(out.overall.hits > 0, "dynamic selection should produce hits");
    assert!(out.revolutions > 0, "revolutions should fire");
    assert!(out.replica_entries <= 200 + 60, "budget roughly respected");
    assert!(out.updates_applied > 0);
}

#[test]
fn facade_reexports_are_usable() {
    // Compile-time check that the prelude exposes the public API surface.
    let f: Filter = "(a=1)".parse().expect("filter parses");
    let (t, vals) = Template::of(&f);
    assert_eq!(t.id().as_str(), "(a=_)");
    assert_eq!(vals.len(), 1);
    let dn: Dn = "cn=a,o=b".parse().expect("dn parses");
    assert_eq!(dn.depth(), 2);
    assert!(fbdr::containment::filter_contained(&f, &f).is_contained());
}
