//! Cross-crate integration: a replica must never serve a *wrong* answer.
//!
//! For every query a synced filter replica answers locally, the result
//! must equal what the master would return — the soundness property that
//! justifies answering from the replica at all.

use fbdr_bench::experiment::{replay_filter, ReplayConfig};
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

/// One answer: the same query returns the same *set* of entries whether
/// the master answers it (a miss), the cached window does, or a stored
/// filter does.
#[test]
fn a_query_returns_one_answer_as_miss_cached_hit_and_filter_hit() {
    let dn = |s: &str| -> Dn { s.parse().expect("dn parses") };
    let mut dit = DitStore::new();
    dit.add_suffix(dn("o=xyz"));
    for (name, dept) in [
        ("o=xyz", None),
        ("c=us,o=xyz", None),
        ("c=in,o=xyz", None),
        ("cn=a,c=us,o=xyz", Some("7")),
        ("cn=b,c=in,o=xyz", Some("7")),
        ("cn=c,c=in,o=xyz", Some("8")),
    ] {
        let mut e = Entry::new(dn(name)).with("objectclass", "top");
        if let Some(dept) = dept {
            e = e.with("dept", dept);
        }
        dit.add(e).expect("add");
    }
    let query = SearchRequest::new(dn("o=xyz"), Scope::Subtree, "(dept=7)".parse().expect("filter"));
    let names = |entries: &[Entry]| -> Vec<String> {
        let mut names: Vec<String> = entries.iter().map(|e| e.dn().to_string()).collect();
        names.sort();
        names
    };

    let mut repl = Replicator::new(SyncMaster::with_dit(dit), 1);
    let (miss, served) = repl.search(&query);
    assert_eq!(served, ServedBy::Master);
    assert_eq!(names(&miss), ["cn=a,c=us,o=xyz", "cn=b,c=in,o=xyz"]);

    let (cached, served) = repl.search(&query);
    assert_eq!(served, ServedBy::Replica, "answered from the cached window");
    assert_eq!(names(&cached), names(&miss));

    repl.install_filter(query.clone()).expect("install");
    let (hit, served) = repl.search(&query);
    assert_eq!(served, ServedBy::Replica);
    assert_eq!(repl.stats().generalized_hits, 1, "answered by the stored filter");
    assert_eq!(names(&hit), names(&miss));
}

fn dn(s: &str) -> Dn {
    s.parse().expect("dn parses")
}

/// Three people under `c=us,o=xyz`: `abe` and `abi` in department 7, `bo`
/// in department 8.
fn three_people() -> DitStore {
    let mut dit = DitStore::new();
    dit.add_suffix(dn("o=xyz"));
    dit.add(Entry::new(dn("o=xyz")).with("objectclass", "top")).expect("add");
    dit.add(Entry::new(dn("c=us,o=xyz")).with("objectclass", "top")).expect("add");
    for (cn, dept) in [("abe", "7"), ("abi", "7"), ("bo", "8")] {
        let person = Entry::new(dn(&format!("cn={cn},c=us,o=xyz")))
            .with("objectclass", "person")
            .with("cn", cn)
            .with("dept", dept)
            .with("mail", &format!("{cn}@xyz.com"));
        dit.add(person).expect("add");
    }
    dit
}

/// The cached window answers only what its copies can evaluate: the
/// master projected them onto the cached request's attributes, so a query
/// whose filter reads an attribute the list left out is a miss, however
/// well the filters contain each other.
#[test]
fn the_cached_window_answers_only_filters_its_projected_copies_can_evaluate() {
    let selecting = |filter: &str, attrs: &[&str]| {
        SearchRequest::with_attrs(
            dn("o=xyz"),
            Scope::Subtree,
            filter.parse().expect("filter"),
            AttrSelection::list(attrs.iter().copied()),
        )
    };
    // The copies keep `cn` only: matching `mail` against them finds nothing.
    let mut repl = Replicator::new(SyncMaster::with_dit(three_people()), 4);
    let query = selecting("(mail=ab*)", &["cn"]);
    let truth = repl.master().search(&query);
    assert_eq!(truth.len(), 2);
    assert!(truth.iter().all(|e| !e.has_attr(&"mail".into())));
    for _ in 0..2 {
        assert_eq!(repl.search(&query), (truth.clone(), ServedBy::Master));
    }
    assert_eq!(repl.stats().cache_hits, 0);
    // Selecting the filter's attribute as well makes the copies enough.
    let query = selecting("(mail=ab*)", &["cn", "mail"]);
    let truth = repl.master().search(&query);
    assert_eq!(repl.search(&query), (truth.clone(), ServedBy::Master));
    assert_eq!(repl.search(&query), (truth.clone(), ServedBy::Replica));
    // ... for a narrower selection of a narrower filter too.
    let narrower = selecting("(mail=abe*)", &["cn"]);
    assert_eq!(repl.search(&narrower), (repl.master().search(&narrower), ServedBy::Replica));
    assert_eq!(repl.stats().cache_hits, 2);
}

/// An answer is a value. Results share entry bodies with the master's
/// store, the replica's slots and the cached window, and none of them is
/// written through: an answer taken before a master `Modify` and a sync
/// reads the old values afterwards, the next one the new.
#[test]
fn an_answer_taken_before_a_modify_still_reads_the_old_values() {
    let mails = |entries: &[Entry]| -> Vec<String> {
        entries
            .iter()
            .flat_map(|e| e.values(&"mail".into()))
            .map(|v| v.raw().to_owned())
            .collect()
    };
    let by_dept = |dept: &str| {
        SearchRequest::new(dn("o=xyz"), Scope::Subtree, format!("(dept={dept})").parse().expect("filter"))
    };
    let (stored, passing) = (by_dept("7"), by_dept("8"));
    let mut repl = Replicator::new(SyncMaster::with_dit(three_people()), 1);
    repl.install_filter(stored.clone()).expect("install");

    let (hit, served) = repl.search(&stored);
    assert_eq!(served, ServedBy::Replica);
    let (miss, served) = repl.search(&passing);
    assert_eq!(served, ServedBy::Master);
    let (cached, served) = repl.search(&passing);
    assert_eq!(served, ServedBy::Replica, "answered from the cached window");
    assert_eq!(repl.stats().cache_hits, 1);

    for cn in ["abe", "bo"] {
        repl.apply_update(UpdateOp::Modify {
            dn: dn(&format!("cn={cn},c=us,o=xyz")),
            mods: vec![Modification::Replace("mail".into(), vec![format!("{cn}@new.com").into()])],
        })
        .expect("modify");
    }
    repl.sync().expect("sync");

    assert_eq!(mails(&hit), ["abe@xyz.com", "abi@xyz.com"]);
    assert_eq!(mails(&miss), ["bo@xyz.com"]);
    assert_eq!(mails(&cached), ["bo@xyz.com"]);
    let (hit, served) = repl.search(&stored);
    assert_eq!(served, ServedBy::Replica);
    assert_eq!(mails(&hit), ["abe@new.com", "abi@xyz.com"]);
    assert_eq!(mails(&repl.master().search(&passing)), ["bo@new.com"]);
    // The window is frozen at cache time (§7.4), not written through.
    let (cached, served) = repl.search(&passing);
    assert_eq!(served, ServedBy::Replica);
    assert_eq!(mails(&cached), ["bo@xyz.com"]);
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
