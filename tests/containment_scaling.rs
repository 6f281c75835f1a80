//! Answering a query costs the containment checks of the stored filters
//! that *can* contain it, not one per stored filter: the paper's §7.4
//! overhead, "directly proportional to the number of stored filters", is
//! what the stored-filter index removes (DESIGN §18).
//!
//! The engine's check counter repeats exactly, so these are noise-free
//! gates: without the index the contained point query below costs about
//! half the stored filters in checks and the uncovered one all of them.
//! (That a content-only publish keeps the built index by pointer is
//! asserted where the pointer is visible, in `fbdr-replica`'s
//! `filter_index_lives_one_filter_generation`.)

use fbdr::prelude::*;

fn dn(s: &str) -> Dn {
    s.parse().expect("static DN")
}

fn query(f: &str) -> SearchRequest {
    SearchRequest::from_root(Filter::parse(f).expect("static filter"))
}

/// A replica holding `n` disjoint serial-prefix filters (blocks of ten
/// serial numbers), one person under each of the first few.
fn deployment(n: usize) -> (SyncMaster, FilterReplica) {
    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix(dn("o=xyz"));
    master.dit_mut().add(Entry::new(dn("o=xyz"))).expect("suffix entry");
    for i in 0..8 {
        let person = Entry::new(dn(&format!("cn=p{i},o=xyz")))
            .with("objectclass", "inetOrgPerson")
            .with("serialNumber", &format!("{:05}7", 10_000 + i))
            .with("mail", &format!("p{i}@xyz.com"));
        master.dit_mut().add(person).expect("person");
    }
    let replica = FilterReplica::new(4);
    for i in 0..n {
        let f = query(&format!("(serialNumber={:05}*)", 10_000 + i));
        replica.install_filter(&mut master, f).expect("install");
    }
    (master, replica)
}

/// Containment checks one `try_answer` of `q` dispatches.
fn checks(replica: &FilterReplica, q: &SearchRequest) -> (u64, bool) {
    let before = replica.engine_stats().total();
    let hit = replica.try_answer(q).is_some();
    (replica.engine_stats().total() - before, hit)
}

/// (contained point query, query on an unmentioned attribute, contained
/// point query after a content-only publish) at `n` stored filters.
fn costs(n: usize) -> [u64; 3] {
    let (mut master, replica) = deployment(n);
    // Inside the filter in the middle of the list.
    let contained = query(&format!("(serialNumber={:05}3)", 10_000 + n / 2));
    let uncovered = query("(mail=p3@xyz.com)");
    let (first, hit) = checks(&replica, &contained);
    assert!(hit, "{n} filters: the point query is inside one of them");
    let (none, hit) = checks(&replica, &uncovered);
    assert!(!hit, "{n} filters: nothing stored mentions mail");

    master
        .apply(UpdateOp::Modify {
            dn: dn("cn=p0,o=xyz"),
            mods: vec![Modification::Replace("mail".into(), vec!["moved@xyz.com".into()])],
        })
        .expect("modify");
    let epoch = replica.epoch();
    replica.sync(&mut master).expect("sync");
    assert_eq!(replica.epoch(), epoch + 1);
    // A different serial, so the decision is not memoized.
    let again = query(&format!("(serialNumber={:05}4)", 10_000 + n / 2));
    let (after_publish, hit) = checks(&replica, &again);
    assert!(hit);
    [first, none, after_publish]
}

#[test]
fn checks_per_answer_do_not_grow_with_stored_filters() {
    let small = costs(50);
    let large = costs(400);
    println!("checks per try_answer [contained, uncovered, after publish]: {small:?} at 50 filters, {large:?} at 400");
    assert_eq!(small, large, "the cost of an answer depends on the number of stored filters");
    let [contained, uncovered, after_publish] = large;
    assert!((1..=2).contains(&contained), "{contained} checks for a contained point query");
    assert_eq!(uncovered, 0, "checks for a query no stored filter can contain");
    assert_eq!(after_publish, contained);
}

#[test]
fn an_unindexable_query_checks_every_filter_and_decides_the_same() {
    // `Or` has no witness: every stored filter is its candidate, in order.
    let (_, replica) = deployment(50);
    let q = query("(|(serialNumber=100257)(serialNumber=100258))");
    let (n, hit) = checks(&replica, &q);
    assert!(hit, "both branches are inside the filter at position 25");
    assert_eq!(n, 26, "filters 0..=25 are checked in order, the first that contains wins");
    assert_eq!(replica.try_answer(&q), replica.try_answer_scan(&q));
    let hits: Vec<u64> = replica.filters().map(|(_, hits)| hits).collect();
    assert_eq!(hits[25], 2);
    assert_eq!(hits.iter().sum::<u64>(), 2);
}

/// Answering costs the entries the query's *plan* selects, not the
/// entries the containing filter holds (DESIGN §9) — a count, so it is
/// gated here and not timed. Candidates selected for a point query (its
/// plan is exact: the one candidate is read, not verified) and for a
/// no-initial substring (every one verified), at `held` entries under
/// each of a prefix and a presence filter.
fn plan_candidates(held: usize) -> [u64; 2] {
    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix(dn("o=xyz"));
    master.dit_mut().add(Entry::new(dn("o=xyz"))).expect("suffix entry");
    for i in 0..held {
        let person = Entry::new(dn(&format!("cn=p{i},o=xyz")))
            .with("objectclass", "inetOrgPerson")
            .with("serialNumber", &format!("{}", 100_000 + i));
        master.dit_mut().add(person).expect("person");
    }
    let obs = Obs::new();
    let replica = FilterReplica::with_obs(0, obs.clone());
    for f in ["(serialNumber=1*)", "(serialNumber=*)"] {
        replica.install_filter(&mut master, query(f)).expect("install");
    }
    assert_eq!(replica.entry_count(), held);
    let candidates = obs.registry().histogram("fbdr_replica_plan_candidates");
    [query("(serialNumber=100042)"), query("(serialNumber=*42)")].map(|q| {
        let before = candidates.snapshot();
        assert!(replica.try_answer(&q).is_some_and(|entries| !entries.is_empty()), "{q}");
        let after = candidates.snapshot();
        assert_eq!(after.count - before.count, 1, "one evaluation per answer");
        after.sum - before.sum
    })
}

#[test]
fn a_point_query_verifies_one_candidate_however_many_entries_are_held() {
    let (small, large) = (plan_candidates(300), plan_candidates(3_000));
    println!("plan candidates [point, substring]: {small:?} at 300 entries, {large:?} at 3000");
    assert_eq!([small[0], large[0]], [1, 1], "an equality plan is the one matching entry");
    // A substring with no initial gives the planner nothing to bound:
    // evaluation degrades to the containing filter's posting list.
    assert_eq!([small[1], large[1]], [300, 3_000]);
}
