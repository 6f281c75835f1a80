//! The paper's running examples, exercised through the public facade.

use fbdr::dit::{DitStore, NamingContext};
use fbdr::net::{Network, Server};
use fbdr::prelude::*;
use fbdr_bench::subtree::SubtreeReplica;

fn dn(s: &str) -> Dn {
    s.parse().expect("valid dn")
}

/// §3.1.2: semantic locality is not spatial locality — one filter answers
/// department queries whose result sets live in different country
/// subtrees.
#[test]
fn semantic_locality_spans_subtrees() {
    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix(dn("o=xyz"));
    master.dit_mut().add(Entry::new(dn("o=xyz"))).expect("add root");
    for c in ["us", "in"] {
        master.dit_mut().add(Entry::new(dn(&format!("c={c},o=xyz")))).expect("add country");
    }
    for (cn, c, dept) in [("a", "us", "2406"), ("b", "in", "2407"), ("c", "us", "9900")] {
        master
            .dit_mut()
            .add(
                Entry::new(dn(&format!("cn={cn},c={c},o=xyz")))
                    .with("objectclass", "inetOrgPerson")
                    .with("departmentNumber", dept),
            )
            .expect("add person");
    }

    let mut repl = Replicator::new(master, 0);
    repl.install_filter(SearchRequest::from_root(
        Filter::parse("(&(objectclass=inetOrgPerson)(departmentNumber=240*))").expect("static"),
    ))
    .expect("install");

    for dept in ["2406", "2407"] {
        let q = SearchRequest::from_root(
            Filter::parse(&format!("(&(objectclass=inetOrgPerson)(departmentNumber={dept}))"))
                .expect("static"),
        );
        let (entries, served) = repl.search(&q);
        assert_eq!(served, ServedBy::Replica, "dept {dept} should hit");
        assert_eq!(entries.len(), 1);
    }
    let q = SearchRequest::from_root(
        Filter::parse("(&(objectclass=inetOrgPerson)(departmentNumber=9900))").expect("static"),
    );
    assert_eq!(repl.search(&q).1, ServedBy::Master);
}

/// §3.1.1: null-based queries are answerable by a filter replica but never
/// by a subtree replica.
#[test]
fn null_based_queries() {
    let mut dit = DitStore::new();
    dit.add_suffix(dn("o=xyz"));
    dit.add(Entry::new(dn("o=xyz"))).expect("add root");
    dit.add(Entry::new(dn("c=us,o=xyz"))).expect("add country");
    dit.add(
        Entry::new(dn("cn=a,c=us,o=xyz"))
            .with("objectclass", "person")
            .with("uid", "a"),
    )
    .expect("add person");

    // Subtree replica of c=us answers nothing root-based.
    let mut sub = SubtreeReplica::new();
    sub.replicate_context(&dit, NamingContext::new(dn("c=us,o=xyz")));
    let q = SearchRequest::from_root(Filter::parse("(uid=a)").expect("static"));
    assert!(sub.try_answer(&q).is_none());

    // Filter replica replicating a null-based query answers it.
    let mut repl = Replicator::new(SyncMaster::with_dit(dit), 0);
    repl.install_filter(SearchRequest::from_root(Filter::parse("(uid=*)").expect("static")))
        .expect("install");
    assert_eq!(repl.search(&q).1, ServedBy::Replica);
}

/// Figure 2 through the facade: referral chasing costs four round trips.
#[test]
fn figure2_four_round_trips() {
    let mut net = Network::new();
    let mut dit_a = DitStore::new();
    dit_a.add_suffix(dn("o=xyz"));
    dit_a.add(Entry::new(dn("o=xyz"))).expect("add");
    dit_a.add(Entry::new(dn("c=us,o=xyz"))).expect("add");
    dit_a.add(Entry::new(dn("cn=Fred Jones,c=us,o=xyz"))).expect("add");
    net.add_server(Server::new(
        "ldap://hostA",
        dit_a,
        vec![NamingContext::new(dn("o=xyz"))
            .with_referral(dn("ou=research,c=us,o=xyz"), "ldap://hostB")
            .with_referral(dn("c=in,o=xyz"), "ldap://hostC")],
        None,
    ));
    let mut dit_b = DitStore::new();
    dit_b.add_suffix(dn("ou=research,c=us,o=xyz"));
    dit_b.add(Entry::new(dn("ou=research,c=us,o=xyz"))).expect("add");
    net.add_server(Server::new(
        "ldap://hostB",
        dit_b,
        vec![NamingContext::new(dn("ou=research,c=us,o=xyz"))],
        Some("ldap://hostA".into()),
    ));
    let mut dit_c = DitStore::new();
    dit_c.add_suffix(dn("c=in,o=xyz"));
    dit_c.add(Entry::new(dn("c=in,o=xyz"))).expect("add");
    net.add_server(Server::new(
        "ldap://hostC",
        dit_c,
        vec![NamingContext::new(dn("c=in,o=xyz"))],
        Some("ldap://hostA".into()),
    ));

    let mut client = net.client();
    let req = SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::match_all());
    let res = client.search("ldap://hostB", &req).expect("resolves");
    assert_eq!(res.stats.round_trips, 4);
}

/// Figure 3 through the facade: poll → poll → persist with exactly the
/// paper's action sequence.
#[test]
fn figure3_session_through_facade() {
    let mut m = SyncMaster::new();
    m.dit_mut().add_suffix(dn("o=xyz"));
    m.dit_mut().add(Entry::new(dn("o=xyz"))).expect("add");
    for cn in ["E1", "E2", "E3"] {
        m.dit_mut()
            .add(Entry::new(dn(&format!("cn={cn},o=xyz"))).with("dept", "7"))
            .expect("add");
    }
    let s = SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::parse("(dept=7)").expect("ok"));
    let resp = m.resync(&s, ReSyncControl::poll(None)).expect("initial");
    assert_eq!(resp.actions.len(), 3);
    let cookie = resp.cookie.expect("cookie");

    m.apply(UpdateOp::Delete(dn("cn=E1,o=xyz"))).expect("delete");
    let resp = m.resync(&s, ReSyncControl::poll(Some(cookie))).expect("poll");
    assert_eq!(resp.actions, vec![SyncAction::Delete(dn("cn=E1,o=xyz"))]);

    let (_, rx) = m.resync_persist(&s, Some(cookie)).expect("persist");
    m.apply(UpdateOp::Add(Entry::new(dn("cn=E9,o=xyz")).with("dept", "7"))).expect("add");
    let notes: Vec<SyncAction> = rx.try_iter().flat_map(|b| b.actions).collect();
    assert_eq!(notes.len(), 1);
    assert!(matches!(&notes[0], SyncAction::Add(e) if e.dn() == &dn("cn=E9,o=xyz")));
}
