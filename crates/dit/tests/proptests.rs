//! Property tests for the DIT store: indexed search must agree with a
//! brute-force scan after any sequence of updates, point lookups must
//! agree with the tree walk, and a history fed from `apply` must be a
//! well-formed changelog.

use fbdr_dit::{diff_entries, ChangeKind, ChangeRecord, Csn, DitStore, History, Modification, UpdateOp};
use fbdr_ldap::{Dn, Entry, Filter, Rdn, Scope, SearchRequest};
use proptest::prelude::*;

/// Values of the multi-valued attribute `n`: three spellings of one
/// integer, its neighbours, a negative, and non-integers that sort around
/// them as text.
const SPELLINGS: &[&str] = &["0500", "500", "+500", "499", "501", "-3", "5oo", "abc"];

#[derive(Debug, Clone)]
enum Op {
    Add { id: usize, dept: u8, serial: u16, n: usize },
    Delete { id: usize },
    SetDept { id: usize, dept: u8 },
    Rename { id: usize, new_id: usize },
    /// Adds one value to `n` (a no-op when present).
    AddN { id: usize, n: usize },
    /// Deletes one value of `n` (fails when absent).
    DropN { id: usize, n: usize },
    /// Replaces every value of `n` in one modify, so an integer can change
    /// spelling while the entry's last text key of the attribute goes.
    SetN { id: usize, values: Vec<usize> },
    /// Serde round trip: ids, free list and index are rebuilt.
    Reload,
}

/// One op over the person ids `0..people`.
fn op(people: usize) -> impl Strategy<Value = Op> {
    let n = || 0..SPELLINGS.len();
    let id = move || 0..people;
    prop_oneof![
        (id(), 0u8..5, 0u16..1000, n())
            .prop_map(|(id, dept, serial, n)| Op::Add { id, dept, serial, n }),
        (id(), 0u8..5, 0u16..1000, n())
            .prop_map(|(id, dept, serial, n)| Op::Add { id, dept, serial, n }),
        id().prop_map(|id| Op::Delete { id }),
        (id(), 0u8..5).prop_map(|(id, dept)| Op::SetDept { id, dept }),
        (id(), id()).prop_map(|(id, new_id)| Op::Rename { id, new_id }),
        (id(), n()).prop_map(|(id, n)| Op::AddN { id, n }),
        (id(), n()).prop_map(|(id, n)| Op::DropN { id, n }),
        (id(), prop::collection::vec(n(), 0..3)).prop_map(|(id, values)| Op::SetN { id, values }),
        // Spellings of 500 only (the first three): often nothing but the
        // spelling moves.
        (id(), prop::collection::vec(0usize..3, 1..3)).prop_map(|(id, values)| Op::SetN { id, values }),
        Just(Op::Reload),
    ]
}

/// Up to `len` ops over a population of 1 to 16 people, every other time
/// of one or two: there an entry is often the only carrier of an attribute.
fn ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop_oneof![1usize..=2, 1usize..=16]
        .prop_flat_map(move |people| prop::collection::vec(op(people), 0..len))
}

fn dn_of(id: usize) -> Dn {
    format!("cn=p{id},o=xyz").parse().expect("valid dn")
}

fn fresh() -> DitStore {
    let mut d = DitStore::new();
    d.add_suffix("o=xyz".parse().expect("valid dn"));
    d.add(Entry::new("o=xyz".parse().expect("valid dn"))).expect("add root");
    d
}

fn reload(d: &DitStore) -> DitStore {
    let json = serde_json::to_string(d).expect("store serializes");
    serde_json::from_str(&json).expect("store deserializes")
}

/// Applies one op; the record, when the store accepted an update.
fn apply(d: &mut DitStore, op: &Op) -> Option<ChangeRecord> {
    let modify = |dn, m| UpdateOp::Modify { dn, mods: vec![m] };
    let n_value = |n: &usize| vec![SPELLINGS[*n].into()];
    let applied = match op {
        Op::Add { id, dept, serial, n } => d.apply(UpdateOp::Add(
            Entry::new(dn_of(*id))
                .with("objectclass", "person")
                .with("cn", &format!("p{id}"))
                .with("dept", &dept.to_string())
                .with("serialNumber", &format!("{serial:06}"))
                .with("n", SPELLINGS[*n]),
        )),
        Op::Delete { id } => d.apply(UpdateOp::Delete(dn_of(*id))),
        Op::SetDept { id, dept } => d.apply(modify(
            dn_of(*id),
            Modification::Replace("dept".into(), vec![dept.to_string().into()]),
        )),
        Op::Rename { id, new_id } => d.apply(UpdateOp::ModifyDn {
            dn: dn_of(*id),
            new_rdn: Rdn::new("cn", format!("p{new_id}")),
            new_superior: None,
        }),
        Op::AddN { id, n } => {
            d.apply(modify(dn_of(*id), Modification::AddValues("n".into(), n_value(n))))
        }
        Op::DropN { id, n } => {
            d.apply(modify(dn_of(*id), Modification::DeleteValues("n".into(), n_value(n))))
        }
        Op::SetN { id, values } => d.apply(modify(
            dn_of(*id),
            Modification::Replace("n".into(), values.iter().map(|&n| SPELLINGS[n].into()).collect()),
        )),
        Op::Reload => {
            *d = reload(d);
            return None;
        }
    };
    applied.ok()
}

fn subtree(filter: &str) -> SearchRequest {
    SearchRequest::new(
        "o=xyz".parse().expect("valid dn"),
        Scope::Subtree,
        Filter::parse(filter).expect("valid filter"),
    )
}

/// A search region: the suffix, the root, an entry below the suffix, or a
/// base outside it, under each of the three scopes.
fn region() -> impl Strategy<Value = (Dn, Scope)> {
    let base = prop_oneof![
        Just("o=xyz".to_owned()),
        Just(String::new()),
        prop_oneof![Just(0), Just(1), Just(12), Just(3)].prop_map(|id| format!("cn=p{id},o=xyz")),
        Just("cn=p1,o=elsewhere".to_owned()),
    ];
    let scope = prop_oneof![Just(Scope::Base), Just(Scope::OneLevel), Just(Scope::Subtree)];
    (base, scope).prop_map(|(base, scope)| (base.parse().expect("valid dn"), scope))
}

/// [`queries`] as they are — subtree searches of the suffix, which the
/// index plans — and then their filters over another region.
fn queries_and((base, scope): &(Dn, Scope)) -> Vec<SearchRequest> {
    let rebased = |q: SearchRequest| SearchRequest::new(base.clone(), *scope, q.filter().clone());
    queries().into_iter().chain(queries().into_iter().map(rebased)).collect()
}

fn queries() -> Vec<SearchRequest> {
    let filters = [
        "(objectclass=person)",
        "(dept=2)",
        "(serialNumber=0001*)",
        "(serialNumber>=500)",
        "(serialNumber<=300)",
        "(|(dept=1)(dept=3))",
        "(&(objectclass=person)(!(dept=0)))",
        "(cn=p1*)",
        "(cn>=p1)",
        "(cn<=p12)",
        "(&(cn>=p1)(cn<=p5))",
        // Integer bounds: every spelling of the bound, against every
        // spelling of the value and against non-integers.
        "(n>=500)",
        "(n<=500)",
        "(n>=0500)",
        "(n<=+500)",
        "(n>=501)",
        "(n<=-3)",
        "(&(n>=499)(n<=501))",
        "(&(n>=500)(n<=500))",
        // String bounds see integers as text.
        "(n>=5a)",
        "(n<=5oo)",
        "(n<=abc)",
        // Equality and prefix stay textual.
        "(n=500)",
        "(n=+500)",
        "(n=5*)",
        // An unplannable branch makes the whole `Or` scan.
        "(|(dept=1)(n=*0))",
        "(|(dept=1)(!(dept=2)))",
        "(|(dept=4)(n=*))",
        // Presence never plans: alone it scans, in an `And` the other
        // conjuncts bound it.
        "(n=*)",
        "(ghost=*)",
        "(&(n=*)(dept=2))",
        "(&(dept=*)(n>=500)(!(n=abc)))",
        // More than an `initial`: the prefix bounds the scan (`p1` lists
        // `p13`, `p102`), the rest is verified — alone, beside an exact
        // conjunct, and as one branch of an `Or`.
        "(cn=p1*2)",
        "(serialNumber=0*1*)",
        "(&(dept=2)(cn=p*0))",
        "(|(dept=1)(cn=p1*2))",
    ];
    filters.iter().map(|f| subtree(f)).collect()
}

/// The reference the index is checked against: it evaluates the request
/// on every entry, and must never take the exact-plan shortcut.
fn brute_force(d: &DitStore, req: &SearchRequest) -> Vec<Dn> {
    d.iter().filter(|e| req.matches(e)).map(|e| e.dn().clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Indexed search results equal a brute-force scan — same entries,
    /// same (hierarchical) order — after any op mix, reloads included, at
    /// the suffix and in a drawn region.
    #[test]
    fn search_equals_brute_force(ops in ops(60), region in region()) {
        let mut d = fresh();
        for o in &ops {
            apply(&mut d, o);
        }
        for req in queries_and(&region) {
            prop_assert_eq!(d.search_dns(&req), brute_force(&d, &req), "index/scan mismatch for {}", req);
        }
    }

    /// Streaming visits exactly the brute-force matches, each once.
    #[test]
    fn for_each_match_is_exact(ops in ops(60), region in region()) {
        let mut d = fresh();
        for o in &ops {
            apply(&mut d, o);
        }
        for req in queries_and(&region) {
            let mut got: Vec<Dn> = Vec::new();
            d.for_each_match(&req, |e| got.push(e.dn().clone()));
            got.sort();
            let mut want = brute_force(&d, &req);
            want.sort();
            prop_assert_eq!(got, want, "stream mismatch for {}", req);
        }
    }

    /// An id freed by a delete and handed to the next add answers for the
    /// new entry only: nothing of the old entry's postings comes back.
    #[test]
    fn a_recycled_id_does_not_resurrect_its_old_postings(
        ops in ops(40),
        victim in 0usize..16,
        reload_between in any::<bool>(),
    ) {
        let mut d = fresh();
        for o in &ops {
            apply(&mut d, o);
        }
        // Make sure the victim exists, carrying values nothing else has.
        let _ = d.delete(&dn_of(victim));
        d.add(
            Entry::new(dn_of(victim))
                .with("objectclass", "person")
                .with("cn", "victim")
                .with("dept", "77")
                .with("n", "7700")
                .with("n", "old"),
        )
        .expect("victim's DN is free");
        d.delete(&dn_of(victim)).expect("victim is a leaf");
        if reload_between {
            d = reload(&d);
        }
        // The next add takes the freed id.
        let heir: Dn = "cn=heir,o=xyz".parse().expect("valid dn");
        d.add(
            Entry::new(heir.clone())
                .with("objectclass", "person")
                .with("cn", "heir")
                .with("dept", "78")
                .with("n", "7800"),
        )
        .expect("heir's DN is free");
        for f in ["(dept=77)", "(n=7700)", "(n=old)", "(&(n>=7700)(n<=7700))", "(n=ol*)", "(cn=victim)"] {
            prop_assert_eq!(d.search_dns(&subtree(f)), Vec::<Dn>::new(), "{}", f);
        }
        for f in ["(dept=78)", "(n=7800)", "(&(n>=7701)(n<=7800))", "(cn=heir)"] {
            prop_assert_eq!(d.search_dns(&subtree(f)), vec![heir.clone()], "{}", f);
        }
        for req in queries() {
            prop_assert_eq!(d.search_dns(&req), brute_force(&d, &req), "{}", req);
        }
    }

    /// A renamed entry answers under its new DN and naming value only, and
    /// every other value keeps answering — the entry kept its id.
    #[test]
    fn a_rename_answers_under_the_new_dn_only(
        ops in ops(40),
        from in 0usize..16,
        reload_after in any::<bool>(),
    ) {
        let mut d = fresh();
        for o in &ops {
            apply(&mut d, o);
        }
        let _ = d.delete(&dn_of(from));
        d.add(
            Entry::new(dn_of(from))
                .with("objectclass", "person")
                .with("cn", &format!("p{from}"))
                .with("dept", "88")
                .with("n", "0880"),
        )
        .expect("source DN is free");
        let to: Dn = "cn=moved,o=xyz".parse().expect("valid dn");
        d.modify_dn(&dn_of(from), Rdn::new("cn", "moved"), None).expect("rename");
        if reload_after {
            d = reload(&d);
        }
        prop_assert!(d.get(&dn_of(from)).is_none());
        prop_assert_eq!(d.get(&to).map(|e| e.dn()), Some(&to));
        prop_assert_eq!(d.search_dns(&subtree(&format!("(cn=p{from})"))), Vec::<Dn>::new());
        for f in ["(cn=moved)", "(cn=mov*)", "(dept=88)", "(&(n>=880)(n<=880))", "(&(dept=88)(cn=*))"] {
            prop_assert_eq!(d.search_dns(&subtree(f)), vec![to.clone()], "{}", f);
        }
        for req in queries() {
            prop_assert_eq!(d.search_dns(&req), brute_force(&d, &req), "{}", req);
        }
    }

    /// Point lookups (the identity map) and tree walks (the order map)
    /// name the same entries after every op — recycled ids, renames,
    /// reloads — whichever way a DN is spelled: each walked entry is the
    /// one a lookup of its name returns, and no other name resolves.
    #[test]
    fn lookups_agree_with_the_tree_walk(ops in ops(60)) {
        let mut d = fresh();
        for o in &ops {
            apply(&mut d, o);
            let walked: Vec<&Entry> = d.iter().collect();
            prop_assert_eq!(walked.len(), d.len());
            for e in &walked {
                let shouted: Dn = e.dn().to_string().to_uppercase().parse().expect("valid dn");
                for name in [e.dn(), &shouted] {
                    prop_assert!(d.contains(name), "{} after {:?}", name, o);
                    prop_assert!(d.get(name).is_some_and(|got| std::ptr::eq(got, *e)), "{} after {:?}", name, o);
                }
            }
            for id in 0..16 {
                let listed = walked.iter().any(|e| e.dn() == &dn_of(id));
                prop_assert_eq!(d.contains(&dn_of(id)), listed, "p{} after {:?}", id, o);
            }
        }
    }

    /// A history fed what `apply` returns is a changelog: CSNs increase
    /// strictly, one per accepted update up to the store's own counter, and
    /// deletes leave tombstones with matching CSNs.
    #[test]
    fn changelog_csn_monotone(ops in ops(60)) {
        let mut d = fresh();
        let born = d.csn();
        let mut h = History::new();
        for o in &ops {
            if let Some(rec) = apply(&mut d, o) {
                prop_assert_eq!(rec.csn, d.csn());
                h.record(rec);
            }
        }
        let mut last = born;
        for rec in h.since(Csn::ZERO) {
            prop_assert_eq!(rec.csn, last.next());
            last = rec.csn;
        }
        prop_assert_eq!(last, d.csn());
        let delete_csns: Vec<_> = h
            .since(Csn::ZERO)
            .iter()
            .filter(|r| r.kind == ChangeKind::Delete)
            .map(|r| r.csn)
            .collect();
        let tombstone_csns: Vec<_> = h.tombstones_since(Csn::ZERO).iter().map(|t| t.csn).collect();
        prop_assert_eq!(delete_csns, tombstone_csns);
    }

    /// `diff_entries(old, new)` applied to `old` yields exactly `new`,
    /// down to how each value is spelt.
    #[test]
    fn diff_entries_round_trip(
        old_attrs in prop::collection::vec(("[a-d]", prop::collection::vec("[0-9a-bA-B]{1,3}", 1..3)), 0..4),
        new_attrs in prop::collection::vec(("[a-d]", prop::collection::vec("[0-9a-bA-B]{1,3}", 1..3)), 0..4),
    ) {
        let spelt = |e: &Entry| -> Vec<String> { e.attrs().flat_map(|(_, vs)| vs).map(|v| v.raw().to_owned()).collect() };
        let mut d = fresh();
        let dn: Dn = "cn=t,o=xyz".parse().expect("dn");
        let mut old = Entry::new(dn.clone());
        for (a, vs) in &old_attrs {
            for v in vs {
                old.add(a.as_str(), v.as_str());
            }
        }
        let mut new = Entry::new(dn.clone());
        for (a, vs) in &new_attrs {
            for v in vs {
                new.add(a.as_str(), v.as_str());
            }
        }
        d.add(old.clone()).expect("add");
        let mods = diff_entries(&old, &new);
        if mods.is_empty() {
            prop_assert_eq!(&old, &new);
            prop_assert_eq!(spelt(&old), spelt(&new));
        } else {
            d.modify(&dn, mods).expect("diff mods are valid");
            let stored = d.get(&dn).expect("entry exists");
            prop_assert_eq!(stored, &new);
            prop_assert_eq!(spelt(stored), spelt(&new));
        }
    }

    /// Parent links stay intact: every entry except suffixes has a parent.
    #[test]
    fn tree_structure_invariant(ops in ops(60)) {
        let mut d = fresh();
        for o in &ops {
            apply(&mut d, o);
        }
        let suffix: Dn = "o=xyz".parse().expect("valid dn");
        for e in d.iter() {
            if e.dn() != &suffix {
                let p = e.dn().parent().expect("non-suffix entries have parents");
                prop_assert!(d.contains(&p), "orphan entry {}", e.dn());
            }
        }
    }
}
