//! What routing saves and what it keeps: `SyncMaster::apply` evaluates
//! only the sessions the routing index names, so the sessions evaluated
//! per update follow the sessions an update affects, a modify probes only
//! the keyed attributes it names, and the index tracks the session
//! lifecycle exactly. That routing misses no session is checked against
//! the reference model (`tests/model.rs` at the workspace root).

use fbdr_dit::{Modification, UpdateOp};
use fbdr_ldap::{Dn, Entry, Filter, Rdn, Scope, SearchRequest};
use fbdr_resync::{ReSyncControl, ReplicaContent, SyncMaster};

/// Modifications of person entries that the probe counts below name.
#[derive(Debug, Clone)]
enum Op {
    Mail { id: usize, tag: u8 },
    /// No session keys on `title`.
    Title { id: usize, tag: u8 },
    /// One modify of an unkeyed and a keyed attribute: `title` sorts
    /// after `dept`, `businessCategory` before it.
    TitleAndDept { id: usize, tag: u8, dept: u8 },
    CategoryAndDept { id: usize, tag: u8, dept: u8 },
}

fn dn_of(id: usize) -> Dn {
    format!("cn=p{id},o=xyz").parse().expect("valid dn")
}

fn entry_of(id: usize, dept: u8) -> Entry {
    Entry::new(dn_of(id))
        .with("objectclass", "person")
        .with("cn", &format!("p{id}"))
        .with("dept", &dept.to_string())
}

fn fresh_master() -> SyncMaster {
    let mut m = SyncMaster::new();
    m.dit_mut().add_suffix("o=xyz".parse().expect("valid dn"));
    m.dit_mut().add(Entry::new("o=xyz".parse().expect("valid dn"))).expect("suffix add");
    m
}

fn modify(id: usize, mods: Vec<Modification>) -> UpdateOp {
    UpdateOp::Modify { dn: dn_of(id), mods }
}

fn to_update(op: &Op) -> UpdateOp {
    let title = |tag: &u8| Modification::Replace("title".into(), vec![format!("t{tag}").into()]);
    let dept = |dept: &u8| vec![dept.to_string().into()];
    match op {
        Op::Mail { id, tag } => {
            modify(*id, vec![Modification::Replace("mail".into(), vec![format!("m{tag}@x").into()])])
        }
        Op::Title { id, tag } => modify(*id, vec![title(tag)]),
        Op::TitleAndDept { id, tag, dept: d } => {
            modify(*id, vec![title(tag), Modification::Replace("dept".into(), dept(d))])
        }
        Op::CategoryAndDept { id, tag, dept: d } => {
            let category = vec![format!("c{tag}").into()];
            modify(
                *id,
                vec![
                    Modification::Replace("dept".into(), dept(d)),
                    Modification::Replace("businessCategory".into(), category),
                ],
            )
        }
    }
}

/// A mix of indexable (equality, prefix, presence, Or-union, And) and
/// residual (Not, range) session filters — every routing-plan shape the
/// index distinguishes.
const SESSION_FILTERS: &[&str] = &[
    "(dept=1)",
    "(dept=2)",
    "(&(objectclass=person)(dept=0))",
    "(|(dept=1)(dept=3))",
    "(cn=p1*)",
    "(mail=*)",
    "(!(dept=1))",
    "(dept>=2)",
];

fn session_request(filter_idx: usize) -> SearchRequest {
    SearchRequest::new(
        "o=xyz".parse().expect("valid dn"),
        Scope::Subtree,
        Filter::parse(SESSION_FILTERS[filter_idx % SESSION_FILTERS.len()]).expect("valid filter"),
    )
}

// ---------------------------------------------------------------------
// What routing saves: evaluations per update
// ---------------------------------------------------------------------

/// A replica fleet as sessions: `sessions` department slices plus two
/// residual `(!(mail=*))` sessions; every update moves one person to the
/// next department, so exactly two slices are affected. Checks that every
/// session's polled content is the master's answer for it, and returns
/// `(ops that reached sessions through posting keys, ops that dragged in
/// the residual scan-list, sessions evaluated, sessions registered)`,
/// each per update.
fn dept_move_evaluations(sessions: usize) -> [u64; 4] {
    const PEOPLE: usize = 64;
    const UPDATES: usize = 128;
    let mut m = fresh_master();
    for i in 0..PEOPLE {
        let person = Entry::new(dn_of(i))
            .with("objectclass", "person")
            .with("dept", &(i % sessions).to_string())
            .with("mail", &format!("u{i}@xyz.com"));
        m.dit_mut().add(person).expect("person");
    }
    let filters = (0..sessions)
        .map(|s| format!("(dept={s})"))
        .chain(["(!(mail=*))".to_owned(), "(!(mail=*))".to_owned()]);
    let mut held = Vec::new();
    for f in filters {
        let req = SearchRequest::new(
            "o=xyz".parse().expect("valid dn"),
            Scope::Subtree,
            Filter::parse(&f).expect("valid filter"),
        );
        let resp = m.resync(&req, ReSyncControl::poll(None)).expect("install");
        let mut content = ReplicaContent::new();
        content.apply_all(&resp.actions);
        held.push((req, resp.cookie.expect("cookie"), content));
    }
    let obs = fbdr_obs::Obs::new();
    m.set_obs(obs.clone());
    for k in 0..UPDATES {
        let (i, pass) = (k % PEOPLE, k / PEOPLE + 1);
        let op = UpdateOp::Modify {
            dn: dn_of(i),
            mods: vec![Modification::Replace(
                "dept".into(),
                vec![((i + pass) % sessions).to_string().into()],
            )],
        };
        m.apply(op).expect("apply");
    }
    for (req, cookie, content) in &mut held {
        let resp = m.resync(req, ReSyncControl::poll(Some(*cookie))).expect("drain");
        content.apply_all(&resp.actions);
        let mut want = m.dit().search(req);
        want.sort_by(|a, b| a.dn().cmp(b.dn()));
        assert_eq!(content.iter().collect::<Vec<_>>(), want.iter().collect::<Vec<_>>(), "{req}");
    }
    let reg = obs.registry();
    let per_update = |n: u64| {
        assert_eq!(n % UPDATES as u64, 0);
        n / UPDATES as u64
    };
    [
        per_update(reg.counter("fbdr_resync_route_indexed_total").get()),
        per_update(reg.counter("fbdr_resync_route_scan_total").get()),
        per_update(reg.histogram("fbdr_resync_route_candidates").snapshot().sum),
        // Evaluating every live session is what an unrouted fan-out costs.
        m.session_count() as u64,
    ]
}

#[test]
fn evaluations_per_update_follow_affected_sessions_not_registered_ones() {
    let (few, many) = (dept_move_evaluations(8), dept_move_evaluations(96));
    println!("[indexed, scan, routed evaluations, registered sessions] per update: {few:?} at 8 sessions, {many:?} at 96");
    // Departure + arrival, plus the two residual sessions every update
    // under their base must be shown to.
    assert_eq!(few[..3], [1, 1, 2 + 2]);
    assert_eq!(few[..3], many[..3], "routed work depends on the number of sessions");
    assert_eq!([few[3], many[3]], [8 + 2, 96 + 2]);
}

/// The probes one update's routing took, by the
/// `fbdr_resync_route_probes_total` counter.
fn probes_of(m: &mut SyncMaster, obs: &fbdr_obs::Obs, op: UpdateOp) -> u64 {
    let probes = obs.registry().counter("fbdr_resync_route_probes_total");
    let before = probes.get();
    m.apply(op).expect("apply");
    probes.get() - before
}

/// The new state of a modified entry is looked up on the attributes the
/// modification names, and only those the index keys on: with sessions
/// keyed on `dept` alone, the old state of person 0 costs one probe (its
/// one `dept` value) and the new state one per new `dept` value.
#[test]
fn a_modify_probes_the_new_values_of_its_keyed_attributes() {
    let mut m = seeded_master();
    for dept in 0..3 {
        let req = SearchRequest::new(
            "o=xyz".parse().expect("valid dn"),
            Scope::Subtree,
            Filter::parse(&format!("(dept={dept})")).expect("valid filter"),
        );
        m.resync(&req, ReSyncControl::poll(None)).expect("install");
    }
    // Unobserved, nothing is counted.
    let obs = fbdr_obs::Obs::new();
    let _ = probes_of(&mut m, &obs, to_update(&Op::Title { id: 0, tag: 1 }));
    assert_eq!(obs.registry().counter("fbdr_resync_route_probes_total").get(), 0);
    m.set_obs(obs.clone());
    // An unkeyed attribute: the old state's one dept value, no new value.
    assert_eq!(probes_of(&mut m, &obs, to_update(&Op::Title { id: 0, tag: 2 })), 1);
    assert_eq!(probes_of(&mut m, &obs, to_update(&Op::Mail { id: 0, tag: 2 })), 1);
    // A keyed one: the old value, then exactly the new values.
    let two_depts =
        modify(0, vec![Modification::Replace("dept".into(), vec!["1".into(), "2".into()])]);
    assert_eq!(probes_of(&mut m, &obs, two_depts), 1 + 2);
    let keyed_and_not = to_update(&Op::TitleAndDept { id: 0, tag: 3, dept: 0 });
    assert_eq!(probes_of(&mut m, &obs, keyed_and_not), 2 + 1);
    let not_and_keyed = to_update(&Op::CategoryAndDept { id: 0, tag: 3, dept: 1 });
    assert_eq!(probes_of(&mut m, &obs, not_and_keyed), 1 + 1);
    // Gone from the new state: the old value alone.
    let dropped = modify(0, vec![Modification::DeleteAttr("dept".into())]);
    assert_eq!(probes_of(&mut m, &obs, dropped), 1);
    m.debug_validate_routing();
}

// ---------------------------------------------------------------------
// Routing-index maintenance across the session lifecycle
// ---------------------------------------------------------------------

fn seeded_master() -> SyncMaster {
    let mut m = fresh_master();
    for i in 0..6 {
        m.dit_mut().add(entry_of(i, (i % 4) as u8)).unwrap();
    }
    m
}

#[test]
fn start_session_registers_and_sync_end_removes() {
    let mut m = seeded_master();
    let req = session_request(0);
    let c = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
    assert_eq!(m.routing_stats().sessions, 1);
    assert_eq!(m.routing_stats().indexed, 1);
    m.debug_validate_routing();

    m.resync(&req, ReSyncControl::sync_end(c)).unwrap();
    assert_eq!(m.routing_stats().sessions, 0);
    assert_eq!(m.routing_stats().keys, 0);
    m.debug_validate_routing();
}

#[test]
fn abandon_removes_index_entries() {
    let mut m = seeded_master();
    let residual = session_request(6); // (!(dept=1)) → scan-list
    let indexed = session_request(1);
    let c_res = m.resync(&residual, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
    let _c_idx = m.resync(&indexed, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
    let s = m.routing_stats();
    assert_eq!((s.sessions, s.indexed, s.residual), (2, 1, 1));

    m.abandon(c_res);
    let s = m.routing_stats();
    assert_eq!((s.sessions, s.indexed, s.residual), (1, 1, 0));
    m.debug_validate_routing();
    // Abandoning an already-dead cookie is a no-op.
    m.abandon(c_res);
    assert_eq!(m.routing_stats().sessions, 1);
}

#[test]
fn expire_idle_leaves_no_stale_posting_ids() {
    let mut m = seeded_master();
    for i in 0..4 {
        let req = session_request(i);
        m.resync(&req, ReSyncControl::poll(None)).unwrap();
    }
    assert_eq!(m.routing_stats().sessions, 4);
    for i in 10..15 {
        m.apply(UpdateOp::Add(entry_of(i, 1))).unwrap();
    }
    assert_eq!(m.expire_idle(2), 4);
    assert_eq!(m.session_count(), 0);
    let s = m.routing_stats();
    assert_eq!(s.sessions, 0);
    assert_eq!(s.keys + s.residual, 0);
    m.debug_validate_routing();
}

#[test]
fn routing_index_rebuilds_after_serde_round_trip() {
    let mut m = seeded_master();
    let req = session_request(0); // (dept=1)
    let c = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();

    let json = serde_json::to_string(&m).unwrap();
    let mut restored: SyncMaster = serde_json::from_str(&json).unwrap();
    // The index is not serialized; the first routed apply rebuilds it and
    // still reaches the session.
    restored.apply(UpdateOp::Add(entry_of(20, 1))).unwrap();
    assert_eq!(restored.routing_stats().sessions, 1);
    restored.debug_validate_routing();
    let resp = restored.resync(&req, ReSyncControl::poll(Some(c))).unwrap();
    assert_eq!(resp.actions.len(), 1, "rebuilt index routed the add");
}

#[test]
fn never_sent_arrival_departing_is_silent_under_routing() {
    // The history-precision property the paper's §5 design guarantees,
    // exercised through the routed path with a rename in the middle.
    let mut m = fresh_master();
    let req = session_request(0); // (dept=1)
    let c = m.resync(&req, ReSyncControl::poll(None)).unwrap().cookie.unwrap();
    m.apply(UpdateOp::Add(entry_of(3, 1))).unwrap();
    m.apply(UpdateOp::ModifyDn {
        dn: dn_of(3),
        new_rdn: Rdn::new("cn", "p4"),
        new_superior: None,
    })
    .unwrap();
    m.apply(UpdateOp::Delete(dn_of(4))).unwrap();
    let resp = m.resync(&req, ReSyncControl::poll(Some(c))).unwrap();
    assert!(
        resp.actions.is_empty(),
        "entered, renamed and left between polls — replica must hear nothing, got {:?}",
        resp.actions
    );
}
