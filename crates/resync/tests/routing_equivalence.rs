//! Routed fan-out equivalence: `SyncMaster::apply` (candidate routing via
//! the session routing index) must be observably identical to
//! `SyncMaster::apply_naive` (every session evaluated against every
//! update) — same drained actions per session, same converged content —
//! and the routing index must track the session lifecycle exactly.

use fbdr_dit::{Modification, UpdateOp};
use fbdr_ldap::{Dn, Entry, Filter, Rdn, Scope, SearchRequest};
use fbdr_resync::{Cookie, ReSyncControl, ReplicaContent, SyncMaster};
use proptest::prelude::*;

/// An abstract operation against a pool of person entries.
#[derive(Debug, Clone)]
enum Op {
    Add { id: usize, dept: u8 },
    Delete { id: usize },
    SetDept { id: usize, dept: u8 },
    SetMail { id: usize, tag: u8 },
    Rename { id: usize, new_id: usize },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..12, 0u8..4).prop_map(|(id, dept)| Op::Add { id, dept }),
        (0usize..12).prop_map(|id| Op::Delete { id }),
        (0usize..12, 0u8..4).prop_map(|(id, dept)| Op::SetDept { id, dept }),
        (0usize..12, 0u8..4).prop_map(|(id, tag)| Op::SetMail { id, tag }),
        (0usize..12, 0usize..12).prop_map(|(id, new_id)| Op::Rename { id, new_id }),
    ]
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

fn to_update(op: &Op) -> UpdateOp {
    match op {
        Op::Add { id, dept } => UpdateOp::Add(entry_of(*id, *dept)),
        Op::Delete { id } => UpdateOp::Delete(dn_of(*id)),
        Op::SetDept { id, dept } => UpdateOp::Modify {
            dn: dn_of(*id),
            mods: vec![Modification::Replace("dept".into(), vec![dept.to_string().into()])],
        },
        Op::SetMail { id, tag } => UpdateOp::Modify {
            dn: dn_of(*id),
            mods: vec![Modification::Replace("mail".into(), vec![format!("m{tag}@x").into()])],
        },
        Op::Rename { id, new_id } => UpdateOp::ModifyDn {
            dn: dn_of(*id),
            new_rdn: Rdn::new("cn", format!("p{new_id}")),
            new_superior: None,
        },
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Identical op streams through the routed path and the naive
    /// all-sessions reference produce identical drained actions for every
    /// session at every poll boundary, and the same converged content.
    #[test]
    fn routed_equals_naive(
        ops in prop::collection::vec(op(), 1..60),
        n_sessions in 1usize..9,
        poll_every in 1usize..8,
    ) {
        let mut routed = fresh_master();
        let mut naive = fresh_master();
        let mut sessions: Vec<(SearchRequest, Cookie, Cookie, ReplicaContent, ReplicaContent)> =
            Vec::new();
        for i in 0..n_sessions {
            let req = session_request(i);
            let r = routed.resync(&req, ReSyncControl::poll(None)).expect("routed install");
            let n = naive.resync(&req, ReSyncControl::poll(None)).expect("naive install");
            prop_assert_eq!(&r.actions, &n.actions, "initial content differs for {}", &req);
            let mut rc = ReplicaContent::new();
            rc.apply_all(&r.actions);
            let mut nc = ReplicaContent::new();
            nc.apply_all(&n.actions);
            sessions.push((req, r.cookie.unwrap(), n.cookie.unwrap(), rc, nc));
        }
        routed.debug_validate_routing();

        for (i, o) in ops.iter().enumerate() {
            let _ = routed.apply(to_update(o));
            let _ = naive.apply_naive(to_update(o));
            if (i + 1) % poll_every == 0 {
                for (req, rc_cookie, nc_cookie, rc, nc) in &mut sessions {
                    let r = routed
                        .resync(req, ReSyncControl::poll(Some(*rc_cookie)))
                        .expect("routed poll");
                    let n = naive
                        .resync(req, ReSyncControl::poll(Some(*nc_cookie)))
                        .expect("naive poll");
                    prop_assert_eq!(
                        &r.actions, &n.actions,
                        "drained actions diverge for {} after op {}", &*req, i
                    );
                    *rc_cookie = r.cookie.unwrap();
                    *nc_cookie = n.cookie.unwrap();
                    rc.apply_all(&r.actions);
                    nc.apply_all(&n.actions);
                }
            }
        }
        for (req, rc_cookie, nc_cookie, rc, nc) in &mut sessions {
            let r = routed.resync(req, ReSyncControl::poll(Some(*rc_cookie))).expect("final");
            let n = naive.resync(req, ReSyncControl::poll(Some(*nc_cookie))).expect("final");
            prop_assert_eq!(&r.actions, &n.actions, "final drains diverge for {}", &*req);
            rc.apply_all(&r.actions);
            nc.apply_all(&n.actions);
            // Exact convergence: replica content equals the master answer,
            // entries included.
            let mut master_dns: Vec<String> =
                routed.dit().search_dns(req).iter().map(|d| d.to_string()).collect();
            master_dns.sort();
            prop_assert_eq!(rc.sorted_dns(), master_dns, "routed replica diverged for {}", &*req);
            for e in rc.iter() {
                let at_master = routed.dit().get(e.dn()).expect("entry exists at master");
                prop_assert_eq!(e, at_master, "entry content diverged");
            }
            prop_assert_eq!(rc.sorted_dns(), nc.sorted_dns());
        }
        routed.debug_validate_routing();
    }

    /// Persist-mode streams are identical too: the routed path must
    /// notify exactly the actions the naive path notifies, in order.
    #[test]
    fn routed_persist_stream_equals_naive(
        ops in prop::collection::vec(op(), 1..40),
        filter_idx in 0usize..8,
    ) {
        let mut routed = fresh_master();
        let mut naive = fresh_master();
        let req = session_request(filter_idx);
        let (r0, r_rx) = routed.resync_persist(&req, None).expect("routed persist");
        let (n0, n_rx) = naive.resync_persist(&req, None).expect("naive persist");
        prop_assert_eq!(&r0.actions, &n0.actions);
        for o in &ops {
            let _ = routed.apply(to_update(o));
            let _ = naive.apply_naive(to_update(o));
        }
        let routed_stream: Vec<_> = r_rx.try_iter().collect();
        let naive_stream: Vec<_> = n_rx.try_iter().collect();
        prop_assert_eq!(routed_stream, naive_stream, "persist notification streams diverge");
    }
}

// ---------------------------------------------------------------------
// What routing saves: evaluations per update
// ---------------------------------------------------------------------

/// A replica fleet as sessions: `sessions` department slices plus two
/// residual `(!(mail=*))` sessions; every update moves one person to the
/// next department, so exactly two slices are affected. Applies the same
/// stream routed and naive, checks every
/// session drains the same actions, and returns `(routed ops that reached
/// sessions through posting keys, routed ops that dragged in the residual
/// scan-list, sessions evaluated by the routed path, sessions evaluated by
/// the naive path)`, each per update.
fn dept_move_evaluations(sessions: usize) -> [u64; 4] {
    const PEOPLE: usize = 64;
    const UPDATES: usize = 128;
    let build = || {
        let mut m = fresh_master();
        for i in 0..PEOPLE {
            let person = Entry::new(dn_of(i))
                .with("objectclass", "person")
                .with("dept", &(i % sessions).to_string())
                .with("mail", &format!("u{i}@xyz.com"));
            m.dit_mut().add(person).expect("person");
        }
        let mut cookies = Vec::new();
        let filters = (0..sessions)
            .map(|s| format!("(dept={s})"))
            .chain(["(!(mail=*))".to_owned(), "(!(mail=*))".to_owned()]);
        for f in filters {
            let req = SearchRequest::new(
                "o=xyz".parse().expect("valid dn"),
                Scope::Subtree,
                Filter::parse(&f).expect("valid filter"),
            );
            let cookie = m.resync(&req, ReSyncControl::poll(None)).expect("install").cookie;
            cookies.push((req, cookie.expect("cookie")));
        }
        (m, cookies)
    };
    let (mut routed, routed_sessions) = build();
    let (mut naive, naive_sessions) = build();
    let obs = fbdr_obs::Obs::new();
    routed.set_obs(obs.clone());
    for k in 0..UPDATES {
        let (i, pass) = (k % PEOPLE, k / PEOPLE + 1);
        let op = UpdateOp::Modify {
            dn: dn_of(i),
            mods: vec![Modification::Replace(
                "dept".into(),
                vec![((i + pass) % sessions).to_string().into()],
            )],
        };
        routed.apply(op.clone()).expect("routed");
        naive.apply_naive(op).expect("naive");
    }
    for ((req, rc), (_, nc)) in routed_sessions.iter().zip(&naive_sessions) {
        let r = routed.resync(req, ReSyncControl::poll(Some(*rc))).expect("routed drain");
        let n = naive.resync(req, ReSyncControl::poll(Some(*nc))).expect("naive drain");
        assert_eq!(r.actions, n.actions, "drained actions diverge for {req}");
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
        // The naive path evaluates every live session, by construction.
        naive.session_count() as u64,
    ]
}

#[test]
fn evaluations_per_update_follow_affected_sessions_not_registered_ones() {
    let (few, many) = (dept_move_evaluations(8), dept_move_evaluations(96));
    println!("[indexed, scan, routed evaluations, naive evaluations] per update: {few:?} at 8 sessions, {many:?} at 96");
    // Departure + arrival, plus the two residual sessions every update
    // under their base must be shown to.
    assert_eq!(few[..3], [1, 1, 2 + 2]);
    assert_eq!(few[..3], many[..3], "routed work depends on the number of sessions");
    assert_eq!([few[3], many[3]], [8 + 2, 96 + 2]);
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
    assert_eq!(m.routing_stats().eq_keys, 0);
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
    assert_eq!(s.eq_keys + s.prefix_keys + s.present_keys + s.residual, 0);
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
