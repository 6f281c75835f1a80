//! One oracle. A seeded schedule generator draws updates, deliveries,
//! faults, installs and queries, and the system runs them beside
//! `fbdr-model`, the reference model of what the paper promises.
//!
//! - **The replica** (`every_configuration_answers_what_the_model_answers`).
//!   A real [`FilterReplica`] syncs through a [`FaultyLink`] from one
//!   [`SyncMaster`] (the one-shard deployment) or a 3-shard
//!   [`ShardedMaster`], each by poll, by persist with immediate notify, or
//!   by persist with coalescing notify.
//!   A query is a hit exactly when the model answers it, by the same
//!   stored filter or by a cached query. A window answer and a miss's
//!   master answer always equal the model's. At every quiescent point,
//!   each filter's content equals the model's and no deletion is lost,
//!   and a stored filter answers what the model answers.
//! - **The master's sessions**
//!   (`a_poll_brings_every_model_replica_to_its_content_after_every_step`).
//!   After every step, a poll on a copy of the master brings each
//!   session's replica, fed by every response that arrived and every
//!   persist batch, to the session's content. The history is exactly
//!   what the replica lacks.
//!
//! The vendored proptest does not shrink: a failure prints its seed and
//! its step list.

use crossbeam::channel::Receiver;
use fbdr_dit::{Modification, UpdateOp};
use fbdr_faults::{FaultPlan, FaultTarget, FaultyLink, SimClock};
use fbdr_ldap::{AttrSelection, Dn, Entry, Filter, Rdn, Scope, SearchRequest};
use fbdr_model::{multiset, Decision, ModelMaster, ModelReplica};
use fbdr_replica::FilterReplica;
use fbdr_resync::{
    Cookie, NotifyBatch, NotifyPolicy, ReSyncControl, ReplicaContent, RetryConfig,
    ShardCoordinator, ShardId, ShardMap, ShardedMaster, SyncError, SyncMaster,
};
use proptest::prelude::*;
use proptest::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

// ---------------------------------------------------------------------
// The directory: a suffix, three countries, a lab inside the first, and
// people in each of those four places
// ---------------------------------------------------------------------

const COUNTRIES: usize = 3;
const PLACES: usize = COUNTRIES + 1;
const PEOPLE: usize = 6;

fn dn(s: &str) -> Dn {
    s.parse().expect("valid dn")
}

fn suffix() -> Dn {
    dn("o=xyz")
}

fn country(c: usize) -> Dn {
    dn(&format!("c=s{c},o=xyz"))
}

fn lab() -> Dn {
    dn("ou=lab,c=s0,o=xyz")
}

/// A place people live in: a country, or the lab.
fn place(c: usize) -> Dn {
    if c < COUNTRIES {
        country(c)
    } else {
        lab()
    }
}

fn person_dn(c: usize, id: usize) -> Dn {
    dn(&format!("cn=p{id},{}", place(c)))
}

fn person(c: usize, id: usize, dept: u8) -> Entry {
    Entry::new(person_dn(c, id))
        .with("objectclass", "person")
        .with("cn", &format!("p{id}"))
        .with("dept", &dept.to_string())
}

/// The suffix, the countries and the lab, parents first, then two people
/// in each place.
fn seed_entries() -> Vec<Entry> {
    let skeleton = std::iter::once(Entry::new(suffix()).with("objectclass", "organization"))
        .chain((0..COUNTRIES).map(|c| Entry::new(country(c)).with("objectclass", "country")))
        .chain([Entry::new(lab()).with("objectclass", "organizationalUnit")]);
    let people =
        (0..PLACES).flat_map(|c| (0..2).map(move |id| person(c, id, ((c + id) % 4) as u8)));
    skeleton.chain(people).collect()
}

// ---------------------------------------------------------------------
// The schedule
// ---------------------------------------------------------------------

/// One modification of a person. `dept` is what sessions key on and may
/// hold several values; `mail` is keyed by presence; no session keys on
/// `title` or `businessCategory`, which sort after and before `dept`, so
/// a lookup that skips either end of a modify's named attributes misses
/// a `dept` move.
#[derive(Debug, Clone, Copy)]
enum Change {
    Dept(u8),
    Mail(u8),
    AddDept(u8),
    DropDept(u8),
    DropMail,
    Title(u8),
    TitleAndDept(u8, u8),
    CategoryAndDept(u8, u8),
}

impl Change {
    fn mods(self) -> Vec<Modification> {
        let dept = |d: u8| vec![d.to_string().into()];
        let title = |t: u8| Modification::Replace("title".into(), vec![format!("t{t}").into()]);
        match self {
            Change::Dept(d) => vec![Modification::Replace("dept".into(), dept(d))],
            Change::Mail(t) => {
                vec![Modification::Replace("mail".into(), vec![format!("m{t}@x").into()])]
            }
            Change::AddDept(d) => vec![Modification::AddValues("dept".into(), dept(d))],
            Change::DropDept(d) => vec![Modification::DeleteValues("dept".into(), dept(d))],
            Change::DropMail => vec![Modification::DeleteAttr("mail".into())],
            Change::Title(t) => vec![title(t)],
            Change::TitleAndDept(t, d) => {
                vec![title(t), Modification::Replace("dept".into(), dept(d))]
            }
            Change::CategoryAndDept(t, d) => vec![
                Modification::Replace("dept".into(), dept(d)),
                Modification::Replace("businessCategory".into(), vec![format!("c{t}").into()]),
            ],
        }
    }
}

/// A query drawn from the pools below, by position.
#[derive(Debug, Clone, Copy)]
struct Query {
    filter: usize,
    base: usize,
    scope: usize,
    attrs: usize,
}

#[derive(Debug, Clone)]
enum Step {
    // Updates, at the master and in the model.
    Add {
        c: usize,
        id: usize,
        dept: u8,
    },
    Delete {
        c: usize,
        id: usize,
    },
    Modify {
        c: usize,
        id: usize,
        change: Change,
    },
    Rename {
        c: usize,
        id: usize,
        new_id: usize,
    },
    // The master.
    /// Flushes the coalesced persist queues: all of them, or the due ones.
    Flush {
        force: bool,
    },
    /// Advances the master's notification clock.
    Tick {
        ms: u64,
    },
    ExpireIdle {
        max_idle: u64,
    },
    /// Writes the master to JSON and loads it back (a crash restart).
    Reload,
    /// The notify policy of the master's own sessions (a replica's is its
    /// configuration).
    Policy {
        coalesce: bool,
    },
    // The master's own sessions, driven by hand.
    /// Polls a session; `dup` sends the same cookie twice.
    Poll {
        s: usize,
        dup: bool,
    },
    /// Polls a session and loses the response: the session's replica and
    /// cookie stay as they were, so the next poll retries the cookie.
    Lost {
        s: usize,
    },
    SyncEnd {
        s: usize,
    },
    Abandon {
        s: usize,
    },
    /// (Re)installs a session, in persist mode or not.
    Start {
        s: usize,
        persist: bool,
    },
    // The replica.
    /// Installs the pool filter if it is not stored, removes it if it is.
    Toggle(usize),
    /// One sync cycle through the faulty link.
    Sync,
    Drain,
    /// Asks a query; a miss is answered by the master and, when `cache`,
    /// cached.
    Ask {
        q: Query,
        cache: bool,
    },
    /// Asks the last query again.
    AskAgain,
    /// A quiescent point: flush, drain and sync past the faults, then
    /// compare every filter's content with the model's.
    Settle,
}

fn step() -> impl Strategy<Value = Step> {
    let c = || 0..PLACES;
    let id = || 0..PEOPLE;
    let v = || 0u8..4;
    let change = prop_oneof![
        v().prop_map(Change::Dept),
        v().prop_map(Change::Mail),
        v().prop_map(Change::AddDept),
        v().prop_map(Change::DropDept),
        Just(Change::DropMail),
        v().prop_map(Change::Title),
        (v(), v()).prop_map(|(t, d)| Change::TitleAndDept(t, d)),
        (v(), v()).prop_map(|(t, d)| Change::CategoryAndDept(t, d)),
    ];
    let query = (0..QUERY_FILTERS.len(), 0..QUERY_BASES.len(), 0usize..3, 0..QUERY_ATTRS.len())
        .prop_map(|(filter, base, scope, attrs)| Query { filter, base, scope, attrs });
    prop_oneof![
        4 => (c(), id(), v()).prop_map(|(c, id, dept)| Step::Add { c, id, dept }),
        2 => (c(), id()).prop_map(|(c, id)| Step::Delete { c, id }),
        6 => (c(), id(), change).prop_map(|(c, id, change)| Step::Modify { c, id, change }),
        2 => (c(), id(), id()).prop_map(|(c, id, new_id)| Step::Rename { c, id, new_id }),
        2 => any::<bool>().prop_map(|force| Step::Flush { force }),
        1 => (1u64..8).prop_map(|ms| Step::Tick { ms }),
        1 => (0u64..6).prop_map(|max_idle| Step::ExpireIdle { max_idle }),
        1 => Just(Step::Reload),
        1 => any::<bool>().prop_map(|coalesce| Step::Policy { coalesce }),
        3 => (0usize..4, any::<bool>()).prop_map(|(s, dup)| Step::Poll { s, dup }),
        1 => (0usize..4).prop_map(|s| Step::Lost { s }),
        1 => (0usize..4).prop_map(|s| Step::SyncEnd { s }),
        1 => (0usize..4).prop_map(|s| Step::Abandon { s }),
        2 => (0usize..4, any::<bool>()).prop_map(|(s, persist)| Step::Start { s, persist }),
        4 => (0..STORED.len()).prop_map(Step::Toggle),
        3 => Just(Step::Sync),
        2 => Just(Step::Drain),
        8 => (query, any::<bool>()).prop_map(|(q, cache)| Step::Ask { q, cache }),
        1 => Just(Step::AskAgain),
        2 => Just(Step::Settle),
    ]
}

fn update(step: &Step) -> Option<UpdateOp> {
    Some(match *step {
        Step::Add { c, id, dept } => UpdateOp::Add(person(c, id, dept)),
        Step::Delete { c, id } => UpdateOp::Delete(person_dn(c, id)),
        Step::Modify { c, id, change } => {
            UpdateOp::Modify { dn: person_dn(c, id), mods: change.mods() }
        }
        Step::Rename { c, id, new_id } => UpdateOp::ModifyDn {
            dn: person_dn(c, id),
            new_rdn: Rdn::new("cn", format!("p{new_id}")),
            new_superior: None,
        },
        _ => return None,
    })
}

fn coalescing() -> NotifyPolicy {
    NotifyPolicy::coalescing(2, 5)
}

// ---------------------------------------------------------------------
// The master's own sessions
// ---------------------------------------------------------------------

/// Session `s`'s request. The last overlaps the first two, so a DN is
/// often in two contents; the others are disjoint, so a modify often moves
/// an entry from one session's content to another's within one apply.
fn session_request(s: usize) -> SearchRequest {
    let f = ["(dept=0)", "(dept=1)", "(dept=2)", "(|(dept=0)(dept=1))"][s];
    SearchRequest::new(suffix(), Scope::Subtree, Filter::parse(f).expect("valid filter"))
}

/// The master, one cookie per live session, the persist receivers held
/// open, and each session's replica.
struct Sessions {
    m: SyncMaster,
    cookies: Vec<Option<Cookie>>,
    rx: Vec<Option<Receiver<NotifyBatch>>>,
    held: Vec<ReplicaContent>,
}

impl Sessions {
    fn new(sessions: usize) -> Sessions {
        let mut w = Sessions {
            m: one_master(),
            cookies: vec![None; sessions],
            rx: (0..sessions).map(|_| None).collect(),
            held: vec![ReplicaContent::new(); sessions],
        };
        for s in 0..sessions {
            w.run(&Step::Start { s, persist: s % 2 == 0 });
        }
        w
    }

    /// Runs `step`; false when it is not the sessions' to run.
    fn run(&mut self, step: &Step) -> bool {
        let n = self.cookies.len();
        let m = &mut self.m;
        match *step {
            Step::Add { .. } | Step::Delete { .. } | Step::Modify { .. } | Step::Rename { .. } => {
                drop(m.apply(update(step).expect("an update")));
            }
            Step::Poll { s, dup } => {
                let s = s % n;
                let Some(c) = self.cookies[s] else {
                    return true;
                };
                let first = m.resync(&session_request(s), ReSyncControl::poll(Some(c)));
                if let Ok(r) = &first {
                    self.held[s].apply_all(&r.actions);
                }
                if dup {
                    let again = m.resync(&session_request(s), ReSyncControl::poll(Some(c)));
                    assert_eq!(
                        first.as_ref().map(|r| &r.actions),
                        again.as_ref().map(|r| &r.actions)
                    );
                    if let Ok(r) = &again {
                        self.held[s].apply_all(&r.actions);
                    }
                }
                // A session expired under it: the cookie is dead.
                self.cookies[s] = first.ok().and_then(|r| r.cookie);
            }
            Step::Lost { s } => {
                if let Some(c) = self.cookies[s % n] {
                    drop(m.resync(&session_request(s % n), ReSyncControl::poll(Some(c))));
                }
            }
            Step::Flush { force } => drop(m.flush_notifications(force)),
            Step::Tick { ms } => m.advance_to(m.now_ms() + ms),
            Step::Policy { coalesce } => {
                m.set_notify_policy(if coalesce { coalescing() } else { NotifyPolicy::immediate() })
            }
            Step::SyncEnd { s } => {
                if let Some(c) = self.cookies[s % n].take() {
                    drop(m.resync(&session_request(s % n), ReSyncControl::sync_end(c)));
                }
            }
            Step::Abandon { s } => {
                if let Some(c) = self.cookies[s % n].take() {
                    m.abandon(c);
                }
            }
            Step::ExpireIdle { max_idle } => drop(m.expire_idle(max_idle)),
            Step::Start { s, persist } => {
                let s = s % n;
                if let Some(c) = self.cookies[s].take() {
                    m.abandon(c);
                }
                let resp = if persist {
                    let (resp, rx) = m.resync_persist(&session_request(s), None).expect("install");
                    self.rx[s] = Some(rx);
                    resp
                } else {
                    self.rx[s] = None;
                    m.resync(&session_request(s), ReSyncControl::poll(None)).expect("install")
                };
                self.cookies[s] = resp.cookie;
                self.held[s] = ReplicaContent::new();
                self.held[s].apply_all(&resp.actions);
            }
            Step::Reload => {
                let json = serde_json::to_string(&*m).expect("serializes");
                *m = serde_json::from_str(&json).expect("its own snapshot loads");
            }
            _ => return false,
        }
        // Every persist batch reaches its replica in the order it was sent.
        for (rx, held) in self.rx.iter().zip(&mut self.held) {
            for batch in rx.iter().flat_map(Receiver::try_iter) {
                held.apply_all(&batch.actions);
            }
        }
        true
    }

    /// A poll on a copy of the master, applied to a copy of each live
    /// session's replica, gives the session's content: what the history
    /// holds is exactly what the replica lacks.
    fn a_poll_converges_every_session(&self) -> Result<(), TestCaseError> {
        let json = serde_json::to_string(&self.m).expect("serializes");
        let mut copy: SyncMaster = serde_json::from_str(&json).expect("its own snapshot loads");
        for (s, cookie) in self.cookies.iter().enumerate() {
            let Some(c) = *cookie else { continue };
            let actions = match copy.resync(&session_request(s), ReSyncControl::poll(Some(c))) {
                Ok(resp) => resp.actions,
                // Expired under it: the session and its history are gone.
                Err(SyncError::UnknownCookie(_)) => continue,
                Err(e) => return Err(TestCaseError::fail(format!("session {s}: {e:?}"))),
            };
            let mut held = self.held[s].clone();
            held.apply_all(&actions);
            let mut want = copy.dit().search(&session_request(s));
            want.sort_by(|a, b| a.dn().cmp(b.dn()));
            let got: Vec<&Entry> = held.iter().collect();
            prop_assert_eq!(got, want.iter().collect::<Vec<_>>(), "session {}", s);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn a_poll_brings_every_model_replica_to_its_content_after_every_step(
        sessions in 1usize..=4,
        steps in prop::collection::vec(step(), 1..120),
    ) {
        let mut w = Sessions::new(sessions);
        w.a_poll_converges_every_session()?;
        for (i, s) in steps.iter().enumerate() {
            if !w.run(s) {
                continue;
            }
            w.a_poll_converges_every_session().map_err(|e| TestCaseError::fail(format!("step {i} {s:?}: {e}")))?;
        }
        // Every session ends, and its history goes with it.
        for s in 0..sessions {
            w.run(&Step::Abandon { s });
        }
        prop_assert_eq!(w.m.memory_footprint().history_bytes, 0);
    }
}

/// A retry after flushes pushed what the lost response's arrival did
/// next: under a coalescing policy a persist session's poll carrying
/// `Add` X is lost, X is modified (a flush pushes `Modify` X) and leaves
/// (a flush pushes `Delete` X). The retry must not send X again: composed
/// from the two records it would be the lost `Add`, which is why the
/// master reads the retry off the live DIT.
#[test]
fn a_retry_after_a_flushed_departure_does_not_bring_it_back() {
    let mut w = Sessions::new(4);
    let (c, id) = (1, 5);
    for step in [
        Step::Start { s: 3, persist: true },
        Step::Policy { coalesce: true },
        Step::Add { c, id, dept: 0 },
        Step::Lost { s: 3 },
        Step::Modify { c, id, change: Change::Dept(1) },
        Step::Flush { force: true },
        Step::Modify { c, id, change: Change::Dept(2) },
        Step::Flush { force: true },
    ] {
        w.run(&step);
        w.a_poll_converges_every_session().unwrap_or_else(|e| panic!("{step:?}: {e}"));
    }
    assert!(
        !w.held[3].iter().any(|e| e.dn() == &person_dn(c, id)),
        "the flushes delivered the departure"
    );
    let cookie = w.cookies[3].expect("session 3 is live");
    let retry =
        w.m.resync(&session_request(3), ReSyncControl::poll(Some(cookie)))
            .expect("the retry is answered");
    assert_eq!(retry.actions, vec![fbdr_resync::SyncAction::Delete(person_dn(c, id))]);
}

// ---------------------------------------------------------------------
// The replica
// ---------------------------------------------------------------------

/// The filters a replica stores, `(base, filter)`: keyed by equality,
/// prefix, presence, `Or` and `And`; residual (`Not`, range); and the
/// first country's whole subtree, which spans its shard and the lab's.
const STORED: &[(&str, &str)] = &[
    ("o=xyz", "(dept=1)"),
    ("o=xyz", "(dept=2)"),
    ("o=xyz", "(&(objectclass=person)(dept=0))"),
    ("o=xyz", "(|(dept=1)(dept=3))"),
    ("o=xyz", "(cn=p1*)"),
    ("o=xyz", "(mail=*)"),
    ("o=xyz", "(!(dept=1))"),
    ("o=xyz", "(dept>=2)"),
    ("c=s0,o=xyz", "(objectclass=*)"),
];

/// Query filters: points and sub-filters of the stored ones, an inexact
/// plan (`Not` beside a key), and filters no stored one contains.
const QUERY_FILTERS: &[&str] = &[
    "(dept=0)",
    "(dept=1)",
    "(dept=2)",
    "(&(dept=1)(mail=*))",
    "(&(dept=1)(!(mail=*)))",
    "(cn=p1)",
    "(cn=p1*)",
    "(mail=m1@x)",
    "(dept>=3)",
    "(|(dept=1)(dept=3))",
    "(&(objectclass=person)(dept=0))",
    "(!(dept=1))",
    "(title=t1)",
    "(objectclass=*)",
];

/// Query bases: the root (no stored filter contains a query there, so
/// the window answers it), the suffix (glue on every shard), countries, the
/// lab and a person.
const QUERY_BASES: &[&str] = &[
    "",
    "",
    "o=xyz",
    "o=xyz",
    "c=s0,o=xyz",
    "c=s1,o=xyz",
    "ou=lab,c=s0,o=xyz",
    "cn=p1,c=s1,o=xyz",
];

const QUERY_ATTRS: &[&[&str]] = &[&[], &[], &["dept", "mail"], &["cn"]];

const SCOPES: [Scope; 3] = [Scope::Base, Scope::OneLevel, Scope::Subtree];

/// Cached queries a replica keeps: small, so the window turns over.
const WINDOW: usize = 3;

fn stored(i: usize) -> SearchRequest {
    let (base, filter) = STORED[i];
    SearchRequest::new(dn(base), Scope::Subtree, Filter::parse(filter).expect("valid filter"))
}

fn query(q: Query) -> SearchRequest {
    let attrs = match QUERY_ATTRS[q.attrs] {
        [] => AttrSelection::All,
        list => AttrSelection::list(list.iter().copied()),
    };
    let filter = Filter::parse(QUERY_FILTERS[q.filter]).expect("valid filter");
    SearchRequest::with_attrs(dn(QUERY_BASES[q.base]), SCOPES[q.scope], filter, attrs)
}

/// The master holding [`seed_entries`] as a `SyncMaster`.
fn one_master() -> SyncMaster {
    let mut m = SyncMaster::new();
    m.dit_mut().add_suffix(suffix());
    for e in seed_entries() {
        m.dit_mut().add(e).expect("seed entry");
    }
    m
}

/// The master holding [`seed_entries`], and the shard map a replica's
/// coordinator splits filters by: [`one_master`] as the one-shard
/// deployment, or three shards, country `c` on shard `c` and the lab on
/// the last. The suffix entry is glue on every shard, and the first
/// country's entry is glue on the last, at depth 2.
fn deployment(shards: usize) -> (ShardedMaster, ShardMap) {
    if shards == 1 {
        return (ShardedMaster::from(one_master()), ShardMap::single());
    }
    let shard = |c: usize| ShardId::new(c as u16);
    let mut map = ShardMap::new(ShardId::ZERO);
    for c in 0..COUNTRIES {
        map.assign(country(c), shard(c));
    }
    map.assign(lab(), shard(COUNTRIES - 1));
    let mut m = ShardedMaster::new(map.clone());
    for s in map.shards() {
        let dit = m.shard_mut(s).dit_mut();
        dit.add_suffix(suffix());
        dit.add(seed_entries()[0].clone()).expect("suffix entry");
    }
    let glue = seed_entries()[1].clone();
    m.shard_mut(shard(COUNTRIES - 1)).dit_mut().add(glue).expect("country glue");
    for e in &seed_entries()[1..] {
        m.apply(UpdateOp::Add(e.clone())).expect("seed entry");
    }
    (m, map)
}

/// How a replica's filters hear of updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delivery {
    Poll,
    PersistImmediate,
    PersistCoalescing,
}

/// Window and stored-filter hits, and how many of each answered other
/// than the master would have at that moment.
#[derive(Debug, Default, Clone, Copy)]
struct Staleness {
    window_hits: u64,
    window_stale: u64,
    filter_hits: u64,
    filter_stale: u64,
}

/// The replica, its master behind a faulty link, and the model of both.
struct Replicated {
    link: FaultyLink<ShardedMaster>,
    coordinator: ShardCoordinator,
    replica: FilterReplica,
    persist: bool,
    master: ModelMaster,
    model: ModelReplica,
    now_ms: u64,
    /// No update since the last quiescent point: every stored filter
    /// holds the master's answer.
    quiet: bool,
    last: Option<SearchRequest>,
    tally: Staleness,
}

impl Replicated {
    fn new(shards: usize, delivery: Delivery, fault_seed: u64) -> Self {
        let (mut m, map) = deployment(shards);
        let mut master = ModelMaster::new([suffix()]);
        for e in seed_entries() {
            master.apply(&UpdateOp::Add(e)).expect("seed entry");
        }
        if delivery == Delivery::PersistCoalescing {
            m.set_notify_policy(coalescing());
        }
        let plan = FaultPlan::builder(fault_seed)
            .drop_request(0.08)
            .drop_response(0.08)
            .duplicate(0.06)
            .crash_restart(0.03)
            .disconnect_persist(0.04)
            .build();
        // No backoff: a retry is the next exchange.
        let retry = RetryConfig {
            max_retries: 2,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            ..RetryConfig::default()
        };
        Replicated {
            link: FaultyLink::new(m, plan, SimClock::new()),
            coordinator: ShardCoordinator::with_config(map, retry),
            replica: FilterReplica::new(WINDOW),
            persist: delivery != Delivery::Poll,
            master,
            model: ModelReplica::new(WINDOW),
            now_ms: 0,
            quiet: true,
            last: None,
            tally: Staleness::default(),
        }
    }

    fn run(&mut self, step: &Step) -> Result<(), String> {
        if let Some(op) = update(step) {
            let done = self.link.master_mut().apply(op.clone()).is_ok();
            let modelled = self.master.apply(&op);
            if done != modelled.is_ok() {
                return Err(format!(
                    "the master {} what the model {modelled:?}",
                    if done { "did" } else { "refused" }
                ));
            }
            self.quiet &= !done;
            return Ok(());
        }
        match *step {
            Step::Flush { force } => drop(self.link.master_mut().flush_notifications(force)),
            Step::Tick { ms } => {
                self.now_ms += ms;
                self.link.master_mut().advance_to(self.now_ms);
            }
            Step::ExpireIdle { max_idle } => {
                let m = self.link.master_mut();
                for s in 0..m.map().shard_count() {
                    m.shard_mut(ShardId::new(s as u16)).expire_idle(max_idle);
                }
            }
            Step::Reload => self.link.master_mut().crash_restart(),
            Step::Toggle(i) => self.toggle(stored(i))?,
            Step::Sync => {
                let cycle = self.replica.sync_with_sharded(&mut self.link, &mut self.coordinator);
                cycle.map_err(|e| format!("a cycle failed: {e}"))?;
            }
            Step::Drain => drop(self.replica.drain_notifications()),
            Step::Ask { q, cache } => self.ask(query(q), cache)?,
            Step::AskAgain => {
                if let Some(q) = self.last.clone() {
                    self.ask(q, false)?;
                }
            }
            Step::Settle => self.settle()?,
            _ => {}
        }
        Ok(())
    }

    fn toggle(&mut self, request: SearchRequest) -> Result<(), String> {
        if self.model.remove(&request) {
            if !self.replica.remove_filter(&mut self.link, &request) {
                return Err(format!("{request} was not stored"));
            }
            return Ok(());
        }
        let (link, coordinator) = (&mut self.link, &mut self.coordinator);
        let installed = if self.persist {
            self.replica.install_filter_sharded_persistent(link, coordinator, request.clone())
        } else {
            self.replica.install_filter_sharded(link, coordinator, request.clone())
        };
        // A lost install stores nothing.
        if installed.is_ok() {
            self.model.install(request);
        }
        Ok(())
    }

    /// Asks `q` of the replica and of the model: the same decision, the
    /// same stored filter's hit, and the same answer — always for a
    /// cached query and a miss, at a quiescent point for a stored filter.
    fn ask(&mut self, q: SearchRequest, cache: bool) -> Result<(), String> {
        let got = self.replica.try_answer(&q).map(multiset);
        let (decision, want) = self.model.answer(&q, &self.master);
        let want = want.map(multiset);
        let current = multiset(self.master.search(&q));
        match (decision, got) {
            (Decision::Miss, None) => {
                let answer = self.link.master().search(&q);
                if multiset(answer.clone()) != current {
                    return Err(format!("the master answered {q} other than the model"));
                }
                if cache {
                    self.replica.cache_query(q.clone(), &answer);
                    self.model.cache(q.clone(), &self.master);
                }
            }
            (Decision::Window(_), Some(got)) => {
                self.tally.window_hits += 1;
                self.tally.window_stale += u64::from(got != current);
                if Some(got) != want {
                    return Err(format!("the window answered {q} other than the model"));
                }
            }
            (Decision::Filter(_), Some(got)) => {
                self.tally.filter_hits += 1;
                self.tally.filter_stale += u64::from(got != current);
                if self.quiet && Some(got) != want {
                    return Err(format!(
                        "a quiescent stored filter answered {q} other than the model"
                    ));
                }
            }
            (decision, got) => {
                return Err(format!(
                    "{q}: the model decided {decision:?}, the replica answered {got:?}"
                ))
            }
        }
        let hits: Vec<u64> = self.replica.filters().map(|(_, hits)| hits).collect();
        if hits != self.model.filter_hits() {
            return Err(format!(
                "{q} was answered by another stored filter: {hits:?}, not {:?}",
                self.model.filter_hits()
            ));
        }
        if self.replica.cached_queries() != self.model.cached() {
            return Err(format!("{q} was answered by another cached query"));
        }
        let stats = self.replica.stats();
        if (stats.generalized_hits, stats.cache_hits)
            != (self.tally.filter_hits, self.tally.window_hits)
        {
            return Err(format!("{q}: {stats:?} against {:?}", self.tally));
        }
        self.last = Some(q);
        Ok(())
    }

    /// A quiescent point: the master flushes, the replica drains and
    /// syncs straight from the master until no filter is stale, and then
    /// each filter's content is the model's and holds no deleted entry.
    fn settle(&mut self) -> Result<(), String> {
        self.link.master_mut().flush_notifications(true);
        self.replica.drain_notifications();
        for _ in 0..3 {
            let cycle =
                self.replica.sync_with_sharded(self.link.master_mut(), &mut self.coordinator);
            cycle.map_err(|e| format!("a clean cycle failed: {e}"))?;
            if self.replica.stale_filter_count() == 0 {
                break;
            }
        }
        if self.replica.stale_filter_count() > 0 {
            return Err("stale after three clean cycles".into());
        }
        let contents = self.replica.filter_contents();
        let stored: Vec<&SearchRequest> = self.model.filters().collect();
        let requests: Vec<&SearchRequest> = contents.iter().map(|(r, _)| r).collect();
        if requests != stored {
            return Err(format!("the replica stores {requests:?}, the model {stored:?}"));
        }
        for (pos, (request, held)) in contents.into_iter().enumerate() {
            // Held, and deleted or renamed away at the master.
            if let Some(e) = held.iter().find(|e| self.master.get(e.dn()).is_none()) {
                return Err(format!("{request} lost the deletion of {}", e.dn()));
            }
            let (held, want) = (multiset(held), multiset(self.model.content(pos, &self.master)));
            if held != want {
                let extra: Vec<&Entry> = held.iter().filter(|e| !want.contains(e)).collect();
                let missing: Vec<&Entry> = want.iter().filter(|e| !held.contains(e)).collect();
                return Err(format!(
                    "{request} holds {extra:?} beyond the model and lacks {missing:?}"
                ));
            }
        }
        self.quiet = true;
        Ok(())
    }
}

/// Runs `steps` and a last quiescent point against one configuration,
/// faults drawn from `seed` unless `faults` is off, and returns the
/// staleness the model saw.
fn run_schedule(
    shards: usize,
    delivery: Delivery,
    seed: u64,
    faults: bool,
    steps: &[Step],
) -> Result<Staleness, String> {
    let mut w = Replicated::new(shards, delivery, seed);
    if !faults {
        w.link.quiesce();
    }
    for (i, s) in steps.iter().chain([&Step::Settle]).enumerate() {
        w.run(s).map_err(|e| format!("step {i} {s:?}: {e}"))?;
    }
    Ok(w.tally)
}

/// Runs `cases` schedules of up to 120 steps against one configuration,
/// with faults, and returns the staleness the model saw. A failure panics
/// with its seed and its step list.
fn check_configuration(shards: usize, delivery: Delivery, cases: u64) -> Staleness {
    let mut total = Staleness::default();
    let schedule = prop::collection::vec(step(), 1..120);
    for case in 0..cases {
        let seed = 0x5EED_0000 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let steps = schedule.generate(&mut TestRng::from_seed(seed));
        let run =
            catch_unwind(AssertUnwindSafe(|| run_schedule(shards, delivery, seed, true, &steps)));
        let failure = match run {
            Ok(Ok(t)) => {
                total.window_hits += t.window_hits;
                total.window_stale += t.window_stale;
                total.filter_hits += t.filter_hits;
                total.filter_stale += t.filter_stale;
                continue;
            }
            Ok(Err(e)) => e,
            Err(_) => "panicked".to_owned(),
        };
        let listed: Vec<String> =
            steps.iter().enumerate().map(|(i, s)| format!("  {i}: {s:?}")).collect();
        panic!(
            "{}, {delivery:?}, seed {seed:#x}: {failure}\nsteps:\n{}",
            name(shards),
            listed.join("\n")
        );
    }
    total
}

/// Prints what the model saw of staleness. Nothing asserts on it: the
/// window is frozen (§7.4), and a stored filter lags by its delivery.
fn report(shards: usize, delivery: Delivery, s: Staleness) {
    let delivery = format!("{delivery:?}");
    println!(
        "{:<12} {delivery:<17}: {:>4} window hits, {:>3} stale; {:>4} stored-filter hits, {:>3} stale",
        name(shards),
        s.window_hits,
        s.window_stale,
        s.filter_hits,
        s.filter_stale
    );
}

fn name(shards: usize) -> &'static str {
    if shards == 1 {
        "one master"
    } else {
        "three shards"
    }
}

#[test]
fn every_configuration_answers_what_the_model_answers() {
    const CASES: u64 = 160;
    for delivery in [Delivery::Poll, Delivery::PersistImmediate, Delivery::PersistCoalescing] {
        for shards in [1, 3] {
            report(shards, delivery, check_configuration(shards, delivery, CASES));
        }
    }
}

/// Schedules the model found, kept by name. Each ends with a wrong body
/// or a lost arrival in a persist replica when the replica applies what a
/// channel holds in another order than the master built it.
#[test]
fn persist_batches_land_in_the_order_the_master_built_them() {
    let (c, id) = (2, 4);
    let set = |d| Step::Modify { c, id, change: Change::Dept(d) };
    let cases: [(&str, Delivery, Vec<Step>); 3] = [
        (
            // (dept>=2) is sent p4 at 2, 3, 2; (|(dept=1)(dept=3)) is sent
            // p4 at 3, then its departure. Drained filter by filter, the
            // second filter's older body is stored last.
            "two filters' batches, one drain",
            Delivery::PersistImmediate,
            vec![Step::Toggle(7), Step::Toggle(3), Step::Add { c, id, dept: 2 }, set(3), set(2)],
        ),
        (
            // The flushed arrival of p4 waits in the channel while a poll
            // brings its later departure; drained after the poll, it
            // brings p4 back.
            "a flushed batch, then a poll",
            Delivery::PersistCoalescing,
            vec![
                Step::Toggle(7),
                Step::Add { c, id, dept: 3 },
                Step::Flush { force: true },
                set(1),
                Step::Sync,
                Step::Drain,
            ],
        ),
        (
            // (dept>=2)'s channel holds p4 at 3 and its departure when
            // (!(dept=1)) is installed with p4 at 0; drained after the
            // install, the older body stays behind in the new filter.
            "a sent batch, then an install",
            Delivery::PersistImmediate,
            vec![
                Step::Toggle(7),
                Step::Add { c, id, dept: 3 },
                set(0),
                Step::Toggle(6),
                Step::Drain,
            ],
        ),
    ];
    for (case, delivery, steps) in cases {
        for shards in [1, 3] {
            run_schedule(shards, delivery, 0, false, &steps)
                .unwrap_or_else(|e| panic!("{case}, {}: {e}", name(shards)));
        }
    }
}
