//! Sharding under load and under partition: partitioning one shard
//! leaves every other shard serving, and a persist fleet's coalesced
//! flushes deliver what immediate push does, in fewer wakeups. That a
//! sharded master answers and a coordinator merges what one store would
//! is checked against the reference model (`tests/model.rs` at the
//! workspace root).

use fbdr_dit::{Modification, UpdateOp};
use fbdr_ldap::{Dn, Entry, Filter, Rdn, Scope, SearchRequest};
use crossbeam::channel::Receiver;
use fbdr_resync::reconcile::{RangeRequest, RangeResponse, ReconcileRequest, ReconcileResponse};
use fbdr_resync::{
    Cookie, NotifyPolicy, ReSyncControl, ReplicaContent, RetryConfig, ShardCoordinator, ShardId,
    ShardMap, ShardStatus, ShardedMaster, NotifyBatch, SyncError, SyncMode, SyncResponse,
    SyncTransport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const COUNTRIES: usize = 4;

/// An abstract operation against a pool of person entries, each living
/// under its id's country (`c=s{id % COUNTRIES},o=xyz`). Renames change
/// the RDN only, so an entry never crosses its shard boundary.
#[derive(Debug, Clone)]
enum Op {
    Add { id: usize, dept: u8 },
    Delete { id: usize },
    SetDept { id: usize, dept: u8 },
    SetMail { id: usize, tag: u8 },
    Rename { id: usize, new_id: usize },
}

fn country_dn(c: usize) -> Dn {
    format!("c=s{c},o=xyz").parse().expect("valid dn")
}

fn dn_of(id: usize) -> Dn {
    format!("cn=p{id},c=s{},o=xyz", id % COUNTRIES).parse().expect("valid dn")
}

fn entry_of(id: usize, dept: u8) -> Entry {
    Entry::new(dn_of(id))
        .with("objectclass", "person")
        .with("cn", &format!("p{id}"))
        .with("dept", &dept.to_string())
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

/// Country `c` → shard `c % k`: the same namespace at every shard count.
fn map_for(k: usize) -> ShardMap {
    let mut map = ShardMap::new(ShardId::ZERO);
    for c in 0..COUNTRIES {
        map.assign(country_dn(c), ShardId::new(u16::try_from(c % k).expect("fits")));
    }
    map
}

/// A sharded master over `k` shards, each shard's DIT holding the
/// skeleton plus its own countries.
fn sharded(k: usize) -> ShardedMaster {
    sharded_on(map_for(k))
}

/// Every shard's DIT holding the suffix entry and the countries `map`
/// assigns to it.
fn sharded_on(map: ShardMap) -> ShardedMaster {
    let mut m = ShardedMaster::new(map.clone());
    for shard in map.shards() {
        let dit = m.shard_mut(shard).dit_mut();
        dit.add_suffix("o=xyz".parse().expect("valid dn"));
        dit.add(Entry::new("o=xyz".parse().expect("valid dn"))).expect("suffix add");
    }
    for c in 0..COUNTRIES {
        let shard = map.shard_of(&country_dn(c));
        m.shard_mut(shard)
            .dit_mut()
            .add(Entry::new(country_dn(c)).with("objectclass", "country"))
            .expect("country add");
    }
    m
}

const SESSION_FILTERS: &[&str] = &[
    "(dept=1)",
    "(&(objectclass=person)(dept=0))",
    "(|(dept=1)(dept=3))",
    "(cn=p1*)",
    "(mail=*)",
    "(!(dept=1))",
];

fn session_request(filter_idx: usize) -> SearchRequest {
    SearchRequest::new(
        "o=xyz".parse().expect("valid dn"),
        Scope::Subtree,
        Filter::parse(SESSION_FILTERS[filter_idx % SESSION_FILTERS.len()]).expect("valid filter"),
    )
}

/// The held entries, as the recovery ladder reads them.
fn held(content: &ReplicaContent) -> impl Fn() -> Vec<Entry> + '_ {
    || content.iter().cloned().collect()
}

// ---------------------------------------------------------------------
// Chaos: one partitioned shard cannot stall the rest
// ---------------------------------------------------------------------

/// A transport wrapper that drops every shard-addressed exchange to one
/// shard on the floor, as a network partition would, and — when
/// `can_reconcile` is off — refuses the reconcile legs the way a
/// transport predating reconciliation does.
struct FlakyShards {
    inner: ShardedMaster,
    dead: ShardId,
    can_reconcile: bool,
}

impl SyncTransport for FlakyShards {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }
    fn resync_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        if shard == self.dead {
            return Err(SyncError::Unavailable("partitioned".into()));
        }
        self.inner.resync_at(shard, request, ctl)
    }
    fn take_receiver_at(&mut self, shard: ShardId, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
        self.inner.take_receiver_at(shard, cookie)
    }
    fn abandon_at(&mut self, shard: ShardId, cookie: Cookie) {
        self.inner.abandon_at(shard, cookie);
    }
    fn reconcile_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        req: ReconcileRequest,
    ) -> Result<ReconcileResponse, SyncError> {
        if shard == self.dead {
            return Err(SyncError::Unavailable("partitioned".into()));
        }
        if !self.can_reconcile {
            return Err(SyncError::ReconcileFailed("transport cannot reconcile".into()));
        }
        self.inner.reconcile_at(shard, request, req)
    }
    fn reconcile_ranges_at(
        &mut self,
        shard: ShardId,
        cookie: Cookie,
        req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        if shard == self.dead {
            return Err(SyncError::Unavailable("partitioned".into()));
        }
        self.inner.reconcile_ranges_at(shard, cookie, req)
    }
}

/// A fast-failing retry policy so the partitioned shard degrades to
/// stale without real backoff sleeps.
fn snappy_retry() -> RetryConfig {
    RetryConfig {
        max_retries: 1,
        base_backoff_ms: 0,
        max_backoff_ms: 0,
        timeout_budget_ms: 10_000,
        jitter_seed: 7,
    }
}

#[test]
fn partitioned_shard_degrades_alone_and_catches_up() {
    let mut coord = ShardCoordinator::with_config(map_for(4), snappy_retry());
    let mut t =
        FlakyShards { inner: sharded(4), dead: ShardId::new(u16::MAX), can_reconcile: true };
    let req = session_request(4); // (mail=*)
    for id in 0..8 {
        t.inner.apply(UpdateOp::Add(entry_of(id, 1).with("mail", "a@x"))).unwrap();
    }

    // Install while healthy.
    let (actions, mut composite, _, _) =
        coord.install(&mut t, &req, SyncMode::Poll).expect("install");
    let mut content = ReplicaContent::new();
    content.apply_all(&actions);
    assert_eq!(content.sorted_dns().len(), 8);
    assert_eq!(composite.len(), 4);

    // New entries land on every shard; shard 2 then partitions.
    for id in 8..16 {
        t.inner.apply(UpdateOp::Add(entry_of(id, 2).with("mail", "b@x"))).unwrap();
    }
    let dead = ShardId::new(2);
    t.dead = dead;
    let outcomes = coord.sync_filter(&mut t, &req, &mut composite, &held(&content));
    let mut fresh_actions = 0usize;
    for out in &outcomes {
        if out.shard == dead {
            assert_eq!(out.status, ShardStatus::Stale, "partitioned shard must serve stale");
            assert!(out.actions.is_empty());
        } else {
            assert_eq!(out.status, ShardStatus::Updated, "healthy shard {} stalled", out.shard);
            fresh_actions += out.actions.len();
        }
        content.apply_all(&out.actions);
    }
    // Countries s0/s1/s3 each gained two entries; only s2's two are missing.
    assert_eq!(fresh_actions, 6);
    assert_eq!(content.sorted_dns().len(), 14);
    // The stale shard kept its cookie for resumption.
    assert!(composite.get(dead).is_some());
    assert_eq!(composite.len(), 4);

    // Partition heals: the kept cookie resumes incrementally — no
    // reinstall, no reconcile, just the missed batch.
    t.dead = ShardId::new(u16::MAX);
    let outcomes = coord.sync_filter(&mut t, &req, &mut composite, &held(&content));
    for out in &outcomes {
        assert_eq!(out.status, ShardStatus::Updated);
        content.apply_all(&out.actions);
    }
    assert_eq!(content.sorted_dns().len(), 16);
    assert_eq!(coord.stats().reinstalls, 0);
    assert_eq!(coord.stats().reconciliations, 0);
}

// ---------------------------------------------------------------------
// Persist fleet: a coalesced flush delivers what immediate push does
// ---------------------------------------------------------------------

/// People per country in the persist fleet.
const FLEET_PEOPLE: usize = 64;
/// Departments those people cycle through; a session watches one.
const FLEET_DEPTS: usize = 4;

/// What a persist-fleet run varies besides the shard count and the seed.
#[derive(Clone, Copy)]
struct FleetShape {
    /// The first `countries` countries hold sessions and take updates.
    countries: usize,
    sessions: usize,
    updates: usize,
    /// The coalesced arm is force-flushed after every `flush_every` ops.
    flush_every: usize,
    /// Whether the op stream also deletes, re-adds and renames people.
    departures: bool,
}

/// The shape's seeded op stream: op `j` lands in country `j % countries`,
/// every fourth touches `mail` in place, and the rest move a person between
/// departments — or, with `departures`, one time in four delete, re-add or
/// rename them (within the country, so the shard never changes).
fn fleet_ops(shape: FleetShape, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let person = |rng: &mut StdRng, j: usize| {
        rng.gen_range(0..FLEET_PEOPLE) * COUNTRIES + j % shape.countries
    };
    (0..shape.updates)
        .map(|j| {
            let id = person(&mut rng, j);
            let dept = rng.gen_range(0..FLEET_DEPTS as u8);
            match (j % 4, rng.gen_range(0..8u8)) {
                (3, _) => Op::SetMail { id, tag: j as u8 },
                (_, 0) if shape.departures => Op::Delete { id },
                (_, 1) if shape.departures => Op::Add { id, dept },
                (_, 2) if shape.departures => Op::Rename { id, new_id: person(&mut rng, j) },
                _ => Op::SetDept { id, dept },
            }
        })
        .collect()
}

/// One persist session of the fleet and what its replica holds.
struct FleetSession {
    shard: ShardId,
    request: SearchRequest,
    rx: Receiver<NotifyBatch>,
    content: ReplicaContent,
}

/// A `k`-shard master with `FLEET_PEOPLE` people in every country and the
/// shape's persist sessions: session `r` watches `(dept=d)` under country
/// `c = r % countries`, `d = r / countries % FLEET_DEPTS` (the deleted fleet
/// simulator's assignment), so `countries * FLEET_DEPTS` sessions are one
/// per country and department. Every shard reports into one registry.
struct Fleet {
    master: ShardedMaster,
    sessions: Vec<FleetSession>,
    obs: fbdr_obs::Obs,
}

impl Fleet {
    fn new(k: usize, shape: FleetShape, policy: NotifyPolicy) -> Self {
        let mut master = sharded(k);
        for id in 0..FLEET_PEOPLE * COUNTRIES {
            let dept = u8::try_from(id / COUNTRIES % FLEET_DEPTS).expect("fits");
            master.apply(UpdateOp::Add(entry_of(id, dept))).expect("person add");
        }
        master.set_notify_policy(policy);
        let obs = fbdr_obs::Obs::new();
        master.set_obs(obs.clone());
        let sessions = (0..shape.sessions)
            .map(|r| {
                let (c, d) = (r % shape.countries, r / shape.countries % FLEET_DEPTS);
                let shard = master.map().shard_of(&country_dn(c));
                let filter = Filter::parse(&format!("(dept={d})")).expect("valid filter");
                let request = SearchRequest::new(country_dn(c), Scope::Subtree, filter);
                let resp =
                    master.resync_at(shard, &request, ReSyncControl::persist(None)).expect("install");
                let cookie = resp.cookie.expect("persist sessions carry a cookie");
                let rx = master.take_receiver_at(shard, cookie).expect("parked receiver");
                let mut content = ReplicaContent::new();
                content.apply_all(&resp.actions);
                FleetSession { shard, request, rx, content }
            })
            .collect();
        Fleet { master, sessions, obs }
    }

    /// Applies one op (a refused one is a client race, as above) and hands
    /// every session what its channel holds. Returns whether it applied.
    fn apply(&mut self, op: &Op) -> bool {
        let applied = self.master.apply(to_update(op)).is_ok();
        self.drain();
        applied
    }

    fn drain(&mut self) {
        for s in &mut self.sessions {
            for batch in s.rx.try_iter() {
                s.content.apply_all(&batch.actions);
            }
        }
    }

    /// Wakeups summed over the shards' own counters — which the one
    /// registry they all report into must agree with.
    fn wakeups(&self) -> u64 {
        let m = &self.master;
        let sum: u64 = m.map().shards().map(|s| m.shard(s).notify_wakeups()).sum();
        let exported = self.obs.registry().counter("fbdr_resync_notify_wakeups_total").get();
        assert_eq!(exported, sum, "the registry missed a shard's wakeups");
        sum
    }

    /// Every session holds what a fresh poll of its filter returns, DNs
    /// and entries.
    fn assert_converged(&mut self, arm: &str) {
        let Fleet { master, sessions, .. } = self;
        for (r, s) in sessions.iter().enumerate() {
            let fresh =
                master.resync_at(s.shard, &s.request, ReSyncControl::poll(None)).expect("poll");
            let mut want = ReplicaContent::new();
            want.apply_all(&fresh.actions);
            assert_eq!(s.content.sorted_dns(), want.sorted_dns(), "{arm}: session {r}'s DNs");
            for e in want.iter() {
                assert_eq!(s.content.get(e.dn()), Some(e), "{arm}: session {r}, {}", e.dn());
            }
        }
    }
}

/// Runs `seed`'s op stream through two `k`-shard fleets of one shape —
/// immediate push, and coalescing force-flushed every `flush_every` ops —
/// checks both against fresh polls after the drain, and returns their
/// wakeups, immediate first.
fn both_arms(k: usize, shape: FleetShape, seed: u64) -> (u64, u64) {
    let mut immediate = Fleet::new(k, shape, NotifyPolicy::immediate());
    let mut coalesced = Fleet::new(k, shape, NotifyPolicy::coalescing(64, u64::MAX));
    for (i, op) in fleet_ops(shape, seed).iter().enumerate() {
        assert_eq!(immediate.apply(op), coalesced.apply(op), "op {i} applied on one arm only");
        if (i + 1) % shape.flush_every == 0 {
            coalesced.master.flush_notifications(true);
            coalesced.drain();
        }
    }
    coalesced.master.flush_notifications(true);
    coalesced.drain();
    immediate.assert_converged("immediate");
    coalesced.assert_converged("coalesced");
    (immediate.wakeups(), coalesced.wakeups())
}

/// One session per country and department at 1, 2 and 4 shards: whatever
/// the flush cadence, the coalesced arm's sessions end where the immediate
/// arm's do — each a fresh poll of its filter — and it never wakes them
/// more often.
#[test]
fn coalesced_and_immediate_persist_reach_the_same_content() {
    for k in [1, 2, 4] {
        for seed in 0..6u64 {
            let shape = FleetShape {
                countries: COUNTRIES,
                sessions: COUNTRIES * FLEET_DEPTS,
                updates: 125,
                flush_every: 1 + seed as usize,
                departures: true,
            };
            let (immediate, coalesced) = both_arms(k, shape, seed);
            assert!(immediate > 0, "{k} shards, seed {seed}: nothing was pushed");
            assert!(
                coalesced <= immediate,
                "{k} shards, seed {seed}: coalescing woke {coalesced} times, immediate {immediate}"
            );
        }
    }
}

/// The deleted fleet simulator's headline, on the real master and its
/// shape — 60 sessions over two countries of 64 people, 200 department
/// moves and `mail` touches, batch 64, one flush per 20 ops (its 200 ms
/// hold at one update per 10 ms): the same content at a third of the
/// wakeups or fewer, at 1, 2 and 4 shards (at 4 the two countries sit on
/// shards 0 and 1).
#[test]
fn coalescing_cuts_wakeups_at_equal_content() {
    let shape =
        FleetShape { countries: 2, sessions: 60, updates: 200, flush_every: 20, departures: false };
    for k in [1, 2, 4] {
        let (immediate, coalesced) = both_arms(k, shape, 3);
        assert!(
            coalesced * 3 <= immediate,
            "{k} shards: coalescing should cut wakeups at least 3x: {coalesced} vs {immediate}"
        );
    }
}
