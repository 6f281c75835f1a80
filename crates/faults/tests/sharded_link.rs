//! Fault injection over a *sharded* transport: a `FaultyLink` wrapping a
//! `ShardedMaster` must forward each leg's shard intact — the
//! coordinator's per-shard recovery (serve one shard stale, heal it by
//! replay while the others keep serving) and persist-mode receivers must
//! work exactly as they do against the unwrapped master. This is the
//! combined coverage the single-master link tests and the fault-free
//! sharded tests each miss: a wrapper that dropped the shard would send
//! every exchange to shard 0 and miss every other shard's parked persist
//! receiver.

use fbdr_dit::UpdateOp;
use fbdr_faults::{FaultKind, FaultPlan, FaultyLink, SimClock};
use fbdr_ldap::{Dn, Entry, Filter, Scope, SearchRequest};
use fbdr_resync::{
    ReSyncControl, ReplicaContent, RetryConfig, ShardCoordinator, ShardId, ShardMap, ShardStatus,
    ShardedMaster, SyncTransport,
};

const COUNTRIES: usize = 2;

fn dn(s: &str) -> Dn {
    s.parse().unwrap()
}

fn country_dn(c: usize) -> Dn {
    dn(&format!("c=s{c},o=xyz"))
}

fn dn_of(id: usize) -> Dn {
    dn(&format!("cn=p{id},c=s{},o=xyz", id % COUNTRIES))
}

fn entry_of(id: usize) -> Entry {
    Entry::new(dn_of(id))
        .with("objectclass", "person")
        .with("cn", &format!("p{id}"))
        .with("mail", "a@x")
}

/// Two shards, one country each, both holding the suffix skeleton.
fn sharded() -> ShardedMaster {
    let mut map = ShardMap::new(ShardId::ZERO);
    for c in 0..COUNTRIES {
        map.assign(country_dn(c), ShardId::new(c as u16));
    }
    let mut m = ShardedMaster::new(map.clone());
    for c in 0..COUNTRIES {
        let dit = m.shard_mut(ShardId::new(c as u16)).dit_mut();
        dit.add_suffix(dn("o=xyz"));
        dit.add(Entry::new(dn("o=xyz"))).unwrap();
        dit.add(Entry::new(country_dn(c)).with("objectclass", "country")).unwrap();
    }
    m
}

fn req() -> SearchRequest {
    SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::parse("(mail=*)").unwrap())
}

fn snappy_retry() -> RetryConfig {
    RetryConfig {
        max_retries: 1,
        base_backoff_ms: 0,
        max_backoff_ms: 0,
        timeout_budget_ms: 10_000,
        jitter_seed: 7,
    }
}

/// The held entries, as the recovery ladder reads them (here it never
/// reaches reconcile, so they are never read).
fn held(content: &ReplicaContent) -> impl Fn() -> Vec<Entry> + '_ {
    || content.iter().cloned().collect()
}

#[test]
fn faulty_sharded_transport_heals_per_shard() {
    // Exchange indices: install polls both shards (ops 0, 1); the first
    // poll of cycle 1 loses its response twice (ops 2, 3 — the retry
    // too), exhausting the snappy budget, while the other shard's poll
    // (op 4) is clean. Cycle 2 (ops 5, 6) is clean everywhere.
    let plan = FaultPlan::builder(11)
        .at(2, FaultKind::DropResponse)
        .at(3, FaultKind::DropResponse)
        .build();
    let mut link = FaultyLink::new(sharded(), plan, SimClock::new());
    let mut coord = ShardCoordinator::with_config(link.master().map().clone(), snappy_retry());
    for id in 0..4 {
        link.master_mut().apply(UpdateOp::Add(entry_of(id))).unwrap();
    }

    let (actions, mut composite, _) = coord.install(&mut link, &req()).expect("install");
    let mut content = ReplicaContent::new();
    content.apply_all(&actions);
    assert_eq!(content.len(), 4);
    assert_eq!(composite.len(), 2);

    // Both shards gain entries; the faulted shard's poll must degrade to
    // stale *alone* — its twin keeps delivering.
    for id in 4..8 {
        link.master_mut().apply(UpdateOp::Add(entry_of(id))).unwrap();
    }
    let outcomes = coord.sync_filter(&mut link, &req(), &mut composite, &held(&content));
    let stale: Vec<ShardId> = outcomes
        .iter()
        .filter(|o| o.status == ShardStatus::Stale)
        .map(|o| o.shard)
        .collect();
    assert_eq!(stale.len(), 1, "exactly one shard saw the faults: {outcomes:?}");
    for out in &outcomes {
        if out.shard == stale[0] {
            assert!(out.actions.is_empty());
        } else {
            assert_eq!(out.status, ShardStatus::Updated, "healthy shard stalled");
            assert_eq!(out.actions.len(), 2);
        }
        content.apply_all(&out.actions);
    }
    assert_eq!(content.len(), 6, "only the stale shard's two entries are missing");
    // The stale shard kept its cookie for resumption.
    assert!(composite.get(stale[0]).is_some());

    // Faults over: the kept cookie resumes by replay — the missed batch
    // arrives, with no reinstall and no reconciliation.
    let outcomes = coord.sync_filter(&mut link, &req(), &mut composite, &held(&content));
    for out in &outcomes {
        assert_eq!(out.status, ShardStatus::Updated);
        content.apply_all(&out.actions);
    }
    assert_eq!(content.len(), 8);
    assert_eq!(link.faults_injected(), 2);
    assert_eq!(coord.stats().reinstalls, 0);
    assert_eq!(coord.stats().reconciliations, 0);
}

#[test]
fn persist_receivers_reach_through_a_faulty_sharded_link() {
    let mut link = FaultyLink::new(sharded(), FaultPlan::clean(), SimClock::new());
    let shard = ShardId::new(1);
    let sub = SearchRequest::new(country_dn(1), Scope::Subtree, Filter::parse("(mail=*)").unwrap());

    let resp = link.resync_at(shard, &sub, ReSyncControl::persist(None)).unwrap();
    let cookie = resp.cookie.expect("persist session cookie");
    // The shard-addressed leg reaches the parked receiver.
    let rx = link
        .take_receiver_at(shard, cookie)
        .expect("the _at leg must reach shard 1's parked receiver");

    link.master_mut().apply(UpdateOp::Add(entry_of(1))).unwrap();
    let batch = rx.try_recv().expect("live notification through the link");
    assert_eq!(batch.actions.len(), 1);
    assert_eq!(link.shard_count(), 2);
}

#[test]
fn crash_restart_of_a_sharded_master_preserves_every_shards_sessions() {
    // Op 2 (the first poll of cycle 1) crashes the whole sharded master;
    // the serialized snapshot must bring back *both* shards' sessions so
    // every cookie resumes incrementally.
    let plan = FaultPlan::builder(3).at(2, FaultKind::CrashRestart).build();
    let mut link = FaultyLink::new(sharded(), plan, SimClock::new());
    let mut coord = ShardCoordinator::with_config(link.master().map().clone(), snappy_retry());
    for id in 0..4 {
        link.master_mut().apply(UpdateOp::Add(entry_of(id))).unwrap();
    }
    let (actions, mut composite, _) = coord.install(&mut link, &req()).expect("install");
    let mut content = ReplicaContent::new();
    content.apply_all(&actions);

    for id in 4..8 {
        link.master_mut().apply(UpdateOp::Add(entry_of(id))).unwrap();
    }
    let outcomes = coord.sync_filter(&mut link, &req(), &mut composite, &held(&content));
    for out in &outcomes {
        assert_eq!(out.status, ShardStatus::Updated, "sessions must survive the crash");
        content.apply_all(&out.actions);
    }
    assert_eq!(content.len(), 8);
    assert_eq!(coord.stats().reinstalls, 0);
}
