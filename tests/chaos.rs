//! Chaos suite: seeded fault schedules against the full sync stack.
//!
//! Each run wires a [`FilterReplica`] to a [`SyncMaster`] through a
//! [`FaultyLink`] (dropped requests/responses, duplicates, crashes,
//! persist disconnects, latency) and a retrying [`SyncDriver`] on
//! simulated time, applies a seed-derived update workload, then lets the
//! faults quiesce and checks the replica **converged**: its content
//! equals the master's evaluation of the stored filter, and no deletion
//! was lost. The same seed always produces the same schedule, so any
//! failure here is replayable with `chaos_run(seed)`.

use crossbeam::channel::Receiver;
use fbdr_faults::{FaultKind, FaultPlan, FaultyLink, SimClock};
use fbdr_ldap::{Entry, Filter, SearchRequest};
use fbdr_replica::FilterReplica;
use fbdr_resync::{
    Cookie, NotifyBatch, ReSyncControl, RetryConfig, ShardId, SyncDriver, SyncError,
    SyncMaster, SyncResponse, SyncTransport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const ENTRIES: usize = 24;
const UPDATES: usize = 40;

fn dn(i: usize) -> fbdr_ldap::Dn {
    format!("cn=e{i},o=xyz").parse().unwrap()
}

fn entry(i: usize, serial: &str) -> Entry {
    Entry::new(dn(i)).with("objectclass", "person").with("serialNumber", serial)
}

/// Serial inside the replicated filter region (`04*`) or outside it.
fn serial(in_filter: bool, i: usize) -> String {
    if in_filter {
        format!("04{i:04}")
    } else {
        format!("99{i:04}")
    }
}

fn filter_request() -> SearchRequest {
    SearchRequest::from_root(Filter::parse("(serialNumber=04*)").unwrap())
}

fn build_master() -> SyncMaster {
    let mut m = SyncMaster::new();
    m.dit_mut().add_suffix("o=xyz".parse().unwrap());
    m.dit_mut()
        .add(Entry::new("o=xyz".parse().unwrap()).with("objectclass", "organization"))
        .unwrap();
    for i in 0..ENTRIES {
        m.dit_mut().add(entry(i, &serial(i % 2 == 0, i))).unwrap();
    }
    m
}

/// The link with its reconcile legs left at the trait's failing defaults:
/// a lost session behind it can only be reinstalled.
struct ReinstallOnly<'a>(&'a mut FaultyLink);

impl SyncTransport for ReinstallOnly<'_> {
    fn resync_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        self.0.resync_at(shard, request, ctl)
    }

    fn take_receiver_at(&mut self, shard: ShardId, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
        self.0.take_receiver_at(shard, cookie)
    }

    fn abandon_at(&mut self, shard: ShardId, cookie: Cookie) {
        self.0.abandon_at(shard, cookie);
    }
}

/// At a quiescent point every stored filter answers its own request as the
/// scan reference does: one answered with its whole content holds only
/// entries it matches.
fn filters_answer_themselves_as_the_scan_does(replica: &FilterReplica) {
    for (request, _) in replica.filters() {
        assert_eq!(replica.try_answer(&request), replica.try_answer_scan(&request), "{request}");
    }
}

/// What one chaos run did, for aggregate assertions over the suite.
#[derive(Debug, Default)]
struct RunReport {
    faults_injected: u64,
    redeliveries: u64,
    recovered: u64,
    reconciliations: u64,
    reinstalls: u64,
    exhausted: u64,
    poll_fallbacks: u64,
}

/// Drives one full fault schedule; panics if the replica fails to
/// converge after the faults cease.
fn chaos_run(seed: u64) -> RunReport {
    let mut plan = FaultPlan::builder(seed)
        .drop_request(0.12)
        .drop_response(0.12)
        .duplicate(0.08)
        .crash_restart(0.04)
        .disconnect_persist(0.05)
        .latency_ms(1, 10);
    if seed % 5 == 0 {
        // A scripted outage long enough to exhaust one exchange's whole
        // retry budget (1 try + 2 retries), forcing a stale cycle.
        for op in 6..9 {
            plan = plan.at(op, FaultKind::DropRequest);
        }
    }
    let clock = SimClock::new();
    let mut master = build_master();
    // Every third schedule loses a session that fell behind: after a
    // cycle that ended stale, the next update is followed by an idle
    // sweep that expires it, and the filter must recover — by digest
    // reconciliation normally, or by reinstall on the seeds whose link
    // cannot reconcile (below).
    let expires = seed % 3 == 0;
    let mut behind = false;

    let replica = FilterReplica::new(0);
    let persist = seed % 4 == 0;
    if persist {
        replica.install_filter_persistent(&mut master, filter_request()).unwrap();
    } else {
        replica.install_filter(&mut master, filter_request()).unwrap();
    }

    let mut link = FaultyLink::new(master, plan.build(), clock.clone());
    let mut driver = SyncDriver::with_clock(
        RetryConfig {
            max_retries: 2,
            base_backoff_ms: 10,
            max_backoff_ms: 40,
            timeout_budget_ms: 10_000,
            jitter_seed: seed,
        },
        clock,
    );
    // A sixth of the schedules sync through a link that cannot reconcile,
    // so the suite keeps exercising the reinstall rung of the ladder too.
    let reconciles = seed % 6 != 0;
    let mut sync = |link: &mut FaultyLink| {
        replica.drain_notifications();
        if reconciles {
            replica.sync_with(link, &mut driver)
        } else {
            replica.sync_with(&mut ReinstallOnly(link), &mut driver)
        }
    };

    // Seed-derived workload: toggle entries across the filter boundary,
    // delete and re-add them, syncing every `cadence` updates.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD_EF01);
    let mut present: Vec<bool> = vec![true; ENTRIES];
    let mut in_filter: Vec<bool> = (0..ENTRIES).map(|i| i % 2 == 0).collect();
    let mut deleted: BTreeSet<usize> = BTreeSet::new();
    let cadence = 1 + (seed as usize % 3);
    for step in 0..UPDATES {
        let i = rng.gen_range(0..ENTRIES);
        let roll: f64 = rng.gen();
        let op = if !present[i] {
            in_filter[i] = roll < 0.5;
            fbdr_dit::UpdateOp::Add(entry(i, &serial(in_filter[i], i)))
        } else if roll < 0.25 {
            fbdr_dit::UpdateOp::Delete(dn(i))
        } else {
            in_filter[i] = !in_filter[i];
            fbdr_dit::UpdateOp::Modify {
                dn: dn(i),
                mods: vec![fbdr_dit::Modification::Replace(
                    "serialNumber".into(),
                    vec![serial(in_filter[i], i).into()],
                )],
            }
        };
        match &op {
            fbdr_dit::UpdateOp::Delete(_) => {
                present[i] = false;
                deleted.insert(i);
            }
            fbdr_dit::UpdateOp::Add(_) => {
                present[i] = true;
                deleted.remove(&i);
            }
            _ => {}
        }
        link.master_mut().apply(op).unwrap();
        if behind {
            link.master_mut().expire_idle(0);
            behind = false;
        }
        if step % cadence == 0 {
            sync(&mut link).expect("only non-transient errors may surface");
            behind = expires && replica.stale_filter_count() > 0;
        }
    }

    // Faults cease; a few clean cycles must fully converge the replica.
    link.quiesce();
    for _ in 0..3 {
        sync(&mut link).expect("clean cycle");
    }
    assert_eq!(replica.stale_filter_count(), 0, "seed {seed}: still stale after quiesce");
    filters_answer_themselves_as_the_scan_does(&replica);

    // Convergence: the replica's answer equals the master's evaluation.
    let request = filter_request();
    let mut want = link.master().dit().search(&request);
    want.sort_by(|a, b| a.dn().cmp(b.dn()));
    let mut got = replica.try_answer(&request).expect("stored filter answers its own query");
    got.sort_by(|a, b| a.dn().cmp(b.dn()));
    assert_eq!(got, want, "seed {seed}: replica diverged from master");

    // Zero lost deletions: nothing deleted at the master survives in the
    // replica's content.
    for &i in &deleted {
        assert!(
            !got.iter().any(|e| e.dn() == &dn(i)),
            "seed {seed}: deleted entry e{i} still served by the replica"
        );
    }

    let d = driver.stats();
    RunReport {
        faults_injected: link.faults_injected(),
        redeliveries: link.master().redeliveries(),
        recovered: d.recovered,
        reconciliations: d.reconciliations,
        reinstalls: d.reinstalls,
        exhausted: d.exhausted,
        poll_fallbacks: replica.stats().poll_fallbacks,
    }
}

#[test]
fn hundred_seeded_fault_schedules_converge() {
    let mut total = RunReport::default();
    for seed in 0..100 {
        let r = chaos_run(seed);
        total.faults_injected += r.faults_injected;
        total.redeliveries += r.redeliveries;
        total.recovered += r.recovered;
        total.reconciliations += r.reconciliations;
        total.reinstalls += r.reinstalls;
        total.exhausted += r.exhausted;
        total.poll_fallbacks += r.poll_fallbacks;
    }
    // The suite must actually exercise the machinery it verifies —
    // every recovery path fires somewhere across the hundred schedules.
    assert!(total.faults_injected > 100, "faults were injected: {total:?}");
    assert!(total.redeliveries > 0, "lost responses were re-sent: {total:?}");
    assert!(total.recovered > 0, "driver retries recovered exchanges: {total:?}");
    assert!(total.exhausted > 0, "some exchanges exhausted their budget: {total:?}");
    assert!(total.reconciliations > 0, "expired sessions were reconciled: {total:?}");
    assert!(total.reinstalls > 0, "seeds that cannot reconcile reinstalled: {total:?}");
    assert!(total.poll_fallbacks > 0, "persist filters fell back to polling: {total:?}");
}

/// The ladder is one mechanism at any shard count: when the master
/// forgets a sharded filter's session on one shard, that shard's slice —
/// and only that slice — of the replica's real held content is
/// reconciled (a detached deletion included), while the other shard
/// keeps updating incrementally on its live session.
#[test]
fn lost_shard_session_reconciles_only_its_slice() {
    use fbdr_resync::{ShardCoordinator, ShardMap, ShardedMaster};

    // Even entries live under c=a (shard 0), odd ones under c=b (shard 1).
    let home = |i: usize| if i % 2 == 0 { "a" } else { "b" };
    let sharded_dn =
        |i: usize| -> fbdr_ldap::Dn { format!("cn=e{i},c={},o=xyz", home(i)).parse().unwrap() };
    let sharded_entry = |i: usize| {
        Entry::new(sharded_dn(i))
            .with("objectclass", "person")
            .with("serialNumber", &serial(true, i))
    };
    let map =
        ShardMap::by_suffixes(vec!["c=a,o=xyz".parse().unwrap(), "c=b,o=xyz".parse().unwrap()]);
    let mut master = ShardedMaster::new(map.clone());
    for (shard, c) in map.shards().zip(["a", "b"]) {
        let dit = master.shard_mut(shard).dit_mut();
        dit.add_suffix("o=xyz".parse().unwrap());
        dit.add(Entry::new("o=xyz".parse().unwrap())).unwrap();
        dit.add(Entry::new(format!("c={c},o=xyz").parse().unwrap())).unwrap();
    }
    for i in 0..ENTRIES {
        master.apply(fbdr_dit::UpdateOp::Add(sharded_entry(i))).unwrap();
    }

    let replica = FilterReplica::new(0);
    let mut coordinator = ShardCoordinator::new(map);
    replica.install_filter_sharded(&mut master, &mut coordinator, filter_request()).unwrap();
    assert_eq!(replica.entry_count(), ENTRIES);

    // Both shards change; then shard 1's session hits the idle limit.
    master.apply(fbdr_dit::UpdateOp::Add(sharded_entry(ENTRIES))).unwrap();
    master.apply(fbdr_dit::UpdateOp::Add(sharded_entry(ENTRIES + 1))).unwrap();
    master.apply(fbdr_dit::UpdateOp::Delete(sharded_dn(1))).unwrap();
    assert_eq!(master.shard_mut(ShardId::new(1)).expire_idle(0), 1);

    let t = replica.sync_with_sharded(&mut master, &mut coordinator).expect("cycle");
    assert_eq!(t.full_entries, 2, "one add per shard — nothing held is re-shipped");
    assert_eq!(t.dn_only, 1, "the detached deletion travels as one hash");
    let d = coordinator.stats();
    assert_eq!((d.reconciliations, d.reinstalls), (1, 0));
    assert_eq!(replica.stale_filter_count(), 0);
    filters_answer_themselves_as_the_scan_does(&replica);

    let mut want = master.search(&filter_request());
    let mut got = replica.try_answer(&filter_request()).expect("stored filter answers itself");
    want.sort_by(|a, b| a.dn().cmp(b.dn()));
    got.sort_by(|a, b| a.dn().cmp(b.dn()));
    assert_eq!(got, want);
    assert_eq!(master.session_count(), 2, "the dead session was replaced, not leaked beside");
}

/// The observability layer sees the same chaos three ways: the master's
/// own redelivery count, the `fbdr_resync_*` registry counters, and the
/// `resync.redelivery` / `driver.retry` events caught by a ring-buffer
/// subscriber must all agree on a seeded drop schedule.
#[test]
fn trace_events_and_counters_agree_under_response_loss() {
    use fbdr_obs::{Obs, RingBuffer};
    use std::sync::Arc;

    let obs = Obs::new();
    let ring = Arc::new(RingBuffer::new(16_384));
    obs.set_subscriber(ring.clone());

    let clock = SimClock::new();
    let mut master = build_master();
    master.set_obs(obs.clone());
    let replica = FilterReplica::with_obs(0, obs.clone());
    replica.install_filter(&mut master, filter_request()).unwrap();
    // Installation performs one fresh exchange directly against the
    // master; count driver-era requests from here.
    let requests_at_install = obs.registry().counter("fbdr_resync_requests_total").get();

    let plan = FaultPlan::builder(42).drop_response(0.35).build();
    let mut link = FaultyLink::new(master, plan, clock.clone());
    let mut driver = SyncDriver::with_clock(
        RetryConfig { max_retries: 3, base_backoff_ms: 10, jitter_seed: 42, ..RetryConfig::default() },
        clock,
    )
    .with_obs(obs.clone());

    let mut rng = StdRng::seed_from_u64(42);
    for step in 0..UPDATES {
        let i = rng.gen_range(0..ENTRIES);
        let _ = link.master_mut().apply(fbdr_dit::UpdateOp::Modify {
            dn: dn(i),
            mods: vec![fbdr_dit::Modification::Replace(
                "serialNumber".into(),
                vec![serial(rng.gen::<bool>(), i).into()],
            )],
        });
        if step % 2 == 0 {
            replica.sync_with(&mut link, &mut driver).expect("retries absorb the loss");
        }
    }
    link.quiesce();
    replica.sync_with(&mut link, &mut driver).expect("clean cycle");

    // Redeliveries: master bookkeeping == registry counter == trace events.
    let redeliveries = link.master().redeliveries();
    assert!(redeliveries > 0, "the schedule must exercise retries of a lost response");
    let reg = obs.registry();
    assert_eq!(reg.counter("fbdr_resync_redeliveries_total").get(), redeliveries);
    assert_eq!(ring.count("resync", "redelivery") as u64, redeliveries);

    // Retries: driver stats == registry counter == trace events.
    let retries = driver.stats().retries;
    assert!(retries > 0);
    assert_eq!(reg.counter("fbdr_resync_retries_total").get(), retries);
    assert_eq!(ring.count("driver", "retry") as u64, retries);

    // Every redelivery event carries the retried cookie's seq.
    for e in ring.named("resync", "redelivery") {
        assert!(e.u64_field("seq").is_some(), "redelivery without a seq: {e}");
    }

    // The exchange histogram times each driver-level exchange once,
    // however many attempts it took; and since only responses are
    // dropped, every attempt reached the master as a request.
    let d = driver.stats();
    assert_eq!(reg.histogram("fbdr_resync_exchange_ns").count(), d.attempts - d.retries);
    assert_eq!(reg.counter("fbdr_resync_requests_total").get() - requests_at_install, d.attempts);
}

/// A scripted session-eviction schedule: with no retries, every dropped
/// response strands the replica one batch behind, the session idles out
/// before the next poll, and the cookie comes back unknown. Every such
/// loss must be repaired by the reconcile rung — the reinstall counter
/// stays at zero, and no deletion carried by a lost batch survives in the
/// replica.
#[test]
fn replay_eviction_recovers_by_reconciliation_without_reinstall() {
    let clock = SimClock::new();
    let mut master = build_master();
    let replica = FilterReplica::new(0);
    replica.install_filter(&mut master, filter_request()).unwrap();

    let mut plan = FaultPlan::builder(7);
    for op in [0, 3, 6, 9, 12] {
        plan = plan.at(op, FaultKind::DropResponse);
    }
    let mut link = FaultyLink::new(master, plan.build(), clock.clone());
    let mut driver = SyncDriver::with_clock(
        RetryConfig { max_retries: 0, base_backoff_ms: 1, jitter_seed: 7, ..RetryConfig::default() },
        clock,
    );

    // Touch a distinct even-indexed (in-filter) entry each step; every
    // fourth step deletes it, the rest modify it across the boundary.
    let mut lost_deletes = Vec::new();
    for step in 0..12usize {
        let i = (2 * step) % ENTRIES;
        let op = if step % 4 == 3 {
            lost_deletes.push(i);
            fbdr_dit::UpdateOp::Delete(dn(i))
        } else {
            fbdr_dit::UpdateOp::Modify {
                dn: dn(i),
                mods: vec![fbdr_dit::Modification::Replace(
                    "serialNumber".into(),
                    vec![serial(step % 2 == 0, i).into()],
                )],
            }
        };
        link.master_mut().apply(op).unwrap();
        if replica.stale_filter_count() > 0 {
            // The last cycle ended stale: its session idles out first.
            link.master_mut().expire_idle(0);
        }
        let _ = replica.sync_with(&mut link, &mut driver);
    }
    link.quiesce();
    for _ in 0..2 {
        replica.sync_with(&mut link, &mut driver).expect("clean cycle");
    }

    let d = driver.stats();
    assert!(d.reconciliations > 0, "evicted batches forced reconciliation: {d:?}");
    assert_eq!(d.reinstalls, 0, "every lost session reconciled: {d:?}");
    assert_eq!(replica.stale_filter_count(), 0);
    filters_answer_themselves_as_the_scan_does(&replica);

    let request = filter_request();
    let mut want = link.master().dit().search(&request);
    want.sort_by(|a, b| a.dn().cmp(b.dn()));
    let mut got = replica.try_answer(&request).expect("stored filter answers its own query");
    got.sort_by(|a, b| a.dn().cmp(b.dn()));
    assert_eq!(got, want, "replica diverged from master");
    for &i in &lost_deletes {
        assert!(
            !got.iter().any(|e| e.dn() == &dn(i)),
            "deleted entry e{i} still served after reconciliation"
        );
    }
}

/// Soak: ten times the suite's churn through a master, with a rolling
/// window of *fresh* DNs (each added in-filter, then deleted a few steps
/// later) so garbage would accumulate if anything kept it — departed
/// posting lists, unacknowledged DNs, retired interner slots. Ids released by
/// their last holder must hold the deterministic memory footprint flat
/// after warmup, and the usual convergence and zero-lost-deletion checks
/// must still pass under the same faults.
#[test]
fn soak_memory_high_water_stays_flat_over_ten_x_churn() {
    const SOAK_UPDATES: usize = UPDATES * 10;
    const SEGMENTS: usize = 10;
    /// Fresh churn DNs alive at once before deletion catches up.
    const WINDOW: usize = 8;

    let seed = 7u64;
    let plan = FaultPlan::builder(seed)
        .drop_request(0.05)
        .drop_response(0.05)
        .duplicate(0.05)
        .latency_ms(1, 5)
        .build();
    let clock = SimClock::new();
    let mut master = build_master();
    let replica = FilterReplica::new(0);
    replica.install_filter(&mut master, filter_request()).unwrap();
    let mut link = FaultyLink::new(master, plan, clock.clone());
    let mut driver = SyncDriver::with_clock(
        RetryConfig {
            max_retries: 2,
            base_backoff_ms: 10,
            max_backoff_ms: 40,
            timeout_budget_ms: 10_000,
            jitter_seed: seed,
        },
        clock,
    );

    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD_EF01);
    let mut present: Vec<bool> = vec![true; ENTRIES];
    let mut in_filter: Vec<bool> = (0..ENTRIES).map(|i| i % 2 == 0).collect();
    let mut deleted: BTreeSet<usize> = BTreeSet::new();
    let mut high_water = [0usize; SEGMENTS];
    // Churn DNs get indices far above the base set so they never
    // collide with it; each lives for WINDOW steps.
    let churn_dn = |k: usize| ENTRIES + 1000 + k;

    for step in 0..SOAK_UPDATES {
        // The suite's usual boundary-toggling workload on the base set.
        let i = rng.gen_range(0..ENTRIES);
        let roll: f64 = rng.gen();
        let op = if !present[i] {
            in_filter[i] = roll < 0.5;
            fbdr_dit::UpdateOp::Add(entry(i, &serial(in_filter[i], i)))
        } else if roll < 0.25 {
            fbdr_dit::UpdateOp::Delete(dn(i))
        } else {
            in_filter[i] = !in_filter[i];
            fbdr_dit::UpdateOp::Modify {
                dn: dn(i),
                mods: vec![fbdr_dit::Modification::Replace(
                    "serialNumber".into(),
                    vec![serial(in_filter[i], i).into()],
                )],
            }
        };
        match &op {
            fbdr_dit::UpdateOp::Delete(_) => {
                present[i] = false;
                deleted.insert(i);
            }
            fbdr_dit::UpdateOp::Add(_) => {
                present[i] = true;
                deleted.remove(&i);
            }
            _ => {}
        }
        link.master_mut().apply(op).unwrap();

        // Fresh-DN turnover: one new in-filter entry per step, one
        // deletion of the entry from WINDOW steps back. Un-collected,
        // this grows the interner and every departed list forever.
        let k = churn_dn(step);
        link.master_mut()
            .apply(fbdr_dit::UpdateOp::Add(entry(k, &serial(true, k))))
            .unwrap();
        if step >= WINDOW {
            link.master_mut()
                .apply(fbdr_dit::UpdateOp::Delete(dn(churn_dn(step - WINDOW))))
                .unwrap();
        }

        if step % 4 == 0 {
            replica.drain_notifications();
            replica
                .sync_with(&mut link, &mut driver)
                .expect("only non-transient errors may surface");
        }
        let seg = step * SEGMENTS / SOAK_UPDATES;
        high_water[seg] =
            high_water[seg].max(link.master().memory_footprint().total_bytes());
    }

    link.quiesce();
    for _ in 0..3 {
        replica.drain_notifications();
        replica.sync_with(&mut link, &mut driver).expect("clean cycle");
    }
    assert_eq!(replica.stale_filter_count(), 0, "soak: still stale after quiesce");
    filters_answer_themselves_as_the_scan_does(&replica);

    // Convergence under churn, exactly as the per-seed runs check it.
    let request = filter_request();
    let mut want = link.master().dit().search(&request);
    want.sort_by(|a, b| a.dn().cmp(b.dn()));
    let mut got = replica.try_answer(&request).expect("stored filter answers its own query");
    got.sort_by(|a, b| a.dn().cmp(b.dn()));
    assert_eq!(got, want, "soak: replica diverged from master");

    // Zero lost deletions — on the base set and on every churn DN whose
    // deletion has already been applied.
    for &i in &deleted {
        assert!(
            !got.iter().any(|e| e.dn() == &dn(i)),
            "soak: deleted entry e{i} still served by the replica"
        );
    }
    for k in (0..SOAK_UPDATES.saturating_sub(WINDOW)).map(churn_dn) {
        assert!(
            !got.iter().any(|e| e.dn() == &dn(k)),
            "soak: deleted churn entry e{k} still served by the replica"
        );
    }

    // Memory flatness: after the first segment warms the buffers up,
    // the high-water mark must not creep. 10% headroom covers posting
    // lists caught mid-window and replay batches of uneven size.
    let baseline = high_water[1];
    assert!(baseline > 0, "footprint accounting returned zeros: {high_water:?}");
    for (seg, &hw) in high_water.iter().enumerate().skip(2) {
        assert!(
            hw as f64 <= baseline as f64 * 1.10,
            "soak: segment {seg} high-water {hw} exceeds 1.1x baseline {baseline}: {high_water:?}"
        );
    }
}

mod recovery_equivalence {
    //! Property: recovering a lost session by reconciliation yields
    //! byte-for-byte the same replica content as a full reinstall, for
    //! arbitrary divergence histories — including delete-heavy ones where
    //! most of the lost updates are removals the digest cannot list
    //! directly.

    use super::*;
    use proptest::prelude::*;

    /// One divergence step applied to the master while the replica's
    /// session is detached. `kind` picks delete/add/modify; the
    /// distribution is delete-heavy on purpose.
    type HistoryOp = (u8, u8, bool);

    fn apply_history(master: &mut SyncMaster, ops: &[HistoryOp]) {
        for (idx, kind, toggle) in ops {
            let i = *idx as usize % ENTRIES;
            let op = match kind % 5 {
                // Two arms out of five delete: delete-heavy histories.
                0 | 1 => fbdr_dit::UpdateOp::Delete(dn(i)),
                2 => fbdr_dit::UpdateOp::Add(entry(i, &serial(*toggle, i))),
                _ => fbdr_dit::UpdateOp::Modify {
                    dn: dn(i),
                    mods: vec![fbdr_dit::Modification::Replace(
                        "serialNumber".into(),
                        vec![serial(*toggle, i).into()],
                    )],
                },
            };
            // Deleting absent entries / re-adding present ones no-ops.
            let _ = master.apply(op);
        }
    }

    fn sorted_answer(replica: &FilterReplica) -> Vec<Entry> {
        let mut v = replica.try_answer(&filter_request()).expect("filter answers its query");
        v.sort_by(|a, b| a.dn().cmp(b.dn()));
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn reconcile_recovery_equals_reinstall_recovery(
            ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..60),
        ) {
            let mut master = build_master();
            let replica = FilterReplica::new(0);
            replica.install_filter(&mut master, filter_request()).unwrap();

            // Divergence accrues while the session is detached, then the
            // master forgets the session entirely. The out-of-filter
            // sentinel add guarantees at least one op lands after the
            // install, so `expire_idle(0)` sees the session as idle even
            // for an empty history.
            apply_history(&mut master, &ops);
            master.apply(fbdr_dit::UpdateOp::Add(entry(ENTRIES, &serial(false, ENTRIES)))).unwrap();
            prop_assert_eq!(master.expire_idle(0), 1, "the detached session expired");

            // One replica recovers through the reconcile rung...
            let clock = SimClock::new();
            let mut driver = SyncDriver::with_clock(
                RetryConfig { max_retries: 0, jitter_seed: 1, ..RetryConfig::default() },
                clock,
            );
            replica.sync_with(&mut master, &mut driver).expect("reconcile recovery");
            let d = driver.stats();
            prop_assert_eq!(d.reconciliations, 1, "recovery went through reconcile: {:?}", d);
            prop_assert_eq!(d.reinstalls, 0);
            filters_answer_themselves_as_the_scan_does(&replica);

            // ...while a fresh replica installs the same filter from
            // scratch — the reinstall rung's exact content.
            let fresh = FilterReplica::new(1);
            fresh.install_filter(&mut master, filter_request()).unwrap();

            prop_assert_eq!(sorted_answer(&replica), sorted_answer(&fresh));
        }
    }
}

