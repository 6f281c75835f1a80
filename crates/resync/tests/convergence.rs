//! Convergence properties: after any sequence of updates and a sync cycle,
//! the replica content equals the master's current answer — for ReSync
//! (poll and persist), for a reconciliation whose master moves between
//! its two rounds, and for a reconciliation whose round one ships nothing.
//! (The §5.2 baselines' own convergence test is in `fbdr-bench`.)

use crossbeam::channel::Receiver;
use fbdr_dit::{ChangeRecord, Modification, UpdateOp};
use fbdr_ldap::{Dn, Entry, Filter, Rdn, Scope, SearchRequest};
use fbdr_resync::reconcile::{RangeRequest, RangeResponse, ReconcileRequest, ReconcileResponse};
use fbdr_resync::{
    divergence, CompositeCookie, Cookie, NotifyBatch, NotifyPolicy, ReSyncControl, ReplicaContent,
    RetryConfig, ShardCoordinator, ShardId, ShardMap, ShardStatus, ShardedMaster, SyncAction,
    SyncDriver, SyncError, SyncMaster, SyncMode, SyncResponse, SyncTransport,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Person `id` at `dn`.
fn person(dn: Dn, id: usize, dept: u8) -> Entry {
    Entry::new(dn)
        .with("objectclass", "person")
        .with("cn", &format!("p{id}"))
        .with("dept", &dept.to_string())
}

fn entry_of(id: usize, dept: u8) -> Entry {
    person(dn_of(id), id, dept)
}

fn fresh_master() -> SyncMaster {
    let mut m = SyncMaster::new();
    m.dit_mut().add_suffix("o=xyz".parse().expect("valid dn"));
    m.dit_mut().add(Entry::new("o=xyz".parse().expect("valid dn"))).expect("suffix add");
    m
}

/// A master that already holds content when the sessions start: four
/// entries inside the replicated filter, two outside it.
fn seeded_master() -> SyncMaster {
    let mut m = fresh_master();
    for id in 0..6 {
        m.dit_mut().add(entry_of(id, if id < 4 { 1 } else { 2 })).expect("seed entry");
    }
    m
}

/// A coalescing policy whose knobs never fire: only a forced flush sends.
fn flush_on_demand() -> NotifyPolicy {
    NotifyPolicy::coalescing(u64::MAX, u64::MAX)
}

/// The update an abstract op stands for, with person `id` at `dn(id)`.
/// A rename changes the RDN only.
fn update(op: &Op, dn: fn(usize) -> Dn) -> UpdateOp {
    match op {
        Op::Add { id, dept } => UpdateOp::Add(person(dn(*id), *id, *dept)),
        Op::Delete { id } => UpdateOp::Delete(dn(*id)),
        Op::SetDept { id, dept } => UpdateOp::Modify {
            dn: dn(*id),
            mods: vec![Modification::Replace("dept".into(), vec![dept.to_string().into()])],
        },
        Op::SetMail { id, tag } => UpdateOp::Modify {
            dn: dn(*id),
            mods: vec![Modification::Replace("mail".into(), vec![format!("m{tag}@x").into()])],
        },
        Op::Rename { id, new_id } => UpdateOp::ModifyDn {
            dn: dn(*id),
            new_rdn: Rdn::new("cn", format!("p{new_id}")),
            new_superior: None,
        },
    }
}

/// Applies an abstract op, ignoring precondition failures (they model
/// clients racing each other); the record of an accepted one.
fn apply(m: &mut SyncMaster, op: &Op) -> Option<ChangeRecord> {
    m.apply(update(op, dn_of)).ok()
}

fn request() -> SearchRequest {
    SearchRequest::new(
        "o=xyz".parse().expect("valid dn"),
        Scope::Subtree,
        Filter::parse("(&(objectclass=person)(dept=1))").expect("valid filter"),
    )
}

/// Full comparison: DNs *and* entry contents must match the master.
fn assert_converged(m: &SyncMaster, req: &SearchRequest, replica: &ReplicaContent) {
    assert!(
        divergence(m.dit(), req, replica).is_empty(),
        "replica DNs diverge from master"
    );
    for e in replica.iter() {
        let master_entry = m.dit().get(e.dn()).expect("replica entry exists at master");
        assert_eq!(e, master_entry, "entry content diverged for {}", e.dn());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// ReSync poll mode converges after every poll, at arbitrary poll
    /// boundaries within the op stream.
    #[test]
    fn resync_poll_converges(ops in prop::collection::vec(op(), 1..60), poll_every in 1usize..7) {
        let mut m = fresh_master();
        let req = request();
        let mut replica = ReplicaContent::new();
        let resp = m.resync(&req, ReSyncControl::poll(None)).expect("initial resync");
        let mut cookie = resp.cookie.expect("cookie issued");
        replica.apply_all(&resp.actions);
        assert_converged(&m, &req, &replica);

        for (i, o) in ops.iter().enumerate() {
            apply(&mut m, o);
            if (i + 1) % poll_every == 0 {
                let resp = m.resync(&req, ReSyncControl::poll(Some(cookie))).expect("poll");
                cookie = resp.cookie.expect("cookie issued");
                replica.apply_all(&resp.actions);
                assert_converged(&m, &req, &replica);
            }
        }
        let resp = m.resync(&req, ReSyncControl::poll(Some(cookie))).expect("final poll");
        replica.apply_all(&resp.actions);
        assert_converged(&m, &req, &replica);
    }

    /// ReSync persist mode: applying streamed notifications converges.
    #[test]
    fn resync_persist_converges(ops in prop::collection::vec(op(), 1..60)) {
        let mut m = fresh_master();
        let req = request();
        let mut replica = ReplicaContent::new();
        let (resp, rx) = m.resync_persist(&req, None).expect("initial persist");
        replica.apply_all(&resp.actions);

        for o in &ops {
            apply(&mut m, o);
        }
        for batch in rx.try_iter() {
            replica.apply_all(&batch.actions);
        }
        assert_converged(&m, &req, &replica);
    }

    /// One drain, three triggers: the same op stream — renames, entries
    /// that arrive and depart (or depart and return) between deliveries —
    /// reaches a replica by a poll every `k` ops, by the immediate persist
    /// policy, and by a coalescing policy force-flushed every `k` ops. A
    /// poll and a flush at the same boundary carry the same actions in the
    /// same order, all three contents equal the master's answer, and a
    /// poll on either persist session afterwards finds nothing left over.
    #[test]
    fn poll_flush_and_immediate_deliver_the_same_ledger(
        ops in prop::collection::vec(op(), 1..60),
        k in 1usize..7,
    ) {
        let req = request();
        let mut polled = seeded_master();
        let mut immediate = seeded_master();
        let mut coalesced = seeded_master();
        coalesced.set_notify_policy(flush_on_demand());

        let (mut by_poll, mut by_push, mut by_flush) =
            (ReplicaContent::new(), ReplicaContent::new(), ReplicaContent::new());
        let first = polled.resync(&req, ReSyncControl::poll(None)).expect("initial poll");
        by_poll.apply_all(&first.actions);
        let mut poll_cookie = first.cookie.expect("cookie issued");
        let (first, push_rx) = immediate.resync_persist(&req, None).expect("initial persist");
        by_push.apply_all(&first.actions);
        let push_cookie = first.cookie.expect("cookie issued");
        let (first, flush_rx) = coalesced.resync_persist(&req, None).expect("initial persist");
        by_flush.apply_all(&first.actions);
        let flush_cookie = first.cookie.expect("cookie issued");

        for (i, o) in ops.iter().enumerate() {
            for m in [&mut polled, &mut immediate, &mut coalesced] {
                apply(m, o);
            }
            for batch in push_rx.try_iter() {
                by_push.apply_all(&batch.actions);
            }
            assert_converged(&immediate, &req, &by_push);
            if (i + 1) % k == 0 || i + 1 == ops.len() {
                let resp =
                    polled.resync(&req, ReSyncControl::poll(Some(poll_cookie))).expect("poll");
                poll_cookie = resp.cookie.expect("cookie issued");
                let wakeups = coalesced.flush_notifications(true).len();
                let flushed: Vec<SyncAction> =
                    flush_rx.try_iter().flat_map(|batch| batch.actions).collect();
                prop_assert_eq!(&resp.actions, &flushed, "poll and flush differ at op {}", i);
                prop_assert_eq!(wakeups, usize::from(!flushed.is_empty()));
                by_poll.apply_all(&resp.actions);
                by_flush.apply_all(&flushed);
                assert_converged(&polled, &req, &by_poll);
                assert_converged(&coalesced, &req, &by_flush);
            }
        }
        for (m, cookie) in [(&mut immediate, push_cookie), (&mut coalesced, flush_cookie)] {
            let resp = m.resync(&req, ReSyncControl::poll(Some(cookie))).expect("poll after push");
            prop_assert!(resp.actions.is_empty(), "the push left {:?} behind", resp.actions);
        }
    }

    /// The persist channel goes away mid-stream — after the replica has
    /// applied what reached it — and the replica finishes by polling the
    /// same session. Whatever the policy, the poll picks up exactly where
    /// the stream stopped and no deletion is lost (chaos seed 80's
    /// property, by construction of the one ledger rather than by a
    /// coherence rule).
    #[test]
    fn dropped_receiver_finishes_by_poll_without_a_lost_deletion(
        ops in prop::collection::vec(op(), 1..60),
        drop_at in 0usize..60,
        k in 1usize..7,
        coalesce in any::<bool>(),
    ) {
        let req = request();
        let mut m = seeded_master();
        if coalesce {
            m.set_notify_policy(flush_on_demand());
        }
        let mut replica = ReplicaContent::new();
        let (first, rx) = m.resync_persist(&req, None).expect("initial persist");
        replica.apply_all(&first.actions);
        let cookie = first.cookie.expect("cookie issued");

        let mut rx = Some(rx);
        for (i, o) in ops.iter().enumerate() {
            if i == drop_at % ops.len() {
                for batch in rx.take().expect("dropped once").try_iter() {
                    replica.apply_all(&batch.actions);
                }
            }
            apply(&mut m, o);
            if (i + 1) % k == 0 {
                m.flush_notifications(true);
            }
        }
        let resp = m.resync(&req, ReSyncControl::poll(Some(cookie))).expect("poll after the drop");
        replica.apply_all(&resp.actions);
        assert_converged(&m, &req, &replica);
    }

    /// Cookie-resume equivalence (the fault-free anchor for the chaos
    /// suite): a replica that polls after every few updates and a replica
    /// that polls once at the very end reach the *same* final content.
    /// Intermediate cookies are pure resumption points — where the poll
    /// boundaries fall changes traffic, never the fixpoint.
    #[test]
    fn many_small_polls_equal_one_big_poll(
        ops in prop::collection::vec(op(), 1..60),
        poll_every in 1usize..7,
    ) {
        let mut m = fresh_master();
        let req = request();

        // Both replicas start from the same initial load.
        let resp = m.resync(&req, ReSyncControl::poll(None)).expect("initial resync");
        let mut stepper = ReplicaContent::new();
        stepper.apply_all(&resp.actions);
        let mut stepper_cookie = resp.cookie.expect("cookie issued");

        let resp = m.resync(&req, ReSyncControl::poll(None)).expect("initial resync");
        let mut batcher = ReplicaContent::new();
        batcher.apply_all(&resp.actions);
        let batcher_cookie = resp.cookie.expect("cookie issued");

        for (i, o) in ops.iter().enumerate() {
            apply(&mut m, o);
            if (i + 1) % poll_every == 0 {
                let resp =
                    m.resync(&req, ReSyncControl::poll(Some(stepper_cookie))).expect("small poll");
                stepper_cookie = resp.cookie.expect("cookie issued");
                stepper.apply_all(&resp.actions);
            }
        }
        let resp =
            m.resync(&req, ReSyncControl::poll(Some(stepper_cookie))).expect("final small poll");
        stepper.apply_all(&resp.actions);

        let resp = m.resync(&req, ReSyncControl::poll(Some(batcher_cookie))).expect("big poll");
        batcher.apply_all(&resp.actions);

        let mut stepped: Vec<&Entry> = stepper.iter().collect();
        let mut batched: Vec<&Entry> = batcher.iter().collect();
        stepped.sort_by(|a, b| a.dn().cmp(b.dn()));
        batched.sort_by(|a, b| a.dn().cmp(b.dn()));
        prop_assert_eq!(stepped, batched, "poll granularity changed the fixpoint");
        assert_converged(&m, &req, &stepper);
    }

    /// Poll traffic never exceeds full reload (entry-PDU-wise the replica
    /// receives at most the changed set).
    #[test]
    fn resync_poll_traffic_bounded_by_reload(ops in prop::collection::vec(op(), 1..40)) {
        let mut m = fresh_master();
        let req = request();
        let resp = m.resync(&req, ReSyncControl::poll(None)).expect("initial resync");
        let cookie = resp.cookie.expect("cookie issued");
        for o in &ops {
            apply(&mut m, o);
        }
        let resp = m.resync(&req, ReSyncControl::poll(Some(cookie))).expect("poll");
        let t = resp.traffic();
        let full = m.dit().search(&req).len() as u64;
        prop_assert!(t.full_entries <= full + ops.len() as u64);
        // Deletes are DN-only.
        for a in &resp.actions {
            if let fbdr_resync::SyncAction::Delete(_) = a {
                prop_assert!(!a.carries_entry());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Updates between the two rounds of a reconciliation
// ---------------------------------------------------------------------

/// Countries the reconciled directory spreads people over; on the
/// sharded master each is a shard of its own.
const COUNTRIES: usize = 2;

fn country_dn(c: usize) -> Dn {
    format!("c=s{c},o=xyz").parse().expect("valid dn")
}

/// Person `id` under its country, so a leaf rename never crosses a shard.
fn placed_dn(id: usize) -> Dn {
    format!("cn=p{id},c=s{},o=xyz", id % COUNTRIES).parse().expect("valid dn")
}

/// A master the wrapper moves between the rounds, and the answer a
/// replica of it must end on.
trait Master: SyncTransport {
    fn update(&mut self, op: UpdateOp);
    fn answer(&self, req: &SearchRequest) -> Vec<Entry>;
}

impl Master for SyncMaster {
    fn update(&mut self, op: UpdateOp) {
        let _ = self.apply(op);
    }
    fn answer(&self, req: &SearchRequest) -> Vec<Entry> {
        self.dit().search(req)
    }
}

impl Master for ShardedMaster {
    fn update(&mut self, op: UpdateOp) {
        let _ = self.apply(op);
    }
    fn answer(&self, req: &SearchRequest) -> Vec<Entry> {
        self.search(req)
    }
}

/// A transport that moves the master between the two rounds of every
/// reconciliation: before forwarding a range round it applies `k`
/// updates drawn from a seeded stream.
struct UpdatesBetweenRounds<M> {
    inner: M,
    rng: StdRng,
    k: usize,
    range_rounds: usize,
}

impl<M: Master> SyncTransport for UpdatesBetweenRounds<M> {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }
    fn resync_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
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
        self.inner.reconcile_at(shard, request, req)
    }
    fn reconcile_ranges_at(
        &mut self,
        shard: ShardId,
        cookie: Cookie,
        req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        self.range_rounds += 1;
        for _ in 0..self.k {
            let op = between_op(&mut self.rng);
            self.inner.update(update(&op, placed_dn));
        }
        self.inner.reconcile_ranges_at(shard, cookie, req)
    }
}

/// One update between the rounds: an add, a modify, a delete or a leaf
/// rename, of a person who ends up in the filter (`dept=1`) or out of it.
fn between_op(rng: &mut StdRng) -> Op {
    let id = rng.gen_range(0..12);
    let dept = if rng.gen_bool(0.5) { 1 } else { rng.gen_range(2..4) };
    match rng.gen_range(0..4) {
        0 => Op::Add { id, dept },
        1 => Op::SetDept { id, dept },
        2 => Op::Delete { id },
        _ => Op::Rename { id, new_id: rng.gen_range(0..12) },
    }
}

/// `people[id]` is person `id`'s department, under the skeleton
/// `o=xyz` / `c=s0` / `c=s1`: on one master, or on two shards of one
/// country each.
fn placed_masters(people: &[u8]) -> (SyncMaster, ShardedMaster) {
    let skeleton = |countries: &[usize]| {
        let mut m = fresh_master();
        for &c in countries {
            let country = Entry::new(country_dn(c)).with("objectclass", "country");
            m.dit_mut().add(country).expect("country add");
        }
        m
    };
    let mut map = ShardMap::new(ShardId::ZERO);
    map.assign(country_dn(1), ShardId::new(1));
    let mut one = skeleton(&[0, 1]);
    let mut two = ShardedMaster::from_masters(map, vec![skeleton(&[0]), skeleton(&[1])]);
    for (id, &dept) in people.iter().enumerate() {
        one.apply(UpdateOp::Add(person(placed_dn(id), id, dept))).expect("person add");
        two.apply(UpdateOp::Add(person(placed_dn(id), id, dept))).expect("person add");
    }
    (one, two)
}

/// Installs every slice of the filter on `master`, lets `detached` land
/// while the replica is away (its held set goes stale and keeps deleted
/// people), kills the sessions, and syncs through
/// [`SyncDriver::sync_slice`]: every slice must reconcile — `k` updates
/// landing between the rounds of each exchange — and one follow-up poll
/// must leave the replica on the master's answer, entries included.
/// Returns whether any range round ran.
fn reconcile_through_moving_master<M: Master>(
    master: M,
    map: &ShardMap,
    detached: &[Op],
    k: usize,
    seed: u64,
) -> Result<bool, TestCaseError> {
    let req = request();
    let mut t =
        UpdatesBetweenRounds { inner: master, rng: StdRng::seed_from_u64(seed), k, range_rounds: 0 };
    let mut driver = SyncDriver::new(RetryConfig::default());
    let mut cookie = CompositeCookie::new();
    let mut replica = ReplicaContent::new();
    for (shard, sub) in map.split(&req) {
        let resp = driver.resync(&mut t, shard, &sub.to_request(), ReSyncControl::poll(None)).expect("install");
        replica.apply_all(&resp.actions);
        cookie.insert(shard, resp.cookie.expect("cookie issued"));
    }
    for op in detached {
        t.inner.update(update(op, placed_dn));
    }
    for (shard, c) in cookie.iter() {
        t.abandon_at(shard, c);
    }
    for want in [ShardStatus::Reconciled, ShardStatus::Updated] {
        for (shard, sub) in map.split(&req) {
            let owned = |e: &&Entry| map.shard_of(e.dn()) == shard;
            let held = || replica.iter().filter(owned).cloned().collect();
            let out = driver.sync_slice(&mut t, shard, &sub.to_request(), &mut cookie, &held);
            prop_assert_eq!(&out.status, &want, "{} ended on the wrong rung", shard);
            replica.apply_all(&out.actions);
        }
    }
    let mut want = t.inner.answer(&req);
    want.sort_by(|a, b| a.dn().cmp(b.dn()));
    let lost = replica.iter().filter(|e| !want.iter().any(|w| w.dn() == e.dn())).count();
    prop_assert_eq!(lost, 0, "deletions lost");
    prop_assert_eq!(replica.iter().collect::<Vec<_>>(), want.iter().collect::<Vec<_>>());
    Ok(t.range_rounds > 0)
}

/// Reconciliations run by `updates_between_the_rounds_reach_the_replica`,
/// and how many of them needed a range round.
static RECONCILED: AtomicUsize = AtomicUsize::new(0);
static RANGE_ROUNDS: AtomicUsize = AtomicUsize::new(0);
const BETWEEN_ROUNDS_CASES: u32 = 64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(BETWEEN_ROUNDS_CASES))]

    /// The range round answers from the master's live content, so the
    /// master may move between the two rounds: whatever changed since
    /// round one is in the session's ledger and reaches the replica by
    /// the next poll. On one `SyncMaster` and on a two-shard
    /// `ShardedMaster`.
    #[test]
    fn updates_between_the_rounds_reach_the_replica(
        people in prop::collection::vec(0u8..4, 12),
        detached in prop::collection::vec(op(), 1..16),
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        let (one, two) = placed_masters(&people);
        let two_map = two.map().clone();
        let ranged = [
            reconcile_through_moving_master(one, &ShardMap::single(), &detached, k, seed)?,
            reconcile_through_moving_master(two, &two_map, &detached, k, seed)?,
        ];
        let ran = ranged.iter().filter(|&&r| r).count();
        let runs = RECONCILED.fetch_add(ranged.len(), Ordering::Relaxed) + ranged.len();
        let ran = RANGE_ROUNDS.fetch_add(ran, Ordering::Relaxed) + ran;
        if runs == ranged.len() * BETWEEN_ROUNDS_CASES as usize {
            // Not vacuous: the rounds the updates fall between did run.
            prop_assert!(4 * ran >= runs, "a range round ran in {} of {} reconciliations", ran, runs);
        }
    }
}

// ---------------------------------------------------------------------
// The range round alone
// ---------------------------------------------------------------------

/// A transport that loses every entry round one ships, as if each
/// diverged item were a Bloom false positive: whatever the replica lacks,
/// only the range round can bring it back.
struct NoRoundOneUpserts<M> {
    inner: M,
    dropped: usize,
    range_rounds: usize,
}

impl<M: Master> SyncTransport for NoRoundOneUpserts<M> {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }
    fn resync_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
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
        let mut resp = self.inner.reconcile_at(shard, request, req)?;
        self.dropped += resp.upserts.len();
        resp.upserts.clear();
        Ok(resp)
    }
    fn reconcile_ranges_at(
        &mut self,
        shard: ShardId,
        cookie: Cookie,
        req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        self.range_rounds += 1;
        self.inner.reconcile_ranges_at(shard, cookie, req)
    }
}

/// Eight people in the filter, installed through a coordinator over
/// `map`; then, while the sessions are dead, the master adds p8, modifies
/// p1, deletes p2 and renames p3 to p9 (on two shards: p2 and p8 live on
/// shard 0, p1 and p3 on shard 1). Every slice must reconcile with round
/// one's entries lost: round two alone brings back every change — p1 as a
/// delete of the held version followed by an add of the same DN — and a
/// follow-up poll has nothing left to send.
fn round_two_alone<M: Master>(master: M, map: ShardMap) {
    let req = request();
    let mut t = NoRoundOneUpserts { inner: master, dropped: 0, range_rounds: 0 };
    let mut coord = ShardCoordinator::new(map);
    let (actions, mut cookie, _, _) = coord.install(&mut t, &req, SyncMode::Poll).expect("install");
    let mut replica = ReplicaContent::new();
    replica.apply_all(&actions);
    assert_eq!(replica.len(), 8);

    let detached = [
        Op::Add { id: 8, dept: 1 },
        Op::SetMail { id: 1, tag: 7 },
        Op::Delete { id: 2 },
        Op::Rename { id: 3, new_id: 9 },
    ];
    for op in &detached {
        t.inner.update(update(op, placed_dn));
    }
    for (shard, c) in cookie.iter() {
        t.abandon_at(shard, c);
    }

    let held = || replica.iter().cloned().collect();
    let outcomes = coord.sync_filter(&mut t, &req, &mut cookie, &held);
    let slices = outcomes.len();
    assert!(t.dropped >= 3, "round one shipped p1, p8 and p9, and lost them: {}", t.dropped);
    assert_eq!(t.range_rounds, slices, "every slice ran its range round");
    let (mut deleted, mut added) = (Vec::new(), Vec::new());
    for out in &outcomes {
        assert_eq!(out.status, ShardStatus::Reconciled, "{} ended on the wrong rung", out.shard);
        let p1 = placed_dn(1);
        let at = |add: bool| {
            let kind = |a: &SyncAction| matches!(a, SyncAction::Add(_)) == add;
            out.actions.iter().position(|a| kind(a) && a.dn() == &p1)
        };
        if let Some(add) = at(true) {
            let delete = at(false).expect("p1's held version is deleted");
            assert!(delete < add, "p1 is deleted before it is added again");
        }
        for a in &out.actions {
            match a {
                SyncAction::Delete(dn) => deleted.push(dn.to_string()),
                SyncAction::Add(e) => added.push(e.dn().to_string()),
                other => panic!("a reconcile returned {other:?}"),
            }
        }
        replica.apply_all(&out.actions);
    }
    deleted.sort();
    added.sort();
    let names = |ids: &[usize]| ids.iter().map(|&id| placed_dn(id).to_string()).collect::<Vec<_>>();
    assert_eq!(deleted, names(&[1, 2, 3]));
    assert_eq!(added, names(&[1, 8, 9]));
    let mut want = t.inner.answer(&req);
    want.sort_by(|a, b| a.dn().cmp(b.dn()));
    assert_eq!(replica.iter().collect::<Vec<_>>(), want.iter().collect::<Vec<_>>());

    let held = || replica.iter().cloned().collect();
    for out in coord.sync_filter(&mut t, &req, &mut cookie, &held) {
        assert_eq!(out.status, ShardStatus::Updated);
        assert!(out.actions.is_empty(), "{} had {:?} left to send", out.shard, out.actions);
    }
}

#[test]
fn the_range_round_alone_recovers_every_change_on_one_shard() {
    let (one, _) = placed_masters(&[1; 8]);
    round_two_alone(one, ShardMap::single());
}

#[test]
fn the_range_round_alone_recovers_every_change_on_two_shards() {
    let (_, two) = placed_masters(&[1; 8]);
    let map = two.map().clone();
    round_two_alone(two, map);
}
