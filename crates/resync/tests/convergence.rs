//! Convergence properties: after any sequence of updates and a sync cycle,
//! the replica content equals the master's current answer — for ReSync
//! (poll and persist) and for every convergent baseline.

use fbdr_dit::{ChangeRecord, History, Modification, UpdateOp};
use fbdr_ldap::{Dn, Entry, Filter, Rdn, Scope, SearchRequest};
use fbdr_resync::baseline::{
    divergence, ChangelogSync, FullReload, RetainSync, Synchronizer, TombstoneSync,
};
use fbdr_resync::{NotifyPolicy, ReSyncControl, ReplicaContent, SyncAction, SyncMaster};
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

/// Applies an abstract op, ignoring precondition failures (they model
/// clients racing each other); the record of an accepted one.
fn apply(m: &mut SyncMaster, op: &Op) -> Option<ChangeRecord> {
    let applied = match op {
        Op::Add { id, dept } => m.apply(UpdateOp::Add(entry_of(*id, *dept))),
        Op::Delete { id } => m.apply(UpdateOp::Delete(dn_of(*id))),
        Op::SetDept { id, dept } => m.apply(UpdateOp::Modify {
            dn: dn_of(*id),
            mods: vec![Modification::Replace("dept".into(), vec![dept.to_string().into()])],
        }),
        Op::SetMail { id, tag } => m.apply(UpdateOp::Modify {
            dn: dn_of(*id),
            mods: vec![Modification::Replace("mail".into(), vec![format!("m{tag}@x").into()])],
        }),
        Op::Rename { id, new_id } => m.apply(UpdateOp::ModifyDn {
            dn: dn_of(*id),
            new_rdn: Rdn::new("cn", format!("p{new_id}")),
            new_superior: None,
        }),
    };
    applied.ok()
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

    /// Every convergent baseline actually converges on random streams.
    #[test]
    fn baselines_converge(ops in prop::collection::vec(op(), 1..50), cycles in 1usize..4) {
        let req = request();
        let strategies: Vec<Box<dyn Synchronizer>> = vec![
            Box::new(FullReload),
            Box::new(RetainSync::default()),
            Box::new(TombstoneSync::default()),
            Box::new(ChangelogSync::default()),
        ];
        for mut s in strategies {
            let mut m = fresh_master();
            let mut history = History::new();
            let mut replica = ReplicaContent::new();
            s.sync(m.dit(), &history, &req, &mut replica);
            let chunk = ops.len().div_ceil(cycles);
            for part in ops.chunks(chunk.max(1)) {
                for o in part {
                    if let Some(rec) = apply(&mut m, o) {
                        history.record(rec);
                    }
                }
                s.sync(m.dit(), &history, &req, &mut replica);
                prop_assert!(
                    divergence(m.dit(), &req, &replica).is_empty(),
                    "{} diverged", s.name()
                );
            }
        }
    }
}
