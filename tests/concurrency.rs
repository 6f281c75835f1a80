//! Thread-safety: one network (master + replica node) serving concurrent
//! clients, lock-free `&self` query answering, the master store keeping an
//! attribute under a shared borrow, epoch consistency under a faulty
//! concurrent writer, and Send/Sync guarantees on the core types
//! (C-SEND-SYNC).

#[allow(dead_code)]
mod support;

use fbdr::core::deploy::ReplicaNode;
use fbdr::dit::{DitStore, NamingContext};
use fbdr::net::Network;
use fbdr::prelude::*;
use fbdr_bench::subtree::SubtreeReplica;
use fbdr_faults::{FaultPlan, FaultyLink, SimClock};
use fbdr_resync::{
    Cookie, NotifyBatch, ReSyncControl, RetryConfig, ShardId, SyncDriver, SyncError,
    SyncResponse, SyncTransport, SystemClock,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;
use support::allocations_of;

#[test]
fn send_sync_markers() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DitStore>();
    assert_send_sync::<SyncMaster>();
    assert_send_sync::<Network>();
    assert_send_sync::<Entry>();
    assert_send_sync::<Filter>();
    assert_send_sync::<SearchRequest>();
    assert_send_sync::<FilterReplica>();
    assert_send_sync::<SubtreeReplica>();
    assert_send_sync::<fbdr::replica::AtomicReplicaStats>();
    assert_send_sync::<fbdr::containment::ContainmentEngine>();
}

/// Acceptance shape of the read/write split: `try_answer(&self)` is
/// called concurrently from plain shared references — no `Mutex`, no
/// `RwLock`, no cloning — and the atomic statistics come out exact.
#[test]
fn concurrent_try_answer_without_external_lock() {
    let mut dit = DitStore::new();
    dit.add_suffix("o=xyz".parse().expect("dn"));
    dit.add(Entry::new("o=xyz".parse().expect("dn")).with("objectclass", "organization"))
        .expect("add");
    for i in 0..100 {
        dit.add(
            Entry::new(format!("cn=p{i},o=xyz").parse().expect("dn"))
                .with("objectclass", "person")
                .with("serialNumber", &format!("{:06}", 400_000 + i)),
        )
        .expect("add");
    }
    let mut master = SyncMaster::with_dit(dit);
    let replica = FilterReplica::new(0);
    replica
        .install_filter(
            &mut master,
            SearchRequest::from_root(Filter::parse("(serialNumber=4000*)").expect("ok")),
        )
        .expect("install");

    const THREADS: usize = 4;
    const PER_THREAD: usize = 250;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let replica = &replica; // shared &FilterReplica, nothing else
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let serial = 400_000 + (t * 31 + i * 7) % 200; // half in, half out
                    let q = SearchRequest::from_root(
                        Filter::parse(&format!("(serialNumber={serial:06})")).expect("ok"),
                    );
                    let answer = replica.try_answer(&q);
                    if serial < 400_100 {
                        // The 4000xx block (100 serials) is replicated.
                        assert_eq!(answer.expect("contained query hits").len(), 1);
                    } else {
                        assert!(answer.is_none(), "serial {serial} is outside the filter");
                    }
                }
            });
        }
    });

    // Relaxed counters are individually exact once the readers quiesce.
    let stats = replica.stats();
    assert_eq!(stats.queries, (THREADS * PER_THREAD) as u64);
    let expected_hits: u64 = (0..THREADS)
        .flat_map(|t| (0..PER_THREAD).map(move |i| (t * 31 + i * 7) % 200))
        .filter(|&off| off < 100)
        .count() as u64;
    assert_eq!(stats.hits, expected_hits);
    assert_eq!(stats.generalized_hits, expected_hits);
}

/// Readers hammer `try_answer` while a writer runs `sync_with` cycles
/// through a seeded faulty link. Every group's members are updated to a
/// new version *together* and shipped in one sync batch, so a reader must
/// never observe a mixed-version group — that would be a torn read across
/// epochs. After the faults quiesce, the replica must converge with the
/// master.
#[test]
fn readers_see_consistent_epochs_under_faulty_sync() {
    const GROUPS: usize = 5;
    const MEMBERS: usize = 4;
    const ROUNDS: usize = 120;

    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix("o=xyz".parse().expect("dn"));
    master
        .dit_mut()
        .add(Entry::new("o=xyz".parse().expect("dn")).with("objectclass", "organization"))
        .expect("add");
    for g in 0..GROUPS {
        for m in 0..MEMBERS {
            master
                .dit_mut()
                .add(
                    Entry::new(format!("cn=g{g}m{m},o=xyz").parse().expect("dn"))
                        .with("objectclass", "person")
                        .with("grp", &format!("g{g}"))
                        .with("ver", "v0"),
                )
                .expect("add");
        }
    }

    let group_query = |g: usize| {
        SearchRequest::from_root(Filter::parse(&format!("(grp=g{g})")).expect("ok"))
    };

    let replica = FilterReplica::new(0);
    for g in 0..GROUPS {
        replica.install_filter(&mut master, group_query(g)).expect("install");
    }

    // Seeded fault schedule: drops and duplicates, deterministic per run.
    let plan = FaultPlan::builder(0xE70C_5EED)
        .drop_request(0.15)
        .drop_response(0.15)
        .duplicate(0.10)
        .latency_ms(1, 5)
        .build();
    let clock = SimClock::new();
    let mut link = FaultyLink::new(master, plan, clock.clone());
    let mut driver = SyncDriver::with_clock(
        RetryConfig {
            max_retries: 2,
            base_backoff_ms: 10,
            max_backoff_ms: 40,
            jitter_seed: 7,
            ..RetryConfig::default()
        },
        clock,
    );

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Readers: no external lock, just &replica.
        for t in 0..3 {
            let replica = &replica;
            let done = &done;
            s.spawn(move || {
                let mut answered = 0u64;
                let mut i = t; // stagger the group each thread starts on
                while !done.load(Ordering::Relaxed) {
                    let g = i % GROUPS;
                    i += 1;
                    let Some(entries) = replica.try_answer(&group_query(g)) else {
                        continue; // a stale-marked miss is impossible here,
                                  // but don't assert liveness mid-outage
                    };
                    answered += 1;
                    assert_eq!(entries.len(), MEMBERS, "group g{g} must be complete");
                    let vers: Vec<&str> = entries
                        .iter()
                        .map(|e| {
                            e.first_value(&"ver".into())
                                .expect("every member has a ver")
                                .raw()
                        })
                        .collect();
                    assert!(
                        vers.windows(2).all(|w| w[0] == w[1]),
                        "torn read: group g{g} answered with mixed versions {vers:?}"
                    );
                }
                answered
            });
        }

        // Writer: bump every member of every group to v{round}, then one
        // sync cycle — each published epoch holds whole rounds only.
        for round in 1..=ROUNDS {
            for g in 0..GROUPS {
                for m in 0..MEMBERS {
                    link.master_mut()
                        .apply(UpdateOp::Modify {
                            dn: format!("cn=g{g}m{m},o=xyz").parse().expect("dn"),
                            mods: vec![Modification::Replace(
                                "ver".into(),
                                vec![format!("v{round}").into()],
                            )],
                        })
                        .expect("apply");
                }
            }
            replica
                .sync_with(&mut link, &mut driver)
                .expect("only non-transient errors may surface");
        }

        // Faults cease; clean cycles must converge the replica.
        link.quiesce();
        for _ in 0..3 {
            replica.sync_with(&mut link, &mut driver).expect("clean cycle");
        }
        done.store(true, Ordering::Relaxed);
    });

    assert_eq!(replica.stale_filter_count(), 0, "still stale after quiesce");
    for g in 0..GROUPS {
        let mut want = link.master().dit().search(&group_query(g));
        want.sort_by(|a, b| a.dn().cmp(b.dn()));
        let mut got = replica.try_answer(&group_query(g)).expect("stored filter answers");
        got.sort_by(|a, b| a.dn().cmp(b.dn()));
        assert_eq!(got, want, "group g{g} diverged from the master after quiesce");
        let final_ver = format!("v{ROUNDS}");
        assert!(
            got.iter()
                .all(|e| e.first_value(&"ver".into()).map(fbdr::ldap::AttrValue::raw)
                    == Some(final_ver.as_str())),
            "group g{g} missing the final round"
        );
    }
    // The readers actually raced the writer.
    assert!(replica.stats().queries > 0);
}

/// A transport whose poll leg parks until released: the caller is held
/// mid-cycle, writer lock taken, for as long as the test wants.
struct ParkedLink {
    master: SyncMaster,
    parked: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
}

impl SyncTransport for ParkedLink {
    fn resync_at(
        &mut self,
        _shard: ShardId,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        self.parked.send(()).expect("test is listening");
        self.release.recv().expect("test releases the writer");
        self.master.resync(request, ctl)
    }
    fn take_receiver_at(
        &mut self,
        _shard: ShardId,
        cookie: Cookie,
    ) -> Option<crossbeam::channel::Receiver<NotifyBatch>> {
        self.master.take_receiver(cookie)
    }
    fn abandon_at(&mut self, _shard: ShardId, cookie: Cookie) {
        self.master.abandon(cookie);
    }
}

/// A master holding one person, `ver=v0`, and a replica holding it
/// through `(objectclass=person)`; the master has since moved it to
/// `ver=v1`, which the replica's next cycle brings.
fn one_person_behind(replica: &FilterReplica) -> SyncMaster {
    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix("o=xyz".parse().expect("dn"));
    master.dit_mut().add(Entry::new("o=xyz".parse().expect("dn"))).expect("add");
    let person = "cn=p,o=xyz".parse::<Dn>().expect("dn");
    master
        .dit_mut()
        .add(Entry::new(person.clone()).with("objectclass", "person").with("ver", "v0"))
        .expect("add");
    let query = SearchRequest::from_root(Filter::parse("(objectclass=person)").expect("ok"));
    replica.install_filter(&mut master, query).expect("install");
    master
        .apply(UpdateOp::Modify {
            dn: person,
            mods: vec![Modification::Replace("ver".into(), vec!["v1".into()])],
        })
        .expect("apply");
    master
}

/// Runs a sync cycle of `replica` against `master` that parks inside its
/// transport leg (writer lock held, next epoch not yet published), runs
/// `read` on another thread meanwhile, and releases the cycle. Returns
/// what `read` returned, or fails when it did not return within five
/// seconds — when it waited for the writer.
fn read_while_a_writer_is_parked<T: Send>(
    replica: &FilterReplica,
    master: SyncMaster,
    read: impl FnOnce() -> T + Send,
) -> T {
    let (parked_tx, parked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let mut link = ParkedLink { master, parked: parked_tx, release: release_rx };
    let mut driver: SyncDriver<SystemClock> = SyncDriver::default();
    std::thread::scope(|s| {
        let writer = s.spawn(|| replica.sync_with(&mut link, &mut driver));
        parked.recv_timeout(Duration::from_secs(10)).expect("the cycle reaches its poll leg");
        // The read runs on its own thread so that a serialized read path
        // fails the test instead of hanging it.
        let (answered_tx, answered) = mpsc::channel();
        s.spawn(move || answered_tx.send(read()));
        let seen = answered.recv_timeout(Duration::from_secs(5));
        release.send(()).expect("writer is parked");
        writer.join().expect("no panic").expect("clean cycle");
        seen.expect("the read waited for the parked writer")
    })
}

/// The one `ver` value of the one entry of an answer.
fn ver(answer: Option<Vec<Entry>>) -> String {
    let entries = answer.expect("the stored filter answers");
    assert_eq!(entries.len(), 1);
    entries[0].first_value(&"ver".into()).expect("ver").raw().to_owned()
}

/// Readers never serialize behind the writer, as one deterministic
/// schedule: a sync cycle is parked inside its transport leg (writer lock
/// held, next epoch not yet published) and `try_answer` on another thread
/// still returns, from the pre-cycle epoch. A read path that takes the
/// writer lock blocks until the release and trips the timeout. (How
/// reads *scale* with readers is wall-clock: `benchmark/`.)
#[test]
fn a_writer_parked_mid_cycle_does_not_block_readers() {
    let replica = FilterReplica::new(0);
    let master = one_person_behind(&replica);
    let query = SearchRequest::from_root(Filter::parse("(objectclass=person)").expect("ok"));
    let epoch = replica.epoch();
    let (answer, seen_epoch) =
        read_while_a_writer_is_parked(&replica, master, || (replica.try_answer(&query), replica.epoch()));
    assert_eq!(seen_epoch, epoch, "nothing is published mid-cycle");
    assert_eq!(ver(answer), "v0", "the pre-cycle epoch's answer");
    assert_eq!(replica.epoch(), epoch + 1);
    assert_eq!(ver(replica.try_answer(&query)), "v1");
}

/// The first query that plans on an attribute the replica's index does
/// not keep has it kept — under the writer lock, taken only if free. With
/// a writer parked mid-cycle the reader does not wait: it answers at once,
/// correctly, by verifying the candidates, and keeps nothing. After the
/// cycle the next such query keeps the attribute, and publishes no epoch.
#[test]
fn a_reader_asking_for_a_new_attribute_does_not_wait_for_a_parked_writer() {
    let obs = Obs::new();
    let replica = FilterReplica::with_obs(0, obs.clone());
    let master = one_person_behind(&replica);
    let asked = |v: &str| {
        let f = format!("(&(objectclass=person)(ver={v}))");
        SearchRequest::from_root(Filter::parse(&f).expect("ok"))
    };
    let kept = || obs.registry().gauge("fbdr_replica_index_kept_attrs").get();
    let epoch = replica.epoch();
    let (old, new) = read_while_a_writer_is_parked(&replica, master, || {
        (replica.try_answer(&asked("v0")), replica.try_answer(&asked("v1")))
    });
    assert_eq!(ver(old), "v0", "the pre-cycle epoch's answer");
    assert_eq!(new.expect("contained"), vec![], "the pre-cycle epoch has no v1");
    assert_eq!(kept(), 0, "a busy writer keeps nothing");
    assert_eq!(replica.epoch(), epoch + 1);
    assert_eq!(ver(replica.try_answer(&asked("v1"))), "v1");
    assert_eq!(kept(), 2, "objectclass and ver");
    assert_eq!(replica.try_answer(&asked("v0")).expect("contained"), vec![]);
    assert_eq!(replica.epoch(), epoch + 1, "keeping is no new epoch");
}

/// A master holding `groups` groups of `members` people each, every one at
/// `ver=v0`, and a replica holding all of them through one persist-mode
/// filter, `(objectclass=person)`.
fn persist_groups(groups: usize, members: usize) -> (SyncMaster, FilterReplica) {
    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix("o=xyz".parse().expect("dn"));
    master.dit_mut().add(Entry::new("o=xyz".parse().expect("dn"))).expect("add");
    for g in 0..groups {
        for m in 0..members {
            let person = Entry::new(format!("cn=g{g}m{m},o=xyz").parse().expect("dn"))
                .with("objectclass", "person")
                .with("grp", &format!("g{g}"))
                .with("ver", "v0");
            master.dit_mut().add(person).expect("add");
        }
    }
    let replica = FilterReplica::new(0);
    let everyone = SearchRequest::from_root(Filter::parse("(objectclass=person)").expect("ok"));
    replica.install_filter_persistent(&mut master, everyone).expect("install");
    (master, replica)
}

/// Moves every member of every group to `ver`, one update each.
fn move_everyone(master: &mut SyncMaster, groups: usize, members: usize, ver: &str) {
    for g in 0..groups {
        for m in 0..members {
            master
                .apply(UpdateOp::Modify {
                    dn: format!("cn=g{g}m{m},o=xyz").parse().expect("dn"),
                    mods: vec![Modification::Replace("ver".into(), vec![ver.into()])],
                })
                .expect("apply");
        }
    }
}

/// The `ver` of every entry of an answer, in DN order.
fn vers(answer: Option<Vec<Entry>>) -> Vec<String> {
    let mut entries = answer.expect("the stored filter answers");
    entries.sort_by(|a, b| a.dn().cmp(b.dn()));
    entries.iter().map(|e| e.first_value(&"ver".into()).expect("ver").raw().to_owned()).collect()
}

/// A drain edits the published epoch in place only when nobody holds it.
/// An epoch held across a drain answers as it did before, and the drain
/// still publishes — beside it. Once the epoch is let go, the next drain
/// publishes in place, and the answer follows.
#[test]
fn a_held_epoch_answers_as_before_while_a_drain_publishes_beside_it() {
    let (mut master, replica) = persist_groups(1, 3);
    let query = SearchRequest::from_root(Filter::parse("(&(objectclass=person)(grp=g0))").expect("ok"));
    let epoch = replica.epoch();
    let held = replica.hold_epoch();
    move_everyone(&mut master, 1, 3, "v1");
    assert_eq!(replica.drain_notifications().full_entries, 3);
    assert_eq!(held.epoch(), epoch, "a held epoch keeps its number");
    assert_eq!(vers(held.try_answer(&query)), ["v0"; 3], "and its content");
    assert_eq!(replica.epoch(), epoch + 1, "the drain published");
    assert_eq!(vers(replica.try_answer(&query)), ["v1"; 3]);
    drop(held);
    move_everyone(&mut master, 1, 3, "v2");
    assert_eq!(replica.drain_notifications().full_entries, 3);
    assert_eq!(replica.epoch(), epoch + 2);
    assert_eq!(vers(replica.try_answer(&query)), ["v2"; 3]);
}

/// Readers race a stream of persist drains, each of which carries one
/// round: every member of every group moved to `v{round}`, applied as one
/// epoch. Whether a drain finds the epoch held (and publishes beside it)
/// or not (and edits it in place), every answer is one epoch's content:
/// a reader holding epoch `base + r` sees round `r` everywhere, and a
/// plain `try_answer` never sees two rounds in one group.
#[test]
fn readers_never_see_half_a_drained_batch() {
    const GROUPS: usize = 4;
    const MEMBERS: usize = 4;
    const ROUNDS: usize = 300;
    let (mut master, replica) = persist_groups(GROUPS, MEMBERS);
    let base = replica.epoch();
    let group_query = |g: usize| {
        let f = format!("(&(objectclass=person)(grp=g{g}))");
        SearchRequest::from_root(Filter::parse(&f).expect("ok"))
    };
    let done = AtomicBool::new(false);
    let start = Barrier::new(3);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|t| {
                let (replica, done, start, group_query) = (&replica, &done, &start, &group_query);
                s.spawn(move || {
                    start.wait();
                    let mut answered = 0u64;
                    let mut i = t;
                    loop {
                        let g = i % GROUPS;
                        i += 1;
                        let seen = if i % 2 == 0 {
                            let held = replica.hold_epoch();
                            let round = held.epoch() - base;
                            let seen = vers(held.try_answer(&group_query(g)));
                            assert_eq!(seen, vec![format!("v{round}"); MEMBERS], "epoch {round}");
                            seen
                        } else {
                            vers(replica.try_answer(&group_query(g)))
                        };
                        assert_eq!(seen.len(), MEMBERS, "group g{g} must be complete");
                        assert!(seen.windows(2).all(|w| w[0] == w[1]), "torn read: {seen:?}");
                        answered += 1;
                        if done.load(Ordering::Relaxed) {
                            break answered;
                        }
                    }
                })
            })
            .collect();
        start.wait();
        for round in 1..=ROUNDS {
            move_everyone(&mut master, GROUPS, MEMBERS, &format!("v{round}"));
            assert_eq!(replica.drain_notifications().full_entries, (GROUPS * MEMBERS) as u64);
        }
        done.store(true, Ordering::Relaxed);
        for reader in readers {
            assert!(reader.join().expect("no torn read") > 0);
        }
    });
    assert_eq!(replica.epoch(), base + ROUNDS as u64);
    for g in 0..GROUPS {
        assert_eq!(vers(replica.try_answer(&group_query(g))), vec![format!("v{ROUNDS}"); MEMBERS]);
    }
}

/// The first search that plans on an attribute the master store does not
/// keep lists it under the search's shared borrow, once. Two threads make
/// that first search at the same moment on one shared store (`DitStore` is
/// `Send + Sync`, `send_sync_markers`): both get the brute-force answer,
/// and one of them lists the attribute while the other allocates what a
/// search of a kept attribute does, give or take the list of what to keep.
#[test]
fn two_first_searches_of_one_attribute_list_it_once() {
    let mut dit = DitStore::new();
    dit.add_suffix("o=xyz".parse().expect("dn"));
    dit.insert(Entry::new("o=xyz".parse().expect("dn"))).expect("suffix");
    for i in 0..2_000 {
        dit.insert(
            Entry::new(format!("cn=p{i},o=xyz").parse().expect("dn"))
                .with("objectclass", "person")
                .with("telephoneNumber", &format!("555-{i:05}")),
        )
        .expect("person");
    }
    let req = SearchRequest::from_root(Filter::parse("(telephoneNumber=555-001*)").expect("ok"));
    let dns = |answer: Vec<Entry>| {
        let mut dns: Vec<Dn> = answer.iter().map(|e| e.dn().clone()).collect();
        dns.sort();
        dns
    };
    let brute = dns(dit.iter().filter(|e| req.matches(e)).cloned().collect());
    assert_eq!(brute.len(), 100);
    assert_eq!(dit.check_index(), Ok(vec![]), "nothing is kept before a search plans");
    let warm = {
        let twin = dit.clone();
        twin.search(&req);
        allocations_of(|| twin.search(&req)).1
    };

    let start = Barrier::new(2);
    let first = || {
        start.wait();
        let (answer, allocations) = allocations_of(|| dit.search(&req));
        (dns(answer), allocations)
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(first);
        let b = s.spawn(first);
        (a.join().expect("thread a"), b.join().expect("thread b"))
    });
    assert_eq!((&a.0, &b.0), (&brute, &brute));
    let listed = [a.1, b.1].iter().filter(|&&n| n > warm + 1).count();
    println!("first searches: {} and {} allocations, {warm} once kept", a.1, b.1);
    assert_eq!(listed, 1, "{} and {} allocations against {warm}: listed {listed} times", a.1, b.1);
    assert_eq!(dit.check_index(), Ok(vec!["telephonenumber"]));
}

/// The metrics registry uses `Relaxed` atomics throughout — cheap on the
/// hot path — which is only sound because nothing reads a *relationship*
/// between counters mid-flight. This pins the contract the relaxation
/// relies on: once the writer threads quiesce (joined), every counter and
/// histogram holds the exact total, and a replica's stats snapshot equals
/// the registry's view of the same counters.
#[test]
fn registry_counters_are_exact_after_quiesce() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 10_000;

    // Raw registry: all threads hammer the same counter, gauge and
    // histogram handles.
    let reg = MetricsRegistry::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let reg = &reg;
            s.spawn(move || {
                let c = reg.counter("chaos_total");
                let g = reg.gauge("water_level");
                let h = reg.histogram("lap_ns");
                for i in 0..PER_THREAD {
                    c.inc();
                    g.add(1);
                    h.record((t * PER_THREAD + i) as u64);
                }
            });
        }
    });
    assert_eq!(reg.counter("chaos_total").get(), (THREADS * PER_THREAD) as u64);
    assert_eq!(reg.gauge("water_level").get(), (THREADS * PER_THREAD) as i64);
    let lap = reg.snapshot().histograms["lap_ns"].clone();
    assert_eq!(lap.count, (THREADS * PER_THREAD) as u64);
    assert_eq!(lap.max, (THREADS * PER_THREAD - 1) as u64);

    // Through the stack: an obs-bound replica answering from many threads
    // must report the same exact totals via `stats()` (the atomic
    // snapshot) and via the registry export (the same Arc<Counter>s).
    let obs = Obs::new();
    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix("o=xyz".parse().expect("dn"));
    master
        .dit_mut()
        .add(Entry::new("o=xyz".parse().expect("dn")).with("objectclass", "organization"))
        .expect("add");
    master
        .dit_mut()
        .add(
            Entry::new("cn=p,o=xyz".parse().expect("dn"))
                .with("objectclass", "person")
                .with("serialNumber", "400000"),
        )
        .expect("add");
    let replica = FilterReplica::with_obs(0, obs.clone());
    replica
        .install_filter(
            &mut master,
            SearchRequest::from_root(Filter::parse("(serialNumber=4*)").expect("ok")),
        )
        .expect("install");
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let replica = &replica;
            s.spawn(move || {
                let q = SearchRequest::from_root(
                    Filter::parse("(serialNumber=400000)").expect("ok"),
                );
                for _ in 0..PER_THREAD / 10 {
                    assert_eq!(replica.try_answer(&q).expect("contained").len(), 1);
                }
            });
        }
    });
    let queries = (THREADS * (PER_THREAD / 10)) as u64;
    assert_eq!(replica.stats().queries, queries);
    assert_eq!(replica.stats().hits, queries);
    let reg = obs.registry();
    assert_eq!(reg.counter("fbdr_replica_queries_total").get(), queries);
    assert_eq!(reg.counter("fbdr_replica_hits_total").get(), queries);
    assert_eq!(reg.histogram("fbdr_replica_try_answer_ns").count(), queries);
}

#[test]
fn concurrent_clients_share_one_network() {
    // Master with 500 people; replica holding one serial block.
    let mut dit = DitStore::new();
    dit.add_suffix("o=xyz".parse().expect("dn"));
    dit.add(Entry::new("o=xyz".parse().expect("dn")).with("objectclass", "organization"))
        .expect("add");
    for i in 0..500 {
        dit.add(
            Entry::new(format!("cn=e{i},o=xyz").parse().expect("dn"))
                .with("objectclass", "person")
                .with("serialNumber", &format!("{:06}", 100_000 + i)),
        )
        .expect("add");
    }
    let mut master = SyncMaster::with_dit(dit.clone());
    let replica = FilterReplica::new(0);
    replica
        .install_filter(
            &mut master,
            SearchRequest::from_root(Filter::parse("(serialNumber=1000*)").expect("ok")),
        )
        .expect("install");

    let mut net = Network::new();
    net.add_server(fbdr::net::Server::new(
        "ldap://master",
        dit,
        vec![NamingContext::new("o=xyz".parse().expect("dn"))],
        None,
    ));
    net.add_service(Box::new(ReplicaNode::new("ldap://replica", replica, "ldap://master")));
    let net = Arc::new(net);

    let mut handles = Vec::new();
    for t in 0..8 {
        let net = Arc::clone(&net);
        handles.push(std::thread::spawn(move || {
            let mut client = net.client();
            let mut hits = 0u64;
            for i in 0..200 {
                let serial = 100_000 + (t * 37 + i * 13) % 500;
                let q = SearchRequest::from_root(
                    Filter::parse(&format!("(serialNumber={serial:06})")).expect("ok"),
                );
                let res = client.search("ldap://replica", &q).expect("resolves");
                assert_eq!(res.entries.len(), 1, "serial {serial} must resolve");
                if res.stats.round_trips == 1 {
                    hits += 1;
                }
            }
            hits
        }));
    }
    let total_hits: u64 = handles.into_iter().map(|h| h.join().expect("no panics")).sum();
    // The 1000xx block is 100 of 500 serials: roughly 20% one-round-trip
    // hits across all threads.
    assert!(total_hits > 0, "replica should serve some queries");
    let total = 8 * 200;
    let ratio = total_hits as f64 / total as f64;
    assert!((0.1..0.4).contains(&ratio), "hit ratio {ratio} out of expected band");
}
